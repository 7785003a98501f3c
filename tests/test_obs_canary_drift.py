"""Quality drift + shadow canary: synthetic distributions, replay diffs."""

from __future__ import annotations

import json
import urllib.request

import pytest

from conftest import one_tenant_config, serve_gateway
from repro.obs.canary import CanaryReport, run_canary, tail_requests
from repro.obs.drift import (
    DriftMonitor,
    distribution_shift,
    normalized_entropy,
)
from repro.obs.histogram import Histogram
from repro.obs.journal import RequestJournal, replay_journal
from repro.obs.prometheus import parse_exposition
from repro.obs.slo import SLOPolicy
from repro.serving import MetricsRegistry


class Result:
    """The two attributes the drift/canary paths read off a ranking."""

    def __init__(self, sql: str, config_score: float = 1.0):
        self.sql = sql
        self.config_score = config_score


def feed(monitor: DriftMonitor, scores, sql="SELECT 1", truncated=0):
    for score in scores:
        monitor.observe([Result(sql, score)], truncated=truncated)


class TestDriftMonitor:
    def test_threshold_must_be_a_fraction(self):
        with pytest.raises(ValueError, match="threshold"):
            DriftMonitor(0.0)
        with pytest.raises(ValueError, match="threshold"):
            DriftMonitor(1.5)

    def test_empty_window_tick_is_a_no_op(self):
        monitor = DriftMonitor(0.2)
        assert monitor.tick("learn") is None
        assert monitor.ticks == 0

    def test_first_window_becomes_the_reference(self):
        monitor = DriftMonitor(0.2, min_samples=5)
        feed(monitor, [0.5] * 10)
        report = monitor.tick("learn")
        assert report is not None and not report.flagged
        assert report.reference_samples == 0
        assert monitor.stats()["reference_samples"] == 10

    def test_stable_distribution_never_flags(self):
        monitor = DriftMonitor(0.2, min_samples=5)
        for _ in range(4):
            feed(monitor, [0.4, 0.5, 0.6] * 5)
            report = monitor.tick("learn")
            assert not report.flagged
        assert monitor.flags == 0

    def test_shifted_scores_flag_past_the_threshold(self):
        monitor = DriftMonitor(0.5, min_samples=5)
        feed(monitor, [0.2] * 20)
        monitor.tick("learn")
        # Disjoint mass: total-variation distance 1.0 > 0.5.
        feed(monitor, [1.5] * 20)
        report = monitor.tick("reload")
        assert report.flagged
        assert report.score_shift == pytest.approx(1.0)
        assert report.drift_score == pytest.approx(1.0)
        assert monitor.flags == 1

    def test_small_windows_are_absorbed_without_judgment(self):
        monitor = DriftMonitor(0.5, min_samples=50)
        feed(monitor, [0.2] * 60)
        monitor.tick("learn")
        feed(monitor, [1.5] * 10)  # fully shifted, but tiny
        report = monitor.tick("learn")
        assert not report.flagged
        # The tiny window still joined the lifetime reference.
        assert monitor.stats()["reference_samples"] == 70

    def test_truncation_rate_shift_flags(self):
        monitor = DriftMonitor(0.5, min_samples=5)
        feed(monitor, [0.5] * 20, truncated=0)
        monitor.tick("learn")
        feed(monitor, [0.5] * 20, truncated=1)
        report = monitor.tick("learn")
        assert report.truncation_delta == pytest.approx(1.0)
        assert report.flagged

    def test_adopted_reference_judges_the_first_new_window(self):
        """The reload carry-over: a fresh monitor with the old engine's
        reference flags immediately when the new artifact answers
        differently."""
        old = DriftMonitor(0.5, min_samples=5)
        feed(old, [0.2] * 20)
        old.tick("learn")
        fresh = DriftMonitor(0.5, min_samples=5)
        fresh.adopt_reference(old.reference_snapshot())
        feed(fresh, [1.5] * 20)
        report = fresh.tick("reload")
        assert report.flagged and report.reference_samples == 20
        # adopt_reference never clobbers an existing reference.
        other = DriftMonitor(0.5, min_samples=5)
        feed(other, [1.0] * 10)
        other.tick("learn")
        other.adopt_reference(old.reference_snapshot())
        assert other.stats()["reference_samples"] == 10

    def test_publish_exports_gauge_even_before_the_first_tick(self):
        registry = MetricsRegistry()
        monitor = DriftMonitor(0.2)
        monitor.publish(registry)
        snapshot = registry.snapshot()
        assert snapshot["gauges"]["drift_score"] == 0.0
        assert snapshot["counters"]["drift_ticks"] == 0

    def test_distribution_shift_guards(self):
        a = Histogram((0.5, 1.0))
        b = Histogram((0.5,))
        with pytest.raises(ValueError, match="bounds"):
            distribution_shift(a, b)
        assert distribution_shift(a, Histogram((0.5, 1.0))) == 0.0

    def test_entropy_collapse_is_visible(self):
        spread = {f"k{i}": 1 for i in range(8)}
        assert normalized_entropy(spread) == pytest.approx(1.0)
        assert normalized_entropy({"k0": 8}) == 0.0


# --------------------------------------------------------------- canary


class StubEngine:
    """Keyword-joining fake: ``answers`` overrides per joined text."""

    parser = None

    def __init__(self, answers=None, score=1.0, failing=False):
        self._answers = answers or {}
        self._score = score
        self._failing = failing

    def _lookup(self, request):
        if self._failing:
            raise RuntimeError("boom")
        text = " ".join(k.text for k in request.keywords)
        results = [Result(self._answers.get(text, f"SELECT '{text}'"),
                          self._score)]
        return request.keywords, results, 0, 0.0, True


class TestShadowReplays:
    def test_replays_leave_the_live_registry_alone(self):
        """A canary replay is not a served request: it warms the caches
        but counts no request and records no latency sample."""
        from repro.api import Engine, EngineConfig

        records = [{"kind": "request", "nlq": "return the papers after 2000",
                    "keywords": None}] * 5
        with Engine.from_config(EngineConfig(dataset="mas")) as live, \
                Engine.from_config(EngineConfig(dataset="mas")) as candidate:
            report = run_canary(live, candidate, records,
                                tenant="mas", threshold=0.1)
            assert report.replayed == 5 and report.mismatches == 0
            for engine in (live, candidate):
                snapshot = engine.metrics.snapshot()
                assert snapshot["counters"].get("requests", 0) == 0
                assert snapshot["latencies"] == {}
                translate = next(
                    c for c in engine.stats()["caches"]
                    if c["name"] == "translate"
                )
                # The warm-up is the documented feature: one miss, then hits.
                assert (translate["misses"], translate["hits"]) == (1, 4)


def record(texts):
    return {"kind": "request", "nlq": None, "keywords": list(texts)}


class TestRunCanary:
    def test_agreement_passes(self):
        report = run_canary(
            StubEngine(), StubEngine(),
            [record(["papers"]), record(["authors"])],
            tenant="mas", threshold=0.1,
        )
        assert report.replayed == 2 and report.mismatches == 0
        assert report.passed and not report.blocked
        assert "2 request(s)" in report.describe()

    def test_divergence_above_threshold_blocks(self):
        candidate = StubEngine({"papers": "SELECT wrong"})
        report = run_canary(
            StubEngine(), candidate,
            [record(["papers"]), record(["authors"]), record(["venues"])],
            tenant="mas", threshold=0.25,
            old_version="v1", new_version="v2",
        )
        assert report.divergence == pytest.approx(1 / 3)
        assert not report.passed and report.blocked
        payload = report.as_dict()
        assert payload["old_version"] == "v1"
        assert payload["blocked"] is True

    def test_force_overrides_the_block(self):
        candidate = StubEngine({"papers": "SELECT wrong"})
        report = run_canary(
            StubEngine(), candidate, [record(["papers"])],
            tenant="mas", threshold=0.1, forced=True,
        )
        assert not report.passed and not report.blocked
        assert report.as_dict()["forced"] is True

    def test_empty_replay_set_passes(self):
        report = run_canary(
            StubEngine(), StubEngine(), [], tenant="mas", threshold=0.1
        )
        assert report.replayed == 0
        assert report.divergence == 0.0 and report.passed

    def test_matching_failures_count_as_agreement(self):
        report = run_canary(
            StubEngine(failing=True), StubEngine(failing=True),
            [record(["papers"])], tenant="mas", threshold=0.1,
        )
        assert report.replayed == 1 and report.mismatches == 0

    def test_one_sided_failure_is_a_mismatch(self):
        report = run_canary(
            StubEngine(), StubEngine(failing=True),
            [record(["papers"])], tenant="mas", threshold=0.1,
        )
        assert report.mismatches == 1 and report.blocked

    def test_score_shift_is_reported_not_gated(self):
        candidate = StubEngine(score=1.8)
        report = run_canary(
            StubEngine(score=0.2), candidate,
            [record(["papers"])] * 4, tenant="mas", threshold=0.5,
        )
        assert report.passed  # identical SQL either side
        assert report.score_shift == pytest.approx(1.0)

    def test_unreplayable_records_are_skipped(self):
        report = run_canary(
            StubEngine(), StubEngine(),
            [{"kind": "request", "nlq": None, "keywords": []},
             record(["papers"])],
            tenant="mas", threshold=0.1,
        )
        assert report.replayed == 1


class TestTailRequests:
    def write(self, directory, rows):
        journal = RequestJournal(directory, flush_interval=3600.0)
        for row in rows:
            assert journal.offer(row)
        journal.close()

    def request_row(self, ts, tenant="mas", nlq="papers"):
        return ("request", ts, tenant, nlq, None, None, 1.0, False,
                "v1", None)

    def test_tail_filters_tenant_and_keeps_the_newest(self, tmp_path):
        rows = [self.request_row(float(i), nlq=f"q{i}") for i in range(10)]
        rows.append(self.request_row(99.0, tenant="other", nlq="nope"))
        rows.append(("error", 100.0, "mas", "broken", None,
                     "TranslationError", 1.0, "v1"))
        self.write(tmp_path, rows)
        tail = tail_requests(tmp_path, "mas", 3)
        assert [r["nlq"] for r in tail] == ["q7", "q8", "q9"]
        assert tail_requests(tmp_path, "mas", 0) == []
        assert tail_requests(tmp_path, "missing", 5) == []

    def test_records_without_nlq_or_keywords_are_skipped(self, tmp_path):
        self.write(tmp_path, [
            ("request", 1.0, "mas", None, None, None, 1.0, False, "v1",
             None),
            self.request_row(2.0, nlq="real"),
        ])
        tail = tail_requests(tmp_path, "mas", 10)
        assert [r["nlq"] for r in tail] == ["real"]

    def test_canary_verdict_round_trips_through_the_journal(self, tmp_path):
        report = CanaryReport(
            tenant="mas", old_version="v1", new_version="v2",
            replayed=16, mismatches=12, divergence=0.75,
            score_shift=0.125, threshold=0.2, forced=False,
        )
        journal = RequestJournal(tmp_path, flush_interval=3600.0)
        assert journal.log_canary(report)
        journal.close()
        [row] = list(replay_journal(tmp_path))
        assert row["kind"] == "canary"
        assert row["divergence"] == 0.75
        assert row["passed"] is False and row["forced"] is False
        assert row["old_version"] == "v1" and row["new_version"] == "v2"


# ------------------------------------------- /slo over a live server


@pytest.fixture()
def slo_server(tmp_path):
    from repro.api import EngineConfig

    engine = EngineConfig(
        dataset="mas",
        slo=SLOPolicy(latency_p99_ms=5000.0, error_rate=0.5),
        drift_threshold=0.3,
    )
    config = one_tenant_config(engine, journal_dir=str(tmp_path / "journal"))
    with serve_gateway(config) as http_server:
        yield http_server


def _get(server, path):
    port = server.server_address[1]
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as resp:
        return resp.status, resp.headers.get("Content-Type", ""), resp.read()


class TestSLOEndpoint:
    def test_slo_reports_the_configured_objectives(self, slo_server):
        status, content_type, body = _get(slo_server, "/slo")
        assert status == 200 and content_type.startswith("application/json")
        payload = json.loads(body)
        assert payload["alerting"] is False
        report = payload["tenants"]["mas"]
        assert report["configured"] is True
        names = {o["objective"] for o in report["objectives"]}
        assert names == {"latency_p99_ms", "error_rate"}
        assert report["healthy"] is True

    def test_scrape_carries_slo_and_drift_gauges(self, slo_server):
        _get(slo_server, "/slo")  # force an evaluation
        _, _, page = _get(slo_server, "/metrics")
        samples = parse_exposition(page.decode("utf-8"))
        assert "repro_slo_burn_rate" in samples
        assert "repro_slo_alert" in samples
        assert "repro_drift_score" in samples
        assert "repro_journal_queue_depth" in samples


class TestGatewayConfigCodec:
    def test_slo_and_canary_round_trip(self, tmp_path):
        from repro.gateway import GatewayConfig

        config = GatewayConfig.from_dict({
            "tenants": {"mas": {"engine": {"dataset": "mas"}}},
            "journal_dir": str(tmp_path),
            "slo": {"error_rate": 0.1, "burn_threshold": 4.0},
            "canary_requests": 32,
            "canary_divergence": 0.25,
        })
        assert config.slo == SLOPolicy(error_rate=0.1, burn_threshold=4.0)
        round_tripped = GatewayConfig.from_dict(config.to_dict())
        assert round_tripped.canary_requests == 32
        assert round_tripped.canary_divergence == 0.25
        assert round_tripped.slo == config.slo

    def test_canary_requires_a_journal(self):
        from repro.errors import ConfigError
        from repro.gateway import GatewayConfig

        with pytest.raises(ConfigError, match="journal"):
            GatewayConfig.from_dict({
                "tenants": {"mas": {"engine": {"dataset": "mas"}}},
                "canary_requests": 8,
            })
