"""SLO engine: burn-rate math, alert hysteresis, evaluator, CLI."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import one_tenant_config, serve_gateway
from repro.api import EngineConfig
from repro.cli import main as cli_main
from repro.errors import ConfigError
from repro.obs.journal import RequestJournal
from repro.obs.slo import (
    AlertState,
    SLOEvaluator,
    SLOPolicy,
    burn_rate,
    default_totals,
    evaluate_journal,
    merged_policy,
    resolve_policy,
    window_counts,
)
from repro.serving.telemetry import MetricsRegistry

events = st.lists(
    st.tuples(
        st.floats(0.0, 10_000.0, allow_nan=False, allow_infinity=False),
        st.booleans(),
    ),
    max_size=200,
)


class TestBurnRateProperties:
    @given(
        st.integers(0, 10**6), st.integers(0, 10**6),
        st.floats(0.001, 1.0, allow_nan=False),
    )
    def test_non_negative_and_empty_window_burns_nothing(
        self, bad, total, budget
    ):
        rate = burn_rate(min(bad, total), total, budget)
        assert rate >= 0.0
        if total == 0:
            assert rate == 0.0

    @given(st.integers(1, 10**6), st.floats(0.001, 1.0, allow_nan=False))
    def test_full_budget_consumption_is_burn_one(self, total, budget):
        # bad/total == budget  <=>  burn == 1 (within float error).
        bad = total * budget
        assert burn_rate(bad, total, budget) == pytest.approx(1.0)

    @given(
        st.integers(0, 1000), st.integers(1, 1000),
        st.floats(0.001, 1.0, allow_nan=False),
    )
    def test_monotone_in_bad_events(self, bad, total, budget):
        bad = min(bad, total)
        assert burn_rate(bad, total, budget) <= burn_rate(
            min(bad + 1, total), total, budget
        ) + 1e-12


class TestWindowCountsProperties:
    @given(events, st.floats(0.0, 10_000.0), st.floats(0.1, 10_000.0))
    def test_split_and_sum_equals_whole(self, stream, now, window):
        """Counting two halves separately sums to counting the whole."""
        half = len(stream) // 2
        whole = window_counts(stream, now, window)
        left = window_counts(stream[:half], now, window)
        right = window_counts(stream[half:], now, window)
        assert whole == (left[0] + right[0], left[1] + right[1])

    @given(events, st.floats(0.0, 10_000.0), st.floats(0.1, 10_000.0))
    def test_bad_never_exceeds_total(self, stream, now, window):
        total, bad = window_counts(stream, now, window)
        assert 0 <= bad <= total <= len(stream)

    @given(events, st.floats(0.0, 10_000.0))
    def test_widening_the_window_never_loses_events(self, stream, now):
        narrow = window_counts(stream, now, 10.0)
        wide = window_counts(stream, now, 1000.0)
        assert wide[0] >= narrow[0]
        assert wide[1] >= narrow[1]

    def test_half_open_boundaries(self):
        # (now - window, now]: the right edge is in, the left edge out.
        stream = [(90.0, True), (100.0, True)]
        assert window_counts(stream, 100.0, 10.0) == (1, 1)
        assert window_counts(stream, 100.0, 10.1) == (2, 2)


class TestAlertStateProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 20.0, allow_nan=False),
                st.floats(0.0, 20.0, allow_nan=False),
            ),
            max_size=50,
        )
    )
    @settings(max_examples=200)
    def test_alert_invariants_over_any_burn_sequence(self, burns):
        """Set only when BOTH windows >= threshold; clear only under
        threshold * hysteresis; in between the state holds."""
        threshold, hysteresis = 6.0, 0.5
        state = AlertState()
        previous = False
        for fast, slow in burns:
            now = state.update(
                fast, slow, threshold=threshold, hysteresis=hysteresis
            )
            if not previous and now:
                assert fast >= threshold and slow >= threshold
            if previous and not now:
                assert max(fast, slow) < threshold * hysteresis
            previous = now

    def test_hysteresis_prevents_flapping(self):
        state = AlertState()
        assert state.update(7.0, 7.0, threshold=6.0, hysteresis=0.5)
        # Hovering just below the set threshold must not clear.
        assert state.update(5.9, 5.9, threshold=6.0, hysteresis=0.5)
        assert state.update(3.1, 0.0, threshold=6.0, hysteresis=0.5)
        assert not state.update(2.9, 2.9, threshold=6.0, hysteresis=0.5)
        # And a single hot window never re-sets the alert on its own.
        assert not state.update(10.0, 1.0, threshold=6.0, hysteresis=0.5)


class TestSLOPolicy:
    def test_round_trip_codec(self):
        policy = SLOPolicy(
            latency_p99_ms=250.0, error_rate=0.02,
            fast_window_seconds=60.0, slow_window_seconds=600.0,
        )
        assert SLOPolicy.from_dict(policy.to_dict()) == policy

    def test_undeclared_objectives_stay_undeclared(self):
        policy = SLOPolicy(error_rate=0.05)
        assert "latency_p99_ms" not in policy.to_dict()
        assert policy.objectives() == ["error_rate"]

    def test_rejects_unknown_keys_and_bad_values(self):
        with pytest.raises(ConfigError, match="unknown slo key"):
            SLOPolicy.from_dict({"error_rate": 0.05, "latency_p9_ms": 1.0})
        with pytest.raises(ConfigError, match="at least one objective"):
            SLOPolicy.from_dict({})
        with pytest.raises(ConfigError, match="error_rate"):
            SLOPolicy(error_rate=1.5)
        with pytest.raises(ConfigError, match="windows"):
            SLOPolicy(error_rate=0.05, fast_window_seconds=600.0,
                      slow_window_seconds=60.0)

    def test_resolve_and_merge(self):
        default = SLOPolicy(error_rate=0.05)
        own = SLOPolicy(latency_p99_ms=100.0)
        assert resolve_policy(own, default) is own
        assert resolve_policy(None, default) is default
        merged = merged_policy(default, burn_threshold=10.0)
        assert merged.burn_threshold == 10.0
        assert merged_policy(default) is default


class TestSLOEvaluator:
    def policy(self, **extra):
        defaults = dict(
            latency_p99_ms=100.0, error_rate=0.1,
            fast_window_seconds=60.0, slow_window_seconds=600.0,
        )
        defaults.update(extra)
        return SLOPolicy(**defaults)

    def test_no_alert_on_empty_windows(self):
        registry = MetricsRegistry()
        evaluator = SLOEvaluator(self.policy(), registry)
        for step in range(5):
            report = evaluator.evaluate(now=1000.0 + step * 30.0)
            assert not report.alerting
            assert all(o.fast_burn == 0.0 for o in report.objectives)

    def test_error_burn_sets_and_clears_with_hysteresis(self):
        registry = MetricsRegistry()
        totals = {"requests": 0, "errors": 0, "cache_hits": 0,
                  "cache_misses": 0, "feedback_total": 0,
                  "feedback_rejected": 0}
        evaluator = SLOEvaluator(
            self.policy(), registry, totals_fn=lambda: dict(totals)
        )
        now = 10_000.0
        evaluator.evaluate(now=now)
        # Everything fails ("requests" counts successes, "errors" adds
        # to the denominator): burn 1/0.1 = 10 >= 6 in both windows.
        totals["errors"] += 100
        now += 30.0
        report = evaluator.evaluate(now=now)
        status = next(
            o for o in report.objectives if o.objective == "error_rate"
        )
        assert status.alerting and status.fast_burn == pytest.approx(10.0)
        # Recovery: enough clean traffic pulls both windows under
        # threshold * hysteresis (= 3, i.e. error rate < 30%).
        totals["requests"] += 2000
        now += 700.0  # the bad sample ages out of both windows
        report = evaluator.evaluate(now=now)
        now += 30.0
        totals["requests"] += 100
        report = evaluator.evaluate(now=now)
        status = next(
            o for o in report.objectives if o.objective == "error_rate"
        )
        assert not status.alerting

    def test_latency_objective_counts_slow_requests_exactly(self):
        registry = MetricsRegistry()
        evaluator = SLOEvaluator(self.policy(), registry)
        now = time.monotonic()
        for fast_ms in (10.0, 20.0, 30.0):
            registry.record_latency("translate", fast_ms / 1000.0)
        for slow_ms in (150.0, 250.0):
            registry.record_latency("translate", slow_ms / 1000.0)
        report = evaluator.evaluate(now=now + 1.0)
        status = next(
            o for o in report.objectives if o.objective == "latency_p99_ms"
        )
        assert status.fast_events == 5
        # 2 of 5 over 100 ms against the fixed 1% budget: burn = 40.
        assert status.fast_burn == pytest.approx(40.0)

    def test_publishes_burn_and_alert_gauges(self):
        registry = MetricsRegistry()
        evaluator = SLOEvaluator(self.policy(), registry)
        evaluator.evaluate(now=123.0)
        assert evaluator.last_report is not None
        gauges = registry.snapshot()["gauges"]
        assert 'slo_burn_rate{objective="error_rate",window="fast"}' in gauges
        assert 'slo_alert{objective="latency_p99_ms"}' in gauges

    def test_default_totals_reads_registry_counters(self):
        registry = MetricsRegistry()
        registry.increment("requests", 7)
        registry.increment("translate_errors", 2)
        registry.increment("feedback", labels={"verdict": "accept"})
        registry.increment("feedback", labels={"verdict": "reject"})
        registry.increment("feedback", labels={"verdict": "correct"})
        totals = default_totals(registry)
        assert totals["requests"] == 7
        assert totals["errors"] == 2
        assert totals["feedback_total"] == 3
        # reject AND correct burn budget; accept does not.
        assert totals["feedback_rejected"] == 2


def write_journal(directory, rows):
    journal = RequestJournal(directory, flush_interval=3600.0)
    for row in rows:
        assert journal.offer(row)
    journal.close()


def request_row(ts, tenant="mas", latency_ms=20.0, cache_hit=False):
    return ("request", ts, tenant, "papers", None, None, latency_ms,
            cache_hit, "v1", None)


class TestEvaluateJournal:
    def test_healthy_journal_reports_healthy(self, tmp_path):
        base = 1_700_000_000.0
        write_journal(
            tmp_path, [request_row(base + i) for i in range(20)]
        )
        policy = SLOPolicy(latency_p99_ms=100.0, error_rate=0.1)
        reports = evaluate_journal(tmp_path, policy)
        assert set(reports) == {"mas"}
        assert reports["mas"].healthy and not reports["mas"].alerting

    def test_error_storm_alerts_per_tenant(self, tmp_path):
        base = 1_700_000_000.0
        rows = [request_row(base + i, tenant="good") for i in range(10)]
        rows += [
            ("error", base + i, "bad", "papers", None, "TranslationError",
             5.0, "v1")
            for i in range(10)
        ]
        write_journal(tmp_path, rows)
        policy = SLOPolicy(error_rate=0.1)
        reports = evaluate_journal(tmp_path, policy)
        assert not reports["good"].alerting
        assert reports["bad"].alerting

    def test_feedback_rejects_burn_budget(self, tmp_path):
        base = 1_700_000_000.0
        rows = [
            ("feedback", base + i, "mas", verdict, None, None, None, None)
            for i, verdict in enumerate(
                ["accept", "reject", "correct", "reject"]
            )
        ]
        write_journal(tmp_path, rows)
        policy = SLOPolicy(feedback_reject_rate=0.1)
        report = evaluate_journal(tmp_path, policy)["mas"]
        status = report.objectives[0]
        assert status.slow_events == 4
        # 3 of 4 non-accept over a 0.1 budget: burn 7.5, alerting.
        assert status.slow_burn == pytest.approx(7.5)
        assert report.alerting

    def test_windows_anchor_at_newest_record(self, tmp_path):
        base = 1_700_000_000.0
        # Old errors, then an hour of silence, then clean traffic: the
        # fast window must only see the clean tail.
        rows = [
            ("error", base + i, "mas", "x", None, "TranslationError",
             5.0, "v1")
            for i in range(5)
        ]
        rows += [request_row(base + 7200.0 + i) for i in range(10)]
        write_journal(tmp_path, rows)
        policy = SLOPolicy(error_rate=0.1)
        report = evaluate_journal(tmp_path, policy)["mas"]
        status = report.objectives[0]
        assert status.fast_burn == 0.0
        assert not report.alerting


class TestSLOCli:
    def test_journal_replay_exit_codes(self, tmp_path, capsys):
        base = 1_700_000_000.0
        write_journal(tmp_path, [request_row(base + i) for i in range(5)])
        code = cli_main([
            "slo", "--journal", str(tmp_path), "--error-rate", "0.1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "status: healthy" in out
        assert "error_rate" in out

    def test_alerting_journal_exits_one(self, tmp_path, capsys):
        base = 1_700_000_000.0
        rows = [
            ("error", base + i, "mas", "x", None, "TranslationError",
             5.0, "v1")
            for i in range(10)
        ]
        write_journal(tmp_path, rows)
        code = cli_main([
            "slo", "--journal", str(tmp_path), "--error-rate", "0.1",
        ])
        assert code == 1
        assert "ALERTING" in capsys.readouterr().out

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        assert cli_main(["slo"]) == 2
        assert cli_main([
            "slo", "--url", "http://127.0.0.1:1", "--journal", str(tmp_path),
        ]) == 2
        err = capsys.readouterr().err
        assert "exactly one" in err

    def test_unreachable_url_exits_two(self, capsys):
        assert cli_main(["slo", "--url", "http://127.0.0.1:9"]) == 2
        assert "could not fetch" in capsys.readouterr().err

    def test_url_reads_a_repro_serve_gateway(self, capsys):
        # `repro serve` answers /slo with per-tenant reports like any
        # gateway; its one tenant is the dataset.
        engine = EngineConfig(
            dataset="mas", slo=SLOPolicy(error_rate=0.5)
        )
        with serve_gateway(one_tenant_config(engine)) as server:
            url = f"http://127.0.0.1:{server.server_address[1]}"
            code = cli_main(["slo", "--url", url])
        out = capsys.readouterr().out
        assert code == 0
        assert "status: healthy" in out
        [row] = [line for line in out.splitlines() if "error_rate" in line]
        assert row.split()[0] == "mas"
