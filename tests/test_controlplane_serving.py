"""Control plane wired through engines, the gateway, and the HTTP servers.

The replica-shaped correctness battery: a request warmed by engine A
hits durably on engine B; an idempotent retry contributes exactly zero
extra QFG observations (even when two replicas race on the same key); a
crash between response-write and feedback-apply loses nothing; and an
accepted verdict measurably changes a subsequent translation's QFG
score.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.parse
import urllib.request

import pytest

from conftest import one_tenant_config, serve_gateway
from repro.api import Engine, EngineConfig
from repro.errors import ConfigError, IdempotencyError
from repro.gateway import Gateway, GatewayConfig, make_gateway_server

NLQ = "return the papers after 2000"


def _config(tmp_path, **extra) -> EngineConfig:
    return EngineConfig(
        dataset="mas",
        control_plane_path=str(tmp_path / "cp.db"),
        **extra,
    )


def _post(port, path, payload, headers=None):
    data = json.dumps(payload).encode()
    merged = {"Content-Type": "application/json"}
    merged.update(headers or {})
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, headers=merged
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _get(port, path):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as response:
        content_type = response.headers.get("Content-Type", "")
        body = response.read()
        if "json" in content_type:
            return response.status, json.loads(body)
        return response.status, body.decode()


class TestDurableCache:
    def test_warm_entry_hits_on_second_replica(self, tmp_path):
        """Replica A computes; replica B on the same store serves it warm."""
        with Engine.from_config(_config(tmp_path)) as a:
            first = a.translate(NLQ)
            assert first.provenance.get("control_plane") is None
            a.control_plane.flush()
        with Engine.from_config(_config(tmp_path)) as b:
            warm = b.translate(NLQ)
            assert warm.provenance["control_plane"] == "durable"
            assert warm.top.sql == first.top.sql
            assert warm.top.config_score == pytest.approx(
                first.top.config_score
            )
            assert b.service.metrics.counter("durable_cache_hits") == 1

    def test_durable_entry_survives_restart(self, tmp_path):
        with Engine.from_config(_config(tmp_path)) as a:
            a.translate(NLQ)
            a.control_plane.flush()
        # Same process-independent file, third construction.
        with Engine.from_config(_config(tmp_path)) as c:
            assert c.translate(NLQ).provenance["control_plane"] == "durable"

    def test_learning_invalidates_the_fingerprint(self, tmp_path):
        """An absorbed observation moves the replica to a fresh key space."""
        with Engine.from_config(_config(tmp_path)) as a:
            a.translate(NLQ)
            a.control_plane.flush()
            a.observe("SELECT t1.title FROM publication t1")
            a.absorb_pending()
            recomputed = a.translate(NLQ)
            assert recomputed.provenance.get("control_plane") is None

    def test_cache_disabled_always_computes(self, tmp_path):
        config = _config(tmp_path, control_plane_cache=False)
        with Engine.from_config(config) as a:
            a.translate(NLQ)
            a.control_plane.flush()
            assert a.translate(NLQ).provenance.get("control_plane") is None
            assert a.service.metrics.counter("durable_cache_misses") == 0

    def test_explain_recomputes_after_durable_hit(self, tmp_path):
        with Engine.from_config(_config(tmp_path)) as a:
            a.translate(NLQ)
            a.control_plane.flush()
        with Engine.from_config(_config(tmp_path)) as b:
            assert b.translate(NLQ).provenance["control_plane"] == "durable"
            explanation = b.explain(NLQ)
            assert explanation.render()


class TestIdempotency:
    def test_retry_replays_and_learns_nothing(self, tmp_path):
        """The acceptance gate: a retried observe adds zero observations."""
        with Engine.from_config(_config(tmp_path)) as a:
            first = a.translate(NLQ, observe=True, idempotency_key="k1")
            assert first.learnable
            pending_after_first = a.service.pending_observations
            retry = a.translate(NLQ, observe=True, idempotency_key="k1")
            assert retry.provenance["idempotent_replay"] is True
            assert retry.provenance["control_plane"] == "replay"
            assert not retry.learnable
            assert retry.top.sql == first.top.sql
            assert a.service.pending_observations == pending_after_first
            assert a.service.metrics.counter("idempotent_replays") == 1

    def test_retry_on_second_replica_learns_nothing(self, tmp_path):
        with Engine.from_config(_config(tmp_path)) as a:
            a.translate(NLQ, observe=True, idempotency_key="k1")
            pending_a = a.service.pending_observations
            a.control_plane.flush()
            with Engine.from_config(_config(tmp_path)) as b:
                retry = b.translate(NLQ, observe=True, idempotency_key="k1")
                assert retry.provenance["idempotent_replay"] is True
                assert b.service.pending_observations == 0
            assert a.service.pending_observations == pending_a == 1

    def test_key_reuse_with_different_body_conflicts(self, tmp_path):
        with Engine.from_config(_config(tmp_path)) as a:
            a.translate(NLQ, idempotency_key="k1")
            with pytest.raises(IdempotencyError, match="different request"):
                a.translate("return the authors", idempotency_key="k1")
            assert a.service.metrics.counter("idempotency_conflicts") == 1

    def test_same_key_race_observes_exactly_once(self, tmp_path):
        """Two replicas receive the same key simultaneously: one winner."""
        a = Engine.from_config(_config(tmp_path))
        b = Engine.from_config(_config(tmp_path))
        barrier = threading.Barrier(2)
        responses = {}

        def serve(name, engine):
            barrier.wait()
            responses[name] = engine.translate(
                NLQ, observe=True, idempotency_key="raced"
            )

        try:
            threads = [
                threading.Thread(target=serve, args=("a", a)),
                threading.Thread(target=serve, args=("b", b)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            total_pending = (
                a.service.pending_observations + b.service.pending_observations
            )
            assert total_pending == 1
            assert responses["a"].top.sql == responses["b"].top.sql
            learnable = [
                response for response in responses.values()
                if response.learnable
            ]
            assert len(learnable) == 1
        finally:
            a.close()
            b.close()

    def test_auto_key_dedupes_observe_retries_without_header(self, tmp_path):
        """The request-hash fallback: at-least-once clients with no header."""
        with Engine.from_config(_config(tmp_path)) as a:
            a.translate(NLQ, observe=True)
            assert a.service.pending_observations == 1
            retry = a.translate(NLQ, observe=True)
            assert not retry.learnable
            assert a.service.pending_observations == 1


class TestFeedback:
    def test_accept_changes_the_next_translation_score(self, tmp_path):
        """The acceptance gate: an accepted pair moves the QFG's scores."""
        with Engine.from_config(_config(tmp_path)) as a:
            before = a.translate(NLQ)
            request_id = before.provenance["request_id"]
            baseline_queries = a.stats()["qfg"]["total_queries"]
            a.control_plane.submit_feedback(
                "mas", "accept", request_id=request_id
            )
            assert a.apply_feedback() == 1
            assert a.stats()["qfg"]["total_queries"] == baseline_queries + 1
            after = a.translate(NLQ)
            assert after.provenance.get("control_plane") is None
            assert after.top.config_score > before.top.config_score

    def test_corrected_sql_is_what_gets_learned(self, tmp_path):
        corrected = "SELECT t1.title FROM publication t1"
        with Engine.from_config(_config(tmp_path)) as a:
            response = a.translate(NLQ)
            baseline = a.stats()["qfg"]["total_queries"]
            a.control_plane.submit_feedback(
                "mas",
                "correct",
                request_id=response.provenance["request_id"],
                corrected_sql=corrected,
            )
            assert a.apply_feedback() == 1
            assert a.stats()["qfg"]["total_queries"] == baseline + 1

    def test_reject_is_recorded_but_never_learned(self, tmp_path):
        with Engine.from_config(_config(tmp_path)) as a:
            response = a.translate(NLQ)
            baseline = a.stats()["qfg"]["total_queries"]
            a.control_plane.submit_feedback(
                "mas", "reject",
                request_id=response.provenance["request_id"],
            )
            assert a.apply_feedback() == 0
            assert a.stats()["qfg"]["total_queries"] == baseline
            rows = a.control_plane.feedback_after("mas", 0)
            assert [row["verdict"] for row in rows] == ["reject"]

    def test_crash_before_apply_survives_restart(self, tmp_path):
        """Verdict persisted, process dies before applying: nothing lost."""
        with Engine.from_config(_config(tmp_path)) as a:
            response = a.translate(NLQ)
            a.control_plane.submit_feedback(
                "mas", "accept",
                request_id=response.provenance["request_id"],
            )
            baseline = a.stats()["qfg"]["total_queries"]
            # Crash: the engine goes away without ever calling
            # apply_feedback.  (close() flushes observations, not
            # feedback — feedback lives durably in the store.)
        with Engine.from_config(_config(tmp_path)) as b:
            # from_config applies the durable feedback backlog at startup.
            assert b.stats()["qfg"]["total_queries"] == baseline + 1

    def test_two_replicas_converge_on_shared_feedback(self, tmp_path):
        """Both replicas apply the same verdicts: same QFG, same cache keys."""
        a = Engine.from_config(_config(tmp_path))
        b = Engine.from_config(_config(tmp_path))
        try:
            response = a.translate(NLQ)
            a.control_plane.submit_feedback(
                "mas", "accept",
                request_id=response.provenance["request_id"],
            )
            assert a.apply_feedback() == 1
            assert b.apply_feedback() == 1
            assert (
                a.stats()["qfg"]["total_queries"]
                == b.stats()["qfg"]["total_queries"]
            )
            # Convergence in the strong sense: identical artifact
            # fingerprints, so they share durable cache entries again.
            fp_a = a.control_plane.artifact_fingerprint(
                a.service, a.translate(NLQ).provenance
            )
            fp_b = b.control_plane.artifact_fingerprint(
                b.service, b.translate(NLQ).provenance
            )
            assert fp_a == fp_b
        finally:
            a.close()
            b.close()


class TestConfig:
    def test_engine_config_round_trip(self):
        config = EngineConfig(
            control_plane_path="cp.db",
            control_plane_cache=False,
            idempotency_ttl_seconds=60.0,
        )
        assert EngineConfig.from_dict(config.to_dict()) == config

    def test_bad_ttl_rejected(self):
        with pytest.raises(ConfigError, match="idempotency_ttl_seconds"):
            EngineConfig(idempotency_ttl_seconds=0)

    def test_gateway_round_trip(self):
        config = GatewayConfig.from_dict({
            "tenants": {"mas": {"engine": {"dataset": "mas"}}},
            "control_plane_path": "cp.db",
            "control_plane_feedback": False,
            "idempotency_ttl_seconds": 120.0,
        })
        assert GatewayConfig.from_dict(config.to_dict()) == config

    def test_gateway_and_tenant_paths_clash(self):
        with pytest.raises(ConfigError, match="already shares"):
            GatewayConfig.from_dict({
                "tenants": {
                    "mas": {
                        "engine": {
                            "dataset": "mas",
                            "control_plane_path": "tenant.db",
                        }
                    }
                },
                "control_plane_path": "shared.db",
            })

    def test_injected_plane_cannot_override_config_path(self, tmp_path):
        from repro.controlplane import ControlPlane

        plane = ControlPlane(tmp_path / "other.db")
        try:
            with pytest.raises(ConfigError, match="injected control plane"):
                Engine.from_config(_config(tmp_path), control_plane=plane)
        finally:
            plane.close()


class TestObservability:
    def test_journal_shed_counter_surfaced_in_stats(self, tmp_path):
        config = _config(tmp_path, journal_dir=str(tmp_path / "journal"))
        with Engine.from_config(config) as a:
            a.translate(NLQ)
            a.service.journal.dropped = 7  # simulate shed under pressure
            stats = a.stats()
            assert stats["journal"]["dropped"] == 7
            counters = stats["metrics"]["counters"]
            assert counters["journal_dropped_records"] == 7
            assert counters["control_plane_dropped_writes"] == 0

    def test_stats_include_control_plane_block(self, tmp_path):
        with Engine.from_config(_config(tmp_path)) as a:
            a.translate(NLQ)
            block = a.stats()["control_plane"]
            assert block["cache"] is True
            assert block["dropped_writes"] == 0


class TestSingleEngineHTTP:
    """``repro serve``: a one-tenant gateway, driven through its aliases."""

    @pytest.fixture()
    def server_port(self, tmp_path):
        config = one_tenant_config(
            journal_dir=str(tmp_path / "journal"),
            control_plane_path=str(tmp_path / "cp.db"),
        )
        with serve_gateway(config) as server:
            yield server.server_address[1]

    def test_feedback_endpoint_round_trip(self, server_port):
        status, body = _post(server_port, "/translate", {"nlq": NLQ})
        assert status == 200
        request_id = body["provenance"]["request_id"]
        status, record = _post(
            server_port, "/feedback",
            {"verdict": "accept", "request_id": request_id},
        )
        assert status == 200
        assert record["verdict"] == "accept"
        assert record["applied"] == 1
        status, text = _get(server_port, "/metrics")
        assert 'repro_feedback_total{verdict="accept"}' in text
        assert "repro_journal_written_records_total" in text
        assert "repro_control_plane_dropped_writes_total" in text

    def test_idempotency_key_header_and_409(self, server_port):
        headers = {"Idempotency-Key": "http-k"}
        _post(server_port, "/translate", {"nlq": NLQ}, headers)
        status, body = _post(server_port, "/translate", {"nlq": NLQ}, headers)
        assert status == 200
        assert body["provenance"]["idempotent_replay"] is True
        status, body = _post(
            server_port, "/translate", {"nlq": "return the authors"}, headers
        )
        assert status == 409
        assert "Idempotency-Key" in body["error"]

    def test_feedback_validation_is_400(self, server_port):
        status, body = _post(
            server_port, "/feedback", {"verdict": "maybe", "sql": "x"}
        )
        assert status == 400

    def test_feedback_without_plane_is_400(self):
        with serve_gateway(one_tenant_config()) as server:
            status, body = _post(
                server.server_address[1], "/feedback",
                {"verdict": "reject", "sql": "x"},
            )
        assert status == 400
        assert "control plane" in body["error"]


class TestGatewayHTTP:
    @pytest.fixture()
    def gateway_port(self, tmp_path):
        config = GatewayConfig.from_dict({
            "tenants": {"mas": {"engine": {"dataset": "mas"}}},
            "journal_dir": str(tmp_path / "journal"),
            "control_plane_path": str(tmp_path / "cp.db"),
            "learn_interval_seconds": 3600.0,
        })
        gateway = Gateway.from_config(config)
        server = make_gateway_server(gateway, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        gateway.start()
        try:
            yield gateway, server.server_address[1]
        finally:
            server.shutdown()
            gateway.close()

    def test_feedback_route_applies_inline(self, gateway_port):
        gateway, port = gateway_port
        status, body = _post(port, "/t/mas/translate", {"nlq": NLQ})
        assert status == 200
        request_id = body["provenance"]["request_id"]
        status, record = _post(
            port, "/t/mas/feedback",
            {"verdict": "accept", "request_id": request_id},
        )
        assert status == 200
        assert record["applied"] == 1
        # Durable + journaled: the self-analytics layer can count it.
        gateway.journal.flush()
        status, answer = _get(
            port,
            "/admin/logs/query?nlq="
            + urllib.parse.quote("number of accepted feedback"),
        )
        assert status == 200
        assert "feedback" in answer["sql"]

    def test_feedback_unknown_tenant_404(self, gateway_port):
        _, port = gateway_port
        status, _ = _post(
            port, "/t/nope/feedback", {"verdict": "reject", "sql": "x"}
        )
        assert status == 404

    def test_feedback_get_is_404(self, gateway_port):
        _, port = gateway_port
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"http://127.0.0.1:{port}/t/mas/feedback"
            )
        assert excinfo.value.code == 404

    def test_gateway_stats_surface_shared_writers(self, gateway_port):
        gateway, port = gateway_port
        _post(port, "/t/mas/translate", {"nlq": NLQ})
        status, stats = _get(port, "/stats")
        assert stats["journal"] is not None
        assert stats["control_plane"]["pending_writes"] >= 0
        counters = stats["metrics"]["counters"]
        assert "journal_dropped_records" in counters
        assert "control_plane_dropped_writes" in counters

    def test_idempotency_header_through_gateway(self, gateway_port):
        _, port = gateway_port
        headers = {"Idempotency-Key": "gw-k"}
        _post(port, "/t/mas/translate", {"nlq": NLQ}, headers)
        status, body = _post(port, "/t/mas/translate", {"nlq": NLQ}, headers)
        assert status == 200
        assert body["provenance"]["idempotent_replay"] is True
        status, _ = _post(
            port, "/t/mas/translate", {"nlq": "return the authors"}, headers
        )
        assert status == 409


class TestSelfQueryFeedback:
    def test_feedback_records_land_in_telemetry_schema(self):
        from repro.obs.selfquery import load_telemetry_database

        database = load_telemetry_database([
            {"kind": "request", "ts": 10.0, "tenant": "mas", "nlq": "q",
             "sql": "SELECT 1", "latency_ms": 5.0},
            {"kind": "feedback", "ts": 11.0, "tenant": "mas",
             "verdict": "reject", "nlq": "q", "sql": "SELECT 1"},
            {"kind": "feedback", "ts": 12.0, "tenant": "mas",
             "verdict": "accept", "nlq": "q", "sql": "SELECT 1"},
        ])
        result = database.execute(
            "SELECT COUNT(t1.fid) FROM feedback t1 "
            "WHERE t1.verdict = 'reject'"
        )
        assert result.rows[0][0] == 1

    def test_normalize_rewrites_verdict_vocabulary(self):
        from repro.obs.selfquery import normalize_nlq

        assert "'reject'" in normalize_nlq("rejected feedback")
        assert "'accept'" in normalize_nlq("how many accepts")


class TestCLI:
    def test_feedback_and_controlplane_commands(self, tmp_path, capsys):
        from repro.cli import main

        store = str(tmp_path / "cp.db")
        assert main([
            "feedback", "--store", store, "--verdict", "correct",
            "--nlq", "papers by X",
            "--corrected-sql", "SELECT t1.title FROM publication t1",
        ]) == 0
        assert "correct" in capsys.readouterr().out
        assert main(["controlplane", "stats", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "feedback[correct]" in out
        assert main(["controlplane", "prune", "--store", store]) == 0
        capsys.readouterr()

    def test_feedback_bad_verdict_is_cli_error(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main([
                "feedback", "--store", str(tmp_path / "cp.db"),
                "--verdict", "maybe", "--sql", "x",
            ])
        capsys.readouterr()
