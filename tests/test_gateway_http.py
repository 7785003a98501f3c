"""Gateway HTTP surface tests: routing, envelopes, reload, admission."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.api import EngineConfig
from repro.gateway import Gateway, GatewayConfig, TenantConfig, make_gateway_server
from repro.serving.wire import TranslationResponse


def _get(port: int, path: str):
    try:
        with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _post(port: int, path: str, payload, content_type="application/json"):
    data = (
        payload if isinstance(payload, bytes)
        else json.dumps(payload).encode("utf-8")
    )
    headers = {"Content-Type": content_type} if content_type else {}
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, headers=headers
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture(scope="module")
def gateway_port():
    """A live 3-tenant gateway (mas, yelp, imdb) behind one port."""
    config = GatewayConfig.from_dict({
        "tenants": {
            "mas": {"engine": {"dataset": "mas"}},
            "yelp": {"engine": {"dataset": "yelp"}},
            "imdb": {"engine": {"dataset": "imdb"}},
        },
        "learn_interval_seconds": 3600.0,  # scheduler on, never fires in-test
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


NLQS = {
    "mas": "return the papers after 2000",
    "yelp": "return the businesses",
    "imdb": "return the movies",
}


class TestRouting:
    def test_three_tenants_translate_through_one_port(self, gateway_port):
        gateway, port = gateway_port
        for tenant, nlq in NLQS.items():
            status, body = _post(port, f"/t/{tenant}/translate", {"nlq": nlq})
            assert status == 200, body
            assert body["count"] >= 1
            assert body["provenance"]["tenant"] == tenant
            assert body["provenance"]["dataset"] == tenant

    def test_concurrent_cross_tenant_traffic(self, gateway_port):
        gateway, port = gateway_port
        errors = []

        def hit(tenant: str) -> None:
            for _ in range(5):
                status, body = _post(
                    port, f"/t/{tenant}/translate", {"nlq": NLQS[tenant]}
                )
                if status != 200 or body["provenance"]["tenant"] != tenant:
                    errors.append((tenant, status, body))

        threads = [
            threading.Thread(target=hit, args=(tenant,))
            for tenant in NLQS
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert not errors, errors

    def test_unknown_tenant_is_404_enveloped(self, gateway_port):
        _, port = gateway_port
        status, body = _post(port, "/t/enron/translate", {"nlq": "x"})
        assert status == 404
        assert "unknown tenant" in body["error"]
        assert body["status"] == 404

    def test_unknown_paths_are_404(self, gateway_port):
        _, port = gateway_port
        assert _get(port, "/t/mas/translate")[0] == 404  # GET on POST route
        assert _get(port, "/nope")[0] == 404
        assert _post(port, "/t/mas/nope", {})[0] == 404
        assert _post(port, "/t/mas", {})[0] == 404

    def test_tenant_aliases_are_404_with_several_tenants(self, gateway_port):
        # /translate and /feedback alias the tenant of a one-tenant
        # gateway only; with three, no tenant is implied.
        _, port = gateway_port
        status, body = _post(port, "/translate", {"nlq": NLQS["mas"]})
        assert (status, body["status"]) == (404, 404)
        status, _ = _post(port, "/feedback", {"verdict": "reject", "sql": "x"})
        assert status == 404


class TestHealthAndStats:
    def test_healthz_and_readyz(self, gateway_port):
        gateway, port = gateway_port
        status, body = _get(port, "/healthz")
        assert status == 200
        assert body["tenants"] == 3
        status, body = _get(port, "/readyz")
        assert status == 200
        assert body["ready"] is True
        assert set(body["tenants"]) == {"mas", "yelp", "imdb"}

    def test_tenant_healthz(self, gateway_port):
        _, port = gateway_port
        status, body = _get(port, "/t/mas/healthz")
        assert status == 200
        assert body == {
            "tenant": "mas", "live": True, "artifact_version": None
        }
        assert _get(port, "/t/enron/healthz")[0] == 404

    def test_tenant_stats_are_isolated(self, gateway_port):
        gateway, port = gateway_port
        before = _get(port, "/t/yelp/stats")[1]["engine"]["metrics"][
            "counters"
        ].get("requests", 0)
        _post(port, "/t/mas/translate", {"nlq": NLQS["mas"]})
        status, mas_stats = _get(port, "/t/mas/stats")
        assert status == 200
        assert mas_stats["tenant"] == "mas"
        assert mas_stats["engine"]["metrics"]["counters"]["requests"] >= 1
        after = _get(port, "/t/yelp/stats")[1]["engine"]["metrics"][
            "counters"
        ].get("requests", 0)
        assert after == before  # mas traffic never shows up under yelp

    def test_aggregate_stats_span_tenants(self, gateway_port):
        gateway, port = gateway_port
        for tenant, nlq in NLQS.items():
            _post(port, f"/t/{tenant}/translate", {"nlq": nlq})
        status, stats = _get(port, "/stats")
        assert status == 200
        aggregate = stats["aggregate"]
        assert aggregate["tenants"] == 3 and aggregate["live_tenants"] == 3
        per_tenant = sum(
            snapshot["engine"]["metrics"]["counters"].get("requests", 0)
            for snapshot in stats["tenants"].values()
        )
        assert aggregate["requests"] == per_tenant >= 3
        status, metrics = _get(port, "/metrics?format=json")
        assert status == 200
        assert metrics["counters"]["gateway_requests"] >= 3
        assert "latency_window" in metrics

    def test_metrics_scrape_carries_tenant_labels(self, gateway_port):
        from repro.obs.prometheus import parse_exposition

        gateway, port = gateway_port
        for tenant, nlq in NLQS.items():
            _post(port, f"/t/{tenant}/translate", {"nlq": nlq})
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/metrics"
        ) as response:
            content_type = response.headers.get("Content-Type", "")
            page = response.read().decode("utf-8")
        assert content_type.startswith("text/plain; version=0.0.4")
        samples = parse_exposition(page)
        assert any(
            labels == {} for labels, _ in samples["repro_gateway_requests_total"]
        )
        tenants_on_page = {
            labels["tenant"]
            for labels, _ in samples["repro_requests_total"]
            if "tenant" in labels
        }
        assert tenants_on_page == {"mas", "yelp", "imdb"}
        assert any(
            "tenant" in labels
            for labels, _ in samples["repro_translate_latency_seconds_bucket"]
        )

    def test_admin_traces_filters_by_tenant(self, gateway_port):
        gateway, port = gateway_port
        status, body = _post(port, "/t/mas/translate", {"nlq": NLQS["mas"]})
        assert status == 200
        status, payload = _get(port, "/admin/traces?tenant=mas")
        assert status == 200
        assert payload["count"] >= 1
        assert all(t["tenant"] == "mas" for t in payload["traces"])
        status, everything = _get(port, "/admin/traces")
        assert status == 200
        assert everything["count"] >= payload["count"]
        assert _get(port, "/admin/traces?tenant=enron")[0] == 404

    def test_admin_traces_looks_up_one_trace_id(self, gateway_port):
        _, port = gateway_port
        status, body = _post(
            port, "/t/yelp/translate", {"nlq": "return the users"}
        )
        assert status == 200
        trace_id = body["provenance"]["trace_id"]
        status, payload = _get(port, f"/admin/traces?id={trace_id}")
        assert status == 200
        assert [(t["trace_id"], t["tenant"]) for t in payload["traces"]] == [
            (trace_id, "yelp")
        ]
        status, other = _get(port, f"/admin/traces?tenant=mas&id={trace_id}")
        assert (status, other) == (200, {"count": 0, "traces": []})

    def test_observe_queues_for_the_scheduler(self, gateway_port):
        gateway, port = gateway_port
        before = gateway.host("mas").engine.service.pending_observations
        status, _ = _post(
            port, "/t/mas/translate",
            {"nlq": NLQS["mas"], "observe": True},
        )
        assert status == 200
        assert (
            gateway.host("mas").engine.service.pending_observations
            == before + 1
        )


class TestUniformErrorEnvelope:
    def test_malformed_json_is_400_on_all_post_routes(self, gateway_port):
        _, port = gateway_port
        for path in ("/t/mas/translate", "/admin/reload"):
            status, body = _post(port, path, b"{not json")
            assert status == 400, path
            assert "not valid JSON" in body["error"]
            assert body["status"] == 400

    def test_unsupported_content_type_is_400(self, gateway_port):
        _, port = gateway_port
        for path in ("/t/mas/translate", "/admin/reload"):
            status, body = _post(
                port, path, {"nlq": "x"}, content_type="text/plain"
            )
            assert status == 400, path
            assert "unsupported content type" in body["error"]
            assert body["status"] == 400

    def test_json_with_charset_parameter_is_accepted(self, gateway_port):
        _, port = gateway_port
        status, _ = _post(
            port, "/t/mas/translate", {"nlq": NLQS["mas"]},
            content_type="application/json; charset=utf-8",
        )
        assert status == 200

    def test_unknown_request_field_is_400(self, gateway_port):
        _, port = gateway_port
        status, body = _post(port, "/t/mas/translate", {"nlqq": "x"})
        assert status == 400
        assert "unknown request field" in body["error"]

    def test_empty_body_is_400(self, gateway_port):
        _, port = gateway_port
        status, body = _post(port, "/t/mas/translate", b"")
        assert status == 400
        assert "required" in body["error"]


class TestAdminReload:
    def test_reload_all_tenants(self, gateway_port):
        gateway, port = gateway_port
        status, body = _post(port, "/admin/reload", {})
        assert status == 200
        swapped = {entry["tenant"] for entry in body["reloads"]}
        assert swapped == {"mas", "yelp", "imdb"}
        # Log-built tenants have no artifact version on either side.
        assert all(
            entry["old_version"] is None and entry["new_version"] is None
            for entry in body["reloads"]
        )
        # The gateway still serves after swapping everything.
        status, _ = _post(port, "/t/mas/translate", {"nlq": NLQS["mas"]})
        assert status == 200

    def test_reload_single_tenant(self, gateway_port):
        gateway, port = gateway_port
        before = gateway.host("yelp").reload_count
        status, body = _post(port, "/admin/reload", {"tenant": "yelp"})
        assert status == 200
        assert [entry["tenant"] for entry in body["reloads"]] == ["yelp"]
        assert gateway.host("yelp").reload_count == before + 1

    def test_reload_unknown_tenant_is_404(self, gateway_port):
        _, port = gateway_port
        status, body = _post(port, "/admin/reload", {"tenant": "enron"})
        assert status == 404
        assert "unknown tenant" in body["error"]

    def test_reload_unknown_field_is_400(self, gateway_port):
        _, port = gateway_port
        status, body = _post(port, "/admin/reload", {"tenannt": "mas"})
        assert status == 400
        assert "unknown reload field" in body["error"]

    def test_reload_non_string_tenant_is_400(self, gateway_port):
        _, port = gateway_port
        status, body = _post(port, "/admin/reload", {"tenant": 7})
        assert status == 400
        assert "tenant" in body["error"]


class TestWarmupIs503:
    def test_configured_tenant_without_live_engine_is_503_not_404(self):
        # During background warm-up a configured tenant must answer with
        # a retryable 503 — only unknown tenants get the permanent 404.
        gate = threading.Event()
        built = threading.Event()

        def slow_factory():
            gate.wait(10.0)
            from repro.api import Engine

            engine = Engine.from_config(EngineConfig(dataset="mas"))
            built.set()
            return engine

        gateway = Gateway.from_config(
            {"tenants": {"mas": {"engine": {"dataset": "mas"}}}},
            engine_factories={"mas": slow_factory},
        )
        server = make_gateway_server(gateway, port=0)
        port = server.server_address[1]
        threading.Thread(target=server.serve_forever, daemon=True).start()
        warmup = threading.Thread(target=gateway.start, daemon=True)
        warmup.start()
        try:
            status, body = _post(
                port, "/t/mas/translate", {"nlq": NLQS["mas"]}
            )
            assert status == 503
            assert "retry" in body["error"]
            assert body["status"] == 503
            assert _get(port, "/readyz")[0] == 503
            assert _get(port, "/t/mas/healthz")[0] == 503
            # Unknown tenants stay 404 throughout.
            assert _post(port, "/t/enron/translate", {"nlq": "x"})[0] == 404
            gate.set()
            assert built.wait(60.0)
            warmup.join(60.0)
            status, _ = _post(port, "/t/mas/translate", {"nlq": NLQS["mas"]})
            assert status == 200
        finally:
            gate.set()
            server.shutdown()
            gateway.close()


class TestAdmission:
    def test_overflow_is_429(self):
        """A saturated tenant sheds load with 429, not queueing or 500s."""
        gate = threading.Event()
        release = threading.Event()

        class BlockingEngine:
            templar = None
            artifact_version = None

            class service:  # noqa: N801 - attribute stand-in
                pending_observations = 0

            def translate(self, request, *, observe=None, idempotency_key=None):
                gate.set()
                release.wait(10.0)
                return TranslationResponse(request=request, results=[])

            def take_pending(self):
                return []

            def stats(self):
                return {
                    "caches": [],
                    "metrics": {"counters": {}},
                    "pending_observations": 0,
                }

            def close(self):
                pass

        config = GatewayConfig(
            tenants={
                "solo": TenantConfig(
                    engine=EngineConfig(dataset="mas"), max_in_flight=1
                )
            }
        )
        gateway = Gateway(
            config, engine_factories={"solo": BlockingEngine}
        )
        gateway.start()
        server = make_gateway_server(gateway, port=0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            results = []
            blocker = threading.Thread(
                target=lambda: results.append(
                    _post(port, "/t/solo/translate", {"nlq": "x"})
                )
            )
            blocker.start()
            assert gate.wait(10.0)
            status, body = _post(port, "/t/solo/translate", {"nlq": "x"})
            assert status == 429
            assert "in-flight limit" in body["error"]
            assert body["status"] == 429
            release.set()
            blocker.join(10.0)
            assert results and results[0][0] == 200
            assert gateway.host("solo").rejected_count == 1
        finally:
            release.set()
            server.shutdown()
            gateway.close()


class TestJournaledGateway:
    @pytest.fixture()
    def journaled_gateway(self, tmp_path):
        """A 2-tenant gateway writing one shared, tenant-stamped journal."""
        config = GatewayConfig.from_dict({
            "tenants": {
                "mas": {"engine": {"dataset": "mas"}},
                "yelp": {"engine": {"dataset": "yelp"}},
            },
            "journal_dir": str(tmp_path / "journal"),
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

    def test_records_are_stamped_with_their_tenant(self, journaled_gateway):
        gateway, port = journaled_gateway
        for tenant in ("mas", "yelp"):
            status, _ = _post(
                port, f"/t/{tenant}/translate", {"nlq": NLQS[tenant]}
            )
            assert status == 200
        gateway.journal.flush()
        tenants = [r["tenant"] for r in gateway.journal.records()]
        assert tenants == ["mas", "yelp"]

    def test_admin_logs_query_answers_over_the_shared_journal(
        self, journaled_gateway
    ):
        gateway, port = journaled_gateway
        _post(port, "/t/mas/translate", {"nlq": NLQS["mas"]})
        _post(port, "/t/mas/translate", {"nlq": NLQS["mas"]})
        _post(port, "/t/yelp/translate", {"nlq": NLQS["yelp"]})
        status, body = _get(port, "/admin/logs/query?nlq=number+of+requests")
        assert status == 200, body
        assert body["rows"] == [[3]]
        # The gateway answered a question about itself with its own NLIDB.
        assert body["sql"].startswith("SELECT COUNT(")
        status, body = _get(
            port, "/admin/logs/query?nlq=slowest+tenant+today"
        )
        assert status == 200, body
        assert set(row[0] for row in body["rows"]) == {"mas", "yelp"}

    def test_reloads_are_journaled(self, journaled_gateway):
        gateway, port = journaled_gateway
        status, _ = _post(port, "/admin/reload", {"tenant": "mas"})
        assert status == 200
        gateway.journal.flush()
        reloads = [
            r for r in gateway.journal.records() if r["kind"] == "reload"
        ]
        assert len(reloads) == 1
        assert reloads[0]["tenant"] == "mas"

    def test_unjournaled_gateway_is_400(self, gateway_port):
        _, port = gateway_port
        status, body = _get(port, "/admin/logs/query?nlq=x")
        assert status == 400
        assert "journal" in body["error"]
        assert body["status"] == 400

    def test_traces_filter_excludes_other_tenants(self, journaled_gateway):
        """Traffic on two tenants; each filter sees only its own traces."""
        gateway, port = journaled_gateway
        for tenant in ("mas", "yelp"):
            status, _ = _post(
                port, f"/t/{tenant}/translate", {"nlq": NLQS[tenant]}
            )
            assert status == 200
        for tenant, other in (("mas", "yelp"), ("yelp", "mas")):
            status, payload = _get(port, f"/admin/traces?tenant={tenant}")
            assert status == 200
            assert payload["count"] >= 1
            seen = {t["tenant"] for t in payload["traces"]}
            assert seen == {tenant}
            assert other not in seen
