"""Observability over HTTP: /metrics scrape pages and /admin/traces.

These ride the same stdlib-client-against-live-server pattern as
test_serving_http.py, but focus on the operator surface: the Prometheus
content type, scrape-parseability, error-type counters, and retrieving
the trace a translate response advertised in its provenance.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from conftest import one_tenant_config, serve_gateway
from repro.api import Engine, EngineConfig
from repro.obs.prometheus import parse_exposition


@pytest.fixture()
def engine_server():
    with serve_gateway(one_tenant_config()) as http_server:
        yield http_server


def _get_raw(server, path: str):
    port = server.server_address[1]
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as response:
        return (
            response.status,
            response.headers.get("Content-Type", ""),
            response.read().decode("utf-8"),
        )


def _post(server, path: str, payload: dict):
    port = server.server_address[1]
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


PAYLOAD = {"nlq": "return the papers after 2000"}


class TestMetricsScrape:
    def test_metrics_serves_the_prometheus_content_type(self, engine_server):
        status, content_type, _ = _get_raw(engine_server, "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain; version=0.0.4")

    def test_scrape_parses_and_reflects_traffic(self, engine_server):
        _post(engine_server, "/translate", PAYLOAD)
        _post(engine_server, "/translate", PAYLOAD)
        _, _, page = _get_raw(engine_server, "/metrics")
        samples = parse_exposition(page)
        [(labels, requests)] = samples["repro_requests_total"]
        assert labels == {"tenant": "mas"}
        assert requests >= 2
        counts = samples["repro_translate_latency_seconds_count"]
        assert counts[0][1] >= 2
        buckets = samples["repro_translate_latency_seconds_bucket"]
        values = [value for _, value in buckets]
        assert values == sorted(values)

    def test_json_snapshot_still_available_behind_the_flag(self, engine_server):
        status, content_type, body = _get_raw(
            engine_server, "/metrics?format=json"
        )
        assert status == 200
        assert content_type.startswith("application/json")
        assert "uptime_seconds" in json.loads(body)

    def test_failed_translations_counted_by_error_type(self):
        def broken_engine():
            engine = Engine.from_config(EngineConfig(dataset="mas"))

            def explode(keywords):
                raise RuntimeError("wiring bug")

            engine.nlidb.translate = explode
            return engine

        with serve_gateway(
            one_tenant_config(), engine_factories={"mas": broken_engine}
        ) as http_server:
            status, _ = _post(
                http_server, "/translate",
                {"keywords": [{"text": "papers", "context": "SELECT"}]},
            )
            assert status == 500
            engine = http_server.gateway.host("mas").engine
            assert engine.metrics.counter(
                "translate_errors", labels={"type": "RuntimeError"}
            ) == 1
            _, _, page = _get_raw(http_server, "/metrics")
        [(labels, value)] = parse_exposition(page)[
            "repro_translate_errors_total"
        ]
        assert labels == {"tenant": "mas", "type": "RuntimeError"}
        assert value == 1.0


class TestAdminTraces:
    def test_provenance_trace_is_retrievable_over_http(self, engine_server):
        status, body = _post(engine_server, "/translate", PAYLOAD)
        assert status == 200
        trace_id = body["provenance"]["trace_id"]

        status, _, raw = _get_raw(engine_server, f"/admin/traces?id={trace_id}")
        assert status == 200
        payload = json.loads(raw)
        assert payload["count"] == 1
        trace = payload["traces"][0]
        assert trace["trace_id"] == trace_id
        assert trace["spans"]["name"] == "request"
        stage_names = [span["name"] for span in trace["spans"]["children"]]
        assert "translate" in stage_names

        assert trace["tenant"] == "mas"

        status, _, raw = _get_raw(engine_server, "/admin/traces")
        listed = json.loads(raw)
        assert trace_id in {t["trace_id"] for t in listed["traces"]}

    def test_unknown_trace_id_returns_empty_list(self, engine_server):
        status, _, raw = _get_raw(engine_server, "/admin/traces?id=nope")
        assert status == 200
        assert json.loads(raw) == {"count": 0, "traces": []}


class TestEngineTracing:
    def test_trace_knobs_flow_from_config(self):
        config = EngineConfig(dataset="mas", tracing=False)
        with Engine.from_config(config) as engine:
            assert engine.tracer.enabled is False
            response = engine.translate("return the papers after 2000")
            assert "trace_id" not in response.provenance
            assert len(engine.tracer.store) == 0

    def test_slow_query_log_fires_past_the_threshold(self, caplog):
        import logging

        config = EngineConfig(dataset="mas", slow_query_ms=0.0001)
        with Engine.from_config(config) as engine:
            with caplog.at_level(logging.WARNING, logger="repro.slowquery"):
                engine.translate("return the papers after 2000")
        records = [
            record for record in caplog.records
            if record.name == "repro.slowquery"
        ]
        assert records, "expected a slow-query WARNING"
        assert records[0].total_ms >= 0.0
