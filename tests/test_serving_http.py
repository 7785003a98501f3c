"""HTTP endpoint and wire-format tests (stdlib client against a live server).

The server is what ``repro serve`` runs: a one-tenant gateway, driven
through the ``/translate`` alias of its only tenant.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from conftest import one_tenant_config, serve_gateway
from repro.api import Engine, EngineConfig
from repro.core import Keyword, KeywordMetadata
from repro.core.fragments import FragmentContext
from repro.errors import ServingError
from repro.serving.wire import keyword_from_dict, keyword_to_dict


class TestWireFormat:
    def test_keyword_round_trip(self):
        keyword = Keyword(
            "after 2000",
            KeywordMetadata(
                FragmentContext.WHERE,
                comparison_op=">",
                aggregates=("COUNT",),
                grouped=True,
                distinct=True,
                descending=True,
                limit=5,
            ),
        )
        assert keyword_from_dict(keyword_to_dict(keyword)) == keyword

    def test_minimal_keyword_defaults_to_where(self):
        keyword = keyword_from_dict({"text": "TKDE"})
        assert keyword.metadata.context is FragmentContext.WHERE
        assert keyword.metadata.comparison_op is None

    def test_unknown_context_rejected_with_choices(self):
        with pytest.raises(ServingError, match="SELECT"):
            keyword_from_dict({"text": "x", "context": "FETCH"})

    def test_missing_text_rejected(self):
        with pytest.raises(ServingError):
            keyword_from_dict({"context": "WHERE"})

    def test_float_and_bool_keyword_limits_rejected(self):
        for bad in (2.9, True, 0, -1):
            with pytest.raises(ServingError, match="positive integer"):
                keyword_from_dict({"text": "top movies", "limit": bad})

    def test_string_booleans_rejected_for_flags(self):
        for flag in ("grouped", "distinct", "descending"):
            with pytest.raises(ServingError, match="boolean"):
                keyword_from_dict({"text": "papers", flag: "false"})


@pytest.fixture()
def server():
    # learn_batch_size above the test traffic volume: 'observe' is
    # accepted and queues without auto-draining mid-test.
    config = one_tenant_config(EngineConfig(dataset="mas", learn_batch_size=64))
    with serve_gateway(config) as http_server:
        yield http_server


def _get(server, path: str):
    port = server.server_address[1]
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as response:
        return response.status, json.loads(response.read())


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


KEYWORD_PAYLOAD = {
    "keywords": [
        {"text": "papers", "context": "SELECT"},
        {"text": "after 2000", "context": "WHERE", "comparison_op": ">"},
    ]
}


class TestEndpoints:
    def test_healthz(self, server):
        status, body = _get(server, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["tenants"] == 1
        status, stats = _get(server, "/t/mas/stats")
        assert stats["engine"]["system"] == "Pipeline+"

    def test_translate_keywords(self, server):
        status, body = _post(server, "/translate", KEYWORD_PAYLOAD)
        assert status == 200
        assert body["count"] >= 1
        top = body["results"][0]
        assert "publication" in top["sql"]
        assert "year > 2000" in top["sql"]

    def test_translate_limit(self, server):
        payload = dict(KEYWORD_PAYLOAD, limit=1)
        status, body = _post(server, "/translate", payload)
        assert status == 200
        assert len(body["results"]) == 1
        assert body["count"] >= 1

    def test_translate_nlq(self, server):
        status, body = _post(
            server, "/translate", {"nlq": "return the papers after 2000"}
        )
        assert status == 200
        assert body["count"] >= 1

    def test_stats_and_metrics_reflect_traffic(self, server):
        _post(server, "/translate", KEYWORD_PAYLOAD)
        _post(server, "/translate", KEYWORD_PAYLOAD)
        status, stats = _get(server, "/stats")
        assert status == 200
        engine_stats = stats["tenants"]["mas"]["engine"]
        assert engine_stats["metrics"]["counters"]["requests"] >= 2
        translate_cache = next(
            c for c in engine_stats["caches"] if c["name"] == "translate"
        )
        assert translate_cache["hits"] >= 1

        status, metrics = _get(server, "/metrics?format=json")
        assert status == 200
        assert metrics["latencies"]["gateway_translate"]["count"] >= 2

    def test_observe_flag_queues_learning(self, server):
        payload = dict(KEYWORD_PAYLOAD, observe=True)
        status, _ = _post(server, "/translate", payload)
        assert status == 200
        assert server.gateway.pending_observations() == 1

    def test_unsupported_content_type_is_400(self, server):
        port = server.server_address[1]
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/translate",
            data=json.dumps(KEYWORD_PAYLOAD).encode("utf-8"),
            headers={"Content-Type": "text/plain"},
        )
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(request)
        assert exc_info.value.code == 400
        body = json.loads(exc_info.value.read())
        assert "unsupported content type" in body["error"]
        assert body["status"] == 400

    def test_json_content_type_with_charset_accepted(self, server):
        port = server.server_address[1]
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/translate",
            data=json.dumps(KEYWORD_PAYLOAD).encode("utf-8"),
            headers={"Content-Type": "application/json; charset=utf-8"},
        )
        with urllib.request.urlopen(request) as response:
            assert response.status == 200

    def test_error_envelope_is_uniform(self, server):
        # Same {"error": ..., "status": ...} shape the gateway serves.
        status, body = _post(server, "/translate", {"wrong": 1})
        assert status == 400
        assert set(body) == {"error", "status"}
        assert body["status"] == 400

    def test_bad_json_is_400(self, server):
        port = server.server_address[1]
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/translate",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(request)
        assert exc_info.value.code == 400

    def test_missing_fields_is_400(self, server):
        status, body = _post(server, "/translate", {"wrong": 1})
        assert status == 400
        assert "keywords" in body["error"]

    def test_invalid_limit_is_400(self, server):
        status, body = _post(server, "/translate", dict(KEYWORD_PAYLOAD, limit=0))
        assert status == 400
        assert "limit" in body["error"]

    def test_non_integer_keyword_limit_is_400(self, server):
        payload = {"keywords": [{"text": "papers", "limit": "five"}]}
        status, body = _post(server, "/translate", payload)
        assert status == 400
        assert "limit" not in body.get("results", [])
        assert "papers" in body["error"]

    def test_non_iterable_aggregates_is_400(self, server):
        payload = {"keywords": [{"text": "papers", "aggregates": 3}]}
        status, body = _post(server, "/translate", payload)
        assert status == 400

    def test_observe_without_drain_schedule_is_400(self):
        with serve_gateway(one_tenant_config()) as http_server:  # no batch
            status, body = _post(
                http_server, "/translate", dict(KEYWORD_PAYLOAD, observe=True)
            )
        assert status == 400
        assert "--learn-batch" in body["error"]

    def test_non_boolean_observe_is_400(self, server):
        status, body = _post(
            server, "/translate", dict(KEYWORD_PAYLOAD, observe="false")
        )
        assert status == 400
        assert "observe" in body["error"]

    def test_non_string_comparison_op_is_400(self, server):
        payload = {"keywords": [{"text": "papers", "comparison_op": ["<", ">"]}]}
        status, body = _post(server, "/translate", payload)
        assert status == 400
        assert "comparison_op" in body["error"]

    def test_string_aggregates_is_400_not_char_iterated(self, server):
        payload = {"keywords": [{"text": "papers", "aggregates": "count"}]}
        status, body = _post(server, "/translate", payload)
        assert status == 400
        assert "array" in body["error"]

    def test_bad_content_length_is_400(self, server):
        import http.client

        port = server.server_address[1]
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        try:
            connection.putrequest("POST", "/translate", skip_host=False)
            connection.putheader("Content-Length", "abc")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            assert "Content-Length" in json.loads(response.read())["error"]
        finally:
            connection.close()

    def test_observe_without_templar_is_400_not_dropped(self):
        config = one_tenant_config(
            EngineConfig(dataset="mas", backend="pipeline")
        )
        with serve_gateway(config) as http_server:
            status, body = _post(
                http_server, "/translate", dict(KEYWORD_PAYLOAD, observe=True)
            )
            assert http_server.gateway.pending_observations() == 0
        assert status == 400
        assert "Templar" in body["error"]

    def test_unexpected_exception_is_500_json(self):
        def broken_engine():
            engine = Engine.from_config(EngineConfig(dataset="mas"))

            def explode(keywords):
                raise RuntimeError("wiring bug")

            engine.nlidb.translate = explode
            return engine

        with serve_gateway(
            one_tenant_config(), engine_factories={"mas": broken_engine}
        ) as http_server:
            status, body = _post(http_server, "/translate", KEYWORD_PAYLOAD)
        assert status == 500
        assert "RuntimeError" in body["error"]

    def test_unknown_path_is_404(self, server):
        status, body = _post(server, "/nope", {})
        assert status == 404
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            _get(server, "/also-nope")
        assert exc_info.value.code == 404


class TestTenantAlias:
    def test_alias_answers_like_the_tenant_route(self, server):
        for payload in (KEYWORD_PAYLOAD, {"nlq": "return the papers after 2000"}):
            _, via_alias = _post(server, "/translate", payload)
            _, via_tenant = _post(server, "/t/mas/translate", payload)
            for body in (via_alias, via_tenant):
                del body["timings_ms"]
                body["provenance"].pop("trace_id", None)
            assert via_alias == via_tenant
            assert via_alias["provenance"]["tenant"] == "mas"

