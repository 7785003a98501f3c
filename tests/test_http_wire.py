"""Wire-level behaviour shared by ``repro serve`` and the gateway.

Both servers answer through :class:`JSONRequestHandlerMixin`, which sets
TCP_NODELAY and sends each response as one write.  These tests drive a
live server of each kind with raw ``http.client`` and socket clients:
warm keep-alive latency, ``Expect: 100-continue``, the 500 envelope and
a large ``/metrics`` page.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import threading
import time
from types import SimpleNamespace

import pytest

from repro.api import Engine, EngineConfig
from repro.gateway import Gateway, GatewayConfig, make_gateway_server
from repro.gateway.http import GatewayRequestHandler
from repro.obs.prometheus import parse_exposition
from repro.serving import make_server
from repro.serving.http_server import ServingRequestHandler

NLQ = "return the businesses in Dallas"


def _serve(server) -> None:
    threading.Thread(target=server.serve_forever, daemon=True).start()


@pytest.fixture(scope="module", params=["serve", "gateway"])
def wire(request):
    """A live yelp server of either kind, plus the hooks the tests need."""
    if request.param == "serve":
        engine = Engine.from_config(EngineConfig(dataset="yelp"))
        server = make_server(engine=engine, port=0)
        _serve(server)
        yield SimpleNamespace(
            port=server.server_address[1],
            path="/translate",
            translator=server,
            metrics=engine.service.metrics,
        )
        server.shutdown()
        server.server_close()
        engine.close()
    else:
        gateway = Gateway.from_config(
            GatewayConfig.from_dict(
                {"tenants": {"yelp": {"engine": {"dataset": "yelp"}}}}
            )
        )
        server = make_gateway_server(gateway, port=0)
        _serve(server)
        gateway.start()
        yield SimpleNamespace(
            port=server.server_address[1],
            path="/t/yelp/translate",
            translator=gateway,
            metrics=gateway.metrics,
        )
        server.shutdown()
        server.server_close()
        gateway.close()


def _translate(conn: http.client.HTTPConnection, path: str, payload: dict):
    conn.request(
        "POST", path, json.dumps(payload),
        {"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    return response, response.read()


class TestKeepAlive:
    def test_sequential_translates_stay_fast_on_one_connection(self, wire):
        conn = http.client.HTTPConnection("127.0.0.1", wire.port, timeout=10)
        elapsed = []
        try:
            for _ in range(200):
                started = time.perf_counter()
                response, body = _translate(conn, wire.path, {"nlq": NLQ})
                elapsed.append(time.perf_counter() - started)
                assert response.status == 200
                assert not response.will_close
                assert json.loads(body)["count"] >= 1
        finally:
            conn.close()
        # A Nagle/delayed-ACK stall costs ~40 ms per request.
        assert statistics.median(elapsed) < 0.005


class TestExpectContinue:
    def test_interim_100_arrives_before_the_body_is_sent(self, wire):
        body = (json.dumps({"nlq": NLQ}) + " " * 2048).encode("utf-8")
        head = (
            f"POST {wire.path} HTTP/1.1\r\n"
            f"Host: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Expect: 100-continue\r\n\r\n"
        ).encode("ascii")
        with socket.create_connection(("127.0.0.1", wire.port), timeout=2.0) as sock:
            sock.sendall(head)
            started = time.perf_counter()
            interim = b""
            while b"\r\n\r\n" not in interim:
                chunk = sock.recv(256)
                assert chunk, "server closed before the interim response"
                interim += chunk
            assert time.perf_counter() - started < 1.0
            assert interim.startswith(b"HTTP/1.1 100")
            sock.sendall(body)
            response = http.client.HTTPResponse(sock, method="POST")
            response.begin()
            assert response.status == 200
            assert json.loads(response.read())["count"] >= 1


class TestLargeAndFailingResponses:
    def test_internal_error_still_delivers_the_json_envelope(
        self, wire, monkeypatch
    ):
        def explode(*args, **kwargs):
            raise RuntimeError("wiring bug")

        monkeypatch.setattr(wire.translator, "translate", explode)
        conn = http.client.HTTPConnection("127.0.0.1", wire.port, timeout=10)
        try:
            response, body = _translate(conn, wire.path, {"nlq": NLQ})
        finally:
            conn.close()
        assert response.status == 500
        assert response.getheader("Content-Type") == "application/json"
        assert json.loads(body) == {
            "error": "internal error: RuntimeError: wiring bug",
            "status": 500,
        }

    def test_metrics_page_over_8_kib_arrives_intact(self, wire):
        for index in range(200):
            wire.metrics.increment(
                "wire_test_padding", labels={"series": f"{index:04d}"}
            )
        conn = http.client.HTTPConnection("127.0.0.1", wire.port, timeout=10)
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            body = response.read()
        finally:
            conn.close()
        assert response.status == 200
        assert len(body) > 8192
        assert int(response.getheader("Content-Length")) == len(body)
        samples = parse_exposition(body.decode("utf-8"))
        padding = samples["repro_wire_test_padding_total"]
        assert sorted(labels["series"] for labels, _ in padding) == [
            f"{index:04d}" for index in range(200)
        ]


class _RecordingFile:
    def __init__(self) -> None:
        self.writes: list[bytes] = []

    def write(self, data: bytes) -> int:
        self.writes.append(bytes(data))
        return len(data)

    def flush(self) -> None:
        pass


@pytest.mark.parametrize(
    "handler_class", [ServingRequestHandler, GatewayRequestHandler]
)
class TestOneWritePerResponse:
    def _handler(self, handler_class):
        # A handler without a socket: just what send_response() reads.
        handler = handler_class.__new__(handler_class)
        handler.request_version = "HTTP/1.1"
        handler.requestline = "GET /probe HTTP/1.1"
        handler.server = SimpleNamespace(quiet=True)
        handler.wfile = _RecordingFile()
        return handler

    def test_json_response_is_one_write(self, handler_class):
        handler = self._handler(handler_class)
        handler._send_json(200, {"status": "ok"})
        [data] = handler.wfile.writes
        head, body = data.split(b"\r\n\r\n", 1)
        assert head.startswith(b"HTTP/1.1 200")
        assert b"Content-Length: 16" in head
        assert json.loads(body) == {"status": "ok"}

    def test_text_response_is_one_write(self, handler_class):
        handler = self._handler(handler_class)
        handler._send_text(200, "x" * 20_000)
        [data] = handler.wfile.writes
        assert data.endswith(b"\r\n\r\n" + b"x" * 20_000)

    def test_nagle_is_disabled(self, handler_class):
        assert handler_class.disable_nagle_algorithm is True
