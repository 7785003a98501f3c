"""The ``warm_http`` server process.

``python -m perfbench.server --scratch DIR [--trace]`` builds the
gateway, serves it on an ephemeral localhost port, prints ``READY <port>``
and serves until its standard input closes.  It then shuts down and
prints one JSON line: its peak RSS and, when traced, its spans.

With ``--trace`` the per-layer wrappers are installed here, in the
server process; a request is recorded when its ``X-Bench-Trace`` header
is ``1``, under the request id in ``X-Bench-Request``.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading
from pathlib import Path


def traced_handler(tracer):
    """The gateway's request handler, arming the tracer per request."""
    from repro.gateway.http import GatewayRequestHandler

    class TracedHandler(GatewayRequestHandler):
        def do_POST(self) -> None:  # noqa: N802
            request = self.headers.get("X-Bench-Request")
            tracer.begin(
                int(request) if request is not None else None,
                self.headers.get("X-Bench-Trace") == "1",
            )
            try:
                super().do_POST()
            finally:
                tracer.disarm()

    return TracedHandler


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from perfbench import tracing
    from perfbench.common import peak_rss_mb, require_checkout

    require_checkout()
    from repro.gateway import make_gateway_server
    from perfbench.warm_http import build_gateway

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracing.instrument_setup(tracer)
        tracing.instrument_modules(tracer)
        tracer.begin("setup")
    # Each server process journals into a directory of its own.
    gateway = build_gateway(
        Path(tempfile.mkdtemp(prefix="server-", dir=args.scratch)))
    server = make_gateway_server(gateway, port=0)
    if tracer is not None:
        tracer.disarm()
        tracing.instrument_gateway(tracer, gateway)
        server.RequestHandlerClass = traced_handler(tracer)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"READY {server.server_address[1]}", flush=True)
    sys.stdin.read()
    server.shutdown()
    server.server_close()
    thread.join()
    gateway.close()
    spans = []
    if tracer is not None:
        spans = tracer.export()
        tracer.restore()
    print(json.dumps({"peak_rss_mb": peak_rss_mb(), "spans": spans}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
