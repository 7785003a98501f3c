"""Multi-tenant JSON HTTP surface for the gateway.

Endpoints::

    GET  /healthz                 process liveness + uptime + tenant count
    GET  /readyz                  200 once every tenant engine is live, 503 before
    GET  /stats                   aggregate + per-tenant snapshots
    GET  /slo                     per-tenant SLO compliance (burn rates +
                                  alerts; ?tenant=<id> narrows to one)
    GET  /metrics                 Prometheus text exposition: gateway plus every
                                  live tenant, tenant-labelled (?format=json for
                                  the legacy gateway-only JSON snapshot)
    GET  /admin/traces            retained request traces across tenants
                                  (?tenant=<id> narrows to one tenant,
                                  ?id=<trace_id> to one trace)
    GET  /admin/logs/query        self-analytics: translate ?nlq=... over the
                                  gateway's shared request journal and execute
                                  it (requires journal_dir in the gateway
                                  config)
    GET  /t/<tenant>/healthz      one tenant: live flag + served artifact version
    GET  /t/<tenant>/stats        one tenant's isolated stats
    POST /t/<tenant>/translate    unified TranslationRequest -> TranslationResponse
                                  (honours the ``Idempotency-Key`` header when a
                                  control plane is configured)
    POST /t/<tenant>/feedback     record accept/reject/correct on a prior
                                  response (requires control_plane_path)
    POST /translate, /feedback    aliases of the two routes above on a
                                  one-tenant gateway (``repro serve``);
                                  404 when two or more tenants are hosted
    POST /admin/reload            {} for every tenant or {"tenant": "mas"};
                                  {"force": true} overrides a blocking
                                  shadow-canary verdict (422 otherwise)

Status mapping is uniform across routes, with one error envelope
(``{"error": ..., "status": ...}``, :mod:`repro.serving.http_common`):
400 for malformed bodies or unsupported content types, 404 for unknown
paths *and* unknown tenants, 422 for translation failures, 429 when a tenant's admission limit is
exhausted, 503 for a not-yet-ready gateway and for a *configured*
tenant whose engine is still warming up (retryable, unlike the 404 an
unknown tenant gets).

Built on ``http.server.ThreadingHTTPServer``: each request gets its own
thread, so a tenant hot-swap (which happens on the reloader's or an
admin request's thread) never blocks translation traffic.
"""

from __future__ import annotations

import logging
import re
from http.server import ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.errors import GatewayError, ServingError
from repro.gateway.core import Gateway
from repro.obs.prometheus import EXPOSITION_CONTENT_TYPE, render_exposition
from repro.serving.http_common import JSONRequestHandlerMixin, error_envelope
from repro.serving.wire import TranslationRequest

#: One structured INFO line per served translate request.
_REQUEST_LOGGER = logging.getLogger("repro.request")

_TENANT_ROUTE = re.compile(r"^/t/([^/]+)/(translate|feedback|stats|healthz)$")

#: Tenant sub-paths that only accept POST.
_POST_ONLY = ("translate", "feedback")

#: Fields accepted by ``POST /admin/reload``.
_RELOAD_FIELDS = ("tenant", "force")


class GatewayHTTPServer(ThreadingHTTPServer):
    """HTTP server bound to one :class:`~repro.gateway.core.Gateway`."""

    daemon_threads = True

    #: One consolidated port concentrates every tenant's connection
    #: churn; socketserver's default TCP backlog of 5 overflows under a
    #: handful of concurrent connection-per-request clients and the
    #: resulting SYN retransmits collapse throughput ~3x (measured in
    #: bench_gateway.py).
    request_queue_size = 128

    def __init__(
        self,
        address: tuple[str, int],
        gateway: Gateway,
        quiet: bool = True,
    ) -> None:
        self.gateway = gateway
        self.quiet = quiet
        #: The tenant ``POST /translate`` and ``/feedback`` alias: the
        #: only one a one-tenant gateway hosts, else None (404).
        self.alias_tenant = (
            next(iter(gateway.hosts)) if len(gateway.hosts) == 1 else None
        )
        super().__init__(address, GatewayRequestHandler)


class GatewayRequestHandler(JSONRequestHandlerMixin):
    server: GatewayHTTPServer

    # ------------------------------------------------------------- routing

    def do_GET(self) -> None:  # noqa: N802
        parsed = urlparse(self.path)
        path = parsed.path
        query = parse_qs(parsed.query)
        gateway = self.server.gateway
        try:
            if path == "/healthz":
                self._send_json(
                    200,
                    {
                        "status": "ok",
                        "tenants": len(gateway.hosts),
                        "uptime_seconds": round(
                            gateway.metrics.uptime_seconds(), 3
                        ),
                    },
                )
            elif path == "/readyz":
                ready = gateway.ready()
                self._send_json(
                    200 if ready else 503,
                    {
                        "ready": ready,
                        "tenants": {
                            tenant_id: host.live
                            for tenant_id, host in gateway.hosts.items()
                        },
                    },
                )
            elif path == "/stats":
                self._send_json(200, gateway.stats())
            elif path == "/slo":
                tenant = query.get("tenant", [None])[0]
                reports = gateway.slo_reports(tenant=tenant)
                self._send_json(
                    200,
                    {
                        "alerting": any(
                            r.get("alerting") for r in reports.values()
                        ),
                        "tenants": reports,
                    },
                )
            elif path == "/metrics":
                if query.get("format") == ["json"]:
                    self._send_json(200, gateway.metrics.snapshot())
                else:
                    self._send_text(
                        200,
                        render_exposition(gateway.metrics_sources()),
                        EXPOSITION_CONTENT_TYPE,
                    )
            elif path == "/admin/traces":
                traces = gateway.traces(
                    tenant=query.get("tenant", [None])[0],
                    trace_id=query.get("id", [None])[0],
                )
                self._send_json(
                    200, {"count": len(traces), "traces": traces}
                )
            elif path == "/admin/logs/query":
                self._dispatch_json(
                    lambda: self._logs_query_route(query),
                    repro_error_prefix="self-query failed",
                )
            else:
                match = _TENANT_ROUTE.match(path)
                if match is None or match.group(2) in _POST_ONLY:
                    self._send_error_json(404, f"unknown path {path!r}")
                    return
                host = gateway.host(match.group(1))
                if match.group(2) == "stats":
                    self._send_json(200, host.stats())
                else:  # healthz
                    self._send_json(
                        200 if host.live else 503,
                        {
                            "tenant": host.tenant,
                            "live": host.live,
                            "artifact_version": host.artifact_version,
                        },
                    )
        except GatewayError as exc:
            self._send_error_json(404, str(exc))

    def _logs_query_route(self, query: dict) -> tuple[int, dict]:
        nlq, limit = self._logs_query_params(query)
        return 200, self.server.gateway.query_logs(nlq, limit=limit)

    def do_POST(self) -> None:  # noqa: N802
        path = self.path.split("?", 1)[0]
        if path == "/admin/reload":
            self._handle_reload()
            return
        match = _TENANT_ROUTE.match(path)
        if match is not None:
            tenant, action = match.groups()
        else:
            tenant, action = self.server.alias_tenant, path[1:]
        if tenant is None or action not in _POST_ONLY:
            self._send_error_json(404, f"unknown path {path!r}")
        elif action == "feedback":
            self._handle_feedback(tenant)
        else:
            self._handle_translate(tenant)

    # ------------------------------------------------------------ handlers

    def _handle_translate(self, tenant: str) -> None:
        self._dispatch_json(lambda: self._translate_route(tenant))

    def _translate_route(self, tenant: str) -> tuple[int, dict]:
        gateway = self.server.gateway
        # Strict decode + cheap checks before paying for translation.
        request = TranslationRequest.from_payload(self._read_json_body())
        host = gateway.host(tenant)  # 404 before admission accounting
        if not host.live:
            # A configured tenant that is still warming up (or shutting
            # down) is retryable — 503, never the permanent-looking 404
            # an unknown tenant gets.
            return 503, error_envelope(
                503,
                f"tenant {tenant!r} has no live engine yet; retry shortly",
            )
        if request.observe:
            self._check_observable(host)
        response = gateway.translate(
            tenant,
            request,
            idempotency_key=self.headers.get("Idempotency-Key"),
        )
        if _REQUEST_LOGGER.isEnabledFor(logging.INFO):
            _REQUEST_LOGGER.info(
                "POST /t/%s/translate",
                tenant,
                extra={
                    "tenant": tenant,
                    "trace_id": response.provenance.get("trace_id"),
                    "status": 200,
                    "results": len(response.results),
                    "total_ms": round(response.timings_ms["total"], 3),
                },
            )
        return 200, response.to_payload()

    def _check_observable(self, host) -> None:
        """Refuse ``observe`` when nothing would ever learn from it."""
        engine = host.engine
        if engine.templar is None:
            raise ServingError(
                f"tenant {host.tenant!r} cannot observe queries: its "
                f"backend has no Templar"
            )
        if not (
            engine.learning_enabled
            or self.server.gateway.learning_scheduled
        ):
            # Without any drain schedule the queue would just fill and
            # drop; refusing beats acknowledging a permanent no-op.
            raise ServingError(
                f"online learning is disabled for tenant {host.tenant!r}; "
                f"configure learn_interval_seconds on the gateway or "
                f"learn_batch_size on the tenant engine (repro serve "
                f"--learn-batch)"
            )

    def _handle_feedback(self, tenant: str) -> None:
        self._dispatch_json(
            lambda: self._feedback_route(tenant),
            repro_error_prefix="feedback failed",
        )

    def _feedback_route(self, tenant: str) -> tuple[int, dict]:
        record = self.server.gateway.feedback(tenant, self._read_json_body())
        return 200, record

    def _handle_reload(self) -> None:
        self._dispatch_json(
            self._reload_route, repro_error_prefix="reload failed"
        )

    def _reload_route(self) -> tuple[int, dict]:
        payload = self._read_json_body() if self._has_body() else {}
        unknown = sorted(set(payload) - set(_RELOAD_FIELDS))
        if unknown:
            raise ServingError(
                f"unknown reload field(s): {', '.join(unknown)}; "
                f"allowed: {', '.join(_RELOAD_FIELDS)}"
            )
        tenant = payload.get("tenant")
        if tenant is not None and not isinstance(tenant, str):
            raise ServingError("'tenant' must be a string tenant id")
        force = payload.get("force", False)
        if not isinstance(force, bool):
            raise ServingError("'force' must be a boolean")
        results = self.server.gateway.reload(tenant, force=force)
        return 200, {"reloads": [result.as_dict() for result in results]}

    def _has_body(self) -> bool:
        """Reload accepts an empty body as 'reload every tenant'."""
        try:
            return int(self.headers.get("Content-Length", 0)) > 0
        except ValueError:
            return True  # let _read_json_body raise the uniform 400


def make_gateway_server(
    gateway: Gateway,
    host: str = "127.0.0.1",
    port: int = 8080,
    quiet: bool = True,
) -> GatewayHTTPServer:
    """A ready-to-run gateway server; ``port=0`` picks a free port."""
    return GatewayHTTPServer((host, port), gateway, quiet=quiet)
