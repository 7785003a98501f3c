"""JSON-over-``http.server`` plumbing for the serving HTTP surface.

One server answers HTTP: the gateway (:mod:`repro.gateway.http`), which
``repro serve`` runs with a single tenant.  This module holds its
request decoding and error shapes:

* :func:`error_envelope` — the uniform error body every route returns
  (``{"error": <message>, "status": <code>}``), so clients parse one
  shape regardless of which route failed.
* :class:`JSONRequestHandlerMixin` — body reading with a size cap,
  strict ``Content-Length`` handling, a ``Content-Type`` check
  (malformed JSON and unsupported content types are client errors —
  400 — never 500), and JSON response writing.

Warm keep-alive traffic is latency-bound on the transport, so the mixin
answers at wire speed: accepted sockets set ``TCP_NODELAY``, and every
response leaves as one write — status line, headers and body joined.
With Nagle on, a body sent as a second write would wait for the
client's delayed ACK of the first: about 40 ms per keep-alive request.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler
from typing import Callable

from repro.errors import (
    AdmissionError,
    GatewayError,
    IdempotencyError,
    ReproError,
    ServingError,
)

#: Reject request bodies above this size (1 MiB) before reading them.
MAX_BODY_BYTES = 1 << 20


def error_envelope(status: int, message: str) -> dict:
    """The uniform JSON error body shared by every serving route.

    >>> error_envelope(404, "unknown path '/nope'")
    {'error': "unknown path '/nope'", 'status': 404}
    """
    return {"error": message, "status": status}


class JSONRequestHandlerMixin(BaseHTTPRequestHandler):
    """Shared JSON request/response plumbing for serving handlers.

    Subclasses implement ``do_GET``/``do_POST`` on top of
    :meth:`_read_json_body`, :meth:`_send_json` and
    :meth:`_send_error_json`; the owning server must expose a ``quiet``
    attribute.
    """

    #: Socket timeout: a client announcing more body bytes than it sends
    #: must not pin a handler thread forever.
    timeout = 30.0

    #: Every response carries Content-Length, so keep-alive is safe and
    #: spares sequential clients a TCP handshake per request.
    protocol_version = "HTTP/1.1"

    #: TCP_NODELAY on every accepted socket: a response must not wait
    #: for the ACK of the previous one (see the module docstring).
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not getattr(self.server, "quiet", True):
            super().log_message(format, *args)

    def _send_body(self, status: int, content_type: str, body: bytes) -> None:
        """One response in one write: headers and body leave together."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        # end_headers() would flush the headers on their own; queue the
        # blank line and the body behind them and flush everything once.
        self._headers_buffer.append(b"\r\n")
        self._headers_buffer.append(body)
        self.flush_headers()

    def _send_json(self, status: int, payload: dict) -> None:
        self._send_body(
            status, "application/json", json.dumps(payload).encode("utf-8")
        )

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, error_envelope(status, message))

    def _send_text(
        self, status: int, body: str, content_type: str = "text/plain"
    ) -> None:
        """Plain-text response (the Prometheus exposition path)."""
        self._send_body(status, content_type, body.encode("utf-8"))

    def _check_content_type(self) -> None:
        """Reject non-JSON POST bodies up front (400, not a late 500).

        A missing ``Content-Type`` is tolerated, and so is
        ``application/x-www-form-urlencoded`` — that is what ``curl -d``
        stamps on a body by default, so treating it as undeclared keeps
        every documented one-liner working.  Anything else that isn't
        JSON is a client bug worth surfacing.
        """
        declared = self.headers.get("Content-Type")
        if declared is None:
            return
        media_type = declared.split(";", 1)[0].strip().lower()
        if media_type in (
            "", "application/json", "application/x-www-form-urlencoded"
        ):
            return
        raise ServingError(
            f"unsupported content type {media_type!r}; send application/json"
        )

    def _dispatch_json(
        self,
        route: Callable[[], tuple[int, dict]],
        *,
        repro_error_prefix: str = "translation failed",
    ) -> None:
        """Run one route and apply the uniform error -> status mapping.

        ``route`` returns ``(status, payload)``; every serving endpoint
        funnels through here so the mapping cannot drift between routes:
        429 admission overflow, 409 idempotency-key reuse with a
        different body, 404 unknown tenant, 400 client mistakes
        (malformed body, bad fields, unsupported content type), 422
        operational failures (prefixed with ``repro_error_prefix``), 500
        (JSON, then re-raised) for wiring bugs.  Order matters:
        ``AdmissionError`` and ``IdempotencyError`` subclass
        ``ServingError`` and ``GatewayError``/``ServingError`` subclass
        ``ReproError``.
        """
        try:
            status, payload = route()
        except AdmissionError as exc:
            self._send_error_json(429, str(exc))
            return
        except IdempotencyError as exc:
            self._send_error_json(409, str(exc))
            return
        except GatewayError as exc:
            self._send_error_json(404, str(exc))
            return
        except ServingError as exc:
            self._send_error_json(400, str(exc))
            return
        except ReproError as exc:
            self._send_error_json(422, f"{repro_error_prefix}: {exc}")
            return
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            # A JSON client must get a JSON failure, not a reset socket.
            try:
                self._send_error_json(
                    500, f"internal error: {type(exc).__name__}: {exc}"
                )
            except OSError:
                pass  # client already gone; nothing left to tell it
            raise
        try:
            self._send_json(status, payload)
        except OSError:
            pass  # client disconnected before reading the response

    def _logs_query_params(self, query: dict) -> tuple[str, int]:
        """Decode ``/admin/logs/query``'s ``?nlq=`` and ``?limit=`` params."""
        nlq = query.get("nlq", [None])[0]
        if not nlq or not nlq.strip():
            raise ServingError(
                "query parameter 'nlq' is required, e.g. "
                "/admin/logs/query?nlq=slowest+tenant+today"
            )
        raw_limit = query.get("limit", [None])[0]
        if raw_limit is None:
            return nlq, 20
        try:
            limit = int(raw_limit)
        except ValueError:
            raise ServingError(
                f"query parameter 'limit' must be an integer, got {raw_limit!r}"
            ) from None
        if limit < 1:
            raise ServingError(f"'limit' must be >= 1, got {limit}")
        return nlq, limit

    def _read_json_body(self) -> dict:
        self._check_content_type()
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError as exc:
            raise ServingError("Content-Length header must be an integer") from exc
        if length <= 0:
            raise ServingError("request body is required")
        if length > MAX_BODY_BYTES:
            raise ServingError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ServingError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ServingError("request body must be a JSON object")
        return payload
