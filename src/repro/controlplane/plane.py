"""The in-process client for the shared control-plane store.

:class:`ControlPlane` is what an :class:`~repro.api.engine.Engine`
(or a whole gateway) holds: one per process, wrapping one
:class:`~repro.controlplane.store.ControlPlaneStore` with the policy
layer the hot path needs —

* **canonical request keys** — a request hashes the same on every
  replica (NLQ text, or the full keyword payload for pre-parsed
  requests; ``limit``/``observe`` are delivery options, not identity);
* **artifact fingerprints** — cache entries are keyed to the exact
  artifact generation (backend, dataset, config fingerprint and the
  QFG's content hash), so a reload or an absorbed observation batch
  naturally invalidates by changing the key, never by explicit purge;
* **admission** (:meth:`admit`) — one call that resolves idempotency
  (claim / replay / conflict / concurrent-duplicate) and then the
  durable cache, before the engine pays for parsing or translation;
* **write-behind persistence** (:meth:`finish`) — the request thread
  enqueues a reference tuple; a daemon writer encodes and upserts, so
  the durable cache costs the warm path one deque append.  The one
  exception is completing an idempotency claim, which happens
  synchronously: the exactly-once guarantee must not be a crash away.

Hot-path store errors never propagate: the plane degrades to a miss and
counts the failure (:attr:`ControlPlane.errors`).  Only construction,
feedback ingestion and management operations raise.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sqlite3
import threading
import time
from collections import deque

from ..core.interface import keywords_cache_key
from ..errors import ControlPlaneError, IdempotencyError, ServingError
from ..serving.wire import (
    TranslationRequest,
    TranslationResponse,
    keyword_from_dict,
    keyword_to_dict,
)
from .store import ControlPlaneStore

#: Auto-generated idempotency keys (request-hash fallback for
#: ``observe`` requests that arrive without an ``Idempotency-Key``).
AUTO_KEY_PREFIX = "auto-"


class StoredTranslation:
    """A translation replayed from the durable store.

    Carries exactly the wire-visible fields (``sql``, ``config_score``,
    ``join_score``).  ``configuration``/``join_path`` are ``None`` —
    callers that need the full lineage (``explain``) recompute instead.
    """

    __slots__ = ("query", "sql", "config_score", "join_score",
                 "configuration", "join_path")

    def __init__(self, sql: str, config_score: float, join_score: float) -> None:
        self.query = sql
        self.sql = sql
        self.config_score = float(config_score)
        self.join_score = float(join_score)
        self.configuration = None
        self.join_path = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StoredTranslation({self.sql!r}, {self.config_score:.3f})"


class Admission:
    """What :meth:`ControlPlane.admit` decided about one request."""

    __slots__ = ("payload", "source", "claim", "suppress_observe")

    def __init__(self, payload=None, source=None, claim=None,
                 suppress_observe=False) -> None:
        #: Encoded stored response to serve, or ``None`` (compute).
        self.payload = payload
        #: ``"replay"`` (idempotency) or ``"durable"`` (cache) on a hit.
        self.source = source
        #: Idempotency key this caller claimed and must complete/release.
        self.claim = claim
        #: ``True`` when another replica owns the claim (concurrent
        #: duplicate): compute, respond, but learn nothing.
        self.suppress_observe = suppress_observe


class ControlPlane:
    """Durable cache + idempotency + feedback over one shared store."""

    def __init__(
        self,
        path,
        *,
        cache: bool = True,
        idempotency: bool = True,
        feedback: bool = True,
        idempotency_ttl_seconds: float = 3600.0,
        pending_wait_seconds: float = 2.0,
        cache_keep: int = 10_000,
        responses_keep: int = 10_000,
        flush_interval: float = 0.05,
        max_queue: int = 10_000,
        busy_timeout_ms: int | None = None,
    ) -> None:
        if idempotency_ttl_seconds <= 0:
            raise ControlPlaneError(
                "idempotency_ttl_seconds must be > 0, got "
                f"{idempotency_ttl_seconds}"
            )
        store_kwargs = {}
        if busy_timeout_ms is not None:
            store_kwargs["busy_timeout_ms"] = busy_timeout_ms
        self.store = ControlPlaneStore(path, **store_kwargs)
        self.cache_enabled = bool(cache)
        self.idempotency_enabled = bool(idempotency)
        self.feedback_enabled = bool(feedback)
        self.idempotency_ttl_seconds = float(idempotency_ttl_seconds)
        self.pending_wait_seconds = float(pending_wait_seconds)
        self.cache_keep = int(cache_keep)
        self.responses_keep = int(responses_keep)
        self.flush_interval = float(flush_interval)
        self.max_queue = int(max_queue)
        #: Hot-path writes shed (queue full) instead of blocking.
        self.dropped_writes = 0
        #: Rows the writer thread persisted.
        self.written = 0
        #: Store errors swallowed on the hot path (degraded to misses).
        self.errors = 0
        # Request ids must be unique across replicas without
        # coordination: a per-process random node id + a counter.
        self._node = os.urandom(4).hex()
        self._seq = itertools.count(1)
        self._request_keys: dict = {}
        self._fingerprints: dict = {}
        self._queue: deque = deque()
        self._since_prune = 0
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._io_lock = threading.RLock()
        self._closed = False
        self._writer = threading.Thread(
            target=self._run, name="repro-controlplane-writer", daemon=True
        )
        self._writer.start()

    # -- request identity --------------------------------------------------

    def request_key(self, request: TranslationRequest) -> str:
        """Canonical hash of *what was asked* — identical on every replica.

        ``limit`` and ``observe`` are delivery options and deliberately
        excluded: the same question served with a different ``limit``
        reuses the same cached result list.
        """
        memo_key = request.nlq if request.nlq is not None else \
            keywords_cache_key(request.keywords)
        cached = self._request_keys.get(memo_key)
        if cached is not None:
            return cached
        if request.nlq is not None:
            canonical = json.dumps({"nlq": request.nlq}, sort_keys=True)
        else:
            canonical = json.dumps(
                {"keywords": [keyword_to_dict(k) for k in request.keywords]},
                sort_keys=True,
            )
        key = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        if len(self._request_keys) >= 2048:
            self._request_keys.clear()
        self._request_keys[memo_key] = key
        return key

    def artifact_fingerprint(self, engine, provenance: dict | None = None) -> str:
        """Content hash of the artifact generation an engine is serving.

        Combines the engine identity (backend, dataset, config
        fingerprint, artifact version — from the provenance dict) with
        the QFG's content hash, so two replicas built from the same
        config and query log produce the *same* fingerprint and share
        cache entries, while any absorbed observation batch moves a
        replica to a fresh key space.  Memoized per ``(engine, QFG
        revision)``: the QFG hash is only recomputed after learning.
        """
        templar = getattr(engine, "templar", None)
        qfg = getattr(templar, "qfg", None) if templar is not None else None
        revision = getattr(qfg, "revision", None)
        memo = self._fingerprints.get(id(engine))
        if memo is not None and memo[0] == revision:
            return memo[1]
        identity = {
            key: (provenance or {}).get(key)
            for key in ("backend", "dataset", "config_fingerprint",
                        "artifact_version")
        }
        digest = hashlib.sha256(
            json.dumps(identity, sort_keys=True).encode("utf-8")
        )
        if qfg is not None:
            digest.update(qfg.fingerprint().encode("utf-8"))
        fingerprint = digest.hexdigest()
        if len(self._fingerprints) >= 64:
            self._fingerprints.clear()
        self._fingerprints[id(engine)] = (revision, fingerprint)
        return fingerprint

    def new_request_id(self) -> str:
        return f"{self._node}-{next(self._seq)}"

    # -- admission (hot path) ----------------------------------------------

    def admit(
        self,
        tenant: str,
        fingerprint: str,
        request_key: str,
        *,
        idempotency_key: str | None = None,
        observe: bool = False,
    ) -> Admission:
        """Resolve idempotency, then the durable cache, for one request.

        Raises :class:`~repro.errors.IdempotencyError` on a key reused
        with a different request body; any store failure degrades to a
        plain miss.
        """
        claim = None
        suppress = False
        if self.idempotency_enabled:
            key = idempotency_key
            if key is None and observe:
                # Hash fallback: only requests that would *learn* get an
                # automatic key — read-only requests are naturally
                # idempotent and should flow through the durable cache.
                key = AUTO_KEY_PREFIX + request_key
            if key is not None:
                try:
                    outcome, payload = self.store.idempotency_begin(
                        tenant, key, request_key
                    )
                except (sqlite3.Error, ControlPlaneError):
                    self.errors += 1
                    outcome, payload = None, None
                if outcome == "conflict":
                    raise IdempotencyError(
                        f"Idempotency-Key {key!r} was already used for a "
                        "different request; idempotent retries must resend "
                        "the same body"
                    )
                if outcome == "replay":
                    return Admission(payload, "replay")
                if outcome == "claimed":
                    claim = key
                elif outcome == "pending":
                    payload = self._await_completion(tenant, key)
                    if payload is not None:
                        return Admission(payload, "replay")
                    # The owner is still mid-flight (or crashed): answer
                    # the client ourselves but contribute zero
                    # observations — at-least-once delivery must never
                    # double-learn.
                    suppress = True
        if self.cache_enabled:
            try:
                payload = self.store.cache_get(tenant, fingerprint, request_key)
            except (sqlite3.Error, ControlPlaneError):
                self.errors += 1
                payload = None
            if payload is not None:
                if claim is not None:
                    self._complete_claim(tenant, claim, payload)
                return Admission(payload, "durable", None, suppress)
        return Admission(None, None, claim, suppress)

    def _await_completion(self, tenant: str, key: str) -> str | None:
        deadline = time.monotonic() + self.pending_wait_seconds
        while time.monotonic() < deadline:
            time.sleep(0.02)
            try:
                payload = self.store.idempotency_get(tenant, key)
            except (sqlite3.Error, ControlPlaneError):
                self.errors += 1
                return None
            if payload is not None:
                return payload
        return None

    # -- completion (hot path) ---------------------------------------------

    def finish(
        self,
        tenant: str,
        fingerprint: str,
        request_key: str,
        *,
        claim: str | None,
        results,
        keywords,
        provenance: dict,
        trace_id: str | None,
        nlq: str | None,
    ) -> str | None:
        """Persist a freshly computed response; returns its request id.

        The provenance dict is copied *here*, on the request thread —
        callers (the gateway host) mutate it after the response returns,
        and the writer thread must serialize the frozen view.
        """
        request_id = self.new_request_id()
        snapshot = dict(provenance)
        # Per-delivery markers must not be baked into the stored payload:
        # a later replay is not itself a duplicate of anything.
        snapshot.pop("idempotent_duplicate", None)
        snapshot["request_id"] = request_id
        if claim is not None:
            # Synchronous: after `complete`, a crashed replica can no
            # longer cause a retry to recompute (and re-learn).
            payload = encode_stored_response(
                request_id, results, keywords, snapshot
            )
            self._complete_claim(tenant, claim, payload)
            self._offer(("put", tenant, fingerprint, request_key, payload,
                         request_id, trace_id, nlq, _top_sql(results)))
        else:
            self._offer(("store", tenant, fingerprint, request_key,
                         request_id, trace_id, nlq, results, keywords,
                         snapshot))
        return request_id

    def release(self, tenant: str, claim: str) -> None:
        """Drop a claim after a failed translate so retries can restart."""
        try:
            self.store.idempotency_release(tenant, claim)
        except (sqlite3.Error, ControlPlaneError):
            self.errors += 1

    def _complete_claim(self, tenant: str, claim: str, payload: str) -> None:
        try:
            self.store.idempotency_complete(tenant, claim, payload)
        except (sqlite3.Error, ControlPlaneError):
            self.errors += 1

    # -- replayed responses ------------------------------------------------

    def build_response(
        self, request: TranslationRequest, payload: str, source: str,
        *, suppress_observe: bool = False,
    ) -> TranslationResponse:
        """Decode a stored payload into a live :class:`TranslationResponse`."""
        data = json.loads(payload)
        results = tuple(
            StoredTranslation(r["sql"], r["config_score"], r["join_score"])
            for r in data.get("results", ())
        )
        keywords = tuple(
            keyword_from_dict(k) for k in data.get("keywords", ())
        )
        provenance = dict(data.get("provenance") or {})
        provenance["control_plane"] = source
        if source == "replay":
            provenance["idempotent_replay"] = True
        if suppress_observe:
            provenance["idempotent_duplicate"] = True
        return TranslationResponse(
            request=request,
            results=results,
            keywords=keywords,
            provenance=provenance,
            timings_ms={"parse": 0.0, "translate": 0.0},
        )

    # -- feedback ----------------------------------------------------------

    def submit_feedback(
        self,
        tenant: str,
        verdict: str,
        *,
        request_id: str | None = None,
        trace_id: str | None = None,
        nlq: str | None = None,
        sql: str | None = None,
        corrected_sql: str | None = None,
    ) -> dict:
        """Persist one verdict; returns the stored record.

        ``request_id``/``trace_id`` resolve the referenced response (the
        write-behind queue is flushed first so a verdict on a response
        served milliseconds ago still resolves).  ``accept`` needs a
        served SQL to learn from; ``correct`` needs the corrected SQL.
        """
        if not self.feedback_enabled:
            raise ServingError(
                "feedback is disabled on this control plane "
                "(control_plane_feedback=false)"
            )
        resolved = None
        if request_id is not None or trace_id is not None:
            self.flush()
            resolved = self.store.find_response(
                tenant, request_id=request_id, trace_id=trace_id
            )
            if resolved is None:
                ref = request_id if request_id is not None else trace_id
                raise ServingError(
                    f"feedback references unknown response {ref!r} for "
                    f"tenant {tenant!r} (responses are retained for the "
                    "most recent requests only)"
                )
            request_id = resolved["request_id"]
            trace_id = resolved["trace_id"]
            nlq = nlq if nlq is not None else resolved["nlq"]
            sql = sql if sql is not None else resolved["sql"]
        if verdict == "accept" and not sql:
            raise ServingError(
                "accept feedback needs the served SQL: reference a prior "
                "response (request_id/trace_id) or pass sql explicitly"
            )
        feedback_id = self.store.add_feedback(
            tenant, verdict, request_id=request_id, trace_id=trace_id,
            nlq=nlq, sql=sql, corrected_sql=corrected_sql,
        )
        return {
            "feedback_id": feedback_id,
            "tenant": tenant,
            "verdict": verdict,
            "request_id": request_id,
            "trace_id": trace_id,
            "nlq": nlq,
            "sql": sql,
            "corrected_sql": corrected_sql,
        }

    def feedback_after(self, tenant: str, after_id: int, *, limit: int = 256):
        return self.store.feedback_after(tenant, after_id, limit=limit)

    # -- write-behind internals --------------------------------------------

    def _offer(self, op: tuple) -> bool:
        if self._closed or len(self._queue) >= self.max_queue:
            self.dropped_writes += 1
            return False
        self._queue.append(op)
        return True

    def _run(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(self.flush_interval)
            self._wake.clear()
            self._drain()
        self._drain()

    def _drain(self) -> None:
        with self._io_lock:
            queue = self._queue
            while queue:
                try:
                    op = queue.popleft()
                except IndexError:  # pragma: no cover - single consumer
                    break
                try:
                    self._apply(op)
                    self.written += 1
                except (sqlite3.Error, ControlPlaneError, ValueError,
                        TypeError, KeyError):
                    self.errors += 1
            self._maybe_prune()

    def _apply(self, op: tuple) -> None:
        kind = op[0]
        if kind == "store":
            (_, tenant, fingerprint, request_key, request_id, trace_id,
             nlq, results, keywords, provenance) = op
            payload = encode_stored_response(
                request_id, results, keywords, provenance
            )
        else:  # "put": payload pre-encoded for a synchronous claim
            (_, tenant, fingerprint, request_key, payload, request_id,
             trace_id, nlq, _sql) = op
        if self.cache_enabled:
            self.store.cache_put(tenant, fingerprint, request_key, payload)
        self.store.record_response(
            request_id, tenant, trace_id=trace_id, nlq=nlq,
            sql=_top_sql_from(op),
        )
        self._since_prune += 1

    def _maybe_prune(self) -> None:
        if self._since_prune < 512:
            return
        self._since_prune = 0
        try:
            self.store.prune(
                idempotency_ttl_seconds=self.idempotency_ttl_seconds,
                cache_keep=self.cache_keep,
                responses_keep=self.responses_keep,
            )
        except (sqlite3.Error, ControlPlaneError):  # pragma: no cover
            self.errors += 1

    # -- lifecycle / management -------------------------------------------

    @property
    def pending_writes(self) -> int:
        return len(self._queue)

    def flush(self) -> None:
        """Drain the write-behind queue synchronously."""
        self._drain()

    def stats_local(self) -> dict:
        """This process's view: queue depth and shed/error counters."""
        return {
            "path": str(self.store.path),
            "cache": self.cache_enabled,
            "idempotency": self.idempotency_enabled,
            "feedback": self.feedback_enabled,
            "pending_writes": self.pending_writes,
            "written": self.written,
            "dropped_writes": self.dropped_writes,
            "errors": self.errors,
        }

    def stats(self) -> dict:
        """Durable store counts plus this process's local counters."""
        self.flush()
        merged = self.store.stats()
        merged["local"] = self.stats_local()
        return merged

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        self._wake.set()
        self._writer.join(timeout=10.0)
        self._drain()
        self.store.close()

    def __enter__(self) -> "ControlPlane":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def encode_stored_response(
    request_id: str, results, keywords, provenance: dict
) -> str:
    """The durable wire form of a served translation (JSON, one line)."""
    return json.dumps(
        {
            "request_id": request_id,
            "results": [
                {
                    "sql": r.sql,
                    "config_score": float(r.config_score),
                    "join_score": float(r.join_score),
                }
                for r in results
            ],
            "keywords": [keyword_to_dict(k) for k in keywords],
            "provenance": provenance,
        },
        separators=(",", ":"),
        default=str,
    )


def _top_sql(results) -> str | None:
    return results[0].sql if results else None


def _top_sql_from(op: tuple) -> str | None:
    if op[0] == "store":
        return _top_sql(op[7])
    return op[8]


__all__ = [
    "AUTO_KEY_PREFIX",
    "Admission",
    "ControlPlane",
    "StoredTranslation",
    "encode_stored_response",
]
