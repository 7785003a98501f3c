"""Cached translation serving on top of an NLIDB.

:class:`TranslationService` wraps a :class:`~repro.nlidb.base.NLIDB`
(Pipeline/Pipeline+ or NaLIR) with two LRU caches — whole-request
translations and join paths — and online ingestion of served queries
back into the Query Fragment Graph.  Both caches miss through
:meth:`~repro.serving.cache.LRUCache.get_or_compute`, which is
single-flight: concurrent requests for the same key (HTTP threads, say)
compute it once.

Raw NLQs get a first-level entry in the same translate LRU, keyed on
the exact NLQ string (see :meth:`TranslationService.translate_nlq`), so
a repeated question skips the NaLIR parse as well as the translation.

Cache keys include the QFG revision counter, so absorbing new queries
(which changes scores) invalidates stale entries implicitly: the next
request under the new revision misses and recomputes, while the LRU
discipline ages the old-revision entries out.  Translation is a pure
computation over shared read-only structures, which is what makes
concurrent callers safe; the only mutation — ``absorb_pending`` — is
serialized behind a lock.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Sequence

from repro.core.fragments import fragments_of_sql
from repro.core.interface import Keyword, keywords_cache_key
from repro.core.join_inference import JoinPath, JoinPathGenerator
from repro.core.qfg import QueryFragmentGraph
from repro.core.templar import Templar
from repro.errors import IdempotencyError, ReproError, ServingError
from repro.nlidb.base import NLIDB, TranslationResult
from repro.obs.drift import DriftMonitor
from repro.obs.slo import SLOEvaluator, SLOPolicy, default_totals
from repro.obs.trace import _ARMED, _SINK, Tracer
from repro.serving.cache import LRUCache
from repro.serving.telemetry import MetricsRegistry
from repro.serving.wire import TranslationRequest, TranslationResponse

#: One WARNING line per request slower than the service's
#: ``slow_query_ms`` threshold (see docs/observability.md).
_SLOW_QUERY_LOGGER = logging.getLogger("repro.slowquery")

#: Wall-clock epoch of the perf_counter origin: journal records stamp
#: ``_EPOCH + perf_counter`` instead of calling ``time.time()`` on the
#: gated warm path.  NTP slew over a long process lifetime can drift
#: these stamps by milliseconds — irrelevant at telemetry granularity.
_EPOCH = time.time() - time.perf_counter()


class CachingJoinPathGenerator:
    """Drop-in ``infer`` memoizer around a :class:`JoinPathGenerator`."""

    def __init__(
        self, inner: JoinPathGenerator, cache: LRUCache, revision_fn
    ) -> None:
        self.inner = inner
        self.cache = cache
        self._revision = revision_fn

    def infer(self, relation_bag: list[str]) -> list[JoinPath]:
        key = (tuple(relation_bag), self._revision())
        return self.cache.get_or_compute(
            key, lambda: self.inner.infer(relation_bag)
        )

    def best(self, relation_bag: list[str]) -> JoinPath | None:
        paths = self.infer(relation_bag)
        return paths[0] if paths else None

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


#: Tags NLQ-keyed translate-cache entries.  Their 3-tuple keys can never
#: equal a keyword request's ``(keywords_cache_key, revision)`` pair.
_NLQ_KEY = "nlq"


def parse_nlq(nlq: str, parser) -> tuple[tuple[Keyword, ...], float]:
    """Keywords of one raw NLQ, plus parse wall-clock in ms.

    ``parser`` is any object with NaLIR's ``parse`` contract; a missing
    parser or a failed parse is the client's problem (ServingError).
    """
    if parser is None:
        raise ServingError(
            "this frontend has no NLQ parser; send hand-parsed "
            "'keywords' instead"
        )
    started = time.perf_counter()
    parsed = parser.parse(nlq)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    if parsed.failed:
        raise ServingError(f"could not parse the NLQ into keywords: {nlq!r}")
    return tuple(parsed.keywords), elapsed_ms


def resolve_request_keywords(
    request: TranslationRequest, parser
) -> tuple[tuple[Keyword, ...], float]:
    """The keywords a request runs on, plus parse wall-clock in ms.

    Keyword requests pass through untouched; NLQ requests are routed
    through :func:`parse_nlq`.
    """
    if request.keywords is not None:
        return request.keywords, 0.0
    return parse_nlq(request.nlq, parser)


def request_summary(request: TranslationRequest, limit: int = 96) -> str:
    """A one-line description of a request for traces and slow-query logs."""
    if request.nlq is not None:
        text = request.nlq
    else:
        text = ", ".join(k.text for k in request.keywords or ())
    if len(text) > limit:
        text = text[: limit - 1] + "…"
    return text


def _collect_sink():
    """Detach and return the request's materialised span sink, if any.

    Clears the ContextVar so the next request on this thread starts
    clean; the armed sentinel (miss that never entered a stage) reads
    as ``None``.
    """
    sink = _SINK.get()
    if sink is None:
        return None
    _SINK.set(None)
    return None if sink is _ARMED else sink


def translate_request(
    service: "TranslationService",
    request: TranslationRequest,
    *,
    parser=None,
    provenance: dict | None = None,
    idempotency_key: str | None = None,
) -> TranslationResponse:
    """Serve one unified request through a service: the one wire path.

    Every frontend — ``Engine.translate``, the HTTP endpoint, the CLI —
    funnels through here, so request parsing, stage timing, tracing,
    error accounting and response assembly cannot drift between them.
    ``observe`` handling is left to the caller (the engine and the HTTP
    handler have different learning-availability checks).

    When the service carries a :class:`~repro.controlplane.ControlPlane`,
    the durable layers run *before* parsing: an idempotent retry replays
    the stored response (``provenance["idempotent_replay"]`` tells
    callers to learn nothing), and a request any replica already served
    under the same artifact fingerprint returns the durable cache entry
    (``provenance["control_plane"] == "durable"``).  Fresh computations
    are persisted write-behind.  ``idempotency_key`` is the client's
    ``Idempotency-Key`` header; ``observe`` requests without one get a
    request-hash fallback key so at-least-once delivery can never
    double-learn.

    Tracing rides the timings this function already takes: span
    collection is armed only when the translate cache *misses* (all
    instrumented stages live inside ``nlidb.translate``), and the span
    *tree* is only built after the request finished and only when the
    tail-sampling store would retain it — a warm cache hit therefore
    performs no ContextVar write and no allocation; its whole tracing
    bill is a handful of attribute reads, one ContextVar read and one
    float comparison.  Failures are counted by exception type
    (``translate_errors{type=...}``) and their traces always kept.
    """
    tracer = service.tracer
    if tracer is not None and not tracer.enabled:
        tracer = None
    journal = service.journal
    meta = {}
    started = time.perf_counter()
    plane = service.control_plane
    admission = None
    cp_tenant = cp_fingerprint = cp_key = None
    if plane is not None:
        cp_tenant = service.journal_tenant
        cp_key = plane.request_key(request)
        cp_fingerprint = plane.artifact_fingerprint(service, provenance)
        try:
            admission = plane.admit(
                cp_tenant, cp_fingerprint, cp_key,
                idempotency_key=idempotency_key, observe=request.observe,
            )
        except IdempotencyError:
            service.metrics.increment("idempotency_conflicts")
            raise
        if admission.payload is not None:
            response = plane.build_response(
                request, admission.payload, admission.source,
                suppress_observe=admission.suppress_observe,
            )
            now = time.perf_counter()
            total_ms = (now - started) * 1000.0
            response.timings_ms["total"] = total_ms
            service.metrics.increment("requests")
            if admission.source == "durable":
                service.metrics.increment("durable_cache_hits")
            else:
                service.metrics.increment("idempotent_replays")
            if journal is not None:
                journal.offer((
                    "request", _EPOCH + now, service.journal_tenant,
                    request.nlq, request.keywords,
                    response.results[0] if response.results else None,
                    total_ms, True,
                    response.provenance.get("artifact_version"),
                    response.provenance.get("trace_id"),
                ))
            return response
        if plane.cache_enabled:
            service.metrics.increment("durable_cache_misses")
    keywords = request.keywords
    translate_started = time.perf_counter()
    try:
        if keywords is not None:
            parse_ms = 0.0
            results = service.translate(
                keywords, trace=tracer is not None, meta=meta
            )
        else:
            keywords, results, parse_ms = service.translate_nlq(
                request.nlq, parser, trace=tracer is not None, meta=meta
            )
        now = time.perf_counter()
    except Exception as exc:
        if admission is not None and admission.claim is not None:
            # Release the idempotency claim so a retry can recompute;
            # leaving it pending would block the key until TTL expiry.
            plane.release(cp_tenant, admission.claim)
        service.metrics.increment(
            "translate_errors", labels={"type": type(exc).__name__}
        )
        if tracer is not None:
            tracer.conclude(
                _collect_sink(),
                started=started,
                duration_s=time.perf_counter() - started,
                children=[],
                summary=request_summary(request),
                error=exc,
            )
        if journal is not None:
            journal.offer((
                "error", time.time(), service.journal_tenant, request.nlq,
                keywords, type(exc).__name__,
                (time.perf_counter() - started) * 1000.0,
                (provenance or {}).get("artifact_version"),
            ))
        raise
    total_ms = (now - started) * 1000.0
    # An NLQ miss parses inside the service call, before translating.
    parse_s = parse_ms / 1000.0
    timings = {
        "parse": parse_ms,
        "translate": (now - translate_started - parse_s) * 1000.0,
        "total": total_ms,
    }
    trace_id = None
    base = {"system": getattr(service.nlidb, "name", "nlidb")}
    qfg = service.templar.qfg if service.templar is not None else None
    if qfg is not None:
        base["qfg_revision"] = qfg.revision
    # Surface a configuration-space truncation (ScoringParams
    # .max_configurations guard) in the provenance; the translate entry
    # stores the drop count, so cached repeats report it too.
    dropped = meta["truncated"]
    if dropped:
        base["configurations_truncated"] = dropped
    drift = service.drift
    if drift is not None and results:
        # Hot-path half of the quality-drift monitor: histogram bisects
        # behind one lock, fragment digest memoized by result identity —
        # judgment happens off-path at tick time.
        drift.observe(results, truncated=dropped)
    base.update(provenance or {})
    if tracer is not None:
        # Warm-path fast exit: one lock-free float comparison and one
        # ContextVar read (None on a cache hit — nothing was armed)
        # decide whether anything else happens.  This is what keeps
        # tracing within its <= 5% overhead gate (bench_perf_core.py)
        # on cached ~15 µs requests.
        sink = _SINK.get()
        if sink is not None or now - started > tracer.store.floor:
            if sink is not None:
                _SINK.set(None)
                if sink is _ARMED:
                    sink = None
            offset = translate_started - started
            children = []
            if parse_ms:
                children.append(("parse", offset, parse_s))
            children.append(
                ("translate", offset + parse_s,
                 now - translate_started - parse_s)
            )
            trace_id = tracer.conclude(
                sink,
                started=started,
                duration_s=now - started,
                children=children,
                summary=request_summary(request),
            )
            if trace_id is not None:
                base["trace_id"] = trace_id
    slow_ms = service.slow_query_ms
    if slow_ms is not None and timings["total"] >= slow_ms:
        _SLOW_QUERY_LOGGER.warning(
            "slow query: %.3f ms (threshold %.1f ms)",
            timings["total"],
            slow_ms,
            extra={
                "trace_id": base.get("trace_id"),
                "total_ms": round(timings["total"], 3),
                "parse_ms": round(parse_ms, 3),
                "translate_ms": round(timings["translate"], 3),
                "system": base.get("system"),
                "request": request_summary(request),
            },
        )
    if journal is not None:
        # One pre-built tuple of references; all serialization happens on
        # the journal's writer thread.  Scalars (not the meta/provenance
        # dicts) go into the row so a queued record retains nothing but
        # the tuple; latency and trace id come from locals rather than
        # dict lookups, and the wall-clock stamp is the import-time epoch
        # plus a perf_counter already taken — no time.time() call.  This
        # block is the warm path's whole journaling bill — gated at
        # <= 2 µs per request in bench_perf_core.py.
        journal.offer((
            "request", _EPOCH + now, service.journal_tenant, request.nlq,
            keywords, results[0] if results else None, total_ms,
            meta["cache_hit"], base.get("artifact_version"), trace_id,
        ))
    if admission is not None:
        if admission.suppress_observe:
            # Another replica owns the idempotency claim: the client
            # gets its answer, the QFG gets nothing.
            base["idempotent_duplicate"] = True
        request_id = plane.finish(
            cp_tenant, cp_fingerprint, cp_key,
            claim=admission.claim, results=results, keywords=keywords,
            provenance=base, trace_id=trace_id, nlq=request.nlq,
        )
        if request_id is not None:
            base["request_id"] = request_id
    return TranslationResponse(
        request=request,
        results=results,
        keywords=keywords,
        provenance=base,
        timings_ms=timings,
    )


class TranslationService:
    """Production front door of one NLIDB: caching and learning."""

    def __init__(
        self,
        nlidb: NLIDB,
        *,
        templar: Templar | None = None,
        cache_size: int = 2048,
        learn_batch_size: int | None = None,
        max_pending: int = 1024,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        slow_query_ms: float | None = None,
        journal=None,
        journal_tenant: str = "default",
        control_plane=None,
        slo: SLOPolicy | None = None,
        drift_threshold: float | None = None,
    ) -> None:
        if max_pending < 1:
            raise ServingError("max_pending must be >= 1")
        if slow_query_ms is not None and slow_query_ms <= 0:
            raise ServingError(
                f"slow_query_ms must be positive, got {slow_query_ms}"
            )
        if learn_batch_size is not None and not (
            1 <= learn_batch_size <= max_pending
        ):
            raise ServingError(
                f"learn_batch_size ({learn_batch_size}) must be between 1 "
                f"and max_pending ({max_pending}), or None to disable "
                f"auto-draining"
            )
        self.nlidb = nlidb
        self.templar = templar or getattr(nlidb, "templar", None)
        self.metrics = metrics or MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.slow_query_ms = slow_query_ms
        #: Durable request journal (``repro.obs.journal.RequestJournal``)
        #: every ``translate_request`` appends to, or None.  The journal
        #: is owned by whoever built it (engine or gateway), not closed
        #: here; ``journal_tenant`` stamps this service's records.
        self.journal = journal
        self.journal_tenant = journal_tenant
        #: Shared durable control plane (``repro.controlplane.ControlPlane``)
        #: or None.  Like the journal, it is owned by whoever built it;
        #: ``journal_tenant`` doubles as the control-plane tenant.
        self.control_plane = control_plane
        #: Highest durable feedback_id this service has applied to its
        #: QFG (see ``repro.controlplane.feedback.apply_feedback``).
        self.feedback_cursor = 0
        self.learn_batch_size = learn_batch_size
        self.max_pending = max_pending
        #: Judgment layer (PR 10): a declarative SLO policy evaluated
        #: lazily over the registry at scrape/stats time, and a
        #: quality-drift monitor fed by the request path and ticked after
        #: learning absorbs and reloads.  Both None when unconfigured.
        self.slo_policy = slo
        self.slo_evaluator = (
            SLOEvaluator(slo, self.metrics, totals_fn=self._slo_totals)
            if slo is not None else None
        )
        self.drift = (
            DriftMonitor(
                drift_threshold,
                obscurity=getattr(
                    self.templar or nlidb, "obscurity", None
                ),
            )
            if drift_threshold is not None else None
        )

        self._translate_cache = LRUCache(cache_size, "translate")
        self._join_cache = LRUCache(cache_size, "join_paths")
        self._install_join_cache()

        self._learn_lock = threading.Lock()     # guards _pending + _closed
        self._absorb_lock = threading.Lock()    # serializes graph swaps
        self._pending: list[str] = []
        self._closed = False

        # Force lazy one-time structures (the full-text and candidate
        # indexes) to build now, on this thread, instead of racing inside
        # the first concurrent requests.
        database = getattr(nlidb, "database", None)
        if database is not None:
            database.fulltext
        mapper = getattr(self.nlidb, "_mapper", None)
        if mapper is not None and getattr(mapper, "use_index", False):
            mapper.index

    def _install_join_cache(self) -> None:
        """Memoize the NLIDB's join generator in place.

        Pipeline and NaLIR both keep it in ``_joins``; systems without
        one still get the whole-request cache.
        """
        joins = getattr(self.nlidb, "_joins", None)
        if isinstance(joins, CachingJoinPathGenerator):
            # A second service would leave the first one's cache (and its
            # revision source) silently in charge.
            raise ServingError(
                "this NLIDB is already wrapped by a TranslationService; "
                "one service per NLIDB instance"
            )
        if joins is not None:
            self.nlidb._joins = CachingJoinPathGenerator(
                joins, self._join_cache, self._qfg_revision
            )

    def _qfg_revision(self) -> int:
        if self.templar is None or self.templar.qfg is None:
            return -1
        return self.templar.qfg.revision

    # ----------------------------------------------------------- translate

    def translate(
        self,
        keywords: Sequence[Keyword],
        *,
        trace: bool = False,
        meta: dict | None = None,
    ) -> list[TranslationResult]:
        """Ranked translations for one request, served from cache when warm.

        ``trace=True`` arms span collection for the duration of a cache
        *miss* (the request path sets it).  Arming here rather than
        per-request keeps warm hits free of ContextVar writes — the
        caller collects the sink afterwards via the ContextVar and is
        responsible for clearing it.

        ``meta``, when passed, receives per-call facts the return value
        cannot carry: ``cache_hit`` and ``truncated`` (the configurations
        the mapper dropped, stored with the entry so hits report it too).
        """
        key = (keywords_cache_key(tuple(keywords)), self._qfg_revision())
        return self._translate(keywords, key, trace, meta)[0]

    def translate_nlq(
        self,
        nlq: str,
        parser,
        *,
        trace: bool = False,
        meta: dict | None = None,
    ) -> tuple[tuple[Keyword, ...], list[TranslationResult], float]:
        """``(keywords, results, parse_ms)`` for one raw NLQ.

        The translate LRU is probed first under the exact NLQ string and
        the QFG revision, so a repeated question skips the parse as well
        as the translation (``parse_ms`` is then 0.0).  A miss parses
        with ``parser`` (see :func:`parse_nlq`), translates through the
        keyword-keyed entry, and stores ``(keywords, results, dropped)``
        — the very list the keyword entry holds — under the NLQ key.
        Parse failures raise ServingError and are never cached.

        The NLQ probe tallies hits only; on a miss the keyword lookup is
        the counted one.  Either way the request records one ``requests``
        increment, one ``translate`` latency sample and one translate
        cache hit or miss — the same ledger as a keyword request.
        """
        revision = self._qfg_revision()
        nlq_key = (_NLQ_KEY, nlq, revision)
        started = time.perf_counter()
        cached = self._translate_cache.get(nlq_key, count_miss=False)
        if cached is not None:
            self.metrics.increment("requests")
            self.metrics.record_latency(
                "translate", time.perf_counter() - started
            )
            keywords, results, dropped = cached
            if meta is not None:
                meta["cache_hit"] = True
                meta["truncated"] = dropped
            return keywords, results, 0.0
        keywords, parse_ms = parse_nlq(nlq, parser)
        results, dropped = self._translate(
            keywords, (keywords_cache_key(keywords), revision), trace, meta
        )
        self._translate_cache.put(nlq_key, (keywords, results, dropped))
        return keywords, results, parse_ms

    def _translate(
        self,
        keywords: Sequence[Keyword],
        key: tuple,
        trace: bool,
        meta: dict | None,
    ) -> tuple[list[TranslationResult], int]:
        """The translate entry ``(results, dropped)``: the one miss path."""
        computed = False

        def compute() -> tuple[list[TranslationResult], int]:
            nonlocal computed
            computed = True
            with self.metrics.time("translate_uncached"):
                if trace:
                    _SINK.set(_ARMED)
                results = self.nlidb.translate(list(keywords))
            # The mapper's report is keyed per request and consumed here,
            # by the one computation, so the entry carries it to hits.
            # Systems without a ``_mapper`` report 0.
            mapper = getattr(self.nlidb, "_mapper", None)
            take = getattr(mapper, "take_truncation", None)
            return results, take(keywords) if take is not None else 0

        self.metrics.increment("requests")
        with self.metrics.time("translate"):
            # Hit/miss tallies live on the cache itself (stats()["caches"]).
            entry = self._translate_cache.get_or_compute(key, compute)
        if meta is not None:
            meta["cache_hit"] = not computed
            meta["truncated"] = entry[1]
        return entry

    # ------------------------------------------------------------ learning

    def observe(self, sql: str) -> None:
        """Queue one served SQL statement for QFG ingestion.

        Ingestion is deferred (see :meth:`absorb_pending`) so the hot path
        never pays for graph updates; with ``learn_batch_size`` set, the
        observation that fills a batch absorbs it inline, on the
        observing thread.  The queue is bounded by ``max_pending`` —
        without ``learn_batch_size`` the oldest observations are dropped
        (and counted) rather than growing without limit.
        """
        if self.templar is None:
            raise ServingError(
                "cannot observe queries: the wrapped NLIDB has no Templar"
            )
        with self._learn_lock:
            if self._closed:
                raise ServingError(
                    "this service is closed and no longer accepts observations"
                )
            self._pending.append(sql)
            if len(self._pending) > self.max_pending:
                del self._pending[0]
                self.metrics.increment("observed_dropped")
            absorb = (
                self.learn_batch_size is not None
                and len(self._pending) >= self.learn_batch_size
            )
        self.metrics.increment("observed_queued")
        if absorb:
            self.absorb_pending()

    def absorb_pending(self) -> int:
        """Apply queued observations to the QFG; returns how many absorbed.

        Copy-on-write: the batch is ingested into a snapshot of the live
        graph, then swapped in atomically — in-flight translations keep
        reading a consistent (old) graph, and the higher revision of the
        new one retires every revision-keyed cache entry.  The parse work
        happens outside ``_learn_lock``, so concurrent ``observe`` calls
        never wait on a drain.
        """
        templar = self.templar
        if templar is None:
            raise ServingError(
                "cannot absorb queries: the wrapped NLIDB has no Templar"
            )
        with self._absorb_lock:
            with self._learn_lock:
                pending, self._pending = self._pending, []
            if not pending:
                return 0
            if templar.qfg is not None:
                working = templar.qfg.snapshot()
            else:
                working = QueryFragmentGraph(templar.obscurity)
            absorbed = 0
            for sql in pending:
                try:
                    fragments = fragments_of_sql(
                        sql, templar.database.catalog
                    )
                except ReproError:
                    self.metrics.increment("observe_errors")
                    continue
                working.add_query(fragments)
                absorbed += 1
            if absorbed:
                templar.swap_qfg(working)
        self.metrics.increment("observed_absorbed", absorbed)
        if absorbed and self.drift is not None:
            # A learning tick is exactly the moment serving quality can
            # move: judge the window accumulated since the last tick.
            self.drift.tick("learn")
        return absorbed

    @property
    def learning_enabled(self) -> bool:
        """True when observations both can be absorbed and will be drained."""
        return self.templar is not None and self.learn_batch_size is not None

    @property
    def pending_observations(self) -> int:
        with self._learn_lock:
            return len(self._pending)

    def take_pending(self) -> list[str]:
        """Remove and return the queued observations without absorbing them.

        The gateway's hot-swap path uses this to carry a retiring
        engine's unabsorbed observations over to its replacement:
        absorbing them into the old engine's QFG would throw the
        learning away with the old graph.
        """
        with self._learn_lock:
            pending, self._pending = self._pending, []
        return pending

    # ----------------------------------------------------------- judgment

    def _slo_totals(self) -> dict:
        """Cumulative totals the SLO evaluator differences into rates.

        Requests/errors/feedback come off the registry's counters; the
        translate cache tallies hits and misses on the cache object (its
        hot path takes no registry lock), so those are read directly.
        """
        totals = default_totals(self.metrics)
        stats = self._translate_cache.stats()
        totals["cache_hits"] = stats.hits
        totals["cache_misses"] = stats.misses
        return totals

    def slo_report(self):
        """Evaluate the policy now (None when no SLOs are declared).

        Each evaluation publishes ``slo_burn_rate`` / ``slo_alert``
        gauges into the registry, so whoever asks (``/slo``, a scrape,
        ``stats()``) refreshes the judgment for everyone.
        """
        if self.slo_evaluator is None:
            return None
        return self.slo_evaluator.evaluate()

    # ----------------------------------------------------------- lifecycle

    def sync_observability_counters(self) -> None:
        """Copy journal/control-plane writer counters into the registry.

        The journal and control-plane writers count shed records on
        plain attributes (their hot paths take no registry lock); this
        publishes those numbers as proper counters so ``/metrics`` and
        ``stats()`` surface overflow instead of hiding it.
        """
        journal = self.journal
        if journal is not None:
            self.metrics.set_counter("journal_dropped_records", journal.dropped)
            self.metrics.set_counter("journal_written_records", journal.written)
            self.metrics.set_counter("journal_encode_errors", journal.encode_errors)
            # Queue depth is shed *risk* (records enqueued, not yet on
            # disk) — a level, so it rides the gauge channel.
            self.metrics.set_gauge("journal_queue_depth", journal.pending)
        plane = self.control_plane
        if plane is not None:
            self.metrics.set_counter(
                "control_plane_dropped_writes", plane.dropped_writes
            )
            self.metrics.set_counter("control_plane_errors", plane.errors)
        if self.drift is not None:
            self.drift.publish(self.metrics)
        if self.slo_evaluator is not None:
            self.slo_evaluator.evaluate()

    def stats(self) -> dict:
        """JSON-ready operational snapshot (caches, metrics, QFG state)."""
        self.sync_observability_counters()
        qfg = self.templar.qfg if self.templar is not None else None
        return {
            "system": getattr(self.nlidb, "name", "nlidb"),
            "caches": [
                cache.stats().as_dict()
                for cache in (self._translate_cache, self._join_cache)
            ],
            "qfg": (
                {
                    "vertices": qfg.vertex_count,
                    "edges": qfg.edge_count,
                    "total_queries": qfg.total_queries,
                    "revision": qfg.revision,
                }
                if qfg is not None
                else None
            ),
            "pending_observations": self.pending_observations,
            "journal": (
                self.journal.stats() if self.journal is not None else None
            ),
            "control_plane": (
                self.control_plane.stats_local()
                if self.control_plane is not None else None
            ),
            # sync_observability_counters above already evaluated the
            # policy; reuse that report rather than evaluating twice.
            "slo": (
                self.slo_evaluator.last_report.as_dict()
                if self.slo_evaluator is not None
                and self.slo_evaluator.last_report is not None
                else None
            ),
            "drift": self.drift.stats() if self.drift is not None else None,
            "metrics": self.metrics.snapshot(),
        }

    def clear_caches(self) -> None:
        for cache in (self._translate_cache, self._join_cache):
            cache.clear()

    def close(self) -> None:
        """Shut down deterministically without losing acknowledged work.

        Ordering matters: mark closed (new observations are refused),
        then flush whatever is still queued.  Observations were
        acknowledged to clients, so they must reach the QFG before the
        process exits.  Idempotent: a second close is a no-op.
        """
        with self._learn_lock:
            if self._closed:
                return
            self._closed = True
        if self.templar is not None and self.pending_observations:
            self.absorb_pending()

    def __enter__(self) -> "TranslationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
