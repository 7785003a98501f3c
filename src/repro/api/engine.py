"""The unified entry point: ``Engine.from_config`` builds the whole stack.

The paper draws Templar as one facade an NLIDB plugs into (Figure 2);
this module is the repo-level analogue: one declarative construction path
shared by the CLI, the HTTP server, the evaluation harness and the
examples.  An :class:`Engine` resolves an
:class:`~repro.api.config.EngineConfig` into

* a benchmark dataset (database, lexicon, workload),
* a query log — rebuilt from gold SQL, streamed from a log file, loaded
  from a published artifact version, or empty,
* a registered NLIDB backend (:mod:`repro.nlidb.registry`),
* a best-effort NLQ parser for raw-string requests,

and then answers :class:`~repro.serving.wire.TranslationRequest`\\ s —
raw NLQ strings or pre-parsed keyword lists — with the unified
:class:`~repro.serving.wire.TranslationResponse`.

Quick start:

    >>> from repro.api import Engine, EngineConfig
    >>> with Engine.from_config(EngineConfig(dataset="mas")) as engine:
    ...     response = engine.translate("return the papers after 2000")
    >>> response.sql
    'SELECT t1.title FROM publication t1 WHERE t1.year > 2000'

The engine is also the serving layer.  It keeps two LRU caches — whole
translations and join paths — that both miss through the single-flight
:meth:`~repro.serving.cache.LRUCache.get_or_compute`, so concurrent
requests for one key (HTTP threads, say) compute it once.  A raw NLQ
gets a first-level entry in the translate LRU under its exact string,
so a repeated question skips the NaLIR parse as well as the
translation.  Cache keys include the QFG revision counter: absorbing
observed queries (which changes scores) retires stale entries
implicitly, and the LRU discipline ages them out.  Translation is a
pure computation over shared read-only structures, which is what makes
concurrent callers safe; the only mutation — ``absorb_pending`` — is
serialized behind a lock.

The candidate-retrieval index of the keyword mapper
(:class:`~repro.core.candidate_index.CandidateIndex`) is built here at
``from_config`` time — or loaded from the artifact store when
``log_source="artifacts"`` — so no request pays for it.
"""

from __future__ import annotations

import hashlib
import logging
import threading
import time
from pathlib import Path
from typing import Sequence

from repro.api.config import MAX_PENDING, EngineConfig
from repro.core.candidate_index import CandidateIndex
from repro.core.explain import ConfigurationExplanation, explain_configuration
from repro.core.fragments import fragments_of_sql
from repro.core.interface import Keyword, keywords_cache_key
from repro.core.log import QueryLog
from repro.core.qfg import QueryFragmentGraph
from repro.core.templar import Templar
from repro.datasets.base import BenchmarkDataset
from repro.datasets.registry import load_dataset
from repro.embedding.model import CompositeModel
from repro.errors import (
    ConfigError,
    IdempotencyError,
    ReproError,
    ServingError,
    TranslationError,
)
from repro.nlidb.base import NLIDB, TranslationResult
from repro.nlidb.nalir_parser import NalirParser
from repro.nlidb.registry import BackendSpec, build_backend, get_backend
from repro.obs.drift import DriftMonitor
from repro.obs.slo import SLOEvaluator, default_totals
from repro.obs.trace import _ARMED, _SINK, Tracer
from repro.serving.cache import CachingJoinPathGenerator, LRUCache
from repro.serving.telemetry import MetricsRegistry
from repro.serving.wire import TranslationRequest, TranslationResponse

#: One WARNING line per request slower than the config's
#: ``slow_query_ms`` threshold (see docs/observability.md).
_SLOW_QUERY_LOGGER = logging.getLogger("repro.slowquery")

#: Wall-clock epoch of the perf_counter origin: journal records stamp
#: ``_EPOCH + perf_counter`` instead of calling ``time.time()`` on the
#: gated warm path.  NTP slew over a long process lifetime can drift
#: these stamps by milliseconds — irrelevant at telemetry granularity.
_EPOCH = time.time() - time.perf_counter()

#: Tags NLQ-keyed translate-cache entries.  Their 3-tuple keys can never
#: equal a keyword request's ``(keywords_cache_key, revision)`` pair.
_NLQ_KEY = "nlq"


def _request_summary(request: TranslationRequest, limit: int = 96) -> str:
    """A one-line description of a request for traces and slow-query logs."""
    if request.nlq is not None:
        text = request.nlq
    else:
        text = ", ".join(k.text for k in request.keywords or ())
    if len(text) > limit:
        text = text[: limit - 1] + "…"
    return text


class Engine:
    """One assembled translation stack, built declaratively from a config.

    Construct with :meth:`from_config`; the direct constructor wires
    pre-built parts together (dependency injection for tests and custom
    backends) and reads every serving setting — ``cache_size``,
    ``learn_batch_size``, ``tracing``, ``trace_keep``, ``slow_query_ms``,
    ``slo``, ``drift_threshold`` — from ``config``.

    >>> from repro.api import Engine, EngineConfig
    >>> engine = Engine.from_config(EngineConfig(dataset="mas"))
    >>> engine
    Engine(Pipeline+ on 'mas', log_source='dataset')
    >>> engine.close()
    """

    def __init__(
        self,
        config: EngineConfig,
        *,
        dataset: BenchmarkDataset,
        backend: BackendSpec,
        nlidb: NLIDB,
        parser: NalirParser | None = None,
        templar: Templar | None = None,
        artifact_version: str | None = None,
        journal=None,
        journal_tenant: str | None = None,
        control_plane=None,
    ) -> None:
        self.config = config
        self.dataset = dataset
        self.backend = backend
        self.nlidb = nlidb
        self.parser = parser
        self.templar = templar
        self.artifact_version = artifact_version
        #: Durable request journal (``repro.obs.journal.RequestJournal``)
        #: every request appends to, or None.  One built from this
        #: engine's own ``config.journal_dir`` is the engine's to publish
        #: and close; an injected shared one (the gateway's) stays with
        #: its creator.  ``journal_tenant`` stamps this engine's records.
        self.journal = journal
        self.journal_tenant = journal_tenant or config.dataset
        #: Durable control plane (``repro.controlplane.ControlPlane``) or
        #: None, under the journal's ownership rule (``control_plane_path``);
        #: ``journal_tenant`` doubles as the control-plane tenant.
        self.control_plane = control_plane
        #: Highest durable feedback_id this engine has applied to its
        #: QFG (see ``repro.controlplane.feedback.apply_feedback``).
        self.feedback_cursor = 0
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(
            enabled=config.tracing, keep_slowest=config.trace_keep
        )
        #: Judgment layer: a declarative SLO policy evaluated lazily over
        #: the registry at scrape/stats time, and a quality-drift monitor
        #: fed by the request path and ticked after learning absorbs and
        #: reloads.  Both None when unconfigured.
        self.slo_evaluator = (
            SLOEvaluator(config.slo, self.metrics, totals_fn=self._slo_totals)
            if config.slo is not None else None
        )
        self.drift = (
            DriftMonitor(
                config.drift_threshold,
                obscurity=getattr(templar or nlidb, "obscurity", None),
            )
            if config.drift_threshold is not None else None
        )

        self._translate_cache = LRUCache(config.cache_size, "translate")
        self._join_cache = LRUCache(config.cache_size, "join_paths")
        # Memoize the NLIDB's join generator in place.  Pipeline and NaLIR
        # both keep it in ``_joins``; systems without one still get the
        # whole-request cache.
        joins = getattr(nlidb, "_joins", None)
        if isinstance(joins, CachingJoinPathGenerator):
            # A second engine would leave the first one's cache (and its
            # revision source) silently in charge.
            raise ServingError(
                "this NLIDB already serves another Engine; one engine per "
                "NLIDB instance"
            )
        if joins is not None:
            nlidb._joins = CachingJoinPathGenerator(
                joins, self._join_cache, self._qfg_revision
            )

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
        mapper = getattr(nlidb, "_mapper", None)
        if mapper is not None and getattr(mapper, "use_index", False):
            mapper.index

        # Everything in the provenance is immutable after construction;
        # hash the config once instead of on every request.
        self._provenance = {
            "backend": backend.display_name,
            "dataset": dataset.name,
            "config_fingerprint": config.fingerprint()[:12],
        }
        if artifact_version is not None:
            self._provenance["artifact_version"] = artifact_version

    # -------------------------------------------------------- construction

    @classmethod
    def from_config(
        cls,
        config: EngineConfig | dict | str | Path,
        *,
        dataset: BenchmarkDataset | None = None,
        query_log: QueryLog | None = None,
        journal=None,
        journal_tenant: str | None = None,
        control_plane=None,
    ) -> "Engine":
        """Resolve a config into a ready engine.

        ``config`` may be an :class:`EngineConfig`, a plain dict (strictly
        decoded), or a path to a JSON config file.  ``dataset`` overrides
        the named dataset with an in-memory one (custom schemas, tests);
        ``query_log`` overrides the log source with an explicit log
        (incompatible with ``log_source="artifacts"``).  ``journal``
        injects a shared :class:`~repro.obs.journal.RequestJournal` (the
        gateway's, tenant-stamped with ``journal_tenant``) — mutually
        exclusive with ``config.journal_dir``, which builds a journal
        this engine owns and closes.  ``control_plane`` injects a shared
        :class:`~repro.controlplane.ControlPlane` under the same
        ownership rule as the journal (mutually exclusive with
        ``config.control_plane_path``); when the plane carries feedback,
        the engine applies the tenant's durable feedback history to its
        freshly built QFG before serving.

        >>> from repro.api import Engine
        >>> with Engine.from_config({"dataset": "mas",
        ...                          "backend": "pipeline"}) as engine:
        ...     engine.backend.display_name
        'Pipeline'
        """
        if isinstance(config, (str, Path)):
            config = EngineConfig.from_file(config)
        elif isinstance(config, dict):
            config = EngineConfig.from_dict(config)
        if dataset is None:
            dataset = load_dataset(config.dataset)
        spec = get_backend(config.backend)

        templar: Templar | None = None
        artifact_version: str | None = None
        if query_log is not None and config.log_source in ("artifacts", "file"):
            # Overriding a concretely configured log source would leave
            # the config (and its fingerprint) claiming a different log
            # than the engine trains on.
            raise ConfigError(
                f"an explicit query_log cannot override log_source "
                f"{config.log_source!r}; use log_source 'none' (or "
                f"'dataset') with an injected log"
            )
        if not spec.augmented:
            # A baseline backend consumes no log; explicitly requested
            # log state must fail loudly, not be silently dropped.
            if config.log_source in ("artifacts", "file"):
                raise ConfigError(
                    f"backend {spec.name!r} is not log-augmented and cannot "
                    f"serve log_source {config.log_source!r}; use the "
                    f"augmented variant or log_source 'dataset'/'none'"
                )
            if query_log is not None:
                raise ConfigError(
                    f"backend {spec.name!r} is not log-augmented and cannot "
                    f"use an injected query_log"
                )
        if spec.augmented:
            templar_kwargs = dict(
                obscurity=config.obscurity_level(),
                params=config.scoring_params(),
                use_log_keywords=config.use_log_keywords,
                use_log_joins=config.use_log_joins,
            )
            if config.log_source == "artifacts":
                from repro.serving.artifacts import ArtifactStore

                artifacts = ArtifactStore(config.artifacts).load(
                    dataset.name, config.artifact_version
                )
                if artifacts.qfg.obscurity is not config.obscurity_level():
                    # Serving a different obscurity than the config
                    # declares would silently misdescribe the deployment.
                    raise ConfigError(
                        f"config obscurity {config.obscurity!r} does not "
                        f"match artifact version {artifacts.version!r} "
                        f"(compiled with {artifacts.qfg.obscurity.value!r}); "
                        f"align the config or recompile the artifacts"
                    )
                artifact_version = artifacts.version
                # build_templar pins obscurity to the compiled QFG's; the
                # check above guarantees that equals the config's.
                templar_kwargs.pop("obscurity")
                # Serve the state that was compiled: the artifact lexicon,
                # not the (possibly newer) in-process dataset's.
                templar = artifacts.build_templar(
                    dataset.database, **templar_kwargs
                )
            else:
                log = query_log
                if log is None:
                    if config.log_source == "dataset":
                        log = QueryLog(
                            [item.gold_sql for item in dataset.usable_items()]
                        )
                    elif config.log_source == "file":
                        log = QueryLog.from_file(config.log_path)
                    # "none": stay empty; observe() grows the QFG online.
                templar = Templar(
                    dataset.database,
                    CompositeModel(dataset.lexicon),
                    log,
                    candidate_index=CandidateIndex.from_database(
                        dataset.database
                    ),
                    **templar_kwargs,
                )

        nlidb = build_backend(
            config.backend,
            dataset,
            templar,
            max_configurations=config.max_configurations,
            params=config.scoring_params(),
            simulate_parse_failures=config.simulate_parse_failures,
        )
        if config.journal_dir:
            if journal is not None:
                # Two destinations for the same records would silently
                # fork the serving history.
                raise ConfigError(
                    f"an injected journal cannot override journal_dir "
                    f"{config.journal_dir!r}; drop one of the two"
                )
            from repro.obs.journal import RequestJournal

            journal = RequestJournal(
                config.journal_dir,
                segment_bytes=config.journal_segment_bytes,
                segments=config.journal_segments,
            )
        if config.control_plane_path:
            if control_plane is not None:
                raise ConfigError(
                    f"an injected control plane cannot override "
                    f"control_plane_path {config.control_plane_path!r}; "
                    f"drop one of the two"
                )
            from repro.controlplane import ControlPlane

            control_plane = ControlPlane(
                config.control_plane_path,
                cache=config.control_plane_cache,
                idempotency=config.control_plane_idempotency,
                feedback=config.control_plane_feedback,
                idempotency_ttl_seconds=config.idempotency_ttl_seconds,
            )
        # Raw-NLQ front-end: a backend that brings its own parser (the
        # NaLIR family, plugins with parses_nlq=True) keeps it; everyone
        # else gets the rule-based parser as a best-effort front door.
        parser = getattr(nlidb, "parser", None)
        if parser is None:
            parser = NalirParser(
                dataset.database,
                dataset.schema_terms,
                simulate_failures=config.simulate_parse_failures,
            )
        engine = cls(
            config,
            dataset=dataset,
            backend=spec,
            nlidb=nlidb,
            parser=parser,
            templar=templar,
            artifact_version=artifact_version,
            journal=journal,
            journal_tenant=journal_tenant,
            control_plane=control_plane,
        )
        if control_plane is not None and control_plane.feedback_enabled \
                and templar is not None:
            # Catch up on the tenant's durable feedback history: a fresh
            # replica (or a post-crash restart) rebuilds its QFG from the
            # log source, which does not include user verdicts.
            engine.apply_feedback()
        return engine

    @property
    def service(self) -> "Engine":
        """This engine.  Exists only because ``perfbench/`` reads
        ``engine.service``; it goes at the next change to the benchmark,
        together with ``KeywordMapper.inner``."""
        return self

    def _qfg_revision(self) -> int:
        if self.templar is None or self.templar.qfg is None:
            return -1
        return self.templar.qfg.revision

    # ----------------------------------------------------------- translate

    def translate(
        self,
        request: TranslationRequest | str | Sequence[Keyword] | dict,
        *,
        limit: int | None = None,
        observe: bool | None = None,
        idempotency_key: str | None = None,
    ) -> TranslationResponse:
        """Answer one request (raw NLQ, keywords, payload, or request).

        The one request lifecycle: every frontend — the gateway and its
        HTTP server, the CLI, the evaluation harness — funnels through
        here, so parsing, stage timing, tracing, error accounting,
        journaling and response assembly cannot drift between them.

        With a control plane, the durable layers run *before* parsing:
        an idempotent retry replays the stored response
        (``provenance["idempotent_replay"]``), and a request any replica
        already served under the same artifact fingerprint returns the
        durable cache entry (``provenance["control_plane"] ==
        "durable"``).  Fresh computations are persisted write-behind.
        ``idempotency_key`` is the client's ``Idempotency-Key`` header;
        ``observe`` requests without one get a request-hash fallback key
        so at-least-once delivery can never double-learn.

        When the request asks to ``observe``, the top translation is fed
        back into the QFG learning queue after translation — unless the
        control plane identified the request as an idempotent replay or
        a concurrent duplicate (``response.learnable`` is False), in
        which case the retry contributes exactly zero observations.

        Tracing rides the timings taken here anyway: span collection is
        armed only when the translate cache *misses*, and the span tree
        is built only when the tail-sampling store would retain it — a
        warm hit performs no ContextVar write and no allocation for it.
        Failures are counted by exception type
        (``translate_errors{type=...}``) and their traces always kept.

        >>> from repro.api import Engine, EngineConfig
        >>> with Engine.from_config(EngineConfig(dataset="mas")) as engine:
        ...     response = engine.translate(
        ...         {"nlq": "return the authors", "limit": 1})
        >>> response.sql
        'SELECT t1.name FROM author t1'

        A request's trace id in the provenance finds its span tree:

        >>> with Engine.from_config(EngineConfig(dataset="mas")) as engine:
        ...     response = engine.translate("return the papers after 2000")
        ...     trace = engine.tracer.store.get(
        ...         response.provenance["trace_id"])
        >>> [span["name"] for span in trace.root["children"]]
        ['parse', 'translate']
        """
        request = TranslationRequest.of(request, limit=limit, observe=observe)
        self._check_observable(request)
        tracer = self.tracer
        if not tracer.enabled:
            tracer = None
        journal = self.journal
        started = time.perf_counter()
        plane = self.control_plane
        admission = None
        if plane is not None:
            cp_key = plane.request_key(request)
            cp_fingerprint = plane.artifact_fingerprint(self, self._provenance)
            try:
                admission = plane.admit(
                    self.journal_tenant, cp_fingerprint, cp_key,
                    idempotency_key=idempotency_key, observe=request.observe,
                )
            except IdempotencyError:
                self.metrics.increment("idempotency_conflicts")
                raise
            if admission.payload is not None:
                response = self._replay(request, admission, started)
                if request.observe and response.results and response.learnable:
                    self.observe(response.results[0].sql)
                return response
            if plane.cache_enabled:
                self.metrics.increment("durable_cache_misses")
        translate_started = time.perf_counter()
        try:
            keywords, results, dropped, parse_ms, cache_hit = self._lookup(
                request, tracer is not None
            )
            now = time.perf_counter()
        except Exception as exc:
            self._fail(request, exc, started, admission, tracer)
            raise
        total_ms = (now - started) * 1000.0
        # An NLQ miss parses inside the lookup, before translating.
        parse_s = parse_ms / 1000.0
        translate_s = now - translate_started - parse_s
        # The one place a served request is counted (replays count in
        # _replay): the lookup itself leaves the registry alone.
        self.metrics.increment("requests")
        self.metrics.record_latency("translate", translate_s)
        if not cache_hit:
            self.metrics.record_latency("translate_uncached", translate_s)
        timings = {
            "parse": parse_ms,
            "translate": translate_s * 1000.0,
            "total": total_ms,
        }
        trace_id = None
        base = {"system": getattr(self.nlidb, "name", "nlidb")}
        qfg = self.templar.qfg if self.templar is not None else None
        if qfg is not None:
            base["qfg_revision"] = qfg.revision
        # Surface a configuration-space truncation (ScoringParams
        # .max_configurations guard) in the provenance; the translate entry
        # stores the drop count, so cached repeats report it too.
        if dropped:
            base["configurations_truncated"] = dropped
        drift = self.drift
        if drift is not None and results:
            # Hot-path half of the quality-drift monitor: histogram bisects
            # behind one lock, fragment digest memoized by result identity —
            # judgment happens off-path at tick time.
            drift.observe(results, truncated=dropped)
        base.update(self._provenance)
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
                children.append(("translate", offset + parse_s, translate_s))
                trace_id = tracer.conclude(
                    sink,
                    started=started,
                    duration_s=now - started,
                    children=children,
                    summary=_request_summary(request),
                )
                if trace_id is not None:
                    base["trace_id"] = trace_id
        slow_ms = self.config.slow_query_ms
        if slow_ms is not None and total_ms >= slow_ms:
            _SLOW_QUERY_LOGGER.warning(
                "slow query: %.3f ms (threshold %.1f ms)",
                total_ms,
                slow_ms,
                extra={
                    "trace_id": base.get("trace_id"),
                    "total_ms": round(total_ms, 3),
                    "parse_ms": round(parse_ms, 3),
                    "translate_ms": round(timings["translate"], 3),
                    "system": base.get("system"),
                    "request": _request_summary(request),
                },
            )
        if journal is not None:
            # One pre-built tuple of references; all serialization happens on
            # the journal's writer thread.  Scalars (not the provenance
            # dict) go into the row so a queued record retains nothing but
            # the tuple; latency and trace id come from locals rather than
            # dict lookups, and the wall-clock stamp is the import-time epoch
            # plus a perf_counter already taken — no time.time() call.  This
            # block is the warm path's whole journaling bill — gated at
            # <= 2 µs per request in bench_perf_core.py.
            journal.offer((
                "request", _EPOCH + now, self.journal_tenant, request.nlq,
                keywords, results[0] if results else None, total_ms,
                cache_hit, base.get("artifact_version"), trace_id,
            ))
        if admission is not None:
            if admission.suppress_observe:
                # Another replica owns the idempotency claim: the client
                # gets its answer, the QFG gets nothing.
                base["idempotent_duplicate"] = True
            request_id = plane.finish(
                self.journal_tenant, cp_fingerprint, cp_key,
                claim=admission.claim, results=results, keywords=keywords,
                provenance=base, trace_id=trace_id, nlq=request.nlq,
            )
            if request_id is not None:
                base["request_id"] = request_id
        response = TranslationResponse(
            request=request,
            results=results,
            keywords=keywords,
            provenance=base,
            timings_ms=timings,
        )
        if request.observe and results and response.learnable:
            self.observe(results[0].sql)
        return response

    def _replay(self, request, admission, started: float) -> TranslationResponse:
        """Answer from the control plane: a durable hit or idempotent replay."""
        response = self.control_plane.build_response(
            request, admission.payload, admission.source,
            suppress_observe=admission.suppress_observe,
        )
        now = time.perf_counter()
        total_ms = (now - started) * 1000.0
        response.timings_ms["total"] = total_ms
        self.metrics.increment("requests")
        if admission.source == "durable":
            self.metrics.increment("durable_cache_hits")
        else:
            self.metrics.increment("idempotent_replays")
        if self.journal is not None:
            self.journal.offer((
                "request", _EPOCH + now, self.journal_tenant,
                request.nlq, request.keywords,
                response.results[0] if response.results else None,
                total_ms, True,
                response.provenance.get("artifact_version"),
                response.provenance.get("trace_id"),
            ))
        return response

    def _fail(self, request, exc, started: float, admission, tracer) -> None:
        """Account one failed request; the caller re-raises ``exc``."""
        if admission is not None and admission.claim is not None:
            # Release the idempotency claim so a retry can recompute;
            # leaving it pending would block the key until TTL expiry.
            self.control_plane.release(self.journal_tenant, admission.claim)
        if not isinstance(exc, ServingError):
            # The request reached translation (a parse failure or a
            # parser-less engine raise ServingError before it): it counts.
            self.metrics.increment("requests")
        self.metrics.increment(
            "translate_errors", labels={"type": type(exc).__name__}
        )
        if tracer is not None:
            # Detach the request's span sink so the next request on this
            # thread starts clean; the armed sentinel (a miss that never
            # entered a stage) reads as None.
            sink = _SINK.get()
            if sink is not None:
                _SINK.set(None)
                if sink is _ARMED:
                    sink = None
            tracer.conclude(
                sink,
                started=started,
                duration_s=time.perf_counter() - started,
                children=[],
                summary=_request_summary(request),
                error=exc,
            )
        if self.journal is not None:
            self.journal.offer((
                "error", time.time(), self.journal_tenant, request.nlq,
                request.keywords, type(exc).__name__,
                (time.perf_counter() - started) * 1000.0,
                self.artifact_version,
            ))

    def _lookup(
        self, request: TranslationRequest, trace: bool = False
    ) -> tuple[tuple[Keyword, ...], list[TranslationResult], int, float, bool]:
        """``(keywords, results, dropped, parse_ms, cache_hit)`` of a request.

        The request's keywords, then its cached translations: the one
        cache path, shared by :meth:`translate`, :meth:`explain` and the
        reload canary (:mod:`repro.obs.canary`).  It touches nothing but
        the two caches — no registry, journal, control plane, learning
        queue or drift window — so a shadow replay only warms them.

        A raw NLQ is probed under its exact string and the QFG revision
        first, so a repeated question skips the parse (``parse_ms`` is
        then 0.0).  A miss parses with ``self.parser``, translates
        through the keyword-keyed entry, and stores ``(keywords, results,
        dropped)`` — the very list the keyword entry holds — under the
        NLQ key; the NLQ probe tallies hits only, so each request records
        one translate-cache hit or miss.  Parse failures raise
        :class:`~repro.errors.ServingError` and are never cached.
        ``dropped`` counts the configurations the mapper truncated; it
        is stored with the entry, so hits report it too.  ``trace=True``
        arms span collection for the duration of a miss; the caller
        collects the sink from the ContextVar.
        """
        revision = self._qfg_revision()
        keywords = request.keywords
        nlq_key = None
        parse_ms = 0.0
        if keywords is None:
            nlq_key = (_NLQ_KEY, request.nlq, revision)
            cached = self._translate_cache.get(nlq_key, count_miss=False)
            if cached is not None:
                keywords, results, dropped = cached
                return keywords, results, dropped, 0.0, True
            if self.parser is None:
                raise ServingError(
                    "this engine has no NLQ parser; send hand-parsed "
                    "'keywords' instead"
                )
            parse_started = time.perf_counter()
            parsed = self.parser.parse(request.nlq)
            parse_ms = (time.perf_counter() - parse_started) * 1000.0
            if parsed.failed:
                raise ServingError(
                    f"could not parse the NLQ into keywords: {request.nlq!r}"
                )
            keywords = tuple(parsed.keywords)
        computed = False

        def compute() -> tuple[list[TranslationResult], int]:
            nonlocal computed
            computed = True
            if trace:
                _SINK.set(_ARMED)
            results = self.nlidb.translate(list(keywords))
            # The mapper's report is keyed per request and consumed here,
            # by the one computation, so the entry carries it to hits.
            # Systems without a ``_mapper`` report 0.
            mapper = getattr(self.nlidb, "_mapper", None)
            take = getattr(mapper, "take_truncation", None)
            return results, take(keywords) if take is not None else 0

        results, dropped = self._translate_cache.get_or_compute(
            (keywords_cache_key(keywords), revision), compute
        )
        if nlq_key is not None:
            self._translate_cache.put(nlq_key, (keywords, results, dropped))
        return keywords, results, dropped, parse_ms, not computed

    def _check_observable(self, request: TranslationRequest) -> None:
        """Reject an unservable ``observe`` before paying for translation."""
        if request.observe and self.templar is None:
            raise ServingError(
                "cannot observe queries: the wrapped NLIDB has no Templar"
            )

    def translate_batch(
        self,
        requests: Sequence[TranslationRequest | str | Sequence[Keyword] | dict],
    ) -> list[TranslationResponse]:
        """Translate many requests, in input order: a loop over ``translate``.

        Every request's ``observe`` is checked before any is translated,
        so an unservable batch fails without doing work.  Each response
        then goes through the single-request lifecycle (journal, control
        plane, tracing, per-request timings); duplicates in a batch are
        served by the translate cache.

        >>> from repro.api import Engine, EngineConfig
        >>> with Engine.from_config(EngineConfig(dataset="mas")) as engine:
        ...     responses = engine.translate_batch(
        ...         ["return the authors", "return the authors"])
        >>> [response.sql for response in responses]
        ['SELECT t1.name FROM author t1', 'SELECT t1.name FROM author t1']
        """
        normalized = [TranslationRequest.of(request) for request in requests]
        for request in normalized:
            self._check_observable(request)
        return [self.translate(request) for request in normalized]

    def explain(
        self, request: TranslationRequest | str | Sequence[Keyword] | dict
    ) -> ConfigurationExplanation:
        """Decompose the winning configuration's score for one request.

        A pure diagnostic: the request's ``observe`` flag is ignored so
        explaining never mutates QFG learning state.

        >>> from repro.api import Engine, EngineConfig
        >>> with Engine.from_config(EngineConfig(dataset="mas")) as engine:
        ...     explanation = engine.explain("return the papers after 2000")
        >>> type(explanation).__name__
        'ConfigurationExplanation'
        """
        response = self.translate(request, observe=False)
        if response.top is None:
            raise TranslationError(
                "nothing to explain: the request produced no translation"
            )
        configuration = response.top.configuration
        if configuration is None:
            # Durable-cache replays carry only the wire fields; recompute
            # through the (warm) in-process caches to recover the
            # configuration lineage the explanation decomposes.
            results = self._lookup(response.request)[1]
            if not results:  # pragma: no cover - replay implies results
                raise TranslationError(
                    "nothing to explain: the request produced no translation"
                )
            configuration = results[0].configuration
        return explain_configuration(
            configuration,
            self.templar.qfg if self.templar is not None else None,
        )

    # ------------------------------------------------------------ learning

    def observe(self, sql: str) -> None:
        """Queue one served SQL statement for QFG ingestion.

        Ingestion is deferred (see :meth:`absorb_pending`) so the hot path
        never pays for graph updates; with ``learn_batch_size`` set, the
        observation that fills a batch absorbs it inline, on the
        observing thread.  The queue is bounded by
        :data:`~repro.api.config.MAX_PENDING` — without
        ``learn_batch_size`` the oldest observations are dropped (and
        counted) rather than growing without limit.

        >>> from repro.api import Engine, EngineConfig
        >>> with Engine.from_config(EngineConfig(dataset="mas")) as engine:
        ...     engine.observe("SELECT name FROM author")
        ...     engine.pending_observations
        1
        """
        if self.templar is None:
            raise ServingError(
                "cannot observe queries: the wrapped NLIDB has no Templar"
            )
        batch = self.config.learn_batch_size
        with self._learn_lock:
            if self._closed:
                raise ServingError(
                    "this engine is closed and no longer accepts observations"
                )
            self._pending.append(sql)
            if len(self._pending) > MAX_PENDING:
                del self._pending[0]
                self.metrics.increment("observed_dropped")
            absorb = batch is not None and len(self._pending) >= batch
        self.metrics.increment("observed_queued")
        if absorb:
            self.absorb_pending()

    def absorb_pending(self) -> int:
        """Apply queued observations to the QFG now; returns how many.

        Copy-on-write: the batch is ingested into a snapshot of the live
        graph, then swapped in atomically — in-flight translations keep
        reading a consistent (old) graph, and the higher revision of the
        new one retires every revision-keyed cache entry.  The parse work
        happens outside the queue lock, so concurrent ``observe`` calls
        never wait on a drain.

        >>> from repro.api import Engine, EngineConfig
        >>> with Engine.from_config(EngineConfig(dataset="mas")) as engine:
        ...     engine.observe("SELECT name FROM author")
        ...     engine.absorb_pending()
        1
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

    def apply_feedback(self) -> int:
        """Absorb unseen durable user feedback into the QFG; returns count.

        Walks the control plane's feedback table past this engine's
        cursor: accepted SQL and corrections are observed and absorbed,
        rejects advance the cursor without teaching anything.  A no-op
        without a control plane (or with feedback disabled).
        """
        from repro.controlplane.feedback import apply_feedback

        return apply_feedback(self)

    def take_pending(self) -> list[str]:
        """Remove and return queued observations *without* absorbing them.

        The gateway's hot-swap uses this to carry a retiring engine's
        unabsorbed observations over to its replacement instead of
        folding them into the graph that is being thrown away.

        >>> from repro.api import Engine, EngineConfig
        >>> with Engine.from_config(EngineConfig(dataset="mas")) as engine:
        ...     engine.observe("SELECT name FROM author")
        ...     engine.take_pending()
        ['SELECT name FROM author']
        """
        with self._learn_lock:
            pending, self._pending = self._pending, []
        return pending

    @property
    def pending_observations(self) -> int:
        """Observations queued and not yet absorbed."""
        with self._learn_lock:
            return len(self._pending)

    @property
    def learning_enabled(self) -> bool:
        """True when observations both can be absorbed and will be drained."""
        return (
            self.templar is not None
            and self.config.learn_batch_size is not None
        )

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
        """Publish writer, drift and SLO state into the registry.

        The journal and control-plane writers count shed records on
        plain attributes (their hot paths take no registry lock); this
        publishes those numbers as proper counters so ``/metrics`` and
        ``stats()`` surface overflow instead of hiding it — but only for
        writers this engine built from its own config.  A shared
        (injected) writer is published once, by its owner: the gateway.
        """
        journal = self.journal
        if journal is not None and self.config.journal_dir:
            self.metrics.set_counter("journal_dropped_records", journal.dropped)
            self.metrics.set_counter("journal_written_records", journal.written)
            self.metrics.set_counter("journal_encode_errors", journal.encode_errors)
            # Queue depth is shed *risk* (records enqueued, not yet on
            # disk) — a level, so it rides the gauge channel.
            self.metrics.set_gauge("journal_queue_depth", journal.pending)
        plane = self.control_plane
        if plane is not None and self.config.control_plane_path:
            self.metrics.set_counter(
                "control_plane_dropped_writes", plane.dropped_writes
            )
            self.metrics.set_counter("control_plane_errors", plane.errors)
        if self.drift is not None:
            self.drift.publish(self.metrics)
        if self.slo_evaluator is not None:
            self.slo_evaluator.evaluate()

    def provenance(self) -> dict:
        """How answers are produced: backend, dataset, config identity.

        >>> from repro.api import Engine, EngineConfig
        >>> with Engine.from_config(EngineConfig(dataset="mas")) as engine:
        ...     provenance = engine.provenance()
        >>> provenance["backend"], provenance["dataset"]
        ('Pipeline+', 'mas')
        """
        return dict(self._provenance)

    def fingerprint(self) -> str:
        """Content identity of the engine: config plus resolved log state.

        Two engines with equal fingerprints serve identical scores, so
        the config round trip (``to_dict`` → ``from_dict``) must preserve
        this exactly.

        >>> from repro.api import Engine, EngineConfig
        >>> config = EngineConfig(dataset="mas")
        >>> with Engine.from_config(config) as first:
        ...     with Engine.from_config(config) as second:
        ...         first.fingerprint() == second.fingerprint()
        True
        """
        digest = hashlib.sha256(self.config.fingerprint().encode("utf-8"))
        digest.update(self.backend.name.encode("utf-8"))
        digest.update(self.dataset.name.encode("utf-8"))
        qfg = self.templar.qfg if self.templar is not None else None
        digest.update(
            qfg.fingerprint().encode("utf-8") if qfg is not None else b"no-qfg"
        )
        return digest.hexdigest()

    def stats(self) -> dict:
        """JSON-ready operational snapshot: caches, metrics, QFG, provenance.

        >>> from repro.api import Engine, EngineConfig
        >>> with Engine.from_config(EngineConfig(dataset="mas")) as engine:
        ...     stats = engine.stats()
        >>> sorted(stats)
        ['caches', 'control_plane', 'drift', 'engine', 'journal', 'metrics', 'pending_observations', 'qfg', 'slo', 'system']
        """
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
            "engine": self.provenance(),
        }

    def clear_caches(self) -> None:
        """Empty the translate and join caches (their tallies are kept)."""
        for cache in (self._translate_cache, self._join_cache):
            cache.clear()

    def close(self) -> None:
        """Shut down deterministically without losing acknowledged work.

        Ordering matters: mark closed (new observations are refused),
        then flush whatever is still queued — observations were
        acknowledged to clients, so they must reach the QFG — then close
        the writers this engine built from its own config.  Idempotent:
        a second close is a no-op.
        """
        with self._learn_lock:
            if self._closed:
                return
            self._closed = True
        if self.templar is not None and self.pending_observations:
            self.absorb_pending()
        if self.control_plane is not None and self.config.control_plane_path:
            self.control_plane.close()
        if self.journal is not None and self.config.journal_dir:
            self.journal.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"Engine({self.backend.display_name} on {self.dataset.name!r}, "
            f"log_source={self.config.log_source!r})"
        )
