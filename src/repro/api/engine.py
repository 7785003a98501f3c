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
* a cached, thread-safe :class:`~repro.serving.TranslationService`,
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

The candidate-retrieval index of the keyword mapper
(:class:`~repro.core.candidate_index.CandidateIndex`) is built here at
``from_config`` time — or loaded from the artifact store when
``log_source="artifacts"`` — so no request pays for it.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Sequence

from repro.api.config import EngineConfig
from repro.core.candidate_index import CandidateIndex
from repro.core.explain import ConfigurationExplanation, explain_configuration
from repro.core.interface import Keyword
from repro.core.log import QueryLog
from repro.core.templar import Templar
from repro.datasets.base import BenchmarkDataset
from repro.datasets.registry import load_dataset
from repro.embedding.model import CompositeModel
from repro.errors import ConfigError, ServingError, TranslationError
from repro.nlidb.base import NLIDB
from repro.nlidb.nalir_parser import NalirParser
from repro.nlidb.registry import BackendSpec, build_backend, get_backend
from repro.obs.trace import Tracer
from repro.serving.service import (
    TranslationService,
    resolve_request_keywords,
    translate_request,
)
from repro.serving.wire import TranslationRequest, TranslationResponse


class Engine:
    """One assembled translation stack, built declaratively from a config.

    Construct with :meth:`from_config`; the direct constructor wires
    pre-built parts together (dependency injection for tests and custom
    datasets).

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
        service: TranslationService,
        parser: NalirParser | None = None,
        templar: Templar | None = None,
        artifact_version: str | None = None,
        owned_journal=None,
        owned_control_plane=None,
    ) -> None:
        self.config = config
        self.dataset = dataset
        self.backend = backend
        self.nlidb = nlidb
        self.service = service
        self.parser = parser
        self.templar = templar
        self.artifact_version = artifact_version
        #: The RequestJournal this engine built from its own config (and
        #: therefore closes); an injected shared journal (the gateway's)
        #: stays owned by its creator and is reachable via
        #: ``service.journal``.
        self._owned_journal = owned_journal
        #: Same ownership rule for the control plane: built-from-config
        #: planes are closed here, injected (gateway-shared) ones are not.
        self._owned_control_plane = owned_control_plane
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
        owned_journal = None
        if config.journal_dir:
            if journal is not None:
                # Two destinations for the same records would silently
                # fork the serving history.
                raise ConfigError(
                    f"an injected journal cannot override journal_dir "
                    f"{config.journal_dir!r}; drop one of the two"
                )
            from repro.obs.journal import RequestJournal

            journal = owned_journal = RequestJournal(
                config.journal_dir,
                segment_bytes=config.journal_segment_bytes,
                segments=config.journal_segments,
            )
        owned_control_plane = None
        if config.control_plane_path:
            if control_plane is not None:
                raise ConfigError(
                    f"an injected control plane cannot override "
                    f"control_plane_path {config.control_plane_path!r}; "
                    f"drop one of the two"
                )
            from repro.controlplane import ControlPlane

            control_plane = owned_control_plane = ControlPlane(
                config.control_plane_path,
                cache=config.control_plane_cache,
                idempotency=config.control_plane_idempotency,
                feedback=config.control_plane_feedback,
                idempotency_ttl_seconds=config.idempotency_ttl_seconds,
            )
        service = TranslationService(
            nlidb,
            templar=templar,
            cache_size=config.cache_size,
            learn_batch_size=config.learn_batch_size,
            tracer=Tracer(
                enabled=config.tracing, keep_slowest=config.trace_keep
            ),
            slow_query_ms=config.slow_query_ms,
            journal=journal,
            journal_tenant=journal_tenant or config.dataset,
            control_plane=control_plane,
            slo=config.slo,
            drift_threshold=config.drift_threshold,
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
            service=service,
            parser=parser,
            templar=templar,
            artifact_version=artifact_version,
            owned_journal=owned_journal,
            owned_control_plane=owned_control_plane,
        )
        if control_plane is not None and control_plane.feedback_enabled \
                and templar is not None:
            # Catch up on the tenant's durable feedback history: a fresh
            # replica (or a post-crash restart) rebuilds its QFG from the
            # log source, which does not include user verdicts.
            engine.apply_feedback()
        return engine

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

        When the request asks to ``observe``, the top translation is fed
        back into the QFG learning queue after translation — unless the
        control plane identified the request as an idempotent replay or
        a concurrent duplicate (``response.learnable`` is False), in
        which case the retry contributes exactly zero observations.

        >>> from repro.api import Engine, EngineConfig
        >>> with Engine.from_config(EngineConfig(dataset="mas")) as engine:
        ...     response = engine.translate(
        ...         {"nlq": "return the authors", "limit": 1})
        >>> response.sql
        'SELECT t1.name FROM author t1'
        """
        request = TranslationRequest.of(request, limit=limit, observe=observe)
        self._check_observable(request)
        response = translate_request(
            self.service, request,
            parser=self.parser, provenance=self.provenance(),
            idempotency_key=idempotency_key,
        )
        if request.observe and response.results and response.learnable:
            self.observe(response.results[0].sql)
        return response

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
            # through the service (warm in-process caches) to recover the
            # configuration lineage the explanation decomposes.
            keywords, _ = resolve_request_keywords(
                TranslationRequest.of(request), self.parser
            )
            results = self.service.translate(keywords)
            if not results:  # pragma: no cover - replay implies results
                raise TranslationError(
                    "nothing to explain: the request produced no translation"
                )
            configuration = results[0].configuration
        return explain_configuration(
            configuration,
            self.templar.qfg if self.templar is not None else None,
        )

    @property
    def tracer(self):
        """The serving layer's request tracer (span trees, trace store).

        >>> from repro.api import Engine, EngineConfig
        >>> with Engine.from_config(EngineConfig(dataset="mas")) as engine:
        ...     response = engine.translate("return the papers after 2000")
        ...     trace = engine.tracer.store.get(
        ...         response.provenance["trace_id"])
        >>> [span["name"] for span in trace.root["children"]]
        ['parse', 'translate']
        """
        return self.service.tracer

    # ------------------------------------------------------------ learning

    def observe(self, sql: str) -> None:
        """Queue one served SQL statement for QFG ingestion.

        >>> from repro.api import Engine, EngineConfig
        >>> with Engine.from_config(EngineConfig(dataset="mas")) as engine:
        ...     engine.observe("SELECT name FROM author")
        ...     engine.service.pending_observations
        1
        """
        self.service.observe(sql)

    def absorb_pending(self) -> int:
        """Apply queued observations to the QFG now; returns how many.

        >>> from repro.api import Engine, EngineConfig
        >>> with Engine.from_config(EngineConfig(dataset="mas")) as engine:
        ...     engine.observe("SELECT name FROM author")
        ...     engine.absorb_pending()
        1
        """
        return self.service.absorb_pending()

    def apply_feedback(self) -> int:
        """Absorb unseen durable user feedback into the QFG; returns count.

        Walks the control plane's feedback table past this engine's
        cursor: accepted SQL and corrections are observed and absorbed,
        rejects advance the cursor without teaching anything.  A no-op
        without a control plane (or with feedback disabled).
        """
        from repro.controlplane.feedback import apply_feedback

        return apply_feedback(self.service)

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
        return self.service.take_pending()

    # ----------------------------------------------------------- lifecycle

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
        """Operational snapshot: service stats plus engine provenance.

        >>> from repro.api import Engine, EngineConfig
        >>> with Engine.from_config(EngineConfig(dataset="mas")) as engine:
        ...     stats = engine.stats()
        >>> sorted(stats)
        ['caches', 'control_plane', 'drift', 'engine', 'journal', 'metrics', 'pending_observations', 'qfg', 'slo', 'system']
        """
        stats = self.service.stats()
        stats["engine"] = self.provenance()
        return stats

    @property
    def journal(self):
        """The request journal this engine's requests land in, or None."""
        return self.service.journal

    @property
    def control_plane(self):
        """The durable control plane this engine serves through, or None."""
        return self.service.control_plane

    def close(self) -> None:
        """Shut the serving layer down (absorbs pending observations)."""
        self.service.close()
        if self._owned_control_plane is not None:
            self._owned_control_plane.close()
        if self._owned_journal is not None:
            self._owned_journal.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"Engine({self.backend.display_name} on {self.dataset.name!r}, "
            f"log_source={self.config.log_source!r})"
        )
