"""The gateway facade: tenant registry, background loops, aggregate stats.

A :class:`Gateway` is to a fleet of engines what
:class:`~repro.api.engine.Engine` is to one translation stack: a single
declaratively-constructed object that the HTTP layer, the CLI and tests
all talk to.  It owns one :class:`~repro.gateway.host.EngineHost` per
tenant, the artifact :class:`~repro.gateway.reloader.Reloader`, the
:class:`~repro.gateway.scheduler.LearningScheduler`, and the
gateway-level telemetry that aggregates across tenants.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from pathlib import Path
from typing import Callable, Mapping

from repro.api.engine import Engine
from repro.errors import GatewayError, ServingError
from repro.gateway.config import GatewayConfig
from repro.gateway.host import EngineHost, ReloadResult
from repro.gateway.reloader import Reloader
from repro.gateway.scheduler import LearningScheduler
from repro.obs.journal import RequestJournal
from repro.serving.telemetry import MetricsRegistry
from repro.serving.wire import TranslationRequest, TranslationResponse


class Gateway:
    """Hosts many tenants' engines in one process behind one surface."""

    def __init__(
        self,
        config: GatewayConfig,
        *,
        engine_factories: Mapping[str, Callable[[], Engine]] | None = None,
    ) -> None:
        self.config = config
        self.metrics = MetricsRegistry()
        factories = dict(engine_factories or {})
        unknown = sorted(set(factories) - set(config.tenants))
        if unknown:
            raise GatewayError(
                f"engine_factories name tenant(s) not in the config: "
                f"{', '.join(unknown)}"
            )
        #: One shared durable journal for the whole fleet: every tenant's
        #: engine writes to it with its tenant id stamped on each record,
        #: so the self-analytics layer can ask cross-tenant questions.
        self.journal = (
            RequestJournal(
                config.journal_dir,
                segment_bytes=config.journal_segment_bytes,
                segments=config.journal_segments,
            )
            if config.journal_dir is not None
            else None
        )
        #: One shared persistent control plane for the whole fleet: the
        #: durable translation cache, idempotency ledger and feedback
        #: table live in a single WAL-mode SQLite file, so a request
        #: warmed by one replica hits on every other replica pointed at
        #: the same path.
        self.control_plane = None
        if config.control_plane_path is not None:
            from repro.controlplane import ControlPlane

            self.control_plane = ControlPlane(
                config.control_plane_path,
                cache=config.control_plane_cache,
                idempotency=config.control_plane_idempotency,
                feedback=config.control_plane_feedback,
                idempotency_ttl_seconds=config.idempotency_ttl_seconds,
            )
        self.hosts: dict[str, EngineHost] = {
            tenant_id: EngineHost(
                tenant_id,
                self._effective_tenant(tenant),
                engine_factory=factories.get(tenant_id),
                journal=self.journal,
                control_plane=self.control_plane,
                canary_requests=config.canary_requests,
                canary_divergence=config.canary_divergence,
            )
            for tenant_id, tenant in config.tenants.items()
        }
        self.reloader = (
            Reloader(
                self.hosts, config.reload_poll_seconds, metrics=self.metrics
            )
            if config.reload_poll_seconds is not None
            else None
        )
        self.scheduler = (
            LearningScheduler(
                self.hosts,
                config.learn_interval_seconds,
                jitter=config.learn_jitter,
                metrics=self.metrics,
            )
            if config.learn_interval_seconds is not None
            else None
        )
        self._state_lock = threading.Lock()
        self._started = False
        self._closed = False
        self._selfquery = None

    def _effective_tenant(self, tenant):
        """Apply gateway-wide defaults a tenant did not set itself.

        Currently just the SLO policy: ``gateway.slo`` is the fleet
        default, a tenant's own ``engine.slo`` wins.
        """
        if self.config.slo is None or tenant.engine.slo is not None:
            return tenant
        return replace(tenant, engine=replace(tenant.engine, slo=self.config.slo))

    @classmethod
    def from_config(
        cls,
        config: GatewayConfig | dict | str | Path,
        *,
        engine_factories: Mapping[str, Callable[[], Engine]] | None = None,
    ) -> "Gateway":
        """Resolve a config (object, dict, or JSON file path) into a gateway.

        Engines are *not* built yet — call :meth:`start` (so ``/readyz``
        can honestly report the warm-up phase while the HTTP listener is
        already up).
        """
        if isinstance(config, (str, Path)):
            config = GatewayConfig.from_file(config)
        elif isinstance(config, dict):
            config = GatewayConfig.from_dict(config)
        return cls(config, engine_factories=engine_factories)

    # ------------------------------------------------------------ lifecycle

    def start(self) -> "Gateway":
        """Build every tenant's engine, then start the background loops.

        Idempotent.  Hosts are started one at a time; ``/readyz`` flips
        tenant by tenant as their engines come up.
        """
        with self._state_lock:
            if self._started or self._closed:
                return self
        for host in self.hosts.values():
            host.start()  # no-op on a host close() already shut
        with self._state_lock:
            if self._closed:
                # close() ran mid-warm-up (SIGTERM during startup): the
                # background loops must never come up after it stopped
                # them, or they would poll closed hosts forever.
                return self
            if self.reloader is not None:
                self.reloader.start()
            if self.scheduler is not None:
                self.scheduler.start()
            self._started = True
        return self

    def ready(self) -> bool:
        """True once every tenant has a live engine."""
        with self._state_lock:
            if self._closed:
                return False
        return all(host.live for host in self.hosts.values())

    def close(self) -> None:
        """Deterministic shutdown: stop the loops, drain and close hosts.

        Background threads stop *first* so no reload or absorb races the
        host teardown; each host then drains its in-flight requests and
        flushes acknowledged observations into its QFG.  Idempotent.
        """
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        if self.reloader is not None:
            self.reloader.stop()
        if self.scheduler is not None:
            self.scheduler.stop()
        for host in self.hosts.values():
            host.close()
        # Last, after every writer is gone: flush and close the shared
        # control plane and journal.
        if self.control_plane is not None:
            self.control_plane.close()
        if self._selfquery is not None:
            self._selfquery.close()
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "Gateway":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- serving

    def host(self, tenant: str) -> EngineHost:
        """The named tenant's host; unknown tenants raise (HTTP 404)."""
        try:
            return self.hosts[tenant]
        except KeyError:
            raise GatewayError(
                f"unknown tenant {tenant!r}; configured: "
                f"{', '.join(sorted(self.hosts))}"
            ) from None

    def translate(
        self,
        tenant: str,
        request: TranslationRequest,
        *,
        observe: bool | None = None,
        idempotency_key: str | None = None,
    ) -> TranslationResponse:
        """Route one request to its tenant's live engine.

        Failures leave a counter trail by exception type and tenant
        (``gateway_errors{tenant=...,type=...}``) before propagating to
        the HTTP error mapping.
        """
        self.metrics.increment("gateway_requests")
        self.metrics.increment(f"tenant.{tenant}.requests")
        try:
            with self.metrics.time("gateway_translate"):
                return self.host(tenant).translate(
                    request,
                    observe=observe,
                    idempotency_key=idempotency_key,
                )
        except Exception as exc:
            self.metrics.increment(
                "gateway_errors",
                labels={"tenant": tenant, "type": type(exc).__name__},
            )
            raise

    def feedback(self, tenant: str, payload: dict) -> dict:
        """Record a user verdict on a prior translation, durably.

        The payload (see
        :func:`~repro.controlplane.feedback.validate_feedback_payload`)
        names a prior response by ``request_id`` or ``trace_id``, or
        carries the SQL explicitly.  The verdict is persisted in the
        shared control plane — every replica sees it — then applied to
        this process's live engine immediately; other replicas pick it
        up on their next learning tick.  Unknown tenants raise
        :class:`~repro.errors.GatewayError` (HTTP 404); a gateway with
        no control plane raises :class:`~repro.errors.ServingError`
        (HTTP 400).
        """
        host = self.host(tenant)
        if self.control_plane is None:
            raise ServingError(
                "this gateway has no control plane (set control_plane_path "
                "in the gateway config to enable feedback)"
            )
        from repro.controlplane import validate_feedback_payload

        data = validate_feedback_payload(payload)
        record = self.control_plane.submit_feedback(
            tenant,
            data["verdict"],
            request_id=data["request_id"],
            trace_id=data["trace_id"],
            nlq=data["nlq"],
            sql=data["sql"],
            corrected_sql=data["corrected_sql"],
        )
        self.metrics.increment(
            "feedback", labels={"verdict": record["verdict"]}
        )
        if host.live:
            # Also count on the tenant's own registry: the per-tenant
            # SLO evaluator (feedback_reject_rate) reads that one.
            host.engine.service.metrics.increment(
                "feedback", labels={"verdict": record["verdict"]}
            )
        if self.journal is not None:
            self.journal.log_feedback(
                tenant,
                verdict=record["verdict"],
                nlq=record.get("nlq"),
                sql=record.get("sql"),
                corrected_sql=record.get("corrected_sql"),
                request_id=record.get("request_id"),
            )
        record["applied"] = host.apply_feedback()
        return record

    def reload(
        self, tenant: str | None = None, *, force: bool = False
    ) -> list[ReloadResult]:
        """Hot-swap one tenant (or every tenant) onto a fresh engine.

        ``force=True`` overrides a blocking shadow-canary verdict (the
        verdict is still journaled); without it a diverging candidate
        raises :class:`~repro.errors.CanaryError` and the old engine
        keeps serving.
        """
        hosts = [self.host(tenant)] if tenant is not None else list(
            self.hosts.values()
        )
        results = []
        for host in hosts:
            results.append(host.reload(force=force))
            self.metrics.increment("gateway_reloads")
        return results

    @property
    def learning_scheduled(self) -> bool:
        """True when a background drain exists for observed queries."""
        return self.scheduler is not None

    def pending_observations(self) -> int:
        """Observations queued across all live tenants."""
        total = 0
        for host in self.hosts.values():
            if host.live:
                total += host.engine.service.pending_observations
        return total

    # ------------------------------------------------------- observability

    def metrics_sources(self) -> list[tuple[dict, MetricsRegistry]]:
        """Registries for one exposition page: gateway + live tenants.

        Each live tenant's service registry is labelled ``{"tenant":
        ...}``, which is how per-tenant latency histograms and error
        counters reach an external scraper from a single ``/metrics``.
        """
        self._sync_writer_counters()
        sources: list[tuple[dict, MetricsRegistry]] = [({}, self.metrics)]
        for tenant_id, host in sorted(self.hosts.items()):
            if host.live:
                service = host.engine.service
                service.sync_observability_counters()
                sources.append(({"tenant": tenant_id}, service.metrics))
        return sources

    def _sync_writer_counters(self) -> None:
        """Publish the shared writers' shed counters on the gateway registry.

        The journal and the control plane's write-behind thread drop
        records rather than block the hot path; their attribute counters
        become gateway-level metrics here so a scraper sees data loss.
        """
        if self.journal is not None:
            self.metrics.set_counter(
                "journal_dropped_records", self.journal.dropped
            )
            self.metrics.set_counter(
                "journal_written_records", self.journal.written
            )
            self.metrics.set_counter(
                "journal_encode_errors", self.journal.encode_errors
            )
            self.metrics.set_gauge(
                "journal_queue_depth", self.journal.pending
            )
        for tenant_id, host in self.hosts.items():
            if host.canary_requests:
                labels = {"tenant": tenant_id}
                self.metrics.set_counter(
                    "canary_passed", host.canary_passed_count, labels=labels
                )
                self.metrics.set_counter(
                    "canary_blocked", host.canary_blocked_count, labels=labels
                )
        if self.control_plane is not None:
            self.metrics.set_counter(
                "control_plane_dropped_writes",
                self.control_plane.dropped_writes,
            )
            self.metrics.set_counter(
                "control_plane_errors", self.control_plane.errors
            )

    def slo_reports(self, tenant: str | None = None) -> dict:
        """Per-tenant SLO compliance (the ``GET /slo`` body).

        Tenants without a policy — no ``engine.slo`` and no gateway
        default — report ``{"configured": False}`` rather than being
        omitted, so a scraper can tell "no objectives" from "tenant
        missing".  Unknown tenants raise (HTTP 404).
        """
        if tenant is not None:
            hosts = [(tenant, self.host(tenant))]
        else:
            hosts = sorted(self.hosts.items())
        reports = {}
        for tenant_id, host in hosts:
            if not host.live:
                reports[tenant_id] = {"configured": False, "live": False}
                continue
            report = host.engine.service.slo_report()
            reports[tenant_id] = (
                report.as_dict() if report is not None
                else {"configured": False}
            )
        return reports

    def traces(
        self,
        tenant: str | None = None,
        limit: int = 50,
        trace_id: str | None = None,
    ) -> list[dict]:
        """Retained traces across tenants, newest first, tenant-stamped.

        ``tenant`` narrows to one tenant (unknown tenants raise
        :class:`~repro.errors.GatewayError`, the HTTP 404 path);
        ``trace_id`` narrows to the one trace a response's provenance
        named (an empty list once it is no longer retained).
        """
        if tenant is not None:
            hosts = [(tenant, self.host(tenant))]
        else:
            hosts = sorted(self.hosts.items())
        stamped: list[tuple[float, dict]] = []
        for tenant_id, host in hosts:
            if not host.live:
                continue
            store = host.engine.tracer.store
            if trace_id is None:
                retained = store.traces(limit=limit)
            else:
                trace = store.get(trace_id)
                retained = [trace] if trace is not None else []
            for trace in retained:
                payload = trace.to_dict()
                payload["tenant"] = tenant_id
                stamped.append((trace.started_unix, payload))
        stamped.sort(key=lambda pair: pair[0], reverse=True)
        return [payload for _, payload in stamped[:limit]]

    def query_logs(self, nlq: str, *, limit: int | None = 20) -> dict:
        """Self-analytics: translate an NLQ over the gateway's own journal.

        The journal records every tenant's traffic; the self-query
        engine (built lazily, rebuilt when the journal grows) answers
        questions like *"slowest tenant today"* by translating them with
        the NLIDB itself and executing the SQL over the telemetry
        database.  Raises :class:`~repro.errors.ServingError` (a client
        mistake, HTTP 400) when the gateway has no journal configured.
        """
        if self.journal is None:
            raise ServingError(
                "this gateway has no journal (set journal_dir in the "
                "gateway config to enable self-analytics)"
            )
        with self._state_lock:
            if self._closed:
                raise GatewayError("gateway is closed")
            if self._selfquery is None:
                from repro.obs.selfquery import SelfQueryService

                self._selfquery = SelfQueryService(
                    self.journal.directory, journal=self.journal
                )
            service = self._selfquery
        return service.query(nlq, limit=limit)

    # --------------------------------------------------------------- stats

    def stats(self) -> dict:
        """Per-tenant isolated snapshots plus the cross-tenant aggregate."""
        self._sync_writer_counters()
        tenants = {
            tenant_id: host.stats() for tenant_id, host in self.hosts.items()
        }
        aggregate = {
            "tenants": len(self.hosts),
            "live_tenants": sum(
                1 for snapshot in tenants.values() if snapshot["live"]
            ),
            "requests": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "pending_observations": 0,
            "in_flight": 0,
            "rejected": 0,
            "reloads": 0,
            "canary_passed": 0,
            "canary_blocked": 0,
        }
        for snapshot in tenants.values():
            aggregate["in_flight"] += snapshot["in_flight"]
            aggregate["rejected"] += snapshot["rejected"]
            aggregate["reloads"] += snapshot["reloads"]
            aggregate["canary_passed"] += snapshot["canary"]["passed"]
            aggregate["canary_blocked"] += snapshot["canary"]["blocked"]
            engine_stats = snapshot.get("engine")
            if engine_stats is None:
                continue
            counters = engine_stats["metrics"]["counters"]
            aggregate["requests"] += counters.get("requests", 0)
            aggregate["pending_observations"] += engine_stats[
                "pending_observations"
            ]
            for cache in engine_stats["caches"]:
                aggregate["cache_hits"] += cache["hits"]
                aggregate["cache_misses"] += cache["misses"]
        return {
            "config_fingerprint": self.config.fingerprint()[:12],
            "ready": self.ready(),
            "aggregate": aggregate,
            "tenants": tenants,
            "metrics": self.metrics.snapshot(),
            "journal": self.journal.stats() if self.journal else None,
            "control_plane": (
                self.control_plane.stats_local()
                if self.control_plane
                else None
            ),
        }

    def __repr__(self) -> str:
        return (
            f"Gateway({len(self.hosts)} tenants: "
            f"{', '.join(sorted(self.hosts))})"
        )
