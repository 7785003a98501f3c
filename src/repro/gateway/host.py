"""One tenant's live engine, with atomic hot-swap and admission control.

:class:`EngineHost` owns the :class:`~repro.api.engine.Engine` serving a
tenant and mediates every request through an RCU-style lease:

* a request *checks out* the current lease (a reference to one engine
  generation plus an in-flight count) and translates on it;
* :meth:`EngineHost.reload` builds the replacement engine first — on the
  calling thread, off the request path — then swaps the lease reference
  under a lock.  The swap is a pointer assignment, so requests are never
  blocked behind an engine build;
* requests already in flight finish on the old engine; once its lease
  drains to idle the old engine is retired — its still-unabsorbed
  observations are carried over to the new engine (absorbing them into
  the discarded graph would throw the learning away) and it is closed.

Admission control is per tenant: more than ``max_in_flight`` concurrent
requests are rejected up front with :class:`~repro.errors.AdmissionError`
(HTTP 429), so one tenant's overload cannot exhaust the gateway's
handler threads for everyone else.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.api.engine import Engine
from repro.errors import AdmissionError, CanaryError, GatewayError
from repro.gateway.config import TenantConfig
from repro.serving.wire import TranslationRequest, TranslationResponse

logger = logging.getLogger(__name__)


class _EngineLease:
    """One engine generation plus the count of requests running on it."""

    __slots__ = ("engine", "_lock", "_count", "_idle")

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._lock = threading.Lock()
        self._count = 0
        self._idle = threading.Event()
        self._idle.set()

    def acquire(self) -> None:
        with self._lock:
            self._count += 1
            self._idle.clear()

    def release(self) -> None:
        with self._lock:
            self._count -= 1
            if self._count == 0:
                self._idle.set()

    def wait_idle(self, timeout: float | None) -> bool:
        """Block until no request runs on this generation (True) or timeout."""
        return self._idle.wait(timeout)


@dataclass(frozen=True)
class ReloadResult:
    """What one hot-swap did, for operators and the ``/admin/reload`` body."""

    tenant: str
    old_version: str | None
    new_version: str | None
    #: Unabsorbed observations carried from the retired engine into the
    #: replacement's learning queue.
    carried_observations: int
    #: Wall-clock seconds spent building the replacement engine (traffic
    #: kept being served by the old engine for all of it).
    build_seconds: float
    #: The shadow canary's verdict (``CanaryReport.as_dict()``), or None
    #: when the gate is disabled / had no journal to replay.
    canary: dict | None = None

    def as_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "old_version": self.old_version,
            "new_version": self.new_version,
            "carried_observations": self.carried_observations,
            "build_seconds": round(self.build_seconds, 3),
            "canary": self.canary,
        }


class EngineHost:
    """Owns and hot-swaps the live engine of one tenant."""

    def __init__(
        self,
        tenant: str,
        config: TenantConfig,
        *,
        engine_factory: Callable[[], Engine] | None = None,
        journal=None,
        control_plane=None,
        canary_requests: int = 0,
        canary_divergence: float = 0.1,
    ) -> None:
        self.tenant = tenant
        self.config = config
        #: Gateway-shared request journal (owned by the gateway, never
        #: closed here); every engine built for this host writes to it
        #: with the tenant id stamped on each record.
        self._journal = journal
        #: Gateway-shared control plane (owned by the gateway, never
        #: closed here); every engine generation built for this host
        #: shares the same durable cache / idempotency / feedback store.
        self._control_plane = control_plane
        # Read self.config at call time, not construction time, so an
        # updated tenant config takes effect on the next (re)build.
        self._factory = engine_factory or (
            lambda: Engine.from_config(
                self.config.engine,
                journal=self._journal,
                journal_tenant=self.tenant,
                control_plane=self._control_plane,
            )
        )
        #: Guards the lease reference and the in-flight counter.
        self._swap_lock = threading.Lock()
        self._lease: _EngineLease | None = None
        #: Serializes reloads (and close) so concurrent triggers — the
        #: poller racing an explicit ``/admin/reload`` — build one
        #: engine, not two.
        self._reload_lock = threading.Lock()
        self._in_flight = 0
        self._closed = False
        self.reload_count = 0
        self.rejected_count = 0
        #: Shadow-canary gate (PR 10): replay the tenant's last N
        #: journaled requests against the candidate before every swap;
        #: 0 disables the gate.
        self.canary_requests = int(canary_requests)
        self.canary_divergence = float(canary_divergence)
        self.canary_passed_count = 0
        self.canary_blocked_count = 0

    # ------------------------------------------------------------ lifecycle

    def start(self) -> "EngineHost":
        """Build and install the first engine generation (idempotent)."""
        with self._reload_lock:
            if self._lease is None and not self._closed:
                engine = self._factory()
                with self._swap_lock:
                    self._lease = _EngineLease(engine)
        return self

    @property
    def live(self) -> bool:
        """True once an engine is installed and the host is not closed."""
        with self._swap_lock:
            return self._lease is not None and not self._closed

    @property
    def engine(self) -> Engine:
        """The current engine generation (raises before :meth:`start`)."""
        with self._swap_lock:
            lease = self._lease
        if lease is None:
            raise GatewayError(
                f"tenant {self.tenant!r} has no live engine; start the host"
            )
        return lease.engine

    @property
    def artifact_version(self) -> str | None:
        """Artifact version currently being served (None when log-built)."""
        with self._swap_lock:
            lease = self._lease
        return lease.engine.artifact_version if lease is not None else None

    @property
    def in_flight(self) -> int:
        with self._swap_lock:
            return self._in_flight

    # ------------------------------------------------------------ requests

    def _checkout(self) -> _EngineLease:
        with self._swap_lock:
            lease = self._lease
            if lease is None or self._closed:
                raise GatewayError(
                    f"tenant {self.tenant!r} has no live engine"
                )
            if self._in_flight >= self.config.max_in_flight:
                # Counted here (not in the HTTP layer) so direct callers
                # and the endpoint share one admission ledger.
                self.rejected_count += 1
                raise AdmissionError(
                    f"tenant {self.tenant!r} is at its in-flight limit "
                    f"({self.config.max_in_flight}); retry later"
                )
            self._in_flight += 1
            lease.acquire()
        return lease

    def _checkin(self, lease: _EngineLease) -> None:
        with self._swap_lock:
            self._in_flight -= 1
        lease.release()

    def translate(
        self,
        request: TranslationRequest,
        *,
        observe: bool | None = None,
        idempotency_key: str | None = None,
    ) -> TranslationResponse:
        """Serve one request on the current engine generation.

        The lease pins the generation for the duration of the call: a
        reload swapping mid-request retires the old engine only after
        this (and every other in-flight) request released it.  The
        response's provenance carries the tenant id next to the engine's
        own provenance (backend, dataset, artifact version).
        """
        lease = self._checkout()
        try:
            response = lease.engine.translate(
                request, observe=observe, idempotency_key=idempotency_key
            )
            response.provenance["tenant"] = self.tenant
            return response
        finally:
            self._checkin(lease)

    def absorb_pending(self) -> int:
        """Absorb the current engine's queued observations (0 if none).

        Holds a lease (but no admission slot — background learning must
        not steal request capacity) so a concurrent reload cannot close
        the engine mid-absorb.
        """
        with self._swap_lock:
            lease = self._lease
            if lease is None or self._closed:
                return 0
            lease.acquire()
        try:
            if lease.engine.templar is None:
                return 0
            return lease.engine.absorb_pending()
        finally:
            lease.release()

    def apply_feedback(self) -> int:
        """Drain durable feedback rows into the current engine (0 if none).

        Same lease discipline as :meth:`absorb_pending`: no admission
        slot is consumed, and a concurrent reload cannot close the
        engine mid-apply.
        """
        with self._swap_lock:
            lease = self._lease
            if lease is None or self._closed:
                return 0
            lease.acquire()
        try:
            return lease.engine.apply_feedback()
        finally:
            lease.release()

    # -------------------------------------------------------------- reload

    def latest_published_version(self) -> str | None:
        """Newest artifact version published for this tenant, if watchable.

        Only tenants serving from an artifact store with an *unpinned*
        version track new publishes; everyone else returns ``None``.
        """
        engine_config = self.config.engine
        if (
            engine_config.log_source != "artifacts"
            or engine_config.artifact_version is not None
        ):
            return None
        from repro.serving.artifacts import ArtifactStore

        return ArtifactStore(engine_config.artifacts).latest_version(
            engine_config.dataset
        )

    def has_newer_version(self) -> bool:
        """True when the artifact store holds a version we are not serving."""
        latest = self.latest_published_version()
        return latest is not None and latest != self.artifact_version

    def reload(
        self, *, drain_timeout: float | None = 30.0, force: bool = False
    ) -> ReloadResult:
        """Atomically swap in a freshly built engine; zero dropped requests.

        The replacement is fully built (warm candidate index included —
        ``Engine.from_config`` forces it) before the swap, which is a
        single reference assignment under the lease lock: requests
        arriving after it land on the new engine, requests in flight
        finish on the old one.  Once the old generation drains, its
        unabsorbed observations are queued on the new engine and the old
        engine is closed.

        With the shadow canary enabled (``canary_requests > 0`` and a
        journal present), the candidate must first agree with the live
        engine on recent replayed traffic: a divergence above
        ``canary_divergence`` closes the candidate and raises
        :class:`~repro.errors.CanaryError` — the old engine keeps
        serving, nothing was swapped.  ``force=True`` records the
        verdict but swaps anyway (the ``/admin/reload`` override).
        """
        with self._reload_lock:
            if self._closed:
                raise GatewayError(
                    f"tenant {self.tenant!r} is closed and cannot reload"
                )
            old_version = self.artifact_version
            started = time.perf_counter()
            new_engine = self._factory()
            build_seconds = time.perf_counter() - started
            canary = self._run_canary(new_engine, force=force)
            if canary is not None and canary.blocked:
                self.canary_blocked_count += 1
                new_engine.close()
                logger.warning(
                    "tenant %s: canary blocked reload %s -> %s (%s)",
                    self.tenant, old_version,
                    canary.new_version, canary.describe(),
                )
                raise CanaryError(
                    f"canary blocked reload for tenant {self.tenant!r}: "
                    f"{canary.describe()}; pass force=true to override"
                )
            if canary is not None:
                self.canary_passed_count += 1
            self._carry_drift_reference(new_engine)
            with self._swap_lock:
                old_lease, self._lease = self._lease, _EngineLease(new_engine)
            self.reload_count += 1
            carried = 0
            if old_lease is not None:
                carried = self._retire(old_lease, new_engine, drain_timeout)
            result = ReloadResult(
                tenant=self.tenant,
                old_version=old_version,
                new_version=new_engine.artifact_version,
                carried_observations=carried,
                build_seconds=build_seconds,
                canary=canary.as_dict() if canary is not None else None,
            )
            if self._journal is not None:
                self._journal.log_reload(
                    self.tenant,
                    old_version=result.old_version,
                    new_version=result.new_version,
                    carried_observations=carried,
                    build_ms=build_seconds * 1000.0,
                )
            logger.info(
                "tenant %s: hot-swapped %s -> %s (%d observations carried, "
                "build %.3fs)",
                self.tenant,
                result.old_version,
                result.new_version,
                carried,
                build_seconds,
            )
            return result

    def _run_canary(self, new_engine: Engine, *, force: bool):
        """Shadow-replay recent journaled traffic against the candidate.

        Returns the :class:`~repro.obs.canary.CanaryReport` (journaled
        either way), or None when the gate is disabled or there is no
        live engine yet (first start).  Runs under ``_reload_lock`` —
        ``close()`` takes the same lock, so the live engine cannot be
        closed out from under the replay.
        """
        if not self.canary_requests or self._journal is None:
            return None
        with self._swap_lock:
            lease = self._lease
        if lease is None:
            return None
        from repro.obs.canary import run_canary, tail_requests

        self._journal.flush()
        records = tail_requests(
            self._journal.directory, self.tenant, self.canary_requests
        )
        report = run_canary(
            lease.engine, new_engine, records,
            tenant=self.tenant,
            threshold=self.canary_divergence,
            old_version=lease.engine.artifact_version,
            new_version=new_engine.artifact_version,
            forced=force,
        )
        self._journal.log_canary(report)
        return report

    def _carry_drift_reference(self, new_engine: Engine) -> None:
        """Seed the candidate's drift monitor with the live reference.

        The first post-reload tick then judges the *new* artifact
        against the *old* one's lifetime behaviour — exactly the shift a
        reload can introduce.  No-op unless both generations monitor.
        """
        with self._swap_lock:
            lease = self._lease
        if lease is None:
            return
        old_drift = getattr(lease.engine, "drift", None)
        new_drift = getattr(new_engine, "drift", None)
        if old_drift is None or new_drift is None:
            return
        old_drift.tick("reload")
        new_drift.adopt_reference(old_drift.reference_snapshot())

    def _retire(
        self,
        old_lease: _EngineLease,
        new_engine: Engine | None,
        drain_timeout: float | None,
    ) -> int:
        """Drain and close a retired generation; returns observations carried."""
        if not old_lease.wait_idle(drain_timeout):
            logger.warning(
                "tenant %s: %s requests still in flight on the retired "
                "engine after %.1fs; closing it anyway (translations on a "
                "closed engine still complete — only new observations are "
                "refused)",
                self.tenant,
                old_lease._count,
                drain_timeout,
            )
        carried = 0
        pending = old_lease.engine.take_pending()
        if new_engine is not None and new_engine.templar is not None:
            for sql in pending:
                new_engine.observe(sql)
                carried += 1
        elif pending:
            logger.warning(
                "tenant %s: dropping %d unabsorbed observations (the "
                "replacement engine cannot learn)",
                self.tenant,
                len(pending),
            )
        old_lease.engine.close()
        return carried

    # --------------------------------------------------------------- stats

    def stats(self) -> dict:
        """The tenant's isolated operational snapshot."""
        with self._swap_lock:
            lease = self._lease
            in_flight = self._in_flight
        base: dict = {
            "tenant": self.tenant,
            "live": lease is not None and not self._closed,
            "in_flight": in_flight,
            "max_in_flight": self.config.max_in_flight,
            "reloads": self.reload_count,
            "rejected": self.rejected_count,
            "canary": {
                "requests": self.canary_requests,
                "divergence_threshold": self.canary_divergence,
                "passed": self.canary_passed_count,
                "blocked": self.canary_blocked_count,
            },
        }
        if lease is not None:
            base["engine"] = lease.engine.stats()
            base["artifact_version"] = lease.engine.artifact_version
        return base

    def close(self, *, drain_timeout: float | None = 30.0) -> None:
        """Stop serving: drain in-flight requests, flush learning, close."""
        with self._reload_lock:
            if self._closed:
                return
            with self._swap_lock:
                self._closed = True
                lease, self._lease = self._lease, None
            if lease is not None:
                lease.wait_idle(drain_timeout)
                # Shutdown (not swap): Engine.close absorbs the pending
                # queue into its own QFG, honouring the observe contract.
                lease.engine.close()

    def __enter__(self) -> "EngineHost":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"EngineHost({self.tenant!r}, live={self.live}, "
            f"version={self.artifact_version!r})"
        )
