"""Gateway subsystem tests: config codec, hosts, hot-swap, background loops."""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.api import EngineConfig
from repro.core.log import QueryLog
from repro.errors import AdmissionError, ConfigError, GatewayError, ServingError
from repro.gateway import (
    EngineHost,
    Gateway,
    GatewayConfig,
    LearningScheduler,
    Reloader,
    TenantConfig,
)
from repro.serving import ArtifactStore, MetricsRegistry
from repro.serving.wire import TranslationRequest, TranslationResponse


def tenant_dict(dataset: str = "mas", **extra) -> dict:
    return {"engine": dict({"dataset": dataset}, **extra)}


class TestGatewayConfig:
    def test_round_trip_identity(self):
        config = GatewayConfig.from_dict({
            "tenants": {
                "mas": tenant_dict("mas"),
                "yelp": {"engine": {"dataset": "yelp"}, "max_in_flight": 8},
            },
            "reload_poll_seconds": 2.5,
            "learn_interval_seconds": 60.0,
            "learn_jitter": 0.2,
        })
        assert GatewayConfig.from_dict(config.to_dict()) == config
        assert config.tenants["yelp"].max_in_flight == 8
        assert config.tenants["mas"].engine == EngineConfig(dataset="mas")

    def test_file_round_trip(self, tmp_path):
        config = GatewayConfig.from_dict({"tenants": {"mas": tenant_dict()}})
        saved = config.save(tmp_path / "gateway.json")
        assert GatewayConfig.from_file(saved) == config

    def test_unknown_gateway_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown gateway config field"):
            GatewayConfig.from_dict(
                {"tenants": {"mas": tenant_dict()}, "poll": 1}
            )

    def test_unknown_tenant_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown tenant config field"):
            GatewayConfig.from_dict(
                {"tenants": {"mas": {"engine": {"dataset": "mas"}, "cap": 9}}}
            )

    def test_unknown_engine_field_rejected_through_tenant(self):
        with pytest.raises(ConfigError, match="unknown engine config field"):
            GatewayConfig.from_dict(
                {"tenants": {"mas": {"engine": {"dataset": "mas", "capa": 5}}}}
            )

    def test_at_least_one_tenant_required(self):
        with pytest.raises(ConfigError, match="at least one tenant"):
            GatewayConfig.from_dict({"tenants": {}})

    def test_invalid_tenant_ids_rejected(self):
        for bad in ("", "a/b", "a b", "x" * 65, "-leading"):
            with pytest.raises(ConfigError, match="invalid tenant id"):
                GatewayConfig.from_dict({"tenants": {bad: tenant_dict()}})

    def test_validation_bounds(self):
        with pytest.raises(ConfigError, match="max_in_flight"):
            TenantConfig(engine=EngineConfig(), max_in_flight=0)
        with pytest.raises(ConfigError, match="reload_poll_seconds"):
            GatewayConfig.from_dict(
                {"tenants": {"mas": tenant_dict()}, "reload_poll_seconds": 0}
            )
        with pytest.raises(ConfigError, match="learn_interval_seconds"):
            GatewayConfig.from_dict(
                {"tenants": {"mas": tenant_dict()},
                 "learn_interval_seconds": -1}
            )
        with pytest.raises(ConfigError, match="learn_jitter"):
            GatewayConfig.from_dict(
                {"tenants": {"mas": tenant_dict()}, "learn_jitter": 1.0}
            )

    def test_wrong_typed_values_raise_config_error(self):
        # Strict decoding covers value types too, not just unknown keys:
        # a traceback-y TypeError would break the CLI's exit-code contract.
        with pytest.raises(ConfigError, match="invalid gateway config"):
            GatewayConfig.from_dict(
                {"tenants": {"mas": tenant_dict()},
                 "reload_poll_seconds": "5"}
            )
        with pytest.raises(ConfigError, match="invalid gateway config"):
            GatewayConfig.from_dict(
                {"tenants": {"mas": tenant_dict()}, "learn_jitter": None}
            )
        with pytest.raises(ConfigError, match="invalid tenant config"):
            GatewayConfig.from_dict(
                {"tenants": {"mas": {"engine": {"dataset": "mas"},
                                     "max_in_flight": "8"}}}
            )

    def test_fingerprint_tracks_content(self):
        one = GatewayConfig.from_dict({"tenants": {"mas": tenant_dict()}})
        same = GatewayConfig.from_dict(one.to_dict())
        other = GatewayConfig.from_dict(
            {"tenants": {"mas": tenant_dict()}, "learn_jitter": 0.3}
        )
        assert one.fingerprint() == same.fingerprint()
        assert one.fingerprint() != other.fingerprint()


# ---------------------------------------------------------------- stubs


class StubEngine:
    """The slice of Engine that EngineHost touches, controllable in tests."""

    def __init__(self, version: str = "v1", gate: threading.Event | None = None):
        self.artifact_version = version
        self.templar = object()  # "can learn"
        self.pending: list[str] = []
        self.absorbed = 0
        self.closed = False
        self._gate = gate

    def translate(self, request, *, observe=None, idempotency_key=None):
        if self._gate is not None:
            self._gate.wait(5.0)
        return TranslationResponse(
            request=request,
            results=[],
            provenance={"artifact_version": self.artifact_version},
        )

    @property
    def pending_observations(self) -> int:
        return len(self.pending)

    def take_pending(self) -> list[str]:
        pending, self.pending = self.pending, []
        return pending

    def stats(self) -> dict:
        return {
            "caches": [],
            "metrics": {"counters": {}},
            "pending_observations": len(self.pending),
        }

    def observe(self, sql: str) -> None:
        self.pending.append(sql)

    def absorb_pending(self) -> int:
        absorbed = len(self.take_pending())
        self.absorbed += absorbed
        return absorbed

    def apply_feedback(self) -> int:
        return 0  # no control plane behind the stub

    def close(self) -> None:
        self.closed = True


def stub_host(tenant="t", max_in_flight=64, factory=None) -> EngineHost:
    config = TenantConfig(
        engine=EngineConfig(dataset="mas"), max_in_flight=max_in_flight
    )
    return EngineHost(
        tenant, config, engine_factory=factory or (lambda: StubEngine())
    )


REQUEST = TranslationRequest(nlq="return the papers")


class TestEngineHost:
    def test_not_started_host_rejects_requests(self):
        host = stub_host()
        assert not host.live
        with pytest.raises(GatewayError, match="no live engine"):
            host.translate(REQUEST)

    def test_translate_tags_tenant_provenance(self):
        host = stub_host("alpha").start()
        response = host.translate(REQUEST)
        assert response.provenance["tenant"] == "alpha"
        assert response.provenance["artifact_version"] == "v1"

    def test_start_is_idempotent(self):
        engines = []

        def factory():
            engines.append(StubEngine())
            return engines[-1]

        host = stub_host(factory=factory).start().start()
        assert len(engines) == 1

    def test_admission_limit_rejects_with_429_error(self):
        gate = threading.Event()
        host = stub_host(max_in_flight=1, factory=lambda: StubEngine(gate=gate))
        host.start()
        started = threading.Event()
        done: list[TranslationResponse] = []

        def slow_request():
            started.set()
            done.append(host.translate(REQUEST))

        thread = threading.Thread(target=slow_request)
        thread.start()
        started.wait(5.0)
        deadline = time.time() + 5.0
        while host.in_flight == 0 and time.time() < deadline:
            time.sleep(0.001)
        assert host.in_flight == 1
        with pytest.raises(AdmissionError, match="in-flight limit"):
            host.translate(REQUEST)
        assert host.rejected_count == 1
        gate.set()
        thread.join(5.0)
        assert len(done) == 1
        # Slot released: the next request is admitted again.
        host.translate(REQUEST)
        host.close()

    def test_reload_swaps_and_closes_old_engine(self):
        versions = iter(["v1", "v2"])
        engines: list[StubEngine] = []

        def factory():
            engines.append(StubEngine(next(versions)))
            return engines[-1]

        host = stub_host(factory=factory).start()
        result = host.reload()
        assert (result.old_version, result.new_version) == ("v1", "v2")
        assert host.artifact_version == "v2"
        assert engines[0].closed and not engines[1].closed
        assert host.reload_count == 1
        host.close()
        assert engines[1].closed

    def test_reload_carries_pending_observations_forward(self):
        engines = [StubEngine("v1"), StubEngine("v2")]
        supply = iter(engines)
        host = stub_host(factory=lambda: next(supply)).start()
        host.engine.observe("SELECT 1")
        host.engine.observe("SELECT 2")
        result = host.reload()
        assert result.carried_observations == 2
        # The retired engine absorbed nothing: the observations moved to
        # the replacement's queue instead of dying with the old graph.
        assert engines[0].absorbed == 0
        assert engines[1].pending == ["SELECT 1", "SELECT 2"]
        host.close()

    def test_in_flight_request_finishes_on_old_engine_during_reload(self):
        gate = threading.Event()
        engines = [StubEngine("v1", gate=gate), StubEngine("v2")]
        supply = iter(engines)
        host = stub_host(factory=lambda: next(supply)).start()
        responses: list[TranslationResponse] = []
        thread = threading.Thread(
            target=lambda: responses.append(host.translate(REQUEST))
        )
        thread.start()
        deadline = time.time() + 5.0
        while host.in_flight == 0 and time.time() < deadline:
            time.sleep(0.001)
        # Swap while the request is pinned to v1; drain must wait for it.
        reload_done = threading.Event()
        reload_thread = threading.Thread(
            target=lambda: (host.reload(), reload_done.set())
        )
        reload_thread.start()
        time.sleep(0.05)
        assert not engines[0].closed  # still draining: request in flight
        gate.set()
        thread.join(5.0)
        reload_thread.join(5.0)
        assert reload_done.is_set()
        assert responses[0].provenance["artifact_version"] == "v1"
        assert engines[0].closed
        assert host.artifact_version == "v2"
        host.close()

    def test_absorb_pending_uses_current_engine(self):
        host = stub_host().start()
        host.engine.observe("SELECT 1")
        assert host.absorb_pending() == 1
        assert host.absorb_pending() == 0
        host.close()
        assert host.absorb_pending() == 0  # closed host is a no-op

    def test_closed_host_refuses_traffic_and_reload(self):
        host = stub_host().start()
        host.close()
        host.close()  # idempotent
        with pytest.raises(GatewayError):
            host.translate(REQUEST)
        with pytest.raises(GatewayError, match="closed"):
            host.reload()


# ------------------------------------------------- hot-swap under real load


@pytest.fixture(scope="module")
def mas_store(tmp_path_factory):
    """An artifact store holding two published MAS versions."""
    from repro.datasets import load_dataset

    root = tmp_path_factory.mktemp("store")
    dataset = load_dataset("mas")
    store = ArtifactStore(root)
    v1 = store.compile(dataset).version
    log = QueryLog(
        [item.gold_sql for item in dataset.usable_items()]
        + ["SELECT name FROM author"]
    )
    v2 = store.compile(dataset, log).version
    return root, v1, v2


def artifact_tenant(root, version=None, **extra) -> TenantConfig:
    return TenantConfig.from_dict({
        "engine": dict(
            {
                "dataset": "mas",
                "log_source": "artifacts",
                "artifacts": str(root),
                "artifact_version": version,
            },
            **extra,
        )
    })


class TestConcurrentHotSwap:
    def test_hammered_translate_survives_reload(self, mas_store):
        """The acceptance hammer: no errors, only old/new versions served."""
        root, v1, v2 = mas_store
        host = EngineHost("mas", artifact_tenant(root, version=v1))
        host.start()
        # Unpin so the reload resolves LATEST (= v2).
        host.config = artifact_tenant(root)
        assert host.artifact_version == v1

        requests = [
            TranslationRequest(nlq="return the papers after 2000"),
            TranslationRequest(nlq="return the authors"),
            TranslationRequest(nlq="return the papers"),
        ]
        errors: list[Exception] = []
        versions: list[str] = []
        stop = threading.Event()

        def hammer(seed: int) -> None:
            rng = random.Random(seed)
            while not stop.is_set():
                try:
                    response = host.translate(rng.choice(requests))
                    versions.append(response.provenance["artifact_version"])
                except Exception as exc:  # noqa: BLE001 - the assertion
                    errors.append(exc)
                    return

        threads = [
            threading.Thread(target=hammer, args=(seed,)) for seed in range(8)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.1)  # traffic flowing on v1
        result = host.reload()
        time.sleep(0.1)  # traffic flowing on v2
        stop.set()
        for thread in threads:
            thread.join(10.0)

        assert not errors, errors
        assert (result.old_version, result.new_version) == (v1, v2)
        served = set(versions)
        assert served <= {v1, v2}
        assert v1 in served and v2 in served  # traffic saw both generations
        # Requests issued after the swap land on the new generation only.
        assert host.translate(requests[0]).provenance[
            "artifact_version"
        ] == v2
        host.close()

    def test_cache_stats_reset_after_swap(self, mas_store):
        root, v1, v2 = mas_store
        host = EngineHost("mas", artifact_tenant(root))
        host.start()
        request = TranslationRequest(nlq="return the papers after 2000")
        host.translate(request)
        host.translate(request)
        warm = {
            cache["name"]: cache
            for cache in host.stats()["engine"]["caches"]
        }
        assert warm["translate"]["hits"] >= 1
        host.reload()
        fresh = {
            cache["name"]: cache
            for cache in host.stats()["engine"]["caches"]
        }
        assert all(
            cache["hits"] == 0 and cache["misses"] == 0
            for cache in fresh.values()
        )
        host.close()


class TestReloader:
    def test_check_once_picks_up_new_version(self, mas_store, tmp_path):
        root, v1, v2 = mas_store
        host = EngineHost("mas", artifact_tenant(root))
        host.start()
        assert host.artifact_version == v2  # LATEST at start

        # Republish into a fresh store so the poll sees v1 -> v2 appear.
        from repro.datasets import load_dataset

        dataset = load_dataset("mas")
        fresh_root = tmp_path / "store"
        store = ArtifactStore(fresh_root)
        first = store.compile(dataset).version
        host = EngineHost("mas", artifact_tenant(fresh_root))
        host.start()
        assert host.artifact_version == first

        metrics = MetricsRegistry()
        reloader = Reloader({"mas": host}, poll_seconds=30.0, metrics=metrics)
        assert reloader.check_once() == []  # nothing new yet

        log = QueryLog(
            [item.gold_sql for item in dataset.usable_items()]
            + ["SELECT name FROM author", "SELECT title FROM publication"]
        )
        published = store.compile(dataset, log).version
        results = reloader.check_once()
        assert [result.new_version for result in results] == [published]
        assert host.artifact_version == published
        assert metrics.counter("gateway_reloads") == 1
        assert reloader.check_once() == []  # already serving the latest
        host.close()

    def test_pinned_and_log_built_tenants_are_not_watched(self, mas_store):
        root, v1, _ = mas_store
        pinned = EngineHost("pinned", artifact_tenant(root, version=v1))
        log_built = stub_host("logs")
        assert pinned.latest_published_version() is None
        assert log_built.latest_published_version() is None
        assert not pinned.has_newer_version()

    def test_poll_thread_starts_and_stops(self):
        host = stub_host().start()
        reloader = Reloader({"t": host}, poll_seconds=0.01)
        reloader.start()
        time.sleep(0.05)
        reloader.stop()
        assert reloader._thread is None
        host.close()

    def test_reload_error_is_counted_not_raised(self, mas_store):
        root, v1, v2 = mas_store

        class FailingHost(EngineHost):
            def has_newer_version(self):
                raise GatewayError("store offline")

        failing = FailingHost("bad", artifact_tenant(root))
        healthy = stub_host("ok").start()
        metrics = MetricsRegistry()
        reloader = Reloader(
            {"bad": failing, "ok": healthy}, poll_seconds=30.0, metrics=metrics
        )
        assert reloader.check_once() == []
        assert metrics.counter("gateway_reload_errors") == 1
        healthy.close()


class TestLearningScheduler:
    def test_absorb_all_sums_across_tenants(self):
        first = stub_host("a").start()
        second = stub_host("b").start()
        first.engine.observe("SELECT 1")
        first.engine.observe("SELECT 2")
        second.engine.observe("SELECT 3")
        metrics = MetricsRegistry()
        scheduler = LearningScheduler(
            {"a": first, "b": second}, 60.0, metrics=metrics
        )
        assert scheduler.absorb_all() == 3
        assert metrics.counter("gateway_learned") == 3
        assert scheduler.absorb_all() == 0
        first.close()
        second.close()

    def test_jittered_delay_stays_in_bounds(self):
        scheduler = LearningScheduler(
            {}, 10.0, jitter=0.2, rng=random.Random(7)
        )
        delays = [scheduler.next_delay() for _ in range(200)]
        assert all(8.0 <= delay <= 12.0 for delay in delays)
        assert len(set(round(delay, 6) for delay in delays)) > 1

    def test_zero_jitter_is_exact(self):
        scheduler = LearningScheduler({}, 5.0, jitter=0.0)
        assert scheduler.next_delay() == 5.0

    def test_thread_absorbs_periodically_and_stops(self):
        host = stub_host().start()
        host.engine.observe("SELECT 1")
        scheduler = LearningScheduler({"t": host}, 0.01, jitter=0.0)
        scheduler.start()
        deadline = time.time() + 5.0
        while host.engine.pending and time.time() < deadline:
            time.sleep(0.005)
        scheduler.stop()
        assert scheduler._thread is None
        assert not host.engine.pending
        host.close()

    def test_absorb_error_is_counted_not_raised(self):
        class FailingHost(EngineHost):
            def absorb_pending(self):
                raise ServingError("boom")

        failing = FailingHost(
            "bad", TenantConfig(engine=EngineConfig(dataset="mas")),
            engine_factory=StubEngine,
        )
        healthy = stub_host("ok").start()
        healthy.engine.observe("SELECT 1")
        metrics = MetricsRegistry()
        scheduler = LearningScheduler(
            {"bad": failing, "ok": healthy}, 60.0, metrics=metrics
        )
        assert scheduler.absorb_all() == 1
        assert metrics.counter("gateway_learn_errors") == 1
        healthy.close()


class TestGatewayFacade:
    def build(self, **config_extra) -> Gateway:
        config = GatewayConfig.from_dict(
            {"tenants": {"a": tenant_dict(), "b": tenant_dict()},
             **config_extra}
        )
        return Gateway(
            config,
            engine_factories={
                "a": lambda: StubEngine("va"),
                "b": lambda: StubEngine("vb"),
            },
        )

    def test_ready_flips_with_start_and_close(self):
        gateway = self.build()
        assert not gateway.ready()
        gateway.start()
        assert gateway.ready()
        gateway.close()
        assert not gateway.ready()

    def test_translate_routes_by_tenant(self):
        with self.build() as gateway:
            response = gateway.translate("b", REQUEST)
            assert response.provenance["tenant"] == "b"
            assert response.provenance["artifact_version"] == "vb"
            assert gateway.metrics.counter("tenant.b.requests") == 1
            assert gateway.metrics.counter("gateway_requests") == 1

    def test_unknown_tenant_raises_gateway_error(self):
        with self.build() as gateway:
            with pytest.raises(GatewayError, match="unknown tenant"):
                gateway.translate("nope", REQUEST)
            with pytest.raises(GatewayError, match="unknown tenant"):
                gateway.reload("nope")

    def test_unknown_factory_tenant_rejected(self):
        config = GatewayConfig.from_dict({"tenants": {"a": tenant_dict()}})
        with pytest.raises(GatewayError, match="not in the config"):
            Gateway(config, engine_factories={"zz": StubEngine})

    def test_stats_isolate_tenants_and_aggregate(self):
        with self.build() as gateway:
            gateway.translate("a", REQUEST)
            stats = gateway.stats()
            assert set(stats["tenants"]) == {"a", "b"}
            assert stats["aggregate"]["tenants"] == 2
            assert stats["aggregate"]["live_tenants"] == 2
            assert stats["ready"] is True
            assert stats["tenants"]["a"]["live"] is True

    def test_pending_observations_totals_live_tenants(self):
        with self.build() as gateway:
            gateway.host("a").engine.observe("SELECT 1")
            gateway.host("b").engine.observe("SELECT 2")
            assert gateway.pending_observations() == 2

    def test_background_loops_wired_from_config(self):
        gateway = self.build(
            reload_poll_seconds=30.0, learn_interval_seconds=60.0
        )
        try:
            assert gateway.reloader is not None
            assert gateway.scheduler is not None
            assert gateway.learning_scheduled
        finally:
            gateway.close()
        bare = self.build()
        try:
            assert bare.reloader is None and bare.scheduler is None
            assert not bare.learning_scheduled
        finally:
            bare.close()

    def test_close_is_idempotent_and_closes_engines(self):
        gateway = self.build()
        gateway.start()
        engine = gateway.host("a").engine
        gateway.close()
        gateway.close()
        assert engine.closed

    def test_close_racing_start_never_leaves_loops_running(self):
        # SIGTERM during warm-up: start() runs on a background thread
        # while close() fires.  The background loops must not come up
        # after close() stopped them (they would poll closed hosts
        # forever with no way to stop).
        gate = threading.Event()

        def slow_factory():
            gate.wait(5.0)
            return StubEngine()

        config = GatewayConfig.from_dict({
            "tenants": {"a": tenant_dict()},
            "reload_poll_seconds": 0.01,
            "learn_interval_seconds": 0.01,
        })
        gateway = Gateway(config, engine_factories={"a": slow_factory})
        warmup = threading.Thread(target=gateway.start)
        warmup.start()
        time.sleep(0.02)  # warm-up is blocked inside the factory
        closer = threading.Thread(target=gateway.close)
        closer.start()
        time.sleep(0.02)
        gate.set()
        warmup.join(5.0)
        closer.join(5.0)
        assert gateway.reloader._thread is None
        assert gateway.scheduler._thread is None
        assert not gateway.ready()
