"""Unit tests for the serving LRU cache and telemetry registry."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ServingError
from repro.serving.cache import LRUCache
from repro.serving.telemetry import MetricsRegistry, percentile


class TestLRUCache:
    def test_get_put_and_stats(self):
        cache = LRUCache(maxsize=4, name="test")
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        stats = cache.stats()
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.size == 1
        assert stats.hit_rate == 0.5

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh "a": "b" is now the LRU entry
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert cache.stats().evictions == 1

    def test_put_existing_key_updates_without_eviction(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        assert len(cache) == 2
        assert cache.get("a") == 10
        assert cache.stats().evictions == 0

    def test_get_or_compute_runs_factory_once_per_key(self):
        cache = LRUCache(maxsize=4)
        calls = []

        def factory():
            calls.append(1)
            return "value"

        assert cache.get_or_compute("k", factory) == "value"
        assert cache.get_or_compute("k", factory) == "value"
        assert len(calls) == 1

    def test_cached_empty_list_is_a_hit(self):
        # An NLIDB legitimately returns [] for unmappable keywords; the
        # cache must not confuse that with a miss.
        cache = LRUCache(maxsize=4)
        cache.put("k", [])
        assert cache.get_or_compute("k", lambda: pytest.fail("recomputed")) == []

    def test_clear_keeps_counters(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 1

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ServingError):
            LRUCache(maxsize=-1)

    def test_zero_maxsize_disables_caching(self):
        """maxsize=0 is the off-switch (the fuzz harness's cache-off
        engine relies on it): puts are dropped, every get misses."""
        cache = LRUCache(maxsize=0)
        cache.put("k", "v")
        assert cache.get("k") is None
        assert len(cache) == 0
        assert cache.stats().misses == 1
        assert cache.stats().hits == 0

    def test_concurrent_mixed_access_is_safe(self):
        cache = LRUCache(maxsize=64)
        errors = []

        def worker(base: int) -> None:
            try:
                for i in range(200):
                    cache.put((base, i % 80), i)
                    cache.get((base, (i + 1) % 80))
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 64


class TestSingleFlight:
    """``get_or_compute``: each miss computes once, however many callers."""

    N = 8

    def _race(self, cache, factory):
        """N threads call ``get_or_compute("k")`` while the factory runs.

        The factory is held until every other thread has entered the
        cache, so they all arrive during the one computation.
        """
        release = threading.Event()
        outcomes = [None] * self.N

        def held():
            release.wait(5.0)
            return factory()

        def caller(index: int) -> None:
            try:
                outcomes[index] = ("ok", cache.get_or_compute("k", held))
            except Exception as exc:
                outcomes[index] = ("error", exc)

        threads = [
            threading.Thread(target=caller, args=(i,)) for i in range(self.N)
        ]
        for thread in threads:
            thread.start()
        # Every caller but the computing one parks on the in-flight entry.
        deadline = time.monotonic() + 5.0
        while (cache.stats().requests < self.N
               and time.monotonic() < deadline):
            time.sleep(0.001)
        release.set()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        return outcomes

    def test_racing_callers_share_one_computation(self):
        cache = LRUCache(maxsize=4)
        calls = []

        def factory():
            calls.append(1)
            return ["value"]

        outcomes = self._race(cache, factory)
        assert len(calls) == 1
        values = [value for status, value in outcomes]
        assert all(status == "ok" for status, _ in outcomes)
        assert all(value is values[0] for value in values)
        stats = cache.stats()
        assert (stats.misses, stats.hits) == (1, self.N - 1)
        assert cache.get_or_compute("k", lambda: pytest.fail("recomputed")) \
            is values[0]

    def test_exception_reaches_every_waiter_and_is_not_cached(self):
        cache = LRUCache(maxsize=4)
        calls = []

        def factory():
            calls.append(1)
            raise ValueError("boom")

        outcomes = self._race(cache, factory)
        assert len(calls) == 1
        assert all(
            status == "error" and isinstance(exc, ValueError)
            for status, exc in outcomes
        )
        assert "k" not in cache
        # The next caller computes afresh.
        assert cache.get_or_compute("k", lambda: "fresh") == "fresh"
        assert "k" in cache

    def test_stress_each_key_computes_once(self):
        """More threads than cores, fast thread switching, small LRU."""
        import sys
        from collections import Counter

        cache = LRUCache(maxsize=1024)
        calls = Counter()
        calls_lock = threading.Lock()

        def factory(key):
            with calls_lock:
                calls[key] += 1
            time.sleep(0.0005)
            return ("value", key)

        def worker(offset: int) -> None:
            for i in range(200):
                key = (i + offset) % 50
                assert cache.get_or_compute(key, lambda: factory(key)) == (
                    "value", key
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(t,)) for t in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert set(calls.values()) == {1}
        stats = cache.stats()
        assert (stats.misses, stats.hits) == (50, 8 * 200 - 50)

    def test_zero_maxsize_computes_on_every_call(self):
        cache = LRUCache(maxsize=0)
        calls = []

        def factory():
            calls.append(1)
            return "value"

        for _ in range(3):
            assert cache.get_or_compute("k", factory) == "value"
        assert len(calls) == 3
        stats = cache.stats()
        assert (stats.misses, stats.hits, stats.size) == (3, 0, 0)

class TestPercentile:
    def test_empty_and_single(self):
        assert percentile([], 95.0) == 0.0
        assert percentile([7.0], 50.0) == 7.0

    def test_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 100.0) == 4.0
        assert percentile(values, 50.0) == pytest.approx(2.5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)


class TestMetricsRegistry:
    def test_counters(self):
        metrics = MetricsRegistry()
        metrics.increment("requests")
        metrics.increment("requests", 4)
        assert metrics.counter("requests") == 5
        assert metrics.counter("unknown") == 0

    def test_latency_summary_and_snapshot(self):
        metrics = MetricsRegistry()
        for ms in (1, 2, 3, 4, 100):
            metrics.record_latency("translate", ms / 1000.0)
        summary = metrics.latency_summary("translate")
        assert summary.count == 5
        assert summary.p50_ms == pytest.approx(3.0)
        assert summary.max_ms == pytest.approx(100.0)
        assert summary.p99_ms <= summary.max_ms

        snapshot = metrics.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["latencies"]["translate"]["count"] == 5
        assert "translate" in snapshot["qps"]

    def test_timer_context_manager_records(self):
        metrics = MetricsRegistry()
        with metrics.time("op"):
            pass
        assert metrics.latency_summary("op").count == 1

    def test_qps_counts_recent_samples(self):
        metrics = MetricsRegistry()
        for _ in range(10):
            metrics.record_latency("translate", 0.001)
        assert metrics.qps("translate", window_seconds=60.0) > 0.0

    def test_qps_not_capped_by_ring_eviction(self):
        # A full ring means the retained span is shorter than the window;
        # the rate must be computed over that span, not the full window
        # (otherwise high traffic saturates at maxlen/window).
        metrics = MetricsRegistry(window=16)
        for _ in range(64):
            metrics.record_latency("translate", 0.0001)
        assert metrics.qps("translate", window_seconds=60.0) > 16 / 60.0 * 10

    def test_qps_empty_series_is_zero(self):
        assert MetricsRegistry().qps("never") == 0.0

    def test_latency_series_memory_is_bounded(self):
        # A long-lived gateway must not grow telemetry without bound:
        # each series is a ring buffer of exactly `window` samples.
        metrics = MetricsRegistry(window=8)
        for _ in range(10_000):
            metrics.record_latency("translate", 0.001)
        assert metrics.latency_summary("translate").count == 8
        assert metrics.window == 8

    def test_snapshot_exposes_the_cap(self):
        metrics = MetricsRegistry(window=32)
        metrics.record_latency("translate", 0.001)
        snapshot = metrics.snapshot()
        assert snapshot["latency_window"] == 32

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            MetricsRegistry(window=0)
