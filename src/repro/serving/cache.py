"""Thread-safe LRU cache with hit/miss statistics.

The serving layer keeps two of these (whole-request translations and
join paths).  The implementation favours predictability over cleverness:
a plain ``OrderedDict`` guarded by a lock, move-to-end on hit,
evict-oldest on overflow.  ``get_or_compute`` is single-flight: the
first thread to miss a key runs the factory *outside* the lock, so a
slow miss never blocks hits on other keys, and concurrent callers of
the same key wait for that one computation instead of repeating it.
:class:`CachingJoinPathGenerator` memoizes an NLIDB's join inference
through the second one.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable, Hashable

from repro.core.join_inference import JoinPath, JoinPathGenerator
from repro.errors import ServingError

_MISSING = object()


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time counters of one cache."""

    name: str
    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from cache (0.0 when unused)."""
        return self.hits / self.requests if self.requests else 0.0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "maxsize": self.maxsize,
            "hit_rate": round(self.hit_rate, 4),
        }


class LRUCache:
    """Bounded mapping with least-recently-used eviction.

    ``maxsize=0`` is a true off switch: every ``get`` misses, ``put``
    stores nothing and ``get_or_compute`` runs its factory on every call
    (no single-flight either), but the stats counters still tick, so a
    disabled cache remains observable.  The differential fuzz harness
    relies on this to run cache-on vs. cache-off engines through
    identical code paths.
    """

    def __init__(self, maxsize: int = 1024, name: str = "cache") -> None:
        if maxsize < 0:
            raise ServingError("cache maxsize must be >= 0")
        self.maxsize = maxsize
        self.name = name
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._flights: dict[Hashable, Future] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(
        self, key: Hashable, default: Any = None, *, count_miss: bool = True
    ) -> Any:
        """Cached value for ``key`` (``default`` when absent).

        ``count_miss=False`` leaves a miss untallied, for a first-level
        probe whose miss is followed by a counted second lookup: the
        request then records one hit or miss, not two.
        """
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                if count_miss:
                    self._misses += 1
                return default
            self._data.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        if self.maxsize == 0:
            return
        with self._lock:
            self._store(key, value)

    def _store(self, key: Hashable, value: Any) -> None:
        """Insert under the held lock, evicting the oldest on overflow."""
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self._evictions += 1

    def get_or_compute(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """Cached value for ``key``, computing (and storing) it on a miss.

        Single-flight: the first caller to miss ``key`` runs ``factory``
        and is the one miss tallied; callers arriving while it runs wait
        for its value and count as hits, so misses equal computations.
        A raising factory's exception reaches every waiter and nothing is
        cached.  ``maxsize=0`` computes on every call.
        """
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is not _MISSING:
                self._data.move_to_end(key)
                self._hits += 1
                return value
            flight = self._flights.get(key)
            if flight is None:
                self._misses += 1
                if self.maxsize:
                    leader = self._flights[key] = Future()
            else:
                self._hits += 1
        if flight is not None:
            return flight.result()
        if not self.maxsize:
            return factory()
        try:
            value = factory()
        except BaseException as exc:
            with self._lock:
                del self._flights[key]
            leader.set_exception(exc)
            raise
        with self._lock:
            del self._flights[key]
            self._store(key, value)
        leader.set_result(value)
        return value

    def clear(self) -> None:
        """Drop all entries (statistics counters are kept)."""
        with self._lock:
            self._data.clear()

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                name=self.name,
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._data),
                maxsize=self.maxsize,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"LRUCache({self.name!r}, {stats.size}/{stats.maxsize}, "
            f"{stats.hits} hits, {stats.misses} misses)"
        )


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
