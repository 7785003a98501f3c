"""Serving telemetry: latency percentiles, counters, histograms, QPS.

A :class:`MetricsRegistry` keeps three views of one engine's traffic:

* named monotonic **counters**, optionally labelled (e.g.
  ``translate_errors{type="ParseError"}``),
* per-series **ring buffers** of the most recent observations, which
  give exact windowed percentiles and arrival timestamps for QPS,
* per-series fixed-bucket **histograms**
  (:class:`~repro.obs.histogram.Histogram`), cumulative over the
  process lifetime and exactly mergeable across registries — the view
  the Prometheus exposition serves and the one multi-process workers
  will aggregate.

The HTTP endpoints and the CLI render :meth:`MetricsRegistry.snapshot`;
scrapers get :meth:`MetricsRegistry.collect` via
:func:`repro.obs.prometheus.render_exposition`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.obs.histogram import Histogram

#: Observations retained per latency series; old samples age out so the
#: percentiles track recent behaviour rather than all-time history.
DEFAULT_WINDOW = 4096


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation."""
    if not values:
        return 0.0
    return _interpolate(sorted(values), q)


def _interpolate(ordered: list[float], q: float) -> float:
    """Percentile of an already-sorted non-empty sample."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} out of [0, 100]")
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


@dataclass(frozen=True)
class LatencySummary:
    """Aggregates of one latency series, in milliseconds."""

    name: str
    count: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "count": self.count,
            "mean_ms": round(self.mean_ms, 3),
            "p50_ms": round(self.p50_ms, 3),
            "p95_ms": round(self.p95_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "max_ms": round(self.max_ms, 3),
        }


def _labels_key(labels: dict | None) -> tuple:
    """Canonical hashable form of a label set (sorted item tuple)."""
    if not labels:
        return ()
    return tuple(sorted(labels.items()))


def _render_name(name: str, key: tuple) -> str:
    """Display name for a series: ``name`` or ``name{k="v",...}``."""
    if not key:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return f"{name}{{{inner}}}"


def _summarize(name: str, samples: list[float]) -> LatencySummary:
    millis = sorted(s * 1000.0 for s in samples)
    return LatencySummary(
        name=name,
        count=len(millis),
        mean_ms=sum(millis) / len(millis) if millis else 0.0,
        p50_ms=_interpolate(millis, 50.0) if millis else 0.0,
        p95_ms=_interpolate(millis, 95.0) if millis else 0.0,
        p99_ms=_interpolate(millis, 99.0) if millis else 0.0,
        max_ms=millis[-1] if millis else 0.0,
    )


class MetricsRegistry:
    """Thread-safe counters and latency series for one engine.

    Memory is bounded by construction: every latency series is a ring
    buffer of at most ``window`` samples plus one fixed-size histogram,
    so a long-lived process (the gateway runs indefinitely) holds a
    fixed amount of telemetry no matter how much traffic it serves.
    The cap is surfaced as ``latency_window`` in :meth:`snapshot` so
    operators can see what span the percentiles describe.
    """

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        if window < 1:
            raise ValueError(f"telemetry window must be >= 1, got {window}")
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, tuple], int] = {}
        self._gauges: dict[tuple[str, tuple], float] = {}
        #: series key -> deque of (monotonic arrival time, duration seconds)
        self._series: dict[tuple[str, tuple], deque[tuple[float, float]]] = {}
        self._hists: dict[tuple[str, tuple], Histogram] = {}
        self._window = window
        self._started = time.monotonic()

    @property
    def window(self) -> int:
        """Samples retained per latency series (the memory bound)."""
        return self._window

    # ------------------------------------------------------------ recording

    def increment(
        self, name: str, amount: int = 1, *, labels: dict | None = None
    ) -> None:
        key = (name, _labels_key(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + amount

    def set_counter(
        self, name: str, value: int, *, labels: dict | None = None
    ) -> None:
        """Publish an externally-maintained monotonic count as a counter.

        Writers that shed on their own hot paths (the journal, the
        control plane) count on plain attributes; syncing them here
        before a scrape or ``stats()`` keeps one exposition surface.
        """
        key = (name, _labels_key(labels))
        with self._lock:
            self._counters[key] = int(value)

    def set_gauge(
        self, name: str, value: float, *, labels: dict | None = None
    ) -> None:
        """Publish a point-in-time value (level, not count).

        Gauges carry values that move both ways — SLO burn rates, drift
        scores, queue depths — which counters cannot represent without
        lying to rate() queries.
        """
        key = (name, _labels_key(labels))
        with self._lock:
            self._gauges[key] = float(value)

    def record_latency(
        self, name: str, seconds: float, *, labels: dict | None = None
    ) -> None:
        key = (name, _labels_key(labels))
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = deque(maxlen=self._window)
                self._series[key] = series
                self._hists[key] = Histogram()
            series.append((time.monotonic(), seconds))
            self._hists[key].record(seconds)

    def time(self, name: str) -> "_Timer":
        """Context manager recording the block's wall time under ``name``."""
        return _Timer(self, name)

    # ------------------------------------------------------------- reading

    def counter(self, name: str, *, labels: dict | None = None) -> int:
        with self._lock:
            return self._counters.get((name, _labels_key(labels)), 0)

    def gauge(self, name: str, *, labels: dict | None = None) -> float:
        with self._lock:
            return self._gauges.get((name, _labels_key(labels)), 0.0)

    def window_latencies(
        self,
        name: str,
        window_seconds: float,
        *,
        labels: dict | None = None,
        now: float | None = None,
    ) -> list[float]:
        """Durations (seconds) recorded within the trailing window.

        The SLO evaluator counts threshold breaches over this view —
        exact per-sample comparison over the retained ring, not a bucket
        approximation.  Samples older than ``now - window_seconds`` are
        excluded; an aged-out ring yields an empty list.
        """
        if now is None:
            now = time.monotonic()
        cutoff = now - window_seconds
        key = (name, _labels_key(labels))
        with self._lock:
            series = self._series.get(key)
            if not series:
                return []
            return [
                duration
                for arrived, duration in series
                if arrived > cutoff
            ]

    def latency_summary(
        self, name: str, *, labels: dict | None = None
    ) -> LatencySummary:
        key = (name, _labels_key(labels))
        with self._lock:
            samples = [duration for _, duration in self._series.get(key, ())]
        return _summarize(name, samples)

    def histogram(
        self, name: str, *, labels: dict | None = None
    ) -> Histogram | None:
        """A point-in-time copy of one series' cumulative histogram."""
        key = (name, _labels_key(labels))
        with self._lock:
            hist = self._hists.get(key)
            return Histogram.from_dict(hist.to_dict()) if hist else None

    def qps(self, name: str, window_seconds: float = 60.0) -> float:
        """Requests per second over the trailing window (retained samples)."""
        now = time.monotonic()
        key = (name, ())
        with self._lock:
            series = self._series.get(key)
            if not series:
                return 0.0
            ring_full = len(series) == series.maxlen
            samples = list(series)
        return self._qps_of(samples, ring_full, now, window_seconds)

    def _qps_of(
        self,
        samples: list[tuple[float, float]],
        ring_full: bool,
        now: float,
        window_seconds: float,
    ) -> float:
        cutoff = now - window_seconds
        recent = sum(1 for arrived, _ in samples if arrived >= cutoff)
        if recent == 0:
            return 0.0
        oldest = samples[0][0]
        if ring_full and oldest > cutoff:
            # The ring evicted samples that were still inside the window;
            # rate over the span actually retained, or high traffic would
            # be underreported against the full window.
            elapsed = max(now - oldest, 1e-9)
        else:
            # Capped by process age so a fresh service does not report an
            # artificially low rate.
            elapsed = min(window_seconds, max(now - self._started, 1e-9))
        return recent / elapsed

    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started

    def collect(self) -> dict:
        """Raw series for exposition: one consistent pass under the lock.

        Histograms are copied so the renderer never races recording.
        """
        with self._lock:
            counters = [
                (name, dict(key), value)
                for (name, key), value in sorted(self._counters.items())
            ]
            gauges = [
                (name, dict(key), value)
                for (name, key), value in sorted(self._gauges.items())
            ]
            histograms = [
                (name, dict(key), Histogram.from_dict(hist.to_dict()))
                for (name, key), hist in sorted(self._hists.items())
            ]
        return {
            "uptime_seconds": self.uptime_seconds(),
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def snapshot(self) -> dict:
        """JSON-ready view of every counter and latency series.

        All state is copied under a single lock acquisition, so the
        counters, latencies and rates in one payload describe one
        consistent moment — they cannot be torn across concurrent
        recording the way per-series re-locking would allow.
        """
        now = time.monotonic()
        with self._lock:
            counters = {
                _render_name(name, key): value
                for (name, key), value in sorted(self._counters.items())
            }
            gauges = {
                _render_name(name, key): round(value, 6)
                for (name, key), value in sorted(self._gauges.items())
            }
            series_copy = {
                (name, key): (
                    [duration for _, duration in series],
                    list(series),
                    len(series) == series.maxlen,
                )
                for (name, key), series in self._series.items()
            }
            hist_copy = {
                _render_name(name, key): hist.to_dict()
                for (name, key), hist in sorted(self._hists.items())
            }
            uptime = now - self._started
        latencies = {}
        qps = {}
        for (name, key) in sorted(series_copy):
            durations, samples, ring_full = series_copy[(name, key)]
            rendered = _render_name(name, key)
            latencies[rendered] = _summarize(rendered, durations).as_dict()
            if not key:
                qps[rendered] = round(
                    self._qps_of(samples, ring_full, now, 60.0), 3
                )
        return {
            "uptime_seconds": round(uptime, 3),
            "latency_window": self._window,
            "counters": counters,
            "gauges": gauges,
            "latencies": latencies,
            "histograms": hist_copy,
            "qps": qps,
        }


class _Timer:
    def __init__(self, registry: MetricsRegistry, name: str) -> None:
        self._registry = registry
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._registry.record_latency(
            self._name, time.perf_counter() - self._start
        )
