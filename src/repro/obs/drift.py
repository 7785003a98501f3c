"""Quality-drift monitor: reference distributions over ranking behaviour.

The paper's learning loop means serving *quality* moves even when the
code doesn't: every absorbed observation, feedback correction and
hot-reloaded artifact can shift which SQL wins the ranking.  Latency
telemetry cannot see that.  This module watches four cheap proxies of
ranking behaviour per tenant:

* the **top-score histogram** (``config_score`` of the winning result),
* the **score margin** between rank 1 and rank 2 (a collapsing margin
  means the ranking is becoming a coin flip),
* the **truncation rate** (``configurations_truncated`` provenance —
  the enumeration guard firing more often than it used to),
* **fragment-key entropy** of the winning configuration (answers
  collapsing onto few fragments, or scattering).

Per-request accounting is a couple of histogram bisects behind one lock
(inside the warm wire path's per-request overhead budget, measured in
``bench_perf_core.py``).  Judgment happens at **tick** time — after a
learning absorb or an artifact reload — when the accumulated window is
compared against the reference distribution using the exact-merge
histogram algebra from PR 6: the reference is the exact element-wise
sum of every previous window, so it composes associatively no matter
how ticks are batched.

>>> from repro.obs.histogram import Histogram
>>> a, b = Histogram((0.5,)), Histogram((0.5,))
>>> for s in (0.1, 0.2, 0.3): a.record(s)
>>> for s in (0.7, 0.8, 0.9): b.record(s)
>>> distribution_shift(a, b)   # disjoint mass: maximal shift
1.0
>>> distribution_shift(a, a)
0.0
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

from repro.obs.histogram import Histogram

#: Linear score buckets, 0.0–2.0 in 0.05 steps (Templar scores are
#: convex combinations of similarities; the tail slot catches the rest).
SCORE_BOUNDS = tuple(round(i * 0.05, 2) for i in range(1, 41))

#: Distinct fragment keys tracked per window before folding the tail
#: into one overflow bucket (bounds memory under adversarial traffic).
MAX_TRACKED_KEYS = 512

#: Winning-result fragment digests memoized by result identity, so warm
#: cache hits (the same TranslationResult object served repeatedly)
#: never recompute the frozenset.  Cleared wholesale when full.
_KEY_CACHE_MAX = 4096


def distribution_shift(reference: Histogram, current: Histogram) -> float:
    """Total-variation distance between two histograms' bucket masses.

    0.0 = identical shape, 1.0 = disjoint mass.  Exact over the bucket
    resolution; either side being empty reads as "nothing to compare"
    (0.0), never as a shift.
    """
    if reference.bounds != current.bounds:
        raise ValueError("cannot compare histograms with different bounds")
    ref_total = sum(reference.counts)
    cur_total = sum(current.counts)
    if not ref_total or not cur_total:
        return 0.0
    return 0.5 * sum(
        abs(r / ref_total - c / cur_total)
        for r, c in zip(reference.counts, current.counts)
    )


def normalized_entropy(counts: dict) -> float:
    """Shannon entropy of a key-count distribution, scaled to [0, 1].

    >>> normalized_entropy({"a": 1, "b": 1})
    1.0
    >>> normalized_entropy({"a": 10})
    0.0
    >>> normalized_entropy({})
    0.0
    """
    total = sum(counts.values())
    if total <= 0 or len(counts) < 2:
        return 0.0
    entropy = 0.0
    for value in counts.values():
        if value > 0:
            p = value / total
            entropy -= p * math.log2(p)
    return entropy / math.log2(len(counts))


@dataclass
class _Window:
    """One accumulation window of ranking observations."""

    scores: Histogram = field(default_factory=lambda: Histogram(SCORE_BOUNDS))
    margins: Histogram = field(default_factory=lambda: Histogram(SCORE_BOUNDS))
    requests: int = 0
    truncated: int = 0
    keys: dict = field(default_factory=dict)

    def absorb(self, other: "_Window") -> None:
        """Exact element-wise merge of another window into this one."""
        self.scores = self.scores.merge(other.scores)
        self.margins = self.margins.merge(other.margins)
        self.requests += other.requests
        self.truncated += other.truncated
        for key, count in other.keys.items():
            self.keys[key] = self.keys.get(key, 0) + count

    @property
    def truncation_rate(self) -> float:
        return self.truncated / self.requests if self.requests else 0.0


@dataclass(frozen=True)
class DriftReport:
    """One tick's judgment: the current window against the reference."""

    reason: str
    samples: int
    reference_samples: int
    score_shift: float
    margin_shift: float
    truncation_delta: float
    entropy_delta: float
    flagged: bool

    @property
    def drift_score(self) -> float:
        """The worst component — what the gauge and the flag key on."""
        return max(
            self.score_shift, self.margin_shift,
            self.truncation_delta, self.entropy_delta,
        )

    def as_dict(self) -> dict:
        return {
            "reason": self.reason,
            "samples": self.samples,
            "reference_samples": self.reference_samples,
            "score_shift": round(self.score_shift, 4),
            "margin_shift": round(self.margin_shift, 4),
            "truncation_delta": round(self.truncation_delta, 4),
            "entropy_delta": round(self.entropy_delta, 4),
            "drift_score": round(self.drift_score, 4),
            "flagged": self.flagged,
        }


class DriftMonitor:
    """Per-tenant reference distributions with shift detection.

    ``observe`` is the hot-path half (cheap, lock-guarded accumulation
    into the current window); ``tick`` is the judgment half, called
    after learning absorbs and artifact reloads.  The first
    ``min_samples``-strong window becomes the reference; every later
    tick compares, then merges the window into the reference (exact
    histogram algebra), so the reference is the lifetime distribution
    and a drifting engine is compared against everything it used to be.
    """

    def __init__(
        self,
        threshold: float,
        *,
        min_samples: int = 50,
        obscurity=None,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError(
                f"drift threshold must be in (0, 1], got {threshold}"
            )
        self.threshold = float(threshold)
        self.min_samples = int(min_samples)
        self._obscurity = obscurity
        self._lock = threading.Lock()
        self._window = _Window()
        self._reference: _Window | None = None
        self._key_cache: dict[int, str] = {}
        self.ticks = 0
        self.flags = 0
        self._last_report: DriftReport | None = None

    # ----------------------------------------------------------- hot path

    def observe(self, results, truncated: int = 0) -> None:
        """Account one served ranking (the request path's whole bill)."""
        if not results:
            return
        top = results[0]
        score = top.config_score
        margin = (
            score - results[1].config_score if len(results) > 1 else score
        )
        key = self._fragment_digest(top)
        with self._lock:
            window = self._window
            window.scores.record(score)
            window.margins.record(margin)
            window.requests += 1
            if truncated:
                window.truncated += 1
            keys = window.keys
            if key in keys or len(keys) < MAX_TRACKED_KEYS:
                keys[key] = keys.get(key, 0) + 1
            else:
                keys["__other__"] = keys.get("__other__", 0) + 1

    def _fragment_digest(self, top) -> str:
        """A stable identity for the winning configuration's fragments.

        Memoized by result object identity: the translate LRU serves the
        same ``TranslationResult`` instances on warm hits, so repeats
        cost one dict probe instead of a frozenset build.
        """
        cached = self._key_cache.get(id(top))
        if cached is not None:
            return cached
        configuration = getattr(top, "configuration", None)
        key_set = getattr(configuration, "fragment_key_set", None)
        if key_set is None or self._obscurity is None:
            digest = getattr(top, "sql", "") or ""
        else:
            digest = "|".join(sorted(key_set(self._obscurity)))
        if len(self._key_cache) >= _KEY_CACHE_MAX:
            self._key_cache.clear()
        self._key_cache[id(top)] = digest
        return digest

    # ----------------------------------------------------------- judgment

    def tick(self, reason: str) -> DriftReport | None:
        """Close the current window and judge it against the reference.

        Returns None when the window is empty (nothing was served since
        the last tick).  A window below ``min_samples`` is merged into
        the reference without judgment — tiny samples would flag noise.
        """
        with self._lock:
            window, self._window = self._window, _Window()
            if window.requests == 0:
                return None
            self.ticks += 1
            reference = self._reference
            if reference is None:
                self._reference = window
                report = DriftReport(
                    reason=reason, samples=window.requests,
                    reference_samples=0, score_shift=0.0, margin_shift=0.0,
                    truncation_delta=0.0, entropy_delta=0.0, flagged=False,
                )
                self._last_report = report
                return report
            score_shift = distribution_shift(reference.scores, window.scores)
            margin_shift = distribution_shift(
                reference.margins, window.margins
            )
            truncation_delta = abs(
                reference.truncation_rate - window.truncation_rate
            )
            entropy_delta = abs(
                normalized_entropy(reference.keys)
                - normalized_entropy(window.keys)
            )
            flagged = (
                window.requests >= self.min_samples
                and max(score_shift, margin_shift, truncation_delta,
                        entropy_delta) > self.threshold
            )
            report = DriftReport(
                reason=reason,
                samples=window.requests,
                reference_samples=reference.requests,
                score_shift=score_shift,
                margin_shift=margin_shift,
                truncation_delta=truncation_delta,
                entropy_delta=entropy_delta,
                flagged=flagged,
            )
            if flagged:
                self.flags += 1
            reference.absorb(window)
            self._last_report = report
            return report

    # ---------------------------------------------------------- surfaces

    @property
    def last_report(self) -> DriftReport | None:
        return self._last_report

    def reference_snapshot(self) -> _Window | None:
        """The reference distribution (for carry-over across reloads)."""
        with self._lock:
            return self._reference

    def adopt_reference(self, reference) -> None:
        """Seed the reference from a prior generation's monitor.

        The gateway's hot-swap path carries the retiring engine's
        reference into its replacement, so the first post-reload tick
        judges the *new* artifact against the *old* one's behaviour —
        exactly the shift a reload can introduce.
        """
        if reference is None:
            return
        with self._lock:
            if self._reference is None:
                self._reference = reference

    def publish(self, registry) -> None:
        """Sync counters and the drift gauge into a metrics registry."""
        registry.set_counter("drift_ticks", self.ticks)
        registry.set_counter("drift_flags", self.flags)
        report = self._last_report
        # 0.0 before the first tick so the gauge exists from the first
        # scrape (dashboards never see a hole while the window fills).
        registry.set_gauge(
            "drift_score", report.drift_score if report is not None else 0.0
        )

    def stats(self) -> dict:
        with self._lock:
            reference = self._reference
            window = self._window
            return {
                "threshold": self.threshold,
                "min_samples": self.min_samples,
                "ticks": self.ticks,
                "flags": self.flags,
                "window_samples": window.requests,
                "reference_samples": (
                    reference.requests if reference is not None else 0
                ),
                "last": (
                    self._last_report.as_dict()
                    if self._last_report is not None else None
                ),
            }


__all__ = [
    "MAX_TRACKED_KEYS",
    "SCORE_BOUNDS",
    "DriftMonitor",
    "DriftReport",
    "distribution_shift",
    "normalized_entropy",
]
