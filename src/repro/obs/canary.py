"""Shadow canary: judge a candidate engine on real traffic before a swap.

A hot-reload (PR 5) builds the replacement engine fully off the request
path, then swaps one reference.  Nothing, however, checks *what the
replacement would answer*: a truncated query log, a corrupt artifact or
a bad obscurity setting produces an engine that builds fine and serves
garbage.  The canary closes that gap: before the RCU swap,
:func:`run_canary` replays the last N journaled requests of the tenant
(via :func:`~repro.obs.journal.replay_journal`) against **both** the
live and the candidate engine — off the request path, with no journal,
learning or control-plane side effects — and diffs the top-1 SQL plus
the top-score distributions.  A divergence above the configured
threshold blocks the swap (``force=true`` on ``POST /admin/reload``
overrides), and the verdict lands in the journal as a ``canary`` record
either way.

Replayed requests are reconstructed from journal records: the raw NLQ
when recorded, otherwise the keyword texts (parser metadata is not
journaled, so both engines see the same reconstruction and the noise
cancels out of the diff).  An empty journal yields an empty replay set
and a passing canary — no history means nothing to defend.
"""

from __future__ import annotations

from collections import deque

from repro.obs.drift import SCORE_BOUNDS, distribution_shift
from repro.obs.histogram import Histogram
from repro.obs.journal import replay_journal


def tail_requests(directory, tenant: str | None, limit: int) -> list[dict]:
    """The last ``limit`` replayable request records for one tenant.

    Records must carry an NLQ or keyword texts to be replayable; error
    records are skipped (they never produced a baseline answer).
    """
    if limit <= 0:
        return []
    tail: deque = deque(maxlen=limit)
    for record in replay_journal(directory):
        if record.get("kind") != "request":
            continue
        if tenant is not None and record.get("tenant") != tenant:
            continue
        if record.get("nlq") or record.get("keywords"):
            tail.append(record)
    return list(tail)


class CanaryReport:
    """The verdict of one shadow replay."""

    def __init__(
        self,
        *,
        tenant: str,
        old_version: str | None,
        new_version: str | None,
        replayed: int,
        mismatches: int,
        divergence: float,
        score_shift: float,
        threshold: float,
        forced: bool = False,
    ) -> None:
        self.tenant = tenant
        self.old_version = old_version
        self.new_version = new_version
        self.replayed = replayed
        self.mismatches = mismatches
        self.divergence = divergence
        self.score_shift = score_shift
        self.threshold = threshold
        self.forced = forced

    @property
    def passed(self) -> bool:
        return self.divergence <= self.threshold

    @property
    def blocked(self) -> bool:
        """True when the verdict stops the swap (failed and not forced)."""
        return not self.passed and not self.forced

    def as_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "old_version": self.old_version,
            "new_version": self.new_version,
            "replayed": self.replayed,
            "mismatches": self.mismatches,
            "divergence": round(self.divergence, 4),
            "score_shift": round(self.score_shift, 4),
            "threshold": self.threshold,
            "passed": self.passed,
            "forced": self.forced,
            "blocked": self.blocked,
        }

    def describe(self) -> str:
        return (
            f"canary replayed {self.replayed} request(s): "
            f"{self.mismatches} top-1 mismatch(es), divergence "
            f"{self.divergence:.3f} (threshold {self.threshold:.3f}), "
            f"score shift {self.score_shift:.3f}"
        )


def _record_request(record: dict):
    """(nlq, keywords) replay form of one journal request record."""
    nlq = record.get("nlq")
    if nlq:
        return str(nlq), None
    from repro.serving.wire import keyword_from_dict

    texts = [t for t in record.get("keywords") or () if t]
    if not texts:
        return None, None
    return None, tuple(
        keyword_from_dict({"text": str(text)}) for text in texts
    )


def _shadow_translate(engine, nlq, keywords):
    """Top result of one replay on one engine, with zero side effects.

    Goes through the engine's cache lookup (``Engine._lookup``), not the
    request lifecycle, so the replay touches no metrics registry, no
    journal, no control plane, no learning queue and no drift window —
    only the translate caches (which it warms, a feature for a candidate
    about to go live).  Failures read as ``None`` — both engines failing
    on the same request counts as agreement.
    """
    from repro.serving.wire import TranslationRequest

    try:
        request = TranslationRequest(nlq=nlq, keywords=keywords)
        results = engine._lookup(request)[1]
    except Exception:
        return None
    return results[0] if results else None


def run_canary(
    live_engine,
    candidate_engine,
    records,
    *,
    tenant: str,
    threshold: float,
    old_version: str | None = None,
    new_version: str | None = None,
    forced: bool = False,
) -> CanaryReport:
    """Replay ``records`` on both engines and diff the answers.

    Divergence is the fraction of replayed requests whose top-1 SQL
    differs between the live and candidate engines; ``score_shift`` is
    the total-variation distance between the two top-score histograms
    (reported for operators, not gated — a uniform score rescale with
    identical rankings is not a regression).
    """
    live_scores = Histogram(SCORE_BOUNDS)
    candidate_scores = Histogram(SCORE_BOUNDS)
    replayed = mismatches = 0
    for record in records:
        nlq, keywords = _record_request(record)
        if nlq is None and keywords is None:
            continue
        live_top = _shadow_translate(live_engine, nlq, keywords)
        candidate_top = _shadow_translate(candidate_engine, nlq, keywords)
        replayed += 1
        live_sql = live_top.sql if live_top is not None else None
        candidate_sql = (
            candidate_top.sql if candidate_top is not None else None
        )
        if live_sql != candidate_sql:
            mismatches += 1
        if live_top is not None:
            live_scores.record(live_top.config_score)
        if candidate_top is not None:
            candidate_scores.record(candidate_top.config_score)
    divergence = mismatches / replayed if replayed else 0.0
    return CanaryReport(
        tenant=tenant,
        old_version=old_version,
        new_version=new_version,
        replayed=replayed,
        mismatches=mismatches,
        divergence=divergence,
        score_shift=distribution_shift(live_scores, candidate_scores),
        threshold=threshold,
        forced=forced,
    )


__all__ = [
    "CanaryReport",
    "run_canary",
    "tail_requests",
]
