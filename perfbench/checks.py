"""Output checks shared by the workloads: recorded digests and accuracy."""

from __future__ import annotations

import json
from pathlib import Path

from perfbench.common import DEFAULT_SEED

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def load_digests() -> dict:
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def check_digest(result, digest) -> None:
    """Compare the run's response digest with the recorded one.

    Only the default seed has a recorded digest; other seeds print theirs
    so two commits can be compared by hand.
    """
    value = digest.hexdigest()
    result.digest = {"requests": digest.count, "sha256": value}
    result.info.append(("response_digest", value, "sha256"))
    result.info.append(("response_digest_requests", digest.count, "count"))
    if result.seed != DEFAULT_SEED:
        return
    recorded = load_digests().get(result.workload)
    if recorded is None:
        result.fail(f"no digest recorded for {result.workload} in {DIGESTS.name}")
    elif recorded["requests"] != digest.count or recorded["sha256"] != value:
        result.fail(
            f"response digest {value} over {digest.count} requests != "
            f"recorded {recorded['sha256']} over {recorded['requests']}"
        )


def record_digest(result) -> None:
    """Store the run's digest as the workload's recorded one."""
    digests = load_digests()
    digests[result.workload] = {"seed": result.seed, **result.digest}
    DIGESTS.write_text(
        json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


class Accuracy:
    """top-1 accuracy over distinct gold items.

    Each item scores the share of its unmutated requests whose top-1
    passed ``fq_correct``; the metric is the mean over items, so which
    items a seed makes hot does not move it.
    """

    def __init__(self) -> None:
        self._items: dict = {}

    def add(self, key, correct: bool) -> None:
        hits, total = self._items.get(key, (0, 0))
        self._items[key] = (hits + int(correct), total + 1)

    @property
    def items(self) -> int:
        return len(self._items)

    def value(self) -> float:
        if not self._items:
            return 0.0
        return sum(h / t for h, t in self._items.values()) / len(self._items)
