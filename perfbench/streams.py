"""Seeded request streams built from the fuzzer's case generator.

Every workload draws its requests from :func:`repro.fuzz.case_stream`:
Zipf-skewed gold items carrying the fuzzer's mutations.  Two choices
keep the figures steady from one seed to the next:

* **Cycles over item groups.**  Every cycle, each dataset's items are
  shuffled and split into ``groups`` groups.  Pass ``k`` draws its cases
  from group ``k mod groups`` (a fresh ``case_stream`` with its own
  sub-seed), so one cycle of passes visits every item of every dataset.  Without
  this, which items a seed happens to make hot decides most of a run's
  cost.
* **Semantics-preserving mutations only.**  Cases whose plan holds an
  adversarial mutation are skipped (``FuzzCase.is_preserving``).  An
  adversarial typo can make a wide-schema request map ten new relation
  bags, each a 100–400 ms Steiner solve, and how many of those land in a
  run is too random for a 25% bound.

The program only ever sees the generated requests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.datasets import load_dataset
from repro.fuzz import build_pool, case_stream, synonym_map
from repro.fuzz.generator import FuzzCase


@dataclass(frozen=True)
class Catalogue:
    """The datasets a workload draws from, with lookup helpers."""

    datasets: dict
    synonyms: dict
    items: dict  # (dataset, item_id) -> BenchmarkItem

    @classmethod
    def load(cls, names) -> "Catalogue":
        datasets = {name: load_dataset(name) for name in names}
        return cls(
            datasets=datasets,
            synonyms={
                name: synonym_map(dataset.lexicon)
                for name, dataset in datasets.items()
            },
            items={
                (name, item.item_id): item
                for name, dataset in datasets.items()
                for item in dataset.usable_items()
            },
        )

    def keywords(self, case: FuzzCase) -> tuple:
        return tuple(case.mutated_keywords(self.synonyms[case.workload]))

    def gold(self, case: FuzzCase):
        """The benchmark item of an unmutated case, else None."""
        if case.mutations:
            return None
        return self.items[(case.workload, case.item_id)]


def passes(seed: int, items: dict, *, groups: int, pass_size: int):
    """Yield the passes of a run forever: lists of preserving cases.

    ``items`` maps dataset name to the items that may be requested.
    Pass ``k`` covers group ``k mod groups`` of every dataset; the cases
    are ``case_stream(sub_seed, pass_size, pools)`` minus the ones with
    an adversarial mutation.
    """
    rng = random.Random(seed)
    index = 0
    while True:
        if index % groups == 0:
            # A fresh partition every cycle, so no one grouping of items
            # decides a run's cost.
            partitions = {}
            for name in sorted(items):
                shuffled = list(items[name])
                rng.shuffle(shuffled)
                partitions[name] = [shuffled[g::groups] for g in range(groups)]
        sub_seed = rng.getrandbits(32)
        pool_rng = random.Random(sub_seed)
        pools = {
            name: build_pool(pool_rng, name, parts[index % groups])
            for name, parts in partitions.items()
            if parts[index % groups]
        }
        yield [
            case for case in case_stream(sub_seed, pass_size, pools)
            if case.is_preserving()
        ]
        index += 1

