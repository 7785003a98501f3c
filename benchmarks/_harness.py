"""Shared helpers for the benchmark suite.

Every ``bench_*`` module regenerates one table or figure of the paper's
evaluation section.  Results are printed and also written to
``benchmarks/results/<name>.txt``.

Set ``REPRO_BENCH_FAST=1`` to restrict dataset sweeps to MAS only (useful
while iterating); the full run covers all three benchmarks.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.datasets import load_dataset
from repro.eval import EvalConfig, evaluate_system
from repro.eval.reporting import format_rows, percentage

RESULTS_DIR = Path(__file__).parent / "results"

#: The paper's Table III numbers, for side-by-side printing.
PAPER_TABLE3 = {
    ("mas", "NaLIR"): (43.3, 33.0),
    ("mas", "NaLIR+"): (45.4, 40.2),
    ("mas", "Pipeline"): (39.7, 32.0),
    ("mas", "Pipeline+"): (77.8, 76.3),
    ("yelp", "NaLIR"): (52.8, 47.2),
    ("yelp", "NaLIR+"): (59.8, 52.8),
    ("yelp", "Pipeline"): (56.7, 54.3),
    ("yelp", "Pipeline+"): (85.0, 85.0),
    ("imdb", "NaLIR"): (40.6, 38.3),
    ("imdb", "NaLIR+"): (57.8, 50.0),
    ("imdb", "Pipeline"): (32.0, 27.3),
    ("imdb", "Pipeline+"): (67.2, 64.8),
}

#: Table IV (LogJoin ablation), FQ %.
PAPER_TABLE4 = {
    ("mas", "N"): 68.6, ("mas", "Y"): 76.3,
    ("yelp", "N"): 68.5, ("yelp", "Y"): 85.0,
    ("imdb", "N"): 60.9, ("imdb", "Y"): 64.8,
}


def dataset_names() -> list[str]:
    if os.environ.get("REPRO_BENCH_FAST"):
        return ["mas"]
    return ["mas", "yelp", "imdb"]


def accuracy(dataset_name: str, system: str, config: EvalConfig | None = None):
    """(KW%, FQ%) of one system under one evaluation configuration."""
    dataset = load_dataset(dataset_name)
    result = evaluate_system(dataset, system, config or EvalConfig())
    return (
        round(100.0 * result.kw_accuracy, 1),
        round(100.0 * result.fq_accuracy, 1),
    )


def publish(name: str, title: str, table: str) -> None:
    """Print and persist one result table."""
    output = f"{title}\n\n{table}\n"
    print("\n" + output)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(output)


__all__ = [
    "PAPER_TABLE3",
    "PAPER_TABLE4",
    "accuracy",
    "dataset_names",
    "format_rows",
    "percentage",
    "publish",
]
