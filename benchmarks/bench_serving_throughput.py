"""Serving-layer throughput and startup benchmarks.

Not part of the paper's evaluation; this regenerates the two acceptance
numbers of the serving subsystem:

* **startup** — loading compiled artifacts (deserialize + checksum
  verify) versus rebuilding the QFG from the raw query log, and
* **throughput** — warm-cache serving versus the cold single-query
  baseline, on the same workload.

Run with ``PYTHONPATH=src python benchmarks/bench_serving_throughput.py``.
Exits non-zero if either ratio falls below its target (load ≥ 10×,
warm pass ≥ 5×).  CI runs it as an advisory (non-blocking) step:
wall-clock ratios on shared runners jitter too much to gate merges, so
the authoritative check is running this locally on quiet hardware.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _harness import format_rows, publish  # noqa: E402
from snapshot import emit_snapshot  # noqa: E402

from repro.core import QueryLog, Templar  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.embedding import CompositeModel  # noqa: E402
from repro.nlidb import PipelineNLIDB  # noqa: E402
from repro.serving import ArtifactStore, TranslationService  # noqa: E402

LOAD_TARGET = 10.0    # artifact load must beat the from-log rebuild by this
THROUGHPUT_TARGET = 5.0  # warm pass must beat cold single-query by this
REPEATS = 3


def _best(fn, repeats: int = REPEATS) -> float:
    """Best-of-N wall time of ``fn`` (seconds)."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return min(times)


def bench_startup(dataset, log: QueryLog, store_root: Path):
    """(rebuild seconds, load seconds, ratio) for one dataset."""
    catalog = dataset.database.catalog
    rebuild_seconds = _best(lambda: log.build_qfg(catalog))

    store = ArtifactStore(store_root)
    store.compile(dataset, log)
    load_seconds = _best(lambda: store.load(dataset.name))
    return rebuild_seconds, load_seconds, rebuild_seconds / load_seconds


def bench_throughput(dataset, log: QueryLog):
    """(cold qps, warm qps, ratio) over the dataset's full workload."""
    database = dataset.database
    model = CompositeModel(dataset.lexicon)
    requests = [item.keywords for item in dataset.usable_items()]

    # Cold baseline: a fresh system translating one query at a time, the
    # way the evaluation harness does.
    cold_nlidb = PipelineNLIDB(database, model, Templar(database, model, log))
    started = time.perf_counter()
    for keywords in requests:
        cold_nlidb.translate(keywords)
    cold_seconds = time.perf_counter() - started
    cold_qps = len(requests) / cold_seconds

    # Warm path: the serving layer after one priming pass over the same
    # workload (caches populated).
    warm_nlidb = PipelineNLIDB(database, model, Templar(database, model, log))
    with TranslationService(warm_nlidb, cache_size=4096) as service:
        for keywords in requests:
            service.translate(keywords)
        started = time.perf_counter()
        for keywords in requests:
            service.translate(keywords)
        warm_seconds = time.perf_counter() - started
    warm_qps = len(requests) / warm_seconds
    return cold_qps, warm_qps, warm_qps / cold_qps


def main() -> int:
    dataset = load_dataset("mas")
    log = QueryLog([item.gold_sql for item in dataset.usable_items()])

    with tempfile.TemporaryDirectory() as tmp:
        rebuild_s, load_s, load_ratio = bench_startup(dataset, log, Path(tmp))
    cold_qps, warm_qps, qps_ratio = bench_throughput(dataset, log)

    rows = [
        ["startup: QFG rebuild from log", f"{rebuild_s * 1000:.2f} ms", ""],
        ["startup: artifact load (verified)", f"{load_s * 1000:.2f} ms",
         f"{load_ratio:.1f}x faster"],
        ["serving: cold single-query", f"{cold_qps:.1f} q/s", ""],
        ["serving: warm-cache pass", f"{warm_qps:.1f} q/s",
         f"{qps_ratio:.1f}x faster"],
    ]
    table = format_rows(["operation", "measured", "speedup"], rows)
    publish(
        "serving_throughput",
        f"Serving subsystem: MAS workload ({len(log)} queries)",
        table,
    )

    snapshot = emit_snapshot(
        "serving_throughput",
        {
            "rebuild_ms": round(rebuild_s * 1000, 3),
            "load_ms": round(load_s * 1000, 3),
            "load_ratio": round(load_ratio, 2),
            "cold_qps": round(cold_qps, 1),
            "warm_qps": round(warm_qps, 1),
            "throughput_ratio": round(qps_ratio, 2),
        },
        config={"workload": "mas", "queries": len(log), "repeats": REPEATS},
    )
    print(f"snapshot: {snapshot}")

    failures = []
    if load_ratio < LOAD_TARGET:
        failures.append(
            f"artifact load only {load_ratio:.1f}x faster than rebuild "
            f"(target {LOAD_TARGET:.0f}x)"
        )
    if qps_ratio < THROUGHPUT_TARGET:
        failures.append(
            f"warm pass only {qps_ratio:.1f}x cold baseline "
            f"(target {THROUGHPUT_TARGET:.0f}x)"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(
            f"PASS: load {load_ratio:.1f}x (>= {LOAD_TARGET:.0f}x), "
            f"warm pass {qps_ratio:.1f}x (>= {THROUGHPUT_TARGET:.0f}x)"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
