"""API-overhead benchmark: the Engine facade versus direct Templar calls.

The unified ``repro.api.Engine`` wraps every translation in request
normalization, the engine's translate cache, stage timing and response
assembly.  That convenience must stay (close to) free: this
bench translates the same workload through a bare ``PipelineNLIDB`` and
through an Engine whose caches are cleared before every request (so each
call exercises the full uncached path, like the direct baseline), and
gates the facade's per-request overhead at < 5 %.

Run with ``PYTHONPATH=src python benchmarks/bench_api_overhead.py``.
``--smoke`` shrinks the workload for CI, where the step is advisory
(shared-runner wall clocks jitter); the authoritative check is a local
run on quiet hardware.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _harness import format_rows, publish  # noqa: E402

from repro.api import Engine, EngineConfig  # noqa: E402
from repro.core import QueryLog, Templar  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.embedding import CompositeModel  # noqa: E402
from repro.nlidb import PipelineNLIDB  # noqa: E402

#: Maximum tolerated facade overhead on the uncached translate path.
OVERHEAD_LIMIT = 0.05

PASSES = 5


def bench_overhead(dataset_name: str, smoke: bool) -> tuple[float, float, float]:
    """(direct seconds, engine seconds, overhead fraction) on one dataset."""
    dataset = load_dataset(dataset_name)
    requests = [item.keywords for item in dataset.usable_items()]
    if smoke:
        requests = requests[:12]

    database = dataset.database
    model = CompositeModel(dataset.lexicon)
    log = QueryLog([item.gold_sql for item in dataset.usable_items()])
    direct = PipelineNLIDB(database, model, Templar(database, model, log))

    engine = Engine.from_config(EngineConfig(dataset=dataset_name))

    def run_direct() -> float:
        started = time.perf_counter()
        for keywords in requests:
            direct.translate(keywords)
        return time.perf_counter() - started

    def run_engine() -> float:
        # Clearing the caches before each request forces the full
        # translation path, making the comparison facade-vs-bare rather
        # than warm-cache-vs-cold.
        elapsed = 0.0
        for keywords in requests:
            engine.clear_caches()
            started = time.perf_counter()
            engine.translate(keywords)
            elapsed += time.perf_counter() - started
        return elapsed

    # Interleave passes so drift (thermal, page cache) hits both sides
    # evenly; score the best pass of each.
    direct_times, engine_times = [], []
    for _ in range(PASSES):
        direct_times.append(run_direct())
        engine_times.append(run_engine())
    engine.close()

    direct_best = min(direct_times)
    engine_best = min(engine_times)
    overhead = (engine_best - direct_best) / direct_best
    return direct_best, engine_best, overhead


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    datasets = ["mas"] if smoke else ["mas", "yelp", "imdb"]

    rows = []
    worst = float("-inf")
    for name in datasets:
        direct_s, engine_s, overhead = bench_overhead(name, smoke)
        worst = max(worst, overhead)
        rows.append([
            name.upper(),
            f"{direct_s * 1000:.1f}",
            f"{engine_s * 1000:.1f}",
            f"{overhead * 100:+.2f}%",
        ])

    table = format_rows(
        ["Dataset", "direct (ms)", "engine (ms)", "overhead"], rows
    )
    publish(
        "api_overhead",
        f"Engine facade overhead vs direct Templar/NLIDB calls "
        f"(uncached path, best of {PASSES}; limit {OVERHEAD_LIMIT:.0%})",
        table,
    )

    if worst > OVERHEAD_LIMIT:
        print(
            f"FAIL: worst-case facade overhead {worst:.2%} exceeds "
            f"{OVERHEAD_LIMIT:.0%}",
            file=sys.stderr,
        )
        return 1
    print(f"OK: worst-case facade overhead {worst:.2%} "
          f"(limit {OVERHEAD_LIMIT:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
