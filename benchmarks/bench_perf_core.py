"""Engineering micro-benchmarks of the core operations.

Not part of the paper's evaluation; these keep the implementation honest
about the costs that matter in deployment: QFG construction from a log,
keyword mapping latency, Steiner-tree join inference, and full-text
search.

Run directly (``PYTHONPATH=src python benchmarks/bench_perf_core.py``)
for the **baseline-vs-indexed MAPKEYWORDS comparison**: the seed
scan-everything/full-product mapper against the CandidateIndex + beam
path, on the full MAS workload, with configuration-level parity asserted
(bit-identical scores) and a ≥ 3x warm-path speedup gate.  Results land
in ``benchmarks/results/perf_core.txt`` and ``perf_core.json`` (the
README performance table is generated from the JSON).  ``--smoke``
shrinks the workload for CI, where the step is advisory.
"""

import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _harness import RESULTS_DIR, format_rows, publish  # noqa: E402
from snapshot import emit_snapshot  # noqa: E402

from repro.core import QueryLog, Templar
from repro.core.fragments import fragments_of_sql
from repro.core.keyword_mapper import KeywordMapper
from repro.core.qfg import QueryFragmentGraph
from repro.datasets import load_dataset
from repro.embedding.model import CompositeModel
from repro.schema_graph import JoinGraph, steiner_tree

#: Required warm-path speedup of indexed+beam MAPKEYWORDS over the seed.
SPEEDUP_GATE = 3.0

#: Maximum tracing overhead on the warm cached translate path (percent).
TRACING_OVERHEAD_GATE_PCT = 5.0

#: Maximum request-journal cost per warm request on the serving wire
#: path (NLQ in, answered from the translate cache's NLQ entry), in µs.
#: An absolute budget: a repeated NLQ no longer pays the ~150 µs parse,
#: so the path costs ~15 µs and a percentage would gate the interpreter's
#: per-call floor rather than the journal.  2 µs is a quarter of what the
#: former 5%-of-a-parsing-request budget allowed.
JOURNAL_OVERHEAD_GATE_US = 2.0

#: Maximum SLO-evaluator + drift-monitor cost per request on the same
#: warm wire path, in µs (absolute for the same reason).  The
#: per-request bill is one DriftMonitor.observe (two bisects + a
#: memoized fragment digest under a lock): 2–4 µs on a 2-CPU x86 host,
#: against the ~8 µs the former percentage allowed.  SLO evaluation
#: itself is scrape-cadence work and never runs on the request path.
SLO_OVERHEAD_GATE_US = 6.0

PASSES = 3


@pytest.fixture(scope="module")
def mas():
    return load_dataset("mas")


@pytest.fixture(scope="module")
def mas_log(mas):
    return QueryLog([item.gold_sql for item in mas.usable_items()])


@pytest.fixture(scope="module")
def templar(mas, mas_log):
    return Templar(mas.database, CompositeModel(mas.lexicon), mas_log)


def test_perf_qfg_construction(benchmark, mas, mas_log):
    """Build the QFG from the full MAS log (~194 statements)."""
    graph = benchmark(mas_log.build_qfg, mas.database.catalog)
    assert graph.total_queries > 0


def test_perf_fragment_extraction(benchmark, mas):
    """Parse + bind + fragment one representative log statement."""
    sql = mas.usable_items()[0].gold_sql
    fragments = benchmark(fragments_of_sql, sql, mas.database.catalog)
    assert fragments


def test_perf_keyword_mapping(benchmark, mas, templar):
    """MAPKEYWORDS on a two-keyword NLQ."""
    item = next(i for i in mas.usable_items() if len(i.keywords) == 2)
    configs = benchmark(templar.map_keywords, item.keywords)
    assert configs


def test_perf_join_inference(benchmark, templar):
    """INFERJOINS across the publication-domain trap."""
    paths = benchmark(templar.infer_joins, ["publication", "domain"])
    assert paths


def test_perf_steiner_default(benchmark, mas):
    """Raw KMB Steiner solve on the MAS join graph."""
    graph = JoinGraph.from_catalog(mas.database.catalog)
    tree = benchmark(steiner_tree, graph, ["author", "domain", "conference"])
    assert tree is not None


def test_perf_fulltext_search(benchmark, mas):
    """Boolean-mode full-text probe over all searchable columns."""
    index = mas.database.fulltext
    hits = benchmark(index.search, ["query", "optimization"])
    assert hits


def test_perf_full_translation(benchmark, mas, templar):
    """End-to-end Pipeline+ translation of one NLQ."""
    from repro.nlidb import PipelineNLIDB

    system = PipelineNLIDB(mas.database, templar.similarity, templar)
    item = mas.usable_items()[0]
    results = benchmark(system.translate, item.keywords)
    assert results


def test_perf_keyword_mapping_indexed(benchmark, mas, templar):
    """MAPKEYWORDS via the candidate index + beam (two-keyword NLQ)."""
    item = next(i for i in mas.usable_items() if len(i.keywords) == 2)
    templar.candidate_index  # build outside the timed region
    configs = benchmark(templar.map_keywords, item.keywords, 10)
    assert configs


# --------------------------------------------------------------------------
# Standalone mode: baseline-vs-indexed MAPKEYWORDS comparison
# --------------------------------------------------------------------------


def _best_of(fn, passes: int = PASSES) -> float:
    best = float("inf")
    for _ in range(passes):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def bench_mapkeywords(smoke: bool) -> dict:
    """Seed vs indexed MAPKEYWORDS over the MAS workload, parity-checked."""
    dataset = load_dataset("mas")
    log = QueryLog([item.gold_sql for item in dataset.usable_items()])
    qfg = log.build_qfg(dataset.database.catalog)
    model = CompositeModel(dataset.lexicon)
    requests = [
        list(item.keywords) for item in dataset.usable_items() if item.keywords
    ]
    if smoke:
        requests = requests[:25]
    dataset.database.fulltext  # shared lazy structure, built up front

    seed = KeywordMapper(dataset.database, model, qfg=qfg, use_index=False)
    indexed = KeywordMapper(dataset.database, model, qfg=qfg)

    # Parity first: identical configurations and bit-identical scores on
    # the full ranking, and the beam prefix must equal the full prefix.
    for keywords in requests:
        full_seed = seed.map_keywords(keywords)
        full_indexed = indexed.map_keywords(keywords)
        assert full_indexed == full_seed, f"parity broken for {keywords}"
        assert indexed.map_keywords(keywords, limit=10) == full_seed[:10]

    cold_started = time.perf_counter()
    rebuilt = KeywordMapper(dataset.database, model, qfg=qfg)
    rebuilt.index
    index_build_s = time.perf_counter() - cold_started

    seed_s = _best_of(
        lambda: [seed.map_keywords(keywords) for keywords in requests]
    )
    warm_s = _best_of(
        lambda: [
            indexed.map_keywords(keywords, limit=10) for keywords in requests
        ]
    )
    return {
        "workload": "mas",
        "requests": len(requests),
        "index_build_ms": index_build_s * 1000.0,
        "seed_ms": seed_s * 1000.0,
        "indexed_ms": warm_s * 1000.0,
        "speedup": seed_s / warm_s,
        "per_request_seed_ms": seed_s * 1000.0 / len(requests),
        "per_request_indexed_ms": warm_s * 1000.0 / len(requests),
    }


def bench_engine(smoke: bool) -> dict:
    """Cold Engine build and warm cached translate on the MAS workload."""
    from repro.api import Engine, EngineConfig

    cold_started = time.perf_counter()
    engine = Engine.from_config(EngineConfig(dataset="mas"))
    cold_build_s = time.perf_counter() - cold_started

    requests = [
        list(item.keywords)
        for item in engine.dataset.usable_items()
        if item.keywords
    ]
    if smoke:
        requests = requests[:25]
    for keywords in requests:  # fill the caches
        engine.translate(keywords)
    warm_s = _best_of(
        lambda: [engine.translate(keywords) for keywords in requests]
    )
    engine.close()
    return {
        "cold_build_ms": cold_build_s * 1000.0,
        "warm_translate_us": warm_s * 1_000_000.0 / len(requests),
    }


def bench_tracing_overhead(smoke: bool) -> dict:
    """Warm cached-translate cost with tracing on vs off.

    The tracer defers both the sink allocation (lazy, first stage only)
    and all tree-building (tail-sampled) past the warm path, so a cache
    hit pays one ContextVar set/reset and a float comparison; this
    measures that claim.  Absolute deltas are sub-microsecond, so the
    estimator has to be deliberate about noise:

    * ONE engine, toggling ``tracer.enabled`` — the exact knob
      ``EngineConfig(tracing=False)`` sets — instead of two engine
      instances.  Separate instances differ in allocator layout and
      cache residency, which on a busy box dwarfs the effect measured.
    * Paired rounds: each round times both modes back to back, order
      alternating between rounds, so frequency drift hits both equally.
    * Long windows: each timed sample runs the full request sweep
      several times, so a millisecond scheduling blip is a few percent
      of the window instead of half of it.
    * The reported overhead is the *median* per-round ratio — a round
      polluted by a blip anyway skews one sample, not the estimate.
    """
    from repro.api import Engine, EngineConfig

    engine = Engine.from_config(EngineConfig(dataset="mas"))
    tracer = engine.tracer
    requests = [
        list(item.keywords)
        for item in engine.dataset.usable_items()
        if item.keywords
    ]
    if smoke:
        requests = requests[:25]
    for enabled in (True, False):  # fill caches + saturate trace store
        tracer.enabled = enabled
        for _ in range(2):
            for keywords in requests:
                engine.translate(keywords)
    best = {True: float("inf"), False: float("inf")}
    ratios = []
    rounds = 5 if smoke else max(7 * PASSES, 21)
    sweeps = 8
    for index in range(rounds):
        sample = {}
        # ABBA ordering: consecutive round pairs mirror each other, so
        # linear frequency drift cancels within every pair of rounds.
        order = (True, False) if index % 4 in (0, 3) else (False, True)
        for enabled in order:
            tracer.enabled = enabled
            started = time.perf_counter()
            for _ in range(sweeps):
                for keywords in requests:
                    engine.translate(keywords)
            sample[enabled] = time.perf_counter() - started
            best[enabled] = min(best[enabled], sample[enabled])
        ratios.append(sample[True] / sample[False])
    engine.close()
    ratios.sort()
    median_ratio = ratios[len(ratios) // 2]
    per_request = 1e6 / (sweeps * len(requests))
    return {
        "warm_traced_us": best[True] * per_request,
        "warm_untraced_us": best[False] * per_request,
        "tracing_overhead_pct": 100.0 * (median_ratio - 1.0),
    }


def bench_journal_overhead(smoke: bool) -> dict:
    """Warm serving cost with the request journal on vs off.

    The journal's *request-path* bill is one bounded-deque append of a
    pre-built row tuple plus a ``meta`` dict — serialization, rotation
    and writes all happen later, on the background writer thread.  Two
    measurements pin that claim down:

    * **The gated number** (``journal_overhead_us``, with
      ``journal_overhead_pct`` reported beside it) is taken on the
      serving wire path: requests enter as NLQ strings, exactly as they
      arrive over HTTP, and repeats are answered from the translate
      cache's NLQ entry without a parse — that is what a warm served
      request actually pays, and what the per-request budget
      (:data:`JOURNAL_OVERHEAD_GATE_US`) protects.  Paired ABBA rounds with the ratio of per-mode median
      window times keep the estimate stable on noisy (virtualized,
      single-core) hosts.
    * **The informational number** (``journal_hit_delta_ns``) isolates
      the absolute per-request bill on the keyword fast path
      (pre-parsed programmatic callers, ~10 us/request), where a
      few-hundred-ns append is proportionally largest.  Whole-window
      timing cannot resolve it under scheduler jitter, so each request
      is timed individually and the per-request *minimum* over many
      paired reps is compared — timing noise on a preemptible host is
      strictly additive, so the floor is the least-noise estimate of
      the true cost (the same reasoning behind ``timeit``'s min).

    Bench hygiene, in both phases: the writer is parked on a very long
    flush interval and the queue is drained at round boundaries —
    *outside* the timed windows, so the serialization burst sits
    symmetrically between rounds — and the GC is paused inside the
    paired windows and run between rounds (in production the writer
    drains every 0.2 s and the queue stays near-empty; without this the
    gen-0 collections triggered by the bench-only retention would be
    billed to the request path).
    """
    import gc
    import tempfile

    from repro.api import Engine, EngineConfig
    from repro.obs.journal import RequestJournal

    engine = Engine.from_config(EngineConfig(dataset="mas"))
    items = [item for item in engine.dataset.usable_items() if item.keywords]
    if smoke:
        items = items[:25]
    nlqs = [item.nlq for item in items]
    keyword_requests = [list(item.keywords) for item in items]
    times = {True: [], False: []}
    floors = {
        True: [9e9] * len(keyword_requests),
        False: [9e9] * len(keyword_requests),
    }
    rounds = 5 if smoke else max(7 * PASSES, 21)
    floor_reps = 20 if smoke else 120
    with tempfile.TemporaryDirectory() as root:
        journal = RequestJournal(
            root,
            segment_bytes=64_000_000,
            segments=2,
            flush_interval=3600.0,
            max_queue=100_000,
        )
        for journaled in (True, False):  # fill the caches in both modes
            engine.journal = journal if journaled else None
            for nlq in nlqs:
                engine.translate(nlq)
            for keywords in keyword_requests:
                engine.translate(keywords)
        journal.flush()
        gc_was_enabled = gc.isenabled()
        perf = time.perf_counter
        try:
            # Phase 1 — the gated wire-path cost (NLQ in, answered from
            # the NLQ cache entry).
            for index in range(rounds):
                order = (
                    (True, False) if index % 4 in (0, 3) else (False, True)
                )
                gc.collect()
                gc.disable()
                for journaled in order:
                    engine.journal = journal if journaled else None
                    started = perf()
                    for nlq in nlqs:
                        engine.translate(nlq)
                    times[journaled].append(perf() - started)
                if gc_was_enabled:
                    gc.enable()
                journal.flush()  # round boundary: outside both windows
            # Phase 2 — the informational keyword fast-path floor delta.
            gc.collect()
            gc.disable()
            for rep in range(floor_reps):
                order = (True, False) if rep % 4 in (0, 3) else (False, True)
                for journaled in order:
                    engine.journal = journal if journaled else None
                    mins = floors[journaled]
                    for i, keywords in enumerate(keyword_requests):
                        started = perf()
                        engine.translate(keywords)
                        elapsed = perf() - started
                        if elapsed < mins[i]:
                            mins[i] = elapsed
                journal.flush()
                if rep % 40 == 39:
                    gc.enable()
                    gc.collect()
                    gc.disable()
        finally:
            if gc_was_enabled:
                gc.enable()
            engine.journal = None
        dropped = journal.dropped
        journal.close()
    engine.close()
    assert dropped == 0, f"journal shed {dropped} records during the bench"
    median = lambda s: sorted(s)[len(s) // 2]  # noqa: E731
    median_ratio = median(times[True]) / median(times[False])
    per_request = 1e6 / len(nlqs)
    hit_delta_ns = (
        (sum(floors[True]) - sum(floors[False])) * 1e9 / len(keyword_requests)
    )
    unjournaled_us = median(times[False]) * per_request
    return {
        "warm_journaled_us": median(times[True]) * per_request,
        "warm_unjournaled_us": unjournaled_us,
        "journal_overhead_pct": 100.0 * (median_ratio - 1.0),
        "journal_overhead_us": unjournaled_us * (median_ratio - 1.0),
        "journal_hit_delta_ns": hit_delta_ns,
    }


def bench_slo_overhead(smoke: bool) -> dict:
    """Warm serving cost with the SLO evaluator + drift monitor on vs off.

    Both features are scoped so the request path pays almost nothing:
    the SLO evaluator runs at scrape cadence (``/metrics``, ``stats()``)
    and never inside ``translate``; the drift monitor's per-request bill
    is ``DriftMonitor.observe`` — two histogram bisects and a memoized
    fragment-key digest under one lock.  Same estimator discipline as
    :func:`bench_journal_overhead`: one engine, toggling the exact
    attributes the config knobs set, paired ABBA rounds on the NLQ wire
    path, median per-round ratio, GC paused inside the windows.
    """
    import gc

    from repro.api import Engine, EngineConfig
    from repro.obs.slo import SLOPolicy

    engine = Engine.from_config(EngineConfig(
        dataset="mas",
        slo=SLOPolicy(
            latency_p99_ms=500.0, error_rate=0.05, cache_hit_rate=0.5,
            feedback_reject_rate=0.3,
        ),
        drift_threshold=0.35,
    ))
    evaluator, drift = engine.slo_evaluator, engine.drift
    assert evaluator is not None and drift is not None
    nlqs = [
        item.nlq for item in engine.dataset.usable_items() if item.keywords
    ]
    if smoke:
        nlqs = nlqs[:25]
    for monitored in (True, False):  # fill caches in both modes
        engine.slo_evaluator = evaluator if monitored else None
        engine.drift = drift if monitored else None
        for nlq in nlqs:
            engine.translate(nlq)
    times = {True: [], False: []}
    rounds = 5 if smoke else max(7 * PASSES, 21)
    sweeps = 4
    gc_was_enabled = gc.isenabled()
    perf = time.perf_counter
    try:
        for index in range(rounds):
            order = (True, False) if index % 4 in (0, 3) else (False, True)
            gc.collect()
            gc.disable()
            for monitored in order:
                engine.slo_evaluator = evaluator if monitored else None
                engine.drift = drift if monitored else None
                started = perf()
                for _ in range(sweeps):
                    for nlq in nlqs:
                        engine.translate(nlq)
                times[monitored].append(perf() - started)
            if gc_was_enabled:
                gc.enable()
            # Scrape-cadence work happens here, between rounds — exactly
            # where production pays it (the /metrics handler's thread).
            engine.sync_observability_counters()
    finally:
        if gc_was_enabled:
            gc.enable()
        engine.slo_evaluator = evaluator
        engine.drift = drift
    engine.close()
    median = lambda s: sorted(s)[len(s) // 2]  # noqa: E731
    median_ratio = median(times[True]) / median(times[False])
    per_request = 1e6 / (sweeps * len(nlqs))
    unmonitored_us = median(times[False]) * per_request
    return {
        "warm_monitored_us": median(times[True]) * per_request,
        "warm_unmonitored_us": unmonitored_us,
        "slo_overhead_pct": 100.0 * (median_ratio - 1.0),
        "slo_overhead_us": unmonitored_us * (median_ratio - 1.0),
    }


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    # Parity assertions inside bench_mapkeywords always hard-fail; the
    # wall-clock speedup gate alone becomes advisory with this flag
    # (shared CI runners jitter, local quiet hardware is authoritative).
    advisory_speedup = "--advisory-speedup" in argv
    result = bench_mapkeywords(smoke)
    result.update(bench_engine(smoke))
    result.update(bench_tracing_overhead(smoke))
    result.update(bench_journal_overhead(smoke))
    result.update(bench_slo_overhead(smoke))

    rows = [[
        result["workload"].upper(),
        str(result["requests"]),
        f"{result['seed_ms']:.1f}",
        f"{result['indexed_ms']:.1f}",
        f"{result['index_build_ms']:.1f}",
        f"{result['speedup']:.1f}x",
    ]]
    table = format_rows(
        [
            "Workload", "requests", "seed (ms)", "indexed (ms)",
            "index build (ms)", "speedup",
        ],
        rows,
    )
    publish(
        "perf_core",
        f"MAPKEYWORDS: seed scan+product vs CandidateIndex+beam "
        f"(best of {PASSES}, parity asserted; gate >= {SPEEDUP_GATE:.0f}x)",
        table,
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "perf_core.json").write_text(json.dumps(result, indent=1))
    snapshot = emit_snapshot(
        "perf_core",
        {
            key: round(result[key], 3)
            for key in (
                "seed_ms", "indexed_ms", "index_build_ms", "speedup",
                "cold_build_ms", "warm_translate_us", "warm_traced_us",
                "warm_untraced_us", "tracing_overhead_pct",
                "warm_journaled_us", "warm_unjournaled_us",
                "journal_overhead_pct", "journal_overhead_us",
                "journal_hit_delta_ns",
                "warm_monitored_us", "warm_unmonitored_us",
                "slo_overhead_pct", "slo_overhead_us",
            )
        },
        config={
            "workload": result["workload"],
            "requests": result["requests"],
            "passes": PASSES,
            "smoke": smoke,
        },
    )
    print(f"snapshot: {snapshot}")

    failed = False
    if result["speedup"] < SPEEDUP_GATE:
        print(
            f"{'NOTE' if advisory_speedup else 'FAIL'}: warm-path speedup "
            f"{result['speedup']:.1f}x is below the {SPEEDUP_GATE:.0f}x gate",
            file=sys.stderr,
        )
        failed = failed or not advisory_speedup
    if result["tracing_overhead_pct"] > TRACING_OVERHEAD_GATE_PCT:
        # Same advisory escape hatch as the speedup gate: µs-scale warm
        # paths jitter on shared CI runners; quiet hardware decides.
        print(
            f"{'NOTE' if advisory_speedup else 'FAIL'}: tracing overhead "
            f"{result['tracing_overhead_pct']:.1f}% exceeds the "
            f"{TRACING_OVERHEAD_GATE_PCT:.0f}% gate",
            file=sys.stderr,
        )
        failed = failed or not advisory_speedup
    if result["journal_overhead_us"] > JOURNAL_OVERHEAD_GATE_US:
        print(
            f"{'NOTE' if advisory_speedup else 'FAIL'}: journal overhead "
            f"{result['journal_overhead_us']:.2f} µs/request exceeds the "
            f"{JOURNAL_OVERHEAD_GATE_US:.1f} µs gate",
            file=sys.stderr,
        )
        failed = failed or not advisory_speedup
    if result["slo_overhead_us"] > SLO_OVERHEAD_GATE_US:
        print(
            f"{'NOTE' if advisory_speedup else 'FAIL'}: SLO+drift overhead "
            f"{result['slo_overhead_us']:.2f} µs/request exceeds the "
            f"{SLO_OVERHEAD_GATE_US:.1f} µs gate",
            file=sys.stderr,
        )
        failed = failed or not advisory_speedup
    if failed:
        return 1
    print(
        f"OK: warm-path speedup {result['speedup']:.1f}x "
        f"(gate {SPEEDUP_GATE:.0f}x), tracing overhead "
        f"{result['tracing_overhead_pct']:+.1f}% "
        f"(gate {TRACING_OVERHEAD_GATE_PCT:.0f}%), journal overhead "
        f"{result['journal_overhead_us']:+.2f} µs/request "
        f"(gate {JOURNAL_OVERHEAD_GATE_US:.1f} µs, "
        f"hit delta {result['journal_hit_delta_ns']:+.0f} ns), "
        f"SLO+drift overhead {result['slo_overhead_us']:+.2f} µs/request "
        f"(gate {SLO_OVERHEAD_GATE_US:.1f} µs), "
        f"parity held on {result['requests']} requests"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
