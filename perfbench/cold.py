"""``cold_translate``: keyword requests on freshly built engines.

One caller, closed loop, in-process ``Engine.translate(keywords)`` on
``mas``, ``imdb``, ``yelp`` and ``wide``.  Every pass starts on freshly
built engines, as a restarted or reloaded replica does, so keyword
mapping and join inference do nearly all the work; repeats inside a pass
hit the caches the pass has filled.  Engine builds happen between
passes, outside the timed region, and a run measures whole cycles of
passes (every item once per cycle).

Checks: the response digest of the default seed, and a replay of the
first pass on fresh ``cache_size=0`` engines that must return the same
SQL for every request.
"""

from __future__ import annotations

import time

from perfbench import tracing
from perfbench.checks import Accuracy, check_digest
from perfbench.common import (
    MAX_MEASURE_SECONDS, MIN_SAMPLES, Result, ResponseDigest,
    measure_setup_metric, peak_rss_mb,
)
from perfbench.streams import Catalogue, passes

NAME = "cold_translate"
DATASETS = ("mas", "imdb", "yelp", "wide")
#: Item groups per dataset; one cycle of this many passes visits every item.
GROUPS = 8
#: ``case_stream`` draws per pass (before adversarial cases are dropped).
PASS_SIZE = 300
#: A run measures at least this many cycles, so that a slow machine does
#: not leave it with fewer latency blocks (see ``Result.add_timing``).
MIN_CYCLES = 3


def build_engines(**config) -> dict:
    from repro.api import Engine, EngineConfig

    return {
        name: Engine.from_config(EngineConfig(dataset=name, **config))
        for name in DATASETS
    }


def close_engines(engines: dict) -> None:
    for engine in engines.values():
        engine.close()


class Serving:
    """What a set-up probe builds: the four engines."""

    def __init__(self, scratch) -> None:
        self.engines = build_engines()

    def close(self) -> None:
        close_engines(self.engines)


def run(seed: int, seconds: float, trace: bool, scratch) -> Result:
    from repro.eval.metrics import fq_correct
    from repro.serving.wire import TranslationRequest

    result = Result(NAME, seed)
    measure_setup_metric(result, "perfbench.probe", [NAME])
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracing.instrument_setup(tracer)
        tracing.instrument_modules(tracer)
        tracer.begin("setup")
    started = time.perf_counter()
    engines = build_engines()
    result.info.append(
        ("setup_inprocess_s", time.perf_counter() - started, "s"))
    if tracer is not None:
        tracer.disarm()
    catalogue = Catalogue.load(DATASETS)
    stream = passes(
        seed,
        {name: catalogue.datasets[name].usable_items() for name in DATASETS},
        groups=GROUPS, pass_size=PASS_SIZE,
    )

    samples: list[tuple[float, float]] = []  # (done_s, latency_ms)
    traced_ms: list[float] = []
    untraced_ms: list[float] = []
    digest = ResponseDigest()
    accuracy = Accuracy()
    item_correct: dict = {}
    tallies: dict = {}
    traced_dataset: dict = {}  # traced request id -> dataset
    first_pass = None
    measured = 0.0
    request_index = 0
    cycles = 0
    while True:
        for _ in range(GROUPS):
            if samples:
                _tally(engines, tallies)
                close_engines(engines)
                engines = build_engines()
            if tracer is not None:
                for engine in engines.values():
                    tracing.instrument_engine(tracer, engine)
            cases = next(stream)
            requests = [
                (case, TranslationRequest(
                    keywords=catalogue.keywords(case), limit=case.limit))
                for case in cases
            ]
            responses = []
            pass_started = time.perf_counter()
            for case, request in requests:
                armed = tracer is not None and request_index % 2 == 1
                if tracer is not None:
                    tracer.begin(request_index, armed)
                began = time.perf_counter()
                try:
                    response = engines[case.workload].translate(request)
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    response = exc
                ended = time.perf_counter()
                elapsed_ms = (ended - began) * 1000.0
                samples.append((measured + ended - pass_started, elapsed_ms))
                if tracer is not None:
                    (traced_ms if armed else untraced_ms).append(elapsed_ms)
                    if armed:
                        traced_dataset[request_index] = case.workload
                responses.append(response)
                request_index += 1
            measured += time.perf_counter() - pass_started
            if tracer is not None:
                tracer.disarm()

            sqls = []
            for (case, _), response in zip(requests, responses):
                result.attempted += 1
                if isinstance(response, Exception):
                    result.failed += 1
                    result.fail(f"{case.workload} {case.item_id}: {response!r}")
                    sqls.append(None)
                    continue
                response_sqls = [r.sql for r in response.results]
                sqls.append(response_sqls)
                digest.add(response_sqls)
                item = catalogue.gold(case)
                if item is not None:
                    key = (case.workload, case.item_id)
                    if key not in item_correct:
                        item_correct[key] = fq_correct(
                            item, response.results,
                            catalogue.datasets[case.workload].database.catalog,
                        )
                    accuracy.add(key, item_correct[key])
            if first_pass is None:
                first_pass = (requests, sqls)
        cycles += 1
        if measured >= MAX_MEASURE_SECONDS:
            break
        if measured >= seconds and len(samples) >= MIN_SAMPLES \
                and cycles >= MIN_CYCLES:
            break
    _tally(engines, tallies)
    close_engines(engines)

    if tracer is not None:
        spans = list(tracer.spans)
        tracer.restore()
    _replay_first_pass(result, first_pass)
    check_digest(result, digest)

    result.add_timing(samples)
    result.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    result.metrics["top1_accuracy"] = (accuracy.value(), "ratio")
    result.info.append(("measured_s", measured, "s"))
    result.info.append(("cycles", cycles, "count"))
    result.info.append(("accuracy_items", accuracy.items, "count"))
    if tracer is not None:
        tracing.finish(
            result, spans, tracing.cache_hit_ratios(tallies),
            traced_ms=traced_ms, untraced_ms=untraced_ms,
            traced_wall_ms=sum(traced_ms),
        )
        result.notes.append(_per_dataset(spans, traced_dataset))
    return result


def _per_dataset(spans, traced_dataset: dict) -> str:
    """Busy time of the translation layers, split by dataset."""
    layers = ("serving", "core.keyword_mapper", "core.join_inference",
              "nlidb.sql_builder")
    lines = [f"{'dataset':<8}{'requests':>9}" + "".join(
        f"{layer + '.busy_ms':>30}" for layer in layers)]
    for name in DATASETS:
        subset = [span for span in spans
                  if traced_dataset.get(span.request) == name]
        summary = tracing.summarize(subset)["layers"]
        lines.append(
            f"{name:<8}{summary['serving']['calls']:>9}" + "".join(
                f"{summary[layer]['busy_ns'] / 1e6:>30.3f}"
                for layer in layers)
        )
    return "\n".join(lines)


def _tally(engines: dict, tallies: dict) -> None:
    """Add the engines' cache hit and miss counts to ``tallies``."""
    for engine in engines.values():
        tracing.count_caches(tallies, engine.service.stats()["caches"])


def _replay_first_pass(result: Result, first_pass) -> None:
    """Re-translate the first pass on uncached engines; SQL must match."""
    requests, expected = first_pass
    engines = build_engines(cache_size=0)
    try:
        for (case, request), sqls in zip(requests, expected):
            if sqls is None:
                continue
            replayed = [r.sql for r in engines[case.workload].translate(
                request).results]
            if replayed != sqls:
                result.failed += 1
                result.fail(
                    f"{case.workload} {case.item_id}: replay on an uncached "
                    f"engine returned different SQL"
                )
    finally:
        close_engines(engines)
