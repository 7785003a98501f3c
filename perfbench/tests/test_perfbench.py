"""Self-tests of the benchmark: streams, statistics, metric names, tracing.

Run with ``python3 -m pytest perfbench/tests`` from the checkout root.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest  # noqa: E402

from perfbench import cold, learn, tracing, warm_http  # noqa: E402
from perfbench.common import (  # noqa: E402
    MIN_SAMPLES, Result, latency_summary, scratch_dir, remove_dir,
)
from perfbench.streams import Catalogue, passes  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
END_TO_END = {
    "setup_s", "latency_p50_ms", "latency_p99_ms", "throughput_rps",
    "peak_rss_mb", "top1_accuracy",
}


@pytest.fixture(scope="module")
def catalogue():
    return Catalogue.load(cold.DATASETS)


def _items(catalogue):
    return {name: catalogue.datasets[name].usable_items()
            for name in cold.DATASETS}


# ------------------------------------------------------------- streams


def test_same_seed_gives_identical_request_stream(catalogue):
    from repro.fuzz import stream_digest

    def fingerprint(seed, count=cold.GROUPS + 2):
        generator = passes(seed, _items(catalogue), groups=cold.GROUPS,
                           pass_size=cold.PASS_SIZE)
        return stream_digest(
            [case for _ in range(count) for case in next(generator)])

    assert fingerprint(7) == fingerprint(7)
    assert fingerprint(7) != fingerprint(8)


def test_http_stream_is_seeded(catalogue):
    usable = {name: catalogue.datasets[name].usable_items()
              for name in warm_http.TENANTS}

    def first(seed, count=300):
        stream = warm_http.Stream(seed, usable)
        return [stream.request(i) for i in range(count)]

    assert first(3) == first(3)
    assert first(3) != first(4)


def test_streams_keep_only_preserving_mutations(catalogue):
    generator = passes(1, _items(catalogue), groups=cold.GROUPS,
                       pass_size=cold.PASS_SIZE)
    cases = [case for _ in range(cold.GROUPS) for case in next(generator)]
    assert cases and all(case.is_preserving() for case in cases)
    # One cycle of passes visits every dataset.
    assert {case.workload for case in cases} == set(cold.DATASETS)


# ---------------------------------------------------------- statistics


def test_p99_needs_ten_samples_beyond_it():
    for n in range(850, 1001):
        samples = [float(i) for i in range(n)]
        summary = latency_summary(samples)
        beyond = sum(1 for s in samples if s > summary["p99"])
        assert summary["beyond_p99"] == beyond
        assert summary["p99_reportable"] is (beyond >= 10)
    assert latency_summary([float(i) for i in range(901)])[
        "p99_reportable"] is False
    assert latency_summary([float(i) for i in range(MIN_SAMPLES)])[
        "p99_reportable"] is True
    # Ties at the top are not "beyond" the percentile.
    assert latency_summary([1.0] * 5000)["beyond_p99"] == 0


def test_unreportable_p99_fails_the_run():
    result = Result("cold_translate", 0)
    result.add_timing([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
    assert not result.correct
    result = Result("cold_translate", 0)
    result.add_timing([(i / 100, float(i)) for i in range(1, MIN_SAMPLES + 1)])
    assert result.correct


def test_timing_is_the_median_over_blocks():
    # Three blocks of 1000 requests at 1 ms; the middle one ran at half
    # speed (a burst of noise): the medians ignore it.
    samples, clock = [], 0.0
    for base in (1.0, 2.0, 1.0):
        for i in range(1000):
            latency = base * (1 + i / 10000)  # 1.0 .. 1.1 times base
            clock += latency / 1000
            samples.append((clock, latency))
    result = Result("cold_translate", 0)
    result.add_timing(samples)
    assert result.correct
    assert result.metrics["latency_p50_ms"][0] == pytest.approx(1.05, rel=1e-3)
    assert result.metrics["throughput_rps"][0] == pytest.approx(
        1000 / 1.05, rel=1e-3)


# -------------------------------------------------------- metric names


def test_metric_names_are_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    names += list(tracing.metric_units())
    for name in names:
        assert NAME.match(name) and len(name) <= 64, name
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(
        tracing.metric_units())
    for metric in spec["per_layer"]:
        assert metric["unit"] == tracing.metric_units()[metric["name"]]


# ------------------------------------------------------------- tracing


def _traced_attributes(objects) -> list:
    found = []
    for owner in objects:
        for attr in dir(owner):
            value = getattr(owner, attr, None)
            if getattr(value, "perfbench_traced", False):
                found.append((owner, attr))
            func = getattr(value, "__func__", None)
            if getattr(func, "perfbench_traced", False):
                found.append((owner, attr))
    return found


def test_wrappers_are_gone_after_a_traced_run():
    import repro.api.engine as engine_module
    import repro.nlidb.nalir as nalir
    import repro.nlidb.pipeline as pipeline
    from repro.api.engine import Engine
    from repro.core.candidate_index import CandidateIndex
    from repro.core.log import QueryLog
    from repro.gateway.core import Gateway
    from repro.serving.wire import TranslationRequest

    scratch = scratch_dir("selftest-")
    tracer = tracing.Tracer()
    try:
        tracing.instrument_setup(tracer)
        tracing.instrument_modules(tracer)
        tracer.begin("setup")
        gateway = learn.build_gateway(scratch)
        tracer.disarm()
        tracing.instrument_gateway(tracer, gateway)
        engine = gateway.host(learn.TENANT).engine
        for index, keywords in enumerate((
            [{"text": "papers", "context": "SELECT"}],
            [{"text": "authors", "context": "SELECT"}],
        )):
            tracer.begin(index)
            response = gateway.translate(
                learn.TENANT, TranslationRequest.of({"keywords": keywords}))
            assert response.results
        tracer.disarm()
        layers = {span.layer for span in tracer.spans}
        assert {"setup", "gateway", "serving", "core.keyword_mapper",
                "controlplane", "obs.journal"} <= layers
        traced_objects = [
            gateway, gateway.control_plane, gateway.journal, engine,
            engine.service, engine.parser, engine.nlidb._mapper.inner,
            engine.nlidb._joins.inner, engine_module, pipeline, nalir,
            Engine, Gateway, QueryLog, CandidateIndex,
        ]
        assert _traced_attributes(traced_objects)
        tracer.restore()
        assert tracer.installed == 0
        assert _traced_attributes(traced_objects) == []
        for owner in (gateway, engine, engine.service, engine.parser):
            assert not any(
                getattr(value, "perfbench_traced", False)
                for value in vars(owner).values()
            )
        gateway.close()
    finally:
        tracer.restore()
        remove_dir(scratch)


def test_self_time_excludes_children():
    outer = tracing.Span("serving", "outer", 0, None, 1)
    outer.end = 100
    inner = tracing.Span("core.join_inference", "inner", 10, outer, 1)
    inner.end = 70
    nested = tracing.Span("serving", "nested", 20, outer, 1)
    nested.end = 30
    metrics = tracing.layer_metrics([outer, inner, nested], {})
    assert metrics["serving.calls"][0] == 1  # nested same-layer call merged
    assert metrics["serving.busy_ms"][0] == pytest.approx(100 / 1e6)
    # outer self: 100 - (10..70) = 40, nested self: 10 -> 50.
    assert metrics["serving.self_ms"][0] == pytest.approx(50 / 1e6)
    assert metrics["core.join_inference.self_ms"][0] == pytest.approx(60 / 1e6)


# ------------------------------------------------------ learn_feedback


def test_accept_target_skips_responses_without_results():
    assert learn.accept_target([("a", "SELECT 1"), ("b", None)]) == "a"
    assert learn.accept_target([("a", None)]) is None
    assert learn.accept_target([(None, "SELECT 1")]) is None
    assert learn.accept_target([]) is None


def test_accepting_a_response_without_results_is_refused():
    """Why ``accept_target`` skips empty responses: the plane refuses them."""
    from repro.errors import ServingError
    from repro.serving.wire import TranslationRequest

    scratch = scratch_dir("selftest-")
    gateway = learn.build_gateway(scratch)
    try:
        response = gateway.translate(learn.TENANT, TranslationRequest.of(
            {"keywords": [{"text": "qqqzzzxxy", "context": "WHERE"}]}))
        assert not response.results
        with pytest.raises(ServingError, match="accept feedback needs"):
            gateway.feedback(learn.TENANT, {
                "verdict": "accept",
                "request_id": response.provenance["request_id"],
            })
    finally:
        gateway.close()
        remove_dir(scratch)
