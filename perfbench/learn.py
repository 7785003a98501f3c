"""``learn_feedback``: reads with user verdicts written beside them.

In-process ``Gateway.translate`` on ``mas`` with the control plane
(SQLite in the run's scratch directory) and the journal on.  After every
``WRITE_EVERY``-th read the caller sends an ``accept`` verdict through
``Gateway.feedback`` for the most recent prior response that has results.
Each verdict is persisted and absorbed, which bumps the QFG revision:
that retires the in-memory and durable cache entries keyed on the
revision, so join inference runs again and the control plane's
fingerprint is recomputed.  Read-side speed-ups that cost something on
every write show here.

Checks: every verdict must be accepted for the SQL that was served and
absorbed; a shadow ``Engine`` that replays the same verdicts must give
the same top SQL for every ``CHECK_EVERY``-th read and every unmutated
read; and the default seed's response digest must match.
"""

from __future__ import annotations

import time
from collections import deque

from perfbench import tracing
from perfbench.checks import Accuracy, check_digest
from perfbench.common import (
    MAX_MEASURE_SECONDS, MIN_SAMPLES, Result, ResponseDigest, median,
    measure_setup_metric, peak_rss_mb,
)
from perfbench.streams import Catalogue, passes

NAME = "learn_feedback"
TENANT = "mas"
#: One verdict after every this many reads.
WRITE_EVERY = 20
GROUPS = 8
PASS_SIZE = 150
#: The shadow engine re-checks every this many reads (plus gold reads).
CHECK_EVERY = 5
#: Operations kept for the digest, the shadow replay and the accuracy.
CHECKED_OPS = 1200


def build_gateway(scratch):
    from repro.api import EngineConfig
    from repro.gateway import Gateway, GatewayConfig, TenantConfig

    config = GatewayConfig(
        tenants={TENANT: TenantConfig(engine=EngineConfig(dataset=TENANT))},
        journal_dir=str(scratch / "journal"),
        control_plane_path=str(scratch / "controlplane.sqlite3"),
    )
    return Gateway.from_config(config).start()


class Serving:
    """What a set-up probe builds: the gateway with its durable state."""

    def __init__(self, scratch) -> None:
        self.gateway = build_gateway(scratch)

    def close(self) -> None:
        self.gateway.close()


def accept_target(reads) -> str | None:
    """The request id to accept: the newest read that has results.

    ``reads`` holds ``(request_id, top_sql)`` pairs, oldest first, with
    ``top_sql`` None for a response without results: it has no SQL to
    accept, and the control plane rightly refuses such a verdict.
    """
    for request_id, top_sql in reversed(reads):
        if top_sql is not None and request_id is not None:
            return request_id
    return None


def _service_totals(gateway) -> dict:
    stats = gateway.host(TENANT).engine.stats()
    totals = tracing.count_caches({}, stats["caches"])
    counters = stats["metrics"]["counters"]
    for name in ("durable_cache_hits", "durable_cache_misses"):
        totals[name] = counters.get(name, 0)
    totals["journal_dropped"] = gateway.journal.dropped
    return totals


def run(seed: int, seconds: float, trace: bool, scratch) -> Result:
    from repro.serving.wire import TranslationRequest

    result = Result(NAME, seed)
    measure_setup_metric(result, "perfbench.probe", [NAME])
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracing.instrument_setup(tracer)
        tracing.instrument_modules(tracer)
        tracer.begin("setup")
    started = time.perf_counter()
    gateway = build_gateway(scratch)
    result.info.append(
        ("setup_inprocess_s", time.perf_counter() - started, "s"))
    if tracer is not None:
        tracer.disarm()
        tracing.instrument_gateway(tracer, gateway)
    catalogue = Catalogue.load((TENANT,))
    stream = passes(
        seed, {TENANT: catalogue.datasets[TENANT].usable_items()},
        groups=GROUPS, pass_size=PASS_SIZE,
    )

    # Reads and verdicts in order, kept for the first CHECKED_OPS
    # operations only, so memory does not grow with the run's length.
    ops: list[tuple] = []
    recent: deque = deque(maxlen=WRITE_EVERY)  # (request id, top SQL)
    reads: list[tuple[float, float]] = []  # (done_s, latency_ms)
    write_ms: list[float] = []
    traced_ms: list[float] = []
    untraced_ms: list[float] = []
    before = _service_totals(gateway)
    measured = 0.0
    pass_started = 0.0
    op_index = 0
    cycles = 0

    def timed(call):
        """Run one operation; returns (outcome, latency_ms, done_s)."""
        nonlocal op_index
        armed = tracer is not None and op_index % 2 == 1
        if tracer is not None:
            tracer.begin(op_index, armed)
        op_index += 1
        began = time.perf_counter()
        try:
            outcome = call()
        except Exception as exc:  # noqa: BLE001 - counted, reported
            outcome = exc
        ended = time.perf_counter()
        elapsed_ms = (ended - began) * 1000.0
        if tracer is not None:
            (traced_ms if armed else untraced_ms).append(elapsed_ms)
            tracer.disarm()
        return outcome, elapsed_ms, measured + ended - pass_started

    try:
        while measured < MAX_MEASURE_SECONDS and (
                measured < seconds or len(reads) < MIN_SAMPLES):
            for _ in range(GROUPS):
                requests = [
                    (case, TranslationRequest(
                        keywords=catalogue.keywords(case), limit=case.limit))
                    for case in next(stream)
                ]
                pass_started = time.perf_counter()
                for case, request in requests:
                    response, elapsed_ms, done = timed(
                        lambda: gateway.translate(TENANT, request))
                    reads.append((done, elapsed_ms))
                    result.attempted += 1
                    if isinstance(response, Exception):
                        result.failed += 1
                        result.fail(f"read {case.item_id}: {response!r}")
                        recent.append((None, None))
                        continue
                    sqls = [r.sql for r in response.results]
                    request_id = response.provenance.get("request_id")
                    recent.append((request_id, sqls[0] if sqls else None))
                    if len(ops) < CHECKED_OPS:
                        ops.append(("read", case, request, sqls))
                    if len(reads) % WRITE_EVERY:
                        continue
                    target = accept_target(recent)
                    if target is None:
                        continue
                    record, elapsed_ms, _ = timed(lambda: gateway.feedback(
                        TENANT, {"verdict": "accept", "request_id": target}))
                    write_ms.append(elapsed_ms)
                    result.attempted += 1
                    served = dict(recent)[target]
                    if isinstance(record, Exception) \
                            or record.get("applied") != 1 \
                            or record.get("sql") != served:
                        result.failed += 1
                        result.fail(f"verdict on {target}: {record!r}")
                    elif len(ops) < CHECKED_OPS:
                        ops.append(("write", served))
                measured += time.perf_counter() - pass_started
            cycles += 1
            if cycles == 1:
                # The caches fill for as long as the run lasts, so the peak
                # is taken over a fixed amount of work: set-up plus one cycle.
                rss_mb = peak_rss_mb()
        after = _service_totals(gateway)
    finally:
        if tracer is not None:
            spans = list(tracer.spans)
            tracer.restore()
        gateway.close()

    _check(result, catalogue, ops)
    result.add_timing(reads)
    result.metrics["peak_rss_mb"] = (rss_mb, "MB")
    result.info.append(("write_latency_p50_ms", median(write_ms), "ms"))
    result.info.append(("writes", len(write_ms), "count"))
    result.info.append(("measured_s", measured, "s"))
    result.info.append(("cycles", cycles, "count"))
    if tracer is not None:
        delta = {key: after[key] - before.get(key, 0) for key in after}
        extras = tracing.cache_hit_ratios(delta)
        durable = delta["durable_cache_hits"] + delta["durable_cache_misses"]
        extras["controlplane.durable_hit_ratio"] = (
            delta["durable_cache_hits"] / durable if durable else 0.0)
        extras["obs.journal.dropped"] = delta["journal_dropped"]
        tracing.finish(
            result, spans, extras,
            traced_ms=traced_ms, untraced_ms=untraced_ms,
            traced_wall_ms=sum(traced_ms),
        )
    return result


def _check(result: Result, catalogue: Catalogue, ops: list) -> None:
    """Digest, shadow replay and accuracy over the checked operations."""
    from repro.api import Engine, EngineConfig
    from repro.eval.metrics import fq_correct

    catalog = catalogue.datasets[TENANT].database.catalog
    digest = ResponseDigest()
    accuracy = Accuracy()
    judged: dict = {}
    reads = 0
    with Engine.from_config(EngineConfig(dataset=TENANT)) as shadow:
        for op in ops:
            if op[0] == "write":
                digest.add([op[1]])
                shadow.observe(op[1])
                shadow.absorb_pending()
                continue
            _, case, request, sqls = op
            reads += 1
            digest.add(sqls)
            item = catalogue.gold(case)
            if item is None and reads % CHECK_EVERY:
                continue
            shadow_results = shadow.translate(request).results
            top = sqls[0] if sqls else None
            if top != (shadow_results[0].sql if shadow_results else None):
                result.failed += 1
                result.fail(f"read {case.item_id}: top SQL differs from the "
                            f"shadow engine's")
                continue
            if item is not None:
                key = (case.item_id, tuple(sqls))
                if key not in judged:
                    judged[key] = fq_correct(item, shadow_results, catalog) \
                        if shadow_results else False
                accuracy.add(case.item_id, judged[key])
    check_digest(result, digest)
    result.metrics["top1_accuracy"] = (accuracy.value(), "ratio")
    result.info.append(("accuracy_items", accuracy.items, "count"))
