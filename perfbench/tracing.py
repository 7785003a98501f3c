"""Per-layer spans recorded from outside the program.

The traced run wraps the public calls of each layer — on the built
objects, or on the module and class attributes their callers resolve —
and records one span per call: layer, call name, start, end, parent span
and request id.  Spans stay in memory and are written out when the run
ends.  :meth:`Tracer.restore` puts every original attribute back.

Spans use ``time.monotonic_ns``: on Linux that is ``CLOCK_MONOTONIC``,
which every process on the machine shares, so the HTTP client's spans and
the server's spans line up.

A wrapper records only while its thread is *armed* for a request
(:meth:`Tracer.begin`); the traced run arms every other request and
compares the two halves to measure what tracing itself costs.
"""

from __future__ import annotations

import functools
import json
import threading
import time
import types
from collections import defaultdict

from perfbench.common import ROOT, TMP_ROOT, percentile

#: Layers in report order, named after the modules they live in.
LAYERS = (
    "http",
    "gateway",
    "serving",
    "nlidb.nalir_parser",
    "core.keyword_mapper",
    "core.join_inference",
    "nlidb.sql_builder",
    "controlplane",
    "obs.journal",
    "learning",
    "setup",
)

#: Extra per-layer metrics and their units.
EXTRAS = {
    "serving.translate_hit_ratio": "ratio",
    "serving.join_hit_ratio": "ratio",
    "core.keyword_mapper.configs_per_call": "count",
    "core.join_inference.paths_per_call": "count",
    "controlplane.durable_hit_ratio": "ratio",
    "obs.journal.dropped": "count",
    "learning.absorbed": "count",
    "setup.dataset_ms": "ms",
    "setup.qfg_ms": "ms",
    "setup.index_ms": "ms",
    "setup.engine_ms": "ms",
}

#: What the traced run says about the tracing itself.
TRACE_METRICS = {
    "trace.spans": "count",
    "trace.reconciled_pct": "%",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}

_COUNTS = ("calls", "busy_ms", "self_ms", "failures")


def metric_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for layer in LAYERS:
        for suffix in _COUNTS:
            units[f"{layer}.{suffix}"] = (
                "ms" if suffix.endswith("_ms") else "count"
            )
    units.update(EXTRAS)
    units.update(TRACE_METRICS)
    return units


class Span:
    __slots__ = (
        "layer", "name", "start", "end", "parent", "request", "failed", "size",
    )

    def __init__(self, layer, name, start, parent, request) -> None:
        self.layer = layer
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.failed = False
        self.size = None


class Tracer:
    """Installs wrappers, records spans, and removes the wrappers again."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple] = []

    # --------------------------------------------------------- requests

    def begin(self, request, armed: bool = True) -> None:
        """Start recording (or not) for ``request`` on this thread."""
        self._local.request = request
        self._local.armed = armed

    def disarm(self) -> None:
        self._local.armed = False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, name: str) -> Span:
        stack = self._stack()
        span = Span(
            layer, name, time.monotonic_ns(),
            stack[-1] if stack else None,
            getattr(self._local, "request", None),
        )
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.monotonic_ns()
        self._stack().pop()

    # ---------------------------------------------------------- wrappers

    def _wrapper(self, fn, layer: str, name: str, size):
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not getattr(local, "armed", False):
                return fn(*args, **kwargs)
            span = self.open(layer, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                self.close(span)
            if size is not None:
                span.size = size(result)
            return result

        traced.perfbench_traced = True
        return traced

    def patch(self, owner, attr: str, layer: str, name: str, *, size=None):
        """Wrap ``owner.attr`` (a class, module or instance attribute)."""
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                replacement = classmethod(
                    self._wrapper(raw.__func__, layer, name, size)
                )
            else:
                replacement = self._wrapper(raw, layer, name, size)
            self._patches.append((owner, attr, raw, True))
        elif isinstance(owner, types.ModuleType):
            raw = getattr(owner, attr)
            replacement = self._wrapper(raw, layer, name, size)
            self._patches.append((owner, attr, raw, True))
        else:
            had = attr in vars(owner)
            self._patches.append((owner, attr, vars(owner).get(attr), had))
            replacement = self._wrapper(getattr(owner, attr), layer, name, size)
        setattr(owner, attr, replacement)

    @property
    def installed(self) -> int:
        return len(self._patches)

    def restore(self) -> None:
        """Put back every attribute :meth:`patch` replaced, newest first."""
        while self._patches:
            owner, attr, saved, had = self._patches.pop()
            if had:
                setattr(owner, attr, saved)
            else:
                delattr(owner, attr)

    # ----------------------------------------------------------- export

    def export(self) -> list[list]:
        """Spans as JSON-plain rows; parents become row indexes."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            [
                span.layer, span.name, span.start, span.end,
                index.get(id(span.parent)) if span.parent is not None else None,
                span.request, span.failed, span.size,
            ]
            for span in self.spans
        ]


def import_spans(rows: list[list], parents: dict | None = None) -> list[Span]:
    """Rebuild exported spans; root spans whose request id is in
    ``parents`` are attached under that span (cross-process nesting)."""
    spans = []
    for layer, name, start, end, parent, request, failed, size in rows:
        span = Span(layer, name, start, None, request)
        span.end = end
        span.failed = failed
        span.size = size
        spans.append(span)
    for span, row in zip(spans, rows):
        if row[4] is not None:
            span.parent = spans[row[4]]
        elif parents is not None:
            span.parent = parents.get(span.request)
    return spans


def write_spans(path, spans: list[Span]) -> None:
    """Write spans as JSON lines (one span per line)."""
    index = {id(span): i for i, span in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as handle:
        for i, span in enumerate(spans):
            handle.write(json.dumps({
                "id": i,
                "layer": span.layer,
                "name": span.name,
                "start_ns": span.start,
                "end_ns": span.end,
                "parent": index.get(id(span.parent)),
                "request": span.request,
                "failed": span.failed,
            }) + "\n")


# -------------------------------------------------------------- report


def _covered(span: Span, children: list[Span]) -> int:
    """Nanoseconds of ``span`` covered by the union of its children."""
    intervals = sorted(
        (max(child.start, span.start), min(child.end, span.end))
        for child in children
    )
    covered = 0
    current_start = current_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


def _outermost(span: Span, key) -> bool:
    parent = span.parent
    while parent is not None:
        if key(parent) == key(span):
            return False
        parent = parent.parent
    return True


def summarize(spans: list[Span]) -> dict:
    """Per-layer calls, busy, self and failures, plus per-call-name busy.

    Busy counts only spans not nested in another span of the same layer
    (an ``Engine.translate`` that calls ``TranslationService.translate``
    is one serving call); self time is a span's duration minus the part
    its child spans cover, summed over every span of the layer.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    layers = {
        layer: {"calls": 0, "busy_ns": 0, "self_ns": 0, "failures": 0,
                "size": 0}
        for layer in LAYERS
    }
    names: dict[str, int] = defaultdict(int)
    for span in spans:
        duration = span.end - span.start
        entry = layers[span.layer]
        entry["self_ns"] += duration - _covered(span, children[id(span)])
        if _outermost(span, lambda s: s.name):
            names[span.name] += duration
        if _outermost(span, lambda s: s.layer):
            entry["calls"] += 1
            entry["busy_ns"] += duration
            entry["failures"] += int(span.failed)
            entry["size"] += span.size or 0
    return {"layers": layers, "names": dict(names)}


def layer_metrics(spans: list[Span], extras: dict) -> dict:
    """Every per-layer metric: name -> (value, unit).

    ``extras`` supplies the ratios and counters the spans cannot see
    (cache hit ratios, journal drops); anything not supplied reads 0.
    """
    summary = summarize(spans)
    layers, names = summary["layers"], summary["names"]
    units = metric_units()
    out = {}
    for layer, entry in layers.items():
        out[f"{layer}.calls"] = entry["calls"]
        out[f"{layer}.busy_ms"] = entry["busy_ns"] / 1e6
        out[f"{layer}.self_ms"] = entry["self_ns"] / 1e6
        out[f"{layer}.failures"] = entry["failures"]

    def per_call(layer):
        entry = layers[layer]
        return entry["size"] / entry["calls"] if entry["calls"] else 0.0

    out["core.keyword_mapper.configs_per_call"] = per_call(
        "core.keyword_mapper")
    out["core.join_inference.paths_per_call"] = per_call(
        "core.join_inference")
    out["learning.absorbed"] = layers["learning"]["size"]
    for extra, name in (("dataset_ms", "dataset"), ("qfg_ms", "qfg"),
                        ("index_ms", "index"), ("engine_ms", "engine")):
        out[f"setup.{extra}"] = names.get(name, 0) / 1e6
    out.update(extras)
    return {
        name: (out.get(name, 0), unit)
        for name, unit in units.items()
        if name not in TRACE_METRICS
    }


def count_caches(tallies: dict, caches) -> dict:
    """Add ``stats()["caches"]`` hit and miss counts into ``tallies``."""
    for cache in caches:
        for outcome in ("hits", "misses"):
            key = (cache["name"], outcome)
            tallies[key] = tallies.get(key, 0) + cache[outcome]
    return tallies


def cache_hit_ratios(tallies: dict) -> dict:
    """``serving`` hit ratios from ``{(cache name, "hits"|"misses"): n}``."""
    ratios = {}
    for metric, cache in (("translate_hit_ratio", "translate"),
                          ("join_hit_ratio", "join_paths")):
        hits = tallies.get((cache, "hits"), 0)
        total = hits + tallies.get((cache, "misses"), 0)
        ratios[f"serving.{metric}"] = hits / total if total else 0.0
    return ratios


def reconcile(spans: list[Span], traced_wall_ms: float) -> tuple[float, float]:
    """Sum of request-path self times (set-up excluded) against wall time."""
    summary = summarize([span for span in spans if span.layer != "setup"])
    self_ms = sum(
        entry["self_ns"] for entry in summary["layers"].values()
    ) / 1e6
    share = 100.0 * self_ms / traced_wall_ms if traced_wall_ms else 0.0
    return self_ms, share


def finish(result, spans: list[Span], extras: dict, *,
           traced_ms: list[float], untraced_ms: list[float],
           traced_wall_ms: float) -> None:
    """Fill a traced run's per-layer metrics and its printed notes."""
    metrics = layer_metrics(spans, extras)
    self_ms, share = reconcile(spans, traced_wall_ms)
    # Medians: cold requests are heavy-tailed, and a mean difference
    # between the two halves would mostly measure which half drew the
    # expensive requests.
    traced_p50 = percentile(sorted(traced_ms), 0.5) if traced_ms else 0.0
    untraced_p50 = percentile(sorted(untraced_ms), 0.5) if untraced_ms else 0.0
    overhead = traced_p50 - untraced_p50
    metrics["trace.spans"] = (len(spans), "count")
    metrics["trace.reconciled_pct"] = (share, "%")
    metrics["trace.overhead_ms"] = (overhead, "ms")
    metrics["trace.overhead_pct"] = (
        100.0 * overhead / untraced_p50 if untraced_p50 else 0.0, "%")
    result.layers = metrics
    traces = TMP_ROOT / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    path = traces / f"{result.workload}-seed{result.seed}.jsonl"
    write_spans(path, spans)
    result.info.append(("trace_file", path.relative_to(ROOT), "-"))
    result.notes.append(render_table(metrics))
    result.notes.append(
        f"reconcile: self-time sum {self_ms:.3f} ms vs traced wall "
        f"{traced_wall_ms:.3f} ms ({share:.2f}%)"
    )
    result.notes.append(
        f"tracing overhead: {overhead:.4f} ms/request (p50 of "
        f"{len(traced_ms)} traced requests {traced_p50:.4f} ms, of "
        f"{len(untraced_ms)} untraced {untraced_p50:.4f} ms)"
    )


def render_table(metrics: dict) -> str:
    header = f"{'layer':<22}{'calls':>9}{'busy_ms':>13}{'self_ms':>13}{'failures':>10}"
    lines = [header, "-" * len(header)]
    for layer in LAYERS:
        lines.append(
            f"{layer:<22}{metrics[f'{layer}.calls'][0]:>9}"
            f"{metrics[f'{layer}.busy_ms'][0]:>13.3f}"
            f"{metrics[f'{layer}.self_ms'][0]:>13.3f}"
            f"{metrics[f'{layer}.failures'][0]:>10}"
        )
    return "\n".join(lines)


# ----------------------------------------------------- instrumentation


def instrument_setup(tracer: Tracer) -> None:
    """Wrap what building a workload's serving state calls."""
    import repro.api.engine as engine_module
    from repro.api.engine import Engine
    from repro.core.candidate_index import CandidateIndex
    from repro.core.log import QueryLog
    from repro.gateway.core import Gateway

    tracer.patch(engine_module, "load_dataset", "setup", "dataset")
    tracer.patch(QueryLog, "build_qfg", "setup", "qfg")
    tracer.patch(CandidateIndex, "from_database", "setup", "index")
    tracer.patch(Engine, "from_config", "setup", "engine")
    tracer.patch(Gateway, "from_config", "setup", "gateway")
    tracer.patch(Gateway, "start", "setup", "gateway")


def instrument_modules(tracer: Tracer) -> None:
    """Wrap ``build_sql`` where the NLIDB backends resolve it."""
    import repro.nlidb.nalir as nalir
    import repro.nlidb.pipeline as pipeline

    for module in (pipeline, nalir):
        tracer.patch(module, "build_sql", "nlidb.sql_builder", "build_sql")


def instrument_engine(tracer: Tracer, engine) -> None:
    """Wrap one built engine's serving, parsing, mapping and join calls.

    The keyword mapper and join generator are wrapped *inside* the
    serving layer's memoizing wrappers, so only cache misses count.
    """
    tracer.patch(engine, "translate", "serving", "Engine.translate")
    service = engine.service
    tracer.patch(service, "translate", "serving",
                 "TranslationService.translate")
    tracer.patch(service, "absorb_pending", "learning",
                 "TranslationService.absorb_pending", size=int)
    if engine.parser is not None:
        tracer.patch(engine.parser, "parse", "nlidb.nalir_parser",
                     "NalirParser.parse")
    mapper = getattr(engine.nlidb, "_mapper", None)
    mapper = getattr(mapper, "inner", mapper)
    if mapper is not None:
        tracer.patch(mapper, "map_keywords", "core.keyword_mapper",
                     "KeywordMapper.map_keywords", size=len)
    joins = getattr(engine.nlidb, "_joins", None)
    joins = getattr(joins, "inner", joins)
    if joins is not None:
        tracer.patch(joins, "infer", "core.join_inference",
                     "JoinPathGenerator.infer", size=len)


def instrument_gateway(tracer: Tracer, gateway) -> None:
    """Wrap the gateway facade, its shared writers and every live engine."""
    tracer.patch(gateway, "translate", "gateway", "Gateway.translate")
    tracer.patch(gateway, "feedback", "gateway", "Gateway.feedback")
    plane = gateway.control_plane
    if plane is not None:
        for method in ("admit", "finish", "submit_feedback",
                       "artifact_fingerprint"):
            tracer.patch(plane, method, "controlplane",
                         f"ControlPlane.{method}")
    if gateway.journal is not None:
        tracer.patch(gateway.journal, "offer", "obs.journal",
                     "RequestJournal.offer")
    for host in gateway.hosts.values():
        instrument_engine(tracer, host.engine)
