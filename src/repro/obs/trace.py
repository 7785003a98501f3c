"""Request-scoped span trees with tail-based sampling.

Tracing a translate request costs almost nothing on the warm cached
path, by construction:

* While a request runs, instrumented stages append flat ``(name, depth,
  start, duration)`` rows to a :class:`SpanSink` held in a
  :class:`contextvars.ContextVar`.  The serving layer arms collection
  only on a translate-cache miss, and the sink itself is materialised
  lazily by the first :func:`stage` call — so a cache-hit request
  performs no ContextVar write and no allocation; its only costs are
  one ContextVar read and one float comparison at the end.
* The span *tree* (a :class:`Trace`) is only materialised after the
  request finished, and only if the store would retain it.  Tail-based
  sampling decides retention from the measured duration: errors are
  always kept, otherwise only the slowest ``keep_slowest`` requests
  seen so far survive.  Slow requests are the ones worth a trace, and
  they are precisely the ones where the build cost is already noise.

Stage instrumentation is a one-liner wherever the pipeline does real
work::

    with stage("join_inference"):
        paths = joins.infer(bag)

With no active sink (direct library use, benchmarks)
``stage`` returns a shared no-op and costs one ContextVar read.
"""

from __future__ import annotations

import heapq
import itertools
import os
import threading
import time
from contextvars import ContextVar

__all__ = [
    "SpanSink",
    "Trace",
    "TraceStore",
    "Tracer",
    "current_sink",
    "format_trace",
    "stage",
]

#: Hard cap on rows a single request may record; a pathological input
#: enumerating thousands of configurations must not balloon one trace.
MAX_SPANS_PER_TRACE = 512

_SINK: ContextVar["SpanSink | None"] = ContextVar("repro_span_sink", default=None)


class _Armed:
    """Sentinel: tracing requested, sink not yet materialised.

    :meth:`Tracer.begin` installs this instead of a real sink so the
    warm cached path — which never enters an instrumented stage — pays
    no allocation at all; the first :func:`stage` call swaps in a real
    :class:`SpanSink` lazily.
    """

    __slots__ = ()


_ARMED = _Armed()


class SpanSink:
    """Flat per-request span collector (rows become a tree on demand).

    Rows are ``[name, depth, start, duration]`` with ``start`` in
    ``time.perf_counter()`` seconds; nesting is recorded as ``depth`` so
    the hot path never touches a tree structure.
    """

    __slots__ = ("spans", "depth", "dropped")

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.depth = 0
        self.dropped = 0


class _Stage:
    """Context manager recording one stage row into an active sink."""

    __slots__ = ("_sink", "_name", "_row")

    def __init__(self, sink: SpanSink, name: str) -> None:
        self._sink = sink
        self._name = name
        self._row = None

    def __enter__(self) -> "_Stage":
        sink = self._sink
        sink.depth += 1
        if len(sink.spans) < MAX_SPANS_PER_TRACE:
            self._row = [self._name, sink.depth, time.perf_counter(), 0.0]
            sink.spans.append(self._row)
        else:
            sink.dropped += 1
        return self

    def __exit__(self, *exc_info) -> None:
        row = self._row
        if row is not None:
            row[3] = time.perf_counter() - row[2]
        self._sink.depth -= 1


class _NullStage:
    """Shared no-op stage for requests without an active sink."""

    __slots__ = ()

    def __enter__(self) -> "_NullStage":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_STAGE = _NullStage()


def stage(name: str):
    """Record ``name`` as a span of the current request (no-op otherwise).

    >>> with stage("outside_any_request"):
    ...     answer = 42
    >>> answer
    42
    """
    sink = _SINK.get()
    if sink is None:
        return _NULL_STAGE
    if sink is _ARMED:
        sink = SpanSink()
        _SINK.set(sink)
    return _Stage(sink, name)


def current_sink() -> SpanSink | None:
    """The active request's span sink, if one has been materialised."""
    sink = _SINK.get()
    return None if sink is _ARMED else sink


class Trace:
    """One retained request: an immutable span tree plus identity.

    ``root`` is a nested dict tree — ``{"name", "start_ms",
    "duration_ms", "self_ms", "children"}`` — where ``self_ms`` is the
    span's duration minus its direct children's durations.  Self-times
    therefore telescope: summed over the whole tree they equal the root
    duration exactly.
    """

    __slots__ = (
        "trace_id",
        "started_unix",
        "duration_ms",
        "error",
        "summary",
        "root",
        "dropped_spans",
    )

    def __init__(
        self,
        trace_id: str,
        *,
        started_unix: float,
        duration_ms: float,
        root: dict,
        summary: str = "",
        error: dict | None = None,
        dropped_spans: int = 0,
    ) -> None:
        self.trace_id = trace_id
        self.started_unix = started_unix
        self.duration_ms = duration_ms
        self.root = root
        self.summary = summary
        self.error = error
        self.dropped_spans = dropped_spans

    def to_dict(self) -> dict:
        """JSON-ready view (the shape ``GET /admin/traces`` serves)."""
        payload = {
            "trace_id": self.trace_id,
            "started_unix": round(self.started_unix, 3),
            "duration_ms": round(self.duration_ms, 3),
            "summary": self.summary,
            "error": self.error,
            "spans": self.root,
        }
        if self.dropped_spans:
            payload["dropped_spans"] = self.dropped_spans
        return payload


def _node(name: str, start_ms: float, duration_ms: float) -> dict:
    return {
        "name": name,
        "start_ms": round(start_ms, 3),
        "duration_ms": round(duration_ms, 6),
        "self_ms": round(duration_ms, 6),
        "children": [],
    }


def _attach(parent: dict, child: dict) -> None:
    parent["children"].append(child)
    parent["self_ms"] = round(parent["self_ms"] - child["duration_ms"], 6)


def build_trace(
    trace_id: str,
    *,
    started: float,
    duration_s: float,
    children: list[tuple[str, float, float]],
    sink: SpanSink | None = None,
    summary: str = "",
    error: Exception | None = None,
) -> Trace:
    """Assemble the span tree for one finished request.

    ``started`` is the request's ``perf_counter`` origin; ``children``
    are the top-level stages as ``(name, start_offset_s, duration_s)``.
    Sink rows (absolute ``perf_counter`` starts, explicit depths) are
    nested under whichever top-level stage contains them.
    """
    total_ms = duration_s * 1000.0
    root = _node("request", 0.0, total_ms)
    tops = []
    for name, offset_s, child_s in children:
        top = _node(name, offset_s * 1000.0, child_s * 1000.0)
        _attach(root, top)
        tops.append(top)
    dropped = 0
    if sink is not None and sink.spans:
        # Rows arrive in completion order; start order restores the
        # pre-order walk, and the depth column restores nesting.
        stack: list[tuple[int, dict]] = []
        for name, depth, start, span_s in sorted(sink.spans, key=lambda r: r[2]):
            start_ms = (start - started) * 1000.0
            node = _node(name, start_ms, span_s * 1000.0)
            while stack and stack[-1][0] >= depth:
                stack.pop()
            if stack:
                parent = stack[-1][1]
            else:
                parent = root
                for top in tops:
                    if top["start_ms"] <= node["start_ms"] and (
                        node["start_ms"]
                        < top["start_ms"] + top["duration_ms"] + 1e-6
                    ):
                        parent = top
                        break
            _attach(parent, node)
            stack.append((depth, node))
        dropped = sink.dropped
    error_info = None
    if error is not None:
        error_info = {"type": type(error).__name__, "message": str(error)}
    return Trace(
        trace_id,
        started_unix=time.time() - duration_s,
        duration_ms=total_ms,
        root=root,
        summary=summary,
        error=error_info,
        dropped_spans=dropped,
    )


class TraceStore:
    """Bounded trace retention with tail-based sampling.

    Two compartments, both bounded: a min-heap of the ``keep_slowest``
    slowest successful requests (the heap floor is the eviction
    threshold — a new trace must be strictly slower than the current
    fastest retained one once the heap is full), and a FIFO ring of the
    ``keep_errors`` most recent failed requests, which are always kept.

    :meth:`would_keep` is the hot-path gate: a single lock-free float
    comparison that lets the serving layer skip building a span tree
    for requests that would be discarded anyway.
    """

    def __init__(self, keep_slowest: int = 64, keep_errors: int = 32) -> None:
        if keep_slowest < 1:
            raise ValueError(f"keep_slowest must be >= 1, got {keep_slowest}")
        if keep_errors < 1:
            raise ValueError(f"keep_errors must be >= 1, got {keep_errors}")
        self.keep_slowest = keep_slowest
        self.keep_errors = keep_errors
        self._lock = threading.Lock()
        self._seq = itertools.count()
        #: (duration_ms, seq, Trace) min-heap of the slowest successes.
        self._slow: list[tuple[float, int, Trace]] = []
        self._errors: list[Trace] = []
        #: Lock-free retention floor in *seconds*: a successful request
        #: must beat this to be worth building a trace for.  Negative
        #: while the heap is filling so everything is retained.
        self.floor = -1.0

    def would_keep(self, duration_s: float) -> bool:
        """Whether a successful request of this duration would be kept."""
        return duration_s > self.floor

    def offer(self, trace: Trace) -> bool:
        """Submit one finished trace; returns True when retained."""
        with self._lock:
            if trace.error is not None:
                self._errors.append(trace)
                if len(self._errors) > self.keep_errors:
                    del self._errors[0]
                return True
            entry = (trace.duration_ms, next(self._seq), trace)
            if len(self._slow) < self.keep_slowest:
                heapq.heappush(self._slow, entry)
                if len(self._slow) == self.keep_slowest:
                    self.floor = self._slow[0][0] / 1000.0
                return True
            if trace.duration_ms <= self._slow[0][0]:
                return False
            heapq.heapreplace(self._slow, entry)
            self.floor = self._slow[0][0] / 1000.0
            return True

    def get(self, trace_id: str) -> Trace | None:
        with self._lock:
            for trace in self._errors:
                if trace.trace_id == trace_id:
                    return trace
            for _, _, trace in self._slow:
                if trace.trace_id == trace_id:
                    return trace
        return None

    def traces(self, limit: int | None = None) -> list[Trace]:
        """Retained traces, newest first (errors and slow interleaved)."""
        with self._lock:
            everything = list(self._errors) + [t for _, _, t in self._slow]
        everything.sort(key=lambda t: t.started_unix, reverse=True)
        if limit is not None:
            everything = everything[:limit]
        return everything

    def __len__(self) -> int:
        with self._lock:
            return len(self._errors) + len(self._slow)


class Tracer:
    """Per-engine trace lifecycle: begin a sink, finish into the store.

    ``enabled=False`` turns the whole layer into a handful of ``None``
    checks — the knob `EngineConfig(tracing=False)` maps to.
    """

    def __init__(
        self,
        enabled: bool = True,
        *,
        keep_slowest: int = 64,
        keep_errors: int = 32,
    ) -> None:
        self.enabled = enabled
        self.store = TraceStore(keep_slowest=keep_slowest, keep_errors=keep_errors)
        self._prefix = os.urandom(4).hex()
        self._counter = itertools.count(1)

    def begin(self):
        """Arm span collection for the current request.

        Returns ``(sink, token)``; both are ``None`` when tracing is
        disabled.  No :class:`SpanSink` is allocated here — the armed
        sentinel goes into the ContextVar and the first :func:`stage`
        call swaps in a real sink, so cache-hit requests that never
        enter a stage allocate nothing.  The caller must pass both
        values back to :meth:`finish` (or the token to :meth:`reset`)
        exactly once.
        """
        if not self.enabled:
            return None, None
        return _ARMED, _SINK.set(_ARMED)

    def reset(self, token) -> None:
        """Detach a sink without retaining anything (early-exit path)."""
        if token is not None:
            _SINK.reset(token)

    def finish(
        self,
        sink,
        token,
        *,
        started: float,
        duration_s: float,
        children: list[tuple[str, float, float]],
        summary: str = "",
        error: Exception | None = None,
    ) -> str | None:
        """Conclude one request; returns its trace id when retained.

        The cheap path — a healthy request faster than the store's
        retention floor — allocates nothing at all.
        """
        if token is None:
            return None
        if sink is _ARMED:
            # Stages may have materialised a real sink behind the
            # sentinel; fetch it before detaching the request.
            current = _SINK.get()
            sink = None if current is _ARMED else current
        _SINK.reset(token)
        return self.conclude(
            sink,
            started=started,
            duration_s=duration_s,
            children=children,
            summary=summary,
            error=error,
        )

    def conclude(
        self,
        sink: SpanSink | None,
        *,
        started: float,
        duration_s: float,
        children: list[tuple[str, float, float]],
        summary: str = "",
        error: Exception | None = None,
    ) -> str | None:
        """Build and offer one finished request's trace; id when retained.

        Unlike :meth:`finish` this never touches the span ContextVar —
        it is for callers that manage arming themselves, like the
        serving layer, which arms only on translate-cache misses so a
        warm hit pays no ContextVar write at all.
        """
        if error is None and not self.store.would_keep(duration_s):
            return None
        trace = build_trace(
            f"{self._prefix}-{next(self._counter):06x}",
            started=started,
            duration_s=duration_s,
            children=children,
            sink=sink,
            summary=summary,
            error=error,
        )
        if self.store.offer(trace):
            return trace.trace_id
        return None


def _format_node(node: dict, lines: list[str], prefix: str, is_last: bool) -> None:
    connector = "└─ " if is_last else "├─ "
    lines.append(
        f"{prefix}{connector}{node['name']:<20} "
        f"{node['duration_ms']:>10.3f} ms  (self {node['self_ms']:.3f} ms)"
    )
    extension = "   " if is_last else "│  "
    children = node["children"]
    for index, child in enumerate(children):
        _format_node(child, lines, prefix + extension, index == len(children) - 1)


def _sum_self(node: dict) -> float:
    return node["self_ms"] + sum(_sum_self(child) for child in node["children"])


def format_trace(trace: Trace) -> str:
    """Pretty-print one trace as an indented span tree.

    The footer reports the telescoped per-stage self-time sum next to
    the root total — by construction they agree to rounding noise,
    which is the invariant ``repro trace`` surfaces for operators.
    """
    status = "error" if trace.error else "ok"
    lines = [
        f"trace {trace.trace_id} · {trace.duration_ms:.3f} ms total · {status}"
    ]
    if trace.summary:
        lines.append(f"  {trace.summary}")
    if trace.error:
        lines.append(f"  {trace.error['type']}: {trace.error['message']}")
    root = trace.root
    lines.append(
        f"{root['name']:<23} {root['duration_ms']:>10.3f} ms  "
        f"(self {root['self_ms']:.3f} ms)"
    )
    children = root["children"]
    for index, child in enumerate(children):
        _format_node(child, lines, "", index == len(children) - 1)
    if trace.dropped_spans:
        lines.append(f"  ({trace.dropped_spans} spans dropped at the cap)")
    lines.append(
        f"stage self-times sum to {_sum_self(root):.3f} ms "
        f"of {trace.duration_ms:.3f} ms total"
    )
    return "\n".join(lines)
