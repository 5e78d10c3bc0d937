"""Hierarchical span tracer with explicit context propagation.

A :class:`Trace` is a per-statement span tree.  It is handed down the
call chain as an argument (``engine.lifecycle.serve_statement`` →
``plan_for`` → probes → its ``run`` closure, which carries it onto a
scheduler worker) — never through a thread-local, so the scheduler's
worker pool cannot leak spans between concurrent statements.

Spans record *durations*, not absolute timestamps: each span's
``seconds`` is measured by the trace's injected monotonic clock, which
keeps the tree meaningful even when planning happens on the client
thread and execution on a worker, and makes tests deterministic with a
stub clock.  Queue time, measured by the scheduler's own clock, is
grafted in post-hoc via :meth:`Trace.span_at`.

Disabled tracing is the :data:`NULL_TRACE` singleton — every method is
a constant-time no-op on shared singletons (no allocation), which is
why the serving path has one arm: it always goes through
``trace.span(...)`` instead of branching on ``trace.enabled``.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
import time
from collections import deque
from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, Callable, Protocol, Sequence, TextIO, Union)

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry

AttrValue = Union[str, int, float, bool, None, tuple[int, ...]]


class Span:
    """One named region: duration, attributes, child spans."""

    __slots__ = ("name", "seconds", "attrs", "children")

    def __init__(self, name: str, seconds: float = 0.0,
                 attrs: dict[str, AttrValue] | None = None) -> None:
        self.name = name
        self.seconds = seconds
        self.attrs: dict[str, AttrValue] = attrs if attrs is not None else {}
        self.children: list[Span] = []

    @property
    def enabled(self) -> bool:
        return True

    def annotate(self, **attrs: AttrValue) -> None:
        self.attrs.update(attrs)

    def child(self, name: str, seconds: float = 0.0,
              **attrs: AttrValue) -> Span:
        """Append a pre-measured child span (post-hoc grafting)."""
        span = Span(name, seconds=seconds, attrs=dict(attrs))
        self.children.append(span)
        return span

    def find(self, name: str) -> Span | None:
        """First span named ``name`` in preorder (self included)."""
        if self.name == name:
            return self
        for child in self.children:
            got = child.find(name)
            if got is not None:
                return got
        return None

    def find_all(self, name: str) -> list[Span]:
        out = [self] if self.name == name else []
        for child in self.children:
            out.extend(child.find_all(name))
        return out

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"name": self.name,
                               "seconds": round(self.seconds, 9)}
        if self.attrs:
            out["attrs"] = {k: list(v) if isinstance(v, tuple) else v
                            for k, v in self.attrs.items()}
        if self.children:
            out["spans"] = [child.to_dict() for child in self.children]
        return out

    def pretty(self, indent: int = 0) -> str:
        attrs = " ".join(f"{k}={v}" for k, v in sorted(self.attrs.items()))
        line = f"{'  ' * indent}{self.name}  {self.seconds * 1e3:.3f} ms"
        if attrs:
            line += f"  [{attrs}]"
        return "\n".join([line] + [c.pretty(indent + 1)
                                   for c in self.children])


class _SpanHandle:
    """Context manager that times one span and manages the stack."""

    __slots__ = ("_trace", "span", "_t0")

    def __init__(self, trace: "Trace", span: Span) -> None:
        self._trace = trace
        self.span = span
        self._t0 = 0.0

    def __enter__(self) -> Span:
        self._trace._stack.append(self.span)
        self._t0 = self._trace._clock()
        return self.span

    def __exit__(self, *exc: object) -> None:
        self.span.seconds = self._trace._clock() - self._t0
        self._trace._stack.pop()


class Trace:
    """A live span tree for one statement."""

    enabled = True
    __slots__ = ("root", "_stack", "_clock")

    def __init__(self, name: str, clock: Callable[[], float],
                 **attrs: AttrValue) -> None:
        self.root = Span(name, attrs=dict(attrs))
        self._stack = [self.root]
        self._clock = clock

    def span(self, name: str, **attrs: AttrValue) -> _SpanHandle:
        span = Span(name, attrs=dict(attrs))
        self._stack[-1].children.append(span)
        return _SpanHandle(self, span)

    def span_at(self, name: str, seconds: float,
                **attrs: AttrValue) -> Span:
        """Graft a pre-measured span (e.g. scheduler queue wait)."""
        span = Span(name, seconds=seconds, attrs=dict(attrs))
        self._stack[-1].children.append(span)
        return span

    @property
    def current(self) -> Span:
        return self._stack[-1]

    def annotate(self, **attrs: AttrValue) -> None:
        self.root.attrs.update(attrs)

    def finish(self, total_seconds: float | None = None) -> None:
        if total_seconds is not None:
            self.root.seconds = total_seconds
        elif not self.root.seconds:
            self.root.seconds = sum(
                child.seconds for child in self.root.children)

    def find(self, name: str) -> Span | None:
        return self.root.find(name)

    def find_all(self, name: str) -> list[Span]:
        return self.root.find_all(name)

    def to_dict(self) -> dict[str, Any]:
        return self.root.to_dict()

    def pretty(self) -> str:
        return self.root.pretty()


class _NullHandle:
    """Reusable no-op context manager returning the null span."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return NULL_SPAN

    def __exit__(self, *exc: object) -> None:
        return None


class _NullSpan:
    __slots__ = ()
    name = ""
    seconds = 0.0

    @property
    def enabled(self) -> bool:
        return False

    def annotate(self, **attrs: AttrValue) -> None:
        return None

    def child(self, name: str, seconds: float = 0.0,
              **attrs: AttrValue) -> "_NullSpan":
        return NULL_SPAN

    def find(self, name: str) -> None:
        return None

    def find_all(self, name: str) -> list[Span]:
        return []

    def to_dict(self) -> dict[str, Any]:
        return {}


class NullTrace:
    """Disabled trace: every operation is a constant-time no-op."""

    enabled = False
    __slots__ = ()

    def span(self, name: str, **attrs: AttrValue) -> _NullHandle:
        return _NULL_HANDLE

    def span_at(self, name: str, seconds: float,
                **attrs: AttrValue) -> _NullSpan:
        return NULL_SPAN

    @property
    def current(self) -> _NullSpan:
        return NULL_SPAN

    def annotate(self, **attrs: AttrValue) -> None:
        return None

    def finish(self, total_seconds: float | None = None) -> None:
        return None

    def find(self, name: str) -> None:
        return None

    def find_all(self, name: str) -> list[Span]:
        return []

    def to_dict(self) -> dict[str, Any]:
        return {}

    def pretty(self) -> str:
        return "(tracing disabled)"


NULL_SPAN = _NullSpan()
_NULL_HANDLE = _NullHandle()
NULL_TRACE = NullTrace()

#: What flows through the engine: a real trace or the null singleton.
AnyTrace = Union[Trace, NullTrace]
AnySpan = Union[Span, _NullSpan]


class _OperatorLike(Protocol):
    label: str
    depth: int
    rows_out: int
    seconds: float


class _ProfileLike(Protocol):
    # read-only, so ``list[OperatorProfile]`` satisfies it covariantly
    @property
    def operators(self) -> "Sequence[_OperatorLike]": ...
    cache_hits: int
    cache_misses: int
    arena_rows: int
    arena_bytes: int


def attach_profile_spans(parent: AnySpan, profile: _ProfileLike) -> None:
    """Operator + cache-probe child spans from a ``QueryProfile``.

    One call site (``engine.lifecycle.run_plan``) so the execute span's
    children always have the same shape: the operator tree, then an
    ``embedding_cache.probe`` span when any embedding was requested.
    The operator spans mirror ``profile.operators`` row for row (label,
    depth, rows_out, seconds), so EXPLAIN ANALYZE,
    ``QueryProfile.pretty()``, and the trace cannot disagree on where
    execution time went.
    """
    if not parent.enabled or not isinstance(parent, Span):
        return
    stack: list[tuple[int, Span]] = [(-1, parent)]
    for op in profile.operators:
        while stack[-1][0] >= op.depth:
            stack.pop()
        span = Span(f"operator:{op.label}", seconds=op.seconds,
                    attrs={"rows_out": op.rows_out, "depth": op.depth})
        stack[-1][1].children.append(span)
        stack.append((op.depth, span))
    if profile.cache_hits or profile.cache_misses:
        parent.child(
            "embedding_cache.probe",
            hits=profile.cache_hits, misses=profile.cache_misses,
            rows=profile.arena_rows, bytes=profile.arena_bytes)


class Tracer:
    """Creates, samples, and collects statement traces.

    ``sample`` is a deterministic rate: statement *n* is traced iff
    ``floor(n * sample)`` crosses an integer — ``1.0`` traces every
    statement, ``0.0`` none, ``0.25`` every fourth.  Completed traces
    are kept in a bounded ring (``keep``) and, when ``sink`` names a
    path or file object, appended as NDJSON events.
    """

    def __init__(self, sample: float = 1.0,
                 clock: Callable[[], float] = time.perf_counter,
                 wall_clock: Callable[[], float] = time.time,
                 sink: str | Path | TextIO | None = None,
                 keep: int = 64,
                 registry: "MetricsRegistry | None" = None) -> None:
        if not 0.0 <= sample <= 1.0:
            raise ValueError(f"trace_sample must be in [0, 1]: {sample}")
        self.sample = sample
        self._clock = clock
        self._wall_clock = wall_clock
        self._sink_path = Path(sink) if isinstance(sink, (str, Path)) \
            else None
        self._sink_file: TextIO | None = \
            sink if self._sink_path is None and sink is not None else None
        self._lock = threading.Lock()
        self._counter = itertools.count(1)
        self._completed: deque[Trace] = deque(maxlen=keep)
        self._traces_total = registry.counter(
            "engine_traces_total",
            help="statement traces sampled and completed") \
            if registry is not None else None

    def start(self, name: str, **attrs: AttrValue) -> AnyTrace:
        sample = self.sample
        if sample >= 1.0:
            return Trace(name, self._clock, **attrs)
        if sample <= 0.0:
            return NULL_TRACE
        n = next(self._counter)
        if math.floor(n * sample) > math.floor((n - 1) * sample):
            return Trace(name, self._clock, **attrs)
        return NULL_TRACE

    def finish(self, trace: AnyTrace,
               total_seconds: float | None = None) -> None:
        if not trace.enabled or not isinstance(trace, Trace):
            return
        trace.finish(total_seconds)
        event: dict[str, Any] | None = None
        if self._sink_path is not None or self._sink_file is not None:
            event = {"ts": round(self._wall_clock(), 6), **trace.to_dict()}
        with self._lock:
            self._completed.append(trace)
            if event is not None:
                sink = self._sink_file
                if sink is None:
                    sink = self._sink_file = \
                        open(self._sink_path, "a", encoding="utf-8") \
                        if self._sink_path is not None else None
                if sink is not None:
                    sink.write(json.dumps(event, sort_keys=True) + "\n")
                    sink.flush()
        if self._traces_total is not None:
            self._traces_total.inc()

    def completed(self) -> list[Trace]:
        with self._lock:
            return list(self._completed)

    def close(self) -> None:
        with self._lock:
            if self._sink_file is not None and self._sink_path is not None:
                self._sink_file.close()
                self._sink_file = None
