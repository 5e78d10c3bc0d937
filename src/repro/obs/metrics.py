"""Typed metrics registry: counters, gauges, fixed-bucket histograms.

Subsystems register their instruments **once** (at construction) and
update them on the hot path; exporters read them all through the owning
:class:`MetricsRegistry`.  Metric names are a checked vocabulary: every
literal passed to ``registry.counter/gauge/histogram`` must appear in
``analysis/metric_names.py`` (static-analysis rules MN001–MN003), so
the docs' metric catalog and the code cannot drift apart.

Threading contract (declared in ``analysis/lock_levels.py``):

- ``Counter._lock`` / ``Histogram._lock`` / ``MetricsRegistry._lock``
  are level-4 leaves.  An instrument never calls out while holding its
  lock, so subsystems at level 1 may update instruments inside their
  own critical sections; the level-4 caches that do the same declare
  the edge in ``ALLOWED_SAME_LEVEL``.
- :class:`Gauge` reads are lock-free: a gauge is either a single
  atomic slot or a callback evaluated by the exporter *outside* the
  registry lock (see :meth:`MetricsRegistry.collect`), so a callback
  may take its subsystem's own locks without ordering hazards.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable, Iterable, Mapping, Union

#: Canonical label form: sorted ``(key, value)`` pairs.
LabelSet = tuple[tuple[str, str], ...]
LabelsArg = Union[Mapping[str, str], Iterable[tuple[str, str]], None]

Instrument = Union["Counter", "Gauge", "Histogram"]


def hit_ratio(hits: float, misses: float) -> float:
    """The one shared hit-ratio rule: 0 probes is a 0.0 ratio, not NaN.

    Every surface that reports a ratio (``QueryProfile``, the cache
    ``stats()`` dicts, ``server.metrics()``, the exporters) goes
    through this helper so the 0/0 case cannot diverge per call site.
    """
    total = hits + misses
    return hits / total if total else 0.0


def _labels(labels: LabelsArg) -> LabelSet:
    if not labels:
        return ()
    pairs = labels.items() if isinstance(labels, Mapping) else labels
    return tuple(sorted((str(k), str(v)) for k, v in pairs))


def flat_name(name: str, labels: LabelSet) -> str:
    """Render ``name{k="v",...}`` — the JSON-snapshot key format."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonic integer counter (resettable only via ``reset``)."""

    kind = "counter"
    __slots__ = ("name", "labels", "help", "_lock", "_value")

    def __init__(self, name: str, labels: LabelSet = (),
                 help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    def reset(self) -> None:
        with self._lock:
            self._value = 0

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """Point-in-time value: a settable slot or a read-time callback."""

    kind = "gauge"
    __slots__ = ("name", "labels", "help", "_value", "_fn")

    def __init__(self, name: str, fn: Callable[[], float] | None = None,
                 labels: LabelSet = (), help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        self._fn = None
        self._value = float(value)

    def bind(self, fn: Callable[[], float]) -> None:
        """Re-point the callback (a cache instance was replaced)."""
        self._fn = fn

    @property
    def value(self) -> float:
        fn = self._fn
        return float(fn()) if fn is not None else self._value


class Histogram:
    """Fixed upper-edge buckets plus exact sum/count.

    ``observe(v)`` lands in the first bucket whose edge is ``>= v``
    (Prometheus ``le`` semantics); values above the last edge land in
    the implicit ``+Inf`` bucket.
    """

    kind = "histogram"
    DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)
    __slots__ = ("name", "labels", "help", "upper_edges",
                 "_lock", "_counts", "_sum", "_count")

    def __init__(self, name: str,
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS,
                 labels: LabelSet = (), help: str = "") -> None:
        if not buckets or tuple(sorted(buckets)) != tuple(buckets):
            raise ValueError(f"bucket edges must be sorted: {buckets!r}")
        self.name = name
        self.labels = labels
        self.help = help
        self.upper_edges = tuple(float(edge) for edge in buckets)
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.upper_edges) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        idx = bisect_left(self.upper_edges, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.upper_edges) + 1)
            self._sum = 0.0
            self._count = 0

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    def cumulative(self) -> list[tuple[float, int]]:
        """``(le, cumulative_count)`` pairs, ending at ``+Inf``."""
        with self._lock:
            counts = list(self._counts)
        edges = [*self.upper_edges, float("inf")]
        out: list[tuple[float, int]] = []
        running = 0
        for edge, count in zip(edges, counts):
            running += count
            out.append((edge, running))
        return out


class MetricsRegistry:
    """Process-local instrument registry, one per :class:`EngineState`.

    Registration is idempotent on ``(name, labels)``: re-registering
    returns the existing instrument (re-binding a gauge's callback when
    a new one is supplied), so a cache that is cleared and rebuilt
    keeps reporting under the same metric identity.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[tuple[str, LabelSet], Instrument] = {}

    def _register(self, key: tuple[str, LabelSet],
                  make: Callable[[], Instrument]) -> Instrument:
        with self._lock:
            existing = self._instruments.get(key)
            if existing is None:
                existing = self._instruments[key] = make()
            return existing

    def counter(self, name: str, labels: LabelsArg = None,
                help: str = "") -> Counter:
        got = self._register(
            (name, _labels(labels)),
            lambda: Counter(name, _labels(labels), help))
        if not isinstance(got, Counter):
            raise TypeError(f"{name} already registered as {got.kind}")
        return got

    def gauge(self, name: str, fn: Callable[[], float] | None = None,
              labels: LabelsArg = None, help: str = "") -> Gauge:
        got = self._register(
            (name, _labels(labels)),
            lambda: Gauge(name, fn, _labels(labels), help))
        if not isinstance(got, Gauge):
            raise TypeError(f"{name} already registered as {got.kind}")
        if fn is not None and got._fn is not fn:
            got.bind(fn)
        return got

    def histogram(self, name: str,
                  buckets: tuple[float, ...] = Histogram.DEFAULT_BUCKETS,
                  labels: LabelsArg = None, help: str = "") -> Histogram:
        got = self._register(
            (name, _labels(labels)),
            lambda: Histogram(name, buckets, _labels(labels), help))
        if not isinstance(got, Histogram):
            raise TypeError(f"{name} already registered as {got.kind}")
        return got

    def collect(self) -> list[Instrument]:
        """Snapshot of instruments sorted by ``(name, labels)``.

        The registry lock is released before callers evaluate gauge
        callbacks, so callbacks may take subsystem locks freely.
        """
        with self._lock:
            items = sorted(self._instruments.items())
        return [instrument for _, instrument in items]

    def get(self, name: str, labels: LabelsArg = None) -> Instrument | None:
        with self._lock:
            return self._instruments.get((name, _labels(labels)))

    def names(self) -> set[str]:
        with self._lock:
            return {name for name, _ in self._instruments}
