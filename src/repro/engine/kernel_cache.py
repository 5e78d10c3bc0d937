"""Engine-wide cache of compiled pipeline kernels.

Compiling a fused pipeline
(:func:`repro.relational.codegen.compile_pipeline`) costs real wall time
— source generation plus ``compile()``.  The serving layer runs many
statements against the same schema, so the same pipeline shapes recur
constantly; this cache makes compilation a once-per-shape cost the way
the plan cache makes planning one.

The key is the pipeline fingerprint alone —
:meth:`PipelineNode.fingerprint`, a structural digest over input column
names, every fused expression, the trailing limit, and output names +
dtypes.  A kernel is a pure function of plan structure, so — unlike
plan-cache and result-cache entries — kernel entries need **no
catalog-version or generation component**: inserts and replaces change
data, not the generated code.  Schema changes produce a different
fingerprint and therefore a fresh compile; the stale entry ages out of
the LRU.  (``docs/serving.md`` contrasts the three invalidation
regimes.)

Thread-safe with single-flight compiles
(:class:`repro.utils.store.SingleFlight`, shared with
:class:`repro.semantic.index_cache.IndexCache`): when a miss storm hits
one key, exactly one thread compiles while the rest wait and then hit
the finished entry.  A failed compile never wedges the key — one waiter
is promoted to compiler and retries.  Entries live in a count-budgeted
:class:`repro.utils.store.LRUStore`.
"""

from __future__ import annotations

import threading

from repro.obs.metrics import MetricsRegistry, hit_ratio
from repro.relational.codegen import (
    PipelineKernel,
    PipelineSpec,
    compile_pipeline,
)
from repro.utils.store import LRUStore, SingleFlight

DEFAULT_KERNEL_CACHE_CAPACITY = 256


class KernelCache:
    """LRU of :class:`PipelineKernel` with single-flight compilation."""

    #: Fixed edges for the compile-latency histogram: generated-source
    #: ``compile()`` lands in the sub-millisecond buckets.
    COMPILE_BUCKETS = (0.0001, 0.001, 0.01, 0.1, 1.0, 10.0)

    def __init__(self, capacity: int = DEFAULT_KERNEL_CACHE_CAPACITY,
                 registry: MetricsRegistry | None = None) -> None:
        self._entries: LRUStore[str, PipelineKernel] = LRUStore(capacity)
        self._flight: SingleFlight[str, PipelineKernel] = SingleFlight()
        self._lock = threading.Lock()
        registry = registry if registry is not None else MetricsRegistry()
        self._hits = registry.counter(
            "kernel_cache_hits_total", help="compiled-kernel cache hits")
        self._misses = registry.counter(
            "kernel_cache_misses_total", help="compiled-kernel cache misses")
        self._compiles = registry.counter(
            "kernel_cache_compiles_total",
            help="actual compilations (one per distinct key)")
        self._single_flight_waits = registry.counter(
            "kernel_cache_single_flight_waits_total",
            help="misses coalesced onto another thread's compile")
        self._evictions = registry.counter(
            "kernel_cache_evictions_total", help="LRU evictions")
        self._compile_hist = registry.histogram(
            "kernel_compile_seconds", buckets=self.COMPILE_BUCKETS,
            help="wall seconds per compile_pipeline call")
        registry.gauge(
            "kernel_cache_entries", fn=lambda: len(self._entries),
            help="compiled kernels resident")
        registry.gauge(
            "kernel_cache_hit_ratio",
            fn=lambda: hit_ratio(self._hits.value, self._misses.value),
            help="hits / (hits + misses); 0.0 before any probe")

    def get_or_compile(self, fingerprint: str,
                       spec: PipelineSpec) -> tuple[PipelineKernel, bool]:
        """The compiled kernel for ``fingerprint``, compiling on miss.

        Returns ``(kernel, cache_hit)``; ``cache_hit`` is also True for
        threads that coalesced onto another thread's in-flight compile
        (they were served without compiling).
        """
        kernel, compiled = self._flight.fill(
            fingerprint, lambda: self._probe(fingerprint),
            lambda: self._compile(fingerprint, spec),
            on_wait=self._single_flight_waits.inc)
        return kernel, not compiled

    def _probe(self, fingerprint: str) -> PipelineKernel | None:
        with self._lock:
            kernel = self._entries.get(fingerprint)
            if kernel is not None:
                self._hits.inc()
            return kernel

    def _compile(self, fingerprint: str,
                 spec: PipelineSpec) -> PipelineKernel:
        self._misses.inc()
        kernel = compile_pipeline(spec)
        with self._lock:
            self._evictions.inc(len(self._entries.put(fingerprint, kernel)))
            self._compiles.inc()
            self._compile_hist.observe(kernel.compile_seconds)
        return kernel

    def stats(self) -> dict[str, float]:
        """Counters for ``server.metrics()["kernels"]``, read from the
        registered instruments."""
        return {
            "entries": len(self._entries),
            "hits": self._hits.value,
            "misses": self._misses.value,
            "compiles": self._compiles.value,
            "single_flight_waits": self._single_flight_waits.value,
            "evictions": self._evictions.value,
            "compile_seconds": self._compile_hist.sum,
        }
