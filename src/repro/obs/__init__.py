"""Observability substrate: metrics registry, span tracer, exporters.

One statement, one story.  Every serving layer reports into the same
two structures — a :class:`~repro.obs.metrics.MetricsRegistry` of typed
instruments (counters, gauges, fixed-bucket histograms) and a
hierarchical :class:`~repro.obs.trace.Trace` of spans — so the three
reporting surfaces (``EngineServer.metrics()``, the Prometheus/JSON
exporters, and EXPLAIN ANALYZE / ``QueryProfile.pretty()``) cannot
disagree: they all render the same instruments and the same span tree.

See ``docs/observability.md`` for the span taxonomy and the metric
catalog; ``analysis/metric_names.py`` is the machine-checked half of
that catalog (rules MN001–MN003).
"""

from repro.obs.export import json_snapshot, parse_prometheus, prometheus_text
from repro.obs.metrics import (
    Counter, Gauge, Histogram, MetricsRegistry, hit_ratio)
from repro.obs.trace import (
    NULL_SPAN, NULL_TRACE, Span, Trace, Tracer, attach_profile_spans)

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "hit_ratio",
    "NULL_SPAN", "NULL_TRACE", "Span", "Trace", "Tracer",
    "attach_profile_spans",
    "json_snapshot", "parse_prometheus", "prometheus_text",
]
