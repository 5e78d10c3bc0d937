"""The engine's declared metric-name vocabulary.

Every literal name passed to ``MetricsRegistry.counter/gauge/histogram``
anywhere in the engine must be declared here, with its kind — the
metric-name lint (:mod:`repro.analysis.metricnames`) enforces it in
both directions (rules MN001/MN002), so ``docs/observability.md``'s
metric catalog, this table, and the registrations in the source cannot
drift apart.  Names follow Prometheus conventions: ``_total`` suffix
for counters, ``_seconds``/``_bytes`` units, base names for gauges.
"""

from __future__ import annotations

from repro.analysis.metricnames import MetricDecl, MetricNamesModel

DECLARED_METRICS: tuple[MetricDecl, ...] = (
    # -- engine-wide (EngineState / Tracer) ----------------------------
    MetricDecl("engine_statements_total", "counter",
               "statements served (all paths)"),
    MetricDecl("engine_statement_seconds", "histogram",
               "end-to-end wall seconds per executed statement"),
    MetricDecl("engine_operator_seconds", "histogram",
               "wall seconds per physical operator"),
    MetricDecl("engine_traces_total", "counter",
               "statement traces sampled and completed"),
    MetricDecl("catalog_version", "gauge",
               "monotonic catalog/statistics version"),
    # -- plan cache ----------------------------------------------------
    MetricDecl("plan_cache_hits_total", "counter", "plan cache hits"),
    MetricDecl("plan_cache_misses_total", "counter", "plan cache misses"),
    MetricDecl("plan_cache_text_memo_hits_total", "counter",
               "byte-identical statement texts that skipped the lexer"),
    MetricDecl("plan_cache_evictions_total", "counter", "LRU evictions"),
    MetricDecl("plan_cache_stale_evictions_total", "counter",
               "entries dropped on version/model mismatch"),
    MetricDecl("plan_cache_entries", "gauge", "cached plans resident"),
    MetricDecl("plan_cache_hit_ratio", "gauge",
               "hits / (hits + misses)"),
    MetricDecl("plan_cache_generic_hits_total", "counter",
               "statements served from a promoted generic plan"),
    MetricDecl("plan_cache_promotions_total", "counter",
               "families promoted to a generic plan"),
    MetricDecl("plan_cache_demotions_total", "counter",
               "generic plans dropped after a fingerprint mismatch"),
    MetricDecl("plan_cache_generic_rechecks_total", "counter",
               "generic serves diverted through full optimization"),
    MetricDecl("plan_cache_generic_entries", "gauge",
               "promoted generic plans resident"),
    MetricDecl("plan_cache_promotion_refusals_total", "counter",
               "observed exemplars that did not promote their family, "
               "by reason"),
    # -- optimizer -----------------------------------------------------
    MetricDecl("optimizer_rewrite_nonconvergence_total", "counter",
               "rewrite fixpoints that hit max_passes still firing"),
    # -- result cache --------------------------------------------------
    MetricDecl("result_cache_hits_total", "counter", "result cache hits"),
    MetricDecl("result_cache_misses_total", "counter",
               "result cache misses"),
    MetricDecl("result_cache_puts_total", "counter",
               "result snapshots stored"),
    MetricDecl("result_cache_evictions_total", "counter",
               "byte-budget evictions"),
    MetricDecl("result_cache_stale_evictions_total", "counter",
               "entries dropped on generation mismatch"),
    MetricDecl("result_cache_invalidations_total", "counter",
               "entries dropped by explicit invalidate()"),
    MetricDecl("result_cache_oversize_skips_total", "counter",
               "results too large to admit"),
    MetricDecl("result_cache_reuse_fetches_total", "counter",
               "snapshot fetches on behalf of the reuse subsystem"),
    MetricDecl("result_cache_entries", "gauge",
               "cached result snapshots resident"),
    MetricDecl("result_cache_bytes", "gauge", "snapshot bytes resident"),
    MetricDecl("result_cache_hit_ratio", "gauge",
               "hits / (hits + misses)"),
    # -- semantic reuse (entries live in the result cache) ------------
    MetricDecl("reuse_registered_total", "counter",
               "cached statements registered as reuse candidates"),
    MetricDecl("reuse_probes_total", "counter", "subsumption probes"),
    MetricDecl("reuse_hits_total", "counter",
               "statements answered residually from a super-result"),
    MetricDecl("reuse_misses_total", "counter",
               "probes with no containing candidate"),
    MetricDecl("reuse_fallbacks_total", "counter",
               "containment held but a guard forced normal execution"),
    MetricDecl("reuse_entries", "gauge",
               "reuse-eligible result-cache entries resident"),
    MetricDecl("reuse_families", "gauge",
               "distinct containment families among them"),
    MetricDecl("reuse_hit_ratio", "gauge", "hits / probes"),
    # -- scheduler -----------------------------------------------------
    MetricDecl("scheduler_dispatches_total", "counter",
               "queries handed to the admission classifier"),
    MetricDecl("scheduler_admitted_total", "counter", "queries admitted"),
    MetricDecl("scheduler_rejected_total", "counter",
               "queries rejected at admission"),
    MetricDecl("scheduler_result_cache_noops_total", "counter",
               "result-cache hits recorded as interactive no-ops"),
    MetricDecl("scheduler_reuse_noops_total", "counter",
               "reuse hits recorded as interactive no-ops"),
    MetricDecl("scheduler_running", "gauge", "queries executing now"),
    MetricDecl("scheduler_queued", "gauge",
               "queries waiting, per lane label"),
    MetricDecl("scheduler_queue_wait_seconds", "histogram",
               "seconds from admission to worker pickup"),
    # -- embedding arenas (per-model label) ----------------------------
    MetricDecl("embedding_arena_hits", "gauge", "embedding cache hits"),
    MetricDecl("embedding_arena_misses", "gauge",
               "embedding cache misses"),
    MetricDecl("embedding_arena_rows", "gauge",
               "interned strings (arena rows)"),
    MetricDecl("embedding_arena_bytes", "gauge", "arena bytes in use"),
    MetricDecl("embedding_arena_hit_ratio", "gauge",
               "hits / (hits + misses)"),
    # -- ingest --------------------------------------------------------
    MetricDecl("ingest_rows_total", "counter",
               "rows written through append/upsert"),
    MetricDecl("ingest_delta_maintained_total", "counter",
               "cached results patched in place from an append delta"),
    MetricDecl("ingest_delta_refused_total", "counter",
               "cached results invalidated after a refused "
               "append-monotonicity proof"),
    MetricDecl("ingest_table_staleness_seconds", "gauge",
               "wall seconds from mutation start until every cache "
               "over the table was patched or invalidated"),
)


def engine_metric_names_model() -> MetricNamesModel:
    return MetricNamesModel(
        declarations=DECLARED_METRICS,
        declaration_module="repro.analysis.metric_names",
    )
