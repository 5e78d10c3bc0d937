"""Lowering of semantic logical nodes to physical operators.

Kept in its own module so :mod:`repro.relational.physical` can import it
lazily (relational never depends on semantic at import time).
"""

from __future__ import annotations

import threading

from repro.relational.logical import (
    LogicalPlan,
    SemanticFilterNode,
    SemanticGroupByNode,
    SemanticJoinNode,
    SemanticSemiFilterNode,
)
from repro.relational.physical import ExecutionContext, PhysicalOperator
from repro.semantic.cache import EmbeddingCache
from repro.semantic.operators import (
    SemanticFilterOp,
    SemanticGroupByOp,
    SemanticJoinOp,
    SemanticSemiFilterOp,
)

#: Default physical strategy when the optimizer left no hint.
DEFAULT_JOIN_METHOD = "blocked"

#: Guards first-use creation of per-model caches.  The cache dict may be
#: shared by every client session of an :class:`~repro.server.EngineServer`,
#: and two clients missing on the same model concurrently must end up
#: with ONE arena — a lost update here would split the id-space and
#: defeat index reuse across clients.  Creation is rare (once per model
#: per server), so a process-wide mutex costs nothing.
_CACHE_CREATE_LOCK = threading.Lock()


def cache_for(context: ExecutionContext, model_name: str) -> EmbeddingCache:
    """Session-lifetime embedding cache per model (double-checked)."""
    if context.embedding_cache is None:
        context.embedding_cache = {}
    caches: dict = context.embedding_cache  # type: ignore[assignment]
    cache = caches.get(model_name)
    if cache is None:
        created = False
        with _CACHE_CREATE_LOCK:
            cache = caches.get(model_name)
            if cache is None:
                cache = EmbeddingCache(context.model(model_name))
                caches[model_name] = cache
                created = True
        # register OUTSIDE the creation latch: registration takes the
        # level-4 registry lock, and holding two level-4 locks would
        # add a same-level edge for no benefit (gauge registration is
        # idempotent, so a racing duplicate is harmless).
        if created and context.metrics_registry is not None:
            cache.register_metrics(context.metrics_registry)
    return cache


def build_semantic_physical(plan: LogicalPlan, context: ExecutionContext,
                            recurse) -> PhysicalOperator:
    """Lower one semantic node (children lowered via ``recurse``)."""
    if isinstance(plan, SemanticFilterNode):
        child = recurse(plan.child, context)
        cache = cache_for(context, plan.model_name)
        return SemanticFilterOp(child, plan.column, plan.probe, cache,
                                plan.threshold, plan.score_alias,
                                plan.schema, mode=plan.mode)
    if isinstance(plan, SemanticJoinNode):
        left = recurse(plan.left, context)
        right = recurse(plan.right, context)
        cache = cache_for(context, plan.model_name)
        method = plan.hints.get("method", DEFAULT_JOIN_METHOD)
        if context.index_cache is None:
            from repro.semantic.index_cache import IndexCache

            # double-checked for the same reason as cache_for: contexts
            # sharing one index cache must not lose it to a racing create
            with _CACHE_CREATE_LOCK:
                if context.index_cache is None:
                    context.index_cache = IndexCache()
        return SemanticJoinOp(left, right, plan.left_column,
                              plan.right_column, cache, plan.threshold,
                              plan.score_alias, plan.schema, method=method,
                              top_k=plan.top_k,
                              index_cache=context.index_cache,
                              aux_alias=plan.aux_alias)
    if isinstance(plan, SemanticGroupByNode):
        child = recurse(plan.child, context)
        cache = cache_for(context, plan.model_name)
        return SemanticGroupByOp(child, plan.column, cache, plan.threshold,
                                 plan.cluster_alias,
                                 plan.representative_alias, plan.schema)
    if isinstance(plan, SemanticSemiFilterNode):
        child = recurse(plan.child, context)
        cache = cache_for(context, plan.model_name)
        return SemanticSemiFilterOp(child, plan.column, plan.probes, cache,
                                    plan.threshold, plan.schema)
    raise TypeError(f"not a semantic node: {type(plan).__name__}")
