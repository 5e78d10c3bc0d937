"""Per-model embedding caches for semantic operators.

The semantic plan nodes lower themselves (``LogicalPlan.lower``) and
import this module lazily, so :mod:`repro.relational` never depends on
semantic code at import time.
"""

from __future__ import annotations

import threading

from repro.relational.physical import ExecutionContext
from repro.semantic.cache import EmbeddingCache

#: Guards first-use creation of per-model caches.  The cache dict may be
#: shared by every client session of an :class:`~repro.server.EngineServer`,
#: and two clients missing on the same model concurrently must end up
#: with ONE arena — a lost update here would split the id-space and
#: defeat embedding reuse across clients.  Creation is rare (once per model
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
