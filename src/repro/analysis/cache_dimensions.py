"""Declared cache-key dimensions and invalidation protocol.

The engine's caches key on (canonical digest, literals, catalog
version, model, arena generations, table data versions).  Correctness
rests on two disciplines the cache-key lint
(:mod:`repro.analysis.cachekeys`) enforces:

1. every mutation the docs say must bump a version dimension actually
   bumps it (``VERSION_PROTOCOLS``), and nothing outside the owning
   class writes the versioned state (``PROTECTED_STATE``);
2. result-cache keys are captured *once, before probing* and the same
   key object flows to the eventual ``store`` — never re-derived after
   execution, when a concurrent mutation could have changed a
   dimension (``KEY_DISCIPLINES``; the pre-captured-key rule from the
   result-cache PR).
"""

from __future__ import annotations

from repro.analysis.cachekeys import (
    CacheModel, KeyDiscipline, ProtectedState, VersionBump)

PKG = "repro"

VERSION_PROTOCOLS: tuple[VersionBump, ...] = (
    # Catalog.version invalidates plan/result/reuse entries; every
    # mutator must bump it (stats lazily computes once, then bumps).
    VersionBump(owner=f"{PKG}.storage.catalog.Catalog", attr="_version",
                mutators=("register", "drop", "stats"),
                delegates={"refresh_stats": "stats"}),
    # Row mutations bump the per-table data_version instead of the
    # catalog version — the ingest subsystem's precise invalidation
    # dimension (result keys carry (table, data_version) pairs; plans
    # key on schema identity and survive).
    VersionBump(owner=f"{PKG}.storage.catalog.Catalog",
                attr="_data_versions",
                mutators=("append_rows", "replace_rows")),
    # An arena clear draws a fresh generation AND retires the old one
    # so results keyed on the dead arena can never serve again.
    VersionBump(owner=f"{PKG}.semantic.cache.EmbeddingCache",
                attr="generation", mutators=("clear",),
                required_calls={
                    "clear": (("RETIRED_GENERATIONS", "add"),)}),
)

PROTECTED_STATE: tuple[ProtectedState, ...] = (
    ProtectedState(owner=f"{PKG}.storage.catalog.Catalog",
                   attrs=("_tables", "_stats", "_version",
                          "_data_versions")),
    ProtectedState(owner=f"{PKG}.semantic.cache.EmbeddingCache",
                   attrs=("generation",)),
)

KEY_DISCIPLINES: tuple[KeyDiscipline, ...] = (
    # the one statement lifecycle: inline and scheduled statements both
    # capture, probe and store here (the store sits in its run closure)
    KeyDiscipline(function=f"{PKG}.engine.lifecycle.serve_statement",
                  capture="result_key",
                  probes=("fetch_result", "fetch_reuse"),
                  stores=("store_result",)),
)


def engine_cache_model() -> CacheModel:
    # receiver typing reuses the lock checker's attribute->class table
    from repro.analysis.lock_levels import ATTR_TYPES

    return CacheModel(version_protocols=VERSION_PROTOCOLS,
                      protected_state=PROTECTED_STATE,
                      key_disciplines=KEY_DISCIPLINES,
                      attr_types=ATTR_TYPES)
