"""The ingest front door: append/upsert with delta-maintained caches.

Row mutations used to be impossible without nuking every cache through
``Catalog.register(replace=True)`` (a catalog-version bump invalidates
plans, results, and reuse entries engine-wide).  The
:class:`IngestManager` gives the engine a second, *precise* invalidation
dimension — the per-table ``data_version`` — and spends it carefully:

- the **plan cache** and **kernel cache** key on the catalog version and
  structural fingerprints, neither of which an append changes, so they
  survive untouched (asserted by the ingest benchmark's hit-rate gate).
  The one exception: plans containing data-induced predicates
  (:class:`SemanticSemiFilterNode` — their probe sets were derived from
  the *old* rows) are dropped via :meth:`PlanCache.drop_if`;
- **result-cache / reuse entries** over the mutated table are patched in
  place when :func:`repro.ingest.delta.classify_plan` proves the plan
  append-monotone — the original plan is re-executed over *only* the new
  rows (against a private shim catalog) and merged bit-identically —
  and otherwise die at the table-version watermark
  (:meth:`ResultCache.advance_table_version`).  Never served stale:
  every key carries ``(table, data_version)`` pairs;
- **embedding arenas and vector indexes** need no action here: arenas
  are append-only interning stores, and the index cache grows an
  existing index when a new id set extends the old one as a sorted
  prefix (see :meth:`IndexCache.get_for_ids`).

Locking: ``IngestManager._lock`` is level 0 — the outermost lock in the
engine hierarchy (``repro.analysis.lock_levels``).  Holding it, the
maintenance path acquires the plan cache (1), model read stripes (2),
the catalog (3), and leaf instruments (4), all strictly downward.  One
mutation runs at a time per engine state; queries are never blocked
(they take none of this — the result cache's own watermark provides
the consistency story).
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from threading import Lock
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.engine.result_cache import ResultKey
from repro.errors import CatalogError
from repro.ingest.delta import DeltaRefused, apply_delta, classify_plan
from repro.relational.physical import execute_plan
from repro.storage.catalog import Catalog
from repro.storage.table import Table

if TYPE_CHECKING:
    from repro.engine.state import EngineState
    from repro.obs.metrics import Gauge

RowBatch = "list[dict[str, Any]] | Table"


@dataclass(frozen=True)
class IngestReport:
    """What one append/upsert did to the engine's caches.

    ``maintained`` entries were patched bit-identically from the delta;
    ``refused`` entries failed an append-monotonicity proof (per-reason
    tallies in ``refusals``) and were invalidated instead — by the
    table-version watermark, so they can never serve stale rows.
    """

    table: str
    mode: str                       # "append" | "upsert"
    rows_inserted: int
    rows_updated: int
    data_version: int
    entries_seen: int
    maintained: int
    refused: int
    refusals: dict[str, int] = field(default_factory=dict)
    plans_dropped: int = 0
    staleness_seconds: float = 0.0


class IngestManager:
    """Serialized append/upsert path over one :class:`EngineState`."""

    def __init__(self, state: "EngineState") -> None:
        self._state = state
        # level 0: outermost in the engine lock hierarchy — see
        # repro.analysis.lock_levels
        self._lock = Lock()
        self._staleness_gauges: dict[str, "Gauge"] = {}
        self._rows_total = 0
        self._maintained_total = 0
        self._refused_total = 0
        self._refusal_reasons: dict[str, int] = {}
        registry = state.metrics_registry
        self._rows_counter = registry.counter(
            "ingest_rows_total",
            help="rows written through append/upsert")
        self._maintained_counter = registry.counter(
            "ingest_delta_maintained_total",
            help="cached results patched in place from an append delta")
        self._refused_counter = registry.counter(
            "ingest_delta_refused_total",
            help="cached results that failed an append-monotonicity "
                 "proof and were invalidated instead")

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def append(self, table: str, rows: Any) -> IngestReport:
        """Append ``rows`` (row dicts or a same-schema :class:`Table`).

        Bumps only the table's ``data_version`` — the catalog version,
        and with it every plan- and kernel-cache entry, is untouched.
        Cached results over the table are delta-maintained or precisely
        invalidated; see the module docstring for the full contract.
        """
        started = time.perf_counter()
        with self._lock:
            base = self._state.catalog.get(table)
            delta = self._coerce_rows(base, rows)
            if delta.num_rows == 0:
                return IngestReport(
                    table=table, mode="append", rows_inserted=0,
                    rows_updated=0,
                    data_version=self._state.catalog.data_version(table),
                    entries_seen=0, maintained=0, refused=0)
            report = self._append_locked(table, delta, started)
        return report

    def upsert(self, table: str, rows: Any, key: str) -> IngestReport:
        """Insert-or-replace ``rows`` by the ``key`` column.

        Rows whose key matches an existing row replace it in place; the
        rest append.  Any in-place replacement makes old cached outputs
        unrecoverable (replaced values may have already contributed), so
        the update path falls back to targeted invalidation — still
        scoped to this one table's ``data_version``, never the catalog
        version.  A batch with no key collisions takes the full
        delta-maintenance append path.
        """
        started = time.perf_counter()
        with self._lock:
            base = self._state.catalog.get(table)
            if key not in base.schema:
                raise CatalogError(
                    f"upsert key {key!r} not in table {table!r} "
                    f"columns {base.schema.names}")
            delta = self._coerce_rows(base, rows)
            if delta.num_rows == 0:
                return IngestReport(
                    table=table, mode="upsert", rows_inserted=0,
                    rows_updated=0,
                    data_version=self._state.catalog.data_version(table),
                    entries_seen=0, maintained=0, refused=0)
            positions = {value: index for index, value
                         in enumerate(base.column(key))}
            hits = np.asarray([value in positions
                               for value in delta.column(key)], dtype=bool)
            if not hits.any():
                report = self._append_locked(table, delta, started,
                                             mode="upsert")
            else:
                report = self._replace_locked(
                    table, base, delta, key, positions, hits, started)
        return report

    def stats(self) -> dict[str, Any]:
        """Lifetime ingest counters (one consistent snapshot)."""
        with self._lock:
            return {
                "rows_total": self._rows_total,
                "delta_maintained_total": self._maintained_total,
                "delta_refused_total": self._refused_total,
                "refusal_reasons": dict(self._refusal_reasons),
            }

    # ------------------------------------------------------------------
    # Append path: delta maintenance
    # ------------------------------------------------------------------
    def _append_locked(self, table: str, delta: Table, started: float,
                       mode: str = "append") -> IngestReport:
        state = self._state
        # 1. snapshot the entries to maintain BEFORE the version bump:
        #    advance_table_version sweeps them, and the patch path needs
        #    their pre-append contents.
        entries: list[tuple[ResultKey, Table, tuple[str, ...]]] = []
        if state.result_cache is not None:
            entries = state.result_cache.entries_for_table(table)
        # 2. grow the table; only its data_version moves.
        new_version = state.catalog.append_rows(table, delta)
        # 3. data-induced-predicate plans derived their probe sets from
        #    the old rows — unsound for the delta; drop them.  Every
        #    other plan survives (keyed on the unchanged catalog
        #    version).
        plans_dropped = state.plan_cache.drop_if(
            lambda entry: table in entry.plan.tables
            and not _dip_free(entry.plan))
        # 4. advance the watermark: every cached result over the table
        #    is now dead (including the ones about to be re-stored
        #    patched under the new version) — stale serving is
        #    impossible from this point on.
        if state.result_cache is not None:
            state.result_cache.advance_table_version(table, new_version)
        # 5. patch what can be proven, count what cannot.
        maintained = 0
        refusals: dict[str, int] = {}
        for key, snapshot, aux_names in entries:
            reason = self._maintain_entry(table, key, snapshot, aux_names,
                                          delta, new_version)
            if reason is None:
                maintained += 1
            else:
                refusals[reason] = refusals.get(reason, 0) + 1
        refused = sum(refusals.values())
        self._record(table, delta.num_rows, maintained, refused, refusals,
                     started)
        return IngestReport(
            table=table, mode=mode, rows_inserted=delta.num_rows,
            rows_updated=0, data_version=new_version,
            entries_seen=len(entries), maintained=maintained,
            refused=refused, refusals=refusals,
            plans_dropped=plans_dropped,
            staleness_seconds=time.perf_counter() - started)

    def _maintain_entry(self, table: str, key: ResultKey, snapshot: Table,
                        aux_names: tuple[str, ...], delta: Table,
                        new_version: int) -> str | None:
        """Patch one cached result from the delta; a reason string on
        refusal, ``None`` on success."""
        state = self._state
        cached_plan = state.plan_cache.peek(
            key.digest, key.parameters, key.catalog_version,
            key.model_name)
        if cached_plan is None:
            # the optimized plan was evicted (or dropped as DIP-tainted
            # in this very mutation); nothing to re-execute the delta
            # through
            return "plan-evicted"
        if key.index_generation != state.index_cache.generation:
            return "index-generation-moved"
        for name, generation in key.arena_generations:
            cache = state.embedding_caches.get(name)
            if cache is None or cache.generation != generation:
                return "arena-generation-moved"
        plan = cached_plan.plan
        try:
            spec = classify_plan(plan, table)
            delta_out = self._execute_over_delta(plan, table, delta)
            patched = apply_delta(spec, snapshot, delta_out)
        except DeltaRefused as refusal:
            return refusal.reason
        new_key = key._replace(table_versions=tuple(
            (name, new_version if name == table else version)
            for name, version in key.table_versions))
        assert state.result_cache is not None
        stored = state.result_cache.put(new_key, patched,
                                        aux_names=aux_names)
        if not stored:
            return "store-rejected"
        reuse = cached_plan.reuse
        if reuse is not None and reuse.eligible \
                and state.reuse_registry is not None:
            from repro.reuse.analysis import describe_plan
            from repro.reuse.registry import ReuseEntry

            state.reuse_registry.register(ReuseEntry(
                key=new_key, spec=reuse, shape=describe_plan(plan),
                rows=patched.num_rows,
                columns=tuple(patched.schema.names)))
        return None

    def _execute_over_delta(self, plan: Any, table: str,
                            delta: Table) -> Table:
        """Run the original optimized plan over only the new rows.

        The plan executes against a private shim catalog holding the
        delta under the table's name, while sharing every model-side
        cache with the engine (arenas intern the delta's strings once,
        the index cache may extend, compiled kernels hit).  Model read
        stripes are held for the duration — the same discipline as a
        real execution, so an arena clear cannot race the gather.
        """
        state = self._state
        shim = Catalog()
        shim.register(table, delta)
        context = replace(state.make_context(), catalog=shim)
        with ExitStack() as stack:
            for stripe in state.model_locks.stripes_for(plan.models):
                stack.enter_context(stripe.read())
            return execute_plan(plan, context)

    # ------------------------------------------------------------------
    # Upsert replace path: targeted invalidation
    # ------------------------------------------------------------------
    def _replace_locked(self, table: str, base: Table, delta: Table,
                        key: str, positions: dict[Any, int],
                        hits: np.ndarray[Any, np.dtype[Any]],
                        started: float) -> IngestReport:
        state = self._state
        updates = int(hits.sum())
        inserts = delta.num_rows - updates
        columns: dict[str, np.ndarray[Any, np.dtype[Any]]] = {
            name: base.column(name).copy() for name in base.schema.names}
        insert_rows: list[int] = []
        for row in range(delta.num_rows):
            if hits[row]:
                target = positions[delta.column(key)[row]]
                for name in base.schema.names:
                    columns[name][target] = delta.column(name)[row]
            else:
                insert_rows.append(row)
        replaced = Table(base.schema, columns)
        if insert_rows:
            tail = delta.take(np.asarray(insert_rows, dtype=np.int64))
            replaced = Table.concat([replaced, tail])
        new_version = state.catalog.replace_rows(table, replaced)
        # in-place updates may retract values already folded into any
        # cached output — no merge can recover that, so: targeted
        # invalidation (this table only), plus the same DIP plan drop.
        plans_dropped = state.plan_cache.drop_if(
            lambda entry: table in entry.plan.tables
            and not _dip_free(entry.plan))
        entries_seen = 0
        if state.result_cache is not None:
            entries_seen = len(state.result_cache.entries_for_table(table))
            state.result_cache.advance_table_version(table, new_version)
        refusals = {"in-place-update": entries_seen} if entries_seen else {}
        self._record(table, delta.num_rows, 0, entries_seen, refusals,
                     started)
        return IngestReport(
            table=table, mode="upsert", rows_inserted=inserts,
            rows_updated=updates, data_version=new_version,
            entries_seen=entries_seen, maintained=0,
            refused=entries_seen, refusals=refusals,
            plans_dropped=plans_dropped,
            staleness_seconds=time.perf_counter() - started)

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce_rows(base: Table, rows: Any) -> Table:
        """Row dicts or a Table -> a delta Table in the base schema."""
        if isinstance(rows, Table):
            if [(f.name, f.dtype) for f in rows.schema.fields] \
                    != [(f.name, f.dtype) for f in base.schema.fields]:
                raise CatalogError(
                    f"delta schema {rows.schema!r} does not match "
                    f"table schema {base.schema!r}")
            return rows
        rows = list(rows)
        for row in rows:
            missing = [name for name in base.schema.names
                       if name not in row]
            if missing:
                raise CatalogError(
                    f"ingest row missing columns {missing}")
        return Table.from_rows(rows, base.schema)

    def _record(self, table: str, rows: int, maintained: int,
                refused: int, refusals: dict[str, int],
                started: float) -> None:
        self._rows_total += rows
        self._maintained_total += maintained
        self._refused_total += refused
        for reason, count in refusals.items():
            self._refusal_reasons[reason] = \
                self._refusal_reasons.get(reason, 0) + count
        self._rows_counter.inc(rows)
        if maintained:
            self._maintained_counter.inc(maintained)
        if refused:
            self._refused_counter.inc(refused)
        gauge = self._staleness_gauges.get(table)
        if gauge is None:
            registry = self._state.metrics_registry
            gauge = registry.gauge(
                "ingest_table_staleness_seconds",
                labels={"table": table},
                help="wall seconds from mutation start until every "
                     "cache over the table was patched or invalidated")
            self._staleness_gauges[table] = gauge
        gauge.set(time.perf_counter() - started)


def _dip_free(plan: Any) -> bool:
    from repro.reuse.analysis import describe_plan

    return describe_plan(plan).dip_free
