"""Catalog: name -> table (+ cached statistics) within a session.

The catalog is shared state under the serving layer — many client
sessions read it concurrently while ``register_table`` / ``drop`` /
statistics refreshes mutate it — so every public method is serialized
on an internal reentrant mutex, and every mutation that can change what
the optimizer would produce bumps a monotonically increasing
**version**.  The plan cache keys cached plans on this version: a bump
is the invalidation signal, so stale plans age out without the catalog
knowing the plan cache exists.

Version-bumping events:

- ``register`` (new table *or* replacement of an existing name),
- ``drop``,
- statistics (re)computation — first lazy computation included, since
  fresh statistics change cardinality estimates and therefore the plan
  the optimizer would pick for the same SQL text.

**Data versions** (the ingest split, ``docs/ingest.md``): appends and
upserts change *rows*, never the schema, so they bump a per-table
``data_version`` instead of :attr:`version`.  Plan- and kernel-cache
entries key on schema identity only and survive; the result cache keys
on ``(table, data_version)`` pairs and invalidates (or delta-patches)
exactly the entries that read the mutated table.  The rows themselves
grow in O(delta): :meth:`Catalog.append_rows` writes the delta into the
spare capacity of the table's growth buffer (:meth:`Table.append`), so
the table handed out before the append stays a valid, shorter view
and nothing copies the old rows.  Statistics that were
already computed are refreshed **in place** — merged forward from the
delta in O(delta) on append (:func:`merge_table_stats`), recomputed on
replace — *without* a version bump: a plan optimized against slightly older
row counts is still a valid plan (estimates drift, correctness does
not), whereas the lazy drop-and-recompute alternative would bump
:attr:`version` at the next planning call and silently nuke every
plan- and result-cache entry — defeating the precise invalidation the
data_version exists for.  Statistics never computed stay uncomputed
(the first ``stats()`` call still bumps, as always: plans cached
before any statistics existed must not be served after).
"""

from __future__ import annotations

import threading

from repro.errors import CatalogError
from repro.storage.statistics import (
    TableStats, compute_table_stats, merge_table_stats)
from repro.storage.table import Table


class Catalog:
    """Tables and their statistics, keyed by name."""

    def __init__(self):
        self._tables: dict[str, Table] = {}
        self._stats: dict[str, TableStats] = {}
        self._version = 0
        #: name -> monotonic row-data version (never reset, even across
        #: a drop + re-register: keys derived from an old incarnation
        #: must not collide with the new one).
        self._data_versions: dict[str, int] = {}
        self._lock = threading.RLock()

    @property
    def version(self) -> int:
        """Monotonic counter of schema/statistics changes.

        Consumers that cache anything derived from catalog contents
        (bound plans, cardinality estimates) include this in their cache
        key; any registration, drop, or statistics refresh bumps it.
        """
        with self._lock:
            return self._version

    def register(self, name: str, table: Table, replace: bool = False) -> None:
        with self._lock:
            if name in self._tables and not replace:
                raise CatalogError(f"table {name!r} already registered")
            self._tables[name] = table
            self._stats.pop(name, None)
            self._version += 1

    def data_version(self, name: str) -> int:
        """Monotonic per-table row-data version (0 until first mutation).

        Bumped by :meth:`append_rows` / :meth:`replace_rows` — never by
        ``register``/``drop``, whose schema-identity changes bump
        :attr:`version` instead and already invalidate everything.
        """
        with self._lock:
            return self._data_versions.get(name, 0)

    def append_rows(self, name: str, delta: Table) -> int:
        """Append ``delta``'s rows to ``name``; returns the new
        data_version.

        A pure row append in O(delta): the schema must match exactly,
        the rows are written into the table's growth buffer
        (:meth:`Table.append`; the table handed out before stays a valid
        shorter view, and the old rows are not copied), the catalog
        version does **not** move (plans stay valid), statistics are
        folded forward in place when present — an O(delta) merge, not a
        rescan (see the module docstring for why that must not bump the
        version) — and the per-table data_version bumps so row-keyed
        caches can invalidate or patch precisely.
        """
        with self._lock:
            base = self.get(name)
            _check_same_schema(name, base, delta)
            grown = base.append(delta)
            self._tables[name] = grown
            if name in self._stats:
                self._stats[name] = merge_table_stats(self._stats[name],
                                                      delta)
            versions = dict(self._data_versions)
            versions[name] = versions.get(name, 0) + 1
            self._data_versions = versions
            return versions[name]

    def replace_rows(self, name: str, table: Table) -> int:
        """Replace ``name``'s rows with ``table`` (same schema); returns
        the new data_version.

        The upsert path: in-place row updates are not append-monotone,
        so callers treat the bump as a targeted invalidation signal for
        every cache entry that read the table — but, like
        :meth:`append_rows`, the schema identity and therefore the
        catalog version (and all plans) survive.
        """
        with self._lock:
            base = self.get(name)
            _check_same_schema(name, base, table)
            self._tables[name] = table
            if name in self._stats:
                self._stats[name] = compute_table_stats(table)
            versions = dict(self._data_versions)
            versions[name] = versions.get(name, 0) + 1
            self._data_versions = versions
            return versions[name]

    def get(self, name: str) -> Table:
        with self._lock:
            try:
                return self._tables[name]
            except KeyError:
                known = ", ".join(sorted(self._tables)) or "<none>"
                raise CatalogError(
                    f"unknown table {name!r}; registered tables: {known}"
                ) from None

    def drop(self, name: str) -> None:
        with self._lock:
            if name not in self._tables:
                raise CatalogError(f"cannot drop unknown table {name!r}")
            del self._tables[name]
            self._stats.pop(name, None)
            self._version += 1

    def stats(self, name: str) -> TableStats:
        """Statistics for ``name``, computed on first request and cached.

        The first computation bumps :attr:`version`: statistics change
        the optimizer's estimates, so plans cached before stats existed
        must not be served afterwards.
        """
        with self._lock:
            if name not in self._stats:
                self._stats[name] = compute_table_stats(self.get(name))
                self._version += 1
            return self._stats[name]

    def refresh_stats(self, name: str) -> TableStats:
        """Force statistics recomputation for ``name`` (version bump)."""
        with self._lock:
            self._stats.pop(name, None)
            return self.stats(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._tables)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._tables

    def __len__(self) -> int:
        with self._lock:
            return len(self._tables)


def _check_same_schema(name: str, base: Table, incoming: Table) -> None:
    base_shape = [(f.name, f.dtype) for f in base.schema.fields]
    new_shape = [(f.name, f.dtype) for f in incoming.schema.fields]
    if base_shape != new_shape:
        raise CatalogError(
            f"row mutation of {name!r} must preserve the schema: "
            f"table has {base_shape}, incoming rows have {new_shape}; "
            f"schema changes go through register(replace=True)")
