"""The four end-to-end workloads: seeded data plus a full operation list.

Every workload is a pure function of ``(seed, scale)``: the tables, the
warm-up operations and the timed operation list are all generated up
front, before any engine exists, so the engine only ever receives
generated inputs.  Why these four (one mechanism each, and for every
cache or kernel one workload that uses it and one that bypasses it):

- ``retail_adhoc``       planning + operators; caches can only cost
- ``retail_dashboard``   memo / result cache / reuse; working set > cache
- ``wiki_cold_semantic`` embedding + index + similarity kernels, cold
- ``logs_stream``        appends beside reads; cached set fits the budget

Literals are drawn *stratified* (a seeded permutation of evenly spaced
quantiles, jittered inside each stratum), and families are dealt in
shuffled rounds: two seeds then see the same distribution of statement
costs in a different order, which is what keeps p50/p95/throughput
comparable across seeds while exact repeats stay below 1 %.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.storage.types import date_to_int, int_to_date
from repro.utils.rng import derive_seed, make_rng
from repro.workloads.logs import StreamingLogSource, build_log_model
from repro.workloads.retail import RetailWorkload
from repro.workloads.wiki_strings import WikiStringWorkload

WORKLOADS = ("retail_adhoc", "retail_dashboard", "wiki_cold_semantic",
             "logs_stream")

#: Data sizes.  ``paper`` is what BENCHMARK.json measures; ``smoke`` is
#: the same code path small enough for the tier-1 test run.
SCALES = {
    "paper": dict(
        retail=dict(n_products=5_000, n_users=1_000,
                    n_transactions=20_000, n_images=2_000),
        # six statements per family: past the generic-plan promotion
        # threshold, so the timed phase sees the steady state
        adhoc_warmup_per_family=6, adhoc_ops=12_000,
        dashboard_ops=60_000, panel=46,
        wiki_rows=240_000, wiki_slice_rows=250, wiki_pregrow_rows=40_000,
        wiki_warmup_rounds=3,
        log_initial=50_000, log_batch=250, log_steps=1_200,
        probe_strings=5_000, probe_vectors=10_000,
        probe_hnsw_vectors=1_000,
        # operations the *count* metrics cover (reached well inside the
        # real-path phase on this box; a slower box just runs past it)
        count_ops=dict(retail_adhoc=600, retail_dashboard=4_000,
                       wiki_cold_semantic=100, logs_stream=1_000),
        # operations the verify replay checks; a cold wiki statement
        # costs the oracle what it costs the engine, hence fewer
        verify_ops=dict(retail_adhoc=200, retail_dashboard=200,
                        wiki_cold_semantic=25, logs_stream=240)),
    "smoke": dict(
        retail=dict(n_products=150, n_users=40,
                    n_transactions=400, n_images=60),
        adhoc_warmup_per_family=1, adhoc_ops=36, dashboard_ops=100,
        panel=10,
        wiki_rows=600, wiki_slice_rows=30, wiki_pregrow_rows=60,
        wiki_warmup_rounds=1,
        log_initial=400, log_batch=20, log_steps=6,
        probe_strings=100, probe_vectors=200, probe_hnsw_vectors=50,
        count_ops=dict(retail_adhoc=9, retail_dashboard=30,
                       wiki_cold_semantic=5, logs_stream=12),
        verify_ops=dict(retail_adhoc=18, retail_dashboard=30,
                        wiki_cold_semantic=5, logs_stream=12)),
}


@dataclass(frozen=True)
class Op:
    """One client operation: a SQL statement or an append batch."""

    kind: str                    # "sql" | "append"
    family: str                  # statement family (report grouping)
    text: str = ""               # SQL text (kind == "sql")
    table: str = ""              # append target (kind == "append")
    rows: Table | None = None    # append batch (kind == "append")


@dataclass
class Workload:
    """Generated inputs of one run."""

    name: str
    #: Registered in this order, statistics computed right after.
    tables: dict[str, Table]
    #: Extra embedding models, each registered as the default model.
    models: list = field(default_factory=list)
    #: Untimed operations that let caches fill and lazy set-up finish.
    warmup: list[Op] = field(default_factory=list)
    #: The timed operation list, in client order.
    ops: list[Op] = field(default_factory=list)
    #: Seconds spent generating all of the above.
    generate_s: float = 0.0
    #: Strings of the workload's own text columns (leaf probes).
    strings: list[str] = field(default_factory=list)

    def install(self, engine) -> None:
        """Register models and tables into a server or a session."""
        for model in self.models:
            engine.register_model(model, default=True)
        for name, table in self.tables.items():
            engine.register_table(name, table)


def build_workload(name: str, seed: int, scale: str = "paper") -> Workload:
    """Generate ``name``'s data and operation list from ``seed``."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; one of {WORKLOADS}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; one of {tuple(SCALES)}")
    started = time.perf_counter()
    workload = _BUILDERS[name](seed, SCALES[scale])
    workload.generate_s = time.perf_counter() - started
    return workload


# ----------------------------------------------------------------------
# Seeded literal streams
# ----------------------------------------------------------------------
def _stratified(rng: np.random.Generator, strata: int):
    """Endless values in (0, 1): every run of ``strata`` consecutive
    draws covers the unit interval evenly, in seeded order."""
    while True:
        for stratum in rng.permutation(strata):
            yield (int(stratum) + float(rng.uniform(0.02, 0.98))) / strata


class _Literals:
    """Stratified literal draws for one workload (see module docstring);
    each named stream is independent of how often the others are read."""

    def __init__(self, seed: int, *path: str | int, strata: int = 512):
        self._seed = derive_seed(seed, *path)
        self._strata = strata
        self._streams: dict = {}

    def quantile(self, stream: str) -> float:
        if stream not in self._streams:
            self._streams[stream] = _stratified(
                make_rng(derive_seed(self._seed, stream)), self._strata)
        return next(self._streams[stream])

    def price(self, stream: str, low: float = 5.0,
              high: float = 195.0) -> str:
        return f"{low + self.quantile(stream) * (high - low):.2f}"

    def date(self, stream: str, low: str = "2022-01-15",
             high: str = "2022-12-15") -> str:
        first, last = date_to_int(low), date_to_int(high)
        day = first + int(self.quantile(stream) * (last - first))
        return f"DATE '{int_to_date(day).isoformat()}'"

    def integer(self, stream: str, low: int, high: int) -> int:
        return low + int(self.quantile(stream) * (high - low + 1))

    def choice(self, stream: str, values: list):
        return values[int(self.quantile(stream) * len(values))]


def _deal(rng: np.random.Generator, families: list[str],
          count: int) -> list[str]:
    """``count`` family names dealt in shuffled rounds, so every prefix
    holds each family in (almost) equal share."""
    dealt: list[str] = []
    while len(dealt) < count:
        dealt.extend(families[int(i)]
                     for i in rng.permutation(len(families)))
    return dealt[:count]


# ----------------------------------------------------------------------
# retail_adhoc / retail_dashboard
# ----------------------------------------------------------------------
#: The Figure-2 statement (bench_fig2_motivating_query.py's QUERY with
#: its literals opened up).
_FIG2 = (
    "SELECT p.name, p.price, d.image_id, d.label, d.object_count "
    "FROM products AS p "
    "SEMANTIC JOIN kb.category AS k ON p.ptype ~ k.subject THRESHOLD 0.9 "
    "SEMANTIC JOIN images.detections AS d ON p.ptype ~ d.label "
    "THRESHOLD 0.8 "
    "WHERE p.price > {price} AND k.object = '{category}' "
    "AND d.date_taken > {date} AND d.object_count > 2")

_RETAIL_FAMILIES = {
    "rollup": (
        "SELECT brand, COUNT(*) AS n, SUM(price) AS total, "
        "MAX(price) AS dearest FROM products WHERE price > {price} "
        "GROUP BY brand ORDER BY brand"),
    "topk": (
        "SELECT name, price, brand FROM products WHERE price < {price} "
        "ORDER BY price DESC, name LIMIT {k}"),
    "equi_join": (
        "SELECT u.country, COUNT(*) AS n, SUM(t.quantity) AS units "
        "FROM transactions AS t JOIN users AS u ON t.uid = u.uid "
        "WHERE u.signup_date > {date} AND t.quantity >= {quantity} "
        "GROUP BY u.country ORDER BY u.country"),
    "sem_filter": (
        "SELECT name, price FROM products "
        "WHERE ptype ~ '{form}' THRESHOLD {threshold} AND price > {price} "
        "ORDER BY name"),
    "sem_join_kb": (
        "SELECT p.name, k.object FROM products AS p "
        "SEMANTIC JOIN kb.category AS k ON p.ptype ~ k.subject "
        "THRESHOLD 0.9 WHERE p.price > {price} "
        "ORDER BY p.name, k.object"),
    "sem_join_rollup": (
        "SELECT k.object, COUNT(*) AS n, SUM(p.price) AS revenue "
        "FROM products AS p "
        "SEMANTIC JOIN kb.category AS k ON p.ptype ~ k.subject "
        "THRESHOLD 0.9 WHERE p.price > {price} "
        "GROUP BY k.object ORDER BY k.object"),
    "sem_join_images": (
        "SELECT p.name, d.image_id, d.label FROM products AS p "
        "SEMANTIC JOIN images.detections AS d ON p.ptype ~ d.label "
        "THRESHOLD 0.8 WHERE p.price > {price} "
        "AND d.date_taken > {date} AND d.object_count > 2"),
    "fig2": _FIG2,
    "sem_groupby": (
        "SELECT cluster_rep, COUNT(*) AS n FROM products "
        "WHERE price > {price} SEMANTIC GROUP BY ptype "
        "THRESHOLD {threshold}"),
}


def _retail_tables(seed: int, sizes: dict) -> tuple[dict[str, Table],
                                                    RetailWorkload]:
    retail = RetailWorkload(seed=derive_seed(seed, "retail") % 2**31,
                            **sizes)
    scratch = Catalog()
    retail.register_into(scratch)
    return {name: scratch.get(name) for name in scratch.names()}, retail


def _retail_statement(family: str, lit: _Literals, forms: list[str],
                      categories: list[str]) -> str:
    """One ad-hoc statement of ``family`` with fresh literals."""
    template = _RETAIL_FAMILIES[family]
    if family in ("sem_join_kb", "sem_join_rollup", "sem_join_images",
                  "fig2"):
        # selective literals: an analyst narrows before a semantic join
        price = lit.price(family, low=150.0, high=198.0)
        date = lit.date(family, low="2022-09-01", high="2022-12-20")
    else:
        price = lit.price(family)
        date = lit.date(family)
    return template.format(
        price=price, date=date, k=lit.integer(family + ".k", 10, 60),
        quantity=lit.integer(family + ".quantity", 1, 3),
        form=lit.choice(family + ".form", forms),
        category=lit.choice(family + ".category", categories),
        threshold=f"{0.5 + 0.4 * lit.quantile(family + '.th'):.3f}")


def _retail_vocabulary(retail: RetailWorkload) -> tuple[list[str],
                                                        list[str]]:
    thesaurus = retail.thesaurus
    forms = sorted(thesaurus.all_forms())
    categories = sorted(h.canonical for h in thesaurus.hypernyms)
    return forms, categories


def _retail_adhoc(seed: int, scale: dict) -> Workload:
    tables, retail = _retail_tables(seed, scale["retail"])
    forms, categories = _retail_vocabulary(retail)
    families = list(_RETAIL_FAMILIES)

    def statements(path: str, count: int) -> list[Op]:
        lit = _Literals(seed, "adhoc", path)
        rng = make_rng(derive_seed(seed, "adhoc", path, "deal"))
        return [Op("sql", family,
                   _retail_statement(family, lit, forms, categories))
                for family in _deal(rng, families, count)]

    return Workload(
        name="retail_adhoc", tables=tables,
        warmup=statements(
            "warmup", scale["adhoc_warmup_per_family"] * len(families)),
        ops=statements("timed", scale["adhoc_ops"]),
        strings=_column_strings(tables["products"], "name"))


def _dashboard_panel(seed: int, size: int, forms: list[str],
                     categories: list[str]) -> list[Op]:
    """``size`` distinct statements, most popular first.

    The *shape* is the same for every seed — rank ``r`` belongs to
    family ``r mod 9`` (the ad-hoc families) and each family's members spread their literals
    over one stratum each — so the seed moves literal values, not which
    kind of statement is popular or how large the working set is.  The
    last, least popular member is Figure 2 at ``price > 20``: the one
    result larger than the whole default result-cache budget.
    """
    families = list(_RETAIL_FAMILIES)
    lit = _Literals(seed, "dashboard", "panel",
                    strata=-(-(size - 1) // len(families)))
    panel = [Op("sql", family, _retail_statement(
        family, lit, forms, categories))
        for family in (families[rank % len(families)]
                       for rank in range(size - 1))]
    panel.append(Op("sql", "fig2_wide", _FIG2.format(
        price="20", category="clothes", date="DATE '2022-06-01'")))
    return panel


def _ladder(lit: _Literals, forms: list[str]) -> list[Op]:
    """One refinement ladder: a wide base statement, then the same
    statement tightened — answerable residually from the base."""
    form = lit.choice("ladder.form", forms)
    base = 0.30 + 0.04 * lit.quantile("ladder.base")
    price = lit.price("ladder.price", low=5.0, high=60.0)
    join = ("SELECT p.name, k.subject FROM products AS p "
            "SEMANTIC JOIN kb.category AS k ON p.ptype ~ k.subject "
            "THRESHOLD {th:.4f} TOP {k} ORDER BY p.name, k.subject")
    flt = ("SELECT name, price FROM products WHERE ptype ~ '{form}' "
           "THRESHOLD {th:.4f}{extra} ORDER BY name, price")
    if lit.quantile("ladder.kind") < 0.5:
        rungs = [join.format(th=base, k=8)]
        rungs += [join.format(th=base + step, k=8)
                  for step in (0.08, 0.16, 0.24)]
        rungs += [join.format(th=base + 0.24, k=k) for k in (5, 3)]
        family = "ladder_join"
    else:
        rungs = [flt.format(form=form, th=base, extra="")]
        rungs += [flt.format(form=form, th=base + step, extra="")
                  for step in (0.06, 0.12, 0.18, 0.24)]
        rungs.append(flt.format(form=form, th=base + 0.24,
                                extra=f" AND price > {price}"))
        family = "ladder_filter"
    return [Op("sql", family, text) for text in rungs]


def _retail_dashboard(seed: int, scale: dict) -> Workload:
    tables, retail = _retail_tables(seed, scale["retail"])
    forms, categories = _retail_vocabulary(retail)
    panel = _dashboard_panel(seed, scale["panel"], forms, categories)
    # Zipf(1.1) popularity over the ranks, dealt in blocks: inside each
    # block a member appears its expected number of times (remainders
    # carried), in seeded order — the long-run mix of iid draws without
    # their run-to-run variance in how often the heavy members appear
    weights = np.arange(1, len(panel) + 1, dtype=np.float64) ** -1.1
    weights /= weights.sum()
    rng = make_rng(derive_seed(seed, "dashboard", "stream"))
    lit = _Literals(seed, "dashboard", "ladders")
    block, ladder_share = 400, 0.1
    carry = np.zeros(len(panel))
    ops: list[Op] = []
    pending: list[Op] = []
    while len(ops) < scale["dashboard_ops"]:
        want = weights * block * (1.0 - ladder_share) + carry
        counts = np.floor(want).astype(int)
        carry = want - counts
        draws = [panel[i] for i, n in enumerate(counts) for _ in range(n)]
        draws = [draws[int(i)] for i in rng.permutation(len(draws))]
        every = max(2, int(round(1.0 / ladder_share)))
        for position, op in enumerate(draws):
            ops.append(op)
            if position % (every - 1) == 0:
                if not pending:
                    pending = _ladder(lit, forms)
                ops.append(pending.pop(0))
    return Workload(
        name="retail_dashboard", tables=tables,
        # two full passes over the panel: the second re-serves what the
        # first stored, so every member is memoized and (if it fits)
        # cached before timing starts
        warmup=panel + panel,
        ops=ops[:scale["dashboard_ops"]],
        strings=_column_strings(tables["products"], "name"))


# ----------------------------------------------------------------------
# wiki_cold_semantic
# ----------------------------------------------------------------------
_WIKI_FORMS = {
    "threshold_join": (
        "SELECT l.sid, r.sid, l.text FROM wiki_left AS l "
        "SEMANTIC JOIN wiki_right AS r ON l.text ~ r.text THRESHOLD 0.9 "
        "WHERE l.views >= {la} AND l.views < {lb} "
        "AND r.views >= {ra} AND r.views < {rb}"),
    "topk_join": (
        "SELECT l.sid, r.sid, r.text FROM wiki_left AS l "
        "SEMANTIC JOIN wiki_right AS r ON l.text ~ r.text "
        "THRESHOLD 0.5 TOP 3 "
        "WHERE l.views >= {la} AND l.views < {lb} "
        "AND r.views >= {ra} AND r.views < {rb}"),
    "sem_filter": (
        "SELECT sid, text FROM wiki_left "
        "WHERE text ~ '{form}' THRESHOLD 0.6 "
        "AND views >= {la} AND views < {lb}"),
    "sem_groupby": (
        "SELECT cluster_rep, COUNT(*) AS n FROM wiki_right "
        "WHERE views >= {ra} AND views < {rb} "
        "SEMANTIC GROUP BY text THRESHOLD 0.8"),
}


def _wiki_cold_semantic(seed: int, scale: dict) -> Workload:
    rows, slice_rows = scale["wiki_rows"], scale["wiki_slice_rows"]
    wiki = WikiStringWorkload(n=rows, unique_texts=True,
                              seed=derive_seed(seed, "wiki") % 2**31)
    left, right = wiki.pair()
    forms = sorted(wiki.thesaurus.all_forms())
    lit = _Literals(seed, "wiki")
    # views is uniform on [0, 1e6): a range of ``width`` holds about
    # slice_rows rows.  Every statement takes the next fresh range per
    # side (the seed changes the rows, not the ranges), so no string is
    # ever embedded twice.
    width = 1_000_000 * slice_rows // rows
    cursor = {"left": 0, "right": 0}

    def take(side: str, slices: int = 1) -> tuple[int, int]:
        """The next fresh range of ``slices`` x ``width`` views values."""
        start = cursor[side]
        cursor[side] += slices * width
        return start, start + slices * width

    # Warm-up part 1: one wide semantic filter per side embeds
    # ``wiki_pregrow_rows`` strings, as a server that has been up for a
    # while would have.  It also moves the arena away from a capacity
    # doubling: this box embeds ~13k fresh strings/s whatever the slice
    # size, which lands a 20 s run exactly on 2^18 arena rows, and
    # peak_rss_mb would flip between two values from run to run.
    pregrow = [Op("sql", "pregrow", (
        "SELECT sid FROM wiki_{side} WHERE text ~ '{form}' THRESHOLD 0.6 "
        "AND views >= {a} AND views < {b}").format(
            side=side, form=forms[0], a=a, b=b))
        for side in ("left", "right")
        for a, b in [take(side, scale["wiki_pregrow_rows"] // slice_rows)]]

    # three joins in every five statements: the median statement is
    # then a join, not the gap between the cheap and the costly forms.
    # The filter, cheapest per string, reads a double slice.
    round_forms = ("threshold_join", "sem_filter", "topk_join",
                   "sem_groupby", "threshold_join")
    ops: list[Op] = []
    while max(cursor.values()) + 5 * width <= 1_000_000:
        for form_name in round_forms:
            la = lb = ra = rb = 0
            if form_name == "sem_filter":
                la, lb = take("left", slices=2)
            elif form_name == "sem_groupby":
                ra, rb = take("right")
            else:
                la, lb = take("left")
                ra, rb = take("right")
            ops.append(Op("sql", form_name, _WIKI_FORMS[form_name].format(
                la=la, lb=lb, ra=ra, rb=rb,
                form=lit.choice("form", forms))))
    warm = scale["wiki_warmup_rounds"] * len(round_forms)
    return Workload(
        name="wiki_cold_semantic",
        tables={"wiki_left": left, "wiki_right": right},
        warmup=pregrow + ops[:warm], ops=ops[warm:],
        strings=_column_strings(left, "text"))


# ----------------------------------------------------------------------
# logs_stream
# ----------------------------------------------------------------------
#: Four delta-maintainable dashboard statements and one form ingest
#: must refuse (AVG is not mergeable from a delta).  Three of the five
#: answer with a few rows, so the median read is one of those — with
#: three maintainable statements it sat exactly on the edge between
#: the 50-row top-k and the ~20k-row semantic filter.
_LOG_STATEMENTS = (
    ("sem_filter", "SELECT message, level FROM logs "
                   "WHERE message ~ 'disk failure' THRESHOLD 0.3"),
    ("recent_topk", "SELECT ts, level, message FROM logs "
                    "ORDER BY ts DESC, message ASC LIMIT 50"),
    ("level_count", "SELECT level, COUNT(*) AS c FROM logs "
                    "GROUP BY level"),
    ("error_span", "SELECT COUNT(*) AS c, MIN(ts) AS first_ts, "
                   "MAX(ts) AS last_ts FROM logs WHERE level = 'ERROR'"),
    ("refused_avg", "SELECT level, AVG(ts) AS mean_ts FROM logs "
                    "GROUP BY level"),
)


def _logs_stream(seed: int, scale: dict) -> Workload:
    stream = StreamingLogSource(initial_rows=scale["log_initial"],
                                batch_rows=scale["log_batch"],
                                seed=derive_seed(seed, "logs") % 2**31)
    initial = stream.initial()
    reads = [Op("sql", family, text) for family, text in _LOG_STATEMENTS]

    def steps(count: int) -> list[Op]:
        ops: list[Op] = []
        for batch in stream.batches(count):
            ops.append(Op("append", "append", table="logs", rows=batch))
            ops.extend(reads)
        return ops

    return Workload(
        name="logs_stream", tables={"logs": initial},
        models=[build_log_model(seed=seed % 2**31)],
        # reads first (plans + results cached), then two full steps so
        # the first delta maintenance and index extension are untimed
        warmup=reads + reads + steps(2),
        ops=steps(scale["log_steps"]),
        strings=_column_strings(initial, "message"))


def _column_strings(table: Table, column: str) -> list[str]:
    return sorted({str(value) for value in table.column(column)})


_BUILDERS = {
    "retail_adhoc": _retail_adhoc,
    "retail_dashboard": _retail_dashboard,
    "wiki_cold_semantic": _wiki_cold_semantic,
    "logs_stream": _logs_stream,
}
