"""The layered (traced) run: one statement stepped through the layers.

``serve_layered`` answers an operation by calling the layers' public
functions in the order ``EngineServer.submit`` / ``_execute`` do —
``plan_for`` -> ``result_key``/``fetch_result`` -> ``fetch_reuse`` ->
``make_context`` + ``build_physical`` -> ``root.execute()`` ->
``store_result`` — and records a span around each call.  Spans live in
memory until the run ends (``write_ndjson``); nothing under ``src/``
gains a span, a timer or a hook.  The names are the per-layer metric
names of BENCHMARK.json, so a later change that pulls these numbers
from the engine's own tracer can keep them.

What the layered path leaves out on purpose is everything
``EngineServer.submit`` adds around those calls: the hand-off to a
worker thread, the engine's own trace spans, profile assembly.  That
difference is measured, not modelled — ``server.scheduler.handoff_ms``
is the median ``client.sql`` wall minus the median layered wall.
"""

from __future__ import annotations

import json
import time
from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np

from repro.engine.profiler import QueryProfile
from repro.engine.sql.binder import Binder
from repro.engine.sql.parser import parse_sql
from repro.engine.state import plan_models
from repro.relational.physical import build_physical
from repro.vector import BruteForceIndex, HNSWIndex

#: Physical-operator class name -> the share metric its self time feeds.
OPERATOR_FAMILIES = {
    "ScanOp": "relational.scan_share",
    "FusedPipelineOp": "relational.fused_pipeline_share",
    "FilterOp": "relational.filter_project_share",
    "ProjectOp": "relational.filter_project_share",
    "UnionOp": "relational.filter_project_share",
    "HashJoinOp": "relational.join_share",
    "NestedLoopJoinOp": "relational.join_share",
    "AggregateOp": "relational.aggregate_share",
    "SortOp": "relational.sort_limit_share",
    "LimitOp": "relational.sort_limit_share",
    "SemanticFilterOp": "semantic.filter_share",
    "SemanticSemiFilterOp": "semantic.filter_share",
    "SemanticJoinOp": "semantic.join_share",
    "SemanticGroupByOp": "semantic.groupby_share",
}
SHARE_METRICS = tuple(dict.fromkeys(OPERATOR_FAMILIES.values()))


@dataclass
class StatementTrace:
    """The spans of one operation; ``spans[0]`` is the root."""

    statement: int
    family: str
    #: "result_cache" | "reuse" | "executed" | "append"
    path: str
    #: ``(name, start, end)``; every later span is a child of the root.
    spans: list[tuple[str, float, float]]
    #: Stand-alone parse/bind/optimize seconds (plan-cache misses only).
    planning: dict[str, float] = field(default_factory=dict)
    #: ``(operator class, self seconds)`` of the executed tree.
    operators: list[tuple[str, float]] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.spans[0][2] - self.spans[0][1]

    @property
    def unattributed(self) -> float:
        """Root self time: wall minus what the child spans cover."""
        return self.wall - sum(end - start
                               for _, start, end in self.spans[1:])


def serve_layered(server, client, op, statement: int,
                  traces: list[StatementTrace]):
    """Answer ``op`` layer by layer; appends its trace, returns the
    result (a ``Table``, or the ``IngestReport`` of an append)."""
    state = server.state
    clock = time.perf_counter
    if op.kind == "append":
        start = clock()
        report = state.ingest.append(op.table, op.rows)
        end = clock()
        traces.append(StatementTrace(statement, op.family, "append", [
            ("statement", start, end), ("ingest.append", start, end)]))
        return report
    root = None
    t0 = clock()
    planned = client.plan_for(op.text)
    t1 = clock()
    key = state.result_key(planned)
    result = state.fetch_result(key)
    t2 = clock()
    spans = [("engine.plan_cache.plan_for", t0, t1),
             ("engine.result_cache.probe", t1, t2)]
    path = "result_cache"
    if result is None:
        result = state.fetch_reuse(planned, key)
        t3 = clock()
        spans.append(("reuse.probe", t2, t3))
        path = "reuse"
    if result is None:
        path = "executed"
        # a lone query leases the whole machine from the budget, and
        # holds the read stripe of every model it embeds with
        with server.scheduler.budget as workers, ExitStack() as stack:
            context = state.make_context(
                parallelism=workers, batch_size=client.context.batch_size)
            for stripe in state.model_locks.stripes_for(
                    plan_models(planned.plan)):
                stack.enter_context(stripe.read())
            t4 = clock()
            root = build_physical(planned.plan, context)
            t5 = clock()
            result = root.execute()
            t6 = clock()
        context.record_semantic_metrics()
        t7 = clock()
        result = state.store_result(key, result, planned)
        t8 = clock()
        spans += [("relational.build", t4, t5),
                  ("relational.execute", t5, t6),
                  ("engine.result_cache.store", t7, t8)]
    end = clock()
    trace = StatementTrace(statement, op.family, path,
                           [("statement", t0, end)] + spans)
    # --- untimed from here: attribution inputs, outside every span ---
    if root is not None:
        trace.operators = _operator_self_times(
            QueryProfile.from_tree(root, t6 - t5))
    if not planned.cache_hit:
        trace.planning = _time_planning(client, op.text)
    traces.append(trace)
    return result


def _operator_self_times(profile: QueryProfile) -> list[tuple[str, float]]:
    """``(class name, self seconds)`` per operator: an operator's
    elapsed time covers its children, so subtract the direct ones."""
    operators = profile.operators          # pre-order, with depths
    self_seconds = [op.seconds for op in operators]
    parents: list[int] = []                # index stack, by depth
    for index, op in enumerate(operators):
        del parents[op.depth:]
        if parents:
            self_seconds[parents[-1]] -= op.seconds
        parents.append(index)
    return [(op.label.split("[", 1)[0], max(0.0, seconds))
            for op, seconds in zip(operators, self_seconds)]


def _time_planning(client, text: str) -> dict[str, float]:
    """Parse, bind and optimize ``text`` once more, stand-alone, with
    the span boundaries ``Session.plan_for`` uses (the subsumption
    analysis counts as binding)."""
    clock = time.perf_counter
    t0 = clock()
    statement = parse_sql(text)
    t1 = clock()
    plan = Binder(client.catalog, client.default_model_name).bind(statement)
    if client.state.reuse_registry is not None:
        from repro.reuse.analysis import analyze_and_augment

        _, plan = analyze_and_augment(plan)
    t2 = clock()
    client.optimize(plan)
    t3 = clock()
    return {"engine.sql.parse_ms": t1 - t0, "engine.sql.bind_ms": t2 - t1,
            "optimizer.optimize_ms": t3 - t2}


def write_ndjson(traces: list[StatementTrace], path) -> None:
    """One JSON object per span: name, start, end, parent, statement."""
    with open(path, "w", encoding="utf-8") as sink:
        for trace in traces:
            for index, (name, start, end) in enumerate(trace.spans):
                sink.write(json.dumps({
                    "statement": trace.statement, "span": index,
                    "parent": None if index == 0 else 0, "name": name,
                    "start": start, "end": end, "family": trace.family,
                    "path": trace.path}) + "\n")


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------
#: Span name -> per-layer metric (median milliseconds per statement in
#: which the span occurred).
SPAN_METRICS = {
    "engine.plan_cache.plan_for": "engine.plan_cache.plan_for_ms",
    "engine.result_cache.probe": "engine.result_cache.probe_ms",
    "reuse.probe": "reuse.probe_ms",
    "relational.build": "relational.build_ms",
    "relational.execute": "relational.execute_ms",
    "engine.result_cache.store": "engine.result_cache.store_ms",
    "ingest.append": "ingest.append_ms",
}
PLANNING_METRICS = ("engine.sql.parse_ms", "engine.sql.bind_ms",
                    "optimizer.optimize_ms")


def attribute(traces: list[StatementTrace]) -> tuple[dict[str, float],
                                                      dict[str, int]]:
    """Per-layer time metrics of a layered run, and their sample counts."""
    samples: dict[str, list[float]] = {
        name: [] for name in (*SPAN_METRICS.values(), *PLANNING_METRICS)}
    family_seconds = dict.fromkeys(SHARE_METRICS, 0.0)
    wall = unattributed = 0.0
    for trace in traces:
        wall += trace.wall
        unattributed += trace.unattributed
        for name, start, end in trace.spans[1:]:
            samples[SPAN_METRICS[name]].append((end - start) * 1e3)
        for name, seconds in trace.planning.items():
            samples[name].append(seconds * 1e3)
        for label, seconds in trace.operators:
            family_seconds[OPERATOR_FAMILIES.get(
                label, "relational.filter_project_share")] += seconds
    metrics = {name: float(np.median(values)) if values else 0.0
               for name, values in samples.items()}
    counts = {name: len(values) for name, values in samples.items()}
    operator_total = sum(family_seconds.values())
    for name, seconds in family_seconds.items():
        metrics[name] = seconds / operator_total if operator_total else 0.0
    metrics["bench.unattributed_share"] = \
        unattributed / wall if wall else 0.0
    return metrics, counts


# ----------------------------------------------------------------------
# Leaf probes
# ----------------------------------------------------------------------
def leaf_probes(model, strings: list[str], n_strings: int,
                n_vectors: int, hnsw_vectors: int) -> dict[str, float]:
    """Time the embedding and vector layers alone, on the workload's own
    strings made unique (the model has never seen any of them).

    The HNSW graph is built over ``hnsw_vectors`` rows only: its
    pure-Python build costs ~0.5 ms per row, and a probe that eats the
    run's time budget measures nothing else.
    """
    count = max(n_strings, n_vectors)
    unseen = [f"{strings[i % len(strings)]} probe{i}" for i in range(count)]
    clock = time.perf_counter
    start = clock()
    model.embed_batch(unseen[:n_strings])
    embed_seconds = clock() - start
    vectors = model.embed_batch(unseen[:n_vectors])
    start = clock()
    brute = BruteForceIndex().build(vectors)
    brute_seconds = clock() - start
    start = clock()
    HNSWIndex(seed=0).build(vectors[:hnsw_vectors])
    hnsw_seconds = clock() - start
    queries = vectors[:: max(1, len(vectors) // 200)]
    start = clock()
    for query in queries:
        brute.search(query, 10)
    search_seconds = clock() - start
    return {
        "embeddings.embed_strings_per_s": n_strings / embed_seconds,
        "vector.brute_build_ms": brute_seconds * 1e3,
        "vector.hnsw_build_ms": hnsw_seconds * 1e3,
        "vector.search_qps": len(queries) / search_seconds,
    }
