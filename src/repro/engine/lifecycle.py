"""The statement lifecycle: the only definition of how SQL is served.

``Session.sql`` (inline) and ``EngineServer.submit`` (scheduled) are two
callers of :func:`serve_statement`; every path that executes a plan —
those two, ``Session.execute``, EXPLAIN ANALYZE — shares
:func:`run_plan`.  ``docs/serving.md`` § Architecture has the long form.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from typing import TYPE_CHECKING, Any

from repro.engine.profiler import QueryProfile
from repro.obs.trace import NULL_TRACE, AnyTrace, attach_profile_spans
from repro.relational.physical import (
    ExecutionContext, PhysicalOperator, build_physical)
from repro.storage.table import Table

if TYPE_CHECKING:
    from repro.engine.session import PlannedStatement, Session
    from repro.relational.logical import LogicalPlan
    from repro.server.scheduler import QueryTicket, Scheduler

__all__ = ["run_plan", "serve_statement"]


def serve_statement(session: Session, text: str,
                    scheduler: Scheduler | None = None,
                    tenant: str = "default") -> Table | QueryTicket:
    """Serve one optimized statement, in this order:

    1. start the trace (``NULL_TRACE`` when unsampled: its spans are
       shared no-op singletons, so there is no untraced twin arm);
    2. ``plan_for`` — plan cache, else parse / bind / optimize;
    3. capture the result-cache key **once**, before anything executes:
       step 6 stores under this very key, which is what makes
       invalidation-during-execution safe;
    4. exact probe, then subsumption probe — either answers outright;
    5. otherwise :func:`run_plan`;
    6. ``store_result`` under the captured key;
    7. seal: profile and root span filled in, trace finished, profile
       published — or, on a failure at any step, the trace finished
       with ``error=<exception class>`` on its root.

    ``scheduler`` is the executor strategy, all the two callers differ
    in.  ``None``: answer and execute inline with the session's own
    context; returns the table.  A scheduler: an answer from step 4 is
    a pre-resolved ticket (never queues or occupies a worker), a miss
    is admitted under the optimizer's cost estimate and runs on a
    worker with a fresh per-query context (shared caches, private
    metrics); returns the ticket, accounted to ``tenant``.
    """
    state = session.state
    trace = state.tracer.start("statement")
    state.statements_total.inc()
    try:
        planned = session.plan_for(text, trace=trace)
        key = state.result_key(planned)
        started = time.perf_counter()
        kind = "result"
        with trace.span("result_cache.probe") as probe:
            answer: Table | None = state.fetch_result(key)
            probe.annotate(hit=answer is not None,
                           cacheable=key is not None)
        if answer is None:
            kind = "reuse"
            with trace.span("reuse.probe") as probe:
                answer = state.fetch_reuse(planned, key)
                probe.annotate(hit=answer is not None)
        if answer is not None:
            ticket = None if scheduler is None \
                else scheduler.complete_cached(
                    answer, tenant=tenant,
                    estimated_cost=planned.estimated_cost,
                    plan_cache_hit=planned.cache_hit, kind=kind)
            profile = QueryProfile(
                total_seconds=time.perf_counter() - started,
                result_cache_hit=kind == "result",
                reuse_hit=True if kind == "reuse" else None)
            _seal(session, trace, planned, ticket, profile)
            return answer if ticket is None else ticket

        def run(context: ExecutionContext,
                ticket: QueryTicket | None = None) -> Table:
            # the trace rides this closure onto the worker — explicit,
            # never a thread-local, so the pool cannot mix statements
            try:
                if ticket is not None:
                    # the scheduler's own measurement, grafted not re-timed
                    trace.span_at("scheduler.queue",
                                  ticket.queue_wait_seconds,
                                  lane=ticket.lane, tenant=ticket.tenant)
                result, profile, _ = run_plan(session, planned.plan,
                                              context, trace)
                # stores the aux-carrying result, returns it stripped
                visible: Table = state.store_result(key, result, planned)
            except BaseException as error:
                _fail(session, trace, error)
                raise
            if key is not None:
                profile.result_cache_hit = profile.reuse_hit = False
            _seal(session, trace, planned, ticket, profile)
            return visible

        if scheduler is not None:
            return scheduler.submit(
                lambda ticket: run(state.make_context(
                    batch_size=session.context.batch_size), ticket),
                estimated_cost=planned.estimated_cost, tenant=tenant,
                plan_cache_hit=planned.cache_hit)
    except BaseException as error:
        # planning raised, or admission refused the statement
        _fail(session, trace, error)
        raise
    # inline; outside the guard above because run seals its own failure
    return run(session.context)


def run_plan(session: Session, plan: LogicalPlan,
             context: ExecutionContext, trace: AnyTrace = NULL_TRACE
             ) -> tuple[Table, QueryProfile, PhysicalOperator]:
    """Execute ``plan`` as-is — the core under ``Session.execute``,
    scheduled statements and EXPLAIN ANALYZE; returns the result, its
    profile and the physical root.

    Holds the read stripe of every model the plan embeds with (deduped,
    bank order — ``StripedRWLock.stripes_for``) across build + execute,
    so an invalidation (write stripe) can never clear an arena
    mid-gather.  The profile's arena counters are **deltas over this
    execution**: arenas are shared, so absolutes would report the whole
    engine's history.  Concurrent queries interleave their deltas —
    approximate under contention, but bounded by what ran meanwhile.
    """
    state = session.state
    before = _arena_counters(state.embedding_caches)
    with ExitStack() as stack:
        # spelled ``session.state.…`` on purpose: the lock-hierarchy lint
        # types receivers by attribute name, and must see these stripes
        for stripe in session.state.model_locks.stripes_for(plan.models):
            stack.enter_context(stripe.read())
        started = time.perf_counter()
        with trace.span("execute") as exec_span:
            root = build_physical(plan, context)
            result = root.execute()
        elapsed = time.perf_counter() - started
    context.record_semantic_metrics()
    profile = QueryProfile.from_tree(root, elapsed)
    after = _arena_counters(state.embedding_caches)
    profile.cache_hits = after[0] - before[0]
    profile.cache_misses = after[1] - before[1]
    profile.tokens_embedded = after[2] - before[2]
    profile.arena_rows, profile.arena_bytes = after[3], after[4]
    state.statement_seconds.observe(elapsed)
    for op in profile.operators:
        state.operator_seconds.observe(op.seconds)
    attach_profile_spans(exec_span, profile)
    return result, profile, root


def _arena_counters(caches: dict[str, Any]
                    ) -> tuple[int, int, int, int, int]:
    """(hits, misses, tokens_embedded, rows, bytes) summed over every
    arena.  Iterates a ``.copy()`` (atomic under the GIL): a concurrent
    query's ``cache_for`` may insert a new model's cache meanwhile."""
    hits = misses = tokens = rows = nbytes = 0
    for cache in caches.copy().values():
        hits += cache.hits
        misses += cache.misses
        tokens += cache.model.tokens_embedded
        rows += cache.rows
        nbytes += cache.nbytes
    return hits, misses, tokens, rows, nbytes


def _seal(session: Session, trace: AnyTrace, planned: PlannedStatement,
          ticket: QueryTicket | None, profile: QueryProfile) -> None:
    """End a served statement, whichever step answered it."""
    profile.plan_cache_hit = planned.cache_hit
    if ticket is not None:
        profile.queue_wait_seconds = ticket.queue_wait_seconds
        profile.lane = ticket.lane
        profile.tenant = ticket.tenant
    trace.annotate(
        lane=profile.lane, tenant=profile.tenant,
        plan_cache_hit=profile.plan_cache_hit,
        result_cache_hit=profile.result_cache_hit,
        reuse_hit=profile.reuse_hit)
    # root seconds = sum of child spans: covers the statement on any path
    session.state.tracer.finish(trace)
    if trace.enabled:
        profile.trace = trace
    session.last_profile = profile


def _fail(session: Session, trace: AnyTrace, error: BaseException) -> None:
    """End a failed statement: ring and NDJSON sink still see its trace,
    and ``last_profile`` stops pointing at an earlier success."""
    trace.annotate(error=type(error).__name__)
    session.state.tracer.finish(trace)
    session.last_profile = None
