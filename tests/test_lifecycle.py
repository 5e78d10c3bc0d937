"""The one statement lifecycle (``repro.engine.lifecycle``).

``Session.sql`` (inline) and ``EngineServer.submit`` (scheduled) are two
callers of one definition, so they must be indistinguishable except for
the queue hop; and a statement that fails — on the worker, or refused at
admission — must still end its trace and leave the engine consistent.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.engine import lifecycle
from repro.engine.session import Session
from repro.errors import AdmissionError, ServerError
from repro.server import EngineServer, SchedulerConfig
from repro.storage.table import Table

WORDS = ["sneakers", "boots", "parka", "blazer", "sedan", "kitten",
         "apple", "sandals", "coat", "truck"]

FAMILIES = {
    "semantic_filter": (
        "SELECT ptype, price FROM products WHERE ptype ~ 'shoes' "
        "THRESHOLD 0.5 ORDER BY ptype, price",
        "SELECT ptype, price FROM products WHERE ptype ~ 'shoes' "
        "THRESHOLD 0.8 ORDER BY ptype, price"),
    "semantic_join": (
        "SELECT p.ptype, k.subject FROM products AS p "
        "SEMANTIC JOIN kb AS k ON p.ptype ~ k.subject "
        "THRESHOLD 0.2 TOP 5 ORDER BY p.ptype, k.subject",
        "SELECT p.ptype, k.subject FROM products AS p "
        "SEMANTIC JOIN kb AS k ON p.ptype ~ k.subject "
        "THRESHOLD 0.4 TOP 2 ORDER BY p.ptype, k.subject"),
    "relational": (
        "SELECT brand, COUNT(*) AS n FROM products GROUP BY brand "
        "ORDER BY brand",
        "SELECT brand, COUNT(*) AS n FROM products WHERE price > 50 "
        "GROUP BY brand ORDER BY brand"),
}
JOIN = FAMILIES["semantic_join"][0]


def products(n: int = 40, start: int = 0) -> Table:
    return Table.from_dict({
        "pid": list(range(start, start + n)),
        "ptype": [WORDS[i % len(WORDS)] for i in range(start, start + n)],
        "price": [float(7 * i % 190 + 1) for i in range(start, start + n)],
        "brand": [["acme", "globex", "initech"][i % 3]
                  for i in range(start, start + n)],
    })


def install(target, model) -> None:
    target.register_model(model, default=True)
    target.register_table("products", products())
    target.register_table("kb", Table.from_dict({
        "subject": ["shoes", "jacket", "clothes", "dog", "car", "fruit"],
        "object": ["footwear", "outerwear", "apparel", "pet", "vehicle",
                   "food"]}))


def drive(session, base: str, refined: str) -> list[tuple]:
    """Cold, warm, exact repeat, refinement, post-append repeat,
    unoptimized — what each step returned and how it was served."""
    steps = []

    def step(text: str, **kwargs) -> None:
        table = session.sql(text, **kwargs)
        profile = session.last_profile
        trace = profile.trace
        steps.append((
            tuple(table.schema.names),
            tuple(str(table.column(name).dtype)
                  for name in table.schema.names),
            tuple(table.column(name).tolist()
                  for name in table.schema.names),
            (profile.plan_cache_hit, profile.result_cache_hit,
             profile.reuse_hit),
            None if trace is None else tuple(
                child.name for child in trace.root.children
                if child.name != "scheduler.queue")))

    step(base)                       # cold
    step(base)                       # lazy statistics settled
    step(base)                       # exact repeat
    step(refined)                    # refinement: a reuse candidate
    session.append("products", products(5, start=40))
    step(base)                       # post-append repeat
    step(base, optimize=False)       # uncached, unscheduled
    return steps


@pytest.mark.parametrize("family", FAMILIES)
def test_inline_and_scheduled_are_one_lifecycle(model, family):
    inline = Session(load_default_model=False)
    install(inline, model)
    with EngineServer(load_default_model=False) as server:
        install(server, model)
        client = server.session("parity")
        scheduled = drive(client, *FAMILIES[family])
        assert client.last_profile.lane is None     # optimize=False
    assert drive(inline, *FAMILIES[family]) == scheduled
    flags = [step[3] for step in scheduled]
    assert flags[2][1] is True, "exact repeat must hit the result cache"
    assert flags[-1] == (None, None, None)
    if family == "semantic_filter":
        assert flags[3][2] is True, "refinement must be a reuse hit"


class _Raises:
    """Stands in for a physical tree whose operator raises mid-query."""

    def execute(self):
        raise RuntimeError("operator failed")


@pytest.fixture()
def server(model, tmp_path):
    with EngineServer(load_default_model=False,
                      scheduler_config=SchedulerConfig(workers=2),
                      trace_log=tmp_path / "traces.ndjson") as server:
        install(server, model)
        yield server


def logged_errors(server, tmp_path) -> list[str | None]:
    server.state.tracer.close()
    return [json.loads(line).get("attrs", {}).get("error")
            for line in (tmp_path / "traces.ndjson").read_text()
            .splitlines()]


def test_worker_side_raise_seals_the_trace(server, tmp_path, monkeypatch):
    client = server.session("alice")
    client.sql(FAMILIES["relational"][0])
    assert client.last_profile is not None
    with monkeypatch.context() as patch:
        patch.setattr(lifecycle, "build_physical",
                      lambda plan, context: _Raises())
        ticket = client.submit(JOIN)
        with pytest.raises(RuntimeError, match="operator failed"):
            ticket.result(timeout=10)
    trace = server.traces()[-1]
    assert trace.root.attrs["error"] == "RuntimeError"
    assert trace.find("scheduler.queue") is not None
    assert trace.find("execute") is not None
    assert logged_errors(server, tmp_path) == [None, "RuntimeError"]
    assert client.last_profile is None
    assert server.drain(timeout=10)
    stats = server.scheduler.stats()
    assert stats["tenant_inflight"] == {}
    assert stats["tenants"]["alice"]["failures"] == 1
    # the model's read stripe was released: a writer gets through ...
    writer = threading.Thread(
        target=server.invalidate_model, args=(client.default_model_name,))
    writer.start()
    writer.join(timeout=10)
    assert not writer.is_alive()
    # ... and the same statement then executes normally
    assert client.sql(JOIN).num_rows > 0
    assert "error" not in server.traces()[-1].root.attrs


@pytest.mark.parametrize("refusal", ["admission", "closed"])
def test_refused_statement_seals_the_trace(model, tmp_path, refusal):
    config = SchedulerConfig(
        max_inflight_per_tenant=0 if refusal == "admission" else None)
    with EngineServer(load_default_model=False, scheduler_config=config,
                      trace_log=tmp_path / "traces.ndjson") as server:
        install(server, model)
        client = server.session("bob")
        expected = AdmissionError
        if refusal == "closed":
            server.scheduler.close()
            expected = ServerError
        with pytest.raises(expected):
            client.submit(JOIN)
        trace = server.traces()[-1]
        assert trace.root.attrs["error"] == expected.__name__
        assert trace.find("reuse.probe") is not None    # planned + probed
        assert trace.find("execute") is None
        assert logged_errors(server, tmp_path) == [expected.__name__]
        assert client.last_profile is None
        stats = server.scheduler.stats()
        assert stats["tenant_inflight"] == {}
        assert stats["rejected"] == (1 if refusal == "admission" else 0)
        assert server.drain(timeout=10)


def test_inline_raise_seals_the_trace(model, monkeypatch):
    session = Session(load_default_model=False)
    install(session, model)
    session.sql(FAMILIES["relational"][0])
    monkeypatch.setattr(lifecycle, "build_physical",
                        lambda plan, context: _Raises())
    for call in (lambda: session.sql(JOIN),
                 lambda: session.execute(session.sql_plan(JOIN))):
        session.last_profile = "stale"
        with pytest.raises(RuntimeError, match="operator failed"):
            call()
        assert session.last_profile is None
    errors = [trace.root.attrs.get("error")
              for trace in session.state.tracer.completed()]
    assert errors == [None, "RuntimeError"]     # execute() has no trace


def test_explain_analyze_holds_model_read_stripes(server):
    client = server.session()
    locks = server.state.model_locks
    seen: list[set[str]] = []
    real = locks.stripes_for

    def spy(keys):
        seen.append(set(keys))
        return real(keys)

    locks.stripes_for = spy
    try:
        text = client.explain_analyze(JOIN)
    finally:
        del locks.stripes_for
    assert seen == [{client.default_model_name}]
    assert "embedding_cache.probe" in text      # the shared run_plan core


def test_profile_arena_counters_are_per_statement(model):
    session = Session(load_default_model=False)
    install(session, model)
    # unoptimized: no planner prefetch, every embed happens in execute
    session.sql(JOIN, optimize=False)
    first = session.last_profile
    assert first.cache_misses > 0 and first.tokens_embedded > 0
    session.sql(JOIN, optimize=False)
    second = session.last_profile
    assert (second.cache_misses, second.tokens_embedded) == (0, 0)
    assert second.cache_hits == first.cache_misses
    assert second.arena_rows == first.arena_rows > 0
