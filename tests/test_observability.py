"""End-to-end observability: span trees, metrics registry, exporters.

The tentpole contract under test: one traced statement yields ONE span
tree whose spans, attributes, and timings agree with every other
reporting surface — ``QueryProfile``, ``server.metrics()``, and both
exporters — because they all render the same instruments and spans.

The exporter golden files under ``tests/golden/`` pin the exact output
formats; regenerate them with
``PYTHONPATH=src python -m repro.obs.smoke --write-golden`` after a
deliberate format change.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

import pytest

from repro.obs.export import json_snapshot, parse_prometheus, prometheus_text
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, \
    hit_ratio
from repro.obs.smoke import demo_registry, live_schema, schema_drift
from repro.obs.trace import NULL_SPAN, NULL_TRACE, Span, Tracer
from repro.server import EngineServer, SchedulerConfig

GOLDEN = Path(__file__).parent / "golden"

JOIN = ("SELECT p.pid, k.category FROM products AS p "
        "SEMANTIC JOIN kb AS k ON p.ptype ~ k.label THRESHOLD 0.5 "
        "ORDER BY p.pid, k.category")


@pytest.fixture()
def server(model, products_table, kb_table):
    with EngineServer(load_default_model=False,
                      scheduler_config=SchedulerConfig(workers=4)) as server:
        server.register_model(model, default=True)
        server.register_table("products", products_table)
        server.register_table("kb", kb_table)
        yield server


def operator_spans(span: Span) -> list[Span]:
    """Preorder ``operator:*`` spans under ``span``."""
    out: list[Span] = []
    for child in span.children:
        if child.name.startswith("operator:"):
            out.append(child)
            out.extend(operator_spans(child))
    return out


# ---------------------------------------------------------------------
# Span-tree shape
# ---------------------------------------------------------------------
class TestSpanTree:
    def test_semantic_join_span_tree(self, server):
        """One submitted semantic join -> one complete span tree."""
        client = server.session("alice")
        client.sql(JOIN)
        trace = client.last_profile.trace
        assert trace is not None and trace.enabled
        root = trace.root
        assert root.name == "statement"
        assert root.attrs["tenant"] == "alice"
        assert root.attrs["plan_cache_hit"] is False
        assert root.attrs["result_cache_hit"] is False
        assert root.attrs["reuse_hit"] is False

        parse = trace.find("frontend.parse")
        assert parse is not None
        assert parse.attrs["text_memo_hit"] is False

        probe = trace.find("plan_cache.probe")
        assert probe is not None
        assert probe.attrs["hit"] is False
        assert probe.attrs["model"] == "wiki-ft-100"
        assert probe.attrs["catalog_version"] >= 0
        assert trace.find("frontend.bind") is not None
        assert trace.find("optimize") is not None

        result_probe = trace.find("result_cache.probe")
        assert result_probe is not None
        assert result_probe.attrs == {"hit": False, "cacheable": True}
        assert trace.find("reuse.probe").attrs == {"hit": False}

        queue = trace.find("scheduler.queue")
        assert queue is not None
        assert queue.attrs["lane"] in ("interactive", "batch")
        assert queue.attrs["tenant"] == "alice"
        assert set(queue.attrs) == {"lane", "tenant"}
        assert queue.seconds >= 0.0

        execute = trace.find("execute")
        assert execute is not None
        ops = operator_spans(execute)
        assert ops, "execute span must carry the operator tree"
        assert any(op.name.startswith("operator:SemanticJoin")
                   for op in ops)
        # a semantic join embeds -> the arena probe span is present
        arena = trace.find("embedding_cache.probe")
        assert arena is not None
        assert arena.attrs["hits"] + arena.attrs["misses"] > 0
        # root duration covers the children (finish() sums them)
        assert root.seconds >= execute.seconds

    def test_repeat_statement_hits_in_trace(self, server):
        """A warmed repeat traces as cache hits and skips execute."""
        # two full passes: pass 1 computes lazy statistics (bumping the
        # catalog version), pass 2 caches under the stable version
        for _ in range(2):
            server.sql(JOIN)
        server.sql(JOIN)
        trace = server.traces()[-1]
        assert trace.root.attrs["plan_cache_hit"] is True
        assert trace.root.attrs["result_cache_hit"] is True
        assert trace.find("plan_cache.probe").attrs["hit"] is True
        assert trace.find("result_cache.probe").attrs["hit"] is True
        assert trace.find("frontend.parse").attrs["text_memo_hit"] is True
        assert trace.find("execute") is None
        assert trace.find("scheduler.queue") is None

    def test_traces_ring_is_bounded(self, server):
        keep = server.state.tracer._completed.maxlen
        for index in range(keep + 5):
            server.sql(f"SELECT pid FROM products WHERE pid > {index}")
        assert len(server.traces()) == keep


# ---------------------------------------------------------------------
# Trace vs QueryProfile consistency
# ---------------------------------------------------------------------
class TestTraceProfileConsistency:
    def test_operator_spans_mirror_profile(self, server):
        client = server.session()
        client.sql(JOIN)
        profile = client.last_profile
        trace = profile.trace
        ops = operator_spans(trace.find("execute"))
        assert [span.name for span in ops] \
            == [f"operator:{op.label}" for op in profile.operators]
        assert [span.seconds for span in ops] \
            == [op.seconds for op in profile.operators]
        assert [span.attrs["rows_out"] for span in ops] \
            == [op.rows_out for op in profile.operators]
        assert [span.attrs["depth"] for span in ops] \
            == [op.depth for op in profile.operators]

    def test_profile_pretty_renders_trace(self, server):
        client = server.session()
        client.sql(JOIN)
        text = client.last_profile.pretty()
        assert "trace:" in text
        assert "statement" in text
        assert "operator:" in text

    def test_explain_analyze_renders_trace(self, server):
        text = server.session().explain_analyze(JOIN)
        assert "trace:" in text
        assert "explain_analyze" in text
        assert "operator:" in text


# ---------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------
class TestExporters:
    def test_prometheus_text_golden(self):
        text = prometheus_text(demo_registry())
        assert text == (GOLDEN / "observability_prometheus.txt").read_text()

    def test_json_snapshot_golden(self):
        snapshot = json_snapshot(demo_registry())
        golden = json.loads(
            (GOLDEN / "observability_snapshot.json").read_text())
        assert snapshot == golden

    def test_live_metric_schema_matches_golden(self):
        # the smoke's schema-drift check, in tier-1: a metric added,
        # removed or re-typed must come with a regenerated golden
        assert schema_drift(live_schema()) == ""

    def test_parse_prometheus_round_trips(self):
        registry = demo_registry()
        assert parse_prometheus(prometheus_text(registry)) \
            == json_snapshot(registry)

    def test_server_exporters_agree(self, server):
        for _ in range(2):
            server.sql(JOIN)
        parsed = parse_prometheus(server.export_prometheus())
        assert parsed == server.export_json()

    def test_exporters_agree_with_metrics_dict(self, server):
        for _ in range(2):
            server.sql(JOIN)
        server.sql("SELECT pid FROM products WHERE price > 10 "
                   "ORDER BY pid")
        snapshot = server.export_json()
        metrics = server.metrics()
        assert snapshot["plan_cache_hits_total"] \
            == metrics["plan_cache"]["hits"]
        assert snapshot["plan_cache_misses_total"] \
            == metrics["plan_cache"]["misses"]
        assert snapshot["result_cache_hits_total"] \
            == metrics["result_cache"]["hits"]
        assert snapshot["result_cache_misses_total"] \
            == metrics["result_cache"]["misses"]
        assert snapshot["scheduler_admitted_total"] \
            == metrics["scheduler"]["admitted"]
        assert snapshot["catalog_version"] == metrics["catalog_version"]

    def test_parse_prometheus_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_prometheus("this is not a sample\n")
        with pytest.raises(ValueError):
            parse_prometheus("# TYPE x summary\n")
        with pytest.raises(ValueError):
            parse_prometheus('x_bucket{le="+Inf"} 1\nx_bucket{le="+Inf"} 2\n')


# ---------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------
class TestInstruments:
    def test_histogram_bucket_edges_are_le(self):
        histogram = Histogram("h_seconds", buckets=(0.001, 0.01, 0.1))
        histogram.observe(0.001)    # == edge: lands in that bucket
        histogram.observe(0.0011)   # just above: next bucket
        histogram.observe(0.1)
        histogram.observe(99.0)     # above the last edge: +Inf only
        assert histogram.cumulative() == [
            (0.001, 1), (0.01, 2), (0.1, 3), (float("inf"), 4)]
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(0.001 + 0.0011 + 0.1 + 99.0)

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(0.1, 0.01))

    def test_registry_registration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total")
        first.inc()
        assert registry.counter("c_total") is first
        assert registry.counter("c_total").value == 1
        with pytest.raises(TypeError):
            registry.gauge("c_total")

    def test_gauge_callback_rebinds(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g", fn=lambda: 1.0)
        assert gauge.value == 1.0
        assert registry.gauge("g", fn=lambda: 2.0) is gauge
        assert gauge.value == 2.0
        gauge.set(5)
        assert gauge.value == 5.0

    def test_counter_and_gauge_basics(self):
        counter = Counter("c_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        counter.reset()
        assert counter.value == 0
        gauge = Gauge("g")
        assert gauge.value == 0.0

    def test_hit_ratio_zero_over_zero(self):
        assert hit_ratio(0, 0) == 0.0
        assert hit_ratio(3, 1) == 0.75


# ---------------------------------------------------------------------
# Sampling and the disabled path
# ---------------------------------------------------------------------
class TestSampling:
    def test_sample_zero_returns_null_singleton(self):
        tracer = Tracer(sample=0.0)
        trace = tracer.start("statement")
        assert trace is NULL_TRACE
        with trace.span("anything") as span:
            assert span is NULL_SPAN
            span.annotate(ignored=True)
        tracer.finish(trace)
        assert tracer.completed() == []

    def test_sample_is_deterministic_floor_crossing(self):
        tracer = Tracer(sample=0.25)
        enabled = [tracer.start("s").enabled for _ in range(8)]
        assert enabled == [False, False, False, True,
                           False, False, False, True]

    def test_sample_one_traces_everything(self):
        tracer = Tracer(sample=1.0)
        assert all(tracer.start("s").enabled for _ in range(5))

    def test_invalid_sample_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample=1.5)

    def test_server_with_tracing_disabled(self, model, products_table):
        with EngineServer(load_default_model=False,
                          trace_sample=0.0) as server:
            server.register_model(model, default=True)
            server.register_table("products", products_table)
            client = server.session()
            client.sql("SELECT pid FROM products ORDER BY pid")
            assert server.traces() == []
            assert client.last_profile.trace is None
            # metrics still flow with tracing off
            assert server.export_json()["engine_statements_total"] == 1

    def test_traces_total_counter(self, server):
        server.sql(JOIN)
        assert server.export_json()["engine_traces_total"] \
            == len(server.traces())


# ---------------------------------------------------------------------
# NDJSON trace log
# ---------------------------------------------------------------------
class TestTraceLog:
    def test_ndjson_sink(self, tmp_path):
        path = tmp_path / "traces.ndjson"
        tracer = Tracer(sample=1.0, sink=path)
        for index in range(2):
            trace = tracer.start("statement", n=index)
            with trace.span("execute"):
                pass
            tracer.finish(trace)
        tracer.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for index, line in enumerate(lines):
            event = json.loads(line)
            assert event["name"] == "statement"
            assert event["attrs"] == {"n": index}
            assert event["spans"][0]["name"] == "execute"
            assert event["ts"] > 0

    def test_server_trace_log(self, tmp_path, model, products_table):
        path = tmp_path / "server.ndjson"
        with EngineServer(load_default_model=False,
                          trace_log=path) as server:
            server.register_model(model, default=True)
            server.register_table("products", products_table)
            server.sql("SELECT pid FROM products ORDER BY pid")
        events = [json.loads(line)
                  for line in path.read_text().splitlines()]
        assert events and events[0]["name"] == "statement"


# ---------------------------------------------------------------------
# Concurrency: disjoint traces under parallel clients
# ---------------------------------------------------------------------
@pytest.mark.concurrency
class TestConcurrentTraces:
    def test_eight_clients_eight_disjoint_traces(self, server):
        n_clients = 8
        barrier = threading.Barrier(n_clients)
        errors: list[BaseException] = []

        def work(index: int) -> None:
            try:
                client = server.session(f"c{index}")
                barrier.wait(timeout=10)
                client.sql(f"SELECT pid FROM products "
                           f"WHERE pid > {index} ORDER BY pid")
            except BaseException as error:  # noqa: BLE001 — re-raised
                errors.append(error)

        threads = [threading.Thread(target=work, args=(index,))
                   for index in range(n_clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors

        traces = server.traces()
        assert len(traces) == n_clients
        # disjoint: one trace per tenant, no span shared between trees
        assert {t.root.attrs["tenant"] for t in traces} \
            == {f"c{i}" for i in range(n_clients)}
        seen_span_ids: set[int] = set()
        for trace in traces:
            assert trace.root.name == "statement"
            stack = [trace.root]
            while stack:
                span = stack.pop()
                assert id(span) not in seen_span_ids
                seen_span_ids.add(id(span))
                assert span.seconds >= 0.0
                stack.extend(span.children)
            # every executed statement has its queue + execute spans
            assert trace.find("scheduler.queue") is not None
            execute = trace.find("execute")
            assert execute is not None
            assert operator_spans(execute)
