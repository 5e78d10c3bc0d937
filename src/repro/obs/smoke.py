"""CI observability smoke: traced query, exporter parity, schema drift.

Three checks, each cheap enough for every CI run::

    PYTHONPATH=src python -m repro.obs.smoke

1. **Traced statement.**  One semantic join through an
   :class:`~repro.server.EngineServer` must yield a single span tree
   carrying every serving-layer span (parse, plan-cache probe,
   scheduler queue, per-operator execute, cache probes).
2. **Exporter parity.**  The Prometheus page must re-parse (strict
   validator) into exactly the JSON snapshot, and the deterministic
   demo registry must reproduce the golden files byte for byte.
3. **Schema drift.**  The live registry's ``{name: kind}`` map must
   equal ``tests/golden/metrics_schema.json`` — adding, renaming, or
   re-typing a metric is a reviewed change to that golden (and to
   ``analysis/metric_names.py``, which rule MN001 enforces), never an
   accident.

``--write-golden`` regenerates the three golden files after a
deliberate format or vocabulary change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from repro.obs.export import json_snapshot, parse_prometheus, prometheus_text
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.server import EngineServer

#: repo-root-relative golden files (smoke runs from a checkout)
GOLDEN_DIR = Path(__file__).resolve().parents[3] / "tests" / "golden"

PROMETHEUS_GOLDEN = "observability_prometheus.txt"
SNAPSHOT_GOLDEN = "observability_snapshot.json"
SCHEMA_GOLDEN = "metrics_schema.json"

JOIN = ("SELECT p.pid, k.category FROM products AS p "
        "SEMANTIC JOIN kb AS k ON p.ptype ~ k.label THRESHOLD 0.5 "
        "ORDER BY p.pid, k.category")

#: every span one traced executed statement must carry
EXPECTED_SPANS = ("frontend.parse", "plan_cache.probe",
                  "result_cache.probe", "reuse.probe", "scheduler.queue",
                  "execute", "embedding_cache.probe")


def demo_registry() -> MetricsRegistry:
    """Deterministic fixture registry behind the exporter goldens.

    The ``demo_*`` names are a test vocabulary, not engine metrics, so
    they are deliberately absent from ``analysis/metric_names.py``.
    """
    registry = MetricsRegistry()
    requests = registry.counter(  # analysis: ignore[MN001] golden fixture
        "demo_requests_total", help="requests served")
    requests.inc()
    requests.inc(3)
    registry.gauge(  # analysis: ignore[MN001] golden fixture
        "demo_queue_depth", help="jobs waiting").set(3)
    registry.counter(  # analysis: ignore[MN001] golden fixture
        "demo_cache_hits_total", labels={"cache": "plan"},
        help="plan-cache hits").inc()
    latency = registry.histogram(  # analysis: ignore[MN001] golden fixture
        "demo_latency_seconds", buckets=(0.25, 0.5, 1.0),
        help="statement latency")
    for value in (0.125, 0.375, 0.375, 0.75, 2.0):
        latency.observe(value)
    return registry


def _build_server() -> EngineServer:
    from repro.embeddings.pretrained import build_pretrained_model
    from repro.server import EngineServer
    from repro.storage.table import Table

    server = EngineServer(load_default_model=False)
    server.register_model(build_pretrained_model(seed=7), default=True)
    server.register_table("products", Table.from_dict({
        "pid": [1, 2, 3, 4],
        "ptype": ["sneakers", "parka", "sedan", "apple"],
        "price": [25.0, 120.0, 9000.0, 2.0],
    }))
    server.register_table("kb", Table.from_dict({
        "label": ["shoes", "jacket", "car", "fruit"],
        "category": ["clothes", "clothes", "vehicle", "food"],
    }))
    return server


def _schema(registry: MetricsRegistry) -> dict[str, str]:
    return {inst.name: inst.kind for inst in registry.collect()}


def schema_drift(schema: dict[str, str]) -> str:
    """How ``schema`` differs from the golden one; ``""`` when they
    agree."""
    golden = json.loads((GOLDEN_DIR / SCHEMA_GOLDEN).read_text())
    if schema == golden:
        return ""
    added = sorted(set(schema) - set(golden))
    removed = sorted(set(golden) - set(schema))
    retyped = sorted(name for name in set(schema) & set(golden)
                     if schema[name] != golden[name])
    return f"added={added} removed={removed} retyped={retyped}"


def live_schema() -> dict[str, str]:
    """The ``{name: kind}`` map of a fresh server's registry after one
    traced semantic join — the schema the golden pins."""
    with _build_server() as server:
        server.sql(JOIN)
        return _schema(server.state.metrics_registry)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.smoke", description=__doc__.split("\n")[0])
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate the golden files and exit")
    arguments = parser.parse_args(argv)

    failures: list[str] = []

    def check(ok: bool, label: str, detail: str = "") -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {label}"
              + (f": {detail}" if detail and not ok else ""))
        if not ok:
            failures.append(label)

    with _build_server() as server:
        server.sql(JOIN)
        traces = server.traces()
        check(len(traces) == 1, "one statement, one trace",
              f"got {len(traces)}")
        trace = traces[-1]
        missing = [name for name in EXPECTED_SPANS
                   if trace.find(name) is None]
        check(not missing, "span tree complete", f"missing {missing}")
        operators = [child.name for execute in trace.find_all("execute")
                     for child in execute.children
                     if child.name.startswith("operator:")]
        check(bool(operators), "per-operator execute spans",
              "no operator:* spans under execute")

        text = server.export_prometheus()
        snapshot = server.export_json()
        try:
            parsed = parse_prometheus(text)
            check(parsed == snapshot, "prometheus re-parses to snapshot",
                  "parsed samples differ from export_json()")
        except ValueError as error:
            check(False, "prometheus page validates", str(error))
        schema = _schema(server.state.metrics_registry)

    demo = demo_registry()
    demo_text = prometheus_text(demo)
    demo_snapshot = json_snapshot(demo)

    if arguments.write_golden:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        (GOLDEN_DIR / PROMETHEUS_GOLDEN).write_text(demo_text)
        (GOLDEN_DIR / SNAPSHOT_GOLDEN).write_text(
            json.dumps(demo_snapshot, indent=2, sort_keys=True) + "\n")
        (GOLDEN_DIR / SCHEMA_GOLDEN).write_text(
            json.dumps(schema, indent=2, sort_keys=True) + "\n")
        print(f"wrote goldens under {GOLDEN_DIR}")
        return 0

    check(demo_text == (GOLDEN_DIR / PROMETHEUS_GOLDEN).read_text(),
          "prometheus golden matches",
          "regenerate with --write-golden if the change is deliberate")
    check(demo_snapshot == json.loads(
        (GOLDEN_DIR / SNAPSHOT_GOLDEN).read_text()),
          "json snapshot golden matches", "snapshot differs")

    drift = schema_drift(schema)
    check(not drift, "metric schema matches golden", drift)

    if failures:
        print(f"\n{len(failures)} observability smoke failure(s)")
        return 1
    print("\nobservability smoke clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
