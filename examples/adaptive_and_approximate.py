"""Adaptive re-optimization and approximate query processing (§VI).

Two of the paper's "just-in-time" mechanisms:

1. **Adaptive execution** — the engine checkpoints at a pipeline breaker,
   compares actual vs estimated cardinalities (here a skewed predicate
   fools the uniform-NDV estimate), and re-optimizes the rest of the plan
   against materialized reality.
2. **Sampling-based AQP** — aggregate answers with confidence intervals
   from a fraction of the data (ref [28]).

Run:  python examples/adaptive_and_approximate.py
"""

from repro.engine.adaptive import AdaptiveExecutor
from repro.engine.session import Session
from repro.relational.aqp import ApproximateAggregator
from repro.relational.expressions import col
from repro.storage.table import Table
from repro.utils.rng import make_rng


def build_session() -> Session:
    rng = make_rng(13)
    n = 5_000
    # 90% of products are sneakers: a uniform-NDV estimator will be wrong
    skewed = ["sneakers"] * 90 + ["parka", "sedan", "kitten", "blazer",
                                  "apple"] * 2
    session = Session(seed=7)
    session.register_table("products", Table.from_dict({
        "pid": list(range(n)),
        "ptype": [skewed[int(i)] for i in rng.integers(0, len(skewed), n)],
        "price": rng.uniform(1, 100, n).tolist(),
    }))
    session.register_table("kb", Table.from_dict({
        "label": ["shoes", "jacket", "car", "fruit"],
        "category": ["clothes", "clothes", "vehicle", "food"],
    }))
    return session


def main() -> None:
    session = build_session()

    # --- 1. adaptive execution -------------------------------------------
    plan = (session.table("products", alias="p")
            .filter(col("p.ptype") == "sneakers")   # actually ~90% of rows!
            .semantic_join(session.table("kb", alias="k"),
                           "p.ptype", "k.label", threshold=0.9)
            .plan)
    adaptive = AdaptiveExecutor(session, deviation_factor=3.0)
    result, report = adaptive.execute(plan)
    print("adaptive checkpoint at:", report.checked_node)
    print(f"  estimated inputs: {report.estimated_inputs[0]:,.0f} x "
          f"{report.estimated_inputs[1]:,.0f}")
    print(f"  actual inputs:    {report.actual_inputs[0]:,} x "
          f"{report.actual_inputs[1]:,}")
    print(f"  deviation {report.deviation:.1f}x -> "
          f"{'re-optimized' if report.reoptimized else 'kept plan'}; "
          f"{result.num_rows} result rows")

    # --- 2. approximate aggregation ---------------------------------------
    products = session.catalog.get("products")
    aggregator = ApproximateAggregator(products, sample_fraction=0.05,
                                       seed=11)
    exact_revenue = float(products.column("price").sum())
    approx_revenue = aggregator.sum("price")
    print(f"\nexact SUM(price):  {exact_revenue:,.2f}  (full scan)")
    print(f"approx SUM(price): {approx_revenue}  "
          f"(truth inside CI: {approx_revenue.contains(exact_revenue)})")

    count = aggregator.count(col("price") > 50)
    exact_count = int((products.column("price") > 50).sum())
    print(f"approx COUNT(price>50): {count}  "
          f"(exact {exact_count:,}, inside CI: "
          f"{count.contains(exact_count)})")


if __name__ == "__main__":
    main()
