"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl

``A`` is the reference (the parent commit, or the first set of runs of
one commit), ``B`` the candidate; both are files ``suite.py`` wrote.
For every workload and end-to-end metric it prints both medians, the
run-to-run spread of each side (first to third quartile, as a share of
the median), the regression bound from BENCHMARK.json and a verdict:

- ``worse``       B's median is worse than A's by more than the bound,
- ``unresolved``  not worse, but a spread is wider than the bound, so
                  "unchanged" cannot be claimed,
- ``ok``          otherwise.

Exits 1 if any row is ``worse``, else 0.  With ``--layers`` the
per-layer metrics of ``--trace 1`` runs are listed too (medians only —
they carry no bound).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent


def load(path: Path, trace: int) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [value per run]}}`` of one trace mode."""
    values: dict[str, dict[str, list[float]]] = defaultdict(
        lambda: defaultdict(list))
    with open(path, encoding="utf-8") as source:
        for line in source:
            run = json.loads(line)
            if run["trace"] != trace:
                continue
            for name, metric in run["result"]["metrics"].items():
                values[run["workload"]][name].append(metric["value"])
    return values


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (third - first) / abs(median) if median else 0.0


def worsening(reference: float, candidate: float, better: str) -> float:
    """By what share of the reference the candidate is worse (< 0 when
    it is better)."""
    change = (candidate - reference) / abs(reference) if reference else 0.0
    return change if better == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("reference", type=Path)
    parser.add_argument("candidate", type=Path)
    parser.add_argument("--layers", action="store_true",
                        help="also list per-layer medians (--trace 1 runs)")
    args = parser.parse_args(argv)
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as source:
        contract = json.load(source)
    reference, candidate = load(args.reference, 0), load(args.candidate, 0)
    verdicts: dict[str, int] = defaultdict(int)
    print(f"{'workload':20s} {'metric':16s} {'A median':>12s} {'A iqr':>7s} "
          f"{'B median':>12s} {'B iqr':>7s} {'worse by':>9s} {'bound':>6s}  "
          f"verdict")
    for workload in (entry["name"] for entry in contract["workloads"]):
        for entry in contract["end_to_end"]:
            a = reference.get(workload, {}).get(entry["name"])
            b = candidate.get(workload, {}).get(entry["name"])
            if not a or not b:
                continue
            worse_by = worsening(statistics.median(a), statistics.median(b),
                                 entry["better"])
            if worse_by > entry["bound"]:
                verdict = "worse"
            elif max(spread(a), spread(b)) > entry["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            verdicts[verdict] += 1
            print(f"{workload:20s} {entry['name']:16s} "
                  f"{statistics.median(a):12.4f} {spread(a):7.1%} "
                  f"{statistics.median(b):12.4f} {spread(b):7.1%} "
                  f"{worse_by:+9.1%} {entry['bound']:6.0%}  {verdict}  "
                  f"(n={len(a)}/{len(b)})")
    if args.layers:
        reference, candidate = load(args.reference, 1), load(args.candidate, 1)
        for workload in (entry["name"] for entry in contract["workloads"]):
            for entry in contract["per_layer"]:
                a = reference.get(workload, {}).get(entry["name"])
                b = candidate.get(workload, {}).get(entry["name"])
                if a and b:
                    print(f"{workload:20s} {entry['name']:42s} "
                          f"{statistics.median(a):14.6g} "
                          f"{statistics.median(b):14.6g} {entry['unit']}")
    print(", ".join(f"{count} {verdict}"
                    for verdict, count in sorted(verdicts.items()))
          or "no common end-to-end metrics")
    return 1 if verdicts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
