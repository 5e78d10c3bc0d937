"""Run the benchmark over workloads x seeds and keep every result.

    python3 benchmarks/e2e/suite.py --out A.jsonl                # e2e runs
    python3 benchmarks/e2e/suite.py --trace 1 --seeds 1 --out L.jsonl

Each run is one ``run.py`` process (exactly what BENCHMARK.json's
command starts), so runs share nothing.  The human-readable report of
every run goes to standard output; ``--out`` receives one JSON line per
run — ``{"workload", "seed", "trace", "seconds", "result"}`` — which is
what ``compare.py`` reads.  Workloads alternate inside each seed, so a
slow minute on the box spreads over all of them.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent


def main(argv: list[str] | None = None) -> int:
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as source:
        contract = json.load(source)
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names,
                        choices=names)
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=[1, 2, 3])
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="paper")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    failed = 0
    with open(args.out, "w", encoding="utf-8") as sink:
        for seed in args.seeds:
            for workload in args.workloads:
                command = [sys.executable, str(HERE / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", f"{args.seconds:g}",
                           "--trace", str(args.trace),
                           "--scale", args.scale]
                done = subprocess.run(command, capture_output=True,
                                      text=True, cwd=REPO, check=False)
                sys.stdout.write(done.stdout)
                sys.stderr.write(done.stderr)
                if done.returncode != 0:
                    failed += 1
                    continue
                result = json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])
                failed += not result["correct"]
                sink.write(json.dumps({
                    "workload": workload, "seed": seed, "trace": args.trace,
                    "seconds": args.seconds, "result": result}) + "\n")
                sink.flush()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
