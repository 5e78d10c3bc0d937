"""CLI for the static-analysis suite.

``python -m repro.analysis`` checks the real engine tree and exits 0
when clean, 1 with one ``RULE  path:line  message`` per finding.
``--rules locks,dispatch`` restricts the analyzers;
``--fixture lock DIR`` runs a seeded self-test fixture instead (and is
expected to exit nonzero — that is the fixture's point).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis import engine_config, run_analysis
from repro.analysis.core import ALL_RULES
from repro.analysis.fixtures import FIXTURE_KINDS, fixture_config


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="engine-aware static analysis: lock hierarchy, "
                    "dispatch exhaustiveness, cache-key discipline")
    parser.add_argument(
        "--rules", default=",".join(ALL_RULES),
        help="comma-separated analyzers to run (default: all of "
             f"{', '.join(ALL_RULES)})")
    parser.add_argument(
        "--fixture", nargs=2, metavar=("KIND", "DIR"), default=None,
        help="run a seeded self-test fixture (KIND one of "
             f"{', '.join(FIXTURE_KINDS)}; DIR is the fixture tree)")
    args = parser.parse_args(argv)

    rules = tuple(r.strip() for r in args.rules.split(",") if r.strip())
    if args.fixture is not None:
        kind, root = args.fixture
        config = fixture_config(kind, Path(root))
        rules = (kind,) if args.rules == ",".join(ALL_RULES) else rules
        rules = tuple({"lock": "locks", "metric": "metrics",
                       "annotation": "annotations"}.get(r, r)
                      for r in rules)
    else:
        config = engine_config()

    findings = run_analysis(config, rules)
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"{len(findings)} finding(s)")
        return 1
    checked = ", ".join(rules)
    print(f"static analysis clean ({checked}; "
          f"{len(config.package.modules)} modules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
