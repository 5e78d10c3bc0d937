"""Regenerate every table and figure of the paper in one run.

Usage:
    python benchmarks/run_all.py [--scale small|medium|paper]

Prints, in order: Table I, Figure 4 (two-series ladder), Figure 2
(motivating query), Figure 3 (consolidation), Figure 5 (hardware
placement), and the ablations (optimizer stages, index access paths,
quantization).  See EXPERIMENTS.md for the shape claims each section
verifies.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default=None,
                        choices=["small", "medium", "paper"],
                        help="workload scale (default: REPRO_BENCH_SCALE "
                             "or 'small')")
    arguments = parser.parse_args()
    if arguments.scale:
        os.environ["REPRO_BENCH_SCALE"] = arguments.scale

    # scale must be set before the bench modules read it at import time
    from benchmarks import (
        bench_ablation_index_access,
        bench_ablation_optimizer,
        bench_ablation_quantization,
        bench_concurrent_serving,
        bench_embedding_pipeline,
        bench_incremental_ingest,
        bench_result_cache,
        bench_rewrite_depth,
        bench_fig2_motivating_query,
        bench_fig3_consolidation,
        bench_fig4_optimization_ladder,
        bench_fig5_hardware_placement,
        bench_rowid_join,
        bench_semantic_reuse,
        bench_table1_semantic_matches,
    )

    sections = [
        ("Table I — semantic matches", bench_table1_semantic_matches),
        ("Figure 4 — optimization ladder",
         bench_fig4_optimization_ladder),
        ("Figure 2 — motivating query", bench_fig2_motivating_query),
        ("Figure 3 — consolidation", bench_fig3_consolidation),
        ("Figure 5 — hardware placement",
         bench_fig5_hardware_placement),
        ("Ablation — optimizer stages", bench_ablation_optimizer),
        ("Ablation — index access paths", bench_ablation_index_access),
        ("Ablation — int8 quantization", bench_ablation_quantization),
        ("PR 1 — embedding pipeline", bench_embedding_pipeline),
        ("PR 2 — row-id joins + kernels", bench_rowid_join),
        ("PR 3 — concurrent serving", bench_concurrent_serving),
        ("PR 4 — cross-statement result cache", bench_result_cache),
        ("PR 5 — semantic subsumption reuse", bench_semantic_reuse),
        ("PR 9 — rewrite depth + generic plans", bench_rewrite_depth),
        ("PR 10 — incremental ingest", bench_incremental_ingest),
    ]
    # the PR benchmarks take argv directly (their own argparse): run
    # them quick at small scale — full runs rewrite the committed
    # BENCH_*.json trajectories, which only a deliberate full-scale
    # invocation should do
    scale = os.environ.get("REPRO_BENCH_SCALE", "small")
    pr_bench_argv = ["--quick"] if scale == "small" else []
    takes_argv = {bench_embedding_pipeline, bench_rowid_join,
                  bench_concurrent_serving, bench_result_cache,
                  bench_semantic_reuse, bench_rewrite_depth,
                  bench_incremental_ingest}
    total_start = time.perf_counter()
    for title, module in sections:
        banner = f"  {title}  "
        print()
        print("=" * len(banner))
        print(banner)
        print("=" * len(banner))
        started = time.perf_counter()
        if module in takes_argv:
            module.main(pr_bench_argv)
        else:
            module.main()
        print(f"[section took {time.perf_counter() - started:.1f}s]")
    print(f"\nall experiments regenerated in "
          f"{time.perf_counter() - total_start:.1f}s "
          f"(scale={os.environ.get('REPRO_BENCH_SCALE', 'small')})")
    print_committed_gates()


#: Gate-carrying keys surfaced in the committed-trajectory summary, in
#: display order; each BENCH_*.json reports whichever subset it has.
_GATE_KEYS = (
    "parity", "parity_atol_1e-6", "join_parity", "invalidation_ok",
    "all_parity_answers_residual", "approximate_index_fell_back",
    "speedup_enforced", "workload_speedup", "refinement_speedup",
    "speedup", "idspace_gather_speedup", "speedup_target",
    "rewrite_parity", "rewrite_converged", "generic_hit_rate",
    "generic_parity", "demotion_ok", "ingest_parity", "never_stale",
    "delta_speedup", "plan_cache_survived",
)


def print_committed_gates() -> None:
    """One-line summary per committed ``BENCH_*.json`` trajectory.

    The quick-mode sections above never rewrite the committed files, so
    this table shows what the last *full* runs recorded — the numbers a
    regression would be judged against.
    """
    import json

    root = Path(__file__).resolve().parent.parent
    trajectories = sorted(root.glob("BENCH_*.json"))
    print("\ncommitted benchmark trajectories "
          f"({len(trajectories)} files):")
    if not trajectories:
        print("  (none)")
        return
    for path in trajectories:
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            print(f"  {path.name}: unreadable ({error})")
            continue
        shown = []
        for key in _GATE_KEYS:
            if key not in data:
                continue
            value = data[key]
            if isinstance(value, dict):
                # nested sections (e.g. rowid join_parity) surface only
                # their boolean parity flags
                for sub, flag in value.items():
                    if "parity" in sub and isinstance(flag, bool):
                        shown.append(f"{key}.{sub}={flag}")
                continue
            shown.append(f"{key}={value}")
        cpu = data.get("cpu_count")
        if cpu is not None:
            shown.append(f"cpus={cpu}")
        print(f"  {path.name}: " + ", ".join(shown))


if __name__ == "__main__":
    main()
