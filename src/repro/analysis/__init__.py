"""Engine-aware static analysis: lock hierarchy, dispatch
exhaustiveness, cache-key/invalidation discipline.

Run over the real engine tree with ``python -m repro.analysis`` (exit
status 0 when clean, 1 with ``RULE path:line message`` per finding),
or from tests via :func:`engine_config` + :func:`run_analysis`.  The
declarations the analyzers enforce live beside them:

- :mod:`repro.analysis.lock_levels` — the lock hierarchy (canonical;
  ``docs/serving.md`` points here).
- :mod:`repro.analysis.dispatch_registry` — every type-dispatch
  surface and its declared default.  A plan node's estimate, cost and
  lowering are not dispatched: they are methods declared on the node,
  and a tier-1 test checks every subclass overrides them.
- :mod:`repro.analysis.cache_dimensions` — version-bump protocol and
  pre-captured-key cache paths.
- :mod:`repro.analysis.metric_names` — the metric-name vocabulary the
  observability registry may register.
- ``mypy.ini`` — the strict-typing scope whose defs must be fully
  annotated.

Rule families: ``LH*`` locks, ``DX*`` dispatch, ``CK*`` cache keys,
``MN*`` metric names, ``TY*`` annotations, ``AN*`` the suite itself
(pragma hygiene).  Suppress a false positive with
``# analysis: ignore[RULE] <why>`` on the offending line; see
``docs/static-analysis.md``.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.core import (
    ALL_RULES, AnalysisConfig, Finding, Package, run_analysis)


def engine_config() -> AnalysisConfig:
    """Analysis configuration for the real ``src/repro`` tree."""
    from repro.analysis.annotations import AnnotationModel, strict_modules
    from repro.analysis.cache_dimensions import engine_cache_model
    from repro.analysis.dispatch_registry import engine_dispatch_model
    from repro.analysis.lock_levels import engine_lock_model
    from repro.analysis.metric_names import engine_metric_names_model

    package_dir = Path(__file__).resolve().parent.parent
    repo_root = package_dir.parent.parent
    package = Package(package_dir, "repro", report_base=repo_root)
    return AnalysisConfig(
        package=package,
        locks=engine_lock_model(),
        dispatch=engine_dispatch_model(),
        cache=engine_cache_model(),
        metrics=engine_metric_names_model(),
        annotations=AnnotationModel(strict_modules(repo_root / "mypy.ini")),
    )


__all__ = ["ALL_RULES", "AnalysisConfig", "Finding", "Package",
           "engine_config", "run_analysis"]
