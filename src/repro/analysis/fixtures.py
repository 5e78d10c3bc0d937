"""Analysis configurations for the seeded self-test fixtures.

The fixture sources live under ``tests/analysis_fixtures/`` and each
contains exactly one deliberate violation; the configurations here
declare the (tiny) lock/dispatch/cache models those fixtures are
checked against.  They are part of the analysis package — not the
tests — so the CLI can run them too::

    python -m repro.analysis --fixture lock tests/analysis_fixtures

exits nonzero with the seeded LH001 finding, proving the checker
catches what it claims to catch.  ``tests/test_static_analysis.py``
asserts the exact rule ids and locations.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.annotations import AnnotationModel
from repro.analysis.cachekeys import CacheModel, VersionBump
from repro.analysis.core import AnalysisConfig, Package
from repro.analysis.dispatch import DispatchModel, DispatcherSpec, Family
from repro.analysis.locks import LockDecl, LockModel
from repro.analysis.metricnames import MetricDecl, MetricNamesModel

FIXTURE_PACKAGE = "analysis_fixtures"

FIXTURE_KINDS = ("lock", "dispatch", "cache", "metric", "annotation")


def fixture_config(kind: str, root: Path) -> AnalysisConfig:
    """Build the analysis config for one seeded fixture family."""
    package = Package(Path(root), FIXTURE_PACKAGE,
                      report_base=Path(root).parent)
    if kind == "lock":
        return AnalysisConfig(package=package, locks=_lock_model())
    if kind == "dispatch":
        return AnalysisConfig(package=package, dispatch=_dispatch_model())
    if kind == "cache":
        return AnalysisConfig(package=package, cache=_cache_model())
    if kind == "metric":
        return AnalysisConfig(package=package, metrics=_metric_model())
    if kind == "annotation":
        return AnalysisConfig(package=package, annotations=AnnotationModel(
            strict=(f"{FIXTURE_PACKAGE}.untyped_def",)))
    raise ValueError(f"unknown fixture kind {kind!r}; "
                     f"choose from {FIXTURE_KINDS}")


def _lock_model() -> LockModel:
    prefix = f"{FIXTURE_PACKAGE}.lock_inversion"
    return LockModel(
        declarations=(
            LockDecl(name="Registry._lock",
                     owner=f"{prefix}.Registry", attr="_lock", level=1),
            LockDecl(name="Store._lock",
                     owner=f"{prefix}.Store", attr="_lock", level=2),
            LockDecl(name="Counter._lock",
                     owner=f"{prefix}.Counter", attr="_lock", level=3),
        ),
        attr_types={
            "registry": f"{prefix}.Registry",
            "store": f"{prefix}.Store",
            "counter": f"{prefix}.Counter",
        },
        boundary_modules=frozenset({f"{FIXTURE_PACKAGE}.lock_inversion"}),
    )


def _dispatch_model() -> DispatchModel:
    prefix = f"{FIXTURE_PACKAGE}.missing_arm"
    return DispatchModel(
        families=(Family(name="node", base=f"{prefix}.Node"),),
        specs=(DispatcherSpec(function=f"{prefix}.render",
                              family="node", default="reject"),),
    )


def _metric_model() -> MetricNamesModel:
    return MetricNamesModel(
        declarations=(
            MetricDecl("fixture_requests_total", "counter",
                       "requests served"),
        ),
    )


def _cache_model() -> CacheModel:
    prefix = f"{FIXTURE_PACKAGE}.version_skip"
    ingest_prefix = f"{FIXTURE_PACKAGE}.data_version_skip"
    return CacheModel(
        version_protocols=(
            VersionBump(owner=f"{prefix}.MiniCatalog", attr="_version",
                        mutators=("register", "drop")),
            VersionBump(owner=f"{ingest_prefix}.MiniIngestCatalog",
                        attr="_data_versions",
                        mutators=("append_rows", "replace_rows")),
        ),
        protected_state=(),
        key_disciplines=(),
    )
