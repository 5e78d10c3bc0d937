"""The optimizer facade: rules -> pruning -> join order -> DIP -> physical.

Every stage is individually toggleable through :class:`OptimizerConfig`,
which is what the rule-ablation benchmark sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import CostModel, CostParams
from repro.optimizer.dip import DataInducedPredicates
from repro.optimizer.join_order import JoinOrderOptimizer
from repro.optimizer.physical_selection import PhysicalSelector
from repro.obs.metrics import MetricsRegistry
from repro.optimizer.rules import (
    DEFAULT_PHASES,
    DEFAULT_RULES,
    PruneColumns,
    RewriteRule,
    RuleContext,
    rewrite_fixpoint,
    rewrite_phases,
)
from repro.relational.logical import LogicalPlan
from repro.relational.physical import ExecutionContext
from repro.storage.catalog import Catalog

if TYPE_CHECKING:
    from repro.embeddings.registry import ModelRegistry


@dataclass
class OptimizerConfig:
    """Stage toggles and knobs."""

    enable_rules: bool = True
    enable_prune: bool = True
    enable_join_order: bool = True
    enable_dip: bool = True
    enable_physical: bool = True
    dip_row_limit: int = 64
    sample_size: int = 64
    rules: list[RewriteRule] | None = None
    cost_params: CostParams = field(default_factory=CostParams)


@dataclass
class OptimizationReport:
    """What the optimizer did (consumed by EXPLAIN and the benchmarks)."""

    rules_applied: dict[str, int] = field(default_factory=dict)
    joins_reordered: int = 0
    dip_applied: int = 0
    estimated_cost: float = 0.0
    #: Bottom-up rewrite passes executed across every fixpoint.
    rewrite_passes: int = 0
    #: False when any rewrite fixpoint hit ``max_passes`` while rules
    #: were still firing (also counted on
    #: ``optimizer_rewrite_nonconvergence_total``).
    rewrite_converged: bool = True


class Optimizer:
    """Holistic optimizer over relational + semantic plans."""

    def __init__(self, catalog: Catalog,
                 models: ModelRegistry | None = None,
                 config: OptimizerConfig | None = None,
                 execution_context: ExecutionContext | None = None) -> None:
        self.config = config or OptimizerConfig()
        self.estimator = CardinalityEstimator(
            catalog, models, sample_size=self.config.sample_size,
            execution_context=execution_context)
        self.cost_model = CostModel(self.estimator, self.config.cost_params)
        self.execution_context = execution_context
        registry = getattr(execution_context, "metrics_registry", None)
        if not isinstance(registry, MetricsRegistry):
            # standalone optimizers (no engine state) count into a
            # private sink; registration is idempotent on shared ones
            registry = MetricsRegistry()
        self._nonconvergence = registry.counter(
            "optimizer_rewrite_nonconvergence_total",
            help="rewrite fixpoints that hit max_passes still firing")
        self.last_report = OptimizationReport()

    def optimize(self, plan: LogicalPlan) -> LogicalPlan:
        """Return an optimized, physically-annotated plan.

        Estimates are memoized per plan node for this call only
        (:meth:`CardinalityEstimator.memoized`).
        """
        with self.estimator.memoized():
            return self._optimize(plan)

    def _optimize(self, plan: LogicalPlan) -> LogicalPlan:
        report = OptimizationReport()
        config = self.config
        rule_ctx = RuleContext(estimator=self.estimator,
                               cost_model=self.cost_model)

        if config.enable_rules:
            # an explicit rule list (ablation configs) runs as one flat
            # fixpoint; the default suite runs the phased pipeline
            if config.rules is not None:
                plan = rewrite_fixpoint(plan, config.rules, rule_ctx)
            else:
                plan = rewrite_phases(plan, DEFAULT_PHASES, rule_ctx)
        if config.enable_prune:
            plan = PruneColumns().run(plan)
        if config.enable_join_order:
            reorder = JoinOrderOptimizer(self.estimator, self.cost_model)
            plan = reorder.run(plan)
            report.joins_reordered = reorder.reordered
        if config.enable_dip and self.execution_context is not None:
            dip = DataInducedPredicates(self.estimator,
                                        self.execution_context,
                                        row_limit=config.dip_row_limit)
            plan = dip.run(plan)
            report.dip_applied = dip.applied
            if dip.applied and config.enable_rules:
                # derived predicates may enable further pushdowns ...
                fired_before = dict(rule_ctx.applied)
                if config.rules is not None:
                    plan = rewrite_fixpoint(plan, config.rules, rule_ctx)
                else:
                    plan = rewrite_phases(plan, DEFAULT_PHASES, rule_ctx)
                # ... and filters that sank into join inputs change the
                # estimates the join order was chosen on: re-trigger it
                if config.enable_join_order and _pushdowns_fired(
                        fired_before, rule_ctx.applied):
                    reorder = JoinOrderOptimizer(self.estimator,
                                                 self.cost_model)
                    plan = reorder.run(plan)
                    report.joins_reordered += reorder.reordered
        if config.enable_physical:
            plan = PhysicalSelector().run(plan)

        report.rules_applied = dict(rule_ctx.applied)
        report.rewrite_passes = rule_ctx.passes
        report.rewrite_converged = rule_ctx.converged
        if not rule_ctx.converged:
            self._nonconvergence.inc()
        report.estimated_cost = self.cost_model.estimate_total(plan)
        self.last_report = report
        return plan


def _pushdowns_fired(before: dict[str, int], after: dict[str, int]) -> bool:
    """Did any pushdown rule fire between the two applied-count
    snapshots?  (Join-order re-trigger condition after DIP.)"""
    return any(after.get(name, 0) > before.get(name, 0)
               for name in after
               if name.startswith("push_filter"))
