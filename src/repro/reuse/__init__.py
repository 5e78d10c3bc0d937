"""Semantic-subsumption reuse: answer refined statements from cached
super-results.

The exact result cache (PR 4) only recognises *byte-equal* statement
identity: the interactive pattern of re-issuing a semantic query with a
tightened threshold, a smaller ``TOP k``, an extra cheap predicate, or a
narrower projection misses and re-executes the expensive embedding/join
work.  This package closes that gap:

- :mod:`repro.reuse.analysis` — derives a statement's **reuse spec**
  (containment family, semantic slots, conjuncts, projection, limit)
  from its bound plan, augments the plan to carry per-row similarity
  scores and top-k ranks through execution, and proves containment
  between a probe spec and a cached entry;
- :mod:`repro.reuse.residual` — derives the refined statement's result
  from the cached super-result by refiltering / truncating / projecting,
  with tie guards that force a fallback whenever bit-identity cannot be
  proven from the snapshot alone;
- :mod:`repro.reuse.registry` — the subsumption counters; the entries a
  probe examines are the result cache's own, indexed there by
  containment family so a probe is O(resident candidates-in-family).

The correctness contract is strict: a subsumption answer must be
**bit-identical** to what fresh execution would have produced, and the
matcher refuses (falls back to normal execution) whenever the proof does
not hold — data-induced-predicate rewrites, diverged plan shapes, score
ties at a truncation boundary.
"""

from repro.reuse.analysis import (
    ReuseSpec,
    analyze_and_augment,
    describe_plan,
    plan_containment,
)
from repro.reuse.registry import ReuseRegistry
from repro.reuse.residual import derive_residual

__all__ = [
    "ReuseSpec",
    "ReuseRegistry",
    "analyze_and_augment",
    "describe_plan",
    "derive_residual",
    "plan_containment",
]
