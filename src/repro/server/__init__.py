"""Concurrent serving layer: multi-session engine server.

Turns the single-user engine into a query-serving system:

- :class:`~repro.server.server.EngineServer` owns one shared
  :class:`~repro.engine.state.EngineState` (tables, models, embedding
  arenas, plan and result caches, scheduler) and hands out
  lightweight :class:`~repro.engine.session.Session` objects, one per
  tenant, that share it;
- :class:`~repro.server.scheduler.Scheduler` admission-controls a
  bounded worker pool, classifying queries into interactive vs. heavy
  lanes by the cost model's estimate.

The caches themselves are engine state: :mod:`repro.engine.plan_cache`
and :mod:`repro.engine.result_cache`.  See ``docs/serving.md`` for the
architecture and lock hierarchy.
"""

from repro.server.scheduler import (
    AdmissionError,
    QueryTicket,
    Scheduler,
    SchedulerConfig,
)
from repro.server.server import EngineServer

__all__ = [
    "AdmissionError",
    "EngineServer",
    "QueryTicket",
    "Scheduler",
    "SchedulerConfig",
]
