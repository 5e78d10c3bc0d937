"""Concurrent serving layer: multi-session engine server.

Turns the single-user engine into a query-serving system:

- :class:`~repro.server.server.EngineServer` owns one shared
  :class:`~repro.engine.state.EngineState` (tables, models, embedding
  arenas, vector-index, plan and result caches) and hands out
  lightweight :class:`~repro.server.server.ClientSession` facades that
  share it;
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
from repro.server.server import ClientSession, EngineServer

__all__ = [
    "AdmissionError",
    "ClientSession",
    "EngineServer",
    "QueryTicket",
    "Scheduler",
    "SchedulerConfig",
]
