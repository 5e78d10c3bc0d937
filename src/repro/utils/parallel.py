"""The machine's core count, for sizing the serving layer's query pool.

Queries run their kernels serially on the worker that dispatched them;
the scheduler's pool (``SchedulerConfig.workers``) is the only place a
thread count is set, and this is its default.
"""

from __future__ import annotations

import os

#: Upper clamp for the derived default.
MAX_DEFAULT_WORKERS = 16


def default_parallelism(clamp: int = MAX_DEFAULT_WORKERS) -> int:
    """CPU-derived worker count: cores visible to this process, clamped.

    Prefers the scheduler affinity mask (what containers actually grant)
    over the raw core count.
    """
    try:
        count = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        count = os.cpu_count() or 1
    return max(1, min(count, clamp))
