"""Shared utilities: deterministic RNG, timing, text, and core count."""

from repro.utils.parallel import default_parallelism
from repro.utils.rng import derive_seed, make_rng
from repro.utils.timing import Timer, timed
from repro.utils.text import normalize_token, tokenize

__all__ = [
    "default_parallelism",
    "derive_seed",
    "make_rng",
    "Timer",
    "timed",
    "normalize_token",
    "tokenize",
]
