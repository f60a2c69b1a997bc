"""Trace extraction with per-process memoization.

Mirrors the paper's methodology: traces are extracted once per benchmark
from the closed-loop CMP substrate (on the paper's cmesh CMP configuration)
and then replayed against every router configuration under test. The memo
is per process, but "once per benchmark" holds across worker processes
too: the sweep scheduler (``parallel.run_experiments``) treats each trace
as a dependency of the points that replay it, has exactly one worker
generate it, and ships it (``pack_trace``/``install_trace``) to every
other worker that replays it.
"""

from __future__ import annotations

import pickle

from ..cmp.system import CmpSystem
from ..traffic.trace import Trace

_trace_cache: dict[tuple, Trace] = {}
_cmp_cache: dict[tuple, CmpSystem] = {}


def trace_key(config) -> tuple | None:
    """The memo key of the trace an ``ExperimentConfig`` replays, or
    ``None`` for synthetic traffic; ``get_trace(*key)`` returns it."""
    if config.benchmark is None:
        return None
    return (config.benchmark, config.trace_cycles, config.trace_warmup,
            config.seed)


def get_cmp_run(benchmark: str, cycles: int = 2000, warmup: int = 400,
                seed: int = 1) -> CmpSystem:
    """A finished closed-loop CMP run for ``benchmark`` (memoized)."""
    key = (benchmark, cycles, warmup, seed)
    system = _cmp_cache.get(key)
    if system is None:
        system = CmpSystem(benchmark, seed=seed)
        system.run(cycles + warmup, record_trace=True, warmup=warmup)
        _cmp_cache[key] = system
    return system


def get_trace(benchmark: str, cycles: int = 2000, warmup: int = 400,
              seed: int = 1) -> Trace:
    """The injection trace of the corresponding CMP run (memoized)."""
    key = (benchmark, cycles, warmup, seed)
    trace = _trace_cache.get(key)
    if trace is None:
        trace = get_cmp_run(benchmark, cycles, warmup, seed).trace
        _trace_cache[key] = trace
    return trace


def has_trace(key: tuple) -> bool:
    """Whether this process already holds the trace ``key``."""
    return key in _trace_cache


def pack_trace(key: tuple) -> bytes | None:
    """The memoized trace ``key`` as compact bytes (``None`` if absent).

    The bytes are what the scheduler holds and forwards: a process that
    only passes a trace on never rebuilds its records.
    """
    trace = _trace_cache.get(key)
    if trace is None:
        return None
    return pickle.dumps(trace, protocol=pickle.HIGHEST_PROTOCOL)


def install_trace(key: tuple, packed: bytes) -> None:
    """Memoize a trace shipped as ``pack_trace`` bytes, unless present."""
    if key not in _trace_cache:
        _trace_cache[key] = pickle.loads(packed)


def clear_caches() -> None:
    _trace_cache.clear()
    _cmp_cache.clear()
