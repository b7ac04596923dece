"""Arithmetic of the benchmark: tail percentile, relative cost, span self
time and work counts.

Kept free of I/O so that ``test_arith.py`` can check it on hand-made inputs.
"""

from __future__ import annotations

import statistics

import numpy as np

TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile


def tail_percentile(samples, beyond: int = TAIL_BEYOND):
    """Highest percentile of ``samples`` that still has ``beyond`` samples above it.

    The sample at 0-based rank ``i`` of the sorted list has ``n - 1 - i``
    samples above it, so the highest qualifying rank is ``n - 1 - beyond``;
    its percentile is the share of samples at or below it.  Returns
    ``(value, percentile, n)``, or ``None`` when there are ``beyond`` samples
    or fewer.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - 1 - beyond
    if rank < 0:
        return None
    return float(ordered[rank]), 100.0 * (rank + 1) / n, n


def relative_cost(op_times, ref_times) -> float:
    """Cost of an operation in units of the reference run beside it.

    ``ref_times[i]`` is the wall time of the reference process around
    operation ``i``.  Each operation's time is divided by its own reference,
    so a spell in which the whole machine runs slower cancels out; the
    median of the ratios is returned.
    """
    return statistics.median(t / r for t, r in zip(op_times, ref_times, strict=True))


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct child spans.

    ``parent[i]`` is the index of the span that was open when span ``i``
    began, or -1 for a root span.  Spans come from one thread, so children
    nest inside their parent and never overlap each other.
    """
    duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=len(duration))
    return duration - covered


def path_slots(paths: int, horizon: int, policies: int) -> int:
    """Slots simulated by one ensemble run: every policy runs every path."""
    return paths * horizon * policies


def window_slots(states_per_model, max_window: int) -> int:
    """Slots of the windows ``a = 1..max_window`` checked from every status
    of every model: the oracle's counterpart of ``path_slots``."""
    return sum(states_per_model) * max_window * (max_window + 1) // 2
