"""Brute-force oracles: trajectory enumeration and change-point enumeration.

These recompute the closed forms elsewhere in the package by exhaustive
enumeration at small scale.  They are deliberately naive; every trajectory is
walked with its probability and the entropy of the resulting distribution is
evaluated directly.

The trajectory oracle steps from the model's one-step table over the groups
(status, dwell index capped at the prefix length), ``JointModel.transitions``,
built once per model, with a fixed fan-out: every group lists its live moves,
padded with zero-probability moves to the widest row.
Each start owns one row of ``b**a`` trajectory probabilities, each step one
gather and one product over the block (and, but for the last step, one gather
of the next groups), and every trajectory's probability is carried
individually to the end.  Starts are enumerated together in blocks of at most
``BLOCK_TRAJECTORIES`` (8,192) final trajectories, the largest cap measured
not to raise peak RSS.  A block's entropies take the plain log2 when every
trajectory is positive, and the masked one (0 log 0 = 0) only when a pad move
or an underflow left a zero.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .bayes import BayesModel
from .markov import JointModel, StationaryDistribution
from .schedule import ScheduleBlock

ENUMERATION_BUDGET = 10**7
# Starts enumerated together are capped at this many final trajectories,
# which bounds the frontier's memory.  8,192 puts 3 starts in a block at
# a = 7 and b = 3, and the peak RSS of one `perfbench/op.py oracle` process
# (medians of 7 seeds, numpy 2.4.6) read 35.99 MB at 4,096, 35.98 at 8,192,
# 36.27 at 16,384 and 36.82 at 32,768.
BLOCK_TRAJECTORIES = 8192


class EnumerationBudgetError(RuntimeError):
    """Enumeration would exceed the configured trajectory budget."""


def _enumerate(table: tuple[np.ndarray, np.ndarray], starts: np.ndarray, a: int) -> np.ndarray:
    """Probabilities of all length-``a`` trajectories from the start groups.

    Returns shape (len(starts), b**a): row i holds start i's trajectories,
    each probability the left-to-right product of its moves, and 0.0 for
    those through a pad move.  A row does not depend on the other starts.
    """
    child, prob = table
    groups = starts
    probs = np.ones(len(groups))
    for step in range(a):
        if step:  # no gather after the last step: nothing reads its groups
            groups = child.take(groups, axis=0).ravel()
        # np.take gathers whole rows about twice as fast as fancy indexing
        probs = (probs[:, None] * prob.take(groups, axis=0)).ravel()
    return probs.reshape(len(starts), -1)


def _entropies(model: JointModel, starts: np.ndarray, a: int) -> np.ndarray:
    """Entropy (bits) of the next ``a`` joint states from each start group."""
    if a < 0:
        raise ValueError("window length must be non-negative")
    fan = 1 + model.alphabet_size
    if fan**a > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"~{fan}^{a} trajectories exceed the budget of {ENUMERATION_BUDGET}"
        )
    table = model.transitions
    # a start has b^a trajectories, b the table's width
    per_block = max(1, BLOCK_TRAJECTORIES // table[0].shape[1]**a)
    out = np.empty(len(starts))
    for lo in range(0, len(starts), per_block):
        probs = _enumerate(table, starts[lo:lo + per_block], a)
        mass = probs.sum(axis=1)
        bad = np.abs(mass - 1.0) > 1e-12
        if np.any(bad):
            raise AssertionError(f"enumerated mass {mass[bad][0]} != 1")
        if probs.min() > 0.0:
            bits = np.log2(probs)
        else:  # a pad move or an underflow: 0 log 0 = 0
            bits = np.log2(probs, out=np.zeros_like(probs), where=probs > 0.0)
        # the terms -p log2 p, in place: each the same bits as (-p) * log2 p
        bits *= probs
        np.negative(bits, out=bits)
        out[lo:lo + per_block] = bits.sum(axis=1)
    return out


def exact_conditional_entropy(model: JointModel, x: int, t: int, a: int) -> float:
    """Entropy (bits) of the next ``a`` joint states given the current one,
    status ``x`` after ``t`` slots in it."""
    if t < 0:
        raise ValueError("dwell counter must be non-negative")
    m = model.dwell.prefix_len
    start = np.array([x * (m + 1) + min(t, m)])
    return float(_entropies(model, start, a)[0])


def exact_ensemble_gaoi(model: JointModel, dist: StationaryDistribution, a: int) -> float:
    """Stationary average of the a-slot conditional entropy (bits).

    Trajectory laws from (x, t) coincide for every t past the dwell prefix,
    so states are grouped by their effective dwell index and weighted by the
    exact group masses of the stationary law, geometric tail included.  All
    positive-weight groups are enumerated together, in blocks of at most
    ``BLOCK_TRAJECTORIES`` trajectories.
    """
    weights = dist.group_weights.ravel()
    starts = np.flatnonzero(weights > 0.0)
    # a sequential sum, in the order of a loop over the starts
    return float(sum(weights[starts] * _entropies(model, starts, a)))


def exact_bayes_gaoi(model: BayesModel, a: int) -> float:
    """Entropy of the change-offset distribution over an a-slot window.

    The a+1 distinguishable outcomes (change at offset 1..a, or not yet) are
    in bijection with the positive-probability trajectories of the absorbing
    chain, so their entropy is the trajectory entropy.
    """
    if a < 0:
        raise ValueError("window length must be non-negative")
    if a == 0:
        return 0.0
    p = model.p
    probs = np.array([p * (1.0 - p) ** (k - 1) for k in range(1, a + 1)] + [(1.0 - p) ** a])
    assert abs(probs.sum() - 1.0) <= 1e-12
    pos = probs[probs > 0.0]
    return float(-(pos * np.log2(pos)).sum())


def exact_bayes_delay(model: BayesModel, block: ScheduleBlock) -> np.ndarray:
    """Expected detection delay of every row, by enumerating every change
    time in [1, T] and finding its detection by bisection on the row."""
    p, t = model.p, block.horizon
    out = np.empty(block.num_paths)
    for k in range(block.num_paths):
        # the cap (T, T) after the row: a change after every sample waits to T
        samples = [*block.samples[k].tolist(), t]
        deliveries = [*block.deliveries[k].tolist(), t]
        total = 0.0
        for theta in range(1, t + 1):
            weight = p * (1.0 - p) ** (theta - 1)
            total += weight * (deliveries[bisect_left(samples, theta)] - theta)
        out[k] = total
    return out
