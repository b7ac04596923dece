"""Brute-force oracles: trajectory enumeration and change-point enumeration.

These recompute the closed forms elsewhere in the package by exhaustive
enumeration at small scale.  They are deliberately naive; every trajectory is
walked with its probability and the entropy of the resulting distribution is
evaluated directly.

The trajectory oracle steps from a one-step transition table over the groups
(status, dwell index capped at the prefix length).  Start groups are enumerated
together in blocks of at most ``BLOCK_TRAJECTORIES`` final trajectories, each
step a few array operations over the block's frontier, and every trajectory's
probability is carried individually to the end.
"""

from __future__ import annotations

import numpy as np

from .bayes import BayesModel
from .markov import JointModel, JointState, StationaryDistribution
from .schedule import UpdateSchedule

ENUMERATION_BUDGET = 10**7
# Starts enumerated together are capped at this many final trajectories,
# which bounds the frontier's memory.
BLOCK_TRAJECTORIES = 4096


class EnumerationBudgetError(RuntimeError):
    """Enumeration would exceed the configured trajectory budget."""


def _transition_table(model: JointModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-step successors of every group g = x (m+1) + min(t, m).

    Returns ``(child, prob, live)``, each of shape (n (m+1), 1 + n).  Column 0
    is "stay" (child at dwell min(i+1, m), probability 1 - q); column 1 + y is
    "change to y" (child at dwell 0, probability q P[x, y]).  ``live`` marks
    the moves with positive probability.
    """
    n, m = model.alphabet_size, model.dwell.prefix_len
    q = np.column_stack([model.dwell.prefix, model.dwell.tail]).ravel()
    x = np.repeat(np.arange(n), m + 1)
    i = np.tile(np.arange(m + 1), n)
    rows = model.change.rows[x]
    stay = x * (m + 1) + np.minimum(i + 1, m)
    jump = np.broadcast_to(np.arange(n) * (m + 1), rows.shape)
    child = np.column_stack([stay, jump])
    prob = np.column_stack([1.0 - q, q[:, None] * rows])
    live = np.column_stack([q < 1.0, (q[:, None] > 0.0) & (rows > 0.0)])
    return child, prob, live


def _enumerate(table: tuple[np.ndarray, np.ndarray, np.ndarray], starts: np.ndarray,
               a: int) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities of all length-``a`` trajectories from the start groups.

    Returns the probabilities and the index into ``starts`` of each
    trajectory's start.  Every path probability is carried individually; a
    start's trajectories stay contiguous, in the same order whatever else is
    enumerated beside them.
    """
    child, prob, live = table
    groups = starts
    probs = np.ones(len(groups))
    labels = np.arange(len(groups))
    for _ in range(a):
        rows, moves = np.nonzero(live[groups])
        parents = groups[rows]
        probs = probs[rows] * prob[parents, moves]
        labels = labels[rows]
        groups = child[parents, moves]
    return probs, labels


def _entropies(model: JointModel, starts: np.ndarray, a: int, budget: int) -> np.ndarray:
    """Entropy (bits) of the next ``a`` joint states from each start group."""
    if a < 0:
        raise ValueError("window length must be non-negative")
    fan = 1 + model.alphabet_size
    if fan**a > budget:
        raise EnumerationBudgetError(
            f"~{fan}^{a} trajectories exceed the budget of {budget}"
        )
    table = _transition_table(model)
    # a start has at most b^a trajectories, b the most live moves out of a group
    branching = int(table[2].sum(axis=1).max())
    per_block = max(1, BLOCK_TRAJECTORIES // branching**a)
    out = np.empty(len(starts))
    for lo in range(0, len(starts), per_block):
        block = starts[lo:lo + per_block]
        probs, labels = _enumerate(table, block, a)
        mass = np.bincount(labels, weights=probs, minlength=len(block))
        bad = np.abs(mass - 1.0) > 1e-12
        if np.any(bad):
            raise AssertionError(f"enumerated mass {mass[bad][0]} != 1")
        pos = probs > 0.0
        out[lo:lo + per_block] = np.bincount(
            labels[pos], weights=-probs[pos] * np.log2(probs[pos]), minlength=len(block)
        )
    return out


def exact_conditional_entropy(model: JointModel, u0: JointState, a: int,
                              budget: int = ENUMERATION_BUDGET) -> float:
    """Entropy (bits) of the next ``a`` joint states given the current one."""
    m = model.dwell.prefix_len
    start = np.array([u0.x * (m + 1) + min(u0.t, m)])
    return float(_entropies(model, start, a, budget)[0])


def exact_ensemble_gaoi(model: JointModel, dist: StationaryDistribution, a: int,
                        budget: int = ENUMERATION_BUDGET) -> float:
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
    return float(sum(weights[starts] * _entropies(model, starts, a, budget)))


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


def exact_bayes_delay(model: BayesModel, schedule: UpdateSchedule) -> float:
    """Expected detection delay by enumerating every change time in [1, T]."""
    p = model.p
    t = schedule.horizon
    total = 0.0
    for theta in range(1, t + 1):
        weight = p * (1.0 - p) ** (theta - 1)
        total += weight * (schedule.delivery_for_change(theta) - theta)
    return total
