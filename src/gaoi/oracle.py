"""Brute-force oracles: trajectory enumeration and change-point enumeration.

These recompute the closed forms elsewhere in the package by exhaustive
enumeration at small scale.  They are deliberately naive; every trajectory is
walked with its probability and the entropy of the resulting distribution is
evaluated directly.
"""

from __future__ import annotations

import numpy as np

from .bayes import BayesModel
from .markov import JointModel, JointState, StationaryDistribution
from .schedule import UpdateSchedule

ENUMERATION_BUDGET = 10**7


class EnumerationBudgetError(RuntimeError):
    """Enumeration would exceed the configured trajectory budget."""


def _enumerate_probs(model: JointModel, u0: JointState, a: int,
                     budget: int = ENUMERATION_BUDGET) -> np.ndarray:
    """Probabilities of all length-``a`` trajectories from ``u0``."""
    branching = 1 + model.alphabet_size
    if branching**a > budget:
        raise EnumerationBudgetError(
            f"~{branching}^{a} trajectories exceed the budget of {budget}"
        )
    # trajectories ending in the same (x, t) share their next-step law, so the
    # frontier groups path probabilities by endpoint; every individual path
    # probability is still carried through to the end
    frontier: dict[tuple[int, int], np.ndarray] = {(u0.x, u0.t): np.ones(1)}
    for _ in range(a):
        nxt: dict[tuple[int, int], list[np.ndarray]] = {}
        for (x, t), probs in frontier.items():
            q = model.dwell.q(x, t)
            if q < 1.0:
                nxt.setdefault((x, t + 1), []).append(probs * (1.0 - q))
            if q > 0.0:
                row = model.change.rows[x]
                for y in range(model.alphabet_size):
                    if row[y] > 0.0:
                        nxt.setdefault((y, 0), []).append(probs * (q * row[y]))
        frontier = {key: np.concatenate(parts) for key, parts in nxt.items()}
    return np.concatenate(list(frontier.values()))


def exact_conditional_entropy(model: JointModel, u0: JointState, a: int,
                              budget: int = ENUMERATION_BUDGET) -> float:
    """Entropy (bits) of the next ``a`` joint states given the current one."""
    if a == 0:
        return 0.0
    probs = _enumerate_probs(model, u0, a, budget)
    total = probs.sum()
    if abs(total - 1.0) > 1e-12:
        raise AssertionError(f"enumerated mass {total} != 1")
    pos = probs[probs > 0.0]
    return float(-(pos * np.log2(pos)).sum())


def exact_ensemble_gaoi(model: JointModel, dist: StationaryDistribution, a: int,
                        budget: int = ENUMERATION_BUDGET) -> float:
    """Stationary average of the a-slot conditional entropy (bits).

    Trajectory laws from (x, t) coincide for every t past the dwell prefix,
    so states are grouped by their effective dwell index and weighted by the
    exact group masses of the stationary law, geometric tail included.
    """
    if a == 0:
        return 0.0
    total = 0.0
    for (x, t_eff), weight in np.ndenumerate(dist.group_weights):
        if weight > 0.0:
            total += weight * exact_conditional_entropy(model, JointState(x, t_eff), a, budget)
    return total


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
