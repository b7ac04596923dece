"""Two-state absorbing change-point model with a geometric change time.

The system starts in state 0 and jumps once to the absorbing state 1 at a
random slot theta with P[theta = k] = p (1-p)^{k-1}.  The chain is not
stationary, so age alone no longer measures staleness; the conditional
entropy of the unseen trajectory does, and it admits closed forms:

  h(a) = entropy of the change offset over an a-slot window
       = (1 - (1-p)^a) / p * H(p, 1-p),

with the recursion h(a+1) = h(a) + (1-p)^a h(1).  Residual uncertainty lives
entirely on the pre-change side: once state 1 is observed the future is
deterministic.  Over a horizon T, cumulative uncertainty is an affine
function of the expected detection delay with a schedule-independent
intercept C(T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .markov import binary_entropy
from .schedule import ScheduleBlock


@dataclass(frozen=True)
class BayesModel:
    """Per-slot change hazard of the geometric change point."""

    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"change hazard must lie in (0, 1), got {self.p}")

    @property
    def h1(self) -> float:
        """Single-slot uncertainty H(p, 1-p) in bits."""
        return binary_entropy(self.p)


def survival_table(model: BayesModel, n: int) -> np.ndarray:
    """P[theta > k] = (1-p)^k for k = 0..n.

    Each entry is Python's float power, the value the scalar closed forms use;
    numpy's vectorised power can differ from it in the last bit.
    """
    q = 1.0 - model.p
    return np.array([q**k for k in range(n + 1)])


def h_closed(model: BayesModel, x):
    """Uncertainty of an x-slot window starting from the pre-change state.

    ``x`` is an int or an integer array; an array gives the scalar values
    elementwise, bit for bit.
    """
    if np.any(np.less(x, 0)):
        raise ValueError("window length must be non-negative")
    p = model.p
    if np.ndim(x) == 0:
        stay = (1.0 - p) ** x
    else:
        stay = survival_table(model, int(np.max(x, initial=0)))[x]
    return (1.0 - stay) / p * model.h1


def bayes_gaoi(model: BayesModel, age: int, observed_state: int) -> float:
    """Staleness given the last delivered sample's state.

    Only the pre-change state leaves anything unresolved; from the absorbing
    state the trajectory is known exactly.
    """
    if observed_state not in (0, 1):
        raise ValueError("observed state must be 0 or 1")
    if observed_state == 1:
        return 0.0
    return h_closed(model, age)


def _change_by(p: float, t: int) -> float:
    """P[theta <= T] = 1 - (1-p)^T from expm1/log1p, accurate at small p T
    where the literal form cancels."""
    return -math.expm1(t * math.log1p(-p))


def _expected_theta_capped(p: float, t: int) -> float:
    """sum_{k=1}^{T} k (1-p)^{k-1} p, the mean change time restricted to [1,T].

    Closed form (1 - (1-p)^T (1 + T p)) / p, evaluated as (g - T p) / p + T g
    with g = P[theta <= T]: taken literally, the numerator cancels to
    O((T p)^2) and loses every digit by p = 1e-8.
    """
    g = _change_by(p, t)
    return (g - t * p) / p + t * g


def _interval_sum(model: BayesModel, block: ScheduleBlock, intercept: float) -> np.ndarray:
    """``intercept`` plus (d_{i+1} - d_i) (1-p)^{s_i} for i = 0..K, every row.

    A sample taken at s_i still shows state 0 with probability (1-p)^{s_i}.
    The terms are added column by column, in index order, so every row sums
    the same operands in the same order as a loop over its own updates,
    whatever the other rows hold; a padding column adds an exact zero.
    """
    t = block.horizon
    zeros = np.zeros((block.num_paths, 1), dtype=np.int64)
    s_cap = np.concatenate([zeros, block.samples], axis=1)
    d_cap = np.concatenate([zeros, block.deliveries, zeros + t], axis=1)
    terms = np.diff(d_cap, axis=1) * survival_table(model, t)[s_cap]
    acc = np.full(block.num_paths, intercept)
    for column in terms.T:
        acc += column
    return acc


def bayes_cumulative_gaoi(model: BayesModel, block: ScheduleBlock) -> np.ndarray:
    """Expected total staleness over [1, T] of every row of a schedule block (bits).

    h(1)/p times the intercept -(1-p) P[theta <= T] / p plus one term per
    inter-delivery interval.
    """
    p, t = model.p, block.horizon
    return model.h1 / p * _interval_sum(model, block, -(1.0 - p) * _change_by(p, t) / p)


def bayes_expected_delay(model: BayesModel, block: ScheduleBlock) -> np.ndarray:
    """Expected detection delay of the change for every row, restricted to [1, T].

    A change at theta <= T is detected at the first delivery sampled at or
    after theta, capped at the horizon; changes after T contribute nothing.
    """
    p, t = model.p, block.horizon
    return _interval_sum(model, block, -t * (1.0 - p) ** t - _expected_theta_capped(p, t))


def bayes_constant_c(model: BayesModel, t: int) -> float:
    """Schedule-independent residual between cumulative staleness (bits) and
    h(1)/p times the expected detection delay, for horizon T.

    Its three terms (the intercepts of the two closed forms and the capped
    mean change time) sum to h1 (1 - (1-p)^T) / p: C(T) is h(T), the
    uncertainty of the whole window.  Evaluated in that form, since the
    terms cancel at small p T.
    """
    if t < 0:
        raise ValueError("horizon must be non-negative")
    return model.h1 * _change_by(model.p, t) / model.p
