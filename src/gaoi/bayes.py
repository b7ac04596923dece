"""Two-state absorbing change-point model with a geometric change time.

The system starts in state 0 and jumps once to the absorbing state 1 at a
random slot theta with P[theta = k] = p (1-p)^{k-1}.  The chain is not
stationary, so age alone no longer measures staleness; the conditional
entropy of the unseen trajectory does, and it admits closed forms.  With
G(k) = P[theta <= k] = 1 - (1-p)^k,

  h(a) = entropy of the change offset over an a-slot window
       = H(p, 1-p) G(a) / p.

Residual uncertainty lives entirely on the pre-change side: once state 1 is
observed the future is deterministic.  Slot n holds the sample taken at
held(n) = s_i for n in [d_i, d_{i+1}) (s_0 = d_0 = 0, d_{K+1} = T), of age
a_n = n - held(n), and is still pre-change there with probability
(1-p)^{held(n)}.  Per slot n < T,

  staleness     h(a_n + 1) (1-p)^{held(n)} = H(p, 1-p) / p * (1-p)^{held(n)} G(a_n + 1),
  delay         P[held(n) < theta <= n]   = (1-p)^{held(n)} G(a_n),

and the two differ by H(p, 1-p) / p * P[theta = n + 1] whatever the
schedule.  Over a horizon T, cumulative uncertainty is therefore H(p, 1-p)/p
times the expected detection delay plus C(T) = H(p, 1-p) G(T) / p = h(T).
G is taken as -expm1(k log1p(-p)), which keeps its digits at small p k,
where 1 - (1-p)^k cancels.
"""

from __future__ import annotations

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

    Each entry is Python's float power, the value ``(1-p)**k`` gives for an
    int k; numpy's vectorised power can differ from it in the last bit.
    """
    q = 1.0 - model.p
    return np.array([q**k for k in range(n + 1)])


def h_closed(model: BayesModel, x):
    """Uncertainty h(x) of an x-slot window starting from the pre-change state.

    ``x`` is an int or an integer array; an array gives the scalar values
    elementwise, bit for bit.
    """
    if np.any(np.less(x, 0)):
        raise ValueError("window length must be non-negative")
    return model.h1 * -np.expm1(x * np.log1p(-model.p)) / model.p


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


def _pending(model: BayesModel, block: ScheduleBlock, shift: int) -> np.ndarray:
    """sum_{n<T} (1-p)^{held(n)} G(a_n + shift) for every row.

    Interval i adds (1-p)^{s_i} (R[d_{i+1} - s_i + shift] - R[d_i - s_i + shift]),
    with R[k] = G(0) + ... + G(k-1).  The terms are added by a cumulative sum
    along each row, in index order, so every row sums the same operands in the
    same order as a loop over its own updates, whatever the other rows hold;
    a padding column (s = d = T) adds an exact zero.
    """
    t = block.horizon
    zeros = np.zeros((block.num_paths, 1), dtype=np.int64)
    s_cap = np.concatenate([zeros, block.samples], axis=1)
    d_cap = np.concatenate([zeros, block.deliveries, zeros + t], axis=1)
    change_by = -np.expm1(np.arange(t + 1) * np.log1p(-model.p))  # G(0..T)
    r = np.concatenate([[0.0], np.cumsum(change_by)])
    span = r[d_cap[:, 1:] - s_cap + shift] - r[d_cap[:, :-1] - s_cap + shift]
    terms = survival_table(model, t)[s_cap] * span
    return np.cumsum(terms, axis=1)[:, -1]


def bayes_cumulative_gaoi(model: BayesModel, block: ScheduleBlock) -> np.ndarray:
    """Expected total staleness over [1, T] of every row of a schedule block (bits)."""
    return model.h1 / model.p * _pending(model, block, 1)


def bayes_expected_delay(model: BayesModel, block: ScheduleBlock) -> np.ndarray:
    """Expected detection delay of the change for every row, restricted to [1, T].

    A change at theta <= T is detected at the first delivery sampled at or
    after theta, capped at the horizon; changes after T contribute nothing.
    """
    return _pending(model, block, 0)


def bayes_constant_c(model: BayesModel, t: int) -> float:
    """Schedule-independent residual between cumulative staleness (bits) and
    h(1)/p times the expected detection delay, for horizon T: h(T)."""
    return h_closed(model, t)
