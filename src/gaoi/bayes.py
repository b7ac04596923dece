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
Both tables come from one exponent, k log1p(-p): (1-p)^k = exp(k log1p(-p))
and G(k) = -expm1(k log1p(-p)).  Each keeps its digits: G at small p k,
where 1 - (1-p)^k cancels, and (1-p)^k at large k, where a product or a
float power of the rounded 1-p would gather an error of order k ulps.
"""

from __future__ import annotations

import numpy as np

from ._base import _Value, binary_entropy
from .schedule import ScheduleBlock


class BayesModel(_Value):
    """Per-slot change hazard of the geometric change point."""

    __match_args__ = ("p",)
    kind = "bayesian"  # its config.MODEL_KINDS kind

    def __init__(self, p: float):
        self._init(p=p)
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"change hazard must lie in (0, 1), got {self.p}")

    @property
    def h1(self) -> float:
        """Single-slot uncertainty H(p, 1-p) in bits."""
        return binary_entropy(self.p)


def _log_survival(model: BayesModel, n: int) -> np.ndarray:
    """log P[theta > k] = k log1p(-p), k = 0..n: the exponent of every table."""
    return np.arange(n + 1) * np.log1p(-model.p)


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
    exponent = _log_survival(model, t)
    r = np.concatenate([[0.0], np.cumsum(-np.expm1(exponent))])[shift:]  # R[k + shift] at k
    terms = r.take(d_cap[:, 1:] - s_cap)
    terms -= r.take(d_cap[:, :-1] - s_cap)
    terms *= np.exp(exponent).take(s_cap)
    return np.cumsum(terms, axis=1)[:, -1]


def bayes_cumulative_gaoi(model: BayesModel, block: ScheduleBlock) -> np.ndarray:
    """Expected total staleness over [1, T] of every row of a schedule block (bits)."""
    return model.h1 / model.p * _pending(model, block, 1)


def bayes_gaoi_series(model: BayesModel, ages: np.ndarray) -> np.ndarray:
    """Expected staleness h(a_n + 1) (1-p)^{held(n)} slot by slot, for AoI
    series ``ages`` (a row per path): column n is slot n + 1's (a delivery
    informs the monitor from the next slot on), so a row sums to
    ``bayes_cumulative_gaoi``'s total up to rounding."""
    t = ages.shape[-1]
    # (1-p)^{held(n)}, held(n) = n - a_n, times h(a_n + 1) off the table shifted by one
    series = np.exp(_log_survival(model, t)).take(np.arange(t) - ages)
    return np.multiply(series, h_closed(model, np.arange(t + 1))[1:].take(ages), out=series)


def bayes_expected_delay(model: BayesModel, block: ScheduleBlock) -> np.ndarray:
    """Expected detection delay of the change for every row, restricted to [1, T].

    A change at theta <= T is detected at the first delivery sampled at or
    after theta, capped at the horizon; changes after T contribute nothing.
    """
    return _pending(model, block, 0)
