"""Joint (status, dwell) Markov chain: the model, its stationary distribution,
and its entropy rate.

The monitored system holds a status ``x`` from a finite alphabet and a dwell
counter ``t`` counting slots spent in that status.  Each slot the status
changes with probability ``q_t(x)``; on a change the next status is drawn
from row ``x`` of the change matrix, and the counter resets to 0.

Dwell laws are stored as an explicit prefix ``q_0(x)..q_{m-1}(x)`` plus a
constant tail used for every dwell index >= m, so the stationary law is
geometric past the prefix and the infinite series below (normalization,
entropy rate) have closed-form tails: the law and the entropy rate are exact.

Each type is built one way, by its constructor: ``ChangeKernel(rows)``,
``DwellKernel(prefix, tail)`` (one row of hazards and one tail value per
state; a short row is padded with its state's tail) and
``JointModel(change, dwell)``.  A model is valid by construction: each type
refuses, with a one-line ``ModelError`` rather than numpy's errors, what it
cannot hold (ragged or non-numeric rows; ``ChangeKernel`` a matrix that is
not square, stochastic and irreducible, ``DwellKernel`` a prefix whose row
count is not its tail's length, a probability outside [0, 1] or a tail that
is not positive, ``JointModel`` two alphabets or a law past float64's range).
A model owns its tables (hazards, survival products, one-step transitions, the
law, its entropy rate and change probability), each built once, read-only.

The kernels, the model and the law hold arrays, so they are plain frozen
classes that compare and hash by identity (``gaoi._base._Frozen``).

The model's own API is the only one gaoi uses: ``JointModel(change, dwell)``,
``model.law`` and ``model.rate``.  Three older names for these remain as
one-line shims at the end of this module, outside ``gaoi``'s public names:
``validate_model``, ``stationary_distribution`` and ``entropy_rate`` (with
its ``EntropyRate``).  The benchmark's oracle operation (``perfbench/op.py``)
still calls them, and a benchmark's operations change only with the
benchmark (ROADMAP item 1), so they go then.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._base import ModelError, _Frozen, binary_entropy

ATOL_STOCHASTIC = 1e-12


class IrreducibilityError(ModelError):
    """Embedded change chain is not irreducible."""

    def __init__(self, unreachable: list[int]):
        self.unreachable = unreachable
        super().__init__(f"change chain is not irreducible; unreachable states: {unreachable}")


class ChangeKernel(_Frozen):
    """Row-stochastic, irreducible matrix of next-status distributions given a
    change; any other matrix is refused."""

    __match_args__ = ("rows",)

    def __init__(self, rows: np.ndarray):
        try:
            rows = np.array(rows, dtype=float)  # a copy: the caller's array stays writable
        except (TypeError, ValueError, OverflowError):  # ragged, non-numeric or past float
            raise ModelError("change matrix must be a list of rows of numbers") from None
        rows.setflags(write=False)
        self._init(rows=rows)
        if rows.ndim != 2 or rows.shape[0] != rows.shape[1]:
            raise ModelError(f"change matrix must be square, got shape {rows.shape}")
        if rows.shape[0] == 0:
            raise ModelError("change matrix must have at least one state")
        # every range test is written so that NaN fails it
        if np.any(~((rows >= 0.0) & (rows <= 1.0))):
            raise ModelError("change matrix entries must lie in [0, 1]")
        bad = np.abs(rows.sum(axis=1) - 1.0) > ATOL_STOCHASTIC
        if np.any(bad):
            raise ModelError(f"change matrix rows {np.flatnonzero(bad).tolist()} do not sum to 1")
        unreachable = _unreachable(rows)
        if unreachable:
            raise IrreducibilityError(unreachable)

    @property
    def n_states(self) -> int:
        return self.rows.shape[0]


class DwellKernel(_Frozen):
    """Per-state change probabilities: prefix q_0..q_{m-1} plus constant tail.

    ``DwellKernel(prefix, tail)`` takes one row of hazards ``prefix[x]`` and
    one tail value ``tail[x]`` per state.  The rows may be ragged: a short
    row is padded with its state's tail up to the longest, m, so ``prefix``
    is an (n, m) array and q_i(x) is well defined for any i >= 0
    (``JointModel.hazard[x, min(i, m)]``).
    """

    __match_args__ = ("prefix", "tail")

    def __init__(self, prefix, tail):
        try:
            tail = np.array(tail, dtype=float)  # a copy, as ChangeKernel takes
            rows = [np.asarray(row, dtype=float) for row in prefix]
        except (TypeError, ValueError, OverflowError):  # as ChangeKernel, or a scalar prefix
            raise ModelError("dwell prefix and tail must be numbers") from None
        if not rows or tail.ndim != 1 or len(rows) != len(tail) or any(r.ndim != 1 for r in rows):
            raise ModelError(f"dwell prefix and tail need one row and one value per state, "
                             f"got {len(rows)} rows and a tail of shape {tail.shape}")
        prefix = np.repeat(tail[:, None], max(len(row) for row in rows), axis=1)
        for x, row in enumerate(rows):
            prefix[x, :len(row)] = row  # and the rest of the row is its tail
        prefix.setflags(write=False)
        tail.setflags(write=False)
        self._init(prefix=prefix, tail=tail)
        q_all = np.concatenate([prefix.ravel(), tail])
        if np.any(~((q_all >= 0.0) & (q_all <= 1.0))):
            raise ModelError("dwell probabilities must lie in [0, 1]")
        zero = np.flatnonzero(~(tail > 0.0)).tolist()
        if zero:
            raise ModelError(f"dwell tail must be positive (states {zero} would never change again)")

    @property
    def n_states(self) -> int:
        return self.tail.shape[0]

    @property
    def prefix_len(self) -> int:
        return self.prefix.shape[1]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class JointModel(_Frozen):
    """Change and dwell kernels over a common alphabet, with a stationary law
    that float64 holds; any other pair is refused."""

    __match_args__ = ("change", "dwell")
    kind = "stationary"  # its config.MODEL_KINDS kind

    def __init__(self, change: ChangeKernel, dwell: DwellKernel):
        self._init(change=change, dwell=dwell)
        if self.dwell.n_states != self.change.n_states:
            raise ModelError(f"dwell kernel covers {self.dwell.n_states} states, "
                             f"change matrix {self.change.n_states}")
        with np.errstate(all="ignore"):  # tiny probabilities overflow GTH's ratios or a mean dwell
            if not self.p_change > 0.0:
                raise ModelError(f"stationary law does not fit in float64 (p_change "
                                 f"{self.p_change!r}): a probability is too small")

    @property
    def alphabet_size(self) -> int:
        return self.change.n_states

    @cached_property
    def hazard(self) -> np.ndarray:
        """Change probability q_i(x) at ``[x, min(i, m)]``: the dwell prefix,
        then the tail; shape (n, m + 1)."""
        return _read_only(np.column_stack([self.dwell.prefix, self.dwell.tail]))

    @cached_property
    def survival(self) -> np.ndarray:
        """S_x(i) = P[dwell in status x reaches at least i slots]
        = prod_{j<i}(1 - q_j(x)) at ``[x, i]`` for i = 0..m; shape (n, m + 1).
        Past the prefix S_x(i) = S_x(m) (1 - tail[x])^(i-m)."""
        ones = np.ones(self.alphabet_size)
        return _read_only(np.cumprod(np.column_stack([ones, 1.0 - self.dwell.prefix]), axis=1))

    @cached_property
    def transitions(self) -> tuple[np.ndarray, np.ndarray]:
        """One-step successors of every group g = x (m+1) + min(t, m).

        Returns ``(child, prob)``, each of shape (n (m+1), b), b the most live
        (positive-probability) moves out of any group.  A row lists its
        group's live moves in order: "stay" first (child at dwell
        min(i+1, m), probability 1 - q), then "change to y" for y ascending
        (child at dwell 0, probability q P[x, y]).  Shorter rows end in pad
        moves of probability exactly 0.0 to a valid group, so a trajectory
        through one has probability 0.
        """
        n, m = self.alphabet_size, self.dwell.prefix_len
        q = self.hazard.ravel()
        x = np.repeat(np.arange(n), m + 1)
        i = np.tile(np.arange(m + 1), n)
        rows = self.change.rows[x]
        stay = x * (m + 1) + np.minimum(i + 1, m)
        jump = np.broadcast_to(np.arange(n) * (m + 1), rows.shape)
        child = np.column_stack([stay, jump])
        prob = np.column_stack([1.0 - q, q[:, None] * rows])
        live = prob > 0.0
        # each row's live moves first, in column order; its dead moves become the pads
        order = np.argsort(~live, axis=1, kind="stable")[:, :live.sum(axis=1).max()]
        return (_read_only(np.take_along_axis(child, order, axis=1)),
                _read_only(np.take_along_axis(prob, order, axis=1)))

    @cached_property
    def law(self) -> StationaryDistribution:
        """The exact stationary law mu_{x,i} of the joint chain, solved once.

        Solves the embedded change chain for mu_{x,0} (the per-slot change
        mass factors through the change matrix alone); every other level is
        the survival product mu_{x,i} = mu_{x,0} S_x(i),
        S_x(i) = prod_{j<i}(1-q_j(x)), which is geometric past the prefix.
        Costs O(n m), whatever the hazards.
        """
        pi = embedded_stationary(self)
        survival, tail = self.survival, self.dwell.tail
        mean_dwell = survival[:, :-1].sum(axis=1) + survival[:, -1] / tail
        mu = pi[:, None] / float(pi @ mean_dwell) * survival
        return StationaryDistribution(mu=_read_only(mu), tail=tail)

    @cached_property
    def rate(self) -> float:
        """The entropy rate in bits/slot, exactly: GAoI per slot of AoI
        (Theorem 1).

        Sums mu_{x,0} sum_i S_x(i) [H(q_i(x)) + q_i(x) H(P_x)] over the statuses.
        Past the prefix every term is the tail's term times a geometric factor,
        so the series remainder is column m's term over the tail hazard.  Each
        series is added in dwell order (``cumsum``), then the statuses in turn.
        """
        hazard = self.hazard
        weights = self.survival.copy()
        weights[:, -1] /= self.dwell.tail
        h_change = np.array([discrete_entropy(row) for row in self.change.rows])
        terms = weights * (binary_entropy(hazard) + hazard * h_change[:, None])
        series = np.cumsum(terms, axis=1)[:, -1]
        return float(np.cumsum(self.law.mu0 * series)[-1])

    @cached_property
    def p_change(self) -> float:
        """Per-slot probability that the status just changed, P[T_n = 0]."""
        # at most 1 exactly, since every dwell lasts a slot, but the float sum
        # can round past it when every hazard is 1; np.minimum keeps a NaN,
        # which the model refuses
        return float(np.minimum(self.law.mu0.sum(), 1.0))


class StationaryDistribution(_Frozen):
    """Exact stationary law of the joint chain.

    ``mu[x, i]`` is mu_{x,i} for the dwell levels i = 0..m, m the dwell
    prefix length.  Past the prefix the law is geometric,
    mu_{x,i} = mu[x, m] (1 - tail[x])^(i-m), so the array holds all of it.
    """

    __match_args__ = ("mu", "tail")

    def __init__(self, mu: np.ndarray, tail: np.ndarray):
        """``mu`` of shape (n_states, m + 1), ``tail`` the tail change
        probability per state."""
        self._init(mu=mu, tail=tail)

    @property
    def mu0(self) -> np.ndarray:
        return self.mu[:, 0]

    @cached_property
    def group_weights(self) -> np.ndarray:
        """Stationary mass of each group (x, min(t, m)), shape (n_states, m + 1),
        built once, read-only.

        States past the prefix share one trajectory law, so column m holds
        the whole geometric tail, mu[x, m] / tail[x]; the weights sum to 1.
        """
        weights = self.mu.copy()
        weights[:, -1] /= self.tail
        return _read_only(weights)

    def sample(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Inverse-CDF draw of (x, t), one state per row of uniforms ``u``.

        ``u[:, 0]`` picks the group (x, min(t, m)); in the tail group
        ``u[:, 1]`` draws t - m from the exact geometric law.  Zero-weight
        groups have zero width, so they are never drawn.
        """
        cdf = np.cumsum(self.group_weights.ravel())
        x, t = np.divmod(np.searchsorted(cdf / cdf[-1], u[:, 0], side="right"),
                         self.mu.shape[1])
        m = self.mu.shape[1] - 1
        return x, np.where(t == m, m + geometric_tail(u[:, 1], self.tail, x), t)


def geometric_tail(u: np.ndarray, q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw of the slots a dwell stays on in a constant-hazard
    tail: the number of failures before the first success at per-slot
    probability ``q[x]``, so P[result >= k] = (1 - q[x])^k, one per uniform
    ``u`` and status ``x``.

    ``log1p`` keeps the digits that 1 - u and 1 - q round away at small u
    and q.  A tail hazard of 1 gives 0; a tiny hazard can give a count past
    int64, so counts are capped at 2**62, far past any horizon.
    """
    with np.errstate(divide="ignore"):
        extra = np.floor(np.log1p(-u) / np.log1p(-q).take(x))
    return np.minimum(extra, 2**62).astype(np.int64)


def _unreachable(rows: np.ndarray) -> list[int]:
    """States outside state 0's strongly connected component, found by a
    boolean frontier grown one step at a time, forward then backward."""
    adj = rows > 0.0
    inside = np.ones(len(rows), dtype=bool)
    for edges in (adj, adj.T):
        seen = frontier = np.arange(len(rows)) == 0
        while frontier.any():
            frontier = edges[frontier].any(axis=0) & ~seen
            seen = seen | frontier
        inside &= seen
    return np.flatnonzero(~inside).tolist()


def embedded_stationary(model: JointModel) -> np.ndarray:
    """Stationary vector of the change matrix (status seen at change slots),
    by GTH elimination (Grassmann, Taksar and Heyman, Operations Research
    33(5), 1985): the states, last first, are censored out by rank-1 updates
    over their off-diagonal row sums (irreducibility keeps these positive; a
    ``JointModel`` whose ratios overflow is refused), then the vector is built
    back up from state 0.  Nothing is subtracted, so every entry keeps its
    relative accuracy."""
    a = model.change.rows.copy()
    n = len(a)
    for k in range(n - 1, 0, -1):
        a[:k, k] /= a[k, :k].sum()
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    pi = np.ones(n)
    for k in range(1, n):
        pi[k] = pi[:k] @ a[:k, k]
    return pi / pi.sum()


def discrete_entropy(pi: np.ndarray) -> float:
    """Shannon entropy in bits, with 0 log 0 = 0."""
    pi = np.asarray(pi, dtype=float)
    if np.any(pi < 0.0):
        raise ValueError("probabilities must be non-negative")
    if abs(pi.sum() - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {pi.sum()}, expected 1")
    pos = pi[pi > 0.0]
    return float(-(pos * np.log2(pos)).sum())


# Shims for perfbench/op.py, which still calls these; they go with ROADMAP
# item 1 (see the module docstring).

def validate_model(change: ChangeKernel, dwell: DwellKernel) -> JointModel:
    return JointModel(change, dwell)


def stationary_distribution(model: JointModel) -> StationaryDistribution:
    return model.law


class EntropyRate(NamedTuple):
    bits: float


def entropy_rate(model: JointModel, dist: StationaryDistribution) -> EntropyRate:
    if dist is not model.law:
        raise ValueError("entropy_rate reads the model's own law: pass model.law")
    return EntropyRate(bits=model.rate)
