"""Independent references that the package code is checked against.

The schedule, staleness and ensemble loops are written one update and one
path at a time, in the plainest form: ``filter_stale``,
``generate_schedules``, ``random_schedule``, ``bayes_cumulative_gaoi``,
``bayes_expected_delay``, ``delay_double_sum`` and ``run_ensemble`` must
agree with them bit for bit (``run_ensemble`` in its per-path values too).
A schedule here is the list of its kept ``(s, d)`` pairs, and
``reference_filter_stale`` is the stale filter as a loop over pairs ordered
by delivery, which every schedule loop shares.  The per-path ensemble runs
one policy and draws from a fresh ``derive_stream`` generator per path, where
``run_ensemble`` samples each block of paths once for all its policies and
resets one shared generator per salt; it samples each stationary path alone
(a one-path ``sample_block``) and finds each change's detection by
bisection (``reference_detection``), not by ``detection_block``.
``reference_random_schedule`` is one row of ``random_schedule``, with its
sampling times taken by ``np.unique`` and one delay draw per update.  The
Bayesian references read P[theta > k] from ``survival_table``, one
vectorised exp(k log1p(-p)) table.

``joint_step`` is the per-slot sampler of the joint chain, one state at a
time, that the renewal sampler ``sample_block``'s law is tested against, and
``entropy_rate_homogeneous`` is an entropy-rate formula for models whose
statuses share one dwell law, against which ``JointModel.rate`` is tested.
``reference_entropy_rate`` is the entropy rate as a loop over the dwell
prefix, one status at a time, with the scalar ``reference_binary_entropy``:
``JointModel.rate`` must agree with it bit for bit.  ``reference_survival`` is
one survival product S_x(i), taken for any i >= 0.
``reference_change_slots`` is one path of the renewal sampler, one change at
a time, each dwell end and each jump found by a linear scan:
``sample_block`` must agree with it bit for bit.
``reference_unreachable`` is the irreducibility check as a depth-first walk
over sets, and ``exact_embedded_stationary`` solves the change chain's
generator form in ``Fraction`` arithmetic, the exact answer that
``embedded_stationary`` is held to in relative terms.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate

import numpy as np

from gaoi import bayes
from gaoi.config import RunConfig
from gaoi.ensemble import (
    INIT_SALT,
    PATH_SALT,
    POLICY_SALT,
    EnsembleStats,
    _aggregate,
    derive_stream,
    sample_block,
)
from gaoi.markov import (
    JointModel,
    ModelError,
    discrete_entropy,
    embedded_stationary,
    geometric_tail,
)
from gaoi.schedule import (
    MAX_DELAY,
    MEAN_UPDATES,
    DelayLaw,
    PolicySpec,
    ScheduleBlock,
    ScheduleError,
    aoi_block,
)


def joint_step(model: JointModel, x: int, t: int, rng: np.random.Generator) -> tuple[int, int]:
    """Advance the joint chain one slot from status ``x`` at dwell ``t``
    using draws from ``rng``; returns the new ``(x, t)``."""
    q = model.hazard[x, min(t, model.dwell.prefix_len)]
    if rng.random() < q:
        return int(rng.choice(model.alphabet_size, p=model.change.rows[x])), 0
    return x, t + 1


def reference_survival(model: JointModel, x: int, i: int) -> float:
    """P[dwell in status x reaches at least i slots] = prod_{j<i}(1-q_j(x))."""
    m = model.dwell.prefix_len
    head = float(np.prod(1.0 - model.dwell.prefix[x, : min(i, m)]))
    if i > m:
        head *= (1.0 - float(model.dwell.tail[x])) ** (i - m)
    return head


def reference_change_slots(model: JointModel, x0: int, t0: int,
                           uniforms_row: np.ndarray) -> list[int]:
    """The change slots in [1, horizon] of one path from (x0, t0), drawn one
    change at a time from ``uniforms_row`` (shape (horizon, 2)) as
    ``sample_block`` draws them: the c-th dwell from ``uniforms_row[c, 0]``,
    the status the c-th change jumps to from ``uniforms_row[c, 1]``.

    A dwell from level s ends at the first j >= 1 with S_x(j) < (1-u) S_x(s),
    scanned up to m; past m it ends at m + 1 plus a ``geometric_tail`` draw
    on the survival left at m.  A jump from x on uniform v goes to the first
    y whose bound (the CDF of row x, summed in order and divided by its
    total) exceeds v, the last status if none of the first n-1 does.
    """
    survival, tail = model.survival, model.dwell.tail
    m, n, horizon = model.dwell.prefix_len, model.alphabet_size, len(uniforms_row)
    x, level, slot, slots = int(x0), min(int(t0), m), 0, []
    for u, v in uniforms_row.tolist():
        target = (1.0 - u) * float(survival[x, level])
        j = 1
        while j <= m and not float(survival[x, j]) < target:
            j += 1
        if j > m and survival[x, m] > 0.0:
            left = max(1.0 - target / float(survival[x, m]), 0.0)
            j += int(geometric_tail(np.array([left]), tail, np.array([x]))[0])
        slot += j - level
        if slot > horizon:
            break
        slots.append(slot)
        cdf = list(accumulate(model.change.rows[x].tolist()))
        y = 0
        while y < n - 1 and cdf[y] / cdf[-1] <= v:
            y += 1
        x, level = y, 0
    return slots


def reference_unreachable(rows: np.ndarray) -> list[int]:
    """States not in the strongly connected component of state 0."""
    adj = rows > 0.0

    def reach(adj_mat):
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in np.flatnonzero(adj_mat[v]):
                if w not in seen:
                    seen.add(int(w))
                    stack.append(int(w))
        return seen

    return sorted(set(range(len(rows))) - (reach(adj) & reach(adj.T)))


def exact_embedded_stationary(rows: np.ndarray) -> list[Fraction]:
    """The stationary vector of the change chain, exactly: pi Q = 0 with
    sum(pi) = 1, where Q holds the rows' off-diagonal entries as exact
    fractions and each diagonal entry is minus its row's off-diagonal sum.
    One equation of pi Q = 0 (the last) is replaced by the normalisation,
    and the system is solved by Gauss-Jordan elimination."""
    n = len(rows)
    q = [[Fraction(float(v)) if i != j else Fraction(0) for j, v in enumerate(row)]
         for i, row in enumerate(rows)]
    for i in range(n):
        q[i][i] = -sum(q[i])
    # equation j: sum_i pi_i q[i][j] = 0, for j < n - 1; then sum_i pi_i = 1
    a = [[q[i][j] for i in range(n)] + [Fraction(0)] for j in range(n - 1)]
    a.append([Fraction(1)] * n + [Fraction(1)])
    for c in range(n):
        pivot = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[pivot] = a[pivot], a[c]
        a[c] = [v / a[c][c] for v in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                a[r] = [v - a[r][c] * w for v, w in zip(a[r], a[c])]
    return [a[i][n] for i in range(n)]


def reference_binary_entropy(q: float) -> float:
    """H(q, 1-q) in bits for one q; 0 where q <= 0 or q >= 1."""
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return -q * np.log2(q) - (1.0 - q) * np.log1p(-q) / np.log(2.0)


def _dwell_entropy_series(model: JointModel, x: int, h_change: float) -> float:
    """sum_i prod_{j<i}(1-q_j(x)) [H(q_i(x)) + q_i(x) * h_change], exactly.

    The constant dwell tail turns the series remainder into a geometric sum.
    """
    m = model.dwell.prefix_len
    total = 0.0
    surv = 1.0
    for i in range(m):
        q = float(model.dwell.prefix[x, i])
        total += surv * (reference_binary_entropy(q) + q * h_change)
        surv *= 1.0 - q
    qt = float(model.dwell.tail[x])
    total += surv / qt * (reference_binary_entropy(qt) + qt * h_change)
    return total


def reference_entropy_rate(model: JointModel) -> float:
    """Entropy rate as the change-weighted dwell series, one status at a time."""
    mu0 = model.law.mu0
    rate = 0.0
    for x in range(model.alphabet_size):
        h_px = discrete_entropy(model.change.rows[x])
        rate += mu0[x] * _dwell_entropy_series(model, x, h_px)
    return float(rate)


def entropy_rate_homogeneous(model: JointModel) -> float:
    """Entropy rate via the split H(dwell chain) + H(change chain) * P[T_n=0].

    Only valid when every status shares the same dwell law.
    """
    dwell = model.dwell
    if not (np.all(dwell.prefix == dwell.prefix[0:1, :]) and np.all(dwell.tail == dwell.tail[0])):
        raise ModelError("dwell kernel differs across states; split formula does not apply")
    p_change = float(model.law.mu0.sum())  # one change per mean dwell
    # entropy rate of the dwell counter chain alone
    h_dwell = _dwell_entropy_series(model, 0, 0.0) * p_change
    embedded = embedded_stationary(model)  # the status seen at change slots
    h_change = float(
        sum(embedded[x] * discrete_entropy(model.change.rows[x])
            for x in range(model.alphabet_size))
    )
    return float(h_dwell + h_change * p_change)


def _draw(law: DelayLaw, rng: np.random.Generator) -> int:
    if law.lo == law.hi:
        return law.lo
    return int(rng.integers(law.lo, law.hi + 1))


def reference_filter_stale(raw: list[tuple[int, int]], horizon: int) -> list[tuple[int, int]]:
    """The pairs of ``raw`` that are not stale, one pair at a time.

    Pairs in the horizon are ordered by delivery time; a pair is kept only
    if its sampling time exceeds every previously kept sampling time.  Ties
    on delivery time keep the freshest sample; ties on sampling time keep
    the earliest delivery.
    """
    for s, d in raw:
        if s > d:
            raise ScheduleError(f"pair ({s},{d}) samples after delivery")
    inside = [(s, d) for s, d in raw if 0 < s < horizon and d <= horizon]
    inside.sort(key=lambda sd: (sd[1], -sd[0]))
    kept: list[tuple[int, int]] = []
    last_s = 0
    for s, d in inside:
        if s > last_s:
            kept.append((s, d))
            last_s = s
    return kept


def rows(block: ScheduleBlock) -> list[list[tuple[int, int]]]:
    """Every row's kept ``(s, d)`` pairs, padding dropped."""
    counts = (block.samples < block.horizon).sum(axis=1)
    return [list(zip(block.samples[k, :c].tolist(), block.deliveries[k, :c].tolist()))
            for k, c in enumerate(counts.tolist())]


def one_row(pairs: list[tuple[int, int]], horizon: int) -> ScheduleBlock:
    """The one-row block holding already kept ``pairs``."""
    samples, deliveries = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return ScheduleBlock(horizon, samples[None], deliveries[None])


def reference_detection(pairs: list[tuple[int, int]], horizon: int, n: int) -> int:
    """Delivery of the first kept sample taken at or after slot n (cap: horizon)."""
    i = bisect_left([s for s, _ in pairs], n)
    return pairs[i][1] if i < len(pairs) else horizon


def reference_delay_double_sum(pairs: list[tuple[int, int]], horizon: int) -> int:
    """sum_i sum_{j=s_i+1}^{s_{i+1}} (d_{i+1} - j), slot by slot, with the
    caps s_0 = d_0 = 0 and s_{K+1} = d_{K+1} = T."""
    s_cap = [0, *(s for s, _ in pairs), horizon]
    d_cap = [0, *(d for _, d in pairs), horizon]
    total = 0
    for i in range(len(s_cap) - 1):
        for j in range(s_cap[i] + 1, s_cap[i + 1] + 1):
            total += d_cap[i + 1] - j
    return total


def reference_generate_schedule(policy: PolicySpec, horizon: int,
                                rng: np.random.Generator) -> list[tuple[int, int]]:
    """Realize a policy one update at a time, one delay draw per update."""
    if policy.kind == "explicit":
        return reference_filter_stale(list(policy.pairs), horizon)
    pairs: list[tuple[int, int]] = []
    if policy.kind == "periodic":
        s = policy.period
        while s < horizon:
            pairs.append((s, s + _draw(policy.delay, rng)))
            s += policy.period
    else:  # greedy
        s = 0
        while s < horizon:
            d = s + _draw(policy.delay, rng)
            pairs.append((s, d))
            s = max(d, s + 1)
    return reference_filter_stale(pairs, horizon)


def reference_random_schedule(horizon: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Random samples (sorted and distinct by ``np.unique``) with random
    delays, one draw per update, stale-filtered."""
    if horizon < 2:
        return []
    k = int(rng.integers(0, 2 * MEAN_UPDATES + 1))
    samples = np.unique(rng.integers(1, horizon, size=k))
    pairs = [(int(s), int(s + rng.integers(0, MAX_DELAY + 1))) for s in samples]
    return reference_filter_stale(pairs, horizon)


def survival_table(model: bayes.BayesModel, n: int) -> np.ndarray:
    """P[theta > k] = (1-p)^k = exp(k log1p(-p)) for k = 0..n, one vectorised
    table (numpy's vectorised exp can differ from its scalar one in the last
    bit, so every reference reads this table, as ``gaoi.bayes`` reads its own)."""
    return np.exp(np.arange(n + 1) * np.log1p(-model.p))


def _interval_loop(model: bayes.BayesModel, pairs: list[tuple[int, int]], horizon: int,
                   shift: int) -> float:
    """sum_{n<T} (1-p)^{held(n)} G(a_n + shift), one inter-delivery interval
    at a time: interval i adds (1-p)^{s_i} (R[d_{i+1} - s_i + shift] -
    R[d_i - s_i + shift]), i = 0..K, with R[k] = G(0) + ... + G(k-1) summed
    in order."""
    r = [0.0]
    for k in range(horizon + 1):
        r.append(r[-1] + float(-np.expm1(k * np.log1p(-model.p))))
    survival = survival_table(model, horizon).tolist()
    s_cap = [0, *(s for s, _ in pairs)]
    d_cap = [0, *(d for _, d in pairs), horizon]
    acc = 0.0
    for i, s in enumerate(s_cap):
        acc += survival[s] * (r[d_cap[i + 1] - s + shift] - r[d_cap[i] - s + shift])
    return acc


def reference_cumulative_gaoi(model: bayes.BayesModel, pairs: list[tuple[int, int]],
                              horizon: int) -> float:
    """Expected total staleness, one inter-delivery interval at a time."""
    return model.h1 / model.p * _interval_loop(model, pairs, horizon, 1)


def reference_expected_delay(model: bayes.BayesModel, pairs: list[tuple[int, int]],
                             horizon: int) -> float:
    """Expected detection delay, one inter-delivery interval at a time."""
    return _interval_loop(model, pairs, horizon, 0)


def reference_ensemble(config: RunConfig, policy: PolicySpec) -> EnsembleStats:
    """``run_ensemble``'s result for ``policy``, one path at a time: each
    path's schedule from its own policy stream, its change slots from a
    one-path ``sample_block`` (stationary) or its geometric change time
    (Bayesian), sampled again for this policy alone, each change's delay from
    ``reference_detection``, and every series added in path order.
    ``config.policies`` is not read."""
    model, horizon, seed = config.model, config.horizon, config.base_seed
    bayesian = isinstance(model, bayes.BayesModel)
    if bayesian:
        h = bayes.h_closed(model, np.arange(horizon + 1))
        decay = survival_table(model, horizon)
    values = {name: np.empty(config.num_paths)
              for name in ("cum_aoi", "cum_gaoi", "cum_delay", "num_changes")}
    aoi_acc = np.zeros(horizon)
    gaoi_acc = np.zeros(horizon)
    for k in range(config.num_paths):
        schedule = reference_generate_schedule(policy, horizon,
                                               derive_stream(seed, k, POLICY_SALT))
        ages = aoi_block(one_row(schedule, horizon))[0]
        aoi_acc += ages
        values["cum_aoi"][k] = ages.sum()
        if bayesian:
            theta = int(derive_stream(seed, k, PATH_SALT).geometric(model.p))
            changed = theta <= horizon
            values["cum_delay"][k] = (reference_detection(schedule, horizon, theta) - theta
                                      if changed else 0)
            values["num_changes"][k] = int(changed)
            values["cum_gaoi"][k] = reference_cumulative_gaoi(model, schedule, horizon)
            delta = np.arange(horizon) - ages
            gaoi_acc += h[ages + 1] * decay[delta]
        else:
            x0, t0 = model.law.sample(derive_stream(seed, k, INIT_SALT).random((1, 2)))
            uniforms = derive_stream(seed, k, PATH_SALT).random((1, horizon, 2))
            slots = sample_block(model, x0, t0, uniforms)[0]
            slots = slots[slots <= horizon]
            values["cum_delay"][k] = sum(reference_detection(schedule, horizon, n) - n
                                         for n in slots.tolist())
            values["num_changes"][k] = len(slots)
            values["cum_gaoi"][k] = model.rate * values["cum_aoi"][k]
    if bayesian:
        return _aggregate(values, aoi_acc, gaoi_acc)
    return _aggregate(values, aoi_acc, model.rate * aoi_acc)
