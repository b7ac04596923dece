"""Independent references that the package code is checked against.

The schedule, staleness and ensemble loops are written one update and one
path at a time, in the plainest form: ``generate_schedules``,
``cumulative_gaoi_block`` and ``run_ensemble`` must agree with them bit for
bit.  Both schedule loops share ``filter_stale``, which is itself a loop.
The per-path ensemble draws from a fresh ``derive_stream`` generator per
path, where ``run_ensemble`` resets one shared generator per salt; it rolls
each stationary path alone (a one-path ``sample_block``) and finds each
change's detection by bisection (``delivery_for_change``), not by
``detection_block``.  ``reference_random_schedule`` is ``random_schedule``
with its sampling times taken by ``np.unique``.

``joint_step`` is the per-slot sampler of the joint chain, one state at a
time, that ``sample_block``'s law is tested against, and
``entropy_rate_homogeneous`` is an entropy-rate formula for models whose
statuses share one dwell law, against which ``entropy_rate`` is tested.
"""

from __future__ import annotations

import numpy as np

from gaoi import bayes
from gaoi.ensemble import (
    INIT_SALT,
    PATH_SALT,
    POLICY_SALT,
    EnsembleConfig,
    EnsembleStats,
    StationaryLaw,
    _aggregate,
    derive_stream,
    sample_block,
)
from gaoi.markov import (
    EntropyRate,
    JointModel,
    JointState,
    ModelError,
    StationaryDistribution,
    _dwell_entropy_series,
    discrete_entropy,
    prob_change,
)
from gaoi.schedule import DelayLaw, PolicySpec, UpdateSchedule, aoi_series, filter_stale


def joint_step(model: JointModel, u: JointState, rng: np.random.Generator) -> JointState:
    """Advance the joint chain one slot using draws from ``rng``."""
    q = model.dwell.q(u.x, u.t)
    if rng.random() < q:
        x_new = int(rng.choice(model.alphabet_size, p=model.change.rows[u.x]))
        return JointState(x=x_new, t=0)
    return JointState(x=u.x, t=u.t + 1)


def entropy_rate_homogeneous(model: JointModel, dist: StationaryDistribution) -> EntropyRate:
    """Entropy rate via the split H(dwell chain) + H(change chain) * P[T_n=0].

    Only valid when every status shares the same dwell law.
    """
    dwell = model.dwell
    if not (np.all(dwell.prefix == dwell.prefix[0:1, :]) and np.all(dwell.tail == dwell.tail[0])):
        raise ModelError("dwell kernel differs across states; split formula does not apply")
    p_change = prob_change(dist)  # one change per mean dwell
    # entropy rate of the dwell counter chain alone
    h_dwell = _dwell_entropy_series(model, 0, 0.0) * p_change
    h_change = float(
        sum(dist.embedded[x] * discrete_entropy(model.change.rows[x])
            for x in range(model.alphabet_size))
    )
    rate = h_dwell + h_change * p_change
    return EntropyRate(bits=float(rate))


def _draw(law: DelayLaw, rng: np.random.Generator) -> int:
    if law.kind == "deterministic":
        return law.lo
    return int(rng.integers(law.lo, law.hi + 1))


def reference_generate_schedule(policy: PolicySpec, horizon: int,
                                rng: np.random.Generator) -> UpdateSchedule:
    """Realize a policy one update at a time, one delay draw per update."""
    if policy.kind == "explicit":
        return filter_stale(list(policy.pairs), horizon)
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
    return filter_stale(pairs, horizon)


def reference_random_schedule(horizon: int, rng: np.random.Generator,
                              mean_updates: float = 8.0, max_delay: int = 20) -> UpdateSchedule:
    """Random samples (sorted and distinct by ``np.unique``) with random
    delays, stale-filtered."""
    if horizon < 2:
        return UpdateSchedule(horizon=horizon, samples=(), deliveries=())
    k = int(rng.integers(0, max(1, int(mean_updates * 2)) + 1))
    samples = np.unique(rng.integers(1, horizon, size=k))
    pairs = [(int(s), int(s + rng.integers(0, max_delay + 1))) for s in samples]
    return filter_stale(pairs, horizon)


def reference_cumulative_gaoi(model: bayes.BayesModel, schedule: UpdateSchedule) -> float:
    """Expected total staleness, one inter-delivery interval at a time."""
    p, t = model.p, schedule.horizon
    s_cap = schedule.capped_samples()
    d_cap = schedule.capped_deliveries()
    acc = -(1.0 - p) * bayes._change_by(p, t) / p
    for i in range(len(s_cap) - 1):
        acc += (d_cap[i + 1] - d_cap[i]) * (1.0 - p) ** s_cap[i]
    return model.h1 / p * acc


def reference_ensemble(config: EnsembleConfig) -> EnsembleStats:
    """``run_ensemble`` one path at a time: each path's schedule from its own
    policy stream, its change slots from a one-path ``sample_block``
    (stationary) or its geometric change time (Bayesian), each change's delay
    from ``delivery_for_change``, and every series added in path order."""
    model, horizon, seed = config.model, config.horizon, config.base_seed
    bayesian = isinstance(model, bayes.BayesModel)
    law = None if bayesian else StationaryLaw.of(model)
    if bayesian:
        h = bayes.h_closed(model, np.arange(horizon + 1))
        decay = bayes.survival_table(model, horizon)
    values = {name: np.empty(config.num_paths)
              for name in ("cum_aoi", "cum_gaoi", "cum_delay", "num_changes")}
    aoi_acc = np.zeros(horizon)
    gaoi_acc = np.zeros(horizon)
    for k in range(config.num_paths):
        schedule = reference_generate_schedule(config.policy, horizon,
                                               derive_stream(seed, k, POLICY_SALT))
        ages = aoi_series(schedule)
        aoi_acc += ages
        values["cum_aoi"][k] = ages.sum()
        if bayesian:
            theta = int(derive_stream(seed, k, PATH_SALT).geometric(model.p))
            changed = theta <= horizon
            values["cum_delay"][k] = schedule.delivery_for_change(theta) - theta if changed else 0
            values["num_changes"][k] = int(changed)
            values["cum_gaoi"][k] = reference_cumulative_gaoi(model, schedule)
            delta = np.arange(horizon) - ages
            gaoi_acc += h[ages + 1] * decay[delta]
        else:
            x0, t0 = law.dist.sample(derive_stream(seed, k, INIT_SALT).random((1, 2)))
            uniforms = derive_stream(seed, k, PATH_SALT).random((horizon, 2))[:, :, None]
            slots = np.flatnonzero(sample_block(model, x0, t0, uniforms)[:, 0]) + 1
            values["cum_delay"][k] = sum(schedule.delivery_for_change(n) - n
                                         for n in slots.tolist())
            values["num_changes"][k] = len(slots)
            values["cum_gaoi"][k] = law.rate * values["cum_aoi"][k]
    if bayesian:
        return _aggregate(config, values, aoi_acc, gaoi_acc)
    return _aggregate(config, values, aoi_acc, law.rate * aoi_acc, law.rate, law.p_change)
