"""Per-update and per-path loops that the batched code is checked against.

These are the schedule, staleness and ensemble loops written one update and
one path at a time, in the plainest form: ``generate_schedules``,
``cumulative_gaoi_block`` and ``run_ensemble`` must agree with them bit for
bit.  Both loops share ``filter_stale``, which is itself a loop.  The
per-path ensemble draws from a fresh ``derive_stream`` generator per path,
where ``run_ensemble`` resets one shared generator per salt.
``reference_random_schedule`` is ``random_schedule`` with its sampling times
taken by ``np.unique``.
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
    draw_stationary_state,
    simulate_path,
)
from gaoi.metrics import change_delays
from gaoi.schedule import DelayLaw, PolicySpec, UpdateSchedule, aoi_series, filter_stale


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
    policy stream, its sample path from ``simulate_path`` (stationary) or its
    change time (Bayesian), and every series added in path order."""
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
            u0 = draw_stationary_state(law.dist, derive_stream(seed, k, INIT_SALT))
            path = simulate_path(model, u0, horizon, derive_stream(seed, k, PATH_SALT))
            values["cum_delay"][k] = change_delays(path.change_points, schedule).sum()
            values["num_changes"][k] = len(path.change_points)
            values["cum_gaoi"][k] = law.rate * values["cum_aoi"][k]
    if bayesian:
        return _aggregate(config, values, aoi_acc, gaoi_acc)
    return _aggregate(config, values, aoi_acc, law.rate * aoi_acc, law.rate, law.p_change)
