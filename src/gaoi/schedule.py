"""Update schedules and the state-independent policies that generate them.

A schedule over horizon ``T`` is the list of sampling times ``s_1..s_K`` and
delivery times ``d_1..d_K`` of the updates delivered within the horizon, with
the implicit caps s_0 = d_0 = 0 (the monitor knows the state at time 0) and
s_{K+1} = d_{K+1} = T.  Stale updates (delivered after a fresher one) are
filtered out; they do not affect the age at the destination or the detection
of changes.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np


class ScheduleError(ValueError):
    """Raised for schedules violating the monotonicity invariants."""


@dataclass(frozen=True)
class UpdateSchedule:
    """Sampling/delivery times of delivered updates over ``[1, horizon]``.

    Both sequences are strictly increasing, sampling times lie in
    (0, horizon), deliveries in (0, horizon], and s_i <= d_i.
    """

    horizon: int
    samples: tuple[int, ...]
    deliveries: tuple[int, ...]

    def __post_init__(self):
        if self.horizon < 0:
            raise ScheduleError("horizon must be non-negative")
        if len(self.samples) != len(self.deliveries):
            raise ScheduleError("samples and deliveries must pair up")
        prev_s, prev_d = 0, 0
        for s, d in zip(self.samples, self.deliveries):
            if s <= prev_s:
                raise ScheduleError(f"sampling times not strictly increasing at s={s}")
            if d <= prev_d:
                raise ScheduleError(f"delivery times not strictly increasing at d={d}")
            if s > d:
                raise ScheduleError(f"update sampled at {s} delivered earlier at {d}")
            if s >= self.horizon or d > self.horizon:
                raise ScheduleError(f"update ({s},{d}) falls outside horizon {self.horizon}")
            prev_s, prev_d = s, d

    @property
    def num_updates(self) -> int:
        return len(self.samples)

    def capped_samples(self) -> tuple[int, ...]:
        """s_0..s_{K+1} including both end caps."""
        return (0, *self.samples, self.horizon)

    def capped_deliveries(self) -> tuple[int, ...]:
        return (0, *self.deliveries, self.horizon)

    def delivery_for_change(self, n: int) -> int:
        """Earliest delivery of an update sampled at or after slot n (cap: horizon)."""
        i = bisect_left(self.samples, n)
        if i < len(self.samples):
            return self.deliveries[i]
        return self.horizon


@dataclass(frozen=True)
class DelayLaw:
    """Delivery-delay distribution: deterministic c, or uniform integers on [lo, hi]."""

    kind: str  # "deterministic" | "uniform"
    lo: int
    hi: int

    def __post_init__(self):
        if self.kind not in ("deterministic", "uniform"):
            raise ValueError(f"unknown delay kind {self.kind!r}")
        if self.lo < 0 or self.hi < self.lo:
            raise ValueError("delay bounds must satisfy 0 <= lo <= hi")

    @classmethod
    def deterministic(cls, c: int) -> "DelayLaw":
        return cls("deterministic", int(c), int(c))

    @classmethod
    def uniform(cls, lo: int, hi: int) -> "DelayLaw":
        return cls("uniform", int(lo), int(hi))

    def draw(self, rng: np.random.Generator) -> int:
        if self.kind == "deterministic":
            return self.lo
        return int(rng.integers(self.lo, self.hi + 1))


@dataclass(frozen=True)
class PolicySpec:
    """State-independent updating policy.

    * periodic: sample every ``period`` slots, deliver after a delay draw.
    * greedy: sample again as soon as the previous update is delivered.
    * explicit: replay a fixed list of (sample, delivery) pairs.
    """

    kind: str  # "periodic" | "greedy" | "explicit"
    period: int = 0
    delay: DelayLaw = DelayLaw.deterministic(0)
    pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.kind not in ("periodic", "greedy", "explicit"):
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.kind == "periodic" and self.period < 1:
            raise ValueError("periodic policy needs period >= 1")


def filter_stale(raw: list[tuple[int, int]], horizon: int) -> UpdateSchedule:
    """Drop updates that arrive staler than an already-delivered one.

    Pairs are ordered by delivery time; a pair is kept only if its sampling
    time exceeds every previously kept sampling time.  Ties on delivery time
    keep the freshest sample; ties on sampling time keep the earliest
    delivery.  Pairs outside the horizon are dropped first.
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
    return UpdateSchedule(
        horizon=horizon,
        samples=tuple(s for s, _ in kept),
        deliveries=tuple(d for _, d in kept),
    )


def generate_schedule(policy: PolicySpec, horizon: int, rng: np.random.Generator) -> UpdateSchedule:
    """Realize a policy over ``[1, horizon]``.

    The greedy policy starts sampling at time 0 (the monitor's initial
    knowledge counts as a delivery); that first pair carries no information
    beyond the time-0 cap and is removed by the stale filter.  A zero delay
    under greedy would resample the same slot forever, so the next sample is
    pushed at least one slot forward.
    """
    if policy.kind == "explicit":
        return filter_stale(list(policy.pairs), horizon)
    pairs: list[tuple[int, int]] = []
    if policy.kind == "periodic":
        s = policy.period
        while s < horizon:
            pairs.append((s, s + policy.delay.draw(rng)))
            s += policy.period
    else:  # greedy
        s = 0
        while s < horizon:
            d = s + policy.delay.draw(rng)
            pairs.append((s, d))
            s = max(d, s + 1)
    return filter_stale(pairs, horizon)


def random_schedule(horizon: int, rng: np.random.Generator,
                    mean_updates: float = 8.0, max_delay: int = 20) -> UpdateSchedule:
    """Arbitrary valid schedule for identity checks: random samples with
    random delays, stale-filtered."""
    if horizon < 2:
        return UpdateSchedule(horizon=horizon, samples=(), deliveries=())
    k = int(rng.integers(0, max(1, int(mean_updates * 2)) + 1))
    samples = np.unique(rng.integers(1, horizon, size=k))
    pairs = [(int(s), int(s + rng.integers(0, max_delay + 1))) for s in samples]
    return filter_stale(pairs, horizon)


def aoi_series(schedule: UpdateSchedule) -> np.ndarray:
    """Per-slot ages a_n = n - s_j for n in [d_j, d_{j+1}), n = 0..horizon-1.

    j is the number of deliveries at or before n, so s_j is the freshest
    sample the monitor holds at slot n.
    """
    n = np.arange(schedule.horizon, dtype=np.int64)
    s = np.array((0, *schedule.samples), dtype=np.int64)
    d = np.array(schedule.deliveries, dtype=np.int64)
    return n - s[np.searchsorted(d, n, side="right")]
