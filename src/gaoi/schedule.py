"""Update schedules and the state-independent policies that generate them.

A schedule over horizon ``T`` is the list of sampling times ``s_1..s_K`` and
delivery times ``d_1..d_K`` of the updates delivered within the horizon, with
the implicit caps s_0 = d_0 = 0 (the monitor knows the state at time 0) and
s_{K+1} = d_{K+1} = T.  Stale updates (delivered after a fresher one) are
filtered out; they do not affect the age at the destination or the detection
of changes.

Ensembles realise a policy for a whole block of paths at once:
``generate_schedules`` returns a ``ScheduleBlock``, every path's kept updates
as left-packed ``(paths, K)`` arrays, and ``aoi_block`` and
``detection_block`` read ages and detection times off it for every row.
Each path's random delays come from its own stream in one batched
``integers`` call.  That is the same draws as one call per update: numpy's
bounded integers take the same values batched as one at a time, and the
policy stream feeds only delays, so drawing more than a path uses changes
nothing.  A policy with no random delay (``PolicySpec.is_fixed``) draws
nothing and yields one schedule for every stream.  ``generate_schedule``
and ``aoi_series`` are the one-row case of the same code.  ``filter_stale``
stays a loop: it takes pairs in any order, and on the short lists it is
given a loop is about ten times faster than array code.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable
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

    def draw_rows(self, streams: Iterable, size: int, cap: int) -> np.ndarray:
        """One row of ``size`` delays per stream, each row in one call, with
        every delay above ``cap`` reported as ``cap``.

        Streams are used in order, one at a time.  A law with ``lo == hi``
        draws nothing, so its streams may be None.
        """
        rows = [np.full(size, min(self.lo, cap)) if self.lo == self.hi
                else rng.integers(self.lo, self.hi + 1, size=size) for rng in streams]
        return np.minimum(np.array(rows, dtype=np.int64).reshape(len(rows), size), cap)


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

    @property
    def is_fixed(self) -> bool:
        """True when the policy draws no random delay: every realisation is
        the same schedule."""
        return self.kind == "explicit" or self.delay.lo == self.delay.hi


@dataclass(frozen=True)
class ScheduleBlock:
    """The schedules of a block of paths as left-packed ``(paths, K)`` arrays.

    Row k holds path k's ``counts[k]`` delivered updates in order; the rest
    of the row is padding, an update sampled and delivered at the horizon,
    which no age, detection time or staleness term sees.
    """

    horizon: int
    samples: np.ndarray  # (paths, K) int64
    deliveries: np.ndarray  # (paths, K) int64
    counts: np.ndarray  # (paths,)

    @classmethod
    def of(cls, schedule: UpdateSchedule) -> "ScheduleBlock":
        """The one-row block holding ``schedule``."""
        return cls(
            horizon=schedule.horizon,
            samples=np.array(schedule.samples, dtype=np.int64).reshape(1, -1),
            deliveries=np.array(schedule.deliveries, dtype=np.int64).reshape(1, -1),
            counts=np.array([schedule.num_updates]),
        )

    @property
    def num_paths(self) -> int:
        return len(self.counts)

    def take(self, rows) -> "ScheduleBlock":
        """The block made of ``rows`` (an index array; repeats allowed)."""
        return ScheduleBlock(self.horizon, self.samples[rows], self.deliveries[rows],
                             self.counts[rows])

    def schedule(self, k: int) -> UpdateSchedule:
        """Row k as a validated ``UpdateSchedule``."""
        c = int(self.counts[k])
        return UpdateSchedule(horizon=self.horizon,
                              samples=tuple(self.samples[k, :c].tolist()),
                              deliveries=tuple(self.deliveries[k, :c].tolist()))


def _keep_fresh(samples: np.ndarray, deliveries: np.ndarray, horizon: int) -> ScheduleBlock:
    """Stale-filter rows of pairs whose sampling times strictly increase.

    Pair i is kept iff it lies in the horizon (0 < s_i < T, d_i <= T) and is
    delivered strictly before every later pair in the horizon: a later pair
    delivered no later is fresher and makes it stale.  So on equal delivery
    times the freshest sample is kept, as ``filter_stale`` specifies.
    """
    paths = samples.shape[0]
    inside = (samples > 0) & (samples < horizon) & (deliveries <= horizon)
    later = np.where(inside, deliveries, horizon + 1)
    # earliest in-horizon delivery from column i on, then from column i + 1 on
    from_here = np.minimum.accumulate(later[:, ::-1], axis=1)[:, ::-1]
    after = np.concatenate([from_here[:, 1:], np.full((paths, 1), horizon + 1)], axis=1)
    keep = inside & (deliveries < after)
    counts = keep.sum(axis=1)
    rows, cols = np.nonzero(keep)
    slot = (np.cumsum(keep, axis=1) - 1)[rows, cols]
    width = int(counts.max(initial=0))
    packed = []
    for values in (samples, deliveries):
        out = np.full((paths, width), horizon, dtype=np.int64)
        out[rows, slot] = values[rows, cols]
        packed.append(out)
    return ScheduleBlock(horizon, packed[0], packed[1], counts)


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


def generate_schedules(policy: PolicySpec, horizon: int, streams: Iterable) -> ScheduleBlock:
    """Realize a policy over ``[1, horizon]`` once per stream, one row each.

    ``streams`` yields one generator per path, used in order and one at a
    time; a fixed policy draws nothing, so its streams may be None.

    The greedy policy starts sampling at time 0 (the monitor's initial
    knowledge counts as a delivery); that first pair carries no information
    beyond the time-0 cap and is removed by the stale filter.  A zero delay
    under greedy would resample the same slot forever, so the next sample is
    pushed at least one slot forward: s_{i+1} = s_i + max(D_i, 1).
    """
    if policy.kind == "explicit":
        one = ScheduleBlock.of(filter_stale(list(policy.pairs), horizon))
        return one.take(np.zeros(len(list(streams)), dtype=np.intp))
    # A delay past the horizon delivers past it, and under greedy also ends
    # the sampling, so delays are capped at T + 1 and the sums stay small.
    if policy.kind == "periodic":
        times = np.array(range(policy.period, horizon, policy.period), dtype=np.int64)
        delays = policy.delay.draw_rows(streams, len(times), horizon + 1)
        samples = np.broadcast_to(times, delays.shape)
    else:
        # every step is at least max(lo, 1), so this many draws pass the horizon
        size = -(-horizon // max(policy.delay.lo, 1))
        delays = policy.delay.draw_rows(streams, size, horizon + 1)
        steps = np.maximum(delays, 1)
        samples = np.cumsum(steps, axis=1) - steps
    return _keep_fresh(samples, samples + delays, horizon)


def generate_schedule(policy: PolicySpec, horizon: int, rng: np.random.Generator) -> UpdateSchedule:
    """Realize a policy over ``[1, horizon]``: ``generate_schedules`` on one stream."""
    return generate_schedules(policy, horizon, [rng]).schedule(0)


def random_schedule(horizon: int, rng: np.random.Generator,
                    mean_updates: float = 8.0, max_delay: int = 20) -> UpdateSchedule:
    """Arbitrary valid schedule for identity checks: random samples with
    random delays, stale-filtered."""
    if horizon < 2:
        return UpdateSchedule(horizon=horizon, samples=(), deliveries=())
    k = int(rng.integers(0, max(1, int(mean_updates * 2)) + 1))
    # sorted distinct draws, as np.unique gives, without importing numpy.ma
    samples = sorted(set(rng.integers(1, horizon, size=k).tolist()))
    pairs = [(s, s + int(rng.integers(0, max_delay + 1))) for s in samples]
    return filter_stale(pairs, horizon)


def aoi_block(block: ScheduleBlock) -> np.ndarray:
    """Per-slot ages of every row, ``(paths, horizon)`` int64.

    a_n = n - s_j for n = 0..horizon-1, with s_j the freshest sample the
    monitor holds at slot n: each sample is written at its delivery slot and
    carried forward by a running maximum.
    """
    t = block.horizon
    held = np.zeros((block.num_paths, t + 1), dtype=np.int64)
    np.put_along_axis(held, block.deliveries, block.samples, axis=1)  # padding lands in column T
    return np.arange(t) - np.maximum.accumulate(held[:, :t], axis=1)


def aoi_series(schedule: UpdateSchedule) -> np.ndarray:
    """Per-slot ages a_n = n - s_j for n in [d_j, d_{j+1}), n = 0..horizon-1
    (``aoi_block`` of one schedule)."""
    return aoi_block(ScheduleBlock.of(schedule))[0]


def detection_block(block: ScheduleBlock) -> np.ndarray:
    """Detection slot of a change at each slot n = 0..horizon, for every row.

    Returns ``(paths, horizon + 1)`` int64: the delivery of the first sample
    taken at or after n, or the horizon when there is none.  Each delivery is
    written at its sampling slot and carried backward by a running minimum.
    """
    t = block.horizon
    first = np.full((block.num_paths, t + 1), t, dtype=np.int64)
    np.put_along_axis(first, block.samples, block.deliveries, axis=1)  # padding writes T at T
    return np.minimum.accumulate(first[:, ::-1], axis=1)[:, ::-1]
