"""Update schedules and the state-independent policies that generate them.

A schedule over horizon ``T`` is the list of sampling times ``s_1..s_K`` and
delivery times ``d_1..d_K`` of the updates delivered within the horizon, with
the implicit caps s_0 = d_0 = 0 (the monitor knows the state at time 0) and
s_{K+1} = d_{K+1} = T.  Stale updates (delivered after a fresher one) are
filtered out; they do not affect the age at the destination or the detection
of changes.

Every schedule is a row of a ``ScheduleBlock``: left-packed ``(paths, K)``
arrays, a single schedule being a one-row block.  ``generate_schedules``
realises a policy for a whole block of paths at once, ``filter_stale`` turns
raw pairs into a one-row block, and ``aoi_block`` and ``detection_block``
read ages and detection times off every row.  Each path's random delays come
from its own stream in one batched ``integers`` call.  That is the same
draws as one call per update: numpy's bounded integers take the same values
batched as one at a time, and the policy stream feeds only delays, so
drawing more than a path uses changes nothing.  A policy with no random delay
(``PolicySpec.is_fixed``) draws nothing and yields one schedule for every
stream.  The array stale filter has a fixed cost per call, however few rows
it is given: on 8 pairs about 47 us, where a Python loop takes about 2.4 us
(2-core VM, numpy 2.4).  So schedules are filtered a block at a time, and
``random_schedule`` draws all its rows before filtering them together.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np


class ScheduleError(ValueError):
    """Raised for an update sampled after its delivery."""


# A random_schedule row samples up to 2 * MEAN_UPDATES slots, each delivered
# up to MAX_DELAY slots later.
MEAN_UPDATES = 8
MAX_DELAY = 20


@dataclass(frozen=True)
class DelayLaw:
    """Delivery delays uniform on the integers [lo, hi]; deterministic when
    ``lo == hi``."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo < 0 or self.hi < self.lo:
            raise ValueError("delay bounds must satisfy 0 <= lo <= hi")

    @classmethod
    def deterministic(cls, c: int) -> "DelayLaw":
        return cls(int(c), int(c))

    @classmethod
    def uniform(cls, lo: int, hi: int) -> "DelayLaw":
        return cls(int(lo), int(hi))

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

    Row k holds path k's delivered updates in order; the rest of the row is
    padding, an update sampled and delivered at the horizon, which no age,
    detection time or staleness term sees.  A kept update is sampled before
    the horizon, so row k holds ``(samples[k] < horizon).sum()`` of them.
    """

    horizon: int
    samples: np.ndarray  # (paths, K) int64
    deliveries: np.ndarray  # (paths, K) int64

    @property
    def num_paths(self) -> int:
        return len(self.samples)

    def take(self, rows) -> "ScheduleBlock":
        """The block made of ``rows`` (an index array; repeats allowed)."""
        return ScheduleBlock(self.horizon, self.samples[rows], self.deliveries[rows])


def _keep_fresh(samples: np.ndarray, deliveries: np.ndarray, horizon: int) -> ScheduleBlock:
    """Stale-filter rows of pairs whose sampling times in the horizon
    strictly increase.

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
    rows, cols = np.nonzero(keep)
    slot = (np.cumsum(keep, axis=1) - 1)[rows, cols]
    width = int(keep.sum(axis=1).max(initial=0))
    packed = []
    for values in (samples, deliveries):
        out = np.full((paths, width), horizon, dtype=np.int64)
        out[rows, slot] = values[rows, cols]
        packed.append(out)
    return ScheduleBlock(horizon, packed[0], packed[1])


def filter_stale(raw: list[tuple[int, int]], horizon: int) -> ScheduleBlock:
    """The one-row block of the pairs in ``raw`` (any order) that are not stale.

    A pair is kept iff it lies in the horizon and no other pair in it is
    sampled no earlier and delivered no later.  Ties on delivery time keep
    the freshest sample; ties on sampling time keep the earliest delivery.
    """
    for s, d in raw:
        if s > d:
            raise ScheduleError(f"pair ({s},{d}) samples after delivery")
    # times outside the horizon need not fit in int64, so their pairs go first
    inside = [(s, d) for s, d in raw if 0 < s < horizon and d <= horizon]
    s, d = np.array(inside, dtype=np.int64).reshape(-1, 2).T
    order = np.lexsort((d, s))
    s, d = s[order], d[order]
    first = np.diff(s, prepend=0) > 0  # the earliest delivery of each sampling time
    return _keep_fresh(s[None, first], d[None, first], horizon)


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
        one = filter_stale(list(policy.pairs), horizon)
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


def random_schedule(horizon: int, rng: np.random.Generator, count: int) -> ScheduleBlock:
    """``count`` arbitrary valid schedules for identity checks, one row each:
    random samples with random delays, stale-filtered together.

    Each row draws its number of samples, the samples, then one delay per
    distinct sample in one call, as one schedule drawn alone would.  A
    horizon under 2 has no slot to sample and draws nothing.
    """
    width = 2 * MEAN_UPDATES
    samples = np.full((count, width), horizon, dtype=np.int64)
    delays = np.zeros((count, width), dtype=np.int64)
    if horizon >= 2:
        for row in range(count):
            k = int(rng.integers(0, width + 1))
            # sorted distinct draws, as np.unique gives, without importing numpy.ma
            times = sorted(set(rng.integers(1, horizon, size=k).tolist()))
            samples[row, :len(times)] = times
            delays[row, :len(times)] = rng.integers(0, MAX_DELAY + 1, size=len(times))
    return _keep_fresh(samples, samples + delays, horizon)


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
