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
read ages and detection times off every row.  Each path's random delays are
the values of one ``integers`` call on its own stream, which
``ensemble.PathStreams.integers`` gives for a whole block from one raw draw
per path.  That is the same draws as one call per update: numpy's bounded
integers take the same values batched as one at a time, and the policy
stream feeds only delays, so drawing more than a path uses changes nothing.
A policy with no random delay (``PolicySpec.is_fixed``) draws nothing and
yields one schedule for every stream.  The array stale filter has a fixed
cost per call, however few rows it is given: on 8 pairs about 47 us, where a
Python loop takes about 2.4 us (2-core VM, numpy 2.4).  So schedules are
filtered a block at a time, and ``random_schedule`` draws all its rows before
filtering them together.
Block arithmetic is in place: a step writes only into an array its own
function built, and the blocks built here are read-only, so a step aimed at
a schedule (or at a fixed realisation, which is shared) raises.

``PolicySpec`` checks itself as it is built, with a ``ValueError``: a field
its kind does not read (``POLICY_FIELDS``) must keep its default, and no
explicit pair may be sampled after its delivery.
"""

from __future__ import annotations

from collections.abc import Collection

import numpy as np

from ._base import _Frozen, _Value


class ScheduleError(ValueError):
    """Raised for an update sampled after its delivery."""


def _check_order(pairs) -> None:
    """Refuse a (sample, delivery) pair sampled after its delivery."""
    for s, d in pairs:
        if s > d:
            raise ScheduleError(f"pair ({s}, {d}) is sampled after its delivery")


# A random_schedule row samples up to 2 * MEAN_UPDATES slots, each delivered
# up to MAX_DELAY slots later.
MEAN_UPDATES = 8
MAX_DELAY = 20


class DelayLaw(_Value):
    """Delivery delays uniform on the integers [lo, hi]; deterministic when
    ``lo == hi``."""

    __match_args__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        self._init(lo=lo, hi=hi)
        # a float or a bool is no bound, as config._int has it (type(True) is bool)
        if not (type(self.lo) is type(self.hi) is int and 0 <= self.lo <= self.hi):
            raise ValueError("delay bounds must be integers with 0 <= lo <= hi")

    def draw_rows(self, streams: Collection, size: int, cap: int) -> np.ndarray:
        """One row of ``size`` delays per stream, with every delay above ``cap``
        reported as ``cap``.

        A law with ``lo < hi`` takes its rows from ``streams.integers(lo, hi,
        size)`` (an ``ensemble.PathStreams``): each row is its stream's
        ``integers(lo, hi + 1, size=size)``.  A law with ``lo == hi`` draws
        nothing, so its streams need only a length and may be None.
        """
        if self.lo == self.hi:
            return np.full((len(streams), size), min(self.lo, cap), dtype=np.int64)
        out = streams.integers(self.lo, self.hi, size)
        return np.minimum(out, cap, out=out)


# the fields each policy kind reads; it takes no other field but at its default
POLICY_FIELDS = {"periodic": ("period", "delay"), "greedy": ("delay",), "explicit": ("pairs",)}


class PolicySpec(_Value):
    """State-independent updating policy.

    * periodic: sample every ``period`` slots, deliver after a delay draw.
    * greedy: sample again as soon as the previous update is delivered.
    * explicit: replay a fixed list of (sample, delivery) pairs.
    """

    __match_args__ = ("kind", "period", "delay", "pairs")

    def __init__(self, kind: str, period: int = 0, delay: DelayLaw = DelayLaw(0, 0),
                 pairs: tuple[tuple[int, int], ...] = ()):
        self._init(kind=kind, period=period, delay=delay, pairs=pairs)
        if self.kind not in tuple(POLICY_FIELDS):  # compared, not hashed: a list is no kind
            raise ValueError(f"unknown policy kind {self.kind!r}")
        reads = POLICY_FIELDS[self.kind]
        # every field but the kind has a default, which a field the kind does not read keeps
        for name, default in zip(self.__match_args__[1:], PolicySpec.__init__.__defaults__):
            if name not in reads and getattr(self, name) != default:
                raise ValueError(f"{self.kind} policy takes no {name}")
        if self.kind == "periodic" and not (type(self.period) is int and self.period >= 1):
            raise ValueError("periodic policy needs an integer period >= 1")
        if not isinstance(self.delay, DelayLaw):
            raise ValueError("policy delay must be a DelayLaw")
        if not (type(self.pairs) is tuple and all(
                type(p) is tuple and len(p) == 2 and type(p[0]) is type(p[1]) is int
                for p in self.pairs)):
            raise ValueError("explicit pairs must be a tuple of (sample, delivery) integer pairs")
        _check_order(self.pairs)

    @property
    def is_fixed(self) -> bool:
        """True when the policy draws no random delay: every realisation is
        the same schedule."""
        return self.delay.lo == self.delay.hi  # an explicit policy has no delay


# compared and hashed by identity, as its arrays cannot be
class ScheduleBlock(_Frozen):
    """The schedules of a block of paths as left-packed ``(paths, K)`` arrays.

    Row k holds path k's delivered updates in order; the rest of the row is
    padding, an update sampled and delivered at the horizon, which no age,
    detection time or staleness term sees.  A kept update is sampled before
    the horizon, so row k holds ``(samples[k] < horizon).sum()`` of them.
    """

    __match_args__ = ("horizon", "samples", "deliveries")

    def __init__(self, horizon: int, samples: np.ndarray, deliveries: np.ndarray):
        """``samples`` and ``deliveries`` are (paths, K) int64."""
        self._init(horizon=horizon, samples=samples, deliveries=deliveries)

    @property
    def num_paths(self) -> int:
        return len(self.samples)

    def take(self, rows) -> "ScheduleBlock":
        """The read-only block made of ``rows`` (an index array; repeats allowed)."""
        taken = self.samples[rows], self.deliveries[rows]  # copies, never this block's own
        for values in taken:
            values.setflags(write=False)
        return ScheduleBlock(self.horizon, *taken)


def _keep_fresh(samples: np.ndarray, deliveries: np.ndarray, horizon: int) -> ScheduleBlock:
    """Stale-filter rows of pairs whose sampling times in the horizon
    strictly increase.

    Pair i is kept iff it lies in the horizon (0 < s_i < T, d_i <= T) and is
    delivered strictly before every later pair in the horizon: a later pair
    delivered no later is fresher and makes it stale.  So on equal delivery
    times the freshest sample is kept, as ``filter_stale`` specifies.
    """
    keep = (samples > 0) & (samples < horizon)
    keep &= deliveries <= horizon
    # earliest in-horizon delivery from column i on; pair i must come before
    # column i + 1's (the last pair in the horizon is delivered by T < T + 1)
    later = np.where(keep, deliveries, horizon + 1)
    np.minimum.accumulate(later[:, ::-1], axis=1, out=later[:, ::-1])
    keep[:, :-1] &= deliveries[:, :-1] < later[:, 1:]
    del later
    rows, cols = np.nonzero(keep)
    slot = np.cumsum(keep, axis=1)[rows, cols] - 1
    width = int(keep.sum(axis=1).max(initial=0))
    packed = []
    for values in (samples, deliveries):
        out = np.full((len(samples), width), horizon, dtype=np.int64)
        out[rows, slot] = values[rows, cols]
        out.setflags(write=False)
        packed.append(out)
    return ScheduleBlock(horizon, *packed)


def filter_stale(raw: list[tuple[int, int]], horizon: int) -> ScheduleBlock:
    """The one-row block of the pairs in ``raw`` (any order) that are not stale.

    A pair is kept iff it lies in the horizon and no other pair in it is
    sampled no earlier and delivered no later.  Ties on delivery time keep
    the freshest sample; ties on sampling time keep the earliest delivery.
    """
    _check_order(raw)
    # times outside the horizon need not fit in int64, so their pairs go first
    inside = [(s, d) for s, d in raw if 0 < s < horizon and d <= horizon]
    s, d = np.array(inside, dtype=np.int64).reshape(-1, 2).T
    order = np.lexsort((d, s))
    s, d = s[order], d[order]
    first = np.diff(s, prepend=0) > 0  # the earliest delivery of each sampling time
    return _keep_fresh(s[None, first], d[None, first], horizon)


def generate_schedules(policy: PolicySpec, horizon: int, streams: Collection) -> ScheduleBlock:
    """Realize a policy over ``[1, horizon]`` once per stream, one row each.

    ``streams`` holds one stream per path.  A policy with a random delay
    draws a block of delays at once by ``streams.integers`` (an
    ``ensemble.PathStreams``); a fixed policy draws nothing and reads only
    the length, so a list of None will do.

    The greedy policy starts sampling at time 0 (the monitor's initial
    knowledge counts as a delivery); that first pair carries no information
    beyond the time-0 cap and is removed by the stale filter.  A zero delay
    under greedy would resample the same slot forever, so the next sample is
    pushed at least one slot forward: s_{i+1} = s_i + max(D_i, 1).
    """
    if policy.kind == "explicit":
        one = filter_stale(list(policy.pairs), horizon)
        return one.take(np.zeros(len(streams), dtype=np.intp))
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
        samples = np.zeros_like(delays)
        np.maximum(delays[:, :-1], 1, out=samples[:, 1:])
        np.cumsum(samples[:, 1:], axis=1, out=samples[:, 1:])  # s_{i+1} = s_i + max(D_i, 1)
    delays += samples  # the deliveries
    return _keep_fresh(samples, delays, horizon)


def random_schedule(horizon: int, rng: np.random.Generator, count: int) -> ScheduleBlock:
    """``count`` arbitrary valid schedules for identity checks, one row each:
    random samples with random delays, stale-filtered together.

    Each row draws its number of samples, the samples, then one delay per
    distinct sample in one call, as one schedule drawn alone would.  A
    horizon under 2 has no slot to sample and draws nothing.
    """
    width = 2 * MEAN_UPDATES
    samples = np.full((count, width), horizon, dtype=np.int64)
    deliveries = np.full((count, width), horizon, dtype=np.int64)
    if horizon >= 2:
        for row in range(count):
            k = int(rng.integers(0, width + 1))
            # sorted distinct draws, as np.unique gives, without importing numpy.ma
            times = sorted(set(rng.integers(1, horizon, size=k).tolist()))
            samples[row, :len(times)] = times
            deliveries[row, :len(times)] = rng.integers(0, MAX_DELAY + 1, size=len(times)) + times
    return _keep_fresh(samples, deliveries, horizon)


def aoi_block(block: ScheduleBlock) -> np.ndarray:
    """Per-slot ages of every row, ``(paths, horizon)`` int64.

    a_n = n - s_j for n = 0..horizon-1, with s_j the freshest sample the
    monitor holds at slot n: each sample is written at its delivery slot and
    carried forward by a running maximum.
    """
    t = block.horizon
    held = np.zeros((block.num_paths, t + 1), dtype=np.int64)
    np.put_along_axis(held, block.deliveries, block.samples, axis=1)  # padding lands in column T
    ages = np.maximum.accumulate(held[:, :t], axis=1, out=held[:, :t])
    return np.subtract(np.arange(t), ages, out=ages)


def detection_block(block: ScheduleBlock) -> np.ndarray:
    """Detection slot of a change at each slot n = 0..horizon, for every row.

    Returns ``(paths, horizon + 1)`` int64: the delivery of the first sample
    taken at or after n, or the horizon when there is none.  Each delivery is
    written at its sampling slot and carried backward by a running minimum.
    """
    t = block.horizon
    first = np.full((block.num_paths, t + 1), t, dtype=np.int64)
    np.put_along_axis(first, block.samples, block.deliveries, axis=1)  # padding writes T at T
    return np.minimum.accumulate(first[:, ::-1], axis=1, out=first[:, ::-1])[:, ::-1]
