"""Deterministic Monte Carlo ensembles over (path, schedule) pairs.

Random numbers come in stream families, one per (base_seed, salt): numpy's
counter-based ``Philox`` is keyed once per family from a ``SeedSequence`` of
(seed, salt), and path k's stream starts at counter (0, k, 0, 0), so distinct
paths never share a counter block (Salmon et al., "Parallel Random Numbers:
As Easy as 1, 2, 3", SC 2011).  Schedules use a different salt than paths,
so the realized schedule never depends on the state process (the policies
are state-independent by construction).  An ensemble holds one generator per
family and moves it from path to path by setting its whole state
(``StreamFamily.at``); ``derive_stream`` builds the same stream as a fresh
generator, the per-path reference the shared one is checked against.

Paths run in blocks of ``BLOCK_PATHS`` through one block loop for both
source models, which differ only in their staleness and in their change
slots, a ``(paths, changes)`` array per block, each row increasing:

* A stationary path is a semi-Markov chain, sampled as its change slots by
  one renewal sampler, ``sample_block``, from a start drawn from the exact
  stationary law.  Each dwell is one inverse-CDF draw on the survival table
  (geometric past the dwell prefix) and each jump one count of the change
  CDF's bounds at or below a uniform, both compared directly against the
  model's own rows (``JointModel.survival`` and ``.law``, computed once per
  model), so the sampler adds O(n (n + m)) memory for n statuses and an
  m-slot prefix.  The block's statuses advance one change per Python
  iteration, ``CHUNK_CHANGES`` changes at a time, with each chunk's dwells
  drawn at once.  Path k draws only from its own streams, so its realization
  depends neither on the block or chunk size nor on the other paths in its
  block.  Its staleness is the entropy rate times its age.
* A Bayesian path has one change, at a geometric time.  Its staleness is in
  closed form per schedule, from ``gaoi.bayes``: the total from
  ``bayes_cumulative_gaoi``, the per-slot series from ``bayes_gaoi_series``.

Every policy of a run sees the same source paths (the policies are
state-independent), each block's change slots sampled once.  Schedules come
from ``generate_schedules`` as ``(paths, K)`` arrays, each path's delays from
its own policy stream, drawn for the whole block from one raw draw per path
by numpy's own rule for bounded integers (``PathStreams``).  Ages and
detection times are read off the schedules for the whole block (a change's
delay is the detection time at its slot, minus the slot).  A fixed policy (no
random delay) is realised once per run, as one row: its schedule, ages,
detection times and staleness are built once, and a block only gathers its
paths' delays from that row and adds its ages once per path to the AoI total
(integers, so exactly).  Each block array is written once, updated in place
and freed before the next policy's, so a run's peak is one block's few
``(paths, horizon)`` arrays.  Aggregation runs per policy in path order: a
float series is summed down the block's paths by a cumulative sum that starts
from the running total, the same additions in the same order as adding one
path at a time, never a pairwise sum.  So results are bit-identical for any
block size and any other policies run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ._base import _Frozen
from .schedule import aoi_block, detection_block, generate_schedules

if TYPE_CHECKING:  # a model's layer loads only with its model
    from .markov import JointModel

PATH_SALT = 0
POLICY_SALT = 1
INIT_SALT = 2

# Paths sampled together; a block holds a few (BLOCK_PATHS, horizon) arrays.
# Warm run_ensemble time and traced peak at 64 / 128 / 256 paths a block
# (2-core VM, numpy 2.4.6, medians of three runs of 15 interleaved):
#   fig5 preset        107 / 85 / 76 ms,  1.74 / 3.37 / 6.64 MiB
#   fig6, 1000 paths    19 / 16 / 15 ms,  0.35 / 0.62 / 1.16 MiB
BLOCK_PATHS = 128
# Changes per pass of the sampler's status loop; no result depends on it.
CHUNK_CHANGES = 32

METRICS = ("cum_aoi", "cum_gaoi", "cum_delay", "num_changes")


# compared and hashed by identity, as its arrays cannot be
class EnsembleStats(_Frozen):
    """Ensemble means with standard errors, plus per-slot average series.

    ``values[name]`` holds one value per path, in path order, for each name
    in ``METRICS``: the means and standard errors are taken from them, and
    paired statistics (such as ``verify thm1``'s) can be built from them.
    """

    __match_args__ = ("num_paths", "horizon", "mean", "se", "values", "mean_aoi_series",
                      "mean_gaoi_series")

    def __init__(self, num_paths: int, horizon: int, mean: dict[str, float],
                 se: dict[str, float], values: dict[str, np.ndarray],
                 mean_aoi_series: np.ndarray, mean_gaoi_series: np.ndarray):
        self._init(num_paths=num_paths, horizon=horizon, mean=mean, se=se, values=values,
                   mean_aoi_series=mean_aoi_series, mean_gaoi_series=mean_gaoi_series)


def _philox_key(base_seed: int, salt: int) -> np.ndarray:
    """The Philox key of the (seed, salt) stream family."""
    return np.random.SeedSequence(entropy=base_seed, spawn_key=(salt,)).generate_state(
        2, np.uint64)


def derive_stream(base_seed: int, path_index: int, salt: int) -> np.random.Generator:
    """Path ``path_index``'s stream in the (seed, salt) family, as a fresh generator.

    A ``Philox`` generator keyed by (seed, salt), its counter set to
    (0, path_index, 0, 0): distinct salts give distinct keys, distinct paths
    distinct counter blocks, and identical inputs always reproduce the same
    draws.  ``StreamFamily.at`` yields the same stream from a shared generator.
    """
    counter = np.array([0, path_index, 0, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=_philox_key(base_seed, salt),
                                                counter=counter))


class StreamFamily:
    """The (seed, salt) family's per-path streams through one shared generator.

    ``at(k)`` resets the generator to the start of path k's stream and returns
    it: its draws equal ``derive_stream(seed, k, salt)``'s bit for bit, until
    the next ``at``.  Setting the whole ``Philox`` state costs a few
    microseconds, against a ``SeedSequence`` and a new generator per stream.
    """

    def __init__(self, base_seed: int, salt: int):
        self.salt = salt
        key = _philox_key(base_seed, salt)
        self._key = key.tolist()
        self._rng = np.random.Generator(np.random.Philox(key=key))

    def at(self, path_index: int) -> np.random.Generator:
        # an empty buffer and no held 32-bit half, so nothing the previous
        # path left unread leaks into this one
        self._rng.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, path_index, 0, 0], "key": self._key},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        return self._rng


class PathStreams:
    """Paths ``block``'s streams of one family, with a length, drawn a block at a time.

    ``integers(lo, hi, size)`` is every path's ``integers(lo, hi + 1,
    size=size)`` row, from the start of its stream, built from one
    ``random_raw`` call per path.  numpy draws a bounded integer by Lemire's
    rule (Lemire, "Fast Random Integer Generation in an Interval", ACM TOMACS
    2019): for a span n = hi - lo + 1 under 2**32, each value reads the
    stream's next 32-bit half u (a 64-bit word's low half first), m = u n, and
    is lo + (m >> 32), unless m's low 32 bits fall under 2**32 % n, where it
    reads the next half instead.  So a path none of whose values is redrawn
    takes them straight from its raw words, in int64 (m < 2**63 while
    n <= 2**31).  A path where one would be redrawn, and every path of a wider
    span, is drawn by ``integers`` itself on its restarted stream.
    """

    def __init__(self, family: StreamFamily, block: range):
        self._at, self._block = family.at, block

    def __len__(self) -> int:
        return len(self._block)

    def integers(self, lo: int, hi: int, size: int) -> np.ndarray:
        """A ``(paths, size)`` int64 array, row i path ``block[i]``'s draws on [lo, hi]."""
        span = hi - lo + 1
        out = np.empty((len(self._block), size), dtype=np.int64)
        redraw = range(len(self._block))
        # a bound past int64 is left to integers, which refuses it
        if span <= 2**31 and -2**63 <= lo and hi < 2**63:
            words = np.empty((len(self._block), -(-size // 2)), dtype=np.uint64)
            for row, k in zip(words, self._block):
                row[:] = self._at(k).bit_generator.random_raw(len(row))
            # each word's 32-bit halves, low first: its bits and its high half
            # as int64, each taken mod 2**32 by shifts and a subtraction (a
            # uint32 cast loads one more numpy loop, 64 KiB of resident memory)
            halves = np.empty((*words.shape, 2), dtype=np.int64)
            halves[..., 0] = words.view(np.int64)
            np.right_shift(halves[..., 0], 32, out=halves[..., 1])
            halves -= (halves >> 32) << 32
            m = halves.reshape(len(self._block), -1)[:, :size]
            m *= span
            np.right_shift(m, 32, out=out)
            m -= out << 32  # the low 32 bits
            redraw = np.flatnonzero((m < 2**32 % span).any(axis=1))
            out += lo
        for i in redraw:
            out[i] = self._at(self._block[i]).integers(lo, hi + 1, size=size)
        return out


def _dwell_ends(model: JointModel, x, target) -> np.ndarray:
    """The first dwell level j >= 1 with S_x(j) < target, one per status x.

    A dwell from level s ends at the first j with S_x(j) < (1-u) S_x(s), u
    uniform: P[it passes level s + k] = S_x(s + k) / S_x(s), an inverse-CDF
    draw, and every j <= s fails the test.  Past the prefix S is geometric,
    S_x(m + i) = S_x(m) (1 - tail[x])^i, so where target <= S_x(m), j is
    m + 1 plus one ``geometric_tail`` draw on the survival left at m,
    target / S_x(m).  Elsewhere j <= m is 1 plus the number of levels
    1..m with S_x(j) >= target: one ``searchsorted`` on -S_x(1..m) per
    status present, exact because it only compares.
    """
    from .markov import geometric_tail  # a stationary model's layer, loaded with the model

    m = model.dwell.prefix_len
    at_m = model.survival[:, m].take(x)
    inside = target > at_m
    j = np.empty(x.shape, dtype=np.int64)
    xs, targets = x[inside], target[inside]
    ends = np.empty(len(xs), dtype=np.int64)
    for s in np.flatnonzero(np.bincount(xs)):
        here = xs == s
        ends[here] = np.searchsorted(-model.survival[s, 1:], -targets[here], side="right")
    j[inside] = 1 + ends
    # the tail is drawn only for the dwells that pass the prefix; a start the
    # chain cannot reach leaves target = 0 = S_x(m), and the draw gives 0
    outside = ~inside
    with np.errstate(invalid="ignore"):
        left = target[outside] / at_m[outside]
    j[outside] = m + 1 + geometric_tail(np.fmax(1.0 - left, 0.0), model.dwell.tail, x[outside])
    return j


def sample_block(model: JointModel, x0, t0, uniforms: np.ndarray) -> np.ndarray:
    """The (paths, changes) int64 change slots (T_n = 0) of a block of paths
    of the joint chain, sampled as a renewal process: ``_change_chunks``'s
    slots, one row per path, increasing; a slot past the horizon is no change.

    Path k starts at (x0[k], t0[k]) and reads only ``uniforms[k]``, shape
    (horizon, 2): its c-th dwell (the slots up to its c-th change; the first
    continues the start's dwell, from level s = min(t0, m)) from
    ``uniforms[k, c, 0]``, and the status its c-th change jumps to from
    ``uniforms[k, c, 1]``.  Every dwell is at least one slot, so that is
    enough for every change in [1, horizon].  From a start the chain cannot
    reach (S_x(s) = 0), the first change comes at dwell level m + 1.
    """
    slots = np.concatenate([chunk for chunk, _ in _change_chunks(model, x0, t0, uniforms)])
    return np.ascontiguousarray(slots.T)  # a row per path, which gathers faster


def _change_chunks(model: JointModel, x0, t0, uniforms: np.ndarray):
    """``sample_block``'s changes, ``CHUNK_CHANGES`` at a time.

    Yields ``(slots, statuses)`` shaped (changes, paths): each path's change
    slots, increasing, and its status after each.  A chunk's statuses come
    from a loop of one count per change for the whole block, its dwells
    from one draw at once.  It stops once every path has passed the
    horizon; a slot past the horizon stands for no change up to it.
    """
    paths, horizon = uniforms.shape[:2]
    m = model.dwell.prefix_len
    cdf = np.cumsum(model.change.rows, axis=1)
    # Dividing by the row total ends every CDF at exactly 1.0, above any
    # uniform, so a zero-probability entry keeps zero width even at the top of
    # its row.  Counting only the first n-1 bounds clamps targets to n-1.
    bounds = (cdf / cdf[:, -1:])[:, :-1]
    x = np.array(x0, dtype=np.intp)
    start = np.minimum(t0, m)
    target = (1.0 - uniforms[:, 0, 0]) * model.survival[x, start]
    first = _dwell_ends(model, x, target) - start
    last = np.zeros(paths, dtype=np.int64)
    for lo in range(0, horizon, CHUNK_CHANGES):
        u = uniforms[:, lo:lo + CHUNK_CHANGES].T  # (2, changes, paths), a view
        # the status before each change, then the last's
        statuses = np.empty((u.shape[1] + 1, paths), dtype=np.intp)
        statuses[0] = x
        # a jump from x on uniform v goes to #{j : bounds[x, j] <= v}; the
        # uniforms are copied to a contiguous column, which compares faster
        for c, v in enumerate(np.ascontiguousarray(u[1])[:, :, None]):
            np.add.reduce(bounds.take(statuses[c], axis=0) <= v, axis=1, out=statuses[c + 1])
        x = statuses[-1]
        dwells = _dwell_ends(model, statuses[:-1], np.subtract(1.0, u[0], order="C"))
        if lo == 0:
            dwells[0] = first
        # capped at T + 1, a dwell still passes the horizon, and sums stay small
        np.minimum(dwells, horizon + 1, out=dwells)
        dwells[0] += last
        slots = np.cumsum(dwells, axis=0)
        last = slots[-1]
        yield slots, statuses[1:]
        if (last >= horizon).all():
            return


def run_ensemble(config) -> list[EnsembleStats]:
    """Simulate the run ``config`` (a ``config.RunConfig``, not imported here:
    ``import gaoi`` loads no config reader): ``num_paths`` independent source
    paths under every policy, aggregated into one ``EnsembleStats`` per
    policy, in ``config.policies`` order.

    Every policy sees the same source paths, sampled once from streams no
    policy reads, so a policy's result does not depend on the others run.
    A stationary model's law and entropy rate are the model's own
    (``JointModel.law`` and ``.rate``, computed once per model).  Every path
    runs in the calling thread, and the output depends only on the config.
    """
    model, horizon = config.model, config.horizon
    bayes_mod = None
    if config.is_bayesian:
        from . import bayes as bayes_mod  # loaded only for a Bayesian model
    policy_streams = StreamFamily(config.base_seed, POLICY_SALT)
    paths = StreamFamily(config.base_seed, PATH_SALT)
    inits = StreamFamily(config.base_seed, INIT_SALT)
    # a fixed policy (no random delay) is realised once, as one row that
    # stands for every path
    fixed = [_realise(model, generate_schedules(policy, horizon, [None]), bayes_mod)
             if policy.is_fixed else None for policy in config.policies]
    values = [{name: np.empty(config.num_paths) for name in METRICS} for _ in config.policies]
    aoi_accs = [np.zeros(horizon) for _ in config.policies]
    gaoi_accs = [np.zeros(horizon) for _ in config.policies]
    for lo in range(0, config.num_paths, BLOCK_PATHS):
        block = range(lo, min(lo + BLOCK_PATHS, config.num_paths))
        part = slice(block.start, block.stop)
        # each path's change slots from its own streams (a Bayesian path's one: theta)
        if bayes_mod:
            slots = np.fromiter((paths.at(k).geometric(model.p) for k in block),
                                dtype=np.int64, count=len(block))[:, None]
        else:
            uniforms = np.empty((len(block), horizon, 2))
            for i, k in enumerate(block):
                paths.at(k).random(out=uniforms[i])
            x0, t0 = model.law.sample(np.array([inits.at(k).random(2) for k in block]))
            slots = sample_block(model, x0, t0, uniforms)
            del uniforms  # block-sized arrays are freed as soon as they are used
        changed = slots <= horizon
        num_changes = changed.sum(axis=1)
        np.minimum(slots, horizon, out=slots)  # past T: read at column T, never summed
        for policy, shared, vals, aoi_acc, gaoi_acc in zip(config.policies, fixed, values,
                                                            aoi_accs, gaoi_accs):
            vals["num_changes"][part] = num_changes
            # a random policy's rows from each path's own policy stream
            aoi_total, cum_aoi, detection, cum_gaoi, series = shared or _realise(
                model, generate_schedules(policy, horizon, PathStreams(policy_streams, block)),
                bayes_mod)
            copies = len(block) if shared else 1  # how many paths each row stands for
            aoi_acc += copies * aoi_total  # integers: exact in any order
            vals["cum_aoi"][part] = cum_aoi
            if bayes_mod:
                vals["cum_gaoi"][part] = cum_gaoi
                if shared:
                    series = series.repeat(copies, axis=0)
                # the running total folded into row 0, then summed down the paths
                # in place: the same additions, in path order, as one row at a time
                series[0] += gaoi_acc
                np.cumsum(series, axis=0, out=series)
                gaoi_acc[:] = series[-1]
            delays = np.take_along_axis(detection, slots, axis=1)
            delays -= slots
            vals["cum_delay"][part] = delays.sum(axis=1, where=changed)
            del detection, series, delays  # before the next policy's are built
        del slots, changed  # before the next block's uniforms are drawn
    if not bayes_mod:
        for vals in values:
            vals["cum_gaoi"] = model.rate * vals["cum_aoi"]
        gaoi_accs = [model.rate * aoi_acc for aoi_acc in aoi_accs]
    return [_aggregate(*run) for run in zip(values, aoi_accs, gaoi_accs)]


def _realise(model, schedules, bayes_mod) -> tuple:
    """What the ensemble reads off a block of schedules, one row per path: the
    block's total AoI series, each row's cumulative AoI, its detection slots,
    and for a Bayesian model (``bayes_mod`` is ``gaoi.bayes``, else None) its
    expected cumulative GAoI and per-slot GAoI series.

    The path realization drives the delay only; a Bayesian staleness is an
    expectation over paths, evaluated analytically per schedule.
    """
    ages = aoi_block(schedules)
    totals = ages.sum(axis=0), ages.sum(axis=1)
    staleness = None, None
    if bayes_mod:
        staleness = (bayes_mod.bayes_cumulative_gaoi(model, schedules),
                     bayes_mod.bayes_gaoi_series(model, ages))
    del ages  # before the detection slots are built
    return (*totals, detection_block(schedules), *staleness)


def _aggregate(values: dict[str, np.ndarray], aoi_acc: np.ndarray,
               gaoi_acc: np.ndarray) -> EnsembleStats:
    n = len(values["cum_aoi"])
    return EnsembleStats(
        num_paths=n,
        horizon=len(aoi_acc),
        mean={name: float(v.mean()) for name, v in values.items()},
        se={name: float(v.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
            for name, v in values.items()},
        values=values,
        mean_aoi_series=aoi_acc / n,
        mean_gaoi_series=gaoi_acc / n,
    )
