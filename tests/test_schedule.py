import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaoi import (
    BayesModel,
    DelayLaw,
    PolicySpec,
    ScheduleError,
    UpdateSchedule,
    aoi_series,
    filter_stale,
    generate_schedule,
    random_schedule,
)
from gaoi.bayes import cumulative_gaoi_block
from gaoi.schedule import aoi_block, detection_block, generate_schedules

from reference import (
    reference_cumulative_gaoi,
    reference_generate_schedule,
    reference_random_schedule,
)


def raw_pairs(horizon=60):
    return st.lists(
        st.tuples(st.integers(1, horizon - 1), st.integers(0, 30)).map(
            lambda sd: (sd[0], sd[0] + sd[1])
        ),
        max_size=12,
    )


class TestUpdateSchedule:
    def test_valid_schedule(self):
        s = UpdateSchedule(horizon=10, samples=(3,), deliveries=(5,))
        assert s.num_updates == 1
        assert s.capped_samples() == (0, 3, 10)
        assert s.capped_deliveries() == (0, 5, 10)

    def test_sample_after_delivery_rejected(self):
        with pytest.raises(ScheduleError):
            UpdateSchedule(horizon=10, samples=(6,), deliveries=(5,))

    def test_non_monotone_rejected(self):
        with pytest.raises(ScheduleError):
            UpdateSchedule(horizon=10, samples=(3, 3), deliveries=(4, 5))
        with pytest.raises(ScheduleError):
            UpdateSchedule(horizon=10, samples=(3, 4), deliveries=(6, 6))

    def test_outside_horizon_rejected(self):
        with pytest.raises(ScheduleError):
            UpdateSchedule(horizon=10, samples=(10,), deliveries=(10,))
        with pytest.raises(ScheduleError):
            UpdateSchedule(horizon=10, samples=(5,), deliveries=(11,))


class TestFilterStale:
    def test_stale_on_arrival_dropped(self):
        sched = filter_stale([(3, 10), (5, 8)], horizon=20)
        assert sched.samples == (5,)
        assert sched.deliveries == (8,)

    def test_monotone_unchanged(self):
        sched = filter_stale([(2, 4), (5, 7)], horizon=20)
        assert sched.samples == (2, 5)
        assert sched.deliveries == (4, 7)

    def test_duplicate_samples_keep_earlier_delivery(self):
        sched = filter_stale([(3, 10), (3, 8)], horizon=20)
        assert sched.samples == (3,)
        assert sched.deliveries == (8,)

    def test_equal_delivery_keeps_freshest_sample(self):
        sched = filter_stale([(3, 8), (5, 8)], horizon=20)
        assert sched.samples == (5,)
        assert sched.deliveries == (8,)

    @given(raw_pairs())
    @settings(max_examples=200)
    def test_idempotent(self, pairs):
        once = filter_stale(pairs, horizon=60)
        twice = filter_stale(list(zip(once.samples, once.deliveries)), horizon=60)
        assert once == twice

    @given(raw_pairs())
    @settings(max_examples=200)
    def test_output_jointly_increasing(self, pairs):
        sched = filter_stale(pairs, horizon=60)
        assert list(sched.samples) == sorted(set(sched.samples))
        assert list(sched.deliveries) == sorted(set(sched.deliveries))


class TestGenerateSchedule:
    def test_periodic_instant_delivery(self, rng):
        policy = PolicySpec(kind="periodic", period=50, delay=DelayLaw.deterministic(0))
        sched = generate_schedule(policy, 200, rng)
        assert sched.samples == (50, 100, 150)
        assert sched.deliveries == (50, 100, 150)

    def test_explicit_monotone_unchanged(self, rng):
        policy = PolicySpec(kind="explicit", pairs=((2, 4), (5, 7)))
        sched = generate_schedule(policy, 20, rng)
        assert sched.samples == (2, 5)
        assert sched.deliveries == (4, 7)

    def test_greedy_constant_delay_unrolls(self, rng):
        # s_{i+1} = d_i with constant delay c; the time-0 pair is filtered out
        c = 7
        policy = PolicySpec(kind="greedy", delay=DelayLaw.deterministic(c))
        sched = generate_schedule(policy, 100, rng)
        expected = tuple(s for s in range(c, 100, c) if s + c <= 100)
        assert sched.samples == expected
        assert all(d == s + c for s, d in zip(sched.samples, sched.deliveries))

    def test_greedy_zero_delay_samples_every_slot(self, rng):
        policy = PolicySpec(kind="greedy", delay=DelayLaw.deterministic(0))
        sched = generate_schedule(policy, 10, rng)
        assert sched.samples == tuple(range(1, 10))
        assert sched.deliveries == sched.samples

    def test_deterministic_given_seed(self):
        policy = PolicySpec(kind="greedy", delay=DelayLaw.uniform(2, 8))
        a = generate_schedule(policy, 100, np.random.default_rng(5))
        b = generate_schedule(policy, 100, np.random.default_rng(5))
        assert a == b

    def test_uniform_delay_is_integer_in_range(self, rng):
        law = DelayLaw.uniform(20, 80)
        draws = law.draw_rows([rng], 500, cap=100)
        assert draws.shape == (1, 500) and draws.dtype == np.int64
        assert draws.min() == 20 and draws.max() == 80


class TestAoiSeries:
    def test_single_update(self):
        sched = UpdateSchedule(horizon=10, samples=(3,), deliveries=(5,))
        assert aoi_series(sched).tolist() == [0, 1, 2, 3, 4, 2, 3, 4, 5, 6]

    def test_no_updates(self):
        sched = UpdateSchedule(horizon=4, samples=(), deliveries=())
        assert aoi_series(sched).tolist() == [0, 1, 2, 3]

    def test_instant_periodic_sawtooth(self, rng):
        policy = PolicySpec(kind="periodic", period=5, delay=DelayLaw.deterministic(0))
        sched = generate_schedule(policy, 20, rng)
        assert aoi_series(sched).tolist() == [0, 1, 2, 3, 4] * 4

    def test_age_resets_at_delivery(self, rng):
        for _ in range(20):
            sched = random_schedule(100, rng)
            ages = aoi_series(sched)
            d_cap = sched.capped_deliveries()
            s_cap = sched.capped_samples()
            for j in range(1, sched.num_updates + 1):
                if d_cap[j] < 100:
                    assert ages[d_cap[j]] == d_cap[j] - s_cap[j]


class TestRandomSchedule:
    def test_matches_unique_reference(self):
        # the same draws in the same order, so the same schedule and the same
        # generator state afterwards, on horizons down to the empty schedule
        for seed in range(200):
            horizon = (1, 2, 3, 10, 100, 5000)[seed % 6]
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            assert random_schedule(horizon, a) == reference_random_schedule(horizon, b)
            assert a.bit_generator.state == b.bit_generator.state


@st.composite
def valid_schedules(draw, max_horizon=40):
    """Stale-filtered schedules; deliveries clipped to the horizon, so a
    delivery at exactly T and a zero delay (s = d) are both common."""
    horizon = draw(st.integers(1, max_horizon))
    if horizon < 2:
        return UpdateSchedule(horizon=horizon, samples=(), deliveries=())
    pairs = draw(st.lists(
        st.tuples(st.integers(1, horizon - 1), st.integers(0, horizon)).map(
            lambda sd: (sd[0], min(sd[0] + sd[1], horizon))),
        max_size=12,
    ))
    return filter_stale(pairs, horizon)


class TestAoiSeriesDefinition:
    @given(valid_schedules())
    @example(UpdateSchedule(horizon=1, samples=(), deliveries=()))
    @example(UpdateSchedule(horizon=6, samples=(), deliveries=()))
    @example(UpdateSchedule(horizon=6, samples=(2, 5), deliveries=(4, 6)))
    @example(UpdateSchedule(horizon=6, samples=(1, 3, 5), deliveries=(1, 3, 5)))
    @example(UpdateSchedule(horizon=2, samples=(1,), deliveries=(2,)))
    @settings(max_examples=300, deadline=None)
    def test_matches_slot_by_slot_definition(self, sched):
        # a_n = n - max{s_j : d_j <= n}, with s_0 = d_0 = 0
        pairs = [(0, 0), *zip(sched.samples, sched.deliveries)]
        expected = [n - max(s for s, d in pairs if d <= n) for n in range(sched.horizon)]
        ages = aoi_series(sched)
        assert ages.dtype == np.int64
        assert ages.tolist() == expected


@st.composite
def policies(draw):
    """(policy, horizon): periodic and greedy under deterministic and uniform
    delays (lo = 0 and delays past the horizon included), periods at and past
    the horizon, and explicit pairs in any order, stale or out of range."""
    horizon = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["periodic", "greedy", "explicit"]))
    if kind == "explicit":
        pairs = draw(st.lists(
            st.tuples(st.integers(-2, horizon + 2), st.integers(0, horizon)).map(
                lambda sd: (sd[0], sd[0] + sd[1])),
            max_size=12,
        ))
        return PolicySpec(kind="explicit", pairs=tuple(pairs)), horizon
    lo = draw(st.integers(0, horizon + 3))
    if draw(st.booleans()):
        delay = DelayLaw.deterministic(lo)
    else:
        delay = DelayLaw.uniform(lo, draw(st.integers(lo, lo + horizon + 3)))
    period = draw(st.integers(1, horizon + 3)) if kind == "periodic" else 0
    return PolicySpec(kind=kind, period=period, delay=delay), horizon


class TestGenerateSchedules:
    """Every row of a block equals the one-update-at-a-time loop on the same stream."""

    @given(policies(), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @example((PolicySpec(kind="greedy", delay=DelayLaw.uniform(0, 3)), 1), 3, 0)
    @example((PolicySpec(kind="periodic", period=7, delay=DelayLaw.uniform(0, 9)), 7), 2, 1)
    @example((PolicySpec(kind="periodic", period=2, delay=DelayLaw.uniform(0, 30)), 20), 4, 2)
    @example((PolicySpec(kind="greedy", delay=DelayLaw.uniform(5, 5)), 30), 2, 3)
    @example((PolicySpec(kind="explicit", pairs=((3, 8), (5, 8), (3, 4), (2, 9))), 10), 2, 4)
    @example((PolicySpec(kind="periodic", period=3, delay=DelayLaw.uniform(0, 2**62)), 30), 2, 5)
    @example((PolicySpec(kind="greedy", delay=DelayLaw.uniform(1, 2**62)), 30), 2, 6)
    @example((PolicySpec(kind="greedy", delay=DelayLaw.deterministic(10**30)), 30), 1, 7)
    @example((PolicySpec(kind="periodic", period=10**30), 30), 1, 8)
    # delays near the int64 limit: s + D must not wrap around
    @example((PolicySpec(kind="periodic", period=3,
                         delay=DelayLaw.uniform(2**63 - 10, 2**63 - 2)), 30), 2, 9)
    # delays 3, 2, 2, 3, 0: a delivery at T, then a drawn pair sampled and
    # delivered at T, which lies outside the horizon and must not make it stale
    @example((PolicySpec(kind="greedy", delay=DelayLaw.uniform(0, 3)), 10), 1, 15)
    @settings(max_examples=400, deadline=None)
    def test_rows_match_reference_loop(self, case, paths, seed):
        policy, horizon = case
        block = generate_schedules(
            policy, horizon, [np.random.default_rng([seed, k]) for k in range(paths)])
        assert block.num_paths == paths and block.samples.shape == block.deliveries.shape
        assert block.samples.shape[1] == block.counts.max(initial=0)
        ages, detect = aoi_block(block), detection_block(block)
        staleness = cumulative_gaoi_block(BayesModel(0.3), block)
        for k in range(paths):
            ref = reference_generate_schedule(policy, horizon, np.random.default_rng([seed, k]))
            assert block.schedule(k) == ref
            assert (block.samples[k, ref.num_updates:] == horizon).all()
            assert (block.deliveries[k, ref.num_updates:] == horizon).all()
            pairs = [(0, 0), *zip(ref.samples, ref.deliveries)]
            assert ages[k].tolist() == [n - max(s for s, d in pairs if d <= n)
                                        for n in range(horizon)]
            assert detect[k].tolist() == [ref.delivery_for_change(n) for n in range(horizon + 1)]
            assert staleness[k] == reference_cumulative_gaoi(BayesModel(0.3), ref)

    def test_fixed_policy_draws_nothing(self):
        fixed = PolicySpec(kind="greedy", delay=DelayLaw.uniform(4, 4))
        assert fixed.is_fixed
        assert not PolicySpec(kind="greedy", delay=DelayLaw.uniform(2, 8)).is_fixed
        block = generate_schedules(fixed, 50, [None, None])
        assert block.schedule(0) == block.schedule(1)
        # the sample at 48 would be delivered at 52, past the horizon
        assert block.schedule(0).samples == tuple(range(4, 47, 4))
