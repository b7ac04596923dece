import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaoi import (
    DelayLaw,
    PolicySpec,
    ScheduleError,
    UpdateSchedule,
    aoi_series,
    filter_stale,
    generate_schedule,
    random_schedule,
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
        draws = [law.draw(rng) for _ in range(500)]
        assert all(isinstance(d, int) and 20 <= d <= 80 for d in draws)
        assert min(draws) == 20 and max(draws) == 80


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
