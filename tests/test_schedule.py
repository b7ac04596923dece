import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaoi import (
    BayesModel,
    DelayLaw,
    PolicySpec,
    ScheduleError,
    bayes_cumulative_gaoi,
    bayes_expected_delay,
    filter_stale,
    generate_schedules,
    random_schedule,
)
from gaoi.schedule import aoi_block, detection_block

from reference import (
    reference_cumulative_gaoi,
    reference_detection,
    reference_expected_delay,
    reference_filter_stale,
    reference_generate_schedule,
    reference_random_schedule,
    rows,
)


def raw_pairs(horizon=60):
    return st.lists(
        st.tuples(st.integers(1, horizon - 1), st.integers(0, 30)).map(
            lambda sd: (sd[0], sd[0] + sd[1])
        ),
        max_size=12,
    )


@st.composite
def unordered_pairs(draw):
    """(pairs, horizon): pairs in any order, with repeated sampling times,
    equal deliveries, s <= 0, s >= T and d > T all common."""
    horizon = draw(st.integers(1, 30))
    pairs = draw(st.lists(
        st.tuples(st.integers(-3, horizon + 3), st.integers(0, horizon + 3)).map(
            lambda sd: (sd[0], sd[0] + sd[1])),
        max_size=16,
    ))
    return pairs, horizon


class TestFilterStale:
    def test_stale_on_arrival_dropped(self):
        sched = filter_stale([(3, 10), (5, 8)], horizon=20)
        assert sched.samples.tolist() == [[5]]
        assert sched.deliveries.tolist() == [[8]]

    def test_monotone_unchanged(self):
        sched = filter_stale([(2, 4), (5, 7)], horizon=20)
        assert sched.samples.tolist() == [[2, 5]]
        assert sched.deliveries.tolist() == [[4, 7]]

    def test_duplicate_samples_keep_earlier_delivery(self):
        sched = filter_stale([(3, 10), (3, 8)], horizon=20)
        assert sched.samples.tolist() == [[3]]
        assert sched.deliveries.tolist() == [[8]]

    def test_equal_delivery_keeps_freshest_sample(self):
        sched = filter_stale([(3, 8), (5, 8)], horizon=20)
        assert sched.samples.tolist() == [[5]]
        assert sched.deliveries.tolist() == [[8]]

    def test_sample_after_delivery_rejected(self):
        with pytest.raises(ScheduleError):
            filter_stale([(2, 4), (6, 5)], horizon=10)
        with pytest.raises(ScheduleError):
            reference_filter_stale([(2, 4), (6, 5)], horizon=10)

    def test_times_past_int64_outside_horizon(self):
        sched = filter_stale([(3, 5), (4, 2**70), (-(2**70), 6), (2**70, 2**71)], horizon=10)
        assert rows(sched) == [[(3, 5)]]

    @given(unordered_pairs())
    @example(([(3, 8), (5, 8), (3, 4), (2, 9)], 10))
    @example(([(5, 9), (5, 7), (5, 7), (2, 7), (0, 1), (-2, 3), (6, 12), (10, 10)], 10))
    @example(([(4, 6), (1, 6), (4, 5), (4, 6)], 7))
    @example(([], 1))
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_loop(self, case):
        pairs, horizon = case
        sched = filter_stale(pairs, horizon)
        assert sched.num_paths == 1 and sched.samples.shape == sched.deliveries.shape
        assert sched.samples.shape[1] == (sched.samples < horizon).sum()
        assert rows(sched) == [reference_filter_stale(pairs, horizon)]

    @given(raw_pairs())
    @settings(max_examples=200)
    def test_idempotent(self, pairs):
        once = filter_stale(pairs, horizon=60)
        twice = filter_stale(rows(once)[0], horizon=60)
        assert rows(once) == rows(twice)

    @given(raw_pairs())
    @settings(max_examples=200)
    def test_output_jointly_increasing(self, pairs):
        sched = filter_stale(pairs, horizon=60)
        samples, deliveries = sched.samples[0].tolist(), sched.deliveries[0].tolist()
        assert samples == sorted(set(samples))
        assert deliveries == sorted(set(deliveries))


def one_schedule(policy, horizon, rng):
    return generate_schedules(policy, horizon, [rng])


class TestGenerateSchedule:
    def test_periodic_instant_delivery(self, rng):
        policy = PolicySpec(kind="periodic", period=50, delay=DelayLaw.deterministic(0))
        assert rows(one_schedule(policy, 200, rng)) == [[(50, 50), (100, 100), (150, 150)]]

    def test_explicit_monotone_unchanged(self, rng):
        policy = PolicySpec(kind="explicit", pairs=((2, 4), (5, 7)))
        assert rows(one_schedule(policy, 20, rng)) == [[(2, 4), (5, 7)]]

    def test_greedy_constant_delay_unrolls(self, rng):
        # s_{i+1} = d_i with constant delay c; the time-0 pair is filtered out
        c = 7
        policy = PolicySpec(kind="greedy", delay=DelayLaw.deterministic(c))
        expected = [(s, s + c) for s in range(c, 100, c) if s + c <= 100]
        assert rows(one_schedule(policy, 100, rng)) == [expected]

    def test_greedy_zero_delay_samples_every_slot(self, rng):
        policy = PolicySpec(kind="greedy", delay=DelayLaw.deterministic(0))
        assert rows(one_schedule(policy, 10, rng)) == [[(s, s) for s in range(1, 10)]]

    def test_deterministic_given_seed(self):
        policy = PolicySpec(kind="greedy", delay=DelayLaw.uniform(2, 8))
        a = one_schedule(policy, 100, np.random.default_rng(5))
        b = one_schedule(policy, 100, np.random.default_rng(5))
        assert rows(a) == rows(b)

    def test_uniform_delay_is_integer_in_range(self, rng):
        law = DelayLaw.uniform(20, 80)
        draws = law.draw_rows([rng], 500, cap=100)
        assert draws.shape == (1, 500) and draws.dtype == np.int64
        assert draws.min() == 20 and draws.max() == 80

    def test_delay_law_is_its_bounds(self):
        # a law is its bounds alone: lo == hi is the deterministic law
        assert DelayLaw(3, 3) == DelayLaw.deterministic(3)
        assert DelayLaw(2, 5) == DelayLaw.uniform(2, 5)
        assert np.all(DelayLaw(3, 3).draw_rows([None], 4, cap=100) == 3)
        for lo, hi in ((-1, 2), (5, 2)):
            with pytest.raises(ValueError, match="0 <= lo <= hi"):
                DelayLaw(lo, hi)


class TestAoiBlock:
    def test_single_update(self):
        sched = filter_stale([(3, 5)], horizon=10)
        assert aoi_block(sched).tolist() == [[0, 1, 2, 3, 4, 2, 3, 4, 5, 6]]

    def test_no_updates(self):
        assert aoi_block(filter_stale([], horizon=4)).tolist() == [[0, 1, 2, 3]]

    def test_instant_periodic_sawtooth(self, rng):
        policy = PolicySpec(kind="periodic", period=5, delay=DelayLaw.deterministic(0))
        assert aoi_block(one_schedule(policy, 20, rng)).tolist() == [[0, 1, 2, 3, 4] * 4]

    def test_age_resets_at_delivery(self, rng):
        block = random_schedule(100, rng, 20)
        ages = aoi_block(block)
        for k, pairs in enumerate(rows(block)):
            for s, d in pairs:
                if d < 100:
                    assert ages[k, d] == d - s


class TestRandomSchedule:
    def test_matches_unique_reference(self):
        # the same draws in the same order, so the same schedules and the same
        # generator state afterwards, on horizons down to the empty schedule
        for seed in range(200):
            horizon = (1, 2, 3, 10, 100, 5000)[seed % 6]
            count = 1 + seed % 4
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            block = random_schedule(horizon, a, count)
            assert block.num_paths == count
            assert rows(block) == [reference_random_schedule(horizon, b) for _ in range(count)]
            assert a.bit_generator.state == b.bit_generator.state


@st.composite
def valid_schedules(draw, max_horizon=40):
    """Stale-filtered schedules; deliveries clipped to the horizon, so a
    delivery at exactly T and a zero delay (s = d) are both common."""
    horizon = draw(st.integers(1, max_horizon))
    if horizon < 2:
        return filter_stale([], horizon)
    pairs = draw(st.lists(
        st.tuples(st.integers(1, horizon - 1), st.integers(0, horizon)).map(
            lambda sd: (sd[0], min(sd[0] + sd[1], horizon))),
        max_size=12,
    ))
    return filter_stale(pairs, horizon)


class TestAoiBlockDefinition:
    @given(valid_schedules())
    @example(filter_stale([], horizon=1))
    @example(filter_stale([], horizon=6))
    @example(filter_stale([(2, 4), (5, 6)], horizon=6))
    @example(filter_stale([(1, 1), (3, 3), (5, 5)], horizon=6))
    @example(filter_stale([(1, 2)], horizon=2))
    @settings(max_examples=300, deadline=None)
    def test_matches_slot_by_slot_definition(self, sched):
        # a_n = n - max{s_j : d_j <= n}, with s_0 = d_0 = 0
        pairs = [(0, 0), *rows(sched)[0]]
        expected = [n - max(s for s, d in pairs if d <= n) for n in range(sched.horizon)]
        ages = aoi_block(sched)
        assert ages.dtype == np.int64
        assert ages.tolist() == [expected]


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
        assert block.samples.shape[1] == (block.samples < horizon).sum(axis=1).max(initial=0)
        ages, detect = aoi_block(block), detection_block(block)
        staleness = bayes_cumulative_gaoi(BayesModel(0.3), block)
        delay = bayes_expected_delay(BayesModel(0.3), block)
        for k, row in enumerate(rows(block)):
            ref = reference_generate_schedule(policy, horizon, np.random.default_rng([seed, k]))
            assert row == ref
            assert (block.samples[k, len(ref):] == horizon).all()
            assert (block.deliveries[k, len(ref):] == horizon).all()
            pairs = [(0, 0), *ref]
            assert ages[k].tolist() == [n - max(s for s, d in pairs if d <= n)
                                        for n in range(horizon)]
            assert detect[k].tolist() == [reference_detection(ref, horizon, n)
                                          for n in range(horizon + 1)]
            assert staleness[k] == reference_cumulative_gaoi(BayesModel(0.3), ref, horizon)
            assert delay[k] == reference_expected_delay(BayesModel(0.3), ref, horizon)

    def test_fixed_policy_draws_nothing(self):
        fixed = PolicySpec(kind="greedy", delay=DelayLaw.uniform(4, 4))
        assert fixed.is_fixed
        assert not PolicySpec(kind="greedy", delay=DelayLaw.uniform(2, 8)).is_fixed
        block = generate_schedules(fixed, 50, [None, None])
        # the sample at 48 would be delivered at 52, past the horizon
        assert rows(block) == [[(s, s + 4) for s in range(4, 47, 4)]] * 2
