import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaoi import (
    closed_form_aoi,
    cumulative_aoi,
    delay_double_sum,
    filter_stale,
    random_schedule,
)
from gaoi.schedule import aoi_block, detection_block

from reference import reference_delay_double_sum, rows

H_06 = 0.9709505944546686


@st.composite
def schedules(draw, max_horizon=200):
    horizon = draw(st.integers(2, max_horizon))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(1, horizon - 1), st.integers(0, 40)).map(
                lambda sd: (sd[0], sd[0] + sd[1])
            ),
            max_size=15,
        )
    )
    return filter_stale(pairs, horizon)


def detection_delays(sched, change_slots):
    """(change slot, delay) for each change, read off ``detection_block``."""
    detect = detection_block(sched)[0]
    return [(n, int(detect[n]) - n) for n in sorted(change_slots)]


class TestCumulativeAoi:
    def test_single_update(self):
        sched = filter_stale([(3, 5)], horizon=10)
        assert cumulative_aoi(sched).tolist() == [30]
        assert closed_form_aoi(sched).tolist() == [30]

    def test_no_updates_triangular(self):
        for t in (1, 2, 10, 57):
            sched = filter_stale([], horizon=t)
            assert cumulative_aoi(sched).tolist() == [t * (t - 1) // 2]

    def test_instant_periodic(self):
        n, periods = 5, 4
        t = n * periods
        sched = filter_stale([(s, s) for s in range(n, t, n)], horizon=t)
        assert cumulative_aoi(sched).tolist() == [periods * n * (n - 1) // 2]

    @given(schedules())
    @settings(max_examples=300, deadline=None)
    def test_closed_form_matches_summation_exactly(self, sched):
        assert cumulative_aoi(sched).tolist() == closed_form_aoi(sched).tolist()

    @given(schedules())
    @settings(max_examples=300, deadline=None)
    def test_double_sum_matches_closed_form_exactly(self, sched):
        closed = closed_form_aoi(sched).tolist()
        assert delay_double_sum(sched).tolist() == closed
        assert [reference_delay_double_sum(rows(sched)[0], sched.horizon)] == closed

    def test_rows_are_independent(self, rng):
        # a block's rows give what each row gives alone, padding included
        block = random_schedule(150, rng, 40)
        for f in (cumulative_aoi, closed_form_aoi, delay_double_sum):
            alone = [f(filter_stale(pairs, 150))[0] for pairs in rows(block)]
            assert f(block).tolist() == alone

    @given(schedules(), st.integers(1, 199), st.integers(0, 40))
    @settings(max_examples=200, deadline=None)
    def test_adding_update_never_increases_aoi(self, sched, s, delay):
        if s >= sched.horizon:
            s = sched.horizon - 1
        d = min(s + delay, sched.horizon)
        extended = filter_stale(rows(sched)[0] + [(s, d)], sched.horizon)
        assert cumulative_aoi(extended)[0] <= cumulative_aoi(sched)[0]

    def test_wide_integers_large_horizon(self):
        t = 10**6
        sched = filter_stale([], horizon=t)
        assert closed_form_aoi(sched).tolist() == [t * (t - 1) // 2]


class TestDetectionDelays:
    def test_change_after_last_sample_capped(self):
        sched = filter_stale([(3, 5)], horizon=10)
        assert detection_delays(sched, {4}) == [(4, 6)]

    def test_change_before_sample(self):
        sched = filter_stale([(3, 5)], horizon=10)
        assert detection_delays(sched, {2}) == [(2, 3)]

    def test_change_at_sampling_slot_instant_delivery(self):
        sched = filter_stale([(3, 3)], horizon=10)
        assert detection_delays(sched, {3}) == [(3, 0)]

    def test_multiple_changes_detected_at_same_delivery(self):
        sched = filter_stale([(10, 12)], horizon=20)
        assert detection_delays(sched, {2, 5, 7}) == [(2, 10), (5, 7), (7, 5)]


class TestExpectedDelayStationary:
    """With a change in each slot with probability p, the expected total
    detection delay is p times the closed-form cumulative AoI."""

    def test_p_one_equals_double_sum(self):
        sched = filter_stale([(3, 5)], horizon=10)
        assert 1.0 * closed_form_aoi(sched)[0] == delay_double_sum(sched)[0] == 30

    @given(schedules(), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_proportional_to_closed_form(self, sched, p):
        # p times the delay of a change in every slot, as the ensemble reads it
        every_slot = detection_delays(sched, range(1, sched.horizon + 1))
        assert p * sum(d for _, d in every_slot) == pytest.approx(
            p * closed_form_aoi(sched)[0], rel=1e-12
        )


class TestGaoiStationary:
    def test_zero_rate_all_zero(self, rng):
        sched = random_schedule(50, rng, 1)
        assert not (aoi_block(sched) * 0.0).any()

    def test_cumulative_scaling(self):
        sched = filter_stale([(3, 5)], horizon=10)
        assert H_06 * cumulative_aoi(sched)[0] == pytest.approx(30 * H_06, abs=1e-9)
        assert (aoi_block(sched) * H_06).sum() == pytest.approx(30 * H_06, abs=1e-9)

