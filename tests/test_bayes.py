from bisect import bisect_left
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaoi import (
    BayesModel,
    bayes_constant_c,
    bayes_cumulative_gaoi,
    bayes_expected_delay,
    bayes_gaoi,
    filter_stale,
    h_closed,
    random_schedule,
)
from gaoi.oracle import exact_bayes_delay, exact_bayes_gaoi

from reference import rows


class TestHClosed:
    def test_one_slot_window_is_binary_entropy(self):
        assert h_closed(BayesModel(0.5), 1) == pytest.approx(1.0, abs=1e-12)

    def test_two_slot_window(self):
        # entropy of the truncated-geometric distribution {0.5, 0.25, 0.25}
        assert h_closed(BayesModel(0.5), 2) == pytest.approx(1.5, abs=1e-12)

    def test_empty_window(self):
        for p in (0.04, 0.3, 0.7):
            assert h_closed(BayesModel(p), 0) == 0.0

    @given(st.floats(0.01, 0.99), st.integers(0, 10_000))
    @settings(max_examples=200)
    def test_recursion(self, p, x):
        model = BayesModel(p)
        lhs = h_closed(model, x + 1) - h_closed(model, x)
        assert lhs == pytest.approx((1.0 - p) ** x * model.h1, abs=1e-12)

    @pytest.mark.parametrize("p", [0.04, 0.5, 0.95, 1e-6])
    def test_array_matches_scalar_bit_for_bit(self, p):
        model = BayesModel(p)
        x = np.array([0, 1, 2, 7, 3, 1000, 0, 99])
        assert np.array_equal(h_closed(model, x), [h_closed(model, int(v)) for v in x])
        assert h_closed(model, np.zeros(0, dtype=np.int64)).shape == (0,)

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            h_closed(BayesModel(0.3), -1)
        with pytest.raises(ValueError):
            h_closed(BayesModel(0.3), np.array([2, -1]))


class TestBayesGaoi:
    def test_pre_change_state_uses_window_entropy(self):
        assert bayes_gaoi(BayesModel(0.5), 2, 0) == pytest.approx(1.5, abs=1e-9)

    def test_absorbing_state_no_uncertainty(self):
        for p in (0.04, 0.5, 0.9):
            for age in (0, 1, 7, 100):
                assert bayes_gaoi(BayesModel(p), age, 1) == 0.0

    def test_small_hazard_closed_form(self):
        # cross-checked against path enumeration below
        p = 0.04
        expected = (1 - 0.96**5) / 0.04 * BayesModel(p).h1
        assert bayes_gaoi(BayesModel(p), 5, 0) == pytest.approx(expected, abs=1e-12)
        assert exact_bayes_gaoi(BayesModel(p), 5) == pytest.approx(expected, abs=1e-12)

    @given(st.floats(0.01, 0.99), st.integers(0, 200))
    @settings(max_examples=200)
    def test_monotone_in_age_and_bounded(self, p, age):
        model = BayesModel(p)
        v0 = bayes_gaoi(model, age, 0)
        v1 = bayes_gaoi(model, age + 1, 0)
        assert v0 <= v1 + 1e-15
        assert v1 <= model.h1 / p + 1e-12


class TestCumulativeGaoi:
    def test_no_deliveries_small_horizon(self):
        # direct sum: ages 1 and 2 from the time-0 cap
        model = BayesModel(0.5)
        sched = filter_stale([], horizon=2)
        direct = bayes_gaoi(model, 1, 0) + bayes_gaoi(model, 2, 0)
        assert bayes_cumulative_gaoi(model, sched)[0] == pytest.approx(direct, abs=1e-12)
        assert direct == pytest.approx(2.5, abs=1e-12)

    def test_empty_horizon(self):
        sched = filter_stale([], horizon=0)
        assert bayes_cumulative_gaoi(BayesModel(0.3), sched)[0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_per_slot_summation(self, rng):
        # oracle: sum bayes_gaoi(n - delta(n)) weighted by P[pre-change at delta(n)]
        # slot n belongs to (d_i, d_{i+1}]: a delivery informs the monitor
        # from the following slot onward in this accounting
        model = BayesModel(0.04)
        block = random_schedule(100, rng, 20)
        staleness = bayes_cumulative_gaoi(model, block)
        for k, pairs in enumerate(rows(block)):
            total = 0.0
            for n in range(1, 101):
                delta = max(s for s, d in [(0, 0), *pairs] if d < n)
                total += bayes_gaoi(model, n - delta, 0) * (1 - model.p) ** delta
            assert staleness[k] == pytest.approx(total, abs=1e-9)


class TestExpectedDelay:
    def test_two_slot_no_deliveries(self):
        sched = filter_stale([], horizon=2)
        assert bayes_expected_delay(BayesModel(0.5), sched)[0] == pytest.approx(0.5, abs=1e-12)

    def test_sample_every_slot_instant_delivery(self):
        t = 30
        sched = filter_stale([(s, s) for s in range(1, t)], horizon=t)
        assert bayes_expected_delay(BayesModel(0.3), sched)[0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_enumeration(self, rng):
        model = BayesModel(0.04)
        block = random_schedule(100, rng, 50)
        assert bayes_expected_delay(model, block) == pytest.approx(
            exact_bayes_delay(model, block), abs=1e-12
        )


def _decimal_gaoi_and_delay(model: BayesModel, pairs: list, t: int) -> tuple[Decimal, Decimal]:
    """Cumulative staleness over [1, T] slot by slot, and the expected delay
    by enumerating every change time, in the current decimal context."""
    p = Decimal(model.p)
    q = 1 - p
    h1 = Decimal(float(model.h1))
    capped = [(0, 0), *pairs]
    gaoi = Decimal(0)
    for n in range(1, t + 1):
        held = max(s for s, d in capped if d < n)
        gaoi += h1 * (1 - q ** (n - held)) / p * q**held
    samples = [s for s, _ in pairs] + [t]
    deliveries = [d for _, d in pairs] + [t]
    delay = sum((p * q ** (theta - 1) * (deliveries[bisect_left(samples, theta)] - theta)
                 for theta in range(1, t + 1)), Decimal(0))
    return gaoi, delay


class TestAffineLaw:
    def test_worked_example(self):
        model = BayesModel(0.5)
        assert bayes_constant_c(model, 2) == pytest.approx(1.5, abs=1e-12)
        assert bayes_constant_c(model, 0) == 0.0

    def test_schedule_independence(self, rng):
        model = BayesModel(0.04)
        c100 = bayes_constant_c(model, 100)
        scale = model.h1 / model.p
        block = random_schedule(100, rng, 100)
        residual = bayes_cumulative_gaoi(model, block) - scale * bayes_expected_delay(model, block)
        assert residual == pytest.approx(np.full(100, c100), abs=1e-9)

    @given(st.floats(0.02, 0.98), st.integers(0, 60), st.data())
    @settings(max_examples=150, deadline=None)
    def test_affine_identity_property(self, p, horizon, data):
        model = BayesModel(p)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        sched = random_schedule(horizon, rng, 1)
        lhs = bayes_cumulative_gaoi(model, sched) - model.h1 / p * bayes_expected_delay(model, sched)
        assert lhs[0] == pytest.approx(bayes_constant_c(model, horizon), abs=1e-9)

    @given(st.floats(0.02, 0.98), st.integers(0, 5000))
    @settings(max_examples=200)
    def test_constant_is_window_entropy(self, p, t):
        model = BayesModel(p)
        assert abs(bayes_constant_c(model, t) - h_closed(model, t)) <= 1e-12

    @pytest.mark.parametrize("p", [1e-8, 1e-6, 1e-4, 1e-3, 0.04, 0.5, 0.95])
    @pytest.mark.parametrize("t", [0, 1, 2, 50, 100, 400, 1000])
    def test_constant_small_hazard_against_decimal(self, p, t):
        # h1 is taken from the model: this checks the window factor
        # (1 - (1-p)^x) / p, which cancels at small p x when taken literally,
        # and the closed forms that sum it over a schedule
        model = BayesModel(p)
        rng = np.random.default_rng(t)
        blocks = [random_schedule(t, rng, 5), filter_stale([], horizon=t),
                  filter_stale([(s, s + 2) for s in range(5, t, 5)], horizon=t)]
        pairs = [row for block in blocks for row in rows(block)]
        got = [(gaoi, delay) for block in blocks for gaoi, delay in
               zip(bayes_cumulative_gaoi(model, block), bayes_expected_delay(model, block))]
        with localcontext() as ctx:
            ctx.prec = 60
            dp = Decimal(p)
            h = [Decimal(float(model.h1)) * (1 - (1 - dp) ** x) / dp for x in range(t + 1)]
            exact = [_decimal_gaoi_and_delay(model, row, t) for row in pairs]

            def close(value, want):
                return abs(Decimal(float(value)) - want) <= Decimal(1e-14) * want

            assert close(bayes_constant_c(model, t), h[t])
            assert close(h_closed(model, t), h[t])
            assert all(map(close, h_closed(model, np.arange(t + 1)), h))
            for (gaoi, delay), (gaoi_exact, delay_exact) in zip(got, exact):
                assert close(gaoi, gaoi_exact)
                assert close(delay, delay_exact)
