import numpy as np
import pytest

from gaoi import (
    BayesModel,
    ChangeKernel,
    DwellKernel,
    JointState,
    UpdateSchedule,
    bayes_expected_delay,
    discrete_entropy,
    entropy_rate,
    h_closed,
    random_schedule,
    stationary_distribution,
    validate_model,
)
from gaoi.oracle import (
    EnumerationBudgetError,
    exact_bayes_delay,
    exact_bayes_gaoi,
    exact_conditional_entropy,
    exact_ensemble_gaoi,
)

from conftest import make_two_state_swap, random_model

H_06 = 0.9709505944546686


class TestExactConditionalEntropy:
    def test_empty_trajectory(self, rng):
        model = random_model(rng)
        assert exact_conditional_entropy(model, JointState(0, 0), 0) == 0.0

    def test_one_step_distribution(self, rng):
        # H of (1 - q_t(x); {q_t(x) p_xy}) evaluated directly
        for _ in range(10):
            model = random_model(rng, max_prefix=3)
            x = int(rng.integers(model.alphabet_size))
            t = int(rng.integers(0, 5))
            q = model.dwell.q(x, t)
            probs = np.concatenate([[1.0 - q], q * model.change.rows[x]])
            expected = discrete_entropy(probs[probs > 0] / probs.sum())
            got = exact_conditional_entropy(model, JointState(x, t), 1)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_swap_linear_in_depth(self):
        model = make_two_state_swap(0.6)
        # per-step entropy is state-independent for the symmetric swap chain
        for u0 in (JointState(0, 0), JointState(1, 4)):
            assert exact_conditional_entropy(model, u0, 3) == pytest.approx(
                3 * H_06, abs=1e-12
            )

    def test_budget_exceeded(self, rng):
        model = random_model(rng)
        with pytest.raises(EnumerationBudgetError):
            exact_conditional_entropy(model, JointState(0, 0), 6, budget=10)


class TestExactEnsembleGaoi:
    def test_zero_age(self, rng):
        model = random_model(rng)
        dist = stationary_distribution(model)
        assert exact_ensemble_gaoi(model, dist, 0) == 0.0

    def test_age_one_equals_entropy_rate(self, rng):
        for _ in range(10):
            model = random_model(rng)
            dist = stationary_distribution(model)
            rate = entropy_rate(model, dist)
            assert exact_ensemble_gaoi(model, dist, 1) == pytest.approx(
                rate.bits, abs=1e-9
            )

    def test_age_scaling_three_state(self, rng):
        model = random_model(rng, max_alphabet=3, max_prefix=4)
        dist = stationary_distribution(model)
        rate = entropy_rate(model, dist)
        assert exact_ensemble_gaoi(model, dist, 4) == pytest.approx(
            4 * rate.bits, abs=1e-9
        )

    def test_certain_change_inside_prefix(self):
        # q = 1 at dwell 1 leaves zero-weight groups, which the oracle skips
        model = validate_model(
            ChangeKernel(np.array([[0.0, 0.5, 0.5], [0.2, 0.0, 0.8], [0.6, 0.4, 0.0]])),
            DwellKernel.homogeneous(3, [0.3, 1.0, 0.2], 0.5),
        )
        dist = stationary_distribution(model)
        rate = entropy_rate(model, dist)
        for a in range(1, 5):
            assert exact_ensemble_gaoi(model, dist, a) == pytest.approx(a * rate.bits, abs=1e-9)


class TestExactBayes:
    def test_gaoi_truncated_geometric(self):
        assert exact_bayes_gaoi(BayesModel(0.5), 2) == pytest.approx(1.5, abs=1e-12)

    def test_gaoi_zero_window(self):
        assert exact_bayes_gaoi(BayesModel(0.3), 0) == 0.0

    def test_gaoi_matches_closed_form(self):
        model = BayesModel(0.04)
        assert exact_bayes_gaoi(model, 12) == pytest.approx(
            h_closed(model, 12), abs=1e-12
        )

    def test_delay_two_term_enumeration(self):
        sched = UpdateSchedule(horizon=2, samples=(), deliveries=())
        assert exact_bayes_delay(BayesModel(0.5), sched) == pytest.approx(0.5, abs=1e-12)

    def test_delay_every_slot_instant(self):
        t = 20
        sched = UpdateSchedule(
            horizon=t, samples=tuple(range(1, t)), deliveries=tuple(range(1, t))
        )
        assert exact_bayes_delay(BayesModel(0.3), sched) == pytest.approx(0.0, abs=1e-12)

    def test_delay_matches_closed_form(self, rng):
        model = BayesModel(0.04)
        for _ in range(25):
            sched = random_schedule(100, rng)
            assert exact_bayes_delay(model, sched) == pytest.approx(
                bayes_expected_delay(model, sched), abs=1e-12
            )
