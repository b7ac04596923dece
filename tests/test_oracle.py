import functools

import numpy as np
import pytest

from gaoi import (
    BayesModel,
    ChangeKernel,
    DwellKernel,
    JointModel,
    bayes_expected_delay,
    discrete_entropy,
    filter_stale,
    h_closed,
    random_schedule,
)
from gaoi import oracle
from gaoi.oracle import (
    EnumerationBudgetError,
    exact_bayes_delay,
    exact_bayes_gaoi,
    exact_conditional_entropy,
    exact_ensemble_gaoi,
)

from conftest import make_cycle, make_two_state_swap, random_model

H_06 = 0.9709505944546686


def reference_probs(model, x0, t0, a):
    """Probabilities of all length-``a`` trajectories from ``(x0, t0)``, by dict frontier.

    The oracle's original enumerator, kept as the reference for its
    table-driven replacement: trajectories ending in the same (x, t) share
    their next-step law, so the frontier groups path probabilities by endpoint.
    """
    frontier = {(x0, t0): np.ones(1)}
    for _ in range(a):
        nxt = {}
        for (x, t), probs in frontier.items():
            q = model.hazard[x, min(t, model.dwell.prefix_len)]
            if q < 1.0:
                nxt.setdefault((x, t + 1), []).append(probs * (1.0 - q))
            if q > 0.0:
                row = model.change.rows[x]
                for y in range(model.alphabet_size):
                    if row[y] > 0.0:
                        nxt.setdefault((y, 0), []).append(probs * (q * row[y]))
        frontier = {key: np.concatenate(parts) for key, parts in nxt.items()}
    return np.concatenate(list(frontier.values()))


def reference_entropy(model, x0, t0, a):
    probs = reference_probs(model, x0, t0, a)
    pos = probs[probs > 0.0]
    return float(-(pos * np.log2(pos)).sum())


def edge_models(rng):
    """Models that exercise every branch of the transition table."""
    zero_diagonal = np.array([[0.0, 0.3, 0.7], [0.5, 0.0, 0.5], [1.0, 0.0, 0.0]])
    return [
        random_model(rng, max_prefix=4),
        random_model(rng, max_alphabet=3, max_prefix=4),
        # zero-diagonal change rows, certain and impossible changes inside the prefix
        JointModel(ChangeKernel(zero_diagonal), DwellKernel(
            np.array([[0.0, 1.0, 0.3], [0.5, 0.0, 0.2], [1.0, 0.0, 0.7]]),
            np.array([0.4, 0.6, 0.9]),
        )),
        # ragged prefixes, padded with each state's tail
        JointModel(ChangeKernel(zero_diagonal), DwellKernel(
            [[0.2, 0.0, 1.0, 0.4], [0.7], []], [0.3, 0.6, 0.9]
        )),
        # runs of q = 0: stay-only groups, one live move and the most padding
        JointModel(ChangeKernel(zero_diagonal), DwellKernel(
            [[0.0, 0.0, 0.0, 0.5], [0.0, 0.8], [0.0]], [0.3, 0.6, 0.9]
        )),
    ]


class TestExactConditionalEntropy:
    def test_empty_trajectory(self, rng):
        model = random_model(rng)
        assert exact_conditional_entropy(model, 0, 0, 0) == 0.0

    def test_one_step_distribution(self, rng):
        # H of (1 - q_t(x); {q_t(x) p_xy}) evaluated directly
        for _ in range(10):
            model = random_model(rng, max_prefix=3)
            x = int(rng.integers(model.alphabet_size))
            t = int(rng.integers(0, 5))
            q = model.hazard[x, min(t, model.dwell.prefix_len)]
            probs = np.concatenate([[1.0 - q], q * model.change.rows[x]])
            expected = discrete_entropy(probs[probs > 0] / probs.sum())
            got = exact_conditional_entropy(model, x, t, 1)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_swap_linear_in_depth(self):
        model = make_two_state_swap(0.6)
        # per-step entropy is state-independent for the symmetric swap chain
        for x, t in ((0, 0), (1, 4)):
            assert exact_conditional_entropy(model, x, t, 3) == pytest.approx(
                3 * H_06, abs=1e-12
            )

    def test_budget_exceeded(self, rng, monkeypatch):
        model = random_model(rng)
        monkeypatch.setattr(oracle, "ENUMERATION_BUDGET", 10)
        with pytest.raises(EnumerationBudgetError):
            exact_conditional_entropy(model, 0, 0, 6)

    def test_negative_window_rejected(self, rng):
        model = random_model(rng)
        with pytest.raises(ValueError, match="window length must be non-negative"):
            exact_conditional_entropy(model, 0, 0, -1)

    def test_negative_dwell_rejected(self, rng):
        model = random_model(rng)
        with pytest.raises(ValueError, match="dwell counter must be non-negative"):
            exact_conditional_entropy(model, 0, -1, 1)

    def test_matches_reference_enumerator(self, rng):
        # every start (x, t), the prefix plus starts past it, a = 1..5
        for model in edge_models(rng):
            m = model.dwell.prefix_len
            for x in range(model.alphabet_size):
                for t in [*range(m + 1), m + 5]:
                    for a in range(1, 6):
                        assert exact_conditional_entropy(model, x, t, a) == pytest.approx(
                            reference_entropy(model, x, t, a), rel=1e-12, abs=1e-12
                        )

    def test_same_trajectory_probabilities_as_reference(self, rng):
        # same multiset of positive path probabilities, bit for bit: every
        # product is taken in the same order, and a trajectory through a pad
        # move carries exactly 0.0.  All starts are enumerated together, so
        # each row is checked beside the others.
        for model in edge_models(rng):
            m = model.dwell.prefix_len
            table = model.transitions
            starts = [(x, t) for x in range(model.alphabet_size)
                      for t in [*range(m + 1), m + 5]]
            groups = np.array([x * (m + 1) + min(t, m) for x, t in starts])
            for a in range(1, 6):
                rows = oracle._enumerate(table, groups, a)
                for (x, t), probs in zip(starts, rows, strict=True):
                    ref = reference_probs(model, x, t, a)
                    assert np.all(ref > 0.0)
                    pos = probs > 0.0
                    assert pos.sum() == len(ref)
                    assert np.array_equal(np.sort(probs[pos]), np.sort(ref))
                    assert np.all(probs[~pos] == 0.0)

    def test_padded_table_rows(self, rng):
        # live moves first, stay then changes by target, pads of probability 0
        for model in edge_models(rng):
            child, prob = model.transitions
            n, m = model.alphabet_size, model.dwell.prefix_len
            assert child.shape == prob.shape == (n * (m + 1), (prob > 0.0).sum(axis=1).max())
            assert np.all((child >= 0) & (child < n * (m + 1)))
            for g in range(n * (m + 1)):
                x, i = divmod(g, m + 1)
                q = model.hazard[x, i]
                moves = ([(x * (m + 1) + min(i + 1, m), 1.0 - q)] if q < 1.0 else []) + [
                    (y * (m + 1), q * p) for y, p in enumerate(model.change.rows[x])
                    if q * p > 0.0]
                live = len(moves)
                assert list(zip(child[g, :live].tolist(), prob[g, :live].tolist())) == moves
                assert np.all(prob[g, live:] == 0.0)

    def test_cycle_has_fan_out_one_and_zero_entropy(self):
        # q = 1 everywhere: one live move per group, a certain trajectory
        model = make_cycle(3)
        dist = model.law
        assert model.transitions[0].shape[1] == 1
        for a in range(9):
            # +0.0, the sum of the terms -p log2 p, never a negated sum's -0.0
            assert not np.signbit(exact_conditional_entropy(model, 1, 0, a))
            assert exact_conditional_entropy(model, 1, 0, a) == 0.0
            assert exact_ensemble_gaoi(model, dist, a) == 0.0

    def test_one_start_over_block_cap(self):
        # 3^9 = 19,683 trajectories from one start exceed BLOCK_TRAJECTORIES:
        # each block then holds a single start (the fan-out 4^9 is in budget)
        rng = np.random.default_rng(99)
        rows = np.zeros((3, 3))
        for x in range(3):
            rows[x, [y for y in range(3) if y != x]] = rng.dirichlet(np.ones(2))
        model = JointModel(ChangeKernel(rows),
                           DwellKernel(rng.uniform(0.05, 0.95, (3, 2)),
                                           rng.uniform(0.05, 0.95, 3)))
        assert model.transitions[0].shape[1] == 3
        assert 3**9 > oracle.BLOCK_TRAJECTORIES
        assert exact_ensemble_gaoi(model, model.law, 9) == pytest.approx(9 * model.rate, abs=1e-9)


class TestExactEnsembleGaoi:
    def test_table_built_once_per_model(self, rng, monkeypatch):
        builds = []
        build = JointModel.transitions.func

        def counted(model):
            builds.append(model)
            return build(model)

        table = functools.cached_property(counted)
        table.__set_name__(JointModel, "transitions")
        monkeypatch.setattr(JointModel, "transitions", table)
        model = random_model(rng, max_prefix=3)
        dist = model.law
        for a in range(1, 9):
            exact_ensemble_gaoi(model, dist, a)
        assert builds == [model]

    def test_zero_age(self, rng):
        model = random_model(rng)
        dist = model.law
        assert exact_ensemble_gaoi(model, dist, 0) == 0.0

    def test_age_one_equals_entropy_rate(self, rng):
        for _ in range(10):
            model = random_model(rng)
            assert exact_ensemble_gaoi(model, model.law, 1) == pytest.approx(model.rate, abs=1e-9)

    def test_age_scaling_three_state(self, rng):
        model = random_model(rng, max_alphabet=3, max_prefix=4)
        assert exact_ensemble_gaoi(model, model.law, 4) == pytest.approx(4 * model.rate, abs=1e-9)

    def test_certain_change_inside_prefix(self):
        # q = 1 at dwell 1 leaves zero-weight groups, which the oracle skips
        model = JointModel(
            ChangeKernel(np.array([[0.0, 0.5, 0.5], [0.2, 0.0, 0.8], [0.6, 0.4, 0.0]])),
            DwellKernel([[0.3, 1.0, 0.2]] * 3, [0.5] * 3),
        )
        for a in range(1, 5):
            assert exact_ensemble_gaoi(model, model.law, a) == pytest.approx(a * model.rate,
                                                                             abs=1e-9)


    def test_another_models_law_refused(self):
        # the weights are read off the law given: another model's law of the
        # same shape gave a wrong number without a word
        model, other = make_two_state_swap(0.6), make_two_state_swap(0.3)
        with pytest.raises(ValueError, match="pass model.law"):
            exact_ensemble_gaoi(model, other.law, 3)

    def test_negative_window_rejected(self, rng):
        model = random_model(rng)
        dist = model.law
        with pytest.raises(ValueError, match="window length must be non-negative"):
            exact_ensemble_gaoi(model, dist, -2)

    def test_returns_python_float(self, rng):
        model = random_model(rng)
        dist = model.law
        for a in (0, 1, 3):
            assert type(exact_ensemble_gaoi(model, dist, a)) is float

    def test_budget_exceeded(self, rng, monkeypatch):
        model = random_model(rng)
        dist = model.law
        monkeypatch.setattr(oracle, "ENUMERATION_BUDGET", 10)
        with pytest.raises(EnumerationBudgetError):
            exact_ensemble_gaoi(model, dist, 6)

    def test_lost_mass_raises(self, rng, monkeypatch):
        # every start's trajectory mass is checked, in whichever block it ran
        model = random_model(rng, max_prefix=3)
        child, prob = model.transitions
        twin = JointModel(model.change, model.dwell)  # its table not built yet
        monkeypatch.setattr(JointModel, "transitions", (child, prob * (1.0 - 1e-9)))
        monkeypatch.setattr(oracle, "BLOCK_TRAJECTORIES", 1)
        with pytest.raises(AssertionError, match="enumerated mass"):
            exact_ensemble_gaoi(twin, twin.law, 3)


class TestBlockIndependence:
    def test_ensemble_is_weighted_sum_of_starts(self, rng):
        # each start's trajectories stay contiguous, so the batched reduction
        # adds them in the same order as a lone start: equal bit for bit
        for model in edge_models(rng):
            dist = model.law
            for a in range(1, 6):
                total = 0.0
                for (x, t), weight in np.ndenumerate(dist.group_weights):
                    if weight > 0.0:
                        total += weight * exact_conditional_entropy(model, x, t, a)
                assert exact_ensemble_gaoi(model, dist, a) == total

    def test_block_size_does_not_change_entropies(self, rng, monkeypatch):
        models = edge_models(rng)

        def entropies(block):
            monkeypatch.setattr(oracle, "BLOCK_TRAJECTORIES", block)
            out = []
            for model in models:
                groups = np.arange(model.alphabet_size * (model.dwell.prefix_len + 1))
                out += [oracle._entropies(model, groups, a)
                        for a in range(1, 6)]
            return out

        expected = entropies(oracle.BLOCK_TRAJECTORIES)
        # small caps cut the steps shared by all starts, and the steps read
        # from the move-sequence table, at every depth
        for block in (1, 2, 3, 9, 27, 100, 10**7):
            assert all(map(np.array_equal, entropies(block), expected))


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
        sched = filter_stale([], horizon=2)
        assert exact_bayes_delay(BayesModel(0.5), sched)[0] == pytest.approx(0.5, abs=1e-12)

    def test_delay_every_slot_instant(self):
        t = 20
        sched = filter_stale([(s, s) for s in range(1, t)], horizon=t)
        assert exact_bayes_delay(BayesModel(0.3), sched)[0] == pytest.approx(0.0, abs=1e-12)

    def test_delay_matches_closed_form(self, rng):
        model = BayesModel(0.04)
        block = random_schedule(100, rng, 25)
        assert exact_bayes_delay(model, block) == pytest.approx(
            bayes_expected_delay(model, block), abs=1e-12
        )
