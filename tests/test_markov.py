import time
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gaoi import (
    ChangeKernel,
    DwellKernel,
    EntropyRate,
    JointModel,
    ModelError,
    discrete_entropy,
    entropy_rate,
    stationary_distribution,
    validate_model,
)
from gaoi.config import preset_config
from gaoi.markov import IrreducibilityError, _unreachable, binary_entropy, embedded_stationary

from conftest import make_cycle, make_two_state_swap, make_uniform_three, random_model
from reference import (
    entropy_rate_homogeneous,
    exact_embedded_stationary,
    joint_step,
    reference_binary_entropy,
    reference_entropy_rate,
    reference_survival,
    reference_unreachable,
)

H_06 = 0.9709505944546686  # binary entropy of 0.6 in bits


def exact_level(dist, x: int, i: int) -> float:
    """mu_{x,i} from the stored levels 0..m and the geometric tail past m."""
    m = dist.mu.shape[1] - 1
    return dist.mu[x, min(i, m)] * (1.0 - dist.tail[x]) ** max(i - m, 0)


class TestValidateModel:
    def test_swap_model_valid(self):
        model = make_two_state_swap(0.6)
        assert model.alphabet_size == 2

    def test_self_transition_row_allowed(self):
        model = validate_model(
            ChangeKernel(np.array([[0.5, 0.5], [1.0, 0.0]])),
            DwellKernel.homogeneous(2, [], 0.5),
        )
        assert model.hazard[0, min(3, model.dwell.prefix_len)] == 0.5

    @pytest.mark.parametrize("rows, unreachable", [
        ([[1.0, 0.0], [0.5, 0.5]], [1]),
        ([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]], [2]),
        ([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]], [1, 2]),
    ], ids=["absorbing_0", "transient_2", "one_way"])
    def test_unreachable_states_reported(self, rows, unreachable):
        # a reducible change matrix is refused where the model is built
        with pytest.raises(IrreducibilityError) as exc:
            validate_model(ChangeKernel(np.array(rows)),
                           DwellKernel.homogeneous(len(rows), [], 0.5))
        assert exc.value.unreachable == unreachable

    def test_bad_row_sum_rejected(self):
        with pytest.raises(ModelError, match="sum to 1"):
            validate_model(
                ChangeKernel(np.array([[0.4, 0.5], [1.0, 0.0]])),
                DwellKernel.homogeneous(2, [], 0.5),
            )

    def test_zero_tail_rejected(self):
        with pytest.raises(ModelError, match="tail"):
            validate_model(
                ChangeKernel(np.array([[0.0, 1.0], [1.0, 0.0]])),
                DwellKernel.homogeneous(2, [0.3], 0.0),
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ModelError):
            validate_model(
                ChangeKernel(np.array([[0.0, 1.0], [1.0, 0.0]])),
                DwellKernel.homogeneous(3, [], 0.5),
            )

    def test_prefix_needs_one_row_per_state(self):
        # an empty prefix array is promoted to shape (1, 0), not (2, 0)
        with pytest.raises(ModelError, match="prefix"):
            validate_model(
                ChangeKernel(np.array([[0.0, 1.0], [1.0, 0.0]])),
                DwellKernel(np.array([]), np.array([0.5, 0.5])),
            )

    def test_entry_out_of_range(self):
        with pytest.raises(ModelError):
            validate_model(
                ChangeKernel(np.array([[-0.1, 1.1], [1.0, 0.0]])),
                DwellKernel.homogeneous(2, [], 0.5),
            )


class TestModelChecksItself:
    """``JointModel`` built directly, without ``validate_model``, refuses what
    ``validate_model`` refuses, rather than giving NaN, 0 or numpy's errors."""

    @pytest.mark.parametrize("rows, n, tail, match", [
        (np.eye(2), 2, 0.5, "not irreducible"),
        ([[0.0, 1.0], [1.0, 0.0]], 2, 0.0, "tail must be positive"),
        ([[0.5, 0.7], [1.0, 0.0]], 2, 0.5, "do not sum to 1"),
        ([[0.0, 1.0], [1.0, 0.0]], 3, 0.5, "covers 3 states"),
    ], ids=["reducible", "zero_tail", "row_sum", "alphabets_differ"])
    def test_bad_input_raises_model_error(self, rows, n, tail, match):
        with pytest.raises(ModelError, match=match):
            JointModel(ChangeKernel(rows), DwellKernel.homogeneous(n, [], tail))

    def test_zero_states_refused(self):
        # a 0 x 0 matrix is square, stochastic and irreducible by default
        with pytest.raises(ModelError, match="^change matrix must have at least one state$"):
            ChangeKernel(np.empty((0, 0)))

    @pytest.mark.parametrize("rows, tail", [
        ([[0.0, 1.0], [5e-324, 1.0]], 0.5),
        ([[0.0, 1.0, 0.0], [0.0, 1.0, 2.2e-308], [2.2e-308, 1.0, 0.0]], 0.5),
        ([[0.0, 1.0], [1.0, 0.0]], 5e-324),
    ], ids=["gth_ratio_overflows", "gth_pivot_underflows", "subnormal_tail"])
    def test_law_past_float64_refused(self, rows, tail):
        # valid in exact arithmetic, but GTH's ratios or the mean dwell
        # overflow, which gave a NaN or 0 change probability
        with pytest.raises(ModelError, match="does not fit in float64"):
            JointModel(ChangeKernel(rows), DwellKernel.homogeneous(len(rows), [], tail))


PROBABILITIES = st.floats(0.0, 1.0)


@st.composite
def kernel_arrays(draw):
    """Change rows normalised from random weights (all-zero rows give NaN),
    and dwell prefixes and tails, each probability anywhere in [0, 1]:
    subnormals, 0 and 1 included."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    weights = draw(arrays(float, (n, n), elements=PROBABILITIES))
    with np.errstate(all="ignore"):
        rows = weights / weights.sum(axis=1, keepdims=True)
    return (rows, draw(arrays(float, (n, m), elements=PROBABILITIES)),
            draw(arrays(float, n, elements=PROBABILITIES)))


def certain_change_rows(draw: int) -> np.ndarray:
    """The ``draw``-th 5 x 5 matrix of Dirichlet(1) rows from seed 0."""
    rng = np.random.default_rng(0)
    for _ in range(draw):
        rows = rng.dirichlet(np.ones(5), size=5)
    return rows


@given(kernel_arrays())
# every hazard 1: p_change is exactly 1, and its float sum read 1 + 2^-52
@example((certain_change_rows(6), np.ones((5, 1)), np.ones(5)))
@settings(max_examples=500, deadline=None)
def test_every_model_that_constructs_has_finite_constants(kernels):
    rows, prefix, tail = kernels
    try:
        model = JointModel(ChangeKernel(rows), DwellKernel(prefix, tail))
    except ModelError:
        return
    # a probability: every dwell lasts at least one slot
    assert 0.0 < model.p_change <= 1.0
    assert np.isfinite(model.rate) and model.rate >= 0.0


class TestJointStep:
    def test_zero_change_probability_increments(self, rng):
        model = validate_model(
            ChangeKernel(np.array([[0.0, 1.0], [1.0, 0.0]])),
            DwellKernel.homogeneous(2, [0.5, 0.5, 0.5, 0.0], 0.5),
        )
        for _ in range(50):
            assert joint_step(model, 0, 3, rng) == (0, 4)

    def test_forced_change_deterministic_target(self, rng):
        model = validate_model(
            ChangeKernel(np.array([[0.0, 1.0], [1.0, 0.0]])),
            DwellKernel.homogeneous(2, [1.0], 0.5),
        )
        for _ in range(50):
            assert joint_step(model, 0, 0, rng) == (1, 0)


class TestStationaryDistribution:
    def test_swap_geometric_levels(self):
        # renewal oracle: symmetric states split mass 1/2, dwell Geometric(0.6)
        dist = stationary_distribution(make_two_state_swap(0.6))
        for x in (0, 1):
            for i in range(10):
                assert exact_level(dist, x, i) == pytest.approx(0.3 * 0.4**i, abs=1e-12)
        assert dist.group_weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_total_mass_is_one(self, rng):
        for _ in range(10):
            model = random_model(rng)
            dist = stationary_distribution(model)
            assert dist.group_weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_cycle_all_mass_at_zero(self):
        dist = stationary_distribution(make_cycle(3))
        for x in range(3):
            assert dist.mu[x][0] == pytest.approx(1.0 / 3.0, abs=1e-12)
            assert dist.mu[x][1:].sum() == 0.0

    def test_balance_product_structure(self, rng):
        # 400 levels past the prefix: the mass left beyond them is below 1e-18
        # for every tail hazard >= 0.1 that random_model draws
        for _ in range(10):
            model = random_model(rng)
            dist = stationary_distribution(model)
            for x in range(model.alphabet_size):
                mu0 = dist.mu[x][0]
                for i in range(model.dwell.prefix_len + 400):
                    assert exact_level(dist, x, i) == pytest.approx(
                        mu0 * reference_survival(model, x, i), rel=1e-12, abs=1e-300
                    )

    def test_matches_power_iteration_on_truncated_joint_chain(self, rng):
        # independent oracle: power-iterate the truncated joint transition matrix
        for _ in range(5):
            model = random_model(rng, max_prefix=3)
            dist = stationary_distribution(model)
            n = model.alphabet_size
            cap = 80
            dim = n * cap
            P = np.zeros((dim, dim))
            for x in range(n):
                for t in range(cap):
                    q = model.hazard[x, min(t, model.dwell.prefix_len)]
                    if t + 1 < cap:
                        P[x * cap + t, x * cap + t + 1] = 1.0 - q
                    else:
                        P[x * cap + t, x * cap + t] = 1.0 - q  # negligible mass
                    for y in range(n):
                        P[x * cap + t, y * cap] += q * model.change.rows[x, y]
            v = np.ones(dim) / dim
            for _ in range(4000):
                v = v @ P
            v /= v.sum()
            for x in range(n):
                for i in range(20):
                    assert v[x * cap + i] == pytest.approx(exact_level(dist, x, i), abs=1e-8)

    def test_tiny_tail_hazard_is_exact_at_constant_cost(self):
        # the law holds n (m + 1) levels whatever the hazard, though here the
        # mass past dwell 10^7 is still 4.5e-5
        q = 1e-6
        start = time.perf_counter()
        dist = stationary_distribution(make_two_state_swap(q))
        assert time.perf_counter() - start < 0.5
        assert dist.mu.shape == (2, 1)
        assert dist.mu0.sum() == pytest.approx(q, rel=1e-12)
        assert dist.group_weights == pytest.approx(np.full((2, 1), 0.5), rel=1e-12)
        assert exact_level(dist, 0, 10**6) == pytest.approx(
            q / 2 * (1 - q) ** 10**6, rel=1e-9
        )

    def test_long_prefix_matches_survival_product(self):
        rng = np.random.default_rng(400)
        m = 400
        model = validate_model(
            ChangeKernel(np.array([[0.0, 0.4, 0.6], [0.5, 0.0, 0.5], [0.7, 0.3, 0.0]])),
            DwellKernel(rng.uniform(0.001, 0.02, size=(3, m)), np.array([0.05, 0.01, 0.2])),
        )
        dist = stationary_distribution(model)
        assert dist.mu.shape == (3, m + 1)
        assert dist.group_weights.sum() == pytest.approx(1.0, abs=1e-12)
        mean_dwell = np.empty(3)
        for x in range(3):
            surv = np.array([reference_survival(model, x, i) for i in range(m + 1)])
            np.testing.assert_allclose(dist.mu[x], dist.mu[x, 0] * surv, rtol=1e-12, atol=0)
            mean_dwell[x] = surv[:-1].sum() + surv[-1] / model.dwell.tail[x]
        # mu_{x,0}: the change chain's mass over the mean dwell
        pi = embedded_stationary(model)
        np.testing.assert_allclose(dist.mu0, pi / (pi @ mean_dwell), rtol=1e-12, atol=0)

    def test_certain_change_inside_prefix_empties_later_groups(self):
        model = validate_model(ChangeKernel(np.array([[0.0, 1.0], [1.0, 0.0]])),
                               DwellKernel.homogeneous(2, [0.3, 1.0, 0.2], 0.5))
        dist = stationary_distribution(model)
        weights = dist.group_weights
        assert np.array_equal(weights[:, 2:], np.zeros((2, 2)))
        assert weights[:, :2] == pytest.approx(np.array([[1.0, 0.7]] * 2) / 3.4, rel=1e-12)
        assert model.p_change == pytest.approx(1 / 1.7, rel=1e-12)


def birth_death(n: int, step: float) -> np.ndarray:
    """A change chain on 0..n-1 that steps up with probability ``step`` and
    down otherwise, reflected at both ends: state k >= 1 has mass about
    step**(k - 1) / 2."""
    rows = np.zeros((n, n))
    rows[0, 1] = rows[-1, -2] = 1.0
    for k in range(1, n - 1):
        rows[k, k - 1], rows[k, k + 1] = 1.0 - step, step
    return rows


# change chains with rare states, each valid for validate_model; the smallest
# exact masses are 5.0e-14, 1.0e-17, 5.0e-13 and 5.0e-28
RARE_CHAINS = {
    "one_entry_1e-13": np.array([[0.0, 1.0 - 1e-13, 1e-13], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]]),
    "entries_1e-17": np.array([[0.0, 1.0, 1e-17], [1.0, 0.0, 1e-17], [0.5, 0.5, 0.0]]),
    "birth_death_4_1e-6": birth_death(4, 1e-6),
    "birth_death_5_1e-9": birth_death(5, 1e-9),
}


def assert_relatively_exact(rows: np.ndarray) -> None:
    """Every entry of the change chain's stationary vector within 1e-14 of
    the exact one, relative to that entry."""
    model = validate_model(ChangeKernel(rows), DwellKernel.homogeneous(len(rows), [], 0.5))
    pi = embedded_stationary(model)
    assert pi.dtype == np.float64
    for got, want in zip(pi.tolist(), exact_embedded_stationary(rows), strict=True):
        assert abs(Fraction(got) - want) <= Fraction(1e-14) * want


class TestEmbeddedStationary:
    @pytest.mark.parametrize("rows", RARE_CHAINS.values(), ids=RARE_CHAINS.keys())
    def test_every_entry_relatively_exact(self, rows):
        # a solve of pi (P - I) = 0 is accurate only in absolute terms, so a
        # rare state's mass can be off by orders of magnitude, or 0 once clipped
        assert_relatively_exact(rows)

    def test_one_state(self):
        model = validate_model(ChangeKernel(np.array([[1.0]])), DwellKernel.homogeneous(1, [], 0.3))
        assert embedded_stationary(model).tolist() == [1.0]
        assert model.p_change == pytest.approx(0.3, rel=1e-15)

    def test_matches_exact_on_random_chains(self, rng):
        for n in (2, 3, 5, 8):
            rows = rng.dirichlet(np.ones(n), size=n) * (rng.random((n, n)) < 0.6)
            rows[np.arange(n), (np.arange(n) + 1) % n] += 0.05  # a ring keeps it irreducible
            rows /= rows.sum(axis=1, keepdims=True)
            assert_relatively_exact(rows)


def sparse_graphs(rng):
    """Change matrices as graphs: one state, a one-way chain, a ring, each
    reversed, and random sparse ones from empty to dense."""
    yield np.ones((1, 1))
    for n in (2, 5, 9):
        one_way = np.eye(n, k=1)
        ring = np.roll(np.eye(n), 1, axis=1)
        yield from (one_way, one_way.T, ring, ring.T)
    for n in (2, 3, 6, 12, 40):
        for density in (0.0, 0.05, 0.15, 0.3, 0.7):
            for _ in range(6):
                yield rng.random((n, n)) * (rng.random((n, n)) < density)


def test_unreachable_matches_graph_walk(rng):
    for rows in sparse_graphs(rng):
        assert _unreachable(rows) == reference_unreachable(rows)


class TestProbChange:
    def test_swap(self):
        assert make_two_state_swap(0.6).p_change == pytest.approx(0.6, abs=1e-12)

    def test_cycle_every_slot(self):
        assert make_cycle(3).p_change == pytest.approx(1.0, abs=1e-12)

    def test_homogeneous_geometric_any_change_matrix(self, rng):
        # renewal argument: homogeneous per-slot hazard q gives P[T=0] = q
        for _ in range(5):
            model = random_model(rng, homogeneous=True, max_prefix=0)
            q = float(model.dwell.tail[0])
            assert model.p_change == pytest.approx(q, abs=1e-12)


class TestDiscreteEntropy:
    def test_uniform_binary(self):
        assert discrete_entropy(np.array([0.5, 0.5])) == 1.0

    def test_degenerate(self):
        assert discrete_entropy(np.array([1.0, 0.0])) == 0.0

    def test_binary_06(self):
        assert discrete_entropy(np.array([0.6, 0.4])) == pytest.approx(H_06, abs=1e-12)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            discrete_entropy(np.array([1.2, -0.2]))

    def test_bad_normalization_rejected(self):
        with pytest.raises(ValueError):
            discrete_entropy(np.array([0.5, 0.4]))


class TestBinaryEntropy:
    @pytest.mark.parametrize("q", [1e-8, 1e-6, 0.3, 0.5])
    def test_against_decimal(self, q):
        # (1 - q) log2(1 - q) taken literally loses about 2.6e-10 (relative)
        # at q = 1e-8, since 1 - q rounds away the low digits of q
        with localcontext() as ctx:
            ctx.prec = 60
            d = Decimal(q)
            exact = -(d * d.ln() + (1 - d) * (1 - d).ln()) / Decimal(2).ln()
        assert abs(Decimal(float(binary_entropy(q))) - exact) <= Decimal(1e-15) * exact

    def test_scalar_returns_float(self):
        for q in (0.0, 1e-300, 0.3, 1.0):
            assert isinstance(binary_entropy(q), float)

    def test_array_equals_scalar_calls(self):
        # the edges of the zero rule, tiny hazards where log1p matters, and a
        # sweep of (0, 1), in a 2-d array
        rng = np.random.default_rng(5)
        q = np.concatenate([[0.0, 1.0, -0.5, 1.5, 1e-300, 1e-12, 1e-8, 1.0 - 1e-16],
                            rng.random(992), 10.0 ** rng.uniform(-300, 0, 1000)]).reshape(40, 50)
        h = binary_entropy(q)
        assert h.shape == q.shape
        assert h.tolist() == [[binary_entropy(v) for v in row] for row in q.tolist()]
        assert h.tolist() == [[reference_binary_entropy(v) for v in row] for row in q.tolist()]


class TestEntropyRate:
    def test_swap_rate_is_binary_entropy(self):
        model = make_two_state_swap(0.6)
        rate = entropy_rate(model, stationary_distribution(model))
        assert rate.bits == pytest.approx(H_06, abs=1e-12)

    def test_cycle_rate_zero(self):
        model = make_cycle(3)
        rate = entropy_rate(model, stationary_distribution(model))
        assert rate.bits == pytest.approx(0.0, abs=1e-12)

    def test_three_state_uniform(self):
        model = make_uniform_three(0.5)
        rate = entropy_rate(model, stationary_distribution(model))
        assert rate.bits == pytest.approx(1.5, abs=1e-12)

    def test_homogeneous_split_agrees(self, rng):
        for model in (make_two_state_swap(0.6), make_uniform_three(0.5)):
            dist = stationary_distribution(model)
            assert entropy_rate(model, dist).bits == pytest.approx(
                entropy_rate_homogeneous(model, dist).bits, abs=1e-9
            )
        for _ in range(10):
            model = random_model(rng, homogeneous=True)
            dist = stationary_distribution(model)
            assert entropy_rate(model, dist).bits == pytest.approx(
                entropy_rate_homogeneous(model, dist).bits, abs=1e-9
            )

    def test_every_slot_change_reduces_to_change_chain_entropy(self, rng):
        # q_0 = 1 homogeneous: the dwell chain is deterministic
        for _ in range(5):
            n = int(rng.integers(2, 5))
            rows = rng.dirichlet(np.ones(n), size=n)
            model = validate_model(ChangeKernel(rows), DwellKernel.homogeneous(n, [], 1.0))
            dist = stationary_distribution(model)
            pi = embedded_stationary(model)
            h_px = sum(pi[x] * discrete_entropy(rows[x]) for x in range(n))
            assert entropy_rate(model, dist).bits == pytest.approx(h_px, abs=1e-12)
            assert entropy_rate_homogeneous(model, dist).bits == pytest.approx(h_px, abs=1e-12)

    def test_heterogeneous_dwell_rejected_by_split(self):
        model = validate_model(
            ChangeKernel(np.array([[0.0, 1.0], [1.0, 0.0]])),
            DwellKernel(np.empty((2, 0)), np.array([0.3, 0.7])),
        )
        dist = stationary_distribution(model)
        with pytest.raises(ModelError):
            entropy_rate_homogeneous(model, dist)

    def test_deterministic_model_rate_exactly_zero(self):
        for n in (2, 3, 4):
            model = make_cycle(n)
            dist = stationary_distribution(model)
            assert entropy_rate(model, dist).bits == 0.0

    @pytest.mark.parametrize("q", [1e-12, 1e-8, 1e-6])
    def test_tiny_hazard_swap_keeps_log1p_digits(self, q):
        # the swap chain's rate is H(q, 1-q); a form that takes
        # (1 - q) log2(1 - q) literally is off by about 2.6e-10 at q = 1e-8
        model = make_two_state_swap(q)
        with localcontext() as ctx:
            ctx.prec = 60
            d = Decimal(q)
            exact = -(d * d.ln() + (1 - d) * (1 - d).ln()) / Decimal(2).ln()
        bits = entropy_rate(model, stationary_distribution(model)).bits
        assert abs(Decimal(bits) - exact) <= Decimal(1e-15) * exact

    def test_bit_identical_to_reference_loop(self, rng):
        # the vectorised rate adds every dwell series in dwell order and the
        # statuses in turn, as the loop does, so not one bit moves
        sticky = np.random.default_rng(170)
        rows = np.zeros((3, 3))
        for x in range(3):
            rows[x, [y for y in range(3) if y != x]] = sticky.dirichlet(np.ones(2))
        zero_diagonal = np.array([[0.0, 0.3, 0.7], [0.5, 0.0, 0.5], [1.0, 0.0, 0.0]])
        models = [
            preset_config("fig5").model,
            # 3 statuses, a 170-slot prefix of log-uniform hazards, a 0.01 tail
            validate_model(ChangeKernel(rows), DwellKernel(
                np.exp(sticky.uniform(np.log(0.002), np.log(0.1), (3, 170))),
                np.full(3, 0.01))),
            make_cycle(3),
            # a certain change inside the prefix, and impossible ones
            validate_model(ChangeKernel(zero_diagonal), DwellKernel.from_lists(
                [[0.2, 1.0, 0.4], [0.0, 1.0], [0.5]], [0.3, 0.6, 0.9])),
            *(random_model(rng) for _ in range(200)),
        ]
        for model in models:
            dist = stationary_distribution(model)
            assert entropy_rate(model, dist).bits == reference_entropy_rate(model, dist).bits


class TestModelTables:
    def test_tables_are_read_only(self, rng):
        model = random_model(rng)
        for table in (model.hazard, model.survival, *model.transitions, model.law.group_weights):
            with pytest.raises(ValueError):
                table[0, 0] = 0.5

    def test_tables_are_built_once(self, rng):
        model = random_model(rng)
        for name in ("hazard", "survival", "transitions", "law"):
            assert getattr(model, name) is getattr(model, name)
        assert model.law.group_weights is model.law.group_weights

    def test_frozen_identity_types(self, rng):
        # the kernels, the model and the law: fields fixed at construction,
        # identity equality and hash, cached tables kept
        model = random_model(rng)
        law = model.law
        for value, fields, cached in ((model.change, ["rows"], []),
                                      (model.dwell, ["prefix", "tail"], []),
                                      (model, ["change", "dwell"], ["law", "rate", "transitions"]),
                                      (law, ["mu", "tail"], ["group_weights"])):
            tables = {name: getattr(value, name) for name in cached}
            for name in [*fields, *cached, "extra"]:
                with pytest.raises(AttributeError, match="frozen"):
                    setattr(value, name, None)
                with pytest.raises(AttributeError, match="frozen"):
                    delattr(value, name)
            assert all(getattr(value, name) is table for name, table in tables.items())
            twin = type(value)(*(getattr(value, name) for name in fields))
            assert value == value and value != twin and len({value, twin}) == 2
            assert repr(value).startswith(f"{type(value).__name__}({fields[0]}=")
        assert JointModel(change=model.change, dwell=model.dwell).rate == model.rate
        assert entropy_rate(model, law) == EntropyRate(bits=model.rate)

    def test_hazard_and_survival_tables(self, rng):
        for _ in range(10):
            model = random_model(rng)
            m = model.dwell.prefix_len
            assert model.hazard.shape == model.survival.shape == (model.alphabet_size, m + 1)
            for x in range(model.alphabet_size):
                assert model.hazard[x, -1] == model.dwell.tail[x]
                assert np.array_equal(model.hazard[x, :-1], model.dwell.prefix[x])
                for i in range(m + 1):
                    assert model.survival[x, i] == pytest.approx(
                        reference_survival(model, x, i), rel=1e-14)

    def test_law_matches_its_parts(self, rng):
        model = random_model(rng)
        dist = stationary_distribution(model)
        assert dist is model.law  # solved once, by the model
        assert model.rate == entropy_rate(model, dist).bits
        assert model.p_change == float(dist.mu0.sum())
