import tracemalloc

import numpy as np
import pytest
from scipy import stats as sps

from gaoi import (
    BayesModel,
    ChangeKernel,
    DelayLaw,
    DwellKernel,
    PolicySpec,
    bayes_constant_c,
    bayes_cumulative_gaoi,
    derive_stream,
    h_closed,
    random_schedule,
    run_ensemble,
    validate_model,
)
from gaoi import bayes, ensemble, markov
from gaoi.config import RunConfig
from gaoi.ensemble import INIT_SALT, METRICS, PATH_SALT, POLICY_SALT, sample_block
from gaoi.schedule import aoi_block
from gaoi.markov import stationary_distribution

from conftest import make_cycle, make_two_state_swap, sticky_model
from reference import (
    joint_step,
    reference_change_slots,
    reference_ensemble,
    reference_survival,
    rows,
    survival_table,
)


PERIODIC_50 = PolicySpec(kind="periodic", period=50, delay=DelayLaw.deterministic(0))
GREEDY_2080 = PolicySpec(kind="greedy", delay=DelayLaw.uniform(20, 80))


def make_ragged_three():
    """Three statuses with ragged dwell prefixes and self-transition mass."""
    rows = np.array([[0.2, 0.5, 0.3], [0.3, 0.3, 0.4], [0.5, 0.25, 0.25]])
    dwell = DwellKernel.from_lists([[0.0, 0.1, 0.5], [0.9], []], [0.3, 0.2, 0.4])
    return validate_model(ChangeKernel(rows), dwell)


def make_split_hazards():
    """Three statuses with hazards 0.05, 0.5 and 0.95: a path's first dwell
    shows which status it started in."""
    rows = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
    return validate_model(ChangeKernel(rows),
                          DwellKernel(np.empty((3, 0)), np.array([0.05, 0.5, 0.95])))


def make_sticky(prefix: int = 150):
    """The slow-changing 3-status source ``sticky_model(7, prefix)``."""
    data = sticky_model(7, prefix)
    dwell = DwellKernel.from_lists([d["prefix"] for d in data["dwell"]],
                                   [d["tail"] for d in data["dwell"]])
    return validate_model(ChangeKernel(np.array(data["px_rows"])), dwell)


def _draws(rng: np.random.Generator) -> list:
    """Draws through every path the ensemble uses: 32-bit integers (odd and
    even counts), 64-bit integers, doubles and a geometric."""
    return [rng.integers(0, 10, size=3, dtype=np.uint32), rng.integers(2, 9, size=4),
            rng.random(5), rng.integers(0, 2**40, size=2), rng.geometric(0.04, size=3),
            rng.integers(0, 10, size=2, dtype=np.uint32)]


def _same_draws(a: list, b: list) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))


def _per_slot(model, x0, t0, uniforms):
    """The sampler's paths slot by slot, built one path at a time from its
    chunks of changes: the (paths, horizon) mask of change slots and the
    status after each slot.  ``sample_block`` must return the chunks' slots,
    one row per path."""
    horizon = uniforms.shape[1]
    slots, statuses = map(np.vstack, zip(*ensemble._change_chunks(model, x0, t0, uniforms)))
    sampled = sample_block(model, x0, t0, uniforms)
    assert sampled.dtype == np.int64 and np.array_equal(sampled, slots.T)
    assert (np.diff(sampled, axis=1) > 0).all()
    changed = np.zeros((len(x0), horizon), dtype=bool)
    states = np.empty((len(x0), horizon), dtype=np.int64)
    for k in range(len(x0)):
        inside = slots[:, k] <= horizon
        changed[k, slots[inside, k] - 1] = True
        states[k] = np.concatenate([[x0[k]], statuses[inside, k]])[changed[k].cumsum()]
    return changed, states


def _one_path(model, x0: int, t0: int, horizon: int, rng: np.random.Generator):
    """One path sampled alone, a one-path ``sample_block`` from (x0, t0):
    its change mask and its statuses over slots 1..horizon."""
    changed, states = _per_slot(model, [x0], [t0], rng.random((1, horizon, 2)))
    return changed[0], states[0]


class TestDeriveStream:
    @pytest.mark.parametrize("salt", [PATH_SALT, POLICY_SALT, INIT_SALT, 98])
    def test_reset_equals_fresh_stream(self, salt):
        family = ensemble.StreamFamily(20240102, salt)
        for k in (0, 1, 7, 255, 256, 2**40):
            assert _same_draws(_draws(family.at(k)), _draws(derive_stream(20240102, k, salt)))

    def test_reset_drops_buffered_halves(self):
        # each earlier path leaves a 32-bit half and part of a Philox block
        # unread; the next path (later or earlier) must not see either
        family = ensemble.StreamFamily(5, POLICY_SALT)
        leftovers = [
            lambda rng: rng.integers(2, 9),
            lambda rng: rng.integers(0, 10, size=3, dtype=np.uint32),
            lambda rng: rng.integers(0, 10, size=1, dtype=np.uint32),
            lambda rng: rng.random(3),
        ]
        for prev, k in [(4, 5), (9, 2), (3, 3), (6, 0)]:
            for leave in leftovers:
                rng = family.at(prev)
                leave(rng)
                left = rng.bit_generator.state
                assert left["has_uint32"] == 1 or left["buffer_pos"] < 4
                assert _same_draws(_draws(family.at(k)), _draws(derive_stream(5, k, POLICY_SALT)))

    def test_salts_give_distinct_keys(self):
        def state(k, salt):
            return derive_stream(42, k, salt).bit_generator.state["state"]

        salts = [PATH_SALT, POLICY_SALT, INIT_SALT, 96, 97, 98, 99]
        keys = {tuple(state(0, salt)["key"].tolist()) for salt in salts}
        assert len(keys) == len(salts)
        # the key depends on the seed and the salt only; the path is the counter
        assert np.array_equal(state(12, PATH_SALT)["key"], state(0, PATH_SALT)["key"])
        assert state(12, PATH_SALT)["counter"].tolist() == [0, 12, 0, 0]

    def test_same_inputs_same_draws(self):
        a = derive_stream(42, 3, 1).random(100)
        b = derive_stream(42, 3, 1).random(100)
        assert np.array_equal(a, b)

    def test_salts_give_uncorrelated_streams(self):
        n = 10**5
        a = derive_stream(42, 0, 0).random(n)
        b = derive_stream(42, 0, 1).random(n)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.01

    def test_per_path_means_look_uniform(self):
        means = np.array([derive_stream(7, k, 0).random(200).mean() for k in range(1000)])
        # CLT: path means approx normal(0.5, 1/sqrt(12*200))
        z = (means - 0.5) * np.sqrt(12 * 200)
        assert sps.kstest(z, "norm").pvalue > 0.01


class TestOnePathBlock:
    def test_status_moves_only_at_changes(self, rng):
        # the swap chain has no self-transitions: the status moves exactly at
        # the change slots
        changed, states = _one_path(make_two_state_swap(0.6), 0, 0, 500, rng)
        assert np.array_equal(states != np.concatenate([[0], states[:-1]]), changed)
        assert 0 < changed.sum() < 500

    def test_cycle_changes_every_slot(self, rng):
        changed, states = _one_path(make_cycle(3), 0, 0, 50, rng)
        assert changed.all()
        assert np.array_equal(states[:3], [1, 2, 0])


class TestStationarySample:
    def test_frequencies_match_distribution(self):
        dist = stationary_distribution(make_two_state_swap(0.6))
        x, t = dist.sample(np.random.default_rng(11).random((20000, 2)))
        assert (t == 0).mean() == pytest.approx(0.6, abs=0.02)
        assert (x == 0).mean() == pytest.approx(0.5, abs=0.02)

    def test_chi_square_against_exact_law(self):
        # bins: every (x, t) for t < m + 6, then (x, t >= m + 6), so three of
        # each status's bins lie past the prefix
        model = make_ragged_three()
        m, extra = model.dwell.prefix_len, 6
        dist = stationary_distribution(model)
        draws = 20000
        u = np.array([derive_stream(13, k, INIT_SALT).random(2) for k in range(draws)])
        x, t = dist.sample(u)
        width = m + extra + 1
        observed = np.bincount(x * width + np.minimum(t, m + extra), minlength=3 * width)
        expected = np.empty((3, width))
        for s in range(3):
            # independent of the stored levels: mu_{s,0} times the survival product
            expected[s, :-1] = [dist.mu0[s] * reference_survival(model, s, i)
                                for i in range(m + extra)]
            expected[s, -1] = (dist.mu0[s] * reference_survival(model, s, m + extra)
                               / model.dwell.tail[s])
        assert expected.sum() == pytest.approx(1.0, abs=1e-12)
        keep = expected.ravel() > 0.0
        assert observed[~keep].sum() == 0
        assert (t > m).mean() > 0.1
        assert sps.chisquare(observed[keep], draws * expected.ravel()[keep]).pvalue > 1e-3

    def test_tiny_tail_hazard_draws_exact_geometric(self):
        # dwell t of the swap chain at q = 1e-6: P[t >= k] = (1 - q)^k, binned
        # at the law's exact deciles (t is about 1e6 on average)
        q = 1e-6
        dist = stationary_distribution(make_two_state_swap(q))
        draws = 20000
        _, t = dist.sample(np.random.default_rng(21).random((draws, 2)))
        edges = np.ceil(np.log1p(-np.arange(1, 10) / 10) / np.log1p(-q)).astype(np.int64)
        tail = (1.0 - q) ** np.concatenate([[0], edges]).astype(float)
        probs = tail - np.append(tail[1:], 0.0)
        observed = np.bincount(np.searchsorted(edges, t, side="right"), minlength=10)
        assert sps.chisquare(observed, draws * probs).pvalue > 1e-3

    def test_zero_weight_groups_never_drawn(self):
        # q = 1 at dwell 1: dwell 2 and the tail t >= 3 have zero mass
        model = validate_model(ChangeKernel(np.array([[0.0, 1.0], [1.0, 0.0]])),
                               DwellKernel.homogeneous(2, [0.3, 1.0, 0.2], 0.5))
        dist = stationary_distribution(model)
        u = np.random.default_rng(8).random((5000, 2))
        u[:10, 0] = 0.0
        u[10:20, 0] = np.nextafter(1.0, 0.0)
        x, t = dist.sample(u)
        assert set(zip(x.tolist(), t.tolist())) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert (x[10:20] == 1).all() and (t[10:20] == 1).all()


class TestRunEnsemble:
    def test_deterministic_periodic_chain_zero_gaoi(self):
        config = RunConfig(
            model=make_cycle(3), policies=(PERIODIC_50,), horizon=200, num_paths=1,
            base_seed=1,
        )
        [stats] = run_ensemble(config)
        assert stats.mean["cum_gaoi"] == 0.0
        assert not stats.mean_gaoi_series.any()

    def test_schedule_independent_of_path_stream(self):
        # swapping the base seed's path salt must not move the schedules:
        # schedules derive only from the policy stream
        from gaoi.ensemble import POLICY_SALT
        from gaoi.schedule import generate_schedules

        seed = 31
        for k in range(5):
            sched = generate_schedules(GREEDY_2080, 300, [derive_stream(seed, k, POLICY_SALT)])
            again = generate_schedules(GREEDY_2080, 300, [derive_stream(seed, k, POLICY_SALT)])
            assert rows(sched) == rows(again)

    def test_proportionality_relation_small_ensemble(self):
        config = RunConfig(
            model=make_two_state_swap(0.6), policies=(PERIODIC_50,), horizon=1000,
            num_paths=300, base_seed=12,
        )
        [stats] = run_ensemble(config)
        assert stats.mean["cum_delay"] == pytest.approx(
            0.6 * stats.mean["cum_aoi"], rel=0.05
        )

    def test_bayes_residual_near_constant(self):
        model = BayesModel(0.04)
        config = RunConfig(
            model=model, policies=(PolicySpec(kind="periodic", period=5,
                                              delay=DelayLaw.deterministic(0)),),
            horizon=100, num_paths=500, base_seed=3,
        )
        [stats] = run_ensemble(config)
        residual = stats.mean["cum_gaoi"] - model.h1 / model.p * stats.mean["cum_delay"]
        se = model.h1 / model.p * stats.se["cum_delay"]
        assert abs(residual - bayes_constant_c(model, 100)) <= 4 * se

    def test_standard_error_scales_with_paths(self):
        base = dict(model=make_two_state_swap(0.6), policies=(GREEDY_2080,),
                    horizon=1000, base_seed=5)
        [small] = run_ensemble(RunConfig(num_paths=250, **base))
        [large] = run_ensemble(RunConfig(num_paths=1000, **base))
        ratio = large.se["cum_delay"] / small.se["cum_delay"]
        assert 0.4 <= ratio <= 0.6


EQUIVALENCE_MODELS = {"swap": make_two_state_swap(0.6), "ragged": make_ragged_three()}


def _both_samplers(model, paths: int = 400, horizon: int = 100):
    """Paths from repeated joint_step and from sample_block, same starts.

    Returns (x0, changed, states) per sampler, arrays shaped (paths, slots).
    """
    x0 = np.arange(paths) % model.alphabet_size
    rng = np.random.default_rng(2024)
    ref_states = np.empty((paths, horizon), dtype=np.int64)
    ref_dwells = np.empty((paths, horizon), dtype=np.int64)
    for k in range(paths):
        x, t = int(x0[k]), 0
        for n in range(horizon):
            x, t = joint_step(model, x, t, rng)
            ref_states[k, n], ref_dwells[k, n] = x, t
    changed, states = _per_slot(model, x0, np.zeros(paths, dtype=int),
                                np.random.default_rng(2025).random((paths, horizon, 2)))
    return (x0, ref_dwells == 0, ref_states), (x0, changed, states)


@pytest.fixture(scope="module")
def equivalence_samples():
    return {name: _both_samplers(model) for name, model in EQUIVALENCE_MODELS.items()}


def _dwell_lengths(x0, changed, states):
    return np.concatenate([np.diff(np.flatnonzero(row)) for row in changed])


def _change_counts(x0, changed, states):
    return changed.sum(axis=1)


def _change_transitions(x0, changed, states):
    """(status before, status after) at every change, coded before * 3 + after."""
    before = np.column_stack([x0, states[:, :-1]])
    return before[changed] * 3 + states[changed]


def _homogeneity_pvalue(a: np.ndarray, b: np.ndarray, bins: int | None = 10) -> float:
    """Chi-square test that two samples share one law.

    Numeric samples are cut at the pooled deciles; ``bins=None`` keeps every
    distinct value as its own category.
    """
    pooled = np.concatenate([a, b])
    if bins is None:
        edges = np.unique(pooled)[1:]
    else:
        edges = np.unique(np.quantile(pooled, np.linspace(0, 1, bins + 1))[1:-1])
    table = np.array([
        np.bincount(np.searchsorted(edges, v, side="right"), minlength=len(edges) + 1)
        for v in (a, b)
    ])
    return sps.chi2_contingency(table[:, table.sum(axis=0) > 0]).pvalue


class TestBayesBranch:
    @pytest.mark.parametrize("p", [1e-8, 0.04, 0.5, 0.95])
    def test_series_matches_per_slot_closed_form(self, rng, p):
        model = BayesModel(p)
        horizon = 100
        survival = survival_table(model, horizon)
        block = random_schedule(horizon, rng, 30)
        ages = aoi_block(block)
        series = bayes.bayes_gaoi_series(model, ages)
        assert series.shape == ages.shape
        for row, ages_row, total in zip(series, ages, bayes_cumulative_gaoi(model, block)):
            reference = [h_closed(model, int(a) + 1) * survival[n - int(a)]
                         for n, a in enumerate(ages_row)]
            assert np.array_equal(row, reference)
            assert abs(row.sum() - total) <= 1e-12 * total

    @pytest.mark.parametrize("policy", [PERIODIC_50, GREEDY_2080])
    def test_mean_series_sums_to_mean_cumulative(self, policy):
        [stats] = run_ensemble(RunConfig(model=BayesModel(0.04), policies=(policy,),
                                         horizon=300, num_paths=30, base_seed=8))
        cum = stats.mean["cum_gaoi"]
        assert abs(stats.mean_gaoi_series.sum() - cum) <= 1e-12 * cum

    def test_closed_form_calls_do_not_grow_with_horizon(self, monkeypatch):
        calls = {"h_closed": 0, "binary_entropy": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(bayes, "h_closed", counted("h_closed", bayes.h_closed))
        entropy = counted("binary_entropy", bayes.binary_entropy)
        monkeypatch.setattr(bayes, "binary_entropy", entropy)
        monkeypatch.setattr(markov, "binary_entropy", entropy)
        counts = []
        for horizon in (50, 400):
            calls.update(h_closed=0, binary_entropy=0)
            run_ensemble(RunConfig(model=BayesModel(0.04), policies=(GREEDY_2080,),
                                   horizon=horizon, num_paths=20, base_seed=4))
            counts.append(dict(calls))
        assert counts[0] == counts[1]
        assert counts[0]["h_closed"] > 0 and counts[0]["binary_entropy"] > 0


class TestSamplerEquivalence:
    """sample_block against repeated joint_step (same law, different draws)
    and against the declared change probability."""

    def test_empirical_change_frequency(self):
        # 10^6 slots in lockstep: 1000 paths of 1000 slots, every slot a
        # change with probability 0.6 from any start
        model = make_two_state_swap(0.6)
        paths, horizon = 1000, 1000
        uniforms = np.random.default_rng(7).random((paths, horizon, 2))
        changed, _ = _per_slot(model, np.zeros(paths, dtype=int), np.zeros(paths, dtype=int),
                               uniforms)
        assert changed.mean() == pytest.approx(0.6, abs=2e-3)

    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_MODELS))
    @pytest.mark.parametrize("statistic, bins", [
        (_dwell_lengths, 10), (_change_counts, 10), (_change_transitions, None),
    ])
    def test_same_law_as_joint_step(self, equivalence_samples, name, statistic, bins):
        reference, block = equivalence_samples[name]
        a, b = statistic(*reference), statistic(*block)
        assert len(a) > 1000 or statistic is _change_counts
        assert _homogeneity_pvalue(a, b, bins) > 1e-3

    def test_path_alone_equals_path_in_block(self):
        model, horizon, seed = make_ragged_three(), 200, 5
        x0, t0 = np.arange(12) % 3, np.arange(12)
        uniforms = np.stack(
            [derive_stream(seed, k, PATH_SALT).random((horizon, 2)) for k in range(12)]
        )
        changed, states = _per_slot(model, x0, t0, uniforms)
        for k in range(12):
            alone = _one_path(model, int(x0[k]), int(t0[k]), horizon,
                              derive_stream(seed, k, PATH_SALT))
            assert np.array_equal(alone[0], changed[k])
            assert np.array_equal(alone[1], states[k])

    @pytest.mark.parametrize("block_paths", [1, 3, 64])
    def test_ensemble_independent_of_block_size(self, monkeypatch, block_paths):
        config = RunConfig(model=make_ragged_three(), policies=(GREEDY_2080,), horizon=150,
                           num_paths=70, base_seed=8)
        [default] = run_ensemble(config)
        monkeypatch.setattr(ensemble, "BLOCK_PATHS", block_paths)
        [other] = run_ensemble(config)
        assert default.mean == other.mean and default.se == other.se
        for name in METRICS:
            assert np.array_equal(default.values[name], other.values[name])
        assert np.array_equal(default.mean_aoi_series, other.mean_aoi_series)
        assert np.array_equal(default.mean_gaoi_series, other.mean_gaoi_series)


def _first_change_by_joint_step(model, x0: int, t0: int, draws: int, horizon: int):
    """The first change slot (capped at horizon + 1) of ``draws`` paths of
    repeated ``joint_step`` from (x0, t0)."""
    rng = np.random.default_rng(2026)
    first = np.empty(draws, dtype=np.int64)
    for k in range(draws):
        x, t, n = x0, t0, 0
        while n < horizon:
            (x, t), n = joint_step(model, x, t, rng), n + 1
            if t == 0:
                break
        else:
            n = horizon + 1
        first[k] = n
    return first


class TestRenewalLaw:
    """The renewal sampler's draws against exact expectations and laws."""

    @pytest.mark.parametrize("name", ["swap", "ragged", "split", "sticky"])
    def test_mean_changes_equal_stationary_rate(self, name):
        # from a stationary start, E[changes in [1, T]] = T P[T_n = 0] exactly
        model = {"swap": make_two_state_swap(0.6), "ragged": make_ragged_three(),
                 "split": make_split_hazards(), "sticky": make_sticky(150)}[name]
        paths, horizon = 2000, 200
        x0, t0 = model.law.sample(np.random.default_rng(31).random((paths, 2)))
        uniforms = np.random.default_rng(32).random((paths, horizon, 2))
        changes = (sample_block(model, x0, t0, uniforms) <= horizon).sum(axis=1)
        se = changes.std(ddof=1) / np.sqrt(paths)
        assert abs(changes.mean() - horizon * model.p_change) <= 4 * se

    @pytest.mark.parametrize("model_name, t0", [
        ("ragged", 0), ("ragged", 2), ("ragged", 3), ("ragged", 10),
        ("sticky", 0), ("sticky", 40), ("sticky", 60), ("sticky", 200),
    ])
    def test_first_change_matches_joint_step(self, model_name, t0):
        # status 0 from dwell 0, inside the prefix, at m and past m; the
        # ragged status 0 has hazard 0 at dwell 0, the sticky one is cut to
        # a 60-slot prefix
        model = {"ragged": make_ragged_three(), "sticky": make_sticky(60)}[model_name]
        draws, horizon = 2000, 400
        reference = _first_change_by_joint_step(model, 0, t0, draws, horizon)
        uniforms = np.random.default_rng(2027).random((draws, horizon, 2))
        slots = sample_block(model, np.zeros(draws, dtype=int), np.full(draws, t0), uniforms)
        first = np.minimum(slots[:, 0], horizon + 1)
        assert (first >= 1).all()
        assert _homogeneity_pvalue(reference, first) > 1e-3

    def test_tiny_tail_hazard_dwells_exact_geometric(self):
        # dwells of the swap chain at q = 1e-6: P[D > k] = (1 - q)^k, binned
        # at the law's exact deciles (D is about 1e6 on average, so the
        # dwells are drawn directly, past any horizon)
        q, draws = 1e-6, 20000
        model = make_two_state_swap(q)
        u = np.random.default_rng(22).random(draws)
        x = np.arange(draws) % 2
        dwells = ensemble._dwell_ends(model, x, 1.0 - u)
        edges = np.ceil(np.log1p(-np.arange(1, 10) / 10) / np.log1p(-q)).astype(np.int64)
        tail = (1.0 - q) ** np.concatenate([[0], edges]).astype(float)
        probs = tail - np.append(tail[1:], 0.0)
        observed = np.bincount(np.searchsorted(edges, dwells, side="left"), minlength=10)
        assert (dwells >= 1).all()
        assert sps.chisquare(observed, draws * probs).pvalue > 1e-3

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_independent_of_chunk_size(self, monkeypatch, chunk):
        model, paths, horizon = make_ragged_three(), 40, 150
        x0, t0 = np.arange(paths) % 3, np.arange(paths) % 5
        uniforms = np.random.default_rng(12).random((paths, horizon, 2))
        config = RunConfig(model=model, policies=(GREEDY_2080,), horizon=horizon,
                           num_paths=70, base_seed=8)
        default = _per_slot(model, x0, t0, uniforms), run_ensemble(config)[0]
        monkeypatch.setattr(ensemble, "CHUNK_CHANGES", chunk)
        other = _per_slot(model, x0, t0, uniforms), run_ensemble(config)[0]
        for a, b in zip(default[0], other[0]):
            assert np.array_equal(a, b)
        assert default[1].mean == other[1].mean and default[1].se == other[1].se
        for name in METRICS:
            assert np.array_equal(default[1].values[name], other[1].values[name])


class TestSamplerEdgeCases:
    def test_horizon_one(self, rng):
        changed, states = _one_path(make_two_state_swap(0.6), 1, 4, 1, rng)
        assert changed.shape == states.shape == (1,)
        assert states[0] == (0 if changed[0] else 1)
        [stats] = run_ensemble(RunConfig(model=make_two_state_swap(0.6),
                                         policies=(GREEDY_2080,), horizon=1, num_paths=5,
                                         base_seed=3))
        # age 0 at slot 0; a change at slot 1 = T is detected at T
        assert stats.mean["cum_aoi"] == 0.0 and stats.mean["cum_delay"] == 0.0
        assert 0.0 <= stats.mean["num_changes"] <= 1.0
        assert stats.mean_aoi_series.shape == (1,)

    def test_one_and_two_paths(self):
        base = dict(model=make_ragged_three(), policies=(GREEDY_2080,), horizon=300,
                    base_seed=17)
        [one] = run_ensemble(RunConfig(num_paths=1, **base))
        [two] = run_ensemble(RunConfig(num_paths=2, **base))
        assert all(v == 0.0 for v in one.se.values())
        for name in ("cum_aoi", "cum_delay", "num_changes"):
            # path 0 is shared, so the two-path SE is |v0 - v1| / 2 = |mean1 - mean2|
            assert two.se[name] == pytest.approx(abs(one.mean[name] - two.mean[name]), rel=1e-12)

    def test_q_one_cycle(self):
        model, horizon = make_cycle(3), 60
        x0 = np.arange(9) % 3
        changed, states = _per_slot(model, x0, np.arange(9),
                                    np.random.default_rng(4).random((9, horizon, 2)))
        assert changed.all()
        assert np.array_equal(states, (x0[:, None] + np.arange(1, horizon + 1)) % 3)
        [stats] = run_ensemble(RunConfig(model=model, policies=(GREEDY_2080,),
                                         horizon=horizon, num_paths=20, base_seed=4))
        assert stats.mean["num_changes"] == horizon and stats.se["num_changes"] == 0.0
        # a change in every slot: total delay is the delay double sum, which equals the
        # cumulative AoI of each schedule exactly
        assert stats.mean["cum_delay"] == stats.mean["cum_aoi"]
        assert stats.se["cum_delay"] == stats.se["cum_aoi"]

    def test_zero_probability_targets_never_drawn(self):
        rows = np.array([
            [0.0, 0.3, 0.6, 0.1, 0.0],  # float row sum just below 1
            [0.5, 0.0, 0.0, 0.5, 0.0],
            [0.0, 0.0, 0.7, 0.2, 0.1],
            [0.25, 0.25, 0.25, 0.25, 0.0],
            [1.0, 0.0, 0.0, 0.0, 0.0],
        ])
        model = validate_model(ChangeKernel(rows), DwellKernel.homogeneous(5, [], 1.0))
        paths, horizon = 50, 400
        uniforms = np.random.default_rng(6).random((paths, horizon, 2))
        # the first paths always jump from the bottom or the top of the CDF
        uniforms[:10, :, 1] = 0.0
        uniforms[10:20, :, 1] = np.nextafter(1.0, 0.0)
        x0 = np.arange(paths) % 5
        changed, states = _per_slot(model, x0, np.zeros(paths, dtype=int), uniforms)
        assert changed.all()
        before = np.column_stack([x0, states[:, :-1]])
        drawn = set(zip(before.ravel().tolist(), states.ravel().tolist()))
        assert drawn == set(zip(*np.argwhere(rows).T.tolist()))

    def test_dwells_past_int64_never_change(self):
        # at hazard 1e-300 a dwell is far past int64 (capped at 2**62): the
        # sampler must keep every such path unchanged, with no overflow
        model = make_two_state_swap(1e-300)
        changed, states = _per_slot(model, np.arange(40) % 2, np.zeros(40, dtype=int),
                                    np.random.default_rng(3).random((40, 50, 2)))
        assert not changed.any()
        assert np.array_equal(states[:, -1], np.arange(40) % 2)
        [stats] = run_ensemble(RunConfig(model=model, policies=(GREEDY_2080,), horizon=50,
                                         num_paths=40, base_seed=3))
        assert stats.mean["num_changes"] == 0.0 and stats.mean["cum_delay"] == 0.0

    def test_initial_dwell_past_prefix(self):
        # no change possible in the first 3 dwell slots, certain change after
        model = validate_model(ChangeKernel(np.array([[0.0, 1.0], [1.0, 0.0]])),
                               DwellKernel.homogeneous(2, [0.0, 0.0, 0.0], 1.0))
        horizon = 12
        t0 = np.array([0, 2, 3, 5, 40])
        changed, _ = _per_slot(model, np.zeros(5, dtype=int), t0,
                               np.random.default_rng(9).random((5, horizon, 2)))
        first = changed.argmax(axis=1) + 1
        assert np.array_equal(first, [4, 2, 1, 1, 1])
        for k in range(5):
            alone, _ = _one_path(model, 0, int(t0[k]), horizon, np.random.default_rng(k))
            slots = np.flatnonzero(alone) + 1
            assert slots[0] == first[k]
            assert np.array_equal(np.diff(slots), np.full(len(slots) - 1, 4))


def make_edge_three():
    """Status 0 has a hazard-1 prefix entry, so S_0(2) = 0 and a start at
    (0, t >= 2) cannot be reached; rows 0 and 2 end in a zero-probability entry."""
    rows = np.array([[0.5, 0.5, 0.0], [0.3, 0.0, 0.7], [0.2, 0.8, 0.0]])
    return validate_model(ChangeKernel(rows),
                          DwellKernel.from_lists([[0.2, 1.0], [0.5], []], [0.3, 0.6, 0.4]))


class TestSamplerMatchesReference:
    @pytest.mark.parametrize("name", ["ragged", "split", "sticky", "edge"])
    def test_bit_for_bit(self, name):
        model = {"ragged": make_ragged_three, "split": make_split_hazards,
                 "sticky": lambda: make_sticky(60), "edge": make_edge_three}[name]()
        n, m = model.alphabet_size, model.dwell.prefix_len
        paths, horizon = 90, 200
        rng = np.random.default_rng(41)
        uniforms = rng.random((paths, horizon, 2))
        # jumps on uniforms equal to a CDF bound, as sample_block computes the bounds
        cdf = np.cumsum(model.change.rows, axis=1)
        bounds = (cdf / cdf[:, -1:])[:, :-1].ravel()
        uniforms[0::3, :, 1] = rng.choice(bounds, size=(30, horizon))
        # dwells from level 0 to a target 1 - u equal to a survival level
        levels = model.survival[:, 1:].ravel()
        exact = levels[(levels > 0.0) & (1.0 - (1.0 - levels) == levels)]
        if len(exact):
            uniforms[1::3, :, 0] = 1.0 - rng.choice(exact, size=(30, horizon))
        x0 = (np.arange(paths) // 3) % n
        t0 = rng.integers(0, m + 3, size=paths)  # inside, at and past the prefix
        slots = sample_block(model, x0, t0, uniforms)
        for k in range(paths):
            want = reference_change_slots(model, x0[k], t0[k], uniforms[k])
            assert slots[k, slots[k] <= horizon].tolist() == want, k


class TestSamplerMemory:
    @pytest.mark.parametrize("n, m", [(300, 0), (60, 2000)])
    def test_traced_peak_below_16_mib(self, n, m):
        # the sampler's own memory is O(n (n + m)): no table over every
        # status's levels for every status
        rng = np.random.default_rng(n)
        dwell = DwellKernel(rng.uniform(0.002, 0.1, size=(n, m)), rng.uniform(0.1, 0.9, size=n))
        model = validate_model(ChangeKernel(rng.dirichlet(np.ones(n), size=n)), dwell)
        model.survival  # the model's own table, built once per model
        uniforms = rng.random((64, 200, 2))
        tracemalloc.start()
        try:
            sample_block(model, np.arange(64) % n, np.zeros(64, dtype=int), uniforms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"{peak / 2**20:.1f} MiB"


def test_tail_drawn_only_past_prefix(monkeypatch):
    # on the sticky model nearly every dwell ends inside its 170-slot
    # prefix; those must not draw a geometric tail
    model = make_sticky(170)
    seen = {"dwells": 0, "tails": 0}
    dwell_ends, geometric_tail = ensemble._dwell_ends, ensemble.geometric_tail

    def counted_dwells(model, x, target):
        seen["dwells"] += x.size
        return dwell_ends(model, x, target)

    def counted_tails(u, q, x):
        seen["tails"] += u.size
        return geometric_tail(u, q, x)
    monkeypatch.setattr(ensemble, "_dwell_ends", counted_dwells)
    monkeypatch.setattr(ensemble, "geometric_tail", counted_tails)
    rng = np.random.default_rng(170)
    x0, t0 = model.law.sample(rng.random((256, 2)))
    sample_block(model, x0, t0, rng.random((256, 1000, 2)))
    assert seen["dwells"] > 10_000
    assert seen["tails"] <= 0.02 * seen["dwells"], seen


ENSEMBLE_MODELS = {"swap": make_two_state_swap(0.6), "ragged": make_ragged_three(),
                   "bayes": BayesModel(0.04), "bayes_even": BayesModel(0.5)}
ENSEMBLE_POLICIES = {
    "periodic_fixed": PolicySpec(kind="periodic", period=7, delay=DelayLaw.deterministic(3)),
    # a sample in every slot, delivered at once: every slot before T detects itself
    "periodic_instant": PolicySpec(kind="periodic", period=1, delay=DelayLaw.deterministic(0)),
    "periodic_random": PolicySpec(kind="periodic", period=5, delay=DelayLaw.uniform(0, 12)),
    "greedy_fixed": PolicySpec(kind="greedy", delay=DelayLaw.uniform(4, 4)),
    "greedy_random": PolicySpec(kind="greedy", delay=DelayLaw.uniform(2, 8)),
    "explicit": PolicySpec(kind="explicit",
                           pairs=((3, 9), (5, 6), (20, 41), (30, 35), (90, 130))),
}


@pytest.fixture(scope="module")
def reference_stats():
    """The per-path reference loop, once per (model, policy, horizon)."""
    cache = {}

    def get(model_name, policy_name, horizon=120):
        key = model_name, policy_name, horizon
        if key not in cache:
            cache[key] = reference_ensemble(_reference_config(model_name, horizon=horizon),
                                            ENSEMBLE_POLICIES[policy_name])
        return cache[key]
    return get


def _reference_config(model_name, *policy_names, horizon=120):
    return RunConfig(model=ENSEMBLE_MODELS[model_name],
                     policies=tuple(ENSEMBLE_POLICIES[name] for name in policy_names),
                     horizon=horizon, num_paths=10, base_seed=11)


def _assert_identical(stats, other):
    """Two ensembles' results equal bit for bit."""
    assert stats.mean == other.mean and stats.se == other.se
    for name in METRICS:
        assert np.array_equal(stats.values[name], other.values[name])
    assert np.array_equal(stats.mean_aoi_series, other.mean_aoi_series)
    assert np.array_equal(stats.mean_gaoi_series, other.mean_gaoi_series)


class TestEnsembleMatchesReference:
    @pytest.mark.parametrize("horizon", [1, 2, 120])
    @pytest.mark.parametrize("block_paths", [1, 3, 256])
    @pytest.mark.parametrize("policy_name", sorted(ENSEMBLE_POLICIES))
    @pytest.mark.parametrize("model_name", sorted(ENSEMBLE_MODELS))
    def test_bit_identical_to_per_path_loop(self, monkeypatch, reference_stats, model_name,
                                            policy_name, block_paths, horizon):
        monkeypatch.setattr(ensemble, "BLOCK_PATHS", block_paths)
        [stats] = run_ensemble(_reference_config(model_name, policy_name, horizon=horizon))
        _assert_identical(stats, reference_stats(model_name, policy_name, horizon))
        if horizon == 1 and model_name != "bayes":
            # the edges of the delay gather occur: some path changes at slot
            # T (delay 0), and some (a Bayesian theta > T) does not change
            assert set(stats.values["num_changes"].tolist()) == {0.0, 1.0}

    @pytest.mark.parametrize("block_paths", [7, 256])
    def test_start_status_reaches_the_sampler(self, monkeypatch, block_paths):
        # about 13 % of the stationary law sits outside status 0, so some of
        # 200 paths start in a status whose hazard differs from status 0's by
        # 10 to 19 times: any start status but the drawn one moves their changes
        policy = ENSEMBLE_POLICIES["greedy_random"]
        config = RunConfig(model=make_split_hazards(), policies=(policy,), horizon=40,
                           num_paths=200, base_seed=23)
        ref = reference_ensemble(config, policy)
        monkeypatch.setattr(ensemble, "BLOCK_PATHS", block_paths)
        [stats] = run_ensemble(config)
        assert stats.mean == ref.mean and stats.se == ref.se
        assert np.array_equal(stats.mean_aoi_series, ref.mean_aoi_series)

    @pytest.mark.parametrize("policy_name, policy_streams", [
        ("periodic_fixed", 0), ("greedy_fixed", 0), ("explicit", 0),
        ("periodic_random", 10), ("greedy_random", 10),
    ])
    def test_policy_streams_only_for_random_delays(self, monkeypatch, policy_name,
                                                   policy_streams):
        salts = []
        at = ensemble.StreamFamily.at

        def counted(family, k):
            salts.append(family.salt)
            return at(family, k)

        monkeypatch.setattr(ensemble.StreamFamily, "at", counted)
        run_ensemble(_reference_config("bayes", policy_name))
        assert salts.count(POLICY_SALT) == policy_streams
        assert salts.count(PATH_SALT) == 10


class TestPoliciesShareSourcePaths:
    """Every policy of a run sees the same source paths, sampled once."""

    POLICIES = ("periodic_fixed", "greedy_random", "explicit")

    @pytest.mark.parametrize("block_paths", [1, 256])
    @pytest.mark.parametrize("model_name", sorted(ENSEMBLE_MODELS))
    def test_k_policies_equal_k_one_policy_runs(self, monkeypatch, model_name, block_paths):
        monkeypatch.setattr(ensemble, "BLOCK_PATHS", block_paths)
        together = run_ensemble(_reference_config(model_name, *self.POLICIES))
        assert len(together) == len(self.POLICIES)
        for policy_name, stats in zip(self.POLICIES, together):
            [alone] = run_ensemble(_reference_config(model_name, policy_name))
            _assert_identical(stats, alone)

    @pytest.mark.parametrize("model_name, blocks, starts", [
        ("ragged", [4, 4, 2], 10), ("bayes", [], 0),
    ])
    def test_source_sampled_once_per_block(self, monkeypatch, model_name, blocks, starts):
        # one sample_block per block of 4 paths, and one reset of the path
        # (and start) stream per path, however many policies read them
        monkeypatch.setattr(ensemble, "BLOCK_PATHS", 4)
        sampled, salts = [], []
        sample, at = ensemble.sample_block, ensemble.StreamFamily.at

        def counted_sample(model, x0, t0, uniforms):
            sampled.append(len(x0))
            return sample(model, x0, t0, uniforms)

        def counted_at(family, k):
            salts.append(family.salt)
            return at(family, k)

        monkeypatch.setattr(ensemble, "sample_block", counted_sample)
        monkeypatch.setattr(ensemble.StreamFamily, "at", counted_at)
        run_ensemble(_reference_config(model_name, *self.POLICIES))
        assert sampled == blocks
        assert salts.count(PATH_SALT) == 10 and salts.count(INIT_SALT) == starts
        assert salts.count(POLICY_SALT) == 10  # greedy_random alone draws delays
