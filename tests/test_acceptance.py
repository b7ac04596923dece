"""Acceptance gate: one test per shipping criterion, each with its stated
tolerance and runtime budget.  Run with ``pytest tests/test_acceptance.py -v``
to get a single pass/fail line per criterion.
"""

import math
import time

import numpy as np
import pytest

from gaoi import (
    BayesModel,
    DelayLaw,
    PolicySpec,
    bayes_cumulative_gaoi,
    bayes_expected_delay,
    bayes_gaoi,
    closed_form_aoi,
    cumulative_aoi,
    delay_double_sum,
    derive_stream,
    exact_bayes_delay,
    exact_bayes_gaoi,
    exact_ensemble_gaoi,
    generate_schedules,
    h_closed,
    random_schedule,
    run_ensemble,
)
from gaoi.cli import main
from gaoi.config import RunConfig
from gaoi.schedule import aoi_block

from conftest import make_cycle, make_two_state_swap, random_model, run_cli_fresh
from reference import entropy_rate_homogeneous


class _Budget:
    """Context manager asserting wall-clock runtime stays under a limit."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.seconds, (
                f"runtime {elapsed:.2f}s exceeds {self.seconds}s budget"
            )


def _random_schedules(count, max_horizon, seed):
    """``count`` one-row blocks, each on its own random horizon."""
    rng = derive_stream(seed, 0, 97)
    return [
        random_schedule(int(rng.integers(2, max_horizon + 1)), rng, 1)
        for _ in range(count)
    ]


def test_criterion_1_exact_aoi_identity():
    schedules = _random_schedules(1000, 200, seed=11)
    with _Budget(1.0):
        for sched in schedules:
            assert np.array_equal(cumulative_aoi(sched), closed_form_aoi(sched))


def test_criterion_2_exact_delay_identity():
    schedules = _random_schedules(1000, 200, seed=11)
    with _Budget(1.0):
        for sched in schedules:
            assert np.array_equal(delay_double_sum(sched), closed_form_aoi(sched))


def test_criterion_3_rate_matches_one_step_oracle():
    rng = np.random.default_rng(2026)
    with _Budget(10.0):
        for i in range(50):
            homogeneous = i % 3 == 0
            model = random_model(rng, max_alphabet=4, max_prefix=10,
                                 homogeneous=homogeneous)
            oracle = exact_ensemble_gaoi(model, model.law, 1)
            assert abs(model.rate - oracle) <= 1e-9
            if homogeneous:
                split = entropy_rate_homogeneous(model)
                assert abs(model.rate - split) <= 1e-9


def test_criterion_4_gaoi_is_age_times_rate():
    rng = np.random.default_rng(404)
    with _Budget(60.0):
        for _ in range(20):
            model = random_model(rng, max_alphabet=4, max_prefix=6)
            for a in range(1, 7):
                gaoi = exact_ensemble_gaoi(model, model.law, a)
                assert abs(gaoi - a * model.rate) <= 1e-9


def test_criterion_5_cyclic_model_is_degenerate():
    model = make_cycle(3)
    assert model.rate == 0.0
    sched = random_schedule(100, np.random.default_rng(5), 1)
    series = aoi_block(sched) * model.rate
    assert np.all(series == 0.0)


def test_criterion_6_fig5_replication():
    model = make_two_state_swap(0.6)
    rate = model.rate
    p = model.p_change
    assert p == pytest.approx(0.6, abs=1e-12)
    policies = [
        PolicySpec(kind="periodic", period=50, delay=DelayLaw(0, 0)),
        PolicySpec(kind="greedy", delay=DelayLaw(20, 80)),
    ]
    with _Budget(30.0):
        for stats in run_ensemble(RunConfig(
            model=model, policies=tuple(policies), horizon=1000,
            num_paths=1000, base_seed=20240101,
        )):
            scaled = p * stats.mean["cum_aoi"]
            assert abs(stats.mean["cum_delay"] - scaled) / scaled <= 0.02
            assert stats.mean["cum_gaoi"] / rate == pytest.approx(
                stats.mean["cum_aoi"], abs=1e-9
            )


def test_criterion_7_bayes_closed_forms():
    with _Budget(5.0):
        for p in (0.04, 0.3, 0.7):
            model = BayesModel(p=p)
            for a in range(1, 13):
                assert bayes_gaoi(model, a, 0) == pytest.approx(
                    exact_bayes_gaoi(model, a), abs=1e-9
                )
        model = BayesModel(p=0.3)
        for sched in _random_schedules(100, 100, seed=77):
            assert abs(
                bayes_expected_delay(model, sched) - exact_bayes_delay(model, sched)
            )[0] <= 1e-12


def test_criterion_8_fig6_replication():
    model = BayesModel(p=0.04)
    horizon = 100
    c_t = h_closed(model, horizon)
    scale = model.h1 / model.p
    policies = [
        PolicySpec(kind="periodic", period=5, delay=DelayLaw(0, 0)),
        PolicySpec(kind="greedy", delay=DelayLaw(2, 8)),
    ]
    with _Budget(60.0):
        gen = derive_stream(88, 0, 96)
        analytic = [random_schedule(horizon, gen, 100)]
        for policy in policies:
            mid = (policy.delay.lo + policy.delay.hi) // 2
            det = PolicySpec(kind=policy.kind, period=policy.period,
                             delay=DelayLaw(mid, mid))
            analytic.append(generate_schedules(det, horizon, [gen]))
        for block in analytic:
            residual = (bayes_cumulative_gaoi(model, block)
                        - scale * bayes_expected_delay(model, block))
            assert (abs(residual - c_t) <= 1e-9).all()
        residuals = []
        for stats in run_ensemble(RunConfig(
            model=model, policies=tuple(policies), horizon=horizon,
            num_paths=2000, base_seed=20240102,
        )):
            res = stats.mean["cum_gaoi"] - scale * stats.mean["cum_delay"]
            se = scale * stats.se["cum_delay"]
            assert abs(res - c_t) <= 3.0 * se
            residuals.append((res, se))
        (r1, e1), (r2, e2) = residuals
        assert abs(r1 - r2) <= 3.0 * math.hypot(e1, e2)


def test_criterion_9_byte_identical_csvs(tmp_path):
    # two runs in this process, then one in a fresh interpreter with another
    # string-hash seed
    args = ["simulate", "--preset", "fig5", "--paths", "60"]
    assert main(args + ["--out", str(tmp_path / "r1")]) == 0
    assert main(args + ["--out", str(tmp_path / "r2")]) == 0
    fresh = run_cli_fresh(args + ["--out", str(tmp_path / "r3")])
    assert fresh.returncode == 0, fresh.stderr
    contents = [sorted((f.name, f.read_bytes()) for f in (tmp_path / name).iterdir())
                for name in ("r1", "r2", "r3")]
    assert contents[0] == contents[1] == contents[2]
