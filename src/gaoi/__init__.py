"""Freshness metrics and detection-delay simulation for status-update systems."""

from .bayes import (
    BayesModel,
    bayes_constant_c,
    bayes_cumulative_gaoi,
    bayes_expected_delay,
    bayes_gaoi,
    h_closed,
)
from .ensemble import (
    EnsembleConfig,
    EnsembleStats,
    StationaryLaw,
    derive_stream,
    run_ensemble,
    simulate_path,
)
from .markov import (
    ChangeKernel,
    DwellKernel,
    EntropyRate,
    IrreducibilityError,
    JointModel,
    JointState,
    ModelError,
    StationaryDistribution,
    discrete_entropy,
    entropy_rate,
    entropy_rate_homogeneous,
    joint_step,
    prob_change,
    stationary_distribution,
    validate_model,
)
from .metrics import (
    SamplePath,
    change_delays,
    closed_form_aoi,
    cumulative_aoi,
    cumulative_gaoi_stationary,
    delay_double_sum,
    detection_delays,
    expected_cumulative_delay_stationary,
    gaoi_series_stationary,
    verify_proportionality,
)
from .oracle import (
    exact_bayes_delay,
    exact_bayes_gaoi,
    exact_conditional_entropy,
    exact_ensemble_gaoi,
)
from .schedule import (
    DelayLaw,
    PolicySpec,
    ScheduleBlock,
    ScheduleError,
    UpdateSchedule,
    aoi_series,
    filter_stale,
    generate_schedule,
    generate_schedules,
    random_schedule,
)

__all__ = [name for name in dir() if not name.startswith("_")]
