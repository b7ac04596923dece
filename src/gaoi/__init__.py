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
    EnsembleStats,
    derive_stream,
    run_ensemble,
)
from .markov import (
    ChangeKernel,
    DwellKernel,
    EntropyRate,
    IrreducibilityError,
    JointModel,
    ModelError,
    StationaryDistribution,
    discrete_entropy,
    entropy_rate,
    stationary_distribution,
    validate_model,
)
from .metrics import (
    closed_form_aoi,
    cumulative_aoi,
    delay_double_sum,
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
    filter_stale,
    generate_schedules,
    random_schedule,
)

__all__ = [name for name in dir() if not name.startswith("_")]
