"""Freshness metrics and detection-delay simulation for status-update systems.

``import gaoi`` loads no layer: each public name below loads its layer on
first use (``gaoi.X`` or ``from gaoi import X``) and is then kept here, so an
operation pays start-up only for the layers it runs.  The layers themselves
(``gaoi.markov``, ``gaoi.oracle``, ...) import as ordinary submodules.
"""

import importlib

# Each public name, by the layer that defines it.
_LAYERS = {
    "bayes": (
        "BayesModel",
        "bayes_cumulative_gaoi",
        "bayes_expected_delay",
        "bayes_gaoi",
        "h_closed",
    ),
    "ensemble": (
        "EnsembleStats",
        "derive_stream",
        "run_ensemble",
    ),
    "markov": (
        "ChangeKernel",
        "DwellKernel",
        "IrreducibilityError",
        "JointModel",
        "ModelError",
        "StationaryDistribution",
        "discrete_entropy",
    ),
    "metrics": (
        "closed_form_aoi",
        "cumulative_aoi",
        "delay_double_sum",
    ),
    "oracle": (
        "exact_bayes_delay",
        "exact_bayes_gaoi",
        "exact_conditional_entropy",
        "exact_ensemble_gaoi",
    ),
    "schedule": (
        "DelayLaw",
        "PolicySpec",
        "ScheduleBlock",
        "ScheduleError",
        "filter_stale",
        "generate_schedules",
        "random_schedule",
    ),
}
_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = sorted(_LAYER_OF)


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{layer}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
