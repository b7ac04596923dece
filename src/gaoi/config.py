"""Run configuration: config-file reading (fail-closed) and the built-in presets.

A config file is JSON, read with the standard library's ``json`` and nothing
else. Every config mapping (the document and its model, policy, delay, dwell
entry and run sections) passes one key rule, ``_keys``: it holds every key it
needs and no other but those it takes.  A model or policy section reads its
kind first, then takes that kind's keys from ``MODEL_KINDS`` or
``POLICY_KINDS``: a key its kind does not take (a period on a greedy policy)
is an error.

Error messages show values through ``reprlib.repr``, so a deeply nested or huge
value gives a one-line message, never a traceback.
"""

from __future__ import annotations

from pathlib import Path
from reprlib import repr as _show
from typing import TYPE_CHECKING

import numpy as np

from ._base import ModelError, _Value
from .schedule import DelayLaw, PolicySpec

if TYPE_CHECKING:  # a model's layer loads only when a config names its kind
    from .bayes import BayesModel
    from .markov import JointModel


class ConfigError(ValueError):
    """Malformed or unknown configuration content."""


class RunConfig(_Value):
    """One run: a model, its policies, the horizon, the number of paths and
    the base seed."""

    __match_args__ = ("model", "policies", "horizon", "num_paths", "base_seed")

    def __init__(self, model: JointModel | BayesModel, policies: tuple[PolicySpec, ...],
                 horizon: int, num_paths: int, base_seed: int):
        self._init(model=model, policies=policies, horizon=horizon, num_paths=num_paths,
                   base_seed=base_seed)
        # every run is checked here: from a file, a preset or the CLI's overrides
        for name, least in (("horizon", 1), ("num_paths", 1), ("base_seed", 0)):
            value = getattr(self, name)
            if value < least:
                raise ConfigError(f"run.{name} must be >= {least}, got {_show(value)}")
            # a size indexes int64 arrays (and one below 2**63 may still not fit in memory)
            if name != "base_seed" and value >= 2**63:
                raise ConfigError(f"run.{name} must be < 2**63, got {_show(value)}")

    @property
    def is_bayesian(self) -> bool:
        return self.model.kind == "bayesian"


# The keys each model and policy kind needs besides ``kind``, then the keys it
# may also take.
MODEL_KINDS = {"stationary": (("px_rows", "dwell"), ("alphabet_size",)),
               "bayesian": (("bayes_p",), ())}
POLICY_KINDS = {"periodic": (("period",), ("delay",)),
                "greedy": ((), ("delay",)),
                "explicit": (("schedule_path",), ())}


def _keys(section, where: str, need=(), take=()) -> dict:
    """The one key rule: ``section`` is a mapping that holds every key in
    ``need`` and no key outside ``need`` and ``take``."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a mapping, got {_show(section)}")
    unknown = set(section).difference(need, take)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {_show(sorted(unknown, key=str))}")
    for key in need:
        if key not in section:
            raise ConfigError(f"{where} needs {key}")
    return section


def _kind(section, where: str, kinds: dict) -> str:
    """A model or policy section's kind, after the key rule for that kind."""
    kind = _keys(section, where, take=section).get("kind")  # any keys until the kind is known
    if kind not in tuple(kinds):  # compared, not hashed: a list is no kind
        raise ConfigError(f"{where}.kind must be one of {list(kinds)}, got {_show(kind)}")
    need, take = kinds[kind]
    _keys(section, f"{where} ({kind})", ("kind", *need), take)
    return kind


def _int(value, where: str) -> int:
    """A strict integer (a float or a bool is an error)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {_show(value)}")
    return value


def _float(value, where: str) -> float:
    """A number: an int or a float (a bool is an error)."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:  # an int past the float range
            pass
    raise ConfigError(f"{where} must be a number, got {_show(value)}")


def _make(where: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with a domain check's ValueError (a hazard,
    a period or delay bounds out of range) naming the field."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list, got {_show(value)}")
    return value


def _dwell_entry(entry, where: str) -> tuple[list[float], float]:
    _keys(entry, where, ("tail",), ("prefix",))
    raw = _list(entry.get("prefix", []), f"{where}.prefix")
    prefix = [_float(v, f"{where}.prefix[{i}]") for i, v in enumerate(raw)]
    return prefix, _float(entry["tail"], f"{where}.tail")


def _parse_dwell(raw, n_states: int) -> tuple:
    """A ``DwellKernel``'s arguments: one prefix and one tail per state."""
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return [[]] * n_states, [_float(raw, "model.dwell")] * n_states
    if isinstance(raw, dict):
        prefix, tail = _dwell_entry(raw, "model.dwell")
        return [prefix] * n_states, [tail] * n_states
    if isinstance(raw, list):
        if len(raw) != n_states:
            raise ConfigError(f"model.dwell must hold one entry per state ({n_states}), "
                              f"got {len(raw)}")
        entries = (_dwell_entry(e, f"model.dwell[{i}]") for i, e in enumerate(raw))
        return tuple(zip(*entries))
    raise ConfigError("model.dwell must be a probability, a {prefix, tail} map, or a per-state list")


def _parse_model(section):
    if _kind(section, "model", MODEL_KINDS) == "bayesian":
        from .bayes import BayesModel

        return _make("model.bayes_p", BayesModel, p=_float(section["bayes_p"], "model.bayes_p"))
    raw = section["px_rows"]
    cells = np.array(raw, dtype=object)  # a ragged list stays 1-D
    if cells.ndim != 2:
        raise ConfigError(f"model.px_rows must be an n x n list of numbers, got {_show(raw)}")
    rows = np.array([[_float(v, f"model.px_rows[{i}][{j}]") for j, v in enumerate(row)]
                     for i, row in enumerate(cells)]).reshape(cells.shape)
    n = _int(section.get("alphabet_size", len(rows)), "model.alphabet_size")
    if rows.shape != (n, n):
        raise ConfigError(f"model.px_rows has shape {rows.shape}, expected ({n}, {n}) "
                          f"from model.alphabet_size")
    from .markov import ChangeKernel, DwellKernel, JointModel

    # the dwell first, so that its config errors (exit 2) come before the model
    # errors (exit 3) that ChangeKernel raises as it is built
    dwell = DwellKernel(*_parse_dwell(section["dwell"], n))
    return JointModel(ChangeKernel(rows), dwell)


def _parse_delay(raw, where: str) -> DelayLaw:
    if raw is None:
        return DelayLaw(0, 0)
    _keys(raw, where, take=("deterministic", "uniform"))
    if len(raw) != 1:
        raise ConfigError(f"{where} takes exactly one of 'deterministic' or 'uniform'")
    if "deterministic" in raw:
        where = f"{where}.deterministic"
        c = _int(raw["deterministic"], where)
        return _make(where, DelayLaw, c, c)
    where, bounds = f"{where}.uniform", raw["uniform"]
    if not isinstance(bounds, list) or len(bounds) != 2:
        raise ConfigError(f"{where} must be a [lo, hi] pair, got {_show(bounds)}")
    lo, hi = (_int(b, f"{where}[{i}]") for i, b in enumerate(bounds))
    if hi >= 2**63:  # delays are drawn as int64
        raise ConfigError(f"{where}[1] must be < 2**63, got {hi}")
    return _make(where, DelayLaw, lo, hi)


def read_explicit_pairs(path: str | Path) -> tuple[tuple[int, int], ...]:
    """Parse a two-column 's d' text file into (sample, delivery) pairs."""
    pairs = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            s, d = map(int, line.split())  # a wrong count of fields raises too
        except ValueError:
            raise ConfigError(
                f"{path}:{lineno}: expected integers 's d', got {_show(line)}") from None
        pairs.append((s, d))
    return tuple(pairs)


def _parse_policy(section, idx: int | None = None) -> PolicySpec:
    where = "policy" if idx is None else f"policies[{idx}]"
    kind = _kind(section, where, POLICY_KINDS)
    if kind == "explicit":
        path = section["schedule_path"]
        try:
            pairs = read_explicit_pairs(path)
        except (TypeError, UnicodeDecodeError) as exc:  # not a file name, or not UTF-8 text
            raise ConfigError(f"{where}.schedule_path {_show(path)}: {exc}") from None
        return _make(where, PolicySpec, kind="explicit", pairs=pairs)
    period = _int(section.get("period", 0), f"{where}.period")  # greedy takes none
    return _make(f"{where}.period", PolicySpec, kind=kind, period=period,
                 delay=_parse_delay(section.get("delay"), f"{where}.delay"))


def parse_config(data: dict) -> RunConfig:
    """Validate a config mapping; unknown keys anywhere are errors.

    This is the one boundary for config content: a malformed or out-of-range
    value raises ConfigError, a change structure that is not a valid model
    raises ModelError.
    """
    try:
        return _parse_config(data)
    except (ConfigError, ModelError):
        raise
    except (TypeError, ValueError) as exc:  # domain checks of the model and policy types
        raise ConfigError(str(exc)) from exc


def _parse_config(data: dict) -> RunConfig:
    _keys(data, "config", ("model",), ("policy", "policies", "run"))
    if "policy" in data and "policies" in data:
        raise ConfigError("config takes at most one of 'policy' or 'policies'")
    model = _parse_model(data["model"])
    if "policy" in data:
        policies = (_parse_policy(data["policy"]),)
    elif "policies" in data:
        policies = tuple(_parse_policy(p, i)
                         for i, p in enumerate(_list(data["policies"], "policies")))
    else:
        policies = ()  # enough for entropy-rate; simulate/verify demand one
    run = _keys(data.get("run", {}), "run", take=("horizon", "num_paths", "base_seed"))
    return RunConfig(
        model=model,
        policies=policies,
        horizon=_int(run.get("horizon", 1), "run.horizon"),
        num_paths=_int(run.get("num_paths", 1), "run.num_paths"),
        base_seed=_int(run.get("base_seed", 0), "run.base_seed"),
    )


def load_config(path: str | Path) -> RunConfig:
    """Read a JSON config file.

    ``json`` reads the file's bytes, so its own encoding detection (RFC 8259)
    takes UTF-8, with or without a BOM, UTF-16 and UTF-32. Text that is not
    JSON (YAML text included), an undecodable byte, an integer past Python's
    4,300-digit limit and a document nested too deeply for ``json`` are each
    a one-line ConfigError.
    """
    import json  # here, not at module level: a preset never pays for the import

    try:
        data = json.loads(Path(path).read_bytes())
    except RecursionError:
        raise ConfigError(f"cannot parse {path}: nested too deeply") from None
    except ValueError as exc:  # a JSONDecodeError, a UnicodeDecodeError or an int too long
        raise ConfigError(f"cannot parse {path}: config must be JSON: {exc}") from None
    return parse_config(data)


# Simulation presets for the two reference experiments: a symmetric two-state
# chain with change probability 0.6 (periodic sampling with instant delivery
# vs greedy sampling with uniform [20, 80] delivery delays), and the
# Bayesian change-point model with hazard 0.04 over 100 slots (period 5 vs
# greedy with uniform [2, 8] delays).
PRESETS: dict[str, dict] = {
    "fig5": {
        "model": {
            "kind": "stationary",
            "alphabet_size": 2,
            "px_rows": [[0.0, 1.0], [1.0, 0.0]],
            "dwell": 0.6,
        },
        "policies": [
            {"kind": "periodic", "period": 50, "delay": {"deterministic": 0}},
            {"kind": "greedy", "delay": {"uniform": [20, 80]}},
        ],
        "run": {"horizon": 1000, "num_paths": 1000, "base_seed": 20240101},
    },
    "fig6": {
        "model": {"kind": "bayesian", "bayes_p": 0.04},
        "policies": [
            {"kind": "periodic", "period": 5, "delay": {"deterministic": 0}},
            {"kind": "greedy", "delay": {"uniform": [2, 8]}},
        ],
        "run": {"horizon": 100, "num_paths": 2000, "base_seed": 20240102},
    },
}


def preset_config(name: str) -> RunConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return parse_config(PRESETS[name])
