"""Run configuration: config-file reading (fail-closed) and the built-in presets.

``load_config`` reads the file's bytes once. Text that decodes as strict UTF-8
and is a JSON document is read with the standard library's ``json``; PyYAML is
imported only for any other text, so a JSON config (the shape a generated
config takes) never pays for the import. JSON that PyYAML can read is a subset
of YAML as configs are read here: every JSON number goes through the same
``float()``/``int()`` that YAML's resolver and ``_float`` apply, so a JSON file
gives the same ``RunConfig`` bit for bit either way. JSON text that PyYAML
refuses (a character outside YAML's printable set, such as a raw U+007F, or a
``\\uD800``-``\\uDFFF`` escape, which libyaml refuses) goes to PyYAML and fails
as its YAML reading does. The choice is made from the content alone, with no
flag or file-extension rule.

Other text, and bytes that are not strict UTF-8 (a BOM, UTF-16 or UTF-32, or an
undecodable byte), go to PyYAML, so YAML's own encoding detection applies and an
undecodable byte is a parse error like any other. It parses with libyaml's C
parser (``yaml.CSafeLoader``) when the installed PyYAML has it, else with the
pure-Python ``yaml.SafeLoader``. Both pair their parser with ``safe_load``'s
constructor and resolver, so every scalar resolves the same way (YAML 1.1:
``1e-3``, with no dot, is a string, which the number fields accept); only the
text of a syntax error differs.

Error messages show values through ``reprlib.repr``, so a deeply nested or huge
value gives a one-line message, never a traceback.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from reprlib import repr as _show

import numpy as np

from .bayes import BayesModel
from .markov import ChangeKernel, DwellKernel, JointModel, ModelError, validate_model
from .schedule import DelayLaw, PolicySpec


class ConfigError(ValueError):
    """Malformed or unknown configuration content."""


@dataclass(frozen=True)
class RunConfig:
    model: JointModel | BayesModel
    policies: tuple[PolicySpec, ...]
    horizon: int
    num_paths: int
    base_seed: int

    def __post_init__(self):
        # every run is checked here: from a file, a preset or dataclasses.replace
        for name, least in (("horizon", 1), ("num_paths", 1), ("base_seed", 0)):
            value = getattr(self, name)
            if value < least:
                raise ConfigError(f"run.{name} must be >= {least}, got {_show(value)}")
            # a size indexes int64 arrays (and one below 2**63 may still not fit in memory)
            if name != "base_seed" and value >= 2**63:
                raise ConfigError(f"run.{name} must be < 2**63, got {_show(value)}")

    @property
    def is_bayesian(self) -> bool:
        return isinstance(self.model, BayesModel)


def _require_keys(section, allowed: set[str], where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a mapping, got {_show(section)}")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {_show(sorted(unknown, key=str))}")


def _int(value, where: str) -> int:
    """A strict integer (a float or a bool is an error)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {_show(value)}")
    return value


def _float(value, where: str) -> float:
    """A number: an int, a float or a numeric string (YAML 1.1 reads 1e-3,
    with no dot, as the string '1e-3'); a bool is an error."""
    if not isinstance(value, bool) and isinstance(value, (int, float, str)):
        try:
            return float(value)
        except (ValueError, OverflowError):  # text, or an int past the float range
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
    _require_keys(entry, {"prefix", "tail"}, where)
    if "tail" not in entry:
        raise ConfigError(f"{where} needs tail")
    raw = _list(entry.get("prefix", []), f"{where}.prefix")
    prefix = [_float(v, f"{where}.prefix[{i}]") for i, v in enumerate(raw)]
    return prefix, _float(entry["tail"], f"{where}.tail")


def _parse_dwell(raw, n_states: int) -> DwellKernel:
    if isinstance(raw, (int, float, str)) and not isinstance(raw, bool):
        return DwellKernel.homogeneous(n_states, [], _float(raw, "model.dwell"))
    if isinstance(raw, dict):
        return DwellKernel.homogeneous(n_states, *_dwell_entry(raw, "model.dwell"))
    if isinstance(raw, list):
        if len(raw) != n_states:
            raise ConfigError(f"model.dwell needs one entry per state ({n_states}), "
                              f"got {len(raw)}")
        prefixes, tails = zip(*(_dwell_entry(e, f"model.dwell[{i}]") for i, e in enumerate(raw)))
        return DwellKernel.from_lists(list(prefixes), list(tails))
    raise ConfigError("model.dwell must be a probability, a {prefix, tail} map, or a per-state list")


def _parse_model(section: dict):
    _require_keys(section, {"kind", "alphabet_size", "px_rows", "dwell", "bayes_p"}, "model")
    kind = section.get("kind")
    if kind == "bayesian":
        if "bayes_p" not in section:
            raise ConfigError("bayesian model needs bayes_p")
        for k in ("alphabet_size", "px_rows", "dwell"):
            if k in section:
                raise ConfigError(f"model.{k} does not apply to a bayesian model")
        return _make("model.bayes_p", BayesModel, p=_float(section["bayes_p"], "model.bayes_p"))
    if kind != "stationary":
        raise ConfigError(f"model.kind must be 'stationary' or 'bayesian', got {_show(kind)}")
    if "bayes_p" in section:
        raise ConfigError("model.bayes_p does not apply to a stationary model")
    if "px_rows" not in section:
        raise ConfigError("stationary model needs px_rows")
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
    if "dwell" not in section:
        raise ConfigError("stationary model needs dwell")
    # the dwell first, so that its config errors (exit 2) come before the model
    # errors (exit 3) that ChangeKernel raises as it is built
    dwell = _parse_dwell(section["dwell"], n)
    return validate_model(ChangeKernel(rows), dwell)


def _parse_delay(raw, where: str) -> DelayLaw:
    if raw is None:
        return DelayLaw.deterministic(0)
    _require_keys(raw, {"deterministic", "uniform"}, where)
    if len(raw) != 1:
        raise ConfigError(f"{where} takes exactly one of 'deterministic' or 'uniform'")
    if "deterministic" in raw:
        where = f"{where}.deterministic"
        return _make(where, DelayLaw.deterministic, _int(raw["deterministic"], where))
    where, bounds = f"{where}.uniform", raw["uniform"]
    if not isinstance(bounds, list) or len(bounds) != 2:
        raise ConfigError(f"{where} must be a [lo, hi] pair, got {_show(bounds)}")
    lo, hi = (_int(b, f"{where}[{i}]") for i, b in enumerate(bounds))
    if hi >= 2**63:  # delays are drawn as int64
        raise ConfigError(f"{where}[1] must be < 2**63, got {hi}")
    return _make(where, DelayLaw.uniform, lo, hi)


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


def _parse_policy(section: dict, idx: int | None = None) -> PolicySpec:
    where = "policy" if idx is None else f"policies[{idx}]"
    _require_keys(section, {"kind", "period", "delay", "schedule_path"}, where)
    kind = section.get("kind")
    if kind == "explicit":
        if "schedule_path" not in section:
            raise ConfigError(f"{where}: explicit policy needs schedule_path")
        path = section["schedule_path"]
        try:
            pairs = read_explicit_pairs(path)
        except (TypeError, UnicodeDecodeError) as exc:  # not a file name, or not UTF-8 text
            raise ConfigError(f"{where}.schedule_path {_show(path)}: {exc}") from None
        for s, d in pairs:
            if s > d:
                raise ConfigError(f"{where}: pair ({s}, {d}) is sampled after its delivery")
        return PolicySpec(kind="explicit", pairs=pairs)
    if kind == "periodic":
        if "period" not in section:
            raise ConfigError(f"{where}: periodic policy needs period")
        period = _int(section["period"], f"{where}.period")
        return _make(f"{where}.period", PolicySpec, kind="periodic", period=period,
                     delay=_parse_delay(section.get("delay"), f"{where}.delay"))
    if kind == "greedy":
        delay = _parse_delay(section.get("delay"), f"{where}.delay")
        return PolicySpec(kind="greedy", delay=delay)
    raise ConfigError(f"{where}: unknown policy kind {_show(kind)}")


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
    _require_keys(data, {"model", "policy", "policies", "run"}, "config")
    if "model" not in data:
        raise ConfigError("missing config section 'model'")
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
    run = data.get("run", {})
    _require_keys(run, {"horizon", "num_paths", "base_seed"}, "run")
    return RunConfig(
        model=model,
        policies=policies,
        horizon=_int(run.get("horizon", 1), "run.horizon"),
        num_paths=_int(run.get("num_paths", 1), "run.num_paths"),
        base_seed=_int(run.get("base_seed", 0), "run.base_seed"),
    )


# What PyYAML refuses in any text: a character outside YAML 1.1's printable
# set (both its readers), such as the lone surrogate that "surrogateescape"
# makes of an undecodable byte, or a JSON escape of a UTF-16 surrogate
# (libyaml).  The escape pattern may over-match, which only sends more JSON text
# to YAML.  ``re`` compiles it on first use, so a preset never pays for that.
_YAML_REFUSES = (r"[\x00-\x08\x0b\x0c\x0e-\x1f\x7f-\x84\x86-\x9f\ud800-\udfff\ufffe\uffff]"
                 r"|\\u[dD][89a-fA-F]")


def load_config(path: str | Path) -> RunConfig:
    """Read a config file: JSON text that PyYAML can read with ``json``,
    anything else with PyYAML, so that text PyYAML refuses fails as YAML.

    A document nested more than about 1,000 levels deep is a ConfigError,
    JSON or YAML: libyaml's composer overflows the C stack at about 50,000
    levels and kills the process, so YAML text is parsed once for its depth
    before it is composed.
    """
    raw = Path(path).read_bytes()
    text = raw.decode("utf-8", "surrogateescape")  # an undecodable byte: a lone surrogate
    if re.search(_YAML_REFUSES, text):
        return parse_config(_load_yaml(raw, path))
    try:
        data = json.loads(text)
    except RecursionError:
        raise ConfigError(f"cannot parse {path}: nested too deeply") from None
    except ValueError:  # not JSON: a BOM or UTF-16 text is not JSON here
        data = _load_yaml(raw, path)
    return parse_config(data)


def _load_yaml(raw: bytes, path: str | Path):
    import yaml  # here, not at module level: presets and JSON configs never pay for the import

    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)  # C parser where PyYAML has libyaml
    try:
        # libyaml's composer recurses once per level and overflows the C stack
        # at about 50,000; its parser does not, so the events are walked first
        depth = 0
        for event in yaml.parse(raw, Loader=loader):
            if isinstance(event, yaml.CollectionStartEvent):
                depth += 1
                if depth > 1_000:  # json's own limit
                    break
            elif isinstance(event, yaml.CollectionEndEvent):
                depth -= 1
        else:
            return yaml.load(raw, Loader=loader)
    except RecursionError:  # the pure-Python composer recurses once per level
        pass
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: an int past 4300 digits, a bad date
        # PyYAML's text spans lines ("while parsing ...", then "  in ..."): join them
        raise ConfigError(f"cannot parse {path}: {' '.join(str(exc).split())}") from exc
    raise ConfigError(f"cannot parse {path}: nested too deeply")


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
