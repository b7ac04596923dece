import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from gaoi import config
from gaoi.cli import EXIT_CONFIG, main

from conftest import sticky_model

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))
needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")


@pytest.fixture(params=[pytest.param("c", marks=needs_libyaml), "pure"])
def loader(request, monkeypatch):
    """Run the test once with libyaml's parser and once with the fallback."""
    if request.param == "pure":
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        return yaml.SafeLoader
    return yaml.CSafeLoader


def same(a, b) -> bool:
    """Equal, type for type; floats bit for bit (repr tells -0.0 and nan apart)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return repr(a) == repr(b)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if dataclasses.is_dataclass(a):
        return all(same(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    return a == b


def both_loaders(data: bytes):
    return yaml.load(data, Loader=yaml.CSafeLoader), yaml.load(data, Loader=yaml.SafeLoader)


def load_both(path, monkeypatch) -> tuple[config.RunConfig, config.RunConfig]:
    fast = config.load_config(path)
    with monkeypatch.context() as m:
        m.delattr(yaml, "CSafeLoader")
        pure = config.load_config(path)
    return fast, pure


def test_load_config_picks_libyaml_when_present(monkeypatch, loader):
    # a silent fallback to the pure-Python parser reads a long config ~9x slower
    seen = []
    real = yaml.load

    def spy(stream, Loader):
        seen.append(Loader)
        return real(stream, Loader=Loader)

    monkeypatch.setattr(yaml, "load", spy)
    config.load_config(CONFIGS[0])
    assert seen == [loader]


@needs_libyaml
class TestLoadersAgree:
    @pytest.mark.parametrize("path", CONFIGS, ids=[p.name for p in CONFIGS])
    def test_shipped_configs(self, path, monkeypatch):
        fast, pure = both_loaders(path.read_bytes())
        assert same(fast, pure)
        fast, pure = load_both(path, monkeypatch)
        assert same(fast, pure)

    def test_sticky_json_config(self, tmp_path, monkeypatch):
        # the shape perfbench writes for sticky-sim: 3 statuses x 170 hazards, as JSON
        path = tmp_path / "sticky.yaml"
        path.write_text(json.dumps({
            "model": sticky_model(7, 170),
            "policies": [{"kind": "periodic", "period": 5, "delay": {"deterministic": 2}},
                         {"kind": "greedy", "delay": {"uniform": [1, 6]}}],
            "run": {"horizon": 50, "num_paths": 60, "base_seed": 7}}))
        fast, pure = both_loaders(path.read_bytes())
        assert same(fast, pure) and len(fast["model"]["dwell"][2]["prefix"]) == 170
        fast, pure = load_both(path, monkeypatch)
        assert same(fast, pure)
        assert fast.model.dwell.prefix.shape == (3, 170)

    @settings(max_examples=150, deadline=None)
    @given(data=st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats()
        | st.text(st.characters(blacklist_categories=("Cs",))),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=8), inner, max_size=4),
        max_leaves=20),
        allow_unicode=st.booleans())
    def test_random_documents(self, data, allow_unicode):
        text = yaml.safe_dump(data, allow_unicode=allow_unicode, sort_keys=False).encode()
        fast, pure = both_loaders(text)
        assert same(fast, pure)


def test_utf16_config_loads_as_utf8(tmp_path, loader):
    # YAML's own encoding detection reads a UTF-16 file that carries a BOM
    text = Path(CONFIGS[-1]).read_text(encoding="utf-8")
    utf16 = tmp_path / "utf16.yaml"
    utf16.write_bytes(text.encode("utf-16"))
    assert same(config.load_config(utf16), config.load_config(CONFIGS[-1]))


def test_non_utf8_config_exit_2(tmp_path, capsys, loader):
    path = tmp_path / "f.yaml"
    path.write_bytes(b"model: \xff\n")
    assert main(["entropy-rate", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: cannot parse")


@pytest.mark.parametrize("text", ["model: [1, 2\n", "model:\n\tkind: stationary\n"],
                         ids=["unclosed_flow_sequence", "tab_indented_mapping"])
def test_yaml_syntax_error_exit_2(tmp_path, capsys, loader, text):
    path = tmp_path / "f.yaml"
    path.write_text(text)
    assert main(["entropy-rate", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: cannot parse")


STATIONARY = "model:\n  kind: stationary\n  px_rows: [[0, 1], [1, 0]]\n  dwell: {}\n"


def test_dwell_scalar_takes_what_tail_takes(tmp_path, loader):
    # YAML 1.1 resolves 1e-3 (no dot) as the string '1e-3'
    scalar, mapping = tmp_path / "scalar.yaml", tmp_path / "mapping.yaml"
    scalar.write_text(STATIONARY.format("1e-3"))
    mapping.write_text(STATIONARY.format("{tail: 1e-3}"))
    assert yaml.load(scalar.read_bytes(), Loader=loader)["model"]["dwell"] == "1e-3"
    model = config.load_config(scalar).model
    assert same(model, config.load_config(mapping).model)
    assert model.dwell.tail.tolist() == [1e-3, 1e-3]


@pytest.mark.parametrize("dwell", ["true", "abc", "'0.5x'"])
def test_dwell_scalar_rejects_bool_and_text(tmp_path, capsys, dwell):
    path = tmp_path / "f.yaml"
    path.write_text(STATIONARY.format(dwell))
    assert main(["entropy-rate", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize("text, numbers", [
    ("model:\n  kind: stationary\n  px_rows: [[0, 1e0], [1e0, 0]]\n"
     "  dwell: {prefix: [1e-1], tail: 5e-1}\n",
     "model:\n  kind: stationary\n  px_rows: [[0, 1.0], [1.0, 0]]\n"
     "  dwell: {prefix: [0.1], tail: 0.5}\n"),
    ("model: {kind: bayesian, bayes_p: 4e-2}\n", "model: {kind: bayesian, bayes_p: 0.04}\n"),
], ids=["stationary", "bayesian"])
def test_number_fields_take_exponent_strings(tmp_path, loader, text, numbers):
    # YAML 1.1 reads 1e0 and 4e-2 (no dot) as strings; every number field takes them
    strings, floats = tmp_path / "strings.yaml", tmp_path / "floats.yaml"
    strings.write_text(text)
    floats.write_text(numbers)
    assert same(config.load_config(strings), config.load_config(floats))
