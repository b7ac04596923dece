import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaoi import config, markov
from gaoi.cli import EXIT_CONFIG, EXIT_OK, main
from gaoi.markov import ModelError

from conftest import sticky_model

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))
STICKY = {
    "model": sticky_model(7, 170),
    "policies": [{"kind": "periodic", "period": 5, "delay": {"deterministic": 2}},
                 {"kind": "greedy", "delay": {"uniform": [1, 6]}}],
    "run": {"horizon": 50, "num_paths": 60, "base_seed": 7}}
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
    if isinstance(a, markov._Frozen):  # the model's plain frozen classes, field by field
        return all(same(getattr(a, name), getattr(b, name)) for name in a.__match_args__)
    return a == b


def both_loaders(data: bytes):
    return yaml.load(data, Loader=yaml.CSafeLoader), yaml.load(data, Loader=yaml.SafeLoader)


def load_both(path, monkeypatch) -> tuple[config.RunConfig, config.RunConfig]:
    fast = config.load_config(path)
    with monkeypatch.context() as m:
        m.delattr(yaml, "CSafeLoader")
        pure = config.load_config(path)
    return fast, pure


def spy_yaml_load(monkeypatch) -> list:
    """The Loader of every ``yaml.load`` call made from now on."""
    seen = []
    real = yaml.load

    def spy(stream, Loader):
        seen.append(Loader)
        return real(stream, Loader=Loader)

    monkeypatch.setattr(yaml, "load", spy)
    return seen


def test_load_config_picks_libyaml_when_present(monkeypatch, loader):
    # a silent fallback to the pure-Python parser reads a long config ~9x slower
    seen = spy_yaml_load(monkeypatch)
    config.load_config(CONFIGS[0])
    assert seen == [loader]


@pytest.mark.parametrize("name, preset", [("two_state_swap.yaml", "fig5"),
                                          ("geometric_change.yaml", "fig6")])
def test_shipped_config_is_its_preset(name, preset):
    # each shipped file is a preset written out: model, policies and run
    path = CONFIGS[0].parent / name
    assert same(config.load_config(path), config.preset_config(preset))


@needs_libyaml
class TestLoadersAgree:
    @pytest.mark.parametrize("path", CONFIGS, ids=[p.name for p in CONFIGS])
    def test_shipped_configs(self, path, monkeypatch):
        fast, pure = both_loaders(path.read_bytes())
        assert same(fast, pure)
        fast, pure = load_both(path, monkeypatch)
        assert same(fast, pure)

    def test_sticky_json_config(self, tmp_path, monkeypatch):
        # the shape perfbench writes for sticky-sim: 3 statuses x 170 hazards, as JSON.
        # load_config reads it with json; both YAML readings of the text agree with it
        path = tmp_path / "sticky.yaml"
        path.write_text(json.dumps(STICKY))
        fast, pure = both_loaders(path.read_bytes())
        assert same(fast, pure) and len(fast["model"]["dwell"][2]["prefix"]) == 170
        seen = spy_yaml_load(monkeypatch)
        loaded = config.load_config(path)
        assert seen == []
        assert same(loaded, config.parse_config(fast))
        assert same(loaded, config.parse_config(pure))
        assert loaded.model.dwell.prefix.shape == (3, 170)

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


@pytest.mark.parametrize("text", [
    "model: [1, 2\n", "model:\n\tkind: stationary\n",
    '{"model": {"kind": "bayesian", "bayes_p": "\x7f"}}',
], ids=["unclosed_flow_sequence", "tab_indented_mapping", "json_raw_u007f"])
def test_yaml_syntax_error_exit_2(tmp_path, capsys, loader, text):
    # PyYAML's error text spans lines; the config error is one line
    path = tmp_path / "f.yaml"
    path.write_text(text)
    assert main(["entropy-rate", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot parse") and err.count("\n") == 1, err


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


def test_config_error_comes_before_model_error(tmp_path, capsys):
    # the change rows do not sum to 1 (a model error, exit 3) and the dwell
    # is not a number (a config error, exit 2): the config error wins
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"model": {"kind": "stationary", "dwell": "abc",
                                          "px_rows": [[0.4, 0.5], [1, 0]]}}))
    assert main(["entropy-rate", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: model.dwell must be a number, got 'abc'\n"


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


# JSON text is read with json, and reads as its YAML reading does

def outcome(load, *args):
    """What ``load(*args)`` returns, or the class and text of the ConfigError
    or ModelError it raises (a YAML parse error counts as a ConfigError, as
    ``load_config`` reports it)."""
    try:
        return load(*args)
    except yaml.YAMLError as exc:
        return config.ConfigError, str(exc)
    except (config.ConfigError, ModelError) as exc:
        return type(exc), str(exc)


def read_as_yaml(text: bytes, loader) -> config.RunConfig:
    return config.parse_config(yaml.load(text, Loader=loader))


@pytest.mark.parametrize("path", CONFIGS, ids=[p.name for p in CONFIGS])
def test_shipped_configs_as_json(path, tmp_path, monkeypatch):
    as_json = tmp_path / "config.json"
    as_json.write_text(json.dumps(yaml.safe_load(path.read_bytes())))
    seen = spy_yaml_load(monkeypatch)
    assert same(config.load_config(as_json), config.load_config(path))
    assert len(seen) == 1  # the YAML file's
    outputs = []
    for i, cfg in enumerate((path, as_json)):
        out = tmp_path / f"out{i}"
        assert main(["simulate", "--config", str(cfg), "--paths", "40",
                     "--out", str(out)]) == EXIT_OK
        outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert outputs[0] == outputs[1] and "summary.csv" in outputs[0]


# config-shaped documents: mostly well formed, with odd values in every field
NUMBER = (st.integers(-2, 3) | st.integers(-2**80, 2**80) | st.floats()
          | st.sampled_from([0.5, -0.0, 1e-05, 2.5e-08, 1e16, 1e300, 5e-324]))
ODD = st.none() | st.booleans() | NUMBER | st.text(max_size=6) | st.lists(NUMBER, max_size=2)
PROB = st.one_of(st.floats(0.05, 0.95), st.sampled_from([1e-05, 2.5e-08, 0.5]), ODD)
DELAY = (st.none() | st.fixed_dictionaries({"deterministic": st.integers(0, 3) | ODD})
         | st.fixed_dictionaries({"uniform": st.lists(st.integers(0, 5) | ODD, max_size=3)}))
POLICY = st.fixed_dictionaries(
    {"kind": st.sampled_from(["periodic", "greedy"]) | st.text(max_size=6), "delay": DELAY},
    optional={"period": st.integers(1, 5) | ODD})
DWELL = (PROB | st.fixed_dictionaries({"prefix": st.lists(PROB, max_size=3), "tail": PROB})
         | st.lists(st.fixed_dictionaries({"tail": PROB}), min_size=1, max_size=2))
STATIONARY_MODEL = st.fixed_dictionaries(
    {"kind": st.just("stationary"),
     "px_rows": st.sampled_from([[[0.0, 1.0], [1.0, 0.0]], [[0, 1], [1, 0]]])
     | st.lists(st.lists(PROB, min_size=2, max_size=2), min_size=1, max_size=2) | ODD,
     "dwell": DWELL},
    optional={"alphabet_size": st.just(2) | ODD})
BAYES_MODEL = st.fixed_dictionaries({"kind": st.just("bayesian"), "bayes_p": PROB})
RUN = st.fixed_dictionaries({}, optional={k: st.integers(0, 9) | ODD
                                          for k in ("horizon", "num_paths", "base_seed")})
CONFIG_DOCS = st.builds(
    lambda doc, key, value, roll: {key: value, **doc} if roll == 3 else doc,  # a stray key
    st.fixed_dictionaries({"model": STATIONARY_MODEL | BAYES_MODEL},
                          optional={"policies": st.lists(POLICY, max_size=2), "run": RUN}),
    st.text(max_size=4), ODD, st.integers(0, 3))


def refused_by_yaml(kind: str) -> dict:
    """An invalid model (dwell 0) with a policy kind that json reads but
    PyYAML refuses, as ``json.dumps`` writes it: U+10000 as a surrogate-pair
    escape (``ensure_ascii=True``), or a raw U+007F (``ensure_ascii=False``).
    Read by json, such a config fails the model check (a ModelError), where
    libyaml stops at the parse (a ConfigError)."""
    return {"model": {"kind": "stationary", "px_rows": [[0.0, 1.0], [1.0, 0.0]], "dwell": 0},
            "policies": [{"kind": kind, "delay": None}]}


# a JSON escape of a UTF-16 surrogate: SafeLoader reads a pair of them as two
# lone surrogates, where libyaml refuses it, so no one reading fits both loaders
SURROGATE_ESCAPE = re.compile(rb"\\u[dD][89a-fA-F]")


@needs_libyaml
@settings(max_examples=200, deadline=None)
@given(doc=CONFIG_DOCS, ensure_ascii=st.booleans())
@example(doc=refused_by_yaml("\U00010000"), ensure_ascii=True)
@example(doc=refused_by_yaml("\x7f"), ensure_ascii=False)
def test_json_reads_as_yaml_reads_it(tmp_path_factory, doc, ensure_ascii):
    # exponent floats with no dot, -0.0, NaN/Infinity, big ints and unicode text:
    # the same RunConfig, or the same exception class, under either YAML loader
    text = json.dumps(doc, ensure_ascii=ensure_ascii).encode()
    path = tmp_path_factory.getbasetemp() / "property.json"
    path.write_bytes(text)
    got = outcome(config.load_config, path)
    for loader in (yaml.CSafeLoader, yaml.SafeLoader):
        if loader is yaml.SafeLoader and SURROGATE_ESCAPE.search(text):
            continue  # load_config follows libyaml's reading
        want = outcome(read_as_yaml, text, loader)
        if isinstance(want, config.RunConfig):
            assert same(got, want)
        else:
            assert isinstance(got, tuple) and got[0] is want[0], (got, want)


@pytest.mark.parametrize("encode", [lambda t: ("\ufeff" + t).encode(),
                                    lambda t: t.encode("utf-16")], ids=["utf8_bom", "utf16_bom"])
def test_json_text_behind_a_bom_goes_to_yaml(tmp_path, monkeypatch, loader, encode):
    # only strict UTF-8 text is tried as JSON; YAML's encoding detection reads the rest
    text = json.dumps(STICKY)
    plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
    plain.write_text(text)
    marked.write_bytes(encode(text))
    want = config.load_config(plain)
    seen = spy_yaml_load(monkeypatch)
    assert same(config.load_config(marked), want)
    assert seen == [loader]


def test_flow_yaml_that_is_not_json_goes_to_yaml(tmp_path, capsys, monkeypatch, loader):
    path = tmp_path / "flow.yaml"
    seen = spy_yaml_load(monkeypatch)
    path.write_text("{model: {kind: bayesian, bayes_p: 0.04}, run: {horizon: 10}}")
    cfg = config.load_config(path)
    assert cfg.model.p == 0.04 and cfg.horizon == 10
    path.write_text("{a: 1}")
    assert main(["entropy-rate", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: unknown keys in config: ['a']\n"
    assert seen == [loader, loader]


# deep or huge values: exit 2 with one line, never a traceback or a crash

# nested 50,000 deep, these crashed libyaml's composer (SIGSEGV), so they run
# in a fresh interpreter, where a crash fails the test and spares pytest
DEEP_YAML = {
    "flow_yaml_50000_deep": "model: " + "[" * 50_000 + "a" + "]" * 50_000 + "\n",
    "block_yaml_50000_deep": "model:\n  " + "- " * 50_000 + "a\n",
}


def entropy_rate_apart(path: Path, loader) -> tuple[int, str]:
    """``gaoi entropy-rate --config path`` in a fresh interpreter that reads
    YAML with ``loader``, with this tree's gaoi on its path: (exit status, stderr)."""
    code = ("import sys, yaml\n"
            f"if {loader is yaml.SafeLoader}:\n    yaml.__dict__.pop('CSafeLoader', None)\n"
            "from gaoi.cli import main\n"
            f"sys.exit(main(['entropy-rate', '--config', {str(path)!r}]))\n")
    src = str(Path(config.__file__).resolve().parents[1])
    path_var = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path_var})
    return done.returncode, done.stderr


@pytest.mark.parametrize("text", [
    '{"model": ' + "[" * 5_000 + "1" + "]" * 5_000 + "}",
    '{"model": ' + "[" * 50_000 + "1" + "]" * 50_000 + "}",
    "model:\n  " + "- " * 5_000 + "1\n",
    '{"model": {"kind": "bayesian", "bayes_p": 0.5}, "run": {"horizon": ' + "1" * 5_000 + "}}",
    "model: {kind: bayesian, bayes_p: 0.5}\nrun: {horizon: " + "1" * 5_000 + "}\n",
    json.dumps({"model": {"kind": "stationary", "px_rows": [[0.5] * 300] * 300 + [[1.0]],
                          "dwell": 0.5}}),
    *DEEP_YAML.values(),
], ids=["json_5000_deep", "json_50000_deep", "block_yaml_5000_deep", "json_5000_digits",
        "yaml_5000_digits", "ragged_301_rows", *DEEP_YAML])
def test_deep_or_huge_value_exit_2(tmp_path, capsys, loader, text):
    path = tmp_path / "f.yaml"
    path.write_text(text)
    if text in DEEP_YAML.values():
        status, err = entropy_rate_apart(path, loader)
        assert "nested too deeply" in err, (status, err[-300:])
    else:
        status, err = main(["entropy-rate", "--config", str(path)]), capsys.readouterr().err
    assert status == EXIT_CONFIG, err[-300:]
    assert err.startswith("config error: ") and err.count("\n") == 1 and len(err) < 300, err


@pytest.mark.parametrize("name", ["horizon", "num_paths"])
def test_run_size_past_int64_refused(name):
    # refused as the run is built, before any array is sized from it
    fig6 = config.preset_config("fig6")
    assert getattr(dataclasses.replace(fig6, **{name: 2**63 - 1}), name) == 2**63 - 1
    for value in (2**63, 10**23):
        with pytest.raises(config.ConfigError, match=rf"^run\.{name} must be < 2\*\*63, got "):
            dataclasses.replace(fig6, **{name: value})


@pytest.mark.parametrize("where", ["policy", "policies[1]"])
@pytest.mark.parametrize("schedule_path", [5, True, None, [1], {}, "latin1.txt"],
                         ids=["int", "bool", "null", "list", "map", "not_utf8"])
def test_bad_schedule_path_exit_2_names_field(tmp_path, capsys, monkeypatch, where,
                                              schedule_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "latin1.txt").write_bytes(b"1 2\n\xff 3\n")
    explicit = {"kind": "explicit", "schedule_path": schedule_path}
    doc = {"model": {"kind": "bayesian", "bayes_p": 0.04}}
    if where == "policy":
        doc["policy"] = explicit
    else:
        doc["policies"] = [{"kind": "greedy", "delay": {"uniform": [2, 8]}}, explicit]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    assert main(["entropy-rate", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {where}.schedule_path") and err.count("\n") == 1, err
    if isinstance(schedule_path, str):
        assert "latin1.txt" in err, err


# mutation fuzz: every key, and the first three items of every list, of three
# configs set to odd values, one at a time (ROADMAP item 7)

ODD_VALUES = [None, True, -1, 0, 2**70, 1.5, -0.0, float("nan"), float("inf"), "abc", "1e5",
              [], {}, [1], {"a": 1}]
VALUES_PER_FIELD = 6


def field_paths(node, prefix=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node[:3])
    else:
        return
    for key, value in items:
        yield (*prefix, key)
        yield from field_paths(value, (*prefix, key))


def field_name(path) -> str:
    """The name config errors use: ``policies[1].delay.uniform[0]``."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


def mutations():
    """(path, config) pairs; field i takes VALUES_PER_FIELD of ODD_VALUES in
    turn, so every odd value reaches every kind of field."""
    i = 0
    for base in (config.PRESETS["fig5"], config.PRESETS["fig6"], STICKY):
        for path in field_paths(base):
            for k in range(VALUES_PER_FIELD):
                doc = json.loads(json.dumps(base))
                node = doc
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = ODD_VALUES[(i * VALUES_PER_FIELD + k) % len(ODD_VALUES)]
                yield path, doc
            i += 1


def test_config_mutations_fail_closed_and_name_their_field(tmp_path):
    as_json, as_yaml = tmp_path / "m.json", tmp_path / "m.yaml"
    dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)  # block-style YAML, 4x faster
    count = 0
    for path, doc in mutations():
        count += 1
        as_json.write_text(json.dumps(doc))
        as_yaml.write_text(yaml.dump(doc, Dumper=dumper))
        got = outcome(config.load_config, as_json)  # any other exception fails the test
        assert same(got, outcome(config.load_config, as_yaml)), (path, got)
        if isinstance(got, tuple) and got[0] is config.ConfigError:
            # the field, or the list or map that holds it (a ragged row, a bad pair)
            names = {field_name(path), field_name(path[:-1]) or field_name(path)}
            assert any(name in got[1] for name in names), (path, got)
    assert 500 <= count <= 650
