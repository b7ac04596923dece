import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaoi import PolicySpec, config
from gaoi._base import _Frozen
from gaoi.cli import EXIT_CONFIG, main
from gaoi.markov import ModelError

from conftest import sticky_model

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
STICKY = {
    "model": sticky_model(7, 170),
    "policies": [{"kind": "periodic", "period": 5, "delay": {"deterministic": 2}},
                 {"kind": "greedy", "delay": {"uniform": [1, 6]}}],
    "run": {"horizon": 50, "num_paths": 60, "base_seed": 7}}


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
    if isinstance(a, _Frozen):  # gaoi's plain frozen classes, field by field
        return all(same(getattr(a, name), getattr(b, name)) for name in a.__match_args__)
    return a == b


def entropy_rate(path, capsys) -> tuple[int, str]:
    """``gaoi entropy-rate --config path``: (exit status, stderr)."""
    status = main(["entropy-rate", "--config", str(path)])
    return status, capsys.readouterr().err


@pytest.mark.parametrize("name, preset", [("two_state_swap.json", "fig5"),
                                          ("geometric_change.json", "fig6")])
def test_shipped_config_is_its_preset(name, preset):
    # each shipped file is a preset written out: model, policies and run
    assert same(config.load_config(CONFIGS / name), config.preset_config(preset))


@pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig", "utf-16", "utf-16-le", "utf-16-be",
                                      "utf-32", "utf-32-le", "utf-32-be"])
def test_json_in_any_encoding_loads_the_same_run(tmp_path, encoding):
    # json detects the encoding of the bytes (RFC 8259): a BOM, UTF-16 or UTF-32
    text = json.dumps(STICKY)
    plain, encoded = tmp_path / "plain.json", tmp_path / "encoded.json"
    plain.write_text(text)
    encoded.write_bytes(text.encode(encoding))
    want = config.load_config(plain)
    assert want.model.dwell.prefix.shape == (3, 170)
    assert same(config.load_config(encoded), want)


BAYES_JSON = b'{"model": {"kind": "bayesian", "bayes_p": 0.04}}'


@pytest.mark.parametrize("text", [
    b"model: {kind: bayesian, bayes_p: 0.04}\n",
    b"model:\n  kind: bayesian\n  bayes_p: 0.04\n",
    b"{model: {kind: bayesian, bayes_p: 0.04}, run: {horizon: 10}}",
    b'{"model": [1, 2\n',
    b'{"model": "\xff"}',
    b"",
    b"\xef\xbb\xbf",
    b"model:\n\tkind: stationary\n",
    b"---\nmodel: {kind: bayesian, bayes_p: 0.04}\n",
    b"# a comment\n" + BAYES_JSON,
    b"// a comment\n" + BAYES_JSON,
    b'{"model": {"kind": "bayesian", "bayes_p": 0.04},}',
    b"{'model': {'kind': 'bayesian', 'bayes_p': 0.04}}",
    BAYES_JSON + b"\n" + BAYES_JSON,
    b'{"model": {"kind": "bayes\tian", "bayes_p": 0.04}}',
    BAYES_JSON.decode().encode("utf-16-le")[:-1],
], ids=["yaml_flow", "yaml_block", "yaml_flow_document", "unclosed_list", "not_utf8", "empty",
        "bom_only", "yaml_tab_indented", "yaml_document_marker", "hash_comment",
        "slash_comment", "trailing_comma", "single_quotes", "two_documents",
        "raw_tab_in_string", "truncated_utf16"])
def test_text_that_is_not_json_exit_2(tmp_path, capsys, text):
    # a config is JSON: YAML text, like any other text that is not JSON, is one line
    path = tmp_path / "f.json"
    path.write_bytes(text)
    status, err = entropy_rate(path, capsys)
    assert status == EXIT_CONFIG
    assert err.startswith(f"config error: cannot parse {path}: config must be JSON: ")
    assert err.count("\n") == 1, err
    if text.startswith(b"model: {"):
        assert err.endswith("config must be JSON: Expecting value: line 1 column 1 (char 0)\n")


@pytest.mark.parametrize("doc", [[], 42, "model", None, True],
                         ids=["list", "number", "string", "null", "bool"])
def test_document_that_is_not_a_mapping_exit_2(tmp_path, capsys, doc):
    # any JSON value is a document; a config is a mapping
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    assert entropy_rate(path, capsys) == (
        EXIT_CONFIG, f"config error: config must be a mapping, got {doc!r}\n")


STATIONARY = {"kind": "stationary", "px_rows": [[0, 1], [1, 0]]}


def test_dwell_scalar_takes_what_tail_takes(tmp_path):
    scalar, mapping = tmp_path / "scalar.json", tmp_path / "mapping.json"
    scalar.write_text(json.dumps({"model": {**STATIONARY, "dwell": 1e-3}}))
    mapping.write_text(json.dumps({"model": {**STATIONARY, "dwell": {"tail": 1e-3}}}))
    model = config.load_config(scalar).model
    assert same(model, config.load_config(mapping).model)
    assert model.dwell.tail.tolist() == [1e-3, 1e-3]


@pytest.mark.parametrize("dwell", [True, False, "abc", "0.5x", "true", "1e-3"])
def test_dwell_scalar_rejects_bool_and_text(tmp_path, capsys, dwell):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"model": {**STATIONARY, "dwell": dwell}}))
    status, err = entropy_rate(path, capsys)
    assert status == EXIT_CONFIG
    assert err.startswith("config error:") and err.count("\n") == 1


def test_config_error_comes_before_model_error(tmp_path, capsys):
    # the change rows do not sum to 1 (a model error, exit 3) and the dwell
    # is not a number (a config error, exit 2): the config error wins
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"model": {"kind": "stationary", "dwell": "abc",
                                          "px_rows": [[0.4, 0.5], [1, 0]]}}))
    assert main(["entropy-rate", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == ("config error: model.dwell must be a probability, "
                                       "a {prefix, tail} map, or a per-state list\n")


@pytest.mark.parametrize("model, message", [
    ({"kind": "bayesian", "bayes_p": "4e-2"}, "model.bayes_p must be a number, got '4e-2'"),
    ({"kind": "stationary", "px_rows": [[0, "1e0"], [1, 0]], "dwell": 0.5},
     "model.px_rows[0][1] must be a number, got '1e0'"),
    ({**STATIONARY, "dwell": {"prefix": ["1e-1"], "tail": 0.5}},
     "model.dwell.prefix[0] must be a number, got '1e-1'"),
    ({**STATIONARY, "dwell": {"tail": "5e-1"}}, "model.dwell.tail must be a number, got '5e-1'"),
], ids=["bayes_p", "px_rows", "dwell_prefix", "dwell_tail"])
def test_number_fields_refuse_numeric_strings(tmp_path, capsys, model, message):
    # a number field takes a JSON number, not a string that reads as one
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"model": model}))
    assert entropy_rate(path, capsys) == (EXIT_CONFIG, f"config error: {message}\n")


# an integer field and a fig6 edit that gives it a string that reads as an integer
INTEGER_STRINGS = {
    "model.alphabet_size": lambda d: d.update(model={**STATIONARY, "dwell": 0.5,
                                                     "alphabet_size": "2"}),
    "run.horizon": lambda d: d["run"].update(horizon="10"),
    "run.num_paths": lambda d: d["run"].update(num_paths="10"),
    "run.base_seed": lambda d: d["run"].update(base_seed="1"),
    "policies[0].period": lambda d: d["policies"][0].update(period="5"),
    "policies[0].delay.deterministic":
        lambda d: d["policies"][0]["delay"].update(deterministic="0"),
    "policies[1].delay.uniform[1]": lambda d: d["policies"][1]["delay"].update(uniform=[2, "8"]),
}


@pytest.mark.parametrize("where", INTEGER_STRINGS)
def test_integer_fields_refuse_numeric_strings(tmp_path, capsys, where):
    doc = json.loads(json.dumps(config.PRESETS["fig6"]))
    INTEGER_STRINGS[where](doc)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    status, err = entropy_rate(path, capsys)
    assert status == EXIT_CONFIG
    assert err.startswith(f"config error: {where} must be an integer, got '"), err


def outcome(load, *args):
    """What ``load(*args)`` returns, or the class and text of the ConfigError
    or ModelError it raises; any other exception fails the test."""
    try:
        return load(*args)
    except (config.ConfigError, ModelError) as exc:
        return type(exc), str(exc)


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


# any JSON document: a config-shaped one, or any value at all
JSON_DOCS = CONFIG_DOCS | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=20)


def invalid_model_with_kind(kind: str) -> dict:
    """A config with an invalid model (dwell 0) and a policy kind that json
    writes as a surrogate-pair escape (U+10000, ``ensure_ascii=True``) or a
    raw control character (U+007F, ``ensure_ascii=False``): json reads both,
    and the model is refused first, with a ModelError."""
    return {"model": {"kind": "stationary", "px_rows": [[0.0, 1.0], [1.0, 0.0]], "dwell": 0},
            "policies": [{"kind": kind, "delay": None}]}


@settings(max_examples=200, deadline=None)
@given(doc=JSON_DOCS, ensure_ascii=st.booleans())
@example(doc=invalid_model_with_kind("\U00010000"), ensure_ascii=True)
@example(doc=invalid_model_with_kind("\x7f"), ensure_ascii=False)
def test_every_json_document_loads_or_fails_closed(tmp_path_factory, doc, ensure_ascii):
    # exponent floats with no dot, -0.0, NaN/Infinity, big ints and unicode text:
    # a RunConfig, or a ConfigError or ModelError with a one-line message
    path = tmp_path_factory.getbasetemp() / "property.json"
    path.write_text(json.dumps(doc, ensure_ascii=ensure_ascii), encoding="utf-8")
    got = outcome(config.load_config, path)
    assert isinstance(got, config.RunConfig) or "\n" not in got[1], got


# deep or huge values: exit 2 with one line, never a traceback or a crash

@pytest.mark.parametrize("text, message", [
    ('{"model": ' + "[" * 5_000 + "1" + "]" * 5_000 + "}", "nested too deeply"),
    ('{"model": ' + "[" * 50_000 + "1" + "]" * 50_000 + "}", "nested too deeply"),
    ('{"model": {"kind": "bayesian", "bayes_p": 0.5}, "run": {"horizon": ' + "1" * 5_000 + "}}",
     "config must be JSON: Exceeds the limit (4300 digits)"),
    (json.dumps({"model": {"kind": "stationary", "px_rows": [[0.5] * 300] * 300 + [[1.0]],
                           "dwell": 0.5}}), "model.px_rows must be an n x n list of numbers"),
    ('{"model": ' + '{"a": ' * 5_000 + "1" + "}" * 5_000 + "}", "nested too deeply"),
    (json.dumps({"model": {"kind": "bayesian", "bayes_p": 0.5}, "run": {"horizon": 10**4_000}}),
     "run.horizon must be < 2**63, got "),
    (json.dumps({"model": {"kind": "bayesian", "bayes_p": 10**4_000}}),
     "model.bayes_p must be a number, got "),
    ('{"model": {"kind": "bayesian", "bayes_p": 0.5}, "run": {"horizon": 1e999}}',
     "run.horizon must be an integer, got inf"),
    ('{"model": {"kind": "bayesian", "bayes_p": -1e999}}',
     "model.bayes_p: change hazard must lie in (0, 1), got -inf"),
], ids=["json_5000_deep", "json_50000_deep", "json_5000_digits", "ragged_301_rows",
        "json_5000_deep_objects", "json_4000_digit_horizon", "json_4000_digit_hazard",
        "json_overflow_horizon", "json_overflow_hazard"])
def test_deep_or_huge_value_exit_2(tmp_path, capsys, text, message):
    path = tmp_path / "f.json"
    path.write_text(text)
    status, err = entropy_rate(path, capsys)
    assert status == EXIT_CONFIG, err[-300:]
    assert err.startswith("config error: ") and err.count("\n") == 1 and len(err) < 300, err
    assert message in err, err


@pytest.mark.parametrize("name", ["horizon", "num_paths"])
def test_run_size_past_int64_refused(name):
    # refused as the run is built, before any array is sized from it
    fig6 = config.preset_config("fig6")

    def resized(value):
        fields = {field: getattr(fig6, field) for field in fig6.__match_args__}
        return config.RunConfig(**{**fields, name: value})

    assert getattr(resized(2**63 - 1), name) == 2**63 - 1
    for value in (2**63, 10**23):
        with pytest.raises(config.ConfigError, match=rf"^run\.{name} must be < 2\*\*63, got "):
            resized(value)


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
    path = tmp_path / "m.json"
    count = 0
    for field, doc in mutations():
        count += 1
        path.write_text(json.dumps(doc))
        got = outcome(config.load_config, path)  # any other exception fails the test
        if isinstance(got, tuple) and got[0] is config.ConfigError:
            # the field, or the list or map that holds it (a ragged row, a bad pair)
            names = {field_name(field), field_name(field[:-1]) or field_name(field)}
            assert any(name in got[1] for name in names), (field, got)
    assert 500 <= count <= 650


# applicability fuzz: every key that another kind takes, set in each model and
# policy section of the same three configs, each valued as that kind takes it

VALID_VALUES = {"px_rows": [[0.0, 1.0], [1.0, 0.0]], "alphabet_size": 2, "dwell": 0.6,
                "bayes_p": 0.04, "period": 5, "delay": {"uniform": [2, 8]},
                "schedule_path": "pairs.txt"}


def foreign_keys():
    """(section name, key, config) triples: one model or policy section of a
    base config given one key that its kind does not take and another kind does."""
    for base in (config.PRESETS["fig5"], config.PRESETS["fig6"], STICKY):
        sections = [("model", None, config.MODEL_KINDS)]
        sections += [("policies", i, config.POLICY_KINDS) for i in range(len(base["policies"]))]
        for name, idx, kinds in sections:
            taken = {kind: {"kind", *need, *take} for kind, (need, take) in kinds.items()}
            own = taken[(base[name] if idx is None else base[name][idx])["kind"]]
            for key in sorted(set().union(*taken.values()) - own):
                doc = json.loads(json.dumps(base))
                section = doc[name] if idx is None else doc[name][idx]
                section[key] = VALID_VALUES[key]
                yield name if idx is None else f"{name}[{idx}]", key, doc


def test_config_keys_their_kind_does_not_take_fail_closed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pairs.txt").write_text("3 5\n")
    # every value is valid where it belongs: a section of each kind made of them loads
    bayes = {"kind": "bayesian", "bayes_p": 0.04}
    for name, kinds in (("model", config.MODEL_KINDS), ("policy", config.POLICY_KINDS)):
        for kind, (need, take) in kinds.items():
            section = {"kind": kind, **{key: VALID_VALUES[key] for key in (*need, *take)}}
            run = config.parse_config({"model": bayes, name: section})
            if name == "model":  # the model's kind is its section's, which is_bayesian reads
                assert run.model.kind == kind and run.is_bayesian == (kind == "bayesian")
    path = tmp_path / "k.json"
    seen = set()
    for where, key, doc in foreign_keys():
        seen.add(key)
        path.write_text(json.dumps(doc))
        got = outcome(config.load_config, path)
        assert isinstance(got, tuple) and got[0] is config.ConfigError, (where, key, got)
        assert f"unknown keys in {where} (" in got[1] and repr(key) in got[1], (where, got)
    assert seen == set(VALID_VALUES) - {"delay"}  # no base policy is explicit


def test_policy_kinds_are_the_kinds_a_policy_spec_takes():
    def builds(kind) -> bool:
        try:
            PolicySpec(kind=kind, period=1 if kind == "periodic" else 0)
        except ValueError:
            return False
        return True

    others = ("", "random", "Periodic", "stationary", "bayesian", "explicit ")
    assert {k for k in (*config.POLICY_KINDS, *others) if builds(k)} == set(config.POLICY_KINDS)
