import csv
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from gaoi import cli, ensemble, markov, metrics
from gaoi.cli import (EXIT_CONFIG, EXIT_IO, EXIT_MODEL, EXIT_OK, EXIT_VERIFY_FAILED,
                      SUMMARY_COLUMNS, main)

from conftest import run_cli_fresh, sticky_model

SWAP_CONFIG = {
    "model": {
        "kind": "stationary",
        "alphabet_size": 2,
        "px_rows": [[0.0, 1.0], [1.0, 0.0]],
        "dwell": 0.6,
    },
    "policy": {"kind": "periodic", "period": 50, "delay": {"deterministic": 0}},
    "run": {"horizon": 200, "num_paths": 20, "base_seed": 7},
}

BAYES_CONFIG = {
    "model": {"kind": "bayesian", "bayes_p": 0.04},
    "policy": {"kind": "greedy", "delay": {"uniform": [2, 8]}},
    "run": {"horizon": 100, "num_paths": 200, "base_seed": 7},
}


def write_config(tmp_path, data, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


def run_python(code: str) -> str:
    """The stdout of ``code`` in a fresh interpreter, after ``import sys``,
    with this tree's gaoi on its path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", "import sys\n" + code], capture_output=True,
                          text=True, env=env, check=True).stdout


class TestEntropyRate:
    def test_swap_model(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SWAP_CONFIG)
        assert main(["entropy-rate", "--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "0.9709505944546686" in out
        assert "p_change: 0.6" in out

    def test_sweep_script_row_is_fig5(self, capsys):
        # the sweep's q = 0.60 source is the fig5 preset's
        script = Path(cli.__file__).resolve().parents[2] / "scripts" / "entropy_rate_sweep.py"
        lines = run_python(f"import runpy\nrunpy.run_path({str(script)!r}, run_name='__main__')"
                           ).splitlines()
        assert lines[0] == "q,p_change,entropy_rate_bits"
        assert len(lines) == 1 + 19
        assert "0.60,0.6,0.9709505944546686" in lines
        assert main(["entropy-rate", "--preset", "fig5"]) == EXIT_OK
        rate, p_change = (line.split(": ")[1] for line in capsys.readouterr().out.splitlines()[:2])
        assert f"0.60,{p_change},{rate}" in lines

    def test_cycle_rate_zero(self, tmp_path, capsys):
        data = dict(SWAP_CONFIG)
        data["model"] = {
            "kind": "stationary",
            "alphabet_size": 3,
            "px_rows": [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
            "dwell": {"prefix": [1.0], "tail": 1.0},
        }
        assert main(["entropy-rate", "--config", write_config(tmp_path, data)]) == EXIT_OK
        assert "entropy_rate_bits_per_slot: 0.0" in capsys.readouterr().out

    def test_three_state_uniform(self, tmp_path, capsys):
        data = dict(SWAP_CONFIG)
        data["model"] = {
            "kind": "stationary",
            "alphabet_size": 3,
            "px_rows": [[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]],
            "dwell": 0.5,
        }
        assert main(["entropy-rate", "--config", write_config(tmp_path, data)]) == EXIT_OK
        assert "entropy_rate_bits_per_slot: 1.5" in capsys.readouterr().out

    def test_invalid_config_exit_2(self, tmp_path):
        data = dict(SWAP_CONFIG)
        data["modell"] = data.pop("model")
        assert main(["entropy-rate", "--config", write_config(tmp_path, data)]) == EXIT_CONFIG

    def test_unknown_key_rejected(self, tmp_path):
        data = {**SWAP_CONFIG, "extra_section": {}}
        assert main(["entropy-rate", "--config", write_config(tmp_path, data)]) == EXIT_CONFIG

    def test_non_irreducible_exit_3(self, tmp_path):
        data = dict(SWAP_CONFIG)
        data["model"] = {
            "kind": "stationary",
            "alphabet_size": 2,
            "px_rows": [[1.0, 0.0], [0.5, 0.5]],
            "dwell": 0.5,
        }
        assert main(["entropy-rate", "--config", write_config(tmp_path, data)]) == EXIT_MODEL

    def test_bayesian_model_rejected(self, tmp_path):
        assert main(["entropy-rate", "--config", write_config(tmp_path, BAYES_CONFIG)]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", [["entropy-rate"], ["verify", "thm1"]])
    def test_zero_paths_in_config_exit_2(self, tmp_path, capsys, command):
        # every command checks the run's ranges, even one that runs no paths
        data = {**SWAP_CONFIG, "run": {**SWAP_CONFIG["run"], "num_paths": 0}}
        assert main([*command, "--config", write_config(tmp_path, data)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: run.num_paths must be >= 1, got 0\n"


# the field named by each bad-config case that names one
BAD_CONFIG_MESSAGES = {
    "horizon_0": "run.horizon must be >= 1, got 0",
    "seed_negative": "run.base_seed must be >= 0, got -1",
    "num_paths_0": "run.num_paths must be >= 1, got 0",
    "tail_bool": "model.dwell.tail must be a number, got True",
    "tail_text": "model.dwell.tail must be a number, got 'abc'",
    "tail_past_float": "model.dwell.tail must be a number, got 1000",
    "prefix_text": "model.dwell[1].prefix[1] must be a number, got 'x'",
    "px_entry_bool": "model.px_rows[0][0] must be a number, got False",
    "bayes_p_bool": "model.bayes_p must be a number, got True",
    "explicit_bad_field": "bad_field.txt:2: expected integers 's d', got '5 x'",
    "prefix_scalar": "model.dwell.prefix must be a list, got 0.5",
    "policies_scalar": "policies must be a list, got 5",
}


class TestSimulate:
    def test_writes_csvs(self, tmp_path):
        cfg = write_config(tmp_path, SWAP_CONFIG)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        with (out / "summary.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == SUMMARY_COLUMNS
        assert rows[0]["policy"] == "periodic50"
        assert rows[0]["residual"] == ""
        scaled = float(rows[0]["scaled_aoi"])
        assert scaled == pytest.approx(0.6 * float(rows[0]["mean_cum_aoi"]), rel=1e-12)
        with (out / "series.csv").open() as fh:
            series = list(csv.DictReader(fh))
        assert len(series) == 200
        assert series[0]["n"] == "0"

    def test_bayes_summary_has_residual(self, tmp_path):
        cfg = write_config(tmp_path, BAYES_CONFIG)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        with (out / "summary.csv").open() as fh:
            row = next(csv.DictReader(fh))
        assert row["residual"] != ""
        assert row["p_change"] == "" and row["entropy_rate"] == ""

    @pytest.mark.parametrize("config", [SWAP_CONFIG, BAYES_CONFIG], ids=["swap", "bayes"])
    def test_deterministic_across_runs_and_interpreters(self, tmp_path, config):
        # two runs in this process, then one in a fresh interpreter with
        # another string-hash seed
        cfg = write_config(tmp_path, config)
        args = ["simulate", "--config", cfg, "--out"]
        assert main([*args, str(tmp_path / "a")]) == EXIT_OK
        assert main([*args, str(tmp_path / "b")]) == EXIT_OK
        fresh = run_cli_fresh([*args, str(tmp_path / "c")])
        assert fresh.returncode == EXIT_OK, fresh.stderr
        outputs = [((tmp_path / name / "series.csv").read_bytes(),
                    (tmp_path / name / "summary.csv").read_bytes()) for name in "abc"]
        assert outputs[0] == outputs[1] == outputs[2]

    def test_seed_and_paths_overrides(self, tmp_path):
        cfg = write_config(tmp_path, BAYES_CONFIG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["simulate", "--config", cfg, "--out", str(out1),
                     "--seed", "123", "--paths", "50"]) == EXIT_OK
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == EXIT_OK
        with (out1 / "summary.csv").open() as fh:
            row = next(csv.DictReader(fh))
        assert row["num_paths"] == "50"
        assert (out1 / "summary.csv").read_bytes() != (out2 / "summary.csv").read_bytes()

    def test_unwritable_out_dir_exit_4(self, tmp_path):
        if os.geteuid() == 0:
            pytest.skip("root ignores directory permissions")
        cfg = write_config(tmp_path, SWAP_CONFIG)
        blocked = tmp_path / "blocked"
        blocked.mkdir()
        blocked.chmod(stat.S_IRUSR | stat.S_IXUSR)
        assert main(["simulate", "--config", cfg, "--out", str(blocked / "x")]) == EXIT_IO

    def test_refused_write_exit_4(self, tmp_path, capsys, monkeypatch):
        # the same refusal for any user, root included: the write probe is denied
        cfg = write_config(tmp_path, SWAP_CONFIG)
        out = tmp_path / "out"
        write_text = Path.write_text

        def refuse_probe(path, *args, **kwargs):
            if path.name == ".write_probe":
                raise PermissionError(13, "Permission denied", str(path))
            return write_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", refuse_probe)
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.err == (f"error: cannot write to {out}: [Errno 13] Permission denied: "
                                f"'{out / '.write_probe'}'\n")
        assert captured.out == "" and list(out.iterdir()) == []

    def test_out_dir_under_regular_file_exit_4(self, tmp_path, capsys):
        # fails for any user, root included
        cfg = write_config(tmp_path, SWAP_CONFIG)
        (tmp_path / "a_regular_file").write_text("")
        out = tmp_path / "a_regular_file" / "x"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write to {out}:") and "Not a directory" in err

    def test_zero_paths_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SWAP_CONFIG)
        assert main(["simulate", "--config", cfg, "--paths", "0",
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "run.num_paths must be >= 1, got 0" in capsys.readouterr().err

    def test_repeated_policy_label_exit_2(self, tmp_path, capsys):
        # two greedy policies would write one series_greedy.csv and two
        # indistinguishable summary rows
        data = {**SWAP_CONFIG, "policies": [{"kind": "greedy", "delay": {"uniform": [1, 3]}},
                                            SWAP_CONFIG["policy"],
                                            {"kind": "greedy", "delay": {"uniform": [5, 9]}}]}
        del data["policy"]
        cfg = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: repeated policy label greedy:")
        assert err.count("\n") == 1 and not out.exists()
        # verify would print two indistinguishable "greedy:" lines
        assert main(["verify", "thm1", "--config", cfg]) == EXIT_CONFIG
        out_err = capsys.readouterr()
        assert out_err.err == err and out_err.out == ""

    @pytest.mark.parametrize("section, edit", [
        ("model", {"kind": "bayesian", "bayes_p": 1.5}),
        ("policy", {"kind": "periodic", "period": 0}),
        ("policy", {"kind": "greedy", "delay": {"uniform": 5}}),
        ("model", None),
        ("run", {"horizon": 0}),
        ("run", {"horizon": -3}),
        ("run", {"horizon": 2.7}),
        ("run", {"horizon": True}),
        ("run", {"num_paths": 20.0}),
        ("run", {"base_seed": -1}),
        ("policy", {"kind": "periodic", "period": 5.0}),
        ("policy", {"kind": "greedy", "delay": {"uniform": [2, 8.5]}}),
        ("policy", {"kind": "greedy", "delay": {"deterministic": False}}),
        ("model", {"kind": "stationary", "px_rows": [[0, 1], [1, 0]],
                   "dwell": {"prefix": [0.5]}}),
        ("model", {"kind": "stationary", "px_rows": 5, "dwell": 0.5}),
        ("model", {"kind": "stationary", "px_rows": [[0, 1], [1]], "dwell": 0.5}),
        ("policy", {"kind": "greedy", "delay": {"uniform": [2, 2**63]}}),
        ("policy", {"kind": "explicit", "schedule_path": "late_pair.txt"}),
        ("run", {"num_paths": 0}),
        ("model", {"kind": "stationary", "px_rows": [[0, 1], [1, 0]], "dwell": {"tail": True}}),
        ("model", {"kind": "stationary", "px_rows": [[0, 1], [1, 0]], "dwell": {"tail": "abc"}}),
        ("model", {"kind": "stationary", "px_rows": [[0, 1], [1, 0]],
                   "dwell": {"tail": 10**400}}),
        ("model", {"kind": "stationary", "px_rows": [[0, 1], [1, 0]],
                   "dwell": [{"tail": 0.5}, {"prefix": [0.5, "x"], "tail": 0.5}]}),
        ("model", {"kind": "stationary", "px_rows": [[False, True], [True, False]],
                   "dwell": 0.5}),
        ("model", {"kind": "bayesian", "bayes_p": True}),
        ("policy", {"kind": "explicit", "schedule_path": "bad_field.txt"}),
        ("model", {"kind": "stationary", "px_rows": [[0, 1], [1, 0]],
                   "dwell": {"prefix": 0.5, "tail": 0.5}}),
        ("policies", 5),
    ], ids=["bayes_p", "period_0", "uniform_scalar", "model_null", "horizon_0",
            "horizon_negative", "horizon_float", "horizon_bool", "num_paths_float",
            "seed_negative", "period_float", "delay_float", "delay_bool", "dwell_no_tail",
            "px_rows_scalar", "px_rows_ragged", "delay_past_int64", "explicit_late_pair",
            "num_paths_0", "tail_bool", "tail_text", "tail_past_float", "prefix_text",
            "px_entry_bool", "bayes_p_bool", "explicit_bad_field", "prefix_scalar",
            "policies_scalar"])
    def test_bad_config_exit_2(self, tmp_path, capsys, monkeypatch, request, section, edit):
        (tmp_path / "late_pair.txt").write_text("5 3\n")  # sampled after its delivery
        (tmp_path / "bad_field.txt").write_text("3 5\n5 x\n")
        monkeypatch.chdir(tmp_path)
        data = {**SWAP_CONFIG, section: edit}
        if section == "run":
            data["run"] = {**SWAP_CONFIG["run"], **edit}
        if section == "policies":
            del data["policy"]
        assert main(["simulate", "--config", write_config(tmp_path, data),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        if request.node.callspec.id.startswith("px_rows"):
            assert "model.px_rows must be an n x n list of numbers, got" in err
        assert BAD_CONFIG_MESSAGES.get(request.node.callspec.id, "") in err

    @pytest.mark.parametrize("command", [["entropy-rate"], ["simulate", "--out", "out"]],
                             ids=["entropy_rate", "simulate"])
    @pytest.mark.parametrize("model", [
        {"kind": "stationary", "px_rows": [[0, 1], [1, 0]], "dwell": float("nan")},
        {"kind": "stationary", "px_rows": [[float("nan"), 1], [1, 0]], "dwell": 0.5},
    ], ids=["dwell_nan", "px_rows_nan"])
    def test_nan_model_exit_3(self, tmp_path, capsys, monkeypatch, command, model):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, {**SWAP_CONFIG, "model": model})
        assert main([command[0], "--config", cfg, *command[1:]]) == EXIT_MODEL
        err = capsys.readouterr().err
        assert err.startswith("model error:") and err.count("\n") == 1

    def test_reducible_model_exit_3_before_any_output(self, tmp_path, capsys):
        # state 2 is never entered: the model is refused as the config loads,
        # before the output directory is made
        model = {"kind": "stationary", "px_rows": [[0, 1, 0], [1, 0, 0], [0.5, 0.5, 0]],
                 "dwell": 0.5}
        cfg = write_config(tmp_path, {**SWAP_CONFIG, "model": model})
        out = tmp_path / "new" / "x"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_MODEL
        assert capsys.readouterr().err == (
            "model error: change chain is not irreducible; unreachable states: [2]\n")
        assert not out.parent.exists()

    def test_delay_bound_at_int64_max_runs(self, tmp_path):
        data = {**SWAP_CONFIG, "policy": {"kind": "greedy", "delay": {"uniform": [2, 2**63 - 1]}}}
        assert main(["simulate", "--config", write_config(tmp_path, data),
                     "--out", str(tmp_path / "out")]) == EXIT_OK

    def test_oversized_run_exit_2(self, tmp_path, capsys):
        # refused as the config loads, before anything is allocated
        out = tmp_path / "out"
        assert main(["simulate", "--preset", "fig6", "--paths", "99999999999999999999",
                     "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: run.num_paths must be < 2**63, got 99999999999999999999\n")
        assert not out.exists()
        cfg = write_config(tmp_path, {**BAYES_CONFIG, "run": {"horizon": 10**23}})
        assert main(["verify", "thm2", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: run.horizon must be < 2**63, got 100000000000000000000000\n")

    @pytest.mark.parametrize("argv", [["simulate", "--preset", "fig6", "--out", "out"],
                                      ["verify", "thm1", "--preset", "fig5"],
                                      ["verify", "thm2", "--preset", "fig6"]])
    def test_unsizable_run_exit_2(self, tmp_path, capsys, monkeypatch, argv):
        # 2**60 paths pass RunConfig, but numpy refuses their 8-byte arrays
        # with a ValueError before it allocates anything; no half report is printed
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--paths", str(2**60)]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error: the run does not fit in memory (array is too big")
        assert err.count("\n") == 1

    def test_other_value_error_not_taken_for_memory(self, tmp_path, monkeypatch):
        def broken(cfg):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_ensemble", broken)
        with pytest.raises(ValueError, match="broadcast"):
            main(["simulate", "--preset", "fig6", "--out", "out"])

    @pytest.mark.parametrize("message", [
        "Unable to allocate 745. GiB for an array with shape (100000000000,) and data type "
        "float64", ""])
    @pytest.mark.parametrize("argv", [["verify", "thm1", "--preset", "fig5"],
                                      ["simulate", "--preset", "fig6", "--out", "out"]])
    def test_out_of_memory_exit_2(self, tmp_path, capsys, monkeypatch, argv, message):
        # a run too large for memory is the config's fault: one line, exit 2
        def too_big(cfg):
            raise MemoryError(message)

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_ensemble", too_big)
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: the run does not fit in memory (")
        assert (message or "MemoryError") in err and err.count("\n") == 1

    def test_negative_seed_override_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SWAP_CONFIG)
        assert main(["simulate", "--config", cfg, "--seed", "-1",
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "run.base_seed must be >= 0, got -1" in capsys.readouterr().err

    def test_stationary_law_computed_once(self, tmp_path, monkeypatch):
        # JointModel.law solves the embedded change chain, once per model
        calls = []
        real = markov.embedded_stationary

        def counted(model):
            calls.append(model)
            return real(model)

        monkeypatch.setattr(markov, "embedded_stationary", counted)
        data = {**SWAP_CONFIG, "policies": [SWAP_CONFIG["policy"],
                                            {"kind": "greedy", "delay": {"uniform": [1, 9]}}]}
        del data["policy"]
        cfg = write_config(tmp_path, data)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
        assert len(calls) == 1
        assert main(["verify", "thm1", "--config", cfg]) == EXIT_OK
        assert len(calls) == 2

    def test_explicit_schedule_file(self, tmp_path):
        pairs = tmp_path / "sched.txt"
        pairs.write_text("3 5\n8 9\n")
        data = dict(SWAP_CONFIG)
        data["policy"] = {"kind": "explicit", "schedule_path": str(pairs)}
        data["run"] = {"horizon": 10, "num_paths": 5, "base_seed": 1}
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_config(tmp_path, data),
                     "--out", str(out)]) == EXIT_OK
        with (out / "summary.csv").open() as fh:
            row = next(csv.DictReader(fh))
        assert float(row["mean_cum_aoi"]) == 25.0  # 45 - 3*(9-5) - 8*(10-9)


class TestVerify:
    def test_thm1_passes(self, tmp_path):
        data = dict(SWAP_CONFIG)
        data["run"] = {"horizon": 1000, "num_paths": 400, "base_seed": 2}
        assert main(["verify", "thm1", "--config", write_config(tmp_path, data)]) == EXIT_OK

    def test_thm1_zero_rate_model_still_checks_delay(self, tmp_path, capsys):
        data = dict(SWAP_CONFIG)
        data["model"] = {
            "kind": "stationary",
            "alphabet_size": 2,
            "px_rows": [[0, 1], [1, 0]],
            "dwell": {"prefix": [1.0], "tail": 1.0},
        }
        data["run"] = {"horizon": 200, "num_paths": 50, "base_seed": 2}
        assert main(["verify", "thm1", "--config", write_config(tmp_path, data)]) == EXIT_OK
        assert "n/a (zero entropy rate)" in capsys.readouterr().out

    def test_thm1_sticky_no_false_fail(self, tmp_path, capsys):
        # both delays sit 2-4 % above their AoI (the paths saw 1.9 % more
        # changes than T * p_change), yet R_k's gaps lie within 2.1 standard
        # errors: a relative-gap gate would fail them, the SE test must not
        data = {
            "model": sticky_model(7, 150),
            "policies": [
                {"kind": "periodic", "period": 5, "delay": {"deterministic": 2}},
                {"kind": "greedy", "delay": {"uniform": [1, 6]}},
            ],
            "run": {"horizon": 200, "num_paths": 300, "base_seed": 7},
        }
        code = main(["verify", "thm1", "--config", write_config(tmp_path, data), "--seed", "9"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert " z=+2.04 (ok)" in out and " z=+0.32 (ok)" in out

    def test_thm1_detects_late_detection(self, monkeypatch, capsys):
        # one slot of extra delay per change, in the ensemble only: the
        # schedule identities still hold, the paired Monte Carlo test fails
        def late(block, detect=ensemble.detection_block):
            return detect(block) + 1

        monkeypatch.setattr(ensemble, "detection_block", late)
        code = main(["verify", "thm1", "--preset", "fig5", "--paths", "200"])
        lines = capsys.readouterr().out.splitlines()
        assert code == EXIT_VERIFY_FAILED
        assert lines[0].startswith("analytic: ") and lines[0].endswith(" (ok)")
        assert [line.split(":")[0] for line in lines[1:]] == ["periodic50", "greedy"]
        assert all(line.endswith(" (FAIL)") for line in lines[1:])

    @pytest.mark.parametrize("gap, se, verdict", [
        (0.0, 0.0, "ok"), (1.0, 0.0, "inconclusive: se=0"), (3.0, 1.0, "ok"),
        (3.01, 1.0, "FAIL"), (-3.01, 1.0, "FAIL"),
    ])
    def test_verdict(self, gap, se, verdict):
        assert cli._verdict(gap, se) == verdict

    def test_thm1_analytic_check_runs_the_ensemble_detection(self, monkeypatch, capsys):
        # the analytic identities read detection times from the same
        # detection_block as the ensemble, so a late detection must fail them
        def late(block, detect=metrics.detection_block):
            return detect(block) + 1

        monkeypatch.setattr(metrics, "detection_block", late)
        monkeypatch.setattr(ensemble, "detection_block", late)
        code = main(["verify", "thm1", "--preset", "fig5", "--paths", "20"])
        assert "FAIL: integer schedule identity violated" in capsys.readouterr().out
        assert code == EXIT_VERIFY_FAILED

    def test_thm2_passes(self, tmp_path):
        data = dict(BAYES_CONFIG)
        data["run"] = {"horizon": 100, "num_paths": 1000, "base_seed": 2}
        assert main(["verify", "thm2", "--config", write_config(tmp_path, data)]) == EXIT_OK

    def test_thm2_zero_se_is_inconclusive(self, tmp_path, capsys):
        # no path sees a change before its delivery: the residual's standard
        # error is 0, which neither passes nor fails the 3-sigma check
        data = dict(BAYES_CONFIG)
        data["policy"] = {"kind": "greedy", "delay": {"uniform": [2, 2**63 - 1]}}
        data["run"] = {"horizon": 10, "num_paths": 5, "base_seed": 0}
        code = main(["verify", "thm2", "--config", write_config(tmp_path, data)])
        out = capsys.readouterr().out
        assert code == EXIT_VERIFY_FAILED
        assert "analytic: " in out and "(ok)" in out
        [line] = [s for s in out.splitlines() if s.startswith("greedy: ")]
        assert line.endswith(" se=0.0 (inconclusive: se=0)")
        assert "FAIL" not in out

    def test_theorem_model_mismatch_exit_2(self, tmp_path):
        assert main(["verify", "thm2", "--config", write_config(tmp_path, SWAP_CONFIG)]) == EXIT_CONFIG
        assert main(["verify", "thm1", "--config", write_config(tmp_path, BAYES_CONFIG)]) == EXIT_CONFIG

    def test_one_path_exit_2(self, capsys):
        # a standard error needs two paths
        assert main(["verify", "thm2", "--preset", "fig6", "--paths", "1"]) == EXIT_CONFIG
        assert "--paths 1 < 2" in capsys.readouterr().err

    def test_preset_fig6_verifies(self, tmp_path):
        assert main(["verify", "thm2", "--preset", "fig6", "--paths", "400"]) == EXIT_OK

    def test_preset_verify_skips_yaml_and_numpy_ma(self):
        # a preset needs no YAML parser, and nothing on the verify path needs
        # numpy.ma: importing either costs 10-30 ms of every run's start-up
        out = run_python("from gaoi import cli\n"
                         "argv = ['verify', 'thm2', '--preset', 'fig6', '--paths', '20']\n"
                         "code = cli.main(argv)\n"
                         "print(code, sorted({'yaml', 'numpy.ma'} & set(sys.modules)))\n")
        assert out.splitlines()[-1] in ("0 []", "1 []")

    def test_json_config_skips_yaml(self, tmp_path):
        # JSON text is read with the standard library; only YAML text imports yaml
        as_yaml = Path(cli.__file__).resolve().parents[2] / "configs" / "geometric_change.yaml"
        as_json = tmp_path / "geometric_change.json"
        as_json.write_text(json.dumps(yaml.safe_load(as_yaml.read_text())))
        out = run_python("from gaoi import config\n"
                         f"config.load_config({str(as_json)!r})\n"
                         "print('yaml' in sys.modules)\n"
                         f"config.load_config({str(as_yaml)!r})\n"
                         "print('yaml' in sys.modules)\n")
        assert out.split() == ["False", "True"]


@pytest.mark.parametrize("command", [["entropy-rate"], ["simulate"], ["verify", "thm1"],
                                     ["verify", "thm2"]],
                         ids=["entropy_rate", "simulate", "verify_thm1", "verify_thm2"])
@pytest.mark.parametrize("source, message", [
    (["--preset", "fig5", "--config", "{config}"],
     "argument --config: not allowed with argument --preset"),
    ([], "one of the arguments --config --preset is required"),
], ids=["both", "neither"])
def test_config_xor_preset_exit_2(tmp_path, capsys, monkeypatch, command, source, message):
    # a run reads exactly one of a config file and a preset: given both, it
    # once ran the preset and ignored the file
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, BAYES_CONFIG)
    with pytest.raises(SystemExit) as exc:
        main([*command, *(arg.format(config=cfg) for arg in source)])
    assert exc.value.code == EXIT_CONFIG
    out_err = capsys.readouterr()
    assert out_err.out == "" and message in out_err.err
    assert list(tmp_path.iterdir()) == [tmp_path / "config.yaml"]


def test_workers_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--preset", "fig5", "--workers", "2"])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


# gaoi's public names, sorted: one per concept, so adding or removing one is a
# one-line diff here
PUBLIC_NAMES = [
    "BayesModel",
    "ChangeKernel",
    "DelayLaw",
    "DwellKernel",
    "EnsembleStats",
    "IrreducibilityError",
    "JointModel",
    "ModelError",
    "PolicySpec",
    "ScheduleBlock",
    "ScheduleError",
    "StationaryDistribution",
    "bayes_cumulative_gaoi",
    "bayes_expected_delay",
    "bayes_gaoi",
    "closed_form_aoi",
    "cumulative_aoi",
    "delay_double_sum",
    "derive_stream",
    "discrete_entropy",
    "exact_bayes_delay",
    "exact_bayes_gaoi",
    "exact_conditional_entropy",
    "exact_ensemble_gaoi",
    "filter_stale",
    "generate_schedules",
    "h_closed",
    "random_schedule",
    "run_ensemble",
]


def test_import_gaoi_skips_config_cli_and_yaml():
    # the library (and the oracle workload, which imports it) needs neither
    # the config reader nor the CLI: loading them costs start-up on every import.
    # `import gaoi` loads no layer at all; a name loads its own layer on first use.
    # The model's types are plain classes, so the oracle's layers skip dataclasses
    out = run_python(
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'gaoi')\n"
        "import gaoi\n"
        "print(loaded(), 'numpy' in sys.modules)\n"
        "from gaoi import markov, oracle\n"
        "print(loaded(), 'dataclasses' in sys.modules)\n"
        "names = {name: getattr(gaoi, name) for name in gaoi.__all__}\n"
        "print(sorted({value.__module__ for value in names.values()}))\n"
        "print([name for name, value in names.items() if name not in dir(gaoi)\n"
        "       or getattr(sys.modules[value.__module__], name) is not value])\n"
        "print(sorted({'gaoi.config', 'gaoi.cli', 'yaml'} & set(sys.modules)))\n"
        "try:\n"
        "    gaoi.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
        "print(*sorted(names), sep='\\n')\n")
    lines = out.splitlines()
    assert lines[6:] == PUBLIC_NAMES
    assert lines[:6] == [
        "['gaoi'] False",
        "['gaoi', 'gaoi.markov', 'gaoi.oracle'] False",
        "['gaoi.bayes', 'gaoi.ensemble', 'gaoi.markov', 'gaoi.metrics', 'gaoi.oracle', "
        "'gaoi.schedule']",
        "[]",
        "[]",
        "module 'gaoi' has no attribute 'no_such_name'",
    ]



@pytest.mark.parametrize("argv", [["oracle", "--seed", "3"], ["setup", "--preset", "fig5"],
                                  ["setup", "--library"], ["setup", "--config", "{sticky_json}"]],
                         ids=["oracle", "setup_preset", "setup_library", "setup_json_config"])
def test_benchmark_operations_run(tmp_path, argv):
    # perfbench/op.py calls the library itself: gaoi.markov's shims
    # stationary_distribution, entropy_rate(...).bits and validate_model,
    # exact_ensemble_gaoi, the kernels, preset_config and load_config (on a
    # JSON file, as sticky-sim writes it)
    repo = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(repo / "src")}
    sticky_json = tmp_path / "sticky.yaml"
    sticky_json.write_text(json.dumps({"model": sticky_model(7, 170)}))
    argv = [a.format(sticky_json=sticky_json) for a in argv]
    proc = subprocess.run([sys.executable, str(repo / "perfbench" / "op.py"), *argv],
                          capture_output=True, text=True, env=env, cwd=repo)
    assert proc.returncode == 0, proc.stderr
    if argv[0] == "oracle":
        pairs = json.loads(proc.stdout)["pairs"]
        assert pairs and all(exact == pytest.approx(scaled, rel=1e-12, abs=1e-12)
                             for exact, scaled in pairs)
