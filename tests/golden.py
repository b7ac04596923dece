"""Golden outputs of the ``gaoi`` command line, and the script that rewrites them.

    PYTHONPATH=src python tests/golden.py

runs every case in ``CASES`` on this tree and rewrites ``tests/golden/``:
one ``<case>.json`` per case, holding its command line, exit code, stdout
and, for ``simulate``, the exact text of ``summary.csv`` and the SHA-256 of
each ``series*.csv``, plus ``versions.json``, the Python and numpy versions
and numpy's SIMD targets the files were made with.  ``test_golden.py`` runs
the same cases and compares them with the files.  The outputs are
fixed-seed floats written with ``repr``, so any change in a float operation
shows; another numpy, Python or SIMD target may round differently, so a
mismatch of any of them fails on its own, naming both.  A change that moves
an output on purpose reruns this script and says which bytes moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from gaoi import cli

from conftest import sticky_model

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
VERSIONS_FILE = GOLDEN_DIR / "versions.json"

PAIRS = "3 5\n8 9\n20 26\n41 41\n"  # the explicit policy's schedule file


def configs(pairs: Path) -> dict:
    """The config files of the cases, by name; ``pairs`` is the path of the
    explicit policy's schedule file."""
    three_policies = [
        {"kind": "explicit", "schedule_path": str(pairs)},
        {"kind": "periodic", "period": 7, "delay": {"uniform": [0, 4]}},
        {"kind": "greedy", "delay": {"uniform": [1, 6]}},
    ]
    return {
        # a slow-changing 3-status source with a 170-slot dwell prefix, run
        # as the benchmark's sticky workload runs it
        "sticky": {
            "model": sticky_model(7, 170),
            "policies": [
                {"kind": "periodic", "period": 5, "delay": {"deterministic": 2}},
                {"kind": "greedy", "delay": {"uniform": [1, 6]}},
            ],
            "run": {"horizon": 50, "num_paths": 60, "base_seed": 7},
        },
        # ragged dwell prefixes, zero and certain changes inside them, a
        # zero-diagonal change matrix
        "ragged": {
            "model": {"kind": "stationary", "alphabet_size": 3,
                      "px_rows": [[0.0, 0.3, 0.7], [0.5, 0.0, 0.5], [1.0, 0.0, 0.0]],
                      "dwell": [{"prefix": [0.0, 1.0, 0.2], "tail": 0.4},
                                {"prefix": [0.7], "tail": 0.6}, {"tail": 0.9}]},
            "policies": three_policies,
            "run": {"horizon": 120, "num_paths": 50, "base_seed": 11},
        },
        "bayes3": {
            "model": {"kind": "bayesian", "bayes_p": 0.04},
            "policies": three_policies,
            "run": {"horizon": 100, "num_paths": 200, "base_seed": 12},
        },
    }


# "{name}" in a command line is the path of config "name" written as JSON
CASES = {
    "simulate_fig5": ["simulate", "--preset", "fig5", "--paths", "30"],
    "simulate_fig6": ["simulate", "--preset", "fig6"],
    "simulate_sticky": ["simulate", "--config", "{sticky}"],
    "simulate_ragged": ["simulate", "--config", "{ragged}"],
    "simulate_bayes3": ["simulate", "--config", "{bayes3}"],
    "verify_thm1_fig5": ["verify", "thm1", "--preset", "fig5", "--paths", "200"],
    "verify_thm2_fig6": ["verify", "thm2", "--preset", "fig6"],
    "entropy_rate_fig5": ["entropy-rate", "--preset", "fig5"],
    "entropy_rate_sticky": ["entropy-rate", "--config", "{sticky}"],
}


def versions() -> dict:
    """The Python and numpy versions, and the SIMD targets numpy dispatches
    to on this CPU: its AVX-512 paths of ``exp``, ``expm1`` and the logs
    round some inputs differently from its other paths."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "numpy_simd": [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]}


def run_case(name: str, workdir: Path) -> dict:
    """Run case ``name`` in ``workdir`` and return what its golden file holds."""
    pairs = workdir / "pairs.txt"
    pairs.write_text(PAIRS)
    for config, data in configs(pairs).items():
        (workdir / f"{config}.json").write_text(json.dumps(data))
    argv = [str(workdir / f"{arg[1:-1]}.json") if arg.startswith("{") else arg
            for arg in CASES[name]]
    out = workdir / "out"
    if argv[0] == "simulate":
        argv += ["--out", str(out)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    record = {"argv": CASES[name], "exit_code": code, "stdout": stdout.getvalue()}
    if argv[0] == "simulate":
        record["summary_csv"] = (out / "summary.csv").read_bytes().decode()
        record["series_sha256"] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                                   for p in sorted(out.glob("series*.csv"))}
    return record


def main() -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    VERSIONS_FILE.write_text(json.dumps(versions(), indent=1) + "\n")
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            record = run_case(name, Path(tmp))
        (GOLDEN_DIR / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {name}.json (exit {record['exit_code']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
