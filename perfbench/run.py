"""Benchmark of gaoi: four seeded workloads through its public entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it uses the sources under ``src/``
as they are (nothing is installed).  NAME is one of the workloads below, or
``all`` to run each in turn.  One operation is one fresh process running
one ``gaoi`` command or one batch of oracle checks, with its own seed derived
from ``--seed``.  Operations run one at a time, in a closed loop, until
``--seconds`` have passed.  Every operation's output is checked, and the
first is run a second time with the same seed and compared byte for byte.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.  Each
operation runs between two runs of a fixed reference process that never
imports gaoi (``op.py reference``), and its cost is reported in units of
the reference's wall time beside it, as well as in seconds; see
``NOTES.md`` for why.  ``--trace 1`` follows each untraced operation with a
traced one on a fresh seed, and reports the per-layer metrics: calls and
self time per operation of the public functions of gaoi's layers (see
``tracer.py``), a few work counts, and the tracing overhead.
Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A summary, with the environment manifest and
(traced) the time of every traced function, is also written to
``.bench_work/``.  See ``NOTES.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import csv
import importlib.metadata
import json
import math
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from op import MAX_WINDOW, ORACLE_REPS, ORACLE_SHAPES, REFERENCE_NOMINAL_S
from stats import (TAIL_BEYOND, path_slots, relative_cost, self_times, tail_percentile,
                   window_slots)

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

SE_MULTIPLE = 5.0  # a Monte Carlo mean may sit this many standard errors off
ORACLE_TOL = 1e-9  # absolute gap allowed between the oracle and a * rate
SETUP_EVERY = 3  # a set-up probe before every third operation
SETUP_MIN = 5
REFERENCE = ["reference"]
OP_TIMEOUT_S = 45.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (not a failed operation)."""


@dataclass
class Op:
    seed: int
    dir: Path
    argv: list[str]


@dataclass
class Result:
    op: Op
    code: int
    wall_s: float
    rss_kb: int
    stdout: bytes

    def files(self) -> dict[str, bytes]:
        """Standard output plus every file the operation wrote to ``--out``."""
        out = self.op.dir / "out"
        files = {"<stdout>": self.stdout}
        if out.is_dir():
            files.update((p.name, p.read_bytes()) for p in sorted(out.iterdir()))
        return files


# --------------------------------------------------------------- output checks

def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def _read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def check_simulate(res: Result, horizon: int, policies: int) -> tuple[str | None, bool]:
    """Theorem 1 on ``summary.csv`` and the cumulative ``series`` columns.

    Expected delay / p_change equals expected cumulative AoI: the two
    Monte Carlo means must agree within SE_MULTIPLE combined standard
    errors.  The SEs are combined in quadrature, which over-states the SE
    of the difference because the two totals of a path are positively
    correlated.  GAoI is rate x AoI path by path, so that one is exact.
    """
    if res.code != 0:
        return f"exit code {res.code}", False
    out = res.op.dir / "out"
    rows = _read_csv(out / "summary.csv")
    if len(rows) != policies:
        return f"summary.csv has {len(rows)} rows, expected {policies}", False
    for i, row in enumerate(rows):
        f = {k: float(v) for k, v in row.items() if k != "policy" and v != ""}
        p, aoi = f["p_change"], f["mean_cum_aoi"]
        gap = abs(f["mean_cum_delay"] / p - aoi)
        se = math.hypot(f["se_cum_delay"] / p, f["se_cum_aoi"])
        if gap > SE_MULTIPLE * se and not _close(gap, 0.0):
            return f"{row['policy']}: delay/p - aoi = {gap!r} > {SE_MULTIPLE} x se {se!r}", False
        if not _close(f["mean_cum_gaoi"], f["entropy_rate"] * aoi):
            return f"{row['policy']}: mean_cum_gaoi != entropy_rate x mean_cum_aoi", False
        names = [f"series_{row['policy']}.csv"] + (["series.csv"] if i == 0 else [])
        for name in names:
            series = _read_csv(out / name)
            if len(series) != horizon:
                return f"{name} has {len(series)} rows, expected {horizon}", False
            last = series[-1]
            if not (_close(float(last["mean_cum_aoi"]), aoi)
                    and _close(float(last["mean_cum_gaoi"]), f["mean_cum_gaoi"])):
                return f"{name}: cumulative columns do not end at the summary means", False
    return None, False


_VERIFY_POLICY = re.compile(r"^(\S+): residual=(\S+) se=(\S+) \((?:ok|FAIL)\)$", re.M)


def check_verify(res: Result, policies: int) -> tuple[str | None, bool]:
    """Theorem 2 from ``verify thm2``'s printed residuals.

    Exit 1 with a clean analytic line is verify's own 3-sigma verdict on
    one draw: it is returned as a flag, not a failure.  The benchmark's own
    test is each residual against C(T), and the two residuals against each
    other, within SE_MULTIPLE standard errors.
    """
    if res.code not in (0, 1):
        return f"exit code {res.code}", False
    text = res.stdout.decode()
    c_t = re.search(r"^C\(T\)=(\S+)$", text, re.M)
    analytic = re.search(r"^analytic: .* \((ok|FAIL)\)$", text, re.M)
    found = _VERIFY_POLICY.findall(text)
    if c_t is None or analytic is None or len(found) != policies:
        return "unexpected verify output", False
    if analytic.group(1) != "ok":
        return "analytic check failed", False
    c_t = float(c_t.group(1))
    residuals = [(float(r), float(se)) for _, r, se in found]
    for (label, _, _), (r, se) in zip(found, residuals):
        if not se > 0.0 or abs(r - c_t) > SE_MULTIPLE * se:
            return f"{label}: residual {r!r} vs C(T) {c_t!r}, se {se!r}", False
    (r1, e1), (r2, e2) = residuals[:2]
    if abs(r1 - r2) > SE_MULTIPLE * math.hypot(e1, e2):
        return f"policy residuals {r1!r} and {r2!r} differ", False
    return None, res.code == 1


def check_oracle(res: Result) -> tuple[str | None, bool]:
    """Theorem 1 exactly: exact_ensemble_gaoi(a) == a * entropy rate."""
    if res.code != 0:
        return f"exit code {res.code}", False
    pairs = json.loads(res.stdout)["pairs"]
    expected = ORACLE_REPS * len(ORACLE_SHAPES) * MAX_WINDOW
    if len(pairs) != expected:
        return f"{len(pairs)} oracle checks, expected {expected}", False
    worst = max(abs(exact - scaled) for exact, scaled in pairs)
    if not worst <= ORACLE_TOL:
        return f"oracle gap {worst!r} > {ORACLE_TOL}", False
    return None, False


# ------------------------------------------------------------------ workloads

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    op_size: str
    paths: int  # simulated (path, policy) pairs per operation
    work: int  # path slots (oracle: window slots) per operation
    argv: Callable[[int, Path], list[str]]
    setup: Callable[[Op], list[str]]
    check: Callable[[Result], tuple[str | None, bool]]
    verify: bool = False


def _cli(*args) -> list[str]:
    return ["cli", *map(str, args)]


FIG5_PATHS = 30
FIG6_PATHS = 1000
STICKY = dict(states=3, prefix=170, tail=0.01, horizon=50, paths=60)


def sticky_config(seed: int) -> dict:
    """A slow-changing source: 3 statuses, a 170-slot dwell prefix with
    hazards log-uniform on [0.002, 0.1], then a 0.01 tail.  Only the values
    depend on the seed, so every operation costs about the same."""
    rng = random.Random(seed)
    n, m = STICKY["states"], STICKY["prefix"]
    rows = []
    for x in range(n):
        w = [rng.expovariate(1.0) if y != x else 0.0 for y in range(n)]
        rows.append([v / sum(w) for v in w])
    lo, hi = math.log(0.002), math.log(0.1)
    dwell = [{"prefix": [math.exp(rng.uniform(lo, hi)) for _ in range(m)],
              "tail": STICKY["tail"]} for _ in range(n)]
    return {
        "model": {"kind": "stationary", "alphabet_size": n, "px_rows": rows, "dwell": dwell},
        "policies": [
            {"kind": "periodic", "period": 5, "delay": {"deterministic": 2}},
            {"kind": "greedy", "delay": {"uniform": [1, 6]}},
        ],
        "run": {"horizon": STICKY["horizon"], "num_paths": STICKY["paths"], "base_seed": seed},
    }


def _sticky_argv(seed: int, d: Path) -> list[str]:
    path = d / "sticky.yaml"
    path.write_text(json.dumps(sticky_config(seed)))  # JSON is YAML
    return _cli("simulate", "--config", path, "--seed", seed, "--out", d / "out")


WORKLOADS = {w.name: w for w in (
    Workload(
        name="fig5-sim",
        why="per-slot path sampler (markov.joint_step) on the fig5 preset",
        op_size=f"simulate --preset fig5 --paths {FIG5_PATHS}",
        paths=2 * FIG5_PATHS, work=path_slots(FIG5_PATHS, 1000, 2),
        argv=lambda s, d: _cli("simulate", "--preset", "fig5", "--paths", FIG5_PATHS,
                               "--seed", s, "--out", d / "out"),
        setup=lambda op: ["setup", "--preset", "fig5"],
        check=lambda r: check_simulate(r, 1000, 2),
    ),
    Workload(
        name="fig6-verify",
        why="Bayesian series, AoI series and schedules; bypasses the Markov layer",
        op_size=f"verify thm2 --preset fig6 --paths {FIG6_PATHS}",
        paths=2 * FIG6_PATHS, work=path_slots(FIG6_PATHS, 100, 2),
        argv=lambda s, d: _cli("verify", "thm2", "--preset", "fig6", "--paths", FIG6_PATHS,
                               "--seed", s),
        setup=lambda op: ["setup", "--preset", "fig6"],
        check=lambda r: check_verify(r, 2),
        verify=True,
    ),
    Workload(
        name="sticky-sim",
        why="stationary law of a long dwell prefix (markov.stationary_distribution)",
        op_size=("simulate --config <3 states, prefix {prefix}, tail {tail}, "
                 "horizon {horizon}, {paths} paths, 2 policies>").format(**STICKY),
        paths=2 * STICKY["paths"], work=path_slots(STICKY["paths"], STICKY["horizon"], 2),
        argv=_sticky_argv,
        setup=lambda op: ["setup", "--config", op.argv[op.argv.index("--config") + 1]],
        check=lambda r: check_simulate(r, STICKY["horizon"], 2),
    ),
    Workload(
        name="oracle-sweep",
        why="brute-force oracle layer, which the CLI never reaches",
        op_size=f"{ORACLE_REPS * len(ORACLE_SHAPES)} random models x windows 1..{MAX_WINDOW}",
        paths=0,
        work=window_slots([n for n, _ in ORACLE_SHAPES] * ORACLE_REPS, MAX_WINDOW),
        argv=lambda s, d: ["oracle", "--seed", str(s)],
        setup=lambda op: ["setup", "--library"],
        check=check_oracle,
    ),
)}


def op_seeds(workload: str, seed: int):
    """Distinct operation seeds, reproducible from the workload seed."""
    rng = random.Random(f"{workload}:{seed}")
    seen = set()
    while True:
        s = rng.randrange(2**31)
        if s not in seen:
            seen.add(s)
            yield s


# -------------------------------------------------------------------- running

class Runner:
    """Starts operation processes one at a time and waits for each."""

    def __init__(self, work: Path):
        self.work = work
        self.count = 0
        pythonpath = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}

    def prepare(self, wl: Workload, seed: int) -> Op:
        self.count += 1
        d = self.work / f"op{self.count}"
        d.mkdir()
        return Op(seed, d, wl.argv(seed, d))

    def spawn(self, argv: list[str], d: Path) -> tuple[int, float, int, bytes]:
        """Run ``op.py argv`` with its output in ``d``; return its exit code,
        wall time, max RSS (KiB) and standard output."""
        with (d / "stdout").open("wb+") as out, (d / "stderr").open("wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(HERE / "op.py"), *argv],
                                    stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            return proc.returncode, wall, usage.ru_maxrss, out.read()

    def run(self, op: Op, spans: Path | None = None) -> Result:
        argv = op.argv if spans is None else ["--spans", str(spans), *op.argv]
        return Result(op, *self.spawn(argv, op.dir))

    def probe(self, argv: list[str]) -> float:
        """Wall time of a set-up probe or of the reference process."""
        d = self.work / "probe"
        d.mkdir(exist_ok=True)
        code, wall, _, _ = self.spawn(argv, d)
        if code != 0:
            raise BenchError(f"probe {argv} exited {code}: "
                             f"{(d / 'stderr').read_text()[-2000:]}")
        return wall


@dataclass
class Profile:
    """Calls and self time per traced function, summed over traced operations."""

    ops: int = 0
    calls: Counter = field(default_factory=Counter)
    self_s: Counter = field(default_factory=Counter)
    counters: Counter = field(default_factory=Counter)

    def add(self, path: Path) -> None:
        with np.load(path) as data:
            header = json.loads(str(data["header"]))
            names = header["names"]
            nid = data["name"]
            own = self_times(data["parent"], data["start"], data["end"])
        calls = np.bincount(nid, minlength=len(names))
        sums = np.bincount(nid, weights=own, minlength=len(names))
        for i, name in enumerate(names):
            self.calls[name] += int(calls[i])
            self.self_s[name] += float(sums[i])
        self.counters.update(header["counters"])
        self.ops += 1


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    flags: int = 0
    output_bytes: int = 0
    rss_kb: int = 0
    op_times: list[float] = field(default_factory=list)
    ref_times: list[float] = field(default_factory=list)  # reference beside each op
    errors: list[str] = field(default_factory=list)

    def record(self, wl: Workload, res: Result, timed: bool = True,
               expected: dict[str, bytes] | None = None) -> None:
        """Check one operation's output (and, given the expected files,
        compare it byte for byte); a failed operation counts once."""
        self.attempted += 1
        try:
            error, flag = wl.check(res)
        except (OSError, ValueError, KeyError, IndexError, TypeError, ArithmeticError) as exc:
            # missing or garbled output
            error, flag = f"unreadable output: {exc!r}", False
        if error is None and expected is not None and res.files() != expected:
            error = "output differs when run again with the same seed"
        if error is not None:
            self.failed += 1
            self.errors.append(f"seed {res.op.seed}: {error}")
        self.flags += flag
        if timed:
            self.op_times.append(res.wall_s)
            self.rss_kb = max(self.rss_kb, res.rss_kb)
            self.output_bytes += sum(len(b) for b in res.files().values())


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    runner = Runner(work)
    seeds = op_seeds(wl.name, seed)
    tally = Tally()
    first = runner.prepare(wl, next(seeds))
    setup_argv = wl.setup(first)
    runner.probe(setup_argv)  # warm-up: byte-compiles the sources
    after = runner.probe(REFERENCE)  # the latest reference run
    setup: list[float] = []
    setup_refs: list[float] = []  # reference beside each set-up probe
    traced_times: list[float] = []
    profile = Profile()
    expected: dict[str, bytes] | None = None

    def probe_setup() -> None:
        nonlocal after
        setup.append(runner.probe(setup_argv))
        before, after = after, runner.probe(REFERENCE)
        setup_refs.append((before + after) / 2)

    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        op = first if expected is None else runner.prepare(wl, next(seeds))
        if trace:
            # a traced operation on a fresh seed after each untraced one, so
            # no traced operation repeats an input the untraced one just ran
            res = runner.run(op)
            tally.record(wl, res)
            traced_op = runner.prepare(wl, next(seeds))
            traced = runner.run(traced_op, traced_op.dir / "spans.npz")
            tally.record(wl, traced, timed=False)
            traced_times.append(traced.wall_s)
            if traced.code in (0, 1):
                profile.add(traced_op.dir / "spans.npz")
            shutil.rmtree(traced_op.dir)
        else:
            if len(tally.op_times) % SETUP_EVERY == 0:
                probe_setup()
            before = after
            res = runner.run(op)
            after = runner.probe(REFERENCE)
            tally.ref_times.append((before + after) / 2)
            tally.record(wl, res)
        if expected is None:
            expected = res.files()
        if op is not first:  # the set-up probe may read the first op's config
            shutil.rmtree(op.dir)
    while not trace and len(setup) < SETUP_MIN:
        probe_setup()
    shutil.rmtree(first.dir)

    # determinism: the first operation again, same seed, byte for byte
    again = runner.prepare(wl, first.seed)
    tally.record(wl, runner.run(again), timed=False, expected=expected)
    shutil.rmtree(again.dir)

    return {"tally": tally, "setup": setup, "setup_refs": setup_refs,
            "traced_times": traced_times, "profile": profile}


# -------------------------------------------------------------------- metrics

def end_to_end(wl: Workload, run: dict, lines: list[str]) -> dict[str, float]:
    """The gated metrics, and the same run in seconds as human-readable lines."""
    tally: Tally = run["tally"]
    times = tally.op_times
    tail = tail_percentile(times)
    if tail is None:
        tail_line = f"{max(times)!r} s (the maximum: {TAIL_BEYOND} or fewer operations)"
    else:
        tail_line = (f"{tail[0]!r} s (p{tail[1]:.1f} of {tail[2]} operations, "
                     f"{TAIL_BEYOND} or more above it)")
    total = sum(times)
    lines += [
        f"  wall_s = {total!r} s ({len(times)} operations)",
        f"  op_p50_s = {statistics.median(times)!r} s",
        f"  op_tail_s = {tail_line}",
        f"  path_slots_per_s = {wl.work * len(times) / total!r} 1/s",
        f"  reference = {statistics.median(tally.ref_times)!r} s (median)",
        f"  set-up = {statistics.median(run['setup'])!r} s (median of {len(run['setup'])} "
        f"probes spread over the run; setup_s scales each to the reference's "
        f"{REFERENCE_NOMINAL_S} s)",
    ]
    return {
        "setup_s": REFERENCE_NOMINAL_S * relative_cost(run["setup"], run["setup_refs"]),
        "op_time_ref": relative_cost(times, tally.ref_times),
        "peak_rss_mb": tally.rss_kb / 1024.0,
    }


def per_layer(wl: Workload, run: dict, names: list[str]) -> dict[str, float]:
    """Per-operation values of the traced functions, their layers, and counts.

    ``<layer>.<function>.calls`` / ``.self_s`` are per traced operation;
    ``<layer>.calls`` / ``.self_s`` sum a whole layer (``config.resolve`` is
    the config layer).  A function that no longer exists reads 0.
    """
    prof: Profile = run["profile"]
    tally: Tally = run["tally"]
    ops = max(prof.ops, 1)
    c = prof.counters
    special = {
        "markov.stationary_levels": c["markov.stationary_levels"] / ops,
        "metrics.changes": c["metrics.changes"] / ops,
        "schedule.aoi_series.per_path":
            prof.calls["schedule.aoi_series"] / (ops * wl.paths) if wl.paths else 0.0,
        "schedule.filter_stale.kept_ratio":
            (c["schedule.filter_stale.pairs_kept"] / c["schedule.filter_stale.pairs_in"]
             if c["schedule.filter_stale.pairs_in"] else 0.0),
        "cli.output_bytes": tally.output_bytes / max(len(tally.op_times), 1),
        "cli.verify_flags": tally.flags / max(tally.attempted, 1) if wl.verify else 0.0,
        "trace.overhead_s":
            statistics.median(run["traced_times"]) - statistics.median(tally.op_times),
    }
    values = {}
    for name in names:
        if name in special:
            values[name] = special[name]
            continue
        key, kind = name.rsplit(".", 1)
        table = prof.calls if kind == "calls" else prof.self_s
        if key == "config.resolve":
            key = "config"
        if "." in key:
            total = table[key]
        else:
            total = sum(v for k, v in table.items() if k.startswith(key + "."))
        values[name] = total / ops
    return values


def manifest(seed: int, seconds: float) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_commit": commit,
        "workload_seed": seed,
        "seconds": seconds,
        "workloads": {w.name: {"op_size": w.op_size} for w in WORKLOADS.values()},
    }


def benchmark(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    wl = WORKLOADS[name]
    work = WORK / f"run-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = run_workload(wl, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tally: Tally = run["tally"]
    lines = [f"workload {name}: {wl.why}"]
    if trace:
        declared = spec["per_layer"]
        values = per_layer(wl, run, [m["name"] for m in declared])
    else:
        declared = spec["end_to_end"]
        values = end_to_end(wl, run, lines)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    lines += [f"  {k} = {v['value']!r} {v['unit']}" for k, v in metrics.items()]
    lines.append(f"operations: {tally.attempted} attempted, {tally.failed} failed "
                 f"({tally.failed / tally.attempted:.1%})")
    if wl.verify:
        lines.append(f"verify's own 3-sigma verdict flagged {tally.flags} of "
                     f"{tally.attempted} operations (exit 1; not a failure)")
    lines += [f"FAILED {e}" for e in tally.errors[:10]]
    summary = {"workload": name, "trace": trace, "manifest": manifest(seed, seconds),
               "attempted": tally.attempted, "failed": tally.failed,
               "op_times_s": tally.op_times, "reference_s": tally.ref_times,
               "setup_probes_s": run["setup"], "setup_reference_s": run["setup_refs"],
               "errors": tally.errors, "metrics": metrics}
    if trace:
        prof: Profile = run["profile"]
        summary["functions"] = {
            k: {"calls_per_op": prof.calls[k] / max(prof.ops, 1),
                "self_s_per_op": prof.self_s[k] / max(prof.ops, 1)}
            for k in sorted(prof.calls)}
        summary["counters"] = dict(prof.counters)
        lines += stress_report(name, prof)
    out = WORK / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(summary, indent=1))
    return {"lines": lines, "metrics": metrics, "attempted": tally.attempted,
            "failed": tally.failed}


SAMPLER_AND_LAW = ("markov.joint_step", "markov.stationary_distribution",
                   "ensemble.simulate_path", "ensemble.draw_stationary_state")


def stress_report(name: str, prof: Profile) -> list[str]:
    """Whether the workload still stresses the layer it was chosen for.

    Reported, not enforced: a later version may rightly move the hot spot.
    """
    top = max(prof.self_s, key=prof.self_s.get, default="none")
    layers = Counter()
    for k, v in prof.self_s.items():
        layers[k.split(".")[0]] += v
    # bayes.BayesModel.h1 calls markov.binary_entropy, so fig6 cannot read 0
    # on every markov.* name; the claim is about the sampler and the law.
    chain_calls = sum(prof.calls[k] for k in SAMPLER_AND_LAW)
    claims = {
        "fig5-sim": ("largest self time is markov.joint_step", top == "markov.joint_step"),
        "sticky-sim": ("largest self time is markov.stationary_distribution",
                       top == "markov.stationary_distribution"),
        "fig6-verify": ("no calls to " + ", ".join(SAMPLER_AND_LAW), chain_calls == 0),
        "oracle-sweep": ("oracle layer has the largest self time",
                         bool(layers) and layers.most_common(1)[0][0] == "oracle"),
    }
    claim, held = claims[name]
    return [f"largest self time: {top}",
            f"stress check ({claim}): {'holds' if held else 'does NOT hold'}"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still kills and reaps its running operation
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "gaoi" / "cli.py").is_file() or not spec_path.is_file():
        print("error: run from the root of a gaoi checkout (src/gaoi and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("manifest " + json.dumps(manifest(args.seed, args.seconds)))
    results = {}
    try:
        for name in names:
            results[name] = benchmark(name, args.seed, args.seconds, bool(args.trace), spec)
            print("\n".join(results[name]["lines"]), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
