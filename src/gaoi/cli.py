"""Command-line front end.

Subcommands:

* ``entropy-rate``: print the exact entropy rate and per-slot change
  probability of a stationary model.
* ``simulate``: run the configured ensemble and write ``series.csv`` /
  ``summary.csv`` to the output directory (deterministic for a fixed seed).
* ``verify``: check the stationary proportionality law (``thm1``) or the
  Bayesian affine law (``thm2``), both analytically and by Monte Carlo.
  Every Monte Carlo check prints its gap and standard error and is judged
  by one rule, ``_verdict``.

Exit codes: 0 success, 1 verification failed or inconclusive, 2 config
error, 3 model error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from ._base import ModelError
from .config import ConfigError, RunConfig, load_config, preset_config
from .ensemble import EnsembleStats, derive_stream, run_ensemble
from .schedule import DelayLaw, PolicySpec, generate_schedules, random_schedule

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_MODEL = 3
EXIT_IO = 4

SUMMARY_COLUMNS = [
    "policy", "num_paths", "horizon", "p_change", "entropy_rate",
    "mean_cum_aoi", "se_cum_aoi", "mean_cum_delay", "se_cum_delay",
    "mean_cum_gaoi", "scaled_aoi", "residual",
]
SERIES_COLUMNS = ["n", "mean_aoi", "mean_gaoi", "mean_cum_aoi", "mean_cum_gaoi"]


def _csv(columns: dict[str, list]) -> str:
    """CSV text of ``columns``, each a name and its cells: a header line,
    then one line per row.

    A cell is an int, a float or a str, written as ``str`` writes it; a
    float's ``str`` is its shortest repr, so it reads back bit for bit.  No
    cell ever needs quoting: cells are numbers, ``""`` or the policy labels
    ``periodic<N>``, ``greedy`` and ``explicit``.  A file takes the text with
    ``newline="\r\n"``, the line ending ``csv.writer`` writes.
    """
    # lazily, so that only one line's cells are held at a time
    cells = (map(str, [name, *values]) for name, values in columns.items())
    return "\n".join(map(",".join, zip(*cells))) + "\n"


def _load(args) -> RunConfig:
    cfg = load_config(args.config) if args.preset is None else preset_config(args.preset)
    # a new RunConfig checks the run's ranges again, overrides included
    return RunConfig(cfg.model, cfg.policies, cfg.horizon,
                     cfg.num_paths if args.paths is None else args.paths,
                     cfg.base_seed if args.seed is None else args.seed)


def _policy_labels(cfg: RunConfig, command: str) -> list[str]:
    """Each policy's label (``periodic<N>``, ``greedy``, ``explicit``), which
    names its series file, summary row and ``verify`` line; a run with no
    policy, or with a label twice, is a config error."""
    if not cfg.policies:
        raise ConfigError(f"{command} needs a 'policy' or 'policies' section")
    labels = [f"periodic{p.period}" if p.kind == "periodic" else p.kind for p in cfg.policies]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ConfigError(f"repeated policy label {', '.join(repeated)}: each policy needs "
                          "its own series file, summary row and verify line")
    return labels


def _summary_row(cfg: RunConfig, label: str, stats: EnsembleStats) -> dict:
    row = {c: "" for c in SUMMARY_COLUMNS}
    row.update(
        policy=label,
        num_paths=stats.num_paths,
        horizon=stats.horizon,
        mean_cum_aoi=stats.mean["cum_aoi"],
        se_cum_aoi=stats.se["cum_aoi"],
        mean_cum_delay=stats.mean["cum_delay"],
        se_cum_delay=stats.se["cum_delay"],
        mean_cum_gaoi=stats.mean["cum_gaoi"],
    )
    model = cfg.model
    if cfg.is_bayesian:
        row["residual"] = float(
            stats.mean["cum_gaoi"] - model.h1 / model.p * stats.mean["cum_delay"]
        )
    else:
        row["p_change"] = model.p_change
        row["entropy_rate"] = model.rate
        row["scaled_aoi"] = model.p_change * stats.mean["cum_aoi"]
    return row


def _series_csv(stats: EnsembleStats) -> str:
    """The text of ``series.csv``, built from whole columns: ``np.cumsum``
    adds in slot order, as a running float sum does."""
    aoi, gaoi = stats.mean_aoi_series, stats.mean_gaoi_series
    columns = [aoi, gaoi, np.cumsum(aoi), np.cumsum(gaoi)]
    return _csv(dict(zip(SERIES_COLUMNS, [range(stats.horizon), *(c.tolist() for c in columns)])))


def cmd_entropy_rate(args) -> int:
    cfg = _load(args)
    if cfg.is_bayesian:
        raise ConfigError("entropy-rate needs a stationary model")
    model = cfg.model
    print(f"entropy_rate_bits_per_slot: {model.rate!r}")
    print(f"p_change: {model.p_change!r}")
    row = {c: "" for c in SUMMARY_COLUMNS}
    row.update(policy="", num_paths=0, horizon=cfg.horizon, p_change=model.p_change,
               entropy_rate=model.rate)
    print(_csv({c: [row[c]] for c in SUMMARY_COLUMNS}), end="")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load(args)
    labels = _policy_labels(cfg, "simulate")
    out = Path(args.out or ".")
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        print(f"error: cannot write to {out}: {exc}", file=sys.stderr)
        return EXIT_IO
    summary_rows = []
    for i, (label, stats) in enumerate(zip(labels, run_ensemble(cfg))):
        summary_rows.append(_summary_row(cfg, label, stats))
        series = _series_csv(stats)
        if i == 0:
            (out / "series.csv").write_text(series, newline="\r\n")
        if len(cfg.policies) > 1:
            (out / f"series_{label}.csv").write_text(series, newline="\r\n")
    summary = {c: [row[c] for row in summary_rows] for c in SUMMARY_COLUMNS}
    (out / "summary.csv").write_text(_csv(summary), newline="\r\n")
    for row in summary_rows:
        print(",".join(f"{c}={row[c]}" for c in SUMMARY_COLUMNS if row[c] != ""))
    return EXIT_OK


def _verdict(gap: float, se: float) -> str:
    """The verdict of a Monte Carlo check whose gap has mean 0 under the law.

    The gap passes within three standard errors.  A zero standard error with
    a nonzero gap carries no information: the check neither passes nor fails.
    """
    if abs(gap) <= 3.0 * se:
        return "ok"
    return "inconclusive: se=0" if se == 0.0 else "FAIL"


def _verify_thm1(cfg: RunConfig, labels: list[str]) -> int:
    """Theorem 1: E[cum_delay] = p_change * E[cum_aoi] under any
    state-independent policy, and GAoI is the entropy rate times AoI.

    The analytic check runs the integer identities behind it on 100 random
    schedules.  The Monte Carlo check is paired: given its schedule, path k's
    R_k = (cum_delay_k - N_k * cum_aoi_k / T) / p_change, N_k its change count
    (mean T * p_change, a control variate that cuts the noise 2-3 fold), has
    mean exactly 0, so the gap mean(R) is judged against its own standard
    error.  GAoI/rate is printed but not judged: the ensemble sets each path's
    GAoI to rate * AoI.
    """
    from .metrics import closed_form_aoi, cumulative_aoi, delay_double_sum  # thm1's alone

    model = cfg.model
    rng = derive_stream(cfg.base_seed, 0, 99)
    for _ in range(100):
        sched = random_schedule(int(rng.integers(2, 201)), rng, 1)
        aoi = cumulative_aoi(sched)[0]
        if aoi != closed_form_aoi(sched)[0] or aoi != delay_double_sum(sched)[0]:
            print("FAIL: integer schedule identity violated")
            return EXIT_VERIFY_FAILED
    ensemble = run_ensemble(cfg)  # before any output: a run that cannot fit prints nothing
    print("analytic: cumulative_aoi == closed_form_aoi == delay_double_sum "
          "on 100 schedules (ok)")
    verdicts = []
    for label, stats in zip(labels, ensemble):
        values = stats.values
        paired = (values["cum_delay"] - values["num_changes"] * values["cum_aoi"]
                  / stats.horizon) / model.p_change
        gap = float(paired.mean())
        se = float(paired.std(ddof=1) / np.sqrt(stats.num_paths))
        verdicts.append(_verdict(gap, se))
        gaoi = ("n/a (zero entropy rate)" if model.rate == 0.0
                else repr(stats.mean["cum_gaoi"] / model.rate))
        z = f"{gap / se:+.2f}" if se > 0.0 else "n/a"
        print(f"{label}: gaoi/rate={gaoi} aoi={stats.mean['cum_aoi']!r} "
              f"delay/p={stats.mean['cum_delay'] / model.p_change!r} gap={gap!r} se={se!r} "
              f"z={z} ({verdicts[-1]})")
    return EXIT_OK if all(v == "ok" for v in verdicts) else EXIT_VERIFY_FAILED


def _verify_thm2(cfg: RunConfig, labels: list[str]) -> int:
    from .bayes import bayes_cumulative_gaoi, bayes_expected_delay, h_closed

    model = cfg.model
    t = cfg.horizon
    c_t = float(h_closed(model, t))
    scale = model.h1 / model.p
    rng = derive_stream(cfg.base_seed, 0, 98)
    blocks = [random_schedule(t, rng, 100)]
    for policy in cfg.policies:
        # deterministic-delay variant of each configured policy (midpoint delay)
        mid = (policy.delay.lo + policy.delay.hi) // 2
        det = PolicySpec(policy.kind, policy.period, DelayLaw(mid, mid), policy.pairs)
        blocks.append(generate_schedules(det, t, [rng]))
    worst = max(
        float(np.abs(bayes_cumulative_gaoi(model, b) - scale * bayes_expected_delay(model, b)
                     - c_t).max())
        for b in blocks
    )
    analytic_ok = worst < 1e-9
    ensemble = run_ensemble(cfg)  # before any output: a run that cannot fit prints nothing
    print(f"C(T)={c_t!r}")
    print(f"analytic: max |residual - C(T)| = {worst:.3e} "
          f"({'ok' if analytic_ok else 'FAIL'})")
    residuals = []
    verdicts = []
    for label, stats in zip(labels, ensemble):
        res = float(stats.mean["cum_gaoi"] - scale * stats.mean["cum_delay"])
        se = float(scale * stats.se["cum_delay"])
        residuals.append((res, se))
        verdicts.append(_verdict(res - c_t, se))
        print(f"{label}: residual={res!r} se={se!r} ({verdicts[-1]})")
    if len(residuals) >= 2:
        (r1, e1), (r2, e2) = residuals[:2]
        combined = (e1**2 + e2**2) ** 0.5
        verdicts.append(_verdict(r1 - r2, combined))
        print(f"policy residual gap {abs(r1 - r2)!r} vs 3*combined_se "
              f"{3.0 * combined!r} ({verdicts[-1]})")
    mc_ok = all(v == "ok" for v in verdicts)
    return EXIT_OK if analytic_ok and mc_ok else EXIT_VERIFY_FAILED


def cmd_verify(args) -> int:
    cfg = _load(args)
    labels = _policy_labels(cfg, "verify")
    if cfg.num_paths < 2:
        raise ConfigError(
            f"--paths {cfg.num_paths} < 2: a standard error needs at least two paths")
    if args.theorem == "thm1":
        if cfg.is_bayesian:
            raise ConfigError("thm1 needs a stationary model")
        return _verify_thm1(cfg, labels)
    if not cfg.is_bayesian:
        raise ConfigError("thm2 needs a bayesian model")
    return _verify_thm2(cfg, labels)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gaoi",
                                     description="Status-update freshness simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--config", help="JSON config path")
        source.add_argument("--preset", help="built-in preset name (fig5, fig6)")
        p.add_argument("--seed", type=int, help="override run.base_seed")
        p.add_argument("--paths", type=int, help="override run.num_paths")

    p = sub.add_parser("entropy-rate", help="print entropy rate of a stationary model")
    common(p)
    p.set_defaults(func=cmd_entropy_rate)

    p = sub.add_parser("simulate", help="run the ensemble and emit CSVs")
    common(p)
    p.add_argument("--out", help="output directory (default: cwd)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="check the proportionality/affine laws")
    p.add_argument("theorem", choices=["thm1", "thm2"])
    common(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (MemoryError, ValueError) as exc:
        # numpy refuses an array past its size limit with this ValueError, before allocating
        if isinstance(exc, ValueError) and not str(exc).startswith("array is too big"):
            raise
        print(f"config error: the run does not fit in memory ({str(exc) or 'MemoryError'}); "
              "lower run.horizon or run.num_paths", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
