"""One benchmark operation, run in a fresh process by ``run.py``.

    op.py [--spans FILE] cli <gaoi arguments>...    the ``gaoi`` command line
    op.py [--spans FILE] oracle --seed N            oracle checks on random models
    op.py setup (--preset NAME | --config PATH | --library)
    op.py reference                                 fixed work that never imports gaoi

``--spans`` records a span around every public function of gaoi's layers
and writes them to FILE when the operation ends.  ``setup`` stops after
importing gaoi and resolving the configuration: its wall time is the
start-up every operation pays.  ``reference`` starts Python, imports numpy
and steps a small two-counter chain with numpy draws, much as gaoi's
samplers do, without importing gaoi: its wall time measures how fast the
machine runs right now, whatever version of gaoi is under test.

The ``oracle`` mode prints one JSON object ``{"pairs": [[exact, scaled],
...]}``: for every model and window ``a = 1..MAX_WINDOW``,
``exact_ensemble_gaoi(model, dist, a)`` next to ``a * entropy_rate(model,
dist).bits``, which Theorem 1 says are equal.
"""

from __future__ import annotations

import json
import math
import sys

MAX_WINDOW = 8
# Every oracle operation covers each (statuses, dwell prefix length) pair
# ORACLE_REPS times, so its cost does not depend on the seed.
ORACLE_SHAPES = tuple((n, m) for n in (2, 3) for m in range(7))
ORACLE_REPS = 2
REFERENCE_SLOTS = 50_000
# Median wall time of the reference (1228 runs of it, over 80 benchmark runs
# on a 2-core VM): the nominal machine speed that setup_s is scaled to.
REFERENCE_NOMINAL_S = 0.31


def _random_model(rng, n: int, m: int):
    from gaoi import markov

    rows = [[0.0] * n for _ in range(n)]
    for x in range(n):
        others = [y for y in range(n) if y != x]
        for y, w in zip(others, rng.dirichlet([1.0] * len(others))):
            rows[x][y] = float(w)
    prefix = rng.uniform(0.05, 0.95, size=(n, m))
    tail = rng.uniform(0.05, 0.95, size=n)
    return markov.validate_model(markov.ChangeKernel(rows), markov.DwellKernel(prefix, tail))


def oracle_sweep(argv: list[str]) -> int:
    import argparse

    import numpy as np
    from gaoi import markov, oracle

    parser = argparse.ArgumentParser(prog="op.py oracle")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    pairs = []
    for _ in range(ORACLE_REPS):
        for n, m in ORACLE_SHAPES:
            model = _random_model(rng, n, m)
            dist = markov.stationary_distribution(model)
            rate = markov.entropy_rate(model, dist).bits
            for a in range(1, MAX_WINDOW + 1):
                pairs.append([oracle.exact_ensemble_gaoi(model, dist, a), a * rate])
    print(json.dumps({"pairs": pairs}))
    return 0


def setup(argv: list[str]) -> int:
    if argv[0] == "--library":
        import gaoi  # noqa: F401  (the oracle workload imports every layer)

        return 0
    from gaoi import cli

    if argv[0] == "--preset":
        cli.preset_config(argv[1])
    else:
        cli.load_config(argv[1])
    return 0


def reference() -> int:
    import numpy as np

    rng = np.random.default_rng(2020)
    x = t = 0
    total = 0.0
    for _ in range(REFERENCE_SLOTS):
        if rng.random() < 0.25:
            x, t = int(rng.integers(3)), 0
        else:
            t += 1
        total += math.log1p(t) * (x + 1)
    print(repr(total))
    return 0


def main(argv: list[str]) -> int:
    spans = None
    if argv[:1] == ["--spans"]:
        spans, argv = argv[1], argv[2:]
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        return setup(rest)
    if mode == "reference":
        return reference()
    tracer = None
    if spans is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if mode == "cli":
            from gaoi import cli

            return cli.main(rest)
        if mode == "oracle":
            return oracle_sweep(rest)
        raise SystemExit(f"op.py: unknown mode {mode!r}")
    finally:
        if tracer is not None:
            tracer.dump(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
