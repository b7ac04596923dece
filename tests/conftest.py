import math
import random

import numpy as np
import pytest

from gaoi import ChangeKernel, DwellKernel, validate_model


def make_two_state_swap(q: float = 0.6):
    """Symmetric two-state chain: every change swaps the status."""
    return validate_model(
        ChangeKernel(np.array([[0.0, 1.0], [1.0, 0.0]])),
        DwellKernel.homogeneous(2, [], q),
    )


def make_cycle(n: int = 3):
    """Deterministic cycle: status advances every slot."""
    rows = np.roll(np.eye(n), 1, axis=1)
    return validate_model(ChangeKernel(rows), DwellKernel.homogeneous(n, [1.0], 1.0))


def make_uniform_three(q: float = 0.5):
    """Three states, changes jump uniformly to one of the other two."""
    rows = (np.ones((3, 3)) - np.eye(3)) / 2.0
    return validate_model(ChangeKernel(rows), DwellKernel.homogeneous(3, [], q))


def random_model(rng: np.random.Generator, max_alphabet: int = 4,
                 max_prefix: int = 10, homogeneous: bool = False):
    """Random irreducible model (strictly positive change rows)."""
    n = int(rng.integers(2, max_alphabet + 1))
    rows = rng.dirichlet(np.ones(n), size=n)
    m = int(rng.integers(0, max_prefix + 1))
    if homogeneous:
        dwell = DwellKernel.homogeneous(
            n, rng.uniform(0.05, 0.95, size=m).tolist(), float(rng.uniform(0.1, 0.9))
        )
    else:
        dwell = DwellKernel(
            rng.uniform(0.05, 0.95, size=(n, m)), rng.uniform(0.1, 0.9, size=n)
        )
    return validate_model(ChangeKernel(rows), dwell)


def sticky_model(seed: int, prefix: int) -> dict:
    """A slow-changing 3-status source: change rows and log-uniform dwell
    hazards on [0.002, 0.1] drawn as perfbench/run.py's ``sticky_config``
    draws them, each status's 170-slot prefix cut to its first ``prefix``."""
    rng = random.Random(seed)
    rows = []
    for x in range(3):
        w = [rng.expovariate(1.0) if y != x else 0.0 for y in range(3)]
        rows.append([v / sum(w) for v in w])
    lo, hi = math.log(0.002), math.log(0.1)
    dwell = [{"prefix": [math.exp(rng.uniform(lo, hi)) for _ in range(170)][:prefix],
              "tail": 0.01} for _ in range(3)]
    return {"kind": "stationary", "alphabet_size": 3, "px_rows": rows, "dwell": dwell}


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
