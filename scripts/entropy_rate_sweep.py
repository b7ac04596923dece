#!/usr/bin/env python3
"""Sweep the change probability of a two-state symmetric source and print
the entropy rate (= GAoI per slot of age) alongside the per-slot change
probability.  Useful for sanity-checking how staleness scales with source
volatility.
"""

import argparse

import numpy as np

from gaoi import ChangeKernel, DwellKernel, JointModel


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=19)
    args = parser.parse_args()

    swap = ChangeKernel(np.array([[0.0, 1.0], [1.0, 0.0]]))
    print("q,p_change,entropy_rate_bits")
    for q in np.linspace(0.05, 0.95, args.steps):
        model = JointModel(swap, DwellKernel.homogeneous(2, [], float(q)))
        print(f"{q:.2f},{model.p_change!r},{model.rate!r}")


if __name__ == "__main__":
    main()
