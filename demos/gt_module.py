"""Walk through the five-site tensor module and its operator actions.

Builds the eigenbasis of the shape (2, 2, 1) class on five sites,
applies the diagonal, raising, and lowering half-currents to the
decreasing word, prints the closed coefficients, and cross-checks the
whole action table against components extracted from the block
factorization of the coproduct operator.

Run: python3 demos/gt_module.py
"""

import numpy as np

from ellgt.gtrep import (
    half_current_coefficients,
    halfcurrent_oracle_defect,
)
from ellgt.partitions import IndexPartition
from ellgt.rmatrix import random_dynamical, random_spectral
from ellgt.theta import EllipticParams


def show(tag: str, coeffs: dict) -> None:
    print(f"  {tag}:")
    for word, value in sorted(coeffs.items()):
        label = "".join(str(x) for x in word)
        print(f"    -> xi_{label}  coefficient {value:.6f}")


def main() -> None:
    params = EllipticParams(q=0.5, r=3.0, N=3)
    rng = np.random.default_rng(23)
    part = IndexPartition((3, 2, 2, 1, 1), 3)
    us = tuple(random_spectral(rng, 5))
    (v,) = random_spectral(rng, 1)
    dyn = random_dynamical(rng, params)

    print(f"module of shape {part.shape} on five sites,"
          f" acting on xi_{part.word_string()}")
    print()
    show("K_3 (diagonal)", half_current_coefficients(
        params, "K", 3, part, v, us, dyn))
    show("E_32 (raising)", half_current_coefficients(
        params, "E", 2, part, v, us, dyn))
    show("F_23 (lowering)", half_current_coefficients(
        params, "F", 2, part, v, us, dyn))
    show("K_2 (diagonal)", half_current_coefficients(
        params, "K", 2, part, v, us, dyn))
    print()

    print("cross-check on a three-site module: closed actions vs the")
    print("components extracted from the block factorization:")
    us3 = tuple(random_spectral(rng, 3))
    dyn3 = random_dynamical(rng, params)
    report = halfcurrent_oracle_defect(params, us3, v, dyn3)
    for name, defect in sorted(report.items()):
        print(f"  {name:5s} defect {defect:.3e}")


if __name__ == "__main__":
    main()
