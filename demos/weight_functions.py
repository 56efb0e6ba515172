"""Walk through the elliptic weight functions of one shape class.

Shows the triangular table of specialized values (anchors run over the
class, with exact zeros below the order), the biorthogonality grid,
and the quasi-periodicity multipliers under both lattice shifts.

Run: python3 demos/weight_functions.py
"""

import numpy as np

from ellgt.partitions import max_partition, partitions_with_shape
from ellgt.rmatrix import random_dynamical, random_levels, random_spectral
from ellgt.theta import EllipticParams
from ellgt.weights import (
    orthogonality_grid,
    quasi_periodicity_defect,
    specialization_point,
    weight_function,
)


def main() -> None:
    np.set_printoptions(precision=4, suppress=True, linewidth=120)
    params = EllipticParams(q=0.5, r=3.0, N=2)
    shape = (2, 1)
    rng = np.random.default_rng(11)
    us = tuple(random_spectral(rng, sum(shape)))
    dyn = random_dynamical(rng, params)

    parts = partitions_with_shape(shape)
    words = [part.word_string() for part in parts]
    print(f"shape {shape}, classes {words}")
    print()

    table = np.array(
        [
            [
                weight_function(
                    params, col, specialization_point(row, us), us, dyn
                )
                for col in parts
            ]
            for row in parts
        ]
    )
    print("specialized values (row = anchor, column = function);")
    print("entries below the order are exact zeros:")
    print(table)
    print()

    grid = orthogonality_grid(params, shape, us, dyn)
    print("biorthogonality grid (should be the identity):")
    print(grid.real)
    print(f"max deviation from identity: "
          f"{np.max(np.abs(grid - np.eye(len(parts)))):.3e}")
    print()

    part = max_partition(shape)
    levels = random_levels(rng, part.cumulative_shape[:-1])
    defect_r, defect_t = quasi_periodicity_defect(
        params, part, 1, 1, levels, us, dyn
    )
    print("quasi-periodicity of the first level variable:")
    print(f"  real-period shift multiplier defect:    {defect_r:.3e}")
    print(f"  modular-period shift multiplier defect: {defect_t:.3e}")


if __name__ == "__main__":
    main()
