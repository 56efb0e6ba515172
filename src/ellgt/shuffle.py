"""Star product on the graded space of level-symmetric functions.

Functions of tower variables are represented by evaluation callbacks
graded by an N-block shape. The product concatenates the level
variables of two factors, symmetrizes over each level, and couples the
factors through a bracket-ratio kernel, with the first factor evaluated
at a dynamical parameter lowered by the second factor's block sizes.

Dynamical parameters enter evaluation as one global vector, so the
merged parameter bookkeeping of a product is plain concatenation of
the factors' and cannot disagree; no consistency flag is needed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .partitions import IndexPartition, partitions_with_shape
from .rmatrix import DynamicalParameter, scalar_defect
from .theta import EllipticParams, bracket_ratio
from .weights import specialization_point, weight_function, weight_row

Evaluator = Callable[
    [Sequence[Sequence[complex]], Sequence[complex], DynamicalParameter],
    complex,
]

# The most symmetrization terms one star product may sum: the product of
# the factorials of its combined level sizes.
MAX_TERMS = 200_000


@dataclass(frozen=True)
class SymmetricFunctionValue:
    """A level-symmetric function given by an evaluation callback.

    The shape lists how many tower slots each block contributes; level l
    of the tower holds the first l blocks' worth of variables, and the
    top level is played by the spectral points. The callback receives
    (level_vars, z_vars, dyn) and returns a complex value.
    """

    shape: tuple[int, ...]
    evaluate: Evaluator

    @property
    def num_blocks(self) -> int:
        return len(self.shape)

    @property
    def n(self) -> int:
        return sum(self.shape)

    @property
    def level_sizes(self) -> tuple[int, ...]:
        return tuple(itertools.accumulate(self.shape[:-1]))


def unit(num_blocks: int) -> SymmetricFunctionValue:
    """The identity element: no variables, constant value one."""

    def evaluate(level_vars, z_vars, dyn):
        levels = list(level_vars)
        if len(levels) != num_blocks - 1 or any(len(v) for v in levels):
            raise ValueError("unit element takes empty level variables")
        if len(list(z_vars)):
            raise ValueError("unit element takes no spectral variables")
        return 1.0 + 0.0j

    return SymmetricFunctionValue((0,) * num_blocks, evaluate)


def from_weight_function(
    params: EllipticParams, part: IndexPartition
) -> SymmetricFunctionValue:
    """Wrap the tilde weight function of ``part`` as a graded element."""

    def evaluate(level_vars, z_vars, dyn):
        return weight_function(params, part, level_vars, z_vars, dyn, "tilde")

    return SymmetricFunctionValue(part.shape, evaluate)


def xi_kernel(
    params: EllipticParams,
    t_levels: Sequence[Sequence[complex]],
    t_prime_levels: Sequence[Sequence[complex]],
    z: Sequence[complex],
    z_prime: Sequence[complex],
) -> complex:
    """Coupling kernel between the two factors of the star product.

    Each left tower variable at level l couples to the right factor's
    level l and level l+1 variables, where the right factor's top level
    is its spectral points. The left factor's spectral points never
    enter, and the kernel is not antisymmetric: swapping the argument
    groups does not give the reciprocal.
    """
    del z
    num_levels = len(t_levels)
    if len(t_prime_levels) != num_levels:
        raise ValueError("both factors need the same number of levels")
    value = 1.0 + 0.0j
    for l in range(1, num_levels + 1):
        uppers = t_prime_levels[l] if l < num_levels else list(z_prime)
        for va in t_levels[l - 1]:
            for vb in uppers:
                value *= bracket_ratio(params, vb - va, vb - va + 1)
            for vc in t_prime_levels[l - 1]:
                value *= bracket_ratio(params, vc - va + 1, vc - va)
    return value


def star(
    params: EllipticParams,
    left: SymmetricFunctionValue,
    right: SymmetricFunctionValue,
) -> SymmetricFunctionValue:
    """The star product of two graded elements, as a new element.

    The combined evaluator splits the spectral points as left's first,
    right's last, symmetrizes the concatenated level variables, couples
    the factors by the kernel, and evaluates the left factor at the
    dynamical parameter lowered by the right factor's block sizes.
    """
    if left.num_blocks != right.num_blocks:
        raise ValueError("factors must share the number of blocks")
    shape = tuple(a + b for a, b in zip(left.shape, right.shape))
    left_sizes = left.level_sizes
    right_sizes = right.level_sizes
    combined_sizes = tuple(a + b for a, b in zip(left_sizes, right_sizes))
    budget = 1
    for size in combined_sizes:
        budget *= math.factorial(size)
    if budget > MAX_TERMS:
        raise ValueError(
            f"symmetrization needs {budget} terms, over the {MAX_TERMS} budget"
        )
    norm = 1.0
    for a, b in zip(left_sizes, right_sizes):
        norm *= math.factorial(a) * math.factorial(b)
    m = left.n
    lowering = [-s for s in right.shape]

    def evaluate(level_vars, z_vars, dyn):
        levels = [list(v) for v in level_vars]
        zs = list(z_vars)
        if tuple(len(v) for v in levels) != combined_sizes:
            raise ValueError(
                f"level sizes {tuple(len(v) for v in levels)} do not match "
                f"the combined grading {combined_sizes}"
            )
        if len(zs) != m + right.n:
            raise ValueError("spectral point count does not match grading")
        z_left = zs[:m]
        z_right = zs[m:]
        dyn_left = dyn.shifted(lowering)
        total = 0.0 + 0.0j
        per_level = [itertools.permutations(v) for v in levels]
        for assignment in itertools.product(*per_level):
            left_levels = [
                list(level[: left_sizes[l]])
                for l, level in enumerate(assignment)
            ]
            right_levels = [
                list(level[left_sizes[l] :])
                for l, level in enumerate(assignment)
            ]
            total += (
                left.evaluate(left_levels, z_left, dyn_left)
                * right.evaluate(right_levels, z_right, dyn)
                * xi_kernel(params, left_levels, right_levels, z_left, z_right)
            )
        return total / norm

    return SymmetricFunctionValue(shape, evaluate)


def star_product(
    params: EllipticParams,
    left: SymmetricFunctionValue,
    right: SymmetricFunctionValue,
    level_vars: Sequence[Sequence[complex]],
    z_vars: Sequence[complex],
    dyn: DynamicalParameter,
) -> complex:
    """Evaluate the star product of two elements at one combined point."""
    product = star(params, left, right)
    return product.evaluate(level_vars, z_vars, dyn)


def symmetry_defect(
    element: SymmetricFunctionValue,
    level_vars: Sequence[Sequence[complex]],
    z_vars: Sequence[complex],
    dyn: DynamicalParameter,
    level: int,
    first: int,
    second: int,
) -> float:
    """Relative change under swapping two same-level variables."""
    base = element.evaluate(level_vars, z_vars, dyn)
    swapped = [list(v) for v in level_vars]
    swapped[level - 1][first - 1], swapped[level - 1][second - 1] = (
        swapped[level - 1][second - 1],
        swapped[level - 1][first - 1],
    )
    other = element.evaluate(swapped, z_vars, dyn)
    return scalar_defect(base, other)


def tilde_expansion(
    params: EllipticParams,
    element: SymmetricFunctionValue,
    z_vars: Sequence[complex],
    dyn: DynamicalParameter,
) -> tuple[list[IndexPartition], np.ndarray]:
    """Coefficients of an element in the tilde weight-function basis.

    The linear system is anchored at the tower specializations indexed
    by the partitions of the element's shape, where the basis matrix is
    triangular with nonzero diagonal and therefore invertible.
    """
    parts = partitions_with_shape(element.shape)
    size = len(parts)
    matrix = np.zeros((size, size), dtype=complex)
    rhs = np.zeros(size, dtype=complex)
    for i, anchor in enumerate(parts):
        point = specialization_point(anchor, z_vars)
        rhs[i] = element.evaluate(point, z_vars, dyn)
        matrix[i] = weight_row(params, parts, point, z_vars, dyn, "tilde")
    coeffs = np.linalg.solve(matrix, rhs)
    return parts, coeffs


def expansion_residual(
    params: EllipticParams,
    element: SymmetricFunctionValue,
    parts: Sequence[IndexPartition],
    coeffs: np.ndarray,
    level_vars: Sequence[Sequence[complex]],
    z_vars: Sequence[complex],
    dyn: DynamicalParameter,
) -> float:
    """Relative mismatch between an element and a basis combination."""
    direct = element.evaluate(level_vars, z_vars, dyn)
    combo = complex(
        np.dot(coeffs, weight_row(params, parts, level_vars, z_vars, dyn, "tilde"))
    )
    return scalar_defect(direct, combo)
