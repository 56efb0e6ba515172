"""Elliptic weight functions, their properties, and stable envelopes.

A weight function is attached to an ordered partition of positions 1..n
into N blocks.  It depends on auxiliary variables organized in levels:
level l carries lambda^(l) = lambda_1 + ... + lambda_l variables for
l = 1..N-1, and level N is the n spectral variables.  Everything here
works with additive variables (multiplicative ones are q to twice the
additive value), and the dynamical parameter is an N-vector whose pair
differences enter the matched factors.

Three variants of the same symmetrized sum are provided:

- "tilde": the ratio form with denominators at shifted arguments,
- "entire": the tilde form times a symmetric bracket product, holding
  no denominators in the level variables,
- "envelope": the entire form divided by another symmetric product,
  matching the normalization of elliptic stable envelopes.

The symmetrization is the plain sum over permutations of each level's
variables, without 1/lambda^(l)! prefactors.

Evaluation: every bracket argument is a difference of two base
variables (of levels l and l + 1, or both of level l) plus a shift, so
a point gets small per-level bracket tables, one set per variant,
shared by all partitions evaluated there (:func:`weight_row`).  A
partition gathers its factors for all permutations at once into one
matrix F_l of size lambda^(l)! x lambda^(l+1)! per level, and the sum is
the chain ``carry @ F_1 @ ... @ F_{N-1}``.  A gathered table entry at a
bracket zero in a denominator raises ValueError.
"""

from __future__ import annotations

from itertools import permutations
from typing import Sequence

import numpy as np

from .partitions import IndexPartition, dynamical_shift, partitions_with_shape
from .rmatrix import DynamicalParameter, pair_index, rbar_matrix, relative_defect
from .theta import DENOM_FLOOR, EllipticParams, bracket, bracket_denominator

Levels = tuple[tuple[complex, ...], ...]

VARIANTS = ("tilde", "entire", "envelope")


def _as_levels(level_vars: Sequence[Sequence[complex]]) -> Levels:
    return tuple(tuple(complex(v) for v in level) for level in level_vars)


def specialization_point(
    part: IndexPartition, z_vars: Sequence[complex]
) -> Levels:
    """Level variables pinned to spectral ones through the partition.

    Level l variable a is set to the spectral variable sitting at the
    a-th smallest member of the union I^(l).
    """
    return tuple(
        tuple(complex(z_vars[pos - 1]) for pos in part.union(level))
        for level in range(1, part.num_blocks)
    )


def _ratio(num, den) -> np.ndarray:
    """num / den entrywise; NaN, marking a pole, where |den| < DENOM_FLOOR."""
    num, den = np.broadcast_arrays(num, den)
    out = np.full(num.shape, np.nan, dtype=complex)
    return np.divide(num, den, out=out, where=np.abs(den) >= DENOM_FLOOR)


class _PointTables:
    """Bracket tables of one point, shared by the partitions of a row.

    For a 0-based level l, ``perms[l]`` holds the permutations of level
    l + 1 as rows and ``diffs[l]`` the differences up_j - here_i.
    """

    def __init__(self, params: EllipticParams, levels: Levels, variant: str):
        self.params, self.variant = params, variant
        self.one = bracket(params, 1.0)
        vs = [np.array(level, dtype=complex) for level in levels]
        self.perms = [
            np.array(list(permutations(range(len(level)))), dtype=np.intp)
            for level in levels[:-1]
        ] + [np.arange(len(levels[-1]))[None, :]]
        self.diffs = [up[None, :] - here[:, None] for here, up in zip(vs, vs[1:])]
        self.plain = [self.brackets(diff) for diff in self.diffs]
        self.plus_one = [self.brackets(diff + 1) for diff in self.diffs]
        self.within = list(map(self._within, vs, self.perms[:-1]))
        self._factors: dict[tuple[int, complex], tuple] = {}

    def brackets(self, args: np.ndarray) -> np.ndarray:
        values = [bracket(self.params, u) for u in args.ravel().tolist()]
        return np.array(values, dtype=complex).reshape(args.shape)

    def _within(self, here: np.ndarray, perm: np.ndarray) -> np.ndarray:
        """Product of the same-level factors, one entry per permutation."""
        diff = here[:, None] - here[None, :]
        if self.variant == "tilde":
            table = _ratio(self.brackets(diff - 1), self.brackets(diff))
        elif self.variant == "entire":
            table = _ratio(self.brackets(diff.T + 1), self.brackets(diff.T))
        else:
            table = _ratio(1.0, self.brackets(diff) * self.brackets(-diff - 1))
        first, second = np.triu_indices(len(here), 1)
        return table[perm[:, first], perm[:, second]].prod(axis=1)

    def factors(self, l: int, s: complex) -> tuple:
        """Tables an entry with matched shift ``s`` reads at upper indices
        before, at and after its matched one; None stands for ones."""
        if (l, s) not in self._factors:
            plain, plus_one = self.plain[l], self.plus_one[l]
            shifted = self.brackets(self.diffs[l] + s)
            bracket_s = bracket(self.params, s)
            if self.variant == "envelope":
                tables = plus_one, _ratio(shifted, bracket_s), plain
            elif self.variant == "entire":
                tables = plus_one, _ratio(shifted * self.one, bracket_s), plain
            else:
                matched = _ratio(shifted * self.one, plus_one * bracket_s)
                tables = None, matched, _ratio(plain, plus_one)
            self._factors[l, s] = tables
        return self._factors[l, s]

    def evaluate(self, part: IndexPartition, dyn: DynamicalParameter) -> complex:
        """The symmetrized sum, as a chain of factor matrices over levels."""
        carry = np.ones(len(self.perms[0]), dtype=complex)
        for l in range(len(self.perms) - 1):
            here, up = self.perms[l], self.perms[l + 1][None]
            matrix = np.repeat(self.within[l][:, None], up.shape[1], axis=1)
            for a, (pos, b) in enumerate(zip(part.union(l + 1), part.phi(l + 1))):
                label = part.block_of(pos)
                s = dyn.pair(label, l + 2) - dynamical_shift(part, pos, l + 2)
                cols = (up[:, :, : b - 1], up[:, :, b - 1 : b], up[:, :, b:])
                for table, col in zip(self.factors(l, s), cols):
                    if table is not None:
                        matrix *= table[here[:, a, None, None], col].prod(axis=2)
            if np.isnan(matrix).any():
                raise ValueError(f"bracket pole in a level-{l + 1} denominator")
            carry = carry @ matrix
        return carry[0]


def weight_row(
    params: EllipticParams,
    parts: Sequence[IndexPartition],
    level_vars: Sequence[Sequence[complex]],
    z_vars: Sequence[complex],
    dyn: DynamicalParameter,
    variant: str = "envelope",
) -> np.ndarray:
    """Weight functions of partitions sharing the level sizes of one point.

    ``level_vars`` holds levels 1..N-1 (lengths lambda^(1), ...,
    lambda^(N-1)); ``z_vars`` has length n.  ``dyn`` carries the full
    dynamical N-vector whose pair differences enter the matched
    factors.  The partitions share the point's bracket tables.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    levels = _as_levels(level_vars) + (tuple(complex(z) for z in z_vars),)
    sizes = tuple(map(len, levels))
    for part in parts:
        if sizes != part.cumulative_shape:
            raise ValueError(f"level sizes {sizes} must be {part.cumulative_shape}")
    tables = _PointTables(params, levels, variant)
    return np.array([tables.evaluate(part, dyn) for part in parts], dtype=complex)


def weight_function(
    params: EllipticParams,
    part: IndexPartition,
    level_vars: Sequence[Sequence[complex]],
    z_vars: Sequence[complex],
    dyn: DynamicalParameter,
    variant: str = "envelope",
) -> complex:
    """Symmetrized elliptic weight function: the one-element weight_row."""
    return complex(weight_row(params, [part], level_vars, z_vars, dyn, variant)[0])


def e_factor(
    params: EllipticParams,
    part: IndexPartition,
    level_vars: Sequence[Sequence[complex]],
) -> complex:
    """Symmetric product turning the envelope variant into the entire one.

    The entire variant divided by it is the envelope variant, so a
    product at a bracket zero raises ValueError.
    """
    levels = _as_levels(level_vars)
    return bracket_denominator(
        params,
        *(
            vb - va + 1
            for vs in levels[: part.num_blocks - 1]
            for va in vs
            for vb in vs
        ),
    )


def _cross_differences(
    part: IndexPartition, z_vars: Sequence[complex]
) -> list[tuple[int, int, complex]]:
    """(a, b, u_b - u_a) over positions a and b in blocks k < l."""
    us = tuple(complex(z) for z in z_vars)
    return [
        (a, b, us[b - 1] - us[a - 1])
        for k, block in enumerate(part.blocks)
        for later in part.blocks[k + 1 :]
        for a in block
        for b in later
    ]


def diagonal_value(
    params: EllipticParams, part: IndexPartition, z_vars: Sequence[complex]
) -> complex:
    """Closed form of the envelope variant at its own specialization."""
    out = 1.0 + 0.0j
    for a, b, diff in _cross_differences(part, z_vars):
        out *= bracket(params, diff if a < b else diff + 1)
    return out


def q_factor(
    params: EllipticParams, part: IndexPartition, z_vars: Sequence[complex]
) -> complex:
    """Cross-block product of brackets at difference plus one, guarded."""
    diffs = _cross_differences(part, z_vars)
    return bracket_denominator(params, *(diff + 1 for _, _, diff in diffs))


def r_factor(
    params: EllipticParams, part: IndexPartition, z_vars: Sequence[complex]
) -> complex:
    """Cross-block product of brackets at plain differences, guarded."""
    diffs = _cross_differences(part, z_vars)
    return bracket_denominator(params, *(diff for _, _, diff in diffs))


def transition_defect(
    params: EllipticParams,
    part: IndexPartition,
    position: int,
    level_vars: Sequence[Sequence[complex]],
    z_vars: Sequence[complex],
    dyn: DynamicalParameter,
) -> float:
    """Residual of the exchange identity at an adjacent position pair.

    The function with the letters at ``position`` and ``position + 1``
    swapped, evaluated at the spectral variables swapped there, equals
    the R-matrix contraction of the functions with both letter orders at
    unswapped spectral variables; the R-matrix argument is the spectral
    difference and the dynamical parameter is shifted down by the letter
    counts of the tail starting at ``position``.
    """
    us = list(complex(z) for z in z_vars)
    mu_here = part.block_of(position)
    mu_next = part.block_of(position + 1)
    swapped_part = part.swap_adjacent(position)
    swapped_us = list(us)
    swapped_us[position - 1 : position + 1] = us[position], us[position - 1]
    lhs = weight_function(
        params, swapped_part, level_vars, swapped_us, dyn, "envelope"
    )

    counts = part.letter_counts(start=position)
    shifted = dyn.shifted([-c for c in counts])
    rmat = rbar_matrix(
        params, us[position - 1] - us[position], shifted
    )
    row = pair_index(params, mu_here, mu_next)
    coeffs, candidates = [], []
    for mo in range(1, params.N + 1):
        for no in range(1, params.N + 1):
            coeff = rmat[row, pair_index(params, mo, no)]
            if coeff != 0.0:
                word = part.word[: position - 1] + (mo, no) + part.word[position + 1 :]
                coeffs.append(coeff)
                candidates.append(IndexPartition(word, part.num_blocks))
    rhs = complex(
        np.dot(coeffs, weight_row(params, candidates, level_vars, us, dyn))
    )
    scale = max(1.0, abs(lhs), abs(rhs))
    return abs(lhs - rhs) / scale


def orthogonality_grid(
    params: EllipticParams,
    shape: Sequence[int],
    z_vars: Sequence[complex],
    dyn: DynamicalParameter,
) -> np.ndarray:
    """Biorthogonality sum over one shape class, as a matrix.

    Contracts the matrix of first-kind specializations (dynamical
    parameter inverted and shifted by the shape weight) against the
    matrix of reversed-word specializations at reversed spectral
    variables, weighted by the two cross-block products; the result
    should be the identity matrix, indexed by the shape class in word
    order.
    """
    parts = partitions_with_shape(shape)
    reversed_parts = [part.sigma0() for part in parts]
    us = tuple(complex(z) for z in z_vars)
    reversed_us = us[::-1]
    dyn_first = dyn.negated().shifted([float(s) for s in shape])

    points = [specialization_point(part, us) for part in parts]
    first = np.array([weight_row(params, parts, p, us, dyn_first) for p in points])
    second = np.array(
        [weight_row(params, reversed_parts, p, reversed_us, dyn) for p in points]
    )
    weights = [
        1.0 / (q_factor(params, part, us) * r_factor(params, part, us))
        for part in parts
    ]
    return first.T @ np.diag(weights) @ second


def orthogonality_defect(
    params: EllipticParams,
    shape: Sequence[int],
    z_vars: Sequence[complex],
    dyn: DynamicalParameter,
) -> float:
    """Max defect of the biorthogonality grid against the identity."""
    gram = orthogonality_grid(params, shape, z_vars, dyn)
    count = gram.shape[0]
    return relative_defect(gram, np.eye(count, dtype=complex))


def restriction_row(
    params: EllipticParams,
    parts: Sequence[IndexPartition],
    at: IndexPartition,
    z_vars: Sequence[complex],
    dyn_star: DynamicalParameter,
) -> np.ndarray:
    """Stable envelopes of ``parts`` restricted to the fixed point ``at``."""
    minus_us = [-complex(z) for z in z_vars]
    point = specialization_point(at, minus_us)
    reversed_parts = [part.sigma0() for part in parts]
    return weight_row(params, reversed_parts, point, minus_us[::-1], dyn_star.negated())


def stab_restriction(
    params: EllipticParams,
    part: IndexPartition,
    at: IndexPartition,
    z_vars: Sequence[complex],
    dyn_star: DynamicalParameter,
) -> complex:
    """Stable envelope of ``part`` restricted to the fixed point ``at``."""
    return complex(restriction_row(params, [part], at, z_vars, dyn_star)[0])


def fixed_point_row(
    params: EllipticParams,
    part: IndexPartition,
    coeff_parts: Sequence[IndexPartition],
    z_vars: Sequence[complex],
    dyn_star: DynamicalParameter,
) -> np.ndarray:
    """Coefficients of stable classes in the fixed point class of ``part``.

    The tilde-variant weight functions of ``coeff_parts`` specialized at
    the negated spectral variables of ``part``, with the dynamical
    parameter shifted up by the shape weight.
    """
    minus_us = [-complex(z) for z in z_vars]
    point = specialization_point(part, minus_us)
    dyn = dyn_star.shifted([float(s) for s in part.shape])
    return weight_row(params, coeff_parts, point, minus_us, dyn, "tilde")


def stable_basis_round_trip_defect(
    params: EllipticParams,
    shape: Sequence[int],
    z_vars: Sequence[complex],
    dyn_star: DynamicalParameter,
) -> float:
    """Defect of expanding fixed points over stable classes and back."""
    parts = partitions_with_shape(shape)
    minus_us = [-complex(z) for z in z_vars]
    expand = [fixed_point_row(params, part, parts, z_vars, dyn_star) for part in parts]
    restrict = [
        restriction_row(params, parts, part, z_vars, dyn_star)
        / r_factor(params, part, minus_us)
        for part in parts
    ]
    return relative_defect(
        np.array(expand) @ np.array(restrict).T, np.eye(len(parts), dtype=complex)
    )


def quasi_periodicity_defect(
    params: EllipticParams,
    part: IndexPartition,
    level: int,
    position: int,
    level_vars: Sequence[Sequence[complex]],
    z_vars: Sequence[complex],
    dyn: DynamicalParameter,
) -> tuple[float, float]:
    """Residuals of the two shift identities in one level variable.

    Shifting variable ``position`` of ``level`` by r multiplies the
    function by a sign determined by the adjacent shape difference;
    shifting by r*tau multiplies it by that sign times an exponential
    that is linear in the shifted variable, the neighbouring level
    sums, and the dynamical pair of the level.  Returns the relative
    defects of the two comparisons, real shift first.
    """
    r = params.r
    tau = params.tau
    lam = part.shape
    base = weight_function(params, part, level_vars, z_vars, dyn)
    shifted_r = [list(values) for values in level_vars]
    shifted_r[level - 1][position - 1] += r
    got_r = weight_function(params, part, shifted_r, z_vars, dyn)
    parity = lam[level] - lam[level - 1] + 2
    want_r = (-1) ** parity * base

    shifted_t = [list(values) for values in level_vars]
    shifted_t[level - 1][position - 1] += r * tau
    got_t = weight_function(params, part, shifted_t, z_vars, dyn)
    variable = level_vars[level - 1][position - 1]
    sum_up = (
        sum(z_vars) if level + 1 == params.N else sum(level_vars[level])
    )
    sum_here = sum(level_vars[level - 1])
    sum_down = sum(level_vars[level - 2]) if level >= 2 else 0.0
    exponent = -(2j * np.pi / r) * (
        (lam[level] - lam[level - 1]) * variable
        - sum_up
        + 2 * sum_here
        - sum_down
        - dyn.pair(level, level + 1)
        - lam[level]
    )
    want_t = (
        (-np.exp(-1j * np.pi * tau)) ** parity * np.exp(exponent) * base
    )
    defect_r = abs(got_r - want_r) / max(1.0, abs(base), abs(got_r))
    defect_t = abs(got_t - want_t) / max(1.0, abs(base), abs(got_t))
    return defect_r, defect_t
