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
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Sequence

import numpy as np

from .partitions import IndexPartition, dynamical_shift, partitions_with_shape
from .rmatrix import DynamicalParameter, pair_index, rbar_matrix, relative_defect
from .theta import EllipticParams, bracket, bracket_denominator, bracket_ratio

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


def _match_data(part: IndexPartition, level: int) -> list[tuple[int, int, int]]:
    """Per level entry a: (matched upper index, block label, tail shift)."""
    phi = part.phi(level)
    data = []
    for a, pos in enumerate(part.union(level), start=1):
        label = part.block_of(pos)
        shift = dynamical_shift(part, pos, level + 1)
        data.append((phi[a - 1], label, shift))
    return data


def weight_function(
    params: EllipticParams,
    part: IndexPartition,
    level_vars: Sequence[Sequence[complex]],
    z_vars: Sequence[complex],
    dyn: DynamicalParameter,
    variant: str = "envelope",
) -> complex:
    """Symmetrized elliptic weight function of the partition.

    ``level_vars`` holds levels 1..N-1 (lengths lambda^(1), ...,
    lambda^(N-1)); ``z_vars`` has length n.  ``dyn`` carries the full
    dynamical N-vector whose pair differences enter the matched
    factors.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    n_blocks = part.num_blocks
    levels = _as_levels(level_vars)
    zs = tuple(complex(z) for z in z_vars)
    if len(levels) != n_blocks - 1:
        raise ValueError("level_vars must hold levels 1..N-1")
    for level in range(1, n_blocks):
        if len(levels[level - 1]) != part.cumulative_shape[level - 1]:
            raise ValueError(f"level {level} must hold lambda^({level}) variables")
    if len(zs) != part.n:
        raise ValueError("z_vars must hold one variable per position")

    match_data = [_match_data(part, level) for level in range(1, n_blocks)]
    unions = [part.union(level) for level in range(0, n_blocks + 1)]

    total = 0.0 + 0.0j
    perm_sets = [
        tuple(permutations(range(size)))
        for size in part.cumulative_shape[: n_blocks - 1]
    ]
    for perm_choice in product(*perm_sets):
        assign: list[tuple[complex, ...]] = []
        for level0, perm in enumerate(perm_choice):
            base = levels[level0]
            assign.append(tuple(base[perm[a]] for a in range(len(base))))
        assign.append(zs)

        term = 1.0 + 0.0j
        for level in range(1, n_blocks):
            vs_here = assign[level - 1]
            vs_up = assign[level]
            upper_union = unions[level + 1]
            lam_here = len(vs_here)
            for a in range(1, lam_here + 1):
                matched_b, label, shift = match_data[level - 1][a - 1]
                own_pos = unions[level][a - 1]
                va = vs_here[a - 1]
                s_val = dyn.pair(label, level + 1) - shift
                delta_matched = vs_up[matched_b - 1] - va
                if variant == "tilde":
                    term *= (
                        bracket(params, delta_matched + s_val)
                        * bracket(params, 1.0)
                        / bracket_denominator(params, delta_matched + 1, s_val)
                    )
                elif variant == "entire":
                    term *= (
                        bracket(params, delta_matched + s_val)
                        * bracket(params, 1.0)
                        / bracket_denominator(params, s_val)
                    )
                else:
                    term *= bracket_ratio(params, delta_matched + s_val, s_val)
                for b, upper_pos in enumerate(upper_union, start=1):
                    if upper_pos == own_pos:
                        continue
                    delta = vs_up[b - 1] - va
                    if upper_pos > own_pos:
                        if variant == "tilde":
                            term *= bracket_ratio(params, delta, delta + 1)
                        else:
                            term *= bracket(params, delta)
                    else:
                        if variant != "tilde":
                            term *= bracket(params, delta + 1)
                if variant == "tilde":
                    for b in range(a + 1, lam_here + 1):
                        diff = va - vs_here[b - 1]
                        term *= bracket_ratio(params, diff - 1, diff)
                elif variant == "entire":
                    for b in range(a + 1, lam_here + 1):
                        diff = vs_here[b - 1] - va
                        term *= bracket_ratio(params, diff + 1, diff)
            if variant == "envelope":
                for a in range(1, lam_here + 1):
                    for b in range(a + 1, lam_here + 1):
                        down = vs_here[a - 1] - vs_here[b - 1]
                        term /= bracket_denominator(params, down, -down - 1)
        total += term
    return total


def h_factor(
    params: EllipticParams,
    part: IndexPartition,
    level_vars: Sequence[Sequence[complex]],
    z_vars: Sequence[complex],
) -> complex:
    """Symmetric product turning the tilde variant into the entire one."""
    levels = _as_levels(level_vars) + (tuple(complex(z) for z in z_vars),)
    out = 1.0 + 0.0j
    for level in range(1, part.num_blocks):
        for va in levels[level - 1]:
            for vb in levels[level]:
                out *= bracket(params, vb - va + 1)
    return out


def e_factor(
    params: EllipticParams,
    part: IndexPartition,
    level_vars: Sequence[Sequence[complex]],
) -> complex:
    """Symmetric product turning the envelope variant into the entire one."""
    levels = _as_levels(level_vars)
    out = 1.0 + 0.0j
    for level in range(1, part.num_blocks):
        vs = levels[level - 1]
        for va in vs:
            for vb in vs:
                out *= bracket(params, vb - va + 1)
    return out


def diagonal_value(
    params: EllipticParams, part: IndexPartition, z_vars: Sequence[complex]
) -> complex:
    """Closed form of the envelope variant at its own specialization."""
    us = tuple(complex(z) for z in z_vars)
    out = 1.0 + 0.0j
    for k in range(1, part.num_blocks + 1):
        for l in range(k + 1, part.num_blocks + 1):
            for a in part.blocks[k - 1]:
                for b in part.blocks[l - 1]:
                    if a < b:
                        out *= bracket(params, us[b - 1] - us[a - 1])
                    else:
                        out *= bracket(params, us[b - 1] - us[a - 1] + 1)
    return out


def q_factor(
    params: EllipticParams, part: IndexPartition, z_vars: Sequence[complex]
) -> complex:
    """Cross-block product of brackets at difference plus one."""
    us = tuple(complex(z) for z in z_vars)
    out = 1.0 + 0.0j
    for k in range(1, part.num_blocks + 1):
        for l in range(k + 1, part.num_blocks + 1):
            for a in part.blocks[k - 1]:
                for b in part.blocks[l - 1]:
                    out *= bracket(params, us[b - 1] - us[a - 1] + 1)
    return out


def r_factor(
    params: EllipticParams, part: IndexPartition, z_vars: Sequence[complex]
) -> complex:
    """Cross-block product of brackets at plain differences."""
    us = tuple(complex(z) for z in z_vars)
    out = 1.0 + 0.0j
    for k in range(1, part.num_blocks + 1):
        for l in range(k + 1, part.num_blocks + 1):
            for a in part.blocks[k - 1]:
                for b in part.blocks[l - 1]:
                    out *= bracket(params, us[b - 1] - us[a - 1])
    return out


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
    swapped_us[position - 1], swapped_us[position] = (
        swapped_us[position],
        swapped_us[position - 1],
    )
    lhs = weight_function(
        params, swapped_part, level_vars, swapped_us, dyn, "envelope"
    )

    counts = part.letter_counts(start=position)
    shifted = dyn.shifted([-c for c in counts])
    rmat = rbar_matrix(
        params, us[position - 1] - us[position], shifted
    )
    row = pair_index(params, mu_here, mu_next)
    rhs = 0.0 + 0.0j
    for mo in range(1, params.N + 1):
        for no in range(1, params.N + 1):
            coeff = rmat[row, pair_index(params, mo, no)]
            if coeff == 0.0:
                continue
            candidate = list(part.word)
            candidate[position - 1] = mo
            candidate[position] = no
            rhs += coeff * weight_function(
                params,
                IndexPartition(tuple(candidate), part.num_blocks),
                level_vars,
                us,
                dyn,
                "envelope",
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
    us = tuple(complex(z) for z in z_vars)
    reversed_us = us[::-1]
    dyn_first = dyn.negated().shifted([float(s) for s in shape])

    count = len(parts)
    first = np.zeros((count, count), dtype=complex)
    second = np.zeros((count, count), dtype=complex)
    weights = np.zeros(count, dtype=complex)
    for i_idx, part_i in enumerate(parts):
        point = specialization_point(part_i, us)
        weights[i_idx] = 1.0 / (
            q_factor(params, part_i, us) * r_factor(params, part_i, us)
        )
        for j_idx, part_j in enumerate(parts):
            first[j_idx, i_idx] = weight_function(
                params, part_j, point, us, dyn_first, "envelope"
            )
            second[j_idx, i_idx] = weight_function(
                params, part_j.sigma0(), point, reversed_us, dyn, "envelope"
            )
    return first @ np.diag(weights) @ second.T


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


def stable_envelope(
    params: EllipticParams,
    part: IndexPartition,
    level_vars: Sequence[Sequence[complex]],
    z_vars: Sequence[complex],
    dyn_star: DynamicalParameter,
) -> complex:
    """Stable envelope attached to the partition, as a weight function.

    Evaluates the envelope variant for the reversed word at reversed,
    negated spectral variables and inverted dynamical parameter; the
    level variables are passed through unchanged.
    """
    minus_reversed = [-complex(z) for z in z_vars][::-1]
    return weight_function(
        params,
        part.sigma0(),
        level_vars,
        minus_reversed,
        dyn_star.negated(),
        "envelope",
    )


def stab_restriction(
    params: EllipticParams,
    part: IndexPartition,
    at: IndexPartition,
    z_vars: Sequence[complex],
    dyn_star: DynamicalParameter,
) -> complex:
    """Stable envelope of ``part`` restricted to the fixed point ``at``."""
    minus_us = [-complex(z) for z in z_vars]
    point = specialization_point(at, minus_us)
    return weight_function(
        params,
        part.sigma0(),
        point,
        minus_us[::-1],
        dyn_star.negated(),
        "envelope",
    )


def fixed_point_coefficient(
    params: EllipticParams,
    part: IndexPartition,
    coeff_of: IndexPartition,
    z_vars: Sequence[complex],
    dyn_star: DynamicalParameter,
) -> complex:
    """Coefficient of a stable class in a fixed point class.

    The tilde-variant weight function of ``coeff_of`` specialized at the
    negated spectral variables of ``part``, with the dynamical parameter
    shifted up by the shape weight.
    """
    minus_us = [-complex(z) for z in z_vars]
    point = specialization_point(part, minus_us)
    shape = [float(s) for s in part.shape]
    return weight_function(
        params,
        coeff_of,
        point,
        minus_us,
        dyn_star.shifted(shape),
        "tilde",
    )


def stable_basis_round_trip_defect(
    params: EllipticParams,
    shape: Sequence[int],
    z_vars: Sequence[complex],
    dyn_star: DynamicalParameter,
) -> float:
    """Defect of expanding fixed points over stable classes and back."""
    parts = partitions_with_shape(shape)
    count = len(parts)
    minus_us = [-complex(z) for z in z_vars]
    expand = np.zeros((count, count), dtype=complex)
    restrict = np.zeros((count, count), dtype=complex)
    for i_idx, part_i in enumerate(parts):
        for j_idx, part_j in enumerate(parts):
            expand[i_idx, j_idx] = fixed_point_coefficient(
                params, part_i, part_j, z_vars, dyn_star
            )
            restrict[j_idx, i_idx] = stab_restriction(
                params, part_j, part_i, z_vars, dyn_star
            ) / r_factor(params, part_i, minus_us)
    return relative_defect(expand @ restrict, np.eye(count, dtype=complex))


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
