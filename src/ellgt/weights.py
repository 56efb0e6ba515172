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
variables (of levels l and l + 1, or both of level l) plus a shift.
Which table each factor reads does not depend on the point, so it is
planned once per process: a partition's plan, cached per word and level
sizes, names for every factor of a level the table it reads (the one
before its matched index, the one after it, or the matched table of a
(label, dynamical shift)), and the table cells that the terms read are
shared by all partitions of those level sizes.  A point
(:func:`weight_row`, shared by all partitions evaluated there) then
takes one bracket pass over its distinct arguments and one guarded
division for all quotients.  Per level, one indexed product gathers the
factors of every partition and permutation at once (in blocks of terms
for a large level) into matrices F_l of size lambda^(l)! x
lambda^(l+1)!, and the sum is the chain
``carry @ F_1 @ ... @ F_{N-1}``.  A gathered table entry at a bracket
zero in a denominator raises ValueError.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations
from typing import NamedTuple, Sequence

import numpy as np

from .partitions import IndexPartition, dynamical_shift, partitions_with_shape
from .rmatrix import (
    DynamicalParameter,
    pair_index,
    rbar_matrix,
    relative_defect,
    scalar_defect,
)
from .theta import EllipticParams, bracket, bracket_denominator, guarded_ratio

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


def _compact(array: np.ndarray) -> np.ndarray:
    """A read-only copy in the smallest integer type holding the entries."""
    low, high = int(array.min(initial=0)), int(array.max(initial=0))
    dtype = np.result_type(np.min_scalar_type(low), np.min_scalar_type(high))
    array = array.astype(dtype, order="C")
    array.setflags(write=False)
    return array


@cache
def _perms(size: int) -> np.ndarray:
    """Permutations of ``range(size)`` as rows, lexicographic."""
    perms = np.array(list(permutations(range(size))), dtype=np.intp)
    perms.setflags(write=False)
    return perms


@cache
def _cells(size: int, up_size: int, top: bool) -> tuple[np.ndarray, np.ndarray]:
    """Table cells that level factors read, as a row part and a column part.

    Factor f = a * up_size + b of term (i, j) reads the cell
    ``rows[f, i] + cols[f, j]`` of a size x up_size table:
    ``here[i, a] * up_size + up[j, b]`` for the permutations ``here`` of
    the level and ``up`` of the level above, which at the top level is
    the identity alone.
    """
    up = np.arange(up_size)[None] if top else _perms(up_size)
    rows = np.repeat(_perms(size).T * up_size, up_size, axis=0)
    return _compact(rows), _compact(np.tile(up.T, (size, 1)))


# Index entries one gather builds at most.  It bounds the transient
# memory of a large level (at N=3, n=6 one partition has 36 factors of
# 720 x 720 terms); such a level is gathered in blocks of terms, which
# rounds every entry as one gather would.
_GATHER_ENTRIES = 1 << 16


# Tables 0 and 1 of a level are the ones its factors read at upper
# indices before and after the matched one; matched tables follow.
_FIXED_TABLES = 2


class _LevelPlan(NamedTuple):
    """Which table each factor of one partition reads at one level.

    ``reads[a * up_size + b]`` numbers the table of the factor pairing
    the level's variable at position a with the upper one at index b: 0
    before the matched index, 1 after it, and ``2 + j`` at it, for the
    (label, dynamical shift) ``keys[j]`` of position a.
    """

    reads: np.ndarray
    keys: tuple[tuple[int, int], ...]


@cache
def _plan(word: tuple[int, ...], sizes: tuple[int, ...]) -> tuple[_LevelPlan, ...]:
    """Gather plans of one partition at level sizes ``sizes``, per level.

    It reads no level, spectral or dynamical value and serves all three
    variants: built once per process.
    """
    part = IndexPartition(word, len(sizes))
    plans = []
    for l, (size, up_size) in enumerate(zip(sizes, sizes[1:])):
        keys: dict[tuple[int, int], int] = {}
        reads = np.ones((size, up_size), dtype=np.intp)
        for a, (pos, b) in enumerate(zip(part.union(l + 1), part.phi(l + 1))):
            key = (part.block_of(pos), dynamical_shift(part, pos, l + 2))
            reads[a, : b - 1] = 0
            reads[a, b - 1] = _FIXED_TABLES + keys.setdefault(key, len(keys))
        plans.append(_LevelPlan(_compact(reads.ravel()), tuple(keys)))
    return tuple(plans)


class _PointLayout(NamedTuple):
    """Index arrays of the bracket pass and the quotient pass of a point.

    Bracket argument t is ``values[terms[0, t]] - values[terms[1, t]] +
    offsets[terms[2, t]]``: the values are the level variables, then 0;
    the offsets are 1, 0 and -1, then every level's matched shifts.  With
    ``b`` the brackets at the arguments followed by a 1, quotient t is
    ``b[factors[0, 0, t]] * b[factors[0, 1, t]]`` over
    ``b[factors[1, 0, t]] * b[factors[1, 1, t]]``.  Level l's tables are
    the quotients ``tables[l]``, one row per table, and its same-level
    products multiply the quotients ``pairs[l]`` row by row.
    """

    terms: np.ndarray
    factors: np.ndarray
    tables: tuple[np.ndarray, ...]
    pairs: tuple[np.ndarray, ...]


@cache
def _point_layout(
    sizes: tuple[int, ...], counts: tuple[int, ...], variant: str
) -> _PointLayout:
    """The layout of a point with level sizes ``sizes`` and ``counts[l]``
    matched shifts at level l.  It reads no value: built once per process."""
    starts = np.cumsum((0, *sizes))
    zero = starts[-1]
    shift_starts = 3 + np.cumsum((0, *counts))
    terms: list[np.ndarray] = []

    def arguments(first, second, offset) -> np.ndarray:
        """Append bracket arguments; their positions, in broadcast shape."""
        first, second, offset = np.broadcast_arrays(first, second, offset)
        start = sum(term.shape[1] for term in terms)
        terms.append(np.stack((first, second, offset)).reshape(3, -1))
        return start + np.arange(first.size).reshape(first.shape)

    # Factor -1 reads the 1 after the brackets.
    one = arguments(zero, zero, 0)
    factors, tables, pairs = [], [], []
    count_quotients = 0
    for l, count in enumerate(counts):
        here = np.arange(starts[l], starts[l + 1])
        up = np.arange(starts[l + 1], starts[l + 2])
        matched = shift_starts[l] + np.arange(count)
        bracket_s = arguments(zero, zero, matched)[:, None, None]
        # Rows [u - v + 1], [u - v], then [u - v + s] per shift, for level
        # l variables v (first index) and level l + 1 variables u.
        cross = arguments(up, here[:, None], np.r_[0, 1, matched][:, None, None])
        # Tables before, after, then matched, as num0 * num1 / (den0 * den1).
        num0, num1 = cross.copy(), np.full_like(cross, -1)
        den0, den1 = np.full_like(cross, -1), np.full_like(cross, -1)
        if variant != "envelope":
            num1[2:] = one
        if variant == "tilde":
            num0[0] = -1
            den0[1:] = cross[0]
            den1[2:] = bracket_s
        else:
            den0[2:] = bracket_s
        # Same-level quotients at (a, b): tilde [v_a - v_b - 1] / [v_a - v_b],
        # entire [v_b - v_a + 1] / [v_b - v_a], envelope 1 over
        # [v_a - v_b] [v_b - v_a - 1].
        rows, cols = np.meshgrid(here, here, indexing="ij")
        ones = np.full(rows.shape, -1)
        if variant == "tilde":
            top, bottom = arguments(rows, cols, [[[2]], [[1]]])
            same = (top, ones, bottom, ones)
        elif variant == "entire":
            top, bottom = arguments(cols, rows, [[[0]], [[1]]])
            same = (top, ones, bottom, ones)
        else:
            left, right = arguments(
                np.stack((rows, cols)), np.stack((cols, rows)), [[[1]], [[2]]]
            )
            same = (ones, ones, left, right)
        factors.append(np.stack((num0, num1, den0, den1)).reshape(4, -1))
        factors.append(np.stack(same).reshape(4, -1))
        tables.append(count_quotients + np.arange(cross.size).reshape(len(cross), -1))
        count_quotients += cross.size
        # Same-level pairs (a, b), a < b, of each permutation, by row.
        perms = _perms(len(here))
        first, second = np.triu_indices(len(here), 1)
        pairs.append(count_quotients + perms[:, first] * len(here) + perms[:, second])
        count_quotients += rows.size
    return _PointLayout(
        _compact(np.concatenate(terms, axis=1)),
        _compact(np.concatenate(factors, axis=1).reshape(2, 2, -1)),
        tuple(map(_compact, tables)),
        tuple(map(_compact, pairs)),
    )


def _point_tables(
    params: EllipticParams,
    levels: Levels,
    variant: str,
    shifts: Sequence[tuple[complex, ...]],
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Factor tables and same-level products of one point, per level.

    Level l's tables are the rows of one array, each of lambda^(l) *
    lambda^(l+1) entries: the tables read before and after the matched
    index, then one matched table per shift in ``shifts[l]``.  Its
    same-level products hold one entry per permutation of the level.
    Each distinct bracket argument is evaluated once, and all quotients
    take one guarded division.
    """
    layout = _point_layout(tuple(map(len, levels)), tuple(map(len, shifts)), variant)
    values = np.array([*(v for level in levels for v in level), 0], dtype=complex)
    offsets = np.array(
        [1, 0, -1, *(s for level in shifts for s in level)], dtype=complex
    )
    first, second, offset = layout.terms
    args, inverse = np.unique(
        values[first] - values[second] + offsets[offset], return_inverse=True
    )
    brackets = np.array([bracket(params, u) for u in args.tolist()], dtype=complex)
    factors = np.append(brackets[inverse], 1)[layout.factors]
    quotients = guarded_ratio(*(factors[:, 0] * factors[:, 1]))
    tables = [quotients[index] for index in layout.tables]
    within = [quotients[index].prod(axis=1) for index in layout.pairs]
    return tables, within


def _product(factors: np.ndarray) -> np.ndarray:
    """Product over the first axis, multiplying halves into new arrays.

    Each entry is then rounded the same way for any stack of partitions
    and any block of terms: numpy picks the inner loop of a reduction, and
    of an in-place product that covers one entry, from the array shape,
    and the rounding with it.  The closing reduction sees one factor or
    none, and rounds nothing.
    """
    while len(factors) > 1:
        half = len(factors) // 2
        paired = factors[:half] * factors[half : 2 * half]
        factors = np.concatenate((paired, factors[2 * half :]))
    return factors.prod(axis=0)


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
    if not parts:
        return np.zeros(0, dtype=complex)
    plans = [_plan(part.word, sizes) for part in parts]
    # The matched tables of the row at each level, in first-use order.
    keys = [
        dict.fromkeys(key for plan in plans for key in plan[l].keys)
        for l in range(len(sizes) - 1)
    ]
    shifts = [
        tuple(dyn.pair(label, l + 2) - shift for label, shift in level_keys)
        for l, level_keys in enumerate(keys)
    ]
    tables, within = _point_tables(params, levels, variant, shifts)
    rows = np.arange(len(parts))[:, None]
    carry = np.ones((len(parts), 1, len(within[0])), dtype=complex)
    for l, (level_keys, level_tables) in enumerate(zip(keys, tables)):
        # Each partition's table numbers in the row's numbering, padded
        # to one width; a padding entry is never read.
        place = {key: j for j, key in enumerate(level_keys, _FIXED_TABLES)}
        renumber = np.zeros((len(parts), _FIXED_TABLES + len(level_keys)), np.intp)
        for numbers, plan in zip(renumber, plans):
            numbers[: _FIXED_TABLES + len(plan[l].keys)] = [
                0, 1, *(place[key] for key in plan[l].keys)
            ]
        reads = renumber[rows, np.stack([plan[l].reads for plan in plans])]
        # Factor-major: offsets[f, p] is where partition p's factor f table starts.
        offsets = reads.T * level_tables.shape[1]
        cell_rows, cell_cols = _cells(sizes[l], sizes[l + 1], l + 2 == len(sizes))
        matrix = np.empty((len(parts), *within[l].shape, cell_cols.shape[1]), complex)
        step = max(1, _GATHER_ENTRIES // max(1, offsets.size * cell_cols.shape[1]))
        for start in range(0, len(within[l]), step):
            block = slice(start, start + step)
            index = (offsets[:, :, None] + cell_rows[:, None, block])[..., None]
            index = index + cell_cols[:, None, None, :]
            matrix[:, block] = _product(level_tables.take(index))
        matrix *= within[l][:, None]
        if np.isnan(matrix).any():
            raise ValueError(f"bracket pole in a level-{l + 1} denominator")
        carry = carry @ matrix
    return carry[:, 0, 0]


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
    return scalar_defect(lhs, rhs)


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
