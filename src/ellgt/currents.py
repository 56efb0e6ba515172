"""Delta-supported current action on the level-zero eigenbasis.

The raising and lowering series act on an eigenbasis vector through
finitely many delta distributions pinned at the module's spectral
points, while the diagonal series acts pointwise in the spectral
variable.  This module keeps the coefficient bookkeeping of those
finitely many terms and the consistency checks that make the family a
representation: the partial fraction identity behind the diagonal
residues, support-wise commutativity of raising and lowering
operators with distinct labels, the closed residue form of the
equal-label commutator, and the highest weight data.

Charge bookkeeping: a raising or diagonal operator with label j also
shifts the dynamical parameter along the j-th simple root, the
lowering operator does not.  None of the coefficients below depend on
the dynamical parameter, and the accumulated shift of a composite is
determined by its labels alone, so equal-label comparisons never need
the shift tracked explicitly.

The tails of the raising and lowering terms, products of
[u_i - u_k + 1]/[u_i - u_k] over the other sites of the moving block,
and the residue products of the diagonal profile come from
:func:`ellgt.gtrep.tail_products`, the one function that also gives the
tails of the closed half-current actions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from .gtrep import tail_products, tail_ratios
from .partitions import IndexPartition
from .rmatrix import scalar_defect, worst_residual
from .theta import (
    EllipticParams,
    bracket,
    bracket_denominator,
    bracket_deriv_zero,
    bracket_ratio,
)

LOWERING_NORMALIZATION = 1.0 + 0.0j


def scaling_constant(params: EllipticParams) -> complex:
    """Overall diagonal normalization.

    The ratio (p; p)(p* q^2; p*) / ((p*; p*)(p q^2; p)) of theta
    constants at the two nomes.  The level-0 regime fixes p* = p, where
    numerator and denominator coincide and the ratio is exactly one.
    """
    return 1.0 + 0.0j


def raising_normalization(params: EllipticParams) -> complex:
    """Companion constant of the raising series.

    Only the product of the two normalizations is constrained; the
    lowering one is fixed to unity, so this carries the full constant.
    """
    qq = complex(params.q) - 1.0 / complex(params.q)
    return (
        -scaling_constant(params)
        * bracket_deriv_zero(params)
        / (qq * bracket(params, 1.0) * LOWERING_NORMALIZATION)
    )


def commutator_constant(params: EllipticParams) -> complex:
    """Coefficient carried by every composite of one raising and one
    lowering term."""
    ratio = bracket(params, 1.0) / bracket_deriv_zero(params)
    return LOWERING_NORMALIZATION * raising_normalization(params) * ratio * ratio


@dataclass(frozen=True)
class DeltaTerm:
    """One delta-supported contribution: ``coeff`` times the basis
    vector of ``word``, supported where the current variable meets the
    spectral point of ``site`` (1-based)."""

    site: int
    word: tuple[int, ...]
    coeff: complex


def h_function(
    params: EllipticParams,
    j: int,
    part: IndexPartition,
    v: complex,
    us: Sequence[complex],
) -> complex:
    """Bare diagonal eigenvalue profile in the additive variable."""
    if not 1 <= j <= params.N - 1:
        raise ValueError("diagonal label out of range")
    us = tuple(complex(u) for u in us)
    v = complex(v)
    value = 1.0 + 0.0j
    for a in part.blocks[j - 1]:
        x = us[a - 1] - v
        value *= bracket_ratio(params, x + 1, x)
    for b in part.blocks[j]:
        x = us[b - 1] - v
        value *= bracket_ratio(params, x - 1, x)
    return value


def diagonal_eigenvalue(
    params: EllipticParams,
    j: int,
    part: IndexPartition,
    v: complex,
    us: Sequence[complex],
) -> complex:
    """Eigenvalue of the diagonal current with label j on the
    eigenbasis vector of ``part``; both signs coincide pointwise at
    level zero."""
    return scaling_constant(params) * h_function(params, j, part, v, us)


def h_residue(
    params: EllipticParams,
    j: int,
    part: IndexPartition,
    site: int,
    tails: np.ndarray,
) -> complex:
    """Closed-form residue of the diagonal profile at the spectral
    point of ``site``, which must lie in block j or block j + 1;
    ``tails`` is the module's :func:`ellgt.gtrep.tail_ratios` table."""
    upper = part.blocks[j - 1]
    lower = part.blocks[j]
    if site in upper:
        head = -bracket(params, 1.0) / bracket_deriv_zero(params)
    elif site in lower:
        head = -bracket(params, -1.0) / bracket_deriv_zero(params)
    else:
        raise ValueError("site is not in the two blocks of this label")
    # [u_a - u_c + 1]/[u_a - u_c] over block j is the lowering tail of the
    # site, and [u_b - u_c - 1]/[u_b - u_c] = T[c, b] over block j + 1 its
    # raising tail.
    word = np.array([part.word])
    upper_tail = tail_products(tails, word, j, lowering=True)[0, site - 1]
    return complex(head * upper_tail * tail_products(tails, word, j + 1)[0, site - 1])


def raising_terms(
    params: EllipticParams,
    j: int,
    part: IndexPartition,
    tails: np.ndarray,
) -> tuple[DeltaTerm, ...]:
    """Delta expansion of the raising current with label j applied to
    one eigenbasis vector: one term per site of block j + 1.  ``tails``
    is the module's :func:`ellgt.gtrep.tail_ratios` table."""
    return _delta_terms(params, j, part, tails, raising=True)


def lowering_terms(
    params: EllipticParams,
    j: int,
    part: IndexPartition,
    tails: np.ndarray,
) -> tuple[DeltaTerm, ...]:
    """Delta expansion of the lowering current with label j applied to
    one eigenbasis vector: one term per site of block j."""
    return _delta_terms(params, j, part, tails, raising=False)


def _delta_terms(
    params: EllipticParams,
    j: int,
    part: IndexPartition,
    tails: np.ndarray,
    raising: bool,
) -> tuple[DeltaTerm, ...]:
    """The terms of :func:`raising_terms` or :func:`lowering_terms`."""
    if not 1 <= j <= params.N - 1:
        raise ValueError(f"{'raising' if raising else 'lowering'} label out of range")
    head = _term_head(params, raising)
    letter = j + 1 if raising else j
    products = tail_products(tails, np.array([part.word]), letter, not raising)[0]
    move = part.move_up if raising else part.move_down
    return tuple(
        DeltaTerm(i, move(i).word, complex(head * products[i - 1]))
        for i in part.blocks[letter - 1]
    )


@cache
def _term_head(params: EllipticParams, raising: bool) -> complex:
    """norm [1] / [0]', the factor every raising (lowering) term carries."""
    norm = raising_normalization(params) if raising else LOWERING_NORMALIZATION
    return norm * bracket(params, 1.0) / bracket_deriv_zero(params)


def _compose(
    params: EllipticParams,
    i: int,
    j: int,
    part: IndexPartition,
    tails: np.ndarray,
    raising_first: bool,
) -> dict[tuple[int, int, tuple[int, ...]], complex]:
    """Terms of a raising(i)/lowering(j) composite on one eigenbasis
    vector, keyed by (lowering site, raising site, final word)."""
    if raising_first:
        first, second, labels = raising_terms, lowering_terms, (i, j)
    else:
        first, second, labels = lowering_terms, raising_terms, (j, i)
    terms: dict[tuple[int, int, tuple[int, ...]], complex] = {}
    for outer in first(params, labels[0], part, tails):
        mid = IndexPartition(outer.word, params.N)
        for inner in second(params, labels[1], mid, tails):
            e_term, f_term = (outer, inner) if raising_first else (inner, outer)
            key = (f_term.site, e_term.site, inner.word)
            terms[key] = terms.get(key, 0j) + e_term.coeff * f_term.coeff
    return terms


def ef_commutator_report(
    params: EllipticParams,
    i: int,
    j: int,
    part: IndexPartition,
    tails: np.ndarray,
) -> dict[str, float]:
    """Support-wise commutator of raising(i) with lowering(j).

    Equal delta supports are compared term by term.  For distinct
    labels every term must cancel; for equal labels the mixed-site
    terms cancel and the equal-site diagonal must match the closed
    residue form.  ``tails`` is the module's
    :func:`ellgt.gtrep.tail_ratios` table.  Returns the worst relative
    defect of each part.
    """
    ef = _compose(params, i, j, part, tails, raising_first=False)
    fe = _compose(params, i, j, part, tails, raising_first=True)
    keys = set(ef) | set(fe)
    scale = worst_residual(
        [1.0]
        + [abs(c) for c in ef.values()]
        + [abs(c) for c in fe.values()]
    )
    offdiag = []
    diag = []
    expected_head = (
        -bracket_deriv_zero(params)
        * commutator_constant(params)
        / bracket(params, 1.0)
    )
    for key in keys:
        f_site, e_site, word = key
        value = ef.get(key, 0j) - fe.get(key, 0j)
        if i == j and f_site == e_site and word == part.word:
            expected = expected_head * h_residue(params, j, part, f_site, tails)
            diag.append(abs(value - expected) / scale)
        else:
            offdiag.append(abs(value) / scale)
    return {"offdiag": worst_residual(offdiag), "diag": worst_residual(diag)}


def partial_fraction_defect(
    params: EllipticParams,
    us: Sequence[complex],
    m: int,
    v: complex,
) -> float:
    """Relative defect of the partial fraction expansion splitting a
    product of shifted bracket ratios into first-order poles.

    The expansion balances m raised factors against the remaining
    lowered ones and is undefined where the balance bracket vanishes
    (2m - n on the zero lattice); that degenerate case raises.
    """
    us = tuple(complex(u) for u in us)
    n = len(us)
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    v = complex(v)
    balance = bracket(params, float(2 * m - n))
    if abs(balance) < 1e-9:
        raise ValueError(
            "balance bracket vanishes for this (m, n); expansion undefined"
        )
    lhs = 1.0 + 0.0j
    for k in range(1, m + 1):
        x = v - us[k - 1]
        lhs *= bracket_ratio(params, x + 1, x)
    for l in range(m + 1, n + 1):
        x = v - us[l - 1]
        lhs *= bracket_ratio(params, x - 1, x)
    rhs = 0.0 + 0.0j
    for a in range(1, n + 1):
        u_a = us[a - 1]
        term = bracket(params, v - u_a + 2 * m - n) / (
            balance * bracket_denominator(params, v - u_a)
        )
        # At k = a (l = a) these read [1] ([-1]) exactly.
        for k in range(1, m + 1):
            term *= bracket(params, u_a - us[k - 1] + 1)
        for l in range(m + 1, n + 1):
            term *= bracket(params, u_a - us[l - 1] - 1)
        for b in range(1, n + 1):
            if b != a:
                term /= bracket_denominator(params, u_a - us[b - 1])
        rhs += term
    return scalar_defect(lhs, rhs)


def drinfeld_polynomial(
    params: EllipticParams,
    l: int,
    v: complex,
    us: Sequence[complex],
) -> complex:
    """Classifying polynomial of the one-row module: nontrivial only
    in the first slot, where it is the product of raised brackets over
    all spectral points."""
    if l < 1:
        raise ValueError("label must be positive")
    if l > 1:
        return 1.0 + 0.0j
    value = 1.0 + 0.0j
    for u in us:
        value *= bracket(params, complex(u) - complex(v) + 1)
    return value


def highest_weight_report(
    params: EllipticParams,
    us: Sequence[complex],
    v: complex,
) -> dict[str, float]:
    """Highest weight data of the module generated by the all-ones
    word: every raising current kills it (an empty term list, reported
    as an exact count), and the diagonal eigenvalues are the ratio of
    classifying polynomials at unit shift."""
    us = tuple(complex(u) for u in us)
    part = IndexPartition((1,) * len(us), params.N)
    tails = tail_ratios(params, us)
    raising_count = 0
    for j in range(1, params.N):
        raising_count += len(raising_terms(params, j, part, tails))
    h_defects = []
    rho = scaling_constant(params)
    for j in range(1, params.N):
        got = diagonal_eigenvalue(params, j, part, v, us)
        top = drinfeld_polynomial(params, j, v, us)
        bottom = drinfeld_polynomial(params, j, v + 1, us)
        want = rho * top / bottom
        h_defects.append(abs(got - want) / max(1.0, abs(want)))
    return {
        "raising_terms": float(raising_count),
        "h_defect": worst_residual(h_defects),
    }
