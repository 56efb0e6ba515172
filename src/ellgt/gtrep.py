"""Level-0 tensor modules and their simultaneous eigenbasis structure.

The n-fold tensor product of vector evaluation modules carries two bases:
the standard one, indexed by words mu in [1, N]^n, and the joint
eigenbasis of the commuting diagonal half-currents, indexed by ordered
partitions of [1, n] into N blocks.  Every operator here keeps or moves
letter counts, so it is held one letter-count sector at a time, over
the sector's words in word-lexicographic order, with each two-site gate
run by :func:`apply_rbar` along a plan cached per sector and sites; a
check folds the sector blocks into the defect of the whole matrix.
This module builds the change of basis by exchange steps, realizes the
L-operator as an ordered product of two-site R matrices, splits it
numerically into half-current blocks by Schur complements, implements
the closed-form half-current actions on the eigenbasis, and verifies
the exchange relation, the five adjacent half-current relations, the
commutativity of the diagonal blocks, and the centrality of their
ordered product.

Conventions.  Operators are plain complex matrices acting on column
vectors.  Spectral variables are additive: the module carries u_1..u_n
and operator families a variable v, the additive counterparts of
z_i = q^{2u_i} and w = q^{2v}; every operator family is evaluated at the
point 1/w.  Products of operator matrices are plain matrix products of
factors built at their stated dynamical arguments; charge bookkeeping,
where it matters, appears as explicit unit shifts of those arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .partitions import (
    IndexPartition,
    all_partitions,
    compositions,
    partitions_with_shape,
)
from .rmatrix import (
    DynamicalParameter,
    GatePlan,
    apply_rbar,
    entry_c,
    entry_c_bar,
    gate_plan,
    worst_residual,
)
from .theta import (
    DENOM_FLOOR,
    EllipticParams,
    bracket,
    bracket_denominator,
    bracket_ratio,
    bracket_ratio_minus,
    bracket_ratio_plus,
)
from .weights import fixed_point_row

_COND_LIMIT = 1e10

SIGNS = ("+", "-")
RELATION_NAMES = ("kek", "kfk", "ee", "ff", "effe")

Sector = tuple[int, ...]


@cache
def _sector_words(shape: Sector) -> np.ndarray:
    """Words of one letter-count sector, word-lexicographic, read-only."""
    words = np.array([part.word for part in partitions_with_shape(shape)])
    words.setflags(write=False)
    return words


@cache
def sector_plan(
    shape: Sector, active: tuple[int, int], shifts: tuple[int, ...]
) -> GatePlan:
    """:func:`gate_plan` on the words of one sector, of rank ``len(shape)``.

    It reads no spectral or dynamical argument: built once per process.
    """
    return gate_plan(len(shape), _sector_words(shape), active, shifts)


def _module_sector(sector: Sector, aux: int) -> Sector:
    """Module sector behind auxiliary letter ``aux`` in a sector."""
    return sector[: aux - 1] + (sector[aux - 1] - 1,) + sector[aux:]


def _sector_defect(pairs: Iterable[tuple[np.ndarray, np.ndarray]]) -> float:
    """``relative_defect`` of two operators given as matching sector blocks.

    Both are exactly 0 between sectors, so only the blocks are compared.
    """
    diffs, scales = [], [1.0]
    for lhs, rhs in pairs:
        diffs.append(np.max(np.abs(lhs - rhs)))
        scales += [float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs)))]
    # np.max keeps a NaN difference, which a plain max fold would drop.
    return float(np.max(diffs)) / max(scales)


def apply_l_operator(
    params: EllipticParams,
    us: Sequence[complex],
    v: complex,
    dyn: DynamicalParameter,
    shape: Sector,
    state: np.ndarray,
    aux: int,
    first_site: int,
    extra_shift_sites: tuple[int, ...] = (),
    rmats: dict | None = None,
) -> np.ndarray:
    """Apply the L-operator gates of auxiliary site ``aux`` to a state.

    ``state`` has one row per word of the sector ``shape`` and is as
    for :func:`apply_rbar`, which also takes ``rmats``.  Module site j
    sits at ``first_site + j - 1``.  The gate touching it has spectral
    argument u_j - v and dynamical parameter shifted by the weights of
    module sites 1..j-1 and of ``extra_shift_sites``; the site-1 gate
    acts first, so as a matrix product the site-n factor is leftmost.
    """
    for j, u in enumerate(us):
        site = first_site + j
        shifts = extra_shift_sites + tuple(range(first_site, site))
        plan = sector_plan(shape, (aux, site), shifts)
        state = apply_rbar(params, u - v, dyn, plan, state, rmats=rmats)
    return state


def l_operator_blocks(
    params: EllipticParams,
    us: Sequence[complex],
    v: complex,
    dyn: DynamicalParameter,
    sign: str = "+",
) -> dict[Sector, dict[tuple[int, int], np.ndarray]]:
    """Auxiliary-space blocks (i, j) of the L-operator, sector by sector.

    The matrix acts on auxiliary site 1 times module sites 2..n+1 (see
    :func:`apply_l_operator`) and keeps the letter counts c of their
    words.  In word order the rows of auxiliary letter i are contiguous
    and their module words are the sector c - e_i, so sector c holds,
    for the labels with c_i, c_j > 0, the block (i, j) from module
    sector c - e_j to c - e_i.  The minus sign evaluates the plus family
    at v - r, the elliptic-nome shift of the generating point.
    """
    if sign not in SIGNS:
        raise ValueError(f"unknown sign {sign!r}")
    us = tuple(complex(u) for u in us)
    if not us:
        raise ValueError("need at least one module site")
    v_eff = complex(v) if sign == "+" else complex(v) - params.r
    rmats: dict = {}
    out = {}
    for sector in compositions(len(us) + 1, params.N):
        words = _sector_words(sector)
        eye = np.eye(len(words), dtype=complex)
        full = apply_l_operator(params, us, v_eff, dyn, sector, eye, 1, 2, rmats=rmats)
        edges = np.searchsorted(words[:, 0], np.arange(1, params.N + 2))
        labels = [i for i in range(1, params.N + 1) if sector[i - 1]]
        rows = {i: slice(edges[i - 1], edges[i]) for i in labels}
        out[sector] = {(i, j): full[rows[i], rows[j]] for i in rows for j in rows}
    return out


class ResampleNeeded(RuntimeError):
    """An ill-conditioned pivot was hit; the caller should redraw samples."""


@dataclass(frozen=True)
class GaussComponents:
    """Blocks of the triangular-diagonal-triangular split of one sector.

    ``diag`` holds the diagonal blocks K_l, ``lower`` the strictly lower
    blocks E_(l,j) with j < l (unit diagonal implied), and ``upper`` the
    strictly upper blocks F_(j,l) with j < l, for the labels the sector
    holds.
    """

    diag: dict[int, np.ndarray]
    lower: dict[tuple[int, int], np.ndarray]
    upper: dict[tuple[int, int], np.ndarray]


def gauss_extract(
    blocks: Mapping[Sector, Mapping[tuple[int, int], np.ndarray]],
) -> dict[Sector, GaussComponents]:
    """Schur-complement split of a blocked matrix, peeling the last index.

    ``blocks`` is given by sector, as :func:`l_operator_blocks` gives
    it; the split of the whole matrix is the direct sum of the sector
    splits.  At each stage the current last diagonal block is the
    pivot: the lower factor collects pivot-inverse times the row blocks,
    the upper factor the column blocks times pivot-inverse, and the
    remaining square is Schur-updated.  The whole pivot's singular values
    are the union of the sector pivots', so a stage whose largest over
    smallest exceeds ``_COND_LIMIT`` raises :class:`ResampleNeeded`.
    """
    work = {sector: dict(held) for sector, held in blocks.items()}
    comps = {sector: GaussComponents({}, {}, {}) for sector in blocks}
    size = max(i for held in blocks.values() for i, _ in held)
    for m in range(size, 0, -1):
        pivots = {s: held[(m, m)] for s, held in work.items() if (m, m) in held}
        singular = np.concatenate(
            [np.linalg.svd(pivot, compute_uv=False) for pivot in pivots.values()]
        )
        if singular.max() > _COND_LIMIT * singular.min():
            raise ResampleNeeded(f"pivot block ({m},{m}) is ill conditioned")
        for sector, pivot in pivots.items():
            held, comp = work[sector], comps[sector]
            comp.diag[m] = pivot
            rest = [j for j in range(1, m) if (j, j) in held]
            if not rest:
                continue
            inv = np.linalg.inv(pivot)
            for j in rest:
                comp.lower[(m, j)] = inv @ held[(m, j)]
                comp.upper[(j, m)] = held[(j, m)] @ inv
            work[sector] = {
                (i, j): held[(i, j)] - held[(i, m)] @ inv @ held[(m, j)]
                for i in rest
                for j in rest
            }
    return comps


def reassembly_defect(
    blocks: Mapping[Sector, Mapping[tuple[int, int], np.ndarray]],
    comps: Mapping[Sector, GaussComponents],
) -> float:
    """Residual of rebuilding the blocked matrix from its Gauss factors.

    Block (i, j) must equal the sum over k >= max(i, j) of
    upper_(i,k) diag_k lower_(k,j), with unit diagonal factors.  Each
    block is compared as one operator, folded over the sectors.
    """
    pairs: dict[tuple[int, int], list] = {}
    for sector, held in blocks.items():
        comp = comps[sector]
        for (i, j), block in held.items():
            acc = np.zeros_like(block)
            for k in sorted(comp.diag):
                if k >= max(i, j):
                    left = comp.diag[k] if k == i else comp.upper[(i, k)] @ comp.diag[k]
                    acc += left if k == j else left @ comp.lower[(k, j)]
            pairs.setdefault((i, j), []).append((acc, block))
    return worst_residual(_sector_defect(held) for held in pairs.values())


def x_matrix_via_recursion(
    params: EllipticParams,
    shape: Sequence[int],
    us: Sequence[complex],
    dyn: DynamicalParameter,
    descent: str = "first",
    rmats: dict | None = None,
) -> np.ndarray:
    """Sector change-of-basis matrix from the exchange recursion.

    Rows and columns run over the partitions of the shape class in word
    order; entry (i, j) is the coefficient of word j's standard vector
    in the eigenvector of partition i.  The weakly decreasing word is
    its own standard vector; any other eigenvector is the exchange gate
    at its first or last ascent (``descent``; both must agree) applied
    to its parent, the swapped word at the swapped spectral tuple.  Each
    eigenvector and each gate (position, spectral argument) is built
    once, and calls sharing ``rmats`` share their R matrices.
    """
    if descent not in ("first", "last"):
        raise ValueError(f"unknown descent rule {descent!r}")
    ascent = getattr(IndexPartition, f"{descent}_ascent")
    shape = tuple(shape)
    parts = partitions_with_shape(shape)
    rmats = {} if rmats is None else rmats
    gates: dict = {}

    @cache
    def row(part: IndexPartition, at: tuple[complex, ...]) -> np.ndarray:
        if part.is_weakly_decreasing():
            return np.eye(len(parts), dtype=complex)[parts.index(part)]
        i = ascent(part)
        key = (i, at[i - 1] - at[i])
        if key not in gates:
            # The R factor on the class words, then the site swap.
            plan = sector_plan(shape, (i, i + 1), tuple(range(1, i)))
            eye = np.eye(len(parts), dtype=complex)
            rmat = apply_rbar(params, key[1], dyn, plan, eye, rmats=rmats)
            gates[key] = rmat[plan.partner]
        swapped = at[: i - 1] + (at[i], at[i - 1]) + at[i + 1 :]
        return gates[key] @ row(part.swap_adjacent(i), swapped)

    us = tuple(complex(u) for u in us)
    out = np.array([row(part, us) for part in parts])
    row = None  # row refers to itself: unbind it so its memo is freed now
    return out


def x_matrix_via_weights(
    params: EllipticParams,
    shape: Sequence[int],
    us: Sequence[complex],
    dyn: DynamicalParameter,
) -> np.ndarray:
    """Sector change-of-basis matrix from specialized weight functions."""
    parts = partitions_with_shape(shape)
    return np.array(
        [fixed_point_row(params, part, parts, us, dyn) for part in parts],
        dtype=complex,
    )


def _pm_ratio(
    params: EllipticParams, s: complex, x: complex, sign: str
) -> complex:
    """The combination [s+x]/([s][x]) in its sign-wise expansion form.

    ValueError at a pole: each of [s] and [x] is guarded on its own.
    """
    bracket_denominator(params, s)
    bracket_denominator(params, x)
    if sign == "+":
        return bracket_ratio_plus(params, s, x)
    if sign == "-":
        return bracket_ratio_minus(params, s, x)
    raise ValueError(f"unknown sign {sign!r}")


def half_current_coefficients(
    params: EllipticParams,
    kind: str,
    j: int,
    part: IndexPartition,
    v: complex,
    us: Sequence[complex],
    dyn: DynamicalParameter,
    sign: str = "+",
) -> dict[tuple[int, ...], complex]:
    """Closed-form action of one half-current on one eigenbasis vector.

    Returns coefficients over eigenbasis words.  kind "K" with j in
    [1, N] is diagonal; kind "E" with j in [1, N-1] moves one position
    from block j + 1 to block j; kind "F" moves one position from block
    j to block j + 1.  The block sizes of ``part`` enter the dynamical
    scalar of the F action.
    """
    if sign not in SIGNS:
        raise ValueError(f"unknown sign {sign!r}")
    us = tuple(complex(u) for u in us)
    v = complex(v)
    if kind == "K":
        if not 1 <= j <= params.N:
            raise ValueError("diagonal label out of range")
        v_eff = v if sign == "+" else v + params.r
        coeff = 1.0 + 0.0j
        for k in range(1, j):
            for a in part.blocks[k - 1]:
                x = us[a - 1] - v_eff
                coeff *= bracket_ratio(params, x, x + 1)
        for l in range(j + 1, params.N + 1):
            for b in part.blocks[l - 1]:
                x = us[b - 1] - v_eff
                coeff *= bracket_ratio(params, x - 1, x)
        return {part.word: coeff}
    if kind == "E":
        if not 1 <= j <= params.N - 1:
            raise ValueError("raising label out of range")
        s = dyn.pair(j, j + 1)
        block = part.blocks[j]
        out: dict[tuple[int, ...], complex] = {}
        for i in block:
            head = -bracket(params, 1.0) * _pm_ratio(
                params, s, v - us[i - 1], sign
            )
            tail = 1.0 + 0.0j
            for k in block:
                if k == i:
                    continue
                diff = us[i - 1] - us[k - 1]
                tail *= bracket_ratio(params, diff + 1, diff)
            out[part.move_up(i).word] = head * tail
        return out
    if kind == "F":
        if not 1 <= j <= params.N - 1:
            raise ValueError("lowering label out of range")
        shape = part.shape
        s = dyn.pair(j, j + 1) + shape[j - 1] - shape[j]
        block = part.blocks[j - 1]
        out = {}
        for i in block:
            head = bracket(params, 1.0) * _pm_ratio(
                params, s - 1, us[i - 1] - v, sign
            )
            tail = 1.0 + 0.0j
            for k in block:
                if k == i:
                    continue
                diff = us[k - 1] - us[i - 1]
                tail *= bracket_ratio(params, diff + 1, diff)
            out[part.move_down(i).word] = head * tail
        return out
    raise ValueError(f"unknown half-current kind {kind!r}")


def half_current_matrix(
    params: EllipticParams,
    kind: str,
    j: int,
    v: complex,
    us: Sequence[complex],
    dyn: DynamicalParameter,
    cols: Sequence[IndexPartition],
    rows: Sequence[IndexPartition],
    sign: str = "+",
) -> np.ndarray:
    """One half-current in eigenbasis coordinates, from ``cols`` to ``rows``.

    The partitions are a sector and its image under the half-current,
    or every partition of the module for both.
    """
    at = {part.word: k for k, part in enumerate(rows)}
    out = np.zeros((len(rows), len(cols)), dtype=complex)
    for col, part in enumerate(cols):
        coeffs = half_current_coefficients(
            params, kind, j, part, v, us, dyn, sign
        )
        for word, coeff in coeffs.items():
            out[at[word], col] += coeff
    return out


def _guarded_reciprocal(values: np.ndarray) -> np.ndarray:
    """Reciprocals of a diagonal operator's entries, refusing small ones."""
    if np.min(np.abs(values)) < DENOM_FLOOR:
        raise ValueError("diagonal operator is numerically singular")
    return 1.0 / values


def _columnwise_defect(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Worst per-column relative defect; every basis vector is exercised."""
    scale = np.maximum(
        1.0,
        np.maximum(np.abs(lhs).max(axis=0), np.abs(rhs).max(axis=0)),
    )
    return float((np.abs(lhs - rhs).max(axis=0) / scale).max())


def verify_halfcurrent_relations(
    params: EllipticParams,
    us: Sequence[complex],
    dyn: DynamicalParameter,
    v1: complex,
    v2: complex,
) -> dict[str, float]:
    """Residuals of the five adjacent half-current relations.

    Each relation is evaluated as an identity of eigenbasis-coordinate
    matrices over the whole module, for every adjacent label, and the
    worst per-column defect is reported, so every eigenvector is
    exercised.  Diagonal operators are held as vectors of their entries
    and applied by broadcasting.  Dynamical scalars carrying the weight
    operator read the vector present at their own position in the
    operator product; realized on source shapes this costs an offset of
    -2 per lowering factor standing to their right.  All other scalars
    are constants.
    """
    us = tuple(complex(u) for u in us)
    parts = list(all_partitions(len(us), params.N))
    v1, v2 = complex(v1), complex(v2)
    v12 = v1 - v2

    @cache
    def half(kind: str, j: int, v: complex, d: DynamicalParameter) -> np.ndarray:
        # Each distinct half-current is built once; no caller writes it.
        return half_current_matrix(params, kind, j, v, us, d, parts, parts)

    def e_mat(j: int, v: complex, d: DynamicalParameter) -> np.ndarray:
        return half("E", j, v, d)

    def f_mat(j: int, v: complex, d: DynamicalParameter) -> np.ndarray:
        return half("F", j, v, d)

    def diagonal(entry_of) -> np.ndarray:
        # A diagonal operator as the vector of its entries.
        return np.array([entry_of(part) for part in parts])

    @cache
    def k_vec(l: int, v: complex) -> np.ndarray:
        return diagonal(
            lambda p: half_current_coefficients(params, "K", l, p, v, us, dyn)[p.word]
        )

    # 1 / entry_b_bar(+-v12), guarded at the pole v1 = v2.
    inv_b_m = bracket_ratio(params, -v12 + 1, -v12)
    inv_b_p = bracket_ratio(params, v12 + 1, v12)
    defects: dict[str, list[float]] = {name: [] for name in RELATION_NAMES}
    for j in range(1, params.N):
        s = dyn.pair(j, j + 1)
        d_up = dyn.shifted_unit(j + 1)
        d_dn = dyn.shifted_unit(j)
        k_next_1 = k_vec(j + 1, v1)
        k_next_1_inv = _guarded_reciprocal(k_next_1)

        # A diagonal factor on the left scales rows, on the right columns.
        lhs = k_next_1_inv[:, np.newaxis] * e_mat(j, v2, dyn) * k_next_1
        rhs = e_mat(j, v2, d_up) * inv_b_m - e_mat(j, v1, d_up) * (
            entry_c(params, -v12, s) * inv_b_m
        )
        defects["kek"].append(_columnwise_defect(lhs, rhs))

        lhs = k_next_1[:, np.newaxis] * f_mat(j, v2, d_up) * k_next_1_inv
        cbar = diagonal(
            lambda p: entry_c_bar(params, -v12, s + p.shape[j - 1] - p.shape[j] - 2)
            * inv_b_m,
        )
        rhs = f_mat(j, v2, dyn) * inv_b_m - f_mat(j, v1, dyn) * cbar
        defects["kfk"].append(_columnwise_defect(lhs, rhs))

        e1_up, e2_up = e_mat(j, v1, d_up), e_mat(j, v2, d_up)
        e1_dn, e2_dn = e_mat(j, v1, d_dn), e_mat(j, v2, d_dn)
        lhs = e1_up @ e2_dn * inv_b_p - e2_up @ e2_dn * (
            entry_c(params, v12, s) * inv_b_p
        )
        rhs = e2_up @ e1_dn * inv_b_m - e1_up @ e1_dn * (
            entry_c(params, -v12, s) * inv_b_m
        )
        defects["ee"].append(_columnwise_defect(lhs, rhs))

        f1, f2 = f_mat(j, v1, dyn), f_mat(j, v2, dyn)

        def ff_scalars(v_arg: complex) -> np.ndarray:
            scale = bracket_ratio(params, v_arg + 1, v_arg)
            return diagonal(
                lambda p: entry_c_bar(
                    params, v_arg, s + p.shape[j - 1] - p.shape[j] - 2
                )
                * scale,
            )

        lhs = f1 @ f2 * inv_b_m - f1 @ f1 * ff_scalars(-v12)
        rhs = f2 @ f1 * inv_b_p - f2 @ f2 * ff_scalars(v12)
        defects["ff"].append(_columnwise_defect(lhs, rhs))

        lhs = e_mat(j, v1, dyn) @ f_mat(j, v2, d_dn) - f_mat(
            j, v2, d_up
        ) @ e_mat(j, v1, dyn)
        ratio_2 = k_vec(j, v2) * _guarded_reciprocal(k_vec(j + 1, v2))
        ratio_1 = _guarded_reciprocal(k_vec(j + 1, v1)) * k_vec(j, v1)
        cbar_shape = diagonal(
            lambda p: entry_c_bar(params, -v12, s + p.shape[j - 1] - p.shape[j])
            * inv_b_m,
        )
        rhs = np.diag(
            ratio_2 * (entry_c_bar(params, -v12, s) * inv_b_m)
            - ratio_1 * cbar_shape
        )
        defects["effe"].append(_columnwise_defect(lhs, rhs))
    return {name: worst_residual(values) for name, values in defects.items()}


def halfcurrent_oracle_defect(
    params: EllipticParams,
    us: Sequence[complex],
    v: complex,
    dyn: DynamicalParameter,
    sign: str = "+",
) -> dict[str, float]:
    """Closed-form half-currents against the Gauss blocks of the L-operator.

    The L blocks are built and split at the module's dynamical
    parameter.  The diagonal and raising components carry a unit
    charge, so their matrix realizations connect eigenbases taken at
    shifted dynamical arguments: the diagonal component for row l maps
    the basis at a +unit(l) shift onto the basis at the base point,
    and the raising component between rows j+1 and j maps the basis at
    +unit(j) onto the basis at +unit(j+1).  The lowering component is
    charge free.  Each block is therefore compared through

        solve(X^T(shift_out), block @ X^T(shift_in)) == closed form

    with the closed-form matrix always evaluated at the base point, one
    sector at a time, and folded over the sectors.  Eigenvector columns
    are rescaled to unit max-norm before solving; the closed-form side
    is rescaled by the same diagonal factors, so the comparison is
    unchanged while the solve stays well conditioned on larger modules.
    """
    us = tuple(complex(u) for u in us)
    parts = cache(partitions_with_shape)

    @cache
    def xt(shift: int) -> dict[Sector, tuple[np.ndarray, np.ndarray]]:
        shifted = dyn if shift == 0 else dyn.shifted_unit(shift)
        rmats: dict = {}
        out = {}
        for module in compositions(len(us), params.N):
            raw = x_matrix_via_recursion(params, module, us, shifted, rmats=rmats).T
            scales = 1.0 / np.max(np.abs(raw), axis=0)
            out[module] = (raw * scales[np.newaxis, :], scales)
        return out

    def block_defect(mats, kind, label, key, shift_in, shift_out) -> float:
        # Block key = (i, j) of sector c maps module sector c - e_j to c - e_i.
        pairs = []
        for sector, mat in mats.items():
            rows, cols = (_module_sector(sector, aux) for aux in key)
            theory = half_current_matrix(
                params, kind, label, v, us, dyn, parts(cols), parts(rows), sign
            )
            basis_in, scale_in = xt(shift_in)[cols]
            basis_out, scale_out = xt(shift_out)[rows]
            got = np.linalg.solve(basis_out, mat @ basis_in)
            rescaled = theory * scale_in[np.newaxis, :] / scale_out[:, np.newaxis]
            pairs.append((got, rescaled))
        return _sector_defect(pairs)

    comps = gauss_extract(l_operator_blocks(params, us, v, dyn, sign))
    report: dict[str, float] = {}
    for l in range(1, params.N + 1):
        mats = {s: comp.diag[l] for s, comp in comps.items() if l in comp.diag}
        report[f"K{l}"] = block_defect(mats, "K", l, (l, l), l, 0)
    for j in range(1, params.N):
        key = (j + 1, j)
        mats = {s: comp.lower[key] for s, comp in comps.items() if key in comp.lower}
        report[f"E{j + 1}{j}"] = block_defect(mats, "E", j, key, j, j + 1)
        key = (j, j + 1)
        mats = {s: comp.upper[key] for s, comp in comps.items() if key in comp.upper}
        report[f"F{j}{j + 1}"] = block_defect(mats, "F", j, key, 0, 0)
    return report


def verify_rll(
    params: EllipticParams,
    us: Sequence[complex],
    v1: complex,
    v2: complex,
    dyn: DynamicalParameter,
) -> float:
    """Residual of the exchange relation on two auxiliary sites and a module.

    Both sides are ordered products of two-site R-matrix gates on n + 2
    sites; sites 1 and 2 are auxiliary.  The left side dresses the
    auxiliary R matrix with the module weights; the right side uses the
    plain dynamical parameter.  The L factor of auxiliary site 2 on the
    left (site 1 on the right) carries the extra unit shift of the other
    auxiliary component, implementing its stated argument.  Every gate
    keeps the letter counts of its words, so both sides are applied to
    the identity of one sector at a time, sharing their R matrices, and
    the defect is folded across sectors.
    """
    us = tuple(complex(u) for u in us)
    n = len(us)
    mod_sites = tuple(range(3, n + 3))
    u12 = complex(v2) - complex(v1)
    rmats: dict = {}

    def sides(shape: Sector) -> tuple[np.ndarray, np.ndarray]:
        eye = np.eye(len(_sector_words(shape)), dtype=complex)
        lhs = apply_l_operator(params, us, v2, dyn, shape, eye, 2, 3, (1,), rmats)
        lhs = apply_l_operator(params, us, v1, dyn, shape, lhs, 1, 3, (), rmats)
        dressed = sector_plan(shape, (1, 2), mod_sites)
        lhs = apply_rbar(params, u12, dyn, dressed, lhs, rmats=rmats)
        plain = sector_plan(shape, (1, 2), ())
        rhs = apply_rbar(params, u12, dyn, plain, eye, rmats=rmats)
        rhs = apply_l_operator(params, us, v1, dyn, shape, rhs, 1, 3, (2,), rmats)
        rhs = apply_l_operator(params, us, v2, dyn, shape, rhs, 2, 3, (), rmats)
        return lhs, rhs

    return _sector_defect(map(sides, compositions(n + 2, params.N)))


def _k_block_at(
    params: EllipticParams,
    l: int,
    us: tuple[complex, ...],
    v: complex,
    dyn: DynamicalParameter,
    cache: dict,
) -> dict[Sector, np.ndarray]:
    """Diagonal Gauss block K_l by module sector.

    K_l on module sector w is the (l, l) block of the L sector w + e_l.
    """
    key = (l, complex(v), dyn.values)
    if key not in cache:
        comps = gauss_extract(l_operator_blocks(params, us, v, dyn))
        for label in range(1, params.N + 1):
            cache[(label, complex(v), dyn.values)] = {
                _module_sector(sector, label): comp.diag[label]
                for sector, comp in comps.items()
                if label in comp.diag
            }
    return cache[key]


def check_center(
    params: EllipticParams,
    us: Sequence[complex],
    v: complex,
    dyn: DynamicalParameter,
) -> dict:
    """Deviation of the ordered diagonal-block product from a scalar.

    The l-th factor is the l-th diagonal Gauss block extracted at
    spectral point v + (l - 1) with the dynamical parameter shifted by
    the accumulated unit weights of the earlier factors (the matrix form
    of their charge).  On the module the product must be a multiple of
    the identity; the scalar and the relative deviation are returned.
    """
    us = tuple(complex(u) for u in us)
    weight = [0.0] * params.N
    cache: dict = {}
    acc = None
    for l in range(1, params.N + 1):
        dyn_l = dyn.shifted(weight)
        k_l = _k_block_at(params, l, us, complex(v) + (l - 1), dyn_l, cache)
        acc = k_l if acc is None else {w: acc[w] @ k_l[w] for w in acc}
        weight[l - 1] += 1.0
    dim = sum(len(block) for block in acc.values())
    scalar = complex(sum(np.trace(block) for block in acc.values()) / dim)
    defect = _sector_defect(
        (block, scalar * np.eye(len(block), dtype=complex))
        for block in acc.values()
    )
    return {"scalar": scalar, "defect": defect}


def gt_commutativity_defect(
    params: EllipticParams,
    us: Sequence[complex],
    v1: complex,
    v2: complex,
    dyn: DynamicalParameter,
) -> float:
    """Commutation defect of pairs of diagonal Gauss blocks.

    Exchanging two diagonal blocks shifts the dynamical parameter of the
    right factor by the unit weight of the left one (its charge); with
    that bookkeeping the products in both orders must agree.
    """
    us = tuple(complex(u) for u in us)
    cache: dict = {}
    defects = []
    for l in range(1, params.N + 1):
        for m in range(l + 1, params.N + 1):
            k_l = _k_block_at(params, l, us, v1, dyn, cache)
            k_m_shifted = _k_block_at(params, m, us, v2, dyn.shifted_unit(l), cache)
            k_m = _k_block_at(params, m, us, v2, dyn, cache)
            k_l_shifted = _k_block_at(params, l, us, v1, dyn.shifted_unit(m), cache)
            pairs = ((k_l[w] @ k_m_shifted[w], k_m[w] @ k_l_shifted[w]) for w in k_l)
            defects.append(_sector_defect(pairs))
    return worst_residual(defects)
