"""Level-0 tensor modules and their simultaneous eigenbasis structure.

The n-fold tensor product of vector evaluation modules carries two bases:
the standard one, indexed by words mu in [1, N]^n (site 1 is the most
significant digit of the flat index), and the joint eigenbasis of the
commuting diagonal half-currents, indexed by ordered partitions of
[1, n] into N blocks.  The change of basis is block diagonal by letter
counts, so the eigenbasis is built one shape class at a time, in
coordinates over that class: each exchange step is :func:`apply_rbar`
on the class words, along a plan cached per (N, shape, position), then
the site swap; it is built once per (position, spectral argument) and
applied to every eigenvector that needs it, never to an N^n vector.
This module realizes the L-operator as an ordered product of two-site R
matrices, splits it numerically into half-current blocks by Schur
complements, implements the closed-form half-current actions on the
eigenbasis, and verifies the exchange relation (one weight sector of
aux x aux x module at a time, since every gate keeps letter counts),
the five adjacent half-current relations, the commutativity of the
diagonal blocks, and the centrality of their ordered product.

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
from typing import Mapping, Sequence

import numpy as np

from .partitions import IndexPartition, compositions, partitions_with_shape
from .rmatrix import (
    DynamicalParameter,
    GatePlan,
    apply_rbar,
    entry_c,
    entry_c_bar,
    gate_plan,
    relative_defect,
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

HALF_CURRENT_KINDS = ("K", "E", "F")
SIGNS = ("+", "-")
RELATION_NAMES = ("kek", "kfk", "ee", "ff", "effe")


def module_dim(params: EllipticParams, n: int) -> int:
    """Dimension N^n of the n-site module."""
    return params.N**n


def word_index(params: EllipticParams, word: Sequence[int]) -> int:
    """Flat index of a word of 1-based letters; site 1 most significant."""
    index = 0
    for letter in word:
        index = index * params.N + (letter - 1)
    return index


def index_word(params: EllipticParams, n: int, index: int) -> tuple[int, ...]:
    """Word of 1-based letters behind a flat index."""
    word = []
    for _ in range(n):
        index, digit = divmod(index, params.N)
        word.append(digit + 1)
    return tuple(reversed(word))


def apply_l_operator(
    params: EllipticParams,
    us: Sequence[complex],
    v: complex,
    dyn: DynamicalParameter,
    words: np.ndarray,
    state: np.ndarray,
    aux: int,
    first_site: int,
    extra_shift_sites: tuple[int, ...] = (),
    rmats: dict | None = None,
) -> np.ndarray:
    """Apply the L-operator gates of auxiliary site ``aux`` to a state.

    ``words`` and ``state`` are as for :func:`apply_rbar`, which also
    takes ``rmats``.  Module site j sits at ``first_site + j - 1``.  The
    gate touching it has spectral argument u_j - v and dynamical
    parameter shifted by the weights of module sites 1..j-1 and of
    ``extra_shift_sites``; the site-1 gate acts first, so as a matrix
    product the site-n factor is leftmost.
    """
    for j, u in enumerate(us):
        site = first_site + j
        shifts = extra_shift_sites + tuple(range(first_site, site))
        plan = gate_plan(params.N, words, (aux, site), shifts)
        state = apply_rbar(params, u - v, dyn, plan, state, rmats=rmats)
    return state


def l_operator_blocks(
    params: EllipticParams,
    us: Sequence[complex],
    v: complex,
    dyn: DynamicalParameter,
    sign: str = "+",
) -> dict[tuple[int, int], np.ndarray]:
    """Auxiliary-space blocks (i, j) of the L-operator matrix.

    The matrix acts on auxiliary site 1 times module sites 2..n+1 (see
    :func:`apply_l_operator`).  The minus sign evaluates the plus family
    at v - r, the elliptic-nome shift of the generating point.
    """
    if sign not in SIGNS:
        raise ValueError(f"unknown sign {sign!r}")
    us = tuple(complex(u) for u in us)
    if not us:
        raise ValueError("need at least one module site")
    v_eff = complex(v) if sign == "+" else complex(v) - params.r
    dim = module_dim(params, len(us))
    sites = len(us) + 1
    words = np.indices((params.N,) * sites).reshape(sites, -1).T + 1
    # The identity is passed unnamed, so it is freed after the first gate.
    full = apply_l_operator(
        params, us, v_eff, dyn, words, np.eye(len(words), dtype=complex), 1, 2
    )
    return {
        (i, j): full[(i - 1) * dim : i * dim, (j - 1) * dim : j * dim]
        for i in range(1, params.N + 1)
        for j in range(1, params.N + 1)
    }


class ResampleNeeded(RuntimeError):
    """An ill-conditioned pivot was hit; the caller should redraw samples."""


@dataclass(frozen=True)
class GaussComponents:
    """Blocks of the triangular-diagonal-triangular split of an operator.

    ``diag`` holds the diagonal blocks K_l, ``lower`` the strictly lower
    blocks E_(l,j) with j < l (unit diagonal implied), and ``upper`` the
    strictly upper blocks F_(j,l) with j < l.
    """

    diag: dict[int, np.ndarray]
    lower: dict[tuple[int, int], np.ndarray]
    upper: dict[tuple[int, int], np.ndarray]


def gauss_extract(
    blocks: Mapping[tuple[int, int], np.ndarray],
    cond_limit: float = _COND_LIMIT,
) -> GaussComponents:
    """Schur-complement split of a blocked matrix, peeling the last index.

    At each stage the current last diagonal block is the pivot: the
    lower factor collects pivot-inverse times the row blocks, the upper
    factor the column blocks times pivot-inverse, and the remaining
    square is Schur-updated.  Pivots with condition number beyond
    ``cond_limit`` raise :class:`ResampleNeeded`.
    """
    size = max(i for i, _ in blocks)
    work = {key: np.asarray(val, dtype=complex) for key, val in blocks.items()}
    diag: dict[int, np.ndarray] = {}
    lower: dict[tuple[int, int], np.ndarray] = {}
    upper: dict[tuple[int, int], np.ndarray] = {}
    for m in range(size, 1, -1):
        pivot = work[(m, m)]
        if np.linalg.cond(pivot) > cond_limit:
            raise ResampleNeeded(f"pivot block ({m},{m}) is ill conditioned")
        inv = np.linalg.inv(pivot)
        diag[m] = pivot
        for j in range(1, m):
            lower[(m, j)] = inv @ work[(m, j)]
            upper[(j, m)] = work[(j, m)] @ inv
        work = {
            (i, j): work[(i, j)] - work[(i, m)] @ inv @ work[(m, j)]
            for i in range(1, m)
            for j in range(1, m)
        }
    final = work[(1, 1)]
    if np.linalg.cond(final) > cond_limit:
        raise ResampleNeeded("final diagonal block is ill conditioned")
    diag[1] = final
    return GaussComponents(diag=diag, lower=lower, upper=upper)


def reassembly_defect(
    blocks: Mapping[tuple[int, int], np.ndarray],
    comps: GaussComponents,
) -> float:
    """Residual of rebuilding the blocked matrix from its Gauss factors.

    Block (i, j) must equal the sum over k >= max(i, j) of
    upper_(i,k) diag_k lower_(k,j), with unit diagonal factors.
    """
    size = max(i for i, _ in blocks)
    dim = blocks[(1, 1)].shape[0]
    eye = np.eye(dim, dtype=complex)
    defects = []
    for i in range(1, size + 1):
        for j in range(1, size + 1):
            acc = np.zeros((dim, dim), dtype=complex)
            for k in range(max(i, j), size + 1):
                left = eye if k == i else comps.upper[(i, k)]
                right = eye if k == j else comps.lower[(k, j)]
                acc += left @ comps.diag[k] @ right
            defects.append(relative_defect(acc, blocks[(i, j)]))
    return worst_residual(defects)


@cache
def exchange_plan(N: int, shape: tuple[int, ...], i: int) -> GatePlan:
    """Plan of the R factor of the exchange at position i on a shape class.

    The R matrix acts on sites i, i + 1, shifted by the letter counts of
    sites 1..i-1, over the words of the class in their listed order.
    The plan holds only integers, so it is built once per process.
    """
    words = np.array([part.word for part in partitions_with_shape(shape)])
    return gate_plan(N, words, (i, i + 1), range(1, i))


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
            plan = exchange_plan(params.N, shape, i)
            eye = np.eye(len(parts), dtype=complex)
            rmat = apply_rbar(params, key[1], dyn, plan, eye, rmats=rmats)
            gates[key] = rmat[plan.partner]
        swapped = at[: i - 1] + (at[i], at[i - 1]) + at[i + 1 :]
        return gates[key] @ row(part.swap_adjacent(i), swapped)

    us = tuple(complex(u) for u in us)
    out = np.array([row(part, us) for part in parts])
    row = None  # row refers to itself: unbind it so its memo is freed now
    return out


def gt_matrix(
    params: EllipticParams,
    n: int,
    us: Sequence[complex],
    dyn: DynamicalParameter,
    descent: str = "first",
) -> np.ndarray:
    """Full change-of-basis matrix: row k is the eigenvector of word k.

    Block diagonal by letter counts: one :func:`x_matrix_via_recursion`
    block per shape class, all sharing their R matrices.
    """
    dim = module_dim(params, n)
    out = np.zeros((dim, dim), dtype=complex)
    rmats: dict = {}
    for shape in compositions(n, params.N):
        flat = [word_index(params, p.word) for p in partitions_with_shape(shape)]
        out[np.ix_(flat, flat)] = x_matrix_via_recursion(
            params, shape, us, dyn, descent, rmats
        )
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
    sign: str = "+",
) -> np.ndarray:
    """One half-current in eigenbasis coordinates over the whole module."""
    n = len(us)
    dim = module_dim(params, n)
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        part = IndexPartition(index_word(params, n, col), params.N)
        coeffs = half_current_coefficients(
            params, kind, j, part, v, us, dyn, sign
        )
        for word, coeff in coeffs.items():
            out[word_index(params, word), col] += coeff
    return out


def _diag_inverse(mat: np.ndarray) -> np.ndarray:
    """Inverse of a diagonal operator matrix, guarding small eigenvalues."""
    diag = np.diag(mat)
    off = mat - np.diag(diag)
    if np.max(np.abs(off)) > 0.0:
        raise ValueError("matrix is not diagonal")
    if np.min(np.abs(diag)) < DENOM_FLOOR:
        raise ValueError("diagonal operator is numerically singular")
    return np.diag(1.0 / diag)


def _shape_diagonal(params, n, scalar_of_shape) -> np.ndarray:
    """Diagonal matrix whose entry at each word depends on its block sizes."""
    dim = module_dim(params, n)
    values = [
        scalar_of_shape(
            IndexPartition(index_word(params, n, k), params.N).shape
        )
        for k in range(dim)
    ]
    return np.diag(np.array(values, dtype=complex))


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
    exercised.  Dynamical scalars carrying the weight operator read
    the vector present at their own position in the operator product;
    realized on source-shape diagonals this costs an offset of -2 per
    lowering factor standing to their right.  All other scalars are
    constants.
    """
    us = tuple(complex(u) for u in us)
    n = len(us)
    v1, v2 = complex(v1), complex(v2)
    v12 = v1 - v2
    built: dict = {}

    def half(kind: str, j: int, v: complex, d: DynamicalParameter) -> np.ndarray:
        # Each distinct half-current is built once; no caller writes it.
        key = (kind, j, v, d.values)
        if key not in built:
            built[key] = half_current_matrix(params, kind, j, v, us, d)
        return built[key]

    def e_mat(j: int, v: complex, d: DynamicalParameter) -> np.ndarray:
        return half("E", j, v, d)

    def f_mat(j: int, v: complex, d: DynamicalParameter) -> np.ndarray:
        return half("F", j, v, d)

    def k_mat(l: int, v: complex) -> np.ndarray:
        return half("K", l, v, dyn)

    # 1 / entry_b_bar(+-v12), guarded at the pole v1 = v2.
    inv_b_m = bracket_ratio(params, -v12 + 1, -v12)
    inv_b_p = bracket_ratio(params, v12 + 1, v12)
    defects: dict[str, list[float]] = {name: [] for name in RELATION_NAMES}
    for j in range(1, params.N):
        s = dyn.pair(j, j + 1)
        d_up = dyn.shifted_unit(j + 1)
        d_dn = dyn.shifted_unit(j)
        k_next_1 = k_mat(j + 1, v1)
        k_next_1_inv = _diag_inverse(k_next_1)

        lhs = k_next_1_inv @ e_mat(j, v2, dyn) @ k_next_1
        rhs = e_mat(j, v2, d_up) * inv_b_m - e_mat(j, v1, d_up) * (
            entry_c(params, -v12, s) * inv_b_m
        )
        defects["kek"].append(_columnwise_defect(lhs, rhs))

        lhs = k_next_1 @ f_mat(j, v2, d_up) @ k_next_1_inv
        cbar_diag = _shape_diagonal(
            params,
            n,
            lambda shape: entry_c_bar(
                params, -v12, s + shape[j - 1] - shape[j] - 2
            )
            * inv_b_m,
        )
        rhs = f_mat(j, v2, dyn) * inv_b_m - f_mat(j, v1, dyn) @ cbar_diag
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

        def ff_diag(v_arg: complex) -> np.ndarray:
            scale = bracket_ratio(params, v_arg + 1, v_arg)
            return _shape_diagonal(
                params,
                n,
                lambda shape: entry_c_bar(
                    params, v_arg, s + shape[j - 1] - shape[j] - 2
                )
                * scale,
            )

        lhs = f1 @ f2 * inv_b_m - f1 @ f1 @ ff_diag(-v12)
        rhs = f2 @ f1 * inv_b_p - f2 @ f2 @ ff_diag(v12)
        defects["ff"].append(_columnwise_defect(lhs, rhs))

        lhs = e_mat(j, v1, dyn) @ f_mat(j, v2, d_dn) - f_mat(
            j, v2, d_up
        ) @ e_mat(j, v1, dyn)
        ratio_2 = k_mat(j, v2) @ _diag_inverse(k_mat(j + 1, v2))
        ratio_1 = _diag_inverse(k_mat(j + 1, v1)) @ k_mat(j, v1)
        cbar_shape = _shape_diagonal(
            params,
            n,
            lambda shape: entry_c_bar(
                params, -v12, s + shape[j - 1] - shape[j]
            )
            * inv_b_m,
        )
        rhs = ratio_2 * (entry_c_bar(params, -v12, s) * inv_b_m) - (
            ratio_1 @ cbar_shape
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

    with the closed-form matrix always evaluated at the base point.
    Eigenvector columns are rescaled to unit max-norm before solving;
    the closed-form side is rescaled by the same diagonal factors, so
    the comparison is unchanged while the solve stays well conditioned
    on larger modules.
    """
    us = tuple(complex(u) for u in us)
    n = len(us)
    xt_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def xt(shift: int) -> tuple[np.ndarray, np.ndarray]:
        if shift not in xt_cache:
            shifted = dyn if shift == 0 else dyn.shifted_unit(shift)
            raw = gt_matrix(params, n, us, shifted).T
            scales = 1.0 / np.max(np.abs(raw), axis=0)
            xt_cache[shift] = (raw * scales[np.newaxis, :], scales)
        return xt_cache[shift]

    comps = gauss_extract(l_operator_blocks(params, us, v, dyn, sign))

    def block_defect(
        mat: np.ndarray,
        theory: np.ndarray,
        shift_in: int,
        shift_out: int,
    ) -> float:
        basis_in, scale_in = xt(shift_in)
        basis_out, scale_out = xt(shift_out)
        got = np.linalg.solve(basis_out, mat @ basis_in)
        rescaled = theory * scale_in[np.newaxis, :] / scale_out[:, np.newaxis]
        return relative_defect(got, rescaled)

    report: dict[str, float] = {}
    for l in range(1, params.N + 1):
        theory = half_current_matrix(params, "K", l, v, us, dyn, sign)
        report[f"K{l}"] = block_defect(comps.diag[l], theory, l, 0)
    for j in range(1, params.N):
        theory = half_current_matrix(params, "E", j, v, us, dyn, sign)
        report[f"E{j + 1}{j}"] = block_defect(
            comps.lower[(j + 1, j)], theory, j, j + 1
        )
        theory = half_current_matrix(params, "F", j, v, us, dyn, sign)
        report[f"F{j}{j + 1}"] = block_defect(
            comps.upper[(j, j + 1)], theory, 0, 0
        )
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
    the identity of one weight sector at a time, sharing their R
    matrices, and the defect is folded across sectors: it is
    ``relative_defect`` of the whole matrices, which are exactly 0
    between different sectors.
    """
    us = tuple(complex(u) for u in us)
    n = len(us)
    mod_sites = tuple(range(3, n + 3))
    u12 = complex(v2) - complex(v1)
    rmats: dict = {}
    diffs, scales = [], [1.0]
    for shape in compositions(n + 2, params.N):
        words = np.array([part.word for part in partitions_with_shape(shape)])
        eye = np.eye(len(words), dtype=complex)
        lhs = apply_l_operator(params, us, v2, dyn, words, eye, 2, 3, (1,), rmats)
        lhs = apply_l_operator(params, us, v1, dyn, words, lhs, 1, 3, (), rmats)
        dressed = gate_plan(params.N, words, (1, 2), mod_sites)
        lhs = apply_rbar(params, u12, dyn, dressed, lhs, rmats=rmats)
        plain = gate_plan(params.N, words, (1, 2))
        rhs = apply_rbar(params, u12, dyn, plain, eye, rmats=rmats)
        rhs = apply_l_operator(params, us, v1, dyn, words, rhs, 1, 3, (2,), rmats)
        rhs = apply_l_operator(params, us, v2, dyn, words, rhs, 2, 3, (), rmats)
        diffs.append(np.max(np.abs(lhs - rhs)))
        scales += [float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs)))]
    # np.max keeps a NaN difference, which a plain max fold would drop.
    return float(np.max(diffs)) / max(scales)


def _k_block_at(
    params: EllipticParams,
    l: int,
    us: tuple[complex, ...],
    v: complex,
    dyn: DynamicalParameter,
    cache: dict,
) -> np.ndarray:
    key = (l, complex(v), dyn.values)
    if key not in cache:
        comps = gauss_extract(l_operator_blocks(params, us, v, dyn))
        for label, block in comps.diag.items():
            cache[(label, complex(v), dyn.values)] = block
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
    dim = module_dim(params, len(us))
    acc = np.eye(dim, dtype=complex)
    weight = [0.0] * params.N
    cache: dict = {}
    for l in range(1, params.N + 1):
        dyn_l = dyn.shifted(weight)
        acc = acc @ _k_block_at(params, l, us, complex(v) + (l - 1), dyn_l, cache)
        weight[l - 1] += 1.0
    scalar = complex(np.trace(acc) / dim)
    defect = relative_defect(acc, scalar * np.eye(dim, dtype=complex))
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
            lhs = _k_block_at(params, l, us, v1, dyn, cache) @ _k_block_at(
                params, m, us, v2, dyn.shifted_unit(l), cache
            )
            rhs = _k_block_at(params, m, us, v2, dyn, cache) @ _k_block_at(
                params, l, us, v1, dyn.shifted_unit(m), cache
            )
            defects.append(relative_defect(lhs, rhs))
    return worst_residual(defects)
