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
ordered product.  The closed actions of one point are gathered per
sector from tables evaluated once per point (:class:`HalfCurrentTable`):
E_j and F_j move one sector to a neighbouring one, so the relations are
composed one source sector at a time, like every other check here.

Conventions.  Operators are plain complex matrices acting on column
vectors.  Spectral variables are additive: the module carries u_1..u_n
and operator families a variable v, the additive counterparts of
z_i = q^{2u_i} and w = q^{2v}; every operator family is evaluated at the
point 1/w.  Products of operator matrices are plain matrix products of
factors built at their stated dynamical arguments; charge bookkeeping,
where it matters, appears as explicit unit shifts of those arguments.
Only the "+" half-currents are built: the paper's "-" family differs
from them as formal series, but as numbers it is the "+" family at
v - r, the p-shift of w.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .partitions import IndexPartition, compositions, partitions_with_shape
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
    EllipticParams,
    bracket,
    bracket_denominator,
    bracket_ratio,
    bracket_ratio_plus,
    guarded_ratio,
)
from .weights import fixed_point_row

_COND_LIMIT = 1e10

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
) -> dict[Sector, dict[tuple[int, int], np.ndarray]]:
    """Auxiliary-space blocks (i, j) of the L-operator, sector by sector.

    The matrix acts on auxiliary site 1 times module sites 2..n+1 (see
    :func:`apply_l_operator`) and keeps the letter counts c of their
    words.  In word order the rows of auxiliary letter i are contiguous
    and their module words are the sector c - e_i, so sector c holds,
    for the labels with c_i, c_j > 0, the block (i, j) from module
    sector c - e_j to c - e_i.  The paper's "-" blocks are these at
    v - r, the elliptic-nome shift of the generating point.
    """
    us, v = tuple(complex(u) for u in us), complex(v)
    if not us:
        raise ValueError("need at least one module site")
    rmats: dict = {}
    out = {}
    for sector in compositions(len(us) + 1, params.N):
        words = _sector_words(sector)
        eye = np.eye(len(words), dtype=complex)
        full = apply_l_operator(params, us, v, dyn, sector, eye, 1, 2, rmats=rmats)
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
    rmats: dict | None = None,
) -> np.ndarray:
    """Sector change-of-basis matrix from the exchange recursion.

    Rows and columns run over the partitions of the shape class in word
    order; entry (i, j) is the coefficient of word j's standard vector
    in the eigenvector of partition i.  The weakly decreasing word is
    its own standard vector; any other eigenvector is the exchange gate
    at its first ascent applied to its parent, the swapped word at the
    swapped spectral tuple.  Each eigenvector and each gate (position,
    spectral argument) is built once, and calls sharing ``rmats`` share
    their R matrices.
    """
    shape = tuple(shape)
    parts = partitions_with_shape(shape)
    rmats = {} if rmats is None else rmats
    gates: dict = {}

    @cache
    def row(part: IndexPartition, at: tuple[complex, ...]) -> np.ndarray:
        if part.is_weakly_decreasing():
            return np.eye(len(parts), dtype=complex)[parts.index(part)]
        i = part.first_ascent()
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


def _image(kind: str, j: int, sector: Sector) -> Sector | None:
    """Sector K_j, E_j (a letter j+1 to j) or F_j (j to j+1) maps to, or None."""
    if kind == "K":
        return sector
    step = 1 if kind == "F" else -1
    out = sector[: j - 1] + (sector[j - 1] - step, sector[j] + step) + sector[j + 1 :]
    return out if min(out) >= 0 else None


def tail_ratios(params: EllipticParams, us: Sequence[complex]) -> np.ndarray:
    """T[i, k] = [u_i - u_k + 1]/[u_i - u_k], 1 on the diagonal; raises at poles."""
    diff = np.subtract.outer(us, us).astype(complex)
    off = ~np.eye(len(us), dtype=bool)
    ratios = np.ones(diff.shape, dtype=complex)
    ratios[off] = [bracket_ratio(params, d + 1, d) for d in diff[off].tolist()]
    return ratios


def tail_products(
    ratios: np.ndarray, words: np.ndarray, letter: int, lowering: bool = False
) -> np.ndarray:
    """Tails of the raising (lowering) action: entry (w, i) is the product
    of T[i, k] (T[k, i]) over the positions k != i of word w that carry
    ``letter``, for the table T of :func:`tail_ratios`."""
    table = ratios.T if lowering else ratios
    carries = (words == letter)[:, np.newaxis, :]
    return np.where(carries, table, 1.0).prod(axis=2)


class HalfCurrentTable:
    """Closed half-current actions at the point (``us``, ``v``).

    The diagonal factors, the tail table and the head vector of each
    distinct dynamical scalar are evaluated once (ValueError at a pole);
    a sector's block is a gather over its words.  Every entry is r-periodic
    in v, so the paper's "-" expansion is this table at v - r.
    """

    def __init__(
        self, params: EllipticParams, us: Sequence[complex], v: complex
    ) -> None:
        self.params = params
        self.us, self.v = tuple(complex(u) for u in us), complex(v)
        xs = [u - self.v for u in self.us]
        self._below = np.array([bracket_ratio(params, x, x + 1) for x in xs])
        self._above = np.array([bracket_ratio(params, x - 1, x) for x in xs])
        self._tails = tail_ratios(params, self.us)
        self._heads: dict = {}
        self._blocks: dict = {}

    def _head(self, kind: str, s: complex) -> np.ndarray:
        """-[1][s + x_i]/([s][x_i]) at x_i = v - u_i (E), [1][s - 1 + x_i]/
        ([s - 1][x_i]) at x_i = u_i - v (F), in the "+" expansion form."""
        if (kind, s) not in self._heads:
            params = self.params
            if kind == "E":
                scale, xs = -bracket(params, 1.0), [self.v - u for u in self.us]
            else:
                scale, xs = bracket(params, 1.0), [u - self.v for u in self.us]
            arg = s if kind == "E" else s - 1
            for x in (arg, *xs):
                bracket_denominator(params, x)
            self._heads[kind, s] = np.array(
                [scale * bracket_ratio_plus(params, arg, x) for x in xs]
            )
        return self._heads[kind, s]

    def block(
        self, kind: str, j: int, dyn: DynamicalParameter, sector: Sector
    ) -> np.ndarray:
        """K_j, E_j or F_j from ``sector`` to its :func:`_image`, read-only.

        K_j is [x_i]/[x_i + 1] over the letters below j times
        [x_i - 1]/[x_i] over those above, x_i = u_i - v.
        E_j and F_j put head times tail of each moved position i in the
        row of the moved word; F_j's s adds c_j - c_(j+1) of the sector c.
        """
        key = (kind, j, dyn.values, sector)
        if key not in self._blocks:
            words = _sector_words(sector)
            if kind == "K":
                below, above = words < j, words > j
                entries = np.where(below, self._below, np.where(above, self._above, 1))
                out = np.diag(entries.prod(axis=1))
            else:
                src, dst = (j + 1, j) if kind == "E" else (j, j + 1)
                s = dyn.pair(j, j + 1)
                if kind == "F":
                    s = s + sector[j - 1] - sector[j]
                cols, pos = np.nonzero(words == src)
                moved = words[cols]
                moved[np.arange(len(cols)), pos] = dst
                image = _sector_words(_image(kind, j, sector))
                # Words as base-N numbers increase along the image's words.
                base = len(sector) ** np.arange(words.shape[1] - 1, -1, -1)
                rows = np.searchsorted((image - 1) @ base, (moved - 1) @ base)
                tails = tail_products(self._tails, words, src, kind == "F")
                out = np.zeros((len(image), len(words)), dtype=complex)
                out[rows, cols] = self._head(kind, s)[pos] * tails[cols, pos]
            out.setflags(write=False)
            self._blocks[key] = out
        return self._blocks[key]


def half_current_coefficients(
    params: EllipticParams,
    kind: str,
    j: int,
    part: IndexPartition,
    v: complex,
    us: Sequence[complex],
    dyn: DynamicalParameter,
) -> dict[tuple[int, ...], complex]:
    """Closed-form action of one half-current on one eigenbasis vector.

    Returns coefficients over eigenbasis words.  kind "K" with j in
    [1, N] is diagonal; kind "E" with j in [1, N-1] moves one position
    from block j + 1 to block j; kind "F" moves one position from block
    j to block j + 1.  The block sizes of ``part`` enter the dynamical
    scalar of the F action.  The coefficients are the column of ``part``
    in its sector's block of the :class:`HalfCurrentTable`.
    """
    if kind not in ("K", "E", "F"):
        raise ValueError(f"unknown half-current kind {kind!r}")
    if not 1 <= j <= (params.N if kind == "K" else params.N - 1):
        raise ValueError(f"{kind} label {j} out of range")
    image = _image(kind, j, part.shape)
    if image is None:
        return {}
    col = _sector_words(part.shape).tolist().index(list(part.word))
    column = HalfCurrentTable(params, us, v).block(kind, j, dyn, part.shape)[:, col]
    words = _sector_words(image)
    return {tuple(words[r].tolist()): complex(column[r]) for r in column.nonzero()[0]}


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

    Each relation is an identity of eigenbasis-coordinate operators, for
    every adjacent label, and the worst per-column defect is reported, so
    every eigenvector is exercised.  Both sides are composed one source
    sector at a time from the blocks of :class:`HalfCurrentTable`; a
    sector where a side's first factor acts as 0 (both sides 0 but the
    diagonal right side of effe) is skipped.  Diagonal operators are
    vectors of their entries, applied by broadcasting.  Dynamical scalars
    carrying the weight operator read the vector present at their own
    position in the operator product; realized on source shapes this
    costs an offset of -2 per lowering factor standing to their right.
    All other scalars are constants.
    """
    v1, v2 = complex(v1), complex(v2)
    v12 = v1 - v2
    # 1 / entry_b_bar(+-v12), guarded at the pole v1 = v2.
    inv_b_m = bracket_ratio(params, -v12 + 1, -v12)
    inv_b_p = bracket_ratio(params, v12 + 1, v12)
    tables = {v: HalfCurrentTable(params, us, v) for v in (v1, v2)}

    def op(kind: str, v: complex, c: Sector, d: DynamicalParameter = dyn):
        return tables[v].block(kind, j, d, c)

    def k(l: int, v: complex, c: Sector) -> np.ndarray:
        return tables[v].block("K", l, dyn, c).diagonal()

    def k_inv(l: int, v: complex, c: Sector) -> np.ndarray:
        inverse = guarded_ratio(1.0, k(l, v, c))
        if np.isnan(inverse).any():
            raise ValueError("diagonal operator is numerically singular")
        return inverse

    defects: dict[str, list[float]] = {name: [] for name in RELATION_NAMES}
    for j in range(1, params.N):
        s = dyn.pair(j, j + 1)
        d_up, d_dn = dyn.shifted_unit(j + 1), dyn.shifted_unit(j)
        c_m = entry_c(params, -v12, s) * inv_b_m
        c_p = entry_c(params, v12, s) * inv_b_p
        for c in compositions(len(us), params.N):
            up, down = _image("E", j, c), _image("F", j, c)
            # The scalars that read the source shape.
            cbar_m, cbar_p, cbar_0 = (
                entry_c_bar(params, a, s + c[j - 1] - c[j] + offset)
                for a, offset in ((-v12, -2), (v12, -2), (-v12, 0))
            )
            if up:
                lhs = k_inv(j + 1, v1, up)[:, np.newaxis] * op("E", v2, c)
                rhs = op("E", v2, c, d_up) * inv_b_m - op("E", v1, c, d_up) * c_m
                defects["kek"].append(_columnwise_defect(lhs * k(j + 1, v1, c), rhs))
            if down:
                lhs = k(j + 1, v1, down)[:, np.newaxis] * op("F", v2, c, d_up)
                lhs = lhs * k_inv(j + 1, v1, c)
                rhs = op("F", v2, c) * inv_b_m - op("F", v1, c) * (cbar_m * inv_b_m)
                defects["kfk"].append(_columnwise_defect(lhs, rhs))
            if up and _image("E", j, up):
                e1_up, e2_up = op("E", v1, up, d_up), op("E", v2, up, d_up)
                e1_dn, e2_dn = op("E", v1, c, d_dn), op("E", v2, c, d_dn)
                lhs = e1_up @ e2_dn * inv_b_p - e2_up @ e2_dn * c_p
                rhs = e2_up @ e1_dn * inv_b_m - e1_up @ e1_dn * c_m
                defects["ee"].append(_columnwise_defect(lhs, rhs))
            if down and _image("F", j, down):
                f1, f2 = op("F", v1, c), op("F", v2, c)
                f1_dn, f2_dn = op("F", v1, down), op("F", v2, down)
                lhs = f1_dn @ f2 * inv_b_m - f1_dn @ f1 * (cbar_m * inv_b_m)
                rhs = f2_dn @ f1 * inv_b_p - f2_dn @ f2 * (cbar_p * inv_b_p)
                defects["ff"].append(_columnwise_defect(lhs, rhs))
            lhs = np.zeros((len(_sector_words(c)),) * 2, dtype=complex)
            if down:
                lhs = lhs + op("E", v1, down) @ op("F", v2, c, d_dn)
            if up:
                lhs = lhs - op("F", v2, up, d_up) @ op("E", v1, c)
            ratio_2 = k(j, v2, c) * k_inv(j + 1, v2, c)
            ratio_1 = k_inv(j + 1, v1, c) * k(j, v1, c)
            rhs = ratio_2 * (entry_c_bar(params, -v12, s) * inv_b_m)
            rhs = np.diag(rhs - ratio_1 * (cbar_0 * inv_b_m))
            defects["effe"].append(_columnwise_defect(lhs, rhs))
    return {name: worst_residual(values) for name, values in defects.items()}


def halfcurrent_oracle_defect(
    params: EllipticParams,
    us: Sequence[complex],
    v: complex,
    dyn: DynamicalParameter,
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
    table = HalfCurrentTable(params, us, v)

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
            theory = table.block(kind, label, dyn, cols)
            basis_in, scale_in = xt(shift_in)[cols]
            basis_out, scale_out = xt(shift_out)[rows]
            got = np.linalg.solve(basis_out, mat @ basis_in)
            rescaled = theory * scale_in[np.newaxis, :] / scale_out[:, np.newaxis]
            pairs.append((got, rescaled))
        return _sector_defect(pairs)

    comps = gauss_extract(l_operator_blocks(params, us, v, dyn))
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
