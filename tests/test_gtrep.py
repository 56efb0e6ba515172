"""Tests for the tensor-module L-operator and its eigenbasis action."""

import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest

import ellgt.gtrep
import ellgt.rmatrix
from ellgt.gtrep import (
    _COND_LIMIT,
    RELATION_NAMES,
    _columnwise_defect,
    _image,
    _module_sector,
    HalfCurrentTable,
    ResampleNeeded,
    check_center,
    gauss_extract,
    gt_commutativity_defect,
    half_current_coefficients,
    halfcurrent_oracle_defect,
    l_operator_blocks,
    reassembly_defect,
    sector_plan,
    verify_halfcurrent_relations,
    verify_rll,
    x_matrix_via_recursion,
    x_matrix_via_weights,
)
from ellgt.partitions import (
    IndexPartition,
    all_partitions,
    compositions,
    partitions_with_shape,
)
from ellgt.rmatrix import (
    DynamicalParameter,
    apply_rbar,
    entry_b,
    entry_b_bar,
    entry_c,
    entry_c_bar,
    gate_plan,
    random_dynamical,
    random_spectral,
    relative_defect,
)
from ellgt.theta import (
    EllipticParams,
    bracket,
    bracket_denominator,
    bracket_ratio,
    bracket_ratio_plus,
)
from ellgt.verify import negated_exchange_entry

PAR2 = EllipticParams(q=0.5, r=3.0, N=2)
PAR3 = EllipticParams(q=0.5, r=3.0, N=3)
DYN2 = DynamicalParameter((0.77, 0.13))
DYN3 = DynamicalParameter((0.77, 0.13, 0.41))
US2 = (0.21, -0.34)
US3 = (0.21, -0.34, 0.52)
US5 = (0.21, -0.34, 0.52, -0.11, 0.38)
V_A = 0.93
V_B = -0.57


def _swapped(us, i):
    us = list(us)
    us[i - 1], us[i] = us[i], us[i - 1]
    return tuple(us)


# Dense references on the whole module.  A word's flat index reads its
# letters as base-N digits, site 1 most significant, which is the
# word-lexicographic order of all_partitions.


def all_words(params, n):
    """Every word of n letters, in flat-index order."""
    return np.indices((params.N,) * n).reshape(n, -1).T + 1


def flat_index(params, word):
    index = 0
    for letter in word:
        index = index * params.N + (letter - 1)
    return index


def gt_matrix(params, n, us, dyn):
    """Change of basis on the whole module: row k is the eigenvector of
    word k, one recursion block per shape class, sharing R matrices."""
    dim = params.N**n
    out = np.zeros((dim, dim), dtype=complex)
    rmats = {}
    for shape in compositions(n, params.N):
        flat = [flat_index(params, p.word) for p in partitions_with_shape(shape)]
        out[np.ix_(flat, flat)] = x_matrix_via_recursion(
            params, shape, us, dyn, rmats=rmats
        )
    return out


def dense_apply_l_operator(
    params, us, v, dyn, words, state, aux, first_site, extra_shift_sites=()
):
    """The L-operator gates over an explicit word list (all of them)."""
    for j, u in enumerate(us):
        site = first_site + j
        shifts = extra_shift_sites + tuple(range(first_site, site))
        plan = gate_plan(params.N, words, (aux, site), shifts)
        state = apply_rbar(params, u - v, dyn, plan, state)
    return state


def dense_l_operator_blocks(params, us, v, dyn):
    """Auxiliary blocks (i, j) of the L-operator, each N^n x N^n."""
    dim = params.N ** len(us)
    words = all_words(params, len(us) + 1)
    eye = np.eye(len(words), dtype=complex)
    full = dense_apply_l_operator(params, us, complex(v), dyn, words, eye, 1, 2)
    return {
        (i, j): full[(i - 1) * dim : i * dim, (j - 1) * dim : j * dim]
        for i in range(1, params.N + 1)
        for j in range(1, params.N + 1)
    }


def dense_gauss_extract(blocks):
    """(diag, lower, upper) of the dense split, gated by np.linalg.cond."""
    size = max(i for i, _ in blocks)
    work = dict(blocks)
    diag, lower, upper = {}, {}, {}
    for m in range(size, 0, -1):
        pivot = work[(m, m)]
        if np.linalg.cond(pivot) > _COND_LIMIT:
            raise ResampleNeeded(f"pivot block ({m},{m}) is ill conditioned")
        diag[m] = pivot
        if m == 1:
            break
        inv = np.linalg.inv(pivot)
        for j in range(1, m):
            lower[(m, j)] = inv @ work[(m, j)]
            upper[(j, m)] = work[(j, m)] @ inv
        work = {
            (i, j): work[(i, j)] - work[(i, m)] @ inv @ work[(m, j)]
            for i in range(1, m)
            for j in range(1, m)
        }
    return diag, lower, upper


def dense_reassembly_defect(blocks, comps):
    diag, lower, upper = comps
    size = max(i for i, _ in blocks)
    eye = np.eye(blocks[(1, 1)].shape[0], dtype=complex)
    defects = []
    for i in range(1, size + 1):
        for j in range(1, size + 1):
            acc = sum(
                (eye if k == i else upper[(i, k)])
                @ diag[k]
                @ (eye if k == j else lower[(k, j)])
                for k in range(max(i, j), size + 1)
            )
            defects.append(relative_defect(acc, blocks[(i, j)]))
    return max(defects)


def dense_k(params, l, us, v, dyn):
    return dense_gauss_extract(dense_l_operator_blocks(params, us, v, dyn))[0][l]


def dense_check_center(params, us, v, dyn):
    dim = params.N ** len(us)
    acc = np.eye(dim, dtype=complex)
    weight = [0.0] * params.N
    for l in range(1, params.N + 1):
        acc = acc @ dense_k(params, l, us, v + (l - 1), dyn.shifted(weight))
        weight[l - 1] += 1.0
    scalar = np.trace(acc) / dim
    return scalar, relative_defect(acc, scalar * np.eye(dim))


def dense_commutativity_defect(params, us, v1, v2, dyn):
    return max(
        relative_defect(
            dense_k(params, l, us, v1, dyn)
            @ dense_k(params, m, us, v2, dyn.shifted_unit(l)),
            dense_k(params, m, us, v2, dyn)
            @ dense_k(params, l, us, v1, dyn.shifted_unit(m)),
        )
        for l in range(1, params.N + 1)
        for m in range(l + 1, params.N + 1)
    )


def dense_oracle_defect(params, us, v, dyn):
    n = len(us)
    parts = list(all_partitions(n, params.N))

    def xt(shift):
        shifted = dyn if shift == 0 else dyn.shifted_unit(shift)
        raw = gt_matrix(params, n, us, shifted).T
        scales = 1.0 / np.max(np.abs(raw), axis=0)
        return raw * scales[np.newaxis, :], scales

    def block_defect(mat, kind, j, shift_in, shift_out):
        theory = reference_half_current_matrix(
            params, kind, j, v, us, dyn, parts, parts
        )
        basis_in, scale_in = xt(shift_in)
        basis_out, scale_out = xt(shift_out)
        got = np.linalg.solve(basis_out, mat @ basis_in)
        rescaled = theory * scale_in[np.newaxis, :] / scale_out[:, np.newaxis]
        return relative_defect(got, rescaled)

    diag, lower, upper = dense_gauss_extract(
        dense_l_operator_blocks(params, us, v, dyn)
    )
    report = {}
    for l in range(1, params.N + 1):
        report[f"K{l}"] = block_defect(diag[l], "K", l, l, 0)
    for j in range(1, params.N):
        report[f"E{j + 1}{j}"] = block_defect(lower[(j + 1, j)], "E", j, j, j + 1)
        report[f"F{j}{j + 1}"] = block_defect(upper[(j, j + 1)], "F", j, 0, 0)
    return report


# Per-partition references of the closed half-current actions: each
# coefficient is evaluated on its own, and a relation is composed from
# whole-module matrices.


def reference_plus_ratio(params, s, x):
    """[s+x]/([s][x]) in its "+" expansion form, guarded at poles."""
    bracket_denominator(params, s)
    bracket_denominator(params, x)
    return bracket_ratio_plus(params, s, x)


def reference_coefficients(params, kind, j, part, v, us, dyn):
    """One half-current on one eigenbasis vector, bracket by bracket."""
    us = tuple(complex(u) for u in us)
    v = complex(v)
    if kind == "K":
        coeff = 1.0 + 0.0j
        for k in range(1, j):
            for a in part.blocks[k - 1]:
                x = us[a - 1] - v
                coeff *= bracket_ratio(params, x, x + 1)
        for l in range(j + 1, params.N + 1):
            for b in part.blocks[l - 1]:
                x = us[b - 1] - v
                coeff *= bracket_ratio(params, x - 1, x)
        return {part.word: coeff}
    out = {}
    if kind == "E":
        s = dyn.pair(j, j + 1)
        for i in part.blocks[j]:
            head = -bracket(params, 1.0) * reference_plus_ratio(
                params, s, v - us[i - 1]
            )
            tail = 1.0 + 0.0j
            for k in part.blocks[j]:
                if k != i:
                    diff = us[i - 1] - us[k - 1]
                    tail *= bracket_ratio(params, diff + 1, diff)
            out[part.move_up(i).word] = head * tail
        return out
    s = dyn.pair(j, j + 1) + part.shape[j - 1] - part.shape[j]
    for i in part.blocks[j - 1]:
        head = bracket(params, 1.0) * reference_plus_ratio(
            params, s - 1, us[i - 1] - v
        )
        tail = 1.0 + 0.0j
        for k in part.blocks[j - 1]:
            if k != i:
                diff = us[k - 1] - us[i - 1]
                tail *= bracket_ratio(params, diff + 1, diff)
        out[part.move_down(i).word] = head * tail
    return out


def reference_half_current_matrix(params, kind, j, v, us, dyn, cols, rows):
    """One half-current from the partitions ``cols`` to ``rows``."""
    at = {part.word: k for k, part in enumerate(rows)}
    out = np.zeros((len(rows), len(cols)), dtype=complex)
    for col, part in enumerate(cols):
        coeffs = reference_coefficients(params, kind, j, part, v, us, dyn)
        for word, coeff in coeffs.items():
            out[at[word], col] += coeff
    return out


def reference_operators(params, us, dyn):
    """Whole-module E, F and K entries from the per-partition reference."""
    parts = list(all_partitions(len(us), params.N))

    def half(kind, j, v, d):
        return reference_half_current_matrix(params, kind, j, v, us, d, parts, parts)

    def k_vec(l, v):
        return np.array(
            [
                reference_coefficients(params, "K", l, p, v, us, dyn)[p.word]
                for p in parts
            ]
        )

    return half, k_vec


def scattered_operators(params, us, dyn):
    """Whole-module E, F and K entries placed from the sector blocks."""
    n = len(us)
    dim = params.N**n
    tables = {}

    def table(v):
        return tables.setdefault(v, HalfCurrentTable(params, us, v))

    def half(kind, j, v, d):
        out = np.zeros((dim, dim), dtype=complex)
        for sector in compositions(n, params.N):
            image = _image(kind, j, sector)
            if image is not None:
                rows, cols = (
                    [flat_index(params, p.word) for p in partitions_with_shape(x)]
                    for x in (image, sector)
                )
                out[np.ix_(rows, cols)] = table(v).block(kind, j, d, sector)
        return out

    def k_vec(l, v):
        out = np.zeros(dim, dtype=complex)
        for sector in compositions(n, params.N):
            flat = [flat_index(params, p.word) for p in partitions_with_shape(sector)]
            out[flat] = table(v).block("K", l, dyn, sector).diagonal()
        return out

    return half, k_vec


def reference_relations(params, us, dyn, v1, v2, operators=reference_operators):
    """The five adjacent relations as whole-module matrix identities.

    ``operators`` gives the whole-module E and F matrices and the K
    entries; diagonal operators are applied by broadcasting.
    """
    us = tuple(complex(u) for u in us)
    v1, v2 = complex(v1), complex(v2)
    v12 = v1 - v2
    half, k_vec = operators(params, us, dyn)

    def cbar(v_arg, s, offset):
        return np.array(
            [
                entry_c_bar(params, v_arg, s + p.shape[j - 1] - p.shape[j] + offset)
                for p in all_partitions(len(us), params.N)
            ]
        )

    inv_b_m = bracket_ratio(params, -v12 + 1, -v12)
    inv_b_p = bracket_ratio(params, v12 + 1, v12)
    defects = {name: [] for name in RELATION_NAMES}
    for j in range(1, params.N):
        s = dyn.pair(j, j + 1)
        d_up, d_dn = dyn.shifted_unit(j + 1), dyn.shifted_unit(j)
        k1, k1_inv = k_vec(j + 1, v1), 1.0 / k_vec(j + 1, v1)
        lhs = k1_inv[:, np.newaxis] * half("E", j, v2, dyn) * k1
        rhs = half("E", j, v2, d_up) * inv_b_m - half("E", j, v1, d_up) * (
            entry_c(params, -v12, s) * inv_b_m
        )
        defects["kek"].append(_columnwise_defect(lhs, rhs))
        lhs = k1[:, np.newaxis] * half("F", j, v2, d_up) * k1_inv
        rhs = half("F", j, v2, dyn) * inv_b_m - half("F", j, v1, dyn) * (
            cbar(-v12, s, -2) * inv_b_m
        )
        defects["kfk"].append(_columnwise_defect(lhs, rhs))
        e1_up, e2_up = half("E", j, v1, d_up), half("E", j, v2, d_up)
        e1_dn, e2_dn = half("E", j, v1, d_dn), half("E", j, v2, d_dn)
        c_p = entry_c(params, v12, s) * inv_b_p
        c_m = entry_c(params, -v12, s) * inv_b_m
        lhs = e1_up @ e2_dn * inv_b_p - e2_up @ e2_dn * c_p
        rhs = e2_up @ e1_dn * inv_b_m - e1_up @ e1_dn * c_m
        defects["ee"].append(_columnwise_defect(lhs, rhs))
        f1, f2 = half("F", j, v1, dyn), half("F", j, v2, dyn)
        lhs = f1 @ f2 * inv_b_m - f1 @ f1 * (cbar(-v12, s, -2) * inv_b_m)
        rhs = f2 @ f1 * inv_b_p - f2 @ f2 * (cbar(v12, s, -2) * inv_b_p)
        defects["ff"].append(_columnwise_defect(lhs, rhs))
        lhs = half("E", j, v1, dyn) @ half("F", j, v2, d_dn) - half(
            "F", j, v2, d_up
        ) @ half("E", j, v1, dyn)
        ratio_2 = k_vec(j, v2) * (1.0 / k_vec(j + 1, v2))
        ratio_1 = (1.0 / k_vec(j + 1, v1)) * k_vec(j, v1)
        rhs = np.diag(
            ratio_2 * (entry_c_bar(params, -v12, s) * inv_b_m)
            - ratio_1 * (cbar(-v12, s, 0) * inv_b_m)
        )
        defects["effe"].append(_columnwise_defect(lhs, rhs))
    return {name: max(values) for name, values in defects.items()}


def scatter(params, n, sector_blocks):
    """Sector blocks {c: {(i, j): block}} placed in whole-module blocks.

    Block (i, j) of sector c has rows on module sector c - e_i and
    columns on c - e_j.  Returns the dense blocks and, per block, the
    mask of the entries some sector covers.
    """
    dim = params.N**n
    dense, covered = {}, {}
    for sector, held in sector_blocks.items():
        for (i, j), block in held.items():
            rows, cols = (
                [
                    flat_index(params, p.word)
                    for p in partitions_with_shape(_module_sector(sector, a))
                ]
                for a in (i, j)
            )
            dense.setdefault((i, j), np.zeros((dim, dim), dtype=complex))
            covered.setdefault((i, j), np.zeros((dim, dim), dtype=bool))
            dense[(i, j)][np.ix_(rows, cols)] = block
            covered[(i, j)][np.ix_(rows, cols)] = True
    return dense, covered


def split_by_kind(comps):
    """Sector Gauss components as {c: {(i, j): block}} per factor."""
    diag = {s: {(l, l): b for l, b in c.diag.items()} for s, c in comps.items()}
    lower = {s: c.lower for s, c in comps.items()}
    upper = {s: c.upper for s, c in comps.items()}
    return diag, lower, upper


def s_tilde(params, i, us, dyn, state):
    """Adjacent exchange operator: factor flip after the two-site R matrix.

    The R factor acts on sites i, i + 1 of ``state`` (shape
    ``(N**n, batch)``, rows in flat-index order) with spectral argument
    u_i - u_{i+1} and dynamical parameter shifted by the weights of
    sites 1..i-1.  The state it acts on must be evaluated at the tuple
    with u_i and u_{i+1} exchanged.
    """
    us = tuple(complex(u) for u in us)
    n = len(us)
    plan = gate_plan(params.N, all_words(params, n), (i, i + 1), range(1, i))
    state = apply_rbar(params, us[i - 1] - us[i], dyn, plan, state)
    shaped = state.reshape((params.N,) * n + (-1,))
    return np.swapaxes(shaped, i - 1, i).reshape(state.shape)


def last_ascent(part):
    """Largest position i with word[i] < word[i + 1], or None."""
    for i in range(part.n - 2, -1, -1):
        if part.word[i] < part.word[i + 1]:
            return i + 1
    return None


def gt_vector(params, part, us, dyn, memo, descent="first"):
    """Standard-basis coordinates of one eigenbasis vector.

    The weakly decreasing word is its own standard vector; any other
    word is an adjacent exchange applied to a word one step closer to
    the decreasing one, with the inner vector evaluated at the swapped
    spectral tuple.
    """
    us = tuple(complex(u) for u in us)
    key = (part.word, us)
    if key in memo:
        return memo[key]
    if part.is_weakly_decreasing():
        vec = np.zeros(params.N**part.n, dtype=complex)
        vec[flat_index(params, part.word)] = 1.0
    else:
        i = part.first_ascent() if descent == "first" else last_ascent(part)
        parent = part.swap_adjacent(i)
        parent_vec = gt_vector(params, parent, _swapped(us, i), dyn, memo, descent)
        vec = s_tilde(params, i, us, dyn, parent_vec[:, np.newaxis])[:, 0]
    memo[key] = vec
    return vec


def reference_gt_matrix(params, n, us, dyn, descent="first"):
    memo = {}
    return np.array(
        [
            gt_vector(params, part, us, dyn, memo, descent)
            for part in all_partitions(n, params.N)
        ]
    )


# Reference exchange relation on the whole space: both sides are
# N^(n+2) x N^(n+2) matrices, the gates applied to the full identity.


def reference_rll_sides(params, us, v1, v2, dyn):
    us = tuple(complex(u) for u in us)
    n = len(us)
    mod_sites = tuple(range(3, n + 3))
    u12 = complex(v2) - complex(v1)
    words = all_words(params, n + 2)
    eye = np.eye(len(words), dtype=complex)
    lhs = dense_apply_l_operator(params, us, v2, dyn, words, eye, 2, 3, (1,))
    lhs = dense_apply_l_operator(params, us, v1, dyn, words, lhs, 1, 3)
    dressed = gate_plan(params.N, words, (1, 2), mod_sites)
    lhs = apply_rbar(params, u12, dyn, dressed, lhs)
    rhs = apply_rbar(params, u12, dyn, gate_plan(params.N, words, (1, 2)), eye)
    rhs = dense_apply_l_operator(params, us, v1, dyn, words, rhs, 1, 3, (2,))
    rhs = dense_apply_l_operator(params, us, v2, dyn, words, rhs, 2, 3)
    return lhs, rhs


def reference_verify_rll(params, us, v1, v2, dyn):
    return relative_defect(*reference_rll_sides(params, us, v1, v2, dyn))


class TestLOperatorBlocks:
    def test_single_site_blocks_are_matrix_entries(self):
        blocks, _ = scatter(PAR2, 1, l_operator_blocks(PAR2, (0.21,), V_A, DYN2))
        u = 0.21 - V_A
        s = DYN2.pair(1, 2)
        want_11 = np.diag([1.0, entry_b(PAR2, u, s)])
        want_22 = np.diag([entry_b_bar(PAR2, u), 1.0])
        want_12 = np.zeros((2, 2), complex)
        want_12[1, 0] = entry_c(PAR2, u, s)
        want_21 = np.zeros((2, 2), complex)
        want_21[0, 1] = entry_c_bar(PAR2, u, s)
        assert np.max(np.abs(blocks[(1, 1)] - want_11)) < 1e-14
        assert np.max(np.abs(blocks[(2, 2)] - want_22)) < 1e-14
        assert np.max(np.abs(blocks[(1, 2)] - want_12)) < 1e-14
        assert np.max(np.abs(blocks[(2, 1)] - want_21)) < 1e-14

    def test_exchange_relation_small_modules(self):
        cases = [
            (PAR2, (0.21,), DYN2),
            (PAR2, US2, DYN2),
            (PAR3, US2, DYN3),
        ]
        for params, us, dyn in cases:
            assert verify_rll(params, us, V_A, V_B, dyn) < 1e-12

    def test_exchange_relation_seeded_samples(self):
        rng = np.random.default_rng(61)
        for _ in range(3):
            dyn = random_dynamical(rng, PAR2)
            us = random_spectral(rng, 2)
            v1, v2 = random_spectral(rng, 2)
            assert verify_rll(PAR2, us, v1, v2, dyn) < 1e-10


class TestExchangeBySector:
    @pytest.mark.parametrize("bug", [False, True])
    def test_sector_residual_matches_reference(self, bug):
        rng = np.random.default_rng(64)
        for params, sizes in [(PAR2, range(1, 5)), (PAR3, range(1, 4))]:
            for n in sizes:
                dyn = random_dynamical(rng, params)
                us = random_spectral(rng, n)
                v1, v2 = random_spectral(rng, 2)
                with negated_exchange_entry() if bug else nullcontext():
                    got = verify_rll(params, us, v1, v2, dyn)
                    want = reference_verify_rll(params, us, v1, v2, dyn)
                assert abs(got - want) <= 1e-13 * want
                assert (want > 0.1) == bug

    def test_off_sector_entries_are_zero(self):
        rng = np.random.default_rng(65)
        for params, n in [(PAR2, 3), (PAR3, 2)]:
            dyn = random_dynamical(rng, params)
            us = random_spectral(rng, n)
            v1, v2 = random_spectral(rng, 2)
            words = all_words(params, n + 2)
            sector = np.sort(words, axis=1)
            off = (sector[:, np.newaxis] != sector[np.newaxis, :]).any(axis=2)
            for side in reference_rll_sides(params, us, v1, v2, dyn):
                assert not np.any(side[off])
                assert np.all(np.any(side != 0, axis=0))

    def test_peak_memory_below_one_dense_state(self):
        # One dense state at N=3, n=4 is 729 x 729 complex numbers.
        tracemalloc.start()
        try:
            verify_rll(PAR3, US3 + (-0.11,), V_A, V_B, DYN3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 729**2 * 16


class TestGaussExtraction:
    def test_reassembly_is_exact(self):
        for params, us, dyn in [(PAR2, US2, DYN2), (PAR3, US2, DYN3)]:
            blocks = l_operator_blocks(params, us, V_A, dyn)
            comps = gauss_extract(blocks)
            assert reassembly_defect(blocks, comps) < 1e-12

    def test_degenerate_pivot_raises_resample(self):
        blocks = l_operator_blocks(PAR2, (0.5,), 0.5, DYN2)
        with pytest.raises(ResampleNeeded):
            gauss_extract(blocks)


class TestEigenbasis:
    def test_two_letter_transition_matrix_printed_form(self):
        # three-site module with one repeated low letter: every entry
        # is a product of exchange entries in the spectral differences
        us = US3
        parts = partitions_with_shape((2, 1))
        at = {p.word: k for k, p in enumerate(parts)}
        x = x_matrix_via_recursion(PAR2, (2, 1), us, DYN2)
        s = DYN2.pair(1, 2)
        u12 = us[0] - us[1]
        u13 = us[0] - us[2]
        u23 = us[1] - us[2]
        want = np.zeros((3, 3), dtype=complex)
        want[at[(2, 1, 1)], at[(2, 1, 1)]] = 1.0
        want[at[(1, 2, 1)], at[(2, 1, 1)]] = entry_c(PAR2, u12, s)
        want[at[(1, 2, 1)], at[(1, 2, 1)]] = entry_b_bar(PAR2, u12)
        want[at[(1, 1, 2)], at[(2, 1, 1)]] = entry_c(PAR2, u13, s)
        want[at[(1, 1, 2)], at[(1, 2, 1)]] = entry_b_bar(PAR2, u13) * entry_c(
            PAR2, u23, s + 1
        )
        want[at[(1, 1, 2)], at[(1, 1, 2)]] = entry_b_bar(PAR2, u13) * entry_b_bar(
            PAR2, u23
        )
        assert np.max(np.abs(x - want)) < 1e-13

    def test_transition_matrix_matches_weight_formula(self):
        cases = [
            (PAR2, (2, 1), US3, DYN2),
            (PAR2, (2, 2), US3 + (-0.11,), DYN2),
            (PAR3, (2, 1, 1), US3 + (-0.11,), DYN3),
        ]
        for params, shape, us, dyn in cases:
            xa = x_matrix_via_recursion(params, shape, us, dyn)
            xw = x_matrix_via_weights(params, shape, us, dyn)
            assert np.max(np.abs(xa - xw)) < 1e-11

    def test_descent_paths_agree(self):
        # The recursion descends at first ascents; the reference at last
        # ascents reaches the same eigenvectors.
        assert last_ascent(IndexPartition.from_word("12132")) == 3
        assert last_ascent(IndexPartition.from_word("32211")) is None
        for params, us, dyn in [
            (PAR2, US3 + (-0.11,), DYN2),
            (PAR3, US3 + (-0.11,), DYN3),
        ]:
            got = gt_matrix(params, 4, us, dyn)
            want = reference_gt_matrix(params, 4, us, dyn, descent="last")
            assert relative_defect(got, want) < 1e-12

    def test_transition_is_triangular(self):
        # in ascending word order the expansion of an eigenbasis
        # vector involves only words at or above its own
        for shape in [(2, 1), (2, 2)]:
            us = (US3 + (-0.11,))[: sum(shape)]
            parts = partitions_with_shape(shape)
            x = x_matrix_via_recursion(PAR2, shape, us, DYN2)
            for row in range(len(parts)):
                for col in range(row):
                    assert abs(x[row, col]) < 1e-13
            for row in range(len(parts)):
                assert abs(x[row, row]) > 1e-8

    def test_swap_operator_involution_and_braid(self):
        n = 3
        dim = PAR2.N**n

        def chain(seq, us):
            state = np.eye(dim, dtype=complex)
            for i in seq:
                state = s_tilde(PAR2, i, us, DYN2, state)
                us = _swapped(us, i)
            return state

        for i in (1, 2):
            back_and_forth = chain((i, i), US3)
            assert relative_defect(back_and_forth, np.eye(dim)) < 1e-12

        lhs = chain((1, 2, 1), US3)
        rhs = chain((2, 1, 2), US3)
        assert relative_defect(lhs, rhs) < 1e-12

    def test_distant_swaps_commute(self):
        us4 = US3 + (-0.11,)
        dim = PAR2.N**4
        eye = np.eye(dim, dtype=complex)
        lhs = s_tilde(
            PAR2, 1, _swapped(us4, 3), DYN2, s_tilde(PAR2, 3, us4, DYN2, eye)
        )
        rhs = s_tilde(
            PAR2, 3, _swapped(us4, 1), DYN2, s_tilde(PAR2, 1, us4, DYN2, eye)
        )
        assert relative_defect(lhs, rhs) < 1e-12

    def test_decreasing_word_is_its_own_basis_vector(self):
        top = IndexPartition((2, 1, 1), 2)
        vec = gt_matrix(PAR2, 3, US3, DYN2)[flat_index(PAR2, top.word)]
        want = np.zeros(PAR2.N**3, dtype=complex)
        want[flat_index(PAR2, top.word)] = 1.0
        assert np.array_equal(vec, want)


class TestHalfCurrentActions:
    def test_five_site_printed_actions(self):
        # the four closed actions on the decreasing word 32211
        part = IndexPartition((3, 2, 2, 1, 1), 3)
        us = US5
        p23 = DYN3.pair(2, 3)

        def bb(x):
            return entry_b_bar(PAR3, x)

        got = half_current_coefficients(PAR3, "K", 3, part, V_A, us, DYN3)
        want = bb(us[1] - V_A) * bb(us[2] - V_A) * bb(us[3] - V_A) * bb(us[4] - V_A)
        assert set(got) == {part.word}
        assert abs(got[part.word] - want) < 1e-12

        got = half_current_coefficients(PAR3, "E", 2, part, V_A, us, DYN3)
        want = entry_c_bar(PAR3, us[0] - V_A, p23) / bb(us[0] - V_A)
        assert set(got) == {(2, 2, 2, 1, 1)}
        assert abs(got[(2, 2, 2, 1, 1)] - want) < 1e-12

        got = half_current_coefficients(PAR3, "F", 2, part, V_A, us, DYN3)
        want_1 = entry_c(PAR3, us[1] - V_A, p23) / bb(us[1] - V_A) / bb(us[2] - us[1])
        want_2 = entry_c(PAR3, us[2] - V_A, p23) / bb(us[2] - V_A) / bb(us[1] - us[2])
        assert set(got) == {(3, 3, 2, 1, 1), (3, 2, 3, 1, 1)}
        assert abs(got[(3, 3, 2, 1, 1)] - want_1) < 1e-12
        assert abs(got[(3, 2, 3, 1, 1)] - want_2) < 1e-12

        got = half_current_coefficients(PAR3, "K", 2, part, V_A, us, DYN3)
        want = bb(us[3] - V_A) * bb(us[4] - V_A) / bb(-us[0] + V_A)
        assert abs(got[part.word] - want) < 1e-12

    def test_closed_action_matches_gauss_blocks(self):
        cases = [
            (PAR2, (0.21,), DYN2),
            (PAR2, US2, DYN2),
            (PAR2, US3, DYN2),
            (PAR3, (0.21,), DYN3),
            (PAR3, US2, DYN3),
        ]
        # The paper's "-" family is the "+" one at v - r.
        for params, us, dyn in cases:
            for v in (V_A, V_B, V_A - params.r, V_B - params.r):
                report = halfcurrent_oracle_defect(params, us, v, dyn)
                assert max(report.values()) < 1e-10

    def test_closed_action_matches_gauss_blocks_seeded(self):
        rng = np.random.default_rng(62)
        for _ in range(3):
            dyn = random_dynamical(rng, PAR2)
            us = random_spectral(rng, 2)
            v = random_spectral(rng, 1)[0]
            try:
                report = halfcurrent_oracle_defect(PAR2, us, v, dyn)
            except (ResampleNeeded, ValueError):
                continue
            assert max(report.values()) < 1e-9

    def test_half_current_relations(self):
        cases = [
            (PAR2, (0.21,), DYN2),
            (PAR2, US2, DYN2),
            (PAR2, US3, DYN2),
            (PAR3, US2, DYN3),
        ]
        for params, us, dyn in cases:
            report = verify_halfcurrent_relations(params, us, dyn, V_A, V_B)
            assert max(report.values()) < 1e-10

    def test_half_current_relations_refuse_equal_parameters(self):
        # 1 / entry_b_bar(v1 - v2) has a pole at v1 = v2.
        with pytest.raises(ValueError):
            verify_halfcurrent_relations(PAR2, US2, DYN2, V_A, V_A)

    def test_diagonal_product_is_scalar(self):
        for params, us, dyn in [
            (PAR2, (0.21,), DYN2),
            (PAR2, US2, DYN2),
            (PAR3, US2, DYN3),
        ]:
            report = check_center(params, us, V_A, dyn)
            assert report["defect"] < 1e-10

    def test_diagonal_family_commutes_with_shifts(self):
        for params, us, dyn in [(PAR2, US2, DYN2), (PAR3, US2, DYN3)]:
            assert gt_commutativity_defect(params, us, V_A, V_B, dyn) < 1e-10

    def test_minus_sign_is_shifted_plus(self):
        # The "-" family is the "+" one at v - r; as numbers the two agree.
        parts = list(all_partitions(2, 2))
        mat_minus = reference_half_current_matrix(
            PAR2, "K", 1, V_A - PAR2.r, US2, DYN2, parts, parts
        )
        mat_plus = reference_half_current_matrix(
            PAR2, "K", 1, V_A, US2, DYN2, parts, parts
        )
        assert np.max(np.abs(mat_minus - mat_plus)) < 1e-14
        minus = HalfCurrentTable(PAR2, US2, V_A - PAR2.r)
        plus = HalfCurrentTable(PAR2, US2, V_A)
        for sector in compositions(2, 2):
            got = minus.block("K", 1, DYN2, sector)
            want = plus.block("K", 1, DYN2, sector)
            assert np.max(np.abs(got - want)) < 1e-14


def _table_cases(seed):
    """Seeded (params, us, v, dyn) for N=2, n <= 6 and N=3, n <= 5."""
    rng = np.random.default_rng(seed)
    for params, sizes in [(PAR2, range(1, 7)), (PAR3, range(1, 6))]:
        for n in sizes:
            dyn = random_dynamical(rng, params)
            us = tuple(random_spectral(rng, n))
            v1, v2 = random_spectral(rng, 2)
            yield params, us, v1, v2, dyn


class TestHalfCurrentTable:
    # The paper's "-" family is the "+" table at v - r.
    @pytest.mark.parametrize("periods", [0, 1], ids=["+", "-"])
    def test_blocks_are_the_per_partition_reference(self, periods):
        # numpy's vectorized complex products round differently from
        # Python's scalar ones, so the entries agree to 1e-14 relative,
        # not bit for bit; the zero pattern is exact.
        for params, us, v, _, dyn in _table_cases(71):
            v = v - periods * params.r
            table = HalfCurrentTable(params, us, v)
            for sector in compositions(len(us), params.N):
                blocks = [("K", l, sector) for l in range(1, params.N + 1)]
                for kind in ("E", "F"):
                    for j in range(1, params.N):
                        image = _image(kind, j, sector)
                        if image is not None:
                            blocks.append((kind, j, image))
                for kind, j, image in blocks:
                    got = table.block(kind, j, dyn, sector)
                    want = reference_half_current_matrix(
                        params,
                        kind,
                        j,
                        v,
                        us,
                        dyn,
                        partitions_with_shape(sector),
                        partitions_with_shape(image),
                    )
                    assert np.array_equal(got != 0, want != 0)
                    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    def test_coefficients_read_their_sector_column(self):
        for params, us, v, _, dyn in _table_cases(72):
            if len(us) > 4:
                continue
            for part in all_partitions(len(us), params.N):
                for kind in ("K", "E", "F"):
                    for j in range(1, params.N + (kind == "K")):
                        args = (params, kind, j, part, v, us, dyn)
                        got = half_current_coefficients(*args)
                        want = reference_coefficients(*args)
                        assert set(got) == set(want)
                        for word, value in want.items():
                            assert abs(got[word] - value) <= 1e-14 * abs(value)

    def test_blocks_are_r_periodic_in_v(self):
        # The half-current oracle evaluates the paper's "-" family as the
        # "+" one at v - r; both of its sides are r-periodic in v.
        def close(got, want):
            return np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

        for params, us, v, _, dyn in _table_cases(75):
            at_v = HalfCurrentTable(params, us, v)
            shifted = HalfCurrentTable(params, us, v - params.r)
            for sector in compositions(len(us), params.N):
                blocks = [("K", l) for l in range(1, params.N + 1)]
                blocks += [(kind, j) for kind in "EF" for j in range(1, params.N)]
                for kind, j in blocks:
                    if _image(kind, j, sector) is not None:
                        want = at_v.block(kind, j, dyn, sector)
                        assert close(shifted.block(kind, j, dyn, sector), want)
            want = l_operator_blocks(params, us, v, dyn)
            got = l_operator_blocks(params, us, v - params.r, dyn)
            for sector, held in want.items():
                for key, block in held.items():
                    assert close(got[sector][key], block)

    def test_relations_are_the_whole_module_composition(self):
        # Composed sector by sector from the same blocks, every relation
        # has the residual of the whole-module matrices: a column's rows
        # lie in one sector, and a skipped sector, whose first factor
        # acts as 0, has both sides 0.  N=3 modules have such sectors for
        # every relation, and at n=1 ee and ff compose none at all.
        for params, us, v1, v2, dyn in _table_cases(73):
            got = verify_halfcurrent_relations(params, us, dyn, v1, v2)
            want = reference_relations(params, us, dyn, v1, v2, scattered_operators)
            for name in RELATION_NAMES:
                assert abs(got[name] - want[name]) <= 1e-13 * max(1.0, want[name])
            if len(us) == 1:
                assert got["ee"] == got["ff"] == 0.0

    @pytest.mark.parametrize(
        "kind, v, shift, relation, moved",
        [("E", V_B, None, "kek", 1), ("E", V_A, 0, "ee", 2), ("F", V_B, 1, "kfk", 1)],
    )
    def test_every_sector_is_composed(
        self, monkeypatch, kind, v, shift, relation, moved
    ):
        # Doubling the one factor of a relation that reads E_j or F_j at
        # (v, dynamical shift) from a source sector breaks the relation
        # exactly when that sector holds enough letters to move: no sector
        # a relation reads is skipped.
        original = HalfCurrentTable.block
        for target in compositions(3, 3):

            def block(self, got_kind, j, d, sector):
                out = original(self, got_kind, j, d, sector)
                hit = (got_kind, self.v, sector) == (kind, v, target) and d == (
                    DYN3 if shift is None else DYN3.shifted_unit(j + shift)
                )
                return 2 * out if hit else out

            monkeypatch.setattr(HalfCurrentTable, "block", block)
            report = verify_halfcurrent_relations(PAR3, US3, DYN3, V_A, V_B)
            letters = target[1:] if kind == "E" else target[:-1]
            assert (report[relation] > 1e-3) == (max(letters) >= moved)

    def test_relations_with_the_per_partition_reference(self):
        # Against operators built coefficient by coefficient, the
        # residuals are rounding noise of the same size, not equal digits.
        for params, us, v1, v2, dyn in _table_cases(74):
            got = verify_halfcurrent_relations(params, us, dyn, v1, v2)
            want = reference_relations(params, us, dyn, v1, v2)
            for name in RELATION_NAMES:
                assert got[name] < 1e-11 and want[name] < 1e-11
                assert abs(got[name] - want[name]) <= 1e-12


class TestClassRecursion:
    @pytest.mark.parametrize("descent", ["first", "last"])
    def test_gt_matrix_matches_reference(self, descent):
        rng = np.random.default_rng(63)
        for params, sizes in [(PAR2, range(1, 7)), (PAR3, range(1, 6))]:
            dyn = random_dynamical(rng, params)
            for n in sizes:
                us = random_spectral(rng, n)
                got = gt_matrix(params, n, us, dyn)
                want = reference_gt_matrix(params, n, us, dyn, descent)
                assert relative_defect(got, want) < 1e-13
                # Off-sector entries are never written, so exactly 0.
                sector = np.array(
                    [part.shape for part in all_partitions(n, params.N)]
                )
                off = (sector[:, np.newaxis] != sector[np.newaxis, :]).any(axis=2)
                assert not np.any(got[off])

    def test_each_r_matrix_is_built_once(self, monkeypatch):
        built, planned = [], []
        original_rbar = ellgt.rmatrix.rbar_matrix
        original_plan = ellgt.gtrep.gate_plan

        def counting_rbar(params, u, dyn):
            built.append((complex(u), dyn.values))
            return original_rbar(params, u, dyn)

        def counting_plan(N, words, active, shifts):
            planned.append((N, words.tobytes(), active))
            return original_plan(N, words, active, shifts)

        monkeypatch.setattr(ellgt.rmatrix, "rbar_matrix", counting_rbar)
        monkeypatch.setattr(ellgt.gtrep, "gate_plan", counting_plan)
        sector_plan.cache_clear()
        gt_matrix(PAR3, 4, US3 + (-0.11,), DYN3)
        assert len(built) == len(set(built))
        # The full-module recursion built 519 R matrices here.
        assert len(built) == 38
        # Plans depend on no argument: a second module at new spectral
        # and dynamical arguments builds none.
        first = list(planned)
        gt_matrix(PAR3, 4, US5[1:], DYN3.shifted_unit(2))
        assert planned == first and len(first) == len(set(first))


def _sector_cases(seed):
    """Seeded (params, us, v1, v2, dyn) for N=2, n <= 4 and N=3, n <= 3.

    The n + 2 spectral points are drawn together, so every u_i - v is
    generic too: the exchange entry b that the injected bug negates is
    0 at u_i = v.
    """
    rng = np.random.default_rng(seed)
    for params, sizes in [(PAR2, range(1, 5)), (PAR3, range(1, 4))]:
        for n in sizes:
            dyn = random_dynamical(rng, params)
            *us, v1, v2 = random_spectral(rng, n + 2)
            yield params, tuple(us), v1, v2, dyn


class TestSectorForms:
    def test_l_operator_sectors_are_the_dense_blocks(self):
        for params, us, v, _, dyn in _sector_cases(66):
            # At v - r: the paper's "-" blocks.
            for at in (v, v - params.r):
                got, _ = scatter(
                    params, len(us), l_operator_blocks(params, us, at, dyn)
                )
                want = dense_l_operator_blocks(params, us, at, dyn)
                # Equal on the sector entries, and 0 on all others.
                assert set(got) == set(want)
                for key in want:
                    assert np.array_equal(got[key], want[key])

    def test_gauss_sectors_are_the_dense_split(self):
        split = 0
        for params, us, v, _, dyn in _sector_cases(67):
            try:
                want = dense_gauss_extract(dense_l_operator_blocks(params, us, v, dyn))
            except ResampleNeeded:
                with pytest.raises(ResampleNeeded):
                    gauss_extract(l_operator_blocks(params, us, v, dyn))
                continue
            comps = gauss_extract(l_operator_blocks(params, us, v, dyn))
            split += 1
            diag, lower, upper = want
            factors = ({(l, l): b for l, b in diag.items()}, lower, upper)
            for held, factor in zip(split_by_kind(comps), factors):
                got, covered = scatter(params, len(us), held)
                assert set(got) == set(factor)
                for key, block in factor.items():
                    # 0 off the sectors, and the sector blocks elsewhere.
                    assert not np.any(block[~covered[key]])
                    assert relative_defect(got[key], block) < 1e-12
        assert split >= 5

    @pytest.mark.parametrize("bug", [False, True])
    def test_checks_match_their_dense_references(self, bug):
        compared = 0
        for params, us, v1, v2, dyn in _sector_cases(68):
            with negated_exchange_entry() if bug else nullcontext():
                try:
                    blocks = dense_l_operator_blocks(params, us, v1, dyn)
                    dense_comps = dense_gauss_extract(blocks)
                    want = [
                        dense_reassembly_defect(blocks, dense_comps),
                        *dense_check_center(params, us, v1, dyn),
                        dense_commutativity_defect(params, us, v1, v2, dyn),
                        *dense_oracle_defect(params, us, v1, dyn).values(),
                    ]
                except ResampleNeeded:
                    continue
                blocks = l_operator_blocks(params, us, v1, dyn)
                center = check_center(params, us, v1, dyn)
                got = [
                    reassembly_defect(blocks, gauss_extract(blocks)),
                    center["scalar"],
                    center["defect"],
                    gt_commutativity_defect(params, us, v1, v2, dyn),
                    *halfcurrent_oracle_defect(params, us, v1, dyn).values(),
                ]
            compared += 1
            for value, reference in zip(got, want, strict=True):
                assert abs(value - reference) <= 1e-12 * max(1.0, abs(reference))
            # The injected bug breaks the centre and the commutativity.
            assert (min(want[2:4]) > 1e-3) == bug
        assert compared >= 5

    def test_condition_gate_reads_the_union_of_sector_pivots(self):
        # Each sector pivot has condition number 1; their direct sum,
        # the whole matrix's pivot, has 1e11.
        one, zero = np.ones((1, 1)), np.zeros((1, 1))
        blocks = {
            (1, 1): {(1, 1): one, (1, 2): zero, (2, 1): zero, (2, 2): 1e11 * one},
            (0, 2): {(2, 2): one},
        }
        with pytest.raises(ResampleNeeded):
            gauss_extract(blocks)
        blocks[(1, 1)][(2, 2)] = 1e9 * one
        comps = gauss_extract(blocks)
        assert comps[(0, 2)].diag == {2: one}

    def test_plans_are_built_once_per_sector(self, monkeypatch):
        planned = []
        original_plan = ellgt.gtrep.gate_plan

        def counting_plan(N, words, active, shifts):
            planned.append((words.tobytes(), active, tuple(shifts)))
            return original_plan(N, words, active, shifts)

        monkeypatch.setattr(ellgt.gtrep, "gate_plan", counting_plan)
        sector_plan.cache_clear()
        l_operator_blocks(PAR3, US3, V_A, DYN3)
        verify_rll(PAR3, US2, V_A, V_B, DYN3)
        first = list(planned)
        assert len(first) == len(set(first))
        l_operator_blocks(PAR3, US3[::-1], V_B - PAR3.r, DYN3.shifted_unit(2))
        verify_rll(PAR3, US2[::-1], V_B, V_A, DYN3.shifted_unit(1))
        assert planned == first
