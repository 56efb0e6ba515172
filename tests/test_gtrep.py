"""Tests for the tensor-module L-operator and its eigenbasis action."""

import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest

import ellgt.gtrep
import ellgt.rmatrix
from ellgt.gtrep import (
    ResampleNeeded,
    apply_l_operator,
    check_center,
    exchange_plan,
    gauss_extract,
    gt_commutativity_defect,
    gt_matrix,
    half_current_coefficients,
    half_current_matrix,
    halfcurrent_oracle_defect,
    index_word,
    l_operator_blocks,
    module_dim,
    reassembly_defect,
    verify_halfcurrent_relations,
    verify_rll,
    word_index,
    x_matrix_via_recursion,
    x_matrix_via_weights,
)
from ellgt.partitions import IndexPartition, partitions_with_shape
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
from ellgt.theta import EllipticParams
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


# Reference recursion on the whole module: every eigenvector is a full
# N^n vector, and every exchange gate acts on all of its sites.


def all_words(params, n):
    """Every word of n letters, in flat-index order."""
    return np.indices((params.N,) * n).reshape(n, -1).T + 1


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
        vec = np.zeros(module_dim(params, part.n), dtype=complex)
        vec[word_index(params, part.word)] = 1.0
    else:
        i = part.first_ascent() if descent == "first" else part.last_ascent()
        parent = part.swap_adjacent(i)
        parent_vec = gt_vector(params, parent, _swapped(us, i), dyn, memo, descent)
        vec = s_tilde(params, i, us, dyn, parent_vec[:, np.newaxis])[:, 0]
    memo[key] = vec
    return vec


def reference_gt_matrix(params, n, us, dyn, descent="first"):
    memo = {}
    return np.array(
        [
            gt_vector(
                params,
                IndexPartition(index_word(params, n, k), params.N),
                us,
                dyn,
                memo,
                descent,
            )
            for k in range(module_dim(params, n))
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
    lhs = apply_l_operator(params, us, v2, dyn, words, eye, 2, 3, (1,))
    lhs = apply_l_operator(params, us, v1, dyn, words, lhs, 1, 3)
    dressed = gate_plan(params.N, words, (1, 2), mod_sites)
    lhs = apply_rbar(params, u12, dyn, dressed, lhs)
    rhs = apply_rbar(params, u12, dyn, gate_plan(params.N, words, (1, 2)), eye)
    rhs = apply_l_operator(params, us, v1, dyn, words, rhs, 1, 3, (2,))
    rhs = apply_l_operator(params, us, v2, dyn, words, rhs, 2, 3)
    return lhs, rhs


def reference_verify_rll(params, us, v1, v2, dyn):
    return relative_defect(*reference_rll_sides(params, us, v1, v2, dyn))


class TestModuleIndexing:
    def test_word_index_round_trip(self):
        for n in (1, 2, 3):
            for idx in range(module_dim(PAR3, n)):
                word = index_word(PAR3, n, idx)
                assert word_index(PAR3, word) == idx


class TestLOperatorBlocks:
    def test_single_site_blocks_are_matrix_entries(self):
        blocks = l_operator_blocks(PAR2, (0.21,), V_A, DYN2)
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
        for params, shape, us, dyn in [
            (PAR2, (2, 2), US3 + (-0.11,), DYN2),
            (PAR3, (2, 1, 1), US3 + (-0.11,), DYN3),
        ]:
            xa = x_matrix_via_recursion(params, shape, us, dyn, descent="first")
            xb = x_matrix_via_recursion(params, shape, us, dyn, descent="last")
            assert np.max(np.abs(xa - xb)) < 1e-12

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
        vec = gt_matrix(PAR2, 3, US3, DYN2)[word_index(PAR2, top.word)]
        want = np.zeros(module_dim(PAR2, 3), dtype=complex)
        want[word_index(PAR2, top.word)] = 1.0
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
        for params, us, dyn in cases:
            for sign in ("+", "-"):
                for v in (V_A, V_B):
                    report = halfcurrent_oracle_defect(params, us, v, dyn, sign)
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
        mat_minus = half_current_matrix(PAR2, "K", 1, V_A, US2, DYN2, "-")
        mat_plus = half_current_matrix(PAR2, "K", 1, V_A + PAR2.r, US2, DYN2, "+")
        assert np.max(np.abs(mat_minus - mat_plus)) < 1e-14


class TestClassRecursion:
    @pytest.mark.parametrize("descent", ["first", "last"])
    def test_gt_matrix_matches_reference(self, descent):
        rng = np.random.default_rng(63)
        for params, sizes in [(PAR2, range(1, 7)), (PAR3, range(1, 6))]:
            dyn = random_dynamical(rng, params)
            for n in sizes:
                us = random_spectral(rng, n)
                got = gt_matrix(params, n, us, dyn, descent)
                want = reference_gt_matrix(params, n, us, dyn, descent)
                assert relative_defect(got, want) < 1e-13
                # Off-sector entries are never written, so exactly 0.
                sector = np.array(
                    [
                        IndexPartition(index_word(params, n, k), params.N).shape
                        for k in range(module_dim(params, n))
                    ]
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
        exchange_plan.cache_clear()
        gt_matrix(PAR3, 4, US3 + (-0.11,), DYN3)
        assert len(built) == len(set(built))
        # The full-module recursion built 519 R matrices here.
        assert len(built) == 38
        # Plans depend on no argument: a second module at new spectral
        # and dynamical arguments builds none.
        first = list(planned)
        gt_matrix(PAR3, 4, US5[1:], DYN3.shifted_unit(2))
        assert planned == first and len(first) == len(set(first))
