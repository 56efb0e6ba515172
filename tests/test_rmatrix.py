"""Tests for the basic dynamical elliptic R-matrix."""

from functools import partial

import numpy as np
import pytest

from ellgt.rmatrix import (
    DYNAMICAL_MARGIN,
    SPECTRAL_MARGIN,
    DynamicalParameter,
    apply_rbar,
    dybe_residual,
    dybe_sides,
    entry_b,
    entry_b_bar,
    entry_c,
    entry_c_bar,
    gate_plan,
    pair_index,
    permutation_matrix,
    random_dynamical,
    random_spectral,
    rbar_matrix,
    relative_defect,
    unitarity_residual,
)
from ellgt.theta import EllipticParams, rho_minus, rho_plus

PAR2 = EllipticParams(q=0.5, r=3.0, N=2)
PAR3 = EllipticParams(q=0.5, r=3.0, N=3)

# The scalar prefactors rho(u) of the dressed R-matrices rho(u) R(u).
DRESSINGS = {
    "plus": rho_plus,
    "minus_plain": rho_minus,
    "minus_power": partial(rho_minus, variant="power"),
}

# Frozen from a 40-digit product evaluation of the same bracket ratios.
ORACLE_U = 0.31 - 0.07j
ORACLE_S = 0.77 + 0.13j
ORACLE_B = -0.088812393558232772464 + 0.13841141865961200763j
ORACLE_B_BAR = 0.32626561295388933881 - 0.065915866931862398799j
ORACLE_C = 1.0839300132042851582 - 0.092110040988773041889j
ORACLE_C_BAR = 0.58964344364960125822 + 0.15800538194716515139j


class TestEntries:
    def test_frozen_oracle_values(self):
        assert abs(entry_b(PAR2, ORACLE_U, ORACLE_S) - ORACLE_B) < 1e-14
        assert abs(entry_b_bar(PAR2, ORACLE_U) - ORACLE_B_BAR) < 1e-14
        assert abs(entry_c(PAR2, ORACLE_U, ORACLE_S) - ORACLE_C) < 1e-14
        assert abs(entry_c_bar(PAR2, ORACLE_U, ORACLE_S) - ORACLE_C_BAR) < 1e-14

    def test_exchange_entries_at_zero_are_exact(self):
        for s in (0.77 + 0.13j, 1.21, 0.4 - 0.6j):
            assert entry_c(PAR2, 0.0, s) == 1.0 + 0.0j
            assert entry_c_bar(PAR2, 0.0, s) == 1.0 + 0.0j
            assert entry_b(PAR2, 0.0, s) == 0.0 + 0.0j
            assert entry_b_bar(PAR2, 0.0) == 0.0 + 0.0j

    def test_near_singular_denominator_raises(self):
        with pytest.raises(ValueError):
            entry_c(PAR2, 0.3, 0.0)
        with pytest.raises(ValueError):
            entry_b(PAR2, 0.3, 3.0)  # bracket vanishes at integer r


class TestDynamicalParameter:
    def test_pair_and_shifts(self):
        dyn = DynamicalParameter.from_values([0.9, 0.3, -0.2])
        assert dyn.pair(1, 2) == pytest.approx(0.6)
        assert dyn.pair(3, 1) == pytest.approx(-1.1)
        shifted = dyn.shifted([1.0, 0.0, -1.0])
        assert shifted.values == (1.9 + 0j, 0.3 + 0j, -1.2 + 0j)
        assert dyn.shifted_unit(2).values == (0.9 + 0j, 1.3 + 0j, -0.2 + 0j)
        assert dyn.negated().values == (-0.9 - 0j, -0.3 - 0j, 0.2 - 0j)

    def test_shift_length_checked(self):
        dyn = DynamicalParameter.from_values([0.9, 0.3])
        with pytest.raises(ValueError):
            dyn.shifted([1.0])

    def test_only_differences_enter_the_matrix(self):
        dyn = DynamicalParameter.from_values([0.9, 0.3, -0.2])
        offset = dyn.shifted([0.7, 0.7, 0.7])
        a = rbar_matrix(PAR3, 0.21, dyn)
        b = rbar_matrix(PAR3, 0.21, offset)
        assert np.max(np.abs(a - b)) < 1e-13


class TestMatrixStructure:
    def test_zero_argument_gives_exact_permutation(self):
        rng = np.random.default_rng(11)
        for params in (PAR2, PAR3):
            dyn = random_dynamical(rng, params)
            mat = rbar_matrix(params, 0.0, dyn)
            assert np.array_equal(mat, permutation_matrix(params))

    def test_block_layout(self):
        dyn = DynamicalParameter.from_values([0.9, 0.3])
        u = 0.31 - 0.07j
        s = dyn.pair(1, 2)
        mat = rbar_matrix(PAR2, u, dyn)
        i12 = pair_index(PAR2, 1, 2)
        i21 = pair_index(PAR2, 2, 1)
        assert mat[i12, i12] == entry_b(PAR2, u, s)
        assert mat[i21, i21] == entry_b_bar(PAR2, u)
        assert mat[i12, i21] == entry_c(PAR2, u, s)
        assert mat[i21, i12] == entry_c_bar(PAR2, u, s)
        assert mat[pair_index(PAR2, 1, 1), pair_index(PAR2, 1, 1)] == 1.0

    def test_weight_conservation(self):
        # Nonzero entries only connect pairs with equal component multisets.
        rng = np.random.default_rng(5)
        dyn = random_dynamical(rng, PAR3)
        mat = rbar_matrix(PAR3, 0.37, dyn)
        for mu in range(1, 4):
            for nu in range(1, 4):
                for mo in range(1, 4):
                    for no in range(1, 4):
                        if {mu, nu} != {mo, no}:
                            assert (
                                mat[
                                    pair_index(PAR3, mo, no),
                                    pair_index(PAR3, mu, nu),
                                ]
                                == 0.0
                            )


def _all_words(params, num_sites):
    """Every word of ``num_sites`` letters, in flat-index order."""
    return np.indices((params.N,) * num_sites).reshape(num_sites, -1).T + 1


def _gate_matrix(params, u, dyn, num_sites, active, shifts=()):
    """Matrix of one gate: the gate applied to every basis vector."""
    eye = np.eye(params.N**num_sites, dtype=complex)
    plan = gate_plan(params.N, _all_words(params, num_sites), active, shifts)
    return apply_rbar(params, u, dyn, plan, eye)


def _dressed_sides(params, us, dyn, rho):
    """Both Yang-Baxter sides as products of dressed gates rho(u) R(u)."""
    u1, u2, u3 = us

    def gate(u, active, shifts=()):
        return rho(params, u) * _gate_matrix(params, u, dyn, 3, active, shifts)

    lhs = gate(u1 - u2, (1, 2), (3,)) @ gate(u1 - u3, (1, 3))
    lhs = lhs @ gate(u2 - u3, (2, 3), (1,))
    rhs = gate(u2 - u3, (2, 3)) @ gate(u1 - u3, (1, 3), (2,))
    rhs = rhs @ gate(u1 - u2, (1, 2))
    return lhs, rhs


class TestEmbedding:
    def test_two_site_embedding_matches_plain_matrix(self):
        rng = np.random.default_rng(3)
        dyn = random_dynamical(rng, PAR2)
        direct = rbar_matrix(PAR2, 0.29, dyn)
        embedded = _gate_matrix(PAR2, 0.29, dyn, 2, (1, 2))
        assert np.max(np.abs(direct - embedded)) == 0.0

    def test_kron_structure_without_shift(self):
        rng = np.random.default_rng(4)
        dyn = random_dynamical(rng, PAR2)
        direct = rbar_matrix(PAR2, 0.29, dyn)
        eye = np.eye(2)
        left = _gate_matrix(PAR2, 0.29, dyn, 3, (1, 2))
        right = _gate_matrix(PAR2, 0.29, dyn, 3, (2, 3))
        assert np.max(np.abs(left - np.kron(direct, eye))) < 1e-15
        assert np.max(np.abs(right - np.kron(eye, direct))) < 1e-15

    def test_spectator_shift_blocks(self):
        # With a weight shift on site 3 the matrix is block diagonal in
        # the third component and each block uses a shifted parameter.
        rng = np.random.default_rng(6)
        dyn = random_dynamical(rng, PAR2)
        big = _gate_matrix(PAR2, 0.31, dyn, 3, (1, 2), (3,))
        for third in (1, 2):
            block = np.zeros((4, 4), dtype=complex)
            for mu in range(1, 3):
                for nu in range(1, 3):
                    for mo in range(1, 3):
                        for no in range(1, 3):
                            row = (mo - 1) * 4 + (no - 1) * 2 + (third - 1)
                            col = (mu - 1) * 4 + (nu - 1) * 2 + (third - 1)
                            block[
                                pair_index(PAR2, mo, no),
                                pair_index(PAR2, mu, nu),
                            ] = big[row, col]
            expected = rbar_matrix(
                PAR2, 0.31, dyn.shifted_unit(third)
            )
            assert np.max(np.abs(block - expected)) < 1e-15

    def test_gate_on_batch_matches_gate_matrix(self):
        # Reversed active sites between shifted spectators, on a batch
        # of random states rather than the identity.
        rng = np.random.default_rng(7)
        dyn = random_dynamical(rng, PAR3)
        dim, batch = 3**4, 5
        active, shifts = (3, 2), (1, 4)
        mat = _gate_matrix(PAR3, 0.27, dyn, 4, active, shifts)
        states = rng.normal(size=(dim, batch)) + 1j * rng.normal(
            size=(dim, batch)
        )
        plan = gate_plan(3, _all_words(PAR3, 4), active, shifts)
        got = apply_rbar(PAR3, 0.27, dyn, plan, states)
        assert np.max(np.abs(got - mat @ states)) < 1e-14

    def test_gate_on_shuffled_sector_is_its_block(self):
        # The words of one letter-count sector, in no particular order,
        # against the rows and columns of the whole-module gate.
        rng = np.random.default_rng(8)
        dyn = random_dynamical(rng, PAR3)
        active, shifts = (4, 2), (1, 3)
        words = _all_words(PAR3, 4)
        mat = _gate_matrix(PAR3, 0.27, dyn, 4, active, shifts)
        counts = np.sort(words, axis=1)
        rows = rng.permutation(np.flatnonzero((counts == [1, 2, 2, 3]).all(1)))
        eye = np.eye(len(rows), dtype=complex)
        plan = gate_plan(3, words[rows], active, shifts)
        got = apply_rbar(PAR3, 0.27, dyn, plan, eye)
        assert np.max(np.abs(got - mat[np.ix_(rows, rows)])) < 1e-15

    def test_shared_matrices_are_built_once(self):
        dyn = DynamicalParameter.from_values([0.9, 0.3])
        plan = gate_plan(2, _all_words(PAR2, 3), (1, 2), (3,))
        eye = np.eye(8, dtype=complex)
        rmats = {}
        first = apply_rbar(PAR2, 0.3, dyn, plan, eye, rmats=rmats)
        assert sorted(rmats) == [(0.3, (0, 1)), (0.3, (1, 0))]
        again = apply_rbar(PAR2, 0.3, dyn, plan, eye, rmats=rmats)
        assert np.array_equal(first, again) and len(rmats) == 2

    def test_plan_is_read_only(self):
        plan = gate_plan(2, _all_words(PAR2, 3), (1, 3), (2,))
        arrays = (plan.partner, plan.pair, plan.swapped, plan.fixed, plan.classes)
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]

    def test_active_site_validation(self):
        words2, words3 = _all_words(PAR2, 2), _all_words(PAR2, 3)
        with pytest.raises(ValueError):
            gate_plan(2, words2, (1, 1))
        with pytest.raises(ValueError):
            gate_plan(2, words2, (1, 3))
        with pytest.raises(ValueError):
            gate_plan(2, words3, (1, 2), (2,))
        # (1, 2) is listed without its partner (2, 1).
        with pytest.raises(ValueError, match="closed"):
            gate_plan(2, words2[:2], (1, 2))


class TestConsistency:
    def test_dybe_all_dressings(self):
        rng = np.random.default_rng(20)
        for params in (PAR2, PAR3):
            for _ in range(3):
                dyn = random_dynamical(rng, params)
                us = tuple(random_spectral(rng, 3))
                assert dybe_residual(params, us, dyn) < 1e-10
                for rho in DRESSINGS.values():
                    sides = _dressed_sides(params, us, dyn, rho)
                    assert relative_defect(*sides) < 1e-10

    def test_spectral_sampling_limit_is_refused_before_drawing(self):
        # Ten points cannot keep pairwise gaps of 0.1 mod 1.
        rng = np.random.default_rng(24)
        with pytest.raises(ValueError, match="count \\* margin < 1"):
            random_spectral(rng, 10)
        assert rng.uniform() == np.random.default_rng(24).uniform()
        assert len(random_spectral(rng, 4)) == 4

    def test_dynamical_sampling_limit_is_refused_before_drawing(self):
        # Nine fractional parts cannot keep pairwise gaps of 0.12 mod 1.
        rng = np.random.default_rng(25)
        with pytest.raises(ValueError, match="count \\* margin < 1"):
            random_dynamical(rng, EllipticParams(q=0.5, r=3.0, N=9))
        assert rng.uniform() == np.random.default_rng(25).uniform()

    def test_unitarity_holds_for_bare_matrix(self):
        rng = np.random.default_rng(21)
        for params in (PAR2, PAR3):
            for _ in range(5):
                dyn = random_dynamical(rng, params)
                (u,) = random_spectral(rng, 1)
                assert unitarity_residual(params, u, dyn) < 1e-12

    def test_unitarity_fails_for_dressed_matrices(self):
        # The scalar prefactors do not satisfy rho(z) rho(1/z) = 1, so
        # strict unitarity holds only for the undressed matrix.
        rng = np.random.default_rng(22)
        dyn = random_dynamical(rng, PAR2)
        u = 0.37 + 0.05j
        perm = permutation_matrix(PAR2)
        for rho in DRESSINGS.values():
            left = rho(PAR2, u) * rbar_matrix(PAR2, u, dyn)
            right = perm @ (rho(PAR2, -u) * rbar_matrix(PAR2, -u, dyn)) @ perm
            assert relative_defect(left @ right, np.eye(4)) > 1e-3

    def test_bare_inverse_is_swapped_matrix(self):
        # R(u) P R(-u) P = id exactly encodes the inversion identity.
        rng = np.random.default_rng(23)
        dyn = random_dynamical(rng, PAR3)
        u = 0.41 - 0.11j
        perm = permutation_matrix(PAR3)
        left = rbar_matrix(PAR3, u, dyn)
        right = perm @ rbar_matrix(PAR3, -u, dyn) @ perm
        assert np.max(np.abs(left @ right - np.eye(9))) < 1e-12

    def test_dressed_matrix_scalar_relation(self):
        # Dressing every gate scales each bare side by one product of
        # rho values: the dressed exchange check reads only that product.
        rng = np.random.default_rng(24)
        for params in (PAR2, PAR3):
            dyn = random_dynamical(rng, params)
            u1, u2, u3 = us = tuple(random_spectral(rng, 3))
            bare = dybe_sides(params, us, dyn)
            for rho in DRESSINGS.values():
                scale = rho(params, u1 - u2) * rho(params, u1 - u3)
                scale *= rho(params, u2 - u3)
                for got, side in zip(_dressed_sides(params, us, dyn, rho), bare):
                    want = scale * side
                    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def circular_gaps(points):
    """Gaps between the sorted points of each row around the unit circle."""
    ordered = np.sort(np.asarray(points) % 1.0, axis=-1)
    wrap = ordered[..., :1] + 1.0 - ordered[..., -1:]
    return np.concatenate([np.diff(ordered, axis=-1), wrap], axis=-1)


def rejection_reals(rng, count, draws, margin=SPECTRAL_MARGIN):
    """Reference law: uniform points on [0, 1), redrawn until every
    pairwise circular gap is at least ``margin`` (tried in batches)."""
    kept = []
    while sum(map(len, kept)) < draws:
        tries = rng.uniform(0.0, 1.0, size=(20_000, count))
        kept.append(tries[circular_gaps(tries).min(axis=1) >= margin])
    return np.concatenate(kept)[:draws]


class TestSampling:
    @pytest.mark.parametrize("count", range(2, 10))
    def test_spectral_gaps(self, count):
        rng = np.random.default_rng(30 + count)
        draws = np.array([random_spectral(rng, count) for _ in range(200)])
        assert circular_gaps(draws.real).min() >= SPECTRAL_MARGIN - 1e-12
        assert draws.real.min() >= 0.0 and draws.real.max() < 1.0
        assert np.abs(draws.imag).max() <= 0.1

    @pytest.mark.parametrize("N", range(2, 9))
    def test_dynamical_pairs_avoid_integers(self, N):
        params = EllipticParams(q=0.5, r=3.0, N=N)
        rng = np.random.default_rng(40 + N)
        for _ in range(100):
            values = np.array(random_dynamical(rng, params).values)
            assert np.all(values.imag == 0.0)
            assert values.real.min() >= 0.0 and values.real.max() < params.r
            diffs = np.subtract.outer(values.real, values.real)
            off = diffs[~np.eye(N, dtype=bool)]
            assert np.abs(off - np.round(off)).min() >= DYNAMICAL_MARGIN - 1e-12

    def test_dynamical_integer_parts_are_uniform(self):
        rng = np.random.default_rng(50)
        draws = [random_dynamical(rng, PAR3).values for _ in range(2000)]
        counts = np.bincount(np.floor(np.real(draws)).astype(int).ravel())
        # 6000 parts at 1/3 each: the standard error of a count is 36.5.
        assert np.abs(counts - 2000).max() < 4 * 36.5

    @pytest.mark.parametrize("count", [3, 6])
    def test_smallest_gap_law_matches_rejection(self, count):
        draws = 2000
        rng = np.random.default_rng(60 + count)
        reals = np.real([random_spectral(rng, count) for _ in range(draws)])
        new = circular_gaps(reals).min(axis=1)
        old = circular_gaps(rejection_reals(rng, count, draws)).min(axis=1)
        # Two independent samples of one law: the means differ by under
        # four standard errors, and so does the share of the new draws
        # below each quartile of the reference.
        error = np.sqrt((new.var() + old.var()) / draws)
        assert abs(new.mean() - old.mean()) < 4 * error
        for p in (0.25, 0.5, 0.75):
            share = np.mean(new < np.quantile(old, p))
            assert abs(share - p) < 4 * np.sqrt(2 * p * (1 - p) / draws)
            # Each variable on its own is uniform on [0, 1).
            share = np.mean(reals[:, 0] < p)
            assert abs(share - p) < 4 * np.sqrt(p * (1 - p) / draws)
        # The labels are exchangeable: going round from the first
        # variable, the second comes before the third half the time.
        ahead = (reals[:, 1] - reals[:, 0]) % 1.0 < (reals[:, 2] - reals[:, 0]) % 1.0
        assert abs(ahead.mean() - 0.5) < 4 * np.sqrt(0.25 / draws)
