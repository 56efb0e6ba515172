"""Tests for the delta-supported current action on the eigenbasis."""

import numpy as np
import pytest

from ellgt.currents import (
    LOWERING_NORMALIZATION,
    commutator_constant,
    diagonal_eigenvalue,
    drinfeld_polynomial,
    ef_commutator_report,
    h_function,
    h_residue,
    highest_weight_report,
    lowering_terms,
    partial_fraction_defect,
    raising_normalization,
    raising_terms,
    scaling_constant,
)
from ellgt.gtrep import tail_ratios
from ellgt.partitions import IndexPartition, partitions_with_shape
from ellgt.rmatrix import random_spectral, worst_residual
from ellgt.theta import EllipticParams, bracket, bracket_deriv_zero

PAR2 = EllipticParams(q=0.5, r=3.0, N=2)
PAR3 = EllipticParams(q=0.5, r=3.0, N=3)
US4 = (0.21, -0.34, 0.52, -0.11)
US5 = (0.21, -0.34, 0.52, -0.11, 0.38)
V_A = 0.93


class TestConstants:
    def test_scaling_constant_is_one_at_equal_nomes(self):
        assert abs(scaling_constant(PAR2) - 1.0) < 1e-14
        assert abs(scaling_constant(PAR3) - 1.0) < 1e-14

    def test_commutator_constant_closed_form(self):
        q = complex(PAR2.q)
        want = (
            -scaling_constant(PAR2)
            / (q - 1.0 / q)
            * bracket(PAR2, 1.0)
            / bracket_deriv_zero(PAR2)
        )
        assert abs(commutator_constant(PAR2) - want) < 1e-14

    def test_normalization_product(self):
        ratio = bracket(PAR2, 1.0) / bracket_deriv_zero(PAR2)
        product = LOWERING_NORMALIZATION * raising_normalization(PAR2)
        assert abs(product * ratio * ratio - commutator_constant(PAR2)) < 1e-14


class TestPartialFraction:
    def test_admissible_balances(self):
        for m, n in [(1, 1), (1, 3), (2, 3), (3, 4)]:
            defect = partial_fraction_defect(PAR3, US4[:n], m, V_A)
            assert defect < 1e-12

    def test_admissible_balances_seeded(self):
        rng = np.random.default_rng(63)
        for m, n in [(1, 3), (2, 3), (3, 4)]:
            us = random_spectral(rng, n)
            v = random_spectral(rng, 1)[0]
            assert partial_fraction_defect(PAR3, us, m, v) < 1e-10

    def test_degenerate_balance_raises(self):
        with pytest.raises(ValueError):
            partial_fraction_defect(PAR3, US4[:2], 1, V_A)
        with pytest.raises(ValueError):
            partial_fraction_defect(PAR3, US4[:4], 2, V_A)

    def test_spectral_pole_raises(self):
        # v at a spectral variable puts [v - u_a] = 0 under the balance.
        with pytest.raises(ValueError):
            partial_fraction_defect(PAR3, US4[:3], 2, US4[1])

    def test_equal_spectral_variables_raise(self):
        # Two equal spectral variables put [u_a - u_b] = 0 in a denominator.
        with pytest.raises(ValueError):
            partial_fraction_defect(PAR3, (US4[0], US4[0], US4[2]), 2, V_A)

    def test_r_lattice_balance_raises(self):
        # 2m - n = 3 sits on the zero lattice of the default bracket
        par_deep = EllipticParams(q=0.5, r=3.0, N=3)
        with pytest.raises(ValueError):
            partial_fraction_defect(par_deep, US5[:3], 3, V_A)


def residue_limit_defect(params, j, part, us, eps=1e-5):
    """Reference: closed residues against a symmetric numerical limit.

    The residue of the diagonal profile at each supported site is
    approximated by eps * h(u_c + eps) averaged with -eps * h(u_c - eps);
    returns the worst relative defect over those sites.
    """
    us = tuple(complex(u) for u in us)
    defects = []
    for site in tuple(part.blocks[j - 1]) + tuple(part.blocks[j]):
        u_c = us[site - 1]
        plus = eps * h_function(params, j, part, u_c + eps, us)
        minus = -eps * h_function(params, j, part, u_c - eps, us)
        numeric = 0.5 * (plus + minus)
        closed = h_residue(params, j, part, site, tail_ratios(params, us))
        defects.append(abs(numeric - closed) / max(1.0, abs(closed)))
    return worst_residual(defects)


class TestResidues:
    def test_closed_residues_match_numeric_limits(self):
        part = IndexPartition((3, 2, 2, 1, 1), 3)
        for j in (1, 2):
            assert residue_limit_defect(PAR3, j, part, US5) < 1e-6

    def test_residue_outside_blocks_raises(self):
        part = IndexPartition((3, 2, 2, 1, 1), 3)
        with pytest.raises(ValueError):
            h_residue(PAR3, 2, part, 4, tail_ratios(PAR3, US5))

    def test_profile_is_eigenvalue_without_scaling(self):
        part = IndexPartition((2, 1, 1), 2)
        us = US4[:3]
        got = diagonal_eigenvalue(PAR2, 1, part, V_A, us)
        want = scaling_constant(PAR2) * h_function(PAR2, 1, part, V_A, us)
        assert abs(got - want) < 1e-14


class TestTermExpansions:
    def test_raising_counts_block_sizes(self):
        part = IndexPartition((3, 2, 2, 1, 1), 3)
        tails = tail_ratios(PAR3, US5)
        assert len(raising_terms(PAR3, 1, part, tails)) == 2
        assert len(raising_terms(PAR3, 2, part, tails)) == 1
        assert len(lowering_terms(PAR3, 1, part, tails)) == 2
        assert len(lowering_terms(PAR3, 2, part, tails)) == 2

    def test_terms_move_one_site(self):
        part = IndexPartition((2, 1, 2), 2)
        tails = tail_ratios(PAR2, US4[:3])
        for term in raising_terms(PAR2, 1, part, tails):
            assert part.word[term.site - 1] == 2
            assert term.word[term.site - 1] == 1
        for term in lowering_terms(PAR2, 1, part, tails):
            assert part.word[term.site - 1] == 1
            assert term.word[term.site - 1] == 2


class TestCommutators:
    def test_equal_label_closed_diagonal(self):
        worst = 0.0
        for shape, params, us in [
            ((2, 1), PAR2, US4[:3]),
            ((2, 2), PAR2, US4),
            ((2, 2, 1), PAR3, US5),
        ]:
            for part in partitions_with_shape(shape):
                for j in range(1, params.N):
                    report = ef_commutator_report(
                        params, j, j, part, tail_ratios(params, us)
                    )
                    worst = max(worst, report["diag"], report["offdiag"])
        assert worst < 1e-12

    def test_shared_table_gives_the_same_reports(self):
        # The check builds one table per shape for all of its reports.
        shared = tail_ratios(PAR3, US5)
        for part in partitions_with_shape((2, 2, 1)):
            for i in (1, 2):
                for j in (1, 2):
                    own = ef_commutator_report(
                        PAR3, i, j, part, tail_ratios(PAR3, US5)
                    )
                    assert ef_commutator_report(PAR3, i, j, part, shared) == own

    def test_distinct_labels_cancel_support_wise(self):
        worst = 0.0
        for part in partitions_with_shape((2, 2, 1)):
            for i in (1, 2):
                for j in (1, 2):
                    if i == j:
                        continue
                    report = ef_commutator_report(
                        PAR3, i, j, part, tail_ratios(PAR3, US5)
                    )
                    worst = max(worst, report["diag"], report["offdiag"])
        assert worst < 1e-12


class TestHighestWeight:
    def test_all_ones_word_is_killed_and_diagonalized(self):
        for params in (PAR2, PAR3):
            report = highest_weight_report(params, US4, V_A)
            assert report["raising_terms"] == 0.0
            assert report["h_defect"] < 1e-12

    def test_classifying_polynomial_is_trivial_above_first(self):
        assert drinfeld_polynomial(PAR3, 2, V_A, US4) == 1.0 + 0.0j
        assert drinfeld_polynomial(PAR3, 3, V_A, US4) == 1.0 + 0.0j

    def test_first_polynomial_ratio_is_first_eigenvalue(self):
        part = IndexPartition((1, 1, 1, 1), 2)
        got = diagonal_eigenvalue(PAR2, 1, part, V_A, US4)
        want = (
            scaling_constant(PAR2)
            * drinfeld_polynomial(PAR2, 1, V_A, US4)
            / drinfeld_polynomial(PAR2, 1, V_A + 1, US4)
        )
        assert abs(got - want) < 1e-13
