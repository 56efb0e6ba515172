"""Tests for the star product on level-symmetric functions."""

import numpy as np
import pytest

import ellgt.shuffle
from ellgt.partitions import IndexPartition
from ellgt.rmatrix import random_dynamical, random_spectral
from ellgt.shuffle import (
    SymmetricFunctionValue,
    expansion_residual,
    from_weight_function,
    star,
    star_product,
    symmetry_defect,
    tilde_expansion,
    unit,
    xi_kernel,
)
from ellgt.theta import EllipticParams, bracket

PAR2 = EllipticParams(q=0.5, r=3.0, N=2)
PAR3 = EllipticParams(q=0.5, r=3.0, N=3)


def _smooth_element(params, shape, seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=3)

    def evaluate(level_vars, z_vars, dyn):
        acc = 1.0 + 0.0j
        for l, level in enumerate(level_vars):
            for a, v in enumerate(level):
                acc *= bracket(params, v + c[0] + 0.1 * l + 0.05 * a)
        for z in z_vars:
            acc *= bracket(params, z + c[1])
        acc *= np.exp(0.1j * c[2] * dyn.pair(1, 2))
        return acc

    return SymmetricFunctionValue(shape, evaluate)


class TestXiKernel:
    def test_single_variable_hand_product(self):
        v, vp = 0.31 + 0.02j, 0.77 - 0.05j
        up = 0.55 + 0.01j
        want = (
            bracket(PAR2, up - v)
            / bracket(PAR2, up - v + 1)
            * bracket(PAR2, vp - v + 1)
            / bracket(PAR2, vp - v)
        )
        got = xi_kernel(PAR2, [[v]], [[vp]], [0.9], [up])
        assert abs(got - want) < 1e-14

    def test_empty_right_factor_is_one(self):
        got = xi_kernel(PAR2, [[0.31]], [[]], [0.9], [])
        assert got == 1.0 + 0.0j

    def test_not_antisymmetric(self):
        v, vp, up = 0.31 + 0.02j, 0.77 - 0.05j, 0.55 + 0.01j
        fwd = xi_kernel(PAR2, [[v]], [[vp]], [], [up])
        bwd = xi_kernel(PAR2, [[vp]], [[v]], [], [up])
        assert abs(fwd * bwd - 1.0) > 1e-3

    def test_pole_raises(self):
        with pytest.raises(ValueError):
            xi_kernel(PAR2, [[0.4]], [[0.4]], [], [0.9])

    def test_level_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            xi_kernel(PAR3, [[0.4], []], [[0.7]], [], [0.9])


class TestUnitLaws:
    def test_unit_both_sides(self):
        rng = np.random.default_rng(51)
        part = IndexPartition.from_word("121", 2)
        element = from_weight_function(PAR2, part)
        one = unit(2)
        us = random_spectral(rng, 3)
        dyn = random_dynamical(rng, PAR2)
        lv = [list(random_spectral(rng, 2))]
        direct = element.evaluate(lv, us, dyn)
        assert abs(star_product(PAR2, one, element, lv, us, dyn) - direct) < (
            1e-12 * abs(direct)
        )
        assert abs(star_product(PAR2, element, one, lv, us, dyn) - direct) < (
            1e-12 * abs(direct)
        )

    def test_unit_rejects_variables(self):
        one = unit(2)
        dyn = random_dynamical(np.random.default_rng(0), PAR2)
        with pytest.raises(ValueError):
            one.evaluate([[0.3]], [], dyn)
        with pytest.raises(ValueError):
            one.evaluate([[]], [0.5], dyn)


class TestAssociativity:
    def test_smooth_closures(self):
        rng = np.random.default_rng(52)
        a = _smooth_element(PAR2, (1, 0), 11)
        b = _smooth_element(PAR2, (1, 0), 12)
        c = _smooth_element(PAR2, (0, 1), 13)
        lv = [list(random_spectral(rng, 2))]
        us = random_spectral(rng, 3)
        dyn = random_dynamical(rng, PAR2)
        left = star_product(PAR2, star(PAR2, a, b), c, lv, us, dyn)
        right = star_product(PAR2, a, star(PAR2, b, c), lv, us, dyn)
        assert abs(left - right) < 1e-12 * max(1.0, abs(left))

    def test_weight_functions_three_blocks(self):
        rng = np.random.default_rng(53)
        a = from_weight_function(PAR3, IndexPartition.from_word("1", 3))
        b = from_weight_function(PAR3, IndexPartition.from_word("2", 3))
        c = from_weight_function(PAR3, IndexPartition.from_word("3", 3))
        lv = [list(random_spectral(rng, 1)), list(random_spectral(rng, 2))]
        us = random_spectral(rng, 3)
        dyn = random_dynamical(rng, PAR3)
        left = star_product(PAR3, star(PAR3, a, b), c, lv, us, dyn)
        right = star_product(PAR3, a, star(PAR3, b, c), lv, us, dyn)
        assert abs(left - right) < 1e-12 * max(1.0, abs(left))


class TestValidation:
    def test_budget_guard(self, monkeypatch):
        a = _smooth_element(PAR2, (3, 0), 1)
        b = _smooth_element(PAR2, (3, 0), 2)
        monkeypatch.setattr(ellgt.shuffle, "MAX_TERMS", 10)
        with pytest.raises(ValueError):
            star(PAR2, a, b)

    def test_level_size_mismatch(self):
        rng = np.random.default_rng(54)
        a = from_weight_function(PAR2, IndexPartition.from_word("1", 2))
        prod = star(PAR2, a, a)
        dyn = random_dynamical(rng, PAR2)
        with pytest.raises(ValueError):
            prod.evaluate([[0.3]], [0.1, 0.2], dyn)
        with pytest.raises(ValueError):
            prod.evaluate([[0.3, 0.4]], [0.1], dyn)

    def test_block_count_mismatch(self):
        a = _smooth_element(PAR2, (1, 0), 1)
        b = _smooth_element(PAR3, (1, 0, 0), 2)
        with pytest.raises(ValueError):
            star(PAR2, a, b)


class TestClosure:
    def test_two_blocks_one_site_factors(self):
        # Products of one-site basis functions stay in the span of the
        # combined basis; the expansion solved at the anchor
        # specializations must hold at independent points.
        rng = np.random.default_rng(55)
        for w1 in ("1", "2"):
            for w2 in ("1", "2"):
                a = from_weight_function(PAR2, IndexPartition.from_word(w1, 2))
                b = from_weight_function(PAR2, IndexPartition.from_word(w2, 2))
                prod = star(PAR2, a, b)
                us = random_spectral(rng, 2)
                dyn = random_dynamical(rng, PAR2)
                parts, coeffs = tilde_expansion(PAR2, prod, us, dyn)
                for _ in range(3):
                    lv = [list(random_spectral(rng, prod.level_sizes[0]))]
                    resid = expansion_residual(
                        PAR2, prod, parts, coeffs, lv, us, dyn
                    )
                    assert resid < 1e-8
                # the product of one-site functions is exactly the
                # concatenated word's basis function
                concat = IndexPartition.from_word(w1 + w2, 2)
                for part, coeff in zip(parts, coeffs):
                    want = 1.0 if part == concat else 0.0
                    assert abs(coeff - want) < 1e-10

    def test_three_blocks_one_site_factors(self):
        rng = np.random.default_rng(56)
        a = from_weight_function(PAR3, IndexPartition.from_word("1", 3))
        b = from_weight_function(PAR3, IndexPartition.from_word("2", 3))
        prod = star(PAR3, a, b)
        us = random_spectral(rng, 2)
        dyn = random_dynamical(rng, PAR3)
        parts, coeffs = tilde_expansion(PAR3, prod, us, dyn)
        for _ in range(3):
            lv = [list(random_spectral(rng, s)) for s in prod.level_sizes]
            resid = expansion_residual(PAR3, prod, parts, coeffs, lv, us, dyn)
            assert resid < 1e-8


class TestSymmetry:
    def test_star_product_is_level_symmetric(self):
        rng = np.random.default_rng(57)
        a = from_weight_function(PAR2, IndexPartition.from_word("1", 2))
        prod = star(PAR2, a, a)
        us = random_spectral(rng, 2)
        dyn = random_dynamical(rng, PAR2)
        lv = [list(random_spectral(rng, 2))]
        assert symmetry_defect(prod, lv, us, dyn, 1, 1, 2) < 1e-13

    def test_weight_function_is_level_symmetric(self):
        rng = np.random.default_rng(58)
        element = from_weight_function(PAR2, IndexPartition.from_word("112", 2))
        us = random_spectral(rng, 3)
        dyn = random_dynamical(rng, PAR2)
        lv = [list(random_spectral(rng, 2))]
        assert symmetry_defect(element, lv, us, dyn, 1, 1, 2) < 1e-12
