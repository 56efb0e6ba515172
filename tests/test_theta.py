"""Tests for the elliptic special functions.

Frozen expected values were computed independently at 40-digit precision:
q-Pochhammer products from mpmath's ``qp``, and the theta function from its
absolutely convergent series sum_n (-1)^n p^(n(n-1)/2) z^n, which does not
share code with the product implementation under test.
"""

import cmath
import math

import pytest
from hypothesis import given, settings, strategies as st

from ellgt.theta import (
    EllipticParams,
    bracket,
    bracket_denominator,
    bracket_deriv_zero,
    bracket_ratio,
    bracket_ratio_plus,
    curly,
    double_pochhammer_inf,
    pochhammer_inf,
    rho_minus,
    rho_plus,
    theta_big,
)

PAR = EllipticParams(q=0.5, r=3.0, N=2)

# Moderate complex additive arguments: the bracket grows exponentially in
# the imaginary direction, so property tests stay in a band around the
# real axis where double precision keeps full relative accuracy.
u_values = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=1.4, allow_nan=False, allow_infinity=False
).map(lambda w: complex(w.real, 0.25 * w.imag))


class TestProducts:
    def test_pochhammer_frozen_real(self):
        assert abs(pochhammer_inf(0.3, 0.1) - 0.67673735250465623312) < 1e-14

    def test_pochhammer_frozen_complex(self):
        val = pochhammer_inf(0.2 + 0.1j, 0.015625)
        assert abs(val - (0.79730169583498924464 - 0.10095226854287189767j)) < 1e-14

    def test_double_pochhammer_frozen(self):
        val = double_pochhammer_inf(0.4, 0.015625, 0.0625)
        assert abs(val - 0.58007173249809104577) < 1e-14

    def test_truncation_converged(self):
        # Doubling the term count must not move the value beyond 1e-10.
        coarse = EllipticParams(q=0.5, r=3.0, N=2, truncation_order=24)
        fine = EllipticParams(q=0.5, r=3.0, N=2, truncation_order=48)
        for u in (0.37, 0.9 - 0.2j, -1.1 + 0.05j):
            assert abs(bracket(coarse, u) - bracket(fine, u)) < 1e-10
            assert abs(rho_plus(coarse, u) - rho_plus(fine, u)) < 1e-10

    def test_bad_base_rejected(self):
        with pytest.raises(ValueError):
            pochhammer_inf(0.5, 1.2)


class TestTheta:
    def test_theta_frozen(self):
        val = theta_big(PAR, 0.7 + 0.2j)
        assert abs(val - (0.2863995806376431192 - 0.18973366703172608331j)) < 1e-14

    def test_theta_vanishes_at_one(self):
        assert theta_big(PAR, 1.0) == 0.0

    def test_theta_inversion(self):
        # theta_p(p z) = -theta_p(z)/z
        for z in (0.6, 1.3 + 0.4j, 0.2 - 0.7j):
            lhs = theta_big(PAR, PAR.p * z)
            rhs = -theta_big(PAR, z) / z
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


class TestBracket:
    def test_frozen_values(self):
        assert abs(bracket(PAR, 0.31 - 0.07j) - (0.40355056599892968599 - 0.087749110564718428202j)) < 1e-13
        assert abs(bracket(PAR, 1.0) - 1.0929852107444204596) < 1e-13

    def test_zero(self):
        assert bracket(PAR, 0.0) == 0.0

    def test_memo_is_transparent(self):
        # A memoized value is what a fresh evaluation gives, whatever
        # nearby argument was evaluated first on the same parameters.
        par = EllipticParams(q=0.5, r=3.0, N=2)
        u = 0.3 + 3e-13
        bracket(par, 0.3)
        assert bracket(par, u) == bracket(EllipticParams(q=0.5, r=3.0, N=2), u)
        bracket(par, -1e-14)
        assert bracket(par, 0.0) == 0

    @given(u=u_values)
    @settings(max_examples=100, deadline=None)
    def test_oddness(self, u):
        lhs = bracket(PAR, -u)
        rhs = -bracket(PAR, u)
        scale = max(1.0, abs(rhs))
        assert abs(lhs - rhs) < 1e-10 * scale

    @given(u=u_values)
    @settings(max_examples=100, deadline=None)
    def test_shift_by_r(self, u):
        lhs = bracket(PAR, u + PAR.r)
        rhs = -bracket(PAR, u)
        scale = max(1.0, abs(rhs))
        assert abs(lhs - rhs) < 1e-10 * scale

    @given(u=u_values)
    @settings(max_examples=100, deadline=None)
    def test_shift_by_r_tau(self, u):
        tau = PAR.tau
        lhs = bracket(PAR, u + PAR.r * tau)
        mult = -cmath.exp(-1j * cmath.pi * tau) * cmath.exp(-2j * cmath.pi * u / PAR.r)
        rhs = mult * bracket(PAR, u)
        scale = max(1.0, abs(rhs))
        assert abs(lhs - rhs) < 1e-10 * scale


class TestBracketDerivative:
    def test_closed_form_frozen(self):
        assert abs(bracket_deriv_zero(PAR) - 1.3213382542677266677) < 1e-13

    def test_finite_difference(self):
        # Central difference with step 1e-5; the bracket is analytic so the
        # truncation error is O(h^2) ~ 1e-10 relative.
        h = 1e-5
        fd = (bracket(PAR, h) - bracket(PAR, -h)) / (2 * h)
        closed = bracket_deriv_zero(PAR)
        assert abs(fd - closed) / abs(closed) < 1e-8

    def test_other_parameters(self):
        par = EllipticParams(q=0.4 + 0.05j, r=2.5, N=3)
        h = 1e-5
        fd = (bracket(par, h) - bracket(par, -h)) / (2 * h)
        closed = bracket_deriv_zero(par)
        assert abs(fd - closed) / abs(closed) < 1e-8


class TestBracketRatios:
    def test_guarded_quotient(self):
        top, bottom = 0.4 + 0.1j, 1.3 - 0.05j
        assert bracket_ratio(PAR, top, bottom) == bracket(PAR, top) / bracket(PAR, bottom)
        # [u] vanishes at every real period r.
        for pole in (0.0, PAR.r):
            with pytest.raises(ValueError):
                bracket_ratio(PAR, top, pole)
        assert bracket_denominator(PAR, top, bottom) == bracket(PAR, top) * bracket(PAR, bottom)
        with pytest.raises(ValueError):
            bracket_denominator(PAR, bottom, 1e-14)

    # [s+v]/([s][v]) admits two expansion forms that must agree pointwise
    # at generic arguments; they differ only as formal series.
    @given(u=u_values, s=u_values)
    @settings(max_examples=60, deadline=None)
    def test_plus_matches_direct(self, u, s):
        den = bracket(PAR, s) * bracket(PAR, u)
        if abs(den) < 1e-6:
            return
        direct = bracket(PAR, s + u) / den
        viaplus = bracket_ratio_plus(PAR, s, u)
        assert abs(direct - viaplus) < 1e-9 * max(1.0, abs(direct))

    @given(u=u_values, s=u_values)
    @settings(max_examples=60, deadline=None)
    def test_minus_matches_plus(self, u, s):
        # The "-" expansion is the "+" one at u + r.
        den = bracket(PAR, s) * bracket(PAR, u)
        if abs(den) < 1e-6:
            return
        a = bracket_ratio_plus(PAR, s, u)
        b = bracket_ratio_plus(PAR, s, u + PAR.r)
        assert abs(a - b) < 1e-9 * max(1.0, abs(a))


class TestRho:
    def test_curly_is_double_product(self):
        a = 0.43 - 0.12j
        direct = double_pochhammer_inf(PAR.z_of(a), PAR.p, PAR.qpow(4))
        assert abs(curly(PAR, a) - direct) < 1e-14

    def test_rho_minus_variants_differ(self):
        u = 0.37 + 0.08j
        plain = rho_minus(PAR, u, variant="plain")
        power = rho_minus(PAR, u, variant="power")
        assert abs(plain - rho_plus(PAR, u + PAR.r)) < 1e-14
        ratio = power / plain
        expected = PAR.qpow(4 * u * (PAR.N - 1) / PAR.N)
        assert abs(ratio - expected) < 1e-12

    def test_rho_plus_finite_generic(self):
        for n_rank in (2, 3):
            par = EllipticParams(q=0.5, r=3.0, N=n_rank)
            val = rho_plus(par, 0.21 - 0.33j)
            assert cmath.isfinite(val)
            assert abs(val) > 0.0


class TestParams:
    def test_tau_consistency(self):
        # p = exp(-2*pi*i/tau) must reproduce the nome.
        par = EllipticParams(q=0.5, r=3.0, N=2)
        assert abs(cmath.exp(-2j * cmath.pi / par.tau) - par.p) < 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            EllipticParams(q=1.5, r=3.0, N=2)
        with pytest.raises(ValueError):
            EllipticParams(q=0.5, r=-1.0, N=2)
        with pytest.raises(ValueError):
            EllipticParams(q=0.5, r=3.0, N=1)
