"""Elliptic special functions: infinite products, theta functions, brackets.

Conventions used throughout the package:

* ``q`` is a complex number with ``|q| < 1`` and ``r`` a positive real
  parameter; the elliptic nome is ``p = q^(2r)``.
* Spectral and dynamical variables are kept in *additive* form: a
  multiplicative variable ``z`` always stands for ``q^(2u)`` with additive
  coordinate ``u``.  All fractional powers such as ``z^(s/r)`` are computed
  as ``exp(additive_exponent * log q)``, which keeps every branch choice
  pinned to the principal branch of ``log q``.
* The odd theta bracket is ``[u] = q^(u^2/r - u) * theta_p(q^(2u))`` with
  ``theta_p(z) = (z; p) (p/z; p) (p; p)`` (infinite q-Pochhammer products).
  It satisfies ``[-u] = -[u]``, ``[u + r] = -[u]`` and
  ``[u + r*tau] = -exp(-i*pi*tau) * exp(-2i*pi*u/r) * [u]`` where
  ``tau = -2*pi*i / log p``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "EllipticParams",
    "DENOM_FLOOR",
    "pochhammer_inf",
    "double_pochhammer_inf",
    "theta_big",
    "bracket",
    "bracket_ratio",
    "bracket_denominator",
    "guarded_ratio",
    "bracket_ratio_plus",
    "bracket_deriv_zero",
    "curly",
    "rho_plus",
    "rho_minus",
]

# Truncating (x; base)_inf after M terms leaves a relative error of order
# |base|^M; this threshold picks M so the tail is far below double precision
# noise for the residual tolerances used in the verification suites.
_TAIL_THRESHOLD = 1e-18
_MAX_TERMS = 512

# A denominator smaller than this in modulus is treated as a zero of the
# bracket: dividing by it would turn a pole into a huge, meaningless value.
DENOM_FLOOR = 1e-12


def _adaptive_terms(base: complex) -> int:
    mag = abs(base)
    if mag >= 1.0:
        raise ValueError(f"product base must satisfy |base| < 1, got |{base}| = {mag}")
    if mag == 0.0:
        return 1
    m = int(math.ceil(math.log(_TAIL_THRESHOLD) / math.log(mag)))
    return max(1, min(m, _MAX_TERMS))


@dataclass(frozen=True)
class EllipticParams:
    """Parameter bundle fixing q, r, the rank N, and numerical settings.

    Only the level-0 regime is supported: the starred parameters coincide
    with the unstarred ones (``p* = p``, ``r* = r``), so the class has no
    level to set.

    ``truncation_order`` overrides the adaptive choice of the number of
    product terms; ``None`` selects the smallest M with tail below 1e-18
    per base, capped at 512.
    """

    q: complex = 0.5
    r: float = 3.0
    N: int = 2
    truncation_order: int | None = None

    def __post_init__(self) -> None:
        if self.N < 2:
            raise ValueError("rank N must be at least 2")
        if not (0.0 < abs(self.q) < 1.0):
            raise ValueError("need 0 < |q| < 1")
        if self.r <= 0:
            raise ValueError("need r > 0")
        if abs(self.p) >= 1.0:
            raise ValueError("elliptic nome |p| = |q^(2r)| must be < 1")
        if self.truncation_order is not None and self.truncation_order < 1:
            raise ValueError("truncation_order must be >= 1")

    @cached_property
    def log_q(self) -> complex:
        return cmath.log(complex(self.q))

    @cached_property
    def p(self) -> complex:
        return cmath.exp(2.0 * self.r * cmath.log(complex(self.q)))

    @cached_property
    def tau(self) -> complex:
        """Modular parameter with p = exp(-2*pi*i/tau)."""
        return -2j * cmath.pi / cmath.log(self.p)

    @cached_property
    def poch_p(self) -> complex:
        """(p; p)_inf, the Euler product of the nome."""
        return pochhammer_inf(self.p, self.p, self.terms_for(self.p))

    def terms_for(self, base: complex) -> int:
        if self.truncation_order is not None:
            return self.truncation_order
        return _adaptive_terms(base)

    def qpow(self, exponent: complex) -> complex:
        """q**exponent on the principal branch of log q."""
        return cmath.exp(complex(exponent) * self.log_q)

    def z_of(self, u: complex) -> complex:
        """Multiplicative coordinate z = q^(2u) of an additive variable."""
        return self.qpow(2.0 * u)

    @cached_property
    def _bracket_cache(self) -> dict[complex, complex]:
        return {}


def pochhammer_inf(x: complex, base: complex, terms: int | None = None) -> complex:
    """Truncated infinite product (x; base)_inf = prod_{n>=0} (1 - x*base^n)."""
    if terms is None:
        terms = _adaptive_terms(base)
    acc = 1.0 + 0.0j
    factor = complex(x)
    for _ in range(terms):
        acc *= 1.0 - factor
        factor *= base
    return acc


def double_pochhammer_inf(
    x: complex, base1: complex, base2: complex, terms: int | None = None
) -> complex:
    """Truncated double product (x; base1, base2)_inf over n, m >= 0."""
    if terms is None:
        t1 = _adaptive_terms(base1)
        t2 = _adaptive_terms(base2)
    else:
        t1 = t2 = terms
    acc = 1.0 + 0.0j
    outer = complex(x)
    for _ in range(t1):
        inner = outer
        for _ in range(t2):
            acc *= 1.0 - inner
            inner *= base2
        outer *= base1
    return acc


def theta_big(params: EllipticParams, z: complex) -> complex:
    """theta_p(z) = (z; p) (p/z; p) (p; p)."""
    p = params.p
    m = params.terms_for(p)
    return (
        pochhammer_inf(z, p, m)
        * pochhammer_inf(p / z, p, m)
        * params.poch_p
    )


def bracket(params: EllipticParams, u: complex) -> complex:
    """Odd theta bracket [u] = q^(u^2/r - u) * theta_p(q^(2u)).

    Values are memoized per parameter set, keyed by the exact argument, so
    a call returns what a fresh evaluation would; weight-function
    symmetrization revisits the same arguments many times.
    """
    u = complex(u)
    cache = params._bracket_cache
    val = cache.get(u)
    if val is None:
        val = params.qpow(u * u / params.r - u) * theta_big(params, params.z_of(u))
        cache[u] = val
    return val


def bracket_ratio(params: EllipticParams, top: complex, bottom: complex) -> complex:
    """The quotient [top]/[bottom]; ValueError when [bottom] is below DENOM_FLOOR."""
    den = bracket_denominator(params, bottom)
    return bracket(params, top) / den


def bracket_denominator(params: EllipticParams, *args: complex) -> complex:
    """The product of the brackets at ``args``, multiplied left to right.

    ValueError when the product is below DENOM_FLOOR in modulus; the
    empty product is 1.
    """
    den = 1.0 + 0.0j
    for u in args:
        den *= bracket(params, u)
    if abs(den) < DENOM_FLOOR:
        raise ValueError(f"bracket pole among the arguments {args}")
    return den


def guarded_ratio(num, den) -> np.ndarray:
    """num / den entrywise; NaN, marking a pole, where |den| < DENOM_FLOOR.

    The array form of :func:`bracket_denominator`'s guard: a caller reads
    the NaN entries it needs and decides how to refuse them.
    """
    den = np.asarray(den, dtype=complex)
    out = np.full(den.shape, np.nan, dtype=complex)
    return np.divide(num, den, out=out, where=np.abs(den) >= DENOM_FLOOR)


def bracket_deriv_zero(params: EllipticParams) -> complex:
    """d[u]/du at u = 0, in closed form -2 * log(q) * (p; p)^3.

    [u] vanishes linearly at u = 0; every residue and delta-function
    normalization in the current algebra is expressed through this slope.
    """
    return -2.0 * params.log_q * params.poch_p**3


def bracket_ratio_plus(params: EllipticParams, s: complex, v: complex) -> complex:
    """The combination [s+v]/([s][v]) assembled from its multiplicative form.

    Evaluates w^(s/r) * theta_p(q^(2s) w) / (theta_p(q^(2s)) theta_p(w))
    with w = q^(2v), all powers taken additively.  Used for expanding
    half-current coefficients in the region |w| small.  The opposite
    expansion, built from the p-shifted form, is this function at v + r:
    the two differ only as formal series, by a multiple of the delta
    function at w = 1, never as values at a generic point.
    """
    w_pow = params.qpow(2.0 * v * s / params.r)
    return (
        w_pow
        * theta_big(params, params.z_of(s + v))
        / (theta_big(params, params.z_of(s)) * theta_big(params, params.z_of(v)))
    )


def curly(params: EllipticParams, a: complex) -> complex:
    """{q^(2a)} = (q^(2a); p, q^(2N)) as a function of an additive exponent."""
    return double_pochhammer_inf(
        params.z_of(a),
        params.p,
        params.qpow(2 * params.N),
        params.truncation_order,
    )


def rho_plus(params: EllipticParams, u: complex) -> complex:
    """Scalar prefactor rho^+(z) of the two-site R-matrix, z = q^(2u).

    rho^+(z) = q^(-(N-1)/N) z^((N-1)/(rN))
               * {q^(2N-2) z}{q^2 z} / ({q^(2N) z}{z})
               * {p q^(2N)/z}{p/z} / ({p q^(2N-2)/z}{p q^2/z})

    where {.} is the double product with bases p and q^(2N).  The power
    of z is evaluated additively.
    """
    n = params.N
    r = params.r
    head = params.qpow(-(n - 1) / n + 2.0 * u * (n - 1) / (r * n))
    num1 = curly(params, n - 1 + u) * curly(params, 1 + u)
    den1 = curly(params, n + u) * curly(params, u)
    num2 = curly(params, r + n - u) * curly(params, r - u)
    den2 = curly(params, r + n - 1 - u) * curly(params, r + 1 - u)
    return head * num1 * num2 / (den1 * den2)


def rho_minus(params: EllipticParams, u: complex, variant: str = "plain") -> complex:
    """Scalar prefactor rho^-(z), z = q^(2u).

    Two inequivalent definitions appear in the source conventions:

    * ``"plain"``:  rho^-(z) = rho^+(p z)
    * ``"power"``:  rho^-(z) = z^(2(N-1)/N) * rho^+(p z)

    Both are provided, and the dressed exchange check of
    :mod:`ellgt.verify` reads both rather than silently committing to one.
    """
    shifted = rho_plus(params, u + params.r)
    if variant == "plain":
        return shifted
    if variant == "power":
        return params.qpow(4.0 * u * (params.N - 1) / params.N) * shifted
    raise ValueError(f"unknown rho_minus variant: {variant!r}")
