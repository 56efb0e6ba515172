"""The basic dynamical elliptic R-matrix and its consistency checks.

The matrix acts on the tensor square of the N-dimensional vector space
with basis v_1, ..., v_N.  Its entries are ratios of theta brackets in
the additive spectral variable u (the multiplicative one is z = q^{2u})
and in the dynamical parameter, which we realize as an N-vector of
complex numbers: the scalar entering an entry attached to the ordered
pair (j, k) is the difference of the j-th and k-th components.  Weight
shifts of the dynamical parameter are then plain vector additions.

Conventions: matrix element M[row, col] maps input column to output row;
the pair (mu, nu) is flattened as N * (mu - 1) + (nu - 1).  At u = 0 the
matrix is exactly the permutation operator, and the exchange entries are
arranged so this holds in floating point without rounding error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .theta import EllipticParams, bracket, bracket_denominator, bracket_ratio


@dataclass(frozen=True)
class DynamicalParameter:
    """Dynamical parameter as an N-vector; pair values are differences."""

    values: tuple[complex, ...]

    @classmethod
    def from_values(cls, values: Sequence[complex]) -> "DynamicalParameter":
        return cls(tuple(complex(v) for v in values))

    @property
    def size(self) -> int:
        return len(self.values)

    def pair(self, j: int, k: int) -> complex:
        """Difference of components j and k (1-based)."""
        return self.values[j - 1] - self.values[k - 1]

    def shifted(self, weight: Sequence[float]) -> "DynamicalParameter":
        """Add a weight vector componentwise."""
        if len(weight) != self.size:
            raise ValueError("weight length must match parameter size")
        return DynamicalParameter(
            tuple(v + w for v, w in zip(self.values, weight))
        )

    def shifted_unit(self, component: int) -> "DynamicalParameter":
        """Add one to a single 1-based component."""
        values = list(self.values)
        values[component - 1] += 1.0
        return DynamicalParameter(tuple(values))

    def negated(self) -> "DynamicalParameter":
        return DynamicalParameter(tuple(-v for v in self.values))


def entry_b(params: EllipticParams, u: complex, s: complex) -> complex:
    """Diagonal exchange entry [s+1][s-1][u] / ([s]^2 [u+1])."""
    num = bracket(params, s + 1) * bracket(params, s - 1) * bracket(params, u)
    return num / bracket_denominator(params, s, s, u + 1)


def entry_b_bar(params: EllipticParams, u: complex) -> complex:
    """Diagonal exchange entry [u] / [u+1]."""
    return bracket_ratio(params, u, u + 1)


def entry_c(params: EllipticParams, u: complex, s: complex) -> complex:
    """Off-diagonal entry [1][s+u] / ([s][u+1]).

    Evaluated as ([1] * [s+u]) / ([s] * [u+1]): at u = 0 with real data
    the numerator and denominator are identical float products, so the
    quotient is exactly 1.0 and the matrix degenerates to an exact
    permutation.
    """
    num = bracket(params, 1.0) * bracket(params, s + u)
    return num / bracket_denominator(params, s, u + 1)


def entry_c_bar(params: EllipticParams, u: complex, s: complex) -> complex:
    """Off-diagonal entry [1][s-u] / ([s][u+1])."""
    num = bracket(params, 1.0) * bracket(params, s - u)
    return num / bracket_denominator(params, s, u + 1)


def pair_index(params: EllipticParams, mu: int, nu: int) -> int:
    """Flatten the ordered pair (mu, nu) of 1-based labels."""
    return params.N * (mu - 1) + (nu - 1)


def permutation_matrix(params: EllipticParams) -> np.ndarray:
    """The flip operator v_a x v_b -> v_b x v_a on the tensor square."""
    size = params.N * params.N
    perm = np.zeros((size, size), dtype=complex)
    for a in range(1, params.N + 1):
        for b in range(1, params.N + 1):
            perm[pair_index(params, b, a), pair_index(params, a, b)] = 1.0
    return perm


def rbar_matrix(
    params: EllipticParams, u: complex, dyn: DynamicalParameter
) -> np.ndarray:
    """The basic R-matrix on the tensor square, in the pair basis.

    For j1 < j2 the 2x2 exchange block sends column (j1, j2) to
    b * (j1, j2) + c_bar * (j2, j1) and column (j2, j1) to
    c * (j1, j2) + b_bar * (j2, j1), with the dynamical scalar taken for
    the ordered pair (j1, j2); columns (j, j) are fixed.
    """
    if dyn.size != params.N:
        raise ValueError("dynamical parameter size must equal N")
    size = params.N * params.N
    mat = np.zeros((size, size), dtype=complex)
    for j in range(1, params.N + 1):
        mat[pair_index(params, j, j), pair_index(params, j, j)] = 1.0
    for j1 in range(1, params.N + 1):
        for j2 in range(j1 + 1, params.N + 1):
            s = dyn.pair(j1, j2)
            lo_hi = pair_index(params, j1, j2)
            hi_lo = pair_index(params, j2, j1)
            mat[lo_hi, lo_hi] = entry_b(params, u, s)
            mat[hi_lo, hi_lo] = entry_b_bar(params, u)
            mat[lo_hi, hi_lo] = entry_c(params, u, s)
            mat[hi_lo, lo_hi] = entry_c_bar(params, u, s)
    return mat


@dataclass(frozen=True)
class GatePlan:
    """Word bookkeeping of one two-site gate; every array is read-only.

    Per word k: ``partner[k]``, the row of the word with the active
    letters (c, d) exchanged; ``pair[k]`` and ``swapped[k]``, the
    R-matrix indices of (c, d) and (d, c); ``fixed[k]``, c = d; and
    ``classes[k]``, the index in ``shifts`` of its spectator counts.
    """

    partner: np.ndarray
    pair: np.ndarray
    swapped: np.ndarray
    fixed: np.ndarray
    classes: np.ndarray
    shifts: tuple[tuple[int, ...], ...]


def gate_plan(
    N: int,
    words: np.ndarray,
    active: tuple[int, int],
    weight_shift_sites: Sequence[int] = (),
) -> GatePlan:
    """Plan the R-matrix on two sites of states over a word list.

    ``words`` holds letters in [1, N], one row per word, and is closed
    under exchanging the letters of the ``active`` sites (1-based; the
    first acts as the left tensor factor).  The dynamical parameter is
    to be shifted by the letter counts of the ``weight_shift_sites``.
    The plan reads no spectral or dynamical argument, so it can be
    built once for many gates.
    """
    words = np.asarray(words) - 1
    num_sites = words.shape[1]
    a, b = active
    if a == b or not (1 <= a <= num_sites and 1 <= b <= num_sites):
        raise ValueError("active sites must be distinct and in range")
    if a in weight_shift_sites or b in weight_shift_sites:
        raise ValueError("weight shift sites must be spectators")
    c, d = words[:, a - 1], words[:, b - 1]
    place = N ** np.arange(num_sites - 1, -1, -1)
    keys = words @ place
    target = keys + (d - c) * (place[a - 1] - place[b - 1])
    order = np.argsort(keys)
    partner = order[np.searchsorted(keys, target, sorter=order) % len(keys)]
    if np.any(keys[partner] != target):
        raise ValueError("words must be closed under exchanging the active sites")
    spectators = words[:, np.asarray(weight_shift_sites, dtype=int) - 1]
    counts = (spectators[:, :, np.newaxis] == np.arange(N)).sum(axis=1)
    # A class of counts is labelled by the counts read as digits.
    codes = counts @ (num_sites + 1) ** np.arange(N)
    _, first, classes = np.unique(codes, return_index=True, return_inverse=True)
    arrays = (partner, N * c + d, N * d + c, c == d, classes)
    for array in arrays:
        array.setflags(write=False)
    shifts = tuple(tuple(shift) for shift in counts[first].tolist())
    return GatePlan(*arrays, shifts)


def apply_rbar(
    params: EllipticParams,
    u: complex,
    dyn: DynamicalParameter,
    plan: GatePlan,
    state: np.ndarray,
    rmats: dict | None = None,
) -> np.ndarray:
    """Apply the R-matrix on two sites of a batch of states over a word list.

    ``plan`` is the :func:`gate_plan` of the words and sites; ``state``
    has shape ``(len(words), batch)``, row k the coefficient of word k.
    The matrix sends the pair (c, d) only to (c, d) and (d, c), and the
    shift reads only spectators, so ``out = diag * state + off *
    state[partner]``, with ``off = 0`` where c = d.  One matrix is built
    per class of spectator counts, unless ``rmats`` holds it under
    (argument, counts); calls sharing ``rmats`` must share ``dyn``.
    Returns a new array; ``state`` is not written.
    """
    rmats = {} if rmats is None else rmats
    for shift in plan.shifts:
        if (u, shift) not in rmats:
            rmats[(u, shift)] = rbar_matrix(params, u, dyn.shifted(shift))
    stack = np.array([rmats[(u, shift)] for shift in plan.shifts])
    diag = stack[plan.classes, plan.pair, plan.pair]
    off = np.where(plan.fixed, 0.0, stack[plan.classes, plan.pair, plan.swapped])
    out = off[:, np.newaxis] * state[plan.partner]
    out += diag[:, np.newaxis] * state
    return out


def dybe_sides(
    params: EllipticParams,
    u_values: tuple[complex, complex, complex],
    dyn: DynamicalParameter,
) -> tuple[np.ndarray, np.ndarray]:
    """The two sides of the dynamical Yang-Baxter equation.

    Both act on a threefold tensor product; the outer factors are
    evaluated with the dynamical parameter shifted by the weight of the
    untouched site, per basis component.  A scalar dressing rho(u) of
    the R-matrix multiplies both sides by the same product
    rho(u1 - u2) rho(u1 - u3) rho(u2 - u3).
    """
    u1, u2, u3 = u_values
    words = np.indices((params.N,) * 3).reshape(3, -1).T + 1

    def product(*gates) -> np.ndarray:
        state = np.eye(len(words), dtype=complex)
        for u, active, shifts in reversed(gates):
            plan = gate_plan(params.N, words, active, shifts)
            state = apply_rbar(params, u, dyn, plan, state)
        return state

    lhs = product(
        (u1 - u2, (1, 2), (3,)), (u1 - u3, (1, 3), ()), (u2 - u3, (2, 3), (1,))
    )
    rhs = product(
        (u2 - u3, (2, 3), ()), (u1 - u3, (1, 3), (2,)), (u1 - u2, (1, 2), ())
    )
    return lhs, rhs


def dybe_residual(
    params: EllipticParams,
    u_values: tuple[complex, complex, complex],
    dyn: DynamicalParameter,
) -> float:
    """Max-norm defect of the dynamical Yang-Baxter equation."""
    return relative_defect(*dybe_sides(params, u_values, dyn))


def unitarity_residual(
    params: EllipticParams,
    u: complex,
    dyn: DynamicalParameter,
) -> float:
    """Max-norm defect of R(u) P R(-u) P against the identity."""
    perm = permutation_matrix(params)
    left = rbar_matrix(params, u, dyn)
    right = perm @ rbar_matrix(params, -u, dyn) @ perm
    product = left @ right
    eye = np.eye(params.N * params.N, dtype=complex)
    return relative_defect(product, eye)


def relative_defect(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Max entry difference scaled by the larger of the two sides and 1."""
    scale = max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    return float(np.max(np.abs(lhs - rhs))) / scale


def scalar_defect(lhs: complex, rhs: complex) -> float:
    """:func:`relative_defect` of two numbers.

    Python's ``abs``, not ``np.abs``: on complex input the two differ in
    the last bit, and the residuals built on this would move.
    """
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def worst_residual(residuals: Iterable[float]) -> float:
    """The largest residual, 0.0 for none, and NaN if any residual is NaN.

    A plain ``max`` fold keeps its running value when it meets a NaN, so
    a check could pass on a number it never computed.
    """
    out = 0.0
    for value in residuals:
        if math.isnan(value):
            return math.nan
        out = max(out, value)
    return out


# Smallest circular gap mod 1 between drawn spectral variables, and
# between the fractional parts of dynamical components.
SPECTRAL_MARGIN = 0.1
DYNAMICAL_MARGIN = 0.12


def _spaced_points(rng: np.random.Generator, count: int, margin: float) -> np.ndarray:
    """``count`` uniform points of [0, 1) given circular gaps >= ``margin``.

    The gaps less ``margin`` are the spacings of uniform points on a
    circle of length 1 - count * margin: sort points drawn there, add
    k * margin to the k-th (so every gap widens by ``margin``), rotate by
    a uniform offset and shuffle.
    """
    if count * margin >= 1.0:
        raise ValueError(
            f"cannot draw {count} points at pairwise gaps of at least"
            f" {margin} mod 1: needs count * margin < 1"
        )
    points = np.sort(rng.uniform(0.0, 1.0 - count * margin, size=count))
    points = (points + margin * np.arange(count) + rng.uniform()) % 1.0
    rng.shuffle(points)
    return points


def random_dynamical(
    rng: np.random.Generator, params: EllipticParams
) -> DynamicalParameter:
    """Generic real dynamical vector with well-conditioned pair values.

    Pair differences stay ``DYNAMICAL_MARGIN`` away from the integers,
    so their brackets and small integer shifts avoid zero.  Integer
    parts are uniform on {0, ..., ceil(r) - 1}: for integer r the
    components are uniform on [0, r) given the gaps, else on [0, ceil(r)).
    """
    fractions = _spaced_points(rng, params.N, DYNAMICAL_MARGIN)
    values = fractions + rng.integers(0, math.ceil(params.r), size=params.N)
    return DynamicalParameter.from_values(values.tolist())


def random_spectral(rng: np.random.Generator, count: int) -> list[complex]:
    """Generic spectral variables whose differences avoid integers: real
    parts in [0, 1) at circular gaps of at least ``SPECTRAL_MARGIN`` (so
    at most nine variables), imaginary parts uniform on [-0.1, 0.1)."""
    reals = _spaced_points(rng, count, SPECTRAL_MARGIN)
    imags = rng.uniform(-0.1, 0.1, size=count)
    return [complex(re, im) for re, im in zip(reals, imags)]


def random_levels(rng: np.random.Generator, sizes: Iterable[int]) -> list[list[complex]]:
    """Level variables: one generic spectral draw per size, in order; an
    empty level draws nothing."""
    return [random_spectral(rng, int(size)) if size else [] for size in sizes]

