"""Deterministic residual checks bundled into named suites.

A check is declared once, where it is defined, with
``@check(suite, name, relation, floor)``; the declarations build
``REGISTRY`` in file order.  The runner calls it as ``fn(cfg, rng)``
with a generator seeded jointly by the global seed and the stream name
``suite:name``, so a report depends only on the configuration: worker
count, scheduling order, and suite selection cannot change any number in
it.  ``n`` and ``shape`` select the module of every check that reads
one; a check's own default case list applies only when both are unset.

Most checks draw their inputs through one of two generators, and the
order of the draws is part of the report:

- ``_shape_points`` walks the ranks and module shapes, asks the check's
  filter before drawing anything, and yields ``(params, shape, us,
  dyn)``: first the n spectral points, then the dynamical vector.  A
  check draws its level variables itself, after those.
- ``_module_samples`` walks the ranks and module sizes and, for each
  evaluation, draws n spectral points, then the check's current
  variables, then the dynamical vector, all of them again whenever the
  evaluation raises ResampleNeeded.

The rmatrix checks draw the dynamical vector first; the theta and
shuffle checks and the remaining gt checks draw their own inputs.

A check is a generator that yields once per evaluated case: one
residual, or several together (a tuple or the values of a report dict)
when a case compares more than one thing.  The runner folds them in one
place: the sample count is the number of yields and the residual is the
largest value yielded, except that any NaN makes it NaN.  A check passes
only when it yielded at least once and that residual is finite and
within the configured tolerance.  An exception raised inside a check
fails its case with residual NaN, the samples yielded before it, and its
type and message as the case's ``error``; the other cases still run.
KeyboardInterrupt and SystemExit propagate.

The ``inject_bug`` switch negates one exchange-matrix entry for the
duration of a run.  It exists to demonstrate that the harness fails
when the library is wrong; with it enabled the exchange-consistency
checks must report large residuals.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, fields
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from . import rmatrix as _rmatrix_module
from .currents import (
    ef_commutator_report,
    highest_weight_report,
    partial_fraction_defect,
)
from .gtrep import (
    ResampleNeeded,
    check_center,
    gauss_extract,
    gt_commutativity_defect,
    half_current_coefficients,
    halfcurrent_oracle_defect,
    l_operator_blocks,
    reassembly_defect,
    tail_ratios,
    verify_halfcurrent_relations,
    verify_rll,
    x_matrix_via_recursion,
    x_matrix_via_weights,
)
from .partitions import (
    IndexPartition,
    all_partitions,
    compositions,
    dynamical_shift,
    dynamical_shift_closed,
    leq,
    max_partition,
    partitions_with_shape,
)
from .rmatrix import (
    dybe_residual,
    dybe_sides,
    entry_b_bar,
    entry_c,
    entry_c_bar,
    permutation_matrix,
    random_dynamical,
    random_levels,
    random_spectral,
    rbar_matrix,
    relative_defect,
    scalar_defect,
    unitarity_residual,
    worst_residual,
)
from .shuffle import (
    expansion_residual,
    from_weight_function,
    star,
    star_product,
    symmetry_defect,
    tilde_expansion,
    unit,
)
from .theta import (
    EllipticParams,
    bracket,
    bracket_deriv_zero,
    bracket_ratio_plus,
    rho_minus,
    rho_plus,
)
from .weights import (
    diagonal_value,
    e_factor,
    orthogonality_defect,
    quasi_periodicity_defect,
    specialization_point,
    stab_restriction,
    stable_basis_round_trip_defect,
    transition_defect,
    weight_function,
    weight_row,
)

SUITES: tuple[str, ...] = ("theta", "rmatrix", "weights", "shuffle", "gt")

_RESAMPLE_ATTEMPTS = 12
_GENERIC_MARGIN = 0.12

# What a check yields per evaluated case: one residual, or all of its
# residuals at once.
Sample = float | Iterable[float]


@dataclass(frozen=True)
class VerifyConfig:
    """Resolved inputs of one verification run.

    ``rank`` (the matrix size N) and ``shape``/``n`` may be left unset;
    checks then sweep their default case lists (ranks 2 and 3, module
    sizes small enough for the stated runtime budgets).  All random
    draws are derived from ``seed``.
    """

    q: float = 0.5
    r: float = 3.0
    rank: int | None = None
    shape: tuple[int, ...] | None = None
    n: int | None = None
    seed: int = 2026
    tol: float = 1e-8
    samples: int = 50
    truncation_order: int | None = None
    inject_bug: bool = False

    def __post_init__(self) -> None:
        if self.shape is not None and self.rank is not None:
            if len(self.shape) != self.rank:
                raise ValueError("shape length must equal the rank N")
        if self.shape is not None and self.n is not None:
            if sum(self.shape) != self.n:
                raise ValueError("shape must sum to the module size n")
        if self.shape is not None and any(size < 0 for size in self.shape):
            raise ValueError("block sizes must be nonnegative")
        if min(self.sizes(1)) < 1:
            raise ValueError("module size n must be at least 1")
        if self.samples < 1:
            raise ValueError("samples must be positive")
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")
        for rank in self.ranks():
            self.params(rank)

    def ranks(self) -> tuple[int, ...]:
        if self.rank is not None:
            return (self.rank,)
        if self.shape is not None:
            return (len(self.shape),)
        return (2, 3)

    def params(self, rank: int) -> EllipticParams:
        return EllipticParams(
            q=self.q,
            r=self.r,
            N=rank,
            truncation_order=self.truncation_order,
        )

    def sizes(self, cap: int) -> tuple[int, ...]:
        if self.n is not None:
            return (self.n,)
        if self.shape is not None:
            return (sum(self.shape),)
        return tuple(range(1, cap + 1))

    def shapes(self, rank: int, cap: int) -> list[tuple[int, ...]]:
        if self.shape is not None:
            if len(self.shape) != rank:
                return []
            return [tuple(self.shape)]
        out: list[tuple[int, ...]] = []
        for n in self.sizes(cap):
            out.extend(compositions(n, rank))
        return out


@dataclass(frozen=True)
class CheckResult:
    name: str
    relation: str
    residual: float
    samples: int
    tol: float
    passed: bool
    error: str | None = None


def config_lines(cfg: VerifyConfig) -> list[str]:
    """Canonical flat key=value rendering of a configuration."""
    out = []
    for field in fields(cfg):
        value = getattr(cfg, field.name)
        if isinstance(value, tuple):
            rendered = ",".join(str(part) for part in value)
        else:
            rendered = repr(value)
        out.append(f"{field.name}={rendered}")
    return out


def config_digest(cfg: VerifyConfig) -> str:
    blob = "\n".join(config_lines(cfg)).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _rng(cfg: VerifyConfig, name: str) -> np.random.Generator:
    blob = f"{cfg.seed}:{name}".encode()
    digest = hashlib.sha256(blob).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def _generic_complex(rng: np.random.Generator) -> complex:
    """A point whose real part keeps ``_GENERIC_MARGIN`` off the integers."""
    for _ in range(1000):
        value = float(rng.uniform(-1.5, 1.5))
        if _GENERIC_MARGIN < value % 1.0 < 1.0 - _GENERIC_MARGIN:
            return complex(value, float(rng.uniform(-0.25, 0.25)))
    raise RuntimeError("failed to sample a generic real value")


def _defect(got: complex, want: complex) -> float:
    """``|got - want|`` relative to ``|want|``, or absolute below 1.

    Python's ``abs``, not ``np.abs``: on complex input the two differ in
    the last bit, and every residual in the report would move.
    """
    return abs(got - want) / max(1.0, abs(want))


@contextmanager
def negated_exchange_entry() -> Iterator[None]:
    """Temporarily negate one entry function of the exchange matrix."""
    original = _rmatrix_module.entry_b

    def negated(params: EllipticParams, u: complex, s: complex) -> complex:
        return -original(params, u, s)

    _rmatrix_module.entry_b = negated
    try:
        yield
    finally:
        _rmatrix_module.entry_b = original


# ---------------------------------------------------------------------------
# registry

Rng = np.random.Generator
CheckFn = Callable[[VerifyConfig, Rng], Iterator[Sample]]
Check = tuple[str, str, float, CheckFn]

# Per suite, in declaration order: (name, relation, tolerance floor,
# function).  The floor is the minimum effective tolerance; it is nonzero
# exactly for checks that solve linear systems, where conditioning, not
# the identity itself, limits the attainable residual.
REGISTRY: dict[str, tuple[Check, ...]] = {suite: () for suite in SUITES}

# The floor of the checks that solve linear systems; the table commands
# of the CLI grade against it too.
INVERSION_TOL = 1e-6


def check(
    suite: str, name: str, relation: str, floor: float = 0.0
) -> Callable[[CheckFn], CheckFn]:
    """Declare the decorated function as the check ``suite:name``.

    The runner calls it as ``fn(cfg, rng)`` with the generator of the
    stream ``suite:name``, so no two checks share samples.
    """

    def register(fn: CheckFn) -> CheckFn:
        if any(entry[0] == name for entry in REGISTRY[suite]):
            raise ValueError(f"check {suite}:{name} is already registered")
        REGISTRY[suite] += ((name, relation, floor, fn),)
        return fn

    return register


# ---------------------------------------------------------------------------
# theta suite


@check("theta", "bracket-oddness", "odd-function")
def _check_bracket_oddness(cfg: VerifyConfig, rng: Rng) -> Iterator[Sample]:
    params = cfg.params(cfg.ranks()[0])
    for _ in range(cfg.samples):
        u = _generic_complex(rng)
        yield _defect(bracket(params, -u), -bracket(params, u))


@check("theta", "bracket-real-shift", "quasi-periodicity-real-period")
def _check_bracket_real_shift(cfg: VerifyConfig, rng: Rng) -> Iterator[Sample]:
    params = cfg.params(cfg.ranks()[0])
    for _ in range(cfg.samples):
        u = _generic_complex(rng)
        yield _defect(bracket(params, u + params.r), -bracket(params, u))


@check("theta", "bracket-modular-shift", "quasi-periodicity-modular-period")
def _check_bracket_modular_shift(cfg: VerifyConfig, rng: Rng) -> Iterator[Sample]:
    params = cfg.params(cfg.ranks()[0])
    tau = params.tau
    for _ in range(cfg.samples):
        u = _generic_complex(rng)
        mult = -np.exp(-1j * np.pi * tau) * np.exp(
            -2j * np.pi * u / params.r
        )
        yield _defect(bracket(params, u + params.r * tau), mult * bracket(params, u))


@check("theta", "bracket-derivative-zero", "derivative-closed-form")
def _check_bracket_derivative(cfg: VerifyConfig, _: Rng) -> Iterator[Sample]:
    step = 1e-5
    for rank in cfg.ranks():
        params = cfg.params(rank)
        finite = (bracket(params, step) - bracket(params, -step)) / (
            2.0 * step
        )
        yield _defect(finite, bracket_deriv_zero(params))


@check("theta", "truncation-stability", "product-truncation-convergence")
def _check_truncation_stability(cfg: VerifyConfig, rng: Rng) -> Iterator[Sample]:
    rank = cfg.ranks()[0]
    adaptive = EllipticParams(q=cfg.q, r=cfg.r, N=rank)
    forced = EllipticParams(q=cfg.q, r=cfg.r, N=rank, truncation_order=96)
    for _ in range(cfg.samples):
        u = _generic_complex(rng)
        yield _defect(bracket(adaptive, u), bracket(forced, u))


@check("theta", "ratio-sign-agreement", "expansion-coefficient-signs")
def _check_ratio_sign_agreement(cfg: VerifyConfig, rng: Rng) -> Iterator[Sample]:
    # The "-" expansion of [s+v]/([s][v]) is the "+" one at v + r.
    params = cfg.params(cfg.ranks()[0])
    for _ in range(cfg.samples):
        s = _generic_complex(rng)
        v = _generic_complex(rng)
        plus = bracket_ratio_plus(params, s, v)
        yield _defect(bracket_ratio_plus(params, s, v + params.r), plus)


# ---------------------------------------------------------------------------
# rmatrix suite


@check("rmatrix", "exchange-consistency", "dynamical-yang-baxter")
def _check_exchange_consistency(cfg: VerifyConfig, rng: Rng) -> Iterator[Sample]:
    for rank in cfg.ranks():
        params = cfg.params(rank)
        for _ in range(cfg.samples):
            dyn = random_dynamical(rng, params)
            us = tuple(random_spectral(rng, 3))
            yield dybe_residual(params, us, dyn)


@check("rmatrix", "dressed-exchange-consistency", "dynamical-yang-baxter-dressed")
def _check_dressed_exchange(cfg: VerifyConfig, rng: Rng) -> Iterator[Sample]:
    # A dressing rho(u) of every gate scales both sides by one product.
    reps = max(3, cfg.samples // 10)
    dressings = (rho_plus, rho_minus, partial(rho_minus, variant="power"))
    for rank in cfg.ranks():
        params = cfg.params(rank)
        for rho in dressings:
            for _ in range(reps):
                dyn = random_dynamical(rng, params)
                u1, u2, u3 = us = tuple(random_spectral(rng, 3))
                scale = rho(params, u1 - u2) * rho(params, u1 - u3)
                scale *= rho(params, u2 - u3)
                lhs, rhs = dybe_sides(params, us, dyn)
                yield relative_defect(scale * lhs, scale * rhs)


@check("rmatrix", "inversion", "unitarity")
def _check_inversion(cfg: VerifyConfig, rng: Rng) -> Iterator[Sample]:
    for rank in cfg.ranks():
        params = cfg.params(rank)
        for _ in range(cfg.samples):
            dyn = random_dynamical(rng, params)
            (u,) = random_spectral(rng, 1)
            yield unitarity_residual(params, u, dyn)


@check("rmatrix", "zero-point-permutation", "permutation-limit")
def _check_permutation_limit(cfg: VerifyConfig, rng: Rng) -> Iterator[Sample]:
    for rank in cfg.ranks():
        params = cfg.params(rank)
        dyn = random_dynamical(rng, params)
        got = rbar_matrix(params, 0.0, dyn)
        want = permutation_matrix(params)
        yield float(np.max(np.abs(got - want)))


# ---------------------------------------------------------------------------
# weights suite


def _shape_points(
    cfg: VerifyConfig,
    rng: Rng,
    cap: int | Callable[[int], int],
    keep: Callable[[tuple[int, ...]], bool] = lambda shape: True,
) -> Iterator[tuple]:
    """``(params, shape, us, dyn)`` for each kept shape of each rank.

    ``cap`` (an int, or a function of the rank) bounds the module sizes
    of the default case list; ``--n`` and ``--lambda`` override it.
    ``keep`` is asked before anything is drawn, so a skipped shape draws
    nothing; a kept one draws its n spectral points ``us``, then the
    dynamical vector ``dyn``.
    """
    for rank in cfg.ranks():
        params = cfg.params(rank)
        for shape in cfg.shapes(rank, cap(rank) if callable(cap) else cap):
            if keep(shape):
                us = random_spectral(rng, sum(shape))
                yield params, shape, us, random_dynamical(rng, params)


@check("weights", "index-shift-closed-form", "dynamical-shift-closed-form")
def _check_index_shift(cfg: VerifyConfig, _: Rng) -> Iterator[Sample]:
    for rank in cfg.ranks():
        for n in cfg.sizes(5):
            for part in all_partitions(n, rank):
                for position in range(1, n + 1):
                    for label in range(1, rank + 1):
                        lhs = dynamical_shift(part, position, label)
                        rhs = dynamical_shift_closed(part, position, label)
                        yield float(abs(lhs - rhs))


@check("weights", "triangularity", "specialization-triangularity")
def _check_triangularity(cfg: VerifyConfig, rng: Rng) -> Iterator[Sample]:
    # A shape has two partitions exactly when two of its blocks are nonempty.
    points = _shape_points(cfg, rng, 4, lambda shape: len(shape) - shape.count(0) > 1)
    for params, shape, us, dyn in points:
        parts = partitions_with_shape(shape)
        for lower in parts:
            point = specialization_point(lower, us)
            uppers = [upper for upper in parts if not leq(lower, upper)]
            yield from np.abs(weight_row(params, uppers, point, us, dyn)).tolist()


@check("weights", "diagonal-closed-form", "specialization-diagonal")
def _check_diagonal_value(cfg: VerifyConfig, rng: Rng) -> Iterator[Sample]:
    for params, shape, us, dyn in _shape_points(cfg, rng, 4):
        for part in partitions_with_shape(shape):
            point = specialization_point(part, us)
            got = weight_function(params, part, point, us, dyn)
            yield _defect(got, diagonal_value(params, part, us))


@check("weights", "transition", "adjacent-exchange")
def _check_transition(cfg: VerifyConfig, rng: Rng) -> Iterator[Sample]:
    for params, shape, us, dyn in _shape_points(cfg, rng, 3, lambda s: sum(s) > 1):
        levels = random_levels(rng, max_partition(shape).cumulative_shape[:-1])
        for part in partitions_with_shape(shape):
            for position in range(1, sum(shape)):
                yield transition_defect(params, part, position, levels, us, dyn)


@check("weights", "orthogonality", "biorthogonality-grid")
def _check_orthogonality(cfg: VerifyConfig, rng: Rng) -> Iterator[Sample]:
    for params, shape, us, dyn in _shape_points(cfg, rng, 3):
        yield orthogonality_defect(params, shape, us, dyn)


@check("weights", "quasi-periodicity", "level-variable-shifts")
def _check_quasi_periodicity(cfg: VerifyConfig, rng: Rng) -> Iterator[Sample]:
    points = _shape_points(cfg, rng, 3, lambda shape: sum(shape) > 1 and 0 not in shape)
    for params, shape, us, dyn in points:
        part = max_partition(shape)
        levels = random_levels(rng, part.cumulative_shape[:-1])
        for level in range(1, params.N):
            for position in range(1, part.cumulative_shape[level - 1] + 1):
                yield quasi_periodicity_defect(
                    params, part, level, position, levels, us, dyn
                )


@check("weights", "envelope-restriction", "restriction-triangularity")
def _check_envelope_restriction(cfg: VerifyConfig, rng: Rng) -> Iterator[Sample]:
    for params, shape, us, dyn in _shape_points(cfg, rng, 2):
        parts = partitions_with_shape(shape)
        minus_us = [-u for u in us]
        for part in parts:
            reversed_part = part.sigma0()
            for at in parts:
                direct = stab_restriction(params, part, at, us, dyn)
                if not leq(part, at):
                    yield abs(direct)
                    continue
                # The restriction against two independent forms: the
                # closed diagonal value, and off the diagonal the
                # entire variant divided by its symmetric factor.
                if part == at:
                    via = diagonal_value(params, reversed_part, minus_us[::-1])
                else:
                    point = specialization_point(at, minus_us)
                    (entire,) = weight_row(
                        params,
                        [reversed_part],
                        point,
                        minus_us[::-1],
                        dyn.negated(),
                        "entire",
                    )
                    via = entire / e_factor(params, reversed_part, point)
                yield _defect(via, direct)


@check("weights", "stable-round-trip", "expand-restrict-identity")
def _check_stable_round_trip(cfg: VerifyConfig, rng: Rng) -> Iterator[Sample]:
    points = _shape_points(cfg, rng, lambda rank: 3 if rank == 2 else 2)
    for params, shape, us, dyn in points:
        yield stable_basis_round_trip_defect(params, shape, us, dyn)


# ---------------------------------------------------------------------------
# shuffle suite


@check("shuffle", "unit-laws", "two-sided-unit")
def _check_unit_laws(cfg: VerifyConfig, rng: Rng) -> Iterator[Sample]:
    for rank in cfg.ranks():
        params = cfg.params(rank)
        for word in ("1", "2", "12"):
            part = IndexPartition.from_word(word, rank)
            element = from_weight_function(params, part)
            us = random_spectral(rng, part.n)
            dyn = random_dynamical(rng, params)
            levels = random_levels(rng, part.cumulative_shape[:-1])
            base = element.evaluate(levels, us, dyn)
            left = star_product(
                params, unit(rank), element, levels, us, dyn
            )
            right = star_product(
                params, element, unit(rank), levels, us, dyn
            )
            yield _defect(left, base), _defect(right, base)


@check("shuffle", "associativity", "star-associativity")
def _check_associativity(cfg: VerifyConfig, rng: Rng) -> Iterator[Sample]:
    for rank in cfg.ranks():
        params = cfg.params(rank)
        words = ("1", "2", "1") if rank == 2 else ("1", "2", "3")
        elements = [
            from_weight_function(
                params, IndexPartition.from_word(word, rank)
            )
            for word in words
        ]
        combined_shape = [0] * rank
        for word in words:
            combined_shape[int(word) - 1] += 1
        us = random_spectral(rng, 3)
        dyn = random_dynamical(rng, params)
        levels = random_levels(rng, np.cumsum(combined_shape)[:-1])
        a, b, c = elements
        left = star_product(params, star(params, a, b), c, levels, us, dyn)
        right = star_product(params, a, star(params, b, c), levels, us, dyn)
        yield scalar_defect(left, right)


@check("shuffle", "closure-expansion", "basis-closure", INVERSION_TOL)
def _check_closure_expansion(cfg: VerifyConfig, rng: Rng) -> Iterator[Sample]:
    for rank in cfg.ranks():
        params = cfg.params(rank)
        pairs = (
            [("1", "2"), ("2", "1"), ("1", "1")]
            if rank == 2
            else [("1", "2"), ("2", "3")]
        )
        for left_word, right_word in pairs:
            left = from_weight_function(
                params, IndexPartition.from_word(left_word, rank)
            )
            right = from_weight_function(
                params, IndexPartition.from_word(right_word, rank)
            )
            product = star(params, left, right)
            us = random_spectral(rng, 2)
            dyn = random_dynamical(rng, params)
            parts, coeffs = tilde_expansion(params, product, us, dyn)
            for _ in range(2):
                levels = random_levels(rng, product.level_sizes)
                yield expansion_residual(
                    params, product, parts, coeffs, levels, us, dyn
                )


@check("shuffle", "level-symmetry", "variable-exchange-symmetry")
def _check_level_symmetry(cfg: VerifyConfig, rng: Rng) -> Iterator[Sample]:
    for rank in cfg.ranks():
        params = cfg.params(rank)
        part = IndexPartition.from_word("11", rank)
        element = from_weight_function(params, part)
        us = random_spectral(rng, 2)
        dyn = random_dynamical(rng, params)
        levels = random_levels(rng, part.cumulative_shape[:-1])
        yield symmetry_defect(element, levels, us, dyn, 1, 1, 2)


# ---------------------------------------------------------------------------
# gt suite


def _module_sizes(cfg: VerifyConfig, cap: int) -> Iterator[tuple[EllipticParams, int]]:
    for rank in cfg.ranks():
        params = cfg.params(rank)
        for n in cfg.sizes(cap):
            yield params, n


def _module_samples(
    cfg: VerifyConfig, rng: Rng, cap: int, k: int, *evaluations: Callable[..., Sample]
) -> Iterator[Sample]:
    """One sample per module size and evaluation, each on a draw of its own.

    A draw is the module's n spectral points ``us``, then ``k`` current
    variables ``vs``, then a dynamical vector ``dyn``, and the sample is
    ``evaluate(params, us, *vs, dyn)``.  An evaluation that raises
    ResampleNeeded (a pivot too ill conditioned) gets a whole new draw;
    after _RESAMPLE_ATTEMPTS refusals the sample is NaN, so the check
    fails, never passes silently, and the rest of the report is still
    produced.
    """
    for params, n in _module_sizes(cfg, cap):
        for evaluate in evaluations:
            sample: Sample = math.nan
            for _ in range(_RESAMPLE_ATTEMPTS):
                us = tuple(random_spectral(rng, n))
                vs = random_spectral(rng, k)
                dyn = random_dynamical(rng, params)
                try:
                    sample = evaluate(params, us, *vs, dyn)
                    break
                except ResampleNeeded:
                    pass
            yield sample


@check("gt", "exchange-on-module", "operator-exchange")
def _check_rll(cfg: VerifyConfig, rng: Rng) -> Iterator[Sample]:
    yield from _module_samples(cfg, rng, 2, 2, verify_rll)


@check("gt", "gauss-reassembly", "block-factorization", INVERSION_TOL)
def _check_reassembly(cfg: VerifyConfig, rng: Rng) -> Iterator[Sample]:
    def reassembled(*case) -> float:
        blocks = l_operator_blocks(*case)
        return reassembly_defect(blocks, gauss_extract(blocks))

    yield from _module_samples(cfg, rng, 3, 1, reassembled)


@check("gt", "eigenbasis-recursion", "change-of-basis-agreement", INVERSION_TOL)
def _check_eigenbasis_recursion(cfg: VerifyConfig, rng: Rng) -> Iterator[Sample]:
    for params, shape, us, dyn in _shape_points(cfg, rng, 4):
        via_recursion = x_matrix_via_recursion(params, shape, us, dyn)
        via_weights = x_matrix_via_weights(params, shape, us, dyn)
        yield relative_defect(via_recursion, via_weights)


@check("gt", "half-current-oracle", "closed-action-vs-blocks", INVERSION_TOL)
def _check_half_current_oracle(cfg: VerifyConfig, rng: Rng) -> Iterator[Sample]:
    # The second evaluation is the paper's "-" family: the same at v - r.
    def oracle(params, us, v, dyn) -> Sample:
        return halfcurrent_oracle_defect(params, us, v, dyn).values()

    def shifted(params, us, v, dyn) -> Sample:
        return oracle(params, us, v - params.r, dyn)

    yield from _module_samples(cfg, rng, 4, 1, oracle, shifted)


@check("gt", "half-current-relations", "adjacent-operator-relations")
def _check_half_current_relations(cfg: VerifyConfig, rng: Rng) -> Iterator[Sample]:
    def relations(params, us, v1, v2, dyn) -> Sample:
        return verify_halfcurrent_relations(params, us, dyn, v1, v2).values()

    yield from _module_samples(cfg, rng, 4, 2, relations)


@check("gt", "central-element", "scalar-action", INVERSION_TOL)
def _check_central_element(cfg: VerifyConfig, rng: Rng) -> Iterator[Sample]:
    yield from _module_samples(
        cfg, rng, 3, 1, lambda *case: check_center(*case)["defect"]
    )


@check("gt", "diagonal-commutativity", "commuting-family", INVERSION_TOL)
def _check_diagonal_commutativity(cfg: VerifyConfig, rng: Rng) -> Iterator[Sample]:
    yield from _module_samples(cfg, rng, 3, 2, gt_commutativity_defect)


@check("gt", "five-site-printed-actions", "closed-five-site-actions")
def _check_printed_actions(cfg: VerifyConfig, rng: Rng) -> Iterator[Sample]:
    """The four closed five-site actions on the decreasing word 32211."""
    params = cfg.params(3)
    part = IndexPartition((3, 2, 2, 1, 1), 3)
    us = tuple(random_spectral(rng, 5))
    (v,) = random_spectral(rng, 1)
    dyn = random_dynamical(rng, params)
    p23 = dyn.pair(2, 3)

    def bb(x: complex) -> complex:
        return entry_b_bar(params, x)

    def defects(got: dict, want: dict) -> Sample:
        # An action that reaches other words than the printed one fails
        # with residual 1.0.
        if set(got) != set(want):
            return 1.0
        return tuple(_defect(got[word], value) for word, value in want.items())

    got = half_current_coefficients(params, "K", 3, part, v, us, dyn)
    yield defects(
        got,
        {
            part.word: bb(us[1] - v)
            * bb(us[2] - v)
            * bb(us[3] - v)
            * bb(us[4] - v)
        },
    )

    got = half_current_coefficients(params, "E", 2, part, v, us, dyn)
    yield defects(
        got,
        {(2, 2, 2, 1, 1): entry_c_bar(params, us[0] - v, p23) / bb(us[0] - v)},
    )

    got = half_current_coefficients(params, "F", 2, part, v, us, dyn)
    yield defects(
        got,
        {
            (3, 3, 2, 1, 1): entry_c(params, us[1] - v, p23)
            / bb(us[1] - v)
            / bb(us[2] - us[1]),
            (3, 2, 3, 1, 1): entry_c(params, us[2] - v, p23)
            / bb(us[2] - v)
            / bb(us[1] - us[2]),
        },
    )

    got = half_current_coefficients(params, "K", 2, part, v, us, dyn)
    yield defects(
        got, {part.word: bb(us[3] - v) * bb(us[4] - v) / bb(-us[0] + v)}
    )


@check("gt", "partial-fractions", "ratio-product-expansion")
def _check_partial_fractions(cfg: VerifyConfig, rng: Rng) -> Iterator[Sample]:
    params = cfg.params(cfg.ranks()[0])
    for m, n in ((1, 1), (1, 3), (2, 3), (3, 4)):
        for _ in range(max(2, cfg.samples // 10)):
            us = tuple(random_spectral(rng, n))
            (v,) = random_spectral(rng, 1)
            yield partial_fraction_defect(params, us, m, v)


@check("gt", "current-commutators", "raising-lowering-commutator")
def _check_ef_commutator(cfg: VerifyConfig, rng: Rng) -> Iterator[Sample]:
    for rank in cfg.ranks():
        params = cfg.params(rank)
        shapes = cfg.shapes(rank, 2)
        if cfg.shape is None and cfg.n is None:
            shapes = (
                [(1, 1), (2, 1), (2, 2)]
                if rank == 2
                else [(1, 1, 1), (2, 1, 1)]
            )
        for shape in shapes:
            if 0 in shape:
                continue
            n = sum(shape)
            tails = tail_ratios(params, random_spectral(rng, n))
            for part in partitions_with_shape(shape):
                for i in range(1, rank):
                    for j in range(1, rank):
                        report = ef_commutator_report(params, i, j, part, tails)
                        yield report["offdiag"], report["diag"]


@check("gt", "highest-weight", "generating-vector-data")
def _check_highest_weight(cfg: VerifyConfig, rng: Rng) -> Iterator[Sample]:
    for params, n in _module_sizes(cfg, cap=3):
        if cfg.shape is None and cfg.n is None and n != 3:
            continue
        us = tuple(random_spectral(rng, n))
        (v,) = random_spectral(rng, 1)
        report = highest_weight_report(params, us, v)
        yield report["raising_terms"], report["h_defect"]


# ---------------------------------------------------------------------------
# runner


def run_check(cfg: VerifyConfig, suite: str, name: str) -> CheckResult:
    """Run one named check and grade it against the effective tolerance."""
    for check_name, relation, floor, fn in REGISTRY[suite]:
        if check_name == name:
            rng = _rng(cfg, f"{suite}:{name}")
            samples: list[Iterable[float]] = []
            error = None
            try:
                with negated_exchange_entry() if cfg.inject_bug else nullcontext():
                    for sample in fn(cfg, rng):
                        samples.append(
                            sample if isinstance(sample, Iterable) else (sample,)
                        )
            except Exception as exc:
                # The case fails, NaN, with the samples it yielded so far;
                # the rest of the report is still written.
                error = f"{type(exc).__name__}: {exc}"
            residual = (
                math.nan
                if error
                else float(worst_residual(value for s in samples for value in s))
            )
            effective_tol = max(cfg.tol, floor)
            return CheckResult(
                name=name,
                relation=relation,
                residual=residual,
                samples=len(samples),
                tol=effective_tol,
                # False for NaN too, and infinity exceeds any tolerance;
                # a check that evaluated nothing has shown nothing.
                passed=bool(samples) and residual <= effective_tol,
                error=error,
            )
    raise KeyError(f"unknown check {suite}:{name}")


def _run_task(task: tuple[VerifyConfig, str, str]) -> tuple[str, str, CheckResult]:
    cfg, suite, name = task
    return suite, name, run_check(cfg, suite, name)


def run_suites(
    cfg: VerifyConfig,
    suites: Sequence[str] | None = None,
    workers: int = 1,
) -> dict:
    """Run the selected suites and assemble the report dictionary.

    Results are keyed and ordered by the registry, so the report is
    identical for any worker count.
    """
    selected = tuple(suites) if suites else SUITES
    for suite in selected:
        if suite not in REGISTRY:
            raise KeyError(f"unknown suite {suite!r}")
    tasks = [
        (cfg, suite, name)
        for suite in selected
        for name, _, _, _ in REGISTRY[suite]
    ]
    results: dict[tuple[str, str], CheckResult] = {}
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for suite, name, result in pool.map(_run_task, tasks):
                results[(suite, name)] = result
    else:
        for task in tasks:
            suite, name, result = _run_task(task)
            results[(suite, name)] = result

    suite_reports = []
    for suite in selected:
        cases = []
        for name, _, _, _ in REGISTRY[suite]:
            result = results[(suite, name)]
            cases.append(
                {
                    "name": result.name,
                    "relation": result.relation,
                    "residual": result.residual,
                    "samples": result.samples,
                    "tol": result.tol,
                    "pass": result.passed,
                    "error": result.error,
                }
            )
        suite_reports.append(
            {
                "suite": suite,
                "cases": cases,
                "max_residual": worst_residual(case["residual"] for case in cases),
                "seed": cfg.seed,
            }
        )
    return {
        "version": __version__,
        "config_digest": config_digest(cfg),
        "seed": cfg.seed,
        "tol": cfg.tol,
        "suites": suite_reports,
        "max_residual": worst_residual(entry["max_residual"] for entry in suite_reports),
        "pass": all(result.passed for result in results.values()),
    }
