"""Acceptance suite: one test per contract criterion, at the stated
tolerance, each printing a single pass/fail summary line.

Criteria with matrix inversion in the evaluation path run at 1e-6;
everything else runs at 1e-8 unless a tighter bound is stated.
"""

import json
import time

import numpy as np

from ellgt.currents import (
    diagonal_eigenvalue,
    ef_commutator_report,
    highest_weight_report,
    partial_fraction_defect,
    scaling_constant,
)
from ellgt.gtrep import (
    ResampleNeeded,
    check_center,
    gt_commutativity_defect,
    half_current_coefficients,
    halfcurrent_oracle_defect,
    tail_ratios,
    verify_halfcurrent_relations,
    x_matrix_via_recursion,
    x_matrix_via_weights,
)
from ellgt.partitions import (
    IndexPartition,
    all_partitions,
    compositions,
    dynamical_shift,
    dynamical_shift_closed,
    leq,
    max_partition,
    partitions_with_shape,
)
from ellgt.rmatrix import (
    DynamicalParameter,
    dybe_residual,
    entry_b_bar,
    entry_c,
    entry_c_bar,
    random_dynamical,
    random_spectral,
    rbar_matrix,
    unitarity_residual,
)
from ellgt.shuffle import (
    from_weight_function,
    star,
    star_product,
    tilde_expansion,
    expansion_residual,
    unit,
)
from ellgt.theta import EllipticParams, bracket
from ellgt.verify import SUITES, VerifyConfig, run_suites
from ellgt.weights import (
    diagonal_value,
    orthogonality_defect,
    quasi_periodicity_defect,
    specialization_point,
    stable_basis_round_trip_defect,
    transition_defect,
    weight_function,
)

SEED = 2026
TOL = 1e-8
TOL_INV = 1e-6

PAR = {N: EllipticParams(q=0.5, r=3.0, N=N) for N in (2, 3)}


def _rng(tag: str) -> np.random.Generator:
    return np.random.default_rng([SEED, hash(tag) % (2**31)])


def _line(label: str, worst: float, tol: float) -> None:
    state = "pass" if worst <= tol else "FAIL"
    print(f"criterion {label}: {state} (max residual {worst:.3e},"
          f" tol {tol:.1e})")
    assert worst <= tol


def _resample(draw, attempts: int = 12) -> float:
    last = None
    for _ in range(attempts):
        try:
            return draw()
        except ResampleNeeded as exc:
            last = exc
    raise RuntimeError(f"no well-conditioned sample: {last}")


class TestAcceptance:
    def test_criterion_01_special_functions(self):
        rng = _rng("special-functions")
        start = time.perf_counter()
        worst = 0.0
        for N in (2, 3):
            params = PAR[N]
            tau = params.tau
            r = params.r
            for _ in range(60):
                u = complex(rng.uniform(-2.0, 2.0), rng.uniform(-0.3, 0.3))
                b = bracket(params, u)
                scale = max(1.0, abs(b))
                worst = max(
                    worst,
                    abs(bracket(params, -u) + b) / scale,
                    abs(bracket(params, u + r) + b) / scale,
                    abs(
                        bracket(params, u + r * tau)
                        + np.exp(-1j * np.pi * tau)
                        * np.exp(-2j * np.pi * u / r)
                        * b
                    ) / scale,
                )
        _line("01 special-functions identities", worst, TOL)

        truncation_worst = 0.0
        coarse = {
            N: EllipticParams(q=0.5, r=3.0, N=N, truncation_order=96)
            for N in (2, 3)
        }
        for N in (2, 3):
            for _ in range(20):
                u = complex(rng.uniform(-2.0, 2.0), rng.uniform(-0.3, 0.3))
                a = bracket(PAR[N], u)
                b = bracket(coarse[N], u)
                truncation_worst = max(
                    truncation_worst, abs(a - b) / max(1.0, abs(a))
                )
        _line("01 truncation stability", truncation_worst, 1e-10)
        elapsed = time.perf_counter() - start
        _line("01 runtime seconds", elapsed, 1.0)

    def test_criterion_02_exchange_and_inversion(self):
        rng = _rng("exchange")
        start = time.perf_counter()
        worst = 0.0
        for N in (2, 3):
            params = PAR[N]
            for _ in range(100):
                us = tuple(random_spectral(rng, 3))
                dyn = random_dynamical(rng, params)
                worst = max(worst, dybe_residual(params, us, dyn))
                (u,) = random_spectral(rng, 1)
                worst = max(worst, unitarity_residual(params, u, dyn))
        _line("02 exchange + inversion over 100 samples", worst, TOL)

        for N in (2, 3):
            params = PAR[N]
            dyn = random_dynamical(rng, params)
            matrix = rbar_matrix(params, 0.0, dyn)
            perm = np.zeros((N * N, N * N))
            for mu in range(N):
                for nu in range(N):
                    perm[mu * N + nu, nu * N + mu] = 1.0
            assert np.array_equal(matrix, perm), f"zero point N={N}"
        print("criterion 02 zero-point permutation: pass (exact)")
        elapsed = time.perf_counter() - start
        _line("02 runtime seconds", elapsed, 10.0)

    def test_criterion_03_dynamical_shift_closed_form(self):
        mismatches = 0
        count = 0
        for N in (2, 3):
            for n in range(1, 6):
                for part in all_partitions(n, N):
                    for position in range(1, n + 1):
                        for label in range(1, N + 1):
                            lhs = dynamical_shift(part, position, label)
                            rhs = dynamical_shift_closed(
                                part, position, label
                            )
                            count += 1
                            if lhs != rhs:
                                mismatches += 1
        print(
            f"criterion 03 shift closed form: "
            f"{'pass' if mismatches == 0 else 'FAIL'}"
            f" ({count} exhaustive cases, {mismatches} mismatches)"
        )
        assert mismatches == 0

    def test_criterion_04_triangularity_and_diagonal(self):
        rng = _rng("triangularity")
        nonzero = 0
        pairs = 0
        diag_worst = 0.0
        for N in (2, 3):
            params = PAR[N]
            for n in range(1, 5):
                us = tuple(random_spectral(rng, n))
                dyn = random_dynamical(rng, params)
                for shape in compositions(n, N):
                    parts = partitions_with_shape(shape)
                    for lower in parts:
                        point = specialization_point(lower, us)
                        for upper in parts:
                            if leq(lower, upper):
                                continue
                            pairs += 1
                            value = weight_function(
                                params, upper, point, us, dyn
                            )
                            if value != 0:
                                nonzero += 1
                    for part in parts:
                        point = specialization_point(part, us)
                        got = weight_function(params, part, point, us, dyn)
                        want = diagonal_value(params, part, us)
                        diag_worst = max(
                            diag_worst,
                            abs(got - want) / max(1.0, abs(want)),
                        )
        print(
            f"criterion 04 triangular zeros: "
            f"{'pass' if nonzero == 0 else 'FAIL'}"
            f" ({pairs} strict pairs, {nonzero} nonzero)"
        )
        assert nonzero == 0
        _line("04 diagonal product formula", diag_worst, TOL)

    def test_criterion_05_transition_orthogonality_periodicity(self):
        rng = _rng("transition")
        worst = 0.0
        for N in (2, 3):
            params = PAR[N]
            for n in range(2, 4):
                for shape in compositions(n, N):
                    us = tuple(random_spectral(rng, n))
                    dyn = random_dynamical(rng, params)
                    levels = [
                        list(random_spectral(rng, size)) if size else []
                        for size in max_partition(
                            shape
                        ).cumulative_shape[:-1]
                    ]
                    for part in partitions_with_shape(shape):
                        for position in range(1, n):
                            worst = max(
                                worst,
                                transition_defect(
                                    params, part, position,
                                    levels, us, dyn,
                                ),
                            )
        _line("05 adjacent transition", worst, TOL)

        ortho_worst = 0.0
        for N in (2, 3):
            params = PAR[N]
            for n in range(1, 4):
                for shape in compositions(n, N):
                    us = tuple(random_spectral(rng, n))
                    dyn = random_dynamical(rng, params)
                    ortho_worst = max(
                        ortho_worst,
                        orthogonality_defect(params, shape, us, dyn),
                    )
        _line("05 orthogonality grid vs identity", ortho_worst, TOL)

        qp_worst = 0.0
        for N in (2, 3):
            params = PAR[N]
            for n in range(2, 4):
                for shape in compositions(n, N):
                    if 0 in shape:
                        continue
                    part = max_partition(shape)
                    us = tuple(random_spectral(rng, n))
                    dyn = random_dynamical(rng, params)
                    levels = [
                        list(random_spectral(rng, size)) if size else []
                        for size in part.cumulative_shape[:-1]
                    ]
                    for level in range(1, N):
                        for position in range(
                            1, part.cumulative_shape[level - 1] + 1
                        ):
                            defect_r, defect_t = quasi_periodicity_defect(
                                params, part, level, position,
                                levels, us, dyn,
                            )
                            qp_worst = max(qp_worst, defect_r, defect_t)
        _line("05 quasi-periodicity both shifts", qp_worst, TOL)

    def test_criterion_06_change_of_basis_and_printed_example(self):
        rng = _rng("change-of-basis")
        worst = 0.0
        for N in (2, 3):
            params = PAR[N]
            for n in range(1, 5):
                us = tuple(random_spectral(rng, n))
                dyn = random_dynamical(rng, params)
                for shape in compositions(n, N):
                    via_rec = x_matrix_via_recursion(
                        params, shape, us, dyn
                    )
                    via_wts = x_matrix_via_weights(params, shape, us, dyn)
                    scale = max(1.0, np.max(np.abs(via_rec)))
                    worst = max(
                        worst,
                        float(np.max(np.abs(via_rec - via_wts))) / scale,
                    )
        _line("06 recursion vs weights matrices", worst, TOL)

        params = PAR[2]
        us = tuple(random_spectral(rng, 3))
        dyn = random_dynamical(rng, params)
        s = dyn.pair(1, 2)

        def u(i, j):
            return us[i - 1] - us[j - 1]

        def bb(x):
            return entry_b_bar(params, x)

        expected = np.array(
            [
                [
                    bb(u(1, 3)) * bb(u(2, 3)),
                    bb(u(1, 3)) * entry_c(params, u(2, 3), s + 1),
                    entry_c(params, u(1, 3), s),
                ],
                [0.0, bb(u(1, 2)), entry_c(params, u(1, 2), s)],
                [0.0, 0.0, 1.0],
            ],
            dtype=complex,
        )
        got = x_matrix_via_recursion(params, (2, 1), us, dyn)
        printed_defect = float(np.max(np.abs(got - expected)))
        _line("06 printed three-site matrix", printed_defect, TOL)

        def br(x):
            return bracket(params, x)

        parts = partitions_with_shape((2, 1))
        by_word = {part.word_string(): part for part in parts}
        one = br(1.0)
        printed = {
            ("211", "211"): 1.0,
            ("121", "211"): br(s - 1 + u(2, 1)) * one
            / (br(u(2, 1) + 1) * br(s - 1)),
            ("121", "121"): br(u(2, 1)) / br(u(2, 1) + 1),
            ("112", "211"): br(s - 1 + u(3, 1)) * one
            / (br(u(3, 1) + 1) * br(s - 1)),
            ("112", "121"): (br(u(3, 1)) / br(u(3, 1) + 1))
            * br(s + u(3, 2)) * one / (br(u(3, 2) + 1) * br(s)),
            ("112", "112"): (br(u(3, 1)) / br(u(3, 1) + 1))
            * (br(u(3, 2)) / br(u(3, 2) + 1)),
        }
        table_defect = 0.0
        for (anchor, func), want in printed.items():
            point = specialization_point(by_word[anchor], us)
            got_entry = weight_function(
                params, by_word[func], point, us, dyn, "tilde"
            )
            table_defect = max(
                table_defect, abs(got_entry - want) / max(1.0, abs(want))
            )
        for anchor, func in (
            ("211", "121"),
            ("211", "112"),
            ("121", "112"),
        ):
            point = specialization_point(by_word[anchor], us)
            got_entry = weight_function(
                params, by_word[func], point, us, dyn, "tilde"
            )
            table_defect = max(table_defect, abs(got_entry))
        _line("06 printed triangular table", table_defect, TOL)

    def test_criterion_07_half_current_actions(self):
        rng = _rng("half-currents")
        worst = 0.0
        for N in (2, 3):
            params = PAR[N]
            for n in range(1, 5):
                # The paper's "-" family is the "+" one at v - r.
                for periods in (0, 1):

                    def draw():
                        us = tuple(random_spectral(rng, n))
                        (v,) = random_spectral(rng, 1)
                        dyn = random_dynamical(rng, params)
                        report = halfcurrent_oracle_defect(
                            params, us, v - periods * params.r, dyn
                        )
                        return max(report.values())

                    worst = max(worst, _resample(draw))
        _line("07 closed actions vs block extraction", worst, TOL_INV)

        params = PAR[3]
        part = IndexPartition((3, 2, 2, 1, 1), 3)
        us = tuple(random_spectral(rng, 5))
        (v,) = random_spectral(rng, 1)
        dyn = random_dynamical(rng, params)
        s = dyn.pair(2, 3)

        def bb(x):
            return entry_b_bar(params, x)

        printed_defect = 0.0
        got = half_current_coefficients(params, "K", 3, part, v, us, dyn)
        want = (
            bb(us[1] - v) * bb(us[2] - v) * bb(us[3] - v) * bb(us[4] - v)
        )
        assert set(got) == {part.word}
        printed_defect = max(
            printed_defect,
            abs(got[part.word] - want) / max(1.0, abs(want)),
        )

        got = half_current_coefficients(params, "E", 2, part, v, us, dyn)
        want = entry_c_bar(params, us[0] - v, s) / bb(us[0] - v)
        assert set(got) == {(2, 2, 2, 1, 1)}
        printed_defect = max(
            printed_defect,
            abs(got[(2, 2, 2, 1, 1)] - want) / max(1.0, abs(want)),
        )

        got = half_current_coefficients(params, "F", 2, part, v, us, dyn)
        want_1 = (
            entry_c(params, us[1] - v, s)
            / bb(us[1] - v)
            / bb(us[2] - us[1])
        )
        want_2 = (
            entry_c(params, us[2] - v, s)
            / bb(us[2] - v)
            / bb(us[1] - us[2])
        )
        assert set(got) == {(3, 3, 2, 1, 1), (3, 2, 3, 1, 1)}
        printed_defect = max(
            printed_defect,
            abs(got[(3, 3, 2, 1, 1)] - want_1) / max(1.0, abs(want_1)),
            abs(got[(3, 2, 3, 1, 1)] - want_2) / max(1.0, abs(want_2)),
        )

        got = half_current_coefficients(params, "K", 2, part, v, us, dyn)
        want = bb(us[3] - v) * bb(us[4] - v) / bb(-us[0] + v)
        printed_defect = max(
            printed_defect,
            abs(got[part.word] - want) / max(1.0, abs(want)),
        )
        _line("07 printed five-site actions", printed_defect, TOL)

    def test_criterion_08_half_current_relations(self):
        rng = _rng("relations")
        worst = 0.0
        for N in (2, 3):
            params = PAR[N]
            for n in range(1, 5):
                us = tuple(random_spectral(rng, n))
                v1, v2 = random_spectral(rng, 2)
                dyn = random_dynamical(rng, params)
                report = verify_halfcurrent_relations(
                    params, us, dyn, v1, v2
                )
                worst = max(worst, max(report.values()))
        _line("08 five operator relations", worst, TOL)

    def test_criterion_09_partial_fractions_and_commutators(self):
        rng = _rng("partial-fractions")
        pf_worst = 0.0
        params = PAR[2]
        for m, n in ((1, 1), (1, 3), (2, 3), (3, 4)):
            for _ in range(10):
                us = tuple(random_spectral(rng, n))
                (v,) = random_spectral(rng, 1)
                pf_worst = max(
                    pf_worst, partial_fraction_defect(params, us, m, v)
                )
        _line("09 partial fraction expansion", pf_worst, 1e-10)

        off_worst = 0.0
        diag_worst = 0.0
        for N in (2, 3):
            params = PAR[N]
            shapes = (
                [(1, 1), (2, 1), (2, 2)]
                if N == 2
                else [(1, 1, 1), (2, 1, 1)]
            )
            for shape in shapes:
                tails = tail_ratios(params, random_spectral(rng, sum(shape)))
                for part in partitions_with_shape(shape):
                    for i in range(1, N):
                        for j in range(1, N):
                            report = ef_commutator_report(
                                params, i, j, part, tails
                            )
                            if i == j:
                                diag_worst = max(
                                    diag_worst, report["diag"]
                                )
                            off_worst = max(off_worst, report["offdiag"])
        _line("09 mixed-label commutators vanish", off_worst, TOL)
        _line("09 equal-label residue identity", diag_worst, TOL)

    def test_criterion_10_highest_weight_data(self):
        rng = _rng("highest-weight")
        h_worst = 0.0
        poly_worst = 0.0
        for N in (2, 3):
            params = PAR[N]
            us = tuple(random_spectral(rng, 3))
            (v,) = random_spectral(rng, 1)
            report = highest_weight_report(params, us, v)
            assert report["raising_terms"] == 0.0, f"raising terms N={N}"
            h_worst = max(h_worst, report["h_defect"])

            part = IndexPartition((1, 1, 1), N)
            rho = scaling_constant(params)
            top = np.prod([bracket(params, u - v + 1) for u in us])
            bottom = np.prod([bracket(params, u - v) for u in us])
            want = rho * top / bottom
            got = diagonal_eigenvalue(params, 1, part, v, us)
            poly_worst = max(
                poly_worst, abs(got - want) / max(1.0, abs(want))
            )
            for j in range(2, N):
                got = diagonal_eigenvalue(params, j, part, v, us)
                poly_worst = max(
                    poly_worst, abs(got - rho) / max(1.0, abs(rho))
                )
        print("criterion 10 raising currents annihilate: pass (exact)")
        _line("10 eigenvalues vs classifying polynomial",
              max(h_worst, poly_worst), TOL)

    def test_criterion_11_central_element(self):
        rng = _rng("central")
        worst = 0.0
        for N in (2, 3):
            params = PAR[N]
            for n in range(1, 4):

                def draw():
                    us = tuple(random_spectral(rng, n))
                    (v,) = random_spectral(rng, 1)
                    dyn = random_dynamical(rng, params)
                    return check_center(params, us, v, dyn)["defect"]

                worst = max(worst, _resample(draw))
        _line("11 determinant current is scalar", worst, TOL_INV)

    def test_criterion_12_round_trip_and_index_identity(self):
        rng = _rng("round-trip")
        worst = 0.0
        params = PAR[2]
        for n in range(1, 4):
            for shape in compositions(n, 2):
                us = tuple(random_spectral(rng, n))
                dyn = random_dynamical(rng, params)
                worst = max(
                    worst,
                    stable_basis_round_trip_defect(
                        params, shape, us, dyn
                    ),
                )
        _line("12 expand-restrict round trip", worst, TOL)

        def phi_map(part, level):
            lower = part.union(level)
            upper = part.union(level + 1)
            return [upper.index(i) + 1 for i in lower]

        violations = 0
        count = 0
        for N in (2, 3):
            for n in range(1, 6):
                for part in all_partitions(n, N):
                    tilde = part.sigma0()
                    cum = part.cumulative_shape
                    for level in range(1, N):
                        lam_l, lam_next = cum[level - 1], cum[level]
                        phi = phi_map(part, level)
                        phi_t = phi_map(tilde, level)
                        for a in range(1, lam_l + 1):
                            count += 1
                            lhs = phi_t[lam_l - a]
                            rhs = lam_next + 1 - phi[a - 1]
                            if lhs != rhs:
                                violations += 1
        print(
            f"criterion 12 reversal index identity: "
            f"{'pass' if violations == 0 else 'FAIL'}"
            f" ({count} exhaustive cases, {violations} violations)"
        )
        assert violations == 0

    def test_criterion_13_shuffle_algebra(self):
        rng = _rng("shuffle")
        worst = 0.0
        for N in (2, 3):
            params = PAR[N]
            for word in ("1", "2", "12"):
                part = IndexPartition.from_word(word, N)
                element = from_weight_function(params, part)
                us = tuple(random_spectral(rng, part.n))
                dyn = random_dynamical(rng, params)
                levels = [
                    list(random_spectral(rng, size)) if size else []
                    for size in part.cumulative_shape[:-1]
                ]
                base = element.evaluate(levels, us, dyn)
                left = star_product(
                    params, unit(N), element, levels, us, dyn
                )
                right = star_product(
                    params, element, unit(N), levels, us, dyn
                )
                scale = max(1.0, abs(base))
                worst = max(
                    worst,
                    abs(left - base) / scale,
                    abs(right - base) / scale,
                )
        _line("13 two-sided unit", worst, TOL)

        assoc_worst = 0.0
        for N in (2, 3):
            params = PAR[N]
            words = ("1", "2", "1") if N == 2 else ("1", "2", "3")
            elements = [
                from_weight_function(
                    params, IndexPartition.from_word(word, N)
                )
                for word in words
            ]
            combined = [0] * N
            for word in words:
                combined[int(word) - 1] += 1
            cumulative = np.cumsum(combined)
            us = tuple(random_spectral(rng, 3))
            dyn = random_dynamical(rng, params)
            levels = [
                list(random_spectral(rng, int(size))) if size else []
                for size in cumulative[:-1]
            ]
            a, b, c = elements
            left = star_product(
                params, star(params, a, b), c, levels, us, dyn
            )
            right = star_product(
                params, a, star(params, b, c), levels, us, dyn
            )
            assoc_worst = max(
                assoc_worst,
                abs(left - right) / max(1.0, abs(left), abs(right)),
            )
        _line("13 associativity", assoc_worst, TOL)

        params = PAR[2]
        left = from_weight_function(
            params, IndexPartition.from_word("1", 2)
        )
        right = from_weight_function(
            params, IndexPartition.from_word("2", 2)
        )
        product = star(params, left, right)
        us = tuple(random_spectral(rng, 2))
        dyn = random_dynamical(rng, params)
        parts, coeffs = tilde_expansion(params, product, us, dyn)
        closure_worst = 0.0
        for _ in range(2):
            levels = [list(random_spectral(rng, 1))]
            closure_worst = max(
                closure_worst,
                expansion_residual(
                    params, product, parts, coeffs, levels, us, dyn
                ),
            )
        _line("13 closure at independent points", closure_worst, TOL_INV)

    def test_criterion_14_default_verification_run(self):
        start = time.perf_counter()
        first = run_suites(VerifyConfig(), SUITES, workers=1)
        elapsed = time.perf_counter() - start
        second = run_suites(VerifyConfig(), SUITES, workers=1)
        assert first["pass"], f"default run failed: {first['max_residual']}"
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
        _line("14 full default run seconds", elapsed, 300.0)
