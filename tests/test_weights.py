"""Tests for elliptic weight functions and stable envelopes."""

import cmath
import gc
import tracemalloc
from itertools import permutations, product

import numpy as np
import pytest

from ellgt.partitions import (
    IndexPartition,
    compositions,
    dynamical_shift,
    leq,
    max_partition,
    partitions_with_shape,
)
from ellgt.rmatrix import (
    DynamicalParameter,
    random_dynamical,
    random_spectral,
)
from ellgt.theta import (
    EllipticParams,
    bracket,
    bracket_denominator,
    bracket_ratio,
)
from ellgt.weights import (
    diagonal_value,
    e_factor,
    fixed_point_row,
    orthogonality_defect,
    q_factor,
    quasi_periodicity_defect,
    r_factor,
    specialization_point,
    stab_restriction,
    stable_basis_round_trip_defect,
    transition_defect,
    VARIANTS,
    weight_function,
    weight_row,
)
import ellgt.weights as weights_module
from ellgt.verify import VerifyConfig, run_check

PAR2 = EllipticParams(q=0.5, r=3.0, N=2)
PAR3 = EllipticParams(q=0.5, r=3.0, N=3)


def loop_weight_function(params, part, level_vars, z_vars, dyn, variant):
    """Reference oracle: the symmetrized sum, one permutation term at a time.

    Returns the sum and the sum of the moduli of its terms, which bounds
    how far a reordered sum may move in floating point.
    """
    n_blocks = part.num_blocks
    levels = [tuple(complex(v) for v in level) for level in level_vars]
    zs = tuple(complex(z) for z in z_vars)
    unions = [part.union(level) for level in range(0, n_blocks + 1)]
    match_data = [
        [
            (phi, part.block_of(pos), dynamical_shift(part, pos, level + 1))
            for phi, pos in zip(part.phi(level), part.union(level))
        ]
        for level in range(1, n_blocks)
    ]
    total = 0.0 + 0.0j
    size = 0.0
    perm_sets = [
        tuple(permutations(range(size)))
        for size in part.cumulative_shape[: n_blocks - 1]
    ]
    for perm_choice in product(*perm_sets):
        assign = [
            tuple(levels[level0][perm[a]] for a in range(len(perm)))
            for level0, perm in enumerate(perm_choice)
        ]
        assign.append(zs)
        term = 1.0 + 0.0j
        for level in range(1, n_blocks):
            vs_here = assign[level - 1]
            vs_up = assign[level]
            lam_here = len(vs_here)
            for a in range(1, lam_here + 1):
                matched_b, label, shift = match_data[level - 1][a - 1]
                own_pos = unions[level][a - 1]
                va = vs_here[a - 1]
                s_val = dyn.pair(label, level + 1) - shift
                delta_matched = vs_up[matched_b - 1] - va
                if variant == "tilde":
                    term *= (
                        bracket(params, delta_matched + s_val)
                        * bracket(params, 1.0)
                        / bracket_denominator(params, delta_matched + 1, s_val)
                    )
                elif variant == "entire":
                    term *= (
                        bracket(params, delta_matched + s_val)
                        * bracket(params, 1.0)
                        / bracket_denominator(params, s_val)
                    )
                else:
                    term *= bracket_ratio(params, delta_matched + s_val, s_val)
                for b, upper_pos in enumerate(unions[level + 1], start=1):
                    if upper_pos == own_pos:
                        continue
                    delta = vs_up[b - 1] - va
                    if upper_pos > own_pos:
                        if variant == "tilde":
                            term *= bracket_ratio(params, delta, delta + 1)
                        else:
                            term *= bracket(params, delta)
                    elif variant != "tilde":
                        term *= bracket(params, delta + 1)
                if variant == "tilde":
                    for b in range(a + 1, lam_here + 1):
                        diff = va - vs_here[b - 1]
                        term *= bracket_ratio(params, diff - 1, diff)
                elif variant == "entire":
                    for b in range(a + 1, lam_here + 1):
                        diff = vs_here[b - 1] - va
                        term *= bracket_ratio(params, diff + 1, diff)
            if variant == "envelope":
                for a in range(1, lam_here + 1):
                    for b in range(a + 1, lam_here + 1):
                        down = vs_here[a - 1] - vs_here[b - 1]
                        term /= bracket_denominator(params, down, -down - 1)
        total += term
        size += abs(term)
    return total, size


def h_factor(params, part, level_vars, z_vars):
    """Reference: the symmetric product turning tilde into entire.

    It is the product of [v_b - v_a + 1] over consecutive levels, the
    spectral variables forming the top level.
    """
    levels = [list(level) for level in level_vars] + [list(z_vars)]
    out = 1.0 + 0.0j
    for level in range(1, part.num_blocks):
        for va in levels[level - 1]:
            for vb in levels[level]:
                out *= bracket(params, complex(vb) - complex(va) + 1)
    return out


def _params_for(num_blocks):
    return PAR2 if num_blocks == 2 else PAR3


def _random_levels(rng, part):
    return [
        list(random_spectral(rng, size)) if size else []
        for size in part.cumulative_shape[:-1]
    ]


class TestHandValues:
    def test_two_site_closed_forms(self):
        # Independently derived closed forms for the two one-one words.
        v = 0.23 + 0.04j
        u1, u2 = 0.55, 0.91 - 0.06j
        dyn = DynamicalParameter.from_values([0.78, 0.0])
        s = dyn.pair(1, 2)
        got = weight_function(
            PAR2, IndexPartition.from_word("12"), [[v]], [u1, u2], dyn
        )
        want = (
            bracket(PAR2, u1 - v + s + 1)
            * bracket(PAR2, u2 - v)
            / bracket(PAR2, s + 1)
        )
        assert abs(got - want) < 1e-13
        got = weight_function(
            PAR2, IndexPartition.from_word("21"), [[v]], [u1, u2], dyn
        )
        want = (
            bracket(PAR2, u2 - v + s)
            * bracket(PAR2, u1 - v + 1)
            / bracket(PAR2, s)
        )
        assert abs(got - want) < 1e-13

    def test_unknown_variant_rejected(self):
        dyn = DynamicalParameter.from_values([0.7, 0.0])
        with pytest.raises(ValueError):
            weight_function(
                PAR2,
                IndexPartition.from_word("12"),
                [[0.2]],
                [0.3, 0.4],
                dyn,
                "other",
            )

    def test_level_shape_validated(self):
        dyn = DynamicalParameter.from_values([0.7, 0.0])
        with pytest.raises(ValueError):
            weight_function(
                PAR2,
                IndexPartition.from_word("12"),
                [[0.2, 0.3]],
                [0.3, 0.4],
                dyn,
            )

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("gap", [0.0, 1e-14])
    def test_level_pole_raises(self, variant, gap):
        # Two level variables at (or within 1e-14 of) each other put a
        # bracket zero in a denominator: refused, not a huge value.
        dyn = DynamicalParameter.from_values([0.7, 0.0])
        with pytest.raises(ValueError):
            weight_function(
                PAR2,
                IndexPartition.from_word("11", 2),
                [[0.5, 0.5 + gap]],
                [0.35, 0.82],
                dyn,
                variant,
            )


class TestTableEvaluation:
    """The table-and-chain evaluation against the permutation loop."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("rank, max_n", [(2, 5), (3, 5), (4, 4)])
    def test_rows_match_the_loop(self, rank, max_n, variant):
        # Every shape, alternately at generic level variables and at a
        # specialization point; a nearby argument in the bracket memo
        # must not stand in for an exact zero.  Terms can cancel at
        # generic points, so there the reordered sum is held to the sum
        # of the term moduli; at specializations also to the value.
        params = EllipticParams(q=0.5, r=3.0, N=rank)
        bracket(params, -1e-14)
        rng = np.random.default_rng(100 + rank)
        shapes = [s for n in range(1, max_n + 1) for s in compositions(n, rank)]
        zeros = 0
        for index, shape in enumerate(shapes):
            parts = partitions_with_shape(shape)
            us = random_spectral(rng, sum(shape))
            dyn = random_dynamical(rng, params)
            if index % 2:
                anchor = parts[rng.integers(len(parts))]
                point = specialization_point(anchor, us)
            else:
                point = _random_levels(rng, parts[0])
            row = weight_row(params, parts, point, us, dyn, variant)
            for part, got in zip(parts, row):
                want, size = loop_weight_function(
                    params, part, point, us, dyn, variant
                )
                if want == 0.0:
                    zeros += 1
                    assert got == 0.0
                else:
                    assert abs(got - want) <= 1e-12 * size
                    assert index % 2 == 0 or abs(got - want) <= 1e-12 * abs(want)
        assert zeros > 0

    def test_truncation_order_override(self):
        params = EllipticParams(q=0.5, r=3.0, N=3, truncation_order=2)
        rng = np.random.default_rng(47)
        parts = partitions_with_shape((2, 1, 1))
        us = random_spectral(rng, 4)
        dyn = random_dynamical(rng, params)
        point = _random_levels(rng, parts[0])
        for variant in VARIANTS:
            row = weight_row(params, parts, point, us, dyn, variant)
            full = weight_row(PAR3, parts, point, us, dyn, variant)
            for part, got, untruncated in zip(parts, row, full):
                want, size = loop_weight_function(
                    params, part, point, us, dyn, variant
                )
                assert abs(got - want) <= 1e-12 * size
                assert abs(got - untruncated) > 1e-8 * abs(untruncated)

    # Each case: (word, N, level variables, spectral variables, dynamical).
    POLE_CASES = [
        ("11", 2, [[0.5, 0.5]], [0.35, 0.82], [0.7, 0.0]),
        ("11", 2, [[0.5, 0.5 + 1e-14]], [0.35, 0.82], [0.7, 0.0]),
        ("12", 2, [[1.35]], [0.35, 0.82], [0.7, 0.0]),
        ("121", 2, [[0.35 + 1, 0.2]], [0.35, 0.82, 0.6], [0.7, 0.0]),
        ("12", 2, [[0.2]], [0.35, 0.82], [-1.0, 0.0]),
        ("213", 3, [[0.1], [0.4, 1.82]], [0.35, 0.82, 0.6], [0.7, 0.3, 0.0]),
    ]

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("case", POLE_CASES)
    def test_same_poles_as_the_loop(self, case, variant):
        word, rank, levels, us, values = case
        params = _params_for(rank)
        part = IndexPartition.from_word(word, rank)
        dyn = DynamicalParameter.from_values(values)
        try:
            want, size = loop_weight_function(params, part, levels, us, dyn, variant)
        except ValueError:
            with pytest.raises(ValueError):
                weight_function(params, part, levels, us, dyn, variant)
        else:
            got = weight_function(params, part, levels, us, dyn, variant)
            assert abs(got - want) <= 1e-12 * size

    def test_row_entries_equal_one_element_calls(self):
        rng = np.random.default_rng(48)
        parts = partitions_with_shape((2, 2, 1))
        us = random_spectral(rng, 5)
        dyn = random_dynamical(rng, PAR3)
        points = [_random_levels(rng, parts[0]), specialization_point(parts[7], us)]
        for point in points:
            for variant in VARIANTS:
                row = weight_row(PAR3, parts, point, us, dyn, variant)
                singles = [
                    weight_function(PAR3, part, point, us, dyn, variant)
                    for part in parts
                ]
                assert row.tolist() == singles

    def test_triangularity_row_brackets_scale_with_tables(self, monkeypatch):
        # One triangularity row at shape (2, 2, 1) evaluates each bracket
        # table once: at most lambda^(l) * lambda^(l+1) entries per shift
        # and 2 * lambda^(l)^2 same-level entries per level, plus the
        # scalar [1] and [s] values; not one bracket set per term.
        params = EllipticParams(q=0.5, r=3.0, N=3)
        rng = np.random.default_rng(49)
        us = random_spectral(rng, 5)
        dyn = random_dynamical(rng, params)
        parts = partitions_with_shape((2, 2, 1))
        lower = max_partition((2, 2, 1))
        row = [upper for upper in parts if not leq(lower, upper)]
        calls = []

        def counted(p, u):
            calls.append(u)
            return bracket(p, u)

        monkeypatch.setattr(weights_module, "bracket", counted)
        weight_row(params, row, specialization_point(lower, us), us, dyn)
        sizes = lower.cumulative_shape
        bound = 1
        for level in (1, 2):
            shifts = {
                dyn.pair(part.block_of(pos), level + 1)
                - dynamical_shift(part, pos, level + 1)
                for part in row
                for pos in part.union(level)
            }
            cross = sizes[level - 1] * sizes[level]
            bound += (2 + len(shifts)) * cross + 2 * sizes[level - 1] ** 2
            bound += len(shifts)
        terms = len(row) * 2 * 24
        assert len(calls) <= bound < terms

    @pytest.mark.parametrize("entries", [1, 100])
    def test_gathering_in_blocks_changes_no_bit(self, monkeypatch, entries):
        # A level too large for one gather is gathered in blocks of terms;
        # each entry is still one product over its factors.
        rng = np.random.default_rng(51)
        par4 = EllipticParams(q=0.5, r=3.0, N=4)
        for params, shape in [(PAR3, (2, 2, 1)), (PAR3, (3, 0, 1)), (par4, (2, 1, 0, 1))]:
            parts = partitions_with_shape(shape)
            us = random_spectral(rng, sum(shape))
            dyn = random_dynamical(rng, params)
            point = _random_levels(rng, parts[0])
            for variant, row in product(VARIANTS, (parts, parts[:1])):
                whole = weight_row(params, row, point, us, dyn, variant)
                with monkeypatch.context() as patch:
                    patch.setattr(weights_module, "_GATHER_ENTRIES", entries)
                    blocks = weight_row(params, row, point, us, dyn, variant)
                assert blocks.tolist() == whole.tolist()

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_pole_in_a_later_partitions_matched_table(self, variant):
        # At pair(1, 2) = 1 only 211 has a matched shift s = 0 (its first
        # position sees one later 1 and no later 2), so a bracket zero
        # sits in its matched table alone: the stacked row raises, and so
        # does its one-element call, while the others evaluate.
        parts = partitions_with_shape((2, 1))
        assert [part.word_string() for part in parts] == ["112", "121", "211"]
        dyn = DynamicalParameter.from_values([1.0, 0.0])
        levels, us = [[0.23, 0.41 + 0.05j]], [0.35, 0.82, 0.6]
        for part in parts[:-1]:
            want, size = loop_weight_function(PAR2, part, levels, us, dyn, variant)
            got = weight_function(PAR2, part, levels, us, dyn, variant)
            assert abs(got - want) <= 1e-12 * size
        with pytest.raises(ValueError):
            loop_weight_function(PAR2, parts[-1], levels, us, dyn, variant)
        with pytest.raises(ValueError):
            weight_row(PAR2, parts, levels, us, dyn, variant)
        with pytest.raises(ValueError):
            weight_function(PAR2, parts[-1], levels, us, dyn, variant)


class TestPlans:
    """The cached bookkeeping that reads no level, spectral or dynamical value."""

    CACHES = ("_plan", "_cells", "_point_layout")

    def _misses(self):
        return [
            getattr(weights_module, name).cache_info().misses for name in self.CACHES
        ]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_second_point_builds_no_plan(self, variant):
        rng = np.random.default_rng(50)
        parts = partitions_with_shape((2, 2, 1))

        def row():
            point = _random_levels(rng, parts[0])
            us = random_spectral(rng, 5)
            dyn = random_dynamical(rng, PAR3)
            return weight_row(PAR3, parts, point, us, dyn, variant)

        first = row()
        misses = self._misses()
        second = row()
        assert self._misses() == misses
        assert np.all(first != second)

    def test_plan_arrays_are_read_only(self):
        part = partitions_with_shape((2, 2, 1))[7]
        sizes = part.cumulative_shape
        plans = weights_module._plan(part.word, sizes)
        layout = weights_module._point_layout(sizes, (1, 2), "envelope")
        arrays = [
            *(level.reads for level in plans),
            *weights_module._cells(2, 4, False),
            *weights_module._cells(4, 5, True),
            layout.terms,
            layout.factors,
            *layout.tables,
            *layout.pairs,
            weights_module._perms(4),
        ]
        for array in arrays:
            with pytest.raises(ValueError):
                array.flat[0] = 0

    def test_plans_retained_by_the_specialization_checks_are_small(self):
        # The three weights checks of the (2, 2, 1) benchmark workload;
        # the plans they leave cached stay under half a megabyte.
        caches = [getattr(weights_module, name) for name in (*self.CACHES, "_perms")]
        for cache in caches:
            cache.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            cfg = VerifyConfig(rank=3, shape=(2, 2, 1), n=5)
            for name in ("triangularity", "diagonal-closed-form", "transition"):
                assert run_check(cfg, "weights", name).passed
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            for cache in caches:
                cache.cache_clear()
            gc.collect()
            retained = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 0 < retained < 2**19


class TestVariantRelations:
    def test_entire_equals_tilde_times_h(self):
        rng = np.random.default_rng(31)
        for word in ("112", "121", "1221", "2131", "3121"):
            num_blocks = max(int(ch) for ch in word)
            params = _params_for(num_blocks)
            part = IndexPartition.from_word(word, params.N)
            us = random_spectral(rng, part.n)
            lv = _random_levels(rng, part)
            dyn = random_dynamical(rng, params)
            entire = weight_function(params, part, lv, us, dyn, "entire")
            tilde = weight_function(params, part, lv, us, dyn, "tilde")
            h = h_factor(params, part, lv, us)
            scale = max(1.0, abs(entire))
            assert abs(entire - tilde * h) / scale < 1e-12

    def test_entire_equals_envelope_times_e(self):
        rng = np.random.default_rng(32)
        for word in ("112", "121", "1221", "2131", "3121"):
            num_blocks = max(int(ch) for ch in word)
            params = _params_for(num_blocks)
            part = IndexPartition.from_word(word, params.N)
            us = random_spectral(rng, part.n)
            lv = _random_levels(rng, part)
            dyn = random_dynamical(rng, params)
            entire = weight_function(params, part, lv, us, dyn, "entire")
            envelope = weight_function(params, part, lv, us, dyn, "envelope")
            e = e_factor(params, part, lv)
            scale = max(1.0, abs(entire))
            assert abs(entire - envelope * e) / scale < 1e-12


class TestSpecializationProperties:
    def test_triangularity_exhaustive(self):
        # Specializing at a partition kills the function unless that
        # partition precedes the function's own in the partial order.
        rng = np.random.default_rng(33)
        for num_blocks in (2, 3):
            params = _params_for(num_blocks)
            for n in range(2, 5):
                for shape in compositions(n, num_blocks):
                    parts = partitions_with_shape(shape)
                    if len(parts) < 2:
                        continue
                    us = random_spectral(rng, n)
                    dyn = random_dynamical(rng, params)
                    for lower in parts:
                        point = specialization_point(lower, us)
                        for upper in parts:
                            if leq(lower, upper):
                                continue
                            val = weight_function(
                                params, upper, point, us, dyn
                            )
                            assert abs(val) < 1e-10

    def test_vanishing_is_exact_whatever_was_evaluated_before(self):
        # Exact zeros need [0] == 0 however the bracket memo was filled:
        # a nearby argument evaluated first must not stand in for 0.
        params = EllipticParams(q=0.5, r=3.0, N=2)
        rng = np.random.default_rng(35)
        us = random_spectral(rng, 3)
        dyn = random_dynamical(rng, params)
        bracket(params, -1e-14)
        parts = partitions_with_shape((2, 1))
        vanishing = [
            weight_function(params, upper, specialization_point(lower, us), us, dyn)
            for lower in parts
            for upper in parts
            if not leq(lower, upper)
        ]
        assert len(vanishing) == 3
        assert vanishing == [0.0] * 3

    def test_diagonal_closed_form_exhaustive(self):
        rng = np.random.default_rng(34)
        for num_blocks in (2, 3):
            params = _params_for(num_blocks)
            for n in range(2, 5):
                for shape in compositions(n, num_blocks):
                    us = random_spectral(rng, n)
                    dyn = random_dynamical(rng, params)
                    for part in partitions_with_shape(shape):
                        point = specialization_point(part, us)
                        got = weight_function(params, part, point, us, dyn)
                        want = diagonal_value(params, part, us)
                        assert abs(got - want) < 1e-11 * max(1.0, abs(want))

    def test_diagonal_is_q_times_r_like_split(self):
        # The two cross-block products agree with the diagonal value's
        # building blocks: their product is the diagonal value times the
        # complementary bracket choices.
        rng = np.random.default_rng(35)
        part = IndexPartition.from_word("1212")
        us = random_spectral(rng, 4)
        qf = q_factor(PAR2, part, us)
        rf = r_factor(PAR2, part, us)
        dv = diagonal_value(PAR2, part, us)
        # every factor of the diagonal value divides one of the two
        assert abs(dv) > 0
        assert abs(qf) > 0 and abs(rf) > 0


class TestTransition:
    def test_adjacent_exchange_identity(self):
        rng = np.random.default_rng(36)
        for word in ("12", "21", "112", "121", "212", "123", "213", "1213"):
            num_blocks = max(int(ch) for ch in word)
            params = _params_for(max(num_blocks, 2))
            part = IndexPartition.from_word(word, params.N)
            us = random_spectral(rng, part.n)
            lv = _random_levels(rng, part)
            dyn = random_dynamical(rng, params)
            for position in range(1, part.n):
                defect = transition_defect(
                    params, part, position, lv, us, dyn
                )
                assert defect < 1e-11


class TestOrthogonality:
    def test_shape_classes(self):
        rng = np.random.default_rng(37)
        cases = [
            (PAR2, (1, 1)),
            (PAR2, (2, 1)),
            (PAR2, (1, 2)),
            (PAR2, (2, 2)),
            (PAR3, (1, 1, 1)),
            (PAR3, (2, 1, 1)),
            (PAR3, (1, 1, 2)),
        ]
        for params, shape in cases:
            us = random_spectral(rng, sum(shape))
            dyn = random_dynamical(rng, params)
            assert orthogonality_defect(params, shape, us, dyn) < 1e-9

    @pytest.mark.parametrize("us", [[0.3, 0.3], [0.3, 0.3 + 1e-14]])
    def test_equal_spectral_variables_raise(self, us):
        # The cross-block product r_factor vanishes: refused, not divided.
        dyn = DynamicalParameter.from_values([0.7, 0.0])
        with pytest.raises(ValueError):
            orthogonality_defect(PAR2, (1, 1), us, dyn)


class TestQuasiPeriodicity:
    @staticmethod
    def _check(params, part, level, a, lv, us, dyn):
        r = params.r
        tau = params.tau
        lam = part.shape
        base = weight_function(params, part, lv, us, dyn)
        lv_p = [list(level_list) for level_list in lv]
        lv_p[level - 1][a - 1] += r
        got_p = weight_function(params, part, lv_p, us, dyn)
        want_p = (-1) ** (lam[level] - lam[level - 1] + 2) * base
        lv_t = [list(level_list) for level_list in lv]
        lv_t[level - 1][a - 1] += r * tau
        got_t = weight_function(params, part, lv_t, us, dyn)
        va = lv[level - 1][a - 1]
        sum_up = sum(us) if level + 1 == params.N else sum(lv[level])
        sum_here = sum(lv[level - 1])
        sum_down = sum(lv[level - 2]) if level >= 2 else 0.0
        exponent = (
            -(2j * cmath.pi / r)
            * (
                (lam[level] - lam[level - 1]) * va
                - sum_up
                + 2 * sum_here
                - sum_down
                - dyn.pair(level, level + 1)
                - lam[level]
            )
        )
        want_t = (
            (-cmath.exp(-1j * cmath.pi * tau))
            ** (lam[level] - lam[level - 1] + 2)
            * cmath.exp(exponent)
            * base
        )
        scale = max(abs(base), abs(got_p), 1.0)
        return abs(got_p - want_p) / scale, abs(got_t - want_t) / max(
            abs(base), abs(got_t), 1.0
        )

    def test_both_shifts(self):
        rng = np.random.default_rng(38)
        for word in ("121", "212", "2131"):
            num_blocks = max(int(ch) for ch in word)
            params = _params_for(max(num_blocks, 2))
            part = IndexPartition.from_word(word, params.N)
            us = random_spectral(rng, part.n)
            lv = _random_levels(rng, part)
            dyn = random_dynamical(rng, params)
            for level in range(1, params.N):
                for a in range(1, part.cumulative_shape[level - 1] + 1):
                    defect_p, defect_t = self._check(
                        params, part, level, a, lv, us, dyn
                    )
                    assert defect_p < 1e-12
                    assert defect_t < 1e-7

    def test_defect_helper_agrees_with_direct_computation(self):
        rng = np.random.default_rng(39)
        for word in ("121", "212"):
            params = _params_for(2)
            part = IndexPartition.from_word(word, params.N)
            us = random_spectral(rng, part.n)
            lv = _random_levels(rng, part)
            dyn = random_dynamical(rng, params)
            for a in range(1, part.cumulative_shape[0] + 1):
                direct = self._check(params, part, 1, a, lv, us, dyn)
                helper = quasi_periodicity_defect(
                    params, part, 1, a, lv, us, dyn
                )
                assert abs(direct[0] - helper[0]) < 1e-12
                assert abs(direct[1] - helper[1]) < 1e-9


class TestWheelVanishing:
    def test_entire_vanishes_on_upper_wheel(self):
        # v at one slot exceeding an upper-level value by one while a
        # sibling slot equals that value kills the entire variant.
        rng = np.random.default_rng(39)
        part = IndexPartition.from_word("11", 2)
        us = random_spectral(rng, 2)
        dyn = random_dynamical(rng, PAR2)
        for uc in us:
            val = weight_function(
                PAR2, part, [[uc + 1, uc]], us, dyn, "entire"
            )
            assert abs(val) < 1e-14

    def test_entire_vanishes_on_lower_wheel(self):
        rng = np.random.default_rng(40)
        part = IndexPartition.from_word("213", 3)
        us = random_spectral(rng, 3)
        dyn = random_dynamical(rng, PAR3)
        (v1,) = random_spectral(rng, 1)
        for slots in ([v1 - 1, v1], [v1, v1 - 1]):
            val = weight_function(
                PAR3, part, [[v1], slots], us, dyn, "entire"
            )
            assert abs(val) < 1e-14


class TestStableEnvelopes:
    def test_restriction_triangularity(self):
        rng = np.random.default_rng(41)
        for params, shape in [(PAR2, (2, 1)), (PAR3, (1, 1, 1))]:
            parts = partitions_with_shape(shape)
            us = random_spectral(rng, sum(shape))
            dyn = random_dynamical(rng, params)
            for part in parts:
                for at in parts:
                    val = stab_restriction(params, part, at, us, dyn)
                    if part == at:
                        assert abs(val) > 1e-10
                    elif not leq(part, at):
                        assert abs(val) < 1e-10

    def test_envelope_function_matches_restriction(self):
        # The direct restriction against two forms that do not go through
        # the envelope variant: the closed diagonal value, and off the
        # diagonal the entire variant divided by its symmetric factor.
        rng = np.random.default_rng(42)
        for params, shape in [(PAR2, (2, 1)), (PAR3, (1, 1, 1))]:
            parts = partitions_with_shape(shape)
            us = random_spectral(rng, sum(shape))
            dyn = random_dynamical(rng, params)
            minus_us = [-u for u in us]
            for part in parts:
                reversed_part = part.sigma0()
                for at in parts:
                    if not leq(part, at):
                        continue
                    direct = stab_restriction(params, part, at, us, dyn)
                    if part == at:
                        via = diagonal_value(
                            params, reversed_part, minus_us[::-1]
                        )
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
                    assert abs(via - direct) < 1e-11 * max(1.0, abs(direct))

    def test_round_trip_identity(self):
        rng = np.random.default_rng(43)
        cases = [
            (PAR2, (1, 1)),
            (PAR2, (2, 1)),
            (PAR2, (1, 2)),
            (PAR3, (1, 1, 1)),
        ]
        for params, shape in cases:
            us = random_spectral(rng, sum(shape))
            dyn = random_dynamical(rng, params)
            defect = stable_basis_round_trip_defect(params, shape, us, dyn)
            assert defect < 1e-10

    @pytest.mark.parametrize("us", [[0.3, 0.3], [0.3, 0.3 + 1e-14]])
    def test_round_trip_refuses_equal_spectral_variables(self, us):
        dyn = DynamicalParameter.from_values([0.7, 0.0])
        with pytest.raises(ValueError):
            stable_basis_round_trip_defect(PAR2, (1, 1), us, dyn)

    def test_fixed_point_coefficient_triangular(self):
        rng = np.random.default_rng(44)
        shape = (2, 1)
        parts = partitions_with_shape(shape)
        us = random_spectral(rng, 3)
        dyn = random_dynamical(rng, PAR2)
        for part in parts:
            row = fixed_point_row(PAR2, part, parts, us, dyn)
            for coeff_of, val in zip(parts, row):
                if not leq(part, coeff_of):
                    assert abs(val) < 1e-10
