"""Tests for ordered partitions of positions into labeled blocks."""

from itertools import product

import pytest

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


class TestConstruction:
    def test_from_word_string(self):
        part = IndexPartition.from_word("32211")
        assert part.word == (3, 2, 2, 1, 1)
        assert part.num_blocks == 3
        assert part.n == 5

    def test_from_word_iterable_with_explicit_blocks(self):
        part = IndexPartition.from_word([1, 1, 2], num_blocks=4)
        assert part.num_blocks == 4
        assert part.shape == (2, 1, 0, 0)

    def test_blocks_and_shape(self):
        part = IndexPartition.from_word("32211")
        assert part.blocks == ((4, 5), (2, 3), (1,))
        assert part.shape == (2, 2, 1)
        assert part.cumulative_shape == (2, 4, 5)

    def test_unions_are_sorted_and_nested(self):
        part = IndexPartition.from_word("32211")
        assert part.union(0) == ()
        assert part.union(1) == (4, 5)
        assert part.union(2) == (2, 3, 4, 5)
        assert part.union(3) == (1, 2, 3, 4, 5)

    def test_word_letter_range_validated(self):
        with pytest.raises(ValueError):
            IndexPartition((1, 4), num_blocks=3)

    def test_word_string_round_trip(self):
        part = IndexPartition.from_word("1231", num_blocks=3)
        assert part.word_string() == "1231"
        assert str(part) == "1231"


class TestMovesAndMaps:
    def test_move_up_changes_single_letter(self):
        part = IndexPartition.from_word("32211")
        moved = part.move_up(2)
        assert moved.word == (3, 1, 2, 1, 1)
        with pytest.raises(ValueError):
            part.move_up(4)

    def test_move_down_changes_single_letter(self):
        part = IndexPartition.from_word("32211")
        moved = part.move_down(4)
        assert moved.word == (3, 2, 2, 2, 1)
        with pytest.raises(ValueError):
            part.move_down(1)

    def test_swap_adjacent(self):
        part = IndexPartition.from_word("1213")
        assert part.swap_adjacent(2).word == (1, 1, 2, 3)
        with pytest.raises(ValueError):
            part.swap_adjacent(4)

    def test_rank_in_block(self):
        part = IndexPartition.from_word("32211")
        assert part.rank_in_block(4) == 1
        assert part.rank_in_block(5) == 2
        assert part.rank_in_block(3) == 2

    def test_phi_embeds_unions(self):
        part = IndexPartition.from_word("32211")
        for level in range(1, part.num_blocks):
            phi = part.phi(level)
            upper = part.union(level + 1)
            for a, pos in enumerate(part.union(level), start=1):
                assert upper[phi[a - 1] - 1] == pos

    def test_letter_counts(self):
        part = IndexPartition.from_word("32211")
        assert part.letter_counts() == (2, 2, 1)
        assert part.letter_counts(start=3) == (2, 1, 0)
        assert part.letter_counts(start=6) == (0, 0, 0)

    def test_ascents(self):
        assert IndexPartition.from_word("32211").first_ascent() is None
        assert IndexPartition.from_word("32211").is_weakly_decreasing()
        part = IndexPartition.from_word("12132")
        assert not part.is_weakly_decreasing()
        assert part.first_ascent() == 1

    def test_max_partition_is_weakly_decreasing(self):
        part = max_partition((2, 2, 1))
        assert part.word == (3, 2, 2, 1, 1)
        assert part.is_weakly_decreasing()


class TestEnumeration:
    def test_shape_class_sizes_match_enumeration(self):
        for n in range(0, 6):
            for num_blocks in (2, 3):
                for shape in compositions(n, num_blocks):
                    listed = partitions_with_shape(shape)
                    # An independent count: every word of the right counts.
                    letters = range(1, num_blocks + 1)
                    expected = [
                        word
                        for word in product(letters, repeat=n)
                        if tuple(map(word.count, letters)) == tuple(shape)
                    ]
                    assert len(listed) == len(expected)
                    assert len(set(listed)) == len(listed)
                    for part in listed:
                        assert part.shape == tuple(shape)

    def test_partitions_with_shape_lexicographic(self):
        words = [p.word for p in partitions_with_shape((1, 2))]
        assert words == sorted(words)
        assert words == [(1, 2, 2), (2, 1, 2), (2, 2, 1)]

    def test_all_partitions_counts_and_order(self):
        parts = list(all_partitions(3, 2))
        assert len(parts) == 8
        words = [p.word for p in parts]
        assert words == sorted(words)

    def test_compositions_sum_and_count(self):
        comps = list(compositions(5, 3))
        assert all(sum(c) == 5 for c in comps)
        assert len(comps) == 21
        assert len(set(comps)) == 21


class TestPartialOrder:
    def test_leq_requires_equal_shape(self):
        with pytest.raises(ValueError):
            leq(
                IndexPartition.from_word("12", num_blocks=2),
                IndexPartition.from_word("21", num_blocks=2).move_up(1),
            )

    def test_leq_is_reflexive_antisymmetric_transitive(self):
        parts = partitions_with_shape((2, 1, 1))
        for a in parts:
            assert leq(a, a)
        for a in parts:
            for b in parts:
                if leq(a, b) and leq(b, a):
                    assert a == b
        for a in parts:
            for b in parts:
                for c in parts:
                    if leq(a, b) and leq(b, c):
                        assert leq(a, c)

    def test_max_partition_dominates_shape_class(self):
        for shape in [(2, 1), (1, 2, 1), (2, 2, 1)]:
            top = max_partition(shape)
            for part in partitions_with_shape(shape):
                assert leq(part, top)

    def test_leq_example(self):
        lower = IndexPartition.from_word("12")
        upper = IndexPartition.from_word("21")
        assert leq(lower, upper)
        assert not leq(upper, lower)


class TestDynamicalShift:
    def test_matches_closed_form_exhaustively(self):
        for num_blocks in (2, 3):
            for n in range(1, 6):
                for part in all_partitions(n, num_blocks):
                    for position in range(1, n + 1):
                        for label in range(1, num_blocks + 1):
                            assert dynamical_shift(
                                part, position, label
                            ) == dynamical_shift_closed(part, position, label)

    def test_hand_value(self):
        part = IndexPartition.from_word("32211")
        assert dynamical_shift(part, 2, 3) == 1
        assert dynamical_shift(part, 2, 1) == -1
        assert dynamical_shift(part, 5, 3) == 0

    def test_last_position_counts_nothing_ahead(self):
        part = IndexPartition.from_word("1212")
        for label in (1, 2):
            assert dynamical_shift(part, 4, label) == 0

    def test_own_label_gives_zero(self):
        for part in all_partitions(4, 3):
            for position in range(1, 5):
                assert dynamical_shift(part, position, part.block_of(position)) == 0


class TestLongestElement:
    def test_sigma0_reverses_word_and_keeps_shape(self):
        part = IndexPartition.from_word("32211")
        rev = part.sigma0()
        assert rev.word == (1, 1, 2, 2, 3)
        assert rev.shape == part.shape
        assert rev.sigma0() == part

    def test_union_reversal_identity(self):
        # For the reversed word, the sorted unions are the reflections
        # n + 1 - i of the original unions read backwards.
        for num_blocks in (2, 3):
            for n in range(1, 6):
                for part in all_partitions(n, num_blocks):
                    rev = part.sigma0()
                    for level in range(1, num_blocks + 1):
                        size = part.cumulative_shape[level - 1]
                        orig = part.union(level)
                        mirrored = rev.union(level)
                        for a in range(1, size + 1):
                            assert (
                                mirrored[a - 1]
                                == n + 1 - orig[size - a]
                            )

    def test_inclusion_map_reversal_identity(self):
        # The inclusion maps of the reversed word are conjugate to the
        # original ones by the order-reversing relabelings level by level.
        for num_blocks in (2, 3):
            for n in range(1, 6):
                for part in all_partitions(n, num_blocks):
                    rev = part.sigma0()
                    for level in range(1, num_blocks):
                        size = part.cumulative_shape[level - 1]
                        upper = part.cumulative_shape[level]
                        phi = part.phi(level)
                        phi_rev = rev.phi(level)
                        for a in range(1, size + 1):
                            assert (
                                phi_rev[size - a]
                                == upper + 1 - phi[a - 1]
                            )
