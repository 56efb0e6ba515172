"""Ordered partitions of positions 1..n into labeled blocks.

A basis vector of the n-fold tensor product of the vector representation
is labeled by a word (mu_1, ..., mu_n) of block labels in [1, N].  The
same data viewed as an ordered partition I = (I_1, ..., I_N) of [1, n],
with I_l = {i : mu_i = l}, drives the combinatorics of weight functions:
block sizes lambda_l, cumulative unions I^(l) = I_1 u ... u I_l, the
inclusion maps between consecutive unions, and the dynamical index shift
counted from the tail of the word.

Positions and block labels are 1-based throughout, matching the usual
conventions for these objects; words are stored as tuples of ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True)
class IndexPartition:
    """An ordered partition of [1, n] into ``num_blocks`` labeled blocks.

    Encoded by its word: ``word[i - 1]`` is the label of the block
    containing position ``i``.  Empty blocks are allowed, so the word
    need not use every label.
    """

    word: tuple[int, ...]
    num_blocks: int

    def __post_init__(self) -> None:
        if self.num_blocks < 1:
            raise ValueError("num_blocks must be at least 1")
        for letter in self.word:
            if not 1 <= letter <= self.num_blocks:
                raise ValueError(
                    f"word letter {letter} outside [1, {self.num_blocks}]"
                )

    @classmethod
    def from_word(
        cls, word: str | Iterable[int], num_blocks: int | None = None
    ) -> "IndexPartition":
        """Build from a word given as digits ("32211") or an int iterable."""
        if isinstance(word, str):
            letters = tuple(int(ch) for ch in word)
        else:
            letters = tuple(int(x) for x in word)
        if num_blocks is None:
            num_blocks = max(letters) if letters else 1
        return cls(letters, num_blocks)

    @property
    def n(self) -> int:
        """Number of positions."""
        return len(self.word)

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks I_1, ..., I_N as sorted tuples of 1-based positions."""
        out: list[list[int]] = [[] for _ in range(self.num_blocks)]
        for position, letter in enumerate(self.word, start=1):
            out[letter - 1].append(position)
        return tuple(tuple(block) for block in out)

    @cached_property
    def shape(self) -> tuple[int, ...]:
        """Block sizes (lambda_1, ..., lambda_N)."""
        return tuple(len(block) for block in self.blocks)

    @cached_property
    def cumulative_shape(self) -> tuple[int, ...]:
        """Partial sums (lambda^(1), ..., lambda^(N)); last entry is n."""
        out: list[int] = []
        total = 0
        for size in self.shape:
            total += size
            out.append(total)
        return tuple(out)

    @cached_property
    def unions(self) -> tuple[tuple[int, ...], ...]:
        """Sorted unions I^(l) for l = 0..N; unions[0] is empty."""
        out: list[tuple[int, ...]] = [()]
        acc: list[int] = []
        for block in self.blocks:
            acc = sorted(acc + list(block))
            out.append(tuple(acc))
        return tuple(out)

    def union(self, level: int) -> tuple[int, ...]:
        """I^(level) = I_1 u ... u I_level, sorted increasingly."""
        return self.unions[level]

    def block_of(self, position: int) -> int:
        """Label of the block containing a 1-based position."""
        return self.word[position - 1]

    def rank_in_block(self, position: int) -> int:
        """1-based rank of ``position`` inside its own block."""
        block = self.blocks[self.block_of(position) - 1]
        return block.index(position) + 1

    def word_string(self) -> str:
        """Digit string of the word, e.g. "32211" (labels must be < 10)."""
        if self.num_blocks > 9:
            raise ValueError("digit serialization needs labels below 10")
        return "".join(str(letter) for letter in self.word)

    def letter_counts(self, start: int = 1) -> tuple[int, ...]:
        """Multiplicity of each label among positions >= ``start``."""
        counts = [0] * self.num_blocks
        for letter in self.word[start - 1 :]:
            counts[letter - 1] += 1
        return tuple(counts)

    def sigma0(self) -> "IndexPartition":
        """Image under the longest permutation: the reversed word."""
        return IndexPartition(self.word[::-1], self.num_blocks)

    def swap_adjacent(self, position: int) -> "IndexPartition":
        """Exchange the letters at ``position`` and ``position + 1``."""
        if not 1 <= position <= self.n - 1:
            raise ValueError("adjacent swap position out of range")
        letters = list(self.word)
        i = position - 1
        letters[i], letters[i + 1] = letters[i + 1], letters[i]
        return IndexPartition(tuple(letters), self.num_blocks)

    def move_up(self, position: int) -> "IndexPartition":
        """Relabel ``position`` from its block m to block m - 1."""
        m = self.block_of(position)
        if m == 1:
            raise ValueError("position already in the first block")
        letters = list(self.word)
        letters[position - 1] = m - 1
        return IndexPartition(tuple(letters), self.num_blocks)

    def move_down(self, position: int) -> "IndexPartition":
        """Relabel ``position`` from its block m to block m + 1."""
        m = self.block_of(position)
        if m == self.num_blocks:
            raise ValueError("position already in the last block")
        letters = list(self.word)
        letters[position - 1] = m + 1
        return IndexPartition(tuple(letters), self.num_blocks)

    def phi(self, level: int) -> tuple[int, ...]:
        """Inclusion of I^(level) into I^(level + 1) as 1-based indices.

        Entry a - 1 holds the index b with union(level + 1)[b - 1] equal
        to union(level)[a - 1].
        """
        target = {pos: b for b, pos in enumerate(self.union(level + 1), 1)}
        return tuple(target[pos] for pos in self.union(level))

    def is_weakly_decreasing(self) -> bool:
        """True when the word never ascends (the maximal element)."""
        return all(a >= b for a, b in zip(self.word, self.word[1:]))

    def first_ascent(self) -> int | None:
        """Smallest position i with word[i] < word[i + 1], or None."""
        for i in range(self.n - 1):
            if self.word[i] < self.word[i + 1]:
                return i + 1
        return None

    def __str__(self) -> str:
        return self.word_string() if self.num_blocks <= 9 else repr(self.word)


def max_partition(shape: Sequence[int]) -> IndexPartition:
    """The maximal element of its shape class: weakly decreasing word."""
    num_blocks = len(shape)
    letters: list[int] = []
    for label in range(num_blocks, 0, -1):
        letters.extend([label] * shape[label - 1])
    return IndexPartition(tuple(letters), num_blocks)


def leq(lhs: IndexPartition, rhs: IndexPartition) -> bool:
    """Partial order: every sorted union of lhs is elementwise <= rhs's.

    Defined only between partitions of the same shape; unions then have
    equal lengths level by level.
    """
    if lhs.shape != rhs.shape:
        raise ValueError("partial order requires equal shapes")
    for level in range(1, lhs.num_blocks + 1):
        for a, b in zip(lhs.union(level), rhs.union(level)):
            if a > b:
                return False
    return True


def compositions(n: int, num_blocks: int) -> Iterator[tuple[int, ...]]:
    """All (lambda_1, ..., lambda_N) of nonnegative ints summing to n."""
    if num_blocks == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions(n - first, num_blocks - 1):
            yield (first, *rest)


def partitions_with_shape(shape: Sequence[int]) -> list[IndexPartition]:
    """All partitions with the given block sizes, word-lexicographic."""
    num_blocks = len(shape)
    counts = list(shape)
    words: list[tuple[int, ...]] = []

    def extend(prefix: list[int], remaining: int) -> None:
        if remaining == 0:
            words.append(tuple(prefix))
            return
        for label in range(1, num_blocks + 1):
            if counts[label - 1] > 0:
                counts[label - 1] -= 1
                prefix.append(label)
                extend(prefix, remaining - 1)
                prefix.pop()
                counts[label - 1] += 1

    extend([], sum(shape))
    return [IndexPartition(word, num_blocks) for word in words]


def all_partitions(n: int, num_blocks: int) -> Iterator[IndexPartition]:
    """Every word in [1, num_blocks]^n, word-lexicographic."""
    word = [1] * n

    def extend(i: int) -> Iterator[IndexPartition]:
        if i == n:
            yield IndexPartition(tuple(word), num_blocks)
            return
        for label in range(1, num_blocks + 1):
            word[i] = label
            yield from extend(i + 1)

    yield from extend(0)


def dynamical_shift(part: IndexPartition, position: int, label: int) -> int:
    """Tail count of the position's own label minus that of ``label``.

    This is the integer that shifts the dynamical parameter attached to
    the pair (block of ``position``, ``label``) inside weight functions:
    the number of later positions sharing the letter at ``position``
    minus the number of later positions carrying ``label``.
    """
    own = part.block_of(position)
    same = 0
    other = 0
    for letter in part.word[position:]:
        if letter == own:
            same += 1
        if letter == label:
            other += 1
    return same - other


def dynamical_shift_closed(
    part: IndexPartition, position: int, label: int
) -> int:
    """Closed form of :func:`dynamical_shift` via block positions.

    With j the label at ``position``, s~ its rank inside block j, and
    block ``label`` = {i_1 < ... < i_m}: if some i_b exceeds
    ``position`` the value is lambda_j - lambda_label - s~ + b0 - 1 with
    b0 the least such b; otherwise it is lambda_j - s~.
    """
    j = part.block_of(position)
    rank = part.rank_in_block(position)
    target_block = part.blocks[label - 1]
    larger = [b for b, pos in enumerate(target_block, 1) if pos > position]
    lam_j = part.shape[j - 1]
    lam_k = part.shape[label - 1]
    if larger:
        return lam_j - lam_k - rank + larger[0] - 1
    return lam_j - rank
