"""Integer partitions, standard tableau enumeration and counting."""

from __future__ import annotations

import itertools
import operator
from functools import cache
from math import factorial
from typing import Iterator


class Partition(tuple):
    """A weakly decreasing tuple of positive integers.

    The empty partition ``Partition()`` is legal everywhere and denotes the
    trivial shape.  Instances are plain tuples, so they hash, compare and
    serialize like tuples; trailing zeros are stripped on construction.
    Parts must be integers (anything `operator.index` accepts); a float, a
    Fraction or a string is refused, not truncated.  Like ``tuple(t)``,
    ``Partition(p)`` returns ``p`` itself when it already is a Partition.
    """

    def __new__(cls, parts=()):
        if type(parts) is cls:
            return parts
        parts = tuple(map(_integer, parts))
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        for a, b in itertools.pairwise(parts):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing: {parts}")
        if parts and parts[-1] < 1:
            raise ValueError(f"parts must be positive: {parts}")
        return super().__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self)

    @property
    def length(self) -> int:
        return len(self)

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram; an involution."""
        if not self:
            return Partition()
        cols = [0] * self[0]
        for part in self:
            for c in range(part):
                cols[c] += 1
        # Column lengths of a diagram are a partition: skip the validation.
        return tuple.__new__(Partition, cols)

    def contains(self, other) -> bool:
        """Diagram containment: other fits inside self row by row."""
        other = Partition(other)
        if len(other) > len(self):
            return False
        return all(o <= s for s, o in zip(self, other))

    def hook_lengths(self) -> tuple[tuple[int, ...], ...]:
        """Hook length of every cell, one tuple per row, left to right."""
        conj = self.conjugate()
        return tuple(
            tuple(part - c + conj[c] - r - 1 for c in range(part))
            for r, part in enumerate(self)
        )

    def __repr__(self) -> str:
        return f"Partition{tuple(self)}"


def _integer(value, what: str = "parts") -> int:
    """`operator.index(value)`: a float, a Fraction or a string is refused with
    a ValueError naming `what`, not truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be integers: {value!r}") from None


#: A partition of k recording the cycle lengths of a conjugacy class of S_k.
CycleType = Partition


@cache
def _partitions_of(n: int, max_part: int, max_length: int) -> tuple[Partition, ...]:
    if n == 0:
        return (Partition(),)
    if max_length == 0 or max_part == 0:
        return ()
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions_of(n - first, first, max_length - 1):
            out.append(Partition((first,) + tuple(rest)))
    return tuple(out)


def partitions_of(n: int, max_length: int | None = None):
    """All partitions of n, optionally capped in length."""
    if max_length is not None and max_length < 0:
        raise ValueError(f"max_length must be nonnegative, got {max_length}")
    if n < 0:
        return ()
    return _partitions_of(n, n, n if max_length is None else max_length)


# Enumeration limit; shapes past this size mean an unbounded search was asked for.
MAX_TABLEAU_SIZE = 14


def standard_tableaux(shape) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Depth-first enumeration of all standard tableaux of the given shape.

    Each tableau is the tuple of its rows: 1..n, each once, increasing along
    every row and down every column.
    """
    shape = Partition(shape)
    n = shape.size
    if n > MAX_TABLEAU_SIZE:
        raise ValueError(f"shape size {n} exceeds tableau cap {MAX_TABLEAU_SIZE}")
    if n == 0:
        yield ()
        return
    rows = [[] for _ in shape]

    def grow(value: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if value > n:
            yield tuple(map(tuple, rows))
            return
        for i, row in enumerate(rows):
            if len(row) >= shape[i]:
                continue
            if i > 0 and len(rows[i - 1]) <= len(row):
                continue
            row.append(value)
            yield from grow(value + 1)
            row.pop()

    yield from grow(1)


def syt_count(shape) -> int:
    """Number of standard tableaux, by the hook length formula."""
    shape = Partition(shape)
    n = shape.size
    result = factorial(n)
    for row in shape.hook_lengths():
        for hook in row:
            result //= hook
    return result
