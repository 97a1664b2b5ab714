"""Integer partitions, tableaux, and the classical dimension formulas.

Everything here is exact: dimensions come out as Python ints, intermediate
ratios as :class:`fractions.Fraction`.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
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

    def cells(self) -> Iterator[tuple[int, int]]:
        """All (row, col) cells, 0-indexed."""
        for r, part in enumerate(self):
            for c in range(part):
                yield r, c

    def hook_lengths(self) -> tuple[tuple[int, ...], ...]:
        """Hook length of every cell, one tuple per row, in `cells()` order."""
        conj = self.conjugate()
        return tuple(
            tuple(part - c + conj[c] - r - 1 for c in range(part))
            for r, part in enumerate(self)
        )

    def remove_node(self) -> Iterator["Partition"]:
        """Partitions obtained by removing one removable corner cell."""
        for i, part in enumerate(self):
            below = self[i + 1] if i + 1 < len(self) else 0
            if part > below:
                yield Partition(self[:i] + (part - 1,) + self[i + 1 :])

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


class SkewLRTableau:
    """A semistandard filling of a skew shape whose reverse reading word is a
    lattice permutation.

    `filling` maps the cells of outer \\ inner (0-indexed (row, col)) to
    positive integers, weakly increasing along rows and strictly increasing
    down columns; the constructor rejects anything else.
    """

    __slots__ = ("outer", "inner", "filling")

    def __init__(self, outer, inner, filling: dict):
        outer, inner = Partition(outer), Partition(inner)
        if not outer.contains(inner):
            raise ValueError("inner must fit inside outer")
        inner_padded = tuple(inner) + (0,) * (outer.length - inner.length)
        cells = {
            (r, c)
            for r in range(outer.length)
            for c in range(inner_padded[r], outer[r])
        }
        if set(filling) != cells:
            raise ValueError("filling must cover exactly the skew cells")
        if any(v < 1 for v in filling.values()):
            raise ValueError("entries must be positive")
        for r, c in cells:
            if (r, c + 1) in filling and filling[(r, c)] > filling[(r, c + 1)]:
                raise ValueError("rows must weakly increase")
            if (r + 1, c) in filling and filling[(r, c)] >= filling[(r + 1, c)]:
                raise ValueError("columns must strictly increase")
        counts: dict[int, int] = {}
        for r in range(outer.length):
            for c in range(outer[r] - 1, inner_padded[r] - 1, -1):
                v = filling[(r, c)]
                counts[v] = counts.get(v, 0) + 1
                if v > 1 and counts[v] > counts.get(v - 1, 0):
                    raise ValueError("reverse reading word is not a lattice permutation")
        self.outer = outer
        self.inner = inner
        self.filling = dict(filling)

    @property
    def weight(self) -> Partition:
        top = max(self.filling.values(), default=0)
        counts = [0] * top
        for v in self.filling.values():
            counts[v - 1] += 1
        return Partition(counts)

    def __eq__(self, other):
        return (
            isinstance(other, SkewLRTableau)
            and self.outer == other.outer
            and self.inner == other.inner
            and self.filling == other.filling
        )

    def __repr__(self):
        return f"SkewLRTableau({self.outer}\\{self.inner}, {self.filling})"


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
    if n < 0:
        return ()
    return _partitions_of(n, n, n if max_length is None else max_length)


class StandardTableau(tuple):
    """A standard filling of a Young diagram by 1..n.

    Rows increase left to right, columns increase top to bottom, and every
    value in 1..n appears exactly once.  Entries must be integers, as parts
    are, and every row must be nonempty.  A tableau is the tuple of its rows,
    as a `Partition` is its parts: it equals, hashes and sorts as that tuple.
    """

    def __new__(cls, rows):
        rows = tuple(tuple(_integer(v, "entries") for v in row) for row in rows)
        if not all(rows):
            raise ValueError("rows must be nonempty")
        n = Partition(map(len, rows)).size
        seen = sorted(itertools.chain.from_iterable(rows))
        if seen != list(range(1, n + 1)):
            raise ValueError("entries must be exactly 1..n")
        for row in rows:
            for a, b in itertools.pairwise(row):
                if a >= b:
                    raise ValueError("rows must increase strictly")
        for upper, lower in itertools.pairwise(rows):
            for c in range(len(lower)):
                if upper[c] >= lower[c]:
                    raise ValueError("columns must increase strictly")
        return super().__new__(cls, rows)

    rows = property(tuple)
    shape = property(lambda self: Partition(map(len, self)))

    @property
    def descents(self) -> list[int]:
        """Entries i such that i+1 sits in a strictly lower row."""
        row_of = {v: r for r, row in enumerate(self) for v in row}
        return [i for i in range(1, len(row_of)) if row_of[i + 1] > row_of[i]]

    @property
    def major_index(self) -> int:
        return sum(self.descents)

    def __repr__(self):
        return f"StandardTableau{self.rows}"


# Enumeration limit; shapes past this size mean an unbounded search was asked for.
MAX_TABLEAU_SIZE = 14


def standard_tableaux(shape) -> Iterator[StandardTableau]:
    """Depth-first enumeration of all standard tableaux of the given shape."""
    shape = Partition(shape)
    n = shape.size
    if n > MAX_TABLEAU_SIZE:
        raise ValueError(f"shape size {n} exceeds tableau cap {MAX_TABLEAU_SIZE}")
    if n == 0:
        yield StandardTableau(())
        return
    rows = [[] for _ in shape]

    def grow(value: int) -> Iterator[StandardTableau]:
        if value > n:
            yield StandardTableau(tuple(tuple(r) for r in rows))
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


def gl_dimension(shape, n: int) -> int:
    """Dimension of the polynomial GL(n) irreducible, hook content formula."""
    shape = Partition(shape)
    if shape.length > n:
        return 0
    result = Fraction(1)
    for r, row in enumerate(shape.hook_lengths()):
        for c, hook in enumerate(row):
            result *= Fraction(n + c - r, hook)
    if result.denominator != 1:
        raise RuntimeError(f"non-integral GL({n}) dimension {result} for {shape}")
    return result.numerator


def sp_dimension(shape, g: int) -> int:
    """Dimension of the Sp(2g) irreducible, Weyl formula for type C."""
    shape = Partition(shape)
    if shape.length > g:
        raise ValueError(f"partition length {shape.length} exceeds g={g}")
    lam = list(shape) + [0] * (g - shape.length)
    l = [lam[i] + g - i for i in range(g)]
    m = [g - i for i in range(g)]
    result = Fraction(1)
    for i in range(g):
        result *= Fraction(l[i], m[i])
        for j in range(i + 1, g):
            result *= Fraction(l[i] ** 2 - l[j] ** 2, m[i] ** 2 - m[j] ** 2)
    if result.denominator != 1:
        raise RuntimeError(f"non-integral Sp({2 * g}) dimension {result} for {shape}")
    return result.numerator
