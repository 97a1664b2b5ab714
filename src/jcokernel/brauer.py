"""The Brauer algebra B_k(-2g): diagrams, relations, and its tensor action.

Diagrams are perfect matchings on k top and k bottom points, each the
sorted tuple of its edges.  Composition stacks two diagrams and takes the
connected components: a path between outer points is an edge of the
product, and each closed loop of middle points contributes one factor of
the parameter delta = -2g.

The action on H^(x)k is the sign twisted right action, read straight off a
diagram.  The tensor enters at the top row and leaves at the bottom: a top
pair a < b (a cup) multiplies by <w_a, w_b>, a bottom pair p < q (a cap)
inserts omega = sum_r e_r (x) e_r* at slots p, q, and a through strand from
top a to bottom p puts w_a at p.  The image is multiplied by
(-1)^(crossings + caps), where two edges cross when their ends interleave in
boundary order: the top row left to right, then the bottom row right to
left.  So a permutation acts as sgn(sigma) times the ordinary place
permutation, and each s_i as minus the adjacent swap.  Every action costs
time linear in the terms it touches and writes.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import cache

from .combinatorics import _adjoint_exp, _pairing, _paired_points
from .partitions import CycleType, Partition, _integer, partitions_of
from .tensorspace import Coeff, SparseTensor, _Combination, _accumulate, _exact, _form

# Points 0..k-1 are the top row, k..2k-1 the bottom row.


class BrauerDiagram(tuple):
    """A perfect matching on 2k labelled points, k on top and k on bottom.

    A diagram is its sorted tuple of edges (a, b) with a < b, as a
    `Partition` is its parts: it equals, hashes and sorts as that tuple, and
    k is the number of edges.  Points must be integers, as parts are.
    """

    def __new__(cls, k: int, edges):
        if k < 0:
            raise ValueError(f"k must be nonnegative, got k = {k}")
        canonical = sorted(tuple(sorted(_integer(p, "points") for p in e)) for e in edges)
        points = [p for e in canonical for p in e]
        if sorted(points) != list(range(2 * k)):
            raise ValueError(f"edges must perfectly match 0..{2 * k - 1}")
        return super().__new__(cls, canonical)

    k = property(len)
    edges = property(tuple)

    def __getnewargs__(self):  # pickle and copy call __new__(cls, k, edges)
        return self.k, self.edges

    @classmethod
    def identity(cls, k: int) -> "BrauerDiagram":
        return cls(k, [(i, k + i) for i in range(k)])

    @classmethod
    def s(cls, k: int, i: int) -> "BrauerDiagram":
        """Crossing of strands i, i+1 (1-based)."""
        if not 1 <= i <= k - 1:
            raise ValueError(f"s_{i} undefined for size {k}")
        edges = [(j, k + j) for j in range(k) if j not in (i - 1, i)]
        edges += [(i - 1, k + i), (i, k + i - 1)]
        return cls(k, edges)

    @classmethod
    def gamma(cls, k: int, i: int) -> "BrauerDiagram":
        """Horizontal cup-cap joining strands i, i+1 (1-based)."""
        if not 1 <= i <= k - 1:
            raise ValueError(f"gamma_{i} undefined for size {k}")
        edges = [(j, k + j) for j in range(k) if j not in (i - 1, i)]
        edges += [(i - 1, i), (k + i - 1, k + i)]
        return cls(k, edges)

    @classmethod
    def from_permutation(cls, k: int, sigma) -> "BrauerDiagram":
        """Diagram whose twisted action equals sgn(sigma) times the place
        permutation sigma (0-indexed image tuple of length k)."""
        if len(sigma) != k:
            raise ValueError(f"sigma must have length k = {k}, got {len(sigma)}")
        return cls(k, [(sigma[p], k + p) for p in range(k)])

    def __repr__(self):
        return f"BrauerDiagram(k={self.k}, {list(self)})"


def compose_diagrams(d1: BrauerDiagram, d2: BrauerDiagram) -> tuple[BrauerDiagram, int]:
    """Stack d1 over d2 and read off the connected components.

    Points of the stack: 0..k-1 final top, k..2k-1 the shared middle row,
    2k..3k-1 final bottom.  Every point meets at most two edges, so each
    component is a path or a cycle: a path joins two outer points and is an
    edge of the product, a cycle of middle points is a loop.  One pass adds
    the edges of both diagrams, keeping for each path end the path's other
    end; an edge whose two points are the ends of one path closes a loop.
    """
    if d1.k != d2.k:
        raise ValueError("size mismatch")
    k = d1.k
    far = list(range(3 * k))  # far[v]: the other end of the path ending at v
    loops = 0
    for a, b in itertools.chain(d1, ((a + k, b + k) for a, b in d2)):
        end_a, end_b = far[a], far[b]
        if end_a == b:
            loops += 1
        else:
            far[end_a], far[end_b] = end_b, end_a

    def relabel(v: int) -> int:
        return v if v < k else v - k

    outer = itertools.chain(range(k), range(2 * k, 3 * k))
    edges = [(relabel(v), relabel(far[v])) for v in outer if v < far[v]]
    return BrauerDiagram(k, edges), loops


class BrauerElement(_Combination):
    """Finitely supported rational combination of diagrams of one size,
    with loop parameter delta = -2g."""

    __slots__ = ()
    k = property(lambda self: self._shape[0])
    delta = property(lambda self: self._shape[1])

    def __init__(self, k: int, delta: Coeff, terms=None):
        self._shape = (k, _exact(delta, "delta"))

        def check(diagram: BrauerDiagram) -> BrauerDiagram:
            if diagram.k != k:
                raise ValueError("diagram size mismatch")
            return diagram

        self._set_terms(terms, check)

    @classmethod
    def from_diagram(cls, diagram: BrauerDiagram, delta: Coeff) -> "BrauerElement":
        return cls(diagram.k, delta, {diagram: 1})

    @classmethod
    def identity(cls, k: int, delta: Coeff) -> "BrauerElement":
        return cls.from_diagram(BrauerDiagram.identity(k), delta)

    def _like(self, other: "BrauerElement"):
        if self._shape != other._shape:
            raise ValueError("size or parameter mismatch")

    def __add__(self, other: "BrauerElement") -> "BrauerElement":
        if type(other) is not BrauerElement:
            return NotImplemented
        self._like(other)
        return self._sum(other, "BrauerElement.add")

    def __mul__(self, other):
        if not isinstance(other, BrauerElement):
            return self._scale(other)
        self._like(other)

        def products():
            for d1, c1 in self._terms.items():
                for d2, c2 in other._terms.items():
                    product, loops = compose_diagrams(d1, d2)
                    yield product, c1 * c2 * self.delta**loops

        out = _accumulate({}, products(), "BrauerElement.mul")
        return BrauerElement._raw(self._shape, out)

    def __repr__(self):
        return f"BrauerElement(k={self.k}, delta={self.delta}, {len(self._terms)} diagrams)"


@cache
def _plan(diagram: BrauerDiagram) -> tuple[int, tuple, tuple, tuple]:
    """(sign, cups, through strands, caps) of a diagram, in 0-based slots.

    Cups are top pairs (a, b), caps bottom pairs (p, q), both with the smaller
    slot first, and a through strand (a, p) runs from top a to bottom p.
    """
    k = diagram.k

    def place(v: int) -> int:  # boundary order: top left to right, bottom right to left
        return v if v < k else 3 * k - 1 - v

    chords = [sorted(map(place, edge)) for edge in diagram]
    crossings = sum(
        (a < c < b) != (a < d < b) for (a, b), (c, d) in itertools.combinations(chords, 2)
    )
    cups = tuple((a, b) for a, b in diagram if b < k)
    through = tuple((a, b - k) for a, b in diagram if a < k <= b)
    caps = tuple((a - k, b - k) for a, b in diagram if a >= k)
    return (-1) ** (crossings + len(caps)), cups, through, caps


def _images(tensor: SparseTensor, diagram: BrauerDiagram, scale: Coeff):
    """(word, coeff) pairs of scale times the tensor acted on by one diagram."""
    sign, cups, through, caps = _plan(diagram)
    if caps:  # a diagram has as many cups as caps
        form = _form(tensor.n)
        dual, letter_sign, pairs = form.dual, form.sign, form.pairs
    else:
        pairs = ()
    scale *= sign
    out = [0] * diagram.k
    for word, coeff in tensor._terms.items():
        for a, b in cups:
            r = word[a]
            if dual[r] != word[b]:
                break  # <w_a, w_b> = 0
            if letter_sign[r] < 0:
                coeff = -coeff
        else:
            coeff *= scale
            for a, p in through:
                out[p] = word[a]
            # Cap letters are filled lazily: there are n^caps of them per word.
            for fill in itertools.product(pairs, repeat=len(caps)):
                fill_sign = 1
                for (p, q), (r, rdual, s) in zip(caps, fill):
                    out[p], out[q] = r, rdual
                    fill_sign *= s
                yield bytes(out), coeff if fill_sign > 0 else -coeff


def act_twisted(tensor: SparseTensor, element: BrauerElement) -> SparseTensor:
    """Right action of a Brauer element; the parameter must match -2g."""
    if tensor.degree != element.k:
        raise ValueError("degree mismatch")
    if element.delta != -tensor.n:
        raise ValueError(
            f"parameter mismatch: element has delta={element.delta}, space wants {-tensor.n}"
        )
    images = itertools.chain.from_iterable(
        _images(tensor, diagram, coeff) for diagram, coeff in element._terms.items()
    )
    return SparseTensor._raw(tensor._shape, _accumulate({}, images, "act_twisted"))


@cache
def _relation_pairs(k: int, delta: Coeff) -> tuple:
    """(name, lhs, rhs) for every defining relation of B_k(delta).

    Cached: the products depend only on (k, delta), and Brauer elements are
    immutable.
    """

    def s(i):
        return BrauerElement.from_diagram(BrauerDiagram.s(k, i), delta)

    def gm(i):
        return BrauerElement.from_diagram(BrauerDiagram.gamma(k, i), delta)

    one = BrauerElement.identity(k, delta)
    pairs = []
    for i in range(1, k):
        pairs.append((f"s{i}^2 = 1", s(i) * s(i), one))
        pairs.append((f"gm{i}^2 = delta gm{i}", gm(i) * gm(i), gm(i) * delta))
        pairs.append((f"gm{i} s{i} = gm{i}", gm(i) * s(i), gm(i)))
        pairs.append((f"s{i} gm{i} = gm{i}", s(i) * gm(i), gm(i)))
    for i in range(1, k):
        for j in range(i + 2, k):
            pairs.append((f"s{i} s{j} commute", s(i) * s(j), s(j) * s(i)))
            pairs.append((f"s{i} gm{j} commute", s(i) * gm(j), gm(j) * s(i)))
            pairs.append((f"gm{i} s{j} commute", gm(i) * s(j), s(j) * gm(i)))
            pairs.append((f"gm{i} gm{j} commute", gm(i) * gm(j), gm(j) * gm(i)))
    for i in range(1, k - 1):
        pairs.append(
            (f"braid s{i}", s(i) * s(i + 1) * s(i), s(i + 1) * s(i) * s(i + 1))
        )
        pairs.append((f"gm{i} gm{i + 1} gm{i} = gm{i}", gm(i) * gm(i + 1) * gm(i), gm(i)))
        pairs.append(
            (f"gm{i + 1} gm{i} gm{i + 1} = gm{i + 1}", gm(i + 1) * gm(i) * gm(i + 1), gm(i + 1))
        )
        pairs.append(
            (f"s{i} gm{i + 1} gm{i} = s{i + 1} gm{i}", s(i) * gm(i + 1) * gm(i), s(i + 1) * gm(i))
        )
        pairs.append(
            (
                f"gm{i + 1} gm{i} s{i + 1} = gm{i + 1} s{i}",
                gm(i + 1) * gm(i) * s(i + 1),
                gm(i + 1) * s(i),
            )
        )
    return tuple(pairs)


def check_relations(k: int, g: int, rng=None) -> bool:
    """Verify every defining relation of B_k(-2g) diagrammatically.

    Both sides of each relation are multiplied out as Brauer elements and
    compared.  The operator pass then applies both sides to a panel of three
    random sparse tensors via the twisted action, but only once the two
    sides are equal elements, so it checks no more than that `act_twisted`
    depends on the element alone: an action that ignores its element passes.
    That acting by a product equals acting by its factors in turn is checked
    in `tests/test_brauer.py::test_twisted_action_is_right_action`.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if g < 1:
        raise ValueError(f"g must be at least 1, got g = {g}")
    delta = -2 * g
    pairs = _relation_pairs(k, delta)
    for _, lhs, rhs in pairs:
        if lhs != rhs:
            return False
    rng = rng or random.Random(20121123)
    tensors = [_random_tensor(rng, k, 2 * g) for _ in range(3)]
    for _, lhs, rhs in pairs:
        for t in tensors:
            if act_twisted(t, lhs) != act_twisted(t, rhs):
                return False
    return True


def _random_tensor(rng, degree: int, n: int, nterms: int = 5) -> SparseTensor:
    terms = {}
    for _ in range(nterms):
        word = bytes(rng.randint(1, n) for _ in range(degree))
        terms[word] = terms.get(word, 0) + rng.randint(-4, 4)
    return SparseTensor(degree, n, terms)


def ram_character(lam, cls, g: int) -> int:
    """Character of the Brauer cell module for lam at a permutation class.

    The class acts through the twisted embedding of S_k in B_k(-2g).  By Ram
    (1995) the character is <s_{lam'} prod_{i<=j} (1 - x_i x_j)^-1, p_cls>,
    and the product is exp(sum_m (p_m^2 + p_2m)/(2m)) in power sums.  The
    involution omega, with omega(s_{lam'}) = s_lam and omega(p_sigma) =
    sgn(sigma) p_sigma where sgn(sigma) = (-1)^(|sigma| - len(sigma)), is an
    isometry and flips the sign of every p_2m.  So the character is also
    sgn(cls) <s_lam exp(sum_m (p_m^2 - p_2m)/(2m)), p_cls>: the adjoint
    exponential of `combinatorics._adjoint_exp`, with sign -1, applied to
    sgn(cls) p_cls and paired with s_lam itself in degree |lam|.  That
    sign-twisted series depends on the class alone, so `_ram_class` computes
    it once per cycle type.  Its values table is filled a row cap at a time:
    a lam not yet tabled pairs the series with every lam of at most min(g, k)
    rows at once (`combinatorics._pairing`), zeros included, and every later
    value is a lookup, whatever g.
    """
    lam, cls = Partition(lam), CycleType(cls)
    if lam.length > g:
        raise ValueError(f"length of lambda exceeds g={g}")
    series, values = _ram_class(cls)
    value = values.get(lam)
    if value is None:  # a tabled lam has passed the size check for cls
        _paired_points(lam, cls.size)
        # No lam of size <= k has more than k rows: every g >= k fills the
        # whole table.
        rows = min(g, cls.size)
        for size in range(cls.size % 2, cls.size + 1, 2):
            paired = _pairing(series.get(size, {}), min(size, rows))
            values.update((mu, paired.get(mu, 0)) for mu in partitions_of(size, rows))
        value = values[lam]
    return value


@cache
def _ram_class(cls: CycleType) -> tuple[dict[int, dict[tuple[int, ...], Fraction]], dict]:
    """(series, values) of one cycle type.

    The series is exp(sum_n (n/2) d^2/dp_n^2 - d/dp_2n) sgn(cls) p_cls, grouped
    by degree; values maps every lam of size |cls| - 2j and at most as many
    rows as any g asked so far to its character.
    """
    sign = (-1) ** (cls.size - cls.length)
    return _adjoint_exp({tuple(cls): sign}, -1), {}
