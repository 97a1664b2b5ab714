"""The Brauer algebra B_k(-2g): diagrams, relations, and its tensor action.

Diagrams are perfect matchings on k top and k bottom points; composition
stacks two diagrams, removes interior loops, and each loop contributes one
factor of the parameter delta = -2g.  The action on H^(x)k is the sign
twisted one: the subalgebra generated by the s_i acts as sgn(sigma) times
the ordinary place permutation.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction
from functools import cache
from math import comb, prod

from .combinatorics import _doubled_partitions, _matching_expansion, _mn, lr_coefficient
from .partitions import CycleType, Partition, partitions_of
from .tensorspace import (
    Coeff,
    PermAlgebraElement,
    SparseTensor,
    SymplecticSpace,
    _Combination,
    _accumulate,
    _dual_letters,
    _exact,
    act_perm,
    sp_maximal_vector,
)

# Points 0..k-1 are the top row, k..2k-1 the bottom row.


class BrauerDiagram:
    """A perfect matching on 2k labelled points, k on top and k on bottom."""

    __slots__ = ("k", "edges")

    def __init__(self, k: int, edges):
        canonical = tuple(sorted(tuple(sorted(e)) for e in edges))
        points = [p for e in canonical for p in e]
        if sorted(points) != list(range(2 * k)):
            raise ValueError(f"edges must perfectly match 0..{2 * k - 1}")
        self.k = k
        self.edges = canonical

    @classmethod
    def _raw(cls, k: int, canonical_edges) -> "BrauerDiagram":
        self = object.__new__(cls)
        self.k = k
        self.edges = canonical_edges
        return self

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
        permutation sigma (0-indexed image tuple)."""
        return cls(k, [(sigma[p], k + p) for p in range(k)])

    def __eq__(self, other):
        return (
            isinstance(other, BrauerDiagram)
            and self.k == other.k
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.k, self.edges))

    def __lt__(self, other):
        return self.edges < other.edges

    def __repr__(self):
        return f"BrauerDiagram(k={self.k}, {list(self.edges)})"


@cache
def all_diagrams(k: int) -> tuple[BrauerDiagram, ...]:
    """All (2k-1)!! perfect matchings on 2k points."""
    out = []

    def match(points):
        if not points:
            yield ()
            return
        first, rest = points[0], points[1:]
        for idx, second in enumerate(rest):
            for tail in match(rest[:idx] + rest[idx + 1 :]):
                yield ((first, second),) + tail

    for edges in match(tuple(range(2 * k))):
        out.append(BrauerDiagram(k, edges))
    return tuple(sorted(out))


def compose_diagrams(d1: BrauerDiagram, d2: BrauerDiagram) -> tuple[BrauerDiagram, int]:
    """Stack d1 over d2, trace paths, and count removed interior loops.

    Vertices of the stacked graph: 0..k-1 final top, k..2k-1 identified
    middle row, 2k..3k-1 final bottom.  Edges are tracked by id because two
    middle points can be joined by parallel edges (one from each diagram).
    """
    if d1.k != d2.k:
        raise ValueError("size mismatch")
    k = d1.k
    edges: list[tuple[int, int]] = list(d1.edges)  # d1 keeps its ids
    edges += [(a + k, b + k) for a, b in d2.edges]  # d2 shifts down one row
    incident: dict[int, list[int]] = {v: [] for v in range(3 * k)}
    for idx, (a, b) in enumerate(edges):
        incident[a].append(idx)
        incident[b].append(idx)

    def other_end(idx: int, v: int) -> int:
        a, b = edges[idx]
        return b if v == a else a

    used = [False] * len(edges)
    traced: list[tuple[int, int]] = []
    boundary = list(range(k)) + list(range(2 * k, 3 * k))
    for start in boundary:
        e = incident[start][0]
        if used[e]:
            continue  # already traced from the other endpoint
        v = start
        while True:
            used[e] = True
            v = other_end(e, v)
            if v < k or v >= 2 * k:
                break
            first, second = incident[v]
            e = second if e == first else first
        traced.append((start, v))
    loops = 0
    for start_edge in range(len(edges)):
        if used[start_edge]:
            continue
        loops += 1
        e = start_edge
        v = edges[e][0]
        while not used[e]:
            used[e] = True
            v = other_end(e, v)
            first, second = incident[v]
            e = second if e == first else first

    def relabel(v: int) -> int:
        return v if v < k else v - k

    result = BrauerDiagram(k, [(relabel(a), relabel(b)) for a, b in traced])
    return result, loops


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
        self._like(other)
        return self._sum(other, "BrauerElement.add")

    def __sub__(self, other: "BrauerElement") -> "BrauerElement":
        return self + other * -1

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


# Twisted right action on H^(x)k.  Generators: s_j acts as minus the adjacent
# swap; gamma_j pairs out slots j, j+1 and inserts minus the invariant
# 2-tensor in their place.


def _act_s(tensor: SparseTensor, j: int) -> SparseTensor:
    return act_perm(tensor, _minus_swap(tensor.degree, j))


# Cached: _act_s runs once per generator of a diagram word, mostly on small
# tensors, where building the element would cost as much as acting with it.
@cache
def _minus_swap(k: int, j: int) -> PermAlgebraElement:
    return PermAlgebraElement.transposition(k, j) * -1


def _act_gamma(tensor: SparseTensor, j: int) -> SparseTensor:
    space = SymplecticSpace(tensor.n // 2)
    letters = _dual_letters(tensor.n)

    def images():
        for word, coeff in tensor._terms.items():
            value = space.pairing(word[j - 1], word[j])
            if not value:
                continue
            prefix, suffix = word[: j - 1], word[j + 1 :]
            for r, rdual, sign in letters:
                yield prefix + r + rdual + suffix, -coeff * value * sign

    return SparseTensor._raw(tensor._shape, _accumulate({}, images(), "act_gamma"))


def act_twisted_generator(tensor: SparseTensor, kind: str, i: int) -> SparseTensor:
    if kind == "s":
        return _act_s(tensor, i)
    if kind == "gamma":
        return _act_gamma(tensor, i)
    raise ValueError(f"unknown generator kind {kind!r}")


@cache
def _generator_words(k: int) -> dict[BrauerDiagram, tuple[tuple, int]]:
    """BFS expression of every diagram as a generator word and a loop exponent.

    The product of the word's generator diagrams equals delta^exponent times
    the diagram, independently of delta.
    """
    identity = BrauerDiagram.identity(k)
    generators = [("s", i, BrauerDiagram.s(k, i)) for i in range(1, k)] + [
        ("gamma", i, BrauerDiagram.gamma(k, i)) for i in range(1, k)
    ]
    table: dict[BrauerDiagram, tuple[tuple, int]] = {identity: ((), 0)}
    frontier = [identity]
    while frontier:
        next_frontier = []
        for diagram in frontier:
            word, exponent = table[diagram]
            for kind, i, gen in generators:
                product, loops = compose_diagrams(diagram, gen)
                if product not in table:
                    table[product] = (word + ((kind, i),), exponent + loops)
                    next_frontier.append(product)
        frontier = next_frontier
    assert len(table) == len(all_diagrams(k))
    return table


def act_twisted_diagram(tensor: SparseTensor, diagram: BrauerDiagram) -> SparseTensor:
    """Right action of a single diagram, via a generator decomposition."""
    if tensor.degree != diagram.k:
        raise ValueError("degree mismatch")
    word, exponent = _generator_words(diagram.k)[diagram]
    result = tensor
    for kind, i in word:
        result = act_twisted_generator(result, kind, i)
    if exponent:
        delta = Fraction(-tensor.n)
        result = result * (Fraction(1) / delta**exponent)
    return result


def act_twisted(tensor: SparseTensor, element: BrauerElement) -> SparseTensor:
    """Right action of a Brauer element; the parameter must match -2g."""
    if tensor.degree != element.k:
        raise ValueError("degree mismatch")
    if element.delta != -tensor.n:
        raise ValueError(
            f"parameter mismatch: element has delta={element.delta}, space wants {-tensor.n}"
        )
    total = SparseTensor.zero(tensor.degree, tensor.n)
    for diagram, coeff in element._terms.items():
        total = total + coeff * act_twisted_diagram(tensor, diagram)
    return total


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


def check_relations(k: int, g: int, rng=None, panel: int = 3) -> bool:
    """Verify every defining relation diagrammatically and as operators.

    The operator check applies both sides of each relation to a panel of
    random sparse tensors via the twisted action.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    delta = -2 * g
    pairs = _relation_pairs(k, delta)
    for _, lhs, rhs in pairs:
        if lhs != rhs:
            return False
    rng = rng or random.Random(20121123)
    tensors = [_random_tensor(rng, k, 2 * g) for _ in range(panel)]
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


def _paired_points(lam: Partition, k: int) -> int:
    """2j = k - |lam|, the points a cell module of B_k joins in pairs."""
    j2 = k - lam.size
    if j2 < 0 or j2 % 2:
        raise ValueError("|lam| must equal k - 2j")
    return j2


def _cell_weights(lam: Partition, k: int) -> dict[Partition, int]:
    """{nu: weight} over nu of k containing lam', where the nonzero weight is
    the sum over even-row beta of LR^nu_{lam', beta}."""
    j2 = _paired_points(lam, k)
    lam_conj = lam.conjugate()
    # Even-row partitions are the conjugates of the doubled ones.
    betas = [eta.conjugate() for eta in _doubled_partitions(j2)]
    out: dict[Partition, int] = {}
    for nu in partitions_of(k):
        if nu.contains(lam_conj):
            weight = sum(lr_coefficient(nu, lam_conj, beta) for beta in betas)
            if weight:
                out[nu] = weight
    return out


def ram_character(lam, cls, g: int) -> int:
    """Character of the Brauer cell module for lam at a permutation class.

    The class acts through the twisted embedding of S_k in B_k(-2g).  By Ram
    (1995) the character is <s_{lam'} prod_{i<=j} (1 - x_i x_j)^-1, p_cls>,
    and the product is exp(sum_m (p_m^2 + p_2m)/(2m)) in power sums.  So it
    is a sum over the sub-multisets tau of cls with |tau| = k - |lam|: the
    ways to pick tau, times the perfect matchings fixed by a permutation of
    type tau, times chi^{lam'}(cls \\ tau).
    """
    lam, cls = Partition(lam), CycleType(cls)
    if lam.length > g:
        raise ValueError(f"length of lambda exceeds g={g}")
    j2 = _paired_points(lam, cls.size)
    lam_conj = lam.conjugate()
    counts = Counter(cls).items()
    total = 0
    for tau in itertools.product(*(range(a + 1) for _, a in counts)):
        if sum(m * b for (m, _), b in zip(counts, tau)) != j2:
            continue
        weight = prod(
            comb(a, b) * _matching_expansion(m, b, 1).get(0, 0)
            for (m, a), b in zip(counts, tau)
        )
        if weight:
            rest = tuple(m for (m, a), b in zip(counts, tau) for _ in range(a - b))
            total += weight * _mn(lam_conj, rest)
    return total


def restriction_multiset(lam, k: int) -> dict[Partition, int]:
    """Decomposition of the Brauer cell module under the ordinary S_k action.

    Returns {nu': multiplicity}; the conjugation records the sign twist
    between the Brauer embedding of S_k and the place-permutation action.
    """
    weights = _cell_weights(Partition(lam), k)
    return dict(sorted(((nu.conjugate(), w) for nu, w in weights.items()), reverse=True))


def _rank(vectors: list[SparseTensor]) -> int:
    """Rank over Q of a family of sparse tensors, by Gaussian elimination."""
    rows: list[dict[bytes, Fraction]] = []
    for v in vectors:
        if not v.is_zero():
            rows.append({w: Fraction(c) for w, c in v._terms.items()})
    pivots: dict[bytes, dict[bytes, Fraction]] = {}
    for row in rows:
        while row:
            key = min(row)
            if key not in pivots:
                inv = Fraction(1) / row[key]
                pivots[key] = {w: c * inv for w, c in row.items()}
                break
            factor = row[key]
            _accumulate(row, ((w, -factor * c) for w, c in pivots[key].items()), "rank")
    return len(pivots)


def span_equality_check(lam, j: int, k: int, g: int) -> bool:
    """Do the diagram translates of the maximal vector span no more than its
    symmetric group translates?  Exact rank comparison over Q."""
    lam = Partition(lam)
    if lam.size + 2 * j != k:
        raise ValueError("need |lam| + 2j = k")
    vector = sp_maximal_vector(lam, j, g)
    diagram_orbit = [act_twisted_diagram(vector, d) for d in all_diagrams(k)]
    perm_orbit = [
        act_perm(vector, PermAlgebraElement._raw((k,), {tuple(sigma): 1}))
        for sigma in itertools.permutations(range(k))
    ]
    rank_perm = _rank(perm_orbit)
    rank_diagram = _rank(diagram_orbit)
    rank_all = _rank(diagram_orbit + perm_orbit)
    return rank_perm == rank_all == rank_diagram
