"""Test oracles: slow, brute-force or independent constructions that the tests
compare program paths against.  No command, selftest check or benchmark op
runs them, so they live beside the tests rather than in `jcokernel`.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import cache
from math import factorial, prod
from typing import Iterator

from jcokernel.brauer import BrauerDiagram, BrauerElement, act_twisted, ram_character
from jcokernel.combinatorics import _paired_points, kw_multiplicity
from jcokernel.freelie import _family
from jcokernel.partitions import Partition, partitions_of, syt_count
from jcokernel.tensorspace import (
    Coeff,
    CyclicVector,
    PermAlgebraElement,
    SparseTensor,
    _accumulate,
    _perm_sign,
    act_perm,
    cyclic_project,
    gl_maximal_vector,
    omega,
)

# ------------------------------------------------------------- partitions


def cells(lam: Partition) -> Iterator[tuple[int, int]]:
    """All (row, col) cells, 0-indexed.
    Checks `Partition.hook_lengths` by counting arm and leg cells."""
    for r, part in enumerate(lam):
        for c in range(part):
            yield r, c


def remove_node(lam: Partition) -> Iterator[Partition]:
    """Partitions obtained by removing one removable corner cell.
    Feeds `mult_gl_in_h` the shapes of H (x) FreeLie(k+1) by the Pieri rule."""
    for i, part in enumerate(lam):
        below = lam[i + 1] if i + 1 < len(lam) else 0
        if part > below:
            yield Partition(lam[:i] + (part - 1,) + lam[i + 1 :])


def gl_dimension(shape, n: int) -> int:
    """Dimension of the polynomial GL(n) irreducible, hook content formula.
    Checks GL multiplicity tables against Witt ranks and necklace counts."""
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
    """Dimension of the Sp(2g) irreducible, Weyl formula for type C.
    Checks Sp decompositions and branching by total dimension."""
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


# ---------------------------------------------------------- combinatorics


def mult_gl_in_h(lam, g: int) -> int:
    """GL(2g) multiplicity of `lam` in the bracket-map kernel of degree |lam|-2.

    Computed as the multiplicity in H (x) FreeLie(k+1) minus the multiplicity
    in FreeLie(k+2); the surjectivity of the bracket map makes the difference
    the kernel multiplicity, so a negative value signals a bug.  The GL(n)
    multiplicity of `mu` in FreeLie(|mu|) is `kw_multiplicity(mu, 1)`.
    Checks `sp_decomposition("h", ...)` through LR branching, and dim h(k).
    """
    lam = Partition(lam)
    n = 2 * g
    if lam.size < 3:
        raise ValueError("lam must be a partition of k+2 with k >= 1")
    if lam.length > n:
        raise ValueError(f"length of lambda exceeds 2g={n}")
    if n < lam.size + 2:
        raise ValueError(f"stable range requires 2g >= {lam.size + 2}, got {n}")
    in_tensor = sum(kw_multiplicity(mu, 1) for mu in remove_node(lam))
    in_lie = kw_multiplicity(lam, 1)
    result = in_tensor - in_lie
    if result < 0:
        raise RuntimeError(f"negative kernel multiplicity for {lam}: inconsistent rules")
    return result


@cache
def _mn(nu: Partition, parts: tuple[int, ...]) -> int:
    """chi^nu(parts) by the Murnaghan-Nakayama recursion on first-column hook
    lengths (beta-sets), memoised.
    Checks `combinatorics._mn_column` in both directions."""
    if not parts:
        return 1
    if max(parts) == 1:
        return syt_count(nu)  # chi^nu at the identity is f^nu
    t, rest = parts[0], parts[1:]
    length = nu.length
    beta = [nu[i] + length - 1 - i for i in range(length)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - t
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for c in beta if nb < c < b)
        new_beta = sorted((beta_set - {b}) | {nb}, reverse=True)
        # A beta-set always reads back as a partition: skip the validation.
        mu = tuple.__new__(Partition, [
            v - (length - 1 - i) for i, v in enumerate(new_beta) if v - (length - 1 - i) > 0
        ])
        total += (-1) ** height * _mn(mu, rest)
    return total


def _pair(mu: Partition, terms: dict[tuple[int, ...], Fraction]) -> int:
    """<sum_sigma c_sigma p_sigma, s_mu> = sum_sigma c_sigma chi^mu(sigma).
    Checks `combinatorics._pairing` one shape at a time, through `_mn`."""
    total = sum(c * _mn(mu, sigma) for sigma, c in terms.items())
    if total.denominator != 1:
        raise RuntimeError(f"non-integral multiplicity {total} for {mu}")
    return int(total)


# ---------------------------------------------------------------- freelie


def left_normed_bracket(letters, n: int) -> SparseTensor:
    """The left-normed bracket [v_1, v_2, ..., v_m] inside tensor degree m,
    via [x, y] = x (x) y - y (x) x applied recursively.
    Checks `theta` and `is_lie_element` on bracket polynomials."""
    letters = tuple(letters)
    if not letters:
        raise ValueError("need at least one letter")
    result = SparseTensor.basis_word(n, letters[:1])
    for letter in letters[1:]:
        single = SparseTensor.basis_word(n, (letter,))
        result = result.tensor(single) - single.tensor(result)
    return result


def seed_projection(family: str, k: int, g: int) -> CyclicVector:
    """Rotation-quotient image of the family's seed word at genus g.
    Checks the scalar `detect` reads off the window's GL maximal vector."""
    return cyclic_project(gl_maximal_vector(_family(family).partition(k), 2 * g))


# ------------------------------------------------------------ tensorspace


def _column_major_positions(lam: Partition):
    """Row and column position blocks of the column-major filling of lam."""
    conj = lam.conjugate()
    rows: list[list[int]] = [[] for _ in range(lam.length)]
    cols: list[list[int]] = []
    pos = 0
    for height in conj:
        col = list(range(pos, pos + height))
        pos += height
        cols.append(col)
        for r, p in enumerate(col):
            rows[r].append(p)
    return rows, cols


def _block_group(degree: int, blocks, signed: bool) -> PermAlgebraElement:
    """Sum of the permutations preserving each block, signed or not."""
    terms: dict[tuple[int, ...], Coeff] = {}
    perms_per_block = [list(itertools.permutations(block)) for block in blocks]
    for choice in itertools.product(*perms_per_block):
        sigma = list(range(degree))
        sign = 1
        for block, image in zip(blocks, choice):
            for src, dst in zip(block, image):
                sigma[src] = dst
            if signed:
                index = {p: q for q, p in enumerate(block)}
                sign *= _perm_sign(tuple(index[v] for v in image))
        terms[tuple(sigma)] = sign if signed else 1
    return PermAlgebraElement._raw((degree,), terms)


def young_symmetrizer(lam) -> PermAlgebraElement:
    """Unnormalized Young symmetrizer for the column-major filling of lam.

    Row-group sum times signed column-group sum; satisfies c*c = m*c for a
    positive rational m.  Acting on the column word e_1..e_h e_1..e_h' ... it
    reproduces the wedge-product maximal vector up to the positive integer
    factor prod(lam_i!).
    Checks `gl_maximal_vector` on shapes with several columns.
    """
    lam = Partition(lam)
    degree = lam.size
    rows, cols = _column_major_positions(lam)
    return _block_group(degree, rows, signed=False) * _block_group(
        degree, cols, signed=True
    )


def young_row_factor(lam) -> int:
    """The scale prod(lam_i!) relating word * symmetrizer to the wedge form.
    Checks `gl_maximal_vector` with `young_symmetrizer`."""
    return prod(factorial(p) for p in Partition(lam))


def sp_maximal_vector(lam, j: int, g: int) -> SparseTensor:
    """omega^(x)j tensor the GL column wedge vector; degree |lam| + 2j.
    Checks `is_maximal` in Sp mode, and seeds the Brauer rank and trace checks."""
    lam = Partition(lam)
    if lam.length > g:
        raise ValueError(f"partition length exceeds g={g}")
    if j < 0:
        raise ValueError("j must be nonnegative")
    result = SparseTensor(0, 2 * g, {b"": 1})
    om = omega(g)
    for _ in range(j):
        result = result.tensor(om)
    return result.tensor(gl_maximal_vector(lam, 2 * g))


# ----------------------------------------------------------------- brauer


@cache
def all_diagrams(k: int) -> tuple[BrauerDiagram, ...]:
    """All (2k-1)!! perfect matchings on 2k points, sorted.
    Checks composition, the twisted action and the relations on every diagram."""

    def match(points):
        if not points:
            yield ()
            return
        first, rest = points[0], points[1:]
        for idx, second in enumerate(rest):
            for tail in match(rest[:idx] + rest[idx + 1 :]):
                yield ((first, second),) + tail

    return tuple(sorted(BrauerDiagram(k, edges) for edges in match(tuple(range(2 * k)))))


def act_twisted_diagram(tensor: SparseTensor, diagram: BrauerDiagram) -> SparseTensor:
    """Right action of a single diagram.
    Checks `act_twisted` diagram by diagram against generator words."""
    return act_twisted(tensor, BrauerElement.from_diagram(diagram, -tensor.n))


def restriction_multiset(lam, k: int) -> dict[Partition, int]:
    """Decomposition of the Brauer cell module under the ordinary S_k action.

    Returns {nu': multiplicity}; the conjugation records the sign twist
    between the Brauer embedding of S_k and the place-permutation action.
    The multiplicity of nu is <ram_character(lam, .), chi^nu>, the sum over
    classes rho of ram_character(lam, rho) chi^nu(rho) / z_rho.  Ram's value
    does not depend on g, and once |lam| <= k is checked, g = k always passes
    its length check.
    Checks `ram_character` against LR cell weights and brute-force traces.
    """
    lam = Partition(lam)
    _paired_points(lam, k)
    character = {
        tuple(rho): Fraction(ram_character(lam, rho, k), _centralizer(rho))
        for rho in partitions_of(k)
    }
    table = ((nu.conjugate(), _pair(nu, character)) for nu in partitions_of(k))
    return dict(sorted(((nu, m) for nu, m in table if m), reverse=True))


def _centralizer(rho) -> int:
    """z_rho = prod_m m^a_m a_m!, the order of the centralizer of a permutation
    of cycle type rho, where rho has a_m parts m."""
    return prod(m**a * factorial(a) for m, a in Counter(rho).items())


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
    symmetric group translates?  Exact rank comparison over Q.
    Checks the Brauer-Schur-Weyl duality the paper's construction leans on."""
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
