"""Closed-form multiplicity rules: Witt ranks, major-index counts,
Littlewood-Richardson coefficients, branching, and symmetric group characters.

All functions are pure and return exact integers.  The cyclic-restriction
multiplicities follow the Kraskiewicz-Weyman description: the multiplicity of
the j-th character of the cyclic group C_k in the restriction of the Specht
module S^lambda equals the number of standard tableaux of shape lambda whose
major index is congruent to j mod k.  That count is the pairing of s_lambda
with the induced character (1/k) sum over e | k of c_e(j) p_e^(k/e), where
c_e(j) is a Ramanujan sum, evaluated through Murnaghan-Nakayama; no tableau
is built, and enumerating standard tableaux is kept as the test oracle.

Sp(2g) multiplicities of the named modules come from one power-sum core:
each module's Frobenius character has a handful of power-sum terms, and
Littlewood's stable-range rule pairs D^perp of it with Schur functions
through Murnaghan-Nakayama on bead masks (`_mn_column`), paired in
integers by `_pairing`: `sp_decomposition` adds border strips to build each
term's whole character column, and the single-shape queries remove them
from the one shape's mask.  D^perp is one adjoint
exponential, `_adjoint_exp` with sign -1; Ram's Brauer characters
(`brauer.py`) apply the same routine with sign +1.  No program path computes
a Littlewood-Richardson coefficient: `lr_coefficient` and
`gl_to_sp_branching` stay public as the oracle the tests restrict GL
multiplicities through.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import cache
from math import comb, gcd, lcm

from .partitions import CycleType, Partition, partitions_of, syt_count


def _mobius(d: int) -> int:
    result, x, p = 1, d, 2
    while p * p <= x:
        if x % p == 0:
            x //= p
            if x % p == 0:
                return 0
            result = -result
        p += 1
    if x > 1:
        result = -result
    return result


def witt_rank(n: int, k: int) -> int:
    """Rank of the degree-k part of the free Lie ring on n generators.

    Equals (1/k) sum over d | k of mu(d) n^(k/d); the division is always exact.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    total = sum(_mobius(d) * n ** (k // d) for d in range(1, k + 1) if k % d == 0)
    if total % k:
        raise RuntimeError(f"Witt sum {total} is not divisible by k = {k}")
    return total // k


def kw_multiplicity(shape, j: int) -> int:
    """Number of standard tableaux of the given shape with maj = j mod k.

    This is the multiplicity of the j-th cyclic character in the restriction
    of S^shape to the cyclic subgroup generated by a long cycle.
    """
    shape = Partition(shape)
    k = shape.size
    if k < 1:
        raise ValueError("shape must be nonempty")
    return _pairing(_cyclic_character(k, j % k), k, shape).get(shape, 0)


def lr_coefficient(outer, inner, weight) -> int:
    """Littlewood-Richardson coefficient LR^outer_{inner, weight}.

    Counts semistandard fillings of the skew shape outer \\ inner with content
    `weight` whose reverse reading word (right to left, top row first) is a
    lattice permutation.  Returns 0 when the shapes are incompatible.
    """
    return _lr(Partition(outer), Partition(inner), Partition(weight))


@cache
def _lr(outer: Partition, inner: Partition, weight: Partition) -> int:
    """The count of `lr_coefficient`, by backtracking over the cells of
    outer \\ inner in reverse reading order."""
    # Most calls from branching have weight outside outer: no filling, no search.
    if not outer.contains(weight) or not outer.contains(inner):
        return 0
    if outer.size != inner.size + weight.size:
        return 0
    nvals = weight.length
    inner_padded = tuple(inner) + (0,) * (outer.length - inner.length)
    # Cells in reverse reading order: row by row, right to left.
    cells = [
        (r, c)
        for r in range(outer.length)
        for c in range(outer[r] - 1, inner_padded[r] - 1, -1)
    ]
    counts = [0] * (nvals + 1)
    grid: dict[tuple[int, int], int] = {}

    def count(idx: int) -> int:
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        above = grid.get((r - 1, c))
        right = grid.get((r, c + 1))
        total = 0
        for v in range(1, nvals + 1):
            if counts[v] >= weight[v - 1]:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue  # lattice word prefix condition
            if above is not None and v <= above:
                continue
            if right is not None and v > right:
                continue
            counts[v] += 1
            grid[(r, c)] = v
            total += count(idx + 1)
            counts[v] -= 1
            del grid[(r, c)]
        return total

    return count(0)


def _doubled_partitions(total: int):
    """Partitions of `total` whose conjugate is even (rows pair up)."""
    if total % 2:
        return
    for kappa in partitions_of(total // 2):
        yield Partition([p for p in kappa for _ in range(2)])


def gl_to_sp_branching(lam, g: int) -> dict[Partition, int]:
    """Full restriction of a GL(2g) irreducible to Sp(2g).

    Returns the nonzero multiplicities {mubar: N} over partitions with at
    most g rows.
    """
    lam = Partition(lam)
    if lam.length > g:
        raise ValueError(f"length of lambda exceeds g={g}")
    result: dict[Partition, int] = {}
    for total in range(0, lam.size + 1, 2):
        for eta in _doubled_partitions(total):
            if not lam.contains(eta):
                continue
            for mubar in partitions_of(lam.size - total, max_length=g):
                c = lr_coefficient(lam, eta, mubar)
                if c:
                    result[mubar] = result.get(mubar, 0) + c
    return dict(sorted(result.items(), reverse=True))


def sk_character(nu, cls) -> int:
    """Character of the symmetric group irreducible S^nu on a cycle type.

    Evaluated by the Murnaghan-Nakayama rule, removing one border strip per
    cycle from nu's bead mask (`_mn_column`).
    """
    nu, cls = Partition(nu), CycleType(cls)
    if nu.size != cls.size:
        raise ValueError("cycle type must have the same size as the shape")
    return _mn_column(tuple(cls), nu.size, nu).get((1 << nu.size) - 1, 0)


SOURCES = ("h", "cyclic")

# A power-sum polynomial is a dict {cycle type: Fraction}; a cycle type is a
# plain tuple of parts in decreasing order, read as the monomial prod_i p_{rho_i}.


@cache
def _cyclic_character(k: int, j: int) -> dict[tuple[int, ...], Fraction]:
    """Frobenius character of the j-th character of C_k induced to S_k.

    Its value (1/k) sum over t of zeta^(-jt) p_(type of c^t) collects the
    rotations c^t of each order e | k, of type (e)^(k/e), into the Ramanujan
    sum c_e(j) = sum over d | gcd(e, j) of mu(e/d) d.  So j = 0 gives phi(e)
    (the rotation coinvariants) and j = 1 gives mu(e) (the free Lie part L_k).
    """
    out = {}
    for e in range(1, k + 1):
        if k % e == 0:
            c = sum(_mobius(e // d) * d for d in range(1, e + 1) if gcd(e, j) % d == 0)
            if c:
                out[(e,) * (k // e)] = Fraction(c, k)
    return out


def _frobenius_character(source: str, k: int) -> dict[tuple[int, ...], Fraction]:
    """Frobenius character of a named GL-module, in power sums."""
    if source == "h":
        # h(k) is the kernel of the onto bracket H (x) L_{k+1} -> L_{k+2}.
        out = {(*rho, 1): c for rho, c in _cyclic_character(k + 1, 1).items()}
        for rho, c in _cyclic_character(k + 2, 1).items():
            out[rho] = out.get(rho, 0) - c
        return out
    # Coinvariants of the rotation C_k acting on H^(x)k.
    return _cyclic_character(k, 0)


@cache
def _matching_expansion(m: int, a: int, sign: int) -> dict[int, int]:
    """Partial matchings of a factors p_m, as {unmatched count e: weight}.

    A matching takes i pairs (weight m each) and, when m is even, j singletons
    (weight `sign` each): C(a, 2i) (2i-1)!! m^i C(a-2i, j) sign^j ways.  This
    is exp((m/2) d^2/dp_m^2 + sign [m even] d/dp_m) applied to p_m^a, the
    p_m factor of `_adjoint_exp`: sign -1 serves D^perp, sign +1 Ram's Brauer
    characters.  With sign +1, entry e counts the ways to pick a - e of the
    a m-cycles of a permutation and a perfect matching of their points that
    the permutation fixes.
    """
    out: dict[int, int] = {}
    for i in range(a // 2 + 1):
        pairs = comb(a, 2 * i) * double_factorial_odd(i) * m**i
        for j in range(a - 2 * i + 1 if m % 2 == 0 else 1):
            e = a - 2 * i - j
            out[e] = out.get(e, 0) + pairs * comb(a - 2 * i, j) * sign**j
    return out


def _adjoint_exp(
    character: dict[tuple[int, ...], Fraction], sign: int
) -> dict[int, dict[tuple[int, ...], Fraction]]:
    """exp(sum_n (n/2) d^2/dp_n^2 + sign d/dp_2n) applied to a power-sum
    polynomial, the nonzero terms grouped by degree.

    This is the adjoint of multiplication by exp(sum_n (p_n^2 + sign p_2n)/(2n)).
    It factors over the p_m, and each factor lowers the degree by a multiple
    of m, so the whole exponential is applied before the terms are grouped.
    """
    reduced: dict[tuple[int, ...], Fraction] = {}
    for rho, c in character.items():
        parts = Counter(rho)
        factors = [_matching_expansion(m, a, sign).items() for m, a in parts.items()]
        for choice in itertools.product(*factors):
            coeff = c
            sigma: list[int] = []
            for m, (e, n) in zip(parts, choice):
                coeff *= n
                sigma += [m] * e
            key = tuple(sorted(sigma, reverse=True))
            reduced[key] = reduced.get(key, 0) + coeff
    by_degree: dict[int, dict[tuple[int, ...], Fraction]] = {}
    for sigma, c in reduced.items():
        if c:
            by_degree.setdefault(sum(sigma), {})[sigma] = c
    return by_degree


@cache
def _sp_character(source: str, k: int) -> dict[int, dict[tuple[int, ...], Fraction]]:
    """D^perp of the module's Frobenius character, grouped by degree.

    Littlewood's stable-range rule (Macdonald, Symmetric Functions, I.5 Ex. 5;
    Koike-Terada 1987): the Sp(2g) multiplicity of mu in a GL(2g)-module with
    character F is <D^perp F, s_mu> for g >= k+2, where
    D = sum over eta with even columns of s_eta = exp(sum_n (p_n^2 - p_2n)/(2n)).
    """
    return _adjoint_exp(_frobenius_character(source, k), -1)


def _check_module(source: str, k: int, g: int) -> None:
    if source not in SOURCES:
        raise ValueError(f"unknown source {source!r}; expected one of {SOURCES}")
    if k < 1:
        raise ValueError(f"k must be at least 1 for source {source!r}, got k = {k}")
    if g < k + 2:
        raise ValueError(f"stable range requires g >= {k + 2}, got {g}")


def mult_sp_in_module(mubar, source: str, k: int, g: int) -> int:
    """Multiplicity of the Sp(2g) irreducible `mubar` in a named module.

    `source` is one of "h" (bracket-map kernel, degree k) or "cyclic" (cyclic
    quotient of H^(x)k).  Requires the stable range g >= k+2.
    """
    mubar = Partition(mubar)
    _check_module(source, k, g)
    terms = _sp_character(source, k).get(mubar.size, {})
    return _pairing(terms, mubar.size, mubar).get(mubar, 0)


def sp_decomposition(source: str, k: int, g: int) -> dict[Partition, int]:
    """Full Sp(2g) decomposition of a named module, sorted by partition."""
    _check_module(source, k, g)
    result: dict[Partition, int] = {}
    # Every degree is at most k+2 <= g, so no partition is too long for Sp(2g).
    for degree, terms in _sp_character(source, k).items():
        result.update(_pairing(terms, degree))
    return dict(sorted(result.items(), reverse=True))


def _pairing(
    terms: dict[tuple[int, ...], Fraction], beads: int, mu: Partition | None = None
) -> dict[Partition, int]:
    """<sum_sigma c_sigma p_sigma, s_mu> = sum_sigma c_sigma chi^mu(sigma) for
    every mu of at most `beads` rows or, given `mu`, for mu alone; nonzero
    values only.  Every sigma must have the same size.

    With L the lcm of the denominators, the integers c_sigma L times the
    columns chi^.(sigma) (`_mn_column`) are summed per bead mask and divided
    by L, which must leave no remainder.
    """
    scale = lcm(*(c.denominator for c in terms.values()))
    totals: dict[int, int] = {}
    get = totals.get
    for sigma, c in terms.items():
        weight = c.numerator * (scale // c.denominator)
        for mask, chi in _mn_column(sigma, beads, mu).items():
            totals[mask] = get(mask, 0) + weight * chi
    result = {}
    for mask, total in totals.items():
        mult, rest = divmod(total, scale)
        if mult or rest:
            shape = _bead_partition(mask) if mu is None else mu
            if rest:
                raise RuntimeError(f"non-integral multiplicity {Fraction(total, scale)} for {shape}")
            result[shape] = mult
    return result


def _mn_column(parts: tuple[int, ...], beads: int, mu: Partition | None = None) -> dict[int, int]:
    """chi^.(parts) by the Murnaghan-Nakayama rule on bead masks.

    A partition of at most `beads` rows is the mask with that many beads, the
    bits mu_i + beads - i for i = 1..beads, so the empty partition is
    (1 << beads) - 1.  An r-border strip joins a bead and an empty position r
    apart, moving the bead across, with sign (-1) to the number of beads
    strictly between them.  With `mu` None, one strip per part is added to
    the empty mask, which gives chi^mu(parts) for every mu of size sum(parts)
    and at most `beads` rows, keyed by mask: a strip never removes a row, so
    fewer beads cut the walk exactly.  Given mu, the strips are removed from
    mu's mask instead, which leaves {(1 << beads) - 1: chi^mu(parts)}.  The
    parts go in any order; the nonzero sums are kept.
    """
    if mu is None:
        column, side = {(1 << beads) - 1: 1}, 0
    else:
        start = sum(1 << (p + beads - 1 - i) for i, p in enumerate(mu))
        column, side = {start + (1 << (beads - len(mu))) - 1: 1}, -1
    for r in parts:
        swap, inner = (1 << r) + 1, (1 << r) - 2
        moved: dict[int, int] = {}
        get = moved.get
        for mask, c in column.items():
            if not c:
                continue  # the strips cancelled
            # Positions b whose bead state differs from b + r's, with a bead
            # at b to add a strip (side 0) or a hole at b to remove one (side
            # -1); toggling both bits moves the bead.
            ends = (mask ^ (mask >> r)) & (mask ^ side)
            while ends:
                low = ends & -ends
                ends ^= low
                new = mask ^ low * swap
                moved[new] = get(new, 0) + (-c if (mask & low * inner).bit_count() & 1 else c)
        column = moved
    return {mask: c for mask, c in column.items() if c}


def _bead_partition(mask: int) -> Partition:
    """The partition whose beads `mask` sets: each bead's part is the number
    of empty positions below it."""
    gaps = bin(mask)[2:].rstrip("1").split("1")[:0:-1]
    # Gap counts accumulate to a partition: skip the validation.
    return tuple.__new__(Partition, list(itertools.accumulate(map(len, gaps)))[::-1])


def double_factorial_odd(j: int) -> int:
    """(2j-1)!! with the empty product (-1)!! = 1."""
    result = 1
    for i in range(1, 2 * j, 2):
        result *= i
    return result


def _paired_points(lam: Partition, k: int) -> int:
    """2j = k - |lam|, the points a cell module of B_k joins in pairs."""
    j2 = k - lam.size
    if j2 < 0 or j2 % 2:
        raise ValueError(f"|lam| must equal k - 2j, got |lam| = {lam.size}, k = {k}")
    return j2


def brauer_dim(lam, k: int, g: int) -> int:
    """Dimension of the Brauer algebra cell module for lam inside size k.

    Equals C(k, 2j) (2j-1)!! f^lam where 2j = k - |lam|; this is also the
    multiplicity of the Sp(2g) irreducible lam in H^(x)k.
    """
    lam = Partition(lam)
    if lam.length > g:
        raise ValueError(f"length of lambda exceeds g={g}")
    j = _paired_points(lam, k) // 2
    return comb(k, 2 * j) * double_factorial_odd(j) * syt_count(lam)
