"""Dynkin-Specht-Wever elements, membership criteria, and candidate vectors.

The degree-m projector theta_m = (1 - sigma_2)...(1 - sigma_m) characterizes
the Lie elements of tensor degree m: t is a bracket polynomial iff
t . theta_m = m t.  The stabilizer variant theta_P (fixing the first slot)
together with invariance under the full rotation characterizes the kernel of
the bracket map inside H (x) FreeLie(k+1), viewed in tensor degree k+2.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, reduce
from math import comb
from operator import mul

from .partitions import Partition
from .tensorspace import (
    Coeff,
    PermAlgebraElement,
    SparseTensor,
    _accumulate,
    _form,
    _note_terms,
    act_perm,
    expansion,
    gl_maximal_vector,
    omega,
)

FAMILY_SYMMETRIC = "[k]"
FAMILY_ALTERNATING = "[1^k]"
FAMILIES = (FAMILY_SYMMETRIC, FAMILY_ALTERNATING)


def _rotation(m: int, start: int, stop: int) -> PermAlgebraElement:
    """Rotate slots start+1..stop (1-based), the last of them to the front."""
    sigma = list(range(m))
    sigma[start + 1 : stop] = range(start, stop - 1)
    sigma[start] = stop - 1
    return PermAlgebraElement._raw((m,), {tuple(sigma): 1})


@cache
def _negated_rotations(m: int, start: int) -> tuple[PermAlgebraElement, ...]:
    """-r for the rotations r of slots start+1..stop, stop = start+2..m.

    With start 0 the factors 1 - r multiply to theta_m; with start 1, which
    fixes the first slot, to theta_P.
    """
    return tuple(-1 * _rotation(m, start, stop) for stop in range(start + 2, m + 1))


def _expand(m: int, start: int) -> PermAlgebraElement:
    one = PermAlgebraElement.identity(m)
    return reduce(mul, [one + negated for negated in _negated_rotations(m, start)], one)


def _fold(tensor: SparseTensor, start: int) -> SparseTensor:
    """t times the factors of `_expand`, one at a time to bound growth: each
    factor adds the moved copy t.(-r) into a copy of t in one pass."""
    result = tensor
    for negated in _negated_rotations(tensor.degree, start):
        result = result + act_perm(result, negated)
    return result


def rotation_cycle(m: int, i: int) -> PermAlgebraElement:
    """sigma_i = s_{i-1}...s_1: rotate the first i slots, last of them to front."""
    if not 2 <= i <= m:
        raise ValueError(f"need 2 <= i <= {m}")
    return _rotation(m, 0, i)


def full_cycle(m: int) -> PermAlgebraElement:
    """The full rotation sigma_m; has order m."""
    return rotation_cycle(m, m)


def theta(m: int) -> PermAlgebraElement:
    """The product (1 - sigma_2)...(1 - sigma_m); satisfies theta^2 = m theta."""
    if m < 2:
        raise ValueError("theta needs degree >= 2")
    return _expand(m, 0)


def theta_stabilizer(k: int) -> PermAlgebraElement:
    """The slot-1 stabilizer analogue of theta, in degree k+2.

    Product of (1 - s_i...s_2) for i = 2..k+1; every permutation in its
    support fixes the first slot.
    """
    if k < 1:
        raise ValueError("k must be positive")
    return _expand(k + 2, 1)


def apply_theta(tensor: SparseTensor) -> SparseTensor:
    """t . theta_m, folding the factors one at a time to bound growth."""
    if tensor.degree < 2:
        raise ValueError("theta needs degree >= 2")
    return _fold(tensor, 0)


def apply_theta_stabilizer(tensor: SparseTensor, k: int) -> SparseTensor:
    """t . theta_P for a degree-(k+2) tensor, folded factor by factor."""
    if tensor.degree != k + 2:
        raise ValueError(f"tensor degree must be {k + 2}")
    return _fold(tensor, 1)


def rotation_orbit_sum(tensor: SparseTensor) -> SparseTensor:
    """t . (1 + sigma + ... + sigma^(m-1)) for the full rotation sigma."""
    sigma = full_cycle(tensor.degree)
    total = dict(tensor._terms)
    current = tensor
    for _ in range(tensor.degree - 1):
        current = act_perm(current, sigma)
        _accumulate(total, current._terms.items(), "add")
    # Cancelled terms leave the grown table oversized (1.3 MB against 0.6 MB
    # for the [1^5] candidate at g=7).  The result stays alive through every
    # later stage, so return a copy sized for the surviving terms.
    return SparseTensor._raw(tensor._shape, dict(total))


def left_normed_bracket(letters, n: int) -> SparseTensor:
    """The left-normed bracket [v_1, v_2, ..., v_m] inside tensor degree m,
    via [x, y] = x (x) y - y (x) x applied recursively."""
    letters = tuple(letters)
    if not letters:
        raise ValueError("need at least one letter")
    result = SparseTensor.basis_word(n, letters[:1])
    for letter in letters[1:]:
        single = SparseTensor.basis_word(n, (letter,))
        result = result.tensor(single) - single.tensor(result)
    return result


def _letter_blocks(tensor: SparseTensor) -> list[SparseTensor]:
    """The distinct blocks of t, one per letter multiset, each relabelled
    onto letters 1..d and signed to a canonical form.

    A place permutation keeps the letter multiset of a word and commutes
    with relabelling the letters and with scalars, so an identity
    t . x = c t holds on t exactly when it holds on every block here.
    Letters are ordered by descending count, then by letter; a block whose
    least word has a negative coefficient is negated.  Blocks that agree
    after this are checked once: omega sums one pattern over all g pairs.
    """
    terms = tensor._terms
    groups: dict[bytes, dict[bytes, Coeff]] = {}
    for letters, (word, coeff) in zip(map(bytes, map(sorted, terms)), terms.items()):
        groups.setdefault(letters, {})[word] = coeff
    blocks: dict[frozenset, SparseTensor] = {}
    for letters, block in groups.items():
        order = sorted(set(letters), key=lambda a: (-letters.count(a), a))
        table = bytes.maketrans(bytes(order), bytes(range(1, len(order) + 1)))
        relabelled = {word.translate(table): coeff for word, coeff in block.items()}
        if relabelled[min(relabelled)] < 0:
            relabelled = {word: -coeff for word, coeff in relabelled.items()}
        blocks.setdefault(
            frozenset(relabelled.items()), SparseTensor._raw(tensor._shape, relabelled)
        )
    return list(blocks.values())


def is_lie_element(tensor: SparseTensor) -> bool:
    """Exact test t . theta_m = m t, once per letter block; the zero tensor
    passes vacuously.  Every degree-1 tensor is a Lie element, and no
    nonzero degree-0 one is: the free Lie algebra has no degree-0 part."""
    if tensor.degree < 2:
        return tensor.degree == 1 or tensor.is_zero()
    m = tensor.degree
    return all(apply_theta(block) == m * block for block in _letter_blocks(tensor))


def is_in_h(tensor: SparseTensor, k: int) -> bool:
    """Membership in the bracket-map kernel, by the two-sided criterion
    t . theta_P = (k+1) t and t . sigma_{k+2} = t, both exact and checked
    once per letter block."""
    if tensor.degree != k + 2:
        raise ValueError(f"tensor degree must be {k + 2}")
    sigma = full_cycle(k + 2)
    return all(
        _fold(block, 1) == (k + 1) * block and act_perm(block, sigma) == block
        for block in _letter_blocks(tensor)
    )


def averaged_projector(k: int) -> PermAlgebraElement:
    """theta_P (1 + sigma + ... + sigma^(k+1)); lands every vector in the
    bracket-map kernel."""
    m = k + 2
    # (w . sigma^j)[p] = w[p - j]: the m powers are distinct, so nothing cancels.
    powers = {tuple((p - j) % m for p in range(m)): 1 for j in range(m)}
    return theta_stabilizer(k) * PermAlgebraElement._raw((m,), powers)


@dataclass(frozen=True)
class _Family:
    """What defines a family: its partition of k, the closed-form
    coefficients for r = 1..k+1, and the k its theorem covers (`requirement`
    says which).  The seed word is the GL maximal vector of the partition."""

    partition: Callable[[int], Partition]
    coefficients: Callable[[int], list[int]]
    admissible: Callable[[int], bool]
    requirement: str


def _alternating_coefficients(k: int) -> list[int]:
    if (k - 1) % 2:
        raise ValueError("family [1^k] needs odd k for the closed form")
    return [
        (-1 if r % 4 in (2, 3) else 1) * comb((k - 1) // 2, (r - 1) // 2)
        for r in range(1, k + 2)
    ]


_FAMILY_TABLE = {
    FAMILY_SYMMETRIC: _Family(
        partition=lambda k: Partition((k,)),
        coefficients=lambda k: [(-1) ** (r - 1) * comb(k, r - 1) for r in range(1, k + 2)],
        admissible=lambda k: k >= 3 and k % 2 == 1,
        requirement="family [k] requires odd k >= 3",
    ),
    FAMILY_ALTERNATING: _Family(
        partition=lambda k: Partition((1,) * k),
        coefficients=_alternating_coefficients,
        admissible=lambda k: k >= 5 and k % 4 == 1,
        requirement="family [1^k] requires k = 1 (mod 4) and k >= 5",
    ),
}


def _family(family: str) -> _Family:
    entry = _FAMILY_TABLE.get(family)
    if entry is None:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    return entry


def _checked_family(family: str, k: int, g: int) -> _Family:
    """The family's entry, once k and g are checked to be positive."""
    entry = _family(family)
    if k < 1 or g < 1:
        raise ValueError("k and g must be positive")
    return entry


def family_preconditions(family: str, k: int, g: int) -> str | None:
    """The violated precondition as a message, or None when admissible; an
    unknown family raises ValueError."""
    entry = _family(family)
    if g < k + 2:
        return f"stable range requires g >= k+2 = {k + 2}, got g = {g}"
    if not entry.admissible(k):
        return f"{entry.requirement}, got k = {k}"
    return None


def _check_preconditions(family: str, k: int, g: int) -> None:
    problem = family_preconditions(family, k, g)
    if problem:
        raise ValueError(problem)


def _swap_pairs(n: int, r: int, j: int) -> bytes:
    """The letter table that swaps pair r with pair j: r <-> j and r' <-> j'."""
    dual = _form(n).dual
    return bytes.maketrans(bytes((r, j, dual[r], dual[j])), bytes((j, r, dual[j], dual[r])))


def _relabelled(terms: dict, table: bytes, eps: int):
    """The terms with their words relabelled by table, times eps."""
    return ((word.translate(table), eps * coeff) for word, coeff in terms.items())


def _copy_sign(source: dict, target: dict, table: bytes) -> int:
    """eps in (1, -1) with source relabelled by table equal to eps * target,
    or 0 when neither sign makes them equal."""
    moved = dict(_relabelled(source, table, 1))
    if moved == target:
        return 1
    return -1 if moved == {word: -coeff for word, coeff in target.items()} else 0


@dataclass(frozen=True)
class PairBlocks:
    """A candidate (omega (x) seed) . x as one letter block per symplectic pair.

    omega sums one term per pair, so the candidate is the sum of blocks, the
    block of pair j holding the images of the seed words whose omega letters
    are j and j'.  Their letter multisets differ from pair to pair, so the
    blocks have disjoint supports.  A relabelling of the letters commutes with
    every place permutation, so when swapping pair r with pair j maps the
    seed words of pair r onto eps times those of pair j, block j is block r
    relabelled the same way, times eps.  `folded` maps each representative
    pair r to its block, computed; `copies[j - 1]` is (r, eps) for pair j,
    and (j, 1) for a representative.
    """

    shape: tuple[int, int]
    folded: dict[int, SparseTensor]
    copies: tuple[tuple[int, int], ...]

    def block(self, j: int) -> SparseTensor:
        """The block of pair j."""
        r, eps = self.copies[j - 1]
        table = _swap_pairs(self.shape[1], r, j)
        return SparseTensor._raw(self.shape, dict(_relabelled(self.folded[r]._terms, table, eps)))

    def assemble(self) -> SparseTensor:
        """The whole candidate.  Its size is the sum of the block sizes, and
        is noted to the watermark before any word is copied."""
        _note_terms(sum(len(self.folded[r]._terms) for r, _ in self.copies), "assemble")
        n = self.shape[1]
        out: dict[bytes, Coeff] = {}
        for j, (r, eps) in enumerate(self.copies, 1):
            out.update(_relabelled(self.folded[r]._terms, _swap_pairs(n, r, j), eps))
        return SparseTensor._raw(self.shape, out)

    def multisets(self) -> set[bytes]:
        """The letter multisets of the candidate's words, read once per
        representative and relabelled for its copies (letters unordered)."""
        n = self.shape[1]
        read = {r: set(map(bytes, map(sorted, block._terms))) for r, block in self.folded.items()}
        return {
            letters.translate(_swap_pairs(n, r, j))
            for j, (r, _) in enumerate(self.copies, 1)
            for letters in read[r]
        }


def _pair_blocks(seed: SparseTensor, k: int) -> PairBlocks:
    """(omega (x) t) . theta_P (1 + sigma + ... + sigma^(k+1)) as letter blocks.

    `seed` is omega (x) t for a degree-k tensor t whose words share one
    letter multiset, as a GL maximal vector's do, so the first two letters
    of each word name its pair and the blocks have disjoint supports; any
    other seed raises ValueError.  Pair j reuses the first earlier
    representative r whose seed words, with pair r swapped for pair j, are
    exactly +-1 times those of pair j; otherwise its block is folded and
    orbit-summed from its seed words.
    """
    n = seed.n
    dual = _form(n).dual
    terms = seed._terms
    if len({bytes(sorted(word[2:])) for word in terms}) > 1 or any(
        word[1] != dual[word[0]] for word in terms
    ):
        raise ValueError("seed must be omega (x) t, the words of t sharing one letter multiset")
    parts: dict[int, dict[bytes, Coeff]] = {}
    for word, coeff in terms.items():
        parts.setdefault(min(word[0], dual[word[0]]), {})[word] = coeff
    folded: dict[int, SparseTensor] = {}
    copies = []
    for j in range(1, n // 2 + 1):
        part = parts.get(j, {})
        for r in folded:
            eps = _copy_sign(parts.get(r, {}), part, _swap_pairs(n, r, j))
            if eps:
                copies.append((r, eps))
                break
        else:
            block = SparseTensor._raw(seed._shape, part)
            folded[j] = rotation_orbit_sum(apply_theta_stabilizer(block, k))
            copies.append((j, 1))
    return PairBlocks(seed._shape, folded, tuple(copies))


def candidate_blocks(family: str, k: int, g: int, check: bool = True) -> PairBlocks:
    """The family's candidate at genus g, as letter blocks (`_pair_blocks`).

    The seed is omega (x) the GL maximal vector of the family's partition:
    omega (x) e_1^(x)k for family "[k]" and omega (x) wedge for family "[1^k]".
    For "[1^k]" the wedge is antisymmetric, so the pairs it touches copy pair
    1 with eps = -1, and the pairs above k copy pair k + 1.
    """
    if check:
        _check_preconditions(family, k, g)
    partition = _checked_family(family, k, g).partition
    seed = omega(g).tensor(gl_maximal_vector(partition(k), 2 * g))
    return _pair_blocks(seed, k)


def phi_candidate(family: str, k: int, g: int, check: bool = True) -> SparseTensor:
    """Seed vector pushed into the bracket-map kernel by the averaged projector,
    assembled from its letter blocks (`candidate_blocks`)."""
    return candidate_blocks(family, k, g, check).assemble()


def closed_form_phi(
    family: str, k: int, g: int, check: bool = True, pair: int | None = None
) -> SparseTensor:
    """Explicit double-sum form of the candidate vector.

    2 sum_{i=1}^{k+1} sum_{r=1}^{k-i+2} sign(r) binom(r) (seed word) . D_{i,i+r}
    with sign (-1)^(r-1), binom C(k, r-1) for family "[k]" and sign
    (-1)^[r = 2,3 mod 4], binom C((k-1)/2, floor((r-1)/2)) for family "[1^k]".
    With `pair`, each D inserts that pair's letters only, which gives the
    candidate's letter block for the pair.
    """
    if check:
        _check_preconditions(family, k, g)
    entry = _checked_family(family, k, g)
    coefficients = entry.coefficients(k)
    n = 2 * g
    base = gl_maximal_vector(entry.partition(k), n)
    total: dict[bytes, int] = {}
    for i in range(1, k + 2):
        for r in range(1, k - i + 3):
            scale = 2 * coefficients[r - 1]
            terms = expansion(base, i, i + r, pair)._terms.items()
            _accumulate(total, ((word, coeff * scale) for word, coeff in terms), "add")
    return SparseTensor._raw((k + 2, n), total)
