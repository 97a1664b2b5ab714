"""Dynkin-Specht-Wever elements, membership criteria, and candidate vectors.

The degree-m projector theta_m = (1 - sigma_2)...(1 - sigma_m) characterizes
the Lie elements of tensor degree m: t is a bracket polynomial iff
t . theta_m = m t.  The stabilizer variant theta_P (fixing the first slot)
together with invariance under the full rotation characterizes the kernel of
the bracket map inside H (x) FreeLie(k+1), viewed in tensor degree k+2.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
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


def full_cycle(m: int) -> PermAlgebraElement:
    """The full rotation sigma_m = s_{m-1}...s_1, the last slot to the front,
    as sigma_i rotates the first i slots; has order m."""
    if m < 2:
        raise ValueError(f"the full rotation needs degree >= 2, got m = {m}")
    return _rotation(m, 0, m)


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


def _check_stabilizer_degree(tensor: SparseTensor, k: int) -> None:
    if k < 1:
        raise ValueError("k must be positive")
    if tensor.degree != k + 2:
        raise ValueError(f"tensor degree must be {k + 2}")


def apply_theta_stabilizer(tensor: SparseTensor, k: int) -> SparseTensor:
    """t . theta_P for a degree-(k+2) tensor, folded factor by factor."""
    _check_stabilizer_degree(tensor, k)
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


@dataclass(frozen=True)
class LetterBlocks:
    """A tensor t as letter blocks, one per letter multiset of its words.

    Blocks are numbered from 1 in the order their first words occur; block
    b has the letter multiset `letters[b - 1]` (sorted bytes).  A block's
    relabelled form renames its letters, by descending count and then by
    letter, onto 1..d, with the sign making the least word's coefficient
    positive.  `reps` maps the first block of each form to that block, in
    its own letters; `copies[b - 1]` is (r, table, eps): block b is eps
    times block r renamed by the `bytes.translate` table.

    A place permutation keeps the letter multiset of a word and commutes
    with renaming letters and with scalars, so t . x is the sum of the
    blocks b . x, each eps times (r . x) renamed: `map` computes t . x on
    the reps only, and t . x = c t holds exactly when it holds on every rep.
    """

    shape: tuple[int, int]
    reps: dict[int, SparseTensor]
    copies: tuple[tuple[int, bytes, int], ...]
    letters: tuple[bytes, ...]

    def rename(self, b: int, tensor: SparseTensor) -> SparseTensor:
        """eps times `tensor` renamed by table, for copy b = (r, table, eps);
        the result keeps `tensor`'s shape, so a contracted rep stays degree k."""
        _, table, eps = self.copies[b - 1]
        terms = {word.translate(table): eps * coeff for word, coeff in tensor._terms.items()}
        return SparseTensor._raw(tensor._shape, terms)

    def block(self, b: int) -> SparseTensor:
        """Block b, in its own letters."""
        return self.rename(b, self.reps[self.copies[b - 1][0]])

    def assemble(self) -> SparseTensor:
        """The whole tensor.  Its size is the sum of the block sizes, and is
        noted to the watermark before any word is copied."""
        _note_terms(sum(len(self.reps[r]._terms) for r, _, _ in self.copies), "assemble")
        out: dict[bytes, Coeff] = {}
        for b, (r, _, _) in enumerate(self.copies, 1):
            out.update(self.rename(b, self.reps[r])._terms)
        return SparseTensor._raw(self.shape, out)

    def map(self, f: Callable[[SparseTensor], SparseTensor]) -> LetterBlocks:
        """The blocks of t . x, for f(s) = s . x with x in the place-permutation
        algebra: f runs on the reps only, and `rename` gives every copy.  cont_k
        commutes only with renamings that keep the pairing, so it is no `map`."""
        return replace(self, reps={r: f(rep) for r, rep in self.reps.items()})


def _letter_blocks(tensor: SparseTensor) -> LetterBlocks:
    """The letter blocks of t (`LetterBlocks`), grouped in one pass."""
    terms = tensor._terms
    groups: dict[bytes, dict[bytes, Coeff]] = {}
    for letters, (word, coeff) in zip(map(bytes, map(sorted, terms)), terms.items()):
        groups.setdefault(letters, {})[word] = coeff
    # Blocks a and b with equal relabelled forms satisfy b = eps_a eps_b
    # times a renamed by bytes.maketrans(order_a, order_b).
    forms: dict[frozenset, tuple[int, bytes, int]] = {}
    reps: dict[int, SparseTensor] = {}
    copies = []
    for b, (letters, block) in enumerate(groups.items(), 1):
        order = bytes(sorted(set(letters), key=lambda a: (-letters.count(a), a)))
        table = bytes.maketrans(order, bytes(range(1, len(order) + 1)))
        relabelled = {word.translate(table): coeff for word, coeff in block.items()}
        eps = -1 if relabelled[min(relabelled)] < 0 else 1
        form = frozenset((word, eps * coeff) for word, coeff in relabelled.items())
        r, order_r, eps_r = forms.setdefault(form, (b, order, eps))
        if r == b:
            reps[b] = SparseTensor._raw(tensor._shape, block)
        copies.append((r, bytes.maketrans(order_r, order), eps_r * eps))
    return LetterBlocks(tensor._shape, reps, tuple(copies), tuple(groups))


def is_lie_element(tensor: SparseTensor) -> bool:
    """Exact test t . theta_m = m t, once per letter block; the zero tensor
    passes vacuously.  Every degree-1 tensor is a Lie element, and no
    nonzero degree-0 one is: the free Lie algebra has no degree-0 part."""
    if tensor.degree < 2:
        return tensor.degree == 1 or tensor.is_zero()
    m = tensor.degree
    return all(apply_theta(block) == m * block for block in _letter_blocks(tensor).reps.values())


def _in_h_block(tensor: SparseTensor, k: int) -> bool:
    """The criterion of `is_in_h` on a tensor as it stands, ungrouped:
    t . theta_P = (k+1) t and t . sigma_{k+2} = t, both exact."""
    return _fold(tensor, 1) == (k + 1) * tensor and act_perm(tensor, full_cycle(k + 2)) == tensor


def is_in_h(tensor: SparseTensor, k: int) -> bool:
    """Membership in the bracket-map kernel, by the criterion of
    `_in_h_block` checked once per relabelled letter block."""
    _check_stabilizer_degree(tensor, k)
    return all(_in_h_block(block, k) for block in _letter_blocks(tensor).reps.values())


def _projector_word(k: int) -> SparseTensor:
    """w . theta_P (1 + sigma + ... + sigma^(k+1)) for the word w = 1 2 ... k+2.

    w has k+2 distinct letters, so a -> w . a is injective on Q[S_{k+2}],
    and the image, of at most (k+2) 2^k terms, meets the criterion of
    `_in_h_block` exactly when the averaged projector x does:
    x theta_P = (k+1) x and x sigma = x.  Any word u of degree k+2 is the
    image of w under the letter map i -> u[i-1], which commutes with every
    place permutation, so u . x is that image of w . x: when this tensor
    is in h(k), so is t . x for every tensor t of degree k+2.
    """
    word = SparseTensor.basis_word(k + 2, range(1, k + 3))
    return rotation_orbit_sum(apply_theta_stabilizer(word, k))


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


def _pair_blocks(seed: SparseTensor, k: int) -> LetterBlocks:
    """(omega (x) t) . theta_P (1 + sigma + ... + sigma^(k+1)) as letter blocks.

    `seed` is omega (x) t for a degree-k tensor t whose words share one
    letter multiset, as a GL maximal vector's do, so the seed has one letter
    block per symplectic pair, and block b holds the words whose first two
    letters are b and b' in some order; any seed whose block b is not pair
    b raises ValueError.  The first block of each relabelled form is folded
    and orbit-summed, and the others copy it.  For the "[1^k]" seed, pair
    j <= k renames pair 1's wedge letters by a j-cycle, so it copies pair 1
    with eps = (-1)^(j-1), and the pairs above k copy pair k + 1.
    """
    dual = _form(seed.n).dual
    blocks = _letter_blocks(seed)
    g = seed.n // 2
    if len(blocks.copies) != g or any(
        word[0] not in (b, dual[b]) or word[1] != dual[word[0]]
        for b in range(1, g + 1)
        for word in blocks.block(b)._terms
    ):
        raise ValueError("seed must be omega (x) t, the words of t sharing one letter multiset")
    return blocks.map(lambda block: rotation_orbit_sum(apply_theta_stabilizer(block, k)))


def family_factors(family: str, k: int, g: int) -> tuple[SparseTensor, SparseTensor]:
    """omega and the GL maximal vector of the family's partition at genus g:
    e_1^(x)k for family "[k]" and the wedge e_1 ^ ... ^ e_k for "[1^k]".
    Both are Sp maximal: omega is Sp invariant, and every Sp raising
    operator sends a letter to a smaller one, so it kills the GL maximal
    vector."""
    partition = _checked_family(family, k, g).partition
    return omega(g), gl_maximal_vector(partition(k), 2 * g)


def family_seed(family: str, k: int, g: int) -> SparseTensor:
    """omega (x) the GL maximal vector of the family's partition at genus g,
    the product of `family_factors`."""
    form, top = family_factors(family, k, g)
    return form.tensor(top)


def phi_candidate(family: str, k: int, g: int, check: bool = True) -> SparseTensor:
    """Seed vector pushed into the bracket-map kernel by the averaged projector,
    assembled from its letter blocks (`_pair_blocks` of `family_seed`)."""
    if check:
        _check_preconditions(family, k, g)
    return _pair_blocks(family_seed(family, k, g), k).assemble()


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
    return _closed_form(gl_maximal_vector(entry.partition(k), 2 * g), entry.coefficients(k), pair)


def _closed_form(base: SparseTensor, coefficients, pair: int | None) -> SparseTensor:
    """`closed_form_phi` on the GL maximal vector `base` it would build, with
    the family's coefficients sign(r) binom(r) for r = 1..k+1."""
    k = base.degree
    total: dict[bytes, int] = {}
    for i in range(1, k + 2):
        for r in range(1, k - i + 3):
            scale = 2 * coefficients[r - 1]
            terms = expansion(base, i, i + r, pair)._terms.items()
            _accumulate(total, ((word, coeff * scale) for word, coeff in terms), "add")
    return SparseTensor._raw((k + 2, base.n), total)
