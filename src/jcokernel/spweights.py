"""Weights and infinitesimal maximal-vector certification for GL and Sp.

Maximality of a vector under the unipotent upper-triangular subgroup is
certified by annihilation under the Chevalley raising operators, extended to
tensor powers by the Leibniz rule.  In characteristic zero the two conditions
agree, and the operator check is a finite exact computation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, repeat
from operator import contains

from .tensorspace import Coeff, SparseTensor, SymplecticSpace, _accumulate, _form

Weight = tuple[int, ...]


class LieOperator:
    """A linear operator on H given on basis vectors, acting on tensors
    as a derivation."""

    __slots__ = ("n", "columns", "name")

    def __init__(self, n: int, columns: dict[int, tuple[tuple[int, Coeff], ...]], name=""):
        self.n = n
        self.columns = {
            a: tuple((b, c) for b, c in image if c) for a, image in columns.items()
        }
        self.name = name

    def apply_letter(self, a: int):
        return self.columns.get(a, ())

    def apply(self, tensor: SparseTensor) -> SparseTensor:
        """Leibniz extension: sum over positions of the one-letter action."""
        if tensor.n != self.n:
            raise ValueError("alphabet mismatch")
        terms = tensor._terms

        def images():
            for a, image in self.columns.items():
                letter = bytes((a,))
                targets = [(bytes((b,)), c) for b, c in image]
                # Only words holding the letter move; select them in C.
                hits = compress(terms.items(), map(contains, terms, repeat(a)))
                for word, coeff in hits:
                    if word.count(a) == 1:
                        for target, scale in targets:
                            yield word.replace(letter, target), coeff * scale
                    else:
                        p = word.find(a)
                        while p >= 0:
                            head, tail = word[:p], word[p + 1 :]
                            for target, scale in targets:
                                yield head + target + tail, coeff * scale
                            p = word.find(a, p + 1)

        return SparseTensor._raw(tensor._shape, _accumulate({}, images(), "apply"))

    def __repr__(self):
        return f"LieOperator({self.name or self.columns})"


def gl_raising_operators(n: int) -> list[LieOperator]:
    """Simple raising operators E_{i,i+1} for gl(n): e_{i+1} -> e_i."""
    return [
        LieOperator(n, {i + 1: ((i, 1),)}, name=f"E[{i},{i + 1}]") for i in range(1, n)
    ]


def sp_raising_operators(g: int) -> list[LieOperator]:
    """Simple raising operators for sp(2g) in the antidiagonal form.

    X_i (i < g) sends e_{i+1} to e_i and e_{i'} to -e_{(i+1)'}; the long-root
    operator X_g sends e_{g'} to e_g.  Each is compatible with the pairing:
    <Xu, v> + <u, Xv> = 0.
    """
    space = SymplecticSpace(g)
    dual = space.dual
    ops = []
    for i in range(1, g):
        columns = {i + 1: ((i, 1),), dual[i]: ((dual[i + 1], -1),)}
        ops.append(LieOperator(space.n, columns, name=f"X[{i}]"))
    ops.append(LieOperator(space.n, {dual[g]: ((g, 1),)}, name=f"X[{g}]"))
    return ops


def form_compatible(op: LieOperator, space: SymplecticSpace) -> bool:
    """Check <Xe_i, e_j> + <e_i, Xe_j> = 0 over the whole basis."""
    for i in range(1, space.n + 1):
        for j in range(1, space.n + 1):
            total = Fraction(0)
            for b, c in op.apply_letter(i):
                total += c * space.pairing(b, j)
            for b, c in op.apply_letter(j):
                total += c * space.pairing(i, b)
            if total:
                return False
    return True


def word_weight(word, mode: str, n: int) -> Weight:
    """Torus weight of a basis word.

    GL mode counts letters; Sp mode records e_i as +eps_i for i <= g and
    e_{i'} as -eps_i.  A letter outside 1..n raises ValueError.
    """
    word = bytes(word)
    outside = [b for b in word if not 1 <= b <= n]
    if outside:
        raise ValueError(f"letter {outside[0]} out of range 1..{n}")
    if mode == "gl":
        vec = [0] * n
        for b in word:
            vec[b - 1] += 1
        return tuple(vec)
    if mode == "sp":
        space = _form(n)
        dual, sign = space.dual, space.sign
        vec = [0] * space.g
        for b in word:
            vec[min(b, dual[b]) - 1] += sign[b]
        return tuple(vec)
    raise ValueError(f"mode must be 'gl' or 'sp', got {mode!r}")


def common_weight(tensor: SparseTensor, mode: str) -> Weight | None:
    """The single weight shared by every word of the tensor, else None.

    Words with one letter multiset share one weight, so it is computed, and
    its letters checked, once per multiset.
    """
    weight = None
    for letters in set(map(bytes, map(sorted, tensor._terms))):
        vec = word_weight(letters, mode, tensor.n)
        if weight is None:
            weight = vec
        elif weight != vec:
            return None
    return weight


def is_maximal(tensor: SparseTensor, mode: str) -> tuple[bool, Weight | None]:
    """Certify a maximal vector: one common weight, killed by every raising
    operator.  Returns (True, weight) on success; rejects the zero tensor."""
    if tensor.is_zero():
        raise ValueError("the zero tensor has no weight")
    weight = common_weight(tensor, mode)
    if weight is None:
        return False, None
    # common_weight has checked the mode, and the alphabet for mode "sp".
    ops = gl_raising_operators(tensor.n) if mode == "gl" else sp_raising_operators(tensor.n // 2)
    for op in ops:
        if not op.apply(tensor).is_zero():
            return False, None
    return True, weight
