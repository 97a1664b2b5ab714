"""Exact sparse tensor algebra over H = Q^(2g) with the symplectic pairing.

Words over the basis alphabet {1..n} are stored as fixed-width byte strings;
coefficients are exact (int or Fraction), and an inexact coefficient or
scalar raises TypeError.  No stored coefficient is ever zero.  Tensors,
permutation-algebra elements and cyclic classes (and Brauer elements in
`brauer`) share one linear-combination core, `_Combination`, which holds
all of their arithmetic, and sum terms through `_accumulate`.  All values are immutable: every operation returns a
fresh object.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from functools import cache
from math import factorial
from operator import itemgetter

from .partitions import Partition

Coeff = int | Fraction


class TermLimitError(RuntimeError):
    """Raised when a tensor operation exceeds the live term watermark.

    Carries enough context to rerun with a higher limit.
    """

    def __init__(self, operation: str, count: int, limit: int):
        super().__init__(
            f"{operation}: live term count {count} exceeds watermark {limit}; "
            f"raise the limit with set_term_limit() or --watermark and rerun"
        )
        self.operation = operation
        self.count = count
        self.limit = limit


_term_limit = 5_000_000
_peak_terms = 0


def set_term_limit(limit: int) -> None:
    global _term_limit
    if limit < 1:
        raise ValueError("watermark must be positive")
    _term_limit = limit


def get_term_limit() -> int:
    return _term_limit


def peak_terms() -> int:
    """High-water mark of live terms seen since the last reset."""
    return _peak_terms


def reset_peak_terms() -> None:
    global _peak_terms
    _peak_terms = 0


def _note_terms(count: int, operation: str) -> None:
    global _peak_terms
    if count > _peak_terms:
        _peak_terms = count
    if count > _term_limit:
        raise TermLimitError(operation, count, _term_limit)


def rat_str(value: Coeff) -> str:
    """Exact "p/q" rendering, including "n/1" for integers."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def rat_parse(text: str) -> Fraction:
    num, _, den = text.partition("/")
    try:
        return Fraction(int(num), int(den) if den else 1)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


class SymplecticSpace:
    """The 2g-dimensional rational symplectic space with basis e_1..e_2g.

    The index involution is i' = 2g - i + 1; the pairing satisfies
    <e_i, e_i'> = 1 for i <= g and is antisymmetric.  This class is the one
    place the form is written down, as three letter tables: `dual[i]` = i'
    and `sign[i]`, so that e_i* = sign[i] e_i' and <e_i, e_j> = sign[i] iff
    j = i' (entry 0 of both is unused), and `pairs`, the triples
    (r, r', sign[r]) for r = 1..2g.
    """

    __slots__ = ("g", "n", "dual", "sign", "pairs")

    def __init__(self, g: int):
        if g < 1:
            raise ValueError("genus must be positive")
        if g > 127:
            raise ValueError(f"genus {g} out of range: the 2g letters are bytes, so g <= 127")
        self.g = g
        self.n = n = 2 * g
        self.dual = (0, *range(n, 0, -1))
        self.sign = (0,) + (1,) * g + (-1,) * g
        self.pairs = tuple(zip(range(1, n + 1), self.dual[1:], self.sign[1:]))

    def _check(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise ValueError(f"index {i} out of range 1..{self.n}")

    def dual_basis_vector(self, i: int) -> tuple[int, int]:
        """e_i* as (index, sign): (i', +1) for i <= g, (i', -1) for i > g."""
        self._check(i)
        return self.dual[i], self.sign[i]

    def pairing(self, i: int, j: int) -> int:
        self._check(i)
        self._check(j)
        return self.sign[i] if j == self.dual[i] else 0

    def __eq__(self, other):
        return isinstance(other, SymplecticSpace) and other.g == self.g

    def __hash__(self):
        return hash(("SymplecticSpace", self.g))

    def __repr__(self):
        return f"SymplecticSpace(g={self.g})"


@cache
def _form(n: int) -> SymplecticSpace:
    """The symplectic space whose basis letters are the alphabet {1..n}."""
    if n % 2:
        raise ValueError(f"symplectic tensors need an even alphabet, got n={n}")
    return SymplecticSpace(n // 2)


def _exact(value: Coeff, what: str) -> Coeff:
    """The value itself if it is an int or Fraction; TypeError otherwise."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"{what} {value!r} is not an exact int or Fraction")
    return value


def _accumulate(out: dict, pairs, operation: str) -> dict:
    """Sum (key, coeff) pairs into out, dropping keys whose sum is zero.

    Reports live terms to the watermark once per call; the only other
    reporters are the builders whose terms cannot collide, `wedge`, `tensor`
    and the one-permutation `act_perm`, and the candidate's assembly in
    `freelie`.
    """
    get = out.get
    for key, coeff in pairs:
        new = get(key, 0) + coeff
        if new:
            out[key] = new
        else:
            out.pop(key, None)
    _note_terms(len(out), operation)
    return out


class _Combination:
    """Finitely supported exact linear combination of hashable keys.

    `_shape` holds the data that fix the space (degree, alphabet, loop
    parameter), which subclasses expose as named properties; `_terms` maps
    keys to nonzero int or Fraction coefficients.  This class owns all of the
    arithmetic: `+` and `-` of two values of one type and shape, unary minus,
    exact scaling, and `_product`, the bilinear product that an algebra type
    calls with its rule for composing two keys.
    """

    __slots__ = ("_shape", "_terms")

    def _set_terms(self, terms, check_key) -> None:
        checked = (
            (check_key(key), _exact(coeff, "coefficient"))
            for key, coeff in (terms or {}).items()
        )
        self._terms = _accumulate({}, checked, type(self).__name__)

    @classmethod
    def _raw(cls, shape: tuple, terms: dict):
        # Internal fast path; terms must already be normalized.
        self = object.__new__(cls)
        self._shape = shape
        self._terms = terms
        return self

    def _scale(self, scalar: Coeff):
        _exact(scalar, "scalar")
        terms = {key: c * scalar for key, c in self._terms.items()} if scalar else {}
        return self._raw(self._shape, terms)

    __mul__ = __rmul__ = _scale

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self._shape != other._shape:
            raise ValueError(f"add: mismatched shapes {self._shape} and {other._shape}")
        return self._raw(self._shape, _accumulate(dict(self._terms), other._terms.items(), "add"))

    def __neg__(self):
        return self._scale(-1)

    def __sub__(self, other):
        return self + other * -1

    def _product(self, other, compose, operation: str):
        """The bilinear product: sum of c1 c2 f key over pairs of terms
        (key1, c1), (key2, c2), where compose(key1, key2) = (key, f).  An
        `other` of another type is a scalar."""
        if type(other) is not type(self):
            return self._scale(other)
        if self._shape != other._shape:
            raise ValueError(f"{operation}: mismatched shapes {self._shape} and {other._shape}")
        products = (
            (key, c1 * c2 * factor)
            for key1, c1 in self._terms.items()
            for key2, c2 in other._terms.items()
            for key, factor in (compose(key1, key2),)
        )
        return self._raw(self._shape, _accumulate({}, products, operation))

    def terms(self):
        """Terms sorted by key."""
        return sorted(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def support_size(self) -> int:
        return len(self._terms)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self._shape == other._shape
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((*self._shape, frozenset(self._terms.items())))


def _check_alphabet(degree: int, n: int) -> None:
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if not 1 <= n <= 255:
        raise ValueError(f"alphabet size {n} out of range 1..255: letters are bytes (g <= 127)")


def _checked_word(word, degree: int, n: int) -> bytes:
    word = bytes(word)
    if len(word) != degree or any(not 1 <= b <= n for b in word):
        raise ValueError(f"bad word {word!r} for degree {degree}, n {n}")
    return word


class _Words(_Combination):
    """A combination of length-`degree` words over the letters {1..n}; each
    checked word is stored under the key `_key(word)`."""

    __slots__ = ()
    degree = property(lambda self: self._shape[0])
    n = property(lambda self: self._shape[1])
    _key = staticmethod(lambda word: word)

    def __init__(self, degree: int, n: int, terms=None):
        _check_alphabet(degree, n)
        self._shape = (degree, n)
        key = self._key
        self._set_terms(terms, lambda word: key(_checked_word(word, degree, n)))

    def to_json_dict(self) -> dict:
        """JSON layout over the 2g letters of a symplectic space; terms
        sorted by word."""
        return {
            "degree": self.degree,
            "g": _form(self.n).g,
            "terms": [
                {"word": list(word), "coeff": rat_str(coeff)}
                for word, coeff in self.terms()
            ],
        }


class SparseTensor(_Words):
    """Finitely supported map from length-m words over {1..n} to rationals."""

    __slots__ = ()

    @classmethod
    def zero(cls, degree: int, n: int) -> "SparseTensor":
        return cls._raw((degree, n), {})

    @classmethod
    def basis_word(cls, n: int, letters) -> "SparseTensor":
        word = bytes(letters)
        return cls(len(word), n, {word: 1})

    # The benchmark's tracer wraps `SparseTensor.__add__` by name in this
    # class's own namespace, so the shared method is bound here as well.
    __add__ = _Combination.__add__

    def tensor(self, other: "SparseTensor") -> "SparseTensor":
        """Tensor product; degrees add.  The |a| * |b| products are distinct
        words with nonzero coefficients, so that count is noted to the
        watermark before any is built."""
        if self.n != other.n:
            raise ValueError("tensor: mismatched alphabet")
        _note_terms(len(self._terms) * len(other._terms), "tensor")
        out: dict[bytes, Coeff] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                out[w1 + w2] = c1 * c2
        return SparseTensor._raw((self.degree + other.degree, self.n), out)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "SparseTensor":
        terms: dict[bytes, Fraction] = {}
        for entry in data["terms"]:
            word = bytes(entry["word"])
            if word in terms:
                raise ValueError(f"repeated word {list(word)} in terms")
            terms[word] = rat_parse(entry["coeff"])
        return cls(data["degree"], 2 * data["g"], terms)

    @classmethod
    def from_json(cls, text: str) -> "SparseTensor":
        return cls.from_json_dict(json.loads(text))

    def __repr__(self):
        shown = ", ".join(
            f"{rat_str(c)}*{tuple(w)}" for w, c in itertools.islice(self.terms(), 4)
        )
        extra = "" if len(self._terms) <= 4 else f", ... ({len(self._terms)} terms)"
        return f"SparseTensor(deg={self.degree}, n={self.n}, [{shown}{extra}])"


def _perm_sign(sigma) -> int:
    seen = [False] * len(sigma)
    sign = 1
    for start in range(len(sigma)):
        if seen[start]:
            continue
        length = 0
        p = start
        while not seen[p]:
            seen[p] = True
            p = sigma[p]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


class PermAlgebraElement(_Combination):
    """Finitely supported rational combination of place permutations.

    Permutations are stored 0-indexed as tuples sigma with the action
    (w . sigma)[p] = w[sigma[p]]; the product sigma * tau composes so that
    (w . sigma) . tau = w . (sigma * tau).
    """

    __slots__ = ()
    degree = property(lambda self: self._shape[0])

    def __init__(self, degree: int, terms=None):
        self._shape = (degree,)

        def check(sigma) -> tuple[int, ...]:
            sigma = tuple(sigma)
            if sorted(sigma) != list(range(degree)):
                raise ValueError(f"not a permutation of 0..{degree - 1}: {sigma}")
            return sigma

        self._set_terms(terms, check)

    @classmethod
    def identity(cls, degree: int) -> "PermAlgebraElement":
        return cls._raw((degree,), {tuple(range(degree)): 1})

    @classmethod
    def transposition(cls, degree: int, i: int) -> "PermAlgebraElement":
        """The adjacent swap s_i of positions i and i+1, 1-based."""
        if not 1 <= i <= degree - 1:
            raise ValueError(f"s_{i} undefined in degree {degree}")
        sigma = list(range(degree))
        sigma[i - 1], sigma[i] = sigma[i], sigma[i - 1]
        return cls._raw((degree,), {tuple(sigma): 1})

    @classmethod
    def from_permutation(cls, sigma, coeff: Coeff = 1) -> "PermAlgebraElement":
        return cls(len(tuple(sigma)), {tuple(sigma): coeff})

    def __mul__(self, other):
        def compose(sigma, tau):
            return tuple(map(sigma.__getitem__, tau)), 1

        return self._product(other, compose, "PermAlgebraElement.mul")

    def __repr__(self):
        shown = ", ".join(f"{rat_str(c)}*{s}" for s, c in itertools.islice(self.terms(), 3))
        extra = "" if len(self._terms) <= 3 else f", ... ({len(self._terms)} terms)"
        return f"PermAlgebraElement(deg={self.degree}, [{shown}{extra}])"


def act_perm(tensor: SparseTensor, element: PermAlgebraElement) -> SparseTensor:
    """Right place-permutation action, extended linearly in both arguments."""
    if tensor.degree != element.degree:
        raise ValueError(
            f"degree mismatch: tensor {tensor.degree}, algebra {element.degree}"
        )
    terms = tensor._terms.items()
    if len(element._terms) == 1:
        # One permutation maps words one-to-one and its coefficient is
        # nonzero, so no two images collide and no term cancels.
        ((sigma, scale),) = element._terms.items()
        if len(sigma) < 2:
            # The identity is the only permutation here.  itemgetter() would
            # need an index, and itemgetter(0) returns an int, which bytes()
            # reads as a length.
            out = {word: coeff * scale for word, coeff in terms}
        else:
            pick = itemgetter(*sigma)
            out = {bytes(pick(word)): coeff * scale for word, coeff in terms}
        _note_terms(len(out), "act_perm")
        return SparseTensor._raw(tensor._shape, out)
    # Several permutations occur only in degree >= 2.
    out = {}
    for sigma, scale in element._terms.items():
        pick = itemgetter(*sigma)
        moved = ((bytes(pick(word)), coeff * scale) for word, coeff in terms)
        _accumulate(out, moved, "act_perm")
    return SparseTensor._raw(tensor._shape, out)


def omega(g: int) -> SparseTensor:
    """The invariant 2-tensor: sum of e_i (x) e_i* over the basis."""
    space = SymplecticSpace(g)
    terms = {bytes((r, rdual)): sign for r, rdual, sign in space.pairs}
    return SparseTensor._raw((2, space.n), terms)


def wedge(indices, n: int) -> SparseTensor:
    """Antisymmetrizer: sum of sgn(sigma) permutations of the given word.

    A repeated index yields the zero tensor.  Otherwise the k! words are
    distinct, so that count is noted to the watermark, under the name of the
    tensor it makes, before any is built.
    """
    indices = tuple(indices)
    k = len(indices)
    _check_alphabet(k, n)
    if len(set(indices)) != k:
        return SparseTensor.zero(k, n)
    word = _checked_word(indices, k, n)
    _note_terms(factorial(k), "SparseTensor")
    terms = {
        bytes(map(word.__getitem__, sigma)): _perm_sign(sigma)
        for sigma in itertools.permutations(range(k))
    }
    return SparseTensor._raw((k, n), terms)


@cache
def _dual_letters(n: int) -> tuple[tuple[bytes, bytes, int], ...]:
    """(e_r, e_r', sign) as one-letter words for r = 1..n, where e_r* = sign e_r'."""
    return tuple((bytes((r,)), bytes((rdual,)), sign) for r, rdual, sign in _form(n).pairs)


def expansion(tensor: SparseTensor, i: int, j: int, pair: int | None = None) -> SparseTensor:
    """The (i, j)-expansion: insert e_r at slot i and e_r* at slot j, summed over r.

    Original factors shift to fill the remaining k slots in order.  With
    `pair` = p, the sum runs over the two letters p and p' of that pair only.
    """
    k = tensor.degree
    if not 1 <= i < j <= k + 2:
        raise ValueError(f"need 1 <= i < j <= {k + 2}, got ({i}, {j})")
    letters = _dual_letters(tensor.n)
    if pair is not None:
        if not 1 <= pair <= tensor.n // 2:
            raise ValueError(f"pair {pair} out of range 1..{tensor.n // 2}")
        letters = (letters[pair - 1], letters[_form(tensor.n).dual[pair] - 1])
    # The original word splits around the inserted slots i and j.
    a, b = i - 1, j - 2
    pieces = [(word[:a], word[a:b], word[b:], coeff) for word, coeff in tensor._terms.items()]
    expanded = (
        (head + r + mid + rdual + tail, coeff * sign)
        for head, mid, tail, coeff in pieces
        for r, rdual, sign in letters
    )
    return SparseTensor._raw((k + 2, tensor.n), _accumulate({}, expanded, "expansion"))


def cont_k(tensor: SparseTensor) -> SparseTensor:
    """Contract the first two factors: e_a (x) e_b (x) rest -> <e_b, e_a> rest."""
    if tensor.degree < 2:
        raise ValueError("contraction needs degree >= 2")
    space = _form(tensor.n)
    dual, sign = space.dual, space.sign
    contracted = (
        (word[2:], coeff * sign[word[1]])
        for word, coeff in tensor._terms.items()
        if dual[word[1]] == word[0]
    )
    out = _accumulate({}, contracted, "cont_k")
    return SparseTensor._raw((tensor.degree - 2, tensor.n), out)


def _canonical_rotation(word: bytes) -> bytes:
    if len(word) < 2:
        return word
    return min(word[s:] + word[:s] for s in range(len(word)))


class CyclicVector(_Words):
    """Image of a tensor in the quotient by sign-free cyclic rotation.

    Coefficients are stored on the lexicographically least rotation of each
    orbit.
    """

    __slots__ = ()
    _key = staticmethod(_canonical_rotation)

    def ratio_to(self, other: "CyclicVector") -> Fraction | None:
        """The scalar s with self = s * other, or None if not proportional;
        0 for a zero self, and None for a zero other."""
        if self._shape != other._shape or other.is_zero():
            return None
        if self.is_zero():
            return Fraction(0)
        if self._terms.keys() != other._terms.keys():
            return None
        ratios = {Fraction(c) / other._terms[word] for word, c in self._terms.items()}
        return ratios.pop() if len(ratios) == 1 else None

    def __repr__(self):
        return f"CyclicVector(deg={self.degree}, n={self.n}, {len(self._terms)} orbits)"


def cyclic_project(tensor: SparseTensor) -> CyclicVector:
    """Sum coefficients over rotation orbits, signs untouched."""
    orbits = ((_canonical_rotation(word), coeff) for word, coeff in tensor._terms.items())
    out = _accumulate({}, orbits, "cyclic_project")
    return CyclicVector._raw((tensor.degree, tensor.n), out)


def gl_maximal_vector(lam, n: int) -> SparseTensor:
    """Tensor product of column antisymmetrizers e_1 ^ .. ^ e_h over columns."""
    lam = Partition(lam)
    if lam.length > n:
        raise ValueError(f"partition length exceeds alphabet {n}")
    result = SparseTensor(0, n, {b"": 1})
    for height in lam.conjugate():
        result = result.tensor(wedge(range(1, height + 1), n))
    return result
