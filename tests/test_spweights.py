import random
from fractions import Fraction

import pytest

from jcokernel.brauer import _random_tensor as random_tensor
from jcokernel.freelie import averaged_projector
from jcokernel.partitions import partitions_of
from jcokernel.spweights import (
    common_weight,
    form_compatible,
    gl_raising_operators,
    is_maximal,
    sp_raising_operators,
    word_weight,
)
from jcokernel.tensorspace import (
    PermAlgebraElement,
    SparseTensor,
    SymplecticSpace,
    act_perm,
    gl_maximal_vector,
    omega,
    wedge,
)
from oracles import sp_maximal_vector


def test_word_weights():
    assert word_weight((1, 2, 3), "sp", 10) == (1, 1, 1, 0, 0)
    assert word_weight((1, 10), "sp", 10) == (0, 0, 0, 0, 0)
    assert word_weight((1, 1, 1), "gl", 4) == (3, 0, 0, 0)


@pytest.mark.parametrize("mode", ["gl", "sp"])
@pytest.mark.parametrize("letter", [0, 5])
def test_word_weight_rejects_letters_outside_the_alphabet(mode, letter):
    # Unchecked, letter 0 would index the last slot of the weight vector.
    message = f"letter {letter} out of range 1..4"
    with pytest.raises(ValueError, match=message):
        word_weight(bytes((letter, 1)), mode, 4)
    with pytest.raises(ValueError, match=message):
        common_weight(SparseTensor._raw((2, 4), {bytes((1, letter)): 1}), mode)


def test_operator_counts():
    for g in range(1, 6):
        assert len(gl_raising_operators(2 * g)) == 2 * g - 1
        assert len(sp_raising_operators(g)) == g


def test_sp_operators_form_compatible():
    for g in range(1, 9):
        space = SymplecticSpace(g)
        for op in sp_raising_operators(g):
            assert form_compatible(op, space)


def test_sp_operators_raise_weight_by_simple_roots():
    for g in range(2, 6):
        n = 2 * g
        ops = sp_raising_operators(g)
        for idx, op in enumerate(ops):
            i = idx + 1
            if i < g:
                alpha = tuple(
                    1 if c == i - 1 else -1 if c == i else 0 for c in range(g)
                )
            else:
                alpha = tuple(2 if c == g - 1 else 0 for c in range(g))
            for a in range(1, n + 1):
                before = word_weight((a,), "sp", n)
                for b, _ in op.apply_letter(a):
                    after = word_weight((b,), "sp", n)
                    assert tuple(x - y for x, y in zip(after, before)) == alpha


def test_derivation_rule_on_tensor_products():
    rng = random.Random(17)
    for _ in range(10):
        g = rng.choice((2, 3))
        t = random_tensor(rng, 2, 2 * g, 3)
        u = random_tensor(rng, 3, 2 * g, 3)
        for op in sp_raising_operators(g):
            lhs = op.apply(t.tensor(u))
            rhs = op.apply(t).tensor(u) + t.tensor(op.apply(u))
            assert lhs == rhs


def test_omega_annihilated_infinitesimally():
    for g in range(1, 9):
        om = omega(g)
        for op in sp_raising_operators(g):
            assert op.apply(om).is_zero()


def test_gl_maximal_vectors():
    for size in range(1, 6):
        for lam in partitions_of(size):
            n = size + 2
            ok, weight = is_maximal(gl_maximal_vector(lam, n), "gl")
            assert ok
            assert weight == tuple(lam) + (0,) * (n - lam.length)


def test_sp_maximal_vectors():
    for k in range(1, 5):
        g = k + 2
        for j in range(0, k // 2 + 1):
            for lam in partitions_of(k - 2 * j):
                ok, weight = is_maximal(sp_maximal_vector(lam, j, g), "sp")
                assert ok
                assert weight == tuple(lam) + (0,) * (g - lam.length)


def test_non_maximal_examples():
    g = 3
    # e_2 alone has a raising operator sending it to e_1.
    ok, _ = is_maximal(SparseTensor.basis_word(2 * g, (2,)), "sp")
    assert not ok
    # Mixed weights are rejected before any operator is applied.
    mixed = SparseTensor(1, 2 * g, {bytes((1,)): 1, bytes((2,)): 1})
    assert is_maximal(mixed, "sp") == (False, None)
    with pytest.raises(ValueError):
        is_maximal(SparseTensor.zero(1, 2 * g), "sp")


def test_common_weight_per_letter_multiset():
    g = 5
    n = 2 * g
    # Rearranged words and different multisets of one weight: e_1 e_1' and
    # e_2 e_2' both have weight 0.
    same = SparseTensor(2, n, {bytes((1, 10)): 1, bytes((10, 1)): -1, bytes((2, 9)): 3})
    assert common_weight(same, "sp") == (0,) * g
    assert common_weight(same, "gl") is None
    # Two weights in one tensor, whatever the order of its words.
    for words in ([(1, 2), (2, 1), (1, 3)], [(1, 3), (2, 1), (1, 2)]):
        mixed = SparseTensor(2, n, {bytes(w): 1 for w in words})
        assert common_weight(mixed, "sp") is None
        assert common_weight(mixed, "gl") is None
    assert common_weight(SparseTensor.zero(2, n), "sp") is None


def test_wedge_is_maximal_of_column_weight():
    for k in range(1, 5):
        g = k + 2
        ok, weight = is_maximal(wedge(range(1, k + 1), 2 * g), "sp")
        assert ok and weight == (1,) * k + (0,) * (g - k)


def apply_reference(op, tensor):
    """Per-position Leibniz rule, summed in a plain dict."""
    out = {}
    for word, coeff in tensor.terms():
        for p, a in enumerate(word):
            for b, c in op.apply_letter(a):
                image = word[:p] + bytes((b,)) + word[p + 1 :]
                out[image] = out.get(image, 0) + coeff * c
    return {word: coeff for word, coeff in out.items() if coeff}


def test_apply_matches_per_position_reference():
    rng = random.Random(31)
    for g in (1, 2, 3):
        n = 2 * g
        for op in gl_raising_operators(2 * g) + sp_raising_operators(g):
            for a in op.columns:
                others = [b for b in range(1, n + 1) if b != a]
                # Words hold the moved letter zero, one or several times;
                # omega (x) u adds images that cancel under the sp operators.
                for times in (0, 1, 2, 3):
                    terms = {}
                    for _ in range(4):
                        word = [rng.choice(others) for _ in range(5 - times)]
                        for _ in range(times):
                            word.insert(rng.randint(0, len(word)), a)
                        terms[bytes(word)] = rng.choice((1, -2, Fraction(3, 5)))
                    t = SparseTensor(5, n, terms) + omega(g).tensor(random_tensor(rng, 3, n))
                    assert dict(op.apply(t).terms()) == apply_reference(op, t)


def test_raising_operators_commute_with_place_permutations():
    # X(t . x) = X(t) . x: X acts letter by letter and x moves slots.  detect
    # rests on it to carry maximality from its seed to seed . x.  Most t are
    # not maximal, so most images are nonzero.
    rng = random.Random(21)
    moved = checked = 0
    for g in (1, 2, 3):
        n = 2 * g
        for degree in range(1, 6):
            elements = [
                PermAlgebraElement.from_permutation(
                    rng.sample(range(degree), degree), rng.choice((1, -2, Fraction(1, 3)))
                )
                for _ in range(3)
            ]
            if degree >= 3:
                elements.append(averaged_projector(degree - 2))
            for _ in range(3):
                t = random_tensor(rng, degree, n, nterms=6)
                for op in sp_raising_operators(g):
                    image = op.apply(t)
                    moved += not image.is_zero()
                    checked += 1
                    for x in elements:
                        assert op.apply(act_perm(t, x)) == act_perm(image, x)
    assert moved > checked // 2
