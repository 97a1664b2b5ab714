import random
import re
from fractions import Fraction
from math import factorial

import pytest

import jcokernel.tensorspace as tensorspace
from jcokernel.brauer import BrauerDiagram, BrauerElement, _random_tensor as random_tensor
from jcokernel.partitions import partitions_of
from jcokernel.spweights import word_weight
from jcokernel.tensorspace import (
    CyclicVector,
    PermAlgebraElement,
    SparseTensor,
    SymplecticSpace,
    TermLimitError,
    act_perm,
    cont_k,
    cyclic_project,
    expansion,
    get_term_limit,
    gl_maximal_vector,
    omega,
    rat_str,
    set_term_limit,
    wedge,
)
from oracles import act_twisted_diagram, sp_maximal_vector, young_row_factor, young_symmetrizer


def random_perm_element(rng, degree, nterms=3):
    terms = {}
    for _ in range(nterms):
        sigma = list(range(degree))
        rng.shuffle(sigma)
        terms[tuple(sigma)] = terms.get(tuple(sigma), 0) + rng.randint(-3, 3)
    return PermAlgebraElement(degree, terms)


# ----------------------------------------------------------- pairing, dual


def test_pairing_values():
    for g in range(1, 9):
        s = SymplecticSpace(g)
        assert s.pairing(1, 2 * g) == 1
        assert s.pairing(2 * g, 1) == -1
        if g >= 2:
            assert s.pairing(1, 2) == 0
        for i in range(1, 2 * g + 1):
            j, sign = s.dual_basis_vector(i)
            assert s.pairing(i, j) * sign == 1  # <e_i, e_i*> = 1
    with pytest.raises(ValueError):
        SymplecticSpace(2).pairing(0, 1)


def test_letter_tables_follow_the_involution():
    for g in range(1, 128):
        space = SymplecticSpace(g)
        for i in range(1, 2 * g + 1):
            assert space.dual[i] == 2 * g + 1 - i
            assert space.sign[i] == (1 if i <= g else -1)
        assert space.pairs == tuple(
            (i, 2 * g + 1 - i, 1 if i <= g else -1) for i in range(1, 2 * g + 1)
        )


def test_contraction_matches_per_term_pairing():
    rng = random.Random(29)
    for g in (1, 2, 3):
        space = SymplecticSpace(g)
        for degree in range(2, 6):
            t = random_tensor(rng, degree, 2 * g, nterms=40)
            expected = {}
            for word, coeff in t.terms():
                value = space.pairing(word[1], word[0])
                expected[word[2:]] = expected.get(word[2:], 0) + coeff * value
            assert cont_k(t) == SparseTensor(degree - 2, 2 * g, expected), (g, degree)


@pytest.mark.parametrize(
    "operation",
    [
        cont_k,
        lambda t: expansion(t, 1, 2),
        lambda t: word_weight(b"\x01\x02", "sp", t.n),
        lambda t: t.to_json_dict(),
        lambda t: act_twisted_diagram(t, BrauerDiagram.gamma(3, 1)),
    ],
    ids=["cont_k", "expansion", "word_weight", "to_json_dict", "act_twisted_diagram"],
)
def test_odd_alphabet_raises_one_message(operation):
    odd = SparseTensor(3, 3, {b"\x01\x03\x02": 1, b"\x02\x02\x01": -2})
    message = "symplectic tensors need an even alphabet, got n=3"
    with pytest.raises(ValueError, match=re.escape(message)):
        operation(odd)


def test_genus_and_alphabet_fit_in_byte_letters():
    assert SymplecticSpace(127).n == 254
    assert omega(127).support_size() == 254
    with pytest.raises(ValueError, match="g <= 127"):
        SymplecticSpace(128)
    with pytest.raises(ValueError, match="g <= 127"):
        SparseTensor(1, 256)
    # The size check comes before the 3! words are built.
    with pytest.raises(ValueError, match="g <= 127"):
        wedge(range(1, 4), 256)
    with pytest.raises(ValueError, match="g <= 127"):
        wedge((1, 1), 256)


def test_dual_examples():
    s = SymplecticSpace(3)
    assert s.dual_basis_vector(1) == (6, 1)
    assert s.dual_basis_vector(6) == (1, -1)


# ------------------------------------------------------------------ omega


def test_omega_genus_one():
    assert omega(1) == SparseTensor(2, 2, {bytes((1, 2)): 1, bytes((2, 1)): -1})


def test_omega_term_count_and_antisymmetry():
    for g in range(1, 9):
        om = omega(g)
        assert om.support_size() == 2 * g
        assert act_perm(om, PermAlgebraElement.transposition(2, 1)) == -1 * om


# ------------------------------------------------------------------ wedge


def test_wedge_small():
    assert wedge((1, 2), 4) == SparseTensor(2, 4, {bytes((1, 2)): 1, bytes((2, 1)): -1})
    w3 = wedge((1, 2, 3), 6)
    assert w3.support_size() == 6
    assert sum(c for _, c in w3.terms()) == 0
    assert wedge((1, 1), 4).is_zero()


def test_wedge_antisymmetry_under_adjacent_swap():
    for k in range(2, 6):
        w = wedge(range(1, k + 1), 2 * k)
        assert act_perm(w, PermAlgebraElement.transposition(k, 1)) == -1 * w


# ------------------------------------------------------------ permutations


def test_adjacent_swap_action():
    t = SparseTensor.basis_word(4, (1, 2))
    assert act_perm(t, PermAlgebraElement.transposition(2, 1)) == SparseTensor.basis_word(
        4, (2, 1)
    )


def test_cycle_as_product_of_swaps():
    # s_2 s_1 rotates three factors.
    s1 = PermAlgebraElement.transposition(3, 1)
    s2 = PermAlgebraElement.transposition(3, 2)
    t = SparseTensor.basis_word(6, (1, 2, 3))
    assert act_perm(t, s2 * s1) == SparseTensor.basis_word(6, (3, 1, 2))


def test_right_action_axiom_random():
    rng = random.Random(11)
    for degree in range(2, 8):
        t = random_tensor(rng, degree, 6)
        a = random_perm_element(rng, degree)
        b = random_perm_element(rng, degree)
        assert act_perm(act_perm(t, a), b) == act_perm(t, a * b)


def test_antisymmetrizer_projector_structure():
    rng = random.Random(5)
    t = random_tensor(rng, 3, 4)
    s1 = PermAlgebraElement.transposition(3, 1)
    anti = act_perm(t, PermAlgebraElement.identity(3) - s1)
    assert act_perm(anti, s1) == -1 * anti


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        act_perm(SparseTensor.basis_word(4, (1, 2)), PermAlgebraElement.identity(3))


def act_perm_reference(tensor, element):
    """Per-letter right action w -> w . sigma, summed in a plain dict."""
    out = {}
    for sigma, scale in element.terms():
        for word, coeff in tensor.terms():
            moved = bytes(word[s] for s in sigma)
            out[moved] = out.get(moved, 0) + coeff * scale
    return {word: coeff for word, coeff in out.items() if coeff}


def test_act_perm_matches_per_letter_reference():
    rng = random.Random(29)
    cancelling = 0
    # Degrees 0 and 1 included: there itemgetter() needs an index, and
    # itemgetter(0) returns an int, which bytes() reads as a length.
    for degree in range(8):
        for n in (1, 2, 5):
            t = random_tensor(rng, degree, n, nterms=6)
            sigma = list(range(degree))
            rng.shuffle(sigma)
            scale = rng.choice((1, -3, Fraction(2, 7)))
            elements = [
                PermAlgebraElement.from_permutation(sigma, scale),
                random_perm_element(rng, degree, nterms=4),
                PermAlgebraElement(degree),
            ]
            if degree >= 2:
                # Kills every word whose first two letters agree.
                elements.append(
                    PermAlgebraElement.identity(degree)
                    - PermAlgebraElement.transposition(degree, 1)
                )
            for element in elements:
                expected = act_perm_reference(t, element)
                assert dict(act_perm(t, element).terms()) == expected
            # expected is now the image under 1 - s_1 when degree >= 2.
            cancelling += degree >= 2 and len(expected) < t.support_size()
    assert cancelling


# -------------------------------------------------------------- expansion


def test_expansion_unfolds_definition():
    g = 2
    s = SymplecticSpace(g)
    t = SparseTensor.basis_word(2 * g, (1, 2))
    expected = {}
    for r in range(1, 2 * g + 1):
        rd, sign = s.dual_basis_vector(r)
        expected[bytes((r, 1, rd, 2))] = sign
    assert expansion(t, 1, 3) == SparseTensor(4, 2 * g, expected)


def test_expansion_term_count():
    for g in (2, 3):
        w = SparseTensor.basis_word(2 * g, (1, 1, 2))
        assert expansion(w, 2, 4).support_size() == 2 * g


def test_expansion_bounds():
    t = SparseTensor.basis_word(4, (1, 2))
    with pytest.raises(ValueError):
        expansion(t, 0, 2)
    with pytest.raises(ValueError):
        expansion(t, 3, 3)
    for pair in (0, 3):
        with pytest.raises(ValueError, match="pair"):
            expansion(t, 1, 2, pair)


def test_expansion_sums_its_pair_restrictions():
    g = 3
    t = SparseTensor(3, 2 * g, {b"\x01\x05\x01": 2, b"\x02\x01\x06": -1})
    for i, j in ((1, 2), (2, 5), (1, 4)):
        parts = [expansion(t, i, j, pair) for pair in range(1, g + 1)]
        assert sum(parts[1:], parts[0]) == expansion(t, i, j)
        for pair, part in enumerate(parts, 1):
            inserted = {word[i - 1] for word in part._terms}
            assert inserted == {pair, 2 * g + 1 - pair}


# ------------------------------------------------------------- contraction


def test_contraction_of_expansion_table_wedge_seed():
    # Exact values for every (i, j): -2g on the inserted pair, alternating
    # signs when one inserted leg touches slot 1 or 2, zero further in.
    for k in (2, 3, 4, 5):
        g = k + 2
        w = wedge(range(1, k + 1), 2 * g)
        for i in range(1, k + 2):
            for j in range(i + 1, k + 3):
                value = cont_k(expansion(w, i, j))
                if (i, j) == (1, 2):
                    assert value == (-2 * g) * w
                elif i == 1:
                    assert value == (-1) ** (j - 2) * w
                elif i == 2:
                    assert value == (-1) ** (j - 3) * w
                else:
                    assert value.is_zero()


def test_contraction_of_expansion_table_power_seed():
    for k in (2, 3, 4, 5):
        g = k + 2
        w = SparseTensor.basis_word(2 * g, (1,) * k)
        for i in range(1, k + 2):
            for j in range(i + 1, k + 3):
                value = cont_k(expansion(w, i, j))
                if (i, j) == (1, 2):
                    assert value == (-2 * g) * w
                elif i == 1:
                    assert value == -1 * w
                elif i == 2:
                    assert value == w
                else:
                    assert value.is_zero()


def test_contraction_degree_check():
    with pytest.raises(ValueError):
        cont_k(SparseTensor.basis_word(4, (1,)))


# ---------------------------------------------------------------- rotation


def test_cyclic_projection_identifies_rotations():
    t1 = SparseTensor.basis_word(4, (1, 2))
    t2 = SparseTensor.basis_word(4, (2, 1))
    assert cyclic_project(t1) == cyclic_project(t2)
    assert cyclic_project(t1 - t2).is_zero()


def test_cyclic_projection_of_wedge():
    for k in range(2, 8):
        w = wedge(range(1, k + 1), 2 * (k + 2))
        assert cyclic_project(w).is_zero() == (k % 2 == 0)


def test_cyclic_projection_rotation_invariant_random():
    rng = random.Random(3)
    for degree in range(1, 8):
        t = random_tensor(rng, degree, 6)
        rho = list(range(degree))
        rho = [rho[-1]] + rho[:-1]
        rotated = act_perm(t, PermAlgebraElement(degree, {tuple(rho): 1}))
        assert cyclic_project(t) == cyclic_project(rotated)


def test_cyclic_vector_ratio():
    v = cyclic_project(SparseTensor.basis_word(4, (1, 2, 1)))
    assert (3 * v).ratio_to(v) == Fraction(3)
    other = cyclic_project(SparseTensor.basis_word(4, (2, 2, 1)))
    assert v.ratio_to(other) is None


# ------------------------------------------------------- Young symmetrizer


def test_young_symmetrizer_row_shape_is_full_symmetrizer():
    for k in range(1, 5):
        c = young_symmetrizer((k,))
        assert c.support_size() == factorial(k)
        assert all(coeff == 1 for _, coeff in c.terms())


def test_young_symmetrizer_quasi_idempotent():
    for n in range(1, 6):
        for lam in partitions_of(n):
            c = young_symmetrizer(lam)
            c2 = c * c
            sigma, coeff = c.terms()[0]
            scale = Fraction(dict(c2.terms()).get(sigma, 0), coeff)
            assert scale > 0
            assert c2 == c * scale


def test_young_symmetrizer_wedge_identity_scaled():
    # Column word times the symmetrizer reproduces the wedge-form maximal
    # vector, scaled by prod(lam_i!); the scale is 1 exactly for one-column
    # shapes.
    for n in range(1, 6):
        for lam in partitions_of(n):
            word = []
            for height in lam.conjugate():
                word += list(range(1, height + 1))
            t = SparseTensor.basis_word(n + 2, word)
            assert act_perm(t, young_symmetrizer(lam)) == young_row_factor(
                lam
            ) * gl_maximal_vector(lam, n + 2)


# --------------------------------------------------------- maximal vectors


def test_gl_maximal_vector_shapes():
    assert gl_maximal_vector((1,), 3) == SparseTensor.basis_word(3, (1,))
    for k in range(2, 5):
        assert gl_maximal_vector((1,) * k, 2 * k) == wedge(range(1, k + 1), 2 * k)


def test_sp_maximal_vector_composition():
    g = 3
    assert sp_maximal_vector((), 1, g) == omega(g)
    w = sp_maximal_vector((1,) * 2, 1, g)
    assert w == omega(g).tensor(wedge((1, 2), 2 * g))


# ------------------------------------------------------------ housekeeping


def test_no_stored_zeros_after_arithmetic():
    t = SparseTensor.basis_word(4, (1, 2))
    u = t - t
    assert u.is_zero() and u.support_size() == 0
    v = omega(2) + (-1) * omega(2)
    assert v.support_size() == 0


EXACT_ELEMENTS = {
    "SparseTensor": lambda c: SparseTensor(2, 4, {b"\x01\x02": c}),
    "PermAlgebraElement": lambda c: PermAlgebraElement(2, {(1, 0): c}),
    "CyclicVector": lambda c: CyclicVector(2, 4, {b"\x02\x01": c}),
    "BrauerElement": lambda c: BrauerElement(2, -4, {BrauerDiagram.gamma(2, 1): c}),
}


@pytest.mark.parametrize("make", EXACT_ELEMENTS.values(), ids=EXACT_ELEMENTS.keys())
def test_coefficients_and_scalars_are_exact(make):
    half = make(Fraction(1, 2))
    assert half * 2 == 2 * half == make(1)
    assert (half * 0).is_zero()
    for inexact in (0.5, 1.0, 1j, "2"):
        with pytest.raises(TypeError):
            half * inexact
        with pytest.raises(TypeError):
            inexact * half
        with pytest.raises(TypeError):
            make(inexact)


@pytest.mark.parametrize("make", EXACT_ELEMENTS.values(), ids=EXACT_ELEMENTS.keys())
def test_adding_a_foreign_operand_raises_type_error(make):
    # A scalar is no element: 1 is not read as the identity permutation.
    element = make(1)
    for foreign in (0, 1, Fraction(1, 2), "x", omega(2), PermAlgebraElement.identity(2)):
        if type(foreign) is type(element):
            continue
        for combine in (
            lambda: element + foreign,
            lambda: foreign + element,
            lambda: element - foreign,
            lambda: foreign - element,
        ):
            with pytest.raises(TypeError):
                combine()


def test_tensor_times_tensor_is_rejected():
    with pytest.raises(TypeError):
        omega(2) * omega(2)
    v = cyclic_project(omega(2))
    with pytest.raises(TypeError):
        v * v


def test_cyclic_vector_validates_words_like_sparse_tensor():
    for bad in ({b"\x09\x01": 1}, {b"\x00\x01": 1}, {b"\x01": 1}):
        with pytest.raises(ValueError):
            SparseTensor(2, 4, bad)
        with pytest.raises(ValueError):
            CyclicVector(2, 4, bad)
    for degree, n in ((-1, 4), (2, 0), (2, 256)):
        with pytest.raises(ValueError):
            CyclicVector(degree, n)
    assert CyclicVector(2, 4, {b"\x02\x01": 1, b"\x01\x02": 1}) == 2 * cyclic_project(
        SparseTensor.basis_word(4, (1, 2))
    )


def test_serialization_round_trip_and_ordering():
    om = omega(2)
    data = om.to_json_dict()
    words = [tuple(entry["word"]) for entry in data["terms"]]
    assert words == sorted(words)
    assert all("/" in entry["coeff"] for entry in data["terms"])
    assert SparseTensor.from_json(om.to_json()) == om
    assert rat_str(Fraction(-3, 2)) == "-3/2" and rat_str(4) == "4/1"


def test_deserialization_refuses_a_zero_denominator():
    text = '{"degree": 1, "g": 1, "terms": [{"word": [1], "coeff": "1/0"}]}'
    with pytest.raises(ValueError, match="zero denominator"):
        SparseTensor.from_json(text)


def test_deserialization_refuses_a_repeated_word():
    text = (
        '{"degree": 2, "g": 1, "terms": '
        '[{"word": [1, 2], "coeff": "1/1"}, {"word": [1, 2], "coeff": "2/1"}]}'
    )
    with pytest.raises(ValueError, match=re.escape("repeated word [1, 2]")):
        SparseTensor.from_json(text)


def test_serialization_is_shared_and_refuses_odd_alphabets():
    t = SparseTensor(3, 4, {b"\x02\x01\x03": Fraction(1, 2), b"\x01\x01\x04": -3})
    projected = cyclic_project(t).to_json_dict()
    assert projected["degree"] == 3 and projected["g"] == 2
    assert projected["terms"] == [
        {"word": [1, 1, 4], "coeff": "-3/1"},
        {"word": [1, 3, 2], "coeff": "1/2"},
    ]
    odd = SparseTensor(2, 3, {b"\x03\x01": 1})
    for vector in (odd, cyclic_project(odd)):
        with pytest.raises(ValueError, match="symplectic tensors"):
            vector.to_json_dict()


def _unreachable(*_):
    raise AssertionError("work done before the refusal")


class _Unread(dict):
    items = _unreachable


def test_wedge_and_tensor_refuse_before_building(monkeypatch):
    # The predicted counts are checked first: wedge never signs a
    # permutation, and tensor never reads the terms of either factor.
    monkeypatch.setattr(tensorspace, "_perm_sign", _unreachable)
    factor = SparseTensor._raw((2, 4), _Unread(omega(2)._terms))
    old = get_term_limit()
    try:
        set_term_limit(5)
        with pytest.raises(TermLimitError) as refused:
            wedge((1, 2, 3), 4)
        assert (refused.value.operation, refused.value.count) == ("SparseTensor", 6)
        with pytest.raises(TermLimitError) as refused:
            factor.tensor(factor)
        assert (refused.value.operation, refused.value.count) == ("tensor", 16)
    finally:
        set_term_limit(old)


def test_term_watermark_enforced_and_resumable():
    old = get_term_limit()
    try:
        set_term_limit(5)
        with pytest.raises(TermLimitError):
            omega(2).tensor(omega(2))
        set_term_limit(old)
        assert omega(2).tensor(omega(2)).support_size() == 16
    finally:
        set_term_limit(old)
