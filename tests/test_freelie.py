import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from jcokernel.brauer import _random_tensor as random_tensor
from jcokernel.freelie import (
    FAMILY_ALTERNATING,
    FAMILY_SYMMETRIC,
    _closed_form,
    _family,
    _fold,
    _in_h_block,
    _letter_blocks,
    _pair_blocks,
    _projector_word,
    apply_theta,
    apply_theta_stabilizer,
    averaged_projector,
    closed_form_phi,
    family_preconditions,
    family_seed,
    full_cycle,
    is_in_h,
    is_lie_element,
    phi_candidate,
    rotation_orbit_sum,
    theta,
    theta_stabilizer,
)
from jcokernel.tensorspace import (
    PermAlgebraElement,
    SparseTensor,
    SymplecticSpace,
    act_perm,
    cont_k,
    cyclic_project,
    expansion,
    gl_maximal_vector,
    omega,
    wedge,
)
from oracles import left_normed_bracket
from test_detector import WINDOW_GRID


def bracket_oracle(letters, n):
    """Shuffle-form expansion of the left-normed bracket.

    Sum over subsets S of slots 2..m: (-1)^|S| (S listed decreasingly)
    then slot 1, then the complement increasingly.
    """
    letters = tuple(letters)
    m = len(letters)
    terms = {}
    for r in range(0, m):
        for subset in itertools.combinations(range(2, m + 1), r):
            decreasing = sorted(subset, reverse=True)
            increasing = [p for p in range(2, m + 1) if p not in subset]
            word = bytes(
                letters[p - 1] for p in (list(decreasing) + [1] + increasing)
            )
            terms[word] = terms.get(word, 0) + (-1) ** r
    return SparseTensor(m, n, terms)


# ------------------------------------------------------------------- theta


def test_theta_degree_two():
    assert theta(2) == PermAlgebraElement.identity(2) - PermAlgebraElement.transposition(2, 1)


def test_theta_quasi_idempotency():
    for m in range(2, 8):
        th = theta(m)
        assert th * th == m * th


def test_theta_projects_onto_brackets():
    t = SparseTensor.basis_word(4, (1, 2))
    assert act_perm(t, theta(2)) == left_normed_bracket((1, 2), 4)


def test_dsw_projection_idempotent_on_random_tensors():
    rng = random.Random(23)
    for m in range(2, 7):
        t = random_tensor(rng, m, 4)
        once = apply_theta(t) * Fraction(1, m)
        assert apply_theta(once) * Fraction(1, m) == once


# ---------------------------------------------------------------- theta_P


def test_theta_stabilizer_degree_three():
    s2 = PermAlgebraElement.transposition(3, 2)
    assert theta_stabilizer(1) == PermAlgebraElement.identity(3) - s2


def test_theta_stabilizer_fixes_first_slot():
    for k in range(1, 5):
        for sigma, _ in theta_stabilizer(k).terms():
            assert sigma[0] == 0


def test_theta_stabilizer_brackets_the_tail():
    rng = random.Random(29)
    for k in range(1, 5):
        n = 6
        letters = [rng.randint(1, n) for _ in range(k + 2)]
        t = SparseTensor.basis_word(n, letters)
        head = SparseTensor.basis_word(n, letters[:1])
        expected = head.tensor(bracket_oracle(letters[1:], n))
        assert apply_theta_stabilizer(t, k) == expected


def test_folds_equal_their_expanded_elements():
    # The folds never build theta or theta_P; they must act as those elements
    # do.  The constant word e_1^(x)m folds to zero under both.
    rng = random.Random(31)
    for m in range(2, 7):
        element = theta(m)
        tensors = [random_tensor(rng, m, 4, nterms=8) for _ in range(3)]
        tensors.append(SparseTensor.basis_word(4, (1,) * m))
        assert apply_theta(tensors[-1]).is_zero()
        for t in tensors:
            assert apply_theta(t) == act_perm(t, element)
    for k in range(1, 5):
        element = theta_stabilizer(k)
        tensors = [random_tensor(rng, k + 2, 4, nterms=8) for _ in range(3)]
        tensors.append(SparseTensor.basis_word(4, (2,) + (1,) * (k + 1)))
        assert apply_theta_stabilizer(tensors[-1], k).is_zero()
        for t in tensors:
            assert apply_theta_stabilizer(t, k) == act_perm(t, element)


# ---------------------------------------------------------------- brackets


def test_left_normed_bracket_basics():
    assert left_normed_bracket((1, 2), 4) == SparseTensor(
        2, 4, {bytes((1, 2)): 1, bytes((2, 1)): -1}
    )
    assert left_normed_bracket((1, 1), 4).is_zero()
    # Subset expansion for three letters: four signed words, one per subset
    # of the tail slots.
    w = left_normed_bracket((1, 2, 3), 6)
    assert w.support_size() == 4 and w == bracket_oracle((1, 2, 3), 6)


def test_bracket_matches_shuffle_oracle_all_short_words():
    n = 4
    for m in range(1, 6):
        for letters in itertools.product(range(1, n + 1), repeat=m):
            assert left_normed_bracket(letters, n) == bracket_oracle(letters, n)


def test_is_lie_element():
    assert is_lie_element(left_normed_bracket((1, 2), 4))
    assert not is_lie_element(SparseTensor.basis_word(4, (1, 2)))
    rng = random.Random(31)
    for m in range(2, 6):
        letters = [rng.randint(1, 4) for _ in range(m)]
        assert is_lie_element(left_normed_bracket(letters, 4))
    assert is_lie_element(SparseTensor.zero(3, 4))


def test_is_lie_element_in_degrees_zero_and_one():
    # The free Lie algebra has no degree-0 part: a nonzero scalar is not a
    # Lie element, while the zero tensor passes vacuously.
    assert not is_lie_element(SparseTensor(0, 4, {b"": 3}))
    assert is_lie_element(SparseTensor.zero(0, 4))
    # Every letter is a Lie element, and so is every sum of letters.
    assert is_lie_element(SparseTensor(1, 4, {b"\x01": 2, b"\x03": -1}))
    assert is_lie_element(SparseTensor.zero(1, 4))


# -------------------------------------------------------------- membership


def test_pure_power_not_in_kernel():
    for k in range(1, 5):
        t = SparseTensor.basis_word(4, (1,) * (k + 2))
        assert not is_in_h(t, k)
    assert is_in_h(SparseTensor.zero(5, 4), 3)


@pytest.mark.parametrize("check", [is_in_h, apply_theta_stabilizer])
def test_stabilizer_tests_refuse_a_non_positive_k(check):
    # k = -1 meets a degree-1 tensor and k = 0 a degree-2 one.
    for k in (-1, 0):
        with pytest.raises(ValueError, match="k must be positive"):
            check(SparseTensor.basis_word(4, (1,) * (k + 2)), k)


def test_candidates_are_in_kernel():
    assert is_in_h(phi_candidate(FAMILY_SYMMETRIC, 3, 5), 3)


def test_averaged_projector_lands_in_kernel():
    rng = random.Random(37)
    for k in (2, 3, 4):
        g = k + 2
        proj = averaged_projector(k)
        for _ in range(10):
            t = random_tensor(rng, k + 2, 2 * g)
            assert is_in_h(act_perm(t, proj), k)
    assert act_perm(SparseTensor.zero(4, 8), averaged_projector(2)).is_zero()


@pytest.mark.parametrize("k", range(1, 9))
def test_projector_word_certifies_the_identity(k):
    # w = 1 2 ... k+2 has distinct letters, so w . x in h(k) is the identity
    # x theta_P = (k+1) x, x sigma = x itself, not a sample of it.
    image = _projector_word(k)
    assert image.degree == k + 2 and 0 < image.support_size() <= (k + 2) << k
    assert _in_h_block(image, k)
    assert image == act_perm(SparseTensor.basis_word(k + 2, range(1, k + 3)), averaged_projector(k))


@pytest.mark.parametrize("k", [1, 2, 5, 8])
def test_projector_word_certificate_has_teeth(k):
    # w . theta_P without the orbit sum meets the fold condition but not the
    # rotation one; w . x with one coefficient changed fails too.
    word = SparseTensor.basis_word(k + 2, range(1, k + 3))
    folded = apply_theta_stabilizer(word, k)
    assert _fold(folded, 1) == (k + 1) * folded
    assert act_perm(folded, full_cycle(k + 2)) != folded
    assert not _in_h_block(folded, k)
    image = _projector_word(k)
    least = min(image._terms)
    changed = SparseTensor(k + 2, k + 2, {**image._terms, least: image._terms[least] + 1})
    assert not _in_h_block(changed, k)


def test_rotation_orbit_sum_refuses_degree_one():
    with pytest.raises(ValueError, match=r"full rotation needs degree >= 2, got m = 1"):
        rotation_orbit_sum(SparseTensor.basis_word(2, (1,)))


def test_corollary_operator_identity_on_random_tensors():
    rng = random.Random(41)
    for k in (2, 3):
        g = k + 2
        theta_p = theta_stabilizer(k)
        proj = averaged_projector(k)  # theta_P * (sum of rotation powers)
        lhs = proj * theta_p
        for _ in range(10):
            t = random_tensor(rng, k + 2, 2 * g)
            assert act_perm(t, lhs) == (k + 1) * act_perm(t, proj)


# ------------------------------------------ block checks against the oracle
#
# is_in_h and is_lie_element check their identities once per relabelled
# letter-multiset block.  The oracles below are the same criteria applied to
# the whole tensor.


def in_h_oracle(t, k):
    return apply_theta_stabilizer(t, k) == (k + 1) * t and act_perm(t, full_cycle(k + 2)) == t


def lie_oracle(t):
    return t.is_zero() or t.degree == 1 or apply_theta(t) == t.degree * t


def _tensors(degree, n):
    words = st.lists(st.integers(1, n), min_size=degree, max_size=degree).map(bytes)
    terms = st.dictionaries(words, st.integers(-3, 3), max_size=12)
    return terms.map(lambda terms: SparseTensor(degree, n, terms))


_checks = settings(max_examples=40, deadline=None, database=None)


@seed(20261019)
@_checks
@given(st.data(), st.integers(2, 4), st.integers(2, 4))
def test_in_h_blocks_agree_with_oracle(data, k, n):
    t = data.draw(_tensors(k + 2, n))
    image = act_perm(t, averaged_projector(k))
    assert in_h_oracle(image, k)
    # t . theta_P passes the theta_P half, and in general fails the rotation.
    folded = apply_theta_stabilizer(t, k)
    for tensor in (t, folded, image, image + t, image + 2 * folded):
        assert is_in_h(tensor, k) == in_h_oracle(tensor, k)


@seed(20261019)
@_checks
@given(st.data(), st.integers(1, 6), st.integers(1, 4))
def test_lie_blocks_agree_with_oracle(data, m, n):
    t = data.draw(_tensors(m, n))
    brackets = apply_theta(t) if m >= 2 else t
    assert lie_oracle(brackets)
    for tensor in (t, brackets, brackets + t):
        assert is_lie_element(tensor) == lie_oracle(tensor)


@seed(20261019)
@_checks
@given(st.data(), st.integers(2, 6), st.integers(1, 6))
def test_relabelling_commutes_with_place_permutations(data, degree, n):
    t = data.draw(_tensors(degree, n))
    images = data.draw(st.permutations(range(1, n + 1)))
    table = bytes.maketrans(bytes(range(1, n + 1)), bytes(images))

    def relabel(tensor):
        return SparseTensor(degree, n, {w.translate(table): c for w, c in tensor.terms()})

    sigma = tuple(data.draw(st.permutations(range(degree))))
    element = PermAlgebraElement.from_permutation(sigma, data.draw(st.integers(-2, 2)))
    assert act_perm(relabel(t), element) == relabel(act_perm(t, element))


def _one_multiset(degree, n):
    """Terms whose words are place permutations of one drawn word."""
    word = st.lists(st.integers(1, n), min_size=degree, max_size=degree)
    return word.flatmap(
        lambda letters: st.dictionaries(
            st.permutations(letters).map(bytes), st.integers(-3, 3), min_size=1, max_size=6
        )
    )


@seed(20261020)
@_checks
@given(st.data(), st.integers(3, 5), st.integers(2, 6))
def test_letter_blocks_reassemble_and_map_through_renamed_copies(data, degree, n):
    # Several multisets, each followed by copies renamed by a permutation of
    # the alphabet and flipped in sign at random; a copy may land on a
    # multiset already present and merge with it.
    t = SparseTensor.zero(degree, n)
    for _ in range(data.draw(st.integers(1, 3))):
        part = SparseTensor(degree, n, data.draw(_one_multiset(degree, n)))
        t = t + part
        for _ in range(data.draw(st.integers(0, 3))):
            images = bytes(data.draw(st.permutations(range(1, n + 1))))
            table = bytes.maketrans(bytes(range(1, n + 1)), images)
            sign = data.draw(st.sampled_from((1, -1)))
            t = t + SparseTensor(degree, n, {w.translate(table): sign * c for w, c in part.terms()})
    blocks = _letter_blocks(t)
    assert blocks.assemble() == t
    assert set(blocks.letters) == set(map(bytes, map(sorted, t._terms)))
    sigma = tuple(data.draw(st.permutations(range(degree))))
    element = PermAlgebraElement.from_permutation(sigma, data.draw(st.integers(-2, 2)))
    for f in (lambda s: apply_theta_stabilizer(s, degree - 2), lambda s: act_perm(s, element)):
        assert blocks.map(f).assemble() == f(t)


def _edited_candidate(edit):
    """[k] k=5 g=7 with edit(block) applied to its second letter block, in
    the order of its terms, so that the first block stays the one kept."""
    phi = phi_candidate(FAMILY_SYMMETRIC, 5, 7)
    blocks = {}
    for word, coeff in phi._terms.items():
        blocks.setdefault(bytes(sorted(word)), {})[word] = coeff
    assert len(blocks) == 6
    second = list(blocks)[1]
    blocks[second] = edit(blocks[second])
    terms = {word: coeff for block in blocks.values() for word, coeff in block.items()}
    return SparseTensor(7, 14, terms)


def test_in_h_on_edited_blocks_of_a_candidate():
    # All six blocks of the candidate relabel onto one canonical block.
    assert len(_letter_blocks(phi_candidate(FAMILY_SYMMETRIC, 5, 7)).reps) == 1
    negated = _edited_candidate(lambda block: {w: -c for w, c in block.items()})
    assert len(_letter_blocks(negated).reps) == 1
    doubled = _edited_candidate(lambda block: {w: 2 * c for w, c in block.items()})
    assert len(_letter_blocks(doubled).reps) == 2

    def change_one(block):
        word = min(block)
        return {**block, word: block[word] + 1}

    # The changed block must not be deduplicated away with the other five.
    changed = _edited_candidate(change_one)
    assert len(_letter_blocks(changed).reps) == 2
    for tensor, expected in ((negated, True), (doubled, True), (changed, False)):
        assert is_in_h(tensor, 5) is expected
        assert in_h_oracle(tensor, 5) is expected


@pytest.mark.parametrize(
    "family, k, g, sizes",
    [
        (FAMILY_SYMMETRIC, 15, 17, [272]),
        (FAMILY_ALTERNATING, 5, 7, [1344, 5040]),
        (FAMILY_SYMMETRIC, 11, 13, [156]),
    ],
)
def test_detect_vectors_reduce_to_few_blocks(family, k, g, sizes):
    # The kernel test of the benchmark's detect vectors checks these blocks
    # only: 16, 7 and 12 letter multisets collapse to 1, 2 and 1.
    blocks = _letter_blocks(phi_candidate(family, k, g))
    assert sorted(block.support_size() for block in blocks.reps.values()) == sizes


def test_alternating_blocks_copy_pair_one_with_the_wedge_sign():
    # Pair j <= 5 renames pair 1's wedge letters by a j-cycle, of sign
    # (-1)^(j-1); the pairs above k copy pair k + 1 unchanged.
    blocks = _pair_blocks(family_seed(FAMILY_ALTERNATING, 5, 7), 5)
    dual = SymplecticSpace(7).dual
    signs = [(r, eps) for r, _, eps in blocks.copies]
    assert signs == [(1, 1), (1, -1), (1, 1), (1, -1), (1, 1), (6, 1), (6, 1)]
    for j, (r, table, _) in enumerate(blocks.copies, 1):
        assert bytes((r, dual[r])).translate(table) == bytes((j, dual[j]))
    assert [blocks.reps[r].support_size() for r in (1, 6)] == [1344, 5040]


# Every in-range WINDOW_GRID case at its full genus, and [k] at g=9 besides.
IN_RANGE_GRID = [case for case in WINDOW_GRID if family_preconditions(*case) is None]


@pytest.mark.parametrize("family, k, g", IN_RANGE_GRID + [(FAMILY_SYMMETRIC, 5, 9)])
def test_every_block_is_the_closed_form_on_its_pair(family, k, g):
    # Every copy's table and sign, checked against the expansion route.
    blocks = _pair_blocks(family_seed(family, k, g), k)
    entry = _family(family)
    top = gl_maximal_vector(entry.partition(k), 2 * g)
    for j in range(1, g + 1):
        assert blocks.block(j) == _closed_form(top, entry.coefficients(k), j)


@pytest.mark.parametrize("family, k, g", WINDOW_GRID)
def test_block_criterion_agrees_with_is_in_h_on_reps_and_non_members(family, k, g):
    # detect runs `_in_h_block` on the reps as they stand where they are
    # smaller than the projector word, but it holds on every rep of the
    # grid, the word-route cases too; is_in_h regroups.
    # Non-members: each pair block of the seed, each nonzero rep with one
    # coefficient changed, and each nonzero seed block folded by theta_P but
    # not orbit-summed, which meets t . theta_P = (k+1) t and fails only the
    # rotation condition.
    w = min(g, _family(family).partition(k).length + 2)
    seed = family_seed(family, k, w)
    blocks = _pair_blocks(seed, k)
    for rep in blocks.reps.values():
        assert _in_h_block(rep, k) is is_in_h(rep, k) is True
        if not rep.is_zero():
            word = min(rep._terms)
            changed = SparseTensor(k + 2, 2 * w, {**rep._terms, word: rep._terms[word] + 1})
            assert _in_h_block(changed, k) is is_in_h(changed, k) is False
    sigma = full_cycle(k + 2)
    seed_blocks = _letter_blocks(seed)
    folded_only = 0
    for b in range(1, w + 1):
        seed_block = seed_blocks.block(b)
        assert _in_h_block(seed_block, k) is is_in_h(seed_block, k) is False
        folded = _fold(seed_block, 1)
        if not folded.is_zero():
            assert _fold(folded, 1) == (k + 1) * folded and act_perm(folded, sigma) != folded
            assert _in_h_block(folded, k) is is_in_h(folded, k) is False
            folded_only += 1
    assert folded_only > 0


# ---------------------------------------------------------- step identities


def test_step_one_power_seed():
    # Partial stabilizer products expand the first-slot insertions binomially.
    for k in (3, 5):
        g = k + 2
        base = SparseTensor.basis_word(2 * g, (1,) * k)
        for r in range(2, k + 2):
            lhs = expansion(base, 1, 2)
            for i in range(2, r + 1):
                lhs = lhs - act_perm(lhs, _stab_rotation(k + 2, i))
            rhs = SparseTensor.zero(k + 2, 2 * g)
            for j in range(1, r + 1):
                rhs = rhs + (-1) ** (j - 1) * comb(r - 1, j - 1) * expansion(
                    base, 1, 1 + j
                )
            assert lhs == rhs


def test_step_one_wedge_seed():
    k, g = 5, 7
    base = wedge(range(1, k + 1), 2 * g)
    for r in (2, 6):
        lhs = expansion(base, 1, 2)
        for i in range(2, r + 1):
            lhs = lhs - act_perm(lhs, _stab_rotation(k + 2, i))
        rhs = SparseTensor.zero(k + 2, 2 * g)
        for j in range(1, r + 1):
            sign = -1 if j % 4 in (2, 3) else 1
            rhs = rhs + sign * comb((r - 2) // 2, (j - 1) // 2) * expansion(
                base, 1, 1 + j
            )
        assert lhs == rhs


def _stab_rotation(m, i):
    sigma = list(range(m))
    sigma[1] = i
    for p in range(2, i + 1):
        sigma[p] = p - 1
    return PermAlgebraElement(m, {tuple(sigma): 1})


def test_step_two_shift_rules():
    for seed, ks in (("power", (3, 5)), ("wedge", (5,))):
        for k in ks:
            g = k + 2
            if seed == "power":
                base = SparseTensor.basis_word(2 * g, (1,) * k)
            else:
                base = wedge(range(1, k + 1), 2 * g)
            sigma = full_cycle(k + 2)
            for i in range(1, k + 2):
                for j in range(i + 1, k + 3):
                    lhs = act_perm(expansion(base, i, j), sigma)
                    if j != k + 2:
                        assert lhs == expansion(base, i + 1, j + 1)
                    else:
                        assert lhs == -1 * expansion(base, 1, i + 1)


def test_step_four_alternating_binomial_sum_vanishes():
    for k in range(5, 30, 4):
        total = 0
        for j in range(1, k + 2):
            sign = (-1) ** (j - 1) * (-1 if j % 4 in (2, 3) else 1)
            total += sign * comb((k - 1) // 2, (j - 1) // 2)
        assert total == 0


# ------------------------------------------------------- candidate vectors


def test_phi_candidate_matches_closed_form_small():
    assert phi_candidate(FAMILY_SYMMETRIC, 3, 5) == closed_form_phi(FAMILY_SYMMETRIC, 3, 5)


def test_phi_preconditions():
    with pytest.raises(ValueError):
        phi_candidate(FAMILY_SYMMETRIC, 4, 6)
    with pytest.raises(ValueError):
        phi_candidate(FAMILY_ALTERNATING, 7, 9)
    with pytest.raises(ValueError):
        phi_candidate(FAMILY_SYMMETRIC, 3, 4)


def test_closed_form_contraction_scalar_symmetric_family():
    # Pins the pipeline's normalization: phi is twice the one-sided double
    # sum, so the rotation quotient image is 2(2-2g) times the projected seed
    # word.  This reads phi_candidate itself, so it is not independent of the
    # pipeline; test_plain_recomputation_of_phi_scalars derives the same value
    # without the library.
    k, g = 3, 5
    phi = phi_candidate(FAMILY_SYMMETRIC, k, g)
    image = cyclic_project(cont_k(phi))
    seed = cyclic_project(SparseTensor.basis_word(2 * g, (1,) * k))
    assert image.ratio_to(seed) == Fraction(2 * (2 - 2 * g))


def test_pipeline_equals_seed_times_projector():
    # The tensor-level pipeline agrees with acting by the assembled algebra
    # element, for the small symmetric case.
    k, g = 3, 5
    seed = omega(g).tensor(SparseTensor.basis_word(2 * g, (1,) * k))
    direct = act_perm(seed, averaged_projector(k))
    staged = rotation_orbit_sum(apply_theta_stabilizer(seed, k))
    assert direct == staged == phi_candidate(FAMILY_SYMMETRIC, k, g)


# ------------------------------------------- library-free recomputation
#
# phi rebuilt from its documented definition with tuples and plain dicts,
# importing nothing from jcokernel: basis e_1..e_2g with i' = 2g+1-i,
# e_i* = e_i' for i <= g and -e_i' for i > g, <e_i, e_i'> = 1 for i <= g;
# omega = sum_i e_i (x) e_i*; words act on the right by place permutations,
# s_j swapping slots j and j+1; theta_P = prod_{i=2}^{k+1} (1 - s_i...s_2);
# cont_k sends e_a (x) e_b (x) rest to <e_b, e_a> rest.


def _plain_add(total, word, coeff):
    new = total.get(word, 0) + coeff
    if new:
        total[word] = new
    else:
        total.pop(word, None)


def _plain_sign(letters):
    inversions = sum(
        1 for a, b in itertools.combinations(range(len(letters)), 2)
        if letters[a] > letters[b]
    )
    return -1 if inversions % 2 else 1


def _plain_seed_word(family, k):
    """e_1^(x)k for "[k]", e_1 ^ ... ^ e_k for "[1^k]"."""
    if family == "[k]":
        return {(1,) * k: 1}
    return {w: _plain_sign(w) for w in itertools.permutations(range(1, k + 1))}


def _plain_place_permutation(m, swaps):
    """order with (w . s_j1 s_j2 ...)[p] = w[order[p]]; s_j1 acts first."""
    order = list(range(m))
    for j in swaps:
        order[j - 1], order[j] = order[j], order[j - 1]
    return order


def _plain_phi(family, k, g):
    m, n = k + 2, 2 * g
    om = {(i, n + 1 - i): 1 if i <= g else -1 for i in range(1, n + 1)}
    seed = _plain_seed_word(family, k)
    t = {a + b: c * d for a, c in om.items() for b, d in seed.items()}
    for i in range(2, k + 2):
        order = _plain_place_permutation(m, range(i, 1, -1))
        moved = {tuple(w[p] for p in order): c for w, c in t.items()}
        for w, c in moved.items():
            _plain_add(t, w, -c)
    phi = {}
    for w, c in t.items():
        for s in range(m):
            _plain_add(phi, w[s:] + w[:s], c)
    return phi


def _plain_cyclic_image(tensor):
    image = {}
    for w, c in tensor.items():
        _plain_add(image, min(w[s:] + w[:s] for s in range(len(w))), c)
    return image


def _plain_contraction_scalar(family, k, g):
    n = 2 * g
    contracted = {}
    for w, c in _plain_phi(family, k, g).items():
        a, b = w[0], w[1]
        if a + b == n + 1:
            _plain_add(contracted, w[2:], c if b <= g else -c)
    seed = _plain_cyclic_image(_plain_seed_word(family, k))
    image = _plain_cyclic_image(contracted)
    assert image.keys() == seed.keys()
    ratios = {Fraction(image[w], seed[w]) for w in seed}
    assert len(ratios) == 1
    return ratios.pop()


def test_plain_recomputation_of_phi_scalars():
    # Scalars 2(2-2g) for [k] and -4(g+1) for [1^5], with no library code.
    assert _plain_contraction_scalar("[k]", 3, 5) == -16
    assert _plain_contraction_scalar("[k]", 5, 7) == -24
    assert _plain_contraction_scalar("[1^k]", 5, 7) == -32
