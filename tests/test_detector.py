import json
from collections import Counter
from fractions import Fraction

import pytest

import jcokernel.detector as detector_module
import jcokernel.freelie as freelie_module
from jcokernel.detector import (
    REPORT_SCHEMA,
    VERDICT_DETECTED,
    VERDICT_INCONSISTENT,
    VERDICT_NOT_DETECTED,
    DetectionReport,
    detect,
    uniqueness_context,
)
from jcokernel.freelie import (
    LetterBlocks,
    _closed_form,
    _family,
    _letter_blocks,
    _pair_blocks,
    apply_theta_stabilizer,
    averaged_projector,
    closed_form_phi,
    family_factors,
    family_preconditions,
    family_seed,
    is_in_h,
    phi_candidate,
    rotation_orbit_sum,
)
from jcokernel.partitions import Partition
from jcokernel.spweights import is_maximal
from jcokernel.tensorspace import (
    SparseTensor,
    SymplecticSpace,
    act_perm,
    cont_k,
    cyclic_project,
    gl_maximal_vector,
    omega,
    peak_terms,
    reset_peak_terms,
)
from oracles import seed_projection


def test_symmetric_family_small():
    report = detect("[k]", 3, 5)
    assert report.verdict == "detected"
    assert report.in_h and report.maximal
    assert report.weight == (3, 0, 0, 0, 0)
    assert report.closed_form_agrees is True
    assert not report.out_of_theorem_range
    # The rotation orbit sum doubles the one-sided expansion: 2(2-2g).
    assert report.scalar == Fraction(-16)


def test_alternating_family_flagship():
    reset_peak_terms()
    report = detect("[1^k]", 5, 7)
    # The largest live support any step builds; pinned so that a change to
    # how sums are formed or reported cannot move the watermark unseen.
    assert peak_terms() == 5040
    assert report.verdict == "detected"
    assert report.weight == (1, 1, 1, 1, 1, 0, 0)
    assert report.scalar == Fraction(-4 * (7 + 1))
    assert report.closed_form_agrees is True


def test_symmetric_family_beyond_small_sizes():
    # k = 7, g = 9: same detection shape, scalar 2(2-2g) = -32.
    report = detect("[k]", 7, 9)
    assert report.verdict == "detected"
    assert report.weight == (7,) + (0,) * 8
    assert report.scalar == Fraction(2 * (2 - 18))
    assert uniqueness_context("[k]", 7, 9) == (1, 1)


def test_alternating_family_scalar_tracks_genus():
    # Same k = 5 at larger genus: the scalar is -4(g+1) throughout.
    report = detect("[1^k]", 5, 9)
    assert report.verdict == "detected"
    assert report.weight == (1, 1, 1, 1, 1, 0, 0, 0, 0)
    assert report.scalar == Fraction(-4 * 10)


def test_inconsistent_verdict_when_routes_disagree(monkeypatch):
    import jcokernel.detector as detector_module

    def broken_closed_form(base, coefficients, pair):
        from jcokernel.tensorspace import SparseTensor

        return SparseTensor.zero(base.degree + 2, base.n)

    monkeypatch.setattr(detector_module, "_closed_form", broken_closed_form)
    report = detector_module.detect("[k]", 3, 5)
    assert report.closed_form_agrees is False
    assert report.verdict == "inconsistent"


def test_preconditions_raise_without_force():
    with pytest.raises(ValueError, match="odd"):
        detect("[k]", 4, 6)
    with pytest.raises(ValueError, match="mod 4"):
        detect("[1^k]", 7, 9)
    with pytest.raises(ValueError, match="g >= k"):
        detect("[k]", 3, 4)


def test_negative_control_forced_run():
    report = detect("[1^k]", 4, 6, force=True)
    assert report.out_of_theorem_range
    assert report.verdict == "not_detected"
    # At least one pipeline stage fails.
    assert not (report.in_h and report.maximal and not report.contraction_image.is_zero())


def test_detection_is_reproducible():
    first = detect("[k]", 3, 5).to_json()
    second = detect("[k]", 3, 5).to_json()
    assert first == second


def test_report_json_schema():
    report = detect("[k]", 3, 5)
    data = json.loads(report.to_json())
    assert data["schema"] == REPORT_SCHEMA
    assert data["scalar"] == "-16/1"
    assert data["verdict"] == "detected"
    assert data["disclaimer"]
    assert all("/" in term["coeff"] for term in data["contraction_image"]["terms"])


def test_uniqueness_context():
    for k in (3, 5, 7):
        assert uniqueness_context("[k]", k, k + 2) == (1, 1)
    assert uniqueness_context("[1^k]", 5, 7) == (1, 1)
    assert uniqueness_context("[1^k]", 4, 6) == (0, 0)


def test_family_partition_and_seed():
    assert _family("[k]").partition(4) == Partition((4,))
    assert _family("[1^k]").partition(3) == Partition((1, 1, 1))
    assert not seed_projection("[k]", 3, 5).is_zero()
    assert not seed_projection("[1^k]", 5, 7).is_zero()


# ------------------------------------------------- full-vector oracle
#
# detect works on a window of t+2 symplectic pairs, folds one letter block
# per class of pairs, and extends to genus g.  The oracle folds the whole
# genus-g vector at once and runs every stage on it instead.


def full_candidate(family, k, g):
    """The candidate folded and orbit-summed as one vector, without blocks."""
    seed = omega(g).tensor(gl_maximal_vector(_family(family).partition(k), 2 * g))
    return rotation_orbit_sum(apply_theta_stabilizer(seed, k))


def detect_full_oracle(family, k, g, force=False):
    problem = family_preconditions(family, k, g)
    if problem and not force:
        raise ValueError(problem)
    out_of_range = problem is not None

    phi = full_candidate(family, k, g)
    closed_form_agrees = None
    if not out_of_range:
        closed_form_agrees = phi == closed_form_phi(family, k, g)

    in_kernel = is_in_h(phi, k)
    if phi.is_zero():
        maximal, weight = False, None
    else:
        maximal, weight = is_maximal(phi, "sp")

    image = cyclic_project(cont_k(phi))
    scalar = image.ratio_to(seed_projection(family, k, g))

    if closed_form_agrees is False:
        verdict = VERDICT_INCONSISTENT
    elif in_kernel and maximal and not image.is_zero():
        verdict = VERDICT_DETECTED
    else:
        verdict = VERDICT_NOT_DETECTED

    return DetectionReport(
        family=family,
        k=k,
        g=g,
        in_h=in_kernel,
        maximal=maximal,
        weight=weight,
        contraction_image=image,
        scalar=scalar,
        closed_form_agrees=closed_form_agrees,
        out_of_theorem_range=out_of_range,
        verdict=verdict,
    )


# Inside the theorem range, then forced runs outside it.  Left out for time:
# [k] at (33, 35), [1^5] at g=17 and the forced [1^7] at g=9 (w = g there),
# which agree too but take about 1, 1.4 and 22 s with the oracle.
WINDOW_GRID = [
    ("[k]", 3, 5), ("[k]", 5, 7), ("[k]", 7, 9), ("[k]", 11, 13), ("[k]", 15, 17),
    ("[k]", 3, 9), ("[k]", 9, 40), ("[k]", 5, 60),
    ("[1^k]", 5, 7), ("[1^k]", 5, 9), ("[1^k]", 5, 10),
    ("[k]", 4, 6), ("[k]", 3, 4), ("[k]", 2, 3),
    ("[1^k]", 3, 5), ("[1^k]", 5, 4),
]


@pytest.mark.parametrize("family, k, g", WINDOW_GRID)
def test_window_detect_matches_full_vector_oracle(family, k, g):
    assert detect(family, k, g, force=True).to_json() == (
        detect_full_oracle(family, k, g, force=True).to_json()
    )


@pytest.mark.parametrize("family, k, g", WINDOW_GRID)
def test_assembled_window_vector_matches_full_construction(family, k, g):
    w = min(g, _family(family).partition(k).length + 2)
    phi = _pair_blocks(family_seed(family, k, w), k).assemble()
    assert phi == full_candidate(family, k, w)
    if family_preconditions(family, k, g) is None:
        entry = _family(family)
        top = gl_maximal_vector(entry.partition(k), 2 * w)
        assert phi == _closed_form(top, entry.coefficients(k), None)


@pytest.mark.parametrize("family, k, g", WINDOW_GRID)
def test_block_multisets_are_those_of_the_window_vector(family, k, g):
    # The contraction reads a rep's letters from `letters`.  Only nonzero
    # blocks show in the vector: pair 1's block of a [k] candidate folds to zero.
    w = min(g, _family(family).partition(k).length + 2)
    blocks = _pair_blocks(family_seed(family, k, w), k)
    phi = blocks.assemble()
    nonzero = {
        letters
        for letters, (r, _, _) in zip(blocks.letters, blocks.copies)
        if not blocks.reps[r].is_zero()
    }
    assert nonzero == set(map(bytes, map(sorted, phi._terms)))
    if family == "[k]":
        assert blocks.reps[1].is_zero() and blocks.letters[0] not in nonzero


def _window(family, k, g):
    return min(g, _family(family).partition(k).length + 2)


@pytest.mark.parametrize("family, k, g", WINDOW_GRID)
def test_window_seed_is_maximal(family, k, g):
    # detect checks maximality on this seed and carries it to the candidate.
    maximal, _ = is_maximal(family_seed(family, k, _window(family, k, g)), "sp")
    assert maximal


def _spy_on_block(monkeypatch):
    built = []

    def block_spy(self, b, _real=LetterBlocks.block):
        built.append(b)
        return _real(self, b)

    monkeypatch.setattr(LetterBlocks, "block", block_spy)
    return built


@pytest.mark.parametrize("family, k, g", WINDOW_GRID)
def test_block_contraction_is_cont_k_of_the_window_vector(family, k, g, monkeypatch):
    # Every family copy keeps the pairing, so no block is built.
    w = _window(family, k, g)
    blocks = _pair_blocks(family_seed(family, k, w), k)
    built = _spy_on_block(monkeypatch)
    extended = detector_module._extend_contraction(blocks, SymplecticSpace(w))
    assert built == []
    assert extended == cont_k(blocks.assemble())


def test_block_contraction_builds_a_copy_that_breaks_a_dual_pair(monkeypatch):
    # e_1 e_1' and e_2 e_3 have one relabelled form, but the copy's table
    # sends the dual pair {1, 1'} onto {2, 3}, which pair to 0: renaming
    # block 1's contraction would count <e_1', e_1> twice.
    space = SymplecticSpace(3)
    t = SparseTensor(2, space.n, {(1, space.dual[1]): 1, (2, 3): 1})
    blocks = _letter_blocks(t)
    assert [r for r, _, _ in blocks.copies] == [1, 1]
    built = _spy_on_block(monkeypatch)
    extended = detector_module._extend_contraction(blocks, space)
    assert built == [2]
    assert extended == cont_k(t) != 2 * cont_k(blocks.reps[1])


def test_detect_refuses_a_seed_that_is_not_maximal(monkeypatch):
    # omega (x) e_2^(x)k has one block per pair, as `_pair_blocks` needs, but
    # X_1 moves its second factor, so nothing carries to the candidate.
    def factors(family, k, g):
        return omega(g), SparseTensor.basis_word(2 * g, (2,) * k)

    monkeypatch.setattr(detector_module, "family_factors", factors)
    with pytest.raises(RuntimeError, match=r"seed of family \[k\] at k = 3 is not maximal"):
        detector_module.detect("[k]", 3, 5)


def test_detect_refuses_a_first_factor_that_is_not_invariant(monkeypatch):
    # omega with the sign of e_2 e_2' flipped still has one block per pair
    # and weight 0, but X_1 moves it: maximality is checked on both factors.
    def factors(family, k, g, _real=family_factors):
        form, top = _real(family, k, g)
        word = min(form._terms, key=lambda word: abs(word[0] - 2))
        return SparseTensor(2, 2 * g, {**form._terms, word: -form._terms[word]}), top

    assert is_maximal(factors("[k]", 3, 5)[1], "sp")[0]
    assert not is_maximal(factors("[k]", 3, 5)[0], "sp")[0]
    monkeypatch.setattr(detector_module, "family_factors", factors)
    with pytest.raises(RuntimeError, match=r"seed of family \[k\] at k = 3 is not maximal"):
        detector_module.detect("[k]", 3, 5)


@pytest.mark.parametrize("family, k, g", WINDOW_GRID)
def test_detect_never_assembles_the_candidate(family, k, g, monkeypatch):
    def refuse(self):
        raise AssertionError("detect assembled the candidate")

    monkeypatch.setattr(LetterBlocks, "assemble", refuse)
    detect(family, k, g, force=True)


@pytest.mark.parametrize("family, k, g", WINDOW_GRID)
def test_detect_builds_one_seed_and_groups_it_once(family, k, g, monkeypatch):
    # Every stage reads the one letter-block index of the one seed, built
    # from the one pair of factors.
    calls = []

    def factors_spy(family, k, g, _real=family_factors):
        calls.append("family_factors")
        return _real(family, k, g)

    def group_spy(tensor, _real=_letter_blocks):
        calls.append("_letter_blocks")
        return _real(tensor)

    monkeypatch.setattr(freelie_module, "family_factors", factors_spy)
    monkeypatch.setattr(detector_module, "family_factors", factors_spy)
    monkeypatch.setattr(freelie_module, "_letter_blocks", group_spy)
    detect(family, k, g, force=True)
    assert Counter(calls) == {"family_factors": 1, "_letter_blocks": 1}


@pytest.mark.parametrize("family, k, g", WINDOW_GRID)
def test_detect_builds_the_gl_maximal_vector_once(family, k, g, monkeypatch):
    # The window's vector serves the closed form on every rep and the seed
    # word's image at genus g.
    calls = []

    def spy(lam, n, _real=gl_maximal_vector):
        calls.append(n)
        return _real(lam, n)

    # `detector` names no `gl_maximal_vector`: every build goes through `freelie`.
    assert not hasattr(detector_module, "gl_maximal_vector")
    monkeypatch.setattr(freelie_module, "gl_maximal_vector", spy)
    detect(family, k, g, force=True)
    assert calls == [2 * min(g, _family(family).partition(k).length + 2)]


def _spy_on_checks(monkeypatch):
    """Record the reps `detect` builds, and the tensors it hands to
    `_in_h_block` and to `is_maximal`."""
    seen = {"reps": [], "kernel": [], "maximal": []}

    def blocks_spy(seed, k, _real=_pair_blocks):
        blocks = _real(seed, k)
        seen["reps"] += [rep for rep in blocks.reps.values() if not rep.is_zero()]
        return blocks

    def kernel_spy(tensor, k, _real=detector_module._in_h_block):
        seen["kernel"].append(tensor)
        return _real(tensor, k)

    def maximal_spy(tensor, mode, _real=is_maximal):
        seen["maximal"].append(tensor)
        return _real(tensor, mode)

    monkeypatch.setattr(detector_module, "_pair_blocks", blocks_spy)
    monkeypatch.setattr(detector_module, "_in_h_block", kernel_spy)
    monkeypatch.setattr(detector_module, "is_maximal", maximal_spy)
    return seen


def test_detect_tests_the_projector_word_for_alternating_five(monkeypatch):
    # 224 terms of w . x against 1,344 + 5,040 in the reps.
    seen = _spy_on_checks(monkeypatch)
    assert detect("[1^k]", 5, 7).in_h
    [word] = seen["kernel"]
    assert word.degree == 7 and word.support_size() <= 224
    assert all(word is not rep for rep in seen["reps"])


@pytest.mark.parametrize("k, g", [(15, 17), (11, 13), (3, 5)])
def test_detect_tests_the_reps_of_symmetric_families(k, g, monkeypatch):
    # At k = 15 w . x would have 557,056 terms against one rep of 272.
    seen = _spy_on_checks(monkeypatch)
    assert detect("[k]", k, g).in_h
    assert len(seen["reps"]) > 0
    assert all(t is rep for t, rep in zip(seen["kernel"], seen["reps"], strict=True))


@pytest.mark.parametrize("family, k, g", WINDOW_GRID)
def test_detect_checks_maximality_on_the_two_factors(family, k, g, monkeypatch):
    # |v| + 2w words in all, never the seed; a zero candidate needs no check.
    seen = _spy_on_checks(monkeypatch)
    detect(family, k, g, force=True)
    w = _window(family, k, g)
    top = gl_maximal_vector(_family(family).partition(k), 2 * w)
    assert seen["maximal"] == ([top, omega(w)] if seen["reps"] else [])


def test_detect_falls_back_to_the_reps_when_the_word_fails(monkeypatch):
    # A word image that fails the criterion certifies nothing, so the reps
    # are tested as they stand and the candidate is still found in h(k).
    monkeypatch.setattr(
        detector_module, "_projector_word", lambda k: SparseTensor.basis_word(k + 2, [1] * (k + 2))
    )
    seen = _spy_on_checks(monkeypatch)
    assert detect("[1^k]", 5, 7).in_h
    assert seen["kernel"][1:] == seen["reps"] and len(seen["reps"]) == 2


WINDOW_BLOCKS = [
    ("[k]", 15, 17, 3, [1, 2]),
    ("[1^k]", 5, 7, 7, [1, 6]),
    ("[1^k]", 5, 9, 7, [1, 6]),
]


@pytest.mark.parametrize(
    "family, k, g, window, folded",
    WINDOW_BLOCKS,
    ids=["-".join(map(str, case[:4])) for case in WINDOW_BLOCKS],
)
def test_detect_builds_vectors_on_the_window_only(family, k, g, window, folded, monkeypatch):
    calls = []

    def blocks_spy(seed, k, _real=_pair_blocks):
        blocks = _real(seed, k)
        calls.append(("_pair_blocks", seed.n // 2, sorted(blocks.reps)))
        return blocks

    def closed_form_spy(base, coefficients, pair, _real=freelie_module._closed_form):
        calls.append(("_closed_form", base.n // 2, pair))
        return _real(base, coefficients, pair)

    monkeypatch.setattr(detector_module, "_pair_blocks", blocks_spy)
    monkeypatch.setattr(detector_module, "_closed_form", closed_form_spy)
    assert detector_module.detect(family, k, g).verdict == "detected"
    assert calls == [("_pair_blocks", window, folded)] + [
        ("_closed_form", window, pair) for pair in folded
    ]


def _seeded_seed(letters, genus):
    """omega (x) the word; letters below 0 stand for duals."""
    space = SymplecticSpace(genus)
    word = [a if a > 0 else space.dual[-a] for a in letters]
    return omega(genus).tensor(SparseTensor.basis_word(space.n, word))


def _seeded_candidate(letters, genus):
    """The seed averaged as one vector, by the assembled projector."""
    return act_perm(_seeded_seed(letters, genus), averaged_projector(len(letters)))


def _seeded_blocks(letters, genus):
    return _pair_blocks(_seeded_seed(letters, genus), len(letters))


@pytest.mark.parametrize(
    "letters, genus, folded",
    [((1, -2, 3), 3, [1, 2, 3]), ((1, -2, 1), 4, [1, 2, 3]), ((1, -1, 1), 3, [1, 2])],
)
def test_blocks_of_seeds_without_the_family_symmetry(letters, genus, folded):
    # e_1 e_2' e_3 at genus 3 relabels onto itself under no swap of pairs, so
    # every block is folded; in the others the untouched pairs still copy.
    blocks = _seeded_blocks(letters, genus)
    assert sorted(blocks.reps) == folded
    assert blocks.assemble() == _seeded_candidate(letters, genus)


def test_blocks_refuse_a_seed_whose_pairs_could_overlap():
    # Words of t with two letter multisets, {1, 1'} and {2, 2'}, give pair 1
    # and pair 2 the same multiset {1, 1', 2, 2'}; a seed not of the form
    # omega (x) t has no pair per word.
    space = SymplecticSpace(3)
    mixed = SparseTensor(2, 6, {(1, space.dual[1]): 1, (2, space.dual[2]): 1})
    plain = SparseTensor.basis_word(6, (1, 2, 3))
    for seed, k in ((omega(3).tensor(mixed), 2), (plain, 1)):
        with pytest.raises(ValueError, match="seed must be omega"):
            _pair_blocks(seed, k)


def test_extended_contraction_is_cont_k_at_the_window_genus():
    # The seed e_1 e_2' e_1 touches pairs 1 and 2, so its window has 4 pairs.
    blocks = _seeded_blocks((1, -2, 1), 4)
    extended = detector_module._extend_contraction(blocks, SymplecticSpace(4))
    assert not extended.is_zero()
    assert extended == cont_k(_seeded_candidate((1, -2, 1), 4))


@pytest.mark.parametrize("g", [5, 7])
@pytest.mark.parametrize(
    "letters, w", [((1, -2, 1), 4), ((1, -1, 1), 3)], ids=["dual_letter", "dual_pair"]
)
def test_extended_contraction_refuses_letters_at_or_above_w(letters, w, g):
    # The image of e_1 e_2' e_1 holds the dual letter 2', which names another
    # letter at every genus.  In e_1 e_1' e_1 the seed's own pair can fill
    # slots 1-2 and leave the omega pair w behind in B.  The family seeds do
    # neither: their images lie on the seed letters 1..t < w.
    blocks = _seeded_blocks(letters, w)
    with pytest.raises(RuntimeError, match=f"letter at or above w = {w}"):
        detector_module._extend_contraction(blocks, SymplecticSpace(g))


def test_unknown_family_has_one_message():
    message = "family must be one of ('[k]', '[1^k]'), got 'x'"
    calls = [
        lambda: detect("x", 3, 5),
        lambda: detect("x", 3, 5, force=True),
        lambda: uniqueness_context("x", 3, 5),
        lambda: family_preconditions("x", 3, 5),
        lambda: seed_projection("x", 3, 5),
    ]
    for call in calls:
        with pytest.raises(ValueError) as error:
            call()
        assert str(error.value) == message


@pytest.mark.parametrize("k, g", [(0, 3), (-1, 3), (3, 0)])
def test_both_builders_check_k_and_g(k, g):
    message = family_preconditions("[k]", k, g)
    for build in (phi_candidate, closed_form_phi):
        with pytest.raises(ValueError) as error:
            build("[k]", k, g)
        assert str(error.value) == message
    # `detect --force` skips the preconditions and builds the factors.
    with pytest.raises(ValueError, match="k and g must be positive"):
        family_factors("[k]", k, g)


# The scalar laws, pinned past the reach of the full-vector path.


@pytest.mark.parametrize("g_offset", [2, 7])
@pytest.mark.parametrize("k", range(3, 34, 2))
def test_symmetric_scalar_law(k, g_offset):
    g = k + g_offset
    report = detect("[k]", k, g)
    assert report.verdict == "detected"
    assert report.closed_form_agrees is True
    assert report.weight == (k,) + (0,) * (g - 1)
    assert report.scalar == Fraction(-4 * (g - 1))


@pytest.mark.parametrize("g", range(7, 13))
def test_alternating_scalar_law(g):
    report = detect("[1^k]", 5, g)
    assert report.verdict == "detected"
    assert report.closed_form_agrees is True
    assert report.weight == (1,) * 5 + (0,) * (g - 5)
    assert report.scalar == Fraction(-4 * (g + 1))
