import json
from fractions import Fraction

import pytest

import jcokernel.detector as detector_module
from jcokernel.detector import (
    REPORT_SCHEMA,
    VERDICT_DETECTED,
    VERDICT_INCONSISTENT,
    VERDICT_NOT_DETECTED,
    DetectionReport,
    detect,
    seed_projection,
    uniqueness_context,
)
from jcokernel.freelie import (
    _family,
    averaged_projector,
    closed_form_phi,
    family_preconditions,
    is_in_h,
    phi_candidate,
)
from jcokernel.partitions import Partition
from jcokernel.spweights import is_maximal
from jcokernel.tensorspace import (
    SparseTensor,
    SymplecticSpace,
    act_perm,
    cont_k,
    cyclic_project,
    omega,
    peak_terms,
    reset_peak_terms,
)


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
    assert peak_terms() == 18960
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

    def broken_closed_form(family, k, g, check=True):
        from jcokernel.tensorspace import SparseTensor

        return SparseTensor.zero(k + 2, 2 * g)

    monkeypatch.setattr(detector_module, "closed_form_phi", broken_closed_form)
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
# detect works on a window of t+2 symplectic pairs and extends to genus g.
# The oracle runs every stage on the whole genus-g vector instead.


def detect_full_oracle(family, k, g, force=False):
    problem = family_preconditions(family, k, g)
    if problem and not force:
        raise ValueError(problem)
    out_of_range = problem is not None

    phi = phi_candidate(family, k, g, check=False)
    closed_form_agrees = None
    if not out_of_range:
        closed_form_agrees = phi == closed_form_phi(family, k, g, check=False)

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


@pytest.mark.parametrize(
    "family, k, g, window", [("[k]", 15, 17, 3), ("[1^k]", 5, 7, 7), ("[1^k]", 5, 9, 7)]
)
def test_detect_builds_vectors_on_the_window_only(family, k, g, window, monkeypatch):
    genera = []
    for name in ("phi_candidate", "closed_form_phi"):
        def spy(family, k, g, check=True, _real=getattr(detector_module, name), _name=name):
            genera.append((_name, g))
            return _real(family, k, g, check=check)

        monkeypatch.setattr(detector_module, name, spy)
    assert detector_module.detect(family, k, g).verdict == "detected"
    assert genera == [("phi_candidate", window), ("closed_form_phi", window)]


def _seeded_candidate(letters, genus):
    """omega (x) the word, averaged; letters below 0 stand for duals."""
    space = SymplecticSpace(genus)
    word = [a if a > 0 else space.dual[-a] for a in letters]
    seed = SparseTensor.basis_word(space.n, word)
    return act_perm(omega(genus).tensor(seed), averaged_projector(len(word)))


def test_extended_contraction_is_cont_k_at_the_window_genus():
    # The seed e_1 e_2' e_1 touches pairs 1 and 2, so its window has 4 pairs.
    window = _seeded_candidate((1, -2, 1), 4)
    extended = detector_module._extend_contraction(window, SymplecticSpace(4))
    assert not extended.is_zero()
    assert extended == cont_k(window)


@pytest.mark.parametrize("g", [5, 7])
@pytest.mark.parametrize(
    "letters, w", [((1, -2, 1), 4), ((1, -1, 1), 3)], ids=["dual_letter", "dual_pair"]
)
def test_extended_contraction_refuses_letters_at_or_above_w(letters, w, g):
    # The image of e_1 e_2' e_1 holds the dual letter 2', which names another
    # letter at every genus.  In e_1 e_1' e_1 the seed's own pair can fill
    # slots 1-2 and leave the omega pair w behind in B.  The family seeds do
    # neither: their images lie on the seed letters 1..t < w.
    window = _seeded_candidate(letters, w)
    with pytest.raises(RuntimeError, match=f"letter at or above w = {w}"):
        detector_module._extend_contraction(window, SymplecticSpace(g))


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
    for build in (phi_candidate, closed_form_phi):
        with pytest.raises(ValueError, match="k and g must be positive"):
            build("[k]", k, g, check=False)


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
