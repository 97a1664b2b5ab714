import json
from fractions import Fraction

import pytest

from jcokernel.detector import (
    REPORT_SCHEMA,
    detect,
    family_partition,
    seed_projection,
    uniqueness_context,
)
from jcokernel.partitions import Partition
from jcokernel.tensorspace import peak_terms, reset_peak_terms


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
    assert family_partition("[k]", 4) == Partition((4,))
    assert family_partition("[1^k]", 3) == Partition((1, 1, 1))
    assert not seed_projection("[k]", 3, 5).is_zero()
    assert not seed_projection("[1^k]", 5, 7).is_zero()
