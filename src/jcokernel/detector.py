"""The detection pipeline: build a candidate vector, certify kernel
membership and maximality, contract, and render a verdict.

A nonzero image under the contraction-then-rotation-quotient map certifies
that the candidate spans an irreducible component surviving in the cokernel.
The converse is not claimed: a zero image rules nothing out, which the report
says explicitly in its disclaimer field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import mult_sp_in_module
from .freelie import (
    FAMILIES,
    _family,
    closed_form_phi,
    family_preconditions,
    is_in_h,
    phi_candidate,
)
from .partitions import Partition
from .spweights import Weight, is_maximal
from .tensorspace import CyclicVector, cont_k, cyclic_project, gl_maximal_vector, rat_str

REPORT_SCHEMA = "detection-report/1"

DISCLAIMER = (
    "A 'detected' verdict certifies a component of the cokernel. The "
    "contraction functional is not claimed to see every component, so "
    "'not_detected' is inconclusive."
)

VERDICT_DETECTED = "detected"
VERDICT_NOT_DETECTED = "not_detected"
VERDICT_INCONSISTENT = "inconsistent"


def family_partition(family: str, k: int) -> Partition:
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}")
    return _family(family).partition(k)


def seed_projection(family: str, k: int, g: int) -> CyclicVector:
    """Rotation-quotient image of the family's seed word."""
    return cyclic_project(gl_maximal_vector(family_partition(family, k), 2 * g))


@dataclass
class DetectionReport:
    """Outcome of one run of the cokernel detection pipeline."""

    family: str
    k: int
    g: int
    in_h: bool
    maximal: bool
    weight: Weight | None
    contraction_image: CyclicVector
    scalar: Fraction | None
    closed_form_agrees: bool | None
    out_of_theorem_range: bool
    verdict: str
    disclaimer: str = DISCLAIMER

    def to_json_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "family": self.family,
            "k": self.k,
            "g": self.g,
            "in_h": self.in_h,
            "maximal": self.maximal,
            "weight": list(self.weight) if self.weight is not None else None,
            "contraction_image": self.contraction_image.to_json_dict(),
            "scalar": rat_str(self.scalar) if self.scalar is not None else None,
            "closed_form_agrees": self.closed_form_agrees,
            "out_of_theorem_range": self.out_of_theorem_range,
            "verdict": self.verdict,
            "disclaimer": self.disclaimer,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def detect(family: str, k: int, g: int, force: bool = False) -> DetectionReport:
    """Run the full pipeline for one (family, k, g).

    Outside the theorem range the run must be forced, and the report is
    flagged; inside the range the candidate is cross-checked against its
    closed form and any mismatch yields an 'inconsistent' verdict.
    """
    problem = family_preconditions(family, k, g)
    if problem and not force:
        raise ValueError(problem)
    out_of_range = problem is not None

    phi = phi_candidate(family, k, g, check=False)
    closed_form_agrees: bool | None = None
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


def uniqueness_context(family: str, k: int, g: int) -> tuple[int, int]:
    """Multiplicities of the family's weight in the kernel module and in the
    cyclic quotient; a detected component with kernel multiplicity one is the
    unique copy of that weight."""
    lam = family_partition(family, k)
    return (
        mult_sp_in_module(lam, "h", k, g),
        mult_sp_in_module(lam, "cyclic", k, g),
    )
