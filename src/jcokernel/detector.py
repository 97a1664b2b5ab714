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
    LetterBlocks,
    _checked_family,
    _family,
    candidate_blocks,
    closed_form_phi,
    family_preconditions,
    is_in_h,
)
from .spweights import Weight, is_maximal
from .tensorspace import (
    CyclicVector,
    SparseTensor,
    SymplecticSpace,
    cont_k,
    cyclic_project,
    gl_maximal_vector,
    rat_str,
)

REPORT_SCHEMA = "detection-report/1"

DISCLAIMER = (
    "A 'detected' verdict certifies a component of the cokernel. The "
    "contraction functional is not claimed to see every component, so "
    "'not_detected' is inconclusive."
)

VERDICT_DETECTED = "detected"
VERDICT_NOT_DETECTED = "not_detected"
VERDICT_INCONSISTENT = "inconsistent"


def seed_projection(family: str, k: int, g: int) -> CyclicVector:
    """Rotation-quotient image of the family's seed word."""
    return cyclic_project(gl_maximal_vector(_family(family).partition(k), 2 * g))


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
        return dict(
            vars(self),
            schema=REPORT_SCHEMA,
            weight=list(self.weight) if self.weight is not None else None,
            contraction_image=self.contraction_image.to_json_dict(),
            scalar=rat_str(self.scalar) if self.scalar is not None else None,
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def detect(family: str, k: int, g: int, force: bool = False) -> DetectionReport:
    """Run the full pipeline for one (family, k, g).

    Outside the theorem range the run must be forced, and the report is
    flagged; inside the range the candidate is cross-checked against its
    closed form and any mismatch yields an 'inconsistent' verdict.

    Every stage runs on the window of the first w = min(g, t + 2) symplectic
    pairs, where the seed's letters are 1..t, and extends exactly to genus g.
    The candidate is held as its letter blocks (`freelie.LetterBlocks`),
    block b being pair b's (`candidate_blocks`), and only the first block of
    each relabelled form is folded.  The fold, the orbit sum, the closed
    form restricted to a pair (its D_{i,i+r} with pair p's letters is a
    place permutation of omega_p (x) seed) and the kernel test each multiply
    a block's seed part by an element of the place-permutation algebra,
    which commutes with every renaming of letters, so a renaming that maps
    pair r's seed part onto eps times pair j's carries every per-block
    result, on the window and at g.  The closed form is therefore compared,
    and the kernel test run, on the reps only; the other two stages read
    real letters:
    - maximality: X_1..X_w on the whole window vector meet every kind of
      raising operator at g (inside the touched pairs, at the boundary X_t,
      between two untouched pairs, and the long root); the weight is read
      from the letter multisets of the nonzero blocks, and at g it is the
      window weight padded with zeros, as omega has weight 0;
    - contraction: with B the contraction of the block of pair w, each pair
      above w contributes B again, so the image at g is
      cont_k(phi_w) + (g - w) B; both terms are checked to stay on the
      letters below w, which mean the same at every genus, and the sum is
      then only widened to the genus-g alphabet.
    """
    problem = family_preconditions(family, k, g)
    if problem and not force:
        raise ValueError(problem)
    out_of_range = problem is not None

    # Reject a bad k or g before any work, as the genus-g build would.
    entry = _checked_family(family, k, g)
    genus = SymplecticSpace(g)
    w = min(g, entry.partition(k).length + 2)
    blocks = candidate_blocks(family, k, w)
    closed_form_agrees: bool | None = None
    if not out_of_range:
        closed_form_agrees = all(
            block == closed_form_phi(family, k, w, check=False, pair=r)
            for r, block in blocks.reps.items()
        )

    in_kernel = all(is_in_h(block, k) for block in blocks.reps.values())
    phi = blocks.assemble()
    if phi.is_zero():
        maximal, weight = False, None
    else:
        maximal, weight = is_maximal(phi, "sp", blocks.multisets())
        if weight is not None:
            weight += (0,) * (g - w)

    image = cyclic_project(_extend_contraction(phi, blocks, genus))
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


def _extend_contraction(
    phi: SparseTensor, blocks: LetterBlocks, genus: SymplecticSpace
) -> SparseTensor:
    """cont_k of the candidate at the given genus whose window part is phi,
    with letter blocks `blocks`.

    Call B the contraction of the block of pair w.  The block of a pair above
    w is a relabelled copy, so it contracts to B too when B holds no letter
    of pair w.  The family images lie on the seed's letters 1..t < w, so
    cont_k(phi) and B are checked to hold only letters below w, which are
    the same letters at every genus; any other letter raises RuntimeError.
    """
    contracted = cont_k(phi)
    w = phi.n // 2
    if w == genus.g:
        return contracted
    extra = cont_k(blocks.block(w))
    if any(max(word) >= w for part in (contracted, extra) for word in part._terms):
        raise RuntimeError(f"contraction image holds a letter at or above w = {w}")
    total = contracted + (genus.g - w) * extra
    return SparseTensor._raw((total.degree, genus.n), total._terms)


def uniqueness_context(family: str, k: int, g: int) -> tuple[int, int]:
    """Multiplicities of the family's weight in the kernel module and in the
    cyclic quotient; a detected component with kernel multiplicity one is the
    unique copy of that weight."""
    lam = _family(family).partition(k)
    return (
        mult_sp_in_module(lam, "h", k, g),
        mult_sp_in_module(lam, "cyclic", k, g),
    )
