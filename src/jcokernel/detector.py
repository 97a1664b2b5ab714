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
    _closed_form,
    _family,
    _in_h_block,
    _pair_blocks,
    _projector_word,
    family_factors,
    family_preconditions,
)
from .spweights import Weight, is_maximal
from .tensorspace import (
    CyclicVector,
    SparseTensor,
    SymplecticSpace,
    _form,
    cont_k,
    cyclic_project,
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
    One seed omega_w (x) v is built from its two factors (`family_factors`)
    and grouped once: the candidate seed . x, x = theta_P (1 + sigma + ... +
    sigma^(k+1)), is its letter-block index (`freelie.LetterBlocks`) mapped
    through x by `_pair_blocks`, and every stage reads that index; it is
    never assembled.  The fold, the orbit sum and the closed form on a pair
    (its D_{i,i+r} with pair p's letters is a place permutation of
    omega_p (x) seed) each multiply a block's seed part by an element of the
    place-permutation algebra, which commutes with every renaming of
    letters, so a renaming that maps pair r's seed part onto eps times pair
    j's carries every per-block result, on the window and at g.  So the
    closed form is compared on the reps.  The GL maximal vector v is built
    once: its letters lie below w, so its words serve the closed form on
    every rep and the seed word's rotation-quotient image at g.

    The two certificates are computed on the smallest object that proves
    them.  Kernel membership: every word u of the seed at any genus is the
    image of w = 1 2 ... k+2 under the letter map i -> u[i-1], which
    commutes with place permutations, so when w . x meets the criterion of
    `_in_h_block` (`_projector_word`, at most (k+2) 2^k terms) the whole
    candidate lies in h(k).  That word is tested when it is smaller than
    the nonzero reps together, and the reps as they stand otherwise, or if
    the word fails.  Maximality: a raising operator X acts letter by letter,
    so X(seed . x) = X(seed) . x, and by the Leibniz rule X(omega (x) v) =
    X(omega) (x) v + omega (x) X(v); so `is_maximal` runs on omega_w (2w
    words) and on v.  The two terms differ in the weight of their first two
    letters, so the seed is maximal exactly when both factors are, and the
    candidate is then maximal of v's weight (omega has weight 0) whenever
    it is nonzero, that is, whenever some rep is.  X_1..X_w meet every kind
    of raising operator at g, and the weight at g is padded with zeros.  The
    contraction is read per letter block (`_extend_contraction`).
    """
    problem = family_preconditions(family, k, g)
    if problem and not force:
        raise ValueError(problem)
    out_of_range = problem is not None

    # Reject a bad k or g before any work, as the genus-g build would.
    entry = _checked_family(family, k, g)
    genus = SymplecticSpace(g)
    w = min(g, entry.partition(k).length + 2)
    form, top = family_factors(family, k, w)
    blocks = _pair_blocks(form.tensor(top), k)
    closed_form_agrees: bool | None = None
    if not out_of_range:
        coefficients = entry.coefficients(k)
        closed_form_agrees = all(
            block == _closed_form(top, coefficients, r) for r, block in blocks.reps.items()
        )

    nonzero = [rep for rep in blocks.reps.values() if not rep.is_zero()]
    word_route = (k + 2) << k < sum(rep.support_size() for rep in nonzero)
    in_kernel = (word_route and _in_h_block(_projector_word(k), k)) or all(
        _in_h_block(rep, k) for rep in nonzero
    )
    if not nonzero:
        maximal, weight = False, None
    else:
        maximal, weight = is_maximal(top, "sp")
        if not (maximal and is_maximal(form, "sp")[0]):
            raise RuntimeError(f"the seed of family {family} at k = {k} is not maximal")
        weight += (0,) * (g - w)

    image = cyclic_project(_extend_contraction(blocks, genus))
    # The seed word's letters lie below w, so at genus g it has the same words.
    scalar = image.ratio_to(CyclicVector._raw((k, genus.n), cyclic_project(top)._terms))

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


def _extend_contraction(blocks: LetterBlocks, genus: SymplecticSpace) -> SparseTensor:
    """cont_k, at the given genus, of the candidate whose window part has
    the letter blocks `blocks`.

    cont_k reads a word's first two letters through the pairing, so block
    b = eps (block r renamed by table) contracts to eps times cont_k of
    block r renamed by the table whenever the table keeps <e_a, e_c> for all
    letters a, c of block r.  Each rep is contracted once; a copy whose
    table fails that check is built and contracted itself.

    Call B the contraction of the block of pair w.  The block of a pair above
    w is a relabelled copy, so it contracts to B too when B holds no letter
    of pair w.  The family images lie on the seed's letters 1..t < w, so the
    window sum and B are checked to hold only letters below w, which are the
    same letters at every genus; any other letter raises RuntimeError.
    """
    pairing = _form(blocks.shape[1]).pairing
    contracted = {r: cont_k(rep) for r, rep in blocks.reps.items()}
    images = []
    for b, (r, table, _) in enumerate(blocks.copies, 1):
        letters = set(blocks.letters[r - 1])
        if all(pairing(table[a], table[c]) == pairing(a, c) for a in letters for c in letters):
            images.append(blocks.rename(b, contracted[r]))
        else:
            images.append(cont_k(blocks.block(b)))
    window = sum(images[1:], images[0])
    w = blocks.shape[1] // 2
    if w == genus.g:
        return window
    extra = images[w - 1]
    if any(max(word) >= w for part in (window, extra) for word in part._terms):
        raise RuntimeError(f"contraction image holds a letter at or above w = {w}")
    total = window + (genus.g - w) * extra
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
