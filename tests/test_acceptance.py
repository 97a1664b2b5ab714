"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Criterion 2 asserts the stated symmetric-family scalar (2-2g) on the
one-sided double sum T, and 2(2-2g) on the candidate phi = 2T, the
normalization that criterion 1 pins for the alternating family.
"""

import itertools
import random
import time
from fractions import Fraction
from math import comb

from jcokernel.brauer import _random_tensor, check_relations, ram_character
from jcokernel.combinatorics import (
    brauer_dim,
    kw_multiplicity,
    mult_sp_in_module,
    sp_decomposition,
    witt_rank,
)
from jcokernel.detector import detect
from jcokernel.freelie import (
    FAMILY_ALTERNATING,
    FAMILY_SYMMETRIC,
    averaged_projector,
    closed_form_phi,
    phi_candidate,
    theta_stabilizer,
)
from jcokernel.freelie import full_cycle
from jcokernel.partitions import CycleType, Partition, partitions_of
from jcokernel.tensorspace import (
    PermAlgebraElement,
    SparseTensor,
    act_perm,
    cont_k,
    cyclic_project,
    expansion,
    peak_terms,
    reset_peak_terms,
    wedge,
)
from oracles import gl_dimension, span_equality_check


def _report(number: int, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  criterion {number}: {detail}")
    return ok


def test_criterion_1_alternating_family_flagship():
    """Alternating-family reproduction at k=5, g=7, exact scalar -4(g+1)."""
    start = time.time()
    reset_peak_terms()
    k, g = 5, 7
    phi = phi_candidate(FAMILY_ALTERNATING, k, g)
    agrees = phi == closed_form_phi(FAMILY_ALTERNATING, k, g)
    report = detect(FAMILY_ALTERNATING, k, g)
    maximal_ok = report.maximal and report.weight == (1, 1, 1, 1, 1, 0, 0)
    scalar_ok = report.scalar == Fraction(-4 * (g + 1)) == Fraction(-32)
    image_ok = report.contraction_image == Fraction(-32) * cyclic_project(
        wedge(range(1, k + 1), 2 * g)
    )
    elapsed = time.time() - start
    peak = peak_terms()
    ok = (
        agrees
        and report.in_h
        and maximal_ok
        and scalar_ok
        and image_ok
        and elapsed <= 300
        and peak <= 10**6
    )
    _report(
        1,
        ok,
        f"[1^5] at g=7: closed form agrees={agrees}, in_h={report.in_h}, "
        f"maximal={maximal_ok}, scalar={report.scalar}, "
        f"{elapsed:.2f}s, peak {peak} terms",
    )
    assert ok


def test_criterion_2_symmetric_family_scalars():
    """Symmetric-family scalars, exact, in both normalizations.

    The one-sided double sum
    T = sum_{i=1}^{k+1} sum_{r=1}^{k-i+2} (-1)^(r-1) C(k, r-1) e_1^(x)k . D_{i,i+r}
    contracts to (2-2g) times the projected seed word: -8 at (3,5) and -12 at
    (5,7).  The candidate phi = (omega (x) seed) . theta_P . (1 + sigma + ... +
    sigma^(k+1)) is 2T, because for odd k the full rotation-orbit sum meets
    every insertion pattern twice, so its own scalar is 2(2-2g): -16 and -24.
    Criterion 1's -4(g+1) is the same normalization of phi for [1^k].
    T is built here from `expansion` directly, not from `closed_form_phi`,
    which is checked against phi separately.
    """
    start = time.time()
    results = {}
    ok = True
    for k, g in ((3, 5), (5, 7)):
        phi = phi_candidate(FAMILY_SYMMETRIC, k, g)
        agrees = phi == closed_form_phi(FAMILY_SYMMETRIC, k, g)
        base = SparseTensor.basis_word(2 * g, (1,) * k)
        one_sided = SparseTensor.zero(k + 2, 2 * g)
        for i in range(1, k + 2):
            for r in range(1, k - i + 3):
                one_sided = one_sided + (-1) ** (r - 1) * comb(k, r - 1) * expansion(
                    base, i, i + r
                )
        seed = cyclic_project(base)
        scalar = cyclic_project(cont_k(one_sided)).ratio_to(seed)
        phi_scalar = cyclic_project(cont_k(phi)).ratio_to(seed)
        doubled = phi == 2 * one_sided
        results[(k, g)] = (agrees, doubled, scalar, phi_scalar)
        ok = (
            ok
            and agrees
            and doubled
            and scalar == Fraction(2 - 2 * g)
            and phi_scalar == Fraction(2 * (2 - 2 * g))
        )
    elapsed = time.time() - start
    detail = ", ".join(
        f"(k={k},g={g}): T scalar {scalar} (stated {2 - 2 * g}), "
        f"phi scalar {phi_scalar} (stated {2 * (2 - 2 * g)}), "
        f"phi == 2T {doubled}, closed form agrees={agrees}"
        for (k, g), (agrees, doubled, scalar, phi_scalar) in results.items()
    )
    _report(2, ok and elapsed <= 120, detail + f", {elapsed:.2f}s")
    assert ok, (
        "expected the one-sided double sum T to contract to (2-2g), "
        f"phi == 2T and phi to contract to 2(2-2g); got {detail}"
    )


def test_criterion_3_kernel_decomposition_tables():
    """Sp decompositions of the degree-k kernel for k = 1..4, exact, through
    the command-line entry point."""
    import io
    import json

    from jcokernel.cli import main as cli_main

    start = time.time()
    expected = {
        1: {(1, 1, 1): 1, (1,): 1},
        2: {(2, 2): 1, (1, 1): 1, (): 1},
        3: {(3, 1, 1): 1, (2, 1): 1, (3,): 1},
        4: {(4, 2): 1, (3, 1, 1, 1): 1, (2, 2, 2): 1, (3, 1): 2, (2, 1, 1): 2, (2,): 3},
    }
    ok = True
    for k, table in expected.items():
        out = io.StringIO()
        code = cli_main(
            ["--format", "json", "decompose", "--source", "h",
             "--k", str(k), "--g", str(k + 2)],
            out=out,
        )
        components = json.loads(out.getvalue())["components"]
        got = {tuple(c["weight"]): c["multiplicity"] for c in components}
        ok = ok and code == 0 and got == table
        ok = ok and got == {
            tuple(p): m for p, m in sp_decomposition("h", k, k + 2).items()
        }
    elapsed = time.time() - start
    ok = ok and elapsed <= 10
    _report(3, ok, f"kernel decomposition tables k=1..4 exact via CLI, {elapsed:.2f}s")
    assert ok


def test_criterion_4_multiplicity_tables():
    """Weight multiplicities in the kernel and the cyclic quotient."""
    start = time.time()
    ok = True
    for k in (3, 5, 7):
        ok = ok and mult_sp_in_module((k,), "h", k, k + 2) == 1
    for k in (2, 4, 6):
        ok = ok and mult_sp_in_module((k,), "h", k, k + 2) == 0
    for k in (5, 6):
        ok = ok and mult_sp_in_module((1,) * k, "h", k, k + 2) == 1
    for k in (3, 4, 7, 8):
        ok = ok and mult_sp_in_module((1,) * k, "h", k, k + 2) == 0
    for k in (1, 3, 5, 7):
        ok = ok and mult_sp_in_module((1,) * k, "cyclic", k, k + 2) == 1
    for k in (2, 4, 6):
        ok = ok and mult_sp_in_module((1,) * k, "cyclic", k, k + 2) == 0
    elapsed = time.time() - start
    ok = ok and elapsed <= 10
    _report(4, ok, f"multiplicity tables for [k] and [1^k], {elapsed:.2f}s")
    assert ok


def test_criterion_5_cyclic_character_tables():
    """Cyclic-restriction multiplicity tables reproduce for m <= 12."""
    start = time.time()
    ok = True
    for m in range(2, 13):
        ok = ok and kw_multiplicity((m,), 0) == 1
        ok = ok and kw_multiplicity((m,), 1) == 0
        ok = ok and kw_multiplicity((m - 1, 1), 0) == 0
        ok = ok and kw_multiplicity((m - 1, 1), 1) == 1
        ok = ok and kw_multiplicity((1,) * m, 0) == (1 if m % 2 else 0)
        ok = ok and kw_multiplicity((1,) * m, 1) == (1 if m == 2 else 0)
        if m >= 3:
            ok = ok and kw_multiplicity((2,) + (1,) * (m - 2), 0) == (0 if m % 2 else 1)
            ok = ok and kw_multiplicity((2,) + (1,) * (m - 2), 1) == (0 if m == 2 else 1)
            two_col = (m - 2, 1, 1)
            ok = ok and kw_multiplicity(two_col, 0) == (
                (m - 1) // 2 if m % 2 else (m - 2) // 2
            )
            ok = ok and kw_multiplicity(two_col, 1) == (
                (m - 3) // 2 if m % 2 else (m - 2) // 2
            )
        if m >= 4:
            square = (2, 2) + (1,) * (m - 4)
            if m % 2:
                expected = (m - 3) // 2
            elif m % 4 == 0:
                expected = (m - 4) // 2
            else:
                expected = (m - 2) // 2
            ok = ok and kw_multiplicity(square, 1) == expected
    elapsed = time.time() - start
    ok = ok and elapsed <= 5
    _report(5, ok, f"cyclic restriction tables m <= 12, {elapsed:.2f}s")
    assert ok


def test_criterion_6_projector_operator_identity():
    """theta_P (sum sigma^i) theta_P = (k+1) theta_P (sum sigma^i) on 50
    random tensors for k in 2..4."""
    start = time.time()
    rng = random.Random(2024)
    ok = True
    for k in (2, 3, 4):
        g = k + 2
        proj = averaged_projector(k)
        lhs = proj * theta_stabilizer(k)
        for _ in range(50):
            t = _random_tensor(rng, k + 2, 2 * g, nterms=6)
            ok = ok and act_perm(t, lhs) == (k + 1) * act_perm(t, proj)
    elapsed = time.time() - start
    ok = ok and elapsed <= 30
    _report(6, ok, f"projector identity on 150 random tensors, {elapsed:.2f}s")
    assert ok


def test_criterion_7_diagram_algebra_suite():
    """Relations, twisted action, characters at identity, span checks."""
    start = time.time()
    ok = check_relations(3, 3) and check_relations(4, 4)
    for k in range(2, 7):
        g = k + 2
        identity = CycleType((1,) * k)
        for j in range(0, k // 2 + 1):
            for lam in partitions_of(k - 2 * j):
                ok = ok and ram_character(lam, identity, g) == brauer_dim(lam, k, g)
    ok = ok and span_equality_check(Partition((1, 1)), 0, 2, 4)
    ok = ok and span_equality_check(Partition(()), 1, 2, 4)
    ok = ok and span_equality_check(Partition((1,)), 1, 3, 5)
    elapsed = time.time() - start
    ok = ok and elapsed <= 120
    _report(7, ok, f"diagram algebra relations/characters/spans, {elapsed:.2f}s")
    assert ok


def test_criterion_8_free_lie_rank_cross_checks():
    """Rank formula against dimension sums and word enumeration."""
    start = time.time()
    ok = True
    for n in (6, 8):
        for k in range(1, 7):
            total = sum(
                kw_multiplicity(lam, 1) * gl_dimension(lam, n)
                for lam in partitions_of(k, max_length=n)
            )
            ok = ok and total == witt_rank(n, k)
    for k in range(1, 11):
        lyndon = sum(
            1
            for word in itertools.product(range(2), repeat=k)
            if all(word < word[s:] + word[:s] for s in range(1, k))
        )
        ok = ok and witt_rank(2, k) == lyndon
    elapsed = time.time() - start
    ok = ok and elapsed <= 30
    _report(8, ok, f"rank cross-checks (dimension sums, word counts), {elapsed:.2f}s")
    assert ok


def test_criterion_9_step_identity_suite():
    """Expansion-shift identities and the vanishing alternating sum."""
    start = time.time()
    ok = True
    # Power seed, k = 3 and 5: binomial expansion of the stabilizer product.
    for k in (3, 5):
        g = k + 2
        base = SparseTensor.basis_word(2 * g, (1,) * k)
        for r in range(2, k + 2):
            lhs = expansion(base, 1, 2)
            for i in range(2, r + 1):
                lhs = lhs - act_perm(lhs, _stab_rotation(k + 2, i))
            rhs = SparseTensor.zero(k + 2, 2 * g)
            for j in range(1, r + 1):
                rhs = rhs + (-1) ** (j - 1) * comb(r - 1, j - 1) * expansion(base, 1, 1 + j)
            ok = ok and lhs == rhs
    # Wedge seed at k=5, prefixes r = 2 (mod 4).
    k, g = 5, 7
    base = wedge(range(1, k + 1), 2 * g)
    for r in (2, 6):
        lhs = expansion(base, 1, 2)
        for i in range(2, r + 1):
            lhs = lhs - act_perm(lhs, _stab_rotation(k + 2, i))
        rhs = SparseTensor.zero(k + 2, 2 * g)
        for j in range(1, r + 1):
            sign = -1 if j % 4 in (2, 3) else 1
            rhs = rhs + sign * comb((r - 2) // 2, (j - 1) // 2) * expansion(base, 1, 1 + j)
        ok = ok and lhs == rhs
    # Rotation shift rules for both seeds.
    for seed_kind, ks in (("power", (3, 5)), ("wedge", (5,))):
        for k in ks:
            g = k + 2
            if seed_kind == "power":
                base = SparseTensor.basis_word(2 * g, (1,) * k)
            else:
                base = wedge(range(1, k + 1), 2 * g)
            sigma = full_cycle(k + 2)
            for i in range(1, k + 2):
                for j in range(i + 1, k + 3):
                    lhs = act_perm(expansion(base, i, j), sigma)
                    if j != k + 2:
                        ok = ok and lhs == expansion(base, i + 1, j + 1)
                    else:
                        ok = ok and lhs == -1 * expansion(base, 1, i + 1)
    # Alternating binomial sum vanishes for k = 1 (mod 4).
    for k in range(5, 30, 4):
        total = sum(
            (-1) ** (j - 1) * (-1 if j % 4 in (2, 3) else 1) * comb((k - 1) // 2, (j - 1) // 2)
            for j in range(1, k + 2)
        )
        ok = ok and total == 0
    elapsed = time.time() - start
    ok = ok and elapsed <= 120
    _report(9, ok, f"step identities and vanishing sum, {elapsed:.2f}s")
    assert ok


def _stab_rotation(m, i):
    sigma = list(range(m))
    sigma[1] = i
    for p in range(2, i + 1):
        sigma[p] = p - 1
    return PermAlgebraElement(m, {tuple(sigma): 1})


def test_criterion_10_negative_controls():
    """Forced out-of-range run fails a stage; even wedges die in the
    rotation quotient."""
    start = time.time()
    report = detect(FAMILY_ALTERNATING, 4, 6, force=True)
    stage_failed = not (
        report.in_h and report.maximal and not report.contraction_image.is_zero()
    )
    ok = stage_failed and report.verdict == "not_detected"
    ok = ok and mult_sp_in_module((1,) * 4, "h", 4, 6) == 0
    for k in range(2, 8):
        projected = cyclic_project(wedge(range(1, k + 1), 2 * (k + 2)))
        ok = ok and projected.is_zero() == (k % 2 == 0)
    elapsed = time.time() - start
    ok = ok and elapsed <= 30
    _report(10, ok, f"negative controls (forced k=4, even wedges), {elapsed:.2f}s")
    assert ok
