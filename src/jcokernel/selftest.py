"""Built-in invariant panels behind the `selftest` CLI command.

The fast level finishes in seconds; the full level repeats the flagship
detection runs and the larger relation panels.  Checks are deterministic
given the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .brauer import _random_tensor, check_relations, ram_character
from .combinatorics import (
    brauer_dim,
    mult_sp_in_module,
    sp_decomposition,
    witt_rank,
)
from .detector import detect
from .freelie import (
    FAMILY_ALTERNATING,
    _family,
    averaged_projector,
    is_in_h,
    theta,
)
from .partitions import CycleType, Partition, partitions_of
from .spweights import form_compatible, sp_raising_operators
from .tensorspace import (
    PermAlgebraElement,
    SymplecticSpace,
    act_perm,
    cyclic_project,
    omega,
    wedge,
)

Check = tuple[str, bool]


def _fast_checks(rng: random.Random) -> list[Check]:
    checks: list[Check] = []
    checks.append(
        ("witt ranks n=2 k<=6", [witt_rank(2, k) for k in range(1, 7)] == [2, 1, 2, 3, 6, 9])
    )
    checks.append(
        ("theta quasi-idempotency m<=5", all(theta(m) * theta(m) == theta(m) * m for m in range(2, 6)))
    )
    swap = PermAlgebraElement.transposition(2, 1)
    for g in (2, 4):
        om = omega(g)
        checks.append((f"omega antisymmetry g={g}", act_perm(om, swap) == -1 * om))
    checks.append(
        ("sp raising operators form-compatible g<=4",
         all(form_compatible(op, SymplecticSpace(g)) for g in (1, 2, 3, 4) for op in sp_raising_operators(g)))
    )
    checks.append(("brauer relations k=3 g=3", check_relations(3, 3, rng=rng)))
    checks.append(
        ("rotation quotient kills even wedge",
         all(cyclic_project(wedge(range(1, k + 1), 2 * (k + 2))).is_zero() == (k % 2 == 0)
             for k in range(2, 6)))
    )
    # The averaged projector lands arbitrary vectors in the kernel criterion.
    for k in (2, 3):
        g = k + 2
        proj = averaged_projector(k)
        ok = True
        for _ in range(5):
            t = _random_tensor(rng, k + 2, 2 * g)
            image = act_perm(t, proj)
            ok = ok and is_in_h(image, k)
        checks.append((f"averaged projector criterion k={k}", ok))
    checks.append(
        ("h decomposition k=3",
         sp_decomposition("h", 3, 5)
         == {Partition((3, 1, 1)): 1, Partition((3,)): 1, Partition((2, 1)): 1})
    )
    report = detect("[k]", 3, 5)
    checks.append(
        ("detect [k] k=3 g=5",
         report.verdict == "detected" and report.scalar == Fraction(2 * (2 - 2 * 5)))
    )
    checks.append(
        ("step 4 alternating binomial sum",
         all(_step4_sum(k) == 0 for k in range(5, 30, 4)))
    )
    return checks


def _full_checks(rng: random.Random) -> list[Check]:
    checks: list[Check] = []
    checks.append(("brauer relations k=4 g=4", check_relations(4, 4, rng=rng)))
    ok = True
    for k in (5, 6):
        identity = CycleType((1,) * k)
        for j in range(0, k // 2 + 1):
            for lam in partitions_of(k - 2 * j):
                ok = ok and ram_character(lam, identity, k + 2) == brauer_dim(lam, k, k + 2)
    checks.append(("ram character at identity k<=6", ok))
    checks.append(
        ("multiplicity tables",
         mult_sp_in_module(Partition((1,) * 5), "h", 5, 7) == 1
         and mult_sp_in_module(Partition((1,) * 4), "h", 4, 6) == 0
         and mult_sp_in_module(Partition((7,)), "h", 7, 9) == 1)
    )
    report = detect("[1^k]", 5, 7)
    checks.append(
        ("detect [1^k] k=5 g=7",
         report.verdict == "detected"
         and report.scalar == Fraction(-4 * 8)
         and report.weight == (1, 1, 1, 1, 1, 0, 0)
         and report.closed_form_agrees is True)
    )
    report = detect("[k]", 5, 7)
    checks.append(
        ("detect [k] k=5 g=7",
         report.verdict == "detected" and report.scalar == Fraction(2 * (2 - 2 * 7)))
    )
    return checks


def _step4_sum(k: int) -> int:
    """sum_r (-1)^(r-1) c_r over the closed-form coefficients of [1^k]."""
    coefficients = _family(FAMILY_ALTERNATING).coefficients(k)
    return sum((-1) ** r * c for r, c in enumerate(coefficients))


def run_selftest(level: str = "fast", seed: int = 0) -> list[Check]:
    """Run the invariant panels; returns (name, passed) pairs."""
    if level not in ("fast", "full"):
        raise ValueError("level must be 'fast' or 'full'")
    rng = random.Random(seed)
    checks = _fast_checks(rng)
    if level == "full":
        checks += _full_checks(rng)
    return checks
