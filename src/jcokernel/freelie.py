"""Dynkin-Specht-Wever elements, membership criteria, and candidate vectors.

The degree-m projector theta_m = (1 - sigma_2)...(1 - sigma_m) characterizes
the Lie elements of tensor degree m: t is a bracket polynomial iff
t . theta_m = m t.  The stabilizer variant theta_P (fixing the first slot)
together with invariance under the full rotation characterizes the kernel of
the bracket map inside H (x) FreeLie(k+1), viewed in tensor degree k+2.
"""

from __future__ import annotations

from math import comb

from .tensorspace import (
    PermAlgebraElement,
    SparseTensor,
    _accumulate,
    act_perm,
    expansion,
    omega,
    wedge,
)

FAMILY_SYMMETRIC = "[k]"
FAMILY_ALTERNATING = "[1^k]"
FAMILIES = (FAMILY_SYMMETRIC, FAMILY_ALTERNATING)


def rotation_cycle(m: int, i: int) -> PermAlgebraElement:
    """sigma_i = s_{i-1}...s_1: rotate the first i slots, last of them to front."""
    if not 2 <= i <= m:
        raise ValueError(f"need 2 <= i <= {m}")
    sigma = list(range(m))
    sigma[0] = i - 1
    for p in range(1, i):
        sigma[p] = p - 1
    return PermAlgebraElement._raw((m,), {tuple(sigma): 1})


def full_cycle(m: int) -> PermAlgebraElement:
    """The full rotation sigma_m; has order m."""
    return rotation_cycle(m, m)


def _stabilizer_rotation(m: int, i: int) -> PermAlgebraElement:
    """s_i s_{i-1} ... s_2: rotate slots 2..i+1, fixing slot 1."""
    if not 2 <= i <= m - 1:
        raise ValueError(f"need 2 <= i <= {m - 1}")
    sigma = list(range(m))
    sigma[1] = i
    for p in range(2, i + 1):
        sigma[p] = p - 1
    return PermAlgebraElement._raw((m,), {tuple(sigma): 1})


def theta(m: int) -> PermAlgebraElement:
    """The product (1 - sigma_2)...(1 - sigma_m); satisfies theta^2 = m theta."""
    if m < 2:
        raise ValueError("theta needs degree >= 2")
    result = PermAlgebraElement.identity(m)
    for i in range(2, m + 1):
        result = result * (1 - rotation_cycle(m, i))
    return result


def theta_stabilizer(k: int) -> PermAlgebraElement:
    """The slot-1 stabilizer analogue of theta, in degree k+2.

    Product of (1 - s_i...s_2) for i = 2..k+1; every permutation in its
    support fixes the first slot.
    """
    if k < 1:
        raise ValueError("k must be positive")
    m = k + 2
    result = PermAlgebraElement.identity(m)
    for i in range(2, k + 2):
        result = result * (1 - _stabilizer_rotation(m, i))
    return result


def apply_theta(tensor: SparseTensor) -> SparseTensor:
    """t . theta_m, folding the factors one at a time to bound growth."""
    m = tensor.degree
    if m < 2:
        raise ValueError("theta needs degree >= 2")
    result = tensor
    for i in range(2, m + 1):
        result = result - act_perm(result, rotation_cycle(m, i))
    return result


def apply_theta_stabilizer(tensor: SparseTensor, k: int) -> SparseTensor:
    """t . theta_P for a degree-(k+2) tensor, folded factor by factor."""
    m = k + 2
    if tensor.degree != m:
        raise ValueError(f"tensor degree must be {m}")
    result = tensor
    for i in range(2, k + 2):
        result = result - act_perm(result, _stabilizer_rotation(m, i))
    return result


def rotation_orbit_sum(tensor: SparseTensor) -> SparseTensor:
    """t . (1 + sigma + ... + sigma^(m-1)) for the full rotation sigma."""
    sigma = full_cycle(tensor.degree)
    total = dict(tensor._terms)
    current = tensor
    for _ in range(tensor.degree - 1):
        current = act_perm(current, sigma)
        _accumulate(total, current._terms.items(), "add")
    # Cancelled terms leave the grown table oversized (1.3 MB against 0.6 MB
    # for the [1^5] candidate at g=7).  The result stays alive through every
    # later stage, so return a copy sized for the surviving terms.
    return SparseTensor._raw(tensor._shape, dict(total))


def left_normed_bracket(letters, n: int) -> SparseTensor:
    """The left-normed bracket [v_1, v_2, ..., v_m] inside tensor degree m,
    via [x, y] = x (x) y - y (x) x applied recursively."""
    letters = tuple(letters)
    if not letters:
        raise ValueError("need at least one letter")
    result = SparseTensor.basis_word(n, letters[:1])
    for letter in letters[1:]:
        single = SparseTensor.basis_word(n, (letter,))
        result = result.tensor(single) - single.tensor(result)
    return result


def is_lie_element(tensor: SparseTensor) -> bool:
    """Exact test t . theta_m = m t; the zero tensor passes vacuously."""
    if tensor.is_zero():
        return True
    if tensor.degree == 1:
        return True
    return apply_theta(tensor) == tensor.degree * tensor


def is_in_h(tensor: SparseTensor, k: int) -> bool:
    """Membership in the bracket-map kernel, by the two-sided criterion
    t . theta_P = (k+1) t and t . sigma_{k+2} = t, both exact."""
    if tensor.degree != k + 2:
        raise ValueError(f"tensor degree must be {k + 2}")
    if tensor.is_zero():
        return True
    if apply_theta_stabilizer(tensor, k) != (k + 1) * tensor:
        return False
    return act_perm(tensor, full_cycle(k + 2)) == tensor


def averaged_projector(k: int) -> PermAlgebraElement:
    """theta_P (1 + sigma + ... + sigma^(k+1)); lands every vector in the
    bracket-map kernel."""
    m = k + 2
    sigma = full_cycle(m)
    powers = PermAlgebraElement.identity(m)
    current = PermAlgebraElement.identity(m)
    for _ in range(k + 1):
        current = current * sigma
        powers = powers + current
    return theta_stabilizer(k) * powers


def _seed(family: str, k: int, g: int) -> SparseTensor:
    if family == FAMILY_SYMMETRIC:
        return omega(g).tensor(SparseTensor.basis_word(2 * g, (1,) * k))
    if family == FAMILY_ALTERNATING:
        return omega(g).tensor(wedge(range(1, k + 1), 2 * g))
    raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")


def family_preconditions(family: str, k: int, g: int) -> str | None:
    """The violated precondition as a message, or None when admissible."""
    if family not in FAMILIES:
        return f"family must be one of {FAMILIES}"
    if g < k + 2:
        return f"stable range requires g >= k+2 = {k + 2}, got g = {g}"
    if family == FAMILY_SYMMETRIC:
        if k < 3 or k % 2 == 0:
            return f"family [k] requires odd k >= 3, got k = {k}"
    else:
        if k < 5 or k % 4 != 1:
            return f"family [1^k] requires k = 1 (mod 4) and k >= 5, got k = {k}"
    return None


def phi_candidate(family: str, k: int, g: int, check: bool = True) -> SparseTensor:
    """Seed vector pushed into the bracket-map kernel by the averaged projector.

    The seed is omega (x) e_1^(x)k for family "[k]" and omega (x) wedge for
    family "[1^k]".
    """
    if check:
        problem = family_preconditions(family, k, g)
        if problem:
            raise ValueError(problem)
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    if g < 1 or k < 1:
        raise ValueError("k and g must be positive")
    seed = _seed(family, k, g)
    return rotation_orbit_sum(apply_theta_stabilizer(seed, k))


def closed_form_phi(family: str, k: int, g: int, check: bool = True) -> SparseTensor:
    """Explicit double-sum form of the candidate vector.

    2 sum_{i=1}^{k+1} sum_{r=1}^{k-i+2} sign(r) binom(r) (seed word) . D_{i,i+r}
    with sign (-1)^(r-1), binom C(k, r-1) for family "[k]" and sign
    (-1)^[r = 2,3 mod 4], binom C((k-1)/2, floor((r-1)/2)) for family "[1^k]".
    """
    if check:
        problem = family_preconditions(family, k, g)
        if problem:
            raise ValueError(problem)
    n = 2 * g
    if family == FAMILY_SYMMETRIC:
        base = SparseTensor.basis_word(n, (1,) * k)

        def coefficient(r: int) -> int:
            return (-1) ** (r - 1) * comb(k, r - 1)

    elif family == FAMILY_ALTERNATING:
        if (k - 1) % 2:
            raise ValueError("family [1^k] needs odd k for the closed form")
        base = wedge(range(1, k + 1), n)

        def coefficient(r: int) -> int:
            sign = -1 if r % 4 in (2, 3) else 1
            return sign * comb((k - 1) // 2, (r - 1) // 2)

    else:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    total: dict[bytes, int] = {}
    for i in range(1, k + 2):
        for r in range(1, k - i + 3):
            scale = 2 * coefficient(r)
            terms = expansion(base, i, i + r)._terms.items()
            _accumulate(total, ((word, coeff * scale) for word, coeff in terms), "add")
    return SparseTensor._raw((k + 2, n), total)
