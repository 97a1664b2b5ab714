import itertools
import re
from collections import Counter
from fractions import Fraction
from math import factorial, gcd

import pytest

import jcokernel.combinatorics as combinatorics_module
import jcokernel.partitions as partitions_module
from jcokernel.brauer import ram_character
from jcokernel.combinatorics import (
    SOURCES,
    _bead_partition,
    _mn_column,
    _pairing,
    brauer_dim,
    gl_to_sp_branching,
    kw_multiplicity,
    lr_coefficient,
    mult_sp_in_module,
    sk_character,
    sp_decomposition,
    witt_rank,
)
from jcokernel.partitions import CycleType, Partition, partitions_of, standard_tableaux, syt_count
from oracles import _mn, gl_dimension, mult_gl_in_h, sp_dimension
from test_partitions import major_index


# ---------------------------------------------------------------- oracles


def lyndon_count(n: int, k: int) -> int:
    """Brute force: words strictly smaller than all their proper rotations."""
    count = 0
    for word in itertools.product(range(n), repeat=k):
        if all(word < word[s:] + word[:s] for s in range(1, k)):
            count += 1
    return count


def lr_oracle(outer, inner, weight) -> int:
    """Exhaustive filling filter, independent of the pruned search."""
    outer, inner, weight = Partition(outer), Partition(inner), Partition(weight)
    if not outer.contains(inner) or outer.size != inner.size + weight.size:
        return 0
    inner_p = tuple(inner) + (0,) * (outer.length - inner.length)
    cells = [(r, c) for r in range(outer.length) for c in range(inner_p[r], outer[r])]
    nvals = max(weight.length, 1)
    count = 0
    for values in itertools.product(range(1, nvals + 1), repeat=len(cells)):
        grid = dict(zip(cells, values))
        if any(values.count(v) != weight[v - 1] for v in range(1, weight.length + 1)):
            continue
        ok = all(
            grid[(r, c)] <= grid[(r, c + 1)] for r, c in cells if (r, c + 1) in grid
        ) and all(grid[(r, c)] < grid[(r + 1, c)] for r, c in cells if (r + 1, c) in grid)
        if not ok:
            continue
        word = []
        for r in range(outer.length):
            for c in range(outer[r] - 1, inner_p[r] - 1, -1):
                word.append(grid[(r, c)])
        counts = [0] * (nvals + 1)
        for v in word:
            counts[v] += 1
            if v > 1 and counts[v] > counts[v - 1]:
                ok = False
                break
        count += ok
    return count


def gl_module_multiplicities(source: str, k: int, g: int) -> dict[Partition, int]:
    """GL(2g) multiplicities of a named module, from major-index residues;
    "tensor_power" is H^(x)k itself, where lam occurs f^lam times."""
    n = 2 * g
    if source == "h":
        return {lam: mult_gl_in_h(lam, g) for lam in partitions_of(k + 2, max_length=n)}
    if source == "cyclic":
        return {lam: kw_multiplicity(lam, 0) for lam in partitions_of(k, max_length=n)}
    return {lam: syt_count(lam) for lam in partitions_of(k, max_length=n)}


def sp_decomposition_oracle(source: str, k: int, g: int) -> dict[Partition, int]:
    """GL multiplicities restricted to Sp(2g) by Littlewood-Richardson branching."""
    result: dict[Partition, int] = {}
    for lam, mult in gl_module_multiplicities(source, k, g).items():
        if not mult:
            continue
        for mubar, n in gl_to_sp_branching(lam, g).items():
            result[mubar] = result.get(mubar, 0) + n * mult
    return dict(sorted(((m, c) for m, c in result.items() if c), reverse=True))


def mult_sp_oracle(mubar, source: str, k: int, g: int) -> int:
    return sum(
        gl_to_sp_branching(lam, g).get(mubar, 0) * mult
        for lam, mult in gl_module_multiplicities(source, k, g).items()
        if mult
    )


def class_size(cls: CycleType) -> int:
    k = cls.size
    denom = 1
    for part in set(cls):
        m = list(cls).count(part)
        denom *= part**m * factorial(m)
    return factorial(k) // denom


# ------------------------------------------------------------------ witt


def test_witt_examples():
    assert witt_rank(2, 1) == 2
    assert witt_rank(2, 3) == lyndon_count(2, 3) == 2
    assert witt_rank(3, 2) == lyndon_count(3, 2) == 3


def test_witt_matches_lyndon_enumeration():
    for k in range(1, 11):
        assert witt_rank(2, k) == lyndon_count(2, k)


def test_witt_rejects_bad_input():
    with pytest.raises(ValueError):
        witt_rank(0, 1)


def test_non_integral_pairing_raises_even_without_asserts():
    # The exactness check is an if, not an assert, so python -O keeps it:
    # half of p_1^2 = s_2 + s_11 would otherwise truncate to 0.  The whole
    # column and the one shape share the pairing.
    for mu in (None, Partition((2,))):
        with pytest.raises(RuntimeError, match="non-integral multiplicity 1/2"):
            _pairing({(1, 1): Fraction(1, 2)}, 2, mu)


# ------------------------------------------------------- cyclic characters


def test_kw_examples():
    for k in range(1, 9):
        assert kw_multiplicity((k,), 0) == 1
    assert kw_multiplicity((1,) * 5, 0) == 1
    assert kw_multiplicity((2, 1, 1), 0) == 1
    assert kw_multiplicity((2, 2, 1), 1) == 1


def test_maj_residues_match_tableau_enumeration():
    # The Ramanujan-sum characters against a histogram of enumerated major
    # indices, at every residue.
    for n in range(1, 11):
        for lam in partitions_of(n):
            histogram = Counter(major_index(t) % n for t in standard_tableaux(lam))
            assert [kw_multiplicity(lam, j) for j in range(n)] == [histogram[j] for j in range(n)]


def test_kw_residues_sum_to_tableau_count():
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert sum(kw_multiplicity(lam, j) for j in range(n)) == syt_count(lam)


def test_kw_tables_hook_and_column_shapes():
    # Rows (m), (m-1,1), (1^m), (2,1^(m-2)) of the worked multiplicity table.
    for m in range(2, 13):
        assert kw_multiplicity((m,), 0) == 1
        assert kw_multiplicity((m,), 1) == 0
        assert kw_multiplicity((m - 1, 1), 0) == 0
        assert kw_multiplicity((m - 1, 1), 1) == 1
        assert kw_multiplicity((1,) * m, 0) == (1 if m % 2 else 0)
        assert kw_multiplicity((1,) * m, 1) == (1 if m == 2 else 0)
        if m >= 3:
            assert kw_multiplicity((2,) + (1,) * (m - 2), 0) == (0 if m % 2 else 1)
            assert kw_multiplicity((2,) + (1,) * (m - 2), 1) == (0 if m == 2 else 1)


def test_kw_tables_two_column_shapes():
    for m in range(3, 13):
        lam = (m - 2, 1, 1)
        expected_triv = (m - 2) // 2 if m % 2 == 0 else (m - 1) // 2
        expected_chi1 = (m - 3) // 2 if m % 2 else (m - 2) // 2
        assert kw_multiplicity(lam, 0) == expected_triv
        assert kw_multiplicity(lam, 1) == expected_chi1
    for m in range(4, 13):
        lam = (2, 2) + (1,) * (m - 4)
        if m % 2:
            expected = (m - 3) // 2
        elif m % 4 == 0:
            expected = (m - 4) // 2
        else:
            expected = (m - 2) // 2
        assert kw_multiplicity(lam, 1) == expected


# ------------------------------------------------- Littlewood-Richardson


def test_lr_examples_against_oracle():
    cases = [
        (((2, 1), (1, 1), (1,)), 1),
        (((3, 2, 1), (2, 1), (2, 1)), 2),
        (((2, 2), (1, 1), (1, 1)), 1),
    ]
    for (outer, inner, weight), frozen in cases:
        assert lr_oracle(outer, inner, weight) == frozen
        assert lr_coefficient(outer, inner, weight) == frozen
    for lam in partitions_of(4):
        assert lr_coefficient(lam, lam, ()) == 1


def test_lr_incompatible_shapes_are_zero():
    assert lr_coefficient((2,), (1, 1), (1,)) == 0
    assert lr_coefficient((2, 1), (1,), (1,)) == 0  # size mismatch


def test_lr_matches_oracle_small():
    for n in range(1, 6):
        for outer in partitions_of(n):
            for m in range(0, n + 1):
                for inner in partitions_of(m):
                    for weight in partitions_of(n - m):
                        assert lr_coefficient(outer, inner, weight) == lr_oracle(
                            outer, inner, weight
                        )


def test_lr_symmetry_up_to_size_8():
    for n in range(1, 9):
        for outer in partitions_of(n):
            for m in range(0, n + 1):
                for inner in partitions_of(m):
                    if not outer.contains(inner):
                        continue
                    for weight in partitions_of(n - m):
                        assert lr_coefficient(outer, inner, weight) == lr_coefficient(
                            outer, weight, inner
                        )


# -------------------------------------------------------------- branching


def test_branching_examples():
    assert gl_to_sp_branching((1,), 3) == {Partition((1,)): 1}
    assert gl_to_sp_branching((1, 1), 3) == {Partition((1, 1)): 1, Partition(()): 1}
    assert gl_to_sp_branching((2,), 3) == {Partition((2,)): 1}


def test_branching_preserves_dimension():
    for g in (3, 4):
        for n in range(0, 7):
            for lam in partitions_of(n, max_length=g):
                total = sum(
                    mult * sp_dimension(mubar, g)
                    for mubar, mult in gl_to_sp_branching(lam, g).items()
                )
                assert total == gl_dimension(lam, 2 * g)


def test_branching_coefficient_matches_table():
    branching = gl_to_sp_branching((2, 2), 3)
    assert branching.get((2, 2), 0) == 1
    assert branching.get((1, 1), 0) == 1
    assert branching.get((), 0) == 1
    assert branching.get((2,), 0) == 0


def test_branching_coefficient_edge_cases():
    # A mubar longer than g is no Sp(2g) weight; a lam longer than g is refused.
    assert gl_to_sp_branching((2, 1), 2).get((1, 1, 1), 0) == 0
    assert gl_to_sp_branching((2, 2), 2).get((1, 1, 1, 1), 0) == 0
    with pytest.raises(ValueError, match="length of lambda exceeds g=2"):
        gl_to_sp_branching((1, 1, 1), 2)


# -------------------------------------------------------------- characters


def test_sk_character_examples():
    for k in range(1, 7):
        for cls in partitions_of(k):
            assert sk_character((k,), cls) == 1
            cycles = len(cls)
            assert sk_character((1,) * k, cls) == (-1) ** (k - cycles)
    assert sk_character((2, 1), (1, 1, 1)) == 2


def test_sk_character_of_conjugate_is_sign_twist():
    # chi^{lam'}(sigma) = sgn(sigma) chi^lam(sigma): the twist ram_character folds
    # into its series instead of conjugating lam.
    for n in range(0, 11):
        for cls in partitions_of(n):
            sign = (-1) ** (cls.size - cls.length)
            for lam in partitions_of(n):
                assert sk_character(lam.conjugate(), cls) == sign * sk_character(lam, cls)


def test_sk_character_orthogonality():
    for k in range(1, 8):
        shapes = partitions_of(k)
        for nu in shapes:
            for mu in shapes:
                total = sum(
                    class_size(CycleType(cls)) * sk_character(nu, cls) * sk_character(mu, cls)
                    for cls in partitions_of(k)
                )
                assert total == (factorial(k) if nu == mu else 0)


# ----------------------------------------------------------- multiplicities


def test_mult_gl_in_cyclic():
    # The GL multiplicity of lam in the cyclic quotient is kw_multiplicity(lam, 0).
    assert kw_multiplicity((1,) * 5, 0) == 1
    assert kw_multiplicity((1,) * 4, 0) == 0
    for k in range(1, 7):
        assert kw_multiplicity((k,), 0) == 1


def test_mult_gl_in_free_lie():
    # The GL multiplicity of lam in the free Lie part is kw_multiplicity(lam, 1).
    for m in range(3, 9):
        assert kw_multiplicity((m - 1, 1), 1) == 1
        assert kw_multiplicity((1,) * m, 1) == 0
    assert kw_multiplicity((1, 1), 1) == 1
    for k in range(3, 8, 2):
        # chi^1 multiplicity of the (k,1,1) shape in degree k+2, odd case
        assert kw_multiplicity((k, 1, 1), 1) == (k - 1) // 2


def test_mult_gl_in_h_examples():
    for k in (3, 5, 7):
        g = k + 2
        assert mult_gl_in_h((k + 1, 1), g) == 0
        assert mult_gl_in_h((k, 1, 1), g) == 1
    for k in (5, 9):
        g = k + 2
        assert mult_gl_in_h((2, 2) + (1,) * (k - 2), g) == 1


def test_mult_sp_in_module_tables():
    for k in (3, 5, 7):
        assert mult_sp_in_module((k,), "h", k, k + 2) == 1
    for k in (2, 4, 6):
        assert mult_sp_in_module((k,), "h", k, k + 2) == 0
    assert mult_sp_in_module((1,) * 6, "h", 6, 8) == 1
    for k in range(2, 8):
        assert mult_sp_in_module((k,), "cyclic", k, k + 2) == 1


def test_headline_laws_for_every_k_up_to_60():
    # The paper's [1^k] and [k] families, in the kernel h and in the cyclic
    # quotient C, at g = k + 2.
    for k in range(3, 61):
        g = k + 2
        assert mult_sp_in_module((1,) * k, "h", k, g) == (1 if k % 4 in (1, 2) else 0), k
        assert mult_sp_in_module((1,) * k, "cyclic", k, g) == k % 2, k
        assert mult_sp_in_module((k,), "h", k, g) == k % 2, k
        assert mult_sp_in_module((k,), "cyclic", k, g) == 1, k


def test_mult_sp_in_tensor_power_matches_brauer_dim():
    # The Sp multiplicity of lam in H^(x)k is Ram's character at the identity.
    for k in range(2, 7):
        g = k + 2
        identity = CycleType((1,) * k)
        for j in range(0, k // 2 + 1):
            for lam in partitions_of(k - 2 * j, max_length=g):
                assert ram_character(lam, identity, g) == brauer_dim(lam, k, g)


def test_mult_sp_rejects_unstable_range():
    with pytest.raises(ValueError):
        mult_sp_in_module((3,), "h", 3, 4)


def test_mult_sp_refuses_a_non_integral_weight():
    # It used to answer for (2,), the truncated weight.
    with pytest.raises(ValueError, match=re.escape("parts must be integers: 2.9")):
        mult_sp_in_module((2.9,), "h", 3, 5)


def test_power_sum_core_matches_lr_oracle():
    # Same entries in the same order, so the CLI bytes cannot move.
    cases = [(s, k) for s in ("h", "cyclic") for k in range(1, 11)]
    for source, k in cases:
        for g in (k + 2, k + 3) if k <= 5 else (k + 2,):
            got = sp_decomposition(source, k, g)
            assert list(got.items()) == list(sp_decomposition_oracle(source, k, g).items())
            assert all(type(m) is int for m in got.values())
    # H^(x)k decomposes by Ram's character at the identity.
    for k in range(1, 8):
        identity = CycleType((1,) * k)
        for g in (k + 2, k + 3) if k <= 5 else (k + 2,):
            got = {
                lam: ram_character(lam, identity, g)
                for j in range(k // 2 + 1)
                for lam in partitions_of(k - 2 * j)
            }
            assert got == sp_decomposition_oracle("tensor_power", k, g)


def test_mult_sp_in_module_matches_decomposition_and_oracle():
    # The decomposition adds border strips to the empty bead mask;
    # `mult_sp_in_module` removes them from the one shape's mask.
    for source in SOURCES:
        for k in range(1, 13):
            g = k + 2
            table = sp_decomposition(source, k, g)
            for size in range(k + 3):
                for mubar in partitions_of(size, max_length=g):
                    mult = mult_sp_in_module(mubar, source, k, g)
                    assert mult == table.get(mubar, 0)
                    if k <= 4:
                        assert mult == mult_sp_oracle(mubar, source, k, g)
    # Larger than the module's degree: no component.
    assert mult_sp_in_module((1,) * 8, "h", 5, 7) == 0


def test_mn_column_matches_the_recursion_in_either_part_order():
    # Adding strips from the empty mask gives the whole column; removing them
    # from mu's mask leaves chi^mu at the empty mask, or nothing for a zero.
    pairs = 0
    for d in range(11):
        empty = (1 << d) - 1
        for rho in partitions_of(d):
            for parts in (tuple(rho), tuple(rho)[::-1]):
                column = {_bead_partition(mask): chi for mask, chi in _mn_column(parts, d).items()}
                assert 0 not in column.values()
                # Fewer beads walk only the shapes of that many rows.
                for beads in range(d):
                    short = _mn_column(parts, beads)
                    assert {_bead_partition(mask): chi for mask, chi in short.items()} == {
                        mu: chi for mu, chi in column.items() if mu.length <= beads
                    }, (beads, parts)
                for mu in partitions_of(d):
                    chi = _mn(mu, tuple(rho))
                    assert column.get(mu, 0) == chi, (mu, parts)
                    assert _mn_column(parts, d, mu) == ({empty: chi} if chi else {}), (mu, parts)
                    assert sk_character(mu, rho) == chi, (mu, rho)
                pairs += len(partitions_of(d))
    assert pairs == 2 * 3583


def test_sp_decomposition_refuses_a_fractional_multiplicity(monkeypatch):
    # (3 p_1^2 + p_2) / 4 = s_2 + s_11 / 2.
    half = {2: {(1, 1): Fraction(3, 4), (2,): Fraction(1, 4)}}
    monkeypatch.setattr(combinatorics_module, "_sp_character", lambda source, k: half)
    with pytest.raises(RuntimeError, match=r"non-integral multiplicity 1/2 for Partition\(1, 1\)"):
        sp_decomposition("h", 1, 3)
    # The single-shape query pairs through the same routine.
    assert mult_sp_in_module((2,), "h", 1, 3) == 1
    with pytest.raises(RuntimeError, match=r"non-integral multiplicity 1/2 for Partition\(1, 1\)"):
        mult_sp_in_module((1, 1), "h", 1, 3)


def test_sp_decomposition_leaves_no_cache_behind():
    # Apart from the power-sum tables, no query fills a module cache.
    power_sums = {"_sp_character", "_cyclic_character", "_matching_expansion"}
    caches = [
        value
        for module in (combinatorics_module, partitions_module)
        for name, value in vars(module).items()
        if hasattr(value, "cache_info") and name not in power_sums
    ]
    assert combinatorics_module._lr in caches and partitions_module._partitions_of in caches
    before = [cache.cache_info().currsize for cache in caches]
    sp_decomposition("h", 12, 14)
    for k in range(4, 13):
        for source in SOURCES:
            mult_sp_in_module((1,) * k, source, k, k + 2)
            mult_sp_in_module((k - 2, 2), source, k, k + 2)
        kw_multiplicity((k - 2, 1, 1), 1)
        sk_character((k - 2, 2), (k - 1, 1))
    assert [cache.cache_info().currsize for cache in caches] == before


def test_sp_decomposition_dimension_beyond_the_lr_reach():
    # sum_mu mult(mu) dim V_mu = dim h(k) = 2g witt(2g, k+1) - witt(2g, k+2);
    # the right side uses neither the power-sum core nor branching.
    for k in range(11, 15):
        g = k + 2
        total = sum(
            mult * sp_dimension(mubar, g)
            for mubar, mult in sp_decomposition("h", k, g).items()
        )
        assert total == 2 * g * witt_rank(2 * g, k + 1) - witt_rank(2 * g, k + 2)


def test_module_arguments_are_checked():
    for source in ("h", "cyclic"):
        for k in (0, -1):
            message = f"k must be at least 1 for source {source!r}, got k = {k}"
            with pytest.raises(ValueError, match=re.escape(message)):
                sp_decomposition(source, k, 3)
            with pytest.raises(ValueError, match=re.escape(message)):
                mult_sp_in_module((), source, k, 3)
    with pytest.raises(ValueError, match="unknown source 'tensor_power'"):
        sp_decomposition("tensor_power", 3, 5)
    with pytest.raises(ValueError, match="unknown source 'tensor_power'"):
        mult_sp_in_module((3,), "tensor_power", 3, 5)
    with pytest.raises(ValueError, match="unknown source 'free'"):
        sp_decomposition("free", 3, 5)
    with pytest.raises(ValueError, match="unknown source 'free'"):
        mult_sp_in_module((3,), "free", 3, 5)
    with pytest.raises(ValueError, match="stable range requires g >= 5, got 4"):
        sp_decomposition("cyclic", 3, 4)


def test_sp_decomposition_of_h_small_table():
    expected = {
        1: {(1, 1, 1): 1, (1,): 1},
        2: {(2, 2): 1, (1, 1): 1, (): 1},
        3: {(3, 1, 1): 1, (2, 1): 1, (3,): 1},
        4: {(4, 2): 1, (3, 1, 1, 1): 1, (2, 2, 2): 1, (3, 1): 2, (2, 1, 1): 2, (2,): 3},
    }
    for k, table in expected.items():
        got = {tuple(p): m for p, m in sp_decomposition("h", k, k + 2).items()}
        assert got == table


def test_witt_cross_check_against_free_lie_multiplicities():
    for n in (4, 5, 6, 7, 8):
        for k in range(1, 7):
            total = sum(
                kw_multiplicity(lam, 1) * gl_dimension(lam, n)
                for lam in partitions_of(k, max_length=n)
            )
            assert total == witt_rank(n, k)


def test_brauer_dim_examples():
    for k in range(1, 7):
        assert brauer_dim((k,), k, k + 2) == 1
    assert brauer_dim((), 2, 3) == 1
    assert brauer_dim((1,), 3, 3) == 3


def necklace_count(n: int, k: int) -> int:
    """Burnside count of length-k words over n letters up to rotation."""
    def totient(d):
        return sum(1 for x in range(1, d + 1) if gcd(x, d) == 1)

    return sum(totient(d) * n ** (k // d) for d in range(1, k + 1) if k % d == 0) // k


def test_cyclic_quotient_dimension_matches_necklace_count():
    # The rotation quotient of H^(x)k has one dimension per necklace; the
    # GL-multiplicity table must account for all of them.
    for k in range(1, 7):
        for g in (k + 2, k + 3):
            n = 2 * g
            total = sum(
                kw_multiplicity(lam, 0) * gl_dimension(lam, n)
                for lam in partitions_of(k, max_length=n)
            )
            assert total == necklace_count(n, k)


def test_cyclic_quotient_dimension_past_the_tableau_cap():
    # Shapes of size 15 and 16 are beyond what tableau enumeration allows.
    for k in (15, 16):
        n = 2 * (k + 2)
        total = sum(
            kw_multiplicity(lam, 0) * gl_dimension(lam, n)
            for lam in partitions_of(k, max_length=n)
        )
        assert total == necklace_count(n, k)


def test_kernel_module_dimension_bookkeeping():
    # dim h(k) = 2g witt(2g, k+1) - witt(2g, k+2): the bracket map from
    # H (x) FreeLie(k+1) onto FreeLie(k+2) is surjective.  Both the GL and
    # the Sp multiplicity tables must reproduce it.
    for k in range(1, 5):
        g = k + 2
        n = 2 * g
        expected = n * witt_rank(n, k + 1) - witt_rank(n, k + 2)
        gl_total = sum(
            mult_gl_in_h(lam, g) * gl_dimension(lam, n)
            for lam in partitions_of(k + 2, max_length=n)
        )
        sp_total = sum(
            mult * sp_dimension(mubar, g)
            for mubar, mult in sp_decomposition("h", k, g).items()
        )
        assert gl_total == expected
        assert sp_total == expected


def test_kernel_module_dimension_past_the_tableau_cap():
    # k + 2 = 15 and 16: the GL table of h(k) needs residues of shapes of
    # size k + 2, beyond what tableau enumeration allows.
    for k in (13, 14):
        g = k + 2
        n = 2 * g
        expected = n * witt_rank(n, k + 1) - witt_rank(n, k + 2)
        gl_total = sum(
            mult_gl_in_h(lam, g) * gl_dimension(lam, n)
            for lam in partitions_of(k + 2, max_length=n)
        )
        assert gl_total == expected
