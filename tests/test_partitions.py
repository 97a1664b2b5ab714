import itertools
import re
from fractions import Fraction

import pytest

from jcokernel.partitions import Partition, partitions_of, standard_tableaux, syt_count
from oracles import cells, gl_dimension, remove_node, sp_dimension


def major_index(rows) -> int:
    """Sum of the descents of a standard tableau, given as its tuple of rows:
    the entries i such that i+1 sits in a strictly lower row."""
    row_of = {v: r for r, row in enumerate(rows) for v in row}
    return sum(i for i in range(1, len(row_of)) if row_of[i + 1] > row_of[i])


def test_validation():
    assert Partition((3, 1)) == (3, 1)
    lam = Partition([3, 1])
    assert type(lam) is Partition and Partition(lam) is lam
    assert Partition(()) == ()
    assert Partition((2, 0, 0)) == (2,)
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))


@pytest.mark.parametrize(
    "parts, bad",
    [((2.5, 1), "2.5"), ((2, Fraction(1, 2)), "Fraction(1, 2)"), ("31", "'3'")],
)
def test_non_integral_parts_are_refused(parts, bad):
    with pytest.raises(ValueError, match=re.escape(f"parts must be integers: {bad}")):
        Partition(parts)


def test_conjugate_involution_up_to_size_12():
    for n in range(0, 13):
        for lam in partitions_of(n):
            conj = lam.conjugate()
            columns = [sum(1 for part in lam if part > c) for c in range(lam[0] if lam else 0)]
            assert type(conj) is Partition
            assert conj == Partition(columns)
            assert conj.conjugate() == lam


def test_conjugate_values():
    assert Partition((3, 1)).conjugate() == (2, 1, 1)
    assert Partition((2, 2)).conjugate() == (2, 2)
    assert Partition(()).conjugate() == ()


def test_containment_and_nodes():
    lam = Partition((3, 2))
    assert lam.contains((2, 2)) and not lam.contains((2, 2, 1))
    assert set(remove_node(lam)) == {Partition((2, 2)), Partition((3, 1))}


def test_hook_lengths_count_arm_and_leg():
    assert Partition((3, 1)).hook_lengths() == ((4, 2, 1), (1,))
    assert Partition(()).hook_lengths() == ()
    for n in range(1, 9):
        for lam in partitions_of(n):
            filled = set(cells(lam))
            expected = tuple(
                tuple(
                    1
                    + sum((r, c2) in filled for c2 in range(c + 1, n))
                    + sum((r2, c) in filled for r2 in range(r + 1, n))
                    for c in range(part)
                )
                for r, part in enumerate(lam)
            )
            assert lam.hook_lengths() == expected


def test_partition_count_matches_classical_values():
    # p(n) for n = 0..10
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert [len(partitions_of(n)) for n in range(11)] == expected


def test_partitions_of_refuses_a_negative_cap():
    with pytest.raises(ValueError, match="max_length must be nonnegative, got -1"):
        partitions_of(3, max_length=-1)
    assert partitions_of(3, max_length=0) == ()
    assert partitions_of(0, max_length=0) == (Partition(),)


def test_standard_tableaux_match_hook_formula():
    # Each tableau is a plain tuple of its rows, in depth-first order.
    assert list(standard_tableaux((2, 1))) == [((1, 2), (3,)), ((1, 3), (2,))]
    assert list(standard_tableaux(())) == [()]
    for n in range(1, 8):
        for lam in partitions_of(n):
            tableaux = list(standard_tableaux(lam))
            assert len(set(tableaux)) == len(tableaux) == syt_count(lam)
            for t in tableaux:
                assert type(t) is tuple and tuple(map(len, t)) == lam
                assert sorted(itertools.chain.from_iterable(t)) == list(range(1, n + 1))
                assert all(a < b for row in t for a, b in itertools.pairwise(row))
                assert all(u[c] < v[c] for u, v in itertools.pairwise(t) for c in range(len(v)))


def test_major_index_hook_shape():
    # Shape (m-1, 1): the unique free entry p sits in row 2, maj = p - 1.
    for m in range(3, 9):
        tableaux = list(standard_tableaux((m - 1, 1)))
        assert sorted(map(major_index, tableaux)) == list(range(1, m))


def test_major_index_row_and_column():
    for m in range(1, 9):
        (row,) = standard_tableaux((m,))
        assert major_index(row) == 0
        (col,) = standard_tableaux((1,) * m)
        assert major_index(col) == m * (m - 1) // 2


def test_gl_dimension_elementary_shapes():
    from math import comb

    for n in range(2, 7):
        for k in range(1, n + 1):
            assert gl_dimension((1,) * k, n) == comb(n, k)
            assert gl_dimension((k,), n) == comb(n + k - 1, k)
    assert gl_dimension((1, 1, 1), 2) == 0


def test_sp_dimension_small():
    for g in range(1, 6):
        assert sp_dimension((), g) == 1
        assert sp_dimension((1,), g) == 2 * g
    for g in range(2, 6):
        n = 2 * g
        # Natural rep squares: Sym^2 = [2], Lambda^2 = [1,1] + trivial.
        assert sp_dimension((2,), g) == n * (n + 1) // 2
        assert sp_dimension((1, 1), g) == n * (n - 1) // 2 - 1
