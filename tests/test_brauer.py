import copy
import hashlib
import io
import itertools
import pickle
import random
import re
from fractions import Fraction
from functools import cache

import pytest

from jcokernel.brauer import (
    BrauerDiagram,
    BrauerElement,
    _ram_class,
    _random_tensor as random_tensor,
    _relation_pairs,
    act_twisted,
    check_relations,
    compose_diagrams,
    ram_character,
)
from jcokernel.cli import main
from jcokernel.combinatorics import (
    _adjoint_exp,
    _doubled_partitions,
    brauer_dim,
    lr_coefficient,
    sk_character,
)
from jcokernel.partitions import CycleType, Partition, partitions_of, syt_count
from jcokernel.tensorspace import (
    PermAlgebraElement,
    SparseTensor,
    SymplecticSpace,
    act_perm,
    omega,
    _perm_sign,
)
from oracles import (
    _pair,
    act_twisted_diagram,
    all_diagrams,
    restriction_multiset,
    sp_maximal_vector,
    span_equality_check,
)


def random_element(rng, k, delta, nterms=3):
    diagrams = all_diagrams(k)
    terms = {}
    for _ in range(nterms):
        d = rng.choice(diagrams)
        terms[d] = terms.get(d, 0) + rng.randint(-3, 3)
    return BrauerElement(k, delta, terms)


# ------------------------------------------------------------------ oracles


@cache
def generator_words(k):
    """BFS expression of every diagram as a generator word and a loop exponent.

    The product of the word's generator diagrams equals delta^exponent times
    the diagram, independently of delta.
    """
    identity = BrauerDiagram.identity(k)
    generators = [("s", i, BrauerDiagram.s(k, i)) for i in range(1, k)] + [
        ("gamma", i, BrauerDiagram.gamma(k, i)) for i in range(1, k)
    ]
    table = {identity: ((), 0)}
    frontier = [identity]
    while frontier:
        next_frontier = []
        for diagram in frontier:
            word, exponent = table[diagram]
            for kind, i, gen in generators:
                product, loops = compose_diagrams(diagram, gen)
                if product not in table:
                    table[product] = (word + ((kind, i),), exponent + loops)
                    next_frontier.append(product)
        frontier = next_frontier
    assert len(table) == len(all_diagrams(k))
    return table


def act_generator(tensor, kind, i):
    """s_i acts as minus the adjacent swap; gamma_i pairs out slots i, i+1 and
    inserts minus omega in their place."""
    if kind == "s":
        return act_perm(tensor, PermAlgebraElement.transposition(tensor.degree, i) * -1)
    space = SymplecticSpace(tensor.n // 2)
    dual, sign = space.dual, space.sign
    inserted = omega(space.g)._terms.items()
    terms = {}
    for word, coeff in tensor._terms.items():
        r = word[i - 1]
        if word[i] == dual[r]:  # <e_r, e_s> = sign[r] iff s = r', else 0
            for pair, s in inserted:
                image = word[: i - 1] + pair + word[i + 1 :]
                terms[image] = terms.get(image, 0) - coeff * sign[r] * s
    return SparseTensor._raw(tensor._shape, {w: c for w, c in terms.items() if c})


def act_by_generator_words(tensor, diagram):
    word, exponent = generator_words(diagram.k)[diagram]
    for kind, i in word:
        tensor = act_generator(tensor, kind, i)
    return tensor * Fraction(1, (-tensor.n) ** exponent) if exponent else tensor


def compose_by_edge_ids(d1, d2):
    """Stack d1 over d2 and trace the stacked graph by edge ids.

    Vertices: 0..k-1 final top, k..2k-1 identified middle row, 2k..3k-1 final
    bottom.  Edges are tracked by id because two middle points can be joined
    by parallel edges (one from each diagram).
    """
    k = d1.k
    edges = list(d1.edges)  # d1 keeps its ids
    edges += [(a + k, b + k) for a, b in d2.edges]  # d2 shifts down one row
    incident = {v: [] for v in range(3 * k)}
    for idx, (a, b) in enumerate(edges):
        incident[a].append(idx)
        incident[b].append(idx)

    def other_end(idx, v):
        a, b = edges[idx]
        return b if v == a else a

    used = [False] * len(edges)
    traced = []
    for start in list(range(k)) + list(range(2 * k, 3 * k)):
        e = incident[start][0]
        if used[e]:
            continue  # already traced from the other endpoint
        v = start
        while True:
            used[e] = True
            v = other_end(e, v)
            if v < k or v >= 2 * k:
                break
            first, second = incident[v]
            e = second if e == first else first
        traced.append((start, v))
    loops = 0
    for start_edge in range(len(edges)):
        if used[start_edge]:
            continue
        loops += 1
        e = start_edge
        v = edges[e][0]
        while not used[e]:
            used[e] = True
            v = other_end(e, v)
            first, second = incident[v]
            e = second if e == first else first

    def relabel(v):
        return v if v < k else v - k

    return BrauerDiagram(k, [(relabel(a), relabel(b)) for a, b in traced]), loops


def cell_weights(lam, k):
    """{nu: weight} over nu of k containing lam', where the nonzero weight is
    the sum over even-row beta of LR^nu_{lam', beta}."""
    lam_conj = lam.conjugate()
    # Even-row partitions are the conjugates of the doubled ones.
    betas = [eta.conjugate() for eta in _doubled_partitions(k - lam.size)]
    out = {}
    for nu in partitions_of(k):
        if nu.contains(lam_conj):
            weight = sum(lr_coefficient(nu, lam_conj, beta) for beta in betas)
            if weight:
                out[nu] = weight
    return out


# ---------------------------------------------------------------- diagrams


def test_diagram_counts():
    assert [len(all_diagrams(k)) for k in (1, 2, 3, 4)] == [1, 3, 15, 105]


# sha256 of repr([tuple(d.edges) for d in all_diagrams(k)]) for k = 1..5.  The
# order fixes the order of BrauerElement.terms().
DIAGRAM_ORDER_DIGESTS = {
    1: "f5e5441ac66855177e23ba6802804d05ca4f3a9487456a8a77d2f1369f176ae5",
    2: "6370f0dac7637cdca9b413c7256d88ad3e104ee7d1fcb5d7ddbb6e70ae9fea7e",
    3: "bb57ab80334e55f4f43e73c497a7724a1bae23192ce31608ce55b33a29ecc5de",
    4: "1d47bbd5d82c814f8e4ba8035afd1de8170ce54706dfc0a3211ae86d93015904",
    5: "b5d2b4bcc64ed07f2ace8c4542652cbbc124d4b3f977b3144ba0d0fd2e1b7111",
}


def test_diagram_order_is_pinned():
    for k, digest in DIAGRAM_ORDER_DIGESTS.items():
        edges = repr([tuple(d.edges) for d in all_diagrams(k)])
        assert hashlib.sha256(edges.encode()).hexdigest() == digest, k


def test_diagram_is_its_sorted_edge_tuple():
    d = BrauerDiagram(3, [(5, 1), [2, 0], (4, 3)])
    assert (d.k, d.edges) == (3, ((0, 2), (1, 5), (3, 4)))
    assert type(d.edges) is tuple and d == d.edges and hash(d) == hash(d.edges)
    assert repr(d) == "BrauerDiagram(k=3, [(0, 2), (1, 5), (3, 4)])"
    assert BrauerDiagram(0, ()) == () and BrauerDiagram(0, ()).k == 0
    diagrams = all_diagrams(4)
    assert all(d.k == 4 and d.edges == tuple(d) for d in diagrams)
    shuffled = random.Random(5).sample(diagrams, len(diagrams))
    assert sorted(shuffled) == sorted(map(tuple, shuffled)) == list(diagrams)


def test_diagram_pickles_and_copies():
    for d in all_diagrams(3) + (BrauerDiagram(0, ()),):
        copies = [copy.copy(d), copy.deepcopy(d)]
        copies += [pickle.loads(pickle.dumps(d, protocol)) for protocol in range(6)]
        for c in copies:
            assert type(c) is BrauerDiagram and (c.k, c.edges) == (d.k, d.edges)


def test_diagram_constructors_refuse_malformed_input():
    with pytest.raises(ValueError, match="sigma must have length k = 2, got 3"):
        BrauerDiagram.from_permutation(2, (1, 0, 5))
    with pytest.raises(ValueError, match="sigma must have length k = 3, got 2"):
        BrauerDiagram.from_permutation(3, (1, 0))
    with pytest.raises(ValueError, match="k must be nonnegative, got k = -1"):
        BrauerDiagram(-1, ())
    with pytest.raises(ValueError, match="k must be nonnegative, got k = -1"):
        all_diagrams(-1)
    with pytest.raises(ValueError, match="perfectly match"):
        BrauerDiagram(2, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match=re.escape("points must be integers: 2.0")):
        BrauerDiagram(2, [(0, 2.0), (1, 3)])


def test_compose_examples():
    for k in (2, 3, 4):
        ident = BrauerDiagram.identity(k)
        assert compose_diagrams(ident, ident) == (ident, 0)
        for i in range(1, k):
            gm = BrauerDiagram.gamma(k, i)
            si = BrauerDiagram.s(k, i)
            assert compose_diagrams(gm, gm) == (gm, 1)
            assert compose_diagrams(si, si) == (ident, 0)


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        compose_diagrams(BrauerDiagram.identity(2), BrauerDiagram.identity(3))


def test_compose_matches_edge_id_tracing():
    for k in range(1, 5):
        diagrams = all_diagrams(k)
        for d1, d2 in itertools.product(diagrams, repeat=2):
            assert compose_diagrams(d1, d2) == compose_by_edge_ids(d1, d2), (d1, d2)
    rng = random.Random(71)
    # Samples at k = 5 and at k = 6, where a loop can pass all six middle points.
    for k, pairs in ((5, 20_000), (6, 5_000)):
        diagrams = all_diagrams(k)
        for _ in range(pairs):
            d1, d2 = rng.choice(diagrams), rng.choice(diagrams)
            assert compose_diagrams(d1, d2) == compose_by_edge_ids(d1, d2), (d1, d2)


def test_diagram_composition_associative():
    rng = random.Random(43)
    for k in (2, 3, 4, 5):
        diagrams = all_diagrams(k)
        delta = -6
        for _ in range(15):
            a, b, c = (BrauerElement.from_diagram(rng.choice(diagrams), delta) for _ in range(3))
            assert (a * b) * c == a * (b * c)


# --------------------------------------------------------------- relations


def test_defining_relation_examples():
    k, g = 3, 3
    delta = -2 * g
    gm1 = BrauerElement.from_diagram(BrauerDiagram.gamma(k, 1), delta)
    gm2 = BrauerElement.from_diagram(BrauerDiagram.gamma(k, 2), delta)
    s1 = BrauerElement.from_diagram(BrauerDiagram.s(k, 1), delta)
    s2 = BrauerElement.from_diagram(BrauerDiagram.s(k, 2), delta)
    assert gm1 * gm1 == gm1 * delta
    assert gm1 * gm2 * gm1 == gm1
    assert s1 * gm2 * gm1 == s2 * gm1


def test_braid_relation_diagrammatically():
    for k in (3, 4, 5):
        delta = -4
        for i in range(1, k - 1):
            si = BrauerElement.from_diagram(BrauerDiagram.s(k, i), delta)
            sj = BrauerElement.from_diagram(BrauerDiagram.s(k, i + 1), delta)
            assert si * sj * si == sj * si * sj


def test_check_relations():
    for k in range(2, 6):
        assert check_relations(k, k)
    # The direct action needs no table over all (2k-1)!! diagrams.
    for k in (6, 7, 8):
        assert check_relations(k, k + 2)


def test_check_relations_rejects_a_genus_below_one():
    for g in (0, -1):
        with pytest.raises(ValueError, match=f"g must be at least 1, got g = {g}"):
            check_relations(3, g)


def test_relation_products_are_built_once_per_parameter():
    assert _relation_pairs(4, -8) is _relation_pairs(4, -8)
    assert _relation_pairs(4, -8) is not _relation_pairs(4, -10)


# ------------------------------------------------------------------ action


def test_gamma_action_on_basis_word():
    g = 2
    t = SparseTensor.basis_word(2 * g, (1, 1))
    gm = BrauerElement.from_diagram(BrauerDiagram.gamma(2, 1), -2 * g)
    assert act_twisted(t, gm).is_zero()  # <e_1, e_1> = 0
    paired = SparseTensor.basis_word(2 * g, (1, 2 * g))
    image = act_twisted(paired, gm)
    assert image == -1 * omega(g)  # <e_1, e_1'> = 1, insert minus omega


def test_gamma_relation_as_operators():
    rng = random.Random(47)
    for k in (2, 3, 4):
        for g in (2, 3, 4):
            delta = -2 * g
            for i in range(1, k):
                gm = BrauerElement.from_diagram(BrauerDiagram.gamma(k, i), delta)
                for _ in range(3):
                    t = random_tensor(rng, k, 2 * g)
                    assert act_twisted(t, gm * gm) == delta * act_twisted(t, gm)


def test_twisted_action_is_right_action():
    rng = random.Random(53)
    for k in (2, 3, 4):
        g = 3
        delta = -2 * g
        for _ in range(5):
            t = random_tensor(rng, k, 2 * g)
            a = random_element(rng, k, delta)
            b = random_element(rng, k, delta)
            assert act_twisted(act_twisted(t, a), b) == act_twisted(t, a * b)


def test_twisted_permutations_are_sign_twist_of_ordinary():
    rng = random.Random(59)
    for k in (2, 3, 4, 5):
        g = 3
        t = random_tensor(rng, k, 2 * g)
        perms = (
            itertools.permutations(range(k))
            if k <= 4
            else itertools.islice(itertools.permutations(range(k)), 24)
        )
        for sigma in perms:
            twisted = act_twisted_diagram(t, BrauerDiagram.from_permutation(k, sigma))
            ordinary = act_perm(t, PermAlgebraElement(k, {tuple(sigma): 1}))
            assert twisted == _perm_sign(sigma) * ordinary


def test_action_commutes_with_sp_operators():
    from jcokernel.spweights import sp_raising_operators

    rng = random.Random(61)
    for k, g in ((2, 2), (3, 3), (4, 3)):
        delta = -2 * g
        for _ in range(3):
            t = random_tensor(rng, k, 2 * g)
            a = random_element(rng, k, delta)
            for op in sp_raising_operators(g):
                assert op.apply(act_twisted(t, a)) == act_twisted(op.apply(t), a)


def full_support_tensor(rng, k, n):
    letters = itertools.product(range(1, n + 1), repeat=k)
    return SparseTensor(k, n, {word: rng.choice((-3, -2, -1, 1, 2, 3)) for word in letters})


def test_action_matches_generator_words_on_every_small_diagram():
    for k in range(1, 6):
        for g in (1, 2):
            t = full_support_tensor(random.Random(100 * k + g), k, 2 * g)
            for d in all_diagrams(k):
                assert act_twisted_diagram(t, d) == act_by_generator_words(t, d), d


def test_action_matches_generator_words_on_a_sample_at_degree_six():
    rng = random.Random(67)
    diagrams = all_diagrams(6)
    for _ in range(60):
        t = random_tensor(rng, 6, 2 * rng.randint(1, 3), nterms=8)
        d = rng.choice(diagrams)
        assert act_twisted_diagram(t, d) == act_by_generator_words(t, d), d


def test_cups_and_caps_need_an_even_alphabet():
    t = SparseTensor(3, 3, {(1, 3, 2): 1, (2, 2, 1): -2})
    for d in (BrauerDiagram.gamma(3, 1), BrauerDiagram(3, [(0, 1), (2, 3), (4, 5)])):
        with pytest.raises(ValueError, match="got n=3"):
            act_twisted_diagram(t, d)
    with pytest.raises(ValueError, match="got n=3"):
        act_twisted_diagram(SparseTensor.zero(3, 3), BrauerDiagram.gamma(3, 2))
    # Permutations act on any alphabet.
    for sigma in itertools.permutations(range(3)):
        twisted = act_twisted_diagram(t, BrauerDiagram.from_permutation(3, sigma))
        assert twisted == _perm_sign(sigma) * act_perm(t, PermAlgebraElement(3, {sigma: 1}))


def test_parameter_mismatch_rejected():
    t = SparseTensor.basis_word(4, (1, 2))
    with pytest.raises(ValueError):
        act_twisted(t, BrauerElement.identity(2, -6))


# -------------------------------------------------------------- characters


def test_ram_character_at_identity_is_dimension():
    for k in range(2, 7):
        g = k + 2
        identity = CycleType((1,) * k)
        for j in range(0, k // 2 + 1):
            for lam in partitions_of(k - 2 * j):
                assert ram_character(lam, identity, g) == brauer_dim(lam, k, g)


def test_ram_character_top_layer_reduces_to_symmetric_group():
    # j = 0: the only even beta is empty, so the formula collapses to the
    # single term with nu = lam'.
    for k in range(2, 6):
        for lam in partitions_of(k):
            for cls in partitions_of(k):
                assert ram_character(lam, cls, k + 2) == sk_character(
                    lam.conjugate(), cls
                )


def test_ram_character_matches_lr_cell_weights():
    # The Littlewood-Richardson form: sum over nu of (sum over even-row beta of
    # LR^nu_{lam', beta}) chi^nu(cls).
    for k in range(0, 10):
        for j in range(0, k // 2 + 1):
            for lam in partitions_of(k - 2 * j):
                weights = cell_weights(lam, k)
                for cls in partitions_of(k):
                    expected = sum(w * sk_character(nu, cls) for nu, w in weights.items())
                    assert ram_character(lam, cls, k + 2) == expected


def test_ram_character_matches_conjugate_pairing():
    # The untwisted series, paired with lam' as in Ram's formula.
    for k in range(0, 11):
        for cls in partitions_of(k):
            series = _adjoint_exp({tuple(cls): 1}, 1)
            for j in range(0, k // 2 + 1):
                for lam in partitions_of(k - 2 * j):
                    terms = series.get(lam.size)
                    expected = _pair(lam.conjugate(), terms) if terms else 0
                    assert ram_character(lam, cls, k) == expected, (lam, cls)


def test_ram_series_is_computed_once_per_cycle_type():
    _ram_class.cache_clear()
    main(["brauer-char", "--k", "9", "--g", "11"], out=io.StringIO())
    assert _ram_class.cache_info().misses == len(partitions_of(9)) == 30
    hits = _ram_class.cache_info().hits
    main(["brauer-char", "--k", "9", "--g", "12"], out=io.StringIO())
    # A second genus reads every cell of its 56 rows from the tables.
    assert _ram_class.cache_info().misses == 30
    assert _ram_class.cache_info().hits == hits + 56 * 30
    # Each table holds the value of every row, zeros included: 56 shapes.
    tables = [_ram_class(cls)[1] for cls in partitions_of(9)]
    assert {len(table) for table in tables} == {56}
    assert any(0 in table.values() for table in tables)


def test_ram_memo_does_not_depend_on_table_order():
    def table(g):
        out = io.StringIO()
        main(["brauer-char", "--k", "9", "--g", str(g)], out=out)
        return out.getvalue()

    _ram_class.cache_clear()
    fresh = table(14)
    _ram_class.cache_clear()
    small = table(3)
    # A g=3 table pairs only its own rows, the shapes of length <= 3.
    assert {len(_ram_class(cls)[1]) for cls in partitions_of(9)} == {small.count("\n") - 1}
    assert table(14) == fresh


def test_ram_character_checks_its_arguments():
    # A table lookup skips neither the length check nor the size check.
    assert ram_character((1, 1, 1), (1, 1, 1), 3) == 1
    with pytest.raises(ValueError, match="length of lambda exceeds g=2"):
        ram_character((1, 1, 1), (1, 1, 1), 2)
    assert ram_character((2,), (1, 1), 4) == 1
    for lam in ((1,), (3,)):
        with pytest.raises(ValueError, match=re.escape("|lam| must equal k - 2j")):
            ram_character(lam, (1, 1), 4)
    # A wrong size is refused before the class's table is filled.
    _ram_class.cache_clear()
    with pytest.raises(ValueError, match=re.escape("|lam| must equal k - 2j")):
        ram_character((1,), (1,) * 24, 30)
    assert _ram_class(CycleType((1,) * 24))[1] == {}


def test_ram_character_of_invariant_pair():
    # D^empty for k=2 is spanned by omega; the twisted swap fixes omega, the
    # ordinary one negates it.
    g = 2
    swap = BrauerElement.from_diagram(BrauerDiagram.s(2, 1), -2 * g)
    om = omega(g)
    assert act_twisted(om, swap) == om
    assert act_perm(om, PermAlgebraElement.transposition(2, 1)) == -1 * om
    assert ram_character(Partition(()), CycleType((2,)), g) == 1
    assert ram_character(Partition(()), CycleType((1, 1)), g) == 1


def test_restriction_multiset():
    # Ordinary action sees the conjugate labels; on omega it is the sign rep.
    assert restriction_multiset(Partition(()), 2) == {Partition((1, 1)): 1}
    for k in range(2, 6):
        for j in range(0, k // 2 + 1):
            for lam in partitions_of(k - 2 * j):
                table = restriction_multiset(lam, k)
                total = sum(mult * syt_count(nu) for nu, mult in table.items())
                assert total == brauer_dim(lam, k, k + 2)


def test_restriction_multiset_matches_lr_cell_weights():
    for k in range(0, 10):
        for j in range(0, k // 2 + 1):
            for lam in partitions_of(k - 2 * j):
                expected = sorted(
                    ((nu.conjugate(), w) for nu, w in cell_weights(lam, k).items()), reverse=True
                )
                assert list(restriction_multiset(lam, k).items()) == expected, (lam, k)


def test_restriction_multiset_checks_its_arguments():
    for lam in ((1,), (3,), (1, 1, 1, 1)):
        with pytest.raises(ValueError, match=re.escape("|lam| must equal k - 2j")):
            restriction_multiset(lam, 2)


def test_wedge_restriction_is_single_label():
    table = restriction_multiset(Partition((1, 1, 1)), 3)
    assert table == {Partition((1, 1, 1)): 1}


# ------------------------------------------------------------ span checks


def test_span_equality_small_cases():
    assert span_equality_check(Partition((1, 1)), 0, 2, 4)
    assert span_equality_check(Partition(()), 1, 2, 4)
    assert span_equality_check(Partition((1,)), 1, 3, 5)


# ----------------------------------------- brute-force restriction oracle


def _echelon_basis(vectors):
    basis = []
    for vec in vectors:
        row = {w: Fraction(c) for w, c in vec._terms.items()}
        for pivot, bvec in basis:
            c = row.get(pivot)
            if c:
                for w, v in bvec.items():
                    new = row.get(w, Fraction(0)) - c * v
                    if new:
                        row[w] = new
                    else:
                        row.pop(w, None)
        if row:
            pivot = min(row)
            inv = Fraction(1) / row[pivot]
            basis.append((pivot, {w: v * inv for w, v in row.items()}))
    return basis


def _coordinates(vector, basis):
    row = {w: Fraction(c) for w, c in vector._terms.items()}
    coords = []
    for pivot, bvec in basis:
        c = row.get(pivot, Fraction(0))
        coords.append(c)
        if c:
            for w, v in bvec.items():
                new = row.get(w, Fraction(0)) - c * v
                if new:
                    row[w] = new
                else:
                    row.pop(w, None)
    assert not row, "vector not in span"
    return coords


def _class_representative(cls, k):
    sigma = []
    start = 0
    for part in cls:
        sigma += [start + (i + 1) % part for i in range(part)]
        start += part
    assert len(sigma) == k
    return tuple(sigma)


def test_restriction_multiset_against_brute_force_traces():
    # Trace the ordinary place-permutation action on the span of the diagram
    # translates of the maximal vector and compare with the predicted
    # character, class by class.
    cases = [
        (Partition(()), 1, 2),
        (Partition((2,)), 0, 2),
        (Partition((1, 1)), 0, 2),
        (Partition((1,)), 1, 3),
        (Partition((3,)), 0, 3),
        (Partition((2, 1)), 0, 3),
        (Partition((1, 1, 1)), 0, 3),
    ]
    for lam, j, k in cases:
        g = k + 2
        v = sp_maximal_vector(lam, j, g)
        translates = [act_twisted_diagram(v, d) for d in all_diagrams(k)]
        basis = _echelon_basis(translates)
        basis_vectors = [
            SparseTensor(k, 2 * g, dict(bvec)) for _, bvec in basis
        ]
        table = restriction_multiset(lam, k)
        assert len(basis) == sum(m * syt_count(nu) for nu, m in table.items())
        for cls in partitions_of(k):
            rep = _class_representative(cls, k)
            element = PermAlgebraElement(k, {rep: 1})
            trace = Fraction(0)
            for idx, bvec in enumerate(basis_vectors):
                image = act_perm(bvec, element)
                trace += _coordinates(image, basis)[idx]
            predicted = sum(
                m * sk_character(nu, cls) for nu, m in table.items()
            )
            assert trace == predicted, (lam, j, k, cls)
