import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

from exactcomb import acceptance, core, posets
from exactcomb.core import (
    BareissDivisionError,
    IntMatrix,
    Permutation,
    int_matrix_rank,
    random_unit_upper_triangular,
)
from exactcomb.report import Report
from exactcomb.posets import (
    CyclicCoversError,
    Lattice,
    LinearExtension,
    ModularityCheckError,
    NotALatticeError,
    NotDistributiveError,
    Poset,
    PosetError,
    bruhat_permutation,
    build_lattice,
    cartan_matrix,
    diamond,
    echelonmotion,
    extension_orders,
    is_distributive,
    is_linear_extension,
    is_modular,
    lattice_catalog,
    linear_extensions,
    modular_witness,
    pentagon,
    poset_from_json_obj,
    poset_product,
    poset_to_json_obj,
    rowmotion_distributive,
    subspace_lattice_gf2_dim3,
    verify_dilworth,
    verify_echelon_theorem,
)
from test_core import _first_nonzero_rank

B2_COVERS = [(0, 1), (0, 2), (1, 3), (2, 3)]


def b2():
    return Poset.from_cover_pairs(4, B2_COVERS)


def leq(p, x, y):
    return bool(p.up[x] >> y & 1)


def antichain(n):
    return Poset.from_cover_pairs(n, [])


def _closed(masks, s):
    """Whether the set s holds masks[x] for every x in s."""
    return all(not masks[x] & ~s for x in range(len(masks)) if s >> x & 1)


def enumerate_posets_up_to(max_n):
    """Every labelled poset on 1 .. max_n elements, each exactly once: the
    labelled oracle of ``posets.poset_classes``.

    Depth first, each poset and then its one-point extensions: a new
    element k below an up-set U and above a down-set D, with every element
    of U above every element of D, found by a filter over all (D, U) mask
    pairs in ascending order.
    """
    if max_n < 1:
        return

    def rec(up, down):
        yield Poset._from_masks(up, down)
        k = len(up)
        if k == max_n:
            return
        bit = 1 << k
        for d in range(bit):
            if not _closed(down, d):
                continue
            for u in range(bit):
                if (_closed(up, u) and not u & d
                        and all(not u & ~up[x] for x in range(k) if d >> x & 1)):
                    yield from rec(
                        tuple([m | bit if d >> x & 1 else m for x, m in enumerate(up)])
                        + (bit | u,),
                        tuple([m | bit if u >> x & 1 else m for x, m in enumerate(down)])
                        + (bit | d,))

    yield from rec((1,), (1,))


@cache
def bounded_labelled_posets(max_n):
    """Every bounded labelled poset on 1 .. max_n elements, each exactly
    once: the single point, and a bottom and a top placed around each
    labelled poset on up to max_n - 2 elements, under every choice of their
    two labels."""
    found = [Poset(1, (1,))] if max_n >= 1 else []
    inner = [Poset(0, ())] * (max_n >= 2) + list(enumerate_posets_up_to(max_n - 2))
    for q in inner:
        n = q.n + 2
        full = (1 << n) - 1
        for bottom, top in itertools.permutations(range(n), 2):
            names = [x for x in range(n) if x not in (bottom, top)]
            up = [0] * n
            up[bottom], up[top] = full, 1 << top
            for x, name in enumerate(names):
                up[name] = sum(1 << names[y] for y in range(q.n) if q.up[x] >> y & 1) | 1 << top
            found.append(Poset(n, up))
    return tuple(found)


@cache
def labelled_lattices(max_n):
    """The modular and the distributive lattices among the bounded labelled
    posets on 1 .. max_n elements, each built on its own: the labelled
    oracle of the sweep, which decides each isomorphism class once."""
    modular, distributive = [], []
    for p in bounded_labelled_posets(max_n):
        try:
            lat = build_lattice(p)
        except NotALatticeError:
            continue
        if is_modular(lat):
            modular.append(lat)
            if is_distributive(lat):
                distributive.append(lat)
    return modular, distributive


def code_of(p):
    return posets.canonical_form(p)[0]


def test_from_cover_pairs_closure():
    p = b2()
    assert leq(p, 0, 3)  # transitive closure, not just covers
    assert not leq(p, 1, 2)
    assert sorted(p.cover_pairs()) == sorted(B2_COVERS)


def test_cyclic_covers_rejected():
    with pytest.raises(CyclicCoversError):
        Poset.from_cover_pairs(2, [(0, 1), (1, 0)])
    with pytest.raises(CyclicCoversError):
        Poset.from_cover_pairs(3, [(0, 1), (1, 2), (2, 0)])


def test_generated_posets_are_transitively_closed():
    # leq must be a fixed point of one more closure step
    for p in enumerate_posets_up_to(4):
        for x in range(p.n):
            for y in range(p.n):
                for z in range(p.n):
                    if leq(p, x, y) and leq(p, y, z):
                        assert leq(p, x, z)


def test_enumeration_counts():
    sizes = Counter(p.n for p in enumerate_posets_up_to(5))
    assert sizes == {1: 1, 2: 3, 3: 19, 4: 219, 5: 4231}
    assert list(enumerate_posets_up_to(0)) == []


def _count_extensions(p):
    return sum(1 for _ in extension_orders(p))


def test_linear_extension_counts():
    assert _count_extensions(Poset.chain(5)) == 1
    assert _count_extensions(antichain(2)) == 2
    assert _count_extensions(b2()) == 2
    assert _count_extensions(antichain(4)) == 24


def test_linear_extensions_are_valid_and_lex_ordered():
    p = b2()
    exts = list(linear_extensions(p))
    assert [e.order for e in exts] == sorted(e.order for e in exts)
    for e in exts:
        assert is_linear_extension(p, e)
    assert not is_linear_extension(p, LinearExtension((3, 1, 2, 0)))


def test_cartan_matrix_examples():
    single = Poset.chain(1)
    assert cartan_matrix(single, LinearExtension((0,))).entries == ((1,),)
    two = Poset.chain(2)
    assert cartan_matrix(two, LinearExtension((0, 1))).entries == ((1, 0), (1, 1))
    anti = antichain(2)
    for ext in linear_extensions(anti):
        assert cartan_matrix(anti, ext).entries == ((1, 0), (0, 1))
    with pytest.raises(Exception):
        cartan_matrix(two, LinearExtension((1, 0)))


def test_bruhat_identity_and_two_chain():
    assert bruhat_permutation(Permutation((1, 2, 3, 4)).to_matrix()) == Permutation((1, 2, 3, 4))
    assert bruhat_permutation(IntMatrix([[1, 0], [1, 1]])) == Permutation((2, 1))


def test_bruhat_on_permutation_matrices():
    for n in range(1, 6):
        for vals in itertools.permutations(range(1, n + 1)):
            w = Permutation(vals)
            assert bruhat_permutation(w.to_matrix()) == w


def test_bruhat_double_coset_invariance():
    rng = random.Random(42)
    for name, lat in lattice_catalog().items():
        ext = next(linear_extensions(lat.poset))
        w = cartan_matrix(lat.poset, ext)
        base = bruhat_permutation(w)
        for _ in range(10):
            u1 = random_unit_upper_triangular(lat.n, rng)
            u2 = random_unit_upper_triangular(lat.n, rng)
            assert bruhat_permutation(u1 @ w @ u2) == base, name


def bruhat_rank_profile(m):
    """Table r with r[i-1][j-1] = rank of the submatrix on rows i..n, cols 1..j,
    counted from the pivot positions of Bareiss pivoting."""
    n = m.rows
    cols = posets._bruhat_pivot_cols([list(r) for r in m.entries])
    return tuple(
        tuple(sum(1 for r, c in enumerate(cols) if r + 1 >= i and c + 1 <= j)
              for j in range(1, n + 1))
        for i in range(1, n + 1))


def test_bruhat_rank_profile_matches_literal_submatrices(monkeypatch):
    # the literal ranks come from the first-nonzero Bareiss oracle of the
    # rank tests, which shares no code with the row step of core.  Every
    # pivot of u1 @ P @ u2 is a lower-left minor, so ±1; the nonsingular
    # matrices with entries in [-3, 3] also reach larger previous pivots.
    rng = random.Random(9)
    cases = []
    for _ in range(40):
        n = rng.randrange(1, 9)
        u1 = random_unit_upper_triangular(n, rng)
        u2 = random_unit_upper_triangular(n, rng)
        w = Permutation(rng.sample(range(1, n + 1), n))
        cases.append((w, u1 @ w.to_matrix() @ u2))
    while len(cases) < 80:
        n = rng.randrange(1, 7)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if _first_nonzero_rank(rows) == n:
            cases.append((None, IntMatrix(rows)))
    seen = set()

    def spy_map(fn, *iterables):
        seen.add(fn.__name__)
        return map(fn, *iterables)

    def spy_divmod(a, b):
        seen.add("divmod")
        return divmod(a, b)

    monkeypatch.setattr(core, "map", spy_map, raising=False)
    monkeypatch.setattr(core, "divmod", spy_divmod, raising=False)
    profiles = [bruhat_rank_profile(m) for _, m in cases]
    monkeypatch.undo()
    # the whole-row path after a pivot of ±1 and the checked division after
    # any other pivot are both reached
    assert {"mul", "sub", "add", "divmod"} <= seen
    for (w, m), profile in zip(cases, profiles):
        if w is not None:  # unit triangular factors keep the profile of w
            assert profile == bruhat_rank_profile(w.to_matrix())
        for i in range(1, m.rows + 1):
            for j in range(1, m.rows + 1):
                sub = [row[:j] for row in m.entries[i - 1:]]
                assert profile[i - 1][j - 1] == _first_nonzero_rank(sub)


def test_bruhat_rejects_singular():
    with pytest.raises(Exception):
        bruhat_permutation(IntMatrix([[1, 1], [1, 1]]))


# -- lattices -----------------------------------------------------------------


def test_build_lattice_examples():
    lat = build_lattice(b2())
    assert lat.meet_table[1][2] == 0 and lat.join_table[1][2] == 3
    assert lat.meet_table[0][3] == 0 and lat.join_table[0][3] == 3
    with pytest.raises(NotALatticeError, match="no least upper bound"):
        build_lattice(antichain(2))
    with pytest.raises(NotALatticeError, match="no greatest lower bound"):
        build_lattice(Poset.from_cover_pairs(3, [(0, 2), (1, 2)]))



def _tables_by_definition(p):
    """(meet, join) tables of p from the definition of least upper and
    greatest lower bounds, or the message of build_lattice at the first
    pair that lacks one."""
    n = p.n
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1):
            uppers = [z for z in range(n) if leq(p, a, z) and leq(p, b, z)]
            least = [z for z in uppers if all(leq(p, z, w) for w in uppers)]
            if not least:
                return f"elements {b} and {a} have no least upper bound"
            lowers = [z for z in range(n) if leq(p, z, a) and leq(p, z, b)]
            greatest = [z for z in lowers if all(leq(p, w, z) for w in lowers)]
            if not greatest:
                return f"elements {b} and {a} have no greatest lower bound"
            join[a][b] = join[b][a] = least[0]
            meet[a][b] = meet[b][a] = greatest[0]
    return tuple(map(tuple, meet)), tuple(map(tuple, join))


def test_lattice_tables_match_the_definition_on_every_small_poset():
    lattices = 0
    for p in enumerate_posets_up_to(5):
        expected = _tables_by_definition(p)
        try:
            lat = build_lattice(p)
        except NotALatticeError as exc:
            assert str(exc) == expected, p
            continue
        assert (lat.meet_table, lat.join_table) == expected, p
        lattices += 1
    # the labelled lattices: chains, then B2 on 4 elements, then M3, N5 and
    # B2 with a new top or bottom on 5
    assert lattices == 1 + 2 + 6 + (24 + 12) + (120 + 20 + 120 + 60 + 60)

def test_meet_join_algebra():
    for name, lat in lattice_catalog().items():
        n = lat.n
        meet, join = lat.meet_table, lat.join_table
        for a in range(n):
            assert meet[a][a] == a and join[a][a] == a
            for b in range(n):
                assert meet[a][b] == meet[b][a]
                assert join[a][b] == join[b][a]
                assert meet[a][join[a][b]] == a  # absorption
        for a, b, c in itertools.product(range(n), repeat=3):
            assert meet[meet[a][b]][c] == meet[a][meet[b][c]]
            assert join[join[a][b]][c] == join[a][join[b][c]]


def test_modularity_classifier():
    assert is_modular(diamond(3))
    assert is_modular(diamond(4))
    assert not is_modular(pentagon())
    w = modular_witness(pentagon())
    assert w is not None
    a, b, x = w
    lat = pentagon()
    assert leq(lat.poset, a, b)
    meet, join = lat.meet_table, lat.join_table
    assert join[a][meet[x][b]] != meet[join[a][x]][b]
    chain = build_lattice(Poset.chain(5))
    assert is_modular(chain)
    assert is_distributive(chain)
    assert not is_distributive(diamond(3))
    assert is_distributive(build_lattice(b2()))
    gf2 = subspace_lattice_gf2_dim3()
    assert gf2.n == 16
    assert is_modular(gf2) and not is_distributive(gf2)


def _m3_witness(lat):
    """Three pairwise incomparable elements with one meet and one join, the
    atoms of a diamond M3 sublattice, if lat has any (the oracle of
    ``is_distributive``: a lattice is distributive exactly when it is
    modular and has no M3 sublattice)."""
    p, meet, join = lat.poset, lat.meet_table, lat.join_table
    n = p.n

    def apart(x, y):
        return not leq(p, x, y) and not leq(p, y, x)

    for x, y, z in itertools.combinations(range(n), 3):
        if (apart(x, y) and apart(x, z) and apart(y, z)
                and meet[x][y] == meet[x][z] == meet[y][z]
                and join[x][y] == join[x][z] == join[y][z]):
            return x, y, z
    return None


def _distributive_by_m3(lat):
    return is_modular(lat) and _m3_witness(lat) is None


def test_distributivity_matches_the_m3_oracle_on_every_small_lattice():
    seen = distributive = 0
    for p in bounded_labelled_posets(6):
        try:
            lat = build_lattice(p)
        except NotALatticeError:
            continue
        seen += 1
        expected = _distributive_by_m3(lat)
        assert is_distributive(lat) == expected, p
        distributive += expected
    assert seen == 6815 and 0 < distributive < seen


def test_distributivity_matches_the_m3_oracle_on_named_lattices():
    named = [*lattice_catalog().items(), *((f"M{k}", diamond(k)) for k in range(3, 9)),
             ("GF(2)^3", subspace_lattice_gf2_dim3())]
    for name, lat in named:
        assert is_distributive(lat) == _distributive_by_m3(lat), name
    assert _m3_witness(diamond(3)) == (1, 2, 3)


def test_distributivity_refuses_two_elements_over_the_same_irreducibles():
    # On a lattice x is the join of the irreducibles below it, so no two
    # elements share them; only a Lattice that build_lattice refused can
    # reach the injectivity check.  In the bounded bowtie, 3 and 4 both lie
    # above exactly the atoms 1 and 2, and the sets of the atoms are all
    # four down-sets, so without the check it would pass as distributive.
    p = Poset.from_cover_pairs(6, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4),
                                   (3, 5), (4, 5)])
    with pytest.raises(NotALatticeError):
        build_lattice(p)
    bowtie = posets.Lattice(p, None, None)
    assert not is_distributive(bowtie)
    with pytest.raises(NotDistributiveError,
                       match="elements 3 and 4 lie above the same irreducibles"):
        rowmotion_distributive(bowtie)


def test_distributivity_needs_neither_modularity_nor_rowmotion(monkeypatch):
    def refused(lat):
        raise AssertionError("is_distributive must decide on its own")

    monkeypatch.setattr(posets, "modular_witness", refused)
    monkeypatch.setattr(posets, "rowmotion_distributive", refused)
    assert is_distributive(build_lattice(b2())) and not is_distributive(diamond(3))


def test_cover_counts():
    def counts(p):
        return [(d.bit_count(), u.bit_count()) for d, u in zip(p.covers_down(), p.covers_up())]

    assert counts(diamond(3).poset) == [(0, 3), (1, 1), (1, 1), (1, 1), (3, 0)]
    assert counts(Poset.chain(3)) == [(0, 1), (1, 1), (1, 0)]


def test_echelonmotion_small():
    single = build_lattice(Poset.chain(1))
    em = echelonmotion(single, LinearExtension((0,)))
    assert em.mapping == (0,)
    two = build_lattice(Poset.chain(2))
    em = echelonmotion(two, LinearExtension((0, 1)))
    assert em.mapping == (1, 0)  # bottom and top swap
    assert em.permutation() == Permutation((2, 1))


def test_echelonmotion_is_bijection_everywhere():
    for name, lat in lattice_catalog().items():
        for ext in itertools.islice(linear_extensions(lat.poset), 30):
            em = echelonmotion(lat, ext)
            assert sorted(em.mapping) == list(range(lat.n)), name


def test_rowmotion_chain_is_cyclic_shift():
    for n in range(1, 6):
        lat = build_lattice(Poset.chain(n))
        rm = rowmotion_distributive(lat)
        # bottom jumps to top, everything else steps down
        assert rm[0] == n - 1
        for x in range(1, n):
            assert rm[x] == x - 1


def test_rowmotion_matches_echelonmotion_on_b2():
    lat = build_lattice(b2())
    rm = rowmotion_distributive(lat)
    for ext in linear_extensions(lat.poset):
        assert echelonmotion(lat, ext).mapping == rm


def test_rowmotion_rejects_nondistributive():
    # each element of these lattices has its own set of irreducibles below
    # it, so they fail on a down-set of irreducibles that no element has:
    # two atoms whose join lies above a third irreducible.  The irreducibles
    # of diamond(40) have 2^40 down-sets, and the check stops at the first
    for lat, down in ((diamond(3), [1, 2]), (diamond(4), [1, 2]), (pentagon(), [1, 3]),
                      (subspace_lattice_gf2_dim3(), [1, 2]), (diamond(40), [1, 2])):
        with pytest.raises(NotDistributiveError, match=re.escape(
                f"no element lies above exactly the irreducibles {down}")):
            rowmotion_distributive(lat)


def test_verify_echelon_theorem_reports():
    r = verify_echelon_theorem(diamond(3))
    assert r.status == "verified"
    assert r.instances == 6  # 3! extensions of M3
    r = verify_echelon_theorem(pentagon())
    assert r.status == "skipped"
    assert "law_failure" in r.witness
    r = verify_echelon_theorem(build_lattice(Poset.chain(2)))
    assert r.status == "verified" and r.instances == 1


def test_verify_dilworth_reports():
    r = verify_dilworth(diamond(3))
    assert r.status == "verified"
    assert r.witness["down_multiset"] == [0, 1, 1, 1, 3]
    assert r.witness["up_multiset"] == [0, 1, 1, 1, 3]
    r = verify_dilworth(build_lattice(b2()))
    assert r.witness["down_multiset"] == [0, 1, 1, 2]
    assert verify_dilworth(pentagon()).status == "skipped"


def is_echelon_independent(p):
    """Whether every linear extension of p induces the same echelon map."""
    return len({echelonmotion(p, ext).mapping for ext in linear_extensions(p)}) == 1


def test_echelon_independence():
    assert is_echelon_independent(b2())
    assert is_echelon_independent(Poset.chain(6))
    # a modular non-distributive lattice depends on the extension
    assert not is_echelon_independent(diamond(3).poset)


def test_poset_product():
    p = poset_product(Poset.chain(2), Poset.chain(3))
    assert p.n == 6
    assert _count_extensions(p) == 5  # standard tableaux of a 2x3 rectangle
    assert is_distributive(build_lattice(p))


def test_catalog_membership_and_sizes():
    cat = lattice_catalog()
    assert cat["M3"].n == 5
    assert cat["M4"].n == 6
    assert cat["N5"].n == 5
    assert cat["GF2_dim3_subspaces"].n == 16
    assert {name for name in cat if name.startswith("C")} == {
        "C2xC2", "C2xC3", "C2xC4", "C3xC3", "C2xC5", "C2xC6", "C3xC4"}
    for name, lat in cat.items():
        if name.startswith("C"):
            a, b = int(name[1]), int(name[4])
            assert lat.n == a * b <= 12


def test_json_round_trip():
    p = b2()
    obj = poset_to_json_obj(p)
    assert obj == {"n": 4, "covers": sorted(B2_COVERS)} or obj["n"] == 4
    q = poset_from_json_obj(json.loads(json.dumps(obj)))
    assert q == p
    with pytest.raises(Exception):
        poset_from_json_obj({"n": 2})
    with pytest.raises(Exception):
        poset_from_json_obj({"n": 2, "covers": [[0, 1], [1, 0]]})


def test_json_rejects_booleans():
    with pytest.raises(PosetError):
        poset_from_json_obj({"n": True, "covers": []})
    with pytest.raises(PosetError):
        poset_from_json_obj({"n": 2, "covers": [[0, True]]})
    with pytest.raises(PosetError):
        poset_from_json_obj({"n": 2, "covers": [[False, 1]]})


# -- the recursive extension oracle, independent of the search it checks -------


def _recursive_extension_orders(p, cap=None):
    """Every linear extension of p by recursion, in lexicographic order."""
    n = p.n
    down = p.down
    order = []

    def rec(placed):
        if len(order) == n:
            yield tuple(order)
            return
        for x in range(n):
            b = 1 << x
            if placed & b or down[x] & ~(placed | b):
                continue
            order.append(x)
            yield from rec(placed | b)
            order.pop()

    return list(itertools.islice(rec(0), cap))


# -- the echelon walk's pivots, from its rank memo, against Bareiss pivoting ---


def _bareiss_pivots(p, order):
    return posets._bruhat_pivot_cols(posets._cartan_rows(p.down, order))


def _anything(p):
    return [(1 << p.n) - 1] * p.n


def _walk(p, allowed, cap=None):
    """(order, pivots) of every extension the walk steps to its end, and
    what it returns: the extensions that pass and the first that fails."""
    walk = posets._echelon_walk(p, allowed, cap)
    leaves = []
    while True:
        try:
            order, cols = next(walk)
        except StopIteration as end:
            return leaves, end.value
        leaves.append((tuple(order), list(cols)))


def _walk_leaves(p, cap=None):
    """(order, pivots) of every extension the walk steps when nothing fails.
    The walk must pass every extension up to the cap, stepped or merged, and
    step a subsequence of them in lexicographic order, the first included."""
    leaves, verdict = _walk(p, _anything(p), cap)
    everything = _recursive_extension_orders(p, cap)
    assert verdict == (len(everything), None), p
    orders = [order for order, _ in leaves]
    assert orders == sorted(set(orders)) and set(orders) <= set(everything), p
    assert orders[:1] == everything[:1], p
    return leaves


def _assert_walk_matches_bareiss(p, cap=None):
    leaves = _walk_leaves(p, cap)
    for order, cols in leaves:
        assert cols == _bareiss_pivots(p, order), (p, order)
    return len(leaves)


def test_memo_pivots_match_bareiss_on_sweep_lattices():
    # up to five elements the walk steps only the first extension of each
    # modular lattice and merges the others into it; of the 9 177 extensions
    # of the 3 095 labelled modular lattices on up to six it steps 3 815
    for max_n, lattices, stepped in ((5, 305, 305), (6, 3095, 3815)):
        modular, _ = labelled_lattices(max_n)
        assert len(modular) == lattices
        assert sum(_assert_walk_matches_bareiss(lat.poset) for lat in modular) == stepped


def test_memo_pivots_match_bareiss_on_catalog():
    for name, lat in lattice_catalog().items():
        cap = 2000 if name == "GF2_dim3_subspaces" else None
        assert _assert_walk_matches_bareiss(lat.poset, cap=cap) > 0, name


def test_memo_pivots_on_posets_that_are_not_lattices():
    for p in enumerate_posets_up_to(4):
        _assert_walk_matches_bareiss(p)


def test_walk_leaves_follow_extension_orders_under_caps():
    p = diamond(3).poset
    assert len(_recursive_extension_orders(p)) == 6
    # the orders of the atoms all merge into the first extension's
    for cap in (None, 0, 1, 2, 5, 6, 7, 100):
        assert len(_walk_leaves(p, cap)) == (0 if cap == 0 else 1)
    assert _walk_leaves(Poset.chain(1)) == [((0,), [0])]
    assert _walk_leaves(Poset.chain(1), 1) == [((0,), [0])]
    assert _walk_leaves(Poset.chain(1), 0) == []
    with pytest.raises(ValueError):
        _walk_leaves(p, -1)


def _bareiss_echelon_report(L, cap=None):
    """verify_echelon_theorem, less its modularity gate, by Bareiss pivoting
    of each extension in turn."""
    p = L.poset
    down_counts = [m.bit_count() for m in p.covers_down()]
    up_counts = [m.bit_count() for m in p.covers_up()]
    checked = 0
    for order in _recursive_extension_orders(p, cap):
        for i, j in enumerate(_bareiss_pivots(p, order)):
            x, y = order[j], order[i]
            if up_counts[y] != down_counts[x]:
                return Report("echelon-cover-transfer", checked + 1, "counterexample", {
                    "extension": list(order), "element": x, "image": y,
                    "covers_below_element": down_counts[x],
                    "covers_above_image": up_counts[y]})
        checked += 1
    return Report("echelon-cover-transfer", checked, "verified")


def _bareiss_rowmotion_report(L, target, cap=None):
    """verify_rowmotion with ``target`` for rowmotion, by Bareiss pivoting of
    each extension in turn."""
    p = L.poset
    checked = 0
    for order in _recursive_extension_orders(p, cap):
        echelon = posets._echelon_mapping(order, _bareiss_pivots(p, order))
        if echelon != target:
            return Report("echelon-equals-rowmotion", checked, "counterexample", {
                "extension": list(order), "echelon": list(echelon), "rowmotion": list(target)})
        checked += 1
    return Report("echelon-equals-rowmotion", checked, "verified")


def _assert_first_failure_matches(p, verify, oracle, cap=None):
    """On the extensions of p, verify(c) equals oracle(c) at ``cap``, and
    with the cap just before and just at the first failing extension.
    Returns the failing extension's place in lexicographic order (0 for the
    first), or None when nothing fails."""
    expected = oracle(cap)
    assert verify(cap) == expected
    if expected.status == "verified":
        return None
    failing = expected.witness["extension"]
    place = _recursive_extension_orders(p, cap).index(tuple(failing))
    assert verify(place) == oracle(place) == Report(expected.theorem, place, "verified")
    assert verify(place + 1) == oracle(place + 1) == expected
    return place


def test_echelon_walk_finds_the_first_failure_of_the_bareiss_oracle(monkeypatch):
    # Without the modularity gate the cover counts fail on posets that are
    # not modular lattices, mostly at the first extension.  The checker
    # reads no meet or join, so any poset serves, in a shell Lattice.
    monkeypatch.setattr(posets, "modular_witness", lambda L: None)
    places = Counter()
    for p in enumerate_posets_up_to(5):
        lat = Lattice(p, None, None)
        places[_assert_first_failure_matches(
            p, lambda cap: verify_echelon_theorem(lat, extension_cap=cap),
            lambda cap: _bareiss_echelon_report(lat, cap))] += 1
    assert places[0] > 3000
    assert sum(n for place, n in places.items() if place) >= 20


def test_rowmotion_walk_finds_the_first_failure_of_the_bareiss_oracle(monkeypatch):
    # The echelon map of the last extension in place of rowmotion: the walk
    # must stop at the first extension whose map differs.
    lattices = [(lat, None) for lat in labelled_lattices(6)[0]]
    lattices += [(lat, 200 if name == "GF2_dim3_subspaces" else None)
                 for name, lat in lattice_catalog().items() if is_modular(lat)]
    places = Counter()
    for lat, cap in lattices:
        p = lat.poset
        last = _recursive_extension_orders(p, cap)[-1]
        target = posets._echelon_mapping(last, _bareiss_pivots(p, last))
        monkeypatch.setattr(posets, "rowmotion_distributive", lambda L: target)
        places[_assert_first_failure_matches(
            p, lambda c: posets.verify_rowmotion(lat, extension_cap=c),
            lambda c: _bareiss_rowmotion_report(lat, target, c), cap)] += 1
    assert sum(n for place, n in places.items() if place is not None) == 294
    assert sum(n for place, n in places.items() if place) > 100


# -- merged futures: counts, caps and first failures against Bareiss ----------


def _watch_steps(monkeypatch, call):
    """call(), and the prefixes the echelon walk steps during it, in order."""
    stepped = []
    dfs = posets._extension_dfs

    def watched(p):
        order, placed, steps = dfs(p)

        def relay():
            skip = None
            while True:
                try:
                    k = steps.send(skip)
                except StopIteration:
                    return
                stepped.append(tuple(order[:k + 1]))
                skip = yield k

        return order, placed, relay()

    with monkeypatch.context() as m:
        m.setattr(posets, "_extension_dfs", watched)
        return call(), stepped


def _echelon_maps(p, orders):
    return [posets._echelon_mapping(order, _bareiss_pivots(p, order)) for order in orders]


def _union_of_maps(n, maps):
    union = [0] * n
    for mapping in maps:
        for x, y in enumerate(mapping):
            union[x] |= 1 << y
    return union


def _verdict_report(verdict):
    passed, failing = verdict
    if failing is None:
        return Report("walk", passed, "verified")
    return Report("walk", passed, "counterexample", {"extension": list(failing)})


def test_upset_extensions_count_the_orders_that_end_an_extension():
    for p in enumerate_posets_up_to(4):
        ends = {}
        for order in _recursive_extension_orders(p):
            for t in range(p.n + 1):
                ends.setdefault(sum(1 << x for x in order[t:]), set()).add(order[t:])
        memo = {0: 1}
        for up, orders in ends.items():
            assert posets._upset_extensions(p.covers_down(), memo, up) == len(orders), (p, up)
    # GL(3, 2), of order 168, acts freely on the extensions of GF(2)^3, in
    # 432 000 orbits
    gf2 = subspace_lattice_gf2_dim3().poset
    assert posets._upset_extensions(gf2.covers_down(), {0: 1}, (1 << gf2.n) - 1) == 432_000 * 168


def test_merged_walk_matches_bareiss_on_every_union_of_echelon_maps_less_one_pair():
    # Allow every pair that the echelon map of some extension uses, less one:
    # the first failure is then the first extension that uses that pair,
    # often deep in the order.  A state key without the pending columns or
    # without the open rows merges prefixes whose futures differ here.
    masks = 0
    for index, p in enumerate(enumerate_posets_up_to(5)):
        if index % 3:
            continue  # every third of the 4 473 posets, for time
        orders = _recursive_extension_orders(p)
        maps = _echelon_maps(p, orders)
        union = _union_of_maps(p.n, maps)
        for x in range(p.n):
            for y in posets._bits(union[x]):
                allowed = union[:]
                allowed[x] ^= 1 << y
                place = next(i for i, mapping in enumerate(maps) if mapping[x] == y)
                assert posets._echelon_verdict(p, allowed, None) == (place, list(orders[place]))
                masks += 1
    assert masks == 14_806


@pytest.mark.parametrize("name, total, caps", [
    ("GF2_dim3_subspaces", 72_576_000, (7, 13, 26, 100, 129, 299, 301)),
    ("C3xC4", 462, (255, 258, 325, 418, 462, 463)),
])
def test_caps_that_end_inside_merged_subtrees(monkeypatch, name, total, caps):
    lat = lattice_catalog()[name]
    p = lat.poset
    horizon = 600
    assert _bareiss_echelon_report(lat, horizon).instances == min(horizon, total)
    _, merged = _watch_steps(monkeypatch, lambda: verify_echelon_theorem(lat, horizon))
    for cap in caps:
        report, stepped = _watch_steps(monkeypatch, lambda: verify_echelon_theorem(lat, cap))
        assert report == Report("echelon-cover-transfer", min(cap, total), "verified"), cap
        if cap < total:
            # the walk to the horizon counts these prefixes without a step; at
            # this cap they do not fit, and the walk steps into them
            assert set(stepped) - set(merged), cap


def test_first_failures_past_merged_subtrees_match_bareiss():
    p = subspace_lattice_gf2_dim3().poset
    horizon = 600
    orders = _recursive_extension_orders(p, horizon)
    maps = _echelon_maps(p, orders)
    union = _union_of_maps(p.n, maps)
    # each pair's first extension, and a pair for each such place
    places = {}
    for place, mapping in enumerate(maps):
        for pair in enumerate(mapping):
            places.setdefault(pair, place)
    first = {place: pair for pair, place in places.items()}
    assert max(first) == 552
    for place in (1, 5, 14, 46, 153, 302, 552):
        x, y = first[place]
        allowed = union[:]
        allowed[x] ^= 1 << y

        def verify(cap):
            return _verdict_report(posets._echelon_verdict(p, allowed, cap))

        def oracle(cap):
            return _verdict_report(next(((i, orders[i]) for i in range(cap) if maps[i][x] == y),
                                        (cap, None)))

        for cap in (place + 1, place + 7, horizon):
            assert _assert_first_failure_matches(p, verify, oracle, cap) == place


def test_the_walk_merges_gf2_at_the_battery_cap(monkeypatch):
    # a walk that stops merging, or merges less, steps more positions and
    # computes no fewer ranks
    lat = subspace_lattice_gf2_dim3()
    ranks = []
    zeta_rank = posets._zeta_rank
    monkeypatch.setattr(posets, "_zeta_rank", lambda *a: ranks.append(a) or zeta_rank(*a))
    report, stepped = _watch_steps(monkeypatch, lambda: verify_echelon_theorem(lat, 100_000))
    assert report == Report("echelon-cover-transfer", 100_000, "verified")
    assert (len(stepped), len(ranks)) == (3252, 1955)


def test_echelon_checkers_fail_on_wrong_pivots(monkeypatch):
    # ranks of the identity matrix: the walk pivots on the diagonal, so every
    # element is its own image, and the bottom has no lower covers but some
    # upper ones.  Bareiss pivoting does not confirm that failure, so the
    # checkers raise rather than verify or report a counterexample.
    monkeypatch.setattr(posets, "_zeta_rank", lambda down, rows, cols: (rows & cols).bit_count())
    lat = subspace_lattice_gf2_dim3()
    anything = [(1 << lat.n) - 1] * lat.n
    order, cols = next(posets._echelon_walk(lat.poset, anything, None))
    assert cols == list(range(lat.n))
    with pytest.raises(RuntimeError, match="prefix walk fails extension"):
        verify_echelon_theorem(lat)
    with pytest.raises(RuntimeError, match="prefix walk fails extension"):
        acceptance.criterion_rowmotion(max_n=3, catalog_cap=1)


# -- natural negative controls: part 1's hypotheses are sharp -------------------

# A lattice on seven elements that is not modular, with bottom 5 and top 6,
# whose lower and upper cover-count multisets agree: Dilworth's multisets
# cannot tell it from a modular lattice, yet cover transfer fails on its
# first extension.
SHARP_COVERS = [(0, 6), (1, 6), (2, 6), (3, 0), (4, 0), (4, 1), (5, 2), (5, 3), (5, 4)]


def test_cover_transfer_fails_where_the_cover_multisets_agree(monkeypatch):
    lat = build_lattice(Poset.from_cover_pairs(7, SHARP_COVERS))
    p = lat.poset
    assert not is_modular(lat)
    down_counts = [m.bit_count() for m in p.covers_down()]
    up_counts = [m.bit_count() for m in p.covers_up()]
    assert sorted(down_counts) == sorted(up_counts)
    allowed = [sum(1 << y for y in range(p.n) if up_counts[y] == d) for d in down_counts]
    first = [5, 2, 3, 4, 0, 1, 6]
    assert list(next(extension_orders(p))) == first
    assert posets._echelon_verdict(p, allowed, None) == (0, first)
    cols = posets._confirmed_pivots(p, allowed, first)
    assert cols == _bareiss_pivots(p, first)
    # with the modularity gate lifted, cover transfer fails and Dilworth holds
    monkeypatch.setattr(posets, "modular_witness", lambda L: None)
    assert verify_echelon_theorem(lat) == Report("echelon-cover-transfer", 1, "counterexample", {
        "extension": first, "element": 0, "image": 2,
        "covers_below_element": 2, "covers_above_image": 1})
    assert verify_dilworth(lat).status == "verified"


# The other non-modular lattices on at most seven elements on which cover
# transfer fails, as the class representatives of posets.poset_classes(7)
# label them, generated once from it.  Each fails on its first extension,
# and unlike SHARP_COVERS its cover-count multisets differ.
FAILING_TRANSFER_COVERS = [
    (6, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 5), (4, 5)]),
    (6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)]),
    (7, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 5), (3, 6), (4, 6), (5, 6)]),
    (7, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 5), (3, 5), (4, 6), (5, 6)]),
    (7, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (3, 6), (4, 6), (5, 6)]),
    (7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 5), (4, 6), (5, 6)]),
    (7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6), (4, 5), (5, 6)]),
    (7, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 4), (3, 5), (4, 6), (5, 6)]),
    (7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 6), (4, 5), (5, 6)]),
    (7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 5), (4, 5), (5, 6)]),
    (7, [(0, 1), (0, 2), (1, 3), (1, 4), (1, 5), (2, 6), (3, 6), (4, 6), (5, 6)]),
    (7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (3, 6), (4, 6), (5, 6)]),
    (7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 6), (3, 5), (4, 6), (5, 6)]),
    (7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5), (5, 6)]),
    (7, [(0, 1), (0, 2), (1, 3), (1, 5), (2, 4), (2, 5), (3, 6), (4, 6), (5, 6)]),
    (7, [(0, 1), (0, 2), (1, 3), (2, 6), (3, 4), (3, 5), (4, 6), (5, 6)]),
    (7, [(0, 1), (1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 6), (5, 6)]),
    (7, [(0, 1), (1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (4, 6), (5, 6)]),
]


@pytest.mark.parametrize("n, covers", FAILING_TRANSFER_COVERS)
def test_cover_transfer_fails_on_the_first_extension_of_each_natural_control(monkeypatch, n, covers):
    lat = build_lattice(Poset.from_cover_pairs(n, covers))
    p = lat.poset
    assert not is_modular(lat)
    down_counts = [m.bit_count() for m in p.covers_down()]
    up_counts = [m.bit_count() for m in p.covers_up()]
    allowed = [sum(1 << y for y in range(n) if up_counts[y] == d) for d in down_counts]
    first = list(next(extension_orders(p)))
    assert posets._echelon_verdict(p, allowed, None) == (0, first)
    assert posets._confirmed_pivots(p, allowed, first) == _bareiss_pivots(p, first)
    monkeypatch.setattr(posets, "modular_witness", lambda L: None)
    report = verify_echelon_theorem(lat)
    assert (report.instances, report.status) == (1, "counterexample")
    assert report.witness["extension"] == first
    assert verify_dilworth(lat).status == "counterexample"


# The only natural inputs known on which cover transfer fails after the
# first extension: two non-modular lattices on nine elements, with bottom 0
# and top 1, that pass 5 and 8 extensions in lexicographic order first.
# (covers, extensions, instances of the counterexample, failing extension)
LATE_FAILING_TRANSFER_COVERS = [
    ([(0, 2), (0, 3), (0, 4), (2, 8), (3, 6), (4, 5), (4, 7), (5, 1), (6, 7), (7, 1), (8, 1)],
     189, 6, [0, 2, 3, 4, 6, 7, 5, 8, 1]),
    ([(0, 2), (0, 3), (0, 4), (2, 7), (2, 8), (3, 6), (3, 8), (4, 5), (4, 6), (5, 7), (6, 1),
      (7, 1), (8, 1)],
     136, 9, [0, 2, 3, 4, 6, 8, 5, 7, 1]),
]


@pytest.mark.parametrize("covers, extensions, instances, failing", LATE_FAILING_TRANSFER_COVERS)
def test_cover_transfer_fails_after_the_first_extension_on_two_natural_controls(
        monkeypatch, covers, extensions, instances, failing):
    lat = build_lattice(Poset.from_cover_pairs(9, covers))
    p = lat.poset
    assert not is_modular(lat)
    assert len(_recursive_extension_orders(p)) == extensions
    down_counts = [m.bit_count() for m in p.covers_down()]
    up_counts = [m.bit_count() for m in p.covers_up()]
    allowed = [sum(1 << y for y in range(9) if up_counts[y] == d) for d in down_counts]
    assert posets._echelon_verdict(p, allowed, None) == (instances - 1, failing)
    assert posets._confirmed_pivots(p, allowed, failing) == _bareiss_pivots(p, failing)
    monkeypatch.setattr(posets, "modular_witness", lambda L: None)
    report = verify_echelon_theorem(lat)
    assert report == _bareiss_echelon_report(lat)
    assert (report.instances, report.status) == (instances, "counterexample")
    assert report.witness["extension"] == failing


def test_modular_lattices_that_are_not_distributive_have_several_echelon_maps():
    # echelon independence (criterion 3's corollary) needs distributivity
    maps_by_kind = {True: [], False: []}
    for p, _ in posets.poset_classes(6):
        try:
            lat = build_lattice(p)
        except NotALatticeError:
            continue
        if is_modular(lat):
            maps = {echelonmotion(lat, ext).mapping for ext in linear_extensions(p)}
            maps_by_kind[is_distributive(lat)].append(len(maps))
    assert len(maps_by_kind[True]) == 13 and set(maps_by_kind[True]) == {1}
    assert len(maps_by_kind[False]) == 17 - 13 and min(maps_by_kind[False]) > 1


# -- the iterative extension generator against the recursive oracle ------------


def test_extension_orders_match_the_recursive_oracle_on_small_posets():
    checked = 0
    for p in enumerate_posets_up_to(5):
        assert list(extension_orders(p)) == _recursive_extension_orders(p), p
        checked += 1
    assert checked == 1 + 3 + 19 + 219 + 4231


def test_extension_orders_match_the_recursive_oracle_on_the_catalog():
    for name, lat in lattice_catalog().items():
        cap = 3000 if name == "GF2_dim3_subspaces" else None
        expected = _recursive_extension_orders(lat.poset, cap)
        assert list(itertools.islice(extension_orders(lat.poset), cap)) == expected, name
        exts = itertools.islice(linear_extensions(lat.poset), cap)
        assert [e.order for e in exts] == expected, name


def test_extension_caps():
    r = verify_echelon_theorem(diamond(3), extension_cap=0)
    assert r.status == "verified" and r.instances == 0
    assert posets.verify_rowmotion(build_lattice(b2()), extension_cap=0).instances == 0
    with pytest.raises(ValueError):
        verify_echelon_theorem(diamond(3), extension_cap=-1)


def test_the_empty_poset_has_one_empty_extension():
    p = Poset(0, [])
    assert list(extension_orders(p)) == [()]
    assert list(linear_extensions(p)) == [LinearExtension(())]
    assert list(posets._echelon_walk(p, [], None)) == [([], [])]
    assert list(posets._echelon_walk(p, [], 0)) == []
    # a negative cap: the walk refuses it on its first step
    walk = posets._echelon_walk(p, [], -1)
    with pytest.raises(ValueError):
        next(walk)


# -- isomorphism classes against the labelled oracle -------------------------------


def _is_bounded(p):
    full = (1 << p.n) - 1
    return full in p.up and full in p.down


def test_bounded_labelled_posets_are_the_bounded_posets_of_the_enumeration():
    for max_n in range(0, 6):
        expected = [p.up for p in enumerate_posets_up_to(max_n) if _is_bounded(p)]
        found = [p.up for p in bounded_labelled_posets(max_n)]
        assert len(set(found)) == len(found) == len(expected), max_n
        assert set(found) == set(expected), max_n
    # n(n - 1) labellings of bottom and top around 1, 1, 3, 19 and 219 posets
    assert len(bounded_labelled_posets(6)) == 1 + 2 + 6 + 36 + 380 + 6570 == 6995


def test_poset_classes_count_unlabelled_and_labelled_posets():
    classes = posets.poset_classes(6)
    by_size, labelled = Counter(), Counter()
    for p, copies in classes:
        by_size[p.n] += 1
        labelled[p.n] += copies
    # OEIS A000112 and A001035
    assert [by_size[n] for n in range(1, 7)] == [1, 2, 5, 16, 63, 318]
    assert [labelled[n] for n in range(1, 7)] == [1, 3, 19, 219, 4231, 130023]
    assert [p.n for p, _ in classes] == sorted(p.n for p, _ in classes)
    assert posets.poset_classes(0) == []


def test_poset_classes_count_automorphisms_as_brute_force_does():
    for p, copies in posets.poset_classes(5):
        automorphisms = sum(1 for label in itertools.permutations(range(p.n))
                            if _relabelled(p, label) == p.up)
        assert posets.canonical_form(p)[1] == automorphisms, p
        assert copies * automorphisms == math.factorial(p.n), p


def test_poset_classes_are_the_canonical_forms_of_the_labelled_oracle():
    classes = posets.poset_classes(5)
    copies_of = {code_of(p): copies for p, copies in classes}
    assert len(copies_of) == len(classes)
    assert Counter(code_of(p) for p in enumerate_posets_up_to(5)) == copies_of


def test_lattice_sweep_matches_a_filter_over_the_enumeration():
    # the sweep lists one lattice per class of labelled modular (distributive)
    # lattices, the representative of poset_classes, with its class's size
    for max_n in range(1, 7):
        sweep = acceptance.LatticeSweep(max_n)
        seen = 134_496 if max_n == 6 else sum(1 for _ in enumerate_posets_up_to(max_n))
        assert sweep.posets_seen == seen, max_n
        reps = [p for p, _ in posets.poset_classes(max_n)]
        for labelled, listed in zip(labelled_lattices(max_n), (sweep.modular, sweep.distributive)):
            counts = Counter(code_of(lat.poset) for lat in labelled)
            assert {code_of(lat.poset): copies for lat, copies in listed} == counts, max_n
            assert len(listed) == len(counts), max_n
            assert [lat.poset for lat, _ in listed] == [p for p in reps if code_of(p) in counts]


# -- canonical forms against brute-force relabelling -----------------------------


def _relabelled(p, label):
    """The up-masks of p with each element x renamed label[x]."""
    up = [0] * p.n
    for x in range(p.n):
        up[label[x]] = sum(1 << label[y] for y in range(p.n) if p.up[x] >> y & 1)
    return tuple(up)


def _brute_form(p, fix_bounds=False):
    """The least relabelled up-mask tuple of p over all n! relabellings, or,
    with ``fix_bounds``, over those that send the bottom of a bounded poset
    to 0 and its top to n - 1 (an isomorphism of lattices fixes both)."""
    n = p.n
    if not fix_bounds:
        return min(_relabelled(p, label) for label in itertools.permutations(range(n)))
    full = (1 << n) - 1
    bottom, top = p.up.index(full), p.down.index(full)
    middle = [x for x in range(n) if x not in (bottom, top)]
    forms = []
    for names in itertools.permutations(range(1, n - 1)):
        label = [0] * n
        label[top] = n - 1
        for x, name in zip(middle, names):
            label[x] = name
        forms.append(_relabelled(p, label))
    return min(forms)


def _assert_same_classes(codes, forms):
    """Equal codes exactly where the brute-force forms are equal."""
    assert len(set(codes)) == len(set(forms))
    assert len(set(zip(codes, forms))) == len(set(forms))


def test_canonical_form_separates_exactly_the_isomorphism_classes_up_to_4():
    ps = list(enumerate_posets_up_to(4))
    codes = [code_of(p) for p in ps]
    forms = [_brute_form(p) for p in ps]
    _assert_same_classes(codes, forms)
    # 1, 2, 5 and 16 unlabelled posets on 1 .. 4 elements (OEIS A000112)
    assert len(set(forms)) == 1 + 2 + 5 + 16
    for p, code in zip(ps, codes):
        # the code is itself the up-masks of a relabelling of p
        assert _brute_form(Poset(p.n, code)) == _brute_form(p), p
    assert posets.canonical_form(Poset(0, ())) == ((), 1)


def test_canonical_form_classes_the_sweep_lattices_as_brute_force_does():
    sweep = acceptance.lattice_sweep(6)
    modular, distributive = labelled_lattices(6)
    form_of = {id(lat): _brute_form(lat.poset, fix_bounds=True) for lat in modular}
    for labelled, listed, count in ((modular, sweep.modular, 17),
                                    (distributive, sweep.distributive, 13)):
        forms = [form_of[id(lat)] for lat in labelled]
        assert len(set(forms)) == count
        _assert_same_classes([code_of(lat.poset) for lat in labelled], forms)
        # the sweep lists each class once, with as many copies as it has members
        assert len(listed) == count
        assert {_brute_form(lat.poset, fix_bounds=True): copies
                for lat, copies in listed} == Counter(forms)


def test_canonical_form_tells_apart_what_refinement_alone_does_not():
    # Four minima under four maxima, each covered twice: a crown (one
    # 8-cycle of covers) and two bowties.  Every element has two covers, all
    # in the other cell, so refinement stops at {minima}, {maxima} in both;
    # only individualisation separates them.  The crown is connected.
    crown = Poset.from_cover_pairs(8, [(i, 4 + j) for i in range(4) for j in (i, (i + 1) % 4)])
    bowties = Poset.from_cover_pairs(8, [(i, 4 + j) for i in range(4) for j in range(4)
                                         if i // 2 == j // 2])
    cells = [posets._equitable([list(range(8))], p.covers_up(), p.covers_down())
             for p in (crown, bowties)]
    assert [sorted(map(sorted, c)) for c in cells] == [[[0, 1, 2, 3], [4, 5, 6, 7]]] * 2
    assert code_of(crown) != code_of(bowties)
    rng = random.Random(5)
    for p in (crown, bowties):
        for _ in range(5):
            label = list(range(8))
            rng.shuffle(label)
            assert code_of(Poset(8, _relabelled(p, label))) == code_of(p)


def test_canonical_form_counts_only_the_leaves_that_reach_the_least_code():
    # On every poset of up to seven elements every leaf of the search is
    # an automorphic image of the best one.  In the disjoint union of the
    # crown and the bowties refinement cannot tell a crown minimum from a
    # bowtie one, so the search also meets leaves that no automorphism
    # relates; |Aut| is that of the crown (8: the rotations and reflections
    # of its 8-cycle that keep minima minimal) times that of the bowties
    # (32: each bowtie swaps its minima and its maxima, and the two swap).
    crown = Poset.from_cover_pairs(8, [(i, 4 + j) for i in range(4) for j in (i, (i + 1) % 4)])
    bowties = Poset.from_cover_pairs(8, [(i, 4 + j) for i in range(4) for j in range(4)
                                         if i // 2 == j // 2])
    union = Poset.from_cover_pairs(16, crown.cover_pairs()
                                   + [(x + 8, y + 8) for x, y in bowties.cover_pairs()])
    assert [posets.canonical_form(p)[1] for p in (crown, bowties, union)] == [8, 32, 8 * 32]

def _unpruned_form(p):
    """``canonical_form`` without twin pruning: the same search over every
    element of each cell, each leaf counted once.  Aut(p) acts freely on
    its leaves, so the leaves that reach the least code number |Aut(p)|."""
    n = p.n
    above = [list(posets._bits(m)) for m in p.up]
    cov_up, cov_down = p.covers_up(), p.covers_down()
    best, automorphisms = None, 0
    stack = [posets._equitable([list(range(n))], cov_up, cov_down)]
    while stack:
        cells = stack.pop()
        i = next((i for i, cell in enumerate(cells) if len(cell) > 1), None)
        if i is not None:
            cell = cells[i]
            stack += [posets._equitable(cells[:i] + [[v], [x for x in cell if x != v]] + cells[i + 1:],
                                        cov_up, cov_down) for v in cell]
            continue
        bit = [0] * n
        for k, (x,) in enumerate(cells):
            bit[x] = 1 << k
        code = tuple([sum([bit[y] for y in above[x]]) for (x,) in cells])
        if best is None or code < best:
            best, automorphisms = code, 1
        elif code == best:
            automorphisms += 1
    return best, automorphisms


def test_twin_pruned_form_matches_the_unpruned_search(monkeypatch):
    # every child that the class generator forms on up to six elements, and
    # every labelled poset on up to five
    children = []
    form = posets.canonical_form
    monkeypatch.setattr(posets, "canonical_form", lambda p: children.append(p) or form(p))
    posets.poset_classes(6)
    monkeypatch.undo()
    assert len(children) == 938
    for p in itertools.chain(children, enumerate_posets_up_to(5)):
        assert posets.canonical_form(p) == _unpruned_form(p), p.up


def test_twins_multiply_automorphisms_by_their_permutations():
    # a diamond's atoms are twins, and so are all elements of an antichain
    for k in range(1, 10):
        assert posets.canonical_form(diamond(k).poset)[1] == math.factorial(k), k
        assert posets.canonical_form(antichain(k))[1] == math.factorial(k), k
    # twins in two classes, and twins beside elements that are not: a chain
    # 0 < 1 with three elements above 1 and two below 0
    p = Poset.from_cover_pairs(7, [(0, 1), (1, 2), (1, 3), (1, 4), (5, 0), (6, 0)])
    assert posets.canonical_form(p) == _unpruned_form(p)
    assert posets.canonical_form(p)[1] == math.factorial(3) * math.factorial(2)


def test_twin_pruning_individualises_one_atom_of_a_diamond_per_level(monkeypatch):
    # diamond(8): one refinement of the whole set, then one branch for each
    # of the cells of 8, 7, ..., 2 atoms left; the unpruned search made
    # about 8! times as many
    calls = []
    refine = posets._equitable
    monkeypatch.setattr(posets, "_equitable", lambda *args: calls.append(args) or refine(*args))
    assert posets.canonical_form(diamond(8).poset)[1] == math.factorial(8)
    assert len(calls) == 1 + 7


def test_canonical_form_of_catalog_lattices_is_label_free():
    rng = random.Random(11)
    for name, lat in lattice_catalog().items():
        p = lat.poset
        form = posets.canonical_form(p)
        for _ in range(3):
            label = list(range(p.n))
            rng.shuffle(label)
            assert posets.canonical_form(Poset(p.n, _relabelled(p, label))) == form, name
    codes = {code_of(lat.poset) for lat in lattice_catalog().values()}
    assert len(codes) == len(lattice_catalog())
    # |Aut|: a product of two chains of equal length has its swap, a diamond
    # permutes its atoms, N5 has none but the identity, and GF(2)^3 has GL(3, 2),
    # of order 168
    automorphisms = {name: posets.canonical_form(lat.poset)[1]
                     for name, lat in lattice_catalog().items()}
    assert automorphisms == {"C2xC2": 2, "C2xC3": 1, "C2xC4": 1, "C3xC3": 2, "C2xC5": 1,
                             "C2xC6": 1, "C3xC4": 1, "M3": 6, "M4": 24, "M5": 120, "N5": 1,
                             "GF2_dim3_subspaces": 168}

# -- the modularity cross-check --------------------------------------------------


def test_disagreeing_modularity_criteria_raise(monkeypatch):
    # with no covers at all the cover condition holds everywhere, while the
    # modular law fails on the pentagon
    monkeypatch.setattr(Poset, "covers_up", lambda self: (0,) * self.n)
    assert is_modular(diamond(3))
    with pytest.raises(ModularityCheckError, match="modularity criteria disagree"):
        is_modular(pentagon())
    assert not issubclass(ModularityCheckError, ValueError)  # exit 3, not 2


def test_modularity_cross_check_survives_python_O():
    script = (
        "import sys\n"
        "from exactcomb import posets\n"
        "assert False, 'asserts are on'\n"
        "posets.Poset.covers_up = lambda self: (0,) * self.n\n"
        "try:\n"
        "    posets.is_modular(posets.pentagon())\n"
        "except posets.ModularityCheckError:\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


# -- exact Bareiss division, also under python -O --------------------------------


def _inexact_divisions():
    """The calls that reach a division by a previous pivot of 2 in
    ``core.bareiss_step``, the one exact division of Bareiss elimination;
    each must raise once ``core.divmod`` leaves a remainder."""
    return {
        # no pivot of ±1 in the first two columns, so the third row is
        # divided by the first pivot, 2
        "rank": lambda: int_matrix_rank([[2, 0, 0], [0, 2, 0], [0, 0, 2]]),
        # the first pivot is the 2 at the bottom, and at the second column
        # the top row is still pivotless: with a nonzero entry there in the
        # first case, and with a zero one in the second, where the second
        # pivot, 1, differs from the first, so the row is rescaled
        "bruhat update": lambda: bruhat_permutation(IntMatrix([[1, 1, 0], [0, 1, 0], [2, 0, 1]])),
        "bruhat scaling": lambda: bruhat_permutation(IntMatrix([[0, 0, 1], [1, 1, 0], [2, 1, 0]])),
    }


def _divmod_with_remainder(a, b):
    return a // b, 1


@pytest.mark.parametrize("case", sorted(_inexact_divisions()))
def test_inexact_bareiss_division_raises(monkeypatch, case):
    call = _inexact_divisions()[case]
    call()  # exact with the real divmod
    monkeypatch.setattr(core, "divmod", _divmod_with_remainder, raising=False)
    with pytest.raises(BareissDivisionError, match="Bareiss division must be exact"):
        call()
    assert issubclass(BareissDivisionError, RuntimeError)
    assert not issubclass(BareissDivisionError, ValueError)  # exit 3, not 2


def test_inexact_bareiss_division_raises_under_python_O():
    here = Path(__file__).resolve().parent
    script = (
        "import sys\n"
        "assert False, 'asserts are on'\n"
        "import test_posets\n"
        "from exactcomb import core\n"
        "core.divmod = test_posets._divmod_with_remainder\n"
        "for case, call in test_posets._inexact_divisions().items():\n"
        "    try:\n"
        "        call()\n"
        "    except core.BareissDivisionError:\n"
        "        pass\n"
        "    else:\n"
        "        sys.exit(f'{case}: nothing raised')\n"
    )
    path = os.pathsep.join([str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-O", "-c", script], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
