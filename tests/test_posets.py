import itertools
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
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

B2_COVERS = [(0, 1), (0, 2), (1, 3), (2, 3)]


def b2():
    return Poset.from_cover_pairs(4, B2_COVERS)


def leq(p, x, y):
    return bool(p.up[x] >> y & 1)


def antichain(n):
    return Poset.from_cover_pairs(n, [])


def enumerate_posets_up_to(max_n):
    """Every labelled poset on 1 .. max_n elements, each exactly once."""
    if max_n < 1:
        return

    def rec(up, down):
        yield Poset._from_masks(up, down)
        if len(up) < max_n:
            for d, u in posets._extension_pairs(up, down):
                yield from rec(*posets._extend(up, down, d, u))

    yield from rec((1,), (1,))


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


def _closed_subsets_by_filter(k, masks):
    # every subset, kept when it holds the mask of each of its elements
    return [s for s in range(1 << k)
            if all(not masks[x] & ~s for x in range(k) if s >> x & 1)]


def test_closed_subsets_match_the_filter_on_all_small_posets():
    assert posets._closed_subsets(0, ()) == [0]
    for p in enumerate_posets_up_to(5):
        for masks in (p.up, p.down):
            assert posets._closed_subsets(p.n, masks) == _closed_subsets_by_filter(p.n, masks)
    # masks that need not come from a poset: not reflexive, not transitive
    rng = random.Random(7)
    for _ in range(300):
        k = rng.randrange(7)
        masks = tuple(rng.randrange(1 << k) for _ in range(k))
        assert posets._closed_subsets(k, masks) == _closed_subsets_by_filter(k, masks)


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


def test_bruhat_rank_profile_matches_literal_submatrices():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randrange(1, 6)
        u1 = random_unit_upper_triangular(n, rng)
        w = Permutation(rng.sample(range(1, n + 1), n)).to_matrix()
        m = u1 @ w
        profile = bruhat_rank_profile(m)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                sub = [row[:j] for row in m.entries[i - 1:]]
                assert profile[i - 1][j - 1] == int_matrix_rank(sub)


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
    for p in posets.bounded_posets_up_to(6):
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
        for ext in linear_extensions(lat.poset, cap=30):
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
    # of the 3 095 modular lattices on up to six it steps 3 815
    for max_n, lattices, stepped in ((5, 305, 305), (6, 3095, 3815)):
        sweep = acceptance.lattice_sweep(max_n)
        assert len(sweep.modular) == lattices
        assert sum(_assert_walk_matches_bareiss(lat.poset) for lat in sweep.modular) == stepped


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
    lattices = [(lat, None) for lat in acceptance.lattice_sweep(6).modular]
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
        assert list(extension_orders(lat.poset, cap)) == expected, name
        assert [e.order for e in linear_extensions(lat.poset, cap)] == expected, name


def test_extension_caps():
    p = diamond(3).poset
    everything = _recursive_extension_orders(p)
    for cap in range(1, 8):
        assert list(extension_orders(p, cap)) == everything[:cap]
    assert list(extension_orders(p, 0)) == []
    assert list(linear_extensions(p, 0)) == []
    r = verify_echelon_theorem(diamond(3), extension_cap=0)
    assert r.status == "verified" and r.instances == 0
    assert posets.verify_rowmotion(build_lattice(b2()), extension_cap=0).instances == 0
    for call in (lambda: extension_orders(p, -1), lambda: linear_extensions(p, -1),
                 lambda: verify_echelon_theorem(diamond(3), extension_cap=-1)):
        with pytest.raises(ValueError):
            call()


def test_the_empty_poset_has_one_empty_extension():
    p = Poset(0, [])
    assert list(extension_orders(p)) == [()]
    assert list(linear_extensions(p)) == [LinearExtension(())]
    assert list(posets._echelon_walk(p, [], None)) == [([], [])]
    assert list(extension_orders(p, 0)) == []
    assert list(linear_extensions(p, 0)) == []
    assert list(posets._echelon_walk(p, [], 0)) == []
    # a negative cap: the listings refuse it when called, the walk on its first step
    for call in (lambda: extension_orders(p, -1), lambda: linear_extensions(p, -1)):
        with pytest.raises(ValueError):
            call()
    walk = posets._echelon_walk(p, [], -1)
    with pytest.raises(ValueError):
        next(walk)


# -- the bounded-only enumeration of the lattice sweep -------------------------


def _is_bounded(p):
    full = (1 << p.n) - 1
    return full in p.up and full in p.down


def test_bounded_posets_match_the_filtered_enumeration():
    for max_n in range(0, 6):
        everything = list(enumerate_posets_up_to(max_n))
        found = posets.bounded_posets_up_to(max_n)
        bounded = []
        while True:
            try:
                bounded.append(next(found))
            except StopIteration as done:
                assert done.value == len(everything), max_n
                break
        expected = [p for p in everything if _is_bounded(p)]
        assert [p.up for p in bounded] == [p.up for p in expected], max_n
        assert [p.down for p in bounded] == [p.down for p in expected], max_n


def test_lattice_sweep_matches_a_filter_over_the_enumeration():
    for max_n in range(1, 6):
        modular, distributive = [], []
        everything = list(enumerate_posets_up_to(max_n))
        for p in everything:
            try:
                lat = build_lattice(p)
            except NotALatticeError:
                continue
            if is_modular(lat):
                modular.append(p.up)
            if is_distributive(lat):
                distributive.append(p.up)
        sweep = acceptance.LatticeSweep(max_n)
        assert sweep.posets_seen == len(everything)
        assert [lat.poset.up for lat in sweep.modular] == modular, max_n
        assert [lat.poset.up for lat in sweep.distributive] == distributive, max_n



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
    codes = [posets.canonical_form(p) for p in ps]
    forms = [_brute_form(p) for p in ps]
    _assert_same_classes(codes, forms)
    # 1, 2, 5 and 16 unlabelled posets on 1 .. 4 elements (OEIS A000112)
    assert len(set(forms)) == 1 + 2 + 5 + 16
    for p, code in zip(ps, codes):
        # the code is itself the up-masks of a relabelling of p
        assert _brute_form(Poset(p.n, code)) == _brute_form(p), p
    assert posets.canonical_form(Poset(0, ())) == ()


def test_canonical_form_classes_the_sweep_lattices_as_brute_force_does():
    sweep = acceptance.lattice_sweep(6)
    form_of = {id(lat): _brute_form(lat.poset, fix_bounds=True) for lat in sweep.modular}
    for lattices, classes, count in ((sweep.modular, sweep.modular_classes, 17),
                                     (sweep.distributive, sweep.distributive_classes, 13)):
        forms = [form_of[id(lat)] for lat in lattices]
        assert len(set(forms)) == count
        _assert_same_classes([posets.canonical_form(lat.poset) for lat in lattices], forms)
        _assert_same_classes(classes, forms)
    # classes are numbered in the order they first occur among the modular lattices
    first_seen = list(dict.fromkeys(sweep.modular_classes))
    assert first_seen == list(range(17))
    modular_class_of = dict(zip(map(id, sweep.modular), sweep.modular_classes))
    assert [modular_class_of[id(lat)] for lat in sweep.distributive] == list(
        sweep.distributive_classes)



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
    assert posets.canonical_form(crown) != posets.canonical_form(bowties)
    rng = random.Random(5)
    for p in (crown, bowties):
        for _ in range(5):
            label = list(range(8))
            rng.shuffle(label)
            assert posets.canonical_form(Poset(8, _relabelled(p, label))) == posets.canonical_form(p)

def test_canonical_form_of_catalog_lattices_is_label_free():
    rng = random.Random(11)
    for name, lat in lattice_catalog().items():
        p = lat.poset
        code = posets.canonical_form(p)
        for _ in range(3):
            label = list(range(p.n))
            rng.shuffle(label)
            assert posets.canonical_form(Poset(p.n, _relabelled(p, label))) == code, name
    codes = {posets.canonical_form(lat.poset) for lat in lattice_catalog().values()}
    assert len(codes) == len(lattice_catalog())

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


def test_modularity_is_decided_once_and_kept_on_the_lattice(monkeypatch):
    lat = pentagon()
    w = modular_witness(lat)
    assert w is not None
    # broken covers no longer reach the lattice already decided ...
    monkeypatch.setattr(Poset, "covers_up", lambda self: (0,) * self.n)
    assert modular_witness(lat) == w
    assert not is_modular(lat) and not is_distributive(lat)
    for verify in (verify_echelon_theorem, verify_dilworth):
        r = verify(lat)
        assert r.status == "skipped" and r.witness["law_failure"] == list(w)
    # ... while a fresh one is checked again, and the routes disagree
    with pytest.raises(ModularityCheckError, match="modularity criteria disagree"):
        modular_witness(pentagon())


# -- exact Bareiss division, also under python -O --------------------------------


def _inexact_divisions():
    """(module, call, message) for each exact division of Bareiss elimination;
    the call must raise once the module's divmod leaves a remainder."""
    return {
        "rank": (core, lambda: int_matrix_rank([[1, 2], [3, 4]]), "division"),
        "pivot update": (posets, lambda: bruhat_permutation(IntMatrix([[1, 1], [1, 0]])), "update"),
        "pivot scaling": (posets, lambda: bruhat_permutation(IntMatrix([[0, 1], [2, 0]])), "scaling"),
    }


def _divmod_with_remainder(a, b):
    return a // b, 1


@pytest.mark.parametrize("case", sorted(_inexact_divisions()))
def test_inexact_bareiss_division_raises(monkeypatch, case):
    module, call, message = _inexact_divisions()[case]
    call()  # exact with the real divmod
    monkeypatch.setattr(module, "divmod", _divmod_with_remainder, raising=False)
    with pytest.raises(BareissDivisionError, match=message):
        call()
    assert issubclass(BareissDivisionError, RuntimeError)
    assert not issubclass(BareissDivisionError, ValueError)  # exit 3, not 2


def test_inexact_bareiss_division_raises_under_python_O():
    here = Path(__file__).resolve().parent
    script = (
        "import sys\n"
        "assert False, 'asserts are on'\n"
        "import test_posets\n"
        "from exactcomb.core import BareissDivisionError\n"
        "for case, (module, call, _) in test_posets._inexact_divisions().items():\n"
        "    module.divmod = test_posets._divmod_with_remainder\n"
        "    try:\n"
        "        call()\n"
        "    except BareissDivisionError:\n"
        "        pass\n"
        "    else:\n"
        "        sys.exit(f'{case}: nothing raised')\n"
        "    del module.divmod\n"
    )
    path = os.pathsep.join([str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-O", "-c", script], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
