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


# -- the rank memo of echelon sweeps against Bareiss pivoting -------------------


def _assert_memo_matches_bareiss(p, cap=None):
    memo_pivots = posets._memo_pivot_cols(p)
    checked = 0
    for ext in linear_extensions(p, cap=cap):
        expected = posets._bruhat_pivot_cols(posets._cartan_rows(p.down, ext.order))
        assert memo_pivots(ext.order) == expected, (p, ext)
        checked += 1
    return checked


def test_memo_pivots_match_bareiss_on_sweep_lattices():
    sweep = acceptance.LatticeSweep(5)
    assert len(sweep.modular) > 100
    checked = sum(_assert_memo_matches_bareiss(lat.poset) for lat in sweep.modular)
    assert checked > len(sweep.modular)


def test_memo_pivots_match_bareiss_on_catalog():
    for name, lat in lattice_catalog().items():
        cap = 2000 if name == "GF2_dim3_subspaces" else None
        assert _assert_memo_matches_bareiss(lat.poset, cap=cap) > 0, name


def test_memo_pivots_on_posets_that_are_not_lattices():
    for p in enumerate_posets_up_to(4):
        _assert_memo_matches_bareiss(p)


def test_echelon_checkers_fail_on_wrong_pivots(monkeypatch):
    # every element sent to itself: the bottom has no lower covers but some upper ones
    monkeypatch.setattr(posets, "_memo_pivot_cols", lambda p: lambda order: list(range(p.n)))
    r = verify_echelon_theorem(subspace_lattice_gf2_dim3())
    assert r.status == "counterexample"
    assert r.witness["covers_below_element"] != r.witness["covers_above_image"]
    r = acceptance.criterion_rowmotion(max_n=3, catalog_cap=1)
    assert r.status == "counterexample"
    assert r.witness["echelon"] != r.witness["rowmotion"]


# -- the iterative extension generator against the recursive oracle ------------


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
