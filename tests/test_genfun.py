import heapq
import itertools
import math
from collections import Counter
from typing import NamedTuple

import pytest

from exactcomb import genfun
from exactcomb.core import BiPoly, Permutation
from exactcomb.genfun import (
    PARKING_SWEEP_LIMIT,
    RECURRENCE_LIMIT,
    PackingCheckError,
    blocking_positions,
    complement_perm,
    _is_jacobi_recursive,
    is_alternating,
    is_odd_gap_perm,
    is_odd_interval_perm,
    parking_poly,
    TREES_LIMIT,
    preference_lower_bounds,
    simsun_eulerian,
    simsun_poly,
    tree_poly,
    tree_poly_at_minus_one,
    verify_alternating_identity,
    verify_simsun_identity,
    zigzag_poly,
)
from exactcomb.parking import ParkingFailure, is_parking_function, park, parking_stats


def perms(n):
    for p in itertools.permutations(range(1, n + 1)):
        yield Permutation(p)


def rooted_trees(n):
    """Oracle: trees on {0..n} rooted at 0, as parent tuples (parent of 1,
    ..., parent of n), one per Prufer sequence."""
    if n == 0:
        yield ()
        return
    for seq in itertools.product(range(n + 1), repeat=n - 1):
        yield _decode_prufer(seq, n)


def _decode_prufer(seq, n):
    # standard decoding on vertex set {0..n}, then orient toward root 0
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    adj = [[] for _ in range(n + 1)]
    heap = [v for v in range(n + 1) if degree[v] == 1]
    heapq.heapify(heap)
    for v in seq:
        leaf = heapq.heappop(heap)
        adj[leaf].append(v)
        adj[v].append(leaf)
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(heap, v)
    a = heapq.heappop(heap)
    b = heapq.heappop(heap)
    adj[a].append(b)
    adj[b].append(a)
    parent = [0] * (n + 1)
    stack = [0]
    seen = [False] * (n + 1)
    seen[0] = True
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if not seen[y]:
                seen[y] = True
                parent[y] = x
                stack.append(y)
    return tuple(parent[1:])


class TreeStats(NamedTuple):
    inversions: int
    leaves: int


def tree_stats(parent):
    """Oracle: inversions (i < j with j an ancestor of i) and leaf count."""
    n = len(parent)
    inv = 0
    for i in range(1, n + 1):
        x = parent[i - 1]
        while x != 0:
            if x > i:
                inv += 1
            x = parent[x - 1]
    children = set(parent)
    leaves = sum(1 for v in range(1, n + 1) if v not in children)
    return TreeStats(inv, leaves)


def _reaches_root(parent):
    for v in range(1, len(parent) + 1):
        seen = set()
        while v != 0:
            if v in seen:
                return False
            seen.add(v)
            v = parent[v - 1]
    return True


def _filtered_trees(n):
    """Oracle: every parent function on {1..n} whose every vertex reaches 0."""
    choices = [[p for p in range(n + 1) if p != v] for v in range(1, n + 1)]
    return [parent for parent in itertools.product(*choices) if _reaches_root(parent)]


def test_rooted_tree_counts():
    # Cayley: (n+1)^(n-1) trees on {0..n} rooted at 0
    for n in range(0, 6):
        assert sum(1 for _ in rooted_trees(n)) == (n + 1) ** max(n - 1, 0)


@pytest.mark.parametrize("n", range(0, 7))
def test_rooted_trees_are_the_filtered_parent_functions_once_each(n):
    trees = list(rooted_trees(n))
    assert len(trees) == len(set(trees))
    assert sorted(trees) == _filtered_trees(n)


def test_tree_stats():
    star = tuple([0] + [1] * 4)  # vertex 1 under the root, 2..5 hang off 1
    s = tree_stats(star)
    assert s.inversions == 0 and s.leaves == 4
    assert tree_stats((2, 0)) == (1, 1)  # 2 is an ancestor of 1: one inversion
    assert tree_stats((0, 1, 2)).inversions == 0  # increasing path


@pytest.mark.parametrize("n", range(TREES_LIMIT + 1))
def test_tree_sweep_matches_prufer_oracle(n):
    expected = Counter()
    for parent in rooted_trees(n):
        st = tree_stats(parent)
        expected[(st.inversions, st.leaves - 1 if n else 0)] += 1
    assert tree_poly(n, "trees") == BiPoly(expected)
    assert tree_poly(n, "trees").eval_at(1, 1) == (n + 1) ** max(n - 1, 0)


def q_integer(m):
    """1 + q + ... + q^(m-1)."""
    return BiPoly({(e, 0): 1 for e in range(m)})


def tree_polys_by_dicts(limit):
    """Oracle: T_0..T_limit by the recurrence of ``tree_poly`` on dict polynomials,
    T_k = [k]_q T_(k-1) + t sum_(i < k-1) C(k-1, i) [i+1]_q T_i T_(k-1-i)."""
    polys = [BiPoly.one()]
    t = BiPoly.t()
    for k in range(1, limit + 1):
        total = q_integer(k) * polys[k - 1]
        for i in range(k - 1):
            total += t * (math.comb(k - 1, i) * q_integer(i + 1)) * polys[i] * polys[k - 1 - i]
        polys.append(total)
    return polys


def test_tree_poly():
    q, t = BiPoly({(1, 0): 1}), BiPoly.t()
    assert tree_poly(1, "trees") == 1
    assert tree_poly(2, "trees") == 1 + q + t
    assert tree_poly(2).subs_t(1) == 2 + q
    for n in range(TREES_LIMIT + 1):
        assert tree_poly(n, "trees") == tree_poly(n, "recurrence"), n
    with pytest.raises(ValueError):
        tree_poly(3, "guess")
    with pytest.raises(ValueError, match=f"capped at n = {TREES_LIMIT}"):
        tree_poly(TREES_LIMIT + 1, "trees")


def test_packed_recurrence_matches_dict_oracle():
    for n, poly in enumerate(tree_polys_by_dicts(RECURRENCE_LIMIT)):
        assert tree_poly(n) == poly, n
        assert poly.eval_at(1, 1) == genfun._TREE_COUNTS[n] == (n + 1) ** max(n - 1, 0)
    with pytest.raises(ValueError, match=f"capped at n = {RECURRENCE_LIMIT}"):
        tree_poly(RECURRENCE_LIMIT + 1)


@pytest.fixture
def cold_packed_trees():
    """Empties the packed-tree cache before and after, so that no level
    packed at one slot width is read at another."""
    genfun._tree_packed.cache_clear()
    yield
    genfun._tree_packed.cache_clear()


def test_slot_width_is_the_least_whole_bytes_above_the_largest_bound():
    top = genfun._TREE_COUNTS[RECURRENCE_LIMIT]
    assert top < 1 << 8 * genfun._SLOT_BYTES
    assert top >= 1 << 8 * (genfun._SLOT_BYTES - 1)


def test_one_byte_slots_hold_the_levels_whose_bound_fits(monkeypatch, cold_packed_trees):
    monkeypatch.setattr(genfun, "_SLOT_BYTES", 1)
    assert [genfun._TREE_COUNTS[n] for n in range(6)] == [1, 1, 3, 16, 125, 1296]
    for n, poly in enumerate(tree_polys_by_dicts(4)):
        assert tree_poly(n) == poly, n


def test_bound_guard_refuses_a_level_that_cannot_fit(monkeypatch, cold_packed_trees):
    monkeypatch.setattr(genfun, "_SLOT_BYTES", 1)
    with pytest.raises(PackingCheckError, match="N_8 = 4782969 does not fit 8-bit slots"):
        tree_poly(8)
    # N_5 = 1296 is the first bound that needs more than a byte
    with pytest.raises(PackingCheckError, match="N_5 = 1296 does not fit"):
        tree_poly(5)


def test_a_slot_carry_trips_the_coefficient_sum_guard(monkeypatch, cold_packed_trees):
    counts = genfun._TREE_COUNTS
    monkeypatch.setattr(genfun, "_SLOT_BYTES", 1)
    # understated bounds let levels up to 8 past the first guard, so slots carry
    monkeypatch.setattr(genfun, "_TREE_COUNTS", (0,) * len(counts))
    packed = genfun._tree_packed(8)
    monkeypatch.setattr(genfun, "_TREE_COUNTS", counts)
    with pytest.raises(PackingCheckError, match=f"T_8 decodes to coefficient sum .*, not {counts[8]}"):
        genfun._unpack_tree(packed, 8)
    # the true polynomial does not fit: its largest coefficient needs more than a byte
    assert max(c for _, _, c in tree_polys_by_dicts(8)[8].sorted_terms()) > 255


def test_tree_poly_at_minus_one():
    t = BiPoly.t()
    assert tree_poly_at_minus_one(1) == 1
    assert tree_poly_at_minus_one(2) == t
    assert tree_poly_at_minus_one(3) == t + t * t
    assert tree_poly_at_minus_one(4) == 4 * t * t + t * t * t
    for n in range(1, 8):
        assert tree_poly(n).subs_q(-1) == tree_poly_at_minus_one(n), n


def test_parking_poly():
    assert parking_poly(2, "exced") == BiPoly({(0, 0): 1, (1, 0): 1, (0, 1): 1})
    assert parking_poly(2, "exced").subs_q(-1) == BiPoly.t()
    # excedance and outcome-descent distributions agree; the inverse-outcome
    # variant is a genuinely different polynomial that matches the tree sum
    for n in range(1, 6):
        assert parking_poly(n, "exced") == parking_poly(n, "des-oc")
        assert parking_poly(n, "des-oc-inv") == tree_poly(n, "trees")
    assert parking_poly(4, "des-oc") != parking_poly(4, "des-oc-inv")
    with pytest.raises(ValueError):
        parking_poly(2, "area")


def _filtered_parking_sweep(n):
    """(exced, des of outcome, des of inverse outcome) by filtering [n]^n."""
    acc = [Counter(), Counter(), Counter()]
    for prefs in itertools.product(range(1, n + 1), repeat=n):
        if not is_parking_function(prefs):
            continue
        stats = parking_stats(prefs)
        outcome = park(prefs)
        acc[0][(stats.cosum, stats.exced)] += 1
        acc[1][(stats.cosum, outcome.des())] += 1
        acc[2][(stats.cosum, outcome.inverse().des())] += 1
    return tuple(BiPoly(c) for c in acc)


@pytest.mark.parametrize("n", range(7))
def test_parking_sweep_matches_filtered_oracle(n):
    fast = genfun._parking_sweep(n)
    assert fast == _filtered_parking_sweep(n)
    leaves = (n + 1) ** (n - 1) if n else 1
    assert all(poly.eval_at(1, 1) == leaves for poly in fast)


@pytest.mark.parametrize("n", [-1, PARKING_SWEEP_LIMIT + 1])
def test_parking_poly_rejects_sizes_out_of_range(n):
    with pytest.raises(ValueError, match=f"n = {n}"):
        parking_poly(n)


def test_simsun_poly():
    t = BiPoly.t()
    assert simsun_poly(0) == 1
    assert simsun_poly(2) == 1 + t
    assert simsun_poly(3, "brute") == 1 + 4 * t
    for m in range(8):
        assert simsun_poly(m, "brute") == simsun_poly(m, "recurrence"), m


def test_simsun_eulerian():
    t = BiPoly.t()
    assert simsun_eulerian(4) == 4 * t * t + t * t * t
    assert simsun_eulerian(4) == simsun_poly(3).reciprocal_t(3)


def test_verify_simsun_identity():
    r = verify_simsun_identity(3)
    assert r.status == "verified" and r.theorem == "tree-minus-one-is-simsun"
    assert verify_simsun_identity(6).status == "verified"
    assert verify_simsun_identity(1).instances == 1


@pytest.mark.parametrize("n", [-1, 0, 11])
def test_verify_simsun_identity_rejects_sizes_out_of_range(n):
    # n = 0 would check nothing and still report verified
    with pytest.raises(ValueError, match=f"needs 1 <= n <= 10, got n = {n}"):
        verify_simsun_identity(n)


def test_preference_lower_bounds():
    for n in range(1, 6):
        ident = Permutation(range(1, n + 1))
        assert preference_lower_bounds(ident) == (1,) * n
    assert preference_lower_bounds(Permutation((6, 2, 1, 5, 4, 3))) == (6, 2, 1, 5, 4, 1)


def test_lower_bounds_characterize_outcome_fibers():
    # the parking functions with outcome sigma are exactly the box products
    for n in range(1, 5):
        for sigma in perms(n):
            lo = preference_lower_bounds(sigma)
            fiber = set()
            for prefs in itertools.product(range(1, n + 1), repeat=n):
                try:
                    if park(prefs) == sigma:
                        fiber.add(prefs)
                except ParkingFailure:
                    pass
            box = set(itertools.product(*[range(lo[i - 1], sigma(i) + 1)
                                          for i in range(1, n + 1)]))
            assert fiber == box, sigma.one_line


def test_class_membership_small():
    def members(n, in_class):
        return {"".join(map(str, w.one_line)) for w in perms(n) if in_class(w)}

    assert is_alternating(Permutation((1, 2)))
    assert members(3, is_odd_interval_perm) == {"213", "321"}
    assert members(3, is_odd_gap_perm) == {"213", "321"}
    assert members(3, lambda w: _is_jacobi_recursive(w.one_line)) == {"123", "231"}
    assert members(3, is_alternating) == {"132", "231"}


def test_odd_gaps_are_inverses_of_odd_intervals():
    for n in range(1, 6):
        gaps = {w.one_line for w in perms(n) if is_odd_gap_perm(w)}
        via_inverse = {w.inverse().one_line for w in perms(n) if is_odd_interval_perm(w)}
        assert gaps == via_inverse, n


def _standardize(word):
    ranks = {v: i for i, v in enumerate(sorted(word), start=1)}
    return tuple(ranks[v] for v in word)


def _is_jacobi_standardized(word):
    """Oracle: the Jacobi recursion with each side standardized first."""
    if not word:
        return True
    p = word.index(min(word))
    return p % 2 == 0 and _is_jacobi_standardized(_standardize(word[:p])) \
        and _is_jacobi_standardized(_standardize(word[p + 1:]))


def test_jacobi_recursion_needs_no_standardized_sides():
    assert _standardize((5, 2, 9)) == (2, 1, 3)
    for n in range(8):
        for w in perms(n):
            assert _is_jacobi_recursive(w.one_line) == _is_jacobi_standardized(w.one_line), w
    # and on words that are not permutations
    for word in itertools.permutations((2, 9, 4, 7, 5, 11)):
        assert _is_jacobi_recursive(word) == _is_jacobi_standardized(_standardize(word)), word


def test_complement_swaps_gap_and_jacobi_classes():
    for n in range(1, 6):
        jac = {w.one_line for w in perms(n) if _is_jacobi_recursive(w.one_line)}
        flipped = {complement_perm(w).one_line for w in perms(n) if is_odd_gap_perm(w)}
        assert jac == flipped, n


def test_blocking_positions():
    assert blocking_positions(Permutation((1, 2, 3))) == (0, 0, 0)
    assert blocking_positions(Permutation((3, 1, 2))) == (0, 1, 1)


def jacobi_poly(n):
    """Oracle: sum of t^(des of the inverse) over the Jacobi permutations of [n]."""
    return BiPoly(Counter((0, w.inverse().des()) for w in perms(n)
                          if _is_jacobi_recursive(w.one_line)))


def test_jacobi_and_zigzag_polys():
    t = BiPoly.t()
    assert jacobi_poly(3) == 1 + t
    assert zigzag_poly(2) == t
    assert zigzag_poly(3) == t + t * t
    j4 = jacobi_poly(4)
    assert j4 == 1 + 3 * t + t * t
    assert j4 == j4.reciprocal_t(2)  # palindromic of degree n - 2
    with pytest.raises(ValueError):
        zigzag_poly(11)


def test_verify_alternating_identity():
    for n in (2, 3, 5):
        r = verify_alternating_identity(n)
        assert r.status == "verified", r.witness
        assert r.theorem == "parking-minus-one-is-zigzag"


@pytest.mark.parametrize("n", [1, PARKING_SWEEP_LIMIT + 1])
def test_verify_alternating_identity_names_its_own_range(n):
    with pytest.raises(ValueError) as err:
        verify_alternating_identity(n)
    assert str(err.value) == (
        f"alternating identity needs 2 <= n <= {PARKING_SWEEP_LIMIT}, got n = {n}")


def test_alternating_identity_walks_s_n_once_besides_zigzag(monkeypatch):
    # one pass over S_n sorts out the odd-interval, odd-gap and Jacobi classes;
    # zigzag_poly, the independent right-hand side, makes the other walk
    walks = []
    permutations = itertools.permutations

    def counting(values):
        walks.append(tuple(values))
        return permutations(walks[-1])

    monkeypatch.setattr(genfun.itertools, "permutations", counting)
    genfun.zigzag_poly(5)
    assert walks == [(1, 2, 3, 4, 5)]
    walks.clear()
    assert verify_alternating_identity(5).status == "verified"
    assert walks == [(1, 2, 3, 4, 5)] * 2
