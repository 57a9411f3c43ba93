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
    complement_perm,
    parking_poly,
    TREES_LIMIT,
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


def test_tree_sweep_matches_the_recurrence_past_the_limit():
    # one size beyond what criterion 7 and the Prufer oracle reach
    assert BiPoly(genfun._tree_sweep(TREES_LIMIT + 1)) == tree_poly(TREES_LIMIT + 1, "recurrence")


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


def test_negative_sizes_are_rejected():
    # n = 0 keeps its value: one tree, and the empty alternating permutation
    assert tree_poly_at_minus_one(0) == 1
    assert zigzag_poly(0) == BiPoly.t()
    for n in (-1, -2):
        with pytest.raises(ValueError, match=f"need n >= 0, got n = {n}"):
            tree_poly_at_minus_one(n)
        with pytest.raises(ValueError, match=f"need n >= 0, got n = {n}"):
            zigzag_poly(n)


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


def _parking_dfs(n):
    """(exced, des of outcome, des of inverse outcome) by a depth-first pass
    over all parking functions, built car by car.

    A car parks exactly when it prefers a spot no higher than the highest
    free one, so every leaf is a parking function.  Each node carries the
    preference sum, the excedances and both descent counts of its prefix.
    """
    acc = [Counter(), Counter(), Counter()]
    top_cosum = n * (n + 1) // 2

    def rec(car, free, prev, total, exc, des, inv):
        if car > n:
            cosum = top_cosum - total
            for a, stat in zip(acc, (exc, des, inv)):
                a[(cosum, stat)] += 1
            return
        for p in range(1, free.bit_length()):
            above = free >> p << p
            s = (above & -above).bit_length() - 1  # first free spot >= p
            rec(car + 1, free ^ 1 << s, s, total + p, exc + (p > car),
                des + (prev > s), inv + (s < n and not free >> s + 1 & 1))

    rec(1, (1 << n + 1) - 2, 0, 0, 0, 0, 0)
    return tuple(BiPoly(a) for a in acc)


def test_parking_dp_matches_depth_first_oracle():
    # the filtered oracle covers n <= 6; the depth-first sweep reaches the limit
    n = PARKING_SWEEP_LIMIT
    assert genfun._parking_sweep(n) == _parking_dfs(n)
    assert _parking_dfs(5) == _filtered_parking_sweep(5)


@pytest.mark.parametrize("n", [-1, PARKING_SWEEP_LIMIT + 1])
def test_parking_poly_rejects_sizes_out_of_range(n):
    with pytest.raises(ValueError, match=f"n = {n}"):
        parking_poly(n)


def has_double_descent(word):
    return any(word[i - 1] > word[i] > word[i + 1] for i in range(1, len(word) - 1))


def is_simsun(w):
    """Oracle: no initial-value-range restriction of w has a double descent."""
    for j in range(1, w.n + 1):
        if has_double_descent(tuple(v for v in w.one_line if v <= j)):
            return False
    return True


def test_simsun_poly():
    t = BiPoly.t()
    assert simsun_poly(0) == 1
    assert simsun_poly(2) == 1 + t
    assert simsun_poly(3, "walk") == 1 + 4 * t
    for m in range(10):
        assert simsun_poly(m, "walk") == simsun_poly(m, "recurrence"), m
    with pytest.raises(ValueError, match="capped at m = 10"):
        simsun_poly(11, "walk")
    with pytest.raises(ValueError, match="need m >= 0, got m = -1"):
        simsun_poly(-1)
    with pytest.raises(ValueError):
        simsun_poly(3, "brute")


@pytest.mark.parametrize("m", range(9))
def test_simsun_walk_matches_filtered_oracle(m):
    filtered = BiPoly(Counter((0, w.des()) for w in perms(m) if is_simsun(w)))
    assert simsun_poly(m, "walk") == filtered


def test_verify_simsun_identity_walks_every_m_below_n(monkeypatch):
    walked = []
    walk = genfun._simsun_walk
    monkeypatch.setattr(genfun, "_simsun_walk", lambda m: walked.append(m) or walk(m))
    assert verify_simsun_identity(9).status == "verified"
    assert walked == list(range(9))


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


def preference_lower_bounds(sigma):
    """Oracle: entry i is one more than the largest value below sigma(i)
    (zero allowed) that is not among sigma(1..i-1)."""
    used = set()
    out = []
    for target in sigma.one_line:
        r = target - 1
        while r in used:
            r -= 1
        out.append(r + 1)
        used.add(target)
    return tuple(out)


def blocking_positions(tau):
    """Oracle: for each position p, the rightmost earlier position holding a larger value, or 0."""
    out = []
    for p in range(1, tau.n + 1):
        best = 0
        for j in range(1, p):
            if tau(j) > tau(p):
                best = j
        out.append(best)
    return tuple(out)


def is_odd_interval_perm(sigma):
    """Oracle: sigma(i) and its preference lower bound always share parity."""
    bounds = preference_lower_bounds(sigma)
    return all(sigma(i) % 2 == bounds[i - 1] % 2 for i in range(1, sigma.n + 1))


def is_odd_gap_perm(tau):
    """Oracle: every position sits an odd distance after its blocking position."""
    blocks = blocking_positions(tau)
    return all((p - blocks[p - 1]) % 2 == 1 for p in range(1, tau.n + 1))


def _is_jacobi_recursive(word):
    """The Jacobi class: the minimum sits at an odd position (counting from
    1), and the words left and right of it, standardized, are Jacobi.

    ``word`` has distinct letters.  The test reads only where minima sit,
    which standardizing does not move, so the sides recurse as they are.
    """
    if not word:
        return True
    p = word.index(min(word))
    if p % 2 == 1:
        return False
    return _is_jacobi_recursive(word[:p]) and _is_jacobi_recursive(word[p + 1:])


def is_alternating(w):
    """Oracle: up-down, with rises at odd positions and falls at even ones."""
    for i in range(1, w.n):
        if i % 2 == 1:
            if not w(i) < w(i + 1):
                return False
        elif not w(i) > w(i + 1):
            return False
    return True


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


@pytest.mark.parametrize("n", range(8))
def test_class_walks_match_filtered_oracles(n):
    for step, in_class in ((genfun._odd_interval_step, is_odd_interval_perm),
                           (genfun._odd_gap_step, is_odd_gap_perm),
                           (genfun._alternating_step, is_alternating)):
        assert genfun._prefix_walk(n, step) == [w.one_line for w in perms(n) if in_class(w)]
    jacobi = genfun._jacobi_words(tuple(range(1, n + 1)))
    assert len(jacobi) == len(set(jacobi))
    assert set(jacobi) == {w.one_line for w in perms(n) if _is_jacobi_recursive(w.one_line)}
    assert zigzag_poly(n) == BiPoly(Counter((0, w.inverse().big_descent_count() + 1)
                                            for w in perms(n) if is_alternating(w)))


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


def test_alternating_identity_and_zigzag_never_walk_s_n(monkeypatch):
    # every class comes from its own walk; no filter over S_n is left
    def refuse(*args):
        raise AssertionError("itertools.permutations called")

    monkeypatch.setattr(itertools, "permutations", refuse)
    assert zigzag_poly(7).eval_at(1, 1) == 272  # the Euler number E_7
    assert verify_alternating_identity(7).status == "verified"

