"""Generating polynomials for trees and parking functions, and their
specializations at q = -1 in terms of simsun, alternating, and Jacobi
permutations.

All polynomials are exact BiPoly values; q = -1 substitution is symbolic.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache

from .core import BiPoly, Permutation
from .report import COUNTEREXAMPLE, VERIFIED, Report

TREES_LIMIT = 7
RECURRENCE_LIMIT = 20
MINUS_ONE_LIMIT = 30
SIMSUN_BRUTE_LIMIT = 9
PARKING_SWEEP_LIMIT = 7


# -- rooted trees -----------------------------------------------------------


def _tree_sweep(n: int) -> Counter:
    """(inversions, leaves - 1) over the trees on {0..n} rooted at 0.

    Builds each tree once, by giving the vertices children sets in
    breadth-first order: the root first, then each vertex's children in
    increasing order.  An inversion is a vertex below a larger ancestor, so
    a child adds its larger ancestors, read off its parent's ancestor mask.
    A vertex that gets no children is a leaf.  While vertices remain
    unplaced, the last vertex in the queue must take children, so no branch
    dies, and once all are placed every vertex still queued is a leaf.  The
    tests compare it with a sum over decoded Prufer sequences.
    """
    acc: Counter = Counter()
    bits = [tuple(v for v in range(n + 1) if m >> v & 1) for m in range(1 << n + 1)]
    above = [0] * (n + 1)  # above[v]: v and its ancestors, as a bitmask
    queue = [0]

    def rec(qi: int, unplaced: int, inv: int, leaves: int) -> None:
        if not unplaced:
            # the vertices from queue[qi] on are leaves; the exponent is leaves - 1
            acc[(inv, leaves + len(queue) - qi - 1)] += 1
            return
        x = queue[qi]
        mask = above[x]
        if qi + 1 < len(queue):  # x may stay a leaf: a later vertex can take children
            rec(qi + 1, unplaced, inv, leaves + 1)
        kids = unplaced
        while kids:
            added = 0
            for c in bits[kids]:
                above[c] = mask | 1 << c
                added += (mask >> c + 1).bit_count()
            queue.extend(bits[kids])
            rec(qi + 1, unplaced ^ kids, inv + added, leaves)
            del queue[len(queue) - len(bits[kids]):]
            kids = (kids - 1) & unplaced

    above[0] = 1
    rec(0, (1 << n + 1) - 2, 0, 0)
    return acc


class PackingCheckError(RuntimeError):
    """A packed tree polynomial does not fit its slots, or decodes to the wrong count."""


def _tree_counts(limit: int) -> tuple[int, ...]:
    """N_0..N_limit: the tree recurrence at q = t = 1, on plain ints.

    Every term of the recurrence is nonnegative, so N_k bounds each
    coefficient of T_k and of every partial sum that builds it.
    """
    counts = [1]
    for k in range(1, limit + 1):
        counts.append(k * counts[k - 1] + sum(
            math.comb(k - 1, i) * (i + 1) * counts[i] * counts[k - 1 - i]
            for i in range(k - 1)))
    return tuple(counts)


_TREE_COUNTS = _tree_counts(RECURRENCE_LIMIT)
# q^a t^b of a packed T_k sits in slot a * _T_SLOTS + b; the t-degree of
# T_k and of every product it is built from stays below k <= RECURRENCE_LIMIT
_T_SLOTS = RECURRENCE_LIMIT + 1
# whole bytes per slot, enough for N_RECURRENCE_LIMIT
_SLOT_BYTES = _TREE_COUNTS[-1].bit_length() // 8 + 1


def tree_poly(n: int, method: str = "recurrence") -> BiPoly:
    """The inversion/leaf enumerator over rooted trees on {0..n}.

    trees: direct sum of q^inv t^(leaves - 1).  recurrence: the convolution
    identity splitting at the subtree of vertex n, on packed ints (both
    must agree, which the test suite checks on the overlap range).
    """
    if n < 0:
        raise ValueError(f"tree polynomials need n >= 0, got n = {n}")
    if method == "trees":
        if n > TREES_LIMIT:
            raise ValueError(f"tree enumeration capped at n = {TREES_LIMIT}")
        return BiPoly(_tree_sweep(n))
    if method == "recurrence":
        if n > RECURRENCE_LIMIT:
            raise ValueError(f"recurrence capped at n = {RECURRENCE_LIMIT}")
        return _unpack_tree(_tree_packed(n), n)
    raise ValueError(f"unknown method {method!r}")


@lru_cache(maxsize=None)
def _tree_packed(k: int) -> int:
    """T_k = [k]_q T_(k-1) + t sum_(i < k-1) C(k-1, i) [i+1]_q T_i T_(k-1-i),
    evaluated exactly at q = 2^(bits * _T_SLOTS), t = 2^bits.

    The terms i and k-1-i share one product.  The q-integers are applied
    as shifted adds, sum_i [i+1]_q P_i = sum_a q^a sum_(i >= a) P_i, never
    as a packed factor.  No slot carries while N_k fits a slot, since N_k
    bounds every coefficient on the way.
    """
    bits = 8 * _SLOT_BYTES
    if _TREE_COUNTS[k] >> bits:
        raise PackingCheckError(
            f"the bound N_{k} = {_TREE_COUNTS[k]} does not fit {bits}-bit slots")
    if k == 0:
        return 1
    q_shift = bits * _T_SLOTS
    prev = _tree_packed(k - 1)
    products = [prev] + [0] * (k - 2)  # P_i = C(k-1, i) T_i T_(k-1-i); P_0 = T_(k-1)
    for i in range(1, (k + 1) // 2):
        products[i] = products[k - 1 - i] = \
            math.comb(k - 1, i) * (_tree_packed(i) * _tree_packed(k - 1 - i))
    total = suffix = 0
    for a in range(k - 2, -1, -1):
        suffix += products[a]
        total += suffix << a * q_shift
    total <<= bits
    for a in range(k):
        total += prev << a * q_shift
    return total


def _unpack_tree(packed: int, n: int) -> BiPoly:
    """Read T_n's coefficients back from its packed int, slot by slot.

    A carry between slots changes the coefficient sum, so the sum must be N_n.
    """
    width = _SLOT_BYTES
    raw = packed.to_bytes(-(-packed.bit_length() // (8 * width)) * width, "little")
    terms = {}
    for slot, start in enumerate(range(0, len(raw), width)):
        c = int.from_bytes(raw[start:start + width], "little")
        if c:
            terms[divmod(slot, _T_SLOTS)] = c
    if sum(terms.values()) != _TREE_COUNTS[n]:
        raise PackingCheckError(
            f"T_{n} decodes to coefficient sum {sum(terms.values())}, not {_TREE_COUNTS[n]}")
    return BiPoly(terms)


@lru_cache(maxsize=None)
def tree_poly_at_minus_one(n: int) -> BiPoly:
    """The q = -1 value via the parity-collapsed recurrence (even split sizes only)."""
    if n > MINUS_ONE_LIMIT:
        raise ValueError(f"q = -1 recurrence capped at n = {MINUS_ONE_LIMIT}")
    if n == 0:
        return BiPoly.one()
    total = tree_poly_at_minus_one(n - 1) if n % 2 == 1 else BiPoly()
    t = BiPoly.t()
    for i in range(0, n - 1, 2):
        total += (math.comb(n - 1, i) * t
                  * tree_poly_at_minus_one(i) * tree_poly_at_minus_one(n - 1 - i))
    return total


# -- parking-side polynomials ------------------------------------------------


@lru_cache(maxsize=None)
def _parking_sweep(n: int) -> tuple[BiPoly, BiPoly, BiPoly]:
    """One pass over all parking functions: (exced, des of outcome, des of inverse outcome).

    Builds the preference sequences car by car.  A car parks exactly when
    it prefers a spot no higher than the highest free one, so every leaf is
    a parking function and nothing is rejected.  Each node carries the
    preference sum, the excedances and both descent counts of its prefix:
    the outcome gains a descent when a car parks left of the previous car,
    its inverse when a car takes spot s while s + 1 is already occupied.
    The tests compare it with the same sum over the parking functions
    filtered from all of [n]^n, through ``parking_stats`` and ``park``.
    """
    acc_exc: Counter = Counter()
    acc_des: Counter = Counter()
    acc_inv: Counter = Counter()
    top_cosum = n * (n + 1) // 2
    free_all = (1 << n + 1) - 2  # bits 1..n

    def rec(car: int, free: int, prev: int, total: int, exc: int, des: int, inv: int) -> None:
        if car > n:
            cosum = top_cosum - total
            acc_exc[(cosum, exc)] += 1
            acc_des[(cosum, des)] += 1
            acc_inv[(cosum, inv)] += 1
            return
        for p in range(1, free.bit_length()):
            above = free >> p << p
            s = (above & -above).bit_length() - 1  # first free spot >= p
            rec(car + 1, free ^ 1 << s, s, total + p, exc + (p > car),
                des + (prev > s), inv + (s < n and not free >> s + 1 & 1))

    rec(1, free_all, 0, 0, 0, 0, 0)
    return BiPoly(acc_exc), BiPoly(acc_des), BiPoly(acc_inv)


_PARKING_STATS = {"exced": 0, "des-oc": 1, "des-oc-inv": 2}


def parking_poly(n: int, stat: str = "exced") -> BiPoly:
    """Sum of q^cosum t^stat over parking functions of length n."""
    try:
        idx = _PARKING_STATS[stat]
    except KeyError:
        raise ValueError(f"unknown statistic {stat!r}") from None
    if not 0 <= n <= PARKING_SWEEP_LIMIT:
        raise ValueError(
            f"parking polynomials need 0 <= n <= {PARKING_SWEEP_LIMIT}, got n = {n}")
    return _parking_sweep(n)[idx]


# -- simsun permutations -----------------------------------------------------


def has_double_descent(word: tuple[int, ...]) -> bool:
    return any(word[i - 1] > word[i] > word[i + 1] for i in range(1, len(word) - 1))


def is_simsun(w: Permutation) -> bool:
    """No initial-value-range restriction of w has a double descent."""
    for j in range(1, w.n + 1):
        filtered = tuple(v for v in w.one_line if v <= j)
        if has_double_descent(filtered):
            return False
    return True


def simsun_poly(m: int, method: str = "recurrence") -> BiPoly:
    """Descent enumerator of simsun permutations of [m], in the t variable."""
    if method == "brute":
        if m > SIMSUN_BRUTE_LIMIT:
            raise ValueError(f"brute force capped at m = {SIMSUN_BRUTE_LIMIT}")
        acc: Counter = Counter()
        for perm in itertools.permutations(range(1, m + 1)):
            w = Permutation(perm)
            if is_simsun(w):
                acc[(0, w.des())] += 1
        return BiPoly(acc)
    if method == "recurrence":
        return _simsun_rec(m)
    raise ValueError(f"unknown method {method!r}")


@lru_cache(maxsize=None)
def _simsun_rec(m: int) -> BiPoly:
    if m == 0:
        return BiPoly.one()
    prev = _simsun_rec(m - 1)
    t = BiPoly.t()
    return (1 + (m - 1) * t) * prev + t * (1 - 2 * t) * prev.deriv_t()


def simsun_eulerian(n: int) -> BiPoly:
    """The reciprocal form t^(n-1) R_(n-1)(1/t): descents counted from the top."""
    if n < 1:
        raise ValueError("defined for n >= 1")
    return simsun_poly(n - 1).reciprocal_t(n - 1)


def verify_simsun_identity(n: int) -> Report:
    """The q = -1 tree polynomial against simsun descent enumerators, through size n.

    Checks, for every k <= n: the parity-collapsed recurrence equals the
    full recurrence at q = -1 and equals t^(k-1) R_(k-1)(1/t); the reversed
    enumerator satisfies its own derivative recurrence; and R from brute
    force matches R from the derivative recurrence wherever brute force is
    feasible.
    """
    if not 1 <= n <= 10:
        raise ValueError(f"simsun verification needs 1 <= n <= 10, got n = {n}")
    name = "tree-minus-one-is-simsun"
    t = BiPoly.t()
    instances = 0
    rhs = simsun_eulerian(1)
    for k in range(1, n + 1):
        lhs = tree_poly_at_minus_one(k)
        if lhs != tree_poly(k, "recurrence").subs_q(-1):
            return Report(name, instances, COUNTEREXAMPLE,
                          {"n": k, "defect": "parity recurrence vs q = -1 substitution"})
        if lhs != rhs:
            return Report(name, instances, COUNTEREXAMPLE,
                          {"n": k, "defect": "tree side vs simsun side",
                           "tree_side": lhs.to_json_terms(), "simsun_side": rhs.to_json_terms()})
        if k - 1 <= SIMSUN_BRUTE_LIMIT - 1 and simsun_poly(k - 1, "brute") != simsun_poly(k - 1):
            return Report(name, instances, COUNTEREXAMPLE,
                          {"m": k - 1, "defect": "simsun brute vs recurrence"})
        # the reciprocal-side recurrence, symbolically; its left side is the
        # next round's simsun side
        if k < n:
            a_k, rhs = rhs, simsun_eulerian(k + 1)
            if rhs != (1 + k * (t - 1)) * a_k + t * (2 - t) * a_k.deriv_t():
                return Report(name, instances, COUNTEREXAMPLE,
                              {"n": k, "defect": "reciprocal recurrence"})
        instances += 1
    return Report(name, instances, VERIFIED)


# -- permutation classes for the alternating identity ------------------------


def preference_lower_bounds(sigma: Permutation) -> tuple[int, ...]:
    """Minimum preference each car can have and still park in its outcome spot.

    Entry i is one more than the largest value below sigma(i) (zero
    allowed) that is not among sigma(1..i-1).  A preference sequence parks
    to outcome sigma exactly when every entry lies between this bound and
    sigma(i), which the tests confirm by brute force.
    """
    used: set[int] = set()
    out = []
    for i in range(1, sigma.n + 1):
        target = sigma(i)
        r = target - 1
        while r in used:
            r -= 1
        out.append(r + 1)
        used.add(target)
    return tuple(out)


def blocking_positions(tau: Permutation) -> tuple[int, ...]:
    """For each position p: the rightmost earlier position holding a larger value, or 0."""
    out = []
    for p in range(1, tau.n + 1):
        best = 0
        for j in range(1, p):
            if tau(j) > tau(p):
                best = j
        out.append(best)
    return tuple(out)


def complement_perm(w: Permutation) -> Permutation:
    return Permutation(w.n + 1 - w(i) for i in range(1, w.n + 1))


def is_odd_interval_perm(sigma: Permutation) -> bool:
    """sigma(i) and its preference lower bound always share parity."""
    bounds = preference_lower_bounds(sigma)
    return all(sigma(i) % 2 == bounds[i - 1] % 2 for i in range(1, sigma.n + 1))


def is_odd_gap_perm(tau: Permutation) -> bool:
    """Every position sits an odd distance after its blocking position."""
    blocks = blocking_positions(tau)
    return all((p - blocks[p - 1]) % 2 == 1 for p in range(1, tau.n + 1))


def _is_jacobi_recursive(word: tuple[int, ...]) -> bool:
    """Jacobi: the minimum sits at an odd position (counting from 1), and
    the words left and right of it, standardized, are Jacobi.

    ``word`` has distinct letters.  The test reads only where minima sit,
    which standardizing does not move, so the sides recurse as they are.
    """
    if not word:
        return True
    p = word.index(min(word))
    if p % 2 == 1:
        return False
    return _is_jacobi_recursive(word[:p]) and _is_jacobi_recursive(word[p + 1:])


def is_alternating(w: Permutation) -> bool:
    """Up-down: rises at odd positions, falls at even ones."""
    for i in range(1, w.n):
        if i % 2 == 1:
            if not w(i) < w(i + 1):
                return False
        elif not w(i) > w(i + 1):
            return False
    return True


def zigzag_poly(n: int) -> BiPoly:
    """Big descents of inverses over up-down alternating permutations, shifted by one.

    It factors as t times the Jacobi polynomial, with the Jacobi factor
    palindromic of degree n - 2; ``verify_alternating_identity`` checks both.
    """
    if n > 10:
        raise ValueError("zigzag enumeration capped at n = 10")
    acc: Counter = Counter()
    for perm in itertools.permutations(range(1, n + 1)):
        w = Permutation(perm)
        if is_alternating(w):
            acc[(0, w.inverse().big_descent_count() + 1)] += 1
    return BiPoly(acc)


def _is_palindromic(p: BiPoly, degree: int) -> bool:
    try:
        return p == p.reciprocal_t(degree)
    except ValueError:  # t-degree above ``degree``
        return False


def verify_alternating_identity(n: int) -> Report:
    """The q = -1 parking polynomial equals the zigzag polynomial, with all
    intermediate steps of the derivation checked on the way.
    """
    name = "parking-minus-one-is-zigzag"
    if not 2 <= n <= PARKING_SWEEP_LIMIT:
        raise ValueError(
            f"alternating identity needs 2 <= n <= {PARKING_SWEEP_LIMIT}, got n = {n}")
    lhs = parking_poly(n, "exced").subs_q(-1)
    # one pass over S_n sorts out all three classes and keeps only their members
    odd_intervals, odd_gaps, jacobi = [], [], []
    for w in map(Permutation, itertools.permutations(range(1, n + 1))):
        if is_odd_interval_perm(w):
            odd_intervals.append(w)
        if is_odd_gap_perm(w):
            odd_gaps.append(w)
        if _is_jacobi_recursive(w.one_line):
            jacobi.append(w)

    by_descents = BiPoly(Counter((0, s.des()) for s in odd_intervals))
    if lhs != by_descents:
        return Report(name, 0, COUNTEREXAMPLE,
                      {"n": n, "defect": "grouping by outcome",
                       "parking_side": lhs.to_json_terms(),
                       "outcome_side": by_descents.to_json_terms()})

    if {s.inverse().one_line for s in odd_intervals} != {w.one_line for w in odd_gaps}:
        return Report(name, 0, COUNTEREXAMPLE, {"n": n, "defect": "inverse class mismatch"})
    if {complement_perm(w).one_line for w in odd_gaps} != {w.one_line for w in jacobi}:
        return Report(name, 0, COUNTEREXAMPLE, {"n": n, "defect": "complement class mismatch"})

    rhs = zigzag_poly(n)
    jac = BiPoly(Counter((0, w.inverse().des()) for w in jacobi))
    if rhs != BiPoly.t() * jac:
        return Report(name, 0, COUNTEREXAMPLE,
                      {"n": n, "defect": "zigzag is not t times Jacobi",
                       "zigzag_side": rhs.to_json_terms(), "jacobi": jac.to_json_terms()})
    if not _is_palindromic(jac, n - 2):
        return Report(name, 0, COUNTEREXAMPLE,
                      {"n": n, "defect": "Jacobi polynomial not palindromic",
                       "jacobi": jac.to_json_terms()})
    if lhs != rhs:
        return Report(name, 0, COUNTEREXAMPLE,
                      {"n": n, "defect": "zigzag side",
                       "parking_side": lhs.to_json_terms(), "zigzag_side": rhs.to_json_terms()})
    return Report(name, len(odd_intervals) + 1, VERIFIED)
