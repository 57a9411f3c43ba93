"""Generating polynomials for trees and parking functions, and their
specializations at q = -1 in terms of simsun, alternating, and Jacobi
permutations.

All polynomials are exact BiPoly values; q = -1 substitution is symbolic.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Callable
from functools import lru_cache

from .core import BiPoly, Permutation
from .report import COUNTEREXAMPLE, VERIFIED, Report

TREES_LIMIT = 7
RECURRENCE_LIMIT = 20
MINUS_ONE_LIMIT = 30
PARKING_SWEEP_LIMIT = 7
SIMSUN_WALK_LIMIT = 10
SIMSUN_IDENTITY_LIMIT = 10
ZIGZAG_LIMIT = 10


# -- rooted trees -----------------------------------------------------------


def _tree_sweep(n: int) -> Counter:
    """(inversions, leaves - 1) over the trees on {0..n} rooted at 0.

    Builds each tree once, by giving the vertices children sets in
    breadth-first order: the root first, then each vertex's children in
    increasing order.  An inversion is a vertex below a larger ancestor, so
    a child adds its larger ancestors, read off its parent's ancestor mask.
    A vertex that gets no children is a leaf.  While vertices remain
    unplaced, the last vertex in the queue must take children, so no branch
    dies, and once all are placed every vertex still queued is a leaf.

    What can still happen depends only on the unplaced set U and, for each
    queued vertex y, the number of y's ancestors (y included) above each
    c in U: a child c of y adds that many inversions, and its own counts
    are y's plus one below c.  The completions do not depend on the queue
    order, so they merge on (U, the sorted counts of the queue).  Each
    state's completions are one packed int, q^inv t^(leaves - 1) in slot
    inv * (n + 1) + leaves - 1; no slot carries, since each of the n
    non-root vertices picks one of n + 1 parents, so at most (n + 1)^n
    trees extend any state.  The tests compare it with a sum over decoded
    Prufer sequences.
    """
    width = ((n + 1) ** n).bit_length()  # bits per slot
    inv_shift = (n + 1) * width
    bits = [tuple(v for v in range(n + 1) if m >> v & 1) for m in range(1 << n + 1)]
    above = [0] * (n + 1)  # above[v]: v and its ancestors, as a bitmask
    queue = [0]
    memo: dict[tuple[int, tuple[tuple[int, ...], ...]], int] = {}

    def rec(qi: int, unplaced: int) -> int:
        if not unplaced:
            # the vertices from queue[qi] on are leaves; the exponent is leaves - 1
            return 1 << (len(queue) - qi - 1) * width
        rest = bits[unplaced]
        key = (unplaced, tuple(sorted(
            tuple((above[y] >> c + 1).bit_count() for c in rest) for y in queue[qi:])))
        total = memo.get(key)
        if total is not None:
            return total
        total = 0
        x = queue[qi]
        mask = above[x]
        if qi + 1 < len(queue):  # x may stay a leaf: a later vertex can take children
            total = rec(qi + 1, unplaced) << width
        kids = unplaced
        while kids:
            added = 0
            for c in bits[kids]:
                above[c] = mask | 1 << c
                added += (mask >> c + 1).bit_count()
            queue.extend(bits[kids])
            total += rec(qi + 1, unplaced ^ kids) << added * inv_shift
            del queue[len(queue) - len(bits[kids]):]
            kids = (kids - 1) & unplaced
        memo[key] = total
        return total

    above[0] = 1
    packed = rec(0, (1 << n + 1) - 2)
    rec = None  # rec's closure holds rec, and with it every table of the walk
    memo.clear()
    acc: Counter = Counter()
    slot_mask = (1 << width) - 1
    for slot in range(-(-packed.bit_length() // width)):
        count = packed >> slot * width & slot_mask
        if count:
            acc[divmod(slot, n + 1)] = count
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
    if n < 0:
        raise ValueError(f"q = -1 tree polynomials need n >= 0, got n = {n}")
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


def _shift_into(acc: dict, src: dict, shift: int) -> None:
    for key, count in src.items():
        key += shift
        acc[key] = acc.get(key, 0) + count


@lru_cache(maxsize=None)
def _parking_sweep(n: int) -> tuple[BiPoly, BiPoly, BiPoly]:
    """(exced, des of outcome, des of inverse outcome) over all parking
    functions, by a dynamic program with one layer per car.

    A car parks exactly when it prefers a spot no higher than the highest
    free one, and takes the first free spot from there on.  So the cars
    that park at a free spot s are those that prefer r + 1..s, with r the
    highest free spot below s (or 0).  What a car adds depends only on the
    free spots, the last car's spot and its own preference: an excedance
    when car i prefers a spot above i, an outcome descent when it parks
    left of the last car, and an inverse-outcome descent when it takes spot
    s while s + 1 is already occupied.  So prefixes merge on the state
    (free-spot mask, last spot), which carries the three marginals keyed
    cosum * (n + 1) + statistic.  The spots sum to n(n + 1)/2, so a car
    that prefers p and parks at s adds s - p to the cosum.  The tests
    compare it with the car-by-car depth-first sweep at n = 7 and with the
    parking functions filtered from [n]^n for n <= 6.
    """
    width = n + 1  # statistic slots per cosum
    layer = {((1 << n + 1) - 2, 0): ({0: 1}, {0: 1}, {0: 1})}  # free spots 1..n
    for car in range(1, n + 1):
        merged: dict = {}
        for (free, last), (exc, des, inv) in layer.items():
            below = 0  # the highest free spot below s
            for s in range(1, free.bit_length()):
                if not free >> s & 1:
                    continue
                to_exc, to_des, to_inv = merged.setdefault((free ^ 1 << s, s), ({}, {}, {}))
                des_step = last > s
                inv_step = s < n and not free >> s + 1 & 1
                for p in range(below + 1, s + 1):
                    shift = (s - p) * width
                    _shift_into(to_exc, exc, shift + (p > car))
                    _shift_into(to_des, des, shift + des_step)
                    _shift_into(to_inv, inv, shift + inv_step)
                below = s
        layer = merged
    totals: tuple[Counter, Counter, Counter] = (Counter(), Counter(), Counter())
    for marginals in layer.values():
        for total, marginal in zip(totals, marginals):
            for key, count in marginal.items():
                total[divmod(key, width)] += count
    return tuple(BiPoly(total) for total in totals)


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


def _simsun_walk(m: int) -> BiPoly:
    """Descent enumerator of the simsun permutations of [m], by insertion.

    w is simsun when its restriction to [j] has no double descent for any
    j.  Inserting j, the largest letter, into a simsun word on [j - 1] can
    only make the double descent j > w[p] > w[p + 1], so letter j may go
    anywhere except directly before a descent.  It adds a descent at the
    front of a nonempty word and inside an ascent, and none at the end or
    inside a descent.  The tests compare it with the simsun permutations
    filtered from S_m.
    """
    acc: Counter = Counter()
    word: list[int] = []

    def rec(j: int, des: int) -> None:
        if j > m:
            acc[(0, des)] += 1
            return
        end = j - 1  # word holds 1..j-1; slot p puts j before word[p]
        for p in range(j):
            if p < end - 1 and word[p] > word[p + 1]:
                continue  # directly before a descent
            if p == end:
                step = 0
            elif p == 0:
                step = 1
            else:
                step = word[p - 1] < word[p]
            word.insert(p, j)
            rec(j + 1, des + step)
            del word[p]

    rec(1, 0)
    rec = None  # rec's closure holds rec, and with it the walk's word
    return BiPoly(acc)


def simsun_poly(m: int, method: str = "recurrence") -> BiPoly:
    """Descent enumerator of simsun permutations of [m], in the t variable.

    walk: insertion over the simsun permutations themselves.  recurrence:
    the derivative recurrence (both must agree, which
    ``verify_simsun_identity`` checks for every m it reaches).
    """
    if m < 0:
        raise ValueError(f"simsun polynomials need m >= 0, got m = {m}")
    if method == "walk":
        if m > SIMSUN_WALK_LIMIT:
            raise ValueError(f"simsun walk capped at m = {SIMSUN_WALK_LIMIT}")
        return _simsun_walk(m)
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
    enumerator satisfies its own derivative recurrence; and R from the
    insertion walk matches R from the derivative recurrence.
    """
    if not 1 <= n <= SIMSUN_IDENTITY_LIMIT:
        raise ValueError(
            f"simsun verification needs 1 <= n <= {SIMSUN_IDENTITY_LIMIT}, got n = {n}")
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
        if simsun_poly(k - 1, "walk") != simsun_poly(k - 1):
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


def _prefix_walk(n: int, admits: Callable[[list[int], int, int], bool]
                 ) -> list[tuple[int, ...]]:
    """The permutations of [n], in lex order, whose every prefix is admitted.

    Builds each permutation left to right: value v may follow ``prefix``
    when ``admits(prefix, used, v)`` holds, with ``used`` the mask of the
    prefix's values.  A class whose condition at position i reads only the
    prefix is walked without visiting its non-members' completions.
    """
    out = []
    word: list[int] = []

    def rec(used: int) -> None:
        if len(word) == n:
            out.append(tuple(word))
            return
        for v in range(1, n + 1):
            if not used >> v & 1 and admits(word, used, v):
                word.append(v)
                rec(used | 1 << v)
                word.pop()

    rec(0)
    rec = None  # rec's closure holds rec, and with it the walk's lists
    return out


def _odd_interval_step(prefix: list[int], used: int, v: int) -> bool:
    """Odd-interval: sigma(i) shares parity with its preference lower bound,
    one more than the largest value below sigma(i) (zero allowed) that is
    not among sigma(1..i-1).  A preference sequence parks to outcome sigma
    exactly when every entry lies between that bound and sigma(i)."""
    r = v - 1
    while used >> r & 1:
        r -= 1
    return (v - r) % 2 == 1


def _odd_gap_step(prefix: list[int], used: int, v: int) -> bool:
    """Odd-gap: every position sits an odd distance after its blocking
    position, the rightmost earlier position holding a larger value, or 0."""
    block = 0
    for j, u in enumerate(prefix, start=1):
        if u > v:
            block = j
    return (len(prefix) + 1 - block) % 2 == 1


def _alternating_step(prefix: list[int], used: int, v: int) -> bool:
    """Up-down: a rise into every even position, a fall into every odd one."""
    return not prefix or (v > prefix[-1]) == (len(prefix) % 2 == 1)


def _jacobi_words(letters: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The Jacobi arrangements of the increasing ``letters``, by their
    recursion: the minimum sits at an odd position (counting from 1), and
    the words left and right of it are Jacobi."""
    if not letters:
        return [()]
    low, rest = letters[0], letters[1:]
    out = []
    for size in range(0, len(rest) + 1, 2):  # the minimum lands at position size + 1
        for left in itertools.combinations(rest, size):
            right = tuple(v for v in rest if v not in left)
            rights = _jacobi_words(right)
            out.extend(lw + (low,) + rw for lw in _jacobi_words(left) for rw in rights)
    return out


def complement_perm(w: Permutation) -> Permutation:
    return Permutation(w.n + 1 - w(i) for i in range(1, w.n + 1))


def zigzag_poly(n: int) -> BiPoly:
    """Big descents of inverses over up-down alternating permutations, shifted by one.

    It factors as t times the Jacobi polynomial, with the Jacobi factor
    palindromic of degree n - 2; ``verify_alternating_identity`` checks both.
    """
    if n < 0:
        raise ValueError(f"zigzag polynomials need n >= 0, got n = {n}")
    if n > ZIGZAG_LIMIT:
        raise ValueError(f"zigzag enumeration capped at n = {ZIGZAG_LIMIT}")
    return BiPoly(Counter((0, Permutation(w).inverse().big_descent_count() + 1)
                          for w in _prefix_walk(n, _alternating_step)))


def _is_palindromic(p: BiPoly, degree: int) -> bool:
    try:
        return p == p.reciprocal_t(degree)
    except ValueError:  # t-degree above ``degree``
        return False


def verify_alternating_identity(n: int) -> Report:
    """The q = -1 parking polynomial equals the zigzag polynomial, with all
    intermediate steps of the derivation checked on the way.

    Each class comes from its own walk, never from another class, so the
    inverse and complement checks compare independent enumerations.
    """
    name = "parking-minus-one-is-zigzag"
    if not 2 <= n <= PARKING_SWEEP_LIMIT:
        raise ValueError(
            f"alternating identity needs 2 <= n <= {PARKING_SWEEP_LIMIT}, got n = {n}")
    lhs = parking_poly(n, "exced").subs_q(-1)
    odd_intervals = [Permutation(w) for w in _prefix_walk(n, _odd_interval_step)]
    odd_gaps = _prefix_walk(n, _odd_gap_step)
    jacobi = _jacobi_words(tuple(range(1, n + 1)))

    by_descents = BiPoly(Counter((0, s.des()) for s in odd_intervals))
    if lhs != by_descents:
        return Report(name, 0, COUNTEREXAMPLE,
                      {"n": n, "defect": "grouping by outcome",
                       "parking_side": lhs.to_json_terms(),
                       "outcome_side": by_descents.to_json_terms()})

    if {s.inverse().one_line for s in odd_intervals} != set(odd_gaps):
        return Report(name, 0, COUNTEREXAMPLE, {"n": n, "defect": "inverse class mismatch"})
    if {complement_perm(Permutation(w)).one_line for w in odd_gaps} != set(jacobi):
        return Report(name, 0, COUNTEREXAMPLE, {"n": n, "defect": "complement class mismatch"})

    rhs = zigzag_poly(n)
    jac = BiPoly(Counter((0, Permutation(w).inverse().des()) for w in jacobi))
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
