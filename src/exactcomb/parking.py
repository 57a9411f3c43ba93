"""Parking functions, rook boards, and the fixed-content correspondence.

Conventions: n cars arrive in order; car i first tries its preferred spot
and then rolls forward to the first free spot.  The outcome permutation
sends arrival index to final spot.  A content b is the weakly increasing
rearrangement class of a parking function; its board has the cells
(r, c) with r < b_c.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Iterable, Iterator
from typing import NamedTuple

from .core import BiPoly, Permutation, perm_stats
from .report import COUNTEREXAMPLE, VERIFIED, Report

DIRECT_SWEEP_LIMIT = 8


class ParkingFailure(ValueError):
    """Some car found every spot from its preference onward occupied."""

    def __init__(self, car: int):
        self.car = car
        super().__init__(f"car {car} cannot park")


def park(prefs: Iterable[int]) -> Permutation:
    """Run the parking procedure and return the outcome permutation.

    Raises ParkingFailure(i) for the first car i that runs off the end of
    the street, which happens exactly when prefs is not a parking function.
    """
    prefs = tuple(prefs)
    n = len(prefs)
    taken = [False] * (n + 1)
    spots = [0] * n
    for i, p in enumerate(prefs, start=1):
        if not 1 <= p <= n:
            raise ParkingFailure(i)
        s = p
        while s <= n and taken[s]:
            s += 1
        if s > n:
            raise ParkingFailure(i)
        taken[s] = True
        spots[i - 1] = s
    return Permutation(spots)


def is_parking_function(prefs: Iterable[int]) -> bool:
    """Sorted-rearrangement criterion: b_j <= j for all j."""
    b = sorted(prefs)
    return all(v >= 1 for v in b) and all(v <= j for j, v in enumerate(b, start=1))


def parking_functions(n: int) -> Iterator[tuple[int, ...]]:
    """All parking functions of length n, in lexicographic order."""
    for prefs in itertools.product(range(1, n + 1), repeat=n):
        if is_parking_function(prefs):
            yield prefs


class ParkingStats(NamedTuple):
    cosum: int
    exced: int


def parking_stats(prefs: Iterable[int]) -> ParkingStats:
    prefs = tuple(prefs)
    n = len(prefs)
    if not is_parking_function(prefs):
        raise ValueError(f"{prefs} is not a parking function")
    cosum = n * (n + 1) // 2 - sum(prefs)
    exced = sum(1 for i, p in enumerate(prefs, start=1) if p > i)
    return ParkingStats(cosum, exced)


def parking_contents(n: int) -> Iterator[tuple[int, ...]]:
    """Weakly increasing parking functions of length n (Catalan many)."""

    def rec(prefix: list[int], j: int) -> Iterator[tuple[int, ...]]:
        if j > n:
            yield tuple(prefix)
            return
        lo = prefix[-1] if prefix else 1
        for v in range(lo, j + 1):
            prefix.append(v)
            yield from rec(prefix, j + 1)
            prefix.pop()

    yield from rec([], 1)


def mu(b: Iterable[int]) -> int:
    """Product of factorials of the value multiplicities of b."""
    out = 1
    for c in Counter(b).values():
        out *= math.factorial(c)
    return out


def induced_parking(b: tuple[int, ...], w: Permutation) -> tuple[tuple[int, ...], Permutation]:
    """The parking function with content b ordered by w, and its outcome."""
    if len(b) != w.n:
        raise ValueError("content and permutation sizes differ")
    prefs = tuple(b[w(i) - 1] for i in range(1, w.n + 1))
    return prefs, park(prefs)


# -- boards and rooks -------------------------------------------------------


class Board:
    """Cells (r, c) with r < b_c, stored as per-column heights b_c - 1."""

    __slots__ = ("n", "heights")

    def __init__(self, heights: Iterable[int], n: int | None = None):
        self.heights = tuple(heights)
        self.n = len(self.heights) if n is None else n

    @classmethod
    def from_content(cls, b: Iterable[int]) -> "Board":
        b = tuple(b)
        if not (is_parking_function(b) and tuple(sorted(b)) == b):
            raise ValueError(f"{b} is not a parking content")
        return cls((v - 1 for v in b), n=len(b))

    def contains(self, r: int, c: int) -> bool:
        return 1 <= c <= len(self.heights) and 1 <= r <= self.heights[c - 1]

    def __repr__(self) -> str:
        return f"Board(heights={self.heights}, n={self.n})"


def rook_numbers(board: Board) -> tuple[int, ...]:
    """rook_k counts for k = 0..n, by column DP over the set of used rows."""
    states: dict[int, int] = {0: 1}
    for h in board.heights:
        nxt = Counter()
        for mask, ways in states.items():
            nxt[mask] += ways
            for r in range(1, h + 1):
                bit = 1 << r
                if not mask & bit:
                    nxt[mask | bit] += ways
        states = dict(nxt)
    out = [0] * (board.n + 1)
    for mask, ways in states.items():
        out[mask.bit_count()] += ways
    return tuple(out)


def rook_placements(board: Board, k: int | None = None) -> Iterator[frozenset[tuple[int, int]]]:
    """Every nonattacking placement on the board (of size k when given).

    Brute-force recursion over columns; this is the oracle the DP above is
    tested against, and the enumerator behind the preimage-count checks.
    """

    def rec(c: int, used_rows: int, placed: list[tuple[int, int]]) -> Iterator[frozenset]:
        if c > len(board.heights):
            if k is None or len(placed) == k:
                yield frozenset(placed)
            return
        yield from rec(c + 1, used_rows, placed)
        for r in range(1, board.heights[c - 1] + 1):
            if not used_rows >> r & 1:
                placed.append((r, c))
                yield from rec(c + 1, used_rows | 1 << r, placed)
                placed.pop()

    yield from rec(1, 0, [])


def _check_placement(board: Board, rooks: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    rooks = sorted(rooks)
    rows = [r for r, _ in rooks]
    cols = [c for _, c in rooks]
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise ValueError("rooks attack each other")
    for r, c in rooks:
        if not board.contains(r, c):
            raise ValueError(f"rook ({r}, {c}) is outside the board")
    return rooks


# -- the descent-side map and the insertion bijection -----------------------


def phi(b: tuple[int, ...], w: Permutation, descents: Iterable[int]) -> frozenset[tuple[int, int]]:
    """The rook placement {(outcome(i+1), w(i)) : i in A} for A a descent subset.

    A must be a subset of the descent set of the outcome of b ordered by w.
    That the result lands inside the board and is nonattacking is a proved
    statement, enforced here as an assertion rather than an error.
    """
    a_set = frozenset(descents)
    _, sigma = induced_parking(b, w)
    if not a_set <= perm_stats(sigma).descents:
        raise ValueError(f"{sorted(a_set)} is not a subset of the outcome descent set")
    rooks = frozenset((sigma(i + 1), w(i)) for i in a_set)
    board = Board.from_content(b)
    checked = _check_placement(board, rooks)
    assert len(checked) == len(a_set)
    return rooks


def _park_labels(b: tuple[int, ...], labels: Iterable[int]) -> list[int]:
    """Park cars named by label, car d preferring spot b_d; spot -> label map.

    Arrival order is the order of `labels`; unfilled spots hold 0.
    """
    n = len(b)
    spots = [0] * (n + 1)
    for d in labels:
        s = b[d - 1]
        while s <= n and spots[s]:
            s += 1
        if s > n:
            raise ParkingFailure(d)
        spots[s] = d
    return spots


def insert_forward(
    b: tuple[int, ...],
    rooks: Iterable[tuple[int, int]],
    u0: Iterable[int],
) -> tuple[Permutation, frozenset[int]]:
    """Grow u0 into a full permutation by inserting rook columns.

    Rooks are processed bottom row first.  At step j, the current word is
    parked (car d prefers b_d), the occupant of row r_j is located, and
    column c_j is inserted immediately before that occupant.  Returns the
    final permutation together with the positions of the inserted letters,
    which form a descent subset A of the outcome with phi(w, A) equal to
    the given placement.
    """
    n = len(b)
    board = Board.from_content(b)
    placement = _check_placement(board, rooks)
    word = list(u0)
    expected = sorted(set(range(1, n + 1)) - {c for _, c in placement})
    if sorted(word) != expected:
        raise ValueError("u0 must order exactly the rook-free columns")
    for r, c in placement:
        spots = _park_labels(b, word)
        occupant = spots[r]
        assert occupant, f"spot {r} must be occupied before inserting column {c}"
        word.insert(word.index(occupant), c)
    w = Permutation(word)
    a_set = frozenset(word.index(c) + 1 for _, c in placement)
    assert phi(b, w, a_set) == frozenset(placement)
    return w, a_set


def insert_inverse(
    b: tuple[int, ...],
    rooks: Iterable[tuple[int, int]],
    w: Permutation,
    descents: Iterable[int],
) -> tuple[int, ...]:
    """Recover the starting word by deleting rook columns, top row first.

    Requires phi(b, w, descents) to equal the placement; the forward map is
    replayed on the result as a round-trip assertion.
    """
    a_set = frozenset(descents)
    board = Board.from_content(b)
    placement = _check_placement(board, rooks)
    if phi(b, w, a_set) != frozenset(placement):
        raise ValueError("(w, A) is not a preimage of this placement")
    word = list(w.one_line)
    for _, c in reversed(placement):
        word.remove(c)
    u0 = tuple(word)
    assert insert_forward(b, placement, u0) == (w, a_set)
    return u0


# -- polynomials and the theorem checker ------------------------------------


def excedance_polynomial(b: tuple[int, ...], method: str = "direct") -> BiPoly:
    """Excedance distribution over all orderings of the content b.

    direct: sweep the symmetric group.  rook: the inclusion-exclusion form
    sum_k rook_k(B_b) (n-k)! (t-1)^k.
    """
    n = len(b)
    if method == "direct":
        if n > DIRECT_SWEEP_LIMIT:
            raise ValueError(f"direct sweep capped at n = {DIRECT_SWEEP_LIMIT}")
        acc: Counter = Counter()
        for perm in itertools.permutations(range(1, n + 1)):
            prefs = tuple(b[v - 1] for v in perm)
            acc[parking_stats(prefs).exced] += 1
        return BiPoly({(0, e): c for e, c in acc.items()})
    if method == "rook":
        counts = rook_numbers(Board.from_content(b))
        t_minus_1 = BiPoly.t() - BiPoly.one()
        total = BiPoly.zero()
        for k, rk in enumerate(counts):
            if rk:
                total += BiPoly.constant(rk * math.factorial(n - k)) * t_minus_1 ** k
        return total
    raise ValueError(f"unknown method {method!r}")


def outcome_descent_polynomial(b: tuple[int, ...]) -> BiPoly:
    """Sum of t^(descents of the outcome) over all orderings of b."""
    n = len(b)
    if n > DIRECT_SWEEP_LIMIT:
        raise ValueError(f"direct sweep capped at n = {DIRECT_SWEEP_LIMIT}")
    acc: Counter = Counter()
    for perm in itertools.permutations(range(1, n + 1)):
        prefs = tuple(b[v - 1] for v in perm)
        acc[perm_stats(park(prefs)).des] += 1
    return BiPoly({(0, e): c for e, c in acc.items()})


def _content_report_row(args: tuple[tuple[int, ...], bool]) -> dict | None:
    """Check one content; None when clean, else a witness dict."""
    b, with_fibers = args
    n = len(b)
    direct = excedance_polynomial(b, "direct")
    via_rooks = excedance_polynomial(b, "rook")
    descent_side = outcome_descent_polynomial(b)
    if direct != via_rooks:
        return {"b": list(b), "defect": "rook formula mismatch",
                "direct": direct.to_json_terms(), "rook": via_rooks.to_json_terms()}
    if direct != descent_side:
        return {"b": list(b), "defect": "excedance/descent mismatch",
                "excedance": direct.to_json_terms(), "descent": descent_side.to_json_terms()}

    # fiber size of the ordering map: every parking function with content b
    # arises from exactly mu(b) orderings
    fiber: Counter = Counter()
    for perm in itertools.permutations(range(1, n + 1)):
        fiber[tuple(b[v - 1] for v in perm)] += 1
    expected_mu = mu(b)
    for prefs, count in fiber.items():
        if count != expected_mu:
            return {"b": list(b), "defect": "mu fiber mismatch",
                    "pi": list(prefs), "count": count, "mu": expected_mu}

    if not with_fibers:
        return None

    # preimage counts of the descent-side map, and the round trip
    board = Board.from_content(b)
    preimages: Counter = Counter()
    for perm in itertools.permutations(range(1, n + 1)):
        w = Permutation(perm)
        des = sorted(perm_stats(park(tuple(b[v - 1] for v in perm))).descents)
        for size in range(len(des) + 1):
            for a_set in itertools.combinations(des, size):
                preimages[phi(b, w, a_set)] += 1
    for rooks in rook_placements(board):
        k = len(rooks)
        if preimages.get(rooks, 0) != math.factorial(n - k):
            return {"b": list(b), "defect": "preimage count mismatch",
                    "rooks": sorted(map(list, rooks)),
                    "count": preimages.get(rooks, 0),
                    "expected": math.factorial(n - k)}
        free = sorted(set(range(1, n + 1)) - {c for _, c in rooks})
        for u0 in itertools.permutations(free):
            w, a_set = insert_forward(b, rooks, u0)
            if insert_inverse(b, rooks, w, a_set) != u0:
                return {"b": list(b), "defect": "round trip failure",
                        "rooks": sorted(map(list, rooks)), "u0": list(u0)}
    return None


def verify_fixed_content(n: int, pmap=map) -> Report:
    """Both statistics agree content by content; small n adds bijection checks.

    For every content b of length n: the excedance polynomial over
    orderings (computed directly and by the rook formula) must equal the
    outcome-descent polynomial, and each parking function in the class must
    arise from exactly mu(b) orderings.  For n <= 5 the descent-side map is
    additionally checked to have (n-k)!-sized preimages on every k-rook
    placement, with the insertion bijection round-tripped on all of them.
    """
    if not 0 <= n <= 6:
        raise ValueError(f"fixed-content sweep needs 0 <= n <= 6, got n = {n}")
    with_fibers = n <= 5
    contents = list(parking_contents(n))
    checked = 0
    for witness in pmap(_content_report_row, [(b, with_fibers) for b in contents]):
        checked += 1
        if witness is not None:
            return Report("parking-fixed-content", checked, COUNTEREXAMPLE, witness)
    return Report("parking-fixed-content", checked, VERIFIED)
