"""Parking functions, rook boards, and the fixed-content correspondence.

Conventions: n cars arrive in order; car i first tries its preferred spot
and then rolls forward to the first free spot.  The outcome permutation
sends arrival index to final spot.  A content b is the weakly increasing
rearrangement class of a parking function.  The content is its own board:
the board of b is the set of cells (r, c) with 1 <= r < b_c, and every
rook function here takes b itself.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Iterable, Iterator
from typing import NamedTuple

from .core import BiPoly, Permutation
from .report import COUNTEREXAMPLE, VERIFIED, Report

FIXED_CONTENT_LIMIT = 6
FIBER_CHECK_LIMIT = 5


class ParkingFailure(ValueError):
    """Some car found every spot from its preference onward occupied."""


def park(prefs: Iterable[int]) -> Permutation:
    """Run the parking procedure and return the outcome permutation.

    Raises ParkingFailure naming the first car that runs off the end of
    the street, which happens exactly when prefs is not a parking function.
    """
    prefs = tuple(prefs)
    n = len(prefs)
    taken = [False] * (n + 1)
    spots = [0] * n
    for i, p in enumerate(prefs, start=1):
        if not 1 <= p <= n:
            raise ParkingFailure(f"car {i} cannot park")
        s = p
        while s <= n and taken[s]:
            s += 1
        if s > n:
            raise ParkingFailure(f"car {i} cannot park")
        taken[s] = True
        spots[i - 1] = s
    return Permutation(spots)


def is_parking_function(prefs: Iterable[int]) -> bool:
    """Sorted-rearrangement criterion: b_j <= j for all j."""
    b = sorted(prefs)
    return all(v >= 1 for v in b) and all(v <= j for j, v in enumerate(b, start=1))


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
    """Weakly increasing parking functions of length n (Catalan many), in
    lexicographic order."""
    for b in itertools.combinations_with_replacement(range(1, n + 1), n):
        if all(v <= j for j, v in enumerate(b, start=1)):
            yield b


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


# -- rooks on the board of a content ----------------------------------------


def _parking_content(b: Iterable[int]) -> tuple[int, ...]:
    """b as a tuple, or ValueError when it is not a parking content."""
    b = tuple(b)
    if not (is_parking_function(b) and tuple(sorted(b)) == b):
        raise ValueError(f"{b} is not a parking content")
    return b


def rook_numbers(b: tuple[int, ...]) -> tuple[int, ...]:
    """rook_k counts for k = 0..n, by column DP over the set of used rows."""
    states: dict[int, int] = {0: 1}
    for v in b:
        nxt = Counter()
        for mask, ways in states.items():
            nxt[mask] += ways
            for r in range(1, v):
                bit = 1 << r
                if not mask & bit:
                    nxt[mask | bit] += ways
        states = dict(nxt)
    out = [0] * (len(b) + 1)
    for mask, ways in states.items():
        out[mask.bit_count()] += ways
    return tuple(out)


def rook_placements(b: tuple[int, ...]) -> Iterator[frozenset[tuple[int, int]]]:
    """Every nonattacking placement on the board of b, of every size.

    Brute force over the row of each column (0 for no rook), in
    lexicographic order of that row vector; this is the oracle the DP
    above is tested against, and the enumerator behind the preimage-count
    checks.
    """
    for rows in itertools.product(*(range(v) for v in b)):
        used = [r for r in rows if r]
        if len(set(used)) == len(used):
            yield frozenset((r, c) for c, r in enumerate(rows, start=1) if r)


def _check_placement(b: tuple[int, ...],
                     rooks: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    rooks = sorted(rooks)
    rows = [r for r, _ in rooks]
    cols = [c for _, c in rooks]
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise ValueError("rooks attack each other")
    for r, c in rooks:
        if not (1 <= c <= len(b) and 1 <= r < b[c - 1]):
            raise ValueError(f"rook ({r}, {c}) is outside the board")
    return rooks


# -- the descent-side map and the insertion bijection -----------------------


class BijectionCheckError(RuntimeError):
    """phi or the insertion maps broke a proved statement on valid input.

    That is a defect of this program, not a property of the input.
    """


def _phi_rooks(b: tuple[int, ...], w: Permutation,
               a_set: frozenset[int]) -> frozenset[tuple[int, int]] | None:
    """{(outcome(i+1), w(i)) : i in A}, or None when A is not a subset of
    the descent set of the outcome of b ordered by w."""
    _, sigma = induced_parking(b, w)
    if not a_set <= sigma.descent_set():
        return None
    return frozenset((sigma(i + 1), w(i)) for i in a_set)


def phi(b: tuple[int, ...], w: Permutation, descents: Iterable[int]) -> frozenset[tuple[int, int]]:
    """The rook placement {(outcome(i+1), w(i)) : i in A} for A a descent subset.

    A must be a subset of the descent set of the outcome of b ordered by w,
    else ValueError.  That the result lands inside the board with one rook
    per element of A is a proved statement; if it fails, this raises
    BijectionCheckError.
    """
    a_set = frozenset(descents)
    b = _parking_content(b)
    rooks = _phi_rooks(b, w, a_set)
    if rooks is None:
        raise ValueError(f"{sorted(a_set)} is not a subset of the outcome descent set")
    try:
        checked = _check_placement(b, rooks)
    except ValueError as err:
        raise BijectionCheckError(f"phi({list(w.one_line)}, {sorted(a_set)}): {err}") from None
    if len(checked) != len(a_set):
        raise BijectionCheckError(
            f"phi({list(w.one_line)}, {sorted(a_set)}) placed {len(checked)} rooks")
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
            raise ParkingFailure(f"car {d} cannot park")
        spots[s] = d
    return spots


def _insert_columns(b: tuple[int, ...], placement: list[tuple[int, int]],
                    u0: Iterable[int]) -> tuple[tuple[int, ...], frozenset[int]]:
    """The insertion steps of ``insert_forward`` on a checked placement,
    sorted bottom row first: the final word and the inserted positions."""
    word = list(u0)
    for r, c in placement:
        occupant = _park_labels(b, word)[r]
        if not occupant:
            raise BijectionCheckError(f"spot {r} is empty when column {c} is inserted")
        word.insert(word.index(occupant), c)
    return tuple(word), frozenset(word.index(c) + 1 for _, c in placement)


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
    the given placement; if they do not, this raises BijectionCheckError.
    """
    b = _parking_content(b)
    n = len(b)
    placement = _check_placement(b, rooks)
    expected = sorted(set(range(1, n + 1)) - {c for _, c in placement})
    if sorted(u0) != expected:
        raise ValueError("u0 must order exactly the rook-free columns")
    word, a_set = _insert_columns(b, placement, u0)
    w = Permutation(word)
    if _phi_rooks(b, w, a_set) != frozenset(placement):
        raise BijectionCheckError(
            f"inserting {placement} into {list(u0)} gave (w, A) = "
            f"({list(word)}, {sorted(a_set)}), which phi does not send back")
    return w, a_set


def _delete_columns(word: Iterable[int], placement: list[tuple[int, int]]) -> tuple[int, ...]:
    """The word with the placement's columns removed: ``insert_inverse``'s steps."""
    cols = {c for _, c in placement}
    return tuple(v for v in word if v not in cols)


def insert_inverse(
    b: tuple[int, ...],
    rooks: Iterable[tuple[int, int]],
    w: Permutation,
    descents: Iterable[int],
) -> tuple[int, ...]:
    """Recover the starting word by deleting rook columns, top row first.

    Requires phi(b, w, descents) to equal the placement, else ValueError.
    The forward insertion is replayed on the result and must give back
    (w, descents); if it does not, this raises BijectionCheckError.
    """
    a_set = frozenset(descents)
    b = _parking_content(b)
    placement = _check_placement(b, rooks)
    if phi(b, w, a_set) != frozenset(placement):
        raise ValueError("(w, A) is not a preimage of this placement")
    u0 = _delete_columns(w.one_line, placement)
    if _insert_columns(b, placement, u0) != (w.one_line, a_set):
        raise BijectionCheckError(f"inserting {placement} into {list(u0)} does not "
                                  f"give back ({list(w.one_line)}, {sorted(a_set)})")
    return u0


# -- polynomials and the theorem checker ------------------------------------


def excedance_polynomial(b: tuple[int, ...]) -> BiPoly:
    """Excedance distribution over all orderings of the content b, by the
    inclusion-exclusion form sum_k rook_k(B_b) (n-k)! (t-1)^k.

    ``_rearrangement_sweep`` counts the same distribution directly, walking
    each distinct rearrangement once with the number of orderings giving
    it as its weight, and the fixed-content check compares the two.
    """
    b = _parking_content(b)
    n = len(b)
    counts = rook_numbers(b)
    t_minus_1 = BiPoly.t() - 1
    total = BiPoly()
    for k, rk in enumerate(counts):
        if rk:
            total += rk * math.factorial(n - k) * t_minus_1 ** k
    return total


def _rearrangement_sweep(b: tuple[int, ...]) -> tuple[Counter, Counter, tuple | None]:
    """The excedance and outcome-descent counts over the orderings of the
    content b, by one depth-first pass over its distinct rearrangements.

    Both statistics read only the preference sequence, so orderings whose
    labels share values give equal subtrees.  Each node takes one child per
    distinct remaining value p, weighted by how many labels still carry p;
    a rearrangement's weight is then the number of orderings giving it,
    mu(b); the first leaf weighed otherwise comes back as (pi, weight).
    Car i takes the first free spot from p on, read off a bitmask of free
    spots, and each node carries the excedances and the outcome descents
    of its prefix.  The tests compare both counts with sweeps over
    ``parking_stats`` and ``park``.
    """
    n = len(b)
    if n < 2:  # one ordering, with no excedance and no descent
        return Counter({0: 1}), Counter({0: 1}), None
    left = [[p, b.count(p)] for p in sorted(set(b))]  # value, labels still carrying it
    exced: Counter = Counter()
    descents: Counter = Counter()
    expected, path, bad = mu(b), [0] * (n - 1), []  # path: the values of cars 1..n-1

    def rec(i: int, free: int, last: int, weight: int, exc: int, des: int) -> None:
        for cell in left:
            p, m = cell
            if m:
                path[i - 1] = p
                above = free >> p << p
                bit = above & -above  # the first free spot >= p
                s = bit.bit_length() - 1
                w = weight * m
                if i < n - 1:
                    cell[1] = m - 1
                    rec(i + 1, free ^ bit, s, w, exc + (p > i), des + (last > s))
                    cell[1] = m
                else:  # car n takes the one free spot left; no value of b exceeds n
                    final = (free ^ bit).bit_length() - 1
                    exced[exc + (p > i)] += w
                    descents[des + (last > s) + (s > final)] += w
                    if w != expected and not bad:  # car n carries the value left over
                        bad.append(((*path, sum(b) - sum(path)), w))

    rec(1, (1 << n + 1) - 2, 0, 1, 0, 0)  # free spots 1..n; spot 0 makes no descent
    rec = None  # rec's closure holds rec, and with it every list of the walk
    return exced, descents, bad[0] if bad else None


def _ordering_sweep(b: tuple[int, ...]) -> tuple[Counter, dict]:
    """The orderings w of the content b, in ``itertools.permutations``
    order, each parked by ``park``, for the bijection checks.

    Returns ``(preimages, outcomes)``: the placements phi(w, A) over every
    ordering w and descent subset A of its outcome, counted, and each
    ordering's outcome spots.  The tests compare the placements with a
    sweep over ``phi``.
    """
    n = len(b)
    preimages: Counter = Counter()
    outcomes = {}
    for w, prefs in zip(itertools.permutations(range(1, n + 1)), itertools.permutations(b)):
        sigma = outcomes[w] = park(prefs).one_line
        # the rook of descent j sits in row outcome(j + 1), column w(j);
        # rows and columns are distinct because outcome and w are permutations
        placements = [frozenset()]
        for j in range(1, n):
            if sigma[j - 1] > sigma[j]:
                rook = (sigma[j], w[j - 1])
                placements += [a | {rook} for a in placements]
        preimages.update(placements)
    return preimages, outcomes


def _content_report_row(b: tuple[int, ...]) -> dict | None:
    """Check one content; None when clean, else a witness dict."""
    b = _parking_content(b)
    n = len(b)
    exced, descents, bad_leaf = _rearrangement_sweep(b)
    direct = BiPoly({(0, e): c for e, c in exced.items()})
    via_rooks = excedance_polynomial(b)
    descent_side = BiPoly({(0, e): c for e, c in descents.items()})
    if direct != via_rooks:
        return {"b": list(b), "defect": "rook formula mismatch",
                "direct": direct.to_json_terms(), "rook": via_rooks.to_json_terms()}
    if direct != descent_side:
        return {"b": list(b), "defect": "excedance/descent mismatch",
                "excedance": direct.to_json_terms(), "descent": descent_side.to_json_terms()}

    # fiber size of the ordering map: the walk weighs each leaf by mu(b)
    if bad_leaf is not None:
        return {"b": list(b), "defect": "mu fiber mismatch",
                "pi": list(bad_leaf[0]), "count": bad_leaf[1], "mu": mu(b)}

    if n > FIBER_CHECK_LIMIT:
        return None

    # preimage counts of the descent-side map, and the round trip
    preimages, outcomes = _ordering_sweep(b)
    for rooks in preimages:
        try:
            _check_placement(b, rooks)
        except ValueError as err:
            return {"b": list(b), "defect": "phi is not a placement on the board",
                    "rooks": sorted(map(list, rooks)), "error": str(err)}
    for rooks in rook_placements(b):
        k = len(rooks)
        if preimages.get(rooks, 0) != math.factorial(n - k):
            return {"b": list(b), "defect": "preimage count mismatch",
                    "rooks": sorted(map(list, rooks)),
                    "count": preimages.get(rooks, 0),
                    "expected": math.factorial(n - k)}
        placement = sorted(rooks)
        free = sorted(set(range(1, n + 1)) - {c for _, c in rooks})
        for u0 in itertools.permutations(free):
            w, a_set = _insert_columns(b, placement, u0)
            sigma = outcomes[w]
            if not all(0 < i < n and sigma[i - 1] > sigma[i] for i in a_set):
                defect = "inserted positions are not outcome descents"
            elif frozenset((sigma[i], w[i - 1]) for i in a_set) != rooks:
                defect = "phi does not give back the rooks"
            elif _delete_columns(w, placement) != u0:
                defect = "round trip failure"
            else:
                continue
            return {"b": list(b), "defect": defect,
                    "rooks": sorted(map(list, rooks)), "u0": list(u0)}
    return None


def verify_fixed_content(n: int) -> Report:
    """Both statistics agree content by content; small n adds bijection checks.

    For every content b of length n: the excedance polynomial over
    orderings, counted by the weighted walk over the distinct
    rearrangements of b (``_rearrangement_sweep``), must equal the rook
    formula and the outcome-descent polynomial of the same walk, and the
    walk must weigh each parking function in the class by mu(b), the
    number of orderings giving it.  For n <= FIBER_CHECK_LIMIT
    a loop that parks each labelled ordering with ``park``
    (``_ordering_sweep``) additionally checks that the descent-side map has
    (n-k)!-sized preimages on every k-rook placement, and round-trips the
    insertion bijection on all of them.
    """
    if not 0 <= n <= FIXED_CONTENT_LIMIT:
        raise ValueError(
            f"fixed-content sweep needs 0 <= n <= {FIXED_CONTENT_LIMIT}, got n = {n}")
    checked = 0
    for b in parking_contents(n):
        witness = _content_report_row(b)
        checked += 1
        if witness is not None:
            return Report("parking-fixed-content", checked, COUNTEREXAMPLE, witness)
    return Report("parking-fixed-content", checked, VERIFIED)
