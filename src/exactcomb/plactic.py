"""Row insertion, Knuth classes, bounded centralizer search, and the
reverse-complement correspondence on insertion tableaux.

Words commute in the plactic sense when their products in either order
insert to the same tableau.  All centralizer computations here are
restricted to words over a finite alphabet with bounded length; the
searches enumerate one representative per Knuth class, never the whole
word space twice.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from collections.abc import Iterable, Iterator
from functools import lru_cache

from .core import Word, as_word
from .report import COUNTEREXAMPLE, VERIFIED, Report

ALPHABET_BUDGET = 5
LENGTH_BUDGET = 8
GREENE_WORD_LIMIT = 12


class Tableau:
    """A semistandard Young tableau; rows weakly increase, columns strictly."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        rows = tuple(tuple(r) for r in rows)
        for i, row in enumerate(rows):
            if not row:
                raise ValueError("empty row")
            if any(e < 1 for e in row):
                raise ValueError("entries must be positive")
            if any(a > b for a, b in zip(row, row[1:])):
                raise ValueError(f"row {i + 1} is not weakly increasing")
            if i:
                if len(row) > len(rows[i - 1]):
                    raise ValueError("row lengths must weakly decrease")
                if any(rows[i - 1][j] >= row[j] for j in range(len(row))):
                    raise ValueError(f"column strictness fails between rows {i} and {i + 1}")
        self.rows = rows

    @classmethod
    def _unchecked(cls, rows: tuple[tuple[int, ...], ...]) -> "Tableau":
        """A tableau from rows that are semistandard by construction: built
        by row insertion, or a prefix of each row of a valid tableau.  Skips
        the validation of ``__init__``; the tests compare the two."""
        t = cls.__new__(cls)
        t.rows = rows
        return t

    def shape(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.rows)

    def conjugate_shape(self) -> tuple[int, ...]:
        shape = self.shape()
        if not shape:
            return ()
        return tuple(sum(1 for ln in shape if ln >= c + 1) for c in range(shape[0]))

    def size(self) -> int:
        return sum(len(r) for r in self.rows)

    def max_entry(self) -> int:
        return max((r[-1] for r in self.rows), default=0)

    def row_word(self) -> Word:
        """Rows read left to right, bottom row first."""
        out: list[int] = []
        for row in reversed(self.rows):
            out.extend(row)
        return tuple(out)

    def restrict_le(self, m: int) -> "Tableau":
        """The straight subtableau of entries at most m (a prefix of each row)."""
        rows = []
        for row in self.rows:
            cut = bisect_right(row, m)
            if cut == 0:
                break
            rows.append(row[:cut])
        return Tableau._unchecked(tuple(rows))

    def skew_above(self, m: int) -> frozenset[tuple[int, int, int]]:
        """Cells (row, col, entry) with entry > m, 0-indexed positions."""
        return frozenset(
            (i, j, e)
            for i, row in enumerate(self.rows)
            for j, e in enumerate(row)
            if e > m
        )

    def to_json_obj(self) -> list[list[int]]:
        return [list(r) for r in self.rows]

    def sort_key(self):
        return (self.size(), self.shape(), self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tableau):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Tableau({[list(r) for r in self.rows]})"


EMPTY_TABLEAU = Tableau(())


def _insert_word(rows: list[list[int]], word: Iterable[int],
                 bumped: list[int] | None = None) -> None:
    """Row-insert each letter of word into mutable rows, optionally
    recording every bumped letter."""
    for a in word:
        for row in rows:
            j = bisect_right(row, a)
            if j == len(row):
                row.append(a)
                break
            if bumped is not None:
                bumped.append(row[j])
            row[j], a = a, row[j]
        else:
            rows.append([a])


def rsk_P(word: Iterable[int]) -> Tableau:
    """The insertion tableau of a word under row bumping."""
    rows: list[list[int]] = []
    _insert_word(rows, as_word(word))
    return Tableau._unchecked(tuple(map(tuple, rows)))


def _rows_after_insert(rows: tuple[tuple[int, ...], ...], a: int) -> tuple[tuple[int, ...], ...]:
    work = [list(r) for r in rows]
    _insert_word(work, (a,))
    return tuple(tuple(r) for r in work)


def _p_of_concat(*parts: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    rows: list[list[int]] = []
    for part in parts:
        _insert_word(rows, part)
    return tuple(tuple(r) for r in rows)


def knuth_equivalent(u: Iterable[int], v: Iterable[int]) -> bool:
    """Same insertion tableau; the relation-graph search is a test-only oracle."""
    return rsk_P(u) == rsk_P(v)


def knuth_neighbors(word: Word) -> set[Word]:
    """Words one Knuth move away (either rule, either direction).

    The two moves swap xzy <-> zxy when x <= y < z and yxz <-> yzx when
    x < y <= z, acting on three consecutive letters.
    """
    word = tuple(word)
    out: set[Word] = set()
    for i in range(len(word) - 2):
        p, q, r = word[i], word[i + 1], word[i + 2]
        # acb -> cab and back, for a <= b < c
        if q <= r < p:  # p q r = c a b
            out.add(word[:i] + (q, p, r) + word[i + 3:])
        if p <= r < q:  # p q r = a c b
            out.add(word[:i] + (q, p, r) + word[i + 3:])
        # bac -> bca and back, for a < b <= c
        if q < p <= r:  # p q r = b a c
            out.add(word[:i] + (p, r, q) + word[i + 3:])
        if r < p <= q:  # p q r = b c a
            out.add(word[:i] + (p, r, q) + word[i + 3:])
    return out


def knuth_class_brute(word: Iterable[int], cap: int = 100_000) -> frozenset[Word]:
    """Closure of a word under Knuth moves by graph search (small words only)."""
    start = as_word(word)
    seen = {start}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for nb in knuth_neighbors(w):
            if nb not in seen:
                if len(seen) >= cap:
                    raise ValueError("Knuth class larger than the search cap")
                seen.add(nb)
                queue.append(nb)
    return frozenset(seen)


def greene_oracle(word: Iterable[int], k: int, mode: str = "increasing") -> int:
    """Largest subword splittable into k chains, by direct dynamic programming.

    Chains are weakly increasing or strictly decreasing subwords; the
    result must match partial sums of the shape (or conjugate shape) of the
    insertion tableau, which is exactly what the tests compare.
    """
    word = as_word(word)
    if len(word) > GREENE_WORD_LIMIT:
        raise ValueError(f"oracle capped at length {GREENE_WORD_LIMIT}")
    if k < 1:
        raise ValueError("need k >= 1")
    if mode == "increasing":
        start_value = 0

        def can_extend(last: int, a: int) -> bool:
            return last <= a
    elif mode == "decreasing":
        start_value = max(word, default=0) + 1

        def can_extend(last: int, a: int) -> bool:
            return a < last
    else:
        raise ValueError(f"unknown mode {mode!r}")

    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def best(i: int, state: tuple[int, ...]) -> int:
        if i == len(word):
            return 0
        key = (i, state)
        hit = memo.get(key)
        if hit is not None:
            return hit
        a = word[i]
        value = best(i + 1, state)
        for last in set(state):
            if can_extend(last, a):
                pos = state.index(last)
                nxt = tuple(sorted(state[:pos] + state[pos + 1:] + (a,)))
                value = max(value, 1 + best(i + 1, nxt))
        memo[key] = value
        return value

    return best(0, tuple([start_value] * k))


def greene_sweep(alphabet: int,
                 max_len: int) -> Iterator[tuple[Word, tuple[int, ...], tuple[int, ...]]]:
    """Greene invariants of every word over [alphabet] of length at most max_len.

    Yields (word, increasing, decreasing) depth first over the word trie,
    prefixes before extensions, where increasing[k - 1] (decreasing[k - 1])
    is the largest subword splittable into k weakly increasing (strictly
    decreasing) chains, for k = 1..len(word) + 1.  The chain DP runs
    forward: a state is the sorted tuple of chain ends, its value the most
    letters placed so far in chains ending that way, and each word takes
    one step (skip the letter, or append it to one chain) from its prefix's
    states for every k and both modes.  Only the current path is held.  It
    shares nothing with row insertion; ``greene_oracle`` is the same DP run
    backward on one word.
    """
    moves: dict[tuple[tuple[int, ...], int, bool], tuple[tuple[int, ...], ...]] = {}

    def step(states: dict[tuple[int, ...], int], a: int, increasing: bool) -> dict:
        out = dict(states)
        for state, count in states.items():
            key = (state, a, increasing)
            nexts = moves.get(key)
            if nexts is None:
                nexts = moves[key] = tuple({
                    tuple(sorted(state[:pos] + state[pos + 1:] + (a,)))
                    for pos, last in enumerate(state)
                    if ((last <= a) if increasing else (a < last))})
            for nxt in nexts:
                if out.get(nxt, -1) <= count:
                    out[nxt] = count + 1
        return out

    def rec(word: Word, inc: list[dict], dec: list[dict]) -> Iterator:
        n = len(word) + 1
        yield (word, tuple(max(d.values()) for d in inc[:n]),
               tuple(max(d.values()) for d in dec[:n]))
        if len(word) < max_len:
            for a in range(1, alphabet + 1):
                yield from rec(word + (a,), [step(d, a, True) for d in inc],
                               [step(d, a, False) for d in dec])

    # chain ends start below (increasing) or above (decreasing) every letter
    ks = range(1, max_len + 2)
    yield from rec((), [{(0,) * k: 0} for k in ks], [{(alphabet + 1,) * k: 0} for k in ks])


# -- reverse complement, evacuation, and the skew threshold machinery --------


def reverse_complement(word: Iterable[int], m: int) -> Word:
    """Reverse the word and send each letter a to m - a + 1."""
    word = as_word(word)
    if any(a > m for a in word):
        raise ValueError(f"letters must be at most {m}")
    return tuple(m - a + 1 for a in reversed(word))


def evacuation(t: Tableau, m: int) -> Tableau:
    """Insertion tableau of the reverse complement of the row word.

    It preserves shape, a theorem that ``tau`` checks on every use.
    """
    if t.max_entry() > m:
        raise ValueError(f"entries must be at most {m}")
    return rsk_P(reverse_complement(t.row_word(), m))


def skew_union(straight: Tableau, skew: frozenset[tuple[int, int, int]]) -> Tableau | None:
    """Overlay skew cells on a straight tableau; None when the result is not
    a semistandard Young tableau (overlap, gaps, or ordering failures)."""
    cells: dict[tuple[int, int], int] = {}
    for i, row in enumerate(straight.rows):
        for j, e in enumerate(row):
            cells[(i, j)] = e
    for i, j, e in skew:
        if (i, j) in cells:
            return None
        cells[(i, j)] = e
    if not cells:
        return EMPTY_TABLEAU
    height = max(i for i, _ in cells) + 1
    rows = []
    for i in range(height):
        width = [j for r, j in cells if r == i]
        if not width:
            return None
        ln = max(width) + 1
        if sorted(width) != list(range(ln)):
            return None
        rows.append([cells[(i, j)] for j in range(ln)])
    try:
        return Tableau(rows)
    except ValueError:
        return None


def _threshold_evacuation(t: Tableau, m: int) -> Tableau | None:
    """tau(t, m), or None when the evacuated part and the fixed cells do not
    reassemble into a tableau of the shape of t."""
    out = skew_union(evacuation(t.restrict_le(m), m), t.skew_above(m))
    return out if out is not None and out.shape() == t.shape() else None


def tau(t: Tableau, m: int) -> Tableau:
    """Evacuate the part with entries at most m in place; fix the rest.

    Raises ValueError if the result does not reassemble into a tableau of
    the same shape, which the reverse-complement theorem rules out.
    """
    out = _threshold_evacuation(t, m)
    if out is None:
        raise ValueError(f"threshold evacuation of {t!r} at m = {m} does not reassemble")
    return out


# -- centralizer search ------------------------------------------------------


class CentralizerSet:
    """Tableaux of centralizer members found within an alphabet/length budget."""

    __slots__ = ("u", "alphabet_cap", "length_cap", "members")

    def __init__(self, u: Word, alphabet_cap: int, length_cap: int,
                 members: Iterable[Tableau]):
        self.u = u
        self.alphabet_cap = alphabet_cap
        self.length_cap = length_cap
        self.members = tuple(sorted(members, key=Tableau.sort_key))

    def __contains__(self, t: Tableau) -> bool:
        return t in set(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return (f"CentralizerSet(u={self.u}, alphabet_cap={self.alphabet_cap}, "
                f"length_cap={self.length_cap}, members={len(self.members)})")


@lru_cache(maxsize=None)
def _knuth_classes(alphabet: int, max_len: int) -> tuple[tuple[Word, tuple[tuple[int, ...], ...]], ...]:
    """One representative word per insertion tableau over [alphabet]^(<= max_len).

    Depth-first over the word tree with incremental insertion, so the
    representative is the lexicographically first word of its class.  A
    word whose tableau was seen before is not a representative, and then
    neither is any extension of it, so the search does not descend below
    it: the representatives are closed under prefixes.  Cached because
    every centralizer query over the same budget shares the partition.
    """
    classes: dict[tuple[tuple[int, ...], ...], Word] = {}

    def rec(word: Word, rows: tuple[tuple[int, ...], ...]) -> None:
        if rows in classes:
            return
        classes[rows] = word
        if len(word) == max_len:
            return
        for a in range(1, alphabet + 1):
            rec(word + (a,), _rows_after_insert(rows, a))

    rec((), ())
    return tuple(sorted((w, rows) for rows, w in classes.items()))


def _commutes_with(u: Word, rep: Word) -> bool:
    """Whether u and rep commute, by inserting both products from scratch
    (the oracle of ``_commute_verdicts``)."""
    return _p_of_concat(u, rep) == _p_of_concat(rep, u)


def _commute_verdicts(u: Word, alphabet: int, max_len: int) -> list[bool]:
    """Whether u commutes with each class representative of
    ``_knuth_classes(alphabet, max_len)``, in order.

    Representatives are the lexicographically first words of their classes,
    so they are closed under prefixes, and in sorted order the latest
    representative one letter shorter than rep is its prefix rep[:-1].  So
    P(u rep) is one insertion into the stored P(u rep[:-1]), and P(rep u)
    inserts u into the class rows.
    """
    p_u = [list(r) for r in _p_of_concat(u)]
    left_by_depth = [p_u]
    out = []
    for rep, rows in _knuth_classes(alphabet, max_len):
        d = len(rep)
        if d:
            left = [r[:] for r in left_by_depth[d - 1]]
            _insert_word(left, rep[-1:])
            del left_by_depth[d:]
            left_by_depth.append(left)
        else:
            left = p_u
        right = [list(r) for r in rows]
        _insert_word(right, u)
        out.append(left == right)
    return out


# member rows of every search so far, by (u, alphabet_cap, length_cap); the
# rows are those of _knuth_classes, so an entry holds one pointer per member
_centralizers: dict[tuple[Word, int, int], tuple[tuple[tuple[int, ...], ...], ...]] = {}


def centralizer_search(u: Iterable[int], alphabet_cap: int, length_cap: int) -> CentralizerSet:
    """All insertion tableaux of words over [alphabet_cap] of length at most
    length_cap that plactically commute with u.

    Works class by class: commuting is a Knuth-class property, so one
    product comparison per insertion tableau decides the whole class.  The
    empty tableau is always a member.  Results are kept for the life of the
    process, so a repeated query is not searched again.
    """
    u = as_word(u)
    if alphabet_cap > ALPHABET_BUDGET:
        raise ValueError(f"budget exceeded: alphabet {alphabet_cap} > {ALPHABET_BUDGET}")
    if length_cap > LENGTH_BUDGET:
        raise ValueError(f"budget exceeded: length {length_cap} > {LENGTH_BUDGET}")
    if alphabet_cap < 1 or length_cap < 0:
        raise ValueError("need a positive alphabet and a nonnegative length cap")
    key = (u, alphabet_cap, length_cap)
    members = _centralizers.get(key)
    if members is None:
        classes = _knuth_classes(alphabet_cap, length_cap)
        verdicts = _commute_verdicts(u, alphabet_cap, length_cap)
        members = _centralizers[key] = tuple(
            rows for (_, rows), ok in zip(classes, verdicts) if ok)
    return CentralizerSet(u, alphabet_cap, length_cap, map(Tableau._unchecked, members))


def check_no_bump(u: Iterable[int], w: Iterable[int]) -> bool:
    """Insert u into the tableau of w; do only letters of u ever get bumped?

    True is guaranteed whenever w centralizes u, so the verification sweeps
    treat a False here as a counterexample.
    """
    u = as_word(u)
    rows = [list(r) for r in rsk_P(w).rows]
    bumped: list[int] = []
    allowed = set(u)
    _insert_word(rows, u, bumped)
    return all(b in allowed for b in bumped)


# -- theorem checkers --------------------------------------------------------


# pmap is accepted and not read: the benchmark still passes it (ROADMAP item 1)
def verify_first_rows(u: Iterable[int], alphabet_cap: int | None = None,
                      length_cap: int = 7, pmap=map) -> Report:
    """Every centralizer member keeps its first rows within the alphabet of u.

    With ell the number of rows of the insertion tableau of u and m its
    largest letter, rows 1..ell of every member must contain only entries
    at most m.  The no-bump property is checked for every member alongside.
    The default alphabet cap m + 2 makes sure larger letters genuinely
    compete.
    """
    u = as_word(u)
    if not u:
        raise ValueError("u must be nonempty")
    m = max(u)
    cap = alphabet_cap if alphabet_cap is not None else m + 2
    ell = len(rsk_P(u).rows)
    found = centralizer_search(u, cap, length_cap)
    name = "centralizer-first-rows"
    for t in found.members:
        for r in range(min(ell, len(t.rows))):
            if t.rows[r][-1] > m:
                return Report(name, len(found), COUNTEREXAMPLE, {
                    "u": list(u), "member": t.to_json_obj(),
                    "row": r + 1, "bound": m})
        if not check_no_bump(u, t.row_word()):
            return Report(name, len(found), COUNTEREXAMPLE, {
                "u": list(u), "member": t.to_json_obj(),
                "defect": "foreign letter bumped"})
    return Report(name, len(found), VERIFIED,
                  {"u": list(u), "alphabet": cap, "max_len": length_cap,
                   "members": len(found)})


def verify_rc_correspondence(u: Iterable[int], m: int,
                             alphabet_cap: int | None = None,
                             length_cap: int = 6) -> Report:
    """Threshold evacuation carries the centralizer of u onto that of its
    reverse complement, as an exact set equality of insertion tableaux.
    """
    u = as_word(u)
    if any(a > m for a in u):
        raise ValueError(f"letters of u must be at most {m}")
    cap = alphabet_cap if alphabet_cap is not None else m + 2
    if m > cap:
        raise ValueError("threshold exceeds the alphabet cap")
    rc_u = reverse_complement(u, m)
    left = centralizer_search(u, cap, length_cap)
    right = centralizer_search(rc_u, cap, length_cap)
    name = "centralizer-reverse-complement"
    instances = len(left) + len(right)
    mapped = set()
    for t in left.members:
        image = _threshold_evacuation(t, m)
        if image is None:
            return Report(name, instances, COUNTEREXAMPLE, {
                "u": list(u), "m": m, "member": t.to_json_obj(),
                "defect": "threshold evacuation does not reassemble"})
        mapped.add(image)
    target = set(right.members)
    if mapped != target:
        missing = sorted(target - mapped, key=Tableau.sort_key)[:3]
        extra = sorted(mapped - target, key=Tableau.sort_key)[:3]
        return Report(name, instances, COUNTEREXAMPLE, {
            "u": list(u), "m": m,
            "unmatched_right": [t.to_json_obj() for t in missing],
            "unmatched_left_images": [t.to_json_obj() for t in extra]})
    return Report(name, instances, VERIFIED,
                  {"u": list(u), "m": m, "members": len(left)})
