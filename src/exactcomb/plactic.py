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
from collections.abc import Iterable, Iterator

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
        by row insertion, a prefix of each row of a valid tableau, or glued
        by threshold evacuation.  Skips the validation of ``__init__``; the
        tests compare the two."""
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
    states for every k and both modes.  Every letter is at least 1, so an
    increasing chain ending at 1 takes the same letters as an empty one:
    the moves record end 1 as the start value 0, and states with equal
    futures merge under the max.  A word one letter short of max_len reads
    its children's invariants off its own states, without stepping them.
    Only the current path is held.  It shares nothing with row insertion;
    ``greene_oracle`` is the same DP run backward on one word.
    """
    moves: dict[tuple[tuple[int, ...], int, bool], tuple[tuple[int, ...], ...]] = {}

    def step(states: dict[tuple[int, ...], int], a: int, increasing: bool) -> dict:
        out = dict(states)
        end = 0 if increasing and a == 1 else a
        for state, count in states.items():
            key = (state, a, increasing)
            nexts = moves.get(key)
            if nexts is None:
                nexts = moves[key] = tuple({
                    tuple(sorted(state[:pos] + state[pos + 1:] + (end,)))
                    for pos, last in enumerate(state)
                    if ((last <= a) if increasing else (a < last))})
            for nxt in nexts:
                if out.get(nxt, -1) <= count:
                    out[nxt] = count + 1
        return out

    def leaf(states: dict[tuple[int, ...], int], a: int, increasing: bool) -> int:
        # the most letters after appending a: a chain takes it when the
        # smallest end is at most a (increasing) or the largest is above a
        if increasing:
            return max(count + (state[0] <= a) for state, count in states.items())
        return max(count + (a < state[-1]) for state, count in states.items())

    def rec(word: Word, inc: list[dict], dec: list[dict]) -> Iterator:
        n = len(word) + 1
        yield (word, tuple(max(d.values()) for d in inc[:n]),
               tuple(max(d.values()) for d in dec[:n]))
        if n == max_len:
            for a in range(1, alphabet + 1):
                yield (word + (a,), tuple(leaf(d, a, True) for d in inc[:n + 1]),
                       tuple(leaf(d, a, False) for d in dec[:n + 1]))
        elif n < max_len:
            for a in range(1, alphabet + 1):
                yield from rec(word + (a,), [step(d, a, True) for d in inc],
                               [step(d, a, False) for d in dec])

    # chain ends start below (increasing) or above (decreasing) every letter
    ks = range(1, max_len + 2)
    yield from rec((), [{(0,) * k: 0} for k in ks], [{(alphabet + 1,) * k: 0} for k in ks])
    moves.clear()


# -- reverse complement, evacuation and threshold evacuation ---------------


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


def tau(t: Tableau, m: int) -> Tableau:
    """Evacuate the part with entries at most m in place; fix the rest.

    Each row is the evacuated prefix followed by the fixed entries of t;
    the rows are semistandard, since the evacuated part is, its entries
    are at most m and every fixed entry is larger.  Raises ValueError when
    the evacuation changes the shape of the part, so that the result does
    not reassemble, which the reverse-complement theorem rules out.
    """
    low = t.restrict_le(m)
    evac = evacuation(low, m)
    if evac.shape() != low.shape():
        raise ValueError(f"threshold evacuation of {t!r} at m = {m} does not reassemble")
    rows = tuple(e + row[len(e):] for e, row in zip(evac.rows, t.rows))
    return Tableau._unchecked(rows + t.rows[len(rows):])


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

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return (f"CentralizerSet(u={self.u}, alphabet_cap={self.alphabet_cap}, "
                f"length_cap={self.length_cap}, members={len(self.members)})")


def _insert_letter(rows: tuple[tuple[int, ...], ...], a: int) -> tuple[tuple[int, ...], ...]:
    """The rows of P(w a) from those of P(w), as tuples: only the rows on
    the bump path are rebuilt, the rows below it are shared."""
    out = []
    for i, row in enumerate(rows):
        j = bisect_right(row, a)
        if j == len(row):
            out.append(row + (a,))
            return (*out, *rows[i + 1:])
        out.append(row[:j] + (a,) + row[j + 1:])
        a = row[j]
    out.append((a,))
    return tuple(out)


def _commute_members(us: list[Word], alphabet: int,
                     max_len: int) -> list[list[tuple[tuple[int, ...], ...]]]:
    """For each word u of us, the rows of every insertion tableau of a word
    over [alphabet] of length at most max_len that commutes with u, in the
    lexicographic order of the first words of their Knuth classes.

    One depth-first walk over the words serves every u.  Trying letters in
    increasing order, it visits each class at its lexicographically first
    word w and skips a word whose tableau was seen before, with everything
    below it: appending the same letters to Knuth-equivalent words keeps
    them equivalent.  Its targets are the distinct P(u), and Knuth-equivalent
    u share one target and its list of members.  Row-insertion bumps never
    return to the first row, so the first row of P(w u) comes from the
    first row of P(w) and u alone, and the first row of P(u w a) from that
    of P(u w) and a alone.  The walk holds P(w) as tuples and, for each
    first row of a P(u), only the first row of P(u w), which a step down
    updates by one bisection.  Only when the two first rows agree are
    P(w u) and P(u w) built, by inserting u into P(w) and w into P(u), and
    compared.
    """
    targets: dict[tuple[tuple[int, ...], ...], int] = {}
    words, tableaux, ends = [], [], []  # per target: a u and P(u); per u: its target
    for u in us:
        rows: list[list[int]] = []
        _insert_word(rows, u)
        key = tuple(map(tuple, rows))
        if key not in targets:
            targets[key] = len(words)
            words.append(u)
            tableaux.append(key)
        ends.append(targets[key])
    members: list[list[tuple[tuple[int, ...], ...]]] = [[] for _ in words]
    # targets whose P(u) share the first row share the first rows of P(u w)
    starts: dict[tuple[int, ...], int] = {}
    slot = [starts.setdefault(key[0] if key else (), len(starts)) for key in tableaux]
    seen = {()}
    path: list[int] = []  # w, the first word of the class visited

    def visit(rows: tuple, firsts: list[tuple[int, ...]]) -> None:
        # rows is P(w), firsts[slot[t]] the first row of P(u w) for the u of target t
        top = list(rows[0]) if rows else []
        for t, u in enumerate(words):
            first = top[:]
            for a in u:
                j = bisect_right(first, a)
                if j == len(first):
                    first.append(a)
                else:
                    first[j] = a
            if tuple(first) == firsts[slot[t]]:
                work = [list(r) for r in rows]
                _insert_word(work, u)
                left = [list(r) for r in tableaux[t]]
                _insert_word(left, path)
                if work == left:
                    members[t].append(rows)
        if len(path) == max_len:
            return
        for a in range(1, alphabet + 1):
            below = _insert_letter(rows, a)
            if below not in seen:
                seen.add(below)
                below_firsts = []
                for first in firsts:
                    j = bisect_right(first, a)
                    below_firsts.append(first[:j] + (a,) + first[j + 1:])
                path.append(a)
                visit(below, below_firsts)
                path.pop()

    visit((), list(starts))
    seen.clear()
    return [members[t] for t in ends]


def centralizer_searches(us: Iterable[Iterable[int]], alphabet_cap: int,
                         length_cap: int) -> list[CentralizerSet]:
    """The centralizer of each word of us, as ``centralizer_search`` finds
    it, from one walk over the Knuth classes of the budget."""
    if alphabet_cap > ALPHABET_BUDGET:
        raise ValueError(f"budget exceeded: alphabet {alphabet_cap} > {ALPHABET_BUDGET}")
    if length_cap > LENGTH_BUDGET:
        raise ValueError(f"budget exceeded: length {length_cap} > {LENGTH_BUDGET}")
    if alphabet_cap < 1 or length_cap < 0:
        raise ValueError("need a positive alphabet and a nonnegative length cap")
    us = [as_word(u) for u in us]
    return [CentralizerSet(u, alphabet_cap, length_cap, map(Tableau._unchecked, members))
            for u, members in zip(us, _commute_members(us, alphabet_cap, length_cap))]


def centralizer_search(u: Iterable[int], alphabet_cap: int, length_cap: int) -> CentralizerSet:
    """All insertion tableaux of words over [alphabet_cap] of length at most
    length_cap that plactically commute with u.

    Works class by class: commuting is a Knuth-class property, so one
    product comparison per insertion tableau decides the whole class.  The
    empty tableau is always a member.  Each call walks the classes once and
    keeps nothing; ``centralizer_searches`` serves many words with one walk.
    """
    return centralizer_searches((u,), alphabet_cap, length_cap)[0]


def check_no_bump(u: Iterable[int], t: Tableau) -> bool:
    """Insert u into the tableau t; do only letters of u ever get bumped?

    True is guaranteed whenever the words of t centralize u, so the
    verification sweeps treat a False here as a counterexample.
    """
    u = as_word(u)
    rows = [list(r) for r in t.rows]
    bumped: list[int] = []
    allowed = set(u)
    _insert_word(rows, u, bumped)
    return all(b in allowed for b in bumped)


# -- theorem checkers --------------------------------------------------------


def first_rows_report(found: CentralizerSet) -> Report:
    """Every centralizer member keeps its first rows within the alphabet of u.

    With u = found.u, ell the number of rows of its insertion tableau and m
    its largest letter, rows 1..ell of every member must contain only
    entries at most m.  The no-bump property is checked for every member
    alongside.
    """
    u = found.u
    m = max(u)
    ell = len(rsk_P(u).rows)
    name = "centralizer-first-rows"
    for t in found.members:
        for r in range(min(ell, len(t.rows))):
            if t.rows[r][-1] > m:
                return Report(name, len(found), COUNTEREXAMPLE, {
                    "u": list(u), "member": t.to_json_obj(),
                    "row": r + 1, "bound": m})
        if not check_no_bump(u, t):
            return Report(name, len(found), COUNTEREXAMPLE, {
                "u": list(u), "member": t.to_json_obj(),
                "defect": "foreign letter bumped"})
    return Report(name, len(found), VERIFIED,
                  {"u": list(u), "alphabet": found.alphabet_cap,
                   "max_len": found.length_cap, "members": len(found)})


def rc_report(m: int, left: CentralizerSet, right: CentralizerSet) -> Report:
    """Threshold evacuation at m carries the centralizer of u = left.u onto
    right, that of its reverse complement, as an exact set equality of
    insertion tableaux.
    """
    u = left.u
    name = "centralizer-reverse-complement"
    instances = len(left) + len(right)
    mapped = set()
    for t in left.members:
        try:
            mapped.add(tau(t, m))
        except ValueError:
            return Report(name, instances, COUNTEREXAMPLE, {
                "u": list(u), "m": m, "member": t.to_json_obj(),
                "defect": "threshold evacuation does not reassemble"})
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


# pmap is accepted and not read: the benchmark still passes it (ROADMAP item 1)
def verify_first_rows(u: Iterable[int], alphabet_cap: int | None = None,
                      length_cap: int = 7, pmap=map) -> Report:
    """``first_rows_report`` on the centralizer of u.

    The default alphabet cap, the largest letter of u plus 2, makes sure
    larger letters genuinely compete.
    """
    u = as_word(u)
    if not u:
        raise ValueError("u must be nonempty")
    m = max(u)
    cap = alphabet_cap if alphabet_cap is not None else m + 2
    if m > cap:
        raise ValueError(f"alphabet cap {cap} is below the letter {m} of u")
    return first_rows_report(centralizer_search(u, cap, length_cap))


def verify_rc_correspondence(u: Iterable[int], m: int,
                             alphabet_cap: int | None = None,
                             length_cap: int = 6) -> Report:
    """``rc_report`` on the centralizers of u and of its reverse complement,
    searched in one walk.
    """
    u = as_word(u)
    if m < 1:
        raise ValueError(f"threshold m = {m} must be at least 1")
    if any(a > m for a in u):
        raise ValueError(f"letters of u must be at most {m}")
    cap = alphabet_cap if alphabet_cap is not None else m + 2
    if m > cap:
        raise ValueError("threshold exceeds the alphabet cap")
    left, right = centralizer_searches((u, reverse_complement(u, m)), cap, length_cap)
    return rc_report(m, left, right)
