"""Row insertion, Knuth classes, bounded centralizer search, and the
reverse-complement correspondence on insertion tableaux.

Words commute in the plactic sense when their products in either order
insert to the same tableau.  All centralizer computations here are
restricted to words over a finite alphabet with bounded length; the
searches enumerate one representative per Knuth class, never the whole
word space twice.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections.abc import Iterable, Iterator
from itertools import accumulate, compress, count
from operator import eq, getitem

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
        return tuple(map(len, self.rows))

    def conjugate_shape(self) -> tuple[int, ...]:
        shape = self.shape()
        if not shape:
            return ()
        return tuple(sum(1 for ln in shape if ln >= c + 1) for c in range(shape[0]))

    def size(self) -> int:
        return sum(map(len, self.rows))

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

    The DP runs forward over the positions and holds one layer: the sorted
    ends of k chains, padded with empty ones, mapped to the most letters
    placed in chains ending that way.  At each letter a state either stays,
    or appends the letter to one of its distinct ends that takes it.
    Before position i each end stands for its class with respect to the
    letters still to come, word[i:]: an increasing end e becomes the least
    such letter at least e (top, past every letter, when there is none), a
    decreasing end 1 + the largest such letter below e (0 when there is
    none).  Two ends of one class take exactly the same future letters, so
    their states merge and keep the better count.  The class maps are
    nondecreasing, so they keep a state sorted.  It shares nothing with
    ``greene_sweep`` or row insertion.
    """
    word = as_word(word)
    if len(word) > GREENE_WORD_LIMIT:
        raise ValueError(f"oracle capped at length {GREENE_WORD_LIMIT}")
    if k < 1:
        raise ValueError("need k >= 1")
    if mode not in ("increasing", "decreasing"):
        raise ValueError(f"unknown mode {mode!r}")
    increasing = mode == "increasing"
    n = len(word)
    top = max(word, default=0) + 1
    # classes[i][e]: the class of chain end e, 0 <= e <= top, before position i
    classes: list[list[int]] = [[]] * (n + 1)
    present = [False] * (top + 1)
    for i in range(n, -1, -1):
        if i < n:
            present[word[i]] = True
        row = [0] * (top + 1)
        if increasing:
            cls = top
            for e in range(top, -1, -1):
                if present[e]:
                    cls = e
                row[e] = cls
        else:
            cls = 0
            for e in range(top + 1):
                row[e] = cls
                if present[e]:
                    cls = e + 1
        classes[i] = row
    layer = {(classes[0][0 if increasing else top],) * k: 0}
    for a, after in zip(word, classes[1:]):
        new = after[a]
        out: dict[tuple[int, ...], int] = {}
        for state, placed in layer.items():
            ends = [after[e] for e in state]
            kept = tuple(ends)
            if out.get(kept, -1) < placed:
                out[kept] = placed
            placed += 1  # the moves below place the letter
            last = None
            for pos, e in enumerate(state):
                if e != last and (e <= a if increasing else a < e):
                    rest = ends[:pos] + ends[pos + 1:]
                    insort(rest, new)
                    rest = tuple(rest)
                    if out.get(rest, -1) < placed:
                        out[rest] = placed
                last = e
        layer = out
    return max(layer.values())


def _chain_step(states: dict[tuple[int, ...], int], a: int, increasing: bool,
                moves: dict) -> dict[tuple[int, ...], int]:
    """The chain states of w a from those of w, for ``greene_sweep``: each
    state is kept, a is appended to a chain that takes it, or a opens a new
    chain.  ``moves`` caches the successors of each (state, a, increasing)."""
    out = dict(states)
    for state, count in states.items():
        key = (state, a, increasing)
        nexts = moves.get(key)
        if nexts is None:
            # the chains that take a are those ending at most a
            # (increasing) or above a (decreasing), on either side of j
            j = bisect_right(state, a)
            taken = range(j) if increasing else range(j, len(state))
            nexts = {state[:j] + (a,) + state[j:]}  # a opens a new chain
            nexts.update(tuple(sorted(state[:pos] + (a,) + state[pos + 1:]))
                         for pos in taken)
            nexts = moves[key] = tuple(nexts)
        for nxt in nexts:
            if out.get(nxt, -1) <= count:
                out[nxt] = count + 1
    return out


def _chain_tally(states: dict[tuple[int, ...], int], length: int,
                 increasing: bool) -> tuple[list[int], list[int]]:
    """One pass over the chain states of a word of the given length: for
    each number of chains c = 0..length + 2, the most letters in a state of
    c chains, and, among the states that reach it, the lowest first end
    (increasing) or the highest last end (decreasing).  The counts of the
    missing lengths are 0, and so are their ends."""
    best = [0] * (length + 3)
    ends = [0] * (length + 3)
    for state, count in states.items():
        if state:
            c = len(state)
            end = state[0] if increasing else state[-1]
            # a state of c chains holds at least c letters, so the first
            # state of c chains always replaces the 0s
            if count > best[c] or count == best[c] and (
                    end < ends[c] if increasing else end > ends[c]):
                best[c], ends[c] = count, end
    return best, ends


def _leaf_choices(most: list[int], best: list[int]) -> list[tuple[int, int]]:
    """For k = 1..len(w) + 2, the k-th invariant of a child w a when no
    best state of k chains of w has a chain that takes a, and when one
    does, from the tally ``best`` of the states of w and its running max
    ``most``.  k chains place a when one of them takes it, or when fewer
    than k chains are in use: most[k - 1] is the most letters in fewer than
    k chains.  A state one letter short of the best gives at most the best,
    with or without a."""
    return [(max(below + 1, count), max(below + 1, count + 1))
            for below, count in zip(most, best[1:])]


def greene_sweep(alphabet: int,
                 max_len: int) -> Iterator[tuple[Word, tuple[int, ...], tuple[int, ...]]]:
    """Greene invariants of every word over [alphabet] of length at most max_len.

    Yields (word, increasing, decreasing) depth first over the word trie,
    prefixes before extensions, where increasing[k - 1] (decreasing[k - 1])
    is the largest subword splittable into k weakly increasing (strictly
    decreasing) chains, for k = 1..len(word) + 1.  One chain DP per mode
    serves every k.  It runs forward: a state is the sorted tuple of the
    ends of the chains in use, its value the most letters placed so far in
    chains ending that way, and each word takes one step from its prefix's
    states: keep a state, append the letter to a chain that takes it, or
    open a new chain at it.  The k-th invariant is the best value over
    states of at most k chains, a running max by state length.  A word one
    letter short of max_len reads its children's invariants off one pass
    over its own states, without stepping them: per state length, the best
    value and, among the states that reach it, the lowest first end
    (increasing) or the highest last end (decreasing), which decides
    whether one of them takes the letter.  Only the current path is held.
    It shares nothing with row insertion.  ``greene_oracle`` is its oracle:
    a DP forward over the positions of one word that pads to k chains and
    merges chain ends by their suffix classes, the letters still to come
    that they take; a test-only brute force over position sets checks that
    oracle.
    """
    moves: dict[tuple[tuple[int, ...], int, bool], tuple[tuple[int, ...], ...]] = {}

    def rec(word: Word, inc: dict, dec: dict) -> Iterator:
        n = len(word) + 1
        inc_best, inc_ends = _chain_tally(inc, len(word), True)
        dec_best, dec_ends = _chain_tally(dec, len(word), False)
        # most[k]: the most letters in at most k chains, for k = 0..len(word) + 2
        inc_most, dec_most = list(accumulate(inc_best, max)), list(accumulate(dec_best, max))
        yield word, tuple(inc_most[1:-1]), tuple(dec_most[1:-1])
        if n == max_len:
            inc_choices = _leaf_choices(inc_most, inc_best)
            dec_choices = _leaf_choices(dec_most, dec_best)
            inc_ends, dec_ends = inc_ends[1:], dec_ends[1:]
            for a in range(1, alphabet + 1):
                # a best state of k chains takes a when its kept end is at
                # most a (increasing) or above a (decreasing); the bool
                # picks the choice
                yield (word + (a,), tuple(map(getitem, inc_choices, map(a.__ge__, inc_ends))),
                       tuple(map(getitem, dec_choices, map(a.__lt__, dec_ends))))
        elif n < max_len:
            for a in range(1, alphabet + 1):
                yield from rec(word + (a,), _chain_step(inc, a, True, moves),
                               _chain_step(dec, a, False, moves))

    try:
        yield from rec((), {(): 0}, {(): 0})
    finally:  # also when the caller stops early
        rec = None  # rec's closure holds rec, and with it the table of moves
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

    The entries of a tableau are positive, and at most m once checked, so
    the reverse complement of its row word is inserted as it is, without
    validating it again as a word.  It preserves shape, a theorem that
    ``tau`` checks on every use.
    """
    if t.max_entry() > m:
        raise ValueError(f"entries must be at most {m}")
    rows: list[list[int]] = []
    _insert_word(rows, [m + 1 - a for a in reversed(t.row_word())])
    return Tableau._unchecked(tuple(map(tuple, rows)))


def tau(t: Tableau, m: int, images: dict | None = None) -> Tableau:
    """Evacuate the part with entries at most m in place; fix the rest.

    Each row is the evacuated prefix followed by the fixed entries of t;
    the rows are semistandard, since the evacuated part is, its entries
    are at most m and every fixed entry is larger.  Raises ValueError when
    the evacuation changes the shape of the part, so that the result does
    not reassemble, which the reverse-complement theorem rules out.  A
    caller that maps many tableaux passes ``images``, a dict it keeps from
    (rows, m) to tau of the tableau with those rows.  The image of a part
    whose entries are all at most m is its evacuation, so each (rows of
    the part, m) is evacuated once, and its shape checked once.
    """
    low = t.restrict_le(m)
    key = (low.rows, m)
    evac = None if images is None else images.get(key)
    if evac is None:
        evac = evacuation(low, m)
        if evac.shape() != low.shape():
            raise ValueError(f"threshold evacuation of {t!r} at m = {m} does not reassemble")
        if images is not None:
            images[key] = evac
    rows = tuple(e + row[len(e):] for e, row in zip(evac.rows, t.rows))
    return Tableau._unchecked(rows + t.rows[len(rows):])


# -- centralizer search ------------------------------------------------------


class CentralizerSet:
    """Tableaux of centralizer members found within an alphabet/length
    budget, in ``Tableau.sort_key`` order."""

    __slots__ = ("u", "alphabet_cap", "length_cap", "members")

    def __init__(self, u: Word, alphabet_cap: int, length_cap: int,
                 members: tuple[Tableau, ...]):
        self.u = u
        self.alphabet_cap = alphabet_cap
        self.length_cap = length_cap
        self.members = members

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


class _RowInsertions(dict):
    """One letter's column of the walk's insertion table: ``self[i]`` is
    the id of row i of ``rows`` with a inserted (a replaces the leftmost
    entry above it, or is appended), interned in ``ids`` and filled on
    first lookup."""

    __slots__ = ("a", "rows", "ids")

    def __init__(self, a: int, rows: list[tuple[int, ...]], ids: dict[tuple[int, ...], int]):
        super().__init__()
        self.a, self.rows, self.ids = a, rows, ids

    def __missing__(self, i: int) -> int:
        a, row = self.a, self.rows[i]
        j = bisect_right(row, a)
        row = row[:j] + (a,) + row[j + 1:]
        k = self.ids.setdefault(row, len(self.rows))
        if k == len(self.rows):
            self.rows.append(row)
        self[i] = k
        return k


def _commute_members(targets: list[tuple[Word, int]],
                     max_len: int) -> list[list[tuple[tuple[int, ...], ...]]]:
    """For each pair (u, cap) of targets, the rows of every insertion
    tableau of a word over [cap] of length at most max_len that commutes
    with u, in the lexicographic order of the first words of their Knuth
    classes.

    One depth-first walk over the words of the largest cap serves every
    pair.  Trying letters in increasing order, it visits each class at its
    lexicographically first word w and skips a word whose tableau was seen
    before, with everything below it: appending the same letters to
    Knuth-equivalent words keeps them equivalent.  A class over [cap] is
    first met at a word all of whose prefixes are over [cap], so a pair is
    tested only while the largest letter of w is at most its cap, and its
    members come in the order a walk over [cap] alone would give.  The
    targets are the distinct (P(u), cap); Knuth-equivalent u under one cap
    share a target and its list of members.

    Row-insertion bumps never return to the first row, so the first row of
    P(w u) comes from that of P(w) and u alone, and the first row of
    P(u w a) from that of P(u w) and a alone.  The walk interns first rows
    as ints with a table of one-letter row insertions; it holds P(w) as
    tuples, the id of its first row, and per target the id of the first
    row of P(u w), which a step down updates by one table lookup.  Once
    per first row of P(w) it builds the ids of the first rows of P(w u)
    over all targets.  Only for a target whose two ids agree are P(w u)
    and P(u w) built, by inserting u into P(w) and w into P(u), and
    compared.
    """
    keys = []  # per pair: its target (P(u), cap)
    first: dict[tuple[tuple[tuple[int, ...], ...], int], Word] = {}
    for u, cap in targets:
        rows: list[list[int]] = []
        _insert_word(rows, u)
        keys.append((tuple(map(tuple, rows)), cap))
        first.setdefault(keys[-1], u)
    if not first:
        return []
    order = sorted(first, key=lambda key: -key[1])  # largest cap first
    found = {key: [] for key in order}
    words = [first[key] for key in order]
    members = [found[key] for key in order]
    alphabet = order[0][1]
    # the targets tested below a letter c are order[:active[c]], those
    # before the first whose cap is below c
    active = [next((t for t, (_, cap) in enumerate(order) if cap < c), len(order))
              for c in range(alphabet + 1)]
    ids: dict[tuple[int, ...], int] = {(): 0}
    rows_of: list[tuple[int, ...]] = [()]
    # a letter of u may exceed every cap
    largest = max(alphabet, *(max(u, default=0) for u in words))
    after = [_RowInsertions(a, rows_of, ids) for a in range(largest + 1)]

    def row_id(i: int, word: Word) -> int:
        for a in word:
            i = after[a][i]
        return i

    index: dict[int, tuple[int, ...]] = {}  # first row of P(w) -> first rows of P(w u)
    seen = {()}
    path: list[int] = []  # w, the first word of the class visited

    def visit(rows: tuple, top: int, wid: int, uw: tuple[int, ...]) -> None:
        # rows is P(w), top the largest letter of w, wid the id of the first
        # row of P(w) and uw[t] that of P(u w) for each target t of cap >= top
        wu = index.get(wid)
        if wu is None:
            wu = index[wid] = tuple(row_id(wid, u) for u in words)
        for t in compress(count(), map(eq, wu, uw)):
            work = [list(r) for r in rows]
            _insert_word(work, words[t])
            left = [list(r) for r in order[t][0]]
            _insert_word(left, path)
            if work == left:
                members[t].append(rows)
        if len(path) == max_len:
            return
        for a in range(1, alphabet + 1):
            below = _insert_letter(rows, a)
            if below in seen:
                continue
            seen.add(below)
            if a > top:  # the targets whose cap is below a drop out
                top, uw = a, uw[:active[a]]
            step = after[a]
            path.append(a)
            visit(below, top, step[wid], tuple(map(step.__getitem__, uw)))
            path.pop()

    # the first row of P(u), as that of P(w u) at the empty w
    visit((), 0, 0, tuple(row_id(0, u) for u in words))
    # visit's closure holds visit, and with it every table of the walk
    visit = None
    return [found[key] for key in keys]


def centralizer_searches(targets: Iterable[tuple[Iterable[int], int]],
                         length_cap: int) -> list[CentralizerSet]:
    """The centralizer of u over [cap] for each pair (u, cap) of targets, as
    ``centralizer_search`` finds it, from one walk over the Knuth classes of
    the largest cap."""
    pairs = [(as_word(u), cap) for u, cap in targets]
    for _, cap in pairs:
        if cap > ALPHABET_BUDGET:
            raise ValueError(f"budget exceeded: alphabet {cap} > {ALPHABET_BUDGET}")
    if length_cap > LENGTH_BUDGET:
        raise ValueError(f"budget exceeded: length {length_cap} > {LENGTH_BUDGET}")
    if length_cap < 0 or any(cap < 1 for _, cap in pairs):
        raise ValueError("need a positive alphabet and a nonnegative length cap")
    # pairs with one target share one list of members: sort each list once
    sorted_members: dict[int, tuple[Tableau, ...]] = {}
    sets = []
    for (u, cap), members in zip(pairs, _commute_members(pairs, length_cap)):
        tableaux = sorted_members.get(id(members))
        if tableaux is None:
            tableaux = sorted_members[id(members)] = tuple(
                sorted(map(Tableau._unchecked, members), key=Tableau.sort_key))
        sets.append(CentralizerSet(u, cap, length_cap, tableaux))
    return sets


def centralizer_search(u: Iterable[int], alphabet_cap: int, length_cap: int) -> CentralizerSet:
    """All insertion tableaux of words over [alphabet_cap] of length at most
    length_cap that plactically commute with u.

    Works class by class: commuting is a Knuth-class property, so one
    product comparison per insertion tableau decides the whole class.  The
    empty tableau is always a member.  Each call walks the classes once and
    keeps nothing; ``centralizer_searches`` serves many words with one walk.
    """
    return centralizer_searches(((u, alphabet_cap),), length_cap)[0]


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


def rc_report(m: int, left: CentralizerSet, right: CentralizerSet,
              images: dict | None = None) -> Report:
    """Threshold evacuation at m carries the centralizer of u = left.u onto
    right, that of its reverse complement, as an exact set equality of
    insertion tableaux.  Each (member, m) is mapped by ``tau`` once, and
    each (part at most m, m) evacuated once, in ``images`` when a caller
    keeps it across reports.
    """
    u = left.u
    name = "centralizer-reverse-complement"
    instances = len(left) + len(right)
    images = {} if images is None else images
    mapped = set()
    for t in left.members:
        key = (t.rows, m)
        image = images.get(key)
        if image is None:
            try:
                image = images[key] = tau(t, m, images)
            except ValueError:
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
    left, right = centralizer_searches(((u, cap), (reverse_complement(u, m), cap)), length_cap)
    return rc_report(m, left, right)
