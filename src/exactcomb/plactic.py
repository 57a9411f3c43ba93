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


def _commute_members(us: list[Word], alphabet: int,
                     max_len: int) -> list[list[tuple[tuple[int, ...], ...]]]:
    """For each word u of us, the rows of every insertion tableau of a word
    over [alphabet] of length at most max_len that commutes with u, in the
    lexicographic order of the first words of their Knuth classes.

    One depth-first walk over the words serves every u.  Trying letters in
    increasing order, it visits each class at its lexicographically first
    word w and skips a word whose tableau was seen before, with everything
    below it: appending the same letters to Knuth-equivalent words keeps
    them equivalent.  The walk holds P(w) and, for each u, P(u w), so a
    step down inserts one letter into each.  P(w v) for the prefixes v of
    the u's comes from a trie of those prefixes with one node per insertion
    tableau, since P(w v) depends only on P(w) and P(v).  In preorder, a
    node inserts the letters of its edge into its parent's rows: in place
    for the parent's last child, into a copy for the others.  Runs of nodes
    with one child and no u ending there form one edge, so a lone u inserts
    all its letters in one call per class, as a search of its own would.
    """
    node_of: dict[tuple[tuple[int, ...], ...], int] = {(): 0}
    edges: list[list[tuple[int, int]]] = [[]]  # per node: (letter, child)
    ends = []
    for u in us:
        rows: list[list[int]] = []
        node = 0
        for a in u:
            _insert_word(rows, (a,))
            key = tuple(map(tuple, rows))
            child = node_of.get(key)
            if child is None:
                child = node_of[key] = len(edges)
                edges.append([])
                edges[node].append((a, child))
            node = child
        ends.append(node)
    tableau_of = {node: key for key, node in node_of.items()}
    target_of = {node: t for t, node in enumerate(dict.fromkeys(ends))}

    # (parent slot, letters, slot, copy, target or -1) in preorder; slots
    # hold the rows of the root, the targets and the branch points
    steps = []

    def flatten(node: int, slot: int) -> None:
        last = len(edges[node]) - 1
        for i, (a, child) in enumerate(edges[node]):
            letters = [a]
            while child not in target_of and len(edges[child]) == 1:
                a, child = edges[child][0]
                letters.append(a)
            steps.append((slot, tuple(letters), len(steps) + 1, i < last,
                          target_of.get(child, -1)))
            flatten(child, len(steps))

    flatten(0, 0)
    at: list = [None] * (len(steps) + 1)
    root_target = target_of.get(0, -1)
    members: list[list[tuple[tuple[int, ...], ...]]] = [[] for _ in target_of]
    seen = {()}

    def visit(rows: list[list[int]], key: tuple, lefts: list, depth: int) -> None:
        # rows is P(w), key its tuple form, lefts[t] P(u w) for the u of target t
        if root_target >= 0 and lefts[root_target] == rows:
            members[root_target].append(key)
        at[0] = [r[:] for r in rows]
        for parent, letters, slot, copy, t in steps:
            work = [r[:] for r in at[parent]] if copy else at[parent]
            _insert_word(work, letters)
            at[slot] = work
            if t >= 0 and lefts[t] == work:
                members[t].append(key)
        if depth == max_len:
            return
        for a in range(1, alphabet + 1):
            below = [r[:] for r in rows]
            _insert_word(below, (a,))
            below_key = tuple(map(tuple, below))
            if below_key not in seen:
                seen.add(below_key)
                lefts_below = [[r[:] for r in left] for left in lefts]
                for left in lefts_below:
                    _insert_word(left, (a,))
                visit(below, below_key, lefts_below, depth + 1)

    visit([], (), [[list(r) for r in tableau_of[node]] for node in target_of], 0)
    return [members[target_of[node]] for node in ends]


# member rows of every search so far, by (P(u).rows, alphabet_cap,
# length_cap): commuting with u depends only on its Knuth class.  The rows
# are the walk's tableau keys, so an entry holds one pointer per member
_centralizers: dict[tuple[tuple[tuple[int, ...], ...], int, int],
                    tuple[tuple[tuple[int, ...], ...], ...]] = {}


def centralizer_searches(us: Iterable[Iterable[int]], alphabet_cap: int,
                         length_cap: int) -> None:
    """Search the centralizer of every word of us not searched before, in
    one walk over the Knuth classes of the budget, and keep the results
    for ``centralizer_search``.  Words with one insertion tableau share a
    search.
    """
    if alphabet_cap > ALPHABET_BUDGET:
        raise ValueError(f"budget exceeded: alphabet {alphabet_cap} > {ALPHABET_BUDGET}")
    if length_cap > LENGTH_BUDGET:
        raise ValueError(f"budget exceeded: length {length_cap} > {LENGTH_BUDGET}")
    if alphabet_cap < 1 or length_cap < 0:
        raise ValueError("need a positive alphabet and a nonnegative length cap")
    missing: dict[tuple, Word] = {}
    for u in us:
        u = as_word(u)
        key = (rsk_P(u).rows, alphabet_cap, length_cap)
        if key not in _centralizers:
            missing.setdefault(key, u)
    if missing:
        found = _commute_members(list(missing.values()), alphabet_cap, length_cap)
        for key, members in zip(missing, found):
            _centralizers[key] = tuple(members)


def centralizer_search(u: Iterable[int], alphabet_cap: int, length_cap: int) -> CentralizerSet:
    """All insertion tableaux of words over [alphabet_cap] of length at most
    length_cap that plactically commute with u.

    Works class by class: commuting is a Knuth-class property, so one
    product comparison per insertion tableau decides the whole class.  The
    empty tableau is always a member.  Results are kept for the life of the
    process by the insertion tableau of u, so a repeated query, or one for
    a Knuth-equivalent word, is not searched again.
    """
    u = as_word(u)
    centralizer_searches((u,), alphabet_cap, length_cap)
    members = _centralizers[(rsk_P(u).rows, alphabet_cap, length_cap)]
    return CentralizerSet(u, alphabet_cap, length_cap, map(Tableau._unchecked, members))


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
    if m > cap:
        raise ValueError(f"alphabet cap {cap} is below the letter {m} of u")
    ell = len(rsk_P(u).rows)
    found = centralizer_search(u, cap, length_cap)
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
