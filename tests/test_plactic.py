import functools
import gc
import itertools
import random
import tracemalloc

import pytest

from exactcomb import genfun, plactic
from exactcomb.acceptance import _words_over
from exactcomb.plactic import (
    GREENE_WORD_LIMIT,
    Tableau,
    centralizer_search,
    check_no_bump,
    evacuation,
    greene_oracle,
    greene_sweep,
    reverse_complement,
    rsk_P,
    tau,
    verify_first_rows,
    verify_rc_correspondence,
)


def words(alphabet, max_len, min_len=0):
    for ln in range(min_len, max_len + 1):
        yield from itertools.product(range(1, alphabet + 1), repeat=ln)


def test_tableau_validation():
    t = Tableau([[1, 2, 2], [2, 3]])
    assert t.shape() == (3, 2) and t.size() == 5 and t.max_entry() == 3
    for bad in ([[2, 1]], [[1], [1]], [[1], [2, 3]], [[1, 0]]):
        with pytest.raises(ValueError):
            Tableau(bad)
    assert Tableau(()).shape() == () and Tableau(()).size() == 0


def _validated(t):
    """The same rows through Tableau's checks; raises if they are not semistandard."""
    assert type(t.rows) is tuple and all(type(r) is tuple for r in t.rows)
    return Tableau(t.rows)


def test_unchecked_tableaux_equal_validated_ones():
    for w in words(3, 7):
        t = rsk_P(w)
        assert _validated(t) == t and _validated(t).rows == t.rows
        for m in range(4):
            low = t.restrict_le(m)
            assert _validated(low).rows == low.rows
    for member in centralizer_search((1, 2), 3, 5).members:
        assert _validated(member).rows == member.rows


def test_rsk_p_examples():
    assert rsk_P((1,)).rows == ((1,),)
    assert rsk_P((2, 1, 3, 2)).rows == ((1, 2), (2, 3))
    assert rsk_P((1, 1, 2, 3)).rows == ((1, 1, 2, 3),)
    assert rsk_P(()).rows == ()


def test_row_word_recovers_tableau():
    assert rsk_P((2, 1, 3, 2)).row_word() == (2, 3, 1, 2)
    for w in words(3, 5):
        t = rsk_P(w)
        assert rsk_P(t.row_word()) == t


def knuth_neighbors(word):
    """Words one Knuth move away (either rule, either direction).

    The two moves swap xzy <-> zxy when x <= y < z and yxz <-> yzx when
    x < y <= z, acting on three consecutive letters.
    """
    word = tuple(word)
    out = set()
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


def knuth_class_brute(word):
    """Closure of a word under Knuth moves, by graph search."""
    seen = {tuple(word)}
    todo = list(seen)
    while todo:
        for nb in knuth_neighbors(todo.pop()):
            if nb not in seen:
                seen.add(nb)
                todo.append(nb)
    return seen


def test_knuth_equivalence_matches_tableaux():
    for w in words(3, 5):
        assert w in knuth_class_brute(rsk_P(w).row_word())
    assert (2, 1) not in knuth_class_brute((1, 2))
    assert (2, 3, 1) in knuth_class_brute((2, 1, 3))  # a<b<=c window swap


def test_knuth_neighbors_windows():
    assert (2, 3, 1) in knuth_neighbors((2, 1, 3))
    assert (1, 3, 2) in knuth_neighbors((3, 1, 2))
    assert knuth_neighbors((1, 2)) == set()


def test_brute_class_equals_tableau_fiber():
    for w in words(3, 5, min_len=4):
        cls = knuth_class_brute(w)
        t = rsk_P(w)
        fiber = {v for v in words(3, len(w), min_len=len(w)) if rsk_P(v) == t}
        assert cls == fiber


def test_greene_oracle():
    w = (3, 1, 4, 2)
    assert greene_oracle(w, 1, "increasing") == 2
    assert greene_oracle(w, 2, "increasing") == 4
    assert greene_oracle(w, 1, "decreasing") == 2
    assert greene_oracle((1, 1, 2), 1, "increasing") == 3  # weakly increasing
    assert greene_oracle((2, 2, 1), 1, "decreasing") == 2  # strictly decreasing
    with pytest.raises(ValueError):
        greene_oracle((1,) * (GREENE_WORD_LIMIT + 1), 1, "increasing")


def test_greene_matches_shape():
    # k-fold unions of increasing subsequences fill the first k rows,
    # decreasing ones the first k columns; the seeded words are at the
    # oracle's length cap, over an alphabet with repeats and one without
    rng = random.Random(12)
    at_cap = [tuple(rng.choices(range(1, alphabet + 1), k=GREENE_WORD_LIMIT))
              for alphabet in (6, 12) for _ in range(4)]
    for w in [*words(3, 6, min_len=1), *at_cap]:
        t = rsk_P(w)
        shape, conj = t.shape(), t.conjugate_shape()
        for k in range(1, len(w) + 1):
            assert greene_oracle(w, k, "increasing") == sum(shape[:k]), (w, k)
            assert greene_oracle(w, k, "decreasing") == sum(conj[:k]), (w, k)


def greene_brute(word, mode):
    """[the largest union of k chains of word, for k = 1..len(word) + 1],
    from every set of positions, with no chain DP and no row insertion.

    Positions i < j are comparable when word[i] <= word[j] (weakly
    increasing chains) or word[i] > word[j] (strictly decreasing chains), so
    the antichains are the strictly decreasing or the weakly increasing
    subwords.  By Dilworth's theorem a set of positions splits into k chains
    exactly when its widest antichain has at most k positions.
    """
    n = len(word)
    if mode == "increasing":
        def incomparable(i, j):
            return word[i] > word[j]
    else:
        def incomparable(i, j):
            return word[i] <= word[j]
    # widest[s]: the most positions of s that form an antichain, which is s
    # itself when its neighbours are incomparable, else within s less one
    widest = [0] * (1 << n)
    largest = [0] * (n + 2)  # largest[a]: the most positions of widest a
    for s in range(1, 1 << n):
        pos = [i for i in range(n) if s >> i & 1]
        if all(incomparable(i, j) for i, j in zip(pos, pos[1:])):
            widest[s] = len(pos)
        else:
            widest[s] = max(widest[s & ~(1 << i)] for i in pos)
        largest[widest[s]] = max(largest[widest[s]], len(pos))
    return list(itertools.accumulate(largest[1:], max))


def test_greene_brute_force_examples():
    assert greene_brute((3, 1, 4, 2), "increasing") == [2, 4, 4, 4, 4]
    assert greene_brute((2, 2, 1), "decreasing") == [2, 3, 3, 3]
    assert greene_brute((1, 1, 2), "increasing") == [3, 3, 3, 3]
    assert greene_brute((), "decreasing") == [0]


def test_greene_oracle_matches_brute_force_on_short_words():
    for w in words(3, 6):
        for mode in ("increasing", "decreasing"):
            oracle = [greene_oracle(w, k, mode) for k in range(1, len(w) + 2)]
            assert oracle == greene_brute(w, mode), (w, mode)


@pytest.mark.parametrize("alphabet", [4, 6])
def test_greene_oracle_matches_brute_force_on_seeded_words(alphabet):
    rng = random.Random(alphabet)
    for length in (8, 9, 10):
        for _ in range(3):
            w = tuple(rng.choices(range(1, alphabet + 1), k=length))
            for mode in ("increasing", "decreasing"):
                oracle = [greene_oracle(w, k, mode) for k in range(1, 5)]
                assert oracle == greene_brute(w, mode)[:4], (w, mode)


@pytest.mark.parametrize("alphabet, max_len", [(3, 6), (4, 4), (2, 8), (5, 4)])
def test_greene_sweep_matches_oracle(alphabet, max_len):
    swept = list(greene_sweep(alphabet, max_len))
    assert [w for w, _, _ in swept] == sorted(words(alphabet, max_len))
    for w, inc, dec in swept:
        assert len(inc) == len(dec) == len(w) + 1
        for k in range(1, len(w) + 2):
            assert inc[k - 1] == greene_oracle(w, k, "increasing"), (w, k)
            assert dec[k - 1] == greene_oracle(w, k, "decreasing"), (w, k)


def leaf_by_states(states, most, a, increasing):
    """The invariants of w a from the chain states of w, one state at a
    time: k chains place a when a state of k chains takes it, or when fewer
    than k chains are in use (most[k - 1])."""
    took = [0] * (len(most) + 1)
    for state, count in states.items():
        if state and (state[0] <= a if increasing else a < state[-1]):
            count += 1
        if took[len(state)] < count:
            took[len(state)] = count
    return tuple(max(below + 1, t) for below, t in zip(most, took[1:]))


@pytest.mark.parametrize("alphabet, max_len", [(3, 6), (4, 4)])
def test_leaf_tally_matches_the_scan_over_states(alphabet, max_len):
    # the sweep reads each leaf off one tally of its parent's states; the
    # scan over every state gives the same invariants at every leaf parent,
    # including parents whose best states of one length tie with ends on
    # either side of a letter
    swept = {w: (inc, dec) for w, inc, dec in greene_sweep(alphabet, max_len)}
    moves = {}
    split_ties = 0
    for parent in words(alphabet, max_len - 1, min_len=max_len - 1):
        chains = {True: {(): 0}, False: {(): 0}}
        for a in parent:
            chains = {mode: plactic._chain_step(chains[mode], a, mode, moves) for mode in chains}
        for side, increasing in enumerate((True, False)):
            states = chains[increasing]
            best = [0] * (len(parent) + 2)
            for state, count in states.items():
                best[len(state)] = max(best[len(state)], count)
            most = list(itertools.accumulate(best, max))
            for a in range(1, alphabet + 1):
                assert swept[parent + (a,)][side] == leaf_by_states(states, most, a, increasing)
            for c in range(1, len(parent) + 1):
                ends = {state[0] if increasing else state[-1]
                        for state, count in states.items()
                        if len(state) == c and count == best[c]}
                split_ties += any(min(ends) <= a < max(ends) for a in range(1, alphabet + 1))
    assert split_ties


def test_reverse_complement():
    assert reverse_complement((1, 2), 2) == (1, 2)
    assert reverse_complement((1, 1), 2) == (2, 2)
    assert reverse_complement((1, 1, 2), 3) == (2, 3, 3)
    with pytest.raises(ValueError):
        reverse_complement((3,), 2)
    for w in words(3, 4):
        assert reverse_complement(reverse_complement(w, 3), 3) == w
    # anti-homomorphism on concatenation
    for u in words(2, 2):
        for v in words(2, 2):
            assert reverse_complement(u + v, 2) == \
                reverse_complement(v, 2) + reverse_complement(u, 2)


def test_evacuation():
    assert evacuation(rsk_P((1, 2)), 2).rows == ((1, 2),)
    assert evacuation(rsk_P((1, 1)), 2).rows == ((2, 2),)
    assert evacuation(rsk_P((1, 2)), 3).rows == ((2, 3),)
    with pytest.raises(ValueError):
        evacuation(rsk_P((3,)), 2)
    for w in words(3, 5):
        t = rsk_P(w)
        image = evacuation(t, 3)
        assert image.shape() == t.shape()
        assert evacuation(image, 3) == t


def test_evacuation_inserts_the_reverse_complement_of_the_row_word():
    rng = random.Random(37)
    for m in range(1, 7):
        for length in (0, 1, 5, 12, 30):
            t = rsk_P(rng.choices(range(1, m + 1), k=length))
            for bound in (m, m + 2):
                image = evacuation(t, bound)
                assert image == rsk_P(reverse_complement(t.row_word(), bound))
                assert type(image.rows) is tuple
                assert all(type(row) is tuple for row in image.rows)
            if length:
                top = t.max_entry()
                with pytest.raises(ValueError, match=f"entries must be at most {top - 1}"):
                    evacuation(t, top - 1)


def test_tau():
    t = rsk_P((3, 1, 1))
    assert t.rows == ((1, 1), (3,))
    assert tau(t, 2).rows == ((2, 2), (3,))
    for w in words(3, 5):
        t = rsk_P(w)
        assert tau(t, 3) == evacuation(t, 3)  # nothing above the barrier
        for m in (1, 2, 3):
            assert tau(tau(t, m), m) == t


def test_concat_tableau_depends_only_on_tableaux():
    pool = list(words(3, 3))
    for u in pool:
        ru = rsk_P(u).row_word()
        for v in pool:
            assert rsk_P(u + v) == rsk_P(ru + rsk_P(v).row_word())


def test_restriction_commutes_with_small_appends():
    for w in words(4, 4):
        for m in (1, 2, 3):
            low = tuple(a for a in w if a <= m)
            for x in words(m, 2):
                assert rsk_P(w + x).restrict_le(m) == rsk_P(low + x)


def _cells_above(t, m):
    """Cells (row, col, entry) of t with entry > m, 0-indexed positions."""
    return frozenset((i, j, e) for i, row in enumerate(t.rows)
                     for j, e in enumerate(row) if e > m)


def _overlay(straight, cells):
    """Overlay cells on a straight tableau; None when the result is not a
    semistandard Young tableau (overlap, gaps, or ordering failures)."""
    grid = {(i, j): e for i, row in enumerate(straight.rows) for j, e in enumerate(row)}
    for i, j, e in cells:
        if (i, j) in grid:
            return None
        grid[(i, j)] = e
    rows = []
    for i in range(max((i for i, _ in grid), default=-1) + 1):
        width = sorted(j for r, j in grid if r == i)
        if not width or width != list(range(len(width))):
            return None
        rows.append([grid[(i, j)] for j in width])
    try:
        return Tableau(rows)
    except ValueError:
        return None


def _overlay_tau(t, m):
    """tau(t, m) as the overlay of the fixed cells on the evacuated part,
    kept only with the shape of t, else None (the oracle of ``tau``)."""
    out = _overlay(plactic.evacuation(t.restrict_le(m), m), _cells_above(t, m))
    return out if out is not None and out.shape() == t.shape() else None


def _tau_or_none(t, m):
    try:
        return tau(t, m)
    except ValueError as err:
        assert "does not reassemble" in str(err)
        return None


def test_threshold_evacuation_matches_the_overlay(monkeypatch):
    tableaux = sorted({rsk_P(w) for w in words(4, 6)}, key=Tableau.sort_key)
    for t in tableaux:
        for m in range(1, 5):
            glued = tau(t, m)
            assert glued == _overlay_tau(t, m), (t, m)
            assert _validated(glued).rows == glued.rows
    # an evacuation that sorts the word into one row changes the shape of
    # every part of two or more rows, and then neither reassembles
    monkeypatch.setattr(plactic, "evacuation", lambda t, m: rsk_P(sorted(t.row_word())))
    rejected = 0
    for t in tableaux:
        for m in range(1, 5):
            glued = _tau_or_none(t, m)
            assert glued == _overlay_tau(t, m), (t, m)
            rejected += glued is None
    assert 0 < rejected < 4 * len(tableaux)


def test_barrier_reassembly():
    # appending small letters: whenever the skew part still fits on top of the
    # updated low tableau, the union is the true insertion tableau
    for w in words(4, 4, min_len=1):
        u_tab = rsk_P(w)
        for m in (1, 2, 3):
            low = u_tab.restrict_le(m)
            high = _cells_above(u_tab, m)
            for x in words(m, 2, min_len=1):
                glued = _overlay(rsk_P(low.row_word() + x), high)
                if glued is not None:
                    assert glued == rsk_P(u_tab.row_word() + x)


def test_check_no_bump():
    assert check_no_bump((1,), Tableau([[1]]))
    assert check_no_bump((1,), Tableau([[1, 1]]))
    assert check_no_bump((1,), Tableau(()))
    assert not check_no_bump((1,), Tableau([[2]]))  # the 1 displaces the 2
    assert not check_no_bump((2, 1), Tableau([[1, 3]]))  # the 2 displaces the 3


def test_centralizer_search():
    c = centralizer_search((1,), 2, 3)
    reps = {t.row_word() for t in c.members}
    assert () in reps          # the empty word commutes with everything
    assert (1,) in reps
    assert (1, 1) in reps
    assert (2,) not in reps    # P(12) != P(21)
    with pytest.raises(ValueError):
        centralizer_search((1,), 9, 3)
    with pytest.raises(ValueError):
        centralizer_search((1,), 2, 99)


@functools.cache
def _knuth_classes(alphabet, max_len):
    """(first word, rows) of every Knuth class of words over [alphabet] of
    length at most max_len, in the lexicographic order of the first words,
    by inserting every word.  The words of a class share one length, and
    ``words`` lists each length in lexicographic order."""
    first = {}
    for w in words(alphabet, max_len):
        first.setdefault(rsk_P(w).rows, w)
    return sorted((w, rows) for rows, w in first.items())


@pytest.mark.parametrize("alphabet, max_len", [(2, 7), (3, 6), (4, 5), (5, 4)])
def test_the_walk_lists_every_class_once_in_first_word_order(alphabet, max_len):
    # the empty word commutes with everything, so its members are every
    # class, each once
    [found] = plactic._commute_members([((), alphabet)], max_len)
    assert found == [rows for _, rows in _knuth_classes(alphabet, max_len)]


def _commutes_with(u, rep):
    """Whether u and rep commute, by inserting both products from scratch
    (the oracle of ``plactic._commute_members``)."""
    return rsk_P(u + rep) == rsk_P(rep + u)


def _oracle_members(u, alphabet, max_len):
    return [rows for rep, rows in _knuth_classes(alphabet, max_len)
            if _commutes_with(u, rep)]


@pytest.mark.parametrize("u", _words_over(2, 4) + _words_over(3, 3))
def test_prefix_shared_verdicts_match_oracle(u):
    cap, length_cap = max(u) + 2, 7
    assert plactic._commute_members([(u, cap)], length_cap) == [
        _oracle_members(u, cap, length_cap)]


@pytest.mark.parametrize("batch, alphabet, max_len", [
    (list(words(3, 4)), 5, 5),
    # Knuth-equivalent words, repeats, the empty word and a shared prefix
    ([(2, 1, 3), (2, 3, 1), (1, 3, 2), (3, 1, 2), (2, 1, 3), (), (2, 1),
      (3, 3, 1, 2), (3, 1, 3, 2), (1,), (4, 1, 2, 3)], 4, 5),
], ids=["all-over-3-to-4", "mixed"])
def test_batched_verdicts_match_oracle(batch, alphabet, max_len):
    found = plactic._commute_members([(u, alphabet) for u in batch], max_len)
    assert len(found) == len(batch)
    for u, members in zip(batch, found):
        assert members == _oracle_members(u, alphabet, max_len), u


def test_a_walk_under_mixed_caps_matches_the_oracle_of_each_cap():
    # caps 3 to 5 in one walk over [5]: Knuth-equivalent words under two caps
    # stay two targets, repeats share one, (3, 1, 2) under cap 3 is tested
    # only on the classes over [3], and a letter of u may exceed every cap
    batch = [((2, 1, 3), 4), ((2, 3, 1), 5), ((1, 2), 3), ((2, 1, 3), 4), ((1, 2), 5),
             ((3, 1, 2), 3), ((1, 1), 3), ((), 4), ((1, 2), 3), ((4, 1, 2, 3), 5),
             ((7, 1, 2), 3)]
    found = plactic._commute_members(batch, 5)
    assert len(found) == len(batch)
    for (u, cap), members in zip(batch, found):
        assert members == _oracle_members(u, cap, 5), (u, cap)
    assert found[0] is found[3] and found[2] is found[8]
    assert found[0] is not found[1] and len(found[0]) < len(found[1])
    assert found[2] is not found[4] and len(found[2]) < len(found[4])


def test_a_single_search_inserts_each_letter_of_u_once_per_class(monkeypatch):
    # a lone u costs one insertion of its letters for P(u).  After that only
    # a class w whose P(w u) and P(u w) share the first row inserts words:
    # u into P(w), then w into P(u), once each.  A step down the walk
    # updates P(w) and the first row of P(u w) without inserting words
    u, cap, length_cap = (2, 1, 3, 1), 4, 5
    classes = _knuth_classes(cap, length_cap)
    agree = [w for w, _ in classes if rsk_P(w + u).rows[0] == rsk_P(u + w).rows[0]]
    expected = [((), u)] + [
        call for w in agree for call in ((rsk_P(w).rows, u), (rsk_P(u).rows, w))]
    calls = []
    insert = plactic._insert_word

    def recording(rows, word, bumped=None):
        word = tuple(word)
        calls.append((tuple(map(tuple, rows)), word))
        insert(rows, word, bumped)

    monkeypatch.setattr(plactic, "_insert_word", recording)
    [found] = plactic._commute_members([(u, cap)], length_cap)
    assert len(found) < len(agree) < len(classes)
    assert calls == expected


@pytest.mark.parametrize("walk", [
    lambda: plactic._commute_members([(u, max(u) + 2) for u in _words_over(3, 3)], 7),
    lambda: genfun._tree_sweep(7),
], ids=["commute-members", "tree-sweep"])
def test_a_walk_keeps_no_table_once_it_returns(walk):
    # with the collector off, a table held by a reference cycle outlives its
    # call (the centralizer walk's seen set, interned rows, insertion table
    # and per-row index); the first call fills the interpreter's free lists,
    # and the second must leave less than 0.2 MiB behind besides its return
    # value
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        walk()
        before = tracemalloc.get_traced_memory()[0]
        result = walk()
        del result
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert retained < 0.2 * 2 ** 20


def test_the_whole_tableaux_decide_when_the_first_rows_agree(monkeypatch):
    # P(3 1 2 1) and P(2 1 3 1) share the first row (1, 1) but not the rest,
    # so the class of 3 1 passes the first-row test, u goes into P(3 1), and
    # the comparison of the whole tableaux rejects it
    u, w = (2, 1), (3, 1)
    assert rsk_P(w + u).rows[0] == rsk_P(u + w).rows[0]
    assert rsk_P(w + u) != rsk_P(u + w)
    expected = _oracle_members(u, 3, 2)
    inserted_into = []
    insert = plactic._insert_word

    def recording(rows, word, bumped=None):
        word = tuple(word)
        if word == u:
            inserted_into.append(tuple(map(tuple, rows)))
        insert(rows, word, bumped)

    monkeypatch.setattr(plactic, "_insert_word", recording)
    [found] = plactic._commute_members([(u, 3)], 2)
    assert rsk_P(w).rows in inserted_into
    assert rsk_P(w).rows not in found
    assert found == expected


def _record_walks(monkeypatch):
    """Record (targets, max_len, found) for every walk of
    ``plactic._commute_members`` from now on."""
    walks = []
    walk = plactic._commute_members

    def recording(targets, max_len):
        found = walk(targets, max_len)
        walks.append((list(targets), max_len, found))
        return found

    monkeypatch.setattr(plactic, "_commute_members", recording)
    return walks


def test_a_centralizer_search_inserts_u_once(monkeypatch):
    # the walk inserts u once for its target, and never through rsk_P
    calls = []
    original = plactic.rsk_P

    def counting(word):
        calls.append(tuple(word))
        return original(word)

    monkeypatch.setattr(plactic, "rsk_P", counting)
    walks = _record_walks(monkeypatch)
    for u in ((2, 1, 2), (2, 1, 2), (1, 2, 2)):
        walks.clear()
        centralizer_search(u, 4, 5)
        assert calls == [] and [targets for targets, *_ in walks] == [[(u, 4)]]


def test_a_batch_returns_the_members_of_each_word(monkeypatch):
    walks = _record_walks(monkeypatch)
    batch = [(2, 1, 3), (1,), (2, 3, 1)]
    found = plactic.centralizer_searches(iter([(u, 4) for u in batch]), 5)
    assert len(walks) == 1
    assert [(c.u, c.alphabet_cap, c.length_cap) for c in found] == [(u, 4, 5) for u in batch]
    for u, c in zip(batch, found):
        expected = _oracle_members(u, 4, 5)
        assert len(c) == len(expected) and {t.rows for t in c.members} == set(expected)


def test_knuth_equivalent_words_share_one_search(monkeypatch):
    # the walk has one target per insertion tableau, so the two words share
    # one target and its list of members
    walks = _record_walks(monkeypatch)
    left, right = plactic.centralizer_searches([((2, 1, 3), 4), ((2, 3, 1), 4)], 5)
    [(_, _, found)] = walks
    assert found[0] is found[1]
    assert left.u == (2, 1, 3) and right.u == (2, 3, 1)
    assert left.members == right.members and len(left) > 1


def test_centralizer_members_commute():
    u = (2, 1)
    c = centralizer_search(u, 3, 4)
    for t in c.members:
        w = t.row_word()
        assert rsk_P(u + w) == rsk_P(w + u)


def test_verify_first_rows():
    r = verify_first_rows((1,), alphabet_cap=3, length_cap=6)
    assert r.theorem == "centralizer-first-rows"
    assert r.status == "verified" and r.instances == 39
    r = verify_first_rows((1, 2), alphabet_cap=4, length_cap=5)
    assert r.status == "verified"


def test_verify_first_rows_rejects_an_alphabet_below_a_letter_of_u():
    with pytest.raises(ValueError, match="alphabet cap 1 is below the letter 2 of u"):
        verify_first_rows((2,), alphabet_cap=1, length_cap=3)
    assert verify_first_rows((2,), alphabet_cap=2, length_cap=3).status == "verified"


def test_verify_rc_correspondence():
    r = verify_rc_correspondence((1,), 1, length_cap=5)
    assert r.theorem == "centralizer-reverse-complement"
    assert r.status == "verified" and r.instances == 50
    assert verify_rc_correspondence((1, 2), 2, alphabet_cap=4,
                                    length_cap=5).status == "verified"
    assert verify_rc_correspondence((1, 1, 2), 3, length_cap=5).status == "verified"


def test_verify_rc_correspondence_walks_once(monkeypatch):
    walks = _record_walks(monkeypatch)
    assert verify_rc_correspondence((1, 1, 2), 3, length_cap=5).status == "verified"
    assert [(targets, max_len) for targets, max_len, _ in walks] == [
        ([((1, 1, 2), 5), ((2, 3, 3), 5)], 5)]


@pytest.mark.parametrize("m", [0, -1])
def test_verify_rc_correspondence_rejects_a_threshold_below_1(m):
    with pytest.raises(ValueError, match=f"threshold m = {m} must be at least 1"):
        verify_rc_correspondence((), m, length_cap=2)
