import itertools

import pytest

from exactcomb import plactic
from exactcomb.acceptance import _words_over
from exactcomb.plactic import (
    EMPTY_TABLEAU,
    GREENE_WORD_LIMIT,
    Tableau,
    centralizer_search,
    check_no_bump,
    evacuation,
    greene_oracle,
    greene_sweep,
    knuth_class_brute,
    knuth_equivalent,
    knuth_neighbors,
    reverse_complement,
    rsk_P,
    skew_union,
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
    assert EMPTY_TABLEAU.shape() == ()


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


def test_knuth_equivalence_matches_tableaux():
    for w in words(3, 5):
        assert knuth_equivalent(w, rsk_P(w).row_word())
    assert not knuth_equivalent((1, 2), (2, 1))
    assert knuth_equivalent((2, 1, 3), (2, 3, 1))  # a<b<=c window swap


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
    # decreasing ones the first k columns
    for w in words(3, 6, min_len=1):
        t = rsk_P(w)
        shape, conj = t.shape(), t.conjugate_shape()
        for k in range(1, len(w) + 1):
            assert greene_oracle(w, k, "increasing") == sum(shape[:k])
            assert greene_oracle(w, k, "decreasing") == sum(conj[:k])


@pytest.mark.parametrize("alphabet, max_len", [(3, 6), (4, 4)])
def test_greene_sweep_matches_oracle(alphabet, max_len):
    swept = list(greene_sweep(alphabet, max_len))
    assert [w for w, _, _ in swept] == sorted(words(alphabet, max_len))
    for w, inc, dec in swept:
        assert len(inc) == len(dec) == len(w) + 1
        for k in range(1, len(w) + 2):
            assert inc[k - 1] == greene_oracle(w, k, "increasing"), (w, k)
            assert dec[k - 1] == greene_oracle(w, k, "decreasing"), (w, k)


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


def test_tau():
    t = rsk_P((3, 1, 1))
    assert t.rows == ((1, 1), (3,))
    assert tau(t, 2).rows == ((2, 2), (3,))
    for w in words(3, 5):
        t = rsk_P(w)
        assert tau(t, 3) == evacuation(t, 3)  # nothing above the barrier
        for m in (1, 2, 3):
            assert tau(tau(t, m), m) == t


def test_skew_union():
    t = rsk_P((2, 1, 3, 2))
    for m in (1, 2, 3):
        assert skew_union(t.restrict_le(m), t.skew_above(m)) == t
    assert skew_union(Tableau([[1]]), frozenset({(0, 0, 2)})) is None  # overlap
    assert skew_union(Tableau([[1]]), frozenset({(0, 2, 2)})) is None  # gap
    assert skew_union(Tableau([[1]]), frozenset({(1, 0, 1)})) is None  # column order
    assert skew_union(EMPTY_TABLEAU, frozenset()) == EMPTY_TABLEAU


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


def test_barrier_reassembly():
    # appending small letters: whenever the skew part still fits on top of the
    # updated low tableau, the union is the true insertion tableau
    for w in words(4, 4, min_len=1):
        u_tab = rsk_P(w)
        for m in (1, 2, 3):
            low = u_tab.restrict_le(m)
            high = u_tab.skew_above(m)
            for x in words(m, 2, min_len=1):
                glued = skew_union(rsk_P(low.row_word() + x), high)
                if glued is not None:
                    assert glued == rsk_P(u_tab.row_word() + x)


def test_check_no_bump():
    assert check_no_bump((1,), (1,))
    assert check_no_bump((1,), (1, 1))
    assert not check_no_bump((1,), (2,))  # the 1 displaces the 2


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


@pytest.mark.parametrize("alphabet, max_len", [(2, 7), (3, 6), (4, 5), (5, 4)])
def test_knuth_class_representatives_are_prefix_closed(alphabet, max_len):
    classes = plactic._knuth_classes(alphabet, max_len)
    reps = [rep for rep, _ in classes]
    assert reps == sorted(reps) and reps[0] == ()
    assert all(rep[:-1] in set(reps) for rep in reps[1:])
    # each representative is the lexicographically first word of its class
    assert all(rsk_P(rep).rows == rows for rep, rows in classes)
    first = {}
    for w in words(alphabet, max_len):
        first.setdefault(rsk_P(w).rows, w)
    assert sorted(first.values()) == reps


@pytest.mark.parametrize("u", _words_over(2, 4) + _words_over(3, 3))
def test_prefix_shared_verdicts_match_oracle(u):
    cap, length_cap = max(u) + 2, 7
    classes = plactic._knuth_classes(cap, length_cap)
    fast = plactic._commute_verdicts(u, cap, length_cap)
    assert fast == [plactic._commutes_with(u, rep) for rep, _ in classes]


def test_centralizer_search_is_memoized(monkeypatch):
    monkeypatch.setattr(plactic, "_centralizers", {})
    first = centralizer_search((2, 1, 2), 4, 5)
    assert list(plactic._centralizers) == [((2, 1, 2), 4, 5)]
    assert centralizer_search((2, 1, 2), 4, 5).members == first.members


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


def test_verify_rc_correspondence():
    r = verify_rc_correspondence((1,), 1, length_cap=5)
    assert r.theorem == "centralizer-reverse-complement"
    assert r.status == "verified" and r.instances == 50
    assert verify_rc_correspondence((1, 2), 2, alphabet_cap=4,
                                    length_cap=5).status == "verified"
    assert verify_rc_correspondence((1, 1, 2), 3, length_cap=5).status == "verified"
