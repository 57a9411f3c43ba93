import gc
import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from exactcomb import genfun, parking, plactic
from exactcomb.core import BiPoly, Permutation
from exactcomb.parking import (
    BijectionCheckError,
    ParkingFailure,
    _ordering_sweep,
    _rearrangement_sweep,
    excedance_polynomial,
    induced_parking,
    insert_forward,
    insert_inverse,
    is_parking_function,
    mu,
    park,
    parking_contents,
    parking_stats,
    phi,
    rook_numbers,
    rook_placements,
    verify_fixed_content,
)

WORKED_B = (1, 1, 2, 4, 5, 6)
WORKED_ROOKS = frozenset({(1, 3), (2, 6), (4, 5)})
WORKED_W = Permutation((6, 3, 2, 5, 4, 1))


def direct_excedance_polynomial(b):
    """Oracle: excedances of every ordering of b, counted one by one."""
    acc = Counter()
    for perm in itertools.permutations(range(1, len(b) + 1)):
        acc[parking_stats(tuple(b[v - 1] for v in perm)).exced] += 1
    return BiPoly({(0, e): c for e, c in acc.items()})


def outcome_descent_polynomial(b):
    """Oracle: sum of t^(descents of the outcome) over all orderings of b."""
    acc = Counter()
    for perm in itertools.permutations(range(1, len(b) + 1)):
        acc[park(tuple(b[v - 1] for v in perm)).des()] += 1
    return BiPoly({(0, e): c for e, c in acc.items()})


def phi_preimages(b):
    """Oracle: phi(w, A) over every ordering w and descent subset A."""
    n = len(b)
    fibers = Counter()
    for w in itertools.permutations(range(1, n + 1)):
        perm = Permutation(w)
        _, outcome = induced_parking(b, perm)
        des = outcome.descent_set()
        for r in range(len(des) + 1):
            for a_subset in itertools.combinations(sorted(des), r):
                fibers[phi(b, perm, a_subset)] += 1
    return fibers


def test_park_examples():
    assert park((6, 2, 1, 5, 4, 1)).one_line == (6, 2, 1, 5, 4, 3)
    for n in range(1, 6):
        assert park(tuple(range(1, n + 1))) == Permutation(range(1, n + 1))
    with pytest.raises(ParkingFailure, match="car 2 cannot park"):
        park((2, 2))


def test_park_succeeds_iff_sorted_criterion():
    for n in range(1, 6):
        for prefs in itertools.product(range(1, n + 1), repeat=n):
            criterion = is_parking_function(prefs)
            try:
                park(prefs)
                parked = True
            except ParkingFailure:
                parked = False
            assert parked == criterion, prefs


def test_parking_function_counts():
    for n in range(1, 6):
        words = itertools.product(range(1, n + 1), repeat=n)
        assert sum(map(is_parking_function, words)) == (n + 1) ** (n - 1)


def test_stats_examples():
    s = parking_stats((6, 2, 1, 5, 4, 1))
    assert s.cosum == 21 - 19 == 2
    assert s.exced == 2  # positions 1 and 4
    assert parking_stats(tuple(range(1, 8))) == (0, 0)
    assert parking_stats((1, 1)) == (1, 0)


def test_cosum_constant_on_content_classes():
    for n in range(1, 6):
        for b in parking_contents(n):
            base = math.comb(n + 1, 2) - sum(b)
            for w in itertools.permutations(range(1, n + 1)):
                prefs, _ = induced_parking(b, Permutation(w))
                assert parking_stats(prefs).cosum == base


def test_induced_parking_examples():
    prefs, outcome = induced_parking(WORKED_B, Permutation((6, 3, 2, 5, 4, 1)))
    assert prefs == (6, 2, 1, 5, 4, 1)
    assert outcome.one_line == (6, 2, 1, 5, 4, 3)
    b = (1, 2)
    prefs, outcome = induced_parking(b, Permutation((2, 1)))
    assert prefs == (2, 1) and outcome.one_line == (2, 1)
    prefs, _ = induced_parking((1, 1, 3), Permutation((1, 2, 3)))
    assert prefs == (1, 1, 3)


def test_contents_are_catalan():
    for n, catalan in ((1, 1), (2, 2), (3, 5), (4, 14), (5, 42), (6, 132)):
        assert sum(1 for _ in parking_contents(n)) == catalan


def test_mu():
    assert mu((1, 2, 3)) == 1
    assert mu((1, 1, 1)) == 6
    assert mu(WORKED_B) == 2


def test_boards_and_rook_numbers():
    assert rook_numbers((1, 1, 1)) == (1, 0, 0, 0)
    assert rook_numbers((1, 2)) == (1, 1, 0)
    # frozen from the brute-force placement enumerator
    assert rook_numbers(WORKED_B) == (1, 13, 46, 46, 8, 0, 0)


def test_rook_dp_matches_enumerator():
    for n in range(1, 7):
        for b in parking_contents(n):
            counted = Counter()
            for placement in rook_placements(b):
                counted[len(placement)] += 1
            dp = rook_numbers(b)
            assert dp == tuple(counted.get(k, 0) for k in range(n + 1)), b


def test_contents_come_in_lexicographic_order():
    # criterion 5 reports the first content that fails, so the order is pinned
    for n in range(7):
        words = itertools.product(range(1, n + 1), repeat=n)
        assert list(parking_contents(n)) == [
            b for b in words if list(b) == sorted(b) and is_parking_function(b)], n


def test_rook_placements_come_in_lexicographic_order_of_their_rows():
    # the row of each column, 0 for no rook; criterion 5 reports the first
    # placement that fails, so the order is pinned
    for n in range(1, 7):
        for b in parking_contents(n):
            rows = [tuple(dict((c, r) for r, c in placement).get(c, 0) for c in range(1, n + 1))
                    for placement in rook_placements(b)]
            assert rows == sorted(set(rows)), b
            assert all(0 <= r < v for row in rows for r, v in zip(row, b)), b


def test_enumerators_leave_no_garbage_for_the_cyclic_collector():
    # with automatic collection off, no collection during a call can hide a
    # cycle; the recursive walks drop their own closures when they return
    def enumerate_placements():
        for b in parking_contents(6):
            for _ in rook_placements(b):
                pass

    calls = {
        "parking_contents and rook_placements": enumerate_placements,
        "_rearrangement_sweep": lambda: _rearrangement_sweep((1, 1, 2, 3)),
        "_tree_sweep": lambda: genfun._tree_sweep(5),
        "_simsun_walk": lambda: genfun._simsun_walk(7),
        "_prefix_walk": lambda: genfun._prefix_walk(6, genfun._alternating_step),
        "greene_sweep": lambda: list(plactic.greene_sweep(2, 4)),
        "greene_sweep stopped early": lambda: next(plactic.greene_sweep(2, 4)),
    }
    gc.collect()
    gc.disable()
    try:
        for name, call in calls.items():
            call()
            assert gc.collect() == 0, name
    finally:
        gc.enable()


def test_excedance_polynomial_examples():
    t = BiPoly.t()
    assert excedance_polynomial((1, 1)) == 2
    assert excedance_polynomial((1, 2)) == 1 + t
    for b in ((1, 1, 2), (1, 2, 3), (1, 1, 1)):
        assert direct_excedance_polynomial(b) == excedance_polynomial(b)


def test_excedance_equals_rook_formula_all_small_contents():
    for n in range(1, 6):
        for b in parking_contents(n):
            assert direct_excedance_polynomial(b) == excedance_polynomial(b)
            assert excedance_polynomial(b) == outcome_descent_polynomial(b)


@pytest.mark.parametrize("n", range(1, 7))
def test_ordering_sweep_matches_oracles(n):
    orderings = list(itertools.permutations(range(1, n + 1)))
    for b in parking_contents(n):
        exced, descents, bad_leaf = _rearrangement_sweep(b)
        assert BiPoly({(0, e): c for e, c in exced.items()}) \
            == direct_excedance_polynomial(b), b
        assert BiPoly({(0, e): c for e, c in descents.items()}) \
            == outcome_descent_polynomial(b), b
        # the labelled orderings' own count: every parking function with
        # content b arises from mu(b) of them, and the walk weighs it so
        labelled = Counter(tuple(b[v - 1] for v in w) for w in orderings)
        assert set(labelled.values()) == {mu(b)}, b
        assert bad_leaf is None, b
        if n <= 5:
            preimages, outcomes = _ordering_sweep(b)
            assert preimages == phi_preimages(b), b
            assert outcomes == {
                w: park(tuple(b[v - 1] for v in w)).one_line for w in orderings}


def test_the_walk_reports_its_first_leaf_whose_weight_is_not_mu(monkeypatch):
    true_mu = mu
    monkeypatch.setattr(parking, "mu", lambda b: true_mu(b) + 1)
    for b in (WORKED_B, (1, 1, 1), (1, 2, 3)):
        assert _rearrangement_sweep(b)[2] == (b, true_mu(b)), b  # the first leaf is b
    r = parking.verify_fixed_content(3)
    assert r.status == "counterexample" and r.instances == 1
    assert r.witness == {"b": [1, 1, 1], "defect": "mu fiber mismatch",
                         "pi": [1, 1, 1], "count": 6, "mu": 7}


def test_rearrangement_sweep_matches_rook_formula_at_n_7():
    # beyond the brute-force oracles: contents with up to seven equal values
    for b in parking_contents(7):
        exced, descents, bad_leaf = _rearrangement_sweep(b)
        assert bad_leaf is None, b
        via_rooks = excedance_polynomial(b)
        assert BiPoly({(0, e): c for e, c in exced.items()}) == via_rooks, b
        assert BiPoly({(0, e): c for e, c in descents.items()}) == via_rooks, b


def test_phi_examples():
    assert phi(WORKED_B, WORKED_W, {1, 2, 4}) == WORKED_ROOKS
    assert phi(WORKED_B, WORKED_W, ()) == frozenset()
    assert phi((1, 2), Permutation((2, 1)), {1}) == frozenset({(1, 2)})
    with pytest.raises(ValueError):
        phi((1, 2), Permutation((1, 2)), {1})  # outcome 12 has no descent


def test_insert_forward_worked_instance():
    w, a_set = insert_forward(WORKED_B, WORKED_ROOKS, (2, 4, 1))
    assert w.one_line == (6, 3, 2, 5, 4, 1)
    assert a_set == frozenset({1, 2, 4})


def test_insert_forward_small():
    w, a_set = insert_forward((1, 2), {(1, 2)}, (1,))
    assert w.one_line == (2, 1) and a_set == frozenset({1})
    # no rooks: the word passes through untouched
    w, a_set = insert_forward((1, 1, 2), frozenset(), (3, 1, 2))
    assert w.one_line == (3, 1, 2) and a_set == frozenset()
    with pytest.raises(ValueError):
        insert_forward((1, 2), {(1, 2)}, (2,))  # u0 must order the rook-free columns


def test_insert_inverse():
    assert insert_inverse(WORKED_B, WORKED_ROOKS, WORKED_W, {1, 2, 4}) == (2, 4, 1)
    assert insert_inverse((1, 2), {(1, 2)}, Permutation((2, 1)), {1}) == (1,)
    w = Permutation((3, 1, 2))
    assert insert_inverse((1, 1, 2), frozenset(), w, ()) == (3, 1, 2)
    with pytest.raises(ValueError):
        insert_inverse((1, 2), {(1, 2)}, Permutation((1, 2)), {1})


def test_round_trip_exhaustive_small():
    for n in range(1, 5):
        for b in parking_contents(n):
            for placement in rook_placements(b):
                k = len(placement)
                free = sorted(set(range(1, n + 1)) - {c for _, c in placement})
                for u0 in itertools.permutations(free):
                    w, a_set = insert_forward(b, placement, u0)
                    assert insert_inverse(b, placement, w, a_set) == u0


def test_phi_preimage_count():
    # every k-rook placement has exactly (n-k)! preimages among (w, A) pairs
    for n in range(1, 5):
        for b in parking_contents(n):
            for placement, hits in phi_preimages(b).items():
                assert hits == math.factorial(n - len(placement)), (b, placement)


def test_verify_fixed_content_report():
    r = verify_fixed_content(3)
    assert r.status == "verified"
    assert r.instances == 5  # Catalan(3) contents
    assert verify_fixed_content(1).status == "verified"
    with pytest.raises(ValueError):
        verify_fixed_content(9)


@pytest.mark.parametrize("n", [4, 5])
def test_fixed_content_round_trips_every_placement_through_n_5(monkeypatch, n):
    # one insertion per rook placement and free-column order, so a bound on
    # the fiber checks below 5 shows as a shortfall
    inserted = []
    insert = parking._insert_columns
    monkeypatch.setattr(parking, "_insert_columns",
                        lambda b, placement, u0: inserted.append(b) or insert(b, placement, u0))
    assert verify_fixed_content(n).status == "verified"
    expected = {b: sum(r * math.factorial(n - k)
                       for k, r in enumerate(rook_numbers(b)))
                for b in parking_contents(n)}
    assert Counter(inserted) == expected


# -- the proved statements raise, also under python -O -------------------------


def _broken_kernels():
    """(parking attribute, broken replacement, call that must raise) for
    each proved statement that phi and the insertion maps check."""
    insert_columns = parking._insert_columns

    def off_board(b, rooks):
        raise ValueError("rook (9, 9) is outside the board")

    def no_positions(b, placement, u0):
        return insert_columns(b, placement, u0)[0], frozenset()

    return {
        "phi off the board": (
            "_check_placement", off_board,
            lambda: parking.phi(WORKED_B, WORKED_W, {1, 2, 4})),
        "insertion finds an empty spot": (
            "_park_labels", lambda b, labels: [0] * (len(b) + 1),
            lambda: parking.insert_forward(WORKED_B, WORKED_ROOKS, (2, 4, 1))),
        "insertion outside phi's preimage": (
            "_insert_columns", no_positions,
            lambda: parking.insert_forward(WORKED_B, WORKED_ROOKS, (2, 4, 1))),
        "inverse not undone by insertion": (
            "_insert_columns", no_positions,
            lambda: parking.insert_inverse(WORKED_B, WORKED_ROOKS, WORKED_W, {1, 2, 4})),
    }


@pytest.mark.parametrize("case", sorted(_broken_kernels()))
def test_broken_bijection_kernel_raises(monkeypatch, case):
    attr, broken, call = _broken_kernels()[case]
    monkeypatch.setattr(parking, attr, broken)
    with pytest.raises(BijectionCheckError):
        call()
    assert issubclass(BijectionCheckError, RuntimeError)
    assert not issubclass(BijectionCheckError, ValueError)  # exit 3, not 2


def test_broken_bijection_kernels_raise_under_python_O():
    here = Path(__file__).resolve().parent
    script = (
        "import sys\n"
        "assert False, 'asserts are on'\n"
        "import test_parking\n"
        "from exactcomb import parking\n"
        "for case, (attr, broken, call) in test_parking._broken_kernels().items():\n"
        "    kept = getattr(parking, attr)\n"
        "    setattr(parking, attr, broken)\n"
        "    try:\n"
        "        call()\n"
        "    except parking.BijectionCheckError:\n"
        "        pass\n"
        "    else:\n"
        "        sys.exit(f'{case}: nothing raised')\n"
        "    setattr(parking, attr, kept)\n"
    )
    path = os.pathsep.join([str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-O", "-c", script], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
