"""Full-scale acceptance battery, one test per criterion.

Each test runs its row of ``acceptance.BATTERY`` at the full-tier caps and
demands an exactly verified report: any counterexample or skip fails the
test and prints the offending witness. The lattice sweep and parking sweep
caches warm up on first use and persist for the rest of the session, so the
whole file runs in about 5 seconds on a 2-vCPU AMD EPYC with Python 3.11.

The last tests pin the quick battery's report bytes to a committed copy,
serial and pooled, check that the benchmark's sweeps call exactly the full
tier, and break checkers on purpose to show their criterion fails.
"""

import importlib.util
import itertools
import json
import random
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

from exactcomb import acceptance, genfun, parking, plactic, posets
from exactcomb.cli import main
from exactcomb.core import BiPoly, IntMatrix, Permutation
from exactcomb.report import Report, reports_to_json
from test_plactic import _knuth_classes, _oracle_members, _record_walks
from test_posets import bounded_labelled_posets, code_of, labelled_lattices

QUICK_BATTERY_JSON = Path(__file__).parent / "data" / "battery_quick.json"
PERFBENCH_WORKLOADS = Path(__file__).parent.parent / "perfbench" / "workloads.py"


def _require(number: int, report) -> None:
    line = (f"criterion {number:2d} ({report.theorem}): "
            f"{'PASS' if report.status == 'verified' else 'FAIL'} "
            f"instances={report.instances}")
    print(line)
    assert report.status == "verified", (line, report.witness)


def _require_full_tier(number: int) -> None:
    row = acceptance.BATTERY[number - 1]
    _require(number, row.check(**row.kwargs(quick=False, seed=0)))


def test_criterion_01_echelon_cover_transfer():
    _require_full_tier(1)


def test_criterion_02_dilworth_profiles():
    _require_full_tier(2)


def test_criterion_03_rowmotion_agreement():
    _require_full_tier(3)


def test_criterion_04_bruhat_invariance():
    _require_full_tier(4)


def test_criterion_05_fixed_content_bijection():
    _require_full_tier(5)


def test_criterion_06_excedance_distribution():
    _require_full_tier(6)


def test_criterion_07_tree_polynomials():
    _require_full_tier(7)


def test_criterion_08_simsun_specialization():
    _require_full_tier(8)


def test_criterion_09_alternating_classes():
    _require_full_tier(9)


def test_criterion_10_greene_invariants():
    _require_full_tier(10)


def test_criterion_11_first_rows_bound():
    _require_full_tier(11)


def test_criterion_12_reverse_complement_map():
    _require_full_tier(12)


def test_criterion_13_determinism():
    _require_full_tier(13)


def test_every_battery_row_has_a_full_tier_test():
    numbers = sorted(int(name[15:17]) for name in globals()
                     if name.startswith("test_criterion_"))
    assert numbers == list(range(1, len(acceptance.BATTERY) + 1))


def test_first_failure_counts_verified_reports_and_tags_the_failure():
    ok = Report("part", 3, "verified")
    bad = Report("part", 5, "counterexample", {"word": [2, 1]})
    assert acceptance._first_failure([(ok, {"n": 1})] * 2) == (6, None)
    instances, failure = acceptance._first_failure(
        [(ok, {"n": 1}), (bad, {"n": 2}), (ok, {"n": 3})])
    assert instances == 3
    assert failure == Report("part", 3, "counterexample", {"word": [2, 1], "n": 2})
    skipped = Report("part", 0, "skipped")
    assert acceptance._first_failure([(ok, {}), (skipped, {})]) == (
        3, Report("part", 3, "skipped"))


def test_quick_battery_report_bytes_are_pinned():
    expected = QUICK_BATTERY_JSON.read_text()
    assert reports_to_json(acceptance.run_battery(quick=True)) == expected


def test_pooled_quick_battery_report_bytes_are_pinned():
    expected = QUICK_BATTERY_JSON.read_text()
    assert reports_to_json(acceptance.run_battery(quick=True, workers=2)) == expected


def test_benchmark_sweeps_run_the_full_tier_in_battery_order(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH_WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    calls = []
    for row in acceptance.BATTERY:
        name = row.check.__name__
        monkeypatch.setattr(acceptance, name, lambda name=name, **kw: calls.append((name, kw)))
    seed = 7
    for sweep in workloads.SWEEPS:
        for _, call in workloads.sweep_criteria(sweep, seed):
            call()
    assert [(name, {k: v for k, v in kw.items() if k != "pmap"}) for name, kw in calls] == [
        (row.check.__name__, row.kwargs(quick=False, seed=seed)) for row in acceptance.BATTERY]
    pmaps = [kw["pmap"] for _, kw in calls if "pmap" in kw]
    assert pmaps and all(pmap is map for pmap in pmaps)


def test_full_lattice_sweep_counts():
    sweep = acceptance.lattice_sweep(6)
    assert sweep.posets_seen == 134_496
    # one lattice per isomorphism class, with its labelled copies
    assert (len(sweep.modular), len(sweep.distributive)) == (17, 13)
    assert (sum(c for _, c in sweep.modular), sum(c for _, c in sweep.distributive)) == (
        3_095, 2_805)


def test_lattice_criteria_decide_each_class_once(monkeypatch):
    # a fresh sweep cache for this test alone, so every lattice is built here
    monkeypatch.setattr(acceptance, "lattice_sweep", cache(acceptance.LatticeSweep))
    classes = {code_of(p) for p in bounded_labelled_posets(5)}
    modular_classes = {code_of(lat.poset) for lat in labelled_lattices(5)[0]}
    catalog_builds = []
    catalog = posets.lattice_catalog
    monkeypatch.setattr(posets, "lattice_catalog",
                        lambda: catalog_builds.append(1) or catalog())
    built = []
    build = posets.build_lattice
    monkeypatch.setattr(posets, "build_lattice", lambda p: built.append(build(p)) or built[-1])
    checked = []
    dilworth = posets.verify_dilworth
    monkeypatch.setattr(posets, "verify_dilworth", lambda L: checked.append(L) or dilworth(L))
    reports = [row.check(**row.kwargs(quick=True, seed=0)) for row in acceptance.BATTERY[:3]]
    pinned = json.loads(QUICK_BATTERY_JSON.read_text())[:3]
    assert json.loads(reports_to_json(reports)) == pinned
    # one lattice built per class of bounded posets on up to five elements,
    # then the catalog once per lattice criterion
    assert len(catalog_builds) == 3
    assert len(built) == len(classes) + 3 * 12 == 10 + 36
    # one Dilworth check per modular class, then one per modular catalog lattice
    modular_catalog = [lat for lat in catalog().values() if posets.is_modular(lat)]
    sweep = acceptance.lattice_sweep(5)
    assert sum(copies for _, copies in sweep.modular) == 305
    assert checked[:len(sweep.modular)] == [lat for lat, _ in sweep.modular]
    assert [lat.poset.up for lat in checked[len(sweep.modular):]] == [
        lat.poset.up for lat in modular_catalog]
    assert len(checked) == len(modular_classes) + len(modular_catalog) == 9 + 11


# -- one check per isomorphism class in criteria 1 to 3 --------------------------


def _in_sweep_order(labelled, listed):
    """The labelled lattices grouped by class, the classes in the order the
    sweep lists them, each led by the lattice on its representative's
    labels."""
    members = {}
    for lat in labelled:
        members.setdefault(code_of(lat.poset), []).append(lat)
    ordered = []
    for rep, copies in listed:
        group = members[code_of(rep.poset)]
        assert len(group) == copies
        ordered += sorted(group, key=lambda lat: lat.poset.up != rep.poset.up)
    return ordered


def _per_lattice_echelon(max_n, catalog_cap):
    """criterion_echelon as a loop that walks every labelled lattice itself."""
    name = "echelon-cover-transfer"
    sweep = acceptance.lattice_sweep(max_n)
    labelled = _in_sweep_order(labelled_lattices(max_n)[0], sweep.modular)
    catalog = [(cname, lat) for cname, lat in posets.lattice_catalog().items()
               if posets.is_modular(lat)]
    instances, failure = acceptance._first_failure(itertools.chain(
        ((posets.verify_echelon_theorem(lat), {}) for lat in labelled),
        ((posets.verify_echelon_theorem(lat, extension_cap=catalog_cap),
          {"catalog": cname}) for cname, lat in catalog)))
    return failure or Report(name, instances, "verified", {
        "posets_enumerated": sweep.posets_seen,
        "modular_lattices": len(labelled),
        "catalog": [cname for cname, _ in catalog],
        "extensions_checked": instances,
    })


def _per_lattice_rowmotion(max_n, catalog_cap):
    """criterion_rowmotion as a loop that walks every labelled lattice itself."""
    name = "echelon-equals-rowmotion"
    labelled = _in_sweep_order(labelled_lattices(max_n)[1],
                               acceptance.lattice_sweep(max_n).distributive)
    targets = [("sweep", lat, None) for lat in labelled]
    targets += [(cname, lat, catalog_cap) for cname, lat in posets.lattice_catalog().items()
                if posets.is_distributive(lat)]
    instances, failure = acceptance._first_failure(
        (posets.verify_rowmotion(lat, extension_cap=cap),
         {"source": cname, "covers": lat.poset.cover_pairs()})
        for cname, lat, cap in targets)
    return failure or Report(name, instances, "verified", {
        "distributive_lattices": len(targets),
        "pairs_checked": instances,
    })


def _sweep_reports(verify, listed):
    """The reports criteria 1 to 3 take for the sweep's classes."""
    return [r for r, _ in acceptance._lattice_checks(verify, listed, [], lambda *_: {})]


def test_each_lattice_walked_alone_reports_what_its_class_reports():
    sweep = acceptance.lattice_sweep(6)
    modular, distributive = labelled_lattices(6)
    for verify, labelled, listed in ((posets.verify_echelon_theorem, modular, sweep.modular),
                                     (posets.verify_dilworth, modular, sweep.modular),
                                     (posets.verify_rowmotion, distributive, sweep.distributive)):
        own = {}
        for lat in labelled:
            own.setdefault(code_of(lat.poset), []).append(verify(lat))
        expected = []
        for rep, copies in listed:
            # status, instances and all: each member reports what the class does
            reports = own[code_of(rep.poset)]
            assert reports == [verify(rep)] * copies
            assert reports[0].status == "verified"
            expected.append(Report(reports[0].theorem, sum(r.instances for r in reports),
                                   "verified", reports[0].witness))
        assert len(own) == len(listed)
        assert _sweep_reports(verify, listed) == expected


def test_lattice_criteria_walk_the_first_lattice_of_each_class(monkeypatch):
    sweep = acceptance.lattice_sweep(6)
    modular, distributive = labelled_lattices(6)
    walked = []
    walk = posets._echelon_walk
    monkeypatch.setattr(posets, "_echelon_walk",
                        lambda p, allowed, cap: walked.append(p) or walk(p, allowed, cap))
    # criterion 1: 17 classes of modular lattices, then 11 modular catalog
    # lattices; criterion 3: 13 classes of distributive ones, then 7
    for criterion, labelled, listed, class_count, catalog in (
            (acceptance.criterion_echelon, modular, sweep.modular, 17, 11),
            (acceptance.criterion_rowmotion, distributive, sweep.distributive, 13, 7)):
        walked.clear()
        assert criterion(max_n=6, catalog_cap=10).status == "verified"
        assert walked[:class_count] == [lat.poset for lat, _ in listed]
        assert len({code_of(p) for p in walked[:class_count]}) == class_count
        assert {code_of(p) for p in walked[:class_count]} == {code_of(lat.poset) for lat in labelled}
        assert len(walked) == class_count + catalog


def _class_of(listed, pick):
    """The canonical form of one class of the sweep; ``pick`` chooses by
    size among the classes but the first."""
    return code_of(pick(listed[1:], key=lambda pair: (pair[1], code_of(pair[0].poset)))[0].poset)


@pytest.mark.parametrize("pick", [min, max], ids=["smallest-class", "largest-class"])
def test_a_failing_class_reports_as_the_per_lattice_loop_does(monkeypatch, pick):
    # A kernel broken on every lattice of one class that is not the first:
    # criterion 1 finds the class not modular, with a law failure at the
    # lattice's bottom and top, and criterion 3 gets the identity for
    # rowmotion.  Each criterion must report what a loop that walks every
    # labelled lattice itself reports, class by class in the sweep's order,
    # on the representative's labels first.
    sweep = acceptance.lattice_sweep(6)
    witness, rowmotion = posets.modular_witness, posets.rowmotion_distributive
    broken = _class_of(sweep.modular, pick)

    def law_failure(L):
        full = (1 << L.n) - 1
        return (L.poset.up.index(full), L.poset.down.index(full), 0)

    monkeypatch.setattr(posets, "modular_witness", lambda L: law_failure(L)
                        if code_of(L.poset) == broken else witness(L))
    expected = _per_lattice_echelon(6, 100)
    assert expected.status == "skipped" and expected.instances > 0
    assert reports_to_json([acceptance.criterion_echelon(6, 100)]) == reports_to_json([expected])
    monkeypatch.setattr(posets, "modular_witness", witness)

    broken = _class_of(sweep.distributive, pick)
    monkeypatch.setattr(posets, "rowmotion_distributive", lambda L: tuple(range(L.n))
                        if code_of(L.poset) == broken else rowmotion(L))
    expected = _per_lattice_rowmotion(6, 100)
    assert expected.status == "counterexample" and expected.instances > 0
    assert reports_to_json([acceptance.criterion_rowmotion(6, 100)]) == reports_to_json(
        [expected])


def test_lost_lower_covers_fail_criterion_02(monkeypatch):
    # every element loses its lower covers, so the bottom of a two-chain
    # has one upper cover that no element matches from below
    monkeypatch.setattr(posets.Poset, "covers_down", lambda self: (0,) * self.n)
    r = acceptance.criterion_dilworth(max_n=3)
    assert r.status == "counterexample" and r.instances == 1
    assert r.witness["down_multiset"] == [0, 0]
    assert r.witness["up_multiset"] == [0, 1]
    assert r.witness["covers"] == [(0, 1)]  # the sweep's two-chain


def test_identity_bruhat_kernel_fails_criterion_04(monkeypatch):
    monkeypatch.setattr(posets, "bruhat_permutation",
                        lambda m: Permutation(range(1, m.rows + 1)))
    r = acceptance.criterion_bruhat(max_n=3, perturbations=2)
    assert r.status == "counterexample"
    assert r.witness == {"permutation": [2, 1], "got": [1, 2]}


def _break_product_kernel(monkeypatch):
    """Patch the double-coset kernel to be right on products that are 0/1
    matrices and the identity on any other product."""
    kernel = posets.bruhat_of_product

    def broken(u1, w, u2):
        if all(v in (0, 1) for row in (u1 @ (w @ u2)).entries for v in row):
            return kernel(u1, w, u2)
        return Permutation(range(1, w.rows + 1))

    monkeypatch.setattr(posets, "bruhat_of_product", broken)


def test_non_invariant_bruhat_kernel_fails_criterion_04(monkeypatch):
    _break_product_kernel(monkeypatch)
    r = acceptance.criterion_bruhat(max_n=3, perturbations=2, seed=5)
    assert r.status == "counterexample"
    assert r.witness["catalog"] == "C2xC2"
    assert r.witness["got"] == [1, 2, 3, 4] != r.witness["expected"]
    assert {"u1", "u2"} <= set(r.witness)


def _perturb_one_side(monkeypatch, side):
    """Transpose every u1 (side 0) or every u2 (side 1) that criterion 4
    draws: a unit lower-triangular factor is outside B, so it may move the
    permutation."""
    draw, drawn = acceptance.random_unit_upper_triangular, itertools.count()

    def one_side_lower(n, rng):
        u = draw(n, rng)
        return IntMatrix(zip(*u.entries)) if next(drawn) % 2 == side else u

    monkeypatch.setattr(acceptance, "random_unit_upper_triangular", one_side_lower)


@pytest.mark.parametrize("side, factor, instances", [(0, "u1", 6), (1, "u2", 13)])
def test_perturbation_on_one_side_fails_criterion_04(monkeypatch, side, factor, instances):
    # A check that dropped this side's factor would still verify.  C2xC2's
    # matrix lies in the big cell, which most lower factors do not leave,
    # so the failure comes a few perturbations in.
    _perturb_one_side(monkeypatch, side)
    r = acceptance.criterion_bruhat(max_n=2, perturbations=100)
    assert r.status == "counterexample" and r.witness["catalog"] == "C2xC2"
    assert r.instances == instances  # 1! + 2! permutations, then the perturbations
    lower = r.witness[factor]
    assert any(lower[i][j] for i in range(len(lower)) for j in range(i))
    assert r.witness["got"] != r.witness["expected"]


def _break_ordering_sweep(defect, monkeypatch):
    """Patch one kernel of the fixed-content check so that exactly the
    check named by ``defect`` fails."""
    walk, sweep = parking._rearrangement_sweep, parking._ordering_sweep
    insert, delete = parking._insert_columns, parking._delete_columns

    def walk_with(b):
        exced, descents, bad_leaf = walk(b)
        if b[:3] == (1, 1, 2):
            if defect == "mu fiber mismatch":
                bad_leaf = (b, parking.mu(b) + 1)
            else:
                moved = exced if defect == "rook formula mismatch" else descents
                moved[0] -= 1
                moved[1] += 1
        return exced, descents, bad_leaf

    def sweep_with(b):
        preimages, outcomes = sweep(b)
        if b[:3] == (1, 1, 2):
            preimages[frozenset({(3, 1)})] += 1
        return preimages, outcomes

    if defect in ("rook formula mismatch", "excedance/descent mismatch", "mu fiber mismatch"):
        monkeypatch.setattr(parking, "_rearrangement_sweep", walk_with)
    elif defect == "phi is not a placement on the board":
        monkeypatch.setattr(parking, "_ordering_sweep", sweep_with)
    elif defect == "inserted positions are not outcome descents":
        monkeypatch.setattr(parking, "_insert_columns",
                            lambda b, placement, u0: (insert(b, placement, u0)[0], {len(b)}))
    elif defect == "phi does not give back the rooks":
        monkeypatch.setattr(parking, "_insert_columns",
                            lambda b, placement, u0: (insert(b, placement, u0)[0], frozenset()))
    else:
        monkeypatch.setattr(parking, "_delete_columns",
                            lambda word, placement: delete(word, placement)[::-1])


@pytest.mark.parametrize("defect, b", [
    ("rook formula mismatch", [1, 1, 2]),
    ("excedance/descent mismatch", [1, 1, 2]),
    ("mu fiber mismatch", [1, 1, 2]),
    ("phi is not a placement on the board", [1, 1, 2]),
    ("inserted positions are not outcome descents", [1]),
    ("phi does not give back the rooks", [1, 2]),
    ("round trip failure", [1, 1]),
])
def test_broken_ordering_sweep_fails_criterion_05(monkeypatch, defect, b):
    _break_ordering_sweep(defect, monkeypatch)
    r = acceptance.criterion_fixed_content(max_n=4)
    assert r.status == "counterexample"
    assert r.witness["defect"] == defect
    assert r.witness["b"] == b and r.witness["n"] == len(b)


@pytest.mark.parametrize("defect", [
    "rook formula mismatch", "excedance/descent mismatch", "mu fiber mismatch"])
def test_broken_ordering_sweep_exits_1_at_the_cli(monkeypatch, capsys, defect):
    _break_ordering_sweep(defect, monkeypatch)
    assert main(["parking", "verify-fixed-content", "--n", "4"]) == 1
    out = capsys.readouterr().out
    assert '"b": [1, 1, 2, 2]' in out and defect in out


def test_broken_tree_sweep_fails_criterion_07(monkeypatch):
    sweep = genfun._tree_sweep

    def broken(n):
        out = sweep(n)
        if n == 3:
            out[(0, 0)] += 1
        return out

    monkeypatch.setattr(genfun, "_tree_sweep", broken)
    r = acceptance.criterion_tree_polys(trees_n=4, parking_n=3)
    assert r.status == "counterexample"
    assert r.witness["n"] == 3 and r.witness["defect"] == "direct vs recurrence"


def test_wrong_worked_insertion_fails_criterion_05(monkeypatch):
    # the contents sweep never calls insert_forward; the worked replay does
    forward = parking.insert_forward

    def reversed_word(b, placement, u0):
        w, a_set = forward(b, placement, u0)
        return Permutation(w.one_line[::-1]), a_set

    monkeypatch.setattr(parking, "insert_forward", reversed_word)
    r = acceptance.criterion_fixed_content(max_n=3)
    assert r.status == "counterexample" and r.instances == 8 + 1  # 8 contents, then the replay
    assert r.witness == {"defect": "worked instance", "b": [1, 1, 2, 4, 5, 6],
                         "got_w": [1, 4, 5, 2, 3, 6], "got_A": [1, 2, 4]}


def test_tree_polys_off_the_point_count_fail_criterion_07(monkeypatch):
    # both methods doubled agree with each other, but not with (n+1)^(n-1)
    tree_poly = genfun.tree_poly
    monkeypatch.setattr(genfun, "tree_poly", lambda n, method: tree_poly(n, method) * 2)
    r = acceptance.criterion_tree_polys(trees_n=4, parking_n=3)
    assert r == Report("tree-inversion-identities", 0, "counterexample",
                       {"n": 1, "defect": "tree count", "value": 2})


@pytest.mark.parametrize("stat, defect, instances", [
    ("des-oc-inv", "trees vs parking", 7),
    ("exced", "cosum specialization", 8),
])
def test_one_wrong_parking_poly_fails_criterion_07(monkeypatch, stat, defect, instances):
    parking_poly = genfun.parking_poly

    def broken(n, which="exced"):
        out = parking_poly(n, which)
        return out + BiPoly({(1, 1): 1}) if (n, which) == (3, stat) else out

    monkeypatch.setattr(genfun, "parking_poly", broken)
    r = acceptance.criterion_tree_polys(trees_n=4, parking_n=3)
    assert r.status == "counterexample" and r.instances == instances
    assert r.witness["n"] == 3 and r.witness["defect"] == defect


def test_broken_parking_sweep_fails_criterion_06(monkeypatch):
    sweep = genfun._parking_sweep.__wrapped__

    def broken(n):
        exc, des, inv = sweep(n)
        return exc, des + BiPoly({(n, 0): 1}), inv

    monkeypatch.setattr(genfun, "_parking_sweep", broken)
    r = acceptance.criterion_excedance(max_n=3)
    assert r.status == "counterexample" and r.witness["n"] == 1


def _break_minus_one_poly(monkeypatch):
    minus_one = genfun.tree_poly_at_minus_one
    monkeypatch.setattr(genfun, "tree_poly_at_minus_one",
                        lambda n: minus_one(n) + (BiPoly.t() if n == 4 else 0))


def test_broken_minus_one_poly_fails_criterion_08(monkeypatch):
    _break_minus_one_poly(monkeypatch)
    r = acceptance.criterion_simsun(max_n=5)
    assert r.status == "counterexample" and r.instances == 3
    assert r.witness == {"n": 4, "defect": "parity recurrence vs q = -1 substitution"}


def test_broken_minus_one_poly_exits_1_at_the_cli(monkeypatch, capsys):
    _break_minus_one_poly(monkeypatch)
    assert main(["genfun", "verify-simsun", "--n", "5"]) == 1
    assert '"n": 4' in capsys.readouterr().out


def _break_simsun_eulerian(monkeypatch, at):
    simsun_eulerian = genfun.simsun_eulerian
    monkeypatch.setattr(genfun, "simsun_eulerian",
                        lambda n: simsun_eulerian(n) + (BiPoly.t() if n == at else 0))


def test_broken_simsun_side_fails_criterion_08(monkeypatch):
    # a wrong value at n >= 2 first meets the reciprocal recurrence one step
    # earlier, so only n = 1 reaches the tree side unchecked
    _break_simsun_eulerian(monkeypatch, 1)
    r = acceptance.criterion_simsun(max_n=5)
    assert r.status == "counterexample" and r.instances == 0
    assert r.witness["n"] == 1 and r.witness["defect"] == "tree side vs simsun side"


def test_broken_reciprocal_recurrence_fails_criterion_08(monkeypatch):
    _break_simsun_eulerian(monkeypatch, 3)
    r = acceptance.criterion_simsun(max_n=5)
    assert r.status == "counterexample" and r.instances == 1
    assert r.witness == {"n": 2, "defect": "reciprocal recurrence"}


def test_broken_simsun_test_fails_criterion_08(monkeypatch):
    # the insertion walk also yields 321, with its two descents
    walk = genfun._simsun_walk
    monkeypatch.setattr(genfun, "_simsun_walk",
                        lambda m: walk(m) + (BiPoly.t() ** 2 if m == 3 else 0))
    r = acceptance.criterion_simsun(max_n=5)
    assert r.status == "counterexample" and r.instances == 3
    assert r.witness == {"m": 3, "defect": "simsun brute vs recurrence"}


def test_broken_parking_side_fails_criterion_09(monkeypatch):
    parking_poly = genfun.parking_poly
    monkeypatch.setattr(genfun, "parking_poly",
                        lambda n, stat: parking_poly(n, stat) + BiPoly.t())
    r = acceptance.criterion_alternating(max_n=4)
    assert r.status == "counterexample"
    assert r.witness["n"] == 2 and r.witness["defect"] == "grouping by outcome"


def test_broken_odd_gap_class_fails_criterion_09(monkeypatch):
    # the odd-gap walk also lets 2 follow 1, so it yields 12 at n = 2
    step = genfun._odd_gap_step
    monkeypatch.setattr(genfun, "_odd_gap_step", lambda prefix, used, v: (
        step(prefix, used, v) or (prefix == [1] and v == 2)))
    r = acceptance.criterion_alternating(max_n=4)
    assert r.status == "counterexample"
    assert r.witness == {"n": 2, "defect": "inverse class mismatch"}


def test_broken_jacobi_class_fails_criterion_09(monkeypatch):
    # the Jacobi recursion also puts the minimum of two letters second
    words = genfun._jacobi_words
    monkeypatch.setattr(genfun, "_jacobi_words", lambda letters: (
        words(letters) + [letters[::-1]] if len(letters) == 2 else words(letters)))
    r = acceptance.criterion_alternating(max_n=4)
    assert r.status == "counterexample"
    assert r.witness == {"n": 2, "defect": "complement class mismatch"}


def test_zigzag_not_t_times_jacobi_fails_criterion_09(monkeypatch):
    zigzag = genfun.zigzag_poly
    monkeypatch.setattr(genfun, "zigzag_poly", lambda n: BiPoly.t() * zigzag(n))
    r = acceptance.criterion_alternating(max_n=4)
    assert r.status == "counterexample"
    assert r.witness["n"] == 2 and r.witness["defect"] == "zigzag is not t times Jacobi"


def _odd_gap_walk(n):
    return genfun._prefix_walk(n, genfun._odd_gap_step)


def _odd_gap_descents(n):
    """Sum of t^(des of the inverse) over the odd-gap permutations of [n]."""
    return BiPoly(Counter((0, Permutation(w).inverse().des()) for w in _odd_gap_walk(n)))


def test_non_palindromic_jacobi_fails_criterion_09(monkeypatch):
    # From n = 3 on, the Jacobi walk is swapped for the odd-gap walk.  The
    # complement check would catch that, so it is patched too: complement_perm
    # is the identity there.  Zigzag stays t times the swapped polynomial, so
    # only the palindrome check can fail.
    words, complement, zigzag = (genfun._jacobi_words, genfun.complement_perm,
                                 genfun.zigzag_poly)
    monkeypatch.setattr(genfun, "_jacobi_words", lambda letters: (
        _odd_gap_walk(len(letters)) if len(letters) >= 3 else words(letters)))
    monkeypatch.setattr(genfun, "complement_perm", lambda w: w if w.n >= 3 else complement(w))
    monkeypatch.setattr(genfun, "zigzag_poly", lambda n: (
        BiPoly.t() * _odd_gap_descents(n) if n >= 3 else zigzag(n)))
    r = acceptance.criterion_alternating(max_n=4)
    assert r.status == "counterexample"
    assert r.witness["n"] == 3 and r.witness["defect"] == "Jacobi polynomial not palindromic"


def test_zigzag_side_fails_criterion_09(monkeypatch):
    # The last link, parking side against zigzag side, fires only when every
    # link before it holds, so the grouping check is patched too: the
    # permutations of the odd-interval walk count one descent too many, and
    # the parking side is shifted to match.  Their inverses, and with them
    # the Jacobi polynomial and zigzag, are plain permutations and stay true.
    class OneMoreDescent(Permutation):
        __slots__ = ()

        def des(self):
            return super().des() + 1

    parking_poly = genfun.parking_poly
    monkeypatch.setattr(genfun, "Permutation", OneMoreDescent)
    monkeypatch.setattr(genfun, "parking_poly",
                        lambda n, stat: BiPoly.t() * parking_poly(n, stat))
    r = acceptance.criterion_alternating(max_n=4)
    assert r.status == "counterexample"
    assert r.witness["n"] == 2 and r.witness["defect"] == "zigzag side"


def test_broken_greene_sweep_fails_criterion_10(monkeypatch):
    sweep = plactic.greene_sweep

    def broken(alphabet, max_len):
        for w, inc, dec in sweep(alphabet, max_len):
            if w == (2, 1, 3, 1, 2):
                inc = (inc[0] + 1,) + inc[1:]
            yield w, inc, dec

    monkeypatch.setattr(plactic, "greene_sweep", broken)
    r = acceptance.criterion_greene(max_len=5, alphabet=3)
    assert r.status == "counterexample"
    assert r.witness["word"] == [2, 1, 3, 1, 2] and r.witness["k"] == 1


def test_broken_decreasing_invariant_past_the_oracle_length_fails_criterion_10(monkeypatch):
    # a word longer than GREENE_ORACLE_LEN is compared as a whole tuple
    # first; on a mismatch the check for each k names the first k that fails
    sweep = plactic.greene_sweep

    def broken(alphabet, max_len):
        for w, inc, dec in sweep(alphabet, max_len):
            if w == (2, 1, 3, 1, 2):
                dec = dec[:2] + (dec[2] + 1,) + dec[3:]
            yield w, inc, dec

    monkeypatch.setattr(plactic, "greene_sweep", broken)
    assert len((2, 1, 3, 1, 2)) > acceptance.GREENE_ORACLE_LEN
    r = acceptance.criterion_greene(max_len=5, alphabet=3)
    # 2 (|w| + 1) instances for each of the 153 words before it in the
    # trie's depth-first order, 1 670 in all, and two for each k <= 3
    assert r == Report("greene-invariants", 1676, "counterexample", {
        "word": [2, 1, 3, 1, 2], "k": 3, "increasing": 5, "decreasing": 6, "shape": [3, 2]})


def test_tableau_of_the_wrong_size_fails_criterion_10(monkeypatch):
    # the criterion builds P(w) along the trie; an insertion that drops
    # its letter leaves every tableau empty
    monkeypatch.setattr(plactic, "_insert_letter", lambda rows, a: rows)
    r = acceptance.criterion_greene(max_len=3, alphabet=2)
    # the empty word passes, with its two k = 1 checks
    assert r == Report("greene-invariants", 2, "counterexample",
                       {"word": [1], "defect": "shape size", "shape": []})


def test_greene_oracle_cross_check_fails_criterion_10(monkeypatch):
    oracle = plactic.greene_oracle
    monkeypatch.setattr(plactic, "greene_oracle",
                        lambda w, k, mode: oracle(w, k, mode) + (len(w) == 3))
    r = acceptance.criterion_greene(max_len=5, alphabet=3)
    assert r.status == "counterexample" and r.witness["defect"] == "trie vs oracle"
    assert len(r.witness["word"]) == 3


def _break_no_bump(monkeypatch):
    # every member of two or more letters is said to bump a foreign letter
    no_bump = plactic.check_no_bump
    monkeypatch.setattr(plactic, "check_no_bump", lambda u, t: no_bump(u, t) and t.size() < 2)


def test_broken_no_bump_check_fails_criterion_11(monkeypatch):
    _break_no_bump(monkeypatch)
    r = acceptance.criterion_first_rows(length_cap=4)
    assert r.status == "counterexample" and r.instances == 0
    assert r.witness == {"u": [1], "member": [[1], [2]], "defect": "foreign letter bumped"}


def test_broken_no_bump_check_exits_1_at_the_cli(monkeypatch, capsys):
    _break_no_bump(monkeypatch)
    assert main(["plactic", "verify-first-rows", "--u", "1", "--max-len", "3"]) == 1
    assert "foreign letter bumped" in capsys.readouterr().out


@pytest.mark.parametrize("criterion, kwargs", [
    (acceptance.criterion_first_rows, {"length_cap": 4}),
    (acceptance.criterion_reverse_complement, {"u_len_cap": 2, "length_cap": 4}),
], ids=["first-rows", "reverse-complement"])
def test_centralizer_criteria_search_once_per_alphabet_cap(monkeypatch, criterion, kwargs):
    # one walk serves every alphabet cap; the checkers must read what it
    # found, never search again
    walks = _record_walks(monkeypatch)
    assert criterion(**kwargs).status == "verified"
    assert len(walks) == 1
    [(targets, max_len, _)] = walks
    assert max_len == kwargs["length_cap"]
    assert sorted({cap for _, cap in targets}) == [3, 4, 5]


def test_first_rows_criterion_inserts_each_u_once(monkeypatch):
    calls = []
    rsk_P = plactic.rsk_P
    monkeypatch.setattr(plactic, "rsk_P", lambda w: calls.append(tuple(w)) or rsk_P(w))
    assert acceptance.criterion_first_rows(length_cap=5).status == "verified"
    u_list = acceptance._words_over(2, 4) + acceptance._words_over(3, 3)
    assert len(u_list) == 69 and calls == u_list


def test_determinism_probe_walks_the_classes_in_both_runs(monkeypatch):
    walks = _record_walks(monkeypatch)
    assert acceptance.criterion_determinism(seed=0).status == "verified"
    # one walk per probe run, carrying the caps 3, 4 and 5 of its thresholds
    assert len(walks) == 2
    assert [sorted({cap for _, cap in targets}) for targets, _, _ in walks] == [[3, 4, 5]] * 2


def _break_commute_members(monkeypatch):
    # every class is said to commute with the searched words that start with 1
    members = plactic._commute_members

    def broken(targets, max_len):
        return [[rows for _, rows in _knuth_classes(cap, max_len)] if u[:1] == (1,) else found
                for (u, cap), found in zip(targets, members(targets, max_len))]

    monkeypatch.setattr(plactic, "_commute_members", broken)


def test_broken_commute_members_fail_criterion_11(monkeypatch):
    _break_commute_members(monkeypatch)
    r = acceptance.criterion_first_rows(length_cap=4)
    assert r.status == "counterexample" and r.instances == 0
    assert r.witness == {"u": [1], "member": [[2]], "row": 1, "bound": 1}


def test_broken_commute_verdicts_fail_criterion_12(monkeypatch):
    _break_commute_members(monkeypatch)
    r = acceptance.criterion_reverse_complement(u_len_cap=2, length_cap=4)
    assert r.status == "counterexample"
    assert r.witness["unmatched_right"] or r.witness["unmatched_left_images"]


def test_non_reassembling_evacuation_fails_criterion_12(monkeypatch):
    monkeypatch.setattr(plactic, "evacuation",
                        lambda t, m: plactic.rsk_P(sorted(t.row_word())))
    r = acceptance.criterion_reverse_complement(u_len_cap=2, length_cap=4)
    assert r.status == "counterexample"
    assert r.witness["defect"] == "threshold evacuation does not reassemble"
    assert {"u", "m", "member"} <= set(r.witness)
    member = plactic.Tableau(r.witness["member"])
    with pytest.raises(ValueError, match="does not reassemble"):
        plactic.tau(member, r.witness["m"])


def _left_members(u_len_cap, length_cap):
    """(u, m, members of the centralizer of u over [m + 2]) in the order of
    criterion 12, the members from the oracle in the order of a
    ``CentralizerSet``."""
    return [(u, m, sorted(map(plactic.Tableau, _oracle_members(u, m + 2, length_cap)),
                          key=plactic.Tableau.sort_key))
            for m in range(1, 4) for u in acceptance._words_over(m, u_len_cap)]


def test_reverse_complement_criterion_evacuates_each_low_part_once_per_threshold(monkeypatch):
    # tau evacuates the part at most m of every member; each distinct
    # (part, m) is evacuated once, on its first use
    calls = []
    evacuation = plactic.evacuation

    def counting(t, m):
        calls.append((t.rows, m))
        return evacuation(t, m)

    monkeypatch.setattr(plactic, "evacuation", counting)
    assert acceptance.criterion_reverse_complement(u_len_cap=2, length_cap=4).status == "verified"
    uses = [(t.restrict_le(m).rows, m) for _, m, members in _left_members(2, 4) for t in members]
    assert len(uses) > 2 * len(set(uses))
    assert calls == list(dict.fromkeys(uses))
    # a second call keeps nothing from the first
    calls.clear()
    assert acceptance.criterion_reverse_complement(u_len_cap=2, length_cap=4).status == "verified"
    assert calls == list(dict.fromkeys(uses))


def test_reverse_complement_criterion_maps_each_member_once_per_threshold(monkeypatch):
    # pairs share members, and the reports share tau's images: each
    # distinct (member, m) is mapped once, on its first use
    calls = []
    tau = plactic.tau
    monkeypatch.setattr(plactic, "tau", lambda t, m, images=None: calls.append((t.rows, m))
                        or tau(t, m, images))
    assert acceptance.criterion_reverse_complement(u_len_cap=2, length_cap=4).status == "verified"
    uses = [(t.rows, m) for _, m, members in _left_members(2, 4) for t in members]
    assert len(uses) > 2 * len(set(uses))
    assert calls == list(dict.fromkeys(uses))


def test_non_reassembling_evacuation_gives_the_witness_of_a_per_member_loop(monkeypatch):
    monkeypatch.setattr(plactic, "evacuation",
                        lambda t, m: plactic.rsk_P(sorted(t.row_word())))
    _assert_the_witness_of_a_per_member_loop(
        acceptance.criterion_reverse_complement(u_len_cap=2, length_cap=4))


def test_one_late_non_reassembling_part_gives_the_witness_of_a_per_member_loop(monkeypatch):
    # only the last part of two rows to come up at m = 2 fails, so the
    # reports before it have filled the shared images with every other
    # member it could be served from
    parts = [(t.restrict_le(m).rows, m) for _, m, members in _left_members(2, 4)
             for t in members if m == 2]
    bad = [part for part in dict.fromkeys(parts) if len(part[0]) > 1][-1]
    evacuation = plactic.evacuation
    monkeypatch.setattr(plactic, "evacuation", lambda t, m: plactic.rsk_P(sorted(t.row_word()))
                        if (t.rows, m) == bad else evacuation(t, m))
    r = acceptance.criterion_reverse_complement(u_len_cap=2, length_cap=4)
    _assert_the_witness_of_a_per_member_loop(r)
    assert plactic.Tableau(r.witness["member"]).restrict_le(2).rows == bad[0]


def _assert_the_witness_of_a_per_member_loop(r):
    # the first member whose tau fails, evacuating every member anew; no
    # pair before it may fail its set equality
    instances, expected = 0, None
    lefts = {(u, m): members for u, m, members in _left_members(2, 4)}
    for u, m, members in _left_members(2, 4):
        right = lefts[plactic.reverse_complement(u, m), m]
        mapped = set()
        for t in members:
            try:
                mapped.add(plactic.tau(t, m))
            except ValueError:
                expected = {"u": list(u), "m": m, "member": t.to_json_obj(),
                            "defect": "threshold evacuation does not reassemble"}
                break
        if expected is not None:
            break
        assert mapped == set(right), (u, m)
        instances += len(members) + len(right)
    assert expected is not None and r.status == "counterexample"
    assert r.instances == instances
    assert json.dumps(r.witness, sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_unseeded_perturbations_fail_criterion_13(monkeypatch):
    # perturbations drawn from one running stream instead of the seeded rng
    stream = random.Random(1)
    draw = acceptance.random_unit_upper_triangular
    monkeypatch.setattr(acceptance, "random_unit_upper_triangular",
                        lambda n, rng: draw(n, stream))
    # the draws reach the report bytes only through a Bruhat counterexample,
    # which names them; a seeded counterexample repeats itself exactly
    assert acceptance.criterion_determinism(seed=0).status == "verified"
    _break_product_kernel(monkeypatch)
    r = acceptance.criterion_determinism(seed=0)
    assert r.status == "counterexample" and r.instances == 2
    assert r.witness["seed"] == 0 and set(r.witness) == {"seed", "first_bytes", "second_bytes"}
    monkeypatch.setattr(acceptance, "random_unit_upper_triangular", draw)
    assert acceptance.criterion_determinism(seed=0).status == "verified"
