"""Full-scale acceptance battery, one test per criterion.

Each test runs its criterion at the default (full) parameters and demands
an exactly verified report: any counterexample or skip fails the test and
prints the offending witness. The lattice sweep, parking sweep, and Knuth
class caches warm up on first use and persist for the rest of the session,
so the whole file runs in about a minute.

The last tests pin the quick battery's report bytes to a committed copy
and break each prefix-shared sweep on purpose to show its criterion fails.
"""

from pathlib import Path

from exactcomb import acceptance, genfun, plactic
from exactcomb.core import BiPoly
from exactcomb.report import reports_to_json

QUICK_BATTERY_JSON = Path(__file__).parent / "data" / "battery_quick.json"


def _require(number: int, report) -> None:
    line = (f"criterion {number:2d} ({report.theorem}): "
            f"{'PASS' if report.status == 'verified' else 'FAIL'} "
            f"instances={report.instances}")
    print(line)
    assert report.status == "verified", (line, report.witness)


def test_criterion_01_echelon_cover_transfer():
    _require(1, acceptance.criterion_echelon())


def test_criterion_02_dilworth_profiles():
    _require(2, acceptance.criterion_dilworth())


def test_criterion_03_rowmotion_agreement():
    _require(3, acceptance.criterion_rowmotion())


def test_criterion_04_bruhat_invariance():
    _require(4, acceptance.criterion_bruhat())


def test_criterion_05_fixed_content_bijection():
    _require(5, acceptance.criterion_fixed_content())


def test_criterion_06_excedance_distribution():
    _require(6, acceptance.criterion_excedance())


def test_criterion_07_tree_polynomials():
    _require(7, acceptance.criterion_tree_polys())


def test_criterion_08_simsun_specialization():
    _require(8, acceptance.criterion_simsun())


def test_criterion_09_alternating_classes():
    _require(9, acceptance.criterion_alternating())


def test_criterion_10_greene_invariants():
    _require(10, acceptance.criterion_greene())


def test_criterion_11_first_rows_bound():
    _require(11, acceptance.criterion_first_rows())


def test_criterion_12_reverse_complement_map():
    _require(12, acceptance.criterion_reverse_complement())


def test_criterion_13_determinism():
    _require(13, acceptance.criterion_determinism())


def test_quick_battery_report_bytes_are_pinned():
    expected = QUICK_BATTERY_JSON.read_text()
    assert reports_to_json(acceptance.run_battery(quick=True)) == expected


def test_broken_parking_sweep_fails_criterion_06(monkeypatch):
    sweep = genfun._parking_sweep.__wrapped__

    def broken(n):
        exc, des, inv = sweep(n)
        return exc, des + BiPoly.q() ** n, inv

    monkeypatch.setattr(genfun, "_parking_sweep", broken)
    r = acceptance.criterion_excedance(max_n=3)
    assert r.status == "counterexample" and r.witness["n"] == 1


def test_broken_greene_sweep_fails_criterion_10(monkeypatch):
    sweep = plactic.greene_sweep

    def broken(alphabet, max_len):
        for w, inc, dec in sweep(alphabet, max_len):
            if w == (2, 1, 3, 1, 2):
                inc = (inc[0] + 1,) + inc[1:]
            yield w, inc, dec

    monkeypatch.setattr(plactic, "greene_sweep", broken)
    r = acceptance.criterion_greene(max_len=5)
    assert r.status == "counterexample"
    assert r.witness["word"] == [2, 1, 3, 1, 2] and r.witness["k"] == 1


def test_greene_oracle_cross_check_fails_criterion_10(monkeypatch):
    oracle = plactic.greene_oracle
    monkeypatch.setattr(plactic, "greene_oracle",
                        lambda w, k, mode: oracle(w, k, mode) + (len(w) == 3))
    r = acceptance.criterion_greene(max_len=5)
    assert r.status == "counterexample" and r.witness["defect"] == "trie vs oracle"
    assert len(r.witness["word"]) == 3


def test_broken_commute_verdicts_fail_criterion_12(monkeypatch):
    verdicts = plactic._commute_verdicts

    def broken(args):
        out = verdicts(args)
        return [True] * len(out) if args[0][0] == 1 else out

    monkeypatch.setattr(plactic, "_centralizers", {})
    monkeypatch.setattr(plactic, "_commute_verdicts", broken)
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
    assert plactic._threshold_evacuation(member, r.witness["m"]) is None
