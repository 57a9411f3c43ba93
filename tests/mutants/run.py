"""A catalogue of mutants: small defects that the tests must catch.

Each entry names a file, a string that occurs in it exactly once, the
string that replaces it, and the test ids that must fail on the result.
Every mutant is applied to its own temporary copy of the repository, where
``pytest -x`` runs those ids.  The script exits 1 when a mutant survives,
when its old string does not occur exactly once, when the ids fail to run,
or when they fail on an unmutated copy.  It uses the standard library and
pytest only, and is not part of the tier-1 suite.

Run from anywhere:

    python tests/mutants/run.py            # every mutant
    python tests/mutants/run.py NAME ...   # only these
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
POSETS = "src/exactcomb/posets.py"
ACCEPTANCE = "src/exactcomb/acceptance.py"
PLACTIC = "src/exactcomb/plactic.py"
CORE = "src/exactcomb/core.py"
GENFUN = "src/exactcomb/genfun.py"
PARKING = "src/exactcomb/parking.py"
TEST_CORE = "tests/test_core.py::"
TEST_POSETS = "tests/test_posets.py::"
TEST_ACCEPTANCE = "tests/test_acceptance.py::"
TEST_PLACTIC = "tests/test_plactic.py::"
TEST_GENFUN = "tests/test_genfun.py::"
TEST_PARKING = "tests/test_parking.py::"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    killers: tuple[str, ...]


MUTANTS = (
    # the echelon walk's state key must hold everything its steps read
    Mutant("walk-key-without-open-rows", POSETS,
           "key = (now, ck, rk)", "key = (now, ck)",
           (TEST_POSETS + "test_merged_walk_matches_bareiss_on_every_union_of_echelon_maps_less_one_pair",)),
    Mutant("walk-key-without-pending-columns", POSETS,
           "key = (now, ck, rk)", "key = (now, rk)",
           (TEST_POSETS + "test_merged_walk_matches_bareiss_on_every_union_of_echelon_maps_less_one_pair",)),
    Mutant("walk-key-of-the-placed-set-alone", POSETS,
           "key = (now, ck, rk)", "key = (now,)",
           (TEST_POSETS + "test_merged_walk_matches_bareiss_on_every_union_of_echelon_maps_less_one_pair",)),
    # a merged prefix must count every extension through it
    Mutant("walk-merged-count-one-short", POSETS,
           "passed += size\n", "passed += size - 1\n",
           (TEST_POSETS + "test_memo_pivots_match_bareiss_on_catalog",
            TEST_POSETS + "test_the_walk_merges_gf2_at_the_battery_cap")),
    # row k's pivot lies past pending column i iff R(k+1, i+1) counts every
    # pending column up to i, so the scan reads the rank after column i
    Mutant("walk-pending-scan-reads-the-rank-one-column-early", POSETS,
           "rank[lower_rows | placed[i + 1]] == m.bit_count()",
           "rank[lower_rows | placed[i]] == m.bit_count()",
           (TEST_POSETS + "test_merged_walk_matches_bareiss_on_every_union_of_echelon_maps_less_one_pair",
            TEST_POSETS + "test_memo_pivots_match_bareiss_on_catalog")),
    # two distinct nonzero 0/1 rows are independent; three need not be
    Mutant("zeta-rank-count-up-to-four-rows", POSETS,
           "if len(distinct) < 3:", "if len(distinct) < 5:",
           (TEST_POSETS + "test_memo_pivots_on_posets_that_are_not_lattices",)),
    # criterion 1 checks GF(2)^3, the one catalog lattice that is modular but
    # not distributive
    Mutant("criterion-01-without-gf2", ACCEPTANCE,
           "posets.verify_echelon_theorem, sweep.modular, catalog,",
           "posets.verify_echelon_theorem, sweep.modular, [c for c in catalog if c[1].n < 16],",
           (TEST_ACCEPTANCE + "test_quick_battery_report_bytes_are_pinned",)),
    # criterion 4 multiplies by a unit upper-triangular factor on each side
    Mutant("criterion-04-without-the-left-factor", ACCEPTANCE,
           "bruhat_permutation(u1 @ (w_matrix @ u2))", "bruhat_permutation(w_matrix @ u2)",
           (TEST_ACCEPTANCE + "test_perturbation_on_one_side_fails_criterion_04[0-u1-6]",)),
    Mutant("criterion-04-without-the-right-factor", ACCEPTANCE,
           "bruhat_permutation(u1 @ (w_matrix @ u2))", "bruhat_permutation(u1 @ w_matrix)",
           (TEST_ACCEPTANCE + "test_perturbation_on_one_side_fails_criterion_04[1-u2-13]",)),
    # a row of the left factor weighs each row of the right one by its entry
    Mutant("matmul-row-combination-drops-the-coefficient", CORE,
           "term = b_row if v == 1 else map(mul, b_row, repeat(v))", "term = b_row",
           (TEST_CORE + "test_matrix_product_matches_a_triple_loop",)),
    # criterion 5 runs the bijection and preimage checks through n = 5; the
    # mu check reads the walk's leaf weights at every n
    Mutant("criterion-05-fibres-only-to-n-4", PARKING,
           "FIBER_CHECK_LIMIT = 5", "FIBER_CHECK_LIMIT = 4",
           (TEST_PARKING + "test_fixed_content_round_trips_every_placement_through_n_5[5]",)),
    # a distinct rearrangement stands for mu(b) orderings: each step weighs
    # its value by the labels still carrying it
    Mutant("rearrangement-walk-drops-the-mu-weight", PARKING,
           "w = weight * m", "w = weight",
           (TEST_PARKING + "test_ordering_sweep_matches_oracles[2]",
            TEST_PARKING + "test_rearrangement_sweep_matches_rook_formula_at_n_7")),
    # the walk compares each leaf's weight with mu(b) and reports the first
    # leaf that differs
    Mutant("rearrangement-walk-skips-the-leaf-weight-check", PARKING,
           "if w != expected and not bad:", "if False:",
           (TEST_PARKING + "test_the_walk_reports_its_first_leaf_whose_weight_is_not_mu",)),
    # the rook of an outcome descent at j sits in row outcome(j + 1)
    Mutant("ordering-sweep-rook-in-the-wrong-row", PARKING,
           "rook = (sigma[j], w[j - 1])", "rook = (sigma[j - 1], w[j - 1])",
           (TEST_PARKING + "test_ordering_sweep_matches_oracles[2]",
            TEST_PARKING + "test_fixed_content_round_trips_every_placement_through_n_5[4]")),
    # the class key must come from the whole search, not from refinement alone
    Mutant("canonical-form-from-the-first-refinement-alone", POSETS,
           "    best: tuple[int, ...] | None = None\n",
           "    cells = _equitable([list(range(n))], cov_up, cov_down)\n"
           "    masks = [sum(1 << x for x in cell) for cell in cells]\n"
           "    return tuple((len(cell), tuple(((cov_up[cell[0]] & m).bit_count(),\n"
           "                                    (cov_down[cell[0]] & m).bit_count()) for m in masks))\n"
           "                 for cell in cells), 1\n",
           (TEST_POSETS + "test_canonical_form_tells_apart_what_refinement_alone_does_not",)),
    # |Aut| counts the leaves that reach the least code, not every leaf
    Mutant("canonical-form-counts-every-leaf-as-an-automorphism", POSETS,
           "            best, automorphisms = code, weight\n        elif code == best:\n"
           "            automorphisms += weight\n",
           "            best = code\n        automorphisms += weight\n",
           (TEST_POSETS + "test_canonical_form_counts_only_the_leaves_that_reach_the_least_code",)),
    # a branch on one twin stands for the subtrees of all its twins in the cell
    Mutant("canonical-form-drops-the-twin-weight", POSETS,
           "stack.append((weight * len(twins), _equitable(", "stack.append((weight, _equitable(",
           (TEST_POSETS + "test_twins_multiply_automorphisms_by_their_permutations",
            TEST_POSETS + "test_twin_pruned_form_matches_the_unpruned_search")),
    # the Bruhat draws redraw three bits exactly as randint(-2, 2) does
    Mutant("unit-triangular-draws-keep-a-draw-of-5", CORE,
           "while r >= 5:", "while r >= 6:",
           (TEST_CORE + "test_unit_upper_triangular_draws_equal_validated_matrices",)),
    # only a previous pivot of ±1 divides without a remainder check, in the
    # row step that rank and Bruhat pivoting share
    Mutant("rank-skips-the-division-by-2", CORE,
           "if prev == 1 or prev == -1:", "if prev in (1, -1, 2):",
           (TEST_POSETS + "test_inexact_bareiss_division_raises[rank]",
            TEST_POSETS + "test_inexact_bareiss_division_raises[bruhat update]",
            TEST_POSETS + "test_inexact_bareiss_division_raises[bruhat scaling]")),
    # after a pivot of ±1, a multiplier of +1 subtracts the pivot row
    Mutant("rank-unit-update-adds-where-it-subtracts", CORE,
           "rest = map(sub, rest, tail)", "rest = map(add, rest, tail)",
           (TEST_CORE + "test_rank_matches_the_first_nonzero_pivot_oracle_on_seeded_matrices",
            TEST_CORE + "test_rank_examples",
            TEST_POSETS + "test_bruhat_rank_profile_matches_literal_submatrices")),
    # Bruhat pivoting takes the lowest pivotless row, so the pivots are the
    # lower-left rank jumps
    Mutant("bruhat-pivots-on-the-top-row", POSETS,
           "range(len(free) - 1, -1, -1)", "range(len(free))",
           (TEST_POSETS + "test_bruhat_rank_profile_matches_literal_submatrices",
            TEST_POSETS + "test_memo_pivots_match_bareiss_on_catalog")),
    # the class generator keeps a child only when its canonical form is new
    Mutant("poset-classes-keep-every-child", POSETS,
           "                if code not in codes:\n", "                if True:\n",
           (TEST_POSETS + "test_poset_classes_count_unlabelled_and_labelled_posets",
            TEST_ACCEPTANCE + "test_full_lattice_sweep_counts")),
    # a verified class report counts once per labelled copy
    Mutant("sweep-class-report-left-unscaled", ACCEPTANCE,
           "r = Report(r.theorem, copies * r.instances, r.status, r.witness)",
           "r = Report(r.theorem, r.instances, r.status, r.witness)",
           (TEST_ACCEPTANCE + "test_each_lattice_walked_alone_reports_what_its_class_reports",
            TEST_ACCEPTANCE + "test_quick_battery_report_bytes_are_pinned")),
    # the centralizer walk tests a target while the largest letter of w is
    # at most its cap, so also on the classes whose largest letter is the cap
    Mutant("centralizer-cap-gate-drops-the-cap-itself", PLACTIC,
           "if cap < c), len(order))", "if cap <= c), len(order))",
           (TEST_PLACTIC + "test_a_walk_under_mixed_caps_matches_the_oracle_of_each_cap",
            TEST_PLACTIC + "test_prefix_shared_verdicts_match_oracle[u0]")),
    # the first-row filter inserts a letter after the equal entries of a row
    Mutant("centralizer-row-table-inserts-before-equal-letters", PLACTIC,
           "        a, row = self.a, self.rows[i]\n        j = bisect_right(row, a)\n",
           "        from bisect import bisect_left\n"
           "        a, row = self.a, self.rows[i]\n        j = bisect_left(row, a)\n",
           (TEST_PLACTIC + "test_a_walk_under_mixed_caps_matches_the_oracle_of_each_cap",
            TEST_PLACTIC + "test_batched_verdicts_match_oracle[mixed]")),
    # criterion 12 shares its evacuations across thresholds, so m is part of the key
    Mutant("tau-memo-keyed-without-the-threshold", PLACTIC,
           "        key = (low.rows, m)\n", "        key = low.rows\n",
           (TEST_ACCEPTANCE + "test_reverse_complement_criterion_evacuates_each_low_part_once_per_threshold",
            TEST_ACCEPTANCE + "test_centralizer_criteria_search_once_per_alphabet_cap[reverse-complement]")),
    # an increasing chain end stands for the least letter to come at least
    # as large as it, so a chain ending at a takes a later a
    Mutant("greene-oracle-increasing-class-skips-the-end-itself", PLACTIC,
           "                if present[e]:\n                    cls = e\n                row[e] = cls\n",
           "                row[e] = cls\n                if present[e]:\n                    cls = e\n",
           (TEST_PLACTIC + "test_greene_oracle",
            TEST_PLACTIC + "test_greene_oracle_matches_brute_force_on_short_words")),
    # a decreasing chain end stands for 1 + the largest letter to come below it
    Mutant("greene-oracle-decreasing-class-drops-the-plus-one", PLACTIC,
           "                    cls = e + 1\n", "                    cls = e\n",
           (TEST_PLACTIC + "test_greene_oracle",
            TEST_PLACTIC + "test_greene_oracle_matches_brute_force_on_short_words")),
    # the oracle's layer keeps every state the letter is not appended to
    Mutant("greene-oracle-forward-drops-the-keep-move", PLACTIC,
           "                out[kept] = placed\n", "                pass\n",
           (TEST_PLACTIC + "test_greene_oracle",
            TEST_PLACTIC + "test_greene_oracle_matches_brute_force_on_short_words")),
    # at the last letter an increasing chain takes a when its end is at most a
    Mutant("greene-sweep-leaf-needs-an-end-below-the-letter", PLACTIC,
           "map(a.__ge__, inc_ends)", "map(a.__gt__, inc_ends)",
           (TEST_PLACTIC + "test_greene_sweep_matches_oracle[3-6]",
            TEST_ACCEPTANCE + "test_criterion_10_greene_invariants")),
    # among the best states of one length the leaf tally keeps the end most
    # apt to take a letter: the lowest first end of increasing chains
    Mutant("greene-leaf-summary-keeps-the-wrong-end-on-a-tie", PLACTIC,
           "end < ends[c] if increasing", "end > ends[c] if increasing",
           (TEST_PLACTIC + "test_leaf_tally_matches_the_scan_over_states[3-6]",
            TEST_PLACTIC + "test_greene_sweep_matches_oracle[3-6]")),
    # a letter may extend any chain that takes it, not only open a new one
    Mutant("greene-sweep-never-extends-a-chain", PLACTIC,
           "nexts.update(", "set().update(",
           (TEST_PLACTIC + "test_greene_sweep_matches_oracle[3-6]",
            TEST_ACCEPTANCE + "test_criterion_10_greene_invariants")),
    # with k unbounded a letter may always open a chain of its own
    Mutant("greene-sweep-never-opens-a-new-chain", PLACTIC,
           "{state[:j] + (a,) + state[j:]}", "set()",
           (TEST_PLACTIC + "test_greene_sweep_matches_oracle[3-6]",
            TEST_ACCEPTANCE + "test_criterion_10_greene_invariants")),
    # at the last letter k chains place it when fewer than k are in use
    Mutant("greene-sweep-leaf-opens-no-chain-below-k", PLACTIC,
           "max(below + 1, count), max(below + 1, count + 1)",
           "max(below, count), max(below, count + 1)",
           (TEST_PLACTIC + "test_greene_sweep_matches_oracle[3-6]",
            TEST_ACCEPTANCE + "test_criterion_10_greene_invariants")),
    # rooks on one row attack each other, so a placement uses each row once
    Mutant("rook-placements-allow-two-rooks-in-a-row", PARKING,
           "        if len(set(used)) == len(used):\n", "        if True:\n",
           (TEST_PARKING + "test_rook_dp_matches_enumerator",)),
    # a content's j-th smallest value is at most j
    Mutant("parking-contents-bound-one-too-loose", PARKING,
           "if all(v <= j for j, v in enumerate(b, start=1)):",
           "if all(v <= j + 1 for j, v in enumerate(b, start=1)):",
           (TEST_PARKING + "test_contents_are_catalan",)),
    # the cars that park at free spot s prefer every spot from just above
    # the free spot below it up to s itself
    Mutant("parking-sweep-preferences-stop-below-the-spot", GENFUN,
           "for p in range(below + 1, s + 1):", "for p in range(below + 1, s):",
           (TEST_GENFUN + "test_parking_sweep_matches_filtered_oracle",
            TEST_GENFUN + "test_parking_dp_matches_depth_first_oracle")),
    # a packed tree level whose bound N_k needs more bits than a slot holds
    # is refused before it is built
    Mutant("tree-packing-skips-the-slot-bound-guard", GENFUN,
           "if _TREE_COUNTS[k] >> bits:", "if False:",
           (TEST_GENFUN + "test_bound_guard_refuses_a_level_that_cannot_fit",)),
    # and a slot that carried is caught by the coefficient sum
    Mutant("tree-unpacking-skips-the-coefficient-sum-guard", GENFUN,
           "if sum(terms.values()) != _TREE_COUNTS[n]:", "if False:",
           (TEST_GENFUN + "test_a_slot_carry_trips_the_coefficient_sum_guard",)),
    # the largest letter may not go directly before a descent, wherever it is
    Mutant("simsun-walk-allows-the-largest-letter-before-the-last-descent", GENFUN,
           "if p < end - 1 and word[p] > word[p + 1]:",
           "if p < end - 2 and word[p] > word[p + 1]:",
           (TEST_GENFUN + "test_simsun_walk_matches_filtered_oracle",
            TEST_GENFUN + "test_simsun_poly")),
    # distributivity needs every down-set of irreducibles to be some element's
    Mutant("birkhoff-sets-skip-the-completeness-check", POSETS,
           "and ideal | 1 << a not in element_of:",
           "and ideal | 1 << a not in element_of and False:",
           (TEST_POSETS + "test_distributivity_matches_the_m3_oracle_on_named_lattices",)),
    # and no two elements may lie above the same irreducibles
    Mutant("birkhoff-sets-skip-the-injectivity-check", POSETS,
           "        if m in element_of:\n", "        if False:\n",
           (TEST_POSETS + "test_distributivity_refuses_two_elements_over_the_same_irreducibles",)),
    # criterion 7 checks the Kreweras cosum through PARKING_SWEEP_LIMIT
    Mutant("criterion-07-kreweras-only-to-n-3", ACCEPTANCE,
           "if n <= genfun.PARKING_SWEEP_LIMIT:", "if n <= 3:",
           (TEST_ACCEPTANCE + "test_quick_battery_report_bytes_are_pinned",)),
    # criterion 10 compares the Greene DP with the oracle through length 4
    Mutant("criterion-10-oracle-only-to-length-2", ACCEPTANCE,
           "GREENE_ORACLE_LEN = 4", "GREENE_ORACLE_LEN = 2",
           (TEST_ACCEPTANCE + "test_greene_oracle_cross_check_fails_criterion_10",)),
)


def _copy_repo(dest: Path) -> None:
    shutil.copytree(ROOT / "src", dest / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copytree(ROOT / "tests", dest / "tests",
                    ignore=shutil.ignore_patterns("__pycache__", "mutants"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(tree: Path, ids: tuple[str, ...]) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *ids]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def run(mutants: tuple[Mutant, ...]) -> list[str]:
    """The problems found, one line each; empty when every mutant is killed."""
    problems = []
    with tempfile.TemporaryDirectory(prefix="exactcomb-mutants-") as workdir:
        clean = Path(workdir) / "clean"
        _copy_repo(clean)
        killers = tuple(dict.fromkeys(t for m in mutants for t in m.killers))
        code = _pytest(clean, killers)
        if code != 0:
            return [f"the killing tests do not pass unmutated (pytest exit {code})"]
        for i, m in enumerate(mutants):
            tree = Path(workdir) / f"mutant{i}"
            _copy_repo(tree)
            target = tree / m.path
            text = target.read_text(encoding="utf-8")
            found = text.count(m.old)
            if found != 1:
                problems.append(f"{m.name}: old string occurs {found} times in {m.path}")
                continue
            target.write_text(text.replace(m.old, m.new), encoding="utf-8")
            code = _pytest(tree, m.killers)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"pytest exit {code}")
            print(f"{verdict:10s} {m.name}", flush=True)
            if code != 1:
                problems.append(f"{m.name}: {verdict}")
            shutil.rmtree(tree)
    return problems


def main(argv: list[str]) -> int:
    names = set(argv)
    unknown = names - {m.name for m in MUTANTS}
    if unknown:
        print(f"error: no mutant named {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    problems = run(tuple(m for m in MUTANTS if not names or m.name in names))
    for line in problems:
        print(f"error: {line}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
