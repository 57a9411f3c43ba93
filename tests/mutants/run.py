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
TEST_POSETS = "tests/test_posets.py::"
TEST_ACCEPTANCE = "tests/test_acceptance.py::"


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
    # two distinct nonzero 0/1 rows are independent; three need not be
    Mutant("zeta-rank-count-up-to-four-rows", POSETS,
           "if len(distinct) < 3:", "if len(distinct) < 5:",
           (TEST_POSETS + "test_memo_pivots_on_posets_that_are_not_lattices",)),
    # criterion 1 checks GF(2)^3, the one catalog lattice that is modular but
    # not distributive
    Mutant("criterion-01-without-gf2", ACCEPTANCE,
           "for cname, lat in lattice_catalog() if posets.is_modular(lat)]",
           "for cname, lat in lattice_catalog() if posets.is_modular(lat) and lat.n < 16]",
           (TEST_ACCEPTANCE + "test_quick_battery_report_bytes_are_pinned",)),
    # criterion 4 multiplies by a unit upper-triangular factor on each side
    Mutant("criterion-04-without-the-left-factor", ACCEPTANCE,
           "bruhat_permutation(u1 @ w_matrix @ u2)", "bruhat_permutation(w_matrix @ u2)",
           (TEST_ACCEPTANCE + "test_perturbation_on_one_side_fails_criterion_04[0-u1-6]",)),
    Mutant("criterion-04-without-the-right-factor", ACCEPTANCE,
           "bruhat_permutation(u1 @ w_matrix @ u2)", "bruhat_permutation(u1 @ w_matrix)",
           (TEST_ACCEPTANCE + "test_perturbation_on_one_side_fails_criterion_04[1-u2-13]",)),
    # criterion 5 runs the bijection and fibre checks through n = 5
    Mutant("criterion-05-fibres-only-to-n-4", "src/exactcomb/parking.py",
           "with_fibers = n <= 5", "with_fibers = n <= 4",
           ("tests/test_parking.py::test_fixed_content_round_trips_every_placement_through_n_5[5]",)),
    # the class key must come from the whole search, not from refinement alone
    Mutant("canonical-form-from-the-first-refinement-alone", POSETS,
           "    best: tuple[int, ...] | None = None\n",
           "    cells = _equitable([list(range(n))], cov_up, cov_down)\n"
           "    masks = [sum(1 << x for x in cell) for cell in cells]\n"
           "    return tuple((len(cell), tuple(((cov_up[cell[0]] & m).bit_count(),\n"
           "                                    (cov_down[cell[0]] & m).bit_count()) for m in masks))\n"
           "                 for cell in cells)\n",
           (TEST_POSETS + "test_canonical_form_tells_apart_what_refinement_alone_does_not",)),
    # a report is reused across its class only while it is verified
    Mutant("class-reuse-without-the-verified-guard", ACCEPTANCE,
           "            if report.status == VERIFIED:\n                verified[c] = report\n",
           "            verified[c] = report\n",
           (TEST_ACCEPTANCE + "test_a_failing_class_reports_as_the_per_lattice_loop_does[smallest-class]",)),
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
