import json
import multiprocessing
import os
import random
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from exactcomb import core, genfun, plactic, posets
from exactcomb.cli import main
from exactcomb.posets import POSET_FILE_MAX_N


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_plactic_p(capsys):
    code, out, _ = run(capsys, "plactic", "p", "--word", "2,1,3,2")
    assert code == 0
    assert out.splitlines() == ["1 2", "2 3"]


def test_plactic_p_json(capsys):
    code, out, _ = run(capsys, "plactic", "p", "--word", "2,1,3,2", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["tableau"] == [[1, 2], [2, 3]]
    assert payload["shape"] == [2, 2]


def test_parking_phi(capsys):
    code, out, _ = run(capsys, "parking", "phi", "--b", "1,1,2,4,5,6",
                       "--w", "6,3,2,5,4,1", "--A", "1,2,4")
    assert code == 0
    assert out.strip() == "1:3 2:6 4:5"


def test_parking_insert(capsys):
    code, out, _ = run(capsys, "parking", "insert", "--b", "1,1,2,4,5,6",
                       "--rooks", "1:3,2:6,4:5", "--u0", "2,4,1")
    assert code == 0
    assert "6,3,2,5,4,1" in out and "1,2,4" in out


def test_parking_verify_fixed_content(capsys):
    code, out, _ = run(capsys, "parking", "verify-fixed-content", "--n", "3")
    assert code == 0
    assert "verified" in out


def test_genfun_ipoly_methods_agree(capsys):
    code, out_trees, _ = run(capsys, "genfun", "i-poly", "--n", "4",
                             "--method", "trees", "--output", "json")
    assert code == 0
    code, out_rec, _ = run(capsys, "genfun", "i-poly", "--n", "4",
                           "--method", "rec", "--output", "json")
    assert code == 0
    trees, rec = json.loads(out_trees), json.loads(out_rec)
    assert trees["polynomial"] == rec["polynomial"]
    assert trees["rendered"] == rec["rendered"]
    assert trees["method"] == "trees" and rec["method"] == "rec"


def test_genfun_itilde(capsys):
    code, out, _ = run(capsys, "genfun", "itilde", "--n", "3", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["stat"] == "exced"
    # 16 parking functions of length 3 in total
    assert sum(int(term["c"]) for term in payload["polynomial"]) == 16
    assert {"c": "4", "q": 0, "t": 1} in payload["polynomial"]


def test_echelon_map(capsys, tmp_path):
    poset = tmp_path / "diamond.json"
    poset.write_text(json.dumps({"n": 4, "covers": [[0, 1], [0, 2], [1, 3], [2, 3]]}))
    code, out, _ = run(capsys, "echelon", "map", "--poset", str(poset),
                       "--sigma", "0,1,2,3")
    assert code == 0
    assert out.splitlines() == ["0 -> 3", "1 -> 2", "2 -> 1", "3 -> 0"]


def test_echelon_map_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "echelon", "map",
                       "--poset", str(tmp_path / "nope.json"), "--sigma", "0")
    assert code == 2 and err


def test_echelon_map_cyclic(capsys, tmp_path):
    poset = tmp_path / "cycle.json"
    poset.write_text(json.dumps({"n": 2, "covers": [[0, 1], [1, 0]]}))
    code, _, err = run(capsys, "echelon", "map", "--poset", str(poset),
                       "--sigma", "0,1")
    assert code == 2 and err


def test_echelon_map_deeply_nested_json_is_a_usage_error(capsys, tmp_path):
    poset = tmp_path / "deep.json"
    poset.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run(capsys, "echelon", "map", "--poset", str(poset),
                         "--sigma", "0,1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "nests too deeply" in err


def test_bad_descent_set_is_usage_error(capsys):
    # A must consist of descents of w
    code, _, err = run(capsys, "parking", "phi", "--b", "1,2",
                       "--w", "1,2", "--A", "1")
    assert code == 2 and err


def test_phi_names_a_bad_content_as_insert_does(capsys):
    # (1, 3) is not a parking content; phi must say so before it parks
    for argv in (("phi", "--w", "1,2", "--A="), ("insert", "--rooks=", "--u0", "1,2")):
        code, out, err = run(capsys, "parking", argv[0], "--b", "1,3", *argv[1:])
        assert code == 2 and not out
        assert err == "error: (1, 3) is not a parking content\n", argv


@pytest.mark.parametrize("argv, flag, text", [
    (("insert", "--rooks", "1:3,2:6,1:3", "--u0", "2,4,5,1"), "--rooks", "1:3,2:6,1:3"),
    (("phi", "--w", "6,3,2,5,4,1", "--A", "1,2,1"), "--A", "1,2,1"),
])
def test_a_repeated_rook_or_descent_is_a_usage_error(capsys, argv, flag, text):
    # a set given twice an entry is refused, not silently merged
    code, out, err = run(capsys, "parking", argv[0], "--b", "1,1,2,4,5,6", *argv[1:])
    assert code == 2 and not out
    assert err.splitlines() == [f"error: {flag} names an entry twice, got {text!r}"]


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["plactic", "p", "--wort", "1"])
    assert err.value.code == 2


def test_json_output_is_deterministic(capsys):
    args = ("plactic", "centralizer", "--u", "1", "--alphabet", "2",
            "--max-len", "3", "--output", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    json.loads(first)


def test_cross_process_determinism():
    cmd = [sys.executable, "-m", "exactcomb", "parking", "verify-fixed-content",
           "--n", "3", "--output", "json"]
    a = subprocess.run(cmd, capture_output=True, check=True)
    b = subprocess.run(cmd, capture_output=True, check=True)
    assert a.stdout == b.stdout
    payload = json.loads(a.stdout)
    reports = payload if isinstance(payload, list) else [payload]
    assert all(r["status"] == "verified" for r in reports)


def test_verify_single_theorem_reports(capsys):
    code, out, _ = run(capsys, "genfun", "verify-simsun", "--n", "4",
                       "--output", "json")
    assert code == 0
    payload = json.loads(out)
    reports = payload if isinstance(payload, list) else [payload]
    assert reports[0]["theorem"] == "tree-minus-one-is-simsun"
    assert set(reports[0]) == {"theorem", "instances", "status", "witness"}


def test_echelon_map_rejects_non_lattice(capsys, tmp_path):
    # two maximal elements: no join of 1 and 2
    poset = tmp_path / "vee.json"
    poset.write_text(json.dumps({"n": 3, "covers": [[0, 1], [0, 2]]}))
    code, out, err = run(capsys, "echelon", "map", "--poset", str(poset),
                         "--sigma", "0,1,2")
    assert code == 2 and not out
    assert err.startswith("error: ") and "no least upper bound" in err


@pytest.mark.parametrize("sigma", ["0,1,5", "0,1", "0,1,1,2", "-1,0,1"])
def test_echelon_map_rejects_bad_sigma(capsys, tmp_path, sigma):
    poset = tmp_path / "chain.json"
    poset.write_text(json.dumps({"n": 3, "covers": [[0, 1], [1, 2]]}))
    code, out, err = run(capsys, "echelon", "map", "--poset", str(poset),
                         f"--sigma={sigma}")
    assert code == 2 and not out
    assert err.startswith("error: --sigma")


def test_echelon_map_refuses_large_n_before_building(capsys, tmp_path):
    poset = tmp_path / "huge.json"
    poset.write_text(json.dumps({"n": 100_000, "covers": []}))
    code, out, err = run(capsys, "echelon", "map", "--poset", str(poset),
                         "--sigma", "0,1,2")
    assert code == 2 and out == ""
    assert err.splitlines() == [f'error: "n" must be at most {POSET_FILE_MAX_N}, got 100000']


def test_echelon_map_bound_is_inclusive_and_documented(capsys, tmp_path):
    n = POSET_FILE_MAX_N
    sigma = ",".join(map(str, range(n)))
    for size, expected in ((n, 0), (n + 1, 2)):
        # a diamond with size - 2 atoms
        covers = [[0, a] for a in range(1, size - 1)] + [[a, size - 1] for a in range(1, size - 1)]
        poset = tmp_path / f"diamond{size}.json"
        poset.write_text(json.dumps({"n": size, "covers": covers}))
        code, _, _ = run(capsys, "echelon", "map", "--poset", str(poset), "--sigma", sigma)
        assert code == expected
    with pytest.raises(SystemExit):
        main(["echelon", "map", "--help"])
    assert f"at most {n} elements" in capsys.readouterr().out


def test_echelon_map_checks_sigma_before_the_lattice(capsys, tmp_path):
    poset = tmp_path / "vee.json"
    poset.write_text(json.dumps({"n": 3, "covers": [[0, 1], [0, 2]]}))
    code, out, err = run(capsys, "echelon", "map", "--poset", str(poset), "--sigma", "0,1")
    assert code == 2 and out == ""
    assert err.startswith("error: --sigma")


@pytest.mark.parametrize("covers", [5, None])
def test_echelon_map_rejects_covers_that_are_not_a_list(capsys, tmp_path, covers):
    poset = tmp_path / "bad.json"
    poset.write_text(json.dumps({"n": 3, "covers": covers}))
    code, out, err = run(capsys, "echelon", "map", "--poset", str(poset),
                         "--sigma", "0,1,2")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and '"covers"' in err


def test_unexpected_exception_exits_3(capsys, monkeypatch):
    def broken(word):
        raise RuntimeError("kernel broke")

    monkeypatch.setattr(plactic, "rsk_P", broken)
    code, out, err = run(capsys, "plactic", "p", "--word", "2,1")
    assert code == 3 and out == ""
    assert err.splitlines() == ["error: internal error: RuntimeError: kernel broke"]


@pytest.mark.parametrize("argv", [
    ("genfun", "i-poly", "--n", "-1"),
    ("parking", "verify-fixed-content", "--n", "-3"),
    ("genfun", "verify-simsun", "--n", "-1"),
    ("genfun", "verify-simsun", "--n", "0"),
])
def test_negative_sizes_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_first_rows_alphabet_below_a_letter_of_u_is_a_usage_error(capsys):
    code, out, err = run(capsys, "plactic", "verify-first-rows",
                         "--u", "2", "--alphabet", "1", "--max-len", "3")
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: alphabet cap 1 is below the letter 2 of u"]


@pytest.mark.parametrize("m", ["-1", "0"])
def test_rc_threshold_below_1_is_a_usage_error(capsys, m):
    code, out, err = run(capsys, "plactic", "verify-rc", "--u=", "--m", m, "--max-len", "2")
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: threshold m = {m} must be at least 1"]


@pytest.mark.parametrize("n", ["-1", "8"])
def test_itilde_names_n_when_out_of_range(capsys, n):
    code, out, err = run(capsys, "genfun", "itilde", "--n", n)
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"n = {n}" in err


def test_alternating_identity_names_its_own_range(capsys):
    code, out, err = run(capsys, "genfun", "verify-alternating", "--n", "8")
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: alternating identity needs 2 <= n <= 7, got n = 8"]


def test_tree_polynomial_that_outgrows_its_slots_exits_3(capsys, monkeypatch):
    genfun._tree_packed.cache_clear()
    monkeypatch.setattr(genfun, "_SLOT_BYTES", 1)
    try:
        code, out, err = run(capsys, "genfun", "i-poly", "--n", "8")
    finally:
        genfun._tree_packed.cache_clear()
    assert code == 3 and out == ""
    assert err.splitlines() == ["error: internal error: PackingCheckError: "
                                "the bound N_8 = 4782969 does not fit 8-bit slots"]


POOLED = {
    "verify all": ("--quick",),
}

UNPOOLED = {
    "parking verify-fixed-content": ("--n", "3"),
    "parking phi": ("--b", "1,1,2,4,5,6", "--w", "6,3,2,5,4,1", "--A", "1,2,4"),
    "parking insert": ("--b", "1,1,2,4,5,6", "--rooks", "1:3,2:6,4:5", "--u0", "2,4,1"),
    "genfun i-poly": ("--n", "3"),
    "genfun itilde": ("--n", "3"),
    "genfun verify-simsun": ("--n", "3"),
    "genfun verify-alternating": ("--n", "3"),
    "plactic p": ("--word", "2,1,3,2"),
    "plactic centralizer": ("--u", "1", "--alphabet", "2", "--max-len", "3"),
    "plactic verify-first-rows": ("--u", "1", "--max-len", "3"),
    "plactic verify-rc": ("--u", "1,2", "--m", "2", "--max-len", "4"),
    "echelon map": ("--poset", "diamond.json", "--sigma", "0,1,2,3"),
}


@pytest.mark.parametrize("command", sorted(UNPOOLED))
def test_unpooled_commands_reject_workers(capsys, command):
    with pytest.raises(SystemExit) as err:
        main([*command.split(), *UNPOOLED[command], "--workers", "2"])
    assert err.value.code == 2
    assert "--workers" in capsys.readouterr().err


# the commands that had --workers before it moved to `verify all` alone
RETIRED_WORKERS = ("parking verify-fixed-content", "plactic centralizer",
                   "plactic verify-first-rows", "plactic verify-rc")


@pytest.mark.parametrize("workers", ["0", "-1"])
@pytest.mark.parametrize("command", sorted([*POOLED, *RETIRED_WORKERS]))
def test_workers_below_one_are_usage_errors(capsys, command, workers):
    if command in POOLED:
        code, out, err = run(capsys, *command.split(), *POOLED[command], "--workers", workers)
        assert code == 2 and out == ""
        assert err.startswith("error:")
    else:
        # argparse rejects the flag itself, whatever its value
        with pytest.raises(SystemExit) as exc:
            main([*command.split(), *UNPOOLED[command], "--workers", workers])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert "--workers" in err


@pytest.mark.parametrize("argv", [
    ("verify", "all", "--quick"),
    ("verify", "all", "--quick", "--seed", "5"),
])
def test_reports_identical_for_one_and_two_workers(capsys, argv):
    code1, serial, _ = run(capsys, *argv, "--output", "json", "--workers", "1")
    code2, pooled, _ = run(capsys, *argv, "--output", "json", "--workers", "2")
    assert code1 == code2 == 0
    assert serial == pooled
    assert all(r["status"] == "verified" for r in json.loads(serial))


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers see the patched battery only when forked")
@pytest.mark.parametrize("raised, code, line", [
    ("posets.NotALatticeError('elements 0 and 1 have no meet')", 2,
     "error: elements 0 and 1 have no meet"),
    ("RuntimeError('kernel broke')", 3, "error: internal error: RuntimeError: kernel broke"),
])
def test_pooled_battery_reports_a_criterion_error(raised, code, line):
    # every row is a cheap stub, and the one in the first block raises
    script = (
        "import sys\n"
        "from exactcomb import acceptance, cli, posets\n"
        "from exactcomb.report import Report\n"
        "def verified(**kw):\n"
        "    return Report('stub', 1, 'verified')\n"
        "def broken(**kw):\n"
        f"    raise {raised}\n"
        "acceptance.BATTERY = tuple(row._replace(check=broken if i == 1 else verified)\n"
        "                           for i, row in enumerate(acceptance.BATTERY))\n"
        "sys.exit(cli.main(['verify', 'all', '--workers', '2', '--output', 'json']))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == code and done.stdout == ""
    assert done.stderr.splitlines() == [line]


@pytest.mark.parametrize("argv, message", [
    (("plactic", "verify-rc", "--u", "1", "--m", "1", "--max-len", "9"), "length 9 > 8"),
    (("plactic", "centralizer", "--u", "1", "--alphabet", "9", "--max-len", "3"),
     "alphabet 9 > 5"),
])
def test_budget_error_names_only_the_bound_exceeded(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: budget exceeded: {message}"]


def test_inexact_bareiss_division_exits_3(capsys, monkeypatch, tmp_path):
    # M3 with a new top: its Bruhat pivots are 1, -1, -1, 2, 1, -1, so the
    # fifth column's step divides the last pivotless row by 2.  M3 alone
    # has none left there.
    poset = tmp_path / "m3_with_top.json"
    poset.write_text(json.dumps({"n": 6, "covers": [
        [0, 1], [0, 2], [0, 3], [1, 4], [2, 4], [3, 4], [4, 5]]}))
    monkeypatch.setattr(core, "divmod", lambda a, b: (a // b, 1), raising=False)
    code, out, err = run(capsys, "echelon", "map", "--poset", str(poset), "--sigma", "0,1,2,3,4,5")
    assert code == 3 and out == ""
    assert err.splitlines() == [
        "error: internal error: BareissDivisionError: Bareiss division must be exact"]


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_block(heading, fence):
    """The first fenced block of the given language under a README heading."""
    text = README.read_text().split(f"\n{heading}\n", 1)[1]
    return text.split(f"```{fence}\n", 1)[1].split("\n```", 1)[0]


def _readme_commands():
    """(argv, output lines shown under it) for every ``exactcomb`` line of
    the README command-line block except ``verify all``."""
    lines = _readme_block("## Command line", "sh").splitlines()
    out = []
    for i, line in enumerate(lines):
        if not line.startswith("exactcomb "):
            continue
        argv = shlex.split(line, comments=True)[1:]
        shown = []
        for later in lines[i + 1:]:
            if not later.startswith("# "):
                break
            shown.append(later[2:])
        out.append((argv, shown))
    return [(argv, shown) for argv, shown in out if argv[:2] != ["verify", "all"]]


def test_readme_lists_twelve_command_examples():
    assert len(_readme_commands()) == 12


@pytest.mark.parametrize("argv, shown", [
    pytest.param(argv, shown, id=" ".join(argv)) for argv, shown in _readme_commands()])
def test_readme_command_examples_run(capsys, monkeypatch, tmp_path, argv, shown):
    # the echelon example reads the poset file shown under "Poset files"
    (tmp_path / "diamond.json").write_text(_readme_block("### Poset files", "json"))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    if shown:
        assert out.splitlines() == shown


def test_readme_library_block_runs(capsys):
    exec(compile(_readme_block("## Library use", "python"), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[0] == "(3, 2, 1, 0)"
    assert lines[1].startswith("1 + 4*t + t^2 + 2*q + ")
    assert lines[2] == "((1, 2), (2, 3))"


# -- seeded fuzz of every subcommand but `verify all` ---------------------------

FUZZ_INTS = ("-3", "-1", "0", "1", "2", "3", "4", "9", "25", "x", "", "1.5")
FUZZ_LISTS = ("", "1", "1,2", "2,1", "2,1,3", "3,3,3", "1,1,2", "1,1,2,4,5,6",
              "6,3,2,5,4,1", "0", "-1,2", "1,,2", "a", "1, 2", "1,2,3,4,5,6,7,8,9")
FUZZ_ROOKS = ("", "1:3", "1:1", "1:3,2:6,4:5", "1:1,1:1", "0:0", "9:9", "1-3", "a:b", "1:3,2")
FUZZ_FILES = {
    "diamond.json": {"n": 4, "covers": [[0, 1], [0, 2], [1, 3], [2, 3]]},
    "chain.json": {"n": 3, "covers": [[0, 1], [1, 2]]},
    "m3.json": {"n": 5, "covers": [[0, 1], [0, 2], [0, 3], [1, 4], [2, 4], [3, 4]]},
    "antichain.json": {"n": 2, "covers": []},
    "cycle.json": {"n": 2, "covers": [[0, 1], [1, 0]]},
    "big.json": {"n": 300, "covers": []},
    "flag.json": {"n": True, "covers": []},
    "pairs.json": {"n": 3, "covers": [[0, 1, 2]]},
    "outside.json": {"n": 2, "covers": [[0, 5]]},
    "keys.json": {"n": 2},
    "list.json": [1, 2],
}
# each subcommand's flags, and the values each flag is drawn from
FUZZ_COMMANDS = {
    ("parking", "verify-fixed-content"): {"--n": FUZZ_INTS},
    ("parking", "phi"): {"--b": FUZZ_LISTS, "--w": FUZZ_LISTS, "--A": FUZZ_LISTS},
    ("parking", "insert"): {"--b": FUZZ_LISTS, "--rooks": FUZZ_ROOKS, "--u0": FUZZ_LISTS},
    ("genfun", "i-poly"): {"--n": FUZZ_INTS, "--method": ("trees", "rec", "dfs", "")},
    ("genfun", "itilde"): {"--n": FUZZ_INTS, "--stat": ("exced", "des-oc", "des-oc-inv", "des")},
    ("genfun", "verify-simsun"): {"--n": FUZZ_INTS},
    ("genfun", "verify-alternating"): {"--n": FUZZ_INTS},
    ("plactic", "p"): {"--word": FUZZ_LISTS},
    ("plactic", "centralizer"): {"--u": FUZZ_LISTS, "--alphabet": FUZZ_INTS,
                                 "--max-len": FUZZ_INTS},
    ("plactic", "verify-first-rows"): {"--u": FUZZ_LISTS, "--alphabet": FUZZ_INTS,
                                       "--max-len": FUZZ_INTS},
    ("plactic", "verify-rc"): {"--u": FUZZ_LISTS, "--m": FUZZ_INTS, "--alphabet": FUZZ_INTS,
                               "--max-len": FUZZ_INTS},
    ("echelon", "map"): {"--poset": (*FUZZ_FILES, "missing.json", "not-json.json", "."),
                         "--sigma": ("0,1,2,3", "0,2,1,3", "0,1,2", "0,1,2,3,4", "3,2,1,0",
                                     "0,0,1,2", "", "x")},
}


def _fuzz_argv(rng):
    """One argument vector: a subcommand, each flag with a drawn value, and
    now and then a flag left out or one that does not exist."""
    command = rng.choice(sorted(FUZZ_COMMANDS))
    argv = list(command)
    for flag, values in FUZZ_COMMANDS[command].items():
        if rng.random() < 0.95:
            argv.append(f"{flag}={rng.choice(values)}")
    if rng.random() < 0.5:
        argv.append(f"--output={rng.choice(('text', 'json'))}")
    if rng.random() < 0.03:
        argv.append(rng.choice(("--bogus", "--workers=2", "extra")))
    return argv


def test_fuzzed_argument_vectors_exit_0_1_or_2_with_one_error_line(capsys, monkeypatch,
                                                                   tmp_path):
    for name, obj in FUZZ_FILES.items():
        (tmp_path / name).write_text(json.dumps(obj))
    (tmp_path / "not-json.json").write_text("{n: 4")
    monkeypatch.chdir(tmp_path)
    rng = random.Random(2024)
    codes = []
    for _ in range(300):
        argv = _fuzz_argv(rng)
        try:
            code = main(argv)
        except SystemExit as exc:
            # argparse's own usage errors print usage and then a line of their own
            out, err = capsys.readouterr()
            assert exc.code == 2 and "usage:" in err and not out, argv
            codes.append("usage")
            continue
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), (argv, err)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1 and not out, (argv, err)
        else:
            assert not err and out, argv
        codes.append(code)
    counts = Counter(codes)
    # every outcome is drawn often enough to mean something
    assert counts[0] > 30 and counts[2] > 30 and counts["usage"] > 30, counts
