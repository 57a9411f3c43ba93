import json
import multiprocessing
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from exactcomb import plactic, posets
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


@pytest.mark.parametrize("n", ["-1", "8"])
def test_itilde_names_n_when_out_of_range(capsys, n):
    code, out, err = run(capsys, "genfun", "itilde", "--n", n)
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"n = {n}" in err


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
    ("posets.NotALatticeError(0, 1, 'no meet')", 2, "error: elements 0 and 1 have no meet"),
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
    poset = tmp_path / "diamond.json"
    poset.write_text(json.dumps({"n": 4, "covers": [[0, 1], [0, 2], [1, 3], [2, 3]]}))
    monkeypatch.setattr(posets, "divmod", lambda a, b: (a // b, 1), raising=False)
    code, out, err = run(capsys, "echelon", "map", "--poset", str(poset), "--sigma", "0,1,2,3")
    assert code == 3 and out == ""
    assert err.splitlines() == [
        "error: internal error: BareissDivisionError: Bareiss update must divide exactly"]


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
