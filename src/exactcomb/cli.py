"""Command-line front door.

One subcommand group per module plus `verify all` for the full battery.
Exit codes: 0 for verified or skipped, 1 for a counterexample, 2 for usage
errors, 3 for an internal error (any other exception).  JSON output with the
same flags and seed is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import acceptance, genfun, parking, plactic, posets
from .core import BiPoly, Permutation
from .report import Report, reports_to_json, worst_exit_code


class UsageError(ValueError):
    pass


def _ints(text: str, flag: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated integers, got {text!r}") from None


def _distinct(items: list | tuple, flag: str, text: str) -> frozenset:
    if len(set(items)) < len(items):
        raise UsageError(f"{flag} names an entry twice, got {text!r}")
    return frozenset(items)


def _rooks(text: str) -> frozenset[tuple[int, int]]:
    pairs = []
    for part in text.split(",") if text else ():
        try:
            row, col = part.split(":")
            pairs.append((int(row), int(col)))
        except ValueError:
            raise UsageError(
                f'--rooks expects "row:col" pairs like "1:3,2:6", got {part!r}') from None
    return _distinct(pairs, "--rooks", text)


def _emit_reports(reports: list[Report], output: str) -> int:
    if output == "json":
        sys.stdout.write(reports_to_json(reports))
    else:
        for r in reports:
            print(r.render_text())
    return worst_exit_code(reports)


def _emit_obj(obj: dict, text_lines: list[str], output: str) -> int:
    if output == "json":
        sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        for line in text_lines:
            print(line)
    return 0


def _poly_payload(poly: BiPoly) -> dict:
    return {"polynomial": poly.to_json_terms(), "rendered": poly.render()}


# -- handlers ----------------------------------------------------------------


def _cmd_parking_verify(args) -> int:
    r = parking.verify_fixed_content(args.n)
    return _emit_reports([r], args.output)


def _cmd_parking_phi(args) -> int:
    b = _ints(args.b, "--b")
    w = Permutation(_ints(args.w, "--w"))
    a_set = _distinct(_ints(args.A, "--A"), "--A", args.A)
    rooks = sorted(parking.phi(b, w, a_set))
    return _emit_obj(
        {"b": list(b), "w": list(w.one_line), "A": sorted(a_set),
         "rooks": [list(rc) for rc in rooks]},
        [" ".join(f"{r}:{c}" for r, c in rooks)],
        args.output)


def _cmd_parking_insert(args) -> int:
    b = _ints(args.b, "--b")
    rooks = _rooks(args.rooks)
    u0 = _ints(args.u0, "--u0")
    w, a_set = parking.insert_forward(b, rooks, u0)
    return _emit_obj(
        {"b": list(b), "rooks": [list(rc) for rc in sorted(rooks)],
         "u0": list(u0), "w": list(w.one_line), "A": sorted(a_set)},
        [f"w = {','.join(map(str, w.one_line))}",
         f"A = {','.join(map(str, sorted(a_set)))}"],
        args.output)


def _cmd_genfun_ipoly(args) -> int:
    method = {"trees": "trees", "rec": "recurrence"}.get(args.method)
    if method is None:
        raise UsageError(f"--method must be trees or rec, got {args.method!r}")
    poly = genfun.tree_poly(args.n, method)
    return _emit_obj({"n": args.n, "method": args.method, **_poly_payload(poly)},
                     [poly.render()], args.output)


def _cmd_genfun_itilde(args) -> int:
    poly = genfun.parking_poly(args.n, args.stat)
    return _emit_obj({"n": args.n, "stat": args.stat, **_poly_payload(poly)},
                     [poly.render()], args.output)


def _cmd_genfun_simsun(args) -> int:
    r = genfun.verify_simsun_identity(args.n)
    return _emit_reports([r], args.output)


def _cmd_genfun_alternating(args) -> int:
    r = genfun.verify_alternating_identity(args.n)
    return _emit_reports([r], args.output)


def _cmd_plactic_p(args) -> int:
    word = _ints(args.word, "--word")
    t = plactic.rsk_P(word)
    return _emit_obj({"word": list(word),
                      "tableau": t.to_json_obj(), "shape": list(t.shape())},
                     [" ".join(map(str, row)) for row in t.rows] or ["(empty)"],
                     args.output)


def _cmd_plactic_centralizer(args) -> int:
    u = _ints(args.u, "--u")
    found = plactic.centralizer_search(u, args.alphabet, args.max_len)
    members = [t.to_json_obj() for t in found.members]
    lines = [f"members: {len(members)}"]
    lines.extend(json.dumps(m) for m in members)
    return _emit_obj({"u": list(u), "alphabet": args.alphabet,
                      "max_len": args.max_len, "members": members},
                     lines, args.output)


def _cmd_plactic_first_rows(args) -> int:
    r = plactic.verify_first_rows(_ints(args.u, "--u"), alphabet_cap=args.alphabet,
                                  length_cap=args.max_len)
    return _emit_reports([r], args.output)


def _cmd_plactic_rc(args) -> int:
    r = plactic.verify_rc_correspondence(_ints(args.u, "--u"), args.m,
                                         alphabet_cap=args.alphabet,
                                         length_cap=args.max_len)
    return _emit_reports([r], args.output)


def _cmd_echelon_map(args) -> int:
    p = posets.load_poset_file(args.poset)
    order = _ints(args.sigma, "--sigma")
    if sorted(order) != list(range(p.n)):
        raise posets.PosetError(
            f"--sigma must list each element 0..{p.n - 1} exactly once, got {args.sigma!r}")
    lattice = posets.build_lattice(p)
    sigma = posets.LinearExtension(order)
    em = posets.echelonmotion(lattice, sigma)
    lines = [f"{x} -> {em(x)}" for x in range(p.n)]
    return _emit_obj({"poset": posets.poset_to_json_obj(p),
                      "sigma": list(sigma.order),
                      "mapping": list(em.mapping),
                      "rank_permutation": list(em.permutation().one_line)},
                     lines, args.output)


def _cmd_verify_all(args) -> int:
    reports = acceptance.run_battery(quick=args.quick, seed=args.seed,
                                     workers=args.workers)
    return _emit_reports(reports, args.output)


# -- parser ------------------------------------------------------------------


def _common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--output", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactcomb",
        description="Exact checks for cover-transfer maps on lattices, "
                    "parking-function statistics, and plactic centralizers.")
    top = parser.add_subparsers(dest="group", required=True)

    pk = top.add_parser("parking", help="parking functions and the insertion bijection")
    pk_sub = pk.add_subparsers(dest="command", required=True)
    s = pk_sub.add_parser("verify-fixed-content", help="equidistribution at one size")
    s.add_argument("--n", type=int, required=True)
    _common(s)
    s.set_defaults(handler=_cmd_parking_verify)
    s = pk_sub.add_parser("phi", help="rook placement of a descent subset")
    s.add_argument("--b", required=True, help="content, e.g. 1,1,2,4,5,6")
    s.add_argument("--w", required=True, help="permutation one-line form")
    s.add_argument("--A", required=True, help="descent subset, 1-indexed")
    _common(s)
    s.set_defaults(handler=_cmd_parking_phi)
    s = pk_sub.add_parser("insert", help="grow a word along a rook placement")
    s.add_argument("--b", required=True)
    s.add_argument("--rooks", required=True, help='e.g. "1:3,2:6,4:5"')
    s.add_argument("--u0", required=True)
    _common(s)
    s.set_defaults(handler=_cmd_parking_insert)

    gf = top.add_parser("genfun", help="tree and parking generating polynomials")
    gf_sub = gf.add_subparsers(dest="command", required=True)
    s = gf_sub.add_parser("i-poly", help="tree inversion/leaf polynomial")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--method", default="rec", help="trees or rec")
    _common(s)
    s.set_defaults(handler=_cmd_genfun_ipoly)
    s = gf_sub.add_parser("itilde", help="parking polynomial by statistic")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--stat", choices=("exced", "des-oc", "des-oc-inv"), default="exced")
    _common(s)
    s.set_defaults(handler=_cmd_genfun_itilde)
    s = gf_sub.add_parser("verify-simsun", help="q = -1 against simsun enumerators")
    s.add_argument("--n", type=int, required=True)
    _common(s)
    s.set_defaults(handler=_cmd_genfun_simsun)
    s = gf_sub.add_parser("verify-alternating", help="q = -1 against the zig-zag polynomial")
    s.add_argument("--n", type=int, required=True)
    _common(s)
    s.set_defaults(handler=_cmd_genfun_alternating)

    pl = top.add_parser("plactic", help="insertion tableaux and centralizers")
    pl_sub = pl.add_subparsers(dest="command", required=True)
    s = pl_sub.add_parser("p", help="insertion tableau of a word")
    s.add_argument("--word", required=True)
    _common(s)
    s.set_defaults(handler=_cmd_plactic_p)
    s = pl_sub.add_parser("centralizer", help="restricted centralizer members")
    s.add_argument("--u", required=True)
    s.add_argument("--alphabet", type=int, required=True)
    s.add_argument("--max-len", type=int, required=True)
    _common(s)
    s.set_defaults(handler=_cmd_plactic_centralizer)
    s = pl_sub.add_parser("verify-first-rows", help="first-rows bound over a budget")
    s.add_argument("--u", required=True)
    s.add_argument("--alphabet", type=int, default=None)
    s.add_argument("--max-len", type=int, default=7)
    _common(s)
    s.set_defaults(handler=_cmd_plactic_first_rows)
    s = pl_sub.add_parser("verify-rc", help="reverse-complement correspondence")
    s.add_argument("--u", required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--alphabet", type=int, default=None)
    s.add_argument("--max-len", type=int, default=6)
    _common(s)
    s.set_defaults(handler=_cmd_plactic_rc)

    ec = top.add_parser("echelon", help="echelon maps of posets")
    ec_sub = ec.add_subparsers(dest="command", required=True)
    s = ec_sub.add_parser("map", help="echelon map for one extension")
    s.add_argument("--poset", required=True,
                   help=f"path to a poset JSON file, at most {posets.POSET_FILE_MAX_N} elements")
    s.add_argument("--sigma", required=True, help="element order, 0-indexed")
    _common(s)
    s.set_defaults(handler=_cmd_echelon_map)

    vf = top.add_parser("verify", help="acceptance battery")
    vf_sub = vf.add_subparsers(dest="command", required=True)
    s = vf_sub.add_parser("all", help="run every acceptance criterion")
    s.add_argument("--quick", action="store_true",
                   help="reduce every size cap by one (smoke tier)")
    s.add_argument("--seed", type=int, default=0)
    _common(s)
    s.add_argument("--workers", type=int, default=1,
                   help="processes that run the criteria, at least 1 (default: 1)")
    s.set_defaults(handler=_cmd_verify_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
