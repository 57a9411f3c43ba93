"""The acceptance battery.

Thirteen checkers, one per headline claim, each returning a Report with
exact integer or polynomial equality; no tolerances anywhere.  BATTERY
lists them in battery order with the caps of the full tier and of the
quick tier; run_battery runs one tier of it, block by block.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable, Iterable, Iterator
from functools import cache, partial
from typing import NamedTuple

from . import genfun, parking, plactic, posets
from .core import Permutation, random_unit_upper_triangular
from .parallel import parallel_map
from .report import COUNTEREXAMPLE, VERIFIED, Report, reports_to_json


class LatticeSweep:
    """All modular and distributive lattices among labelled posets up to max_n.

    ``modular_classes`` and ``distributive_classes`` run parallel to the two
    lists: the index of each lattice's isomorphism class, numbered in the
    order the classes first occur among the modular lattices.
    """

    __slots__ = ("posets_seen", "modular", "distributive",
                 "modular_classes", "distributive_classes")

    def __init__(self, max_n: int):
        self.modular: list[posets.Lattice] = []
        self.distributive: list[posets.Lattice] = []
        modular_classes: list[int] = []
        distributive_classes: list[int] = []
        index_of: dict[tuple[int, ...], int] = {}
        for p in self._bounded_posets(max_n):
            try:
                lat = posets.build_lattice(p)
            except posets.NotALatticeError:
                continue
            if posets.is_modular(lat):
                c = index_of.setdefault(posets.canonical_form(p), len(index_of))
                self.modular.append(lat)
                modular_classes.append(c)
                if posets.is_distributive(lat):
                    self.distributive.append(lat)
                    distributive_classes.append(c)
        self.modular_classes = tuple(modular_classes)
        self.distributive_classes = tuple(distributive_classes)

    def _bounded_posets(self, max_n: int):
        self.posets_seen = yield from posets.bounded_posets_up_to(max_n)


@cache
def lattice_sweep(max_n: int) -> LatticeSweep:
    return LatticeSweep(max_n)


@cache
def lattice_catalog() -> tuple[tuple[str, posets.Lattice], ...]:
    """The named lattices of posets.lattice_catalog, built once per process."""
    return tuple(posets.lattice_catalog().items())


def _first_failure(name: str, checks: Iterable[tuple[Report, dict]]
                   ) -> tuple[int, Report | None]:
    """Run (report, witness extras) pairs until a report is not verified.

    Returns the instances of the verified reports and, if one failed, that
    report renamed to ``name`` with the extras added to its witness.
    """
    instances = 0
    for r, extras in checks:
        if r.status != VERIFIED:
            witness = {**(r.witness or {}), **extras} if extras else r.witness
            return instances, Report(name, instances, r.status, witness)
        instances += r.instances
    return instances, None


def _class_reports(verify: Callable[[posets.Lattice], Report],
                   lattices: list[posets.Lattice], classes: tuple[int, ...]
                   ) -> Iterator[Report]:
    """verify(lat) for each lattice in turn, walking only the first lattice
    of each isomorphism class while its report is verified.

    An isomorphism of lattices carries each linear extension to one of the
    image with the same Cartan matrix, entry for entry, so the pivots, the
    number of extensions and the verdict are the same across a class: a
    verified report of the first member is the report of every later one.
    A report that is not verified is never reused; the member is walked
    itself.
    """
    verified: dict[int, Report] = {}
    for lat, c in zip(lattices, classes):
        report = verified.get(c)
        if report is None:
            report = verify(lat)
            if report.status == VERIFIED:
                verified[c] = report
        yield report


def criterion_echelon(max_n: int, catalog_cap: int) -> Report:
    """Cover counts transfer along the echelon map, on every modular lattice
    in the exhaustive sweep, one walk per isomorphism class, and on the
    catalog under an extension cap."""
    name = "echelon-cover-transfer"
    sweep = lattice_sweep(max_n)
    catalog = [(cname, lat) for cname, lat in lattice_catalog() if posets.is_modular(lat)]
    instances, failure = _first_failure(name, itertools.chain(
        ((r, {}) for r in _class_reports(posets.verify_echelon_theorem,
                                         sweep.modular, sweep.modular_classes)),
        ((posets.verify_echelon_theorem(lat, extension_cap=catalog_cap), {"catalog": cname})
         for cname, lat in catalog)))
    return failure or Report(name, instances, VERIFIED, {
        "posets_enumerated": sweep.posets_seen,
        "modular_lattices": len(sweep.modular),
        "catalog": [cname for cname, _ in catalog],
        "extensions_checked": instances,
    })


def criterion_dilworth(max_n: int) -> Report:
    """Lower and upper cover-count multisets agree on every modular lattice."""
    name = "cover-count-multisets"
    lattices = lattice_sweep(max_n).modular + [
        lat for _, lat in lattice_catalog() if posets.is_modular(lat)]
    instances, failure = _first_failure(name, (
        (posets.verify_dilworth(lat), {"covers": lat.poset.cover_pairs()})
        for lat in lattices))
    return failure or Report(name, instances, VERIFIED, {"modular_lattices": len(lattices)})


def criterion_rowmotion(max_n: int, catalog_cap: int) -> Report:
    """Echelonmotion equals distributive rowmotion for every extension of
    every distributive lattice in the sweep, one walk per isomorphism class,
    and the catalog; identical maps across extensions give echelon
    independence as a corollary."""
    name = "echelon-equals-rowmotion"
    sweep = lattice_sweep(max_n)
    catalog = [(cname, lat) for cname, lat in lattice_catalog() if posets.is_distributive(lat)]
    instances, failure = _first_failure(name, itertools.chain(
        ((r, {"source": "sweep", "covers": lat.poset.cover_pairs()})
         for lat, r in zip(sweep.distributive, _class_reports(
             posets.verify_rowmotion, sweep.distributive, sweep.distributive_classes))),
        ((posets.verify_rowmotion(lat, extension_cap=catalog_cap),
          {"source": cname, "covers": lat.poset.cover_pairs()})
         for cname, lat in catalog)))
    return failure or Report(name, instances, VERIFIED, {
        "distributive_lattices": len(sweep.distributive) + len(catalog),
        "pairs_checked": instances,
    })


def criterion_bruhat(max_n: int, perturbations: int, seed: int = 0) -> Report:
    """bruhat is the identity on permutation matrices and constant on
    B-double-cosets: unit upper-triangular multiplication on either side
    of a catalog Cartan matrix never moves the permutation."""
    name = "bruhat-well-defined"
    instances = 0
    for n in range(1, max_n + 1):
        for perm in itertools.permutations(range(1, n + 1)):
            w = Permutation(perm)
            got = posets.bruhat_permutation(w.to_matrix())
            instances += 1
            if got != w:
                return Report(name, instances, COUNTEREXAMPLE,
                              {"permutation": list(perm), "got": list(got.one_line)})
    rng = random.Random(seed)
    for cname, lat in lattice_catalog():
        ext = next(posets.linear_extensions(lat.poset))
        w_matrix = posets.cartan_matrix(lat.poset, ext)
        base = posets.bruhat_permutation(w_matrix)
        for _ in range(perturbations):
            u1 = random_unit_upper_triangular(lat.n, rng)
            u2 = random_unit_upper_triangular(lat.n, rng)
            got = posets.bruhat_permutation(u1 @ w_matrix @ u2)
            instances += 1
            if got != base:
                return Report(name, instances, COUNTEREXAMPLE, {
                    "catalog": cname,
                    "u1": [list(r) for r in u1.entries],
                    "u2": [list(r) for r in u2.entries],
                    "expected": list(base.one_line),
                    "got": list(got.one_line),
                })
    return Report(name, instances, VERIFIED,
                  {"seed": seed, "perturbations_per_matrix": perturbations})


WORKED_CONTENT = (1, 1, 2, 4, 5, 6)
WORKED_ROOKS = frozenset({(1, 3), (2, 6), (4, 5)})
WORKED_U0 = (2, 4, 1)
WORKED_W = (6, 3, 2, 5, 4, 1)
WORKED_A = frozenset({1, 2, 4})


# pmap is accepted and not read: the benchmark still passes it (ROADMAP item 1)
def criterion_fixed_content(max_n: int, pmap=map) -> Report:
    """The fixed-content equidistribution with its fiber counts and the
    worked insertion instance, reproduced bit for bit."""
    name = "parking-fixed-content"
    instances, failure = _first_failure(name, (
        (parking.verify_fixed_content(n), {"n": n}) for n in range(1, max_n + 1)))
    if failure:
        return failure
    w, a_set = parking.insert_forward(WORKED_CONTENT, WORKED_ROOKS, WORKED_U0)
    replay_ok = (
        w.one_line == WORKED_W
        and a_set == WORKED_A
        and parking.phi(WORKED_CONTENT, w, a_set) == WORKED_ROOKS
        and parking.insert_inverse(WORKED_CONTENT, WORKED_ROOKS, w, a_set) == WORKED_U0
    )
    instances += 1
    if not replay_ok:
        return Report(name, instances, COUNTEREXAMPLE, {
            "defect": "worked instance",
            "b": list(WORKED_CONTENT),
            "got_w": list(w.one_line),
            "got_A": sorted(a_set),
        })
    return Report(name, instances, VERIFIED,
                  {"max_n": max_n, "contents_checked": instances - 1})


def criterion_excedance(max_n: int) -> Report:
    """Excedance and outcome-descent parking polynomials coincide."""
    name = "parking-exced-vs-outcome-descents"
    instances = 0
    for n in range(1, max_n + 1):
        by_exc = genfun.parking_poly(n, "exced")
        by_des = genfun.parking_poly(n, "des-oc")
        count = (n + 1) ** (n - 1)
        if by_exc != by_des or by_exc.eval_at(1, 1) != count:
            return Report(name, instances, COUNTEREXAMPLE, {
                "n": n,
                "exced_side": by_exc.to_json_terms(),
                "descent_side": by_des.to_json_terms(),
            })
        instances += count
    return Report(name, instances, VERIFIED, {"max_n": max_n})


def criterion_tree_polys(trees_n: int, parking_n: int) -> Report:
    """Tree-inversion polynomials: direct sum equals the recurrence, equals
    the parking sum with inverse-outcome descents, with the q-side cosum
    specialization and the point count (n+1)^(n-1)."""
    name = "tree-inversion-identities"
    instances = 0
    for n in range(1, trees_n + 1):
        direct = genfun.tree_poly(n, "trees")
        rec = genfun.tree_poly(n, "recurrence")
        if direct != rec:
            return Report(name, instances, COUNTEREXAMPLE, {
                "n": n, "defect": "direct vs recurrence",
                "direct": direct.to_json_terms(), "recurrence": rec.to_json_terms()})
        if direct.eval_at(1, 1) != (n + 1) ** (n - 1):
            return Report(name, instances, COUNTEREXAMPLE, {
                "n": n, "defect": "tree count", "value": direct.eval_at(1, 1)})
        instances += 1
        if n <= parking_n:
            by_parking = genfun.parking_poly(n, "des-oc-inv")
            if direct != by_parking:
                return Report(name, instances, COUNTEREXAMPLE, {
                    "n": n, "defect": "trees vs parking",
                    "trees": direct.to_json_terms(),
                    "parking": by_parking.to_json_terms()})
            instances += 1
        # Kreweras: the q-side alone is the cosum enumerator
        if n <= genfun.PARKING_SWEEP_LIMIT:
            if direct.subs_t(1) != genfun.parking_poly(n, "exced").subs_t(1):
                return Report(name, instances, COUNTEREXAMPLE, {
                    "n": n, "defect": "cosum specialization"})
            instances += 1
    return Report(name, instances, VERIFIED,
                  {"trees_n": trees_n, "parking_n": parking_n})


# pmap is accepted and not read: the benchmark still passes it (ROADMAP item 1)
def criterion_simsun(max_n: int, pmap=map) -> Report:
    """The q = -1 specialization against simsun descent enumerators."""
    return genfun.verify_simsun_identity(max_n)


def criterion_alternating(max_n: int) -> Report:
    """The q = -1 parking specialization against the zig-zag Eulerian
    polynomial, with every intermediate class identity."""
    name = "parking-minus-one-is-zigzag"
    instances, failure = _first_failure(name, (
        (genfun.verify_alternating_identity(n), {"n": n}) for n in range(2, max_n + 1)))
    return failure or Report(name, instances, VERIFIED, {"max_n": max_n})


GREENE_ORACLE_LEN = 4


def criterion_greene(max_len: int, alphabet: int) -> Report:
    """Greene invariants of every short word equal shape partial sums.

    For k beyond the word length both sides are frozen at the length, so
    checking k up to length + 1 decides all k.  The invariants come from
    the forward chain DP over the word trie; on words of length at most
    GREENE_ORACLE_LEN they must also equal ``greene_oracle``.
    """
    name = "greene-invariants"
    instances = 0
    for w, inc, dec in plactic.greene_sweep(alphabet, max_len):
        t = plactic.rsk_P(w)
        lam = t.shape()
        conj = t.conjugate_shape()
        if sum(lam) != len(w):
            return Report(name, instances, COUNTEREXAMPLE, {
                "word": list(w), "defect": "shape size", "shape": list(lam)})
        for k in range(1, len(w) + 2):
            instances += 2
            if inc[k - 1] != sum(lam[:k]) or dec[k - 1] != sum(conj[:k]):
                return Report(name, instances, COUNTEREXAMPLE, {
                    "word": list(w), "k": k,
                    "increasing": inc[k - 1], "decreasing": dec[k - 1],
                    "shape": list(lam)})
            if len(w) <= GREENE_ORACLE_LEN:
                oracle = [plactic.greene_oracle(w, k, "increasing"),
                          plactic.greene_oracle(w, k, "decreasing")]
                if oracle != [inc[k - 1], dec[k - 1]]:
                    return Report(name, instances, COUNTEREXAMPLE, {
                        "word": list(w), "k": k, "defect": "trie vs oracle",
                        "increasing": inc[k - 1], "decreasing": dec[k - 1],
                        "oracle": oracle})
    return Report(name, instances, VERIFIED,
                  {"alphabet": alphabet, "max_len": max_len})


def _words_over(alphabet: int, max_len: int) -> list[tuple[int, ...]]:
    out = []
    for length in range(1, max_len + 1):
        out.extend(itertools.product(range(1, alphabet + 1), repeat=length))
    return out


# pmap is accepted and not read: the benchmark still passes it (ROADMAP item 1)
def criterion_first_rows(length_cap: int, pmap=map) -> Report:
    """First-rows bound and the no-bump property over the two u families."""
    name = "centralizer-first-rows"
    u_list = _words_over(2, 4) + _words_over(3, 3)
    # one search per alphabet cap max(u) + 2; the checks take what it found
    found = {}
    for cap in sorted({max(u) + 2 for u in u_list}):
        us = [u for u in u_list if max(u) + 2 == cap]
        found.update(zip(us, plactic.centralizer_searches(us, cap, length_cap)))
    instances, failure = _first_failure(name, (
        (plactic.first_rows_report(found[u]), {}) for u in u_list))
    return failure or Report(name, instances, VERIFIED,
                             {"u_count": len(u_list), "length_cap": length_cap})


# pmap is accepted and not read: the benchmark still passes it (ROADMAP item 1)
def criterion_reverse_complement(u_len_cap: int, length_cap: int, pmap=map) -> Report:
    """Threshold evacuation between restricted centralizer tableau sets."""
    name = "centralizer-reverse-complement"
    checks = []
    for m in range(1, 4):
        # one search per threshold: the words over [m] are closed under reverse complement
        us = _words_over(m, u_len_cap)
        found = dict(zip(us, plactic.centralizer_searches(us, m + 2, length_cap)))
        checks += [(plactic.rc_report(m, found[u], found[plactic.reverse_complement(u, m)]),
                    {"m": m}) for u in us]
    instances, failure = _first_failure(name, checks)
    return failure or Report(name, instances, VERIFIED,
                             {"pairs": len(checks), "length_cap": length_cap})


def _determinism_probe(seed: int) -> str:
    reports = [
        criterion_bruhat(max_n=4, perturbations=20, seed=seed),
        criterion_fixed_content(max_n=3),
        criterion_alternating(max_n=4),
        criterion_greene(max_len=3, alphabet=3),
        criterion_reverse_complement(u_len_cap=2, length_cap=4),
    ]
    return reports_to_json(reports)


def criterion_determinism(seed: int = 0) -> Report:
    """Two runs of a seeded probe battery must serialize byte-identically."""
    name = "report-determinism"
    first = _determinism_probe(seed)
    second = _determinism_probe(seed)
    if first != second:
        return Report(name, 2, COUNTEREXAMPLE, {"seed": seed,
                      "first_bytes": len(first), "second_bytes": len(second)})
    return Report(name, 2, VERIFIED, {"seed": seed, "report_bytes": len(first)})


class Criterion(NamedTuple):
    """One row of the battery: a checker and its caps in both tiers."""

    check: Callable[..., Report]
    full: dict
    quick: dict
    seeded: bool = False  # whether the checker is given the battery's seed

    def kwargs(self, quick: bool, seed: int) -> dict:
        caps = self.quick if quick else self.full
        return {**caps, "seed": seed} if self.seeded else caps


# The quick tier lowers every size cap by one and the catalog extension cap
# tenfold; it exists for smoke runs, not for acceptance.
BATTERY: tuple[Criterion, ...] = (
    Criterion(criterion_echelon, {"max_n": 6, "catalog_cap": 100_000},
              {"max_n": 5, "catalog_cap": 10_000}),
    Criterion(criterion_dilworth, {"max_n": 6}, {"max_n": 5}),
    Criterion(criterion_rowmotion, {"max_n": 6, "catalog_cap": 100_000},
              {"max_n": 5, "catalog_cap": 10_000}),
    Criterion(criterion_bruhat, {"max_n": 6, "perturbations": 100},
              {"max_n": 5, "perturbations": 100}, seeded=True),
    Criterion(criterion_fixed_content, {"max_n": 6}, {"max_n": 5}),
    Criterion(criterion_excedance, {"max_n": 7}, {"max_n": 6}),
    Criterion(criterion_tree_polys, {"trees_n": 7, "parking_n": 6},
              {"trees_n": 6, "parking_n": 5}),
    Criterion(criterion_simsun, {"max_n": 9}, {"max_n": 8}),
    Criterion(criterion_alternating, {"max_n": 7}, {"max_n": 6}),
    Criterion(criterion_greene, {"max_len": 7, "alphabet": 3}, {"max_len": 6, "alphabet": 3}),
    Criterion(criterion_first_rows, {"length_cap": 7}, {"length_cap": 6}),
    Criterion(criterion_reverse_complement, {"u_len_cap": 4, "length_cap": 6},
              {"u_len_cap": 3, "length_cap": 5}),
    Criterion(criterion_determinism, {}, {}, seeded=True),
)

# Consecutive BATTERY rows, by index, that run in one process because they
# share a process-lifetime cache: lattice_sweep (rows 0-2) and
# _parking_sweep with genfun's lru_caches (5-8).  The parking sweep is a
# dynamic program that costs about 0.05 s, so splitting rows 5-8 would lose
# little; no benchmark workload runs --workers 2 to show it would gain.
# Rows 10 and 11 keep their centralizer searches only while they run, so
# they share nothing and run apart.
BLOCKS: tuple[tuple[int, ...], ...] = ((0, 1, 2), (3,), (4,), (5, 6, 7, 8), (9,), (10,), (11,), (12,))


def _run_block(rows: tuple[int, ...], quick: bool, seed: int) -> list[Report]:
    return [BATTERY[i].check(**BATTERY[i].kwargs(quick, seed)) for i in rows]


def run_battery(quick: bool = False, seed: int = 0, workers: int = 1) -> list[Report]:
    """All thirteen criteria of BATTERY, in its order, at one tier.

    The BLOCKS run in up to ``workers`` processes; with one worker they run
    in this process, one after another.
    """
    blocks = parallel_map(partial(_run_block, quick=quick, seed=seed), BLOCKS, workers)
    return [r for reports in blocks for r in reports]
