"""Which exactcomb calls the traced run wraps, and the per-layer metrics.

Every layer is measured from outside: the wrappers sit on public
functions (plus the ``@`` operator of ``IntMatrix``) and are installed on
the defining module and on every ``from ... import`` binding of it.
Nothing under ``src/`` is changed.

``PER_LAYER`` is the single list of per-layer metrics.  Each entry names
the end-to-end metric and workloads it should move; ``BENCHMARK.json``
repeats the names, units and directions, and the self-test checks that
the two agree.
"""

from __future__ import annotations

from functools import cache
from math import prod

from tracing import Tracer, percentile, rebind

THEOREMS = (
    "echelon-cover-transfer", "cover-count-multisets", "echelon-equals-rowmotion",
    "bruhat-well-defined", "parking-fixed-content", "parking-exced-vs-outcome-descents",
    "tree-inversion-identities", "tree-minus-one-is-simsun", "parking-minus-one-is-zigzag",
    "greene-invariants", "centralizer-first-rows", "centralizer-reverse-complement",
    "report-determinism",
)

_LS, _WP, _SQ = "lattice-sweep", "word-parking-sweep", "single-queries"


def _m(name, unit, better, moves):
    return {"name": name, "unit": unit, "better": better, "moves": moves}


PER_LAYER = (
    [m for t in THEOREMS for m in (
        _m(f"acceptance.{t}.s", "s", "lower", f"wall_ref_s on the sweep holding {t}"),
        _m(f"acceptance.{t}.instances_per_s", "1/s", "higher",
           f"wall_ref_s on the sweep holding {t}"))]
    + [
        _m("acceptance.lattice_sweep.s", "s", "lower", f"wall_ref_s on {_LS}"),
        _m("posets.verify_echelon_theorem.s", "s", "lower", f"wall_ref_s on {_LS}"),
        _m("posets.verify_echelon_theorem.extensions_per_s", "1/s", "higher", f"wall_ref_s on {_LS}"),
        _m("posets.build_lattice.s", "s", "lower", f"wall_ref_s on {_LS}"),
        _m("posets.is_modular.s", "s", "lower", f"wall_ref_s on {_LS}"),
        _m("posets.linear_extensions.yielded", "count", "lower", f"wall_ref_s on {_LS}"),
    ]
    + [m for k in ("echelonmotion", "bruhat_permutation", "rowmotion_distributive")
       for m in (
           _m(f"posets.{k}.calls", "count", "lower", f"wall_ref_s on {_LS} and {_SQ}"),
           _m(f"posets.{k}.self_s", "s", "lower", f"wall_ref_s on {_LS} and {_SQ}"),
           _m(f"posets.{k}.p50_us", "us", "lower", f"wall_ref_s on {_LS} and {_SQ}"),
           _m(f"posets.{k}.p99_us", "us", "lower", f"wall_ref_s on {_LS} and {_SQ}"))]
    + [
        _m("core.IntMatrix.__matmul__.self_s", "s", "lower", f"wall_ref_s on {_LS} and {_SQ}"),
        _m("core.int_matrix_rank.calls", "count", "lower", f"wall_ref_s on {_LS} and {_SQ}"),
        _m("parking.is_parking_function.calls", "count", "lower", f"wall_ref_s on {_WP}"),
        _m("parking.accept_ratio", "ratio", "higher", f"wall_ref_s on {_WP}"),
    ]
    + [m for k in ("park", "parking_stats") for m in (
        _m(f"parking.{k}.calls", "count", "lower", f"wall_ref_s on {_WP} and {_SQ}"),
        _m(f"parking.{k}.self_s", "s", "lower", f"wall_ref_s on {_WP} and {_SQ}"),
        _m(f"parking.{k}.p50_us", "us", "lower", f"wall_ref_s on {_WP} and {_SQ}"))]
    + [
        _m("parking.verify_fixed_content.s", "s", "lower", f"wall_ref_s on {_WP}"),
        _m("parking.insert_forward.self_s", "s", "lower", f"wall_ref_s on {_WP} and {_SQ}"),
        _m("parking.insert_inverse.self_s", "s", "lower", f"wall_ref_s on {_WP} and {_SQ}"),
        _m("genfun.parking_poly.s", "s", "lower", f"wall_ref_s on {_WP}"),
        _m("genfun.tree_poly.s", "s", "lower", f"wall_ref_s on {_WP} and {_SQ}"),
        _m("genfun.verify_simsun_identity.s", "s", "lower", f"wall_ref_s on {_WP}"),
        _m("genfun.verify_alternating_identity.s", "s", "lower", f"wall_ref_s on {_WP}"),
        _m("genfun.cache_hits", "count", "higher", f"wall_ref_s and peak_rss_mib on {_WP}"),
        _m("genfun.cache_misses", "count", "lower", f"wall_ref_s and peak_rss_mib on {_WP}"),
        _m("plactic.rsk_P.calls", "count", "lower", f"wall_ref_s on {_WP} and {_SQ}"),
        _m("plactic.rsk_P.self_s", "s", "lower", f"wall_ref_s on {_WP} and {_SQ}"),
        _m("plactic.rsk_P.p50_us", "us", "lower", f"wall_ref_s on {_WP} and {_SQ}"),
        _m("plactic.greene_oracle.calls", "count", "lower", f"wall_ref_s on {_WP} and {_SQ}"),
        _m("plactic.greene_oracle.self_s", "s", "lower", f"wall_ref_s on {_WP} and {_SQ}"),
        _m("plactic.greene_oracle.p50_us", "us", "lower", f"wall_ref_s on {_WP} and {_SQ}"),
        _m("plactic.greene_oracle.p99_us", "us", "lower", f"wall_ref_s on {_WP} and {_SQ}"),
        _m("plactic.centralizer_search.calls", "count", "lower", f"wall_ref_s on {_WP} and {_SQ}"),
        _m("plactic.centralizer_search.s", "s", "lower", f"wall_ref_s on {_WP} and {_SQ}"),
        _m("plactic.centralizer.member_ratio", "ratio", "higher", f"wall_ref_s on {_WP} and {_SQ}"),
        _m("plactic.tau.self_s", "s", "lower", f"wall_ref_s on {_WP}"),
        _m("plactic.knuth_classes.cache_hits", "count", "higher",
           f"wall_ref_s and peak_rss_mib on {_WP}"),
        _m("plactic.knuth_classes.cache_misses", "count", "lower",
           f"wall_ref_s and peak_rss_mib on {_WP}"),
        _m("report.reports_to_json.s", "s", "lower", f"wall_ref_s on {_WP}"),
        _m("process.wall_s", "s", "lower", "wall_ref_s on every workload, with the machine's speed"),
        _m("process.cpu_s", "s", "lower", "wall_ref_s on every workload"),
        _m("process.speed_probe_us", "us", "lower", "nothing; the machine's speed during the run"),
        _m("trace.overhead_ratio", "ratio", "lower", "nothing; the cost of tracing itself"),
    ]
)

NAMES = {m["name"] for m in PER_LAYER}

# (module, function) pairs that get a span; each also gets .calls/.s/.self_s/pNN
SPANNED = (
    ("posets", "verify_echelon_theorem"), ("posets", "build_lattice"),
    ("posets", "is_modular"), ("posets", "echelonmotion"),
    ("posets", "bruhat_permutation"), ("posets", "rowmotion_distributive"),
    ("parking", "park"), ("parking", "parking_stats"), ("parking", "verify_fixed_content"),
    ("parking", "insert_forward"), ("parking", "insert_inverse"),
    ("genfun", "parking_poly"), ("genfun", "tree_poly"),
    ("genfun", "verify_simsun_identity"), ("genfun", "verify_alternating_identity"),
    ("plactic", "rsk_P"), ("plactic", "greene_oracle"), ("plactic", "centralizer_search"),
    ("plactic", "tau"), ("report", "reports_to_json"),
)


@cache
def ssyt_count(alphabet: int, max_size: int) -> int:
    """Semistandard tableaux with entries at most ``alphabet`` and at most
    ``max_size`` cells, the empty one included, by the hook-content formula.

    This is the number of Knuth classes a centralizer search compares.
    """
    def partitions(n, largest):
        if n == 0:
            yield ()
            return
        for part in range(min(n, largest), 0, -1):
            for rest in partitions(n - part, part):
                yield (part,) + rest

    total = 0
    for size in range(max_size + 1):
        for lam in partitions(size, size):
            if len(lam) > alphabet:
                continue
            conj = [sum(1 for r in lam if r > c) for c in range(lam[0])] if lam else []
            cells = [(i, j) for i, r in enumerate(lam) for j in range(r)]
            num = prod(alphabet + j - i for i, j in cells)
            den = prod(lam[i] - j + conj[j] - i - 1 for i, j in cells)
            total += num // den
    return total


def install(tracer: Tracer) -> None:
    """Wrap the measured calls of an already imported exactcomb."""
    import importlib

    from exactcomb import core, parking, posets

    counts = tracer.counts

    def echelon_extensions(report):
        counts["posets.verify_echelon_theorem.extensions"] += report.instances

    def centralizer_sizes(found):
        counts["plactic.centralizer.members"] += len(found.members)
        counts["plactic.centralizer.classes"] += ssyt_count(found.alphabet_cap, found.length_cap)

    hooks = {"verify_echelon_theorem": echelon_extensions,
             "centralizer_search": centralizer_sizes}
    for modname, fname in SPANNED:
        module = importlib.import_module(f"exactcomb.{modname}")
        original = getattr(module, fname)
        rebind(original, tracer.spanned(f"{modname}.{fname}", original, hooks.get(fname)))

    matmul = core.IntMatrix.__matmul__
    core.IntMatrix.__matmul__ = tracer.spanned("core.IntMatrix.__matmul__", matmul)
    rebind(core.int_matrix_rank, tracer.counted("core.int_matrix_rank", core.int_matrix_rank))
    rebind(parking.is_parking_function,
           tracer.counted("parking.is_parking_function", parking.is_parking_function,
                          count_true=True))
    rebind(posets.linear_extensions,
           tracer.counted_yields("posets.linear_extensions", posets.linear_extensions))


def _cache_totals(module) -> tuple[int, int]:
    hits = misses = 0
    for value in vars(module).values():
        info = getattr(value, "cache_info", None)
        if callable(info) and getattr(value, "__module__", None) == module.__name__:
            ci = info()
            hits += ci.hits
            misses += ci.misses
    return hits, misses


def acceptance_values(ops: list[dict], steps: dict[str, float]) -> dict[str, float]:
    """Per-criterion time and throughput from a worker's operation timers.

    The timers are cheap, so the caller takes them from the untraced worker.
    """
    values = {}
    for rec in ops:
        if rec["name"] in THEOREMS:
            values[f"acceptance.{rec['name']}.s"] = rec["s"]
            values[f"acceptance.{rec['name']}.instances_per_s"] = (
                rec["instances"] / rec["s"] if rec["s"] > 0 else 0.0)
    if "lattice_sweep" in steps:
        values["acceptance.lattice_sweep.s"] = steps["lattice_sweep"]
    return values


def derive(tracer: Tracer) -> dict[str, float]:
    """The kernel-level metrics of one traced worker."""
    from exactcomb import genfun, plactic

    values = {}
    spans = tracer.per_name()
    for name, rec in spans.items():
        for field, value in (("calls", rec["calls"]), ("s", rec["s"]),
                             ("self_s", rec["self_s"]),
                             ("p50_us", percentile(rec["durations"], 0.50) * 1e6),
                             ("p99_us", percentile(rec["durations"], 0.99) * 1e6)):
            key = f"{name}.{field}"
            if key in NAMES:
                values[key] = value

    c = tracer.counts
    ech_s = spans.get("posets.verify_echelon_theorem", {}).get("s", 0.0)
    if ech_s > 0:
        values["posets.verify_echelon_theorem.extensions_per_s"] = (
            c["posets.verify_echelon_theorem.extensions"] / ech_s)
    values["posets.linear_extensions.yielded"] = c["posets.linear_extensions"]
    values["core.int_matrix_rank.calls"] = c["core.int_matrix_rank"]
    calls = c["parking.is_parking_function"]
    values["parking.is_parking_function.calls"] = calls
    if calls:
        values["parking.accept_ratio"] = c["parking.is_parking_function.true"] / calls
    if c["plactic.centralizer.classes"]:
        values["plactic.centralizer.member_ratio"] = (
            c["plactic.centralizer.members"] / c["plactic.centralizer.classes"])

    values["genfun.cache_hits"], values["genfun.cache_misses"] = _cache_totals(genfun)
    knuth = getattr(plactic, "_knuth_classes", None)
    if knuth is not None and hasattr(knuth, "cache_info"):
        ci = knuth.cache_info()
        values["plactic.knuth_classes.cache_hits"] = ci.hits
        values["plactic.knuth_classes.cache_misses"] = ci.misses
    return values
