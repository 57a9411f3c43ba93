"""The three workloads: their operations, inputs and correctness checks.

An operation is one acceptance criterion in the two sweeps and one query
in ``single-queries``.  Each operation returns the number of instances it
covered and raises ``CheckFailed`` (or anything else) when its output is
wrong; the worker times it and counts the failure without stopping.

The sweeps call the criteria with every cap pinned to the full-tier value
of ``run_battery``, in battery order, so ``lattice-sweep`` followed by
``word-parking-sweep`` is exactly ``exactcomb verify all``.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left, bisect_right
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 0

LATTICE_SWEEP = "lattice-sweep"
WORD_PARKING_SWEEP = "word-parking-sweep"
SINGLE_QUERIES = "single-queries"
WORKLOADS = (LATTICE_SWEEP, WORD_PARKING_SWEEP, SINGLE_QUERIES)
SWEEPS = (LATTICE_SWEEP, WORD_PARKING_SWEEP)


class CheckFailed(AssertionError):
    """An operation produced output that differs from what it must be."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# -- sweeps -------------------------------------------------------------------


def sweep_criteria(workload: str, seed: int) -> list[tuple[str, object]]:
    """(theorem, zero-argument call) pairs of one sweep, in battery order."""
    from exactcomb import acceptance as A

    if workload == LATTICE_SWEEP:
        return [
            ("echelon-cover-transfer",
             lambda: A.criterion_echelon(max_n=6, catalog_cap=100_000)),
            ("cover-count-multisets", lambda: A.criterion_dilworth(max_n=6)),
            ("echelon-equals-rowmotion",
             lambda: A.criterion_rowmotion(max_n=6, catalog_cap=100_000)),
            ("bruhat-well-defined",
             lambda: A.criterion_bruhat(max_n=6, perturbations=100, seed=seed)),
        ]
    if workload == WORD_PARKING_SWEEP:
        return [
            ("parking-fixed-content", lambda: A.criterion_fixed_content(max_n=6, pmap=map)),
            ("parking-exced-vs-outcome-descents", lambda: A.criterion_excedance(max_n=7)),
            ("tree-inversion-identities",
             lambda: A.criterion_tree_polys(trees_n=7, parking_n=6)),
            ("tree-minus-one-is-simsun", lambda: A.criterion_simsun(max_n=9, pmap=map)),
            ("parking-minus-one-is-zigzag", lambda: A.criterion_alternating(max_n=7)),
            ("greene-invariants", lambda: A.criterion_greene(max_len=7, alphabet=3)),
            ("centralizer-first-rows",
             lambda: A.criterion_first_rows(length_cap=7, pmap=map)),
            ("centralizer-reverse-complement",
             lambda: A.criterion_reverse_complement(u_len_cap=4, length_cap=6, pmap=map)),
            ("report-determinism", lambda: A.criterion_determinism(seed=seed)),
        ]
    raise ValueError(f"{workload} is not a sweep")


def report_element(report) -> str:
    """One report exactly as ``reports_to_json`` writes it inside the list."""
    return json.dumps(report.to_json_obj(), sort_keys=True, separators=(",", ":"))


def reference_slice(workload: str) -> str:
    """The bytes of ``run_battery(seed=0)`` that belong to one sweep.

    ``lattice-sweep.ref`` holds the opening bracket and the first four
    reports with their trailing comma; ``word-parking-sweep.ref`` holds the
    other nine and the closing bracket and newline.  Concatenated in that
    order they are the battery output byte for byte.
    """
    return (REFERENCE_DIR / f"{workload}.ref").read_text(encoding="utf-8")


def reference_objects(workload: str) -> list[dict]:
    text = reference_slice(workload)
    if workload == LATTICE_SWEEP:
        return json.loads(text[:-1] + "]")
    return json.loads("[" + text)


def expected_elements(workload: str, seed: int) -> dict[str, str]:
    """theorem -> expected report bytes for this seed.

    The seed reaches the report only in two witnesses: the Bruhat report
    and the determinism probe echo it, and the probe's byte count grows
    with the width of the seed's decimal form.
    """
    out = {}
    for obj in reference_objects(workload):
        witness = obj["witness"]
        if obj["theorem"] in ("bruhat-well-defined", "report-determinism"):
            witness["seed"] = seed
        if obj["theorem"] == "report-determinism":
            witness["report_bytes"] += len(str(seed)) - len(str(REFERENCE_SEED))
        out[obj["theorem"]] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return out


def sweep_ops(workload: str, seed: int) -> list[tuple[str, object]]:
    """Sweep operations: each runs one criterion and compares its report bytes."""
    expected = expected_elements(workload, seed)
    ops = []
    for theorem, call in sweep_criteria(workload, seed):
        def op(theorem=theorem, call=call):
            report = call()
            got = report_element(report)
            _require(report.status == "verified", f"status {report.status}")
            _require(got == expected[theorem],
                     f"report differs from the reference: {got[:200]}")
            return report.instances
        ops.append((theorem, op))
    return ops


# -- single queries -------------------------------------------------------------
#
# Instances are drawn from the seed at sizes the sweeps never reach.  Sizes
# follow fixed schedules and only the contents are random, so every seed
# asks for about the same amount of work.

RSK_WORDS, RSK_LENGTH, RSK_ALPHABET = 120, 200, 20
GREENE_WORDS, GREENE_LENGTH, GREENE_ALPHABET, GREENE_K = 90, 12, 6, 4
PARKING_QUERIES, PARKING_N = 100, 300
INSERT_QUERIES, INSERT_SIZES = 200, (8, 9, 10, 11, 12)
BRUHAT_SIZES = tuple(range(16, 33)) * 3
CHAIN_PRODUCTS = ((2, 2), (2, 3), (3, 3), (2, 5), (3, 4), (4, 4), (3, 6),
                  (4, 5), (5, 5), (4, 6), (5, 6), (4, 8), (5, 7), (5, 8))
CHAIN_EXTENSIONS = 6
IDEAL_POSETS, IDEAL_SIZES, IDEAL_DENSITY = 80, (3, 4, 5, 6), 0.3
GF2_EXTENSIONS = 24
DIAMONDS, DIAMOND_EXTENSIONS = (3, 4, 5, 6, 7, 8), 6
FIRST_ROWS_U = ((2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5))  # (largest letter, length) of u
FIRST_ROWS_LENGTH_CAP = 6
TREE_MAX_N = 20


def _lis_weak(word) -> int:
    tails: list[int] = []
    for a in word:
        j = bisect_right(tails, a)
        tails[j:j + 1] = [a]
    return len(tails)


def _lds_strict(word) -> int:
    tails: list[int] = []
    for a in word:
        j = bisect_left(tails, -a)
        tails[j:j + 1] = [-a]
    return len(tails)


def _random_parking_function(n: int, rng: random.Random) -> tuple[int, ...]:
    """Uniform parking function by Pollak's circular argument."""
    prefs = rng.choices(range(1, n + 2), k=n)
    taken = [False] * (n + 2)
    for p in prefs:
        s = p
        while taken[s]:
            s = s % (n + 1) + 1
        taken[s] = True
    empty = taken.index(False, 1)
    return tuple((p - empty - 1) % (n + 1) + 1 for p in prefs)


def _random_permutation(n: int, rng: random.Random) -> list[int]:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return perm


def _random_unit_upper(n: int, bound: int, rng: random.Random) -> list[list[int]]:
    entries = range(-bound, bound + 1)
    return [[0] * i + [1] + rng.choices(entries, k=n - i - 1) for i in range(n)]


def _random_extension(poset, rng: random.Random) -> list[int]:
    """A linear extension grown by adding a random minimal remaining element."""
    order, placed = [], 0
    while len(order) < poset.n:
        ready = [x for x in range(poset.n)
                 if not placed >> x & 1 and not poset.down[x] & ~(placed | 1 << x)]
        x = rng.choice(ready)
        order.append(x)
        placed |= 1 << x
    return order


def _ideal_lattice(k: int, rng: random.Random):
    """J(P) for a random poset P on k elements, as an exactcomb Lattice."""
    from exactcomb import posets

    below = [0] * k  # strict down-sets of P, closed under transitivity
    for j in range(k):
        for i in range(j):
            if rng.random() < IDEAL_DENSITY:
                below[j] |= 1 << i | below[i]
    ideals = sorted((s for s in range(1 << k)
                     if all(below[x] & ~s == 0 for x in range(k) if s >> x & 1)),
                    key=lambda s: (s.bit_count(), s))
    up = [sum(1 << j for j, t in enumerate(ideals) if s & ~t == 0) for s in ideals]
    return posets.build_lattice(posets.Poset(len(ideals), up))


def _cover_counts(poset) -> tuple[list[int], list[int]]:
    return ([m.bit_count() for m in poset.covers_down()],
            [m.bit_count() for m in poset.covers_up()])


def query_ops(seed: int) -> list[tuple[str, object]]:
    """Seeded single queries; building their inputs is set-up, not measured."""
    from exactcomb import genfun, parking, plactic, posets
    from exactcomb.core import IntMatrix, Permutation

    rng = random.Random(seed)
    ops: list[tuple[str, object]] = []

    for i in range(RSK_WORDS):
        w = tuple(rng.choices(range(1, RSK_ALPHABET + 1), k=RSK_LENGTH))

        def op(w=w, m=RSK_ALPHABET):
            t = plactic.rsk_P(w)
            shape = t.shape()
            _require(sum(shape) == len(w), "shape size")
            _require(shape[0] == _lis_weak(w), "first row is not the longest weak increase")
            _require(len(shape) == _lds_strict(w), "column is not the longest strict decrease")
            e = plactic.evacuation(t, m)
            rc = tuple(m + 1 - a for a in reversed(w))
            _require(e == plactic.rsk_P(rc), "evacuation is not P of the reverse complement")
            _require(plactic.evacuation(e, m) == t, "evacuation is not an involution")
            return 1
        ops.append((f"rsk-evacuation#{i}", op))

    for i in range(GREENE_WORDS):
        w = tuple(rng.choices(range(1, GREENE_ALPHABET + 1), k=GREENE_LENGTH))

        def op(w=w):
            t = plactic.rsk_P(w)
            lam, conj = t.shape(), t.conjugate_shape()
            for k in range(1, GREENE_K + 1):
                inc = plactic.greene_oracle(w, k, "increasing")
                dec = plactic.greene_oracle(w, k, "decreasing")
                _require(inc == sum(lam[:k]), f"increasing k={k}: {inc} vs {lam}")
                _require(dec == sum(conj[:k]), f"decreasing k={k}: {dec} vs {conj}")
            return 2 * GREENE_K
        ops.append((f"greene#{i}", op))

    for i in range(PARKING_QUERIES):
        prefs = _random_parking_function(PARKING_N, rng)

        def op(prefs=prefs):
            n = len(prefs)
            spots = parking.park(prefs).one_line
            arrival = [0] * (n + 1)
            for car, s in enumerate(spots, start=1):
                arrival[s] = car
            for car, (p, s) in enumerate(zip(prefs, spots), start=1):
                _require(s >= p, f"car {car} parked before its preference")
                _require(all(arrival[t] < car for t in range(p, s)),
                         f"car {car} passed a free spot")
            stats = parking.parking_stats(prefs)
            _require(stats.cosum == n * (n + 1) // 2 - sum(prefs), "cosum")
            _require(stats.cosum == sum(s - p for p, s in zip(prefs, spots)),
                     "cosum is not the total displacement")
            _require(stats.exced == sum(1 for j, p in enumerate(prefs, start=1) if p > j),
                     "excedance count")
            return 1
        ops.append((f"park#{i}", op))

    for i in range(INSERT_QUERIES):
        n = INSERT_SIZES[i % len(INSERT_SIZES)]
        b = tuple(sorted(_random_parking_function(n, rng)))
        w = Permutation(_random_permutation(n, rng))
        sigma = parking.park(b[v - 1] for v in w.one_line).one_line
        descents = [j for j in range(1, n) if sigma[j - 1] > sigma[j]]
        a_set = frozenset(j for j in descents if rng.random() < 0.5)

        def op(b=b, w=w, a_set=a_set):
            rooks = parking.phi(b, w, a_set)
            u0 = parking.insert_inverse(b, rooks, w, a_set)
            w2, a2 = parking.insert_forward(b, rooks, u0)
            _require(w2 == w and a2 == a_set, "insertion round trip")
            return 1
        ops.append((f"insert-roundtrip#{i}", op))

    for i, n in enumerate(BRUHAT_SIZES):
        perm = _random_permutation(n, rng)
        left = IntMatrix(_random_unit_upper(n, n, rng))
        right = IntMatrix(_random_unit_upper(n, n, rng))
        p_matrix = Permutation(perm).to_matrix()

        def op(perm=tuple(perm), left=left, right=right, p_matrix=p_matrix):
            got = posets.bruhat_permutation(left @ p_matrix @ right)
            _require(got.one_line == perm, f"bruhat gave {got.one_line}")
            return 1
        ops.append((f"bruhat-n{n}#{i}", op))

    def rowmotion_op(lat, order):
        def op():
            em = posets.echelonmotion(lat, posets.LinearExtension(order))
            _require(em.mapping == posets.rowmotion_distributive(lat),
                     "echelonmotion differs from rowmotion")
            return 1
        return op

    def cover_transfer_op(lat, order):
        down_counts, up_counts = _cover_counts(lat.poset)

        def op():
            em = posets.echelonmotion(lat, posets.LinearExtension(order))
            _require(all(up_counts[em.mapping[x]] == down_counts[x] for x in range(lat.n)),
                     "cover counts do not transfer")
            return 1
        return op

    for a, b in CHAIN_PRODUCTS:
        lat = posets.build_lattice(posets.poset_product(posets.Poset.chain(a),
                                                        posets.Poset.chain(b)))
        for j in range(CHAIN_EXTENSIONS):
            ops.append((f"rowmotion-C{a}xC{b}#{j}",
                        rowmotion_op(lat, _random_extension(lat.poset, rng))))
    for i in range(IDEAL_POSETS):
        lat = _ideal_lattice(IDEAL_SIZES[i % len(IDEAL_SIZES)], rng)
        ops.append((f"rowmotion-ideals#{i}",
                    rowmotion_op(lat, _random_extension(lat.poset, rng))))
    gf2 = posets.subspace_lattice_gf2_dim3()
    for j in range(GF2_EXTENSIONS):
        ops.append((f"cover-transfer-GF2^3#{j}",
                    cover_transfer_op(gf2, _random_extension(gf2.poset, rng))))
    for k in DIAMONDS:
        lat = posets.diamond(k)
        for j in range(DIAMOND_EXTENSIONS):
            ops.append((f"cover-transfer-M{k}#{j}",
                        cover_transfer_op(lat, _random_extension(lat.poset, rng))))

    for m, length in FIRST_ROWS_U:
        u = [rng.randint(1, m) for _ in range(length)]
        u[rng.randrange(length)] = m

        def op(u=tuple(u)):
            r = plactic.verify_first_rows(u, length_cap=FIRST_ROWS_LENGTH_CAP, pmap=map)
            _require(r.status == "verified", f"status {r.status}")
            return r.instances
        ops.append((f"first-rows-u{''.join(map(str, u))}", op))

    for n in range(1, TREE_MAX_N + 1):
        def op(n=n):
            count = genfun.tree_poly(n, "recurrence").eval_at(1, 1)
            _require(count == (n + 1) ** (n - 1), f"{count} trees")
            return 1
        ops.append((f"tree-count-n{n}", op))

    return ops


def build_ops(workload: str, seed: int) -> list[tuple[str, object]]:
    if workload in SWEEPS:
        return sweep_ops(workload, seed)
    if workload == SINGLE_QUERIES:
        return query_ops(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")

