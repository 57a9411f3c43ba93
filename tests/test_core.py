import itertools
import random
import re
from collections import Counter

import pytest

from exactcomb import core, posets
from exactcomb.core import (
    SLOT_LIMIT,
    BiPoly,
    IntMatrix,
    PackedRows,
    Permutation,
    bareiss_step,
    as_word,
    int_matrix_rank,
    random_unit_upper_triangular,
)


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1))
    assert Permutation(()).n == 0


def test_inverse_is_involutive():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randrange(0, 9)
        vals = list(range(1, n + 1))
        rng.shuffle(vals)
        w = Permutation(vals)
        assert w.inverse().inverse() == w
        assert w.inverse().n == n


def test_descent_statistics_examples():
    # 621543: descents at 1, 2, 4 and also 5 (4 > 3)
    w = Permutation((6, 2, 1, 5, 4, 3))
    assert w.descent_set() == frozenset({1, 2, 4, 5})
    assert w.des() == 4
    ident = Permutation(range(1, 8))
    assert ident.descent_set() == frozenset()
    assert ident.des() == 0 and ident.big_descent_count() == 0
    w = Permutation((2, 1, 3))
    assert w.des() == 1
    assert w.big_descent_count() == 0  # 2 > 1 but not > 1+1


def test_descents_of_reverse_partition_positions():
    for n in range(1, 7):
        for vals in itertools.permutations(range(1, n + 1)):
            w = Permutation(vals)
            rev = Permutation(vals[::-1])
            assert w.des() + rev.des() == n - 1


def test_big_descents():
    assert Permutation((3, 1, 2)).big_descent_count() == 1
    assert Permutation((2, 1)).big_descent_count() == 0
    assert Permutation((3, 1, 4, 2)).big_descent_count() == 2


def test_word_validation():
    assert as_word([1, 2, 1]) == (1, 2, 1)
    with pytest.raises(ValueError):
        as_word([0, 1])


def _built(make, value):
    """What make(value) gives: its ints and their types, or the class and
    message of the error it raises."""
    try:
        built = make(value)
    except (TypeError, ValueError) as e:
        return type(e).__name__, str(e)
    if isinstance(built, IntMatrix):
        return built.entries, [list(map(type, row)) for row in built.entries]
    ints = built.one_line if isinstance(built, Permutation) else built
    return ints, list(map(type, ints))


@pytest.mark.parametrize("make, value, expected", [
    (as_word, (), ((), [])),
    (as_word, (True, 2.0, "3"), ((1, 2, 3), [int] * 3)),
    (as_word, (2, 0), ("ValueError", "word letters must be positive integers: (2, 0)")),
    (as_word, (-1,), ("ValueError", "word letters must be positive integers: (-1,)")),
    (as_word, ("x",), ("ValueError", "invalid literal for int() with base 10: 'x'")),
    (Permutation, (), ((), [])),
    (Permutation, ("3", True, 2.0), ((3, 1, 2), [int] * 3)),
    (Permutation, (0, 1), ("ValueError", "not a permutation of [2]: (0, 1)")),
    (Permutation, (-1, 1), ("ValueError", "not a permutation of [2]: (-1, 1)")),
    (Permutation, (True, True), ("ValueError", "not a permutation of [2]: (1, 1)")),
    (IntMatrix, (), ((), [])),
    (IntMatrix, ((),), (((),), [[]])),
    (IntMatrix, ((0, -1), (True, 2.0), ("3", -0)), (((0, -1), (1, 2), (3, 0)), [[int] * 2] * 3)),
    (IntMatrix, ((1, 2), (3,)), ("ValueError", "ragged rows in matrix")),
    (IntMatrix, ((1,), ()), ("ValueError", "ragged rows in matrix")),
    (IntMatrix, ((1,), 2), ("TypeError", "'int' object is not iterable")),
])
def test_words_permutations_and_matrices_accept_and_refuse_alike(make, value, expected):
    # the validating constructors convert with int: bools and floats of
    # integral value and numeric strings are accepted as their ints
    assert _built(make, value) == expected


# -- polynomials --------------------------------------------------------------


def test_bipoly_basic_arithmetic():
    q, t = BiPoly({(1, 0): 1}), BiPoly.t()
    assert (q + t) + (-t) == q
    assert (1 + q) * (1 + t) == 1 + q + t + q * t
    assert (t - 1) ** 2 == t * t - 2 * t + 1
    assert not q - q
    assert BiPoly() + 0 == BiPoly()


def test_bipoly_no_zero_terms_stored():
    q = BiPoly({(1, 0): 1})
    p = (q + 1) * (q - 1)  # q^2 - 1, with no q term
    assert p.sorted_terms() == ((0, 0, -1), (2, 0, 1))
    t = BiPoly.t()
    assert (q + t - q).sorted_terms() == ((0, 1, 1),)
    assert (q * t + t).subs_t(2).sorted_terms() == ((0, 0, 2), (1, 0, 2))
    assert not (1 + q).subs_q(-1) and not (q + 1).deriv_t()


def test_substitution_examples():
    p = BiPoly({(0, 0): 2, (1, 0): 1})
    assert p.subs_q(1) == 3
    assert p.subs_q(-1) == BiPoly.one()
    assert BiPoly().subs_q(17) == BiPoly()


def test_eval_agrees_with_arithmetic():
    rng = random.Random(11)
    for _ in range(40):
        a = BiPoly({(rng.randrange(4), rng.randrange(4)): rng.randint(-5, 5)
                    for _ in range(4)})
        b = BiPoly({(rng.randrange(4), rng.randrange(4)): rng.randint(-5, 5)
                    for _ in range(4)})
        q0, t0 = rng.randint(-3, 3), rng.randint(-3, 3)
        assert (a * b).eval_at(q0, t0) == a.eval_at(q0, t0) * b.eval_at(q0, t0)
        assert (a + b).eval_at(q0, t0) == a.eval_at(q0, t0) + b.eval_at(q0, t0)


def test_deriv_and_reciprocal():
    t = BiPoly.t()
    p = 1 + 3 * t + t ** 2
    assert p.deriv_t() == 3 + 2 * t
    assert p.reciprocal_t(2) == 1 + 3 * t + t ** 2  # palindromic
    r = (2 + t).reciprocal_t(1)
    assert r == 1 + 2 * t
    with pytest.raises(ValueError, match="t-degree 2 exceeds reciprocal degree 1"):
        p.reciprocal_t(1)


def test_negative_exponents_are_refused():
    with pytest.raises(ValueError, match=re.escape("negative exponent in term (-1, 0)")):
        BiPoly({(-1, 0): 1})
    with pytest.raises(ValueError, match=re.escape("negative exponent in term (0, -2)")):
        BiPoly({(0, -2): 3})


def test_json_terms_round_trip_and_order():
    p = BiPoly({(2, 1): -7, (0, 3): 5}) + 1
    items = p.to_json_terms()
    # sorted by (q, t); coefficients as decimal strings
    assert [(d["q"], d["t"]) for d in items] == sorted((d["q"], d["t"]) for d in items)
    assert all(isinstance(d["c"], str) for d in items)
    assert BiPoly({(d["q"], d["t"]): int(d["c"]) for d in items}) == p


def test_render():
    assert (1 + 4 * BiPoly.t()).render() == "1 + 4*t"
    assert BiPoly().render() == "0"


# -- matrices -----------------------------------------------------------------


def test_rank_examples():
    assert int_matrix_rank(IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3
    assert int_matrix_rank(IntMatrix([[1, 1], [1, 1]])) == 1
    assert int_matrix_rank(IntMatrix([[1, 0], [1, 1]])) == 2
    assert int_matrix_rank([]) == 0


def _first_nonzero_rank(entries):
    """Bareiss elimination with the first nonzero entry of each column as
    its pivot and a checked division after every update: the oracle of
    ``int_matrix_rank``, which prefers pivots of ±1 and skips divisions
    by ±1."""
    rows = [list(r) for r in entries]
    if not rows or not rows[0]:
        return 0
    nr, nc = len(rows), len(rows[0])
    rank, prev = 0, 1
    for col in range(nc):
        piv = next((r for r in range(rank, nr) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivot_row = rows[rank]
        pv = pivot_row[col]
        for row in rows[rank + 1:]:
            lv = row[col]
            for c in range(col + 1, nc):
                q, rem = divmod(pv * row[c] - lv * pivot_row[c], prev)
                assert not rem
                row[c] = q
            row[col] = 0
        prev = pv
        rank += 1
    return rank


def test_rank_matches_the_first_nonzero_pivot_oracle_on_seeded_matrices(monkeypatch):
    # entries in [-4, 4], some with no ±1 at all; zero columns and repeated
    # rows (also negated ones) are put in on purpose
    seen = set()

    def spy(fn, *iterables):
        last = iterables[-1]
        seen.add((fn.__name__, repr(last) if type(last).__name__ == "repeat" else type(last).__name__))
        return map(fn, *iterables)

    monkeypatch.setattr(core, "map", spy, raising=False)
    rng = random.Random(17)
    ranks = set()
    for _ in range(400):
        nr, nc = rng.randrange(1, 8), rng.randrange(1, 8)
        span = rng.choice((1, 2, 4))
        values = range(-span, span + 1) if rng.random() < 0.7 else (-4, -2, 0, 2, 4)
        rows = [[rng.choice(values) for _ in range(nc)] for _ in range(nr)]
        for _ in range(rng.randrange(3)):
            zero = rng.randrange(nc)
            for row in rows:
                row[zero] = 0
        for _ in range(rng.randrange(3)):
            rows.insert(rng.randrange(len(rows) + 1), [rng.choice((1, -1)) * x for x in rng.choice(rows)])
        rank = int_matrix_rank(rows)
        assert rank == _first_nonzero_rank(rows), rows
        assert int_matrix_rank(IntMatrix(rows)) == rank
        ranks.add(rank)
    assert ranks == set(range(8))
    # every whole-row update after a previous pivot of ±1 is reached: a
    # multiplier of +1 maps sub and one of -1 maps add over the pivot row
    # itself, any other maps sub over a scaled copy, and a scaled pivot of
    # -1 scales the row by repeat(-1)
    assert {("sub", "list"), ("add", "list"), ("sub", "map"), ("mul", "repeat(-1)")} <= seen


def test_rank_matches_the_oracle_on_every_zeta_block_of_the_gf2_walk(monkeypatch):
    # every block that criterion 1's walk of GF(2)^3 ranks at the battery cap
    blocks = []
    rank = posets.int_matrix_rank
    monkeypatch.setattr(posets, "int_matrix_rank", lambda m: blocks.append(m) or rank(m))
    report = posets.verify_echelon_theorem(posets.subspace_lattice_gf2_dim3(), 100_000)
    assert report.instances == 100_000
    assert len(blocks) == 1902
    assert [rank(m) for m in blocks] == [_first_nonzero_rank(m) for m in blocks]


def test_rank_product_bound_and_permutation_invariance():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randrange(1, 5)
        a = IntMatrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        b = IntMatrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        assert int_matrix_rank(a @ b) <= min(int_matrix_rank(a), int_matrix_rank(b))
        perm = list(range(n))
        rng.shuffle(perm)
        shuffled = IntMatrix([a.entries[i] for i in perm])
        assert int_matrix_rank(shuffled) == int_matrix_rank(a)
        cols = IntMatrix([[row[j] for j in perm] for row in a.entries])
        assert int_matrix_rank(cols) == int_matrix_rank(a)


def _naive_product(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def test_matrix_product_matches_a_triple_loop():
    # rectangular shapes, 1 x n and n x 1 among them, with negative entries;
    # the product skips the constructor's checks, so it must equal a
    # validated matrix of the same rows
    rng = random.Random(7)
    shapes = [(1, 1, 1), (1, 4, 1), (4, 1, 4), (1, 3, 5), (5, 3, 1), (2, 3, 4), (3, 5, 2)]
    shapes += [tuple(rng.randrange(1, 6) for _ in range(3)) for _ in range(20)]
    for rows, inner, cols in shapes:
        a = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(rows)]
        b = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(inner)]
        product = IntMatrix(a) @ IntMatrix(b)
        assert product == IntMatrix(_naive_product(a, b))
        assert product.entries == IntMatrix(product.entries).entries
        assert type(product.entries) is tuple
        assert all(type(row) is tuple and all(type(x) is int for x in row)
                   for row in product.entries)
        assert (product.rows, product.cols) == (rows, cols)
    # all-zero rows in the left factor give zero rows; entries beyond 2**64
    big = 2**70
    for rows, inner, cols in shapes:
        a = [[rng.choice((0, 1, -1, rng.randint(-big, big))) for _ in range(inner)]
             for _ in range(rows)]
        for i in rng.sample(range(rows), rng.randrange(rows + 1)):
            a[i] = [0] * inner
        b = [[rng.randint(-big, big) for _ in range(cols)] for _ in range(inner)]
        assert IntMatrix(a) @ IntMatrix(b) == IntMatrix(_naive_product(a, b))
    assert IntMatrix([[0, 0]]) @ IntMatrix([[1, 2, 3], [4, 5, 6]]) == IntMatrix([[0, 0, 0]])
    # the factors criterion 4 and the Bruhat queries multiply: 0/1,
    # permutation and unit upper-triangular matrices, on either side
    for n in (1, 2, 3, 5, 8, 16, 33):
        factors = [
            IntMatrix([[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]),
            Permutation(rng.sample(range(1, n + 1), n)).to_matrix(),
            random_unit_upper_triangular(n, rng),
        ]
        for a in factors:
            for b in factors:
                assert a @ b == IntMatrix(_naive_product(a.entries, b.entries)), n
    with pytest.raises(ValueError, match="shape mismatch: 2x3 @ 2x3"):
        IntMatrix([[1, 2, 3], [4, 5, 6]]) @ IntMatrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError, match="shape mismatch: 1x4 @ 1x4"):
        IntMatrix([[1, -2, 3, -4]]) @ IntMatrix([[1, 2, 3, 4]])


def test_matrix_product_is_packed_up_to_the_slot_edges_and_listed_past_them(monkeypatch):
    # a spy on the list kernel shows which path ran: packed inside the
    # slots, on lists where an entry or coefficient leaves them
    listed = []
    list_product = IntMatrix._list_product
    monkeypatch.setattr(IntMatrix, "_list_product",
                        lambda a, b: listed.append((a, b)) or list_product(a, b))
    top, low = SLOT_LIMIT - 1, -SLOT_LIMIT
    cases = [
        # operand entries at the slot edges, and one past them
        ([[1, 0], [0, 1]], [[top, -top], [low, 0]], True),
        ([[top, low], [-top, 0]], [[1, 0], [0, 1]], True),
        ([[1]], [[SLOT_LIMIT]], False),
        # a product entry at each end of the slots, and one past it
        ([[1, 1]], [[top - 1], [1]], True),
        ([[1, 1]], [[top], [1]], False),
        ([[1, 1]], [[low + 1], [-1]], True),
        ([[1, 1]], [[low], [-1]], False),
        # coefficients just below 2**33 / m and at it, m the inner dimension:
        # each entry sums m terms, whatever the width
        ([[2**33 - 1], [1 - 2**33]], [[0, 0, 0, 0]], True),
        ([[2**33]], [[0, 0, 0, 0]], False),
        ([[-2**33]], [[0, 0, 0, 0]], False),
        ([[2**31 - 1] * 4], [[0]] * 4, True),
        ([[0, 0, 0, -2**31]], [[0]] * 4, False),
        # at m = 8 > width 2: a coefficient under 2**30 keeps the true entry
        # under 2**63, so the range check sees it leave the slots; 2**31
        # would make it -2**64, which reads as the fitting slots (0, -1)
        ([[2**30 - 1] * 8], [[0, 0]] * 8, True),
        ([[2**30 - 1] * 8], [[low, 0]] * 8, False),
        ([[2**31] * 8], [[low, 0]] * 8, False),
        ([[3]], [[-5]], True),
    ]
    for a, b, packed in cases:
        listed.clear()
        assert IntMatrix(a) @ IntMatrix(b) == IntMatrix(_naive_product(a, b)), (a, b)
        assert listed == ([] if packed else [(IntMatrix(a), IntMatrix(b))]), (a, b)
    # a factor without columns has no slots to pack; IntMatrix([]) is 0 x 0
    for a, b in (([], []), ([[], []], []), ([[1, 2]], [[], []])):
        listed.clear()
        assert (IntMatrix(a) @ IntMatrix(b)).entries == ((),) * len(a)
        assert listed == [(IntMatrix(a), IntMatrix(b))]


def _balanced_slots(x, n):
    """The n balanced base-2**64 digits of x, lowest first, by repeated
    division: the tests' own reading of a packed row."""
    digits = []
    for _ in range(n):
        d = x % 2**64
        d -= 2**64 if d >= 2**63 else 0
        digits.append(d)
        x = (x - d) >> 64
    assert x == 0, "more than n slots"
    return digits


def test_packed_rows_round_trip_up_to_the_slot_bounds():
    rng = random.Random(39)
    edge = (-SLOT_LIMIT, -SLOT_LIMIT + 1, -1, 0, 1, SLOT_LIMIT - 1)
    for n in (1, 2, 3, 7, 16):
        slots = PackedRows(n)
        rows = [[rng.choice(edge) if rng.random() < 0.5 else rng.randrange(-SLOT_LIMIT, SLOT_LIMIT)
                 for _ in range(n)] for _ in range(n)]
        packed = slots.pack(rows)
        assert [_balanced_slots(x, n) for x in packed] == rows
        assert slots.unpack(packed) == [tuple(row) for row in rows]
        for col in range(n):
            assert slots.column(packed, col) == [row[col] for row in rows]
        # an entry outside [-SLOT_LIMIT, SLOT_LIMIT) is refused, also one
        # that a 64-bit slot could not hold at all
        for bad in (SLOT_LIMIT, -SLOT_LIMIT - 1, 2**63, -2**63 - 1, 2**70):
            row = list(rows[-1])
            row[rng.randrange(n)] = bad
            assert slots.pack(rows[:-1] + [row]) is None


def test_packed_product_matches_the_list_product_and_refuses_what_leaves_the_slots():
    rng = random.Random(40)
    for n in (1, 2, 4, 9, 16):
        slots = PackedRows(n)
        for span in (1, 2, 5):
            b = [[rng.randint(-2**20, 2**20) for _ in range(n)] for _ in range(n)]
            c = [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]
            got = slots.product(c, slots.pack(b))
            assert [_balanced_slots(x, n) for x in got] == _naive_product(c, b)
    slots = PackedRows(2)
    top = slots.pack([[SLOT_LIMIT - 1, 0], [1, -SLOT_LIMIT]])
    assert slots.product([[1, 0], [0, 1]], top) == top
    assert slots.product([[1, 1], [0, 1]], top) is None  # SLOT_LIMIT in slot 0
    assert slots.product([[0, 1], [0, -1]], top) is None  # -(-SLOT_LIMIT)
    # a coefficient of 2**33 / m or more, m the number of rows of B, is
    # refused, even on zero rows; m, not the width, counts the terms
    zeros = slots.pack([[0, 0], [0, 0]])
    assert slots.product([[2**32 - 1, 0]], zeros) == [0]
    assert slots.product([[0, -2**32]], zeros) is None
    zeros = slots.pack([[0, 0]] * 8)
    assert slots.product([[2**30 - 1] * 8], zeros) == [0]
    assert slots.product([[0] * 7 + [2**30]], zeros) is None


def test_packed_bareiss_step_matches_the_list_step():
    # bottom-row pivoting run twice side by side on seeded matrices, on
    # lists by bareiss_step and on packed rows; entries in [-3, 3], so
    # previous pivots of 1, -1 and larger ones all come up
    rng = random.Random(41)
    prevs = Counter()
    for _ in range(300):
        n = rng.randrange(1, 9)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        slots = PackedRows(n)
        packed = slots.pack(rows)
        leads = slots.column(packed, 0)
        prev = 1
        for col in range(n):
            assert leads == [row[col] for row in rows]
            k = max((i for i, v in enumerate(leads) if v), default=None)
            if k is None:
                break
            pivot_row, pv = rows.pop(k), leads.pop(k)
            bareiss_step(rows, pivot_row, col, prev)
            packed, leads = slots.bareiss_step(packed[:k] + packed[k + 1:], leads,
                                               packed[k], pv, prev, col)
            assert [_balanced_slots(x, n) for x in packed] == rows
            prevs[prev] += 1
            prev = pv
    assert prevs[1] and prevs[-1] and sum(v for p, v in prevs.items() if abs(p) > 1) > 100


def test_packed_bareiss_step_refuses_a_row_that_leaves_the_slots():
    slots = PackedRows(2)
    for half, fits in ((SLOT_LIMIT // 2 - 1, True), (SLOT_LIMIT // 2, False)):
        row, pivot_row = slots.pack([[1, half], [1, -half]])
        step = slots.bareiss_step([row], [1], pivot_row, 1, 1, 0)
        assert (step == ([slots.pack([[0, 2 * half]])[0]], [2 * half])) if fits else step is None


def test_random_unit_upper_triangular():
    rng = random.Random(0)
    for n in (1, 3, 5):
        u = random_unit_upper_triangular(n, rng)
        for i in range(n):
            assert u.entries[i][i] == 1
            assert all(u.entries[i][j] == 0 for j in range(i))
            assert all(abs(v) <= 2 for v in u.entries[i])
        assert int_matrix_rank(u) == n


def test_unit_upper_triangular_draws_equal_validated_matrices():
    # the same draws, row by row, through randint and the validating
    # constructor, with other calls on the same stream in between
    for seed in range(20):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        for n in (0, 1, 2, 4, 7, 16, 33):
            u = random_unit_upper_triangular(n, rng)
            rows = [[0] * i + [1] + [oracle_rng.randint(-2, 2) for _ in range(n - i - 1)]
                    for i in range(n)]
            assert u == IntMatrix(rows)
            assert u.entries == IntMatrix(u.entries).entries
            assert type(u.entries) is tuple
            assert all(type(row) is tuple and all(type(x) is int for x in row)
                       for row in u.entries)
            assert rng.randrange(seed + 3) == oracle_rng.randrange(seed + 3)
            assert rng.getrandbits(seed + 1) == oracle_rng.getrandbits(seed + 1)
            assert rng.random() == oracle_rng.random()
        assert rng.getstate() == oracle_rng.getstate()


def test_permutation_matrix():
    w = Permutation((3, 1, 2))
    m = w.to_matrix()
    # row i has its 1 in column w(i)
    assert m.entries == ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    assert int_matrix_rank(m) == 3


def test_permutation_matrices_equal_validated_matrices():
    for n in range(6):
        for one_line in itertools.permutations(range(1, n + 1)):
            m = Permutation(one_line).to_matrix()
            rows = [[int(one_line[i] == j + 1) for j in range(n)] for i in range(n)]
            assert m == IntMatrix(rows)
            assert type(m.entries) is tuple
            assert all(type(row) is tuple and all(type(x) is int for x in row)
                       for row in m.entries)
            assert (m.rows, m.cols) == (n, n)
