import itertools
import random
import re

import pytest

from exactcomb.core import (
    BiPoly,
    IntMatrix,
    Permutation,
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
    with pytest.raises(ValueError, match="shape mismatch: 2x3 @ 2x3"):
        IntMatrix([[1, 2, 3], [4, 5, 6]]) @ IntMatrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError, match="shape mismatch: 1x4 @ 1x4"):
        IntMatrix([[1, -2, 3, -4]]) @ IntMatrix([[1, 2, 3, 4]])


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
    # the same draws, row by row, through the validating constructor
    for seed in range(20):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        for n in (0, 1, 2, 4, 7):
            u = random_unit_upper_triangular(n, rng)
            rows = [[0] * i + [1] + [oracle_rng.randint(-2, 2) for _ in range(n - i - 1)]
                    for i in range(n)]
            assert u == IntMatrix(rows)
            assert u.entries == IntMatrix(u.entries).entries
            assert type(u.entries) is tuple
            assert all(type(row) is tuple and all(type(x) is int for x in row)
                       for row in u.entries)
        assert rng.random() == oracle_rng.random()


def test_permutation_matrix():
    w = Permutation((3, 1, 2))
    m = w.to_matrix()
    # row i has its 1 in column w(i)
    assert m.entries == ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    assert int_matrix_rank(m) == 3
