"""Shared exact-arithmetic primitives.

Permutations in one-line notation, words over the positive integers,
sparse bivariate polynomials with integer coefficients, and integer
matrices with exact rank.  Everything is immutable and every number is
a Python int, so nothing ever rounds or overflows.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, mul, sub
from typing import Iterable, Iterator, Sequence

Word = tuple[int, ...]


def as_word(letters: Iterable[int]) -> Word:
    """Validate and freeze a word, i.e. a finite sequence of letters >= 1."""
    w = tuple(int(x) for x in letters)
    if any(x < 1 for x in w):
        raise ValueError(f"word letters must be positive integers: {w!r}")
    return w


class Permutation:
    """A permutation of {1, ..., n} in one-line notation.

    ``w(i)`` is the image of i for 1 <= i <= n.  The empty permutation
    (n = 0) is allowed; it is the identity of S_0.

    >>> w = Permutation((3, 1, 2))
    >>> w(1), w(3)
    (3, 2)
    >>> w.inverse().one_line
    (2, 3, 1)
    """

    __slots__ = ("one_line",)

    def __init__(self, values: Iterable[int]):
        word = tuple(int(v) for v in values)
        if sorted(word) != list(range(1, len(word) + 1)):
            raise ValueError(f"not a permutation of [{len(word)}]: {word!r}")
        self.one_line = word

    @property
    def n(self) -> int:
        return len(self.one_line)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self.one_line):
            raise IndexError(f"index {i} out of range 1..{len(self.one_line)}")
        return self.one_line[i - 1]

    def __iter__(self) -> Iterator[int]:
        return iter(self.one_line)

    def __len__(self) -> int:
        return len(self.one_line)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.one_line == other.one_line

    def __hash__(self) -> int:
        return hash(self.one_line)

    def __repr__(self) -> str:
        return f"Permutation({self.one_line!r})"

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.one_line)
        for i, v in enumerate(self.one_line, start=1):
            inv[v - 1] = i
        return Permutation(inv)

    def descent_set(self) -> frozenset[int]:
        """Positions i with w(i) > w(i+1)."""
        w = self.one_line
        return frozenset(i for i in range(1, len(w)) if w[i - 1] > w[i])

    def des(self) -> int:
        return len(self.descent_set())

    def big_descent_count(self) -> int:
        """Number of positions i with w(i) > w(i+1) + 1."""
        w = self.one_line
        return sum(1 for i in range(1, len(w)) if w[i - 1] > w[i] + 1)

    def to_matrix(self) -> "IntMatrix":
        """Permutation matrix with (i, j) entry 1 exactly when w(i) = j."""
        zeros = (0,) * len(self.one_line)
        return IntMatrix._unchecked(tuple(zeros[:v - 1] + (1,) + zeros[v:] for v in self.one_line))


class BiPoly:
    """Sparse polynomial in two variables with exact integer coefficients.

    Terms are stored as a dict mapping (q_exponent, t_exponent) to a
    nonzero coefficient.  Exponents are nonnegative.  Instances are
    treated as immutable; all arithmetic returns new objects.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[tuple[int, int], int] | None = None):
        terms = terms or {}
        for eq, et in terms:
            if eq < 0 or et < 0:
                raise ValueError(f"negative exponent in term ({eq}, {et})")
        self._terms = {k: c for k, c in terms.items() if c}

    @staticmethod
    def _sum(out: dict[tuple[int, int], int],
             terms: Iterable[tuple[tuple[int, int], int]] = ()) -> "BiPoly":
        """The polynomial of the coefficients in out, which it takes over,
        plus the (exponents, coefficient) pairs of terms, with coefficients
        of equal exponents summed and zeros dropped.

        Every arithmetic result is built here, without the exponent check
        of ``BiPoly(terms)``: its exponents are sums of valid ones.
        """
        for k, c in terms:
            out[k] = out.get(k, 0) + c
        p = BiPoly.__new__(BiPoly)
        p._terms = {k: c for k, c in out.items() if c}
        return p

    @classmethod
    def one(cls) -> "BiPoly":
        return cls({(0, 0): 1})

    @classmethod
    def t(cls) -> "BiPoly":
        return cls({(0, 1): 1})

    def sorted_terms(self) -> tuple[tuple[int, int, int], ...]:
        """Terms as (q_exp, t_exp, coeff), sorted by exponents."""
        return tuple((eq, et, c) for (eq, et), c in sorted(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    @staticmethod
    def _coerce(other) -> "BiPoly | None":
        if isinstance(other, BiPoly):
            return other
        if isinstance(other, int):
            return BiPoly({(0, 0): other})
        return None

    def __add__(self, other) -> "BiPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return BiPoly._sum(dict(self._terms), o._terms.items())

    __radd__ = __add__

    def __neg__(self) -> "BiPoly":
        return BiPoly._sum({k: -c for k, c in self._terms.items()})

    def __sub__(self, other) -> "BiPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "BiPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "BiPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (aq, at), ac in self._terms.items():
            for (bq, bt), bc in o._terms.items():
                k = (aq + bq, at + bt)
                out[k] = out.get(k, 0) + ac * bc
        return BiPoly._sum(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "BiPoly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = BiPoly.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"BiPoly({self.render()})"

    def subs_q(self, value: int) -> "BiPoly":
        """Substitute an integer for q, leaving a polynomial in t."""
        return BiPoly._sum({}, (((0, et), c * value**eq)
                                for (eq, et), c in self._terms.items()))

    def subs_t(self, value: int) -> "BiPoly":
        return BiPoly._sum({}, (((eq, 0), c * value**et)
                                for (eq, et), c in self._terms.items()))

    def eval_at(self, q_value: int, t_value: int) -> int:
        return sum(c * q_value**eq * t_value**et for (eq, et), c in self._terms.items())

    def deriv_t(self) -> "BiPoly":
        """Formal derivative with respect to the second variable."""
        return BiPoly._sum({(eq, et - 1): et * c for (eq, et), c in self._terms.items() if et})

    def reciprocal_t(self, degree: int) -> "BiPoly":
        """Replace t^k by t^(degree-k); requires t-degree <= degree."""
        for _, et in self._terms:
            if et > degree:
                raise ValueError(f"t-degree {et} exceeds reciprocal degree {degree}")
        return BiPoly._sum({(eq, degree - et): c for (eq, et), c in self._terms.items()})

    def render(self) -> str:
        """Human-readable rendering in q and t, with terms in exponent order."""
        if not self._terms:
            return "0"
        parts = []
        for eq, et, c in self.sorted_terms():
            factors = []
            if eq == 1:
                factors.append("q")
            elif eq > 1:
                factors.append(f"q^{eq}")
            if et == 1:
                factors.append("t")
            elif et > 1:
                factors.append(f"t^{et}")
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def to_json_terms(self) -> list[dict]:
        """JSON-safe term list, sorted by (q exponent, t exponent).

        Coefficients are decimal strings so arbitrarily large values
        survive any JSON reader.
        """
        return [
            {"q": eq, "t": et, "c": str(c)} for eq, et, c in self.sorted_terms()
        ]


class IntMatrix:
    """Immutable integer matrix; rows are tuples."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Iterable[int]]):
        rows = tuple(tuple(int(x) for x in row) for row in entries)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows in matrix")
        self.entries = rows

    @classmethod
    def _unchecked(cls, entries: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        """A matrix from rows that are equally long tuples of ints by
        construction, such as a product's.  Skips the checks of
        ``__init__``; the tests compare the two."""
        m = cls.__new__(cls)
        m.entries = entries
        return m

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"IntMatrix({list(map(list, self.entries))!r})"

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """The product, each row a combination of the rows of ``other``.

        Row i of ``A @ B`` sums ``A[i][k] * B[k]`` over the k where
        ``A[i][k]`` is nonzero, a whole row at a time: a coefficient of 1
        takes the row as it is, any other scales it.  Products with 0/1 or
        triangular factors on the left thus skip most of the work, and an
        all-zero row gives the zero row.
        """
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        zero = (0,) * other.cols
        product = []
        for row in self.entries:
            acc = None
            for v, b_row in zip(row, other.entries):
                if v:
                    term = b_row if v == 1 else map(mul, b_row, repeat(v))
                    acc = term if acc is None else list(map(add, acc, term))
            product.append(zero if acc is None else tuple(acc))
        return IntMatrix._unchecked(tuple(product))


class BareissDivisionError(RuntimeError):
    """A Bareiss step left a remainder where the division must be exact.

    That is a defect of this program, not a property of the input.
    """


def bareiss_step(rows: Iterable[list[int]], pivot_row: Sequence[int], col: int, prev: int) -> None:
    """Clear column ``col`` from each of ``rows`` by ``pivot_row``, fraction
    free (Bareiss, Math. Comp. 22, 1968), in place.

    Each entry c > col of a row becomes ``(pv * row[c] - lv * pivot_row[c])
    / prev``, with pv the pivot, lv the row's entry in column ``col`` and
    prev the previous pivot (1 before the first), and the row's entry in
    ``col`` becomes 0.  Every such division is exact, since the results are
    minors of the input.  A previous pivot of ±1 divides by multiplying by
    it, on the whole row tail at once: a multiplier of ±1 subtracts or adds
    the pivot row as it is, and only other multipliers scale it.  Every
    division by a larger previous pivot checks its remainder, entry by
    entry, and raises BareissDivisionError if one is left.
    """
    pv = pivot_row[col]
    tail = pivot_row[col + 1:]
    for row in rows:
        lv = row[col]
        if not lv and pv == prev:
            continue  # (pv * a - 0) / prev = a: the row stays as it is
        if prev == 1 or prev == -1:  # dividing by ±1 is multiplying by it
            spv, slv = pv * prev, lv * prev
            rest = row[col + 1:]
            if spv != 1:
                rest = map(mul, rest, repeat(spv))
            if slv == 1:
                rest = map(sub, rest, tail)
            elif slv == -1:
                rest = map(add, rest, tail)
            elif slv:
                rest = map(sub, rest, map(mul, tail, repeat(slv)))
            row[col + 1:] = rest
        else:
            for c in range(col + 1, len(row)):
                q, rem = divmod(pv * row[c] - lv * pivot_row[c], prev)
                if rem:
                    raise BareissDivisionError("Bareiss division must be exact")
                row[c] = q
        row[col] = 0


def int_matrix_rank(m: IntMatrix | Sequence[Sequence[int]]) -> int:
    """Rank over the rationals, by fraction-free (Bareiss) elimination.

    Stays in exact integer arithmetic throughout: each pivot clears its
    column from the rows below by ``bareiss_step``, so intermediate entries
    are minors of the input and never blow up the way division-free
    elimination would.  Any nonzero pivot keeps the divisions exact, so
    each column takes a pivot of ±1 where it has one: the next step then
    divides by ±1, which needs no remainder check.
    """
    entries = m.entries if isinstance(m, IntMatrix) else m
    rows = [list(r) for r in entries]
    if not rows or not rows[0]:
        return 0
    nr, nc = len(rows), len(rows[0])
    rank = 0
    prev = 1
    for col in range(nc):
        piv = None
        for r in range(rank, nr):
            v = rows[r][col]
            if v == 1 or v == -1:
                piv = r
                break
            if v and piv is None:
                piv = r
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        bareiss_step(rows[rank + 1:], rows[rank], col, prev)
        prev = rows[rank][col]
        rank += 1
        if rank == nr:
            break
    return rank


def random_unit_upper_triangular(n: int, rng) -> IntMatrix:
    """Random upper-triangular matrix with unit diagonal, entries in [-2, 2].

    Draws the entries row by row, left to right, each as CPython's
    ``rng.randint(-2, 2)`` draws it: three random bits, drawn again while
    they read 5 or more, less 2.  Calling ``getrandbits`` directly keeps
    that stream bit for bit and skips ``randint``'s layers of Python calls.
    """
    bits = rng.getrandbits
    rows = []
    for i in range(n):
        row = [0] * i + [1]
        for _ in range(n - i - 1):
            r = bits(3)
            while r >= 5:
                r = bits(3)
            row.append(r - 2)
        rows.append(tuple(row))
    return IntMatrix._unchecked(tuple(rows))
