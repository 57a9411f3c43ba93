"""Finite posets, lattices, and echelon dynamics.

Elements of a poset on ``n`` points are the integers ``0 .. n-1``.  Order
data is stored as bitmasks: ``up[x]`` has bit ``y`` set iff ``x <= y``
(reflexive), and ``down[y]`` is the transpose.  Everything downstream
(meets, joins, covers, linear extensions, the echelon map) works on these
masks with exact integer arithmetic only.
"""

from __future__ import annotations

import json
from collections.abc import Generator, Iterable, Iterator
from math import factorial

from .core import IntMatrix, Permutation, bareiss_step, int_matrix_rank
from .report import COUNTEREXAMPLE, SKIPPED, VERIFIED, Report


class PosetError(ValueError):
    pass


class CyclicCoversError(PosetError):
    """The supplied cover relation contains a directed cycle."""


class NotALatticeError(PosetError):
    pass


class NotDistributiveError(PosetError):
    pass


class ModularityCheckError(RuntimeError):
    """The modular law and the cover characterization disagree on a lattice.

    That is a defect of this program, not a property of the input.
    """


class SingularMatrixError(ValueError):
    """Raised when Bruhat elimination meets a column with no usable pivot."""


def _bits(mask: int) -> Iterator[int]:
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


class Poset:
    """A finite poset stored as reflexive up-set bitmasks."""

    __slots__ = ("n", "up", "down", "_cov_up", "_cov_down")

    def __init__(self, n: int, up_masks: Iterable[int]):
        up = tuple(up_masks)
        _validate_up_masks(n, up)
        down = [0] * n
        for x in range(n):
            for y in _bits(up[x]):
                down[y] |= 1 << x
        self.n = n
        self.up = up
        self.down = tuple(down)
        self._cov_up: tuple[int, ...] | None = None
        self._cov_down: tuple[int, ...] | None = None

    @classmethod
    def _from_masks(cls, up: tuple[int, ...], down: tuple[int, ...]) -> "Poset":
        # masks already known to be a valid order and its transpose
        p = cls.__new__(cls)
        p.n = len(up)
        p.up = up
        p.down = down
        p._cov_up = p._cov_down = None
        return p

    # -- order queries -------------------------------------------------

    def covers_up(self) -> tuple[int, ...]:
        """Bitmask per element of its upper covers."""
        if self._cov_up is None:
            masks = []
            for x in range(self.n):
                strict = self.up[x] & ~(1 << x)
                m = 0
                for y in _bits(strict):
                    # y covers x iff nothing sits strictly between them
                    if not strict & self.down[y] & ~(1 << y):
                        m |= 1 << y
                masks.append(m)
            self._cov_up = tuple(masks)
        return self._cov_up

    def covers_down(self) -> tuple[int, ...]:
        if self._cov_down is None:
            ups = self.covers_up()
            masks = [0] * self.n
            for x in range(self.n):
                for y in _bits(ups[x]):
                    masks[y] |= 1 << x
            self._cov_down = tuple(masks)
        return self._cov_down

    def cover_pairs(self) -> list[tuple[int, int]]:
        return [(x, y) for x in range(self.n) for y in _bits(self.covers_up()[x])]

    # -- construction --------------------------------------------------

    @classmethod
    def from_cover_pairs(cls, n: int, covers: Iterable[tuple[int, int]]) -> "Poset":
        """Build the reflexive-transitive closure of a cover relation.

        Raises CyclicCoversError when the digraph has a cycle, PosetError
        on out-of-range element labels.
        """
        succ = [0] * n
        for x, y in covers:
            if not (0 <= x < n and 0 <= y < n) or x == y:
                raise PosetError(f"bad cover pair ({x}, {y}) for n={n}")
            succ[x] |= 1 << y
        # Kahn's algorithm; leftovers mean a cycle.
        indeg = [0] * n
        for x in range(n):
            for y in _bits(succ[x]):
                indeg[y] += 1
        queue = [x for x in range(n) if indeg[x] == 0]
        topo = []
        while queue:
            x = queue.pop()
            topo.append(x)
            for y in _bits(succ[x]):
                indeg[y] -= 1
                if indeg[y] == 0:
                    queue.append(y)
        if len(topo) != n:
            raise CyclicCoversError("cover relation has a directed cycle")
        up = [0] * n
        for x in reversed(topo):
            m = 1 << x
            for y in _bits(succ[x]):
                m |= up[y]
            up[x] = m
        return cls(n, up)

    @classmethod
    def chain(cls, n: int) -> "Poset":
        full = (1 << n) - 1
        return cls(n, [full & ~((1 << x) - 1) for x in range(n)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self.n == other.n and self.up == other.up

    def __hash__(self) -> int:
        return hash((self.n, self.up))

    def __repr__(self) -> str:
        return f"Poset(n={self.n}, covers={self.cover_pairs()})"


def _validate_up_masks(n: int, up: tuple[int, ...]) -> None:
    if len(up) != n:
        raise PosetError(f"expected {n} masks, got {len(up)}")
    full = (1 << n) - 1
    for x in range(n):
        m = up[x]
        if m & ~full:
            raise PosetError(f"mask of element {x} mentions elements >= {n}")
        if not m >> x & 1:
            raise PosetError(f"order is not reflexive at {x}")
        for y in _bits(m & ~(1 << x)):
            if up[y] >> x & 1:
                raise PosetError(f"antisymmetry fails on {{{x}, {y}}}")
            if up[y] & ~m:
                raise PosetError(f"transitivity fails at {x} <= {y}")


def poset_product(p: Poset, q: Poset) -> Poset:
    """Componentwise order on pairs, pair (a, b) encoded as a*q.n + b."""
    n = p.n * q.n
    up = []
    for a in range(p.n):
        for b in range(q.n):
            m = 0
            for a2 in _bits(p.up[a]):
                for b2 in _bits(q.up[b]):
                    m |= 1 << (a2 * q.n + b2)
            up.append(m)
    return Poset(n, up)


# -- linear extensions ----------------------------------------------------


class LinearExtension:
    """A linear extension as the sequence order[0], order[1], ... (bottom up).

    ``rank(x)`` is the 1-based position of element x in that sequence.
    """

    __slots__ = ("order", "_ranks")

    def __init__(self, order: Iterable[int]):
        self.order = tuple(order)
        ranks = [0] * len(self.order)
        for pos, x in enumerate(self.order, start=1):
            ranks[x] = pos
        self._ranks = tuple(ranks)

    def rank(self, x: int) -> int:
        return self._ranks[x]

    def __len__(self) -> int:
        return len(self.order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearExtension):
            return NotImplemented
        return self.order == other.order

    def __hash__(self) -> int:
        return hash(self.order)

    def __repr__(self) -> str:
        return f"LinearExtension({list(self.order)})"


def extension_orders(p: Poset) -> Iterator[tuple[int, ...]]:
    """Yield every linear extension of p as an order tuple, in lexicographic order."""
    order, _, steps = _extension_dfs(p)
    last = p.n - 1
    return (tuple(order) for k in steps if k == last)


def _extension_dfs(p: Poset) -> tuple[list[int], list[int], Generator[int, bool | None, None]]:
    """The linear extensions of p in lexicographic order, by one depth-first
    search that places the lowest available element first.

    Returns ``(order, placed, steps)``.  ``steps`` yields k each time it
    places ``order[k]``, with ``placed[k + 1]`` the mask of ``order[:k+1]``;
    a yield of n - 1 completes an extension (the empty poset's one
    extension is a yield of -1).  A consumer that answers a yield with
    ``steps.send(True)`` skips the extensions through ``order[:k+1]``: the
    search goes on with the next prefix in lexicographic order.
    """
    n = p.n
    order = [0] * n
    placed = [0] * (n + 1)

    def steps() -> Generator[int, bool | None, None]:
        if n == 0:
            yield -1
            return
        upper = p.covers_up()
        lower = p.covers_down()
        # at position i: avail[i] the unplaced elements whose lower covers are
        # all placed, and rest[i] those of them not yet tried there, smallest first
        avail = [0] * n
        rest = [0] * n
        avail[0] = rest[0] = sum(1 << x for x in range(n) if not lower[x])
        i = 0
        last = n - 1
        while i >= 0:
            r = rest[i]
            if not r:
                i -= 1
                continue
            b = r & -r
            rest[i] = r ^ b
            x = order[i] = b.bit_length() - 1
            now = placed[i + 1] = placed[i] | b
            if (yield i) or i == last:
                continue
            # placing an element can only free its upper covers
            a = avail[i] ^ b
            m = upper[x]
            while m:
                c = m & -m
                m ^= c
                if not lower[c.bit_length() - 1] & ~now:
                    a |= c
            i += 1
            avail[i] = rest[i] = a

    return order, placed, steps()


def linear_extensions(p: Poset) -> Iterator[LinearExtension]:
    """``extension_orders`` as LinearExtension objects, with their rank tables."""
    return map(LinearExtension, extension_orders(p))


def is_linear_extension(p: Poset, ext: LinearExtension) -> bool:
    if sorted(ext.order) != list(range(p.n)):
        return False
    return all(ext.rank(x) <= ext.rank(y) for x in range(p.n) for y in _bits(p.up[x]))


# -- Cartan matrices and Bruhat pivots ------------------------------------


def cartan_matrix(p: Poset, ext: LinearExtension) -> IntMatrix:
    """0/1 matrix with entry (i, j) = 1 iff order[j] <= order[i] in p.

    Rows and columns are indexed by positions of the extension, so the
    result is always unit lower triangular.
    """
    if not is_linear_extension(p, ext):
        raise PosetError("sequence is not a linear extension of this poset")
    return IntMatrix(_cartan_rows(p.down, ext.order))


def _cartan_rows(down: tuple[int, ...], order: tuple[int, ...]) -> list[list[int]]:
    return [[down[x] >> y & 1 for y in order] for x in order]


def _bruhat_pivot_cols(rows: list[list[int]]) -> list[int]:
    """Pivot column of each row under bottom-most pivoting, fraction free.

    Processes columns left to right and always pivots on the lowest row
    that is still pivotless and nonzero in the current column.  Row
    operations only ever add multiples of lower rows to higher rows, which
    preserves the rank of every lower-left justified submatrix, so the
    resulting pivot positions are exactly the lower-left rank jumps of the
    input.  Each pivot clears its column from the other pivotless rows by
    the rank's row step, ``core.bareiss_step``, whose divisions are exact.
    """
    n = len(rows)
    col_of_row = [-1] * n
    free, free_rows = list(range(n)), rows[:]  # the pivotless rows, top to bottom
    prev = 1
    for j in range(n):
        for k in range(len(free) - 1, -1, -1):
            if free_rows[k][j]:
                break
        else:
            raise SingularMatrixError(f"no pivot available in column {j + 1}")
        pivot_row = free_rows.pop(k)
        col_of_row[free.pop(k)] = j
        bareiss_step(free_rows, pivot_row, j, prev)
        prev = pivot_row[j]
    return col_of_row


def _zeta_rank(down: tuple[int, ...], rows: int, cols: int) -> int:
    """Rank of the zeta matrix of a poset on the rows ``rows`` and the
    columns ``cols``, both element masks, by exact elimination.

    Repeated and zero rows do not change the rank, so they are dropped
    first.  Two distinct nonzero 0/1 rows are never proportional, so when
    at most two are left their count is the rank.
    """
    distinct = set()
    while rows:
        b = rows & -rows
        rows ^= b
        distinct.add(down[b.bit_length() - 1] & cols)
    distinct.discard(0)
    if len(distinct) < 3:
        return len(distinct)
    col_list = list(_bits(cols))
    return int_matrix_rank([[row >> c & 1 for c in col_list] for row in distinct])


class _ZetaRanks(dict):
    """The ranks of one poset's zeta matrix, keyed ``rows << n | cols``,
    each computed by ``_zeta_rank`` on its first lookup."""

    __slots__ = ("down",)

    def __init__(self, down: tuple[int, ...]):
        super().__init__()
        self.down = down

    def __missing__(self, key: int) -> int:
        n = len(self.down)
        r = self[key] = _zeta_rank(self.down, key >> n, key & ((1 << n) - 1))
        return r


def _echelon_walk(p: Poset, allowed: list[int], cap: int | None
                  ) -> Generator[tuple[list[int], list[int]], None, tuple[int, list[int] | None]]:
    """Walk the linear extensions of p in lexicographic order, finding the
    Bruhat pivots of their Cartan matrices as each prefix grows, and
    deciding each state of the walk once.

    The walk steps the positions that ``_extension_dfs`` places.  A pivot at
    row i, column j sends order[j] to order[i], and each is checked against
    ``allowed``, a mask of permitted images per element, as soon as it is
    found.  The walk yields ``(order, col_of_row)`` at each extension it
    steps to the end, with ``col_of_row`` what ``_bruhat_pivot_cols`` gives
    on its Cartan matrix; both are the walk's own lists, valid until the
    next step.  It returns ``(passed, failing)``: the number of extensions,
    in lexicographic order, whose pivots all pass, and the first one that
    fails, or None.  At the first pivot that fails, in row or column k,
    every extension through order[:k+1] breaks ``allowed``, so ``failing``
    is the lex-first of them.  With ``cap`` set the walk stops after that
    many extensions; a negative cap raises ValueError on the first step.

    Write R(a, b) for the rank of the zeta matrix on the rows order[a:] and
    the columns order[:b].  It counts the pivots in rows >= a and columns
    < b, since the lower-left ranks jump exactly at the pivots.  The rows
    form an up-set and the columns a down-set, so R depends on that pair
    of sets only, and each rank is computed once per walk by ``_zeta_rank``.
    While a, b <= k + 1, R(a, b) depends on order[:k+1] alone, so placing
    order[k] settles exactly the pivots in row k and in column k that lie
    in the leading k + 1 rows and columns.  The walk keeps as masks the
    pending columns (before k, with their pivot in a row >= k) and the open
    rows (before k, with their pivot in a column >= k); there are as many
    of each, and they give R(k, b) and R(a, k) for a, b <= k.

    - R(k+1, k+1) is the count of pending columns, one less if row k's
      pivot is one of them, one more if column k's pivot lies below row k.
      Where that leaves a doubt, R(k+1, k) below the count places row k's
      pivot among the pending columns.
    - That pivot is found by scanning the pending columns descending: it
      lies past column i iff R(k+1, i+1) counts every pending column up to
      i.  On the GF(2)^3 subspace lattice it is mostly the highest one.
    - Column k's pivot, unless below row k, is the highest candidate a (row
      k while it has no pivot, then the open rows descending) with
      R(a, k+1) > R(a, k).

    In both scans the last candidate passes without a test.

    Merged futures.  From position k on, the steps read of the prefix only
    placed[k]; for each pending column j, placed[j+1] (the descending
    scan's rank lookups) and order[j] (its ``allowed`` check); and for each
    open row i, placed[i] and order[i].  The positions follow from those
    sets, as j = |placed[j]|, and so does every count the scans use: the
    pending columns, and the open rows at or after i that ``settled``
    subtracts.  So that state decides the walk from k on: two prefixes that
    share it have the same extensions ahead and the same verdict on each.
    The key of a state is placed[k] with the sums of the slots of its
    pending columns and of its open rows; each slot holds placed[j+1] and
    order[j] in bits of its own position j, so a sum names its set exactly.
    The walk records the key of each prefix it steps past.  A later prefix
    with a recorded key is counted without a step, as the number of linear
    extensions of the elements still to place (``_upset_extensions``,
    computed only then), unless that count would cross ``cap``: then the
    walk steps it, and ``passed`` stays exact.  Only a later prefix of the
    same length meets a key, after every extension through the first one
    has passed, since a failure or the cap ends the walk; so the walk still
    meets the first failure in lexicographic order.
    """
    if cap is not None and cap < 0:
        raise ValueError(f"extension cap must be at least 0, got {cap}")
    n = p.n
    order, placed, steps = _extension_dfs(p)
    col_of_row = [-1] * n
    if cap == 0:
        return 0, None
    if n == 0:
        yield order, col_of_row
        return 1, None
    full = (1 << n) - 1
    rank = _ZetaRanks(p.down)
    # before position k: pend[k] the pending columns and opn[k] the open rows
    pend = [0] * (n + 1)
    opn = [0] * (n + 1)
    # slot[j] holds placed[j+1] and order[j] (so placed[j] too) in the bits of
    # position j; pend_key[k] and opn_key[k] sum the slots of pend[k] and opn[k]
    width = n + n.bit_length()
    slot = [0] * n
    pend_key = [0] * (n + 1)
    opn_key = [0] * (n + 1)
    seen: set[tuple[int, int, int]] = set()
    lower = p.covers_down()
    counts = {0: 1}  # extensions of the up-sets met at merged prefixes
    passed = 0
    last = n - 1
    send = steps.send
    k = next(steps)
    while True:
        x = order[k]
        before = placed[k]
        now = placed[k + 1]
        cols = pend[k]
        rows = opn[k]
        ck = pend_key[k]
        rk = opn_key[k]
        sk = slot[k] = (now | x << n) << width * k
        count = cols.bit_count()
        lower_rows = (full ^ now) << n  # rows order[k+1:], shifted into a key
        # R(k+1, k+1) - count: one up if column k's pivot lies below row k,
        # one down if row k's pivot is a pending column
        s = rank[lower_rows | now] - count
        ok = True
        if s > 0:
            cols |= 1 << k
            rows |= 1 << k
            ck += sk
            rk += sk
        else:
            row_in = s < 0 or (cols and rank[lower_rows | before] < count)
            if row_in:
                # the pending columns descending: row k's pivot lies past
                # column i iff R(k+1, i+1) counts every pending column up to i
                m = cols
                j = m.bit_length() - 1
                m ^= 1 << j
                while m:
                    i = m.bit_length() - 1
                    if rank[lower_rows | placed[i + 1]] == m.bit_count():
                        break
                    j = i
                    m ^= 1 << j
                col_of_row[k] = j
                cols ^= 1 << j
                ck -= slot[j]
                ok = allowed[order[j]] >> x & 1
            if s == 0 and row_in:
                cols |= 1 << k  # column k's pivot lies below row k
                ck += sk
            else:
                # column k's pivot is row k, if that has none yet, or an open
                # row: the highest a among them with R(a, k+1) > R(a, k)
                if not row_in and (not rows or rank[(full ^ before) << n | now] > count):
                    i = k
                else:
                    m = rows
                    while True:
                        i = m.bit_length() - 1
                        m ^= 1 << i
                        if not m:
                            break
                        # R(i, k) counts the pending columns and the rows from
                        # i to k - 1 that have their pivot
                        settled = k - i - (rows >> i).bit_count()
                        if rank[(full ^ placed[i]) << n | now] > count + settled:
                            break
                    rows ^= 1 << i
                    rk -= slot[i]
                    if not row_in:
                        rows |= 1 << k
                        rk += sk
                col_of_row[i] = k
                ok = ok and allowed[x] >> order[i] & 1
        if not ok:
            while k < last:  # down to the lex-first extension through order[:k+1]
                k = send(None)
            return passed, list(order)
        skip = False
        if k == last:
            passed += 1
            yield order, col_of_row
            if passed == cap:
                return passed, None
        else:
            pend[k + 1] = cols
            opn[k + 1] = rows
            pend_key[k + 1] = ck
            opn_key[k + 1] = rk
            key = (now, ck, rk)
            if key not in seen:
                seen.add(key)
            else:
                size = _upset_extensions(lower, counts, full ^ now)
                if cap is None or passed + size <= cap:
                    passed += size
                    if passed == cap:
                        return passed, None
                    skip = True
        try:
            k = send(skip)
        except StopIteration:
            return passed, None


def _upset_extensions(lower: tuple[int, ...], memo: dict[int, int], up: int) -> int:
    """The number of linear extensions of the up-set ``up`` of a poset with
    lower covers ``lower``: e(U) is the sum of e(U - x) over the minimal
    elements x of U.  ``memo`` holds e by set and must hold e(empty) = 1."""
    stack = [up]
    while stack:
        u = stack[-1]
        if u in memo:
            stack.pop()
            continue
        smaller = [u ^ 1 << x for x in _bits(u) if not lower[x] & u]
        todo = [v for v in smaller if v not in memo]
        if todo:
            stack += todo
        else:
            memo[u] = sum(memo[v] for v in smaller)
            stack.pop()
    return memo[up]


def _echelon_verdict(p: Poset, allowed: list[int], cap: int | None) -> tuple[int, list[int] | None]:
    """What ``_echelon_walk`` returns, once it has run to its end."""
    walk = _echelon_walk(p, allowed, cap)
    while True:
        try:
            next(walk)
        except StopIteration as end:
            return end.value


def bruhat_permutation(m: IntMatrix) -> Permutation:
    """The permutation P with m in B.P.B for upper triangular invertible B.

    In matrix terms: w(i) = j iff the lower-left ranks of m jump at (i, j).
    For a permutation matrix this recovers the permutation itself.
    """
    if m.rows != m.cols:
        raise ValueError("Bruhat decomposition needs a square matrix")
    rows = [list(r) for r in m.entries]
    cols = _bruhat_pivot_cols(rows)
    return Permutation(c + 1 for c in cols)


# -- echelonmotion ---------------------------------------------------------


class EchelonMap:
    """The echelon bijection of a poset induced by one linear extension."""

    __slots__ = ("extension", "mapping")

    def __init__(self, extension: LinearExtension, mapping: tuple[int, ...]):
        self.extension = extension
        self.mapping = mapping

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def permutation(self) -> Permutation:
        """The map written in extension coordinates, as a permutation of ranks."""
        ext = self.extension
        n = len(self.mapping)
        img = [0] * n
        for x in range(n):
            img[ext.rank(x) - 1] = ext.rank(self.mapping[x])
        return Permutation(img)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EchelonMap):
            return NotImplemented
        return self.extension == other.extension and self.mapping == other.mapping

    def __repr__(self) -> str:
        return f"EchelonMap(extension={self.extension!r}, mapping={self.mapping})"


def echelonmotion(p: Poset | "Lattice", ext: LinearExtension) -> EchelonMap:
    """Echelon map of p for the extension ext.

    Take the Cartan matrix W of (p, ext) and its Bruhat permutation P.
    A pivot of W at row i, column j sends the element at position j to the
    element at position i.  The pivot positions of an invertible matrix form
    a permutation, so this is a bijection on the elements.
    """
    if isinstance(p, Lattice):
        p = p.poset
    if not is_linear_extension(p, ext):
        raise PosetError("sequence is not a linear extension of this poset")
    cols = _bruhat_pivot_cols(_cartan_rows(p.down, ext.order))
    return EchelonMap(ext, _echelon_mapping(ext.order, cols))


def _echelon_mapping(order: tuple[int, ...], col_of_row: list[int]) -> tuple[int, ...]:
    # a pivot at row i, column j sends order[j] to order[i]
    mapping = [-1] * len(order)
    for i, j in enumerate(col_of_row):
        mapping[order[j]] = order[i]
    return tuple(mapping)


# -- lattices --------------------------------------------------------------


class Lattice:
    """A poset together with full meet and join tables."""

    __slots__ = ("poset", "meet_table", "join_table")

    def __init__(self, poset: Poset, meet_table, join_table):
        self.poset = poset
        self.meet_table = meet_table
        self.join_table = join_table

    @property
    def n(self) -> int:
        return self.poset.n

    def __repr__(self) -> str:
        return f"Lattice({self.poset!r})"


def build_lattice(p: Poset) -> Lattice:
    """Promote a poset to a lattice, or raise NotALatticeError.

    The upper bounds of a and b form the up-set up[a] & up[b], and it has a
    least member z exactly when it equals up[z]; so the join is looked up
    by that mask.  Meets are the dual, through down-sets.
    """
    n, up, down = p.n, p.up, p.down
    by_up = {m: x for x, m in enumerate(up)}
    by_down = {m: x for x, m in enumerate(down)}
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for a in range(n):
        meet[a][a] = a
        join[a][a] = a
        for b in range(a):
            z = by_up.get(up[a] & up[b])
            if z is None:
                raise NotALatticeError(f"elements {b} and {a} have no least upper bound")
            join[a][b] = join[b][a] = z
            z = by_down.get(down[a] & down[b])
            if z is None:
                raise NotALatticeError(f"elements {b} and {a} have no greatest lower bound")
            meet[a][b] = meet[b][a] = z
    return Lattice(p, tuple(map(tuple, meet)), tuple(map(tuple, join)))


def modular_witness(L: Lattice) -> tuple[int, int, int] | None:
    """None when L is modular, else (a, b, x) violating the modular law.

    Checks the law a <= b implies a v (x ^ b) = (a v x) ^ b, and cross
    checks against the cover characterization: for all a, b the relations
    "a ^ b is covered by a" and "b is covered by a v b" must coincide.
    Disagreement between the two routes would be a bug, not a property of
    the input, so it raises ModularityCheckError.
    """
    p = L.poset
    n = p.n
    meet = L.meet_table
    join = L.join_table
    law: tuple[int, int, int] | None = None
    for b in range(n):
        meet_b = meet[b]
        for a in _bits(p.down[b]):
            join_a = join[a]
            for x in range(n):
                if join_a[meet_b[x]] != meet_b[join_a[x]]:
                    law = (a, b, x)
                    break
            if law:
                break
        if law:
            break

    # the cover condition is not symmetric in (a, b): on the pentagon it
    # fails for exactly one ordering of the incomparable pair
    cov_up = p.covers_up()
    cover_ok = all((cov_up[meet[a][b]] >> a & 1) == (cov_up[b] >> join[a][b] & 1)
                   for a in range(n) for b in range(n) if a != b)
    if (law is None) != cover_ok:
        raise ModularityCheckError(
            f"modularity criteria disagree: modular law {'holds' if law is None else 'fails'}, "
            f"cover condition {'holds' if cover_ok else 'fails'}")
    return law


def is_modular(L: Lattice) -> bool:
    return modular_witness(L) is None


def _birkhoff_sets(L: Lattice) -> tuple[list[int], list[int], dict[int, int]]:
    """L as the lattice of down-sets of its join irreducibles, or
    NotDistributiveError.

    Returns the join irreducibles (the elements with exactly one lower
    cover), the set I(x) of those below each element x as a mask over that
    list, and the element of each set.  By Birkhoff's representation
    theorem a finite lattice is distributive exactly when x -> I(x) is a
    bijection onto the down-sets of its join irreducibles; it is always
    order preserving and reflecting, since x is the join of I(x).
    """
    p = L.poset
    cd = p.covers_down()
    jlist = [x for x in range(p.n) if cd[x].bit_count() == 1]
    ideal_of = [0] * p.n
    for a, j in enumerate(jlist):
        for x in _bits(p.up[j]):
            ideal_of[x] |= 1 << a
    element_of = {}
    for x, m in enumerate(ideal_of):
        if m in element_of:
            raise NotDistributiveError(
                f"elements {element_of[m]} and {x} lie above the same irreducibles")
        element_of[m] = x

    # the images are down-sets; they are all of them exactly when adding an
    # irreducible whose strict down-set an image holds gives another image,
    # since every down-set grows from the empty one an irreducible at a time
    full = (1 << len(jlist)) - 1
    for ideal in ideal_of:
        for a in _bits(full & ~ideal):
            if ideal_of[jlist[a]] & ~ideal == 1 << a and ideal | 1 << a not in element_of:
                raise NotDistributiveError(
                    f"no element lies above exactly the irreducibles "
                    f"{[jlist[b] for b in _bits(ideal | 1 << a)]}")
    return jlist, ideal_of, element_of


def is_distributive(L: Lattice) -> bool:
    """Whether L is the lattice of down-sets of its join irreducibles."""
    try:
        _birkhoff_sets(L)
    except NotDistributiveError:
        return False
    return True


# -- distributive rowmotion ------------------------------------------------


def rowmotion_distributive(L: Lattice) -> tuple[int, ...]:
    """Rowmotion of a distributive lattice, as a mapping on elements.

    Identify each element x with the set I(x) of join irreducibles below
    it.  Rowmotion replaces I with the complement of the up-closure of the
    maximal elements of I, and the result is the element corresponding to
    that new set.  On the chain 0 < 1 < 2 this sends bottom to top, top to
    the middle, and the middle to bottom.

    Raises NotDistributiveError when the irreducible sets fail to realize
    L as the lattice of down-closed subsets.
    """
    jlist, ideal_of, element_of = _birkhoff_sets(L)
    # the irreducibles above each irreducible, in jlist coordinates
    jup = [0] * len(jlist)
    for b, j in enumerate(jlist):
        for a in _bits(ideal_of[j]):
            jup[a] |= 1 << b
    full = (1 << len(jlist)) - 1
    mapping = []
    for ideal in ideal_of:
        filt = 0
        for a in _bits(ideal):
            if not jup[a] & ideal & ~(1 << a):
                filt |= jup[a]
        mapping.append(element_of[full & ~filt])
    return tuple(mapping)


# -- theorem checkers ------------------------------------------------------


def verify_echelon_theorem(L: Lattice, extension_cap: int | None = None) -> Report:
    """Check that the echelon map turns lower cover counts into upper ones.

    For every linear extension (up to extension_cap, when given) and every
    element x, the image y of x must satisfy |covers above y| = |covers
    below x|.  Skips with a witness when L is not modular, since the claim
    only holds on modular lattices.

    One prefix walk (``_echelon_walk``) over the extension search checks
    each pivot as soon as the growing extension settles it, with ranks
    memoized for this lattice.  The search's own extension at the first
    failing pivot is the first that fails; ``_confirmed_pivots`` takes it
    again by Bareiss pivoting, and its first failing row is the witness.
    """
    name = "echelon-cover-transfer"
    w = modular_witness(L)
    if w is not None:
        a, b, x = w
        return Report(name, 0, SKIPPED,
                      {"reason": "lattice is not modular", "law_failure": [a, b, x]})
    p = L.poset
    n = p.n
    down_counts = [m.bit_count() for m in p.covers_down()]
    up_counts = [m.bit_count() for m in p.covers_up()]
    allowed = [sum(1 << y for y in range(n) if up_counts[y] == d) for d in down_counts]
    checked, order = _echelon_verdict(p, allowed, extension_cap)
    if order is None:
        return Report(name, checked, VERIFIED)
    x, y = next((order[j], order[i])
                for i, j in enumerate(_confirmed_pivots(p, allowed, order))
                if up_counts[order[i]] != down_counts[order[j]])
    return Report(name, checked + 1, COUNTEREXAMPLE, {
        "extension": order,
        "element": x,
        "image": y,
        "covers_below_element": down_counts[x],
        "covers_above_image": up_counts[y],
    })


def verify_rowmotion(L: Lattice, extension_cap: int | None = None) -> Report:
    """Check that every linear extension's echelon map is rowmotion.

    L must be distributive (``rowmotion_distributive`` raises otherwise).
    The same prefix walk as the echelon sweep checks each pivot against
    rowmotion; at the first extension it fails on, ``_confirmed_pivots``
    gives the Bareiss pivots, and so the echelon map of the witness.
    """
    name = "echelon-equals-rowmotion"
    rm = rowmotion_distributive(L)
    p = L.poset
    allowed = [1 << y for y in rm]
    checked, order = _echelon_verdict(p, allowed, extension_cap)
    if order is None:
        return Report(name, checked, VERIFIED)
    echelon = _echelon_mapping(order, _confirmed_pivots(p, allowed, order))
    return Report(name, checked, COUNTEREXAMPLE, {
        "extension": order,
        "echelon": list(echelon),
        "rowmotion": list(rm),
    })


def _confirmed_pivots(p: Poset, allowed: list[int], order: list[int]) -> list[int]:
    """The Bareiss pivots of an extension the prefix walk failed on.

    Raises RuntimeError when they satisfy ``allowed`` everywhere: that is a
    defect of this program, not a property of the lattice.
    """
    cols = _bruhat_pivot_cols(_cartan_rows(p.down, order))
    if all(allowed[order[j]] >> order[i] & 1 for i, j in enumerate(cols)):
        raise RuntimeError(f"the prefix walk fails extension {order}, Bareiss pivoting does not")
    return cols


def verify_dilworth(L: Lattice) -> Report:
    """Multiset of lower cover counts vs upper cover counts on a modular lattice."""
    name = "cover-count-multisets"
    w = modular_witness(L)
    if w is not None:
        a, b, x = w
        return Report(name, 0, SKIPPED,
                      {"reason": "lattice is not modular", "law_failure": [a, b, x]})
    p = L.poset
    down = sorted(m.bit_count() for m in p.covers_down())
    up = sorted(m.bit_count() for m in p.covers_up())
    witness = {"down_multiset": down, "up_multiset": up}
    if down != up:
        return Report(name, 1, COUNTEREXAMPLE, witness)
    return Report(name, 1, VERIFIED, witness)


# -- isomorphism classes ---------------------------------------------------


def _equitable(cells: list[list[int]], cov_up: tuple[int, ...],
               cov_down: tuple[int, ...]) -> list[list[int]]:
    """The coarsest equitable refinement of an ordered partition.

    Splits every cell by how many upper and lower covers each of its
    elements has in each cell, the pieces in the order of those counts,
    until no cell splits.  The order comes from the counts alone, never
    from the labels, so relabelling the poset relabels the result.
    """
    base = len(cov_up) + 1  # a count is at most the number of elements
    while True:
        masks = [sum(1 << x for x in cell) for cell in cells]
        split = []
        for cell in cells:
            if len(cell) == 1:
                split.append(cell)
                continue
            pieces: dict[tuple[int, ...], list[int]] = {}
            for x in cell:
                u, d = cov_up[x], cov_down[x]
                key = tuple([(u & m).bit_count() * base + (d & m).bit_count() for m in masks])
                pieces.setdefault(key, []).append(x)
            split += [pieces[key] for key in sorted(pieces)]
        if len(split) == len(cells):
            return split
        cells = split


def canonical_form(p: Poset) -> tuple[tuple[int, ...], int]:
    """A code of the isomorphism class of p, and the order of its
    automorphism group: two posets get the same code exactly when they are
    isomorphic.

    Individualisation-refinement (McKay and Piperno, "Practical graph
    isomorphism, II", J. Symbolic Comput. 60, 2014): refine the partition
    of the elements until it is equitable (``_equitable``), then give each
    element of the first cell with more than one element a cell of its own
    in turn, ahead of the rest of that cell, and recurse.  Every step
    commutes with relabelling, so an isomorphism carries the leaves (the
    partitions into single elements) of one poset onto those of the other.
    A leaf orders the elements; the code is the least tuple of up-masks
    relabelled by that order, over all leaves, and it is itself a
    relabelling of p.

    Aut(p) acts on the leaves of the full search, and freely, since a leaf
    orders every element; two leaves give the same code exactly when an
    automorphism maps one onto the other.  So the leaves that reach the
    least code are one orbit, and their number is |Aut(p)|.  Twins, elements
    with the same strict up-set and the same strict down-set, prune that
    search: swapping two twins is an automorphism that fixes every other
    element, so it fixes the partition wherever neither twin has a cell of
    its own yet, and maps the subtree of one onto the subtree of the other,
    leaf for leaf and code for code.  The search therefore individualises
    one element of each twin class of a cell and weights that branch's
    leaves by the class's size there.  The least code is unchanged, and the
    weighted count of the leaves that reach it is the count of the full
    search, |Aut(p)|.
    """
    n = p.n
    above = [list(_bits(m)) for m in p.up]
    cov_up, cov_down = p.covers_up(), p.covers_down()
    first_twin: dict[tuple[int, int], int] = {}
    twin = [first_twin.setdefault((up ^ 1 << x, down ^ 1 << x), x)
            for x, (up, down) in enumerate(zip(p.up, p.down))]
    best: tuple[int, ...] | None = None
    automorphisms = 0
    stack = [(1, _equitable([list(range(n))], cov_up, cov_down))]
    while stack:
        weight, cells = stack.pop()
        i = next((i for i, cell in enumerate(cells) if len(cell) > 1), None)
        if i is not None:
            cell = cells[i]
            classes: dict[int, list[int]] = {}
            for x in cell:
                classes.setdefault(twin[x], []).append(x)
            for twins in classes.values():
                v = twins[0]
                stack.append((weight * len(twins), _equitable(
                    cells[:i] + [[v], [x for x in cell if x != v]] + cells[i + 1:],
                    cov_up, cov_down)))
            continue
        bit = [0] * n
        for k, (x,) in enumerate(cells):
            bit[x] = 1 << k
        code = tuple([sum([bit[y] for y in above[x]]) for (x,) in cells])
        if best is None or code < best:
            best, automorphisms = code, weight
        elif code == best:
            automorphisms += weight
    return best, automorphisms


def poset_classes(max_n: int) -> list[tuple[Poset, int]]:
    """One poset of each isomorphism class on 1 .. max_n elements, with its
    number of labelled copies, n!/|Aut|.

    Removing a maximal element from a poset leaves a poset, so each class
    on k + 1 elements is a class on k elements with a new maximal element k
    above some down-set D.  The classes on k + 1 elements are those
    children, kept when their canonical form is new; they come in the order
    of their parents, then of D as a mask, and D runs over every mask that
    holds the down-set of each of its elements.
    """
    level = [(Poset.chain(1), 1)] if max_n > 0 else []
    classes = level[:]
    for k in range(1, max_n):
        bit = 1 << k
        codes = set()
        children = []
        for p, _ in level:
            up, down = p.up, p.down
            for d in range(bit):
                if any(down[x] & ~d for x in _bits(d)):
                    continue
                child = Poset._from_masks(
                    tuple([m | bit if d >> x & 1 else m for x, m in enumerate(up)]) + (bit,),
                    down + (d | bit,))
                code, automorphisms = canonical_form(child)
                if code not in codes:
                    codes.add(code)
                    children.append((child, factorial(k + 1) // automorphisms))
        level = children
        classes += children
    return classes


# -- named lattices --------------------------------------------------------


def diamond(k: int) -> Lattice:
    """Bottom, k pairwise incomparable atoms, top.  M3 is diamond(3)."""
    n = k + 2
    top = k + 1
    covers = [(0, a) for a in range(1, k + 1)] + [(a, top) for a in range(1, k + 1)]
    return build_lattice(Poset.from_cover_pairs(n, covers))


def pentagon() -> Lattice:
    """N5, the smallest non-modular lattice."""
    covers = [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]
    return build_lattice(Poset.from_cover_pairs(5, covers))


def subspace_lattice_gf2_dim3() -> Lattice:
    """All subspaces of a 3-dimensional binary vector space, 16 elements.

    Vectors are the integers 0..7 under xor.  Modular but not distributive.
    """
    subspaces = {frozenset({0})}
    vectors = range(1, 8)
    for v in vectors:
        subspaces.add(frozenset({0, v}))
    for v in vectors:
        for w in vectors:
            if w > v:
                subspaces.add(frozenset({0, v, w, v ^ w}))
    subspaces.add(frozenset(range(8)))
    ordered = sorted(subspaces, key=lambda s: (len(s), sorted(s)))
    n = len(ordered)
    up = []
    for i, s in enumerate(ordered):
        m = 0
        for j, t in enumerate(ordered):
            if s <= t:
                m |= 1 << j
        up.append(m)
    return build_lattice(Poset(n, up))


def lattice_catalog() -> dict[str, Lattice]:
    """Named test lattices: chain products, diamonds, N5, and the GF(2)^3 subspaces."""
    chains = {
        "C2xC2": (2, 2), "C2xC3": (2, 3), "C2xC4": (2, 4), "C3xC3": (3, 3),
        "C2xC5": (2, 5), "C2xC6": (2, 6), "C3xC4": (3, 4),
    }
    catalog: dict[str, Lattice] = {}
    for name, (a, b) in chains.items():
        catalog[name] = build_lattice(poset_product(Poset.chain(a), Poset.chain(b)))
    catalog["M3"] = diamond(3)
    catalog["M4"] = diamond(4)
    catalog["M5"] = diamond(5)
    catalog["N5"] = pentagon()
    catalog["GF2_dim3_subspaces"] = subspace_lattice_gf2_dim3()
    return catalog


# -- serialization ---------------------------------------------------------


def poset_to_json_obj(p: Poset) -> dict:
    return {"n": p.n, "covers": [[x, y] for x, y in sorted(p.cover_pairs())]}


# Poset files feed ``echelon map``, and larger ones are refused before
# anything is built.  At this bound a chain, whose Cartan matrix is the
# densest, maps in about 1.6 s on a 2-vCPU machine.
POSET_FILE_MAX_N = 256


def poset_from_json_obj(obj) -> Poset:
    if not isinstance(obj, dict) or set(obj) != {"n", "covers"}:
        raise PosetError('poset JSON must be an object with keys "n" and "covers"')
    n = obj["n"]
    # bool is a subclass of int, but true is not an element label
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise PosetError('"n" must be a positive integer')
    if n > POSET_FILE_MAX_N:
        raise PosetError(f'"n" must be at most {POSET_FILE_MAX_N}, got {n}')
    if not isinstance(obj["covers"], list):
        raise PosetError('"covers" must be a list of [low, high] pairs')
    covers = []
    for pair in obj["covers"]:
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(v, int) and not isinstance(v, bool) for v in pair)):
            raise PosetError(f"bad cover entry {pair!r}")
        covers.append((pair[0], pair[1]))
    return Poset.from_cover_pairs(n, covers)


def load_poset_file(path: str) -> Poset:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except RecursionError:  # malformed input, not a fault of this program
            raise PosetError(f"{path}: JSON nests too deeply to read") from None
    return poset_from_json_obj(obj)
