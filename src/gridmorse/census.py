"""Closed-form cell censuses for the comb-graph Morse complexes.

The table C[n][d] counts critical d-cells for fixed tendril count m, with
the dimension-0 entries reduced by the paired base cell.  Rows 0..3 are
seeded explicitly; later rows follow the recursion

    C[n][d] = C[n-3][d-2] + C[n-4][d-m-1] + C[n-3][d-m]

with out-of-range terms read as zero.  Everything is exact integer
arithmetic; entries grow exponentially in n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from operator import add

from .graphs import _check_sizes


@dataclass
class CensusTable:
    m: int
    rows: list  # rows[n] = list of counts indexed by dimension

    @property
    def n_max(self) -> int:
        return len(self.rows) - 1

    def value(self, n: int, d: int) -> int:
        if n < 0 or d < 0 or n >= len(self.rows) or d >= len(self.rows[n]):
            return 0
        return self.rows[n][d]

    def nonzero(self):
        for n, row in enumerate(self.rows):
            for d, c in enumerate(row):
                if c:
                    yield n, d, c

    def row_counts(self, n: int) -> dict:
        return {d: c for d, c in enumerate(self.row(n)) if c}

    def row(self, n: int) -> list:
        """Row n, for 0 <= n <= n_max; a negative n does not count from the
        end, and an n that is not an int raises ValueError."""
        _check_sizes(n=n)
        if n < 0 or n > self.n_max:
            raise ValueError("row %d not in table" % n)
        return self.rows[n]

    def to_csv_rows(self):
        for n, d, c in self.nonzero():
            yield "%d,%d,%d,%d" % (self.m, n, d, c)

    def to_json(self) -> dict:
        keys = [str(d) for d in range(max(map(len, self.rows), default=0))]
        return {"m": self.m, "n_max": self.n_max,
                "rows": [dict(compress(zip(keys, row), row))
                         for row in self.rows]}


@dataclass(frozen=True)
class DimensionBounds:
    d_min: int
    d_max: int


def census_seed(m: int) -> CensusTable:
    """Rows n = 0..3 of the census table."""
    _check_sizes(m=m)
    if m < 2:
        raise ValueError("requires m >= 2")
    # at m = 2 the two cells of row 1, and of row 3, coincide and add up
    row1 = [0] * m
    row1[1] += 1
    row1[m - 1] += 1
    row2 = [0] * (m + 1)
    row2[m] = 1
    row3 = [0] * (m + 1)
    row3[2] += 1
    row3[m] += 1
    return CensusTable(m, [[1], row1, row2, row3])


def census_extend(table: CensusTable, n_max: int) -> CensusTable:
    """Rows 0..n_max: the given rows, then the three-term recursion read as
    shifted row sums, row_n = x^2 row_{n-3} + x^m row_{n-3} + x^(m+1) row_{n-4},
    where row_k is the polynomial sum_d C[k][d] x^d."""
    _check_sizes(n_max=n_max)
    if n_max < 0:
        raise ValueError("requires n_max >= 0")
    m = table.m
    rows = [list(r) for r in table.rows[:n_max + 1]]
    if len(rows) < min(n_max + 1, 4):
        raise ValueError("the recursion needs the seed rows 0..3")
    for n in range(len(rows), n_max + 1):
        r3, r4 = rows[n - 3], rows[n - 4]
        width = max(len(r3) + m, len(r4) + m + 1)
        # each shifted row zero-padded to the same width
        x2, xm, xm1 = ([0] * shift + src + [0] * (width - shift - len(src))
                       for shift, src in ((2, r3), (m, r3), (m + 1, r4)))
        row = list(map(add, map(add, x2, xm), xm1))
        while row and row[-1] == 0:
            row.pop()
        rows.append(row)
    return CensusTable(m, rows)


def census_table(m: int, n_max: int) -> CensusTable:
    """Rows 0..n_max of the census table for m tendrils."""
    return census_extend(census_seed(m), n_max)


def euler_from_table(table: CensusTable, n: int) -> int:
    row = table.row(n)
    return sum(row[0::2]) - sum(row[1::2])


def euler_recursion(m: int, n: int, history) -> int:
    """Euler characteristic by the parity-split recursion
    chi[n] = (1 + (-1)^m) chi[n-3] + (-1)^(m+1) chi[n-4] for n >= 4;
    rows n <= 3 come from the seed table."""
    _check_sizes(m=m, n=n)
    if m < 2:
        raise ValueError("requires m >= 2")
    if n <= 3:
        return euler_from_table(census_seed(m), n)
    try:
        c3, c4 = history[n - 3], history[n - 4]
    except KeyError:
        raise ValueError("history must contain entries %d and %d" % (n - 3, n - 4))
    sign = -1 if m % 2 else 1
    return (1 + sign) * c3 + (-sign) * c4


_EVEN_EULER = [1, -2, 1]  # a[0..] of euler_closed_form for even m, grown on demand


def euler_closed_form(m: int, n: int) -> int:
    """Even m: the recursion a[n] = a[n-3] - a[n-2] - a[n-1] from seeds
    1, -2, 1, kept in one list that every call extends as far as it reads,
    so walking n = 0..N costs O(N).  Odd m: period four from seeds 1, 0,
    -1, 0.

    (The odd seed at n = 3 follows from the n = 3 census row, whose two
    cells sit in dimensions 2 and m and cancel; it is also confirmed by
    direct enumeration of the complexes.)
    """
    _check_sizes(m=m, n=n)
    if m < 2:
        raise ValueError("requires m >= 2")
    if n < 0:
        raise ValueError("requires n >= 0")
    if m % 2 == 1:
        return (1, 0, -1, 0)[n % 4]
    seq = _EVEN_EULER
    while len(seq) <= n:
        seq.append(seq[-3] - seq[-2] - seq[-1])
    return seq[n]


@lru_cache(maxsize=None)
def riordan_T(j: int, k: int) -> int:
    """Doubly indexed array with T(j,k) = 2 T(j-1,k) + T(j-1,k-1), pinned
    values T(0,0)=1, T(1,0)=0, T(2,0)=1, and T(j,k)=0 for k<0 or j<k."""
    if k < 0 or j < k:
        return 0
    if (j, k) == (0, 0):
        return 1
    if (j, k) == (1, 0):
        return 0
    if (j, k) == (2, 0):
        return 1
    return 2 * riordan_T(j - 1, k) + riordan_T(j - 1, k - 1)


def riordan_identity_check(n_max: int) -> bool:
    """For m = 2: every table entry equals T(n-d+2, 3d-2n); the reduced
    recursion C[n][d] = 2 C[n-3][d-2] + C[n-4][d-3] reproduces the table;
    and the inverse indexing T(j,k) = C[2(j-2)+k][3(j-2)+k] holds."""
    table = census_table(2, n_max)
    for n in range(n_max + 1):
        width = len(table.rows[n]) + 2
        for d in range(width):
            if table.value(n, d) != riordan_T(n - d + 2, 3 * d - 2 * n):
                return False
        if n >= 4:
            for d in range(width):
                alt = 2 * table.value(n - 3, d - 2) + table.value(n - 4, d - 3)
                if table.value(n, d) != alt:
                    return False
    # inverse indexing: the forward map (n, d) -> (n-d+2, 3d-2n) inverts to
    # n = 3(j-2)+k, d = 2(j-2)+k
    for j in range(0, (n_max + 6) // 3 + 3):
        for k in range(0, j + 1):
            n = 3 * (j - 2) + k
            d = 2 * (j - 2) + k
            if not (0 <= n <= n_max) or d < 0:
                continue
            if riordan_T(j, k) != table.value(n, d):
                return False
    return True


def dimension_bounds(m: int, n: int) -> DimensionBounds:
    """Support window for row n: entries outside [d_min, d_max] vanish
    (base 0-cell aside).  The two d_min branches coincide when m = 2."""
    _check_sizes(m=m, n=n)
    if m < 2 or n < 0:
        raise ValueError("requires m >= 2 and n >= 0")
    if n % 3 in (0, 1):
        d_min = (2 * n + 2) // 3
    else:
        d_min = 2 * ((n - 1) // 3) + m
    if m == 2:
        d_max = (3 * n + 2) // 4
    else:
        d_max = n + 1 + (m - 3) * ((n + 2) // 3)
    return DimensionBounds(d_min, d_max)


def low_homology_prediction(m: int, n: int):
    """Predicted rank of the lowest potentially nonzero homology group, at
    dimension floor((2n+2)/3): rank one when n = 3k or 3k+1, zero when
    n = 3k+2.  The supporting census facts (a single cell at that dimension
    and none right above it, or none at all) are re-derived from
    census_table(m, n) and checked before returning (dimension, rank)."""
    _check_sizes(m=m, n=n)
    if m < 4:
        raise ValueError("requires m >= 4")
    if n < 0:
        raise ValueError("requires n >= 0")
    d_n = (2 * n + 2) // 3
    table = census_table(m, n)
    if n % 3 in (0, 1):
        rank = 1
        if table.value(n, d_n) != 1 or table.value(n, d_n + 1) != 0:
            raise RuntimeError("census does not support the rank-one claim at "
                               "(m=%d, n=%d)" % (m, n))
    else:
        rank = 0
        if table.value(n, d_n) != 0:
            raise RuntimeError("census does not support the trivial-rank claim "
                               "at (m=%d, n=%d)" % (m, n))
    return d_n, rank


def observation_scan(n_max: int = 99):
    """Rank-excess scan of the m = 2 table: at dimension
    delta = floor((9n+9)/13), test whether the chain rank exceeds the sum of
    its two neighbors.  Returns (holds, exceptions), partitioning 0..n_max."""
    table = census_table(2, n_max)
    holds, exceptions = [], []
    for n in range(n_max + 1):
        delta = (9 * n + 9) // 13
        excess = table.value(n, delta) > (table.value(n, delta - 1)
                                          + table.value(n, delta + 1))
        (holds if excess else exceptions).append(n)
    return holds, exceptions
