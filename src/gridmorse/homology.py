"""Exact integral simplicial homology via Smith normal form.

Boundary matrices are kept sparse (dict-of-rows with a column index), and
smith_normal_form eliminates unit entries greedily with a minimum-fill
heuristic before falling back to the classical gcd-driven algorithm on the
(normally tiny) dense remainder.  Unit-pivot elimination and the dense
fallback are both unimodular, so the invariant factors of the whole matrix
are the eliminated units plus the factors of the remainder, renormalized to
a divisibility chain at the end.  All arithmetic is exact.

reduced_homology reduces the chain complex from the top dimension down and
clears as it goes (Chen & Kerber's twist, Bauer, Kerber & Reininghaus's
clear-and-compress): d_k is built only over the k-faces that were not rows
of a unit pivot taken by the heap while reducing d_{k+1}.  This is exact
over Z.  The cleared rows R and the pivot columns C of d_{k+1} span a square
block B whose elimination used only +-1 pivots, so det B = +-1 and B^{-1} is
integral.  From d_k d_{k+1} = 0 the cleared columns of d_k satisfy
d_k[:, R] = -d_k[:, R'] d_{k+1}[R', C] B^{-1}: they are integer combinations
of the kept columns R', so the column lattice, the rank and the invariant
factors of d_k do not change.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from math import gcd

from .complexes import CapacityError, SimplicialComplex

DEFAULT_HOMOLOGY_FACE_CAP = 300_000
DEFAULT_ENTRY_CAP = 50_000_000


@dataclass
class IntegerMatrix:
    nrows: int
    ncols: int
    entries: dict  # (row, col) -> nonzero int

    @classmethod
    def from_rows(cls, rows) -> "IntegerMatrix":
        entries = {}
        for r, row in enumerate(rows):
            for c, v in enumerate(row):
                if v:
                    entries[(r, c)] = v
        ncols = max((len(row) for row in rows), default=0)
        return cls(len(rows), ncols, entries)

    def nnz(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class SNFResult:
    factors: tuple  # positive invariant factors d_1 | d_2 | ... | d_r
    # rows of the unit pivots taken by the heap, in elimination order; the
    # rows reduced_homology clears from the next lower boundary matrix
    eliminated_rows: tuple = field(default=(), compare=False)

    @property
    def rank(self) -> int:
        return len(self.factors)


def _boundary_matrix(graded, s, cleared=frozenset(), entry_cap=DEFAULT_ENTRY_CAP):
    """d_s from the s-faces to the (s-1)-faces, over the s-faces whose index
    is not in `cleared`.  Kept faces are renumbered 0, 1, ... in order; rows
    keep the index of the (s-1)-face.  Signs alternate with the position of
    the omitted vertex, faces being sorted in the ground vertex order."""
    ncols = len(graded[s]) - len(cleared)
    if s * ncols > entry_cap:
        raise CapacityError("boundary matrix exceeds entry cap")
    lower_index = {f: i for i, f in enumerate(graded[s - 1])}
    entries = {}
    col = 0
    for j, face in enumerate(graded[s]):
        if j in cleared:
            continue
        for i in range(s):
            facet = face[:i] + face[i + 1:]
            entries[(lower_index[facet], col)] = 1 if i % 2 == 0 else -1
        col += 1
    return IntegerMatrix(len(graded[s - 1]), ncols, entries)


def boundary_matrices(c: SimplicialComplex, entry_cap: int = DEFAULT_ENTRY_CAP):
    """Boundary operators of the augmented chain complex, in full.

    mats[d] maps d-chains to (d-1)-chains; mats[0] is the augmentation row
    sending every vertex to the empty face.
    """
    return [_boundary_matrix(c.graded, s, entry_cap=entry_cap)
            for s in range(1, len(c.graded))]


def _dense_snf_diagonal(rows):
    """Classical Smith reduction of a dense integer matrix; returns the
    nonzero diagonal entries (not yet normalized to a divisibility chain)."""
    a = [row[:] for row in rows]
    nr = len(a)
    nc = len(a[0]) if a else 0
    diag = []
    t = 0
    while True:
        # find a pivot: smallest nonzero magnitude in the remaining block
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        for row in a:
            row[t], row[bj] = row[bj], row[t]
        while True:
            p = a[t][t]
            done = True
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // p
                    for j in range(t, nc):
                        a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        done = False
                        break
            if not done:
                continue
            for j in range(t + 1, nc):
                if a[t][j]:
                    q = a[t][j] // p
                    for i in range(t, nr):
                        a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        done = False
                        break
            if done:
                break
        # pivot now alone in its row and column; make it divide the rest
        p = a[t][t]
        offender = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(t, nc):
                a[t][j] += a[offender][j]
            continue
        diag.append(abs(p))
        t += 1
        if t >= nr or t >= nc:
            break
    return diag


def _chain_normalize(diag):
    """Fix up a diagonal multiset into the divisibility chain d_1 | d_2 | ..."""
    ones = sum(1 for x in diag if x == 1)
    d = sorted(x for x in diag if x > 1)
    changed = True
    while changed:
        changed = False
        for i in range(len(d)):
            for j in range(i + 1, len(d)):
                if d[j] % d[i]:
                    g = gcd(d[i], d[j])
                    l = d[i] * d[j] // g
                    d[i], d[j] = g, l
                    changed = True
        d.sort()
    return (1,) * ones + tuple(d)


def smith_normal_form(M: IntegerMatrix) -> SNFResult:
    """Invariant factors of an integer matrix."""
    rows = {}
    cols = {}
    for (r, c), v in M.entries.items():
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, set()).add(r)

    eliminated_rows = []
    loose_diagonal = []
    heap = []

    def score(r, c):
        return (len(rows[r]) - 1) * (len(cols[c]) - 1)

    for r, row in rows.items():
        for c, v in row.items():
            if v in (1, -1):
                heapq.heappush(heap, (score(r, c), r, c))

    def eliminate(r, c):
        eps = rows[r][c]  # +1 or -1
        pivot_row = [(c2, v2) for c2, v2 in rows[r].items() if c2 != c]
        for r2 in list(cols[c]):
            if r2 == r:
                continue
            mult = rows[r2][c] * eps
            row2 = rows[r2]
            for c2, v2 in pivot_row:
                newv = row2.get(c2, 0) - mult * v2
                if newv:
                    if c2 not in row2:
                        cols[c2].add(r2)
                        if newv in (1, -1):
                            heapq.heappush(heap, (score(r2, c2), r2, c2))
                    else:
                        if newv in (1, -1) and row2[c2] not in (1, -1):
                            heapq.heappush(heap, (score(r2, c2), r2, c2))
                    row2[c2] = newv
                else:
                    if c2 in row2:
                        del row2[c2]
                        cols[c2].discard(r2)
            del row2[c]
            cols[c].discard(r2)
            if not row2:
                del rows[r2]
        for c2, _ in pivot_row:
            cols[c2].discard(r)
            if not cols[c2]:
                del cols[c2]
        del rows[r]
        del cols[c]
        eliminated_rows.append(r)

    # Lazy heap with slack: a popped pivot is taken unless its current fill
    # score has drifted well past the heap minimum, which keeps the pivot
    # order near minimum-fill without endless reinsertion churn.
    while heap:
        s0, r, c = heapq.heappop(heap)
        if r not in rows or c not in rows[r]:
            continue
        if rows[r][c] not in (1, -1):
            continue
        s = score(r, c)
        if heap and s > 2 * max(heap[0][0], s0) + 8:
            heapq.heappush(heap, (s, r, c))
            continue
        eliminate(r, c)

    # peel off entries that are alone in both their row and column
    for r in list(rows):
        if r not in rows or len(rows[r]) != 1:
            continue
        c, v = next(iter(rows[r].items()))
        if len(cols[c]) == 1:
            loose_diagonal.append(abs(v))
            del rows[r]
            del cols[c]

    diag = [1] * len(eliminated_rows) + loose_diagonal
    if rows:
        live_rows = sorted(rows)
        live_cols = sorted({c for row in rows.values() for c in row})
        col_pos = {c: i for i, c in enumerate(live_cols)}
        dense = [[0] * len(live_cols) for _ in live_rows]
        for i, r in enumerate(live_rows):
            for c, v in rows[r].items():
                dense[i][col_pos[c]] = v
        diag.extend(_dense_snf_diagonal(dense))
    return SNFResult(_chain_normalize(diag), tuple(eliminated_rows))


@dataclass
class HomologyReport:
    betti: dict     # dimension -> reduced Betti rank
    torsion: dict   # dimension -> tuple of invariant factors > 1
    euler: int

    def to_json(self) -> dict:
        dims = sorted(set(self.betti) | set(self.torsion))
        return {"dims": [{"d": d, "betti": self.betti.get(d, 0),
                          "torsion": list(self.torsion.get(d, ()))}
                         for d in dims],
                "euler": self.euler}

    def betti_profile(self) -> dict:
        return {d: b for d, b in self.betti.items() if b}

    def has_torsion(self) -> bool:
        return any(self.torsion.values())


def reduced_homology(c: SimplicialComplex,
                     face_cap: int = DEFAULT_HOMOLOGY_FACE_CAP) -> HomologyReport:
    """Reduced Betti ranks and torsion of every dimension of c.

    b~_d = f_d - rank d_d - rank d_{d+1}, torsion in dimension d from the
    invariant factors of d_{d+1} exceeding one.  The boundary matrices are
    reduced from the top dimension down, each built without the columns
    cleared by the unit pivots of the one above it; clearing keeps every
    rank and invariant factor exact (see the module docstring).
    """
    total = c.num_faces()
    if total > face_cap:
        raise CapacityError("complex with %d faces exceeds homology cap %d"
                            % (total, face_cap))
    graded = c.graded
    snfs = [None] * (len(graded) - 1)  # snfs[s - 1] reduces d_s
    cleared = frozenset()
    for s in range(len(graded) - 1, 0, -1):
        snfs[s - 1] = smith_normal_form(_boundary_matrix(graded, s, cleared))
        cleared = frozenset(snfs[s - 1].eliminated_rows)
    ranks = [snf.rank for snf in snfs] + [0]
    betti, torsion = {}, {}
    top = len(graded) - 2
    for d in range(0, top + 1):
        f_d = len(graded[d + 1])
        betti[d] = f_d - ranks[d] - ranks[d + 1]
        if d + 1 < len(snfs):
            tors = tuple(x for x in snfs[d + 1].factors if x > 1)
            if tors:
                torsion[d] = tors
    euler = sum(b if d % 2 == 0 else -b for d, b in betti.items())
    return HomologyReport(betti, torsion, euler)


def morse_inequality_check(census, report: HomologyReport) -> bool:
    """Weak Morse inequalities b~_d <= C^d plus equality of the alternating
    sums, with both sides in the reduced dimension-0 convention."""
    dims = set(census.counts) | set(report.betti)
    for d in dims:
        if report.betti.get(d, 0) > census.counts.get(d, 0):
            return False
    cells_euler = sum(c if d % 2 == 0 else -c for d, c in census.counts.items())
    return cells_euler == report.euler


def torsion_scan(m: int, n_range, face_cap: int = DEFAULT_HOMOLOGY_FACE_CAP):
    """Torsion report for the comb-graph complexes over a range of n.
    Returns a list of (n, result) where result is a torsion dict or a
    skip-reason string for instances over the cap."""
    from .complexes import count_independent_sets, independence_complex
    from .graphs import build_graph

    out = []
    for n in n_range:
        g = build_graph("delta", m=m, n=n)
        count = count_independent_sets(g, cap=face_cap)
        if count > face_cap:
            out.append((n, "skipped: more than %d faces" % face_cap))
            continue
        report = reduced_homology(independence_complex(g), face_cap)
        out.append((n, dict(report.torsion)))
    return out
