"""Exact integral simplicial homology via Smith normal form.

Boundary matrices are kept sparse (dict-of-rows with a column index); the
facets of a vertex-bitmask face are the face with one bit cleared.
smith_normal_form is one sparse elimination: it takes unit pivots in
sweeps over the columns in index order, then finishes whatever the units
leave with Euclid steps (division with remainder) on the same sparse rows.
Every step is unimodular, so the invariant factors of the matrix are the unit
pivots and the isolated Euclid pivots, renormalized to a divisibility chain
at the end.  All arithmetic is exact.

reduced_homology reduces the chain complex from the top dimension down and
clears as it goes (Chen & Kerber's twist, Bauer, Kerber & Reininghaus's
clear-and-compress): d_k is built only over the k-faces that were not rows
of a unit pivot taken by the sweeps while reducing d_{k+1}.  This is exact
over Z.  The cleared rows R and the pivot columns C of d_{k+1} span a square
block B whose elimination used only +-1 pivots, so det B = +-1 and B^{-1} is
integral.  From d_k d_{k+1} = 0 the cleared columns of d_k satisfy
d_k[:, R] = -d_k[:, R'] d_{k+1}[R', C] B^{-1}: they are integer combinations
of the kept columns R', so the column lattice, the rank and the invariant
factors of d_k do not change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .complexes import CapacityError, SimplicialComplex, independence_complex
from .graphs import build_graph

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
    # rows of the unit pivots taken by the sweeps, in elimination order;
    # the rows reduced_homology clears from the next lower boundary matrix
    eliminated_rows: tuple = field(default=(), compare=False)

    @property
    def rank(self) -> int:
        return len(self.factors)


def _boundary_matrix(graded, s, cleared=frozenset()):
    """d_s from the s-faces to the (s-1)-faces, over the s-faces whose index
    is not in `cleared`.  Kept faces are renumbered 0, 1, ... in order; rows
    keep the index of the (s-1)-face.  The facets of a face are face ^ low
    for its vertex bits low in increasing order, with alternating signs."""
    ncols = len(graded[s]) - len(cleared)
    if s * ncols > DEFAULT_ENTRY_CAP:
        raise CapacityError("boundary matrix with %d entries exceeds entry cap %d"
                            % (s * ncols, DEFAULT_ENTRY_CAP))
    lower_index = {f: i for i, f in enumerate(graded[s - 1])}
    entries = {}
    col = 0
    for j, face in enumerate(graded[s]):
        if j in cleared:
            continue
        sign, rest = 1, face
        while rest:
            low = rest & -rest
            rest ^= low
            entries[(lower_index[face ^ low], col)] = sign
            sign = -sign
        col += 1
    return IntegerMatrix(len(graded[s - 1]), ncols, entries)


def boundary_matrices(c: SimplicialComplex):
    """Boundary operators of the augmented chain complex, in full.

    mats[d] maps d-chains to (d-1)-chains; mats[0] is the augmentation row
    sending every vertex to the empty face.
    """
    return [_boundary_matrix(c.graded, s) for s in range(1, len(c.graded))]


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
    """Invariant factors of an integer matrix.

    Unit pivots are eliminated first, in sweeps over the columns in index
    order: each column is eliminated at its shortest row holding a +-1,
    and the sweeps repeat until one takes no pivot.  The rest is reduced
    by Euclid steps: the pivot becomes the smallest entry of its column and
    clears the column mod itself by row operations, then, alone in its
    column, clears its row mod itself by column operations.
    Only the rows of the swept unit pivots are reported as eliminated_rows,
    the rows reduced_homology may clear.
    """
    rows = {}
    cols = {}
    for (r, c), v in M.entries.items():
        if v:
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, set()).add(r)

    eliminated_rows = []

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

    # Fill can create units in columns already passed, hence the repeats.
    swept = True
    while swept:
        swept = False
        for c in sorted(cols):
            if c not in cols:
                continue
            units = [r for r in cols[c] if rows[r][c] in (1, -1)]
            if units:
                eliminate(min(units, key=lambda r: (len(rows[r]), r)), c)
                swept = True

    # Euclid steps on what the sweeps left.  Column operations by p's column
    # change only p's row once p is alone in its column.  Each pass takes a
    # strictly smaller pivot, so p ends isolated: one diagonal entry.
    diag = [1] * len(eliminated_rows)
    while rows:
        r = min(rows)
        c = min(rows[r], key=lambda c2: abs(rows[r][c2]))
        while True:
            r = min(cols[c], key=lambda r2: abs(rows[r2][c]))
            p = rows[r][c]
            for r2 in list(cols[c]):
                if r2 == r:
                    continue
                row2 = rows[r2]
                q = row2[c] // p
                for c2, v in rows[r].items():
                    newv = row2.get(c2, 0) - q * v
                    if newv:
                        row2[c2] = newv
                        cols[c2].add(r2)
                    else:
                        del row2[c2]
                        cols[c2].discard(r2)
                if not row2:
                    del rows[r2]
            if len(cols[c]) > 1:
                continue
            row = rows[r]
            for c2 in list(row):
                if c2 != c:
                    row[c2] %= p
                    if not row[c2]:
                        del row[c2]
                        cols[c2].discard(r)
            if len(row) == 1:
                break
            c = min((c2 for c2 in row if c2 != c), key=lambda c2: abs(row[c2]))
        diag.append(abs(p))
        del rows[r]
        del cols[c]
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
    return census.euler() == report.euler


def torsion_scan(m: int, n_range, face_cap: int = DEFAULT_HOMOLOGY_FACE_CAP):
    """Torsion report for the comb-graph complexes over a range of n.
    Returns a list of (n, result) where result is a torsion dict or a
    skip-reason string for instances over the cap."""
    out = []
    for n in n_range:
        try:
            cx = independence_complex(build_graph("delta", m=m, n=n), face_cap)
        except CapacityError:
            out.append((n, "skipped: more than %d faces" % face_cap))
            continue
        out.append((n, dict(reduced_homology(cx, face_cap).torsion)))
    return out
