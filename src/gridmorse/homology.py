"""Exact integral simplicial homology via Smith normal form.

There are two routes to a complex's reduced homology, and the report names
the one taken.  The full route, "full-snf" (full_homology), reduces the
boundary matrices over every face of a complex; it shares no code with the
matching trees and is the oracle for the other route.  The Morse route,
"morse-tree" (morse_homology), grows a matching tree on a graph by the one
pivot rule, comb.PIVOT_RULE, and builds the Morse complex on its critical
cells.  A face's partner comes from morse's partner walk down the compiled
tree (morse owns the meaning of each Free, Match and Split step), and the
Morse boundary is the simplicial boundary pushed through the gradient
flow, memoised per dimension pair and followed only along the facets that
leave a pairing site, with the incidence signs
(-1)^popcount(face & (u - 1)) of the boundary matrices below.  The flow
runs only on the reach R of the critical cells one dimension down, the
faces with a gradient path to one, found first by a backward search; every
other face has flow 0.  Where no facet of a critical cell lies in R, the
differential is zero and no flow runs.  Its matrices, a few critical cells
wide, go to the same smith_normal_form.  It reads no face of the complex,
so its face cap bounds R, whose entries are faces, and not the complex:
each R is refused past the cap before its pair's flow runs.
reduced_homology takes the Morse route on the graph of a complex with one
(every independence and matching complex) and the full route for one
without (from_facets, join).  Either report lists the nonzero groups.

Boundary matrices are kept sparse (dict-of-rows with a column index); the
facets of a vertex-bitmask face are the face with one bit cleared.
smith_normal_form is one sparse elimination: it takes unit pivots in
sweeps over the columns in index order, then finishes whatever the units
leave with Euclid steps (division with remainder) on the same sparse rows.
Every step is unimodular, so the invariant factors of the matrix are the unit
pivots and the isolated Euclid pivots, renormalized to a divisibility chain
at the end.  All arithmetic is exact.

The full route reduces the chain complex from the top dimension down and
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

from .comb import PIVOT_RULE
from .complexes import CapacityError, SimplicialComplex, _bits
from .graphs import Graph, _check_sizes
from .morse import MatchingTreeError, _partner_walk, critical_cells, run_strategy

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
    # the rows full_homology clears from the next lower boundary matrix
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
    """Fix up a diagonal multiset into the divisibility chain d_1 | d_2 | ...

    One ordered sweep of (d_i, d_j) <- (gcd, lcm) over i < j suffices: d_i
    only shrinks to a divisor of itself, and every later pair it is not in
    is replaced by the gcd and lcm of two multiples of d_i."""
    ones = sum(1 for x in diag if x == 1)
    d = sorted(x for x in diag if x > 1)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if d[j] % d[i]:
                g = gcd(d[i], d[j])
                d[i], d[j] = g, d[i] * d[j] // g
    return (1,) * ones + tuple(d)


def smith_normal_form(M: IntegerMatrix) -> SNFResult:
    """Invariant factors of an integer matrix.

    Unit pivots are eliminated first, in sweeps over the columns in index
    order: each column is eliminated at its shortest row holding a +-1,
    and the sweeps repeat until one takes no pivot.  The rest is reduced
    by Euclid steps: the pivot becomes the smallest entry of its column and
    clears the column mod itself by row operations, then, alone in its
    column, clears its row mod itself by column operations.  Both phases
    clear a column by the same row step, clear_column; a unit pivot's row
    is then dropped.  Only the rows of the swept unit pivots are reported
    as eliminated_rows, the rows full_homology may clear.
    """
    rows = {}
    cols = {}
    for (r, c), v in M.entries.items():
        if v:
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, set()).add(r)

    eliminated_rows = []

    def clear_column(r, c):
        """Leave every other row of column c its remainder mod rows[r][c]
        (zero for a unit pivot) by subtracting multiples of row r."""
        p = rows[r][c]
        pivot_row = list(rows[r].items())
        for r2 in list(cols[c]):
            if r2 == r:
                continue
            row2 = rows[r2]
            q = row2[c] // p  # nonzero, since |p| <= |row2[c]|
            for c2, v in pivot_row:
                newv = row2.get(c2, 0) - q * v
                if newv:
                    if c2 not in row2:
                        cols[c2].add(r2)
                    row2[c2] = newv
                else:
                    del row2[c2]
                    cols[c2].discard(r2)
            if not row2:
                del rows[r2]

    # Fill can create units in columns already passed, hence the repeats.
    swept = True
    while swept:
        swept = False
        for c in sorted(cols):
            if c not in cols:
                continue
            units = [r for r in cols[c] if rows[r][c] in (1, -1)]
            if units:
                r = min(units, key=lambda r2: (len(rows[r2]), r2))
                clear_column(r, c)
                for c2 in rows.pop(r):
                    cols[c2].discard(r)
                    if not cols[c2]:
                        del cols[c2]
                eliminated_rows.append(r)
                swept = True

    # Euclid steps on what the sweeps left.  Column operations by p's column
    # change only p's row once p is alone in its column.  Each pass takes a
    # strictly smaller pivot, so p ends isolated: one diagonal entry.  A
    # pass that does not shrink the pivot is a broken row step, and raises
    # rather than loop.
    diag = [1] * len(eliminated_rows)
    while rows:
        r = min(rows)
        c = min(rows[r], key=lambda c2: abs(rows[r][c2]))
        bound = abs(rows[r][c]) + 1
        while True:
            r = min(cols[c], key=lambda r2: abs(rows[r2][c]))
            p = rows[r][c]
            if abs(p) >= bound:
                raise RuntimeError("Euclid pivot %d did not shrink below %d"
                                   % (abs(p), bound))
            bound = abs(p)
            clear_column(r, c)
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
    betti: dict     # dimension -> reduced Betti rank, nonzero ranks only
    torsion: dict   # dimension -> tuple of invariant factors > 1
    euler: int
    route: str = "full-snf"   # or "morse-tree"

    def to_json(self) -> dict:
        dims = sorted(set(self.betti) | set(self.torsion))
        return {"dims": [{"d": d, "betti": self.betti.get(d, 0),
                          "torsion": list(self.torsion.get(d, ()))}
                         for d in dims],
                "euler": self.euler, "route": self.route}

    def betti_profile(self) -> dict:
        return dict(self.betti)


def reduced_homology(c: SimplicialComplex,
                     face_cap: int = DEFAULT_HOMOLOGY_FACE_CAP) -> HomologyReport:
    """Reduced Betti ranks and torsion of c, by the Morse route on c.graph
    (morse_homology, which reads no face of c) for a complex with a graph
    (an independence or matching complex), else by full_homology.  Such a
    complex is counted at construction and listed on first read of
    c.graded, so this route lists none of its faces.  face_cap bounds the
    route taken: the reach R of the Morse flow, or the complex's face
    count."""
    if c.graph is None:
        return full_homology(c, face_cap)
    return morse_homology(c.graph, face_cap)


def full_homology(c: SimplicialComplex,
                  face_cap: int = DEFAULT_HOMOLOGY_FACE_CAP) -> HomologyReport:
    """Reduced homology of c by the full route, "full-snf", over every face,
    graph or no graph: b~_d = f_d - rank d_d - rank d_{d+1}, torsion in
    dimension d from the invariant factors of d_{d+1} exceeding one.  The
    boundary matrices are reduced from the top dimension down, each built
    without the columns cleared by the unit pivots of the one above it;
    clearing keeps every rank and invariant factor exact (see the module
    docstring).  It shares no code with the matching trees, so it is the
    oracle for the Morse route.  A complex of more than face_cap faces is
    refused, before any face is listed when num_faces reads a count, and a
    face_cap that is not an int raises ValueError.
    """
    _check_sizes(face_cap=face_cap)
    total = c.num_faces()
    if total > face_cap:
        raise CapacityError("complex with %d faces exceeds homology cap %d"
                            % (total, face_cap))
    graded = c.graded
    snfs = {}  # snfs[s - 1] reduces d_s, from the (s-1)-dimensional faces
    cleared = frozenset()
    for s in range(len(graded) - 1, 0, -1):
        snfs[s - 1] = smith_normal_form(_boundary_matrix(graded, s, cleared))
        cleared = frozenset(snfs[s - 1].eliminated_rows)
    return _report([len(fs) for fs in graded[1:]], snfs, "full-snf")


def _report(counts, snfs, route):
    """The groups of a chain complex with counts[d] cells in dimension d,
    from d = 0 up, and snfs[d] reducing the boundary from dimension d where
    it is nonzero: b~_d = c_d - rank d_d - rank d_{d+1}, and the torsion in
    dimension d is the invariant factors of d_{d+1} exceeding one.  Only the
    nonzero groups are kept."""
    rank = {d: snf.rank for d, snf in snfs.items()}
    betti, torsion = {}, {}
    for d, c in enumerate(counts):
        b = c - rank.get(d, 0) - rank.get(d + 1, 0)
        if b:
            betti[d] = b
        if d + 1 in snfs:
            tors = tuple(x for x in snfs[d + 1].factors if x > 1)
            if tors:
                torsion[d] = tors
    euler = sum(b if d % 2 == 0 else -b for d, b in betti.items())
    return HomologyReport(betti, torsion, euler, route)


def _incidence(face, u):
    """[face : face ^ u] for a vertex bit u of face: (-1) to the number of
    vertices of face below u, as in _boundary_matrix."""
    return -1 if (face & (u - 1)).bit_count() & 1 else 1


def morse_homology(g: Graph,
                   face_cap: int = DEFAULT_HOMOLOGY_FACE_CAP) -> HomologyReport:
    """Reduced homology of the independence complex of g, read off the Morse
    complex of the matching tree that PIVOT_RULE grows on g (Forman 1998;
    Skoldberg 2006), without enumerating the complex.

    The chain groups are spanned by the critical cells, the A-sets of the
    terminal leaves.  The partner of a face comes from one walk down the
    compiled tree, morse._partner_walk, with the A-set of the site that
    pairs it; the walk is compiled only when two adjacent dimensions both
    have critical cells, for otherwise every Morse differential is zero.
    The Morse boundary of a critical d-cell s is sum [s : t] flow(t) over
    its facets t, where flow(t) is t for a critical t, 0 for an upper face
    t, and for t paired up with s' at a site with A-set A the sum of
    -[s' : r][s' : t] flow(r) over the facets r = s' ^ u of s' with u in A.
    The other facets r of s', u in t but not in A, are upper faces of the
    same site (the partner walk reaches that site with r as with s', and
    there pairs r with r ^ p), so their flow is 0 and the flow neither
    visits nor memoises them.  Both sums are one facet_sum over the
    memoised flows, which skips a zero flow before its sign.  Incidences
    are [f : f ^ u] = (-1)^popcount(f & (u - 1)), the convention of
    _boundary_matrix.

    A flow is nonzero only on the reach R of the critical (d-1)-cells: the
    (d-1)-faces with a gradient path to one.  So each dimension pair first
    grows R by a backward search from those cells (_gradient_reach), and
    the flow, memoised on an explicit stack, runs only on faces of R and
    reads every other face as 0.  R is charged against face_cap as it
    grows, and CapacityError is raised past it before the pair's flow
    runs; the memo, a subset of R, needs no cap of its own.  When no facet of a
    critical d-cell lies in R, no flow runs at all and the differential is
    zero.  The Morse boundary matrices then go to smith_normal_form, whose
    ranks and invariant factors give the groups as in full_homology.  The
    report lists the nonzero groups; a critical empty face counts in
    dimension -1, which is not reported, as in the full route.

    The gradient paths are finite, so the recursion ends, because the
    matching is acyclic.  Each Split(v), and each Match(p, v) as it sends
    the faces with v to its child, is a poset map from the faces below it
    to {0 < 1} (is v in the face?).  Each Free(p) site, and each Match site
    on its faces without v, is an element matching: it pairs a face with
    the face ^ 1 << p, and the step check, which run_strategy runs once
    per residual, makes this stay in the fibre, for p lies
    outside A and B and has no neighbour outside them but v.  Those
    are exactly the hypotheses of Jonsson's cluster lemma (Simplicial
    Complexes of Graphs, 2008), so the union of the element matchings is
    acyclic.  verify_acyclic checks it on the face poset up to the face
    caps, and a gradient cycle met on the stack raises MatchingTreeError.
    A face_cap that is not an int raises ValueError.
    """
    _check_sizes(face_cap=face_cap)
    tree = run_strategy(g, PIVOT_RULE)
    cells = {}
    for face in critical_cells(tree):
        cells.setdefault(face.bit_count() - 1, []).append(face)
    top = max(cells, default=-1)
    pairs = [d for d in range(top, -1, -1) if d in cells and d - 1 in cells]
    partner = _partner_walk(tree) if pairs else None
    snfs = {d: smith_normal_form(_morse_boundary(
                cells[d], cells[d - 1], partner, g.nbr, face_cap))
            for d in pairs}
    return _report([len(cells.get(d, ())) for d in range(top + 1)], snfs,
                   "morse-tree")


def _gradient_reach(lower, partner, nbr, face_cap):
    """R: the faces with a gradient path to a cell of `lower`, the cells
    themselves included, found by a backward search (the dual of
    coreduction; Mrozek & Batko 2009, and Harker, Mischaikow, Mrozek & Nanda
    2014 for Morse reductions).  A face r of R is reached from the lower
    face t of a pair (t, s) when r is a facet s ^ w of the upper face s
    that drops a vertex w of the site's A-set, the facets the flow of t
    follows.  So for each r in R and each vertex w outside r and its
    neighbourhood (nbr[i] is the bitmask of vertex i's neighbours), the
    partner walk is asked about s = r | w.  Past face_cap faces it raises
    CapacityError."""
    full = (1 << len(nbr)) - 1
    reach = set(lower)
    todo = list(lower)
    while todo:
        if len(reach) > face_cap:
            raise CapacityError("Morse flow reach exceeds face cap %d" % face_cap)
        r = todo.pop()
        free = full & ~r
        for i in _bits(r):
            free &= ~nbr[i]
        while free:
            w = free & -free
            free ^= w
            s = r | w
            site = partner(s)
            if site is not None:
                t, a = site
                if t < s and w & a and t != r and t not in reach:
                    reach.add(t)
                    todo.append(t)
    return reach


def _morse_boundary(upper, lower, partner, nbr, face_cap):
    """The Morse boundary matrix from the critical cells `upper` (columns)
    to the critical cells `lower` (rows) one dimension down.  The flow runs
    only on the reach R of `lower` (_gradient_reach, over the graph's
    neighbourhoods nbr), which holds critical cells and lower faces alone;
    a face outside R has flow 0 and never enters the memo."""
    row = {f: i for i, f in enumerate(lower)}
    reach = _gradient_reach(lower, partner, nbr, face_cap)
    memo = {}
    opened = {}  # faces whose flow waits on the flows of their partner's facets

    def facet_sum(cell, bits, scale):
        """The nonzero terms of the sum of scale * [cell : cell ^ u] times
        the memoised flow of cell ^ u, over the vertex bits u of bits; a
        face outside R has no memo entry, and flow 0."""
        chain = {}
        while bits:
            u = bits & -bits
            bits ^= u
            terms = memo.get(cell ^ u)
            if terms:
                c = scale * _incidence(cell, u)
                for k, x in terms.items():
                    chain[k] = chain.get(k, 0) + c * x
        return {k: x for k, x in chain.items() if x}

    def flow(tau):
        """Memoise the flow of tau, a face of R, and of every face of R it
        waits on."""
        stack = [tau]
        while stack:
            t = stack[-1]
            if t in memo:
                stack.pop()
                continue
            site = opened.pop(t, None)
            if site is not None:
                # every facet up ^ u of up that leaves the site has its flow now
                up, a = site
                value = facet_sum(up, a, -_incidence(up, up ^ t))
            else:
                site = partner(t)
                if site is None:
                    value = {t: 1}
                else:  # t is a lower face: R holds no upper face
                    opened[t] = site
                    up, rest = site
                    while rest:
                        u = rest & -rest
                        rest ^= u
                        r = up ^ u
                        if r in opened:
                            raise MatchingTreeError("gradient cycle through %s"
                                                    % (_bits(r),))
                        if r in reach and r not in memo:
                            stack.append(r)
                    continue
            memo[t] = value
            stack.pop()

    entries = {}
    for col, sigma in enumerate(upper):
        rest = sigma
        while rest:
            u = rest & -rest
            rest ^= u
            if sigma ^ u in reach:
                flow(sigma ^ u)
        for k, x in facet_sum(sigma, sigma, 1).items():
            entries[(row[k], col)] = x
    return IntegerMatrix(len(lower), len(upper), entries)


def morse_inequality_check(census, report: HomologyReport) -> bool:
    """Weak Morse inequalities b~_d <= C^d plus equality of the alternating
    sums, with both sides in the reduced dimension-0 convention."""
    dims = set(census.counts) | set(report.betti)
    for d in dims:
        if report.betti.get(d, 0) > census.counts.get(d, 0):
            return False
    return census.euler() == report.euler
