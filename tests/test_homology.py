import hashlib
import json
import random
import re
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import (complete_multipartite, groups, ind_complex,
                      largest_reach, unbuilt)
from gridmorse import complexes, homology
from gridmorse import (PIVOT_RULE, CapacityError, CriticalCensus, Graph,
                       IntegerMatrix, MatchingTreeError, SimplicialComplex,
                       SNFResult,
                       boundary_matrices, build_graph, census_from_tree,
                       comb_tree, critical_cells, full_homology,
                       independence_complex, line_graph,
                       matching_complex,
                       morse_homology, morse_inequality_check, plain,
                       reduced_homology, run_strategy, smith_normal_form)


def minor_gcd_snf(rows):
    """Oracle: invariant factors as ratios of k x k minor gcds."""
    nr, nc = len(rows), len(rows[0]) if rows else 0

    def det(a):
        if len(a) == 1:
            return a[0][0]
        total = 0
        for j in range(len(a)):
            if a[0][j]:
                sub = [row[:j] + row[j + 1:] for row in a[1:]]
                total += (-1) ** j * a[0][j] * det(sub)
        return total

    factors = []
    prev = 1
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for rr in combinations(range(nr), k):
            for cc in combinations(range(nc), k):
                g = gcd(g, det([[rows[r][c] for c in cc] for r in rr]))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)


def test_snf_basic_cases():
    assert smith_normal_form(IntegerMatrix.from_rows(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]])).factors == (1, 1, 1)
    assert smith_normal_form(IntegerMatrix(3, 4, {})).factors == ()
    assert smith_normal_form(IntegerMatrix.from_rows([[2, 4], [6, 8]])).factors == (2, 4)
    assert smith_normal_form(IntegerMatrix.from_rows([[2, 0], [0, 3]])).factors == (1, 6)
    assert smith_normal_form(IntegerMatrix.from_rows(
        [[4, 0, 0], [0, 6, 0], [0, 0, 10]])).factors == (2, 2, 60)
    assert smith_normal_form(IntegerMatrix.from_rows([[6]])).factors == (6,)


def test_snf_against_minor_oracle_seeded():
    rng = random.Random(11)
    for _ in range(40):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
        got = smith_normal_form(IntegerMatrix.from_rows(rows)).factors
        assert got == minor_gcd_snf(rows), rows


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
                min_size=2, max_size=4))
def test_snf_divisibility_chain(rows):
    factors = smith_normal_form(IntegerMatrix.from_rows(rows)).factors
    assert all(f > 0 for f in factors)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    assert factors == minor_gcd_snf(rows)


def test_snf_unimodular_invariance_seeded():
    rng = random.Random(7)
    for _ in range(10):
        nr, nc = rng.randint(2, 5), rng.randint(2, 5)
        rows = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        base = smith_normal_form(IntegerMatrix.from_rows(rows)).factors
        for _ in range(8):
            i, j = rng.sample(range(nr), 2)
            s = rng.choice((-1, 1))
            for c in range(nc):
                rows[i][c] += s * rows[j][c]
            i, j = rng.sample(range(nc), 2)
            s = rng.choice((-1, 1))
            for r in range(nr):
                rows[r][i] += s * rows[r][j]
        assert smith_normal_form(IntegerMatrix.from_rows(rows)).factors == base


def scrambled_diagonal(diag, size, seed, ops):
    """A size x size matrix with the given diagonal, hidden by seeded
    unimodular row and column additions."""
    rng = random.Random(seed)
    rows = [[0] * size for _ in range(size)]
    for i, d in enumerate(diag):
        rows[i][i] = d
    for _ in range(ops):
        i, j = rng.sample(range(size), 2)
        s = rng.choice((-1, 1))
        for c in range(size):
            rows[i][c] += s * rows[j][c]
        i, j = rng.sample(range(size), 2)
        s = rng.choice((-1, 1))
        for r in range(size):
            rows[r][i] += s * rows[r][j]
    return rows


def test_snf_recovers_scrambled_non_unit_factors():
    # every entry stays even, so the unit sweeps take nothing and the Euclid
    # steps do all the work on a dense 40 x 40 matrix
    diag = (2,) * 20 + (6,) * 10 + (30,) * 5
    rows = scrambled_diagonal(diag, 40, seed=5, ops=120)
    assert sum(1 for row in rows for v in row if v) > 1000
    assert all(v % 2 == 0 for row in rows for v in row)
    snf = smith_normal_form(IntegerMatrix.from_rows(rows))
    assert snf.factors == diag
    assert snf.eliminated_rows == ()


def test_snf_skips_explicit_zero_entries():
    M = IntegerMatrix(2, 2, {(0, 0): 0, (1, 0): 0, (1, 1): 4})
    assert smith_normal_form(M).factors == (4,)


def test_snf_leaves_its_input_unchanged():
    rows = scrambled_diagonal((2, 6, 6, 30), 8, seed=3, ops=30)
    mats = [IntegerMatrix.from_rows(rows),
            boundary_matrices(ind_complex("cycle", n=6))[1]]
    for M in mats:
        before = dict(M.entries)
        smith_normal_form(M)
        assert M.entries == before


# Bouc (1992) for M(K7); Shareshian & Wachs (2007) for the Z/3 torsion of
# the matching and chessboard complexes.  Only the Euclid steps after the
# unit sweeps can give a factor 3: 8 of them in M(K9), 10 in M(K6,6).
@pytest.mark.parametrize("parts,betti,torsion,euler", [
    ((1,) * 7, {2: 20}, {1: (3,)}, 20),
    ((1,) * 9, {2: 42, 3: 70}, {2: (3,) * 8}, -28),
    ((5, 5), {3: 56}, {2: (3,)}, -56),
    ((6, 6), {3: 25, 4: 210}, {3: (3,) * 10}, 185),
    ((5, 8), {3: 14, 4: 1173}, {}, 1159),
], ids=["K7", "K9", "K5,5", "K6,6", "K5,8"])
def test_matching_complex_torsion(parts, betti, torsion, euler):
    # the Morse route, with the full SNF route as its oracle
    cx = matching_complex(complete_multipartite(*parts))
    report = reduced_homology(cx)
    assert report.route == "morse-tree"
    assert report.betti_profile() == betti
    assert report.torsion == torsion
    assert report.euler == euler
    assert groups(report) == groups(full_homology(cx))


def test_boundary_of_full_triangle():
    full = independence_complex(Graph([plain(1), plain(2), plain(3)], []))
    mats = boundary_matrices(full)
    assert [(m.nrows, m.ncols) for m in mats] == [(1, 3), (3, 3), (3, 1)]
    # the 2-face boundary column alternates signs down its facets
    assert sorted(mats[2].entries.items()) == [((0, 0), 1), ((1, 0), -1), ((2, 0), 1)]


@pytest.mark.parametrize("fam,kw", [
    ("cycle", dict(n=6)),
    ("star", dict(m=3, n=2)),
    ("delta", dict(m=2, n=2)),
])
def test_boundary_squares_to_zero(fam, kw):
    mats = boundary_matrices(ind_complex(fam, **kw))
    for a, b in zip(mats, mats[1:]):
        assert not sparse_product(a, b)


def sparse_product(a, b):
    """The nonzero entries of a * b, as a (row, col) -> value dict."""
    assert a.ncols == b.nrows, "shape mismatch"
    rows_b = {}
    for (r, c), v in b.entries.items():
        rows_b.setdefault(r, []).append((c, v))
    out = {}
    for (r, c), v in a.entries.items():
        for c2, v2 in rows_b.get(c, ()):
            out[(r, c2)] = out.get((r, c2), 0) + v * v2
    return {k: v for k, v in out.items() if v}


def test_c4_rank_and_betti():
    cx = ind_complex("cycle", n=4)
    mats = boundary_matrices(cx)
    assert smith_normal_form(mats[1]).rank == 2
    report = reduced_homology(cx)
    assert report.betti_profile() == {0: 1}


def test_sphere_profiles():
    assert reduced_homology(ind_complex("cycle", n=6)).betti_profile() == {1: 2}
    assert reduced_homology(ind_complex("delta", m=2, n=2)).betti_profile() == {2: 1}
    full = independence_complex(Graph([plain(1), plain(2), plain(3)], []))
    assert reduced_homology(full).betti_profile() == {}


def rp2_complex():
    facets = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
              (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]
    return SimplicialComplex.from_facets(tuple(plain(i) for i in range(1, 7)), facets)


def test_projective_plane_torsion():
    rp2 = rp2_complex()
    report = reduced_homology(rp2)
    assert report.betti_profile() == {}
    assert report.torsion == {1: (2,)}
    assert report.torsion


def test_euler_agreement():
    for fam, kw in [("cycle", dict(n=6)), ("delta", dict(m=2, n=3)),
                    ("theta", dict(m=3, n=2))]:
        cx = ind_complex(fam, **kw)
        assert reduced_homology(cx).euler == cx.reduced_euler()


def test_morse_inequalities():
    # full-route homology, which shares no code with the trees
    tree = comb_tree(2, 2)
    report = full_homology(ind_complex("delta", m=2, n=2))
    assert morse_inequality_check(census_from_tree(tree), report)
    tree1 = comb_tree(2, 1)
    report1 = full_homology(ind_complex("delta", m=2, n=1))
    assert report1.betti_profile() == {1: 2}
    assert morse_inequality_check(census_from_tree(tree1), report1)
    fake = CriticalCensus(2, 1, {1: 0})
    assert not morse_inequality_check(fake, report1)


def test_boundary_entry_cap(monkeypatch):
    # the cap is read at call time; C6's complex has 6 vertices and 2
    # triangles, so d_1 (built first by boundary_matrices) and d_3 (built
    # first by full_homology) are each charged 6 entries
    cx = ind_complex("cycle", n=6)
    monkeypatch.setattr(homology, "DEFAULT_ENTRY_CAP", 5)
    with pytest.raises(CapacityError, match="6 entries exceeds entry cap 5"):
        boundary_matrices(cx)
    with pytest.raises(CapacityError, match="6 entries exceeds entry cap 5"):
        full_homology(cx)


def test_homology_capacity_guard():
    # the full route refuses on the face count; the Morse route builds no
    # face and refuses on the reach R of its flow
    cx = ind_complex("cycle", n=6)
    graphless = SimplicialComplex(cx.labels, cx.graded)
    with pytest.raises(CapacityError, match="18 faces exceeds homology cap 5"):
        reduced_homology(graphless, face_cap=5)
    delta = ind_complex("delta", m=2, n=9)
    with pytest.raises(CapacityError, match="reach exceeds face cap 100"):
        reduced_homology(delta, face_cap=100)


def test_report_json():
    cx = ind_complex("cycle", n=6)
    data = reduced_homology(cx).to_json()
    assert {"d": 1, "betti": 2, "torsion": []} in data["dims"]
    assert data["euler"] == -2
    assert data["route"] == "morse-tree"
    full = full_homology(cx).to_json()
    assert full["route"] == "full-snf"
    assert full["dims"] == data["dims"]
    assert sorted(data) == sorted(full) == ["dims", "euler", "route"]


def unclear_homology(cx):
    """Oracle for the cleared reduction: the nonzero Betti numbers and the
    torsion from the SNF of every full boundary matrix, with no column
    cleared."""
    mats = boundary_matrices(cx)
    snfs = [smith_normal_form(M) for M in mats]
    for M, snf in zip(mats, snfs):
        rows = snf.eliminated_rows
        assert len(set(rows)) == len(rows) <= snf.rank
        assert all(0 <= r < M.nrows for r in rows)
    ranks = [s.rank for s in snfs] + [0]
    betti = {d: b for d in range(len(cx.graded) - 1)
             if (b := len(cx.graded[d + 1]) - ranks[d] - ranks[d + 1])}
    torsion = {d: tors for d in range(len(snfs) - 1)
               if (tors := tuple(x for x in snfs[d + 1].factors if x > 1))}
    return betti, torsion


def assert_clearing_exact(cx):
    report = full_homology(cx)
    assert (report.betti, report.torsion) == unclear_homology(cx)


def test_clearing_matches_full_snf_rp2():
    rp2 = rp2_complex()
    assert unclear_homology(rp2)[1] == {1: (2,)}
    assert_clearing_exact(rp2)


@pytest.mark.parametrize("fam,kw", [
    ("star", dict(m=3, n=4)), ("star", dict(m=2, n=5)),
    ("theta", dict(m=3, n=4)), ("theta", dict(m=2, n=5)),
    ("delta", dict(m=2, n=4)), ("delta", dict(m=3, n=3)),
    ("matching", dict(parts=(5, 5))),  # M(K5,5): odd torsion, H~_2 = Z/3
])
def test_clearing_matches_full_snf_families(fam, kw):
    if fam == "matching":
        cx = matching_complex(complete_multipartite(*kw["parts"]))
    else:
        cx = ind_complex(fam, **kw)
    assert_clearing_exact(cx)


@seed(2011)
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_clearing_matches_full_snf_random_graphs(data):
    size = data.draw(st.integers(1, 9))
    verts = [plain(i) for i in range(1, size + 1)]
    edges = [(verts[x], verts[y]) for x in range(size) for y in range(x + 1, size)
             if data.draw(st.booleans())]
    assert_clearing_exact(independence_complex(Graph(verts, edges)))


def test_snf_equality_ignores_eliminated_rows():
    a = smith_normal_form(IntegerMatrix.from_rows([[1, 0], [0, 1]]))
    b = smith_normal_form(IntegerMatrix.from_rows([[0, 1], [1, 0]]))
    assert a.eliminated_rows and a.factors == b.factors
    assert a == b and hash(a) == hash(b)
    assert a == SNFResult((1, 1))


@pytest.mark.parametrize("g", [
    Graph([], []),
    Graph([plain(1)], []),
    Graph([plain(i) for i in range(1, 5)], []),
    build_graph("delta", m=2, n=-1),
    build_graph("delta", m=2, n=0),
    build_graph("delta", m=3, n=0),
], ids=["empty", "one-vertex", "edgeless-4", "delta-2-minus1", "delta-2-0",
        "delta-3-0"])
def test_morse_route_edge_cases(g):
    # the dims list and the Euler number too, not only the groups
    cx = independence_complex(g)
    morse, full = reduced_homology(cx), full_homology(cx)
    assert morse.route == "morse-tree" and full.route == "full-snf"
    assert groups(morse) == groups(full)
    assert morse.to_json()["dims"] == full.to_json()["dims"]


def test_morse_route_matches_full_route_on_random_graphs():
    # seeded graphs on 3..11 vertices under the pivot rule; the sample
    # must exercise the flow: a nonzero Morse differential shows as more
    # critical cells than the Betti numbers add up to
    rng = random.Random(20061115)
    nonzero = 0
    for _ in range(300):
        size = rng.randint(3, 11)
        density = rng.uniform(0.15, 0.6)
        verts = [plain(i) for i in range(1, size + 1)]
        g = Graph(verts, [(verts[x], verts[y]) for x in range(size)
                          for y in range(x + 1, size) if rng.random() < density])
        cx = independence_complex(g)
        report = reduced_homology(cx)
        assert groups(report) == groups(full_homology(cx)), g.to_json()
        cells = critical_cells(run_strategy(g, PIVOT_RULE))
        nonzero += len(cells) > sum(report.betti.values())
    assert nonzero >= 1


def test_morse_homology_reads_the_tree_alone(monkeypatch):
    # no face list is built: (2,10) has 808,395 faces, past the homology cap
    monkeypatch.setattr(complexes, "_layers", unbuilt)
    report = morse_homology(build_graph("delta", m=2, n=10))
    assert report.betti_profile() == census_from_tree(comb_tree(2, 10)).counts
    assert report.torsion == {} and report.route == "morse-tree"


def test_morse_flow_refuses_a_gradient_cycle():
    # on six vertices with no edges, three pairs (lower face: upper face,
    # A-set) whose upper faces leave their sites into the next pair's lower
    # face, 01 < 012 > 12 < 123 > 13 < 013 > 01, and 012 leaves into the
    # critical 1-cell 02 too, so the cycle lies on a gradient path to it;
    # the flow of 01, a facet of the critical 2-cell 015, meets the cycle
    pairs = {0b000011: (0b000111, 0b0011), 0b000110: (0b001110, 0b0100),
             0b001010: (0b001011, 0b1000)}
    ups = {hi: (lo, a) for lo, (hi, a) in pairs.items()}
    sigma, critical = 0b100011, 0b000101

    def partner(face):
        if face in (sigma, critical):
            return None
        return pairs.get(face) or ups.get(face) or (0, 0)

    nbr = (0,) * 6
    assert homology._gradient_reach([critical], partner, nbr, 100) == {
        critical, *pairs}
    with pytest.raises(MatchingTreeError,
                       match=re.escape("gradient cycle through (0, 1)")):
        homology._morse_boundary([sigma], [critical], partner, nbr, 100)


def test_morse_homology_charges_the_flow_memo(monkeypatch):
    # the cap is charged on the reach R, of which the flow memo is a
    # subset: on (2,9) and (2,10) a cap of |R| answers, and one less
    # refuses before any flow
    for n in (9, 10):
        g = build_graph("delta", m=2, n=n)
        size = largest_reach(monkeypatch, g)
        want = morse_homology(g).to_json()
        assert morse_homology(g, face_cap=size).to_json() == want
        with monkeypatch.context() as patch:
            patch.setattr(homology, "_incidence", unbuilt)
            with pytest.raises(CapacityError,
                               match="reach exceeds face cap %d" % (size - 1)):
                morse_homology(g, face_cap=size - 1)


@pytest.mark.parametrize("m", [2, 3])
def test_no_flow_runs_where_no_gradient_path_leaves_a_critical_cell(
        monkeypatch, m):
    # (2,11) has no two critical dimensions adjacent, so no partner walk is
    # compiled; (3,11) has, but no facet of a critical cell has a gradient
    # path to a critical cell, so each Morse differential is zero
    monkeypatch.setattr(homology, "_incidence", unbuilt)
    if m == 2:
        monkeypatch.setattr(homology, "_partner_walk", unbuilt)
    report = morse_homology(build_graph("delta", m=m, n=11))
    assert report.betti_profile() == census_from_tree(comb_tree(m, 11)).counts


MORSE_REPORTS_DIGEST = (
    "4601f85a28291aa1b9186e87a329f8bb387a029f7e49b583da259ef2995b91ac")


def morse_reports():
    """The homology JSON of the Morse route, one line per graph: combs with
    m = 2..5 and n = -1..10, the line graphs of grid2 for n <= 8 (matching
    complexes of 2 x n grids), cycles 3..12, the matching complexes of K5,5
    and K3,3,3 (torsion Z/3 and (Z/3)^2) and 120 seeded random graphs.
    (5,10) is left out: a flow memo of every face the flow meets, R or not,
    passes 10^7 entries on it."""
    graphs = [build_graph("delta", m=m, n=n)
              for m in range(2, 6) for n in range(-1, 11) if (m, n) != (5, 10)]
    graphs += [line_graph(build_graph("grid2", n=n)) for n in range(1, 9)]
    graphs += [build_graph("cycle", n=n) for n in range(3, 13)]
    graphs += [line_graph(complete_multipartite(5, 5)),
               line_graph(complete_multipartite(3, 3, 3))]
    rng = random.Random(31)
    for _ in range(120):
        size = rng.randint(3, 12)
        density = rng.uniform(0.1, 0.6)
        verts = [plain(i) for i in range(1, size + 1)]
        graphs.append(Graph(verts, [(verts[x], verts[y]) for x in range(size)
                                    for y in range(x + 1, size)
                                    if rng.random() < density]))
    return "".join(json.dumps(morse_homology(g).to_json(), sort_keys=True)
                   + "\n" for g in graphs)


def test_morse_reports_equal_the_site_pruned_flow():
    # the digest of morse_reports() as the flow gave it while it still
    # memoised every face it met, before it was confined to the reach R,
    # and as the family and generic rules' trees gave it, less the "rule"
    # key each report then carried
    digest = hashlib.sha256(morse_reports().encode()).hexdigest()
    assert digest == MORSE_REPORTS_DIGEST
