import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import ind_complex
from gridmorse import (CapacityError, CriticalCensus, Graph, IntegerMatrix,
                       SimplicialComplex, SNFResult, boundary_matrices,
                       build_graph, census_from_tree, comb_tree,
                       independence_complex, morse_inequality_check, plain,
                       reduced_homology, smith_normal_form, torsion_scan)


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
    assert report.has_torsion()


def test_euler_agreement():
    for fam, kw in [("cycle", dict(n=6)), ("delta", dict(m=2, n=3)),
                    ("theta", dict(m=3, n=2))]:
        cx = ind_complex(fam, **kw)
        assert reduced_homology(cx).euler == cx.reduced_euler()


def test_morse_inequalities():
    tree = comb_tree(2, 2)
    report = reduced_homology(ind_complex("delta", m=2, n=2))
    assert morse_inequality_check(census_from_tree(tree), report)
    tree1 = comb_tree(2, 1)
    report1 = reduced_homology(ind_complex("delta", m=2, n=1))
    assert report1.betti_profile() == {1: 2}
    assert morse_inequality_check(census_from_tree(tree1), report1)
    fake = CriticalCensus(2, 1, {1: 0})
    assert not morse_inequality_check(fake, report1)


def test_torsion_scan_m2():
    results = torsion_scan(2, range(0, 6))
    assert [n for n, _ in results] == list(range(6))
    for _, torsion in results:
        assert torsion == {}


def test_torsion_scan_skips_over_cap():
    results = torsion_scan(2, [5], face_cap=100)
    assert results[0][0] == 5 and "skipped" in results[0][1]


def test_homology_capacity_guard():
    cx = ind_complex("cycle", n=6)
    with pytest.raises(CapacityError):
        reduced_homology(cx, face_cap=5)


def test_report_json():
    report = reduced_homology(ind_complex("cycle", n=6))
    data = report.to_json()
    assert {"d": 1, "betti": 2, "torsion": []} in data["dims"]
    assert data["euler"] == -2


def unclear_homology(cx):
    """Oracle for the cleared reduction: Betti numbers and torsion from the
    SNF of every full boundary matrix, with no column cleared."""
    mats = boundary_matrices(cx)
    snfs = [smith_normal_form(M) for M in mats]
    for M, snf in zip(mats, snfs):
        rows = snf.eliminated_rows
        assert len(set(rows)) == len(rows) <= snf.rank
        assert all(0 <= r < M.nrows for r in rows)
    ranks = [s.rank for s in snfs] + [0]
    betti = {d: len(cx.graded[d + 1]) - ranks[d] - ranks[d + 1]
             for d in range(len(cx.graded) - 1)}
    torsion = {d: tors for d in range(len(snfs) - 1)
               if (tors := tuple(x for x in snfs[d + 1].factors if x > 1))}
    return betti, torsion


def assert_clearing_exact(cx):
    report = reduced_homology(cx)
    assert (report.betti, report.torsion) == unclear_homology(cx)


def test_clearing_matches_full_snf_rp2():
    rp2 = rp2_complex()
    assert unclear_homology(rp2)[1] == {1: (2,)}
    assert_clearing_exact(rp2)


@pytest.mark.parametrize("fam,kw", [
    ("star", dict(m=3, n=4)), ("star", dict(m=2, n=5)),
    ("theta", dict(m=3, n=4)), ("theta", dict(m=2, n=5)),
    ("delta", dict(m=2, n=4)), ("delta", dict(m=3, n=3)),
])
def test_clearing_matches_full_snf_families(fam, kw):
    assert_clearing_exact(ind_complex(fam, **kw))


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
