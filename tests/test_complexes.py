from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_f_vector, brute_faces
from gridmorse import (CapacityError, Graph, SimplicialComplex, build_graph,
                       count_independent_sets, delta2_isomorphism,
                       independence_complex, join, line_graph, matching_complex,
                       plain)


def faces_as_index_sets(cx):
    return {frozenset(f) for f in cx.all_faces()}


@pytest.mark.parametrize("fam,kw", [
    ("cycle", dict(n=4)),
    ("cycle", dict(n=6)),
    ("path", dict(n=5)),
    ("star", dict(m=3, n=2)),
    ("theta", dict(m=2, n=2)),
    ("delta", dict(m=2, n=1)),
])
def test_matches_subset_scan_oracle(fam, kw):
    g = build_graph(fam, **kw)
    cx = independence_complex(g)
    assert faces_as_index_sets(cx) == brute_faces(g)
    assert cx.f_vector() == (1,) + brute_f_vector(g)[1:]


def test_frozen_f_vectors():
    assert independence_complex(build_graph("cycle", n=4)).f_vector() == (1, 4, 2)
    assert independence_complex(build_graph("cycle", n=6)).f_vector() == (1, 6, 9, 2)
    assert independence_complex(Graph([plain(1)], [])).f_vector() == (1, 1)


def test_c4_exact_faces():
    cx = independence_complex(build_graph("cycle", n=4))
    labels = {frozenset(str(l) for l in cx.face_labels(f)) for f in cx.all_faces()}
    assert labels == {frozenset(), frozenset({"v1"}), frozenset({"v2"}),
                      frozenset({"v3"}), frozenset({"v4"}),
                      frozenset({"v1", "v3"}), frozenset({"v2", "v4"})}


def test_matching_complexes():
    # matchings of the 4-vertex path: empty, each edge, outer pair
    assert matching_complex(build_graph("path", n=4)).f_vector() == (1, 3, 1)
    # no two edges of a triangle are disjoint
    assert matching_complex(build_graph("cycle", n=3)).f_vector() == (1, 3)


def test_matching_complex_of_grid_equals_comb_complex():
    # the 2 x 3 grid's matching complex is the m=2, n=1 comb complex,
    # identified through the explicit label mapping
    grid = build_graph("grid2", n=3)
    mc = matching_complex(grid)
    comb_cx = independence_complex(build_graph("delta", m=2, n=1))
    mapping = delta2_isomorphism(1)
    mapped = {frozenset(str(mapping[l]) for l in comb_cx.face_labels(f))
              for f in comb_cx.all_faces()}
    got = {frozenset(str(l) for l in mc.face_labels(f)) for f in mc.all_faces()}
    assert mapped == got


def test_downward_closure_and_independence():
    g = build_graph("delta", m=2, n=2)
    cx = independence_complex(g)
    face_set = set(cx.all_faces())
    for f in face_set:
        for i in range(len(f)):
            assert f[:i] + f[i + 1:] in face_set
        for x in range(len(f)):
            for y in range(x + 1, len(f)):
                assert f[y] not in g.adjsets[f[x]]


def test_join_identities():
    pts = SimplicialComplex((plain(1), plain(2)), [[()], [(0,), (1,)]])
    pts2 = SimplicialComplex((plain(3), plain(4)), [[()], [(0,), (1,)]])
    square = join(pts, pts2)
    assert square.f_vector() == (1, 4, 4)
    empty_only = SimplicialComplex((), [[()]])
    again = join(pts, empty_only)
    assert faces_as_index_sets(again) == faces_as_index_sets(pts)
    with pytest.raises(ValueError):
        join(pts, pts)


def test_join_equals_disjoint_union_complex():
    # two disjoint 2-vertex paths on labels v1..v4
    g = Graph([plain(i) for i in (1, 2, 3, 4)],
              [(plain(1), plain(2)), (plain(3), plain(4))])
    whole = independence_complex(g)
    half1 = independence_complex(Graph([plain(1), plain(2)], [(plain(1), plain(2))]))
    half2 = independence_complex(Graph([plain(3), plain(4)], [(plain(3), plain(4))]))
    joined = join(half1, half2)
    as_labels = lambda cx: {frozenset(map(str, cx.face_labels(f)))
                            for f in cx.all_faces()}
    assert as_labels(whole) == as_labels(joined)


def test_reduced_euler_values():
    assert independence_complex(build_graph("cycle", n=6)).reduced_euler() == -2
    full = independence_complex(Graph([plain(i) for i in (1, 2, 3)], []))
    assert full.f_vector() == (1, 3, 3, 1)
    assert full.reduced_euler() == 0
    assert independence_complex(build_graph("delta", m=2, n=2)).reduced_euler() == 1


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_join_euler_multiplicative(data):
    def random_graph(tag, size):
        verts = [plain(i + tag * 10) for i in range(1, size + 1)]
        edges = []
        for x in range(size):
            for y in range(x + 1, size):
                if data.draw(st.booleans()):
                    edges.append((verts[x], verts[y]))
        return Graph(verts, edges)

    g1 = random_graph(1, data.draw(st.integers(1, 5)))
    g2 = random_graph(2, data.draw(st.integers(1, 5)))
    c1 = independence_complex(g1)
    c2 = independence_complex(g2)
    assert join(c1, c2).reduced_euler() == -c1.reduced_euler() * c2.reduced_euler()


def test_face_cap():
    with pytest.raises(CapacityError):
        independence_complex(build_graph("star", m=3, n=4), face_cap=50)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_enumeration_matches_subset_scan_in_order(data):
    # the oracle scans all 2^n subsets, size by size in lex order, so the
    # layers must agree element for element, not just as sets
    g = random_graph(data, 12)
    want = []
    for size in range(len(g) + 1):
        layer = [c for c in combinations(range(len(g)), size)
                 if all(v not in g.adjsets[u] for u, v in combinations(c, 2))]
        if not layer:
            break
        want.append(layer)
    assert independence_complex(g).graded == want
    total = sum(map(len, want))
    if len(g):  # the cap is checked as vertices are added, so never here
        with pytest.raises(CapacityError):
            independence_complex(g, face_cap=total - 1)
    assert independence_complex(g, face_cap=total).graded == want


def test_complex_json():
    cx = independence_complex(build_graph("cycle", n=4))
    data = cx.to_json(include_faces=True)
    assert data["f_vector"] == [1, 4, 2]
    assert data["reduced_euler"] == 1
    assert ["v1", "v3"] in data["faces"]
    assert "faces" not in cx.to_json()


def assert_cap_contract(g, total):
    for cap in (0, 1, total - 1, total, total + 1):
        assert count_independent_sets(g, cap=cap) == min(total, cap + 1), cap


def random_graph(data, max_size):
    size = data.draw(st.integers(0, max_size))
    sparsity = data.draw(st.integers(1, 5))
    verts = [plain(i) for i in range(1, size + 1)]
    edges = [(verts[x], verts[y]) for x in range(size) for y in range(x + 1, size)
             if data.draw(st.integers(0, sparsity)) == 0]
    return Graph(verts, edges)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_count_matches_enumeration_on_random_graphs(data):
    g = random_graph(data, 12)
    total = independence_complex(g).num_faces()
    assert count_independent_sets(g) == total
    assert_cap_contract(g, total)


@pytest.mark.parametrize("m,n,want", [(2, 10, 808395), (2, 11, 2598440),
                                      (3, 7, 499106)])
def test_count_transfer_matrix_values(m, n, want):
    # values confirmed by a 2^m-state column transfer matrix
    g = build_graph("delta", m=m, n=n)
    assert count_independent_sets(g) == want
    assert count_independent_sets(g, cap=want - 1) == want
    assert count_independent_sets(g, cap=want) == want


@pytest.mark.parametrize("g", [build_graph("star", m=4, n=5),
                               build_graph("theta", m=3, n=5),
                               line_graph(build_graph("grid2", n=7))],
                         ids=["star(4,5)", "theta(3,5)", "L(grid2(7))"])
def test_count_matches_enumeration_on_families(g):
    total = independence_complex(g).num_faces()
    assert count_independent_sets(g) == total
    assert_cap_contract(g, total)


def test_count_long_path_without_deep_recursion():
    # independent sets of the n-vertex path number F(n + 2)
    g = build_graph("path", n=1900)
    fib = [0, 1]
    while len(fib) < 1903:
        fib.append(fib[-1] + fib[-2])
    assert count_independent_sets(g, cap=10**6) == 10**6 + 1
    assert count_independent_sets(g) == fib[1902]
