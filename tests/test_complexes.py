import inspect
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_f_vector, brute_faces, members, unbuilt
from gridmorse import (CapacityError, Graph, SimplicialComplex, build_graph,
                       complexes, count_independent_sets, delta2_isomorphism,
                       full_homology, independence_complex, join, line_graph,
                       matching_complex, plain, reduced_homology)
from gridmorse.complexes import _layer_counts, _layers


def faces_as_index_sets(cx):
    return {members(f) for f in cx.all_faces()}


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
        for u in members(f):
            assert f ^ 1 << u in face_set
        for u, v in combinations(sorted(members(f)), 2):
            assert v not in g.adjsets[u]


def test_join_identities():
    pts = SimplicialComplex((plain(1), plain(2)), [[0], [0b01, 0b10]])
    pts2 = SimplicialComplex((plain(3), plain(4)), [[0], [0b01, 0b10]])
    square = join(pts, pts2)
    assert square.f_vector() == (1, 4, 4)
    empty_only = SimplicialComplex((), [[0]])
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


def test_faces_are_listed_on_first_read(monkeypatch):
    # delta(2,10): the count refuses full SNF and the Morse route reads the
    # graph, so neither lists a face until graded is read
    g = build_graph("delta", m=2, n=10)
    monkeypatch.setattr(complexes, "_layers", unbuilt)
    cx = independence_complex(g)
    assert cx.num_faces() == 808395
    assert reduced_homology(cx).betti_profile() == {7: 28, 8: 1}
    with pytest.raises(CapacityError, match="808395"):
        full_homology(cx)
    monkeypatch.undo()
    assert cx.graded == list(_layers(g.nbr, (1 << len(g)) - 1))
    assert cx.graded is cx.graded


def test_f_vector_counts_layers_without_keeping_them(monkeypatch):
    # an unlisted complex counts its layers without building a face and
    # stays unlisted; to_json without faces does the same, once
    g = build_graph("delta", m=2, n=4)
    cx = independence_complex(g)
    want = tuple(map(len, _layers(g.nbr, (1 << len(g)) - 1)))
    monkeypatch.setattr(complexes, "_layers", unbuilt)
    assert cx.f_vector() == want and cx._graded is None
    assert cx.reduced_euler() == sum((-1) ** (s + 1) * c for s, c in enumerate(want))
    doc = cx.to_json()
    assert cx._graded is None and "faces" not in doc
    assert (tuple(doc["f_vector"]), doc["reduced_euler"]) == (want, cx.reduced_euler())
    monkeypatch.undo()
    # with the faces, the layers are listed once and read by the f-vector
    doc = cx.to_json(include_faces=True)
    assert cx._graded is not None
    assert (tuple(doc["f_vector"]), doc["reduced_euler"]) == (want, cx.reduced_euler())
    assert doc["faces"] == [[str(v) for v in cx.face_labels(f)]
                            for f in cx.all_faces()]


def test_face_cap(monkeypatch):
    # star(3,4) has more than 50 faces; the exact count refuses them first
    monkeypatch.setattr(complexes, "_layers", unbuilt)
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
        layer = [sum(1 << u for u in c)
                 for c in combinations(range(len(g)), size)
                 if all(v not in g.adjsets[u] for u, v in combinations(c, 2))]
        if not layer:
            break
        want.append(layer)
    total = sum(map(len, want))
    cx = independence_complex(g)
    assert cx.num_faces() == total  # from the count, before any face is listed
    assert cx.graded == want
    with pytest.raises(CapacityError):
        independence_complex(g, face_cap=total - 1)
    assert independence_complex(g, face_cap=total).graded == want
    # the same builder on part of the vertex set lists the scan's faces
    # inside it, layer for layer and in order
    ground = data.draw(st.integers(0, (1 << len(g)) - 1))
    inside = [[f for f in layer if f & ground == f] for layer in want]
    assert list(_layers(g.nbr, ground)) == [layer for layer in inside if layer]
    # and the layer sizes, counted without building a face, are the scan's
    assert tuple(_layer_counts(g.nbr, (1 << len(g)) - 1)) == tuple(map(len, want))
    assert (tuple(_layer_counts(g.nbr, ground))
            == tuple(len(layer) for layer in inside if layer))


def test_empty_face_is_charged_against_the_cap():
    empty = Graph([], [])
    with pytest.raises(CapacityError):
        independence_complex(empty, face_cap=0)
    assert independence_complex(empty, face_cap=1).graded == [[0]]


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
    # num_faces answers from the count; the listed layers are the oracle
    total = sum(map(len, independence_complex(g).graded))
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
    # num_faces answers from the count; the listed layers are the oracle
    total = sum(map(len, independence_complex(g).graded))
    assert count_independent_sets(g) == total
    assert_cap_contract(g, total)


def chain_sets(k, closed):
    """Independent sets of the k-vertex path, or of the k-cycle when closed,
    by a transfer over (first vertex in?, last vertex in?) states."""
    states = {(False, False): 1, (True, True): 1}
    for _ in range(k - 1):
        nxt = {}
        for (first, last), ways in states.items():
            for take in (False, True) if not last else (False,):
                key = (first, take)
                nxt[key] = nxt.get(key, 0) + ways
        states = nxt
    return sum(ways for (first, last), ways in states.items()
               if not (closed and first and last))


def chain_graph(k, closed, start=1):
    verts = [plain(i) for i in range(start, start + k)]
    edges = list(zip(verts, verts[1:]))
    if closed:
        edges.append((verts[-1], verts[0]))
    return verts, edges


@pytest.mark.parametrize("closed", [False, True], ids=["path", "cycle"])
def test_count_paths_and_cycles_in_closed_form(closed):
    # a k-path has P(k) independent sets, P(0), P(1) = 1, 2, and a k-cycle
    # P(k - 1) + P(k - 3); both saturate under a cap like every count
    for k in range(3 if closed else 1, 61):
        g = Graph(*chain_graph(k, closed))
        assert_cap_contract(g, chain_sets(k, closed))


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
def test_count_unions_of_paths_cycles_and_k4(k):
    # a path, a cycle and a K4 side by side, against the listed layers
    pverts, pedges = chain_graph(k, False, 1)
    cverts, cedges = chain_graph(k + 2, True, 100)
    kverts = [plain(i) for i in range(200, 204)]
    g = Graph(pverts + cverts + kverts,
              pedges + cedges + list(combinations(kverts, 2)))
    total = sum(map(len, independence_complex(g).graded))
    assert total == chain_sets(k, False) * chain_sets(k + 2, True) * 5
    assert count_independent_sets(g) == total
    assert_cap_contract(g, total)


def test_count_long_cycle_is_its_lucas_number():
    lucas = [2, 1]
    while len(lucas) < 1901:
        lucas.append(lucas[-1] + lucas[-2])
    g = Graph(*chain_graph(1900, True))
    assert count_independent_sets(g) == lucas[1900]
    assert count_independent_sets(g, cap=10**6) == 10**6 + 1


def test_count_long_caterpillar_without_deep_recursion():
    # a leaf on every vertex of a 600-vertex path has maximum degree 3 along
    # its whole length, so no closed form applies and the branches nest
    # about 300 deep: past a recursion limit 100 frames above this test's
    k = 600
    spine = [plain(i) for i in range(1, k + 1)]
    leaves = [plain(i) for i in range(k + 1, 2 * k + 1)]
    g = Graph(spine + leaves, list(zip(spine, spine[1:])) + list(zip(spine, leaves)))
    spine_in, spine_out = 1, 2    # the sets of a one-vertex caterpillar
    for _ in range(k - 1):
        spine_in, spine_out = spine_out, 2 * (spine_in + spine_out)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        assert count_independent_sets(g) == spine_in + spine_out
    finally:
        sys.setrecursionlimit(limit)


def test_count_long_path_without_deep_recursion():
    # independent sets of the n-vertex path number F(n + 2)
    g = build_graph("path", n=1900)
    fib = [0, 1]
    while len(fib) < 1903:
        fib.append(fib[-1] + fib[-2])
    assert count_independent_sets(g, cap=10**6) == 10**6 + 1
    assert count_independent_sets(g) == fib[1902]
