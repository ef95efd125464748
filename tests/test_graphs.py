import hashlib
import json

import pytest

from gridmorse import (END_A, END_B, Graph, build_graph, delta2_isomorphism,
                       line_graph, neighbors, plain, spine, tendril)


def degrees(g):
    return sorted(g.degree(i) for i in range(len(g)))


def is_path_graph(g):
    return (degrees(g) == [1, 1] + [2] * (len(g) - 2)
            and g.edge_count() == len(g) - 1)


def is_cycle_graph(g):
    if degrees(g) != [2] * len(g):
        return False
    seen = {0}
    todo = [0]
    while todo:
        for u in g.adjsets[todo.pop()]:
            if u not in seen:
                seen.add(u)
                todo.append(u)
    return len(seen) == len(g)


def test_counts_delta():
    for m in (2, 3, 4):
        for n in (1, 2, 3, 5):
            g = build_graph("delta", m=m, n=n)
            assert len(g) == (n + 1) * m + n + 2
            assert g.edge_count() == m * (n + 2) + 2 * m * n


def test_delta_small_cases():
    assert len(build_graph("delta", m=2, n=3)) == 13
    assert build_graph("delta", m=2, n=3).edge_count() == 22
    k1 = build_graph("delta", m=2, n=-1)
    assert len(k1) == 1 and k1.edge_count() == 0
    # n = 0 is the theta graph with paths of two edges
    d0 = build_graph("delta", m=3, n=0)
    t1 = build_graph("theta", m=3, n=1)
    assert len(d0) == len(t1) and d0.edge_count() == t1.edge_count()


def test_star_degenerates_to_path():
    g = build_graph("star", m=1, n=4)
    assert len(g) == 5 and is_path_graph(g)


def test_theta_degenerates_to_cycle():
    g = build_graph("theta", m=2, n=2)
    assert len(g) == 6 and is_cycle_graph(g)


def test_parameter_validation():
    with pytest.raises(ValueError):
        build_graph("path", n=0)
    with pytest.raises(ValueError):
        build_graph("cycle", n=2)
    with pytest.raises(ValueError):
        build_graph("star", m=0, n=1)
    with pytest.raises(ValueError):
        build_graph("theta", m=1, n=1)
    with pytest.raises(ValueError):
        build_graph("delta", m=2, n=-2)
    with pytest.raises(ValueError):
        build_graph("nonesuch", n=3)


def test_adjacency_symmetric_loopless():
    for fam, kw in [("delta", dict(m=3, n=2)), ("grid2", dict(n=4)),
                    ("theta", dict(m=2, n=3))]:
        g = build_graph(fam, **kw)
        for i in range(len(g)):
            assert i not in g.adjsets[i]
            for j in g.adjsets[i]:
                assert i in g.adjsets[j]


def test_neighbour_masks_match_adjacency():
    for fam, kw in [("delta", dict(m=3, n=2)), ("grid2", dict(n=4)),
                    ("star", dict(m=2, n=3)), ("path", dict(n=1))]:
        g = build_graph(fam, **kw)
        assert g.nbr == tuple(sum(1 << j for j in g.adjsets[i])
                              for i in range(len(g)))


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        Graph([plain(1), plain(1)], [])
    with pytest.raises(ValueError):
        Graph([plain(1)], [(plain(1), plain(1))])


def test_vertex_order():
    g = build_graph("delta", m=2, n=2)
    labels = [str(v) for v in g.vertices]
    assert labels[:4] == ["a", "s1", "s2", "b"]
    assert labels[4:] == ["t1.1", "t1.2", "t1.3", "t2.1", "t2.2", "t2.3"]


def test_neighbors_examples():
    d43 = build_graph("delta", m=4, n=3)
    ns2 = neighbors(d43, spine(2))
    assert ns2 == {tendril(j, k) for j in range(1, 5) for k in (2, 3)}
    assert len(ns2) == 8
    assert neighbors(d43, END_A) == {tendril(j, 1) for j in range(1, 5)}
    c6 = build_graph("cycle", n=6)
    assert neighbors(c6, plain(1)) == {plain(2), plain(6)}
    with pytest.raises(KeyError):
        neighbors(c6, plain(7))


def test_line_graph_paths_and_cycles():
    lp4 = line_graph(build_graph("path", n=4))
    assert len(lp4) == 3 and is_path_graph(lp4)
    tri = line_graph(build_graph("cycle", n=3))
    assert len(tri) == 3 and tri.edge_count() == 3


@pytest.mark.parametrize("edges,params,labels", [
    ([(plain(1), plain(3)), (plain(2), plain(3))], {"n": 3}, ["e0.2", "e1.2"]),
    ([(plain(1), plain(2)), (plain(1), plain(3))], None, ["e0.1", "e0.2"]),
    ([(plain(1), plain(2)), (plain(2), plain(3))], None, ["e0.1", "e1.2"]),
    ([(plain(1), plain(2)), (plain(2), plain(3))], {"n": 3}, [plain(1), plain(2)]),
], ids=["v1-v3-named-v1", "duplicate-v1", "no-params", "built-by-hand"])
def test_line_graph_uses_the_path_scheme_only_on_a_built_path(edges, params, labels):
    # a graph that says it is a path names its line-graph vertices by the
    # path scheme only when it is the path build_graph makes for its params
    g = Graph([plain(1), plain(2), plain(3)], edges, "path", params)
    assert line_graph(g).vertices == tuple(labels)


def test_line_graph_of_wide_grid():
    # edge count of L(G) is the sum over vertices of C(deg, 2)
    g = build_graph("grid2", n=5)
    expected_edges = sum(g.degree(i) * (g.degree(i) - 1) // 2 for i in range(len(g)))
    lg = line_graph(g)
    assert len(lg) == g.edge_count() == 13
    assert lg.edge_count() == expected_edges == 22


def test_line_graph_degree_identity():
    for fam, kw in [("grid2", dict(n=4)), ("theta", dict(m=3, n=2)),
                    ("star", dict(m=3, n=3))]:
        g = build_graph(fam, **kw)
        lg = line_graph(g)
        for x, (i, j) in enumerate(g.edges()):
            assert lg.degree(x) == g.degree(i) + g.degree(j) - 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_delta2_isomorphism(n):
    mapping = delta2_isomorphism(n)
    comb = build_graph("delta", m=2, n=n)
    grid_line = line_graph(build_graph("grid2", n=n + 2))
    assert len(mapping) == len(comb) == len(grid_line)
    assert set(mapping.values()) == set(grid_line.vertices)
    # independent re-check of adjacency preservation, both directions
    for u in comb.vertices:
        iu = comb.idx(u)
        image_nbrs = {mapping[comb.vertices[w]] for w in comb.adjsets[iu]}
        assert image_nbrs == neighbors(grid_line, mapping[u])
    # spine images keep degree 2m = 4
    for k in range(1, n + 1):
        assert grid_line.degree(grid_line.idx(mapping[spine(k)])) == 4
        assert comb.degree(comb.idx(spine(k))) == 4


def test_graph_json():
    g = build_graph("theta", m=2, n=1)
    data = g.to_json()
    assert data["family"] == "theta"
    assert data["params"] == {"m": 2, "n": 1}
    assert data["vertices"] == ["a", "b", "t1.1", "t2.1"]
    assert ["a", "t1.1"] in data["edges"]


# sha256 of the labels every builder writes: the JSON of each graph of
# LABEL_SIZES and of its line graph, in the order of the list, then the
# sorted (comb label, grid-edge label) pairs of delta2_isomorphism(n) for
# n = 1..6
LABEL_SIZES = ([("path", None, n) for n in (1, 2, 5)]
               + [("cycle", None, n) for n in (3, 4, 7)]
               + [("grid2", None, n) for n in (1, 2, 4)]
               + [("star", m, n) for m, n in ((1, 1), (2, 3), (4, 2))]
               + [("theta", m, n) for m, n in ((2, 1), (3, 2), (4, 3))]
               + [("delta", m, n) for m, n in ((2, -1), (2, 0), (2, 3), (3, 4))])
LABEL_DIGEST = "80999a617aa3b3b5d65c6f77ed5047c2d10c786cee18058630e223daac4f2e41"


def test_labels_pinned():
    h = hashlib.sha256()
    for fam, m, n in LABEL_SIZES:
        g = build_graph(fam, m=m, n=n)
        for x in (g, line_graph(g)):
            h.update(json.dumps(x.to_json(), sort_keys=True).encode())
    for n in range(1, 7):
        h.update(json.dumps(sorted(delta2_isomorphism(n).items())).encode())
    assert h.hexdigest() == LABEL_DIGEST
