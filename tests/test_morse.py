import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ind_complex
from gridmorse import (PIVOT_RULES, CapacityError, FacePairing, Free, Graph,
                       Match, MatchingTree, MatchingTreeError, SigmaNode, Split,
                       build_graph, collect_pairing, comb_tree, critical_cells,
                       expand, independence_complex, path_tree, plain,
                       residual_vertices, run_strategy, sigma_count, spine,
                       star_tree, theta_tree, verify_acyclic)


def fresh(g):
    return MatchingTree(g), g


def test_residual_and_sigma_at_root():
    g = build_graph("cycle", n=4)
    tree = MatchingTree(g)
    root = tree.node(0)
    assert residual_vertices(g, root) == set(g.vertices)
    assert sigma_count(g, root) == 7  # empty set, 4 singletons, 2 diagonals


def test_split_then_counts():
    g = build_graph("cycle", n=4)
    tree = MatchingTree(g)
    expand(tree, 0, Split(g.idx(plain(1))))
    excl, incl = tree.node(1), tree.node(2)
    assert excl.A == frozenset() and excl.B == {g.idx(plain(1))}
    assert incl.A == {g.idx(plain(1))}
    assert incl.B == {g.idx(plain(2)), g.idx(plain(4))}
    assert residual_vertices(g, incl) == {plain(3)}
    assert sigma_count(g, incl) == 2   # {1} and {1,3}
    assert sigma_count(g, tree.node(0)) == 7


def test_residual_of_backbone_terminus_is_theta():
    g = build_graph("delta", m=3, n=2)
    tree = MatchingTree(g)
    # exclude both spine vertices in turn
    expand(tree, 0, Split(g.idx(spine(1))))
    excl = tree.node(1)
    expand(tree, excl.id, Split(g.idx(spine(2))))
    terminus = tree.node(excl.children[0])
    res = residual_vertices(g, terminus)
    kinds = sorted(v.kind for v in res)
    # hub a, hub b and all nine tendril vertices survive: a theta subgraph
    assert kinds == ["a", "b"] + ["t"] * 9


def test_match_records_expected_pairs():
    g = build_graph("path", n=3)
    tree = MatchingTree(g)
    expand(tree, 0, Match(g.idx(plain(1)), g.idx(plain(2))))
    child = tree.node(1)
    assert child.A == {g.idx(plain(2))}
    assert child.B == {g.idx(plain(1)), g.idx(plain(3))}
    assert not child.residual
    child.kind = "terminal"
    pairing = collect_pairing(tree)
    i1, i3 = g.idx(plain(1)), g.idx(plain(3))
    assert pairing.pairs() == [((), (i1,)), ((i3,), (i1, i3))]


def test_free_precondition():
    g = build_graph("cycle", n=4)
    tree = MatchingTree(g)
    with pytest.raises(MatchingTreeError, match="neighbors outside"):
        expand(tree, 0, Free(g.idx(plain(3))))
    # after excluding both neighbors, vertex 3 is free
    expand(tree, 0, Split(g.idx(plain(2))))
    excl = tree.node(1)
    expand(tree, excl.id, Split(g.idx(plain(4))))
    node = tree.node(excl.children[0])
    expand(tree, node.id, Free(g.idx(plain(3))))
    assert tree.node(node.children[0]).kind == "empty"


def test_match_preconditions():
    g = build_graph("cycle", n=5)
    tree = MatchingTree(g)
    with pytest.raises(MatchingTreeError, match="exactly one neighbor"):
        expand(tree, 0, Match(g.idx(plain(1)), g.idx(plain(2))))
    with pytest.raises(MatchingTreeError, match="not a neighbor"):
        expand(tree, 0, Match(g.idx(plain(1)), g.idx(plain(3))))


def test_split_precondition_and_reexpansion():
    g = build_graph("cycle", n=4)
    tree = MatchingTree(g)
    expand(tree, 0, Split(g.idx(plain(1))))
    with pytest.raises(MatchingTreeError, match="already expanded"):
        expand(tree, 0, Split(g.idx(plain(2))))
    incl = tree.node(2)
    with pytest.raises(MatchingTreeError, match="not residual"):
        expand(tree, incl.id, Split(g.idx(plain(2))))


def test_point_complex_run():
    g = Graph([plain(1)], [])
    tree = run_strategy(g, lambda graph, node: Free(0))
    assert critical_cells(tree) == []
    pairing = collect_pairing(tree)
    assert pairing.pairs() == [((), (0,))]


def test_full_c4_run_partition():
    g = build_graph("cycle", n=4)

    def split_then_finish(graph, node):
        rset = set(node.residual)
        for v in node.residual:
            if all(u not in rset for u in graph.adj[v]):
                return Free(v)
        for v in node.residual:
            nbr = [u for u in graph.adj[v] if u in rset]
            if len(nbr) == 1:
                return Match(v, nbr[0])
        return Split(node.residual[0])

    tree = run_strategy(g, split_then_finish)
    cx = independence_complex(g)
    pairing = collect_pairing(tree)
    crit = critical_cells(tree)
    # one critical vertex: the complex is two points up to homotopy, and
    # morse-euler forces dimension 0 for a single leftover cell
    assert len(crit) == 1 and len(crit[0]) == 1
    assert len(pairing) * 2 + len(crit) == cx.num_faces() == 7
    ok, witness = verify_acyclic(cx, pairing)
    assert ok and witness is None


@pytest.mark.parametrize("maker,fam,kw", [
    (lambda: path_tree(6), "path", dict(n=6)),
    (lambda: star_tree(2, 4), "star", dict(m=2, n=4)),
    (lambda: theta_tree(3, 2), "theta", dict(m=3, n=2)),
    (lambda: comb_tree(2, 3), "delta", dict(m=2, n=3)),
])
def test_partition_and_cover_shape(maker, fam, kw):
    tree = maker()
    g = build_graph(fam, **kw)
    cx = independence_complex(g)
    pairing = collect_pairing(tree)
    crit = set(critical_cells(tree))
    paired = pairing.paired_faces()
    assert paired | crit == set(cx.all_faces())
    assert not paired & crit
    for lo, hi in pairing.pairs():
        assert len(hi) == len(lo) + 1 and set(lo) < set(hi)
    # the empty face is always matched, never critical
    assert () in paired


def test_morse_euler_identity():
    for maker, fam, kw in [
        (lambda: star_tree(3, 4), "star", dict(m=3, n=4)),
        (lambda: theta_tree(2, 2), "theta", dict(m=2, n=2)),
        (lambda: comb_tree(2, 2), "delta", dict(m=2, n=2)),
    ]:
        tree = maker()
        cx = ind_complex(fam, **kw)
        alt = sum((-1) ** (len(f) - 1) for f in critical_cells(tree))
        assert alt == cx.reduced_euler()


def test_verify_acyclic_empty_pairing():
    cx = ind_complex("cycle", n=4)
    ok, witness = verify_acyclic(cx, FacePairing())
    assert ok and witness is None


def test_verify_acyclic_crafted_cycle():
    # complex = boundary of a square: Ind of two disjoint edges {1,3},{2,4}
    g = Graph([plain(i) for i in (1, 2, 3, 4)],
              [(plain(1), plain(3)), (plain(2), plain(4))])
    cx = independence_complex(g)
    assert cx.f_vector() == (1, 4, 4)
    pairing = FacePairing()
    pairing.add((0,), (0, 1))
    pairing.add((1,), (1, 2))
    pairing.add((2,), (2, 3))
    pairing.add((3,), (0, 3))
    ok, witness = verify_acyclic(cx, pairing)
    assert not ok
    assert len(witness) == 4
    for lo, hi in witness:
        assert pairing.up[lo] == hi


def test_double_pairing_detected():
    pairing = FacePairing()
    pairing.add((0,), (0, 1))
    with pytest.raises(MatchingTreeError, match="paired twice"):
        pairing.add((0,), (0, 2))


def test_bad_strategy_rejected():
    g = build_graph("path", n=3)
    with pytest.raises(MatchingTreeError):
        run_strategy(g, lambda graph, node: Free(0))  # vertex 1 is not free


def test_step_budget():
    g = build_graph("path", n=9)
    with pytest.raises(MatchingTreeError, match="budget"):
        run_strategy(g, PIVOT_RULES["path"], step_budget=2)


def test_tree_json():
    tree = comb_tree(2, 1)
    data = tree.to_json()
    assert data["nodes"][0] == {"id": 0, "A": [], "B": [], "kind": "root"}
    assert {"free", "match", "split"} >= {k for e in data["edges"] if e["step"]
                                          for k in e["step"]}
    assert sorted(map(len, data["critical"])) == [2, 2]


def residual_by_definition(g, node):
    """V minus (A, B and N(A)), computed from the adjacency sets alone."""
    shadow = set(node.A) | set(node.B)
    for a in node.A:
        shadow |= g.adjsets[a]
    return tuple(i for i in range(len(g)) if i not in shadow)


@pytest.mark.parametrize("maker", [
    lambda: path_tree(1), lambda: path_tree(11),
    lambda: star_tree(1, 4), lambda: star_tree(3, 5), lambda: star_tree(4, 4),
    lambda: theta_tree(2, 5), lambda: theta_tree(3, 5), lambda: theta_tree(4, 3),
] + [lambda m=m, n=n: comb_tree(m, n) for m in (2, 3) for n in range(-1, 9)])
def test_carried_residuals_match_definition(maker):
    tree = maker()
    for nd in tree.nodes:
        assert nd.residual == residual_by_definition(tree.graph, nd), nd.id


@pytest.mark.parametrize("maker,fam,kw", [
    (lambda: path_tree(7), "path", dict(n=7)),
    (lambda: star_tree(3, 2), "star", dict(m=3, n=2)),
    (lambda: theta_tree(2, 3), "theta", dict(m=2, n=3)),
    (lambda: comb_tree(2, 3), "delta", dict(m=2, n=3)),
    (lambda: comb_tree(3, 2), "delta", dict(m=3, n=2)),
])
def test_sigma_count_matches_face_filter(maker, fam, kw):
    # |Sigma(A, B)| counted straight from the enumerated faces
    tree = maker()
    faces = [set(f) for f in ind_complex(fam, **kw).all_faces()]
    for nd in tree.nodes:
        want = sum(1 for f in faces if nd.A <= f and not nd.B & f)
        assert sigma_count(tree.graph, nd) == want, nd.id


def kahn_acyclic(cx, pairing):
    """Oracle sharing no code with verify_acyclic: the whole face-poset
    digraph, with every cover as an edge (matched covers up, the rest down),
    peeled by Kahn's algorithm.  Acyclic iff every face gets peeled."""
    faces = [frozenset(f) for f in cx.all_faces()]
    matched = {(frozenset(lo), frozenset(hi)) for lo, hi in pairing.up.items()}
    succ = {f: [] for f in faces}
    indeg = dict.fromkeys(faces, 0)
    for hi in faces:
        for x in hi:
            lo = hi - {x}
            tail, head = (lo, hi) if (lo, hi) in matched else (hi, lo)
            succ[tail].append(head)
            indeg[head] += 1
    ready = [f for f in faces if not indeg[f]]
    peeled = 0
    while ready:
        f = ready.pop()
        peeled += 1
        for h in succ[f]:
            indeg[h] -= 1
            if not indeg[h]:
                ready.append(h)
    return peeled == len(faces)


def random_pairing(cx, rnd, acyclic):
    """A random partial matching of covers.  With acyclic set, a random part
    of the matching sigma <-> sigma + v for one vertex v (acyclic, so any
    part of it is too); otherwise random covers added greedily."""
    covers = [(f[:i] + f[i + 1:], f) for fs in cx.graded for f in fs
              for i in range(len(f))]
    if acyclic and cx.labels:
        v = rnd.randrange(len(cx.labels))
        covers = [(lo, hi) for lo, hi in covers if v in hi and v not in lo]
    rnd.shuffle(covers)
    keep = rnd.uniform(0.5, 1.0)  # denser pairings close more cycles
    pairing, used = FacePairing(), set()
    for lo, hi in covers:
        if lo not in used and hi not in used and rnd.random() < keep:
            used.update((lo, hi))
            pairing.add(lo, hi)
    return pairing


def assert_matches_oracle(cx, pairing):
    ok, witness = verify_acyclic(cx, pairing)
    assert ok == kahn_acyclic(cx, pairing)
    if ok:
        assert witness is None
        return ok
    # a closed gradient path: each next lower face is a facet of the previous
    # upper face other than its own lower face, and the last wraps around
    for k, (lo, hi) in enumerate(witness):
        assert pairing.up[lo] == hi
        nxt = witness[(k + 1) % len(witness)][0]
        assert nxt != lo and len(nxt) + 1 == len(hi) and set(nxt) < set(hi)
    return ok


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_verify_acyclic_matches_kahn_oracle(data):
    size = data.draw(st.integers(0, 8))
    sparsity = data.draw(st.integers(1, 5))
    verts = [plain(i) for i in range(1, size + 1)]
    edges = [(verts[x], verts[y]) for x in range(size) for y in range(x + 1, size)
             if data.draw(st.integers(0, sparsity)) == 0]
    cx = independence_complex(Graph(verts, edges))
    rnd = data.draw(st.randoms(use_true_random=False))
    assert_matches_oracle(cx, random_pairing(cx, rnd, data.draw(st.booleans())))


def test_verify_acyclic_oracle_sweep_sees_both_outcomes():
    rnd = random.Random(20160603)
    outcomes = []
    for _ in range(300):
        size = rnd.randint(1, 8)
        verts = [plain(i) for i in range(1, size + 1)]
        edges = [(verts[x], verts[y]) for x in range(size)
                 for y in range(x + 1, size) if rnd.random() < 0.3]
        cx = independence_complex(Graph(verts, edges))
        outcomes.append(assert_matches_oracle(
            cx, random_pairing(cx, rnd, rnd.random() < 0.5)))
    assert 0 < outcomes.count(False) < len(outcomes)


def test_verify_acyclic_rejects_faces_outside_the_complex():
    cx = ind_complex("path", n=3)  # v2 is adjacent to v1 and v3
    pairing = FacePairing()
    pairing.add((0,), (0, 1))
    with pytest.raises(ValueError, match="outside the complex"):
        verify_acyclic(cx, pairing)


@pytest.mark.parametrize("lo,hi", [((0,), (1, 2)), ((), (0, 2))],
                         ids=["not-a-facet", "two-sizes-up"])
def test_verify_acyclic_rejects_non_covers(lo, hi):
    # the full 2-simplex: every pair here is of two faces of the complex
    cx = independence_complex(Graph([plain(1), plain(2), plain(3)], []))
    pairing = FacePairing()
    pairing.add(lo, hi)
    with pytest.raises(ValueError, match="not a cover relation"):
        verify_acyclic(cx, pairing)


@pytest.mark.parametrize("sites", [
    [((), (0,), 0), ((), (1,), 1)],      # () is a lower face twice
    [((1,), (0,), 0), ((0,), (1,), 1)],  # (0, 1) is an upper face twice
    [((), (0,), 0), ((0,), (1,), 1)],    # (0,) is upper, then lower
], ids=["lower-twice", "upper-twice", "upper-and-lower"])
def test_collect_pairing_rejects_sites_covering_one_face(sites):
    # two free sites, built by hand, that no legal growth would produce
    tree = MatchingTree(Graph([plain(1), plain(2)], []))
    for a, residual, p in sites:
        tree.nodes.append(SigmaNode(len(tree.nodes), frozenset(a), frozenset(),
                                    0, residual, kind="free-site", step=Free(p)))
    with pytest.raises(MatchingTreeError, match="paired twice"):
        collect_pairing(tree)


def test_collect_pairing_face_cap_boundary():
    tree = comb_tree(2, 3)
    pairs = len(collect_pairing(tree))
    with pytest.raises(CapacityError):
        collect_pairing(tree, face_cap=2 * pairs - 1)
    assert len(collect_pairing(tree, face_cap=2 * pairs)) == pairs
