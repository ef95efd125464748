import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete_multipartite, ind_complex, unbuilt
from gridmorse.cli import main
from gridmorse import complexes, morse
from gridmorse import (PIVOT_RULE, CapacityError, FacePairing, Free, Graph,
                       Match, MatchingTreeError, SigmaNode, Split, build_graph,
                       census_from_tree, collect_pairing, comb_tree,
                       critical_cells,
                       full_homology, independence_complex, line_graph,
                       morse_inequality_check, path_tree, plain,
                       reduced_homology, run_strategy, spine, star_tree,
                       theta_tree, verify_acyclic)


def scripted(script):
    """A pivot rule that takes its step from script, a residual mask ->
    step dict, at the residuals it names, and PIVOT_RULE's elsewhere."""
    def rule(g, res):
        return script[res] if res in script else PIVOT_RULE(g, res)
    return rule


def bit(g, label):
    return 1 << g.idx(label)


def test_residual_and_sigma_at_root():
    g = build_graph("cycle", n=4)
    root = run_strategy(g, PIVOT_RULE).nodes[0]
    assert {g.vertices[i] for i in complexes._bits(root.residual_mask)} == set(g.vertices)
    # empty set, 4 singletons, 2 diagonals
    assert complexes._count_independent(g.nbr, root.residual_mask) == 7


def test_split_then_counts():
    g = build_graph("cycle", n=4)
    tree = run_strategy(g, scripted({0b1111: Split(g.idx(plain(1)))}))
    root = tree.nodes[0]
    assert root.children == [1, 2]
    excl, incl = tree.nodes[1], tree.nodes[2]
    assert excl.A == 0 and excl.B == bit(g, plain(1))
    assert incl.A == bit(g, plain(1))
    assert incl.B == bit(g, plain(2)) | bit(g, plain(4))
    assert {g.vertices[i] for i in complexes._bits(incl.residual_mask)} == {plain(3)}
    # {1} and {1,3}
    assert complexes._count_independent(g.nbr, incl.residual_mask) == 2
    assert complexes._count_independent(g.nbr, root.residual_mask) == 7


def test_residual_of_backbone_terminus_is_theta():
    g = build_graph("delta", m=3, n=2)
    full = (1 << len(g)) - 1
    s1, s2 = bit(g, spine(1)), bit(g, spine(2))
    # exclude both spine vertices in turn
    tree = run_strategy(g, scripted({full: Split(g.idx(spine(1))),
                                     full & ~s1: Split(g.idx(spine(2)))}))
    excl = tree.nodes[tree.nodes[0].children[0]]
    assert excl.B == s1 and excl.step == Split(g.idx(spine(2)))
    terminus = tree.nodes[excl.children[0]]
    assert terminus.B == s1 | s2
    labels = [g.vertices[i] for i in complexes._bits(terminus.residual_mask)]
    # hub a, hub b and all nine tendril vertices survive: a theta subgraph
    assert labels == ["a", "b", "t1.1", "t1.2", "t1.3", "t2.1", "t2.2", "t2.3",
                      "t3.1", "t3.2", "t3.3"]


def test_match_records_expected_pairs():
    g = build_graph("path", n=3)
    tree = run_strategy(g, scripted({0b111: Match(g.idx(plain(1)),
                                                   g.idx(plain(2)))}))
    child = tree.nodes[1]
    assert child.A == bit(g, plain(2))
    assert child.B == bit(g, plain(1)) | bit(g, plain(3))
    assert not child.residual_mask
    assert child.kind == "terminal"
    pairing = collect_pairing(tree)
    i1, i3 = g.idx(plain(1)), g.idx(plain(3))
    assert sorted(pairing.up.items()) == [(0, 1 << i1), (1 << i3, 1 << i1 | 1 << i3)]


def test_scripted_tree_reports_critical_cells():
    # split at the middle vertex, free an end of the rest: one critical cell
    g = build_graph("path", n=3)
    tree = run_strategy(g, scripted({0b111: Split(1), 0b101: Free(0)}))
    assert critical_cells(tree) == [0b010]
    excluded, included = tree.nodes[0].children
    assert tree.nodes[excluded].step == Free(0)
    assert tree.to_json()["nodes"][included]["kind"] == "terminal"
    paired = collect_pairing(tree).paired_faces()
    assert paired | {0b010} == set(independence_complex(g).all_faces())
    assert 0b010 not in paired


def test_free_precondition():
    g = build_graph("cycle", n=4)
    full = 0b1111
    with pytest.raises(MatchingTreeError, match="neighbors outside"):
        run_strategy(g, scripted({full: Free(g.idx(plain(3)))}))
    # after excluding both neighbors, vertex 3 is free
    v2, v4 = bit(g, plain(2)), bit(g, plain(4))
    tree = run_strategy(g, scripted({full: Split(g.idx(plain(2))),
                                     full & ~v2: Split(g.idx(plain(4))),
                                     full & ~v2 & ~v4: Free(g.idx(plain(3)))}))
    excl = tree.nodes[tree.nodes[0].children[0]]
    node = tree.nodes[excl.children[0]]
    assert node.step == Free(g.idx(plain(3)))
    assert tree.nodes[node.children[0]].kind == "empty"


def test_match_preconditions():
    g = build_graph("cycle", n=5)
    full = 0b11111
    with pytest.raises(MatchingTreeError, match="exactly one neighbor"):
        run_strategy(g, scripted({full: Match(g.idx(plain(1)), g.idx(plain(2)))}))
    with pytest.raises(MatchingTreeError, match="not a neighbor"):
        run_strategy(g, scripted({full: Match(g.idx(plain(1)), g.idx(plain(3)))}))


@pytest.mark.parametrize("split_first,step", [
    (False, Match(-1, 1)), (True, Free(-1)), (False, Split(-1)),
    (False, Free(3)), (False, Match(3, 1)), (False, Split(3)),
    (False, Free(plain(1))), (False, Free(1.0)), (False, Split(True)),
], ids=["match-negative", "free-negative-after-split", "split-negative",
        "free-past-end", "match-past-end", "split-past-end",
        "free-label", "free-float", "split-bool"])
def test_out_of_range_step_vertices_rejected(split_first, step):
    # a negative index would read the last vertex of path(3) and pass the
    # other preconditions; an index past the end would raise IndexError;
    # a label or a float is not an index, and True is not vertex 1
    g = build_graph("path", n=3)
    script = {0b111: step}
    if split_first:
        # v2 excluded: v1 and v3 are free
        script = {0b111: Split(1), 0b101: step}
    with pytest.raises(MatchingTreeError, match=r"not in range\(3\)"):
        run_strategy(g, scripted(script))


def test_split_precondition():
    g = build_graph("cycle", n=4)
    v1 = g.idx(plain(1))
    # the child that takes v1 has v3 alone left: v2 lies in its B
    with pytest.raises(MatchingTreeError, match="not residual"):
        run_strategy(g, scripted({0b1111: Split(v1),
                                  bit(g, plain(3)): Split(g.idx(plain(2)))}))


@pytest.mark.parametrize("step,message", [
    (Free(0), "free vertex v1 lies in A or B"),
    (Match(1, 2), "match pivot v2 lies in A or B"),
], ids=["free", "match"])
def test_pivot_in_a_or_b_rejected(step, message):
    # after Split(v1) on cycle(4) the child with v1 has v3 alone left, so
    # v1 (in A) and v2 (in B) are no pivots there
    g = build_graph("cycle", n=4)
    with pytest.raises(MatchingTreeError, match=message):
        run_strategy(g, scripted({0b1111: Split(0), 0b0100: step}))


@pytest.mark.parametrize("step", [None, (0, 1)], ids=["none", "tuple"])
def test_unknown_step_rejected(monkeypatch, step):
    # the refusal names the object, and comes before any node is listed
    monkeypatch.setattr(morse, "_list_nodes", unbuilt)
    with pytest.raises(MatchingTreeError,
                       match=re.escape("unknown step %r" % (step,))):
        run_strategy(build_graph("path", n=3), lambda graph, res: step)


def test_point_complex_run():
    g = Graph([plain(1)], [])
    tree = run_strategy(g, lambda graph, res: Free(0))
    assert critical_cells(tree) == []
    pairing = collect_pairing(tree)
    assert sorted(pairing.up.items()) == [(0, 0b1)]


def test_full_c4_run_partition():
    g = build_graph("cycle", n=4)

    def split_then_finish(graph, res):
        residual = [v for v in range(len(graph)) if res >> v & 1]
        rset = set(residual)
        for v in residual:
            if all(u not in rset for u in graph.adjsets[v]):
                return Free(v)
        for v in residual:
            nbr = [u for u in graph.adjsets[v] if u in rset]
            if len(nbr) == 1:
                return Match(v, nbr[0])
        return Split(residual[0])

    tree = run_strategy(g, split_then_finish)
    cx = independence_complex(g)
    pairing = collect_pairing(tree)
    crit = critical_cells(tree)
    # one critical vertex: the complex is two points up to homotopy, and
    # morse-euler forces dimension 0 for a single leftover cell
    assert len(crit) == 1 and crit[0].bit_count() == 1
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
    for lo, hi in sorted(pairing.up.items()):
        assert hi.bit_count() == lo.bit_count() + 1 and lo & hi == lo
    # the empty face is always matched, never critical
    assert 0 in paired


def test_morse_euler_identity():
    for maker, fam, kw in [
        (lambda: star_tree(3, 4), "star", dict(m=3, n=4)),
        (lambda: theta_tree(2, 2), "theta", dict(m=2, n=2)),
        (lambda: comb_tree(2, 2), "delta", dict(m=2, n=2)),
    ]:
        tree = maker()
        cx = ind_complex(fam, **kw)
        alt = sum((-1) ** (f.bit_count() - 1) for f in critical_cells(tree))
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
    pairing.add(0b0001, 0b0011)
    pairing.add(0b0010, 0b0110)
    pairing.add(0b0100, 0b1100)
    pairing.add(0b1000, 0b1001)
    ok, witness = verify_acyclic(cx, pairing)
    assert not ok
    assert len(witness) == 4
    for lo, hi in witness:
        assert pairing.up[lo] == hi


def test_verify_acyclic_crafted_cycle_among_pruned_layers():
    # the square boundary coned off by an isolated v5; the square's cycle
    # in the vertex layer, plus pairs in the two other layers whose up-bits
    # no facet of the layer drops: v5 above the empty face, v2 above {1,5}
    g = Graph([plain(i) for i in (1, 2, 3, 4, 5)],
              [(plain(1), plain(3)), (plain(2), plain(4))])
    cx = independence_complex(g)
    assert cx.f_vector() == (1, 5, 8, 4)
    pairing = FacePairing()
    pairing.add(0, 0b10000)
    pairing.add(0b0001, 0b0011)
    pairing.add(0b0010, 0b0110)
    pairing.add(0b0100, 0b1100)
    pairing.add(0b1000, 0b1001)
    pairing.add(0b10001, 0b10011)
    assert cycle_vertices_by_layer(cx, pairing) == [0, 0b1111, 0, 0]
    assert cycle_vertices_by_definition(cx, pairing) == [0, 0b1111, 0, 0]
    ok, witness = verify_acyclic(cx, pairing)
    assert not ok
    assert len(witness) == 4
    assert {lo for lo, _ in witness} == {0b0001, 0b0010, 0b0100, 0b1000}
    for lo, hi in witness:
        assert pairing.up[lo] == hi


@pytest.mark.parametrize("m,n", [(2, 6), (3, 4), (4, 3)])
def test_comb_pairings_leave_no_cycle_vertex(monkeypatch, m, n):
    # the balance fixpoint empties every layer of a comb pairing, so no
    # successor list is built and the cycle search gets an empty digraph
    lives, digraphs = [], []
    cycle_vertices, find_cycle = morse._cycle_vertices, morse._find_cycle

    def recorded_cycle_vertices(layer, groups):
        lives.append(cycle_vertices(layer, groups))
        return lives[-1]

    def recorded_find_cycle(succ):
        digraphs.append(succ)
        return find_cycle(succ)
    monkeypatch.setattr(morse, "_cycle_vertices", recorded_cycle_vertices)
    monkeypatch.setattr(morse, "_find_cycle", recorded_find_cycle)
    cx = ind_complex("delta", m=m, n=n)
    pairing = collect_pairing(comb_tree(m, n))
    assert verify_acyclic(cx, pairing) == (True, None)
    assert len(lives) == len(digraphs) == len(cx.graded)
    assert lives == [0] * len(cx.graded)
    assert cycle_vertices_by_definition(cx, pairing) == lives
    assert digraphs == [{}] * len(cx.graded)


def test_double_pairing_detected():
    pairing = FacePairing()
    pairing.add(0b001, 0b011)
    with pytest.raises(MatchingTreeError, match="paired twice"):
        pairing.add(0b001, 0b101)


def test_bad_strategy_rejected():
    g = build_graph("path", n=3)
    with pytest.raises(MatchingTreeError):
        run_strategy(g, lambda graph, res: Free(0))  # vertex 1 is not free


def test_step_budget(monkeypatch, capsys):
    # a capacity limit, not bad input: exit 3 with nothing on stdout
    monkeypatch.setattr(morse, "DEFAULT_STEP_BUDGET", 2)
    with pytest.raises(CapacityError, match="step budget 2 exceeded"):
        run_strategy(build_graph("path", n=9), PIVOT_RULE)
    assert main(["morse", "--family", "path", "--n", "9"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "step budget 2" in captured.err


def test_tree_json():
    tree = comb_tree(2, 1)
    data = tree.to_json()
    assert data["nodes"][0] == {"id": 0, "A": [], "B": [], "kind": "root"}
    assert {"free", "match", "split"} >= {k for e in data["edges"] if e["step"]
                                          for k in e["step"]}
    assert sorted(map(len, data["critical"])) == [2, 2]


def members(mask):
    """The vertex indices of a bitmask, as a set."""
    return {i for i in range(mask.bit_length()) if mask >> i & 1}


def residual_by_definition(g, node):
    """V minus (A, B and N(A)), computed from the adjacency sets alone."""
    shadow = members(node.A) | members(node.B)
    for a in members(node.A):
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
        assert (complexes._bits(nd.residual_mask)
                == residual_by_definition(tree.graph, nd)), nd.id


def fold_step(g, residual_mask):
    """Free the lowest isolated residual vertex, else Match the highest
    residual vertex with one residual neighbour, else Split the lowest
    residual vertex v whose residual neighbours include those of another
    residual vertex, neither v nor a neighbour of v, else Split the lowest
    residual vertex; read from the residual's bits and g.adjsets alone."""
    res = [v for v in range(len(g)) if residual_mask >> v & 1]
    inside = {v: {u for u in res if u in g.adjsets[v]} for v in res}
    for v in res:
        if not inside[v]:
            return Free(v)
    for v in reversed(res):
        if len(inside[v]) == 1:
            return Match(v, min(inside[v]))
    for v in res:
        if any(inside[u] <= inside[v] for u in res
               if u != v and u not in inside[v]):
            return Split(v)
    return Split(res[0])


def replayed_sets(tree):
    """A and B of every node as sets, replayed from the root through each
    node's step and g.adjsets alone: A + v, B + v and B + N(v)."""
    g = tree.graph
    sets = {0: (set(), set())}
    for nd in tree.nodes:  # a child's id is above its parent's
        A, B = sets[nd.id]
        step = nd.step
        if isinstance(step, Free):
            kids = [(A, B)]
        elif isinstance(step, Match):
            kids = [(A | {step.v}, B | g.adjsets[step.v])]
        elif isinstance(step, Split):
            kids = [(A, B | {step.v}), (A | {step.v}, B | g.adjsets[step.v])]
        else:
            kids = []
        assert len(kids) == len(nd.children), nd.id
        sets.update(zip(nd.children, kids))
    return sets


def assert_carried_state(tree):
    """Every node's A, B and residual equal those recomputed from scratch:
    A and B replayed as sets from the root, the residual from its
    definition."""
    g = tree.graph
    sets = replayed_sets(tree)
    for nd in tree.nodes:
        assert (members(nd.A), members(nd.B)) == sets[nd.id], nd.id
        res = residual_by_definition(g, nd)
        mask = sum(1 << v for v in res)
        assert nd.residual_mask == mask, nd.id


def sparse_random_graph(size, density, rnd):
    verts = [plain(i) for i in range(1, size + 1)]
    return Graph(verts, [(verts[x], verts[y]) for x in range(size)
                         for y in range(x + 1, size) if rnd.random() < density])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 11), st.floats(0.05, 0.6),
       st.randoms(use_true_random=False))
def test_carried_state_matches_recomputation(size, density, rnd):
    assert_carried_state(run_strategy(sparse_random_graph(size, density, rnd),
                                      fold_step))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 11), st.floats(0.05, 0.6),
       st.randoms(use_true_random=False))
def test_pivot_rule_matches_set_based_reference(size, density, rnd):
    g = sparse_random_graph(size, density, rnd)
    assert (run_strategy(g, PIVOT_RULE).to_json()
            == run_strategy(g, fold_step).to_json())


@pytest.mark.parametrize("g,torsion", [
    *[(build_graph("cycle", n=n), {}) for n in range(3, 13)],
    *[(build_graph("grid2", n=n), {}) for n in range(1, 8)],
    # Bouc (1992) and Shareshian & Wachs (2007): Z/3 in H~_1 of M(K7) and
    # in H~_2 of M(K5,5), the torsion half of the sample
    (line_graph(complete_multipartite(*[1] * 7)), {1: (3,)}),
    (line_graph(complete_multipartite(5, 5)), {2: (3,)}),
], ids=[*("cycle-%d" % n for n in range(3, 13)),
        *("grid2-%d" % n for n in range(1, 8)), "M(K7)", "M(K5,5)"])
def test_generic_rule_certified(g, torsion):
    # on graphs outside the paper's families, the pivot rule's matching
    # partitions the faces, is acyclic, and its critical cells bound the
    # exact homology, taken by full SNF so that it shares no code with the
    # tree
    tree = run_strategy(g, PIVOT_RULE)
    cx = independence_complex(g)
    pairing = collect_pairing(tree)
    paired, crit = pairing.paired_faces(), set(critical_cells(tree))
    assert paired | crit == set(cx.all_faces()) and not paired & crit
    assert verify_acyclic(cx, pairing) == (True, None)
    report = full_homology(cx)
    assert report.torsion == torsion
    assert morse_inequality_check(census_from_tree(tree), report)


def test_carried_state_sweep_sees_every_step_kind():
    rnd = random.Random(20161018)
    kinds = set()
    for _ in range(200):
        g = sparse_random_graph(rnd.randint(1, 11), rnd.uniform(0.1, 0.6), rnd)
        tree = run_strategy(g, fold_step)
        assert_carried_state(tree)
        kinds.update(type(nd.step) for nd in tree.nodes if nd.step is not None)
    assert kinds == {Free, Match, Split}


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
    faces = list(ind_complex(fam, **kw).all_faces())
    for nd in tree.nodes:
        want = sum(1 for f in faces if f & nd.A == nd.A and not nd.B & f)
        assert complexes._count_independent(tree.graph.nbr,
                                            nd.residual_mask) == want, nd.id


def kahn_acyclic(cx, pairing):
    """Oracle sharing no code with verify_acyclic: the whole face-poset
    digraph, with every cover as an edge (matched covers up, the rest down),
    peeled by Kahn's algorithm.  Acyclic iff every face gets peeled."""
    faces = list(cx.all_faces())
    matched = set(pairing.up.items())
    succ = {f: [] for f in faces}
    indeg = dict.fromkeys(faces, 0)
    for hi in faces:
        for x in members(hi):
            lo = hi ^ 1 << x
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
    covers = [(f ^ 1 << u, f) for fs in cx.graded for f in fs
              for u in sorted(members(f))]
    if acyclic and cx.labels:
        v = rnd.randrange(len(cx.labels))
        covers = [(lo, hi) for lo, hi in covers
                  if hi >> v & 1 and not lo >> v & 1]
    rnd.shuffle(covers)
    keep = rnd.uniform(0.5, 1.0)  # denser pairings close more cycles
    pairing, used = FacePairing(), set()
    for lo, hi in covers:
        if lo not in used and hi not in used and rnd.random() < keep:
            used.update((lo, hi))
            pairing.add(lo, hi)
    return pairing


def cycle_vertices_by_layer(cx, pairing):
    """morse._cycle_vertices of each size layer of the pairing, on the
    layer's pairs and their lower faces grouped by up-bit."""
    lives = []
    for faces in cx.graded:
        layer = {lo: pairing.up[lo] for lo in faces if lo in pairing.up}
        groups = {}
        for lo, hi in layer.items():
            groups.setdefault(hi ^ lo, []).append(lo)
        lives.append(morse._cycle_vertices(layer, groups))
    return lives


def cycle_vertices_by_definition(cx, pairing):
    """Reference for morse._cycle_vertices over Python sets.  In each size
    layer, the steps (lo, b, x, b') go from a pair (lo, hi) with up-bit b
    over a vertex x of lo to the facet hi - x, a lower face whose pair has
    up-bit b'.  L starts as the layer's up-bits and is replaced by the x in
    L with a step (lo, b, x, b'), b and b' in L, until it stays put: the
    greatest fixpoint, given as a vertex mask per layer."""
    lives = []
    for faces in cx.graded:
        layer = {frozenset(members(lo)): frozenset(members(pairing.up[lo]))
                 for lo in faces if lo in pairing.up}
        steps = set()
        for lo, hi in layer.items():
            (b,) = hi - lo
            for x in lo:
                facet = hi - {x}
                if facet in layer:
                    (b2,) = layer[facet] - facet
                    steps.add((lo, b, x, b2))
        live = {b for lo, hi in layer.items() for b in hi - lo}
        while True:
            kept = {x for _, b, x, b2 in steps if {b, x, b2} <= live}
            if kept == live:
                break
            live = kept
        lives.append(sum(1 << x for x in live))
    return lives


def assert_matches_oracle(cx, pairing):
    lives = cycle_vertices_by_layer(cx, pairing)
    assert lives == cycle_vertices_by_definition(cx, pairing)
    ok, witness = verify_acyclic(cx, pairing)
    assert ok == kahn_acyclic(cx, pairing)
    if ok:
        assert witness is None
        return ok
    # every up-bit of the cycle lies in its layer's cycle vertices
    live = lives[witness[0][0].bit_count()]
    for lo, hi in witness:
        assert (hi ^ lo) & ~live == 0
    # a closed gradient path: each next lower face is a facet of the previous
    # upper face other than its own lower face, and the last wraps around
    for k, (lo, hi) in enumerate(witness):
        assert pairing.up[lo] == hi
        nxt = witness[(k + 1) % len(witness)][0]
        assert nxt != lo and nxt.bit_count() + 1 == hi.bit_count()
        assert nxt & hi == nxt
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
    pairing.add(0b001, 0b011)
    with pytest.raises(ValueError, match="outside the complex"):
        verify_acyclic(cx, pairing)


@pytest.mark.parametrize("lo,hi", [(0b001, 0b110), (0, 0b101)],
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
    # two free sites, made by hand, that no legal growth would produce,
    # given as the listed nodes of a grown tree
    tree = run_strategy(Graph([plain(1), plain(2)], []), PIVOT_RULE)
    tree._nodes = [SigmaNode(id=i, A=sum(1 << u for u in a), B=0,
                             residual_mask=sum(1 << u for u in residual),
                             kind="free-site", step=Free(p))
                   for i, (a, residual, p) in enumerate(sites)]
    with pytest.raises(MatchingTreeError, match="paired twice"):
        collect_pairing(tree)


def test_partner_walk_matches_collect_pairing():
    # face by face, on a comb, a grid and a torsion example
    for g in [build_graph("delta", m=3, n=3), build_graph("grid2", n=5),
              line_graph(complete_multipartite(*[1] * 7))]:
        tree = run_strategy(g, PIVOT_RULE)
        partner = morse._partner_walk(tree)
        pairing = collect_pairing(tree)
        crit = set(critical_cells(tree))
        for face in independence_complex(g).all_faces():
            want = pairing.up.get(face, pairing.down.get(face))
            got = partner(face)
            assert (got and got[0]) == want, (g.family, face)
            assert (want is None) == (face in crit)


def site_lemma_trees():
    rng = random.Random(21)
    yield comb_tree(2, 4)
    yield comb_tree(3, 3)
    yield star_tree(3, 3)
    yield theta_tree(3, 3)
    for _ in range(30):
        size = rng.randint(3, 10)
        verts = [plain(i) for i in range(1, size + 1)]
        yield run_strategy(Graph(verts, [
            (verts[x], verts[y]) for x in range(size) for y in range(x + 1, size)
            if rng.random() < 0.35]), PIVOT_RULE)
    yield run_strategy(line_graph(complete_multipartite(*[1] * 7)), PIVOT_RULE)


def test_partner_walk_keeps_facets_off_a_pairing_site():
    # at a site (pivot p, A-set A) every facet (t | p) ^ u of an upper face,
    # u in t but not in A, is the upper face of t ^ u at the same site;
    # so the Morse flow need only follow the facets that drop a vertex of A
    checked = 0
    for tree in site_lemma_trees():
        partner = morse._partner_walk(tree)
        pairing = collect_pairing(tree)
        for node in tree.sites():
            a, p = node.A, 1 << node.step.p
            ground = node.residual_mask & ~p
            if isinstance(node.step, Match):
                ground &= ~(1 << node.step.v)
            lows = [t for t, up in pairing.up.items()
                    if up == t | p and t & a == a and not t & ~a & ~ground]
            assert len(lows) == complexes._count_independent(tree.graph.nbr,
                                                             ground)
            for t in lows:
                assert partner(t) == (t | p, a)
                rest = t & ~a
                while rest:
                    u = rest & -rest
                    rest ^= u
                    assert partner((t | p) ^ u) == (t ^ u, a)
                    checked += 1
    assert checked > 1000


def test_collect_pairing_face_cap_boundary(monkeypatch):
    tree = comb_tree(2, 3)
    pairs = len(collect_pairing(tree))
    # the pairs are counted before any site's faces are built
    monkeypatch.setattr(complexes, "_layers", unbuilt)
    monkeypatch.setattr(morse, "_layers", unbuilt)
    with pytest.raises(CapacityError):
        collect_pairing(tree, face_cap=2 * pairs - 1)
    monkeypatch.undo()
    assert len(collect_pairing(tree, face_cap=2 * pairs)) == pairs
