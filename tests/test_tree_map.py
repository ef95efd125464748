"""A tree is its residual -> step map and lists its nodes on first read.
The readers of the map must list no node and agree with oracles that share
no code with them: the listing with a tree grown leaf by leaf from sets,
the critical cells and census with the faces that collect_pairing leaves
unpaired, and the partner walk with collect_pairing's partners."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete_multipartite, random_graph, unbuilt
from gridmorse import census, morse
from gridmorse import (PIVOT_RULE, CapacityError, Free, Match, MatchingTree,
                       MatchingTreeError, Split, build_graph, census_from_tree,
                       collect_pairing, comb_tree, count_independent_sets,
                       critical_cells, independence_complex, line_graph,
                       morse_homology, run_strategy)
from gridmorse.cli import main


def expand_leaf_by_leaf(g, rule):
    """The rows of the tree grown one leaf at a time, as run_strategy grew
    it before it kept a map: depth first from the root, each leaf with a
    nonempty residual, bar an empty-labeled one, takes the rule's step for
    its residual and numbers its children on, the one without v first.  A,
    B and residuals are sets built from g.adjsets, so the listing's code is
    not used; the rule is asked once per residual."""
    def mask(vertices):
        return sum(1 << u for u in vertices)

    def residual(A, B):
        shadow = A | B
        for a in A:
            shadow |= g.adjsets[a]
        return set(range(len(g))) - shadow

    nodes = [[0, set(), set(), "root", None, []]]
    decided = {}
    stack = [0]
    while stack:
        node = nodes[stack.pop()]
        _, A, B, kind, _, children = node
        res = mask(residual(A, B))
        if kind == "empty" or not res:
            continue
        if res not in decided:
            decided[res] = rule(g, res)
        step = node[4] = decided[res]
        if isinstance(step, Free):
            kids, site = [(A, B, "empty")], "free-site"
        else:
            v = step.v
            kids, site = [(A | {v}, B | g.adjsets[v], None)], "matching-site"
            if isinstance(step, Split):
                kids.insert(0, (A, B | {v}, None))
                site = "splitting-site"
        for a, b, k in kids:
            children.append(len(nodes))
            nodes.append([len(nodes), a, b,
                          k or (None if residual(a, b) else "terminal"), None, []])
        if kind != "root":
            node[3] = site
        stack.extend(reversed(children))
    return [(nid, mask(A), mask(B), mask(residual(A, B)), kind, step, children)
            for nid, A, B, kind, step, children in nodes]


def rows(tree):
    return [(nd.id, nd.A, nd.B, nd.residual_mask, nd.kind, nd.step,
             nd.children) for nd in tree.nodes]


def listed_graphs():
    for n in range(1, 40):
        yield "path-%d" % n, build_graph("path", n=n)
    for m in range(1, 5):
        for n in range(1, 9):
            yield "star-%d-%d" % (m, n), build_graph("star", m=m, n=n)
    for m in range(2, 5):
        for n in range(1, 9):
            yield "theta-%d-%d" % (m, n), build_graph("theta", m=m, n=n)
    for m in range(2, 6):
        for n in range(-1, 13):
            yield "delta-%d-%d" % (m, n), build_graph("delta", m=m, n=n)
    yield "M(K7)", line_graph(complete_multipartite(*[1] * 7))
    yield "M(K5,5)", line_graph(complete_multipartite(5, 5))
    yield "L(grid2(7))", line_graph(build_graph("grid2", n=7))


LISTED = list(listed_graphs())


def by_size(faces):
    return sorted(faces, key=lambda f: (f.bit_count(), f))


def assert_map_readers_agree(g, rule, walk_cap=5000):
    """census_from_tree, critical_cells and _partner_walk read the map and
    list no node.  The listing equals the tree grown leaf by leaf, node for
    node; the critical cells are the A-sets of its terminal leaves and the
    census is their histogram.  On a complex of at most walk_cap faces the
    critical cells are also the faces that collect_pairing leaves unpaired,
    and the partner walk gives each face collect_pairing's partner, at the
    one site of sites() whose faces hold it."""
    tree = run_strategy(g, rule)
    cells, counts = critical_cells(tree), census_from_tree(tree).counts
    partner = morse._partner_walk(tree)
    assert tree._nodes is None
    assert rows(tree) == expand_leaf_by_leaf(g, rule)
    leaves = by_size(nd.A for nd in tree.critical_leaves())
    assert cells == leaves
    histogram = {}
    for cell in leaves:
        d = cell.bit_count() - 1
        histogram[d] = histogram.get(d, 0) + 1
    assert list(counts.items()) == sorted(histogram.items())
    if count_independent_sets(g, cap=walk_cap) > walk_cap:
        return
    pairing = collect_pairing(tree)
    faces = list(independence_complex(g).all_faces())
    unpaired = [f for f in faces if f not in pairing.up and f not in pairing.down]
    if not len(g):
        unpaired = []  # the root of a graph with no vertex is no terminal leaf
    assert cells == by_size(unpaired)
    # a site's faces contain its A and miss its B, and at a Match(p, v)
    # site v, whose faces go on to the child
    sites = [(nd.A, nd.B | (1 << nd.step.v if isinstance(nd.step, Match) else 0))
             for nd in tree.sites()]
    for face in faces:
        other = pairing.up.get(face, pairing.down.get(face))
        if other is None:
            assert partner(face) is None, face
            continue
        holders = [a for a, avoid in sites if face & a == a and not face & avoid]
        assert len(holders) == 1, face
        assert partner(face) == other, face


@pytest.mark.parametrize("g", [g for _, g in LISTED],
                         ids=[name for name, _ in LISTED])
def test_listing_and_map_readers_equal_the_expand_grown_tree(g):
    assert_map_readers_agree(g, PIVOT_RULE)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 11), st.floats(0.05, 0.6),
       st.randoms(use_true_random=False))
def test_listing_and_map_readers_on_random_graphs(size, density, rnd):
    assert_map_readers_agree(random_graph(size, density, rnd),
                             PIVOT_RULE)


def test_census_and_morse_route_list_no_node(monkeypatch):
    # the census and the Morse route read the map alone
    monkeypatch.setattr(morse, "_list_nodes", unbuilt)
    assert (census_from_tree(comb_tree(2, 22)).counts
            == census.census_table(2, 22).row_counts(22))
    report = morse_homology(build_graph("delta", m=2, n=9))
    assert report.betti == census.census_table(2, 9).row_counts(9)
    assert report.torsion == {}


@pytest.mark.parametrize("family,kw", [("path", dict(n=9)),
                                       ("delta", dict(m=2, n=6))])
def test_step_budget_is_the_exact_expansion_count(monkeypatch, family, kw):
    # the budget is checked against the count read off the map, before any
    # node exists: the count passes, one less refuses
    g = build_graph(family, **kw)
    count = sum(1 for nd in run_strategy(g, PIVOT_RULE).nodes if nd.step)
    monkeypatch.setattr(morse, "DEFAULT_STEP_BUDGET", count)
    tree = run_strategy(g, PIVOT_RULE)
    monkeypatch.setattr(morse, "DEFAULT_STEP_BUDGET", count - 1)
    monkeypatch.setattr(morse, "_list_nodes", unbuilt)
    with pytest.raises(CapacityError, match="step budget %d exceeded" % (count - 1)):
        run_strategy(g, PIVOT_RULE)
    monkeypatch.undo()
    assert rows(tree) == expand_leaf_by_leaf(g, PIVOT_RULE)


def test_step_budget_stops_deciding(monkeypatch):
    # past the budget in distinct residuals alone, the rule is not asked again
    g = build_graph("delta", m=2, n=6)
    calls = []

    def counted(graph, res):
        calls.append(res)
        return PIVOT_RULE(graph, res)

    monkeypatch.setattr(morse, "DEFAULT_STEP_BUDGET", 5)
    with pytest.raises(CapacityError, match="step budget 5 exceeded"):
        run_strategy(g, counted)
    assert len(calls) == 6


def test_morse_refuses_before_listing(monkeypatch, capsys):
    # delta(2,40) has more than DEFAULT_STEP_BUDGET expansions
    monkeypatch.setattr(morse, "_list_nodes", unbuilt)
    assert main(["morse", "--family", "delta", "--m", "2", "--n", "40"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "step budget" in captured.err


def test_listed_nodes_are_kept():
    # a tree lists its nodes once, on first read, and keeps the list
    rng = random.Random(25)
    tree = run_strategy(random_graph(9, 0.3, rng), PIVOT_RULE)
    assert tree._nodes is None
    assert tree.nodes is tree.nodes
    assert critical_cells(tree) == by_size(nd.A for nd in tree.critical_leaves())


def test_listing_refuses_a_map_whose_a_and_b_meet():
    # run_strategy would refuse Split(1) at residual {0, 2}; listed by hand,
    # its child with 1 has 1 in A and in B, and without the check its child
    # without 1 would take the same residual and step forever
    g = build_graph("path", n=3)
    tree = MatchingTree(g, {0b111: Split(1), 0b101: Split(1)})
    with pytest.raises(MatchingTreeError, match="^A and B intersect$"):
        tree.nodes
