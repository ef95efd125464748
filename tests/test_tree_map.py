"""Trees grown by run_strategy hold a residual -> step map and list their
nodes on first read; the readers of the map must agree with the readers of
the nodes, and must list none."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete_multipartite, unbuilt
from gridmorse import census, morse
from gridmorse import (GENERIC_RULE, CapacityError, Graph, MatchingTree,
                       build_graph, census_from_tree, comb_tree,
                       count_independent_sets, critical_cells, expand,
                       independence_complex, line_graph, morse_homology, plain,
                       rule_for, run_strategy)
from gridmorse.cli import main


def grown_by_expand(g, rule):
    """The tree that run_strategy grew before it kept a map: expand at
    every node, depth first, each leaf taking its residual's step.  The
    rule is asked once per residual; only the growth is under test."""
    tree = MatchingTree(g)
    decided = {}
    stack = [0]
    while stack:
        node = tree.node(stack.pop())
        res = node.residual_mask
        if node.kind == "empty" or not res:
            continue
        if res not in decided:
            decided[res] = rule(g, res)
        expand(tree, node.id, decided[res])
        stack.extend(reversed(node.children))
    return tree


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


def sparse_random_graph(size, density, rnd):
    verts = [plain(i) for i in range(1, size + 1)]
    return Graph(verts, [(verts[x], verts[y]) for x in range(size)
                         for y in range(x + 1, size) if rnd.random() < density])


def assert_map_readers_agree(g, rule, walk_cap=5000):
    """census_from_tree, critical_cells and _partner_walk read from the
    map, listing no node, equal the same readers on the expand-grown tree,
    which read its nodes; so does the listing, node for node.  The partner
    walk is checked on every face of a complex of at most walk_cap faces."""
    tree, oracle = run_strategy(g, rule), grown_by_expand(g, rule)
    assert tree.steps is not None and oracle.steps is None
    assert census_from_tree(tree) == census_from_tree(oracle)
    assert critical_cells(tree) == critical_cells(oracle)
    if count_independent_sets(g, cap=walk_cap) <= walk_cap:
        partner, want = morse._partner_walk(tree), morse._partner_walk(oracle)
        for face in independence_complex(g).all_faces():
            assert partner(face) == want(face), face
    assert tree._nodes is None
    assert rows(tree) == rows(oracle)


@pytest.mark.parametrize("g", [g for _, g in LISTED],
                         ids=[name for name, _ in LISTED])
def test_listing_and_map_readers_equal_the_expand_grown_tree(g):
    assert_map_readers_agree(g, rule_for(g))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 11), st.floats(0.05, 0.6),
       st.randoms(use_true_random=False))
def test_listing_and_map_readers_on_random_graphs(size, density, rnd):
    assert_map_readers_agree(sparse_random_graph(size, density, rnd),
                             GENERIC_RULE)


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
    count = sum(1 for nd in run_strategy(g, rule_for(g)).nodes if nd.step)
    monkeypatch.setattr(morse, "DEFAULT_STEP_BUDGET", count)
    tree = run_strategy(g, rule_for(g))
    monkeypatch.setattr(morse, "DEFAULT_STEP_BUDGET", count - 1)
    monkeypatch.setattr(morse, "_list_nodes", unbuilt)
    with pytest.raises(CapacityError, match="step budget %d exceeded" % (count - 1)):
        run_strategy(g, rule_for(g))
    monkeypatch.undo()
    assert rows(tree) == rows(grown_by_expand(g, rule_for(g)))


def test_step_budget_stops_deciding(monkeypatch):
    # past the budget in distinct residuals alone, the rule is not asked again
    g = build_graph("delta", m=2, n=6)
    calls = []

    def counted(graph, res):
        calls.append(res)
        return rule_for(g)(graph, res)

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


def test_hand_grown_tree_reads_its_nodes():
    # a tree grown by expand has no map; its readers list its nodes, and a
    # map tree listed once keeps the same list
    rng = random.Random(25)
    g = sparse_random_graph(9, 0.3, rng)
    tree = grown_by_expand(g, GENERIC_RULE)
    assert tree.steps is None and tree.nodes is tree.nodes
    grown = run_strategy(g, GENERIC_RULE)
    assert grown.nodes is grown.nodes
    assert critical_cells(grown) == critical_cells(tree)
