import hashlib
import json
import random
import sys
import tracemalloc
from math import comb as binomial

import pytest

from conftest import (complete_multipartite, groups, star_profile,
                      theta_profile)
from gridmorse import (PIVOT_RULE, Graph, Split, StrategyScript, build_graph,
                       census_from_tree, census_table, collect_pairing,
                       comb_tree, count_independent_sets,
                       critical_cells, full_homology, independence_complex,
                       line_graph, path_tree, plain, reduced_homology,
                       run_strategy, star_tree, theta_tree, verify_acyclic)


def path_profile(n):
    k, r = divmod(n, 3)
    if r == 1:
        return {}
    if r == 0:
        return {k - 1: 1}
    return {k: 1}


@pytest.mark.parametrize("n", range(1, 13))
def test_path_census(n):
    assert census_from_tree(path_tree(n)).counts == path_profile(n)


def test_path_examples():
    assert census_from_tree(path_tree(4)).counts == {}
    assert census_from_tree(path_tree(3)).counts == {0: 1}
    assert census_from_tree(path_tree(5)).counts == {1: 1}


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("n", range(1, 12))
def test_star_census(m, n):
    assert census_from_tree(star_tree(m, n)).counts == star_profile(m, n)


def test_star_examples():
    assert census_from_tree(star_tree(3, 3)).counts == {}
    assert census_from_tree(star_tree(3, 4)).counts == {3: 1}
    assert census_from_tree(star_tree(2, 2)).counts == {1: 1}


@pytest.mark.parametrize("m", range(2, 6))
@pytest.mark.parametrize("n", range(1, 12))
def test_theta_census(m, n):
    assert census_from_tree(theta_tree(m, n)).counts == theta_profile(m, n)


def test_theta_examples():
    assert census_from_tree(theta_tree(2, 2)).counts == {1: 2}
    assert census_from_tree(theta_tree(2, 1)).counts == {0: 1}
    assert census_from_tree(theta_tree(3, 3)).counts == {3: 1}


def test_comb_seed_censuses():
    assert census_from_tree(comb_tree(2, 1)).counts == {1: 2}
    assert census_from_tree(comb_tree(3, 3)).counts == {2: 1, 3: 1}
    assert census_from_tree(comb_tree(2, 2)).counts == {2: 1}
    assert census_from_tree(comb_tree(4, 1)).counts == {1: 1, 3: 1}
    assert census_from_tree(comb_tree(5, 2)).counts == {5: 1}


def test_comb_recursion_value():
    assert census_from_tree(comb_tree(2, 4)).counts == {3: 5}


def test_comb_degenerate_sizes():
    assert census_from_tree(comb_tree(2, 0)).counts == {0: 1}
    assert census_from_tree(comb_tree(2, -1)).counts == {}


@pytest.mark.parametrize("m", range(2, 6))
def test_comb_census_equals_census_table(m):
    # the pivot rule's claim to the paper's chain-space dimensions: in
    # construction order its comb trees leave exactly the cells that the
    # census recursion counts (they do through n = 32; this checks n <= 24)
    table = census_table(m, 24)
    for n in range(25):
        assert census_from_tree(comb_tree(m, n)).counts == table.row_counts(n), n
    assert census_from_tree(comb_tree(m, -1)).counts == {}


@pytest.mark.parametrize("n", range(1, 7))
def test_census_of_an_edgeless_graph_split_throughout(n):
    # every face of the full simplex is critical, the empty face among them,
    # and the counts come in increasing dimension
    def split_lowest(graph, res):
        return Split((res & -res).bit_length() - 1)

    g = Graph([plain(i) for i in range(1, n + 1)], [])
    counts = census_from_tree(run_strategy(g, split_lowest)).counts
    assert list(counts.items()) == [(k - 1, binomial(n, k)) for k in range(n + 1)]


def test_census_of_the_empty_graph_is_empty():
    # the root of a graph with no vertex is not a terminal leaf
    g = Graph([], [])
    assert census_from_tree(run_strategy(g, PIVOT_RULE)).counts == {}


def test_census_holds_only_the_cells_still_to_be_read():
    # critical_cells drops each residual's cells once its last parent has
    # read them; holding every residual's cells to the end peaked at about
    # 16x the returned cells on (5,32), whose 9,526 residuals under the
    # paper's rule carried 38,385 (the pivot rule's 272 carry as many)
    tree = comb_tree(5, 32)
    cells = critical_cells(tree)
    size = sys.getsizeof(cells) + sum(map(sys.getsizeof, cells))
    tracemalloc.start()
    try:
        census = census_from_tree(tree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(census.counts.values()) == len(cells) == 38_385
    assert peak < 4 * size, (peak, size)


def test_census_metadata():
    census = census_from_tree(comb_tree(3, 2))
    assert (census.m, census.n) == (3, 2)
    assert sum(census.counts.values()) == 1
    assert census.euler() == -1
    assert census.to_json() == {"m": 3, "n": 2, "census": {"3": 1}}


def test_strategies_are_pure():
    # each step is decided on an equal graph built afresh for that node, so
    # no per-graph state can answer it: every recorded step is checked
    # against a decision from the node's residual alone
    cases = [("path", dict(n=8), path_tree(8)),
             ("cycle", dict(n=7),
              run_strategy(build_graph("cycle", n=7), PIVOT_RULE)),
             ("grid2", dict(n=4),
              run_strategy(build_graph("grid2", n=4), PIVOT_RULE)),
             ("star", dict(m=3, n=5), star_tree(3, 5)),
             ("theta", dict(m=3, n=4), theta_tree(3, 4))]
    cases += [("delta", dict(m=m, n=n), comb_tree(m, n))
              for m in (2, 3, 4) for n in (3, 5)]
    for fam, kw, tree in cases:
        for node in tree.nodes:
            if node.step is not None and node.residual_mask:
                g = build_graph(fam, **kw)
                assert g is not tree.graph
                assert PIVOT_RULE(g, node.residual_mask) == node.step, (
                    fam, kw, node.id)


@pytest.mark.parametrize("g", [
    build_graph("delta", m=2, n=9),
    line_graph(complete_multipartite(*[1] * 7)),
], ids=["delta-2-9", "M(K7)"])
def test_rule_is_called_once_per_distinct_residual(g):
    # run_strategy keeps the one step memo, local to the growth: the rule
    # decides each residual once, and nodes that repeat a residual (41
    # residuals decide 114 nodes on (2,9), 97 decide 170 on M(K7)) reuse it
    calls = []

    def counted(graph, res):
        calls.append(res)
        return PIVOT_RULE(graph, res)

    tree = run_strategy(g, StrategyScript("counted", counted))
    decided = {nd.residual_mask for nd in tree.nodes if nd.step}
    assert len(calls) == len(decided) and set(calls) == decided
    assert len(decided) < sum(1 for nd in tree.nodes if nd.step)
    assert tree.to_json() == run_strategy(g, PIVOT_RULE).to_json()


def test_tree_reuse_across_runs_deterministic():
    one = comb_tree(3, 3).to_json()
    two = comb_tree(3, 3).to_json()
    assert one == two


FAMILY_SIZES = {"star": [(m, n) for m in range(1, 5) for n in range(1, 9)],
                "theta": [(m, n) for m in range(2, 5) for n in range(1, 9)],
                "delta": [(m, n) for m in range(2, 5) for n in range(-1, 9)]}
MAKERS = {"star": star_tree, "theta": theta_tree, "delta": comb_tree}


def shuffled(g, rng):
    """The same graph, family and parameters with its vertex order shuffled."""
    order = list(g.vertices)
    rng.shuffle(order)
    return Graph(order, [(g.vertices[i], g.vertices[j]) for i, j in g.edges()],
                 g.family, g.params)


@pytest.mark.parametrize("fam", sorted(FAMILY_SIZES))
def test_pivot_rule_accepts_any_vertex_order(fam):
    # run_strategy checks every step, so each tree is legal; complexes of
    # at most 5,000 faces are certified and their Morse-route homology
    # checked against full SNF.  The census may depend on the order: the
    # rule picks vertices by bit index, and a shuffled comb can leave more
    # cells than the paper's census
    rng = random.Random(20160603)
    for m, n in FAMILY_SIZES[fam]:
        for _ in range(2):
            g = shuffled(build_graph(fam, m=m, n=n), rng)
            tree = run_strategy(g, PIVOT_RULE)
            if count_independent_sets(g, cap=5000) > 5000:
                continue
            cx = independence_complex(g)
            pairing = collect_pairing(tree)
            assert verify_acyclic(cx, pairing) == (True, None)
            assert (pairing.paired_faces() | set(critical_cells(tree))
                    == set(cx.all_faces()))
            assert (groups(reduced_homology(cx))
                    == groups(full_homology(cx))), (m, n)


# sha256 of the JSON of every tree of FAMILY_SIZES in construction order, in
# the order of the list, as the pivot rule grows them
TREE_DIGESTS = {
    "star": "92471ad0cc00de9999fac79b626a9c13a0af132921f2fdebba9499c07c860288",
    "theta": "ead6827981bb0906b7f10db43b75e5e2d3e4bb9e225efef60b1f0bda1d1a4e27",
    "delta": "9873528ecdfe46128e00128c606a5063458b17c279a4579f8bd02b3f0f3521d3",
}


@pytest.mark.parametrize("fam", sorted(TREE_DIGESTS))
def test_family_trees_in_construction_order_pinned(fam):
    h = hashlib.sha256()
    for m, n in FAMILY_SIZES[fam]:
        h.update(json.dumps(MAKERS[fam](m, n).to_json(), sort_keys=True).encode())
    assert h.hexdigest() == TREE_DIGESTS[fam]
