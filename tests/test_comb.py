import pytest

from conftest import star_profile, theta_profile
from gridmorse import (GENERIC_RULE, PIVOT_RULES, build_graph,
                       census_from_tree, comb_census, comb_tree, path_tree,
                       run_strategy, star_tree, theta_tree)


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


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("n", range(1, 10))
def test_star_census(m, n):
    assert census_from_tree(star_tree(m, n)).counts == star_profile(m, n)


def test_star_examples():
    assert census_from_tree(star_tree(3, 3)).counts == {}
    assert census_from_tree(star_tree(3, 4)).counts == {3: 1}
    assert census_from_tree(star_tree(2, 2)).counts == {1: 1}


@pytest.mark.parametrize("m", range(2, 5))
@pytest.mark.parametrize("n", range(1, 9))
def test_theta_census(m, n):
    assert census_from_tree(theta_tree(m, n)).counts == theta_profile(m, n)


def test_theta_examples():
    assert census_from_tree(theta_tree(2, 2)).counts == {1: 2}
    assert census_from_tree(theta_tree(2, 1)).counts == {0: 1}
    assert census_from_tree(theta_tree(3, 3)).counts == {3: 1}


def test_comb_seed_censuses():
    assert comb_census(2, 1).counts == {1: 2}
    assert comb_census(3, 3).counts == {2: 1, 3: 1}
    assert comb_census(2, 2).counts == {2: 1}
    assert comb_census(4, 1).counts == {1: 1, 3: 1}
    assert comb_census(5, 2).counts == {5: 1}


def test_comb_recursion_value():
    assert comb_census(2, 4).counts == {3: 5}


def test_comb_degenerate_sizes():
    assert comb_census(2, 0).counts == {0: 1}
    assert comb_census(2, -1).counts == {}


def test_census_metadata():
    census = comb_census(3, 2)
    assert (census.m, census.n) == (3, 2)
    assert census.total() == 1
    assert census.euler() == -1
    assert census.to_json() == {"m": 3, "n": 2, "census": {"3": 1}}


def test_strategies_are_pure():
    # a freshly built equal graph shares no per-graph state with the tree's,
    # so the rule must recompute every recorded step from the node alone
    cases = [("path", dict(n=8), path_tree(8)),
             ("cycle", dict(n=7),
              run_strategy(build_graph("cycle", n=7), GENERIC_RULE)),
             ("grid2", dict(n=4),
              run_strategy(build_graph("grid2", n=4), GENERIC_RULE)),
             ("star", dict(m=3, n=5), star_tree(3, 5)),
             ("theta", dict(m=3, n=4), theta_tree(3, 4))]
    cases += [("delta", dict(m=m, n=n), comb_tree(m, n))
              for m in (2, 3, 4) for n in (3, 5)]
    for fam, kw, tree in cases:
        g = build_graph(fam, **kw)
        assert g is not tree.graph
        strat = PIVOT_RULES.get(fam, GENERIC_RULE)
        for node in tree.nodes:
            if node.step is not None and node.residual:
                assert strat(g, node) == node.step, (fam, kw, node.id)


def test_tree_reuse_across_runs_deterministic():
    one = comb_tree(3, 3).to_json()
    two = comb_tree(3, 3).to_json()
    assert one == two
