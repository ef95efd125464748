"""The pivot rule that grows every matching tree, and the critical-cell
census read off a tree.

PIVOT_RULE(graph, residual_mask) -> step reads a node's residual bitmask
alone (see morse); run_strategy calls it once per distinct residual of a
growth, so it keeps no memo.  It reads Engstrom's fold lemma (Independence
complexes of claw-free graphs, 2008) as a matching-tree step, in the tree
frame of Bousquet-Melou, Linusson & Nevo (2008), and takes the first step
that applies on the residual graph G:

  1. Free(p), p the lowest isolated vertex of G.
  2. Match(p, v), p the highest vertex of degree one in G, v its neighbour.
  3. Split(v), v the lowest vertex that dominates another vertex u: u is
     neither v nor adjacent to v, and N(u) lies in N(v).  The child that
     takes v has u isolated, so that branch pairs off (step 1) and the tree
     goes on in G - v, as the fold lemma's Ind(G) ~ Ind(G - v).
  4. Split(v), v the lowest vertex of G.

It picks by bit index.  In construction order its comb, star and theta
trees leave the paper's census (census_table, and the sphere profiles of
stars and thetas); with the lowest vertex in step 2 the Morse-flow reach of
combs (4,19) and (4,20) passes the homology face cap.  A shuffled comb can
leave more cells: eight shuffles of (2,9) left 16 to 36 in place of 14.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .complexes import _bits
from .graphs import Graph, build_graph
from .morse import (Free, Match, MatchingTree, Split, critical_cells,
                    run_strategy)


@dataclass(frozen=True)
class StrategyScript:
    """A named deterministic pivot rule: (graph, residual mask) -> step."""

    name: str
    decide: object

    def __call__(self, g, residual_mask):
        return self.decide(g, residual_mask)


@dataclass
class CriticalCensus:
    """Critical cells per dimension.  Dimension-0 entries follow the reduced
    convention: the base cell paired against the empty face is not counted,
    which the tree gives for free since only critical leaves are tallied."""

    m: int | None
    n: int | None
    counts: dict = field(default_factory=dict)

    def euler(self) -> int:
        return sum(c if d % 2 == 0 else -c for d, c in self.counts.items())

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n,
                "census": {str(d): c for d, c in sorted(self.counts.items())}}


def _fold_step(g: Graph, res: int):
    """PIVOT_RULE's step at residual res.  v other than u dominates u when v
    lies in N(w) for every residual neighbour w of u, and then v is no
    neighbour of u, or it would be its own."""
    nbr = g.nbr
    verts = _bits(res)
    nbs = [nbr[p] & res for p in verts]
    for p, nb in zip(verts, nbs):
        if not nb:
            return Free(p)
    for p, nb in zip(reversed(verts), reversed(nbs)):
        if nb & (nb - 1) == 0:
            return Match(p, nb.bit_length() - 1)
    dominant = 0
    for u, nb in zip(verts, nbs):
        over = res & ~(1 << u)
        while nb and over:
            w = nb & -nb
            over &= nbr[w.bit_length() - 1]
            nb ^= w
        dominant |= over
    return Split((dominant & -dominant or res & -res).bit_length() - 1)


PIVOT_RULE = StrategyScript("fold", _fold_step)


def census_from_tree(tree: MatchingTree) -> CriticalCensus:
    """The histogram of critical_cells(tree) by dimension, a cell's size
    less one; the cells come by size, so the counts come in increasing
    dimension."""
    params = tree.graph.params
    counts = dict(Counter(c.bit_count() - 1 for c in critical_cells(tree)))
    return CriticalCensus(params.get("m"), params.get("n"), counts)


def _grow(family: str, **params) -> MatchingTree:
    g = build_graph(family, **params)
    return run_strategy(g, PIVOT_RULE)


def path_tree(n: int) -> MatchingTree:
    return _grow("path", n=n)


def star_tree(m: int, n: int) -> MatchingTree:
    return _grow("star", m=m, n=n)


def theta_tree(m: int, n: int) -> MatchingTree:
    return _grow("theta", m=m, n=n)


def comb_tree(m: int, n: int) -> MatchingTree:
    return _grow("delta", m=m, n=n)
