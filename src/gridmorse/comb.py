"""The pivot rules that grow matching trees, the paper's rule and a generic
rule for every other graph, plus the critical-cell census read off a tree.

`rule_for(g)` gives the star, theta and comb ("delta") families
`FAMILY_RULE` and every other graph `GENERIC_RULE`, and every tree helper
here takes its rule from it.  A rule is a function strategy(graph,
residual_mask) -> step of a node's residual bitmask alone (see morse) and
computes from it whatever else it reads; run_strategy calls it once per
distinct residual of a growth and the tree holds that one step for every
node with the residual, so no rule keeps a memo.
The generic rule frees the lowest isolated residual vertex, else matches the
lowest one of residual degree one with its neighbour, else splits the
lowest one: on a path, Match(1, 2), then Match(4, 5), and so on.
The family rule is one decision procedure for all phases; it classifies the
connected components of the residual graph and acts on the first rule that
applies:

  1. a residual vertex with no residual neighbors exists -> Free the
     lowest one, the first singleton component.  This kills contractible
     branches (path remnants of length one, the hub left over after its
     tendrils are consumed, the far hub at the last tooth, and the
     isolated-vertex comb base).
  2. a component made of tendril vertices only is a detached path; consume
     it from its far end with Match steps, lowest path index first.
  3. a component with exactly one non-tendril vertex is a star in progress:
     when its tendril intervals are equal with length not divisible by 3,
     split at the hub; otherwise keep consuming the lowest path.
  4. a component with two non-tendril vertices is a theta; split at its
     right hub.
  5. otherwise the component is a comb awaiting its backbone; split the
     earliest spine vertex other than the component's acting left hub.

Rule order matters: teeth are resolved (rules 2 and 3) before the nested
comb continues (rule 5), so the script stays a function of the residual
alone.  On a comb the backbone splits run along the spine, each tooth
consumes its star factor, and the all-excluded leaf is a theta; the
degenerate sizes n = 0 and n = -1 resolve through the theta and
free-vertex rules.

A component is classified by bitmask tests against tendril, spine and
right-hub masks computed once per graph.  The rule accepts any vertex
order: the acting left hub, the backbone spine and a path's far end are
picked by each vertex's construction position (a, s1..sn, b, then t_{j,k}
by j and k), also computed once per graph, not by bit index.  In
construction order the two agree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

from .complexes import _bits, _components
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


_KIND_ORDER = {"a": 0, "s": 1, "b": 2}  # then the tendrils "t"


@lru_cache(maxsize=1)
def _graph_masks(g: Graph):
    """What the family rule reads, computed once per graph: the bitmasks of
    all tendril vertices, of the tendril vertices of each tooth path in
    order of its index j, of the spine vertices and of the right hub; each
    vertex's construction position (a, s1..sn, b, t_{j,k} by j then k),
    indexed by vertex.  Graphs hash by identity, so an equal graph built
    afresh gets its own entry."""
    kinds = {}
    paths = {}
    for i, lab in enumerate(g.vertices):
        kinds[lab.kind] = kinds.get(lab.kind, 0) | 1 << i
        if lab.kind == "t":
            paths[lab.args[0]] = paths.get(lab.args[0], 0) | 1 << i
    order = sorted(range(len(g)), key=lambda i: (
        _KIND_ORDER.get(g.vertices[i].kind, 3), g.vertices[i].args))
    pos = [0] * len(g)
    for rank, i in enumerate(order):
        pos[i] = rank
    return (kinds.get("t", 0), [paths[j] for j in sorted(paths)],
            kinds.get("s", 0), kinds.get("b", 0), pos)


def _path_end(g: Graph, comp, path, pos):
    """Match step eating a detached tendril interval `path` of the component
    `comp` from its far end, the vertex latest in construction order."""
    p = max(_bits(path), key=pos.__getitem__)
    nb = g.nbr[p] & comp
    if not nb or nb & (nb - 1):
        raise RuntimeError("path end %s is not degree one" % g.vertices[p])
    return Match(p, nb.bit_length() - 1)


def _lowest(mask):
    return (mask & -mask).bit_length() - 1


def _first(mask, pos):
    """The vertex of `mask` earliest in construction order."""
    return min(_bits(mask), key=pos.__getitem__)


def _family_step(g: Graph, res: int):
    """Shared decision procedure for star, theta and comb graphs.

    Every component of the residual but a singleton falls under exactly one
    of rules 2..5, by its number of non-tendril vertices (0, 1, 2, or 3 and
    more), so the step is the step of the first component under the lowest
    rule."""
    tendrils, paths, spines, right, pos = _graph_masks(g)
    best, best_rank = 0, 4
    for comp in _components(g.nbr, res):
        # rule 1: the lowest isolated residual vertex is the first singleton
        if comp & (comp - 1) == 0:
            return Free(comp.bit_length() - 1)
        rank = min((comp & ~tendrils).bit_count(), 3)
        if rank < best_rank:
            best, best_rank = comp, rank
    if not best:
        raise RuntimeError("no rule applies to residual %s" % (_bits(res),))
    hubs = best & ~tendrils
    if best_rank == 0:
        # rule 2: a detached tendril path
        return _path_end(g, best, best, pos)
    if best_rank == 1:
        # rule 3: a star in progress
        intervals = [best & path for path in paths if best & path]
        lengths = {iv.bit_count() for iv in intervals}
        if len(lengths) == 1 and lengths.pop() % 3 != 0:
            return Split(_lowest(hubs))
        return _path_end(g, best, intervals[0], pos)
    if best_rank == 2:
        # rule 4: a theta joining the acting left hub to b
        if not hubs & right:
            raise RuntimeError("two-hub component without a right hub")
        return Split(_lowest(hubs & right))
    # rule 5: comb backbone; the earliest hub is the acting left hub
    backbone = hubs & ~(1 << _first(hubs, pos)) & spines
    if not backbone:
        raise RuntimeError("comb component without backbone spines")
    return Split(_first(backbone, pos))


def _generic_step(g: Graph, res: int):
    verts = _bits(res)
    for p in verts:
        if not g.nbr[p] & res:
            return Free(p)
    for p in verts:
        nb = g.nbr[p] & res
        if nb & (nb - 1) == 0:
            return Match(p, nb.bit_length() - 1)
    return Split(verts[0])


GENERIC_RULE = StrategyScript("generic", _generic_step)
FAMILY_RULE = StrategyScript("family", _family_step)


def rule_for(g: Graph) -> StrategyScript:
    """The pivot rule that grows g's matching tree: the paper's rule for its
    family, else the generic rule."""
    if g.family in ("star", "theta", "delta"):
        return FAMILY_RULE
    return GENERIC_RULE


def census_from_tree(tree: MatchingTree) -> CriticalCensus:
    """The histogram of critical_cells(tree) by dimension, a cell's size
    less one; the cells come by size, so the counts come in increasing
    dimension."""
    params = tree.graph.params
    counts = dict(Counter(c.bit_count() - 1 for c in critical_cells(tree)))
    return CriticalCensus(params.get("m"), params.get("n"), counts)


def _grow(family: str, **params) -> MatchingTree:
    g = build_graph(family, **params)
    return run_strategy(g, rule_for(g))


def path_tree(n: int) -> MatchingTree:
    return _grow("path", n=n)


def star_tree(m: int, n: int) -> MatchingTree:
    return _grow("star", m=m, n=n)


def theta_tree(m: int, n: int) -> MatchingTree:
    return _grow("theta", m=m, n=n)


def comb_tree(m: int, n: int) -> MatchingTree:
    return _grow("delta", m=m, n=n)
