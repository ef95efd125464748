"""The deterministic pivot rule for paths, extended stars, theta graphs and
comb graphs, plus the critical-cell census read off a completed tree.

`PIVOT_RULES` maps a graph family to its rule: `PATH_RULE` for paths and
`FAMILY_RULE` for the star, theta and comb ("delta") families.  Each is a
pure function of a node's (A, B) sets.  The path rule frees an isolated
residual vertex if there is one and otherwise matches the path's low end:
Match(1, 2), then Match(4, 5), and so on.  The family rule is one decision
procedure for all phases; it classifies the connected components of the
residual graph and acts on the first applicable rule:

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
     smallest spine vertex other than the component's acting left hub.

Rule order matters: teeth are resolved (rules 2 and 3) before the nested
comb continues (rule 5), so the script stays a function of (A, B) alone.
On a comb the backbone splits run along the spine, each tooth consumes its
star factor, and the all-excluded leaf is a theta; the degenerate sizes
n = 0 and n = -1 resolve through the theta and free-vertex rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Graph, build_graph
from .morse import Free, Match, MatchingTree, Split, run_strategy


@dataclass(frozen=True)
class StrategyScript:
    """A named deterministic pivot rule: (graph, node) -> step."""

    name: str
    decide: object

    def __call__(self, g, node):
        return self.decide(g, node)


@dataclass
class CriticalCensus:
    """Critical cells per dimension.  Dimension-0 entries follow the reduced
    convention: the base cell paired against the empty face is not counted,
    which the tree gives for free since only critical leaves are tallied."""

    m: int | None
    n: int | None
    counts: dict = field(default_factory=dict)
    reduced_zero: bool = True

    def total(self) -> int:
        return sum(self.counts.values())

    def euler(self) -> int:
        return sum(c if d % 2 == 0 else -c for d, c in self.counts.items())

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n,
                "census": {str(d): c for d, c in sorted(self.counts.items())}}


def _components(g: Graph, res, rset):
    """Connected components of the residual graph, as sorted vertex lists
    in the order of their lowest vertex."""
    seen = set()
    comps = []
    for v in res:
        if v in seen:
            continue
        comp = []
        todo = [v]
        seen.add(v)
        while todo:
            x = todo.pop()
            comp.append(x)
            for u in g.adj[x]:
                if u in rset and u not in seen:
                    seen.add(u)
                    todo.append(u)
        comps.append(sorted(comp))
    return comps


def _consume_path(g: Graph, comp, rset):
    """Match step eating a detached tendril interval from its far end."""
    p = max(comp)
    nbr = [u for u in g.adj[p] if u in rset]
    if len(nbr) != 1:
        raise RuntimeError("path end %s is not degree one" % g.vertices[p])
    return Match(p, nbr[0])


def _family_step(g: Graph, node):
    """Shared decision procedure for star, theta and comb graphs."""
    res = node.residual
    rset = set(res)
    comps = _components(g, res, rset)

    # rule 1: the lowest isolated residual vertex is the first singleton
    for comp in comps:
        if len(comp) == 1:
            return Free(comp[0])

    # rule 2: detached tendril paths
    for comp in comps:
        if all(g.vertices[x].kind == "t" for x in comp):
            return _consume_path(g, comp, rset)

    # rule 3: a star in progress
    for comp in comps:
        hubs = [x for x in comp if g.vertices[x].kind != "t"]
        if len(hubs) != 1:
            continue
        center = hubs[0]
        intervals = {}
        for x in comp:
            lab = g.vertices[x]
            if lab.kind == "t":
                intervals.setdefault(lab.args[0], []).append(x)
        lengths = {len(ks) for ks in intervals.values()}
        if len(lengths) == 1 and lengths.pop() % 3 != 0:
            return Split(center)
        j = min(intervals)
        return _consume_path(g, intervals[j], rset)

    # rule 4: a theta joining the acting left hub to b
    for comp in comps:
        hubs = [x for x in comp if g.vertices[x].kind != "t"]
        if len(hubs) != 2:
            continue
        right = [x for x in hubs if g.vertices[x].kind == "b"]
        if not right:
            raise RuntimeError("two-hub component without a right hub")
        return Split(right[0])

    # rule 5: comb backbone
    for comp in comps:
        hubs = sorted(x for x in comp if g.vertices[x].kind != "t")
        if len(hubs) < 3:
            continue
        acting_a = hubs[0]
        spines = [x for x in hubs[1:] if g.vertices[x].kind == "s"]
        if not spines:
            raise RuntimeError("comb component without backbone spines")
        return Split(min(spines))

    raise RuntimeError("no rule applies at node %d" % node.id)


def _path_step(g: Graph, node):
    res = node.residual
    rset = set(res)
    for comp in _components(g, res, rset):
        if len(comp) == 1:
            return Free(comp[0])
    p = min(res)
    nbr = [u for u in g.adj[p] if u in rset]
    if len(nbr) != 1:
        raise RuntimeError("path start %s is not degree one" % g.vertices[p])
    return Match(p, nbr[0])


PATH_RULE = StrategyScript("path", _path_step)
FAMILY_RULE = StrategyScript("family", _family_step)

# The pivot rule of each graph family, keyed by Graph.family.
PIVOT_RULES = {"path": PATH_RULE, "star": FAMILY_RULE, "theta": FAMILY_RULE,
               "delta": FAMILY_RULE}


def census_from_tree(tree: MatchingTree) -> CriticalCensus:
    """Histogram of critical-cell dimensions from a completed tree."""
    counts = {}
    for nd in tree.critical_leaves():
        d = len(nd.A) - 1
        counts[d] = counts.get(d, 0) + 1
    params = tree.graph.params
    return CriticalCensus(params.get("m"), params.get("n"), counts)


def census_split(tree: MatchingTree) -> dict:
    """Per-tooth breakdown: critical-cell counts keyed by the smallest spine
    index in the cell (None for cells from the all-excluded theta branch)."""
    g = tree.graph
    out = {}
    for nd in tree.critical_leaves():
        spines = [g.vertices[i].args[0] for i in nd.A if g.vertices[i].kind == "s"]
        key = min(spines) if spines else None
        counts = out.setdefault(key, {})
        d = len(nd.A) - 1
        counts[d] = counts.get(d, 0) + 1
    return out


def path_tree(n: int) -> MatchingTree:
    return run_strategy(build_graph("path", n=n), PATH_RULE)


def star_tree(m: int, n: int) -> MatchingTree:
    return run_strategy(build_graph("star", m=m, n=n), FAMILY_RULE)


def theta_tree(m: int, n: int) -> MatchingTree:
    return run_strategy(build_graph("theta", m=m, n=n), FAMILY_RULE)


def comb_tree(m: int, n: int) -> MatchingTree:
    return run_strategy(build_graph("delta", m=m, n=n), FAMILY_RULE)


def comb_census(m: int, n: int) -> CriticalCensus:
    return census_from_tree(comb_tree(m, n))
