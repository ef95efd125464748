"""Matching-tree engine for discrete Morse matchings on independence complexes.

A tree node Sigma(A, B) stands for the independent sets I with A subset of I
and B disjoint from I.  Because N(A) is forced into B along every legal run,
those I are exactly A union J for J an independent set of the residual graph
on V minus (A, B and N(A)); in particular |Sigma(A, B)| >= 2 exactly when the
residual is nonempty, which is what the growth loop tests.

Growth steps, applied at a leaf with nonempty residual:

  Free(p)      p residual with no residual neighbors.  The whole node pairs
               off (sigma against sigma + p) and the branch ends in an
               empty-labeled leaf.
  Match(p, v)  p residual with exactly one residual neighbor v.  The faces
               avoiding v pair off against p; the child keeps Sigma(A+v,
               B+N(v)).
  Split(v)     v residual; two children Sigma(A, B+v) and Sigma(A+v, B+N(v)),
               no pairing.

Leaves whose residual is empty contribute their A-set as a critical cell.
Pairings are never materialized during growth; collect_pairing rebuilds them
on demand for oracle comparisons and acyclicity checks.

Residuals are carried from the parent rather than recomputed from the whole
vertex set.  The root's residual is every vertex.  A Split(v) child that
excludes v drops v; a child that takes v into A (Split(v) or Match(p, v))
drops v and N(v); the empty child of a Free step keeps its parent's.  Each
is the same sorted tuple V minus (A, B and N(A)) would give, because N(A)
is forced into B along every legal run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import (CapacityError, DEFAULT_FACE_CAP, SimplicialComplex,
                        _count_independent, _neighbour_masks)
from .graphs import Graph

DEFAULT_STEP_BUDGET = 1_000_000


class MatchingTreeError(ValueError):
    """A step violated one of the matching-tree preconditions."""


@dataclass(frozen=True)
class Free:
    p: int


@dataclass(frozen=True)
class Match:
    p: int
    v: int


@dataclass(frozen=True)
class Split:
    v: int


@dataclass
class SigmaNode:
    id: int
    A: frozenset
    B: frozenset
    parent: int | None
    residual: tuple
    kind: str | None = None  # root | free-site | matching-site | splitting-site | terminal | empty
    step: object = None
    children: list = field(default_factory=list)


class MatchingTree:
    def __init__(self, g: Graph):
        self.graph = g
        self.nodes = [SigmaNode(0, frozenset(), frozenset(), None,
                                tuple(range(len(g))), kind="root")]

    def node(self, nid: int) -> SigmaNode:
        return self.nodes[nid]

    def _add(self, A, B, residual, parent, kind=None) -> int:
        if A & B:
            raise MatchingTreeError("A and B intersect")
        nid = len(self.nodes)
        node = SigmaNode(nid, A, B, parent, residual, kind=kind)
        self.nodes.append(node)
        self.nodes[parent].children.append(nid)
        return nid

    def critical_leaves(self):
        return [nd for nd in self.nodes if nd.kind == "terminal"]

    def sites(self):
        """Nodes that recorded a pairing (free or matching steps)."""
        return [nd for nd in self.nodes if isinstance(nd.step, (Free, Match))]

    def to_json(self) -> dict:
        g = self.graph

        def names(ix):
            return [str(g.vertices[i]) for i in sorted(ix)]

        def step_json(st):
            if isinstance(st, Free):
                return {"free": str(g.vertices[st.p])}
            if isinstance(st, Match):
                return {"match": [str(g.vertices[st.p]), str(g.vertices[st.v])]}
            if isinstance(st, Split):
                return {"split": str(g.vertices[st.v])}
            return None

        edges = []
        for nd in self.nodes:
            for ch in nd.children:
                edges.append({"from": nd.id, "to": ch, "step": step_json(nd.step)})
        return {
            "graph": g.to_json(),
            "nodes": [{"id": nd.id, "A": names(nd.A), "B": names(nd.B),
                       "kind": nd.kind} for nd in self.nodes],
            "edges": edges,
            "critical": [names(nd.A) for nd in self.critical_leaves()],
        }


def residual_vertices(g: Graph, node: SigmaNode) -> set:
    """V minus (A, B and N(A)), as a set of labels."""
    return {g.vertices[i] for i in node.residual}


def sigma_count(g: Graph, node: SigmaNode) -> int:
    """|Sigma(A, B)| = number of independent sets of the residual graph."""
    return _count_independent(_neighbour_masks(g),
                              sum(1 << i for i in node.residual))


def _taking(g: Graph, res, v):
    """The residual of a child that puts v into A and N(v) into B."""
    shadow = g.adjsets[v]
    return tuple(u for u in res if u != v and u not in shadow)


def expand(tree: MatchingTree, node_id: int, step) -> MatchingTree:
    """Apply one growth step at a leaf, after checking its preconditions."""
    g = tree.graph
    node = tree.node(node_id)
    if node.children:
        raise MatchingTreeError("node %d already expanded" % node_id)
    if node.kind == "empty":
        raise MatchingTreeError("cannot expand an empty-labeled leaf")
    if not node.residual and node.kind != "root":
        raise MatchingTreeError("node %d has |Sigma| = 1; nothing to expand" % node_id)
    AB = node.A | node.B
    res = node.residual

    if isinstance(step, Free):
        p = step.p
        if p in AB:
            raise MatchingTreeError("free vertex %s lies in A or B" % g.vertices[p])
        loose = [u for u in g.adj[p] if u not in AB]
        if loose:
            raise MatchingTreeError(
                "free vertex %s has neighbors outside A and B: %s"
                % (g.vertices[p], [str(g.vertices[u]) for u in loose]))
        tree._add(node.A, node.B, res, node_id, kind="empty")
        site = "free-site"
    elif isinstance(step, Match):
        p, v = step.p, step.v
        if p in AB:
            raise MatchingTreeError("match pivot %s lies in A or B" % g.vertices[p])
        if v not in g.adjsets[p]:
            raise MatchingTreeError(
                "%s is not a neighbor of %s" % (g.vertices[v], g.vertices[p]))
        loose = [u for u in g.adj[p] if u not in AB]
        if loose != [v]:
            raise MatchingTreeError(
                "pivot %s must have exactly one neighbor outside A and B (got %s)"
                % (g.vertices[p], [str(g.vertices[u]) for u in loose]))
        tree._add(node.A | {v}, node.B | g.adjsets[v], _taking(g, res, v), node_id)
        site = "matching-site"
    elif isinstance(step, Split):
        v = step.v
        if v not in res:
            raise MatchingTreeError(
                "splitting vertex %s is not residual" % g.vertices[v])
        tree._add(node.A, node.B | {v}, tuple(u for u in res if u != v), node_id)
        tree._add(node.A | {v}, node.B | g.adjsets[v], _taking(g, res, v), node_id)
        site = "splitting-site"
    else:
        raise MatchingTreeError("unknown step %r" % (step,))

    node.step = step
    if node.kind != "root":
        node.kind = site
    return tree


def run_strategy(g: Graph, strategy, step_budget: int = DEFAULT_STEP_BUDGET) -> MatchingTree:
    """Grow a matching tree to completion under a deterministic pivot rule.

    strategy(graph, node) must return a legal Free/Match/Split step for every
    leaf with nonempty residual.
    """
    tree = MatchingTree(g)
    stack = [0]
    steps = 0
    while stack:
        nid = stack.pop()
        node = tree.node(nid)
        if node.kind == "empty":
            continue
        if not node.residual:
            if node.kind != "root":
                node.kind = "terminal"
            continue
        steps += 1
        if steps > step_budget:
            raise MatchingTreeError("step budget %d exceeded" % step_budget)
        step = strategy(g, node)
        expand(tree, nid, step)
        stack.extend(reversed(node.children))
    return tree


class FacePairing:
    """A partial matching on the face poset: pairs (face, face + p)."""

    def __init__(self):
        self.up = {}    # lower face -> upper face
        self.down = {}  # upper face -> lower face

    def __len__(self):
        return len(self.up)

    def add(self, lo, hi):
        if lo in self.up or lo in self.down or hi in self.up or hi in self.down:
            raise MatchingTreeError("face paired twice: %s / %s" % (lo, hi))
        self.up[lo] = hi
        self.down[hi] = lo

    def paired(self, face) -> bool:
        return face in self.up or face in self.down

    def pairs(self):
        return sorted(self.up.items())

    def paired_faces(self):
        return set(self.up) | set(self.down)


def collect_pairing(tree: MatchingTree, face_cap: int = DEFAULT_FACE_CAP) -> FacePairing:
    """Materialize the face pairing recorded by a completed tree.

    At a free site every face of Sigma(A, B) avoiding p pairs with its
    extension by p; at a matching site the same happens within
    Sigma(A, B + v).  Double pairing of any face is an internal invariant
    violation and raises.
    """
    g = tree.graph
    pairing = FacePairing()
    budget = face_cap

    for node in tree.sites():
        step = node.step
        if isinstance(step, Free):
            ground = [u for u in node.residual if u != step.p]
        else:
            ground = [u for u in node.residual if u not in (step.p, step.v)]
        p = step.p
        base = tuple(sorted(node.A))
        gset = set(ground)
        adj = {v: [u for u in g.adj[v] if u in gset] for v in ground}
        blocked = {v: 0 for v in ground}

        def emit(J):
            nonlocal budget
            lo = tuple(sorted(base + J))
            hi = tuple(sorted(lo + (p,)))
            pairing.add(lo, hi)
            budget -= 2
            if budget < 0:
                raise CapacityError("pairing exceeds face cap %d" % face_cap)

        def grow(start, J):
            emit(J)
            for idx in range(start, len(ground)):
                v = ground[idx]
                if blocked[v]:
                    continue
                for u in adj[v]:
                    blocked[u] += 1
                grow(idx + 1, J + (v,))
                for u in adj[v]:
                    blocked[u] -= 1

        grow(0, ())
    return pairing


def critical_cells(tree: MatchingTree):
    """A-sets of the terminal leaves, as sorted index tuples."""
    cells = [tuple(sorted(nd.A)) for nd in tree.critical_leaves()]
    cells.sort(key=lambda f: (len(f), f))
    return cells


def verify_acyclic(complex: SimplicialComplex, pairing: FacePairing):
    """Check that a face pairing is acyclic on the face poset.

    Orient matched covers upward and all other covers downward; the pairing
    is acyclic iff this digraph has no directed cycle.  Any such cycle stays
    within two adjacent dimensions, so each size layer is checked on its
    own.  Returns (True, None) or (False, witness) where the witness lists
    the matched (lower, upper) pairs around one cycle.
    """
    face_set = set(complex.all_faces())
    for lo, hi in pairing.up.items():
        if lo not in face_set or hi not in face_set:
            raise ValueError("pairing mentions a face outside the complex")
        if len(hi) != len(lo) + 1 or not set(lo) < set(hi):
            raise ValueError("pair (%s, %s) is not a cover relation" % (lo, hi))

    by_size = {}
    for lo, hi in pairing.up.items():
        by_size.setdefault(len(lo), {})[lo] = hi

    for size, layer in sorted(by_size.items()):
        # edge: (lo, hi) -> (lo', hi') when lo' is a facet of hi other than lo
        color = {lo: 0 for lo in layer}  # 0 white, 1 gray, 2 black
        for start in sorted(layer):
            if color[start]:
                continue
            trail = [start]
            iters = [iter(_matched_facets(layer[start], start, layer))]
            color[start] = 1
            while trail:
                try:
                    nxt = next(iters[-1])
                except StopIteration:
                    color[trail.pop()] = 2
                    iters.pop()
                    continue
                if color[nxt] == 1:
                    cyc = trail[trail.index(nxt):]
                    witness = [(lo, layer[lo]) for lo in cyc]
                    return False, witness
                if color[nxt] == 0:
                    color[nxt] = 1
                    trail.append(nxt)
                    iters.append(iter(_matched_facets(layer[nxt], nxt, layer)))
    return True, None


def _matched_facets(hi, lo, layer):
    """Facets of hi, other than lo, that are matched upward in this layer."""
    for i in range(len(hi)):
        facet = hi[:i] + hi[i + 1:]
        if facet != lo and facet in layer:
            yield facet
