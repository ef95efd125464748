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
on demand for oracle comparisons and acyclicity checks.  It builds each
site's faces one size layer at a time on a bitmask of the site's ground
set, the way independence_complex builds the complex, and checks in bulk
that no face is paired twice.  verify_acyclic makes one pass per size layer:
the facets of each upper face that are lower faces of the same layer give
both the cover check and the successor list, and a depth-first search over
the pairs with successors looks for a gradient cycle.

Residuals are carried from the parent rather than recomputed from the whole
vertex set.  The root's residual is every vertex.  A Split(v) child that
excludes v drops v; a child that takes v into A (Split(v) or Match(p, v))
drops v and N(v); the empty child of a Free step keeps its parent's.  Each
is the same sorted tuple V minus (A, B and N(A)) would give, because N(A)
is forced into B along every legal run.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass, field
from itertools import combinations

from .complexes import (CapacityError, DEFAULT_FACE_CAP, SimplicialComplex,
                        _above_masks, _count_independent, _neighbour_masks)
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
        return {*self.up, *self.down}


def collect_pairing(tree: MatchingTree, face_cap: int = DEFAULT_FACE_CAP) -> FacePairing:
    """Materialize the face pairing recorded by a completed tree.

    At a free site every face of Sigma(A, B) avoiding p pairs with its
    extension by p; at a matching site the same happens within
    Sigma(A, B + v).  Each site's faces come from _site_pairs one size layer
    at a time and go into the dicts in bulk.  A face paired twice is an
    internal invariant violation: it shows as a dict smaller than the number
    of pairs added, or as a face that is both a lower and an upper face, and
    the pairs are then replayed through FacePairing.add, which raises
    MatchingTreeError at the first repeat.  CapacityError is raised once
    2 * pairs would exceed face_cap.
    """
    pairing = FacePairing()
    up, down = pairing.up, pairing.down
    added = 0
    for los, his in _site_pairs(tree, face_cap):
        up.update(zip(los, his))
        down.update(zip(his, los))
        added += len(los)
    if len(up) < added or len(down) < added or not up.keys().isdisjoint(down):
        replay = FacePairing()
        for los, his in _site_pairs(tree, face_cap):
            for lo, hi in zip(los, his):
                replay.add(lo, hi)
    return pairing


def _site_pairs(tree: MatchingTree, face_cap: int):
    """The pairs of every site as (lower faces, upper faces) lists, one size
    layer of a site at a time.

    A site's lower faces are A + J for J independent in its ground set (the
    residual minus p, and minus v at a matching site), built layer by layer
    on one ground bitmask the way independence_complex builds faces: each
    face carries the ground vertices above the last vertex of its J that are
    adjacent to none of J, and a child inserts one of them with bisect.  The
    upper face inserts p the same way.  The pair count is checked against
    the cap per parent, before its children are built.
    """
    above = _above_masks(_neighbour_masks(tree.graph))
    pairs = 0

    def charge(k):
        nonlocal pairs
        pairs += k
        if 2 * pairs > face_cap:
            raise CapacityError("pairing exceeds face cap %d" % face_cap)

    for node in tree.sites():
        step = node.step
        p = step.p
        ground = sum(1 << u for u in node.residual) & ~(1 << p)
        if isinstance(step, Match):
            ground &= ~(1 << step.v)
        los, masks = [tuple(sorted(node.A))], [ground]
        charge(1)
        while los:
            yield los, [lo[:(i := bisect(lo, p))] + (p,) + lo[i:] for lo in los]
            next_los, next_masks = [], []
            for lo, mask in zip(los, masks):
                if not mask:
                    continue
                charge(mask.bit_count())
                while mask:
                    low = mask & -mask
                    u = low.bit_length() - 1
                    i = bisect(lo, u)
                    next_los.append(lo[:i] + (u,) + lo[i:])
                    next_masks.append(mask & above[u])
                    mask ^= low
            los, masks = next_los, next_masks


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
    own: the pairs (lo, hi) with |lo| = s, with an edge from (lo, hi) to
    (lo', hi') when lo' is a facet of hi other than lo.

    One pass over each layer checks every pair and builds the successor
    lists: the facets of hi that are lower faces of the layer, from
    combinations(hi, s).  lo must be among them (and |hi| = s + 1), or the
    pair is not a cover relation.  The rest, reversed, are the successors in
    the order hi[0], hi[1], ... is removed.  Every pair is checked before any
    cycle search.  A depth-first search then runs over the pairs that have
    successors, started in sorted order; the first gray node it meets
    closes the witness, so the witness depends only on those two orders.

    Returns (True, None) or (False, witness) where the witness lists the
    matched (lower, upper) pairs around one cycle.  Raises ValueError if the
    pairing mentions a face outside the complex or a pair that is not a
    cover relation.
    """
    face_set = set(complex.all_faces())
    if not (face_set.issuperset(pairing.up) and face_set.issuperset(pairing.down)):
        raise ValueError("pairing mentions a face outside the complex")
    del face_set

    by_size = {}
    for lo, hi in pairing.up.items():
        by_size.setdefault(len(lo), {})[lo] = hi

    layers = []
    for size, layer in sorted(by_size.items()):
        succ = {}
        lower = layer.__contains__
        for lo, hi in layer.items():
            facets = (list(filter(lower, combinations(hi, size)))
                      if len(hi) == size + 1 else ())
            if lo not in facets:
                raise ValueError("pair (%s, %s) is not a cover relation" % (lo, hi))
            if len(facets) > 1:
                facets.remove(lo)
                facets.reverse()
                succ[lo] = facets
        layers.append((layer, succ))

    for layer, succ in layers:
        cycle = _find_cycle(succ)
        if cycle is not None:
            return False, [(lo, layer[lo]) for lo in cycle]
    return True, None


def _find_cycle(succ):
    """The nodes of one directed cycle of the digraph succ, in path order,
    or None.  Nodes without successors are absent from succ: they are sinks
    and lie on no cycle."""
    color = {}  # 1 gray (on the trail), 2 black
    for start in sorted(succ):
        if start in color:
            continue
        color[start] = 1
        trail = [start]
        iters = [iter(succ[start])]
        while iters:
            for nxt in iters[-1]:
                state = color.get(nxt)
                if state == 1:
                    return trail[trail.index(nxt):]
                if state is None and nxt in succ:
                    color[nxt] = 1
                    trail.append(nxt)
                    iters.append(iter(succ[nxt]))
                    break
            else:
                color[trail.pop()] = 2
                iters.pop()
    return None
