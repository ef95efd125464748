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

Leaves whose residual is empty are marked terminal as they are added and
contribute their A-set as a critical cell.  Every step is checked against
the residual alone, by _check_step: a node's A and B are disjoint from its
residual and cover the rest.  The subtree under a node depends only on its
residual too, so a tree is its residual -> step map: run_strategy walks the
distinct residuals reachable from the root, calls the pivot rule and
checks the step once for each, and returns a MatchingTree holding that
map.  _children gives a step's child residuals, the one rule every reader
of the map follows.  critical_cells and the partner walk read the map,
one pass over it smallest residual first (a child's residual is a proper
subset of its parent's), and list no node; the census
(comb.census_from_tree) is the histogram of critical_cells.  The nodes are
listed on first read of MatchingTree.nodes, by _list_nodes, replaying the
map depth first from the root; to_json, sites and collect_pairing read
them.

Faces are vertex bitmasks, as in complexes.  Pairings are never
materialized during growth; collect_pairing rebuilds them on demand for
oracle comparisons and acyclicity checks.  It counts the pairs of every
site exactly and refuses them over the face cap before it builds any face;
then complexes._layers lists the J of each site's faces A | J and A | p | J
one size layer at a time on a bitmask of the site's ground set, and
collect_pairing checks in bulk that no face is paired twice.
_partner_walk finds the same partners one face at a time, for the Morse
route in homology: it compiles the map once to flat records and walks a
face down from the root.  Split(v) goes to the child given by whether v is
in the face, Free(p) returns face ^ 1 << p, Match(p, v) goes to its child
if v is in the face and otherwise returns face ^ 1 << p, and a leaf means
the face is critical.
verify_acyclic makes one pass per size layer: a pair is a cover when
hi ^ lo is one bit inside hi, and the layer's lower faces are grouped by
that up-bit.  A gradient cycle adds each of its vertices as often as it
drops it, so _cycle_vertices shrinks the layer's up-bits to a fixpoint
`live` that holds the vertices of every cycle: every live vertex has a
witness, a pair with a live up-bit whose facet dropping the vertex is a
lower face with a live up-bit.  Only pairs with a live up-bit get
successors, the facets hi ^ 1 << u (u live in lo) that are lower faces
with a live up-bit, and a depth-first search over the pairs with
successors looks for a gradient cycle.  On the comb pairings live ends
empty in every layer, and no successor list is built.

A node's A, B and residual (SigmaNode.residual_mask) are vertex bitmasks;
children take A | bit, B | bit and B | Graph.nbr[v], and the preconditions
are mask tests.  The residual is carried from the parent: the root's is
every vertex, a Split(v) child that excludes v drops v, a child that takes
v into A (Split(v) or Match(p, v)) drops v and N(v), and the empty child of
a Free step keeps its parent's.  Each is the set V minus (A, B and N(A))
would give, because N(A) is forced into B along every legal run.  A and B
never meet, which _list_nodes asserts as it adds each child: a checked step
takes into A only a residual vertex v, which is in neither A nor B, and
puts into B only v or N(v), and N(v) misses A, or v would lie in N(A).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import (CapacityError, DEFAULT_FACE_CAP, SimplicialComplex,
                        _bits, _count_independent, _layers)
from .graphs import Graph, _check_sizes

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


@dataclass(slots=True)
class SigmaNode:
    id: int
    A: int  # vertices in every face of the node, one bit per vertex index
    B: int  # vertices in no face of the node (N(A) among them), as a bitmask
    residual_mask: int  # V minus (A, B and N(A)), as a bitmask
    kind: str | None = None  # root | free-site | matching-site | splitting-site | terminal | empty
    step: object = None
    children: list = field(default_factory=list)


class MatchingTree:
    """A matching tree on g, held as its residual -> step map `steps`,
    smallest residual first, as run_strategy builds it.  Its nodes are
    listed on first read of `nodes`."""

    def __init__(self, g: Graph, steps: dict):
        self.graph = g
        self.steps = steps
        self._nodes = None

    @property
    def nodes(self) -> list:
        if self._nodes is None:
            self._nodes = _list_nodes(self.graph, self.steps)
        return self._nodes

    def critical_leaves(self):
        return [nd for nd in self.nodes if nd.kind == "terminal"]

    def sites(self):
        """Nodes that recorded a pairing (free or matching steps)."""
        return [nd for nd in self.nodes if isinstance(nd.step, (Free, Match))]

    def to_json(self) -> dict:
        g = self.graph
        labels = g.vertices

        def names(mask):
            return [labels[i] for i in _bits(mask)]

        def step_json(st):
            if isinstance(st, Free):
                return {"free": labels[st.p]}
            if isinstance(st, Match):
                return {"match": [labels[st.p], labels[st.v]]}
            return {"split": labels[st.v]}

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


def _check_range(g: Graph, *vertices):
    """Step vertices must be ints that index g; a negative one would wrap
    around, and a bool or a label is not an index."""
    for u in vertices:
        if type(u) is not int or not 0 <= u < len(g):
            raise MatchingTreeError(
                "step vertex %s is not in range(%d)" % (u, len(g)))


def _check_step(g: Graph, res: int, step):
    """Raise MatchingTreeError unless step is legal at a node whose residual
    is res.  A node's A and B are disjoint from its residual and cover the
    rest (N(A) lies in B), so "outside A and B" is "in the residual"."""
    nbr = g.nbr
    if isinstance(step, Free):
        p = step.p
        _check_range(g, p)
        if not res >> p & 1:
            raise MatchingTreeError("free vertex %s lies in A or B" % g.vertices[p])
        loose = nbr[p] & res
        if loose:
            raise MatchingTreeError(
                "free vertex %s has neighbors outside A and B: %s"
                % (g.vertices[p], [g.vertices[u] for u in _bits(loose)]))
    elif isinstance(step, Match):
        p, v = step.p, step.v
        _check_range(g, p, v)
        if not res >> p & 1:
            raise MatchingTreeError("match pivot %s lies in A or B" % g.vertices[p])
        bit = 1 << v
        if not nbr[p] & bit:
            raise MatchingTreeError(
                "%s is not a neighbor of %s" % (g.vertices[v], g.vertices[p]))
        loose = nbr[p] & res
        if loose != bit:
            raise MatchingTreeError(
                "pivot %s must have exactly one neighbor outside A and B (got %s)"
                % (g.vertices[p], [g.vertices[u] for u in _bits(loose)]))
    elif isinstance(step, Split):
        _check_range(g, step.v)
        if not res >> step.v & 1:
            raise MatchingTreeError(
                "splitting vertex %s is not residual" % g.vertices[step.v])
    else:
        raise MatchingTreeError("unknown step %r" % (step,))


def _children(nbr, res: int, step):
    """The residuals of the children of a node with residual res under a
    legal step, as (child without v, child with v), None where the step
    has no such child: Free(p) ends its branch in an empty-labeled leaf,
    Match(p, v) keeps only the child that takes v into A, and Split(v) has
    both.  The child with v drops v and N(v), the child without v drops v."""
    if isinstance(step, Free):
        return None, None
    bit = 1 << step.v
    inn = res & ~(bit | nbr[step.v])
    if isinstance(step, Split):
        return res & ~bit, inn
    return None, inn


def run_strategy(g: Graph, strategy) -> MatchingTree:
    """Grow a matching tree to completion under a deterministic pivot rule.

    strategy(graph, residual_mask) must return a Free/Match/Split step that
    is legal at every leaf with that nonempty residual; whether a step is
    legal depends on the residual alone, since a node's A and B are
    disjoint from it and cover the rest.  So the subtree under a node
    depends on its residual alone, and the growth walks the distinct
    residuals reachable from the root, depth first, the child without v
    before the child with it: at each it calls the rule once and checks the
    step once, by _check_step.  The tree it returns holds this residual ->
    step map and lists its nodes on first read.

    The map is kept in residual order, smallest first, so every reader
    meets a residual after its children's, which are proper subsets of it.
    Past DEFAULT_STEP_BUDGET expansions it raises CapacityError before any
    node exists: the number of expanded nodes is read off the map, one more
    than the expansions under each child residual, and the walk stops once
    the decided residuals alone pass the budget.
    """
    budget = DEFAULT_STEP_BUDGET
    nbr = g.nbr
    full = (1 << len(g)) - 1
    steps = {}  # residual mask -> step
    todo = [full]
    while todo:
        res = todo.pop()
        if not res or res in steps:  # also None: a child the step lacks
            continue
        step = strategy(g, res)
        _check_step(g, res, step)
        steps[res] = step
        if len(steps) > budget:
            raise CapacityError("step budget %d exceeded" % budget)
        todo.extend(reversed(_children(nbr, res, step)))  # without v on top
    steps = dict(sorted(steps.items()))
    expansions = {None: 0, 0: 0}
    for res, step in steps.items():
        out, inn = _children(nbr, res, step)
        expansions[res] = 1 + expansions[out] + expansions[inn]
    if expansions[full] > budget:
        raise CapacityError("step budget %d exceeded" % budget)
    return MatchingTree(g, steps)


def _list_nodes(g: Graph, steps: dict) -> list:
    """The nodes of the tree that a residual -> step map grows on g: each
    leaf with a nonempty residual, bar an empty-labeled one, takes its
    residual's step, depth first from the root.  Its children are numbered
    on from len(nodes), the child without v first, and it takes the step's
    site kind unless it is the root."""
    nbr = g.nbr
    nodes = [SigmaNode(0, 0, 0, (1 << len(g)) - 1, kind="root")]
    stack = [0]
    while stack:
        node = nodes[stack.pop()]
        A, B, res = node.A, node.B, node.residual_mask
        if not res or node.kind == "empty":
            continue
        step = node.step = steps[res]
        if isinstance(step, Free):
            kids = [(A, B, res, "empty")]
            site = "free-site"
        else:
            out, inn = _children(nbr, res, step)
            bit = 1 << step.v
            kids = [(A | bit, B | nbr[step.v], inn, None)]
            site = "matching-site"
            if isinstance(step, Split):
                kids.insert(0, (A, B | bit, out, None))
                site = "splitting-site"
        for a, b, r, kind in kids:
            if a & b:
                raise MatchingTreeError("A and B intersect")
            node.children.append(len(nodes))
            nodes.append(SigmaNode(len(nodes), a, b, r,
                                   kind or (None if r else "terminal")))
        if node.kind != "root":
            node.kind = site
        stack.extend(reversed(node.children))
    return nodes


class FacePairing:
    """A partial matching on the face poset: mask pairs (face, face | 1 << p)."""

    def __init__(self):
        self.up = {}    # lower face -> upper face
        self.down = {}  # upper face -> lower face

    def __len__(self):
        return len(self.up)

    def add(self, lo, hi):
        if lo in self.up or lo in self.down or hi in self.up or hi in self.down:
            raise MatchingTreeError("face paired twice: %s / %s"
                                    % (_bits(lo), _bits(hi)))
        self.up[lo] = hi
        self.down[hi] = lo

    def paired_faces(self):
        return {*self.up, *self.down}


def collect_pairing(tree: MatchingTree, face_cap: int = DEFAULT_FACE_CAP) -> FacePairing:
    """Materialize the face pairing recorded by a completed tree.

    At a free site every face of Sigma(A, B) avoiding p pairs with its
    extension by p; at a matching site the same happens within
    Sigma(A, B + v).  _site_pairs counts every site's pairs before it
    builds any, so CapacityError is raised before any face is built once
    2 * pairs would exceed face_cap; then each site's faces come one size
    layer at a time and go into the dicts in bulk.  A face paired twice is an
    internal invariant violation: it shows as a dict smaller than the number
    of pairs added, or as a face that is both a lower and an upper face, and
    the pairs are then replayed through FacePairing.add, which raises
    MatchingTreeError at the first repeat.  A face_cap that is not an int
    raises ValueError.
    """
    _check_sizes(face_cap=face_cap)
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

    A site's lower faces are A | J for J independent in its ground set (the
    residual minus p, and minus v at a matching site); the J come from
    _layers on the ground bitmask, and the upper face adds p.  The pairs of
    all sites are counted exactly first, and CapacityError is raised once
    2 * pairs would exceed face_cap, before any site's faces are built.
    """
    nbr = tree.graph.nbr
    sites = []
    pairs = 0
    for node in tree.sites():
        step = node.step
        ground = node.residual_mask & ~(1 << step.p)
        if isinstance(step, Match):
            ground &= ~(1 << step.v)
        pairs += _count_independent(nbr, ground, face_cap + 1)
        if 2 * pairs > face_cap:
            raise CapacityError("pairing exceeds face cap %d" % face_cap)
        sites.append((node.A, node.A | 1 << step.p, ground))

    for a, ap, ground in sites:
        for js in _layers(nbr, ground):
            yield [a | j for j in js], [ap | j for j in js]


def critical_cells(tree: MatchingTree):
    """A-sets of the terminal leaves, as vertex bitmasks, by size then value.

    They are read from the tree's map, listing no node: one pass, smallest
    residual first, gives each residual the cells below a node with it,
    relative to the node's A, as its children's cells with the vertex each
    child takes added; a Free step has none.  A first pass finds the last
    residual whose step reads each child residual, and the child's cells
    are dropped once that step has read them, so only the cells of
    residuals still to be read are held at once."""
    nbr = tree.graph.nbr
    steps = tree.steps
    kids = [_children(nbr, res, step) for res, step in steps.items()]
    reader = {}  # child residual -> the last residual whose step reads it
    for res, (out, inn) in zip(steps, kids):
        reader[out] = reader[inn] = res
    reader[None] = reader[0] = None  # no step's child, so never dropped
    below = {None: (), 0: (0,) if len(tree.graph) else ()}
    for (res, step), (out, inn) in zip(steps.items(), kids):
        cells = below[inn]
        if cells:
            bit = 1 << step.v
            cells = tuple([c | bit for c in cells])
        below[res] = below[out] + cells
        if reader[out] == res:
            del below[out]
        if reader[inn] == res and inn != out:
            del below[inn]
    cells = list(below[(1 << len(tree.graph)) - 1])
    cells.sort(key=lambda f: (f.bit_count(), f))
    return cells


_SPLIT, _PAIR, _LEAF = 0, 1, 2


def _partner_walk(tree: MatchingTree):
    """The partner function of a completed tree's matching: face -> the
    face it is paired with, or None for a critical face.  A partner can be
    0, the empty face paired with a vertex, so test it with `is None`.

    The tree's map is compiled once into flat records (kind, pivot bit,
    second bit, out, in child), one per residual.  A Split(v) record holds
    v's bit second, its child without v out and its child with v in; a
    Match(p, v) record holds p's and v's bits and its child in; a Free(p)
    record holds p's bit and 0, so no face goes in; a leaf has no step.
    The walk starts at the root and costs one step per tree level."""
    # in map order a residual's children come before it, numbered
    nbr = tree.graph.nbr
    index = {None: -1, 0: 0}
    recs = [(_LEAF, 0, 0, -1, -1)]
    for res, st in tree.steps.items():
        out, inn = _children(nbr, res, st)
        index[res] = len(recs)
        if isinstance(st, Split):
            recs.append((_SPLIT, 0, 1 << st.v, index[out], index[inn]))
        else:
            v = 1 << st.v if isinstance(st, Match) else 0
            recs.append((_PAIR, 1 << st.p, v, -1, index[inn]))
    root = index[(1 << len(tree.graph)) - 1]

    def partner(face):
        kind, p, v, out, inn = recs[root]
        while kind != _LEAF:
            if face & v:
                kind, p, v, out, inn = recs[inn]
            elif kind == _SPLIT:
                kind, p, v, out, inn = recs[out]
            else:
                return face ^ p
        return None
    return partner


def verify_acyclic(complex: SimplicialComplex, pairing: FacePairing):
    """Check that a face pairing is acyclic on the face poset.

    Orient matched covers upward and all other covers downward; the pairing
    is acyclic iff this digraph has no directed cycle.  Any such cycle stays
    within two adjacent dimensions, so each size layer is checked on its
    own: the pairs (lo, hi) with |lo| = s, with an edge from (lo, hi) to
    (lo', hi') when lo' is a facet of hi other than lo.

    Faces are vertex bitmasks.  One pass over the complex's size layers
    finds every face of the pairing and groups the pairs by layer.  One
    pass over each layer then checks every pair and groups the layer's
    lower faces by up-bit hi ^ lo, which must be one bit inside hi, or the
    pair is not a cover relation.  Every pair is checked before any cycle
    search.

    A gradient cycle is balanced: a step from (lo, hi) to lo' = hi ^ x
    adds the up-bit b = hi ^ lo and drops a vertex x of lo, and the cycle
    returns to its first lower face, so each vertex enters as often as it
    leaves, and the cycle's up-bits and its dropped vertices are one set
    V(C).  _cycle_vertices shrinks the layer's up-bits to a set `live`
    that holds V(C) for every cycle C, and only the pairs with a live
    up-bit, the facets that drop a live vertex and the lower faces with a
    live up-bit make the successor lists: every cycle's edges are among
    them, so every cycle survives, and the subgraph's cycles are gradient
    cycles.  The successors of lo are those facets hi ^ 1 << u, for the
    live vertices u of lo in increasing order.  A depth-first search then
    runs over the pairs that have successors, started in increasing mask
    order; the first gray node it meets closes the witness, so the witness
    depends only on those orders.

    Returns (True, None) or (False, witness) where the witness lists the
    matched (lower, upper) pairs around one cycle.  Raises ValueError if the
    pairing mentions a face outside the complex or a pair that is not a
    cover relation.
    """
    up, down = pairing.up, pairing.down
    by_size, found_down = [], 0
    for faces in complex.graded:
        by_size.append({lo: up[lo] for lo in faces if lo in up})
        found_down += sum(map(down.__contains__, faces))
    if sum(map(len, by_size)) < len(up) or found_down < len(down):
        raise ValueError("pairing mentions a face outside the complex")

    layers = []
    for layer in by_size:
        groups = {}  # up-bit -> the layer's lower faces with it
        for lo, hi in layer.items():
            bit = hi ^ lo
            if bit & (bit - 1) or not bit & hi:
                raise ValueError("pair (%s, %s) is not a cover relation"
                                 % (_bits(lo), _bits(hi)))
            los = groups.get(bit)
            if los is None:
                groups[bit] = [lo]
            else:
                los.append(lo)
        layers.append((layer, groups))

    for layer, groups in layers:
        live = _cycle_vertices(layer, groups)
        succ = {}
        for bit, los in groups.items():
            if not bit & live:
                continue
            for lo in los:
                hi = lo | bit
                facets, rest = [], lo & live
                while rest:
                    low = rest & -rest
                    rest ^= low
                    facet = hi ^ low
                    above = layer.get(facet)
                    if above is not None and (above ^ facet) & live:
                        facets.append(facet)
                if facets:
                    succ[lo] = facets
        cycle = _find_cycle(succ)
        if cycle is not None:
            return False, [(lo, layer[lo]) for lo in cycle]
    return True, None


def _cycle_vertices(layer: dict, groups: dict) -> int:
    """A vertex mask `live` that holds V(C), the up-bits and dropped
    vertices, of every gradient cycle C of one size layer: layer maps each
    lower face to its upper face, groups maps each up-bit to its lower
    faces.

    live starts as every up-bit and shrinks to a fixpoint in which every
    live vertex x has a witness: a lower face lo, with a live up-bit b and
    x in lo, whose facet (lo | b) ^ x is a lower face with a live up-bit
    b'.  A cycle's dropped vertex x_i has the witness (lo_i, lo_{i+1}), and
    the up-bits b_i and b_{i+1} lie in V(C), so if V(C) is in live, no
    vertex of V(C) loses its witness, and by induction V(C) stays in live.
    Each round scans the lower faces with a live up-bit for a witness of
    every live vertex, and strikes a vertex off its list at the first one
    found; it stops once every vertex is struck off, and otherwise drops
    those left from live for the next round.
    """
    live = 0
    for bit in groups:
        live |= bit
    while live:
        todo = live
        for bit, los in groups.items():
            if not bit & live:
                continue
            for lo in los:
                rest = lo & todo
                while rest:
                    low = rest & -rest
                    rest ^= low
                    facet = (lo | bit) ^ low
                    above = layer.get(facet)
                    if above is not None and (above ^ facet) & live:
                        todo ^= low
                if not todo:
                    return live
        live &= ~todo
    return live


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
