"""Independence and matching complexes: enumerated explicitly, or counted.

Faces are stored as sorted tuples of vertex indices into the ground vertex
order, graded by size (graded[s] holds the faces with s vertices, so the
empty face sits at graded[0]).  Enumeration builds one size layer from the
last: each face carries a bitmask of the vertices that can extend it, and
extending lex-ordered parents in increasing vertex order keeps every layer
in lex order, so face indices are reproducible run to run.

count_independent_sets counts faces without listing them.  It applies the
recursion I(G) = I(G - v) + I(G - N[v]) one connected component at a time,
with vertex sets held as bitmasks and component counts memoised within a
call, so no face is visited.  Under a cap the arithmetic saturates at
cap + 1, which stays exact because every partial count is at least 1 and
sums and products are monotone.  The same counter gives |Sigma(A, B)| for
matching-tree nodes (morse.sigma_count).  Enumeration stays the independent
oracle that tests check it against.
"""

from __future__ import annotations

from .graphs import Graph, line_graph

DEFAULT_FACE_CAP = 5_000_000


class CapacityError(RuntimeError):
    """Raised when an enumeration or matrix would exceed a desk-scale cap."""


class SimplicialComplex:
    __slots__ = ("labels", "graded", "graph")

    def __init__(self, labels, graded, graph=None):
        self.labels = tuple(labels)
        self.graded = graded  # graded[s]: list of index tuples of length s
        self.graph = graph

    @classmethod
    def from_facets(cls, labels, facets) -> "SimplicialComplex":
        """Downward closure of a facet list; facets are index tuples."""
        from itertools import combinations
        faces = set()
        for f in facets:
            f = tuple(sorted(f))
            for s in range(len(f) + 1):
                faces.update(combinations(f, s))
        top = max((len(f) for f in faces), default=0)
        graded = [[] for _ in range(top + 1)]
        for f in sorted(faces, key=lambda t: (len(t), t)):
            graded[len(f)].append(f)
        return cls(labels, graded, None)

    @property
    def dim(self) -> int:
        return len(self.graded) - 2

    def num_faces(self) -> int:
        return sum(len(fs) for fs in self.graded)

    def f_vector(self):
        """Face counts per dimension, starting at dimension -1."""
        return tuple(len(fs) for fs in self.graded)

    def reduced_euler(self) -> int:
        return sum(len(fs) if s % 2 == 1 else -len(fs)
                   for s, fs in enumerate(self.graded))

    def face_labels(self, face):
        return tuple(self.labels[i] for i in face)

    def all_faces(self):
        for fs in self.graded:
            yield from fs

    def to_json(self, include_faces=False) -> dict:
        out = {
            "graph": self.graph.to_json() if self.graph is not None else None,
            "f_vector": list(self.f_vector()),
            "reduced_euler": self.reduced_euler(),
        }
        if include_faces:
            out["faces"] = [[str(l) for l in self.face_labels(f)]
                            for f in self.all_faces()]
        return out


def independence_complex(g: Graph, face_cap: int = DEFAULT_FACE_CAP) -> SimplicialComplex:
    """All independent sets of g, graded by size, each layer in lex order.

    Layer s + 1 is built from layer s.  Each face carries the bitmask of the
    vertices above its last vertex that are adjacent to none of its
    vertices; its children are f + (u,) for each bit u of that mask, in
    increasing u, and a child's mask is the parent's mask cut down to
    above[u].  Extending lex-ordered parents in increasing u keeps every
    layer in lex order.  The face cap is checked per parent, before its
    children are built, so a capped call never builds past the cap.
    """
    above = _above_masks(_neighbour_masks(g))
    graded = [[()]]
    masks = [(1 << len(g)) - 1]
    total = 1
    while True:
        faces, next_masks = [], []
        for f, mask in zip(graded[-1], masks):
            if not mask:
                continue
            total += mask.bit_count()
            if total > face_cap:
                raise CapacityError(
                    "independence complex exceeds face cap %d" % face_cap)
            while mask:
                low = mask & -mask
                u = low.bit_length() - 1
                faces.append(f + (u,))
                next_masks.append(mask & above[u])
                mask ^= low
        if not faces:
            return SimplicialComplex(g.vertices, graded, g)
        graded.append(faces)
        masks = next_masks


def count_independent_sets(g: Graph, cap: int | None = None) -> int:
    """Number of independent sets of g (including the empty set), without
    listing them.  If cap is given, return cap + 1 as soon as the count is
    known to exceed it; the result is always exactly min(count, cap + 1).

    The count comes from the recursion I(G) = I(G - v) + I(G - N[v]),
    applied to one connected component at a time (the count of a graph is
    the product of the counts of its components, and an isolated vertex
    counts 2).  The branch vertex v has maximum degree in its component,
    lowest index first.  Component counts are memoised for the duration of
    the call, keyed by their vertex bitmask.

    Under a cap every partial value saturates at cap + 1.  That is exact:
    each partial value is at least 1, and sums and products of such values
    are monotone, so once any term reaches cap + 1 the true total is at
    least cap + 1 too.  A second branch is skipped once the first has
    saturated.
    """
    return _count_independent(_neighbour_masks(g), (1 << len(g)) - 1,
                              None if cap is None else cap + 1)


def _neighbour_masks(g: Graph):
    """The neighbourhood of each vertex of g as a bitmask over vertex indices."""
    return [sum(1 << u for u in nb) for nb in g.adj]


def _above_masks(nbr):
    """For each vertex u, the vertices above u that are not its neighbours:
    the candidates that may follow u in a sorted independent set."""
    n = len(nbr)
    return [((1 << n) - (2 << u)) & ~nbr[u] for u in range(n)]


def _components(nbr, mask):
    """The connected components of the subgraph induced on `mask`, as
    bitmasks, in the order of their lowest vertex."""
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= nbr[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & mask & ~comp
            comp |= frontier
        yield comp
        mask &= ~comp


def _branch_vertex(nbr, comp, top):
    """A vertex of maximum degree inside comp, the lowest such index.  The
    scan stops early at a vertex of degree `top`, the maximum degree of the
    whole graph, since no vertex of comp can beat it."""
    best, best_deg = -1, -1
    rest = comp
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        deg = (nbr[v] & comp).bit_count()
        if deg > best_deg:
            best, best_deg = v, deg
            if deg == top:
                break
        rest ^= low
    return best


def _count_independent(nbr, mask, limit=None):
    """Independent sets of the subgraph induced on the bitmask `mask`, given
    the neighbour masks `nbr` of the whole graph; saturated at `limit` when
    it is given.  The recursion of count_independent_sets runs on an
    explicit stack of generators, so its depth is not bounded by Python's
    recursion limit (a path of n vertices nests about n branches deep)."""
    top = max((m.bit_count() for m in nbr), default=0)

    def sat(x):
        return x if limit is None or x < limit else limit

    def product(rest):
        acc = 1
        for comp in _components(nbr, rest):
            acc = sat(acc * (yield comp))
            if acc == limit:
                break
        return acc

    def branch(comp):
        v = _branch_vertex(nbr, comp, top)
        rest = comp & ~(1 << v)
        first = yield from product(rest)
        if first == limit:
            return first
        second = yield from product(rest & ~nbr[v])
        return sat(first + second)

    memo = {}
    frames = [(product(mask), None)]   # (generator, the component it counts)
    value = None
    while True:
        gen, key = frames[-1]
        try:
            comp = gen.send(value)
        except StopIteration as done:
            value = done.value
            frames.pop()
            if key is None:
                return value
            memo[key] = value
            continue
        if comp in memo:
            value = memo[comp]
        elif comp & (comp - 1) == 0:
            value = sat(2)
        else:
            frames.append((branch(comp), comp))
            value = None


def matching_complex(g: Graph, face_cap: int = DEFAULT_FACE_CAP) -> SimplicialComplex:
    """Matchings of g, realized as the independence complex of the line graph."""
    return independence_complex(line_graph(g), face_cap)


def join(c1: SimplicialComplex, c2: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join: faces are all unions of a face of c1 and a face of c2.

    The two complexes must have disjoint vertex label sets.
    """
    overlap = set(c1.labels) & set(c2.labels)
    if overlap:
        raise ValueError("overlapping vertex labels: %s"
                         % ", ".join(sorted(str(v) for v in overlap)))
    labels = c1.labels + c2.labels
    shift = len(c1.labels)
    top = (len(c1.graded) - 1) + (len(c2.graded) - 1)
    graded = [[] for _ in range(top + 1)]
    for s1, faces1 in enumerate(c1.graded):
        for s2, faces2 in enumerate(c2.graded):
            bucket = graded[s1 + s2]
            for f1 in faces1:
                for f2 in faces2:
                    bucket.append(f1 + tuple(i + shift for i in f2))
    for bucket in graded:
        bucket.sort()
    return SimplicialComplex(labels, graded, None)

