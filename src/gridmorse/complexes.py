"""Independence and matching complexes: counted first, listed on first read.

A face is a vertex bitmask (bit i for vertex i of the ground order), the
one face format from matching trees to boundary matrices; _bits decodes it
where labels are printed.  Faces are graded by size (graded[s] holds the
faces with s vertices, so the empty face 0 sits at graded[0]).  One builder,
_layers, lists the independent subsets of a vertex bitmask, building each
size layer from the last: each face carries a bitmask of the vertices that
can extend it, and extending lex-ordered parents in increasing vertex order
keeps every layer in lex order, so face indices are reproducible.
independence_complex runs it on all the vertices, and morse._site_pairs on
the ground set of each pairing site.  Both count their faces exactly first
and refuse a count over the face cap before any face is built.  A complex
from independence_complex is counted at construction and listed on first
read of `graded`: num_faces answers from the count, f_vector before that
read counts the layers by _layer_counts, which builds no face, and the
Morse route of homology, which reads only the graph, never lists a face.

count_independent_sets counts faces without listing them.  It applies the
recursion I(G) = I(G - v) + I(G - N[v]) one connected component at a time,
with vertex sets held as bitmasks and component counts memoised within a
call, so no face is visited; a path or cycle component is counted in closed
form, by the Fibonacci and Lucas numbers, in time linear in its length.
Under a cap the arithmetic saturates at cap + 1, which stays exact because
every partial count is at least 1 and sums and products are monotone.
morse._site_pairs uses the same counter for |Sigma(A, B)| at matching-tree
nodes.  The count decides whether
enumeration is refused and answers num_faces; the faces listed do not
depend on it, so enumeration stays the independent oracle that tests check
it against.
"""

from __future__ import annotations

from itertools import chain

from .graphs import Graph, _check_sizes, line_graph

DEFAULT_FACE_CAP = 5_000_000


class CapacityError(RuntimeError):
    """Raised when an enumeration or matrix would exceed a desk-scale cap."""


def _bits(mask: int) -> tuple:
    """The set bits of a vertex bitmask as a sorted tuple of indices."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class SimplicialComplex:
    """Faces graded by size, as vertex bitmasks over `labels`, which are
    strs, as a Graph's are.

    Only independence_complex (and so matching_complex) sets `graph`, the
    graph the faces are the independent sets of.  It passes graded=None
    and keeps its exact face count in `_count`: the faces are counted at
    construction and listed, by _layers, on the first read of `graded`,
    which keeps them.  from_facets and join pass their layers in and leave
    the graph and the count None."""

    __slots__ = ("labels", "_graded", "graph", "_count")

    def __init__(self, labels, graded, graph=None):
        self.labels = tuple(labels)
        self._graded = graded
        self.graph = graph
        self._count = None

    @property
    def graded(self):
        """graded[s]: the vertex bitmasks of the s-vertex faces."""
        if self._graded is None:
            g = self.graph
            self._graded = list(_layers(g.nbr, (1 << len(g)) - 1))
        return self._graded

    @classmethod
    def from_facets(cls, labels, facets) -> "SimplicialComplex":
        """Downward closure of a facet list; facets are index tuples."""
        from itertools import combinations
        faces = {sum(1 << i for i in c) for f in facets
                 for s in range(len(f) + 1) for c in combinations(f, s)}
        top = max(map(int.bit_count, faces), default=0)
        graded = [[] for _ in range(top + 1)]
        for f in sorted(faces, key=lambda face: (face.bit_count(), _bits(face))):
            graded[f.bit_count()].append(f)
        return cls(labels, graded, None)

    def num_faces(self) -> int:
        """The count taken at construction, where there is one: it lists no
        face."""
        if self._count is not None:
            return self._count
        return sum(len(fs) for fs in self.graded)

    def f_vector(self):
        """Face counts per dimension, starting at dimension -1.  A complex
        not listed yet counts its layers by _layer_counts and lists no
        face."""
        if self._graded is None:
            g = self.graph
            return tuple(_layer_counts(g.nbr, (1 << len(g)) - 1))
        return tuple(map(len, self._graded))

    def reduced_euler(self) -> int:
        return _reduced_euler(self.f_vector())

    def face_labels(self, face):
        return tuple(self.labels[i] for i in _bits(face))

    def all_faces(self):
        return chain.from_iterable(self.graded)

    def to_json(self, include_faces=False) -> dict:
        """The graph, f-vector and reduced Euler characteristic, and with
        include_faces every face as its vertex labels.  The faces are
        listed first, so the f-vector reads them rather than counting the
        layers again."""
        out = {"graph": self.graph.to_json() if self.graph is not None else None}
        if include_faces:
            labels = self.labels
            out["faces"] = [[labels[i] for i in _bits(f)] for f in self.all_faces()]
        f_vector = self.f_vector()
        out["f_vector"] = list(f_vector)
        out["reduced_euler"] = _reduced_euler(f_vector)
        return out


def _reduced_euler(f_vector) -> int:
    """The reduced Euler characteristic from an f-vector that starts at
    dimension -1."""
    return sum(c if s % 2 == 1 else -c for s, c in enumerate(f_vector))


def independence_complex(g: Graph, face_cap: int = DEFAULT_FACE_CAP) -> SimplicialComplex:
    """All independent sets of g, graded by size, each layer in lex order.

    The faces are counted at construction, exactly and without listing
    them, and a count over face_cap raises CapacityError before any face is
    built.  They are listed, by _layers, on the first read of `graded`;
    num_faces answers from the count.  A face_cap that is not an int
    raises ValueError.
    """
    _check_sizes(face_cap=face_cap)
    count = _count_independent(g.nbr, (1 << len(g)) - 1, face_cap + 1)
    if count > face_cap:
        raise CapacityError("independence complex exceeds face cap %d" % face_cap)
    cx = SimplicialComplex(g.vertices, None, g)
    cx._count = count
    return cx


def _layers(nbr, ground):
    """The independent subsets of the vertex bitmask `ground`, as vertex
    bitmasks, one size layer at a time from the empty set, each layer in lex
    order of the faces' sorted index tuples.

    Layer s + 1 is built from layer s.  Each face carries the bitmask of the
    ground vertices above its top vertex that are adjacent to none of its
    vertices; its children are f | 1 << u for each bit u of that mask, in
    increasing u, and a child's mask is what is left of the parent's above
    u, less N(u).  Extending lex-ordered parents in increasing u keeps every
    layer in lex order.
    """
    faces, masks = [0], [ground]
    while faces:
        yield faces
        next_faces, next_masks = [], []
        for f, mask in zip(faces, masks):
            while mask:
                low = mask & -mask
                mask ^= low
                next_faces.append(f | low)
                next_masks.append(mask & ~nbr[low.bit_length() - 1])
        faces, masks = next_faces, next_masks


def _layer_counts(nbr, ground):
    """The sizes of the layers _layers yields on `ground`, without building
    a face.  A face's children depend on its extension mask alone, so a
    layer is kept as {extension mask: number of faces with it} and walked
    as _layers walks it; a layer has no more distinct masks than faces, so
    this never takes more steps than listing the faces.

    Not a replacement for _count_independent: on a comb in construction
    order the distinct masks of a layer grow exponentially with n, while
    the component recursion stays polynomial."""
    layer = {ground: 1}
    while layer:
        yield sum(layer.values())
        below = {}
        for mask, k in layer.items():
            while mask:
                low = mask & -mask
                mask ^= low
                child = mask & ~nbr[low.bit_length() - 1]
                below[child] = below.get(child, 0) + k
        layer = below


def count_independent_sets(g: Graph, cap: int | None = None) -> int:
    """Number of independent sets of g (including the empty set), without
    listing them.  If cap is given, return cap + 1 as soon as the count is
    known to exceed it; the result is always exactly min(count, cap + 1).

    The count comes from the recursion I(G) = I(G - v) + I(G - N[v]),
    applied to one connected component at a time (the count of a graph is
    the product of the counts of its components).  The branch vertex v has
    maximum degree in its component, lowest index first.  Branched
    component counts are memoised for the duration of the call, keyed by
    their vertex bitmask.  A component of maximum degree at most 2 is a
    path or a cycle and is counted in closed form, without branching: a
    k-vertex path has P(k) independent sets, where P(0) = 1, P(1) = 2 and
    P(j) = P(j - 1) + P(j - 2) (so an isolated vertex counts 2), and a
    k-cycle has P(k - 1) + P(k - 3), the Lucas number L(k).

    Under a cap every partial value saturates at cap + 1.  That is exact:
    each partial value is at least 1, and sums and products of such values
    are monotone, so once any term reaches cap + 1 the true total is at
    least cap + 1 too.  A second branch is skipped once the first has
    saturated.  A cap that is neither None nor an int raises ValueError.
    """
    if cap is not None:
        _check_sizes(cap=cap)
    return _count_independent(g.nbr, (1 << len(g)) - 1,
                              None if cap is None else cap + 1)


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
    """A vertex of maximum degree inside comp, the lowest such index, and
    that degree.  The scan stops early at a vertex of degree `top`, the
    maximum degree of the whole graph, since no vertex of comp can beat it."""
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
    return best, best_deg


def _is_cycle(nbr, comp):
    """Whether every vertex of comp has two neighbours inside comp."""
    rest = comp
    while rest:
        low = rest & -rest
        if (nbr[low.bit_length() - 1] & comp).bit_count() < 2:
            return False
        rest ^= low
    return True


def _count_independent(nbr, mask, limit=None):
    """Independent sets of the subgraph induced on the bitmask `mask`, given
    the neighbour masks `nbr` of the whole graph; saturated at `limit` when
    it is given.  The recursion of count_independent_sets runs on an
    explicit stack of generators, so its depth is not bounded by Python's
    recursion limit (a comb of n columns nests about n branches deep)."""
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

    def branch(comp, v):
        rest = comp & ~(1 << v)
        first = yield from product(rest)
        if first == limit:
            return first
        second = yield from product(rest & ~nbr[v])
        return sat(first + second)

    def path_or_cycle(comp, cycle):
        # P(k) for a k-vertex path from P(0), P(1) = 1, 2; for a k-cycle
        # P(k - 1) + P(k - 3), the Lucas number L(k), from L(1), L(2) = 1, 3
        a, b = (1, 3) if cycle else (1, 2)
        for _ in range(comp.bit_count() - (2 if cycle else 1)):
            a, b = b, sat(a + b)
        return sat(b)

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
            continue
        v, deg = _branch_vertex(nbr, comp, top)
        if deg <= 2:
            value = path_or_cycle(comp, deg == 2 and _is_cycle(nbr, comp))
        else:
            frames.append((branch(comp, v), comp))
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
        raise ValueError("overlapping vertex labels: %s" % ", ".join(sorted(overlap)))
    labels = c1.labels + c2.labels
    shift = len(c1.labels)
    top = (len(c1.graded) - 1) + (len(c2.graded) - 1)
    graded = [[] for _ in range(top + 1)]
    for s1, faces1 in enumerate(c1.graded):
        for s2, faces2 in enumerate(c2.graded):
            bucket = graded[s1 + s2]
            for f1 in faces1:
                for f2 in faces2:
                    bucket.append(f1 | f2 << shift)
    for bucket in graded:
        bucket.sort(key=_bits)
    return SimplicialComplex(labels, graded, None)

