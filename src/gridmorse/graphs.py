"""Labeled graph families and line graphs.

Families built here:

  path    Pa_n, vertices v1..vn in a line.
  cycle   C_n.
  grid2   the 2 x N grid.
  star    extended star: a hub `a` with m tendrils of n edges each.
  theta   two hubs `a`, `b` joined by m disjoint paths of n+1 edges.
  delta   comb graph: the theta graph on paths of n+2 edges, plus n spine
          vertices s1..sn, where sk is adjacent to the k-th and (k+1)-st
          interior vertex of every path.

Every vertex label is a str, spelled by the functions below: the hubs
END_A = "a" and END_B = "b", spines "s<k>", tendrils "t<j>.<k>", plain
vertices "v<i>", grid edges "ge<kind>.<col>" and the other line-graph
vertices "e<i>.<j>".  Algorithms read vertices by index in the graph's
vertex order; labels are only looked up and printed.
"""

from __future__ import annotations

from typing import Iterable

END_A = "a"
END_B = "b"


def spine(k: int) -> str:
    return "s%d" % k


def tendril(j: int, k: int) -> str:
    return "t%d.%d" % (j, k)


def plain(i: int) -> str:
    return "v%d" % i


def grid_edge(kind: str, col: int) -> str:
    return "ge%s.%d" % (kind, col)


class Graph:
    """Immutable simple graph with a fixed vertex order.

    The vertex order is the construction order; it is used downstream for
    face sorting and boundary-matrix orientation, so builders must be
    deterministic.  A graph built with its vertices in another order is
    just as valid: the pivot rule grows a legal, acyclic matching tree on
    it, but picks vertices by index, so a shuffled comb can leave more
    critical cells than the paper's census, up to 36 for 14 on (2,9).
    Vertex labels are distinct strs, and every edge endpoint is one of them.
    """

    __slots__ = ("vertices", "index", "adjsets", "nbr", "family", "params")

    def __init__(self, vertices: Iterable[str], edges, family=None, params=None):
        vertices = tuple(vertices)
        index = {}
        for i, v in enumerate(vertices):
            if not isinstance(v, str):
                raise ValueError("vertex label %r is not a str" % (v,))
            if v in index:
                raise ValueError("duplicate vertex label %s" % v)
            index[v] = i
        nbrs = [set() for _ in vertices]
        for u, v in edges:
            try:
                iu, iv = index[u], index[v]
            except KeyError as e:
                raise ValueError("edge endpoint %s is not a vertex" % e.args[0]) from None
            if iu == iv:
                raise ValueError("loop at vertex %s" % u)
            nbrs[iu].add(iv)
            nbrs[iv].add(iu)
        self.vertices = vertices
        self.index = index
        self.adjsets = tuple(frozenset(s) for s in nbrs)
        self.nbr = tuple(sum(1 << u for u in s) for s in nbrs)  # as bitmasks
        self.family = family
        self.params = dict(params) if params else {}

    def __len__(self):
        return len(self.vertices)

    def edge_count(self) -> int:
        return sum(map(len, self.adjsets)) // 2

    def edges(self):
        """Edges as index pairs (i, j) with i < j, in lexicographic order."""
        for i, s in enumerate(self.adjsets):
            for j in sorted(s):
                if i < j:
                    yield (i, j)

    def degree(self, i: int) -> int:
        return len(self.adjsets[i])

    def idx(self, v: str) -> int:
        try:
            return self.index[v]
        except KeyError:
            raise KeyError("vertex %s not in graph" % v) from None

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "params": self.params,
            "vertices": list(self.vertices),
            "edges": [[self.vertices[i], self.vertices[j]] for i, j in self.edges()],
        }


def neighbors(g: Graph, v: str) -> set:
    """Open neighborhood of v, as a set of labels."""
    return {g.vertices[u] for u in g.adjsets[g.idx(v)]}


def _check_sizes(**sizes):
    """Refuse a size or face cap that is not an int, as morse._check_range
    refuses a step vertex: a float would pass the range checks and a bool
    is not a count."""
    for name, value in sizes.items():
        if type(value) is not int:
            raise ValueError("%s = %r is not an int" % (name, value))


def build_graph(family: str, *, n: int, m: int | None = None) -> Graph:
    """Construct one of the supported graph families.

    path: n >= 1.  cycle: n >= 3.  grid2: n >= 1 columns.  These three
    take no m.  star: m >= 1, n >= 1.  theta: m >= 2, n >= 1.  delta:
    m >= 2, n >= -1, where delta with n = 0 is the theta graph on paths of
    2 edges and delta with n = -1 is a single isolated vertex.
    """
    if family in ("path", "cycle", "grid2") and m is not None:
        raise ValueError("%s takes no m" % family)
    if m is not None:
        _check_sizes(m=m)
    _check_sizes(n=n)
    if family == "path":
        if n < 1:
            raise ValueError("path requires n >= 1")
        verts = [plain(i) for i in range(1, n + 1)]
        edges = [(plain(i), plain(i + 1)) for i in range(1, n)]
        return Graph(verts, edges, "path", {"n": n})

    if family == "cycle":
        if n < 3:
            raise ValueError("cycle requires n >= 3")
        verts = [plain(i) for i in range(1, n + 1)]
        edges = [(plain(i), plain(i + 1)) for i in range(1, n)]
        edges.append((plain(n), plain(1)))
        return Graph(verts, edges, "cycle", {"n": n})

    if family == "grid2":
        if n < 1:
            raise ValueError("grid2 requires n >= 1 columns")
        # column-major: column c holds v(2c-1) (row 1) and v(2c) (row 2)
        verts = [plain(i) for i in range(1, 2 * n + 1)]
        edges = []
        for c in range(1, n + 1):
            edges.append((plain(2 * c - 1), plain(2 * c)))
        for c in range(1, n):
            edges.append((plain(2 * c - 1), plain(2 * c + 1)))
            edges.append((plain(2 * c), plain(2 * c + 2)))
        return Graph(verts, edges, "grid2", {"n": n})

    def arms(length, end=None):
        """The tendrils t<j>.1 .. t<j>.<length> for j = 1..m, in that order,
        and the edges of each path a - t<j>.1 - ... - t<j>.<length>, ending
        at `end` when one is given."""
        verts, edges = [], []
        for j in range(1, m + 1):
            path = [tendril(j, k) for k in range(1, length + 1)]
            verts += path
            walk = [END_A, *path] if end is None else [END_A, *path, end]
            edges += zip(walk, walk[1:])
        return verts, edges

    if family == "star":
        if m is None or m < 1 or n < 1:
            raise ValueError("star requires m >= 1 and n >= 1")
        verts, edges = arms(n)
        return Graph([END_A, *verts], edges, "star", {"m": m, "n": n})

    if family == "theta":
        if m is None or m < 2 or n < 1:
            raise ValueError("theta requires m >= 2 and n >= 1")
        verts, edges = arms(n, END_B)
        return Graph([END_A, END_B, *verts], edges, "theta", {"m": m, "n": n})

    if family == "delta":
        if m is None or m < 2 or n < -1:
            raise ValueError("delta requires m >= 2 and n >= -1")
        if n == -1:
            return Graph([plain(1)], [], "delta", {"m": m, "n": n})
        tendrils, edges = arms(n + 1, END_B)
        verts = [END_A, *(spine(k) for k in range(1, n + 1)), END_B, *tendrils]
        for k in range(1, n + 1):
            for j in range(1, m + 1):
                edges.append((spine(k), tendril(j, k)))
                edges.append((spine(k), tendril(j, k + 1)))
        return Graph(verts, edges, "delta", {"m": m, "n": n})

    raise ValueError("unknown family %r" % family)


def _built_family(g: Graph) -> str | None:
    """g.family when it is path, cycle or grid2 and g has exactly the
    vertices, in order, and the edges that build_graph gives for it; else
    None.  Only such a graph has its line-graph vertices named by the
    family's label scheme, which reads the vertex order build_graph uses."""
    if g.family not in ("path", "cycle", "grid2") or set(g.params) != {"n"}:
        return None
    try:
        built = build_graph(g.family, n=g.params["n"])
    except ValueError:
        return None
    if built.vertices != g.vertices or built.adjsets != g.adjsets:
        return None
    return g.family


def _line_vertex_label(family: str | None, size: int, i: int, j: int) -> str:
    """Label for the line-graph vertex corresponding to edge (i, j) of a
    graph with `size` vertices, built as `family` (see _built_family)."""
    if family == "grid2":
        # column-major plain indices; see build_graph
        ci, ri = divmod(i, 2)  # 0-based: vertex i is column ci+1, row ri+1
        cj, rj = divmod(j, 2)
        if ci == cj:
            return grid_edge("v", ci + 1)
        return grid_edge("h%d" % (ri + 1), ci + 1)
    if family in ("path", "cycle"):
        # edge {v_i, v_{i+1}} -> v_i; the wrap edge of a cycle -> v_n
        if family == "cycle" and i == 0 and j == size - 1:
            return plain(size)
        return plain(i + 1)
    return "e%d.%d" % (i, j)


def line_graph(g: Graph) -> Graph:
    """Line graph: one vertex per edge, adjacent iff the edges share an
    endpoint.  A path, cycle or grid2 graph as build_graph makes it names
    its line-graph vertices by its family's scheme; any other graph names
    the vertex of edge (i, j) e<i>.<j>."""
    edge_list = list(g.edges())
    scheme = _built_family(g)
    labels = [_line_vertex_label(scheme, len(g), i, j) for i, j in edge_list]
    lg_edges = []
    for x in range(len(edge_list)):
        ix, jx = edge_list[x]
        for y in range(x + 1, len(edge_list)):
            iy, jy = edge_list[y]
            if ix in (iy, jy) or jx in (iy, jy):
                lg_edges.append((labels[x], labels[y]))
    family = "line_graph_of_%s" % g.family if g.family else None
    return Graph(labels, lg_edges, family, g.params)


def delta2_isomorphism(n: int) -> dict:
    """Explicit isomorphism from the m=2 comb graph onto the line graph of
    the 2 x (n+2) grid, returned as a label -> label mapping.

    The mapping is verified to preserve adjacency and non-adjacency before
    it is returned.
    """
    if n < 1:
        raise ValueError("requires n >= 1")
    comb = build_graph("delta", m=2, n=n)
    grid_line = line_graph(build_graph("grid2", n=n + 2))

    mapping = {END_A: grid_edge("v", 1), END_B: grid_edge("v", n + 2)}
    for k in range(1, n + 1):
        mapping[spine(k)] = grid_edge("v", k + 1)
    for j in (1, 2):
        for k in range(1, n + 2):
            mapping[tendril(j, k)] = grid_edge("h%d" % j, k)

    if set(mapping) != set(comb.vertices) or set(mapping.values()) != set(grid_line.vertices):
        raise RuntimeError("vertex sets do not correspond")
    verts = comb.vertices
    for x in range(len(verts)):
        for y in range(x + 1, len(verts)):
            lhs = comb.index[verts[y]] in comb.adjsets[comb.index[verts[x]]]
            ix = grid_line.idx(mapping[verts[x]])
            iy = grid_line.idx(mapping[verts[y]])
            rhs = iy in grid_line.adjsets[ix]
            if lhs != rhs:
                raise RuntimeError(
                    "adjacency not preserved on pair (%s, %s)" % (verts[x], verts[y]))
    return mapping
