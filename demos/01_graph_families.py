"""Tour of the graph families and the line-graph bridge.

The comb graph family is the reason this library exists: its m = 2 member
is exactly the line graph of the 2 x (n+2) grid, so independence complexes
of combs contain every matching complex of a two-row grid.
"""

from gridmorse import (build_graph, delta2_isomorphism, line_graph, neighbors,
                       spine)

print("=" * 64)
print("graph families")
print("=" * 64)

for family, kwargs in [("path", dict(n=5)), ("cycle", dict(n=6)),
                       ("grid2", dict(n=4)), ("star", dict(m=3, n=2)),
                       ("theta", dict(m=3, n=2)), ("delta", dict(m=2, n=3))]:
    g = build_graph(family, **kwargs)
    print("%-22s %2d vertices %2d edges" % ("%s %s" % (family, kwargs),
                                            len(g), g.edge_count()))

print()
print("degenerate members collapse to familiar graphs:")
print("  star  m=1 n=4  -> a 5-vertex path:",
      list(build_graph("star", m=1, n=4).vertices))
print("  theta m=2 n=2  -> a 6-cycle, all degrees",
      sorted({build_graph("theta", m=2, n=2).degree(i) for i in range(6)}))
print("  delta m=2 n=-1 -> a single vertex:",
      [str(v) for v in build_graph("delta", m=2, n=-1).vertices])

print()
print("=" * 64)
print("the two-row grid connection")
print("=" * 64)

n = 3
comb = build_graph("delta", m=2, n=n)
grid = build_graph("grid2", n=n + 2)
lg = line_graph(grid)
print("delta(m=2, n=%d): %d vertices, %d edges" % (n, len(comb), comb.edge_count()))
print("line graph of the 2x%d grid: %d vertices, %d edges"
      % (n + 2, len(lg), lg.edge_count()))

mapping = delta2_isomorphism(n)
print("verified isomorphism, sample assignments:")
for v in list(comb.vertices)[:5]:
    print("   %-5s -> %s" % (v, mapping[v]))

print()
print("spine vertices bridge consecutive grid rungs; in delta(4,3) the")
print("second spine vertex touches eight tendril vertices:")
d43 = build_graph("delta", m=4, n=3)
print("  ", sorted(neighbors(d43, spine(2))))
