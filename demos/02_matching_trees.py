"""Growing matching trees and reading off critical cells.

A matching tree encodes a discrete Morse matching on the face poset of an
independence complex: free and matching steps pair faces off, splitting
steps branch, and the leaves that end with an empty residual graph
contribute their A-set as a critical cell.
"""

from gridmorse import (build_graph, census_from_tree, collect_pairing,
                       comb_tree, critical_cells, independence_complex,
                       star_tree, theta_tree, verify_acyclic)

print("=" * 64)
print("theta graph, m=2 n=2 (a 6-cycle)")
print("=" * 64)
g = build_graph("theta", m=2, n=2)
tree = theta_tree(2, 2)
print("tree nodes:", len(tree.nodes))
for nd in tree.nodes:
    labels = lambda mask: "{%s}" % ",".join(
        v for i, v in enumerate(g.vertices) if mask >> i & 1)
    print("  node %2d %-15s A=%-12s B=%s"
          % (nd.id, nd.kind, labels(nd.A), labels(nd.B)))

cx = independence_complex(g)
cells = critical_cells(tree)
print("critical cells:",
      [list(cx.face_labels(cell)) for cell in cells])
print("census:", census_from_tree(tree).counts,
      " (two 1-cells: the complex is a wedge of two circles)")

pairing = collect_pairing(tree)
ok, _ = verify_acyclic(cx, pairing)
print("faces %d = paired %d + critical %d; acyclic: %s"
      % (cx.num_faces(), 2 * len(pairing), len(cells), ok))

print()
print("=" * 64)
print("critical cells track the closed forms")
print("=" * 64)
print("star(3, n) for n = 1..9, grouped by n mod 3:")
for n in range(1, 10):
    print("  n=%d: %s" % (n, census_from_tree(star_tree(3, n)).counts))

print()
print("comb(2, n) censuses, n = 0..6:")
for n in range(0, 7):
    print("  n=%d: %s" % (n, census_from_tree(comb_tree(2, n)).counts))
