"""Instance lists and oracles for the gridmorse benchmark.

A workload is a list of operations built from a seed.  Each operation is a
(label, thunk) pair: the thunk calls into the public functions of the
gridmorse modules and checks the answer against an oracle that does not
share its code path, raising on a mismatch.  Building the list is the
benchmark's set-up; running it once is one pass.

Importing this module puts the checkout's own src/ first on sys.path and
refuses to run against any other copy of the package.
"""

from __future__ import annotations

import json
import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / "bench" / "out"

if not (SRC / "gridmorse" / "__init__.py").is_file():
    sys.exit("bench: no src/gridmorse under %s; run from a full checkout" % ROOT)
sys.dont_write_bytecode = True
sys.path.insert(0, str(SRC))

import gridmorse  # noqa: E402
from gridmorse import census, cli, comb, complexes, graphs, homology, morse  # noqa: E402

if Path(gridmorse.__file__).resolve().parent != SRC / "gridmorse":
    sys.exit("bench: imported gridmorse from %s, not from %s"
             % (gridmorse.__file__, SRC))

# The modules whose public functions the traced run wraps, in layer order.
LAYERS = (graphs, complexes, comb, morse, census, homology, cli)


class Mismatch(Exception):
    """An answer disagreed with its oracle."""


def expect(what, got, want):
    if got != want:
        raise Mismatch("%s: got %r, want %r" % (what, got, want))


# ---------------------------------------------------------------- oracles
# Closed-form homotopy types, written from the case splits and independent
# of the census and matching-tree code.

def star_betti(m, n):
    """Extended star: contractible when n = 3k, else one sphere, of
    dimension mk when n = 3k+1 and m(k+1)-1 when n = 3k+2."""
    k, r = divmod(n, 3)
    if r == 0:
        return {}
    return {m * k: 1} if r == 1 else {m * (k + 1) - 1: 1}


def theta_betti(m, n):
    """Theta graph: one sphere of dimension mk when n = 3k or 3k+1; spheres
    in dimensions mk+1 and m(k+1)-1 when n = 3k+2."""
    k, r = divmod(n, 3)
    if r in (0, 1):
        return {m * k: 1}
    out = {}
    for d in (m * k + 1, m * (k + 1) - 1):
        out[d] = out.get(d, 0) + 1
    return out


def relabel(g, rng, keep_family=True):
    """The same graph with its vertex order shuffled by rng.  Homology does
    not change; face order, and so the SNF elimination order, does."""
    order = list(g.vertices)
    rng.shuffle(order)
    edges = [(g.vertices[i], g.vertices[j]) for i, j in g.edges()]
    return graphs.Graph(order, edges, g.family if keep_family else None, g.params)


# ------------------------------------------------------------ snf-homology

HOMOLOGY_INSTANCES = [("delta", 2, 5), ("delta", 3, 4), ("delta", 4, 3),
                      ("star", 4, 4), ("star", 3, 5),
                      ("theta", 3, 5), ("theta", 4, 4)]
GRID_COLUMNS = 7          # matching complex of grid2(7) ~ comb delta(2, 5)
PERMUTATIONS = 4          # seeded vertex orders per instance and pass


def gate(g):
    """The capacity gate `gridmorse homology` applies before enumerating."""
    cap = homology.DEFAULT_HOMOLOGY_FACE_CAP
    if complexes.count_independent_sets(g, cap=cap) > cap:
        raise complexes.CapacityError("complex has more than %d faces" % cap)


def homology_op(label, g, betti=None, m=None, n=None, betti_out=None):
    """Full reduced homology of I(g).  The oracle is `betti` when given,
    else (for a comb) the tree census through the Morse inequalities."""
    def run():
        gate(g)
        rep = homology.reduced_homology(complexes.independence_complex(g))
        expect(label + " torsion", rep.torsion, {})
        if betti is not None:
            expect(label + " betti", rep.betti_profile(), betti)
        else:
            cells = comb.census_from_tree(comb.comb_tree(m, n))
            expect(label + " tree census",
                   cells.counts, census.census_table(m, n).row_counts(n))
            expect(label + " morse inequalities",
                   homology.morse_inequality_check(cells, rep), True)
        if betti_out is not None:
            betti_out[label] = rep.betti_profile()
    return label, run


def matching_op(label, grid, betti_of, comb_label):
    """Homology of the matching complex of a 2-row grid, which must equal
    that of the m=2 comb it is isomorphic to (computed earlier in the pass)."""
    def run():
        gate(graphs.line_graph(grid))
        rep = homology.reduced_homology(complexes.matching_complex(grid))
        expect(label + " torsion", rep.torsion, {})
        expect(label + " betti", rep.betti_profile(), betti_of.get(comb_label))
    return label, run


def homology_inputs(seed):
    """(label, family, m, n, relabelled graph) for every snf-homology
    operation; the grid's entry holds the grid, whose line graph is taken
    inside the timed pass."""
    rng = random.Random(seed)
    out = []
    for p in range(PERMUTATIONS):
        for fam, m, n in HOMOLOGY_INSTANCES:
            g = relabel(graphs.build_graph(fam, m=m, n=n), rng)
            out.append(("%s(%d,%d)/p%d" % (fam, m, n, p), fam, m, n, g))
        # grid2 line labels assume the column-major order, so drop the family
        grid = relabel(graphs.build_graph("grid2", n=GRID_COLUMNS), rng,
                       keep_family=False)
        out.append(("matching(grid2(%d))/p%d" % (GRID_COLUMNS, p), "grid2", None,
                    GRID_COLUMNS, grid))
    return out


def snf_homology(seed):
    betti_of = {}
    ops = []
    for label, fam, m, n, g in homology_inputs(seed):
        if fam == "delta":
            ops.append(homology_op(label, g, m=m, n=n, betti_out=betti_of))
        elif fam == "grid2":
            comb_label = "delta(2,%d)/%s" % (n - 2, label.rsplit("/", 1)[1])
            ops.append(matching_op(label, g, betti_of, comb_label))
        else:
            want = star_betti(m, n) if fam == "star" else theta_betti(m, n)
            ops.append(homology_op(label, g, betti=want))
    return ops


# ----------------------------------------------------------- morse-certify

CERTIFY_INSTANCES = [(2, 9), (3, 6), (4, 5)]


def certify_op(m, n, g):
    """Grow the comb tree, check its census, then certify its matching:
    acyclic, and with the critical cells a partition of the faces."""
    label = "certify delta(%d,%d)" % (m, n)

    def run():
        tree = comb.comb_tree(m, n)
        expect(label + " census", comb.census_from_tree(tree).counts,
               census.census_table(m, n).row_counts(n))
        cx = complexes.independence_complex(g)
        pairing = morse.collect_pairing(tree)
        acyclic, witness = morse.verify_acyclic(cx, pairing)
        expect(label + " acyclic", (acyclic, witness), (True, None))
        paired = pairing.paired_faces()
        crit = set(morse.critical_cells(tree))
        expect(label + " pairs", len(paired), 2 * len(pairing))
        expect(label + " partition",
               (paired | crit == set(cx.all_faces()), paired & crit), (True, set()))
    return label, run


def morse_certify(seed):
    # The comb pivot scripts are defined on the construction order, so the
    # seed is recorded but changes no input.
    return [certify_op(m, n, graphs.build_graph("delta", m=m, n=n))
            for m, n in CERTIFY_INSTANCES]


# -------------------------------------------------------------- comb-scale

SCALE_TREES = [(2, 22), (5, 20), (3, 20)]
# Independent-set counts of delta(m, n), confirmed by a 2^m-state column
# transfer matrix (a path that shares no code with the DFS counter).
SCALE_COUNTS = {(2, 10): 808395, (3, 7): 499106}
EULER_M = (2, 3, 4, 5)
EULER_NMAX = 400
CLI_MORSE = (2, 16)
CLI_CENSUS = (3, 600)


def tree_op(m, n):
    label = "tree delta(%d,%d)" % (m, n)

    def run():
        tree = comb.comb_tree(m, n)
        expect(label, comb.census_from_tree(tree).counts,
               census.census_table(m, n).row_counts(n))
    return label, run


def count_op(m, n, g, want):
    label = "count delta(%d,%d)" % (m, n)
    return label, lambda: expect(label, complexes.count_independent_sets(g), want)


def euler_op(m, nmax):
    label = "euler m=%d n<=%d" % (m, nmax)

    def run():
        table = census.census_table(m, nmax)
        history = {}
        for n in range(nmax + 1):
            e = census.euler_from_table(table, n)
            history[n] = e
            expect("%s n=%d" % (label, n),
                   (census.euler_recursion(m, n, history),
                    census.euler_closed_form(m, n)), (e, e))
    return label, run


def cli_morse_op(m, n, out_dir):
    label = "cli morse delta(%d,%d)" % (m, n)
    path = os.path.join(out_dir, "morse-%d-%d.json" % (m, n))

    def run():
        rc = cli.main(["morse", "--family", "delta", "--m", str(m), "--n", str(n),
                       "--out", path])
        expect(label + " exit", rc, 0)
        with open(path) as fh:
            got = json.load(fh)["census"]["census"]
        want = census.census_table(m, n).row_counts(n)
        expect(label + " census", got, {str(d): c for d, c in want.items()})
    return label, run


def cli_census_op(m, nmax, out_dir):
    label = "cli census m=%d nmax=%d" % (m, nmax)
    path = os.path.join(out_dir, "census-%d-%d.json" % (m, nmax))

    def run():
        rc = cli.main(["census", "--m", str(m), "--nmax", str(nmax), "--out", path])
        expect(label + " exit", rc, 0)
        with open(path) as fh:
            rows = json.load(fh)["rows"]
        table = census.census_table(m, nmax)
        expect(label + " rows", rows, table.to_json()["rows"])
        for n, row in enumerate(rows):
            e = sum(c if int(d) % 2 == 0 else -c for d, c in row.items())
            expect("%s euler n=%d" % (label, n), e, census.euler_closed_form(m, n))
    return label, run


def comb_scale(seed, out_dir):
    # Every instance is fixed by (m, n); the seed is recorded only.
    ops = [tree_op(m, n) for m, n in SCALE_TREES]
    ops += [count_op(m, n, graphs.build_graph("delta", m=m, n=n), want)
            for (m, n), want in SCALE_COUNTS.items()]
    ops += [euler_op(m, EULER_NMAX) for m in EULER_M]
    ops.append(cli_morse_op(*CLI_MORSE, out_dir))
    ops.append(cli_census_op(*CLI_CENSUS, out_dir))
    return ops


def build(workload, seed, out_dir):
    """The operation list of a workload; this is the benchmark's set-up."""
    if workload == "snf-homology":
        return snf_homology(seed)
    if workload == "morse-certify":
        return morse_certify(seed)
    if workload == "comb-scale":
        return comb_scale(seed, out_dir)
    raise ValueError("unknown workload %r" % workload)


WORKLOADS = ("snf-homology", "morse-certify", "comb-scale")
