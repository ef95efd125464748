"""Command-line interface.

Subcommands: graph, complex, census, morse, homology, riordan, scan, verify.
Each subcommand accepts only the flags it reads.  Exit codes: 0 success,
1 verification failure, 2 usage error, 3 capacity exceeded.  Identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import census as census_mod
from . import comb as comb_mod
from .complexes import (CapacityError, DEFAULT_FACE_CAP, count_independent_sets,
                        independence_complex)
from .graphs import build_graph
from .homology import (DEFAULT_HOMOLOGY_FACE_CAP, IntegerMatrix,
                       morse_inequality_check, reduced_homology,
                       smith_normal_form)
from .morse import (collect_pairing, critical_cells, run_strategy,
                    verify_acyclic)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _emit_json(obj, out_path):
    _emit(json.dumps(obj, indent=2, sort_keys=True), out_path)


def _build_family(args):
    family = args.family
    if family in ("star", "theta", "delta"):
        if args.m is None:
            raise ValueError("--m is required for the %s family" % family)
        return build_graph(family, m=args.m, n=args.n)
    if args.m is not None:
        raise ValueError("--m is not used by the %s family" % family)
    return build_graph(family, n=args.n)


def cmd_graph(args):
    _emit_json(_build_family(args).to_json(), args.out)
    return EXIT_OK


def cmd_complex(args):
    g = _build_family(args)
    cx = independence_complex(g, args.face_cap)
    _emit_json(cx.to_json(include_faces=args.faces), args.out)
    return EXIT_OK


def cmd_census(args):
    table = census_mod.census_table(args.m, args.nmax)
    if args.oeis:
        lines = ["%d %d" % (n, census_mod.euler_from_table(table, n))
                 for n in range(args.nmax + 1)]
        _emit("\n".join(lines), args.out)
    elif args.format == "csv":
        _emit("\n".join(["m,n,d,count"] + list(table.to_csv_rows())), args.out)
    else:
        _emit_json(table.to_json(), args.out)
    return EXIT_OK


def cmd_morse(args):
    g = _build_family(args)
    if g.family not in comb_mod.PIVOT_RULES:
        raise ValueError("no pivot script for the %s family" % g.family)
    tree = run_strategy(g, comb_mod.PIVOT_RULES[g.family])
    out = tree.to_json()
    out["census"] = comb_mod.census_from_tree(tree).to_json()
    _emit_json(out, args.out)
    return EXIT_OK


def cmd_homology(args):
    g = _build_family(args)
    count = count_independent_sets(g, cap=args.face_cap)
    if count > args.face_cap:
        raise CapacityError("complex has more than %d faces" % args.face_cap)
    report = reduced_homology(independence_complex(g, args.face_cap), args.face_cap)
    _emit_json(report.to_json(), args.out)
    return EXIT_OK


def cmd_riordan(args):
    ok = census_mod.riordan_identity_check(args.nmax)
    _emit("riordan identity through n=%d: %s" % (args.nmax, "ok" if ok else "FAILED"),
          args.out)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_scan(args):
    holds, exceptions = census_mod.observation_scan(args.nmax)
    lines = ["rank-excess scan through n=%d" % args.nmax,
             "holds for %d of %d rows" % (len(holds), args.nmax + 1),
             "exceptions: %s" % exceptions]
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def _check_seed(m):
    """The seed rows against the censuses of the matching trees, which share
    no code with the seed."""
    seed = census_mod.census_seed(m)
    return all(seed.row_counts(n) == comb_mod.comb_census(m, n).counts
               for n in range(4))


def _instance_checks(m, n, face_cap, hom_cap):
    """Tree/complex cross-checks for one comb instance.  Top level so that
    verify can shard instances across worker processes."""
    g = build_graph("delta", m=m, n=n)
    count = count_independent_sets(g, cap=hom_cap)
    name = "acyclic+partition(m=%d,n=%d)" % (m, n)
    if count > hom_cap:
        return [(name, None, "more than %d faces" % hom_cap)]
    tree = comb_mod.comb_tree(m, n)
    cx = independence_complex(g, face_cap)
    pairing = collect_pairing(tree, face_cap)
    paired = pairing.paired_faces()
    crit = set(critical_cells(tree))
    partition = paired | crit == set(cx.all_faces()) and not paired & crit
    acyclic, _ = verify_acyclic(cx, pairing)
    report = reduced_homology(cx, hom_cap)
    morse_ok = morse_inequality_check(comb_mod.census_from_tree(tree), report)
    return [(name, partition and acyclic, ""),
            ("morse-inequalities(m=%d,n=%d)" % (m, n), morse_ok, "")]


def _snf_perturbation_check(seed):
    rng = random.Random(seed)
    for _ in range(5):
        nr, nc = rng.randint(2, 5), rng.randint(2, 5)
        rows = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        base = smith_normal_form(IntegerMatrix.from_rows(rows)).factors
        for _ in range(6):
            i, j = rng.sample(range(nr), 2)
            s = rng.choice((-1, 1))
            for c in range(nc):
                rows[i][c] += s * rows[j][c]
            i, j = rng.sample(range(nc), 2)
            s = rng.choice((-1, 1))
            for r in range(nr):
                rows[r][i] += s * rows[r][j]
        if smith_normal_form(IntegerMatrix.from_rows(rows)).factors != base:
            return False
    return True


def _verify_checks(args):
    """Produce (name, status, detail) rows for the cross-check suite."""
    m, nmax = args.m, args.nmax
    face_cap = args.face_cap
    hom_cap = min(face_cap, DEFAULT_HOMOLOGY_FACE_CAP)
    rows = [("seed-table(m=%d)" % m, _check_seed(m), "")]

    table = census_mod.census_table(m, max(nmax, 4))
    ok = True
    bad = []
    for n in range(0, nmax + 1):
        got = comb_mod.comb_census(m, n).counts
        want = table.row_counts(n)
        if got != want:
            ok = False
            bad.append(n)
    rows.append(("tree-vs-table(m=%d,n<=%d)" % (m, nmax), ok,
                 "" if ok else "rows %s" % bad))

    hist = {}
    ok = True
    full = census_mod.census_table(m, max(nmax, 12))
    for n in range(0, max(nmax, 12) + 1):
        e = census_mod.euler_from_table(full, n)
        hist[n] = e
        if e != census_mod.euler_recursion(m, n, hist) or \
           e != census_mod.euler_closed_form(m, n):
            ok = False
    rows.append(("euler-consistency(m=%d)" % m, ok, ""))

    if m == 2:
        rows.append(("riordan(n<=%d)" % max(nmax, 10),
                     census_mod.riordan_identity_check(max(nmax, 10)), ""))

    ok = True
    for n in range(0, nmax + 1):
        bounds = census_mod.dimension_bounds(m, n)
        for d, c in enumerate(table.rows[n]):
            if c and not (bounds.d_min <= d <= bounds.d_max):
                ok = False
    rows.append(("support-bounds(m=%d,n<=%d)" % (m, nmax), ok, ""))

    jobs = [(m, n, face_cap, hom_cap) for n in range(0, nmax + 1)]
    if args.jobs > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                results = list(pool.map(_instance_checks, *zip(*jobs)))
        except OSError as exc:
            print("verify: process pool unavailable (%s); running the checks "
                  "serially" % exc, file=sys.stderr)
            results = [_instance_checks(*job) for job in jobs]
    else:
        results = [_instance_checks(*job) for job in jobs]
    for chunk in results:
        rows.extend(chunk)

    scan_ok = census_mod.observation_scan(99)[1] == [48, 61, 74, 84, 87, 90, 94, 97]
    rows.append(("rank-excess-scan(n<=99)", scan_ok, ""))
    rows.append(("snf-unimodular-invariance(seed=%d)" % args.seed,
                 _snf_perturbation_check(args.seed), ""))
    return rows


def cmd_verify(args):
    rows = _verify_checks(args)
    failures = 0
    lines = []
    for name, status, detail in rows:
        if status is None:
            word = "SKIP"
        elif status:
            word = "PASS"
        else:
            word = "FAIL"
            failures += 1
        lines.append("%s %s%s" % (word, name, (" (%s)" % detail) if detail else ""))
    lines.append("%d checks, %d failed" % (len(rows), failures))
    _emit("\n".join(lines), args.out)
    return EXIT_VERIFY if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridmorse",
        description="Matching and independence complexes of grid-like graphs: "
                    "morse matchings, cell censuses, exact homology.")
    sub = parser.add_subparsers(dest="command", required=True)

    def family_parser(name, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--family", default="delta",
                       choices=["path", "cycle", "grid2", "star", "theta", "delta"])
        p.add_argument("--m", type=int, default=None)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--out", default=None)
        return p

    def table_parser(name, summary, nmax):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--nmax", type=int, default=nmax)
        p.add_argument("--out", default=None)
        return p

    p = family_parser("graph", "emit a graph as JSON")
    p.set_defaults(func=cmd_graph)

    p = family_parser("complex", "enumerate an independence complex")
    p.add_argument("--face-cap", type=int, default=DEFAULT_FACE_CAP)
    p.add_argument("--faces", action="store_true", help="include the face list")
    p.set_defaults(func=cmd_complex)

    p = table_parser("census", "closed-form critical cell table", 10)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--format", choices=["csv", "json"], default="json")
    p.add_argument("--oeis", action="store_true",
                   help="print the Euler characteristic sequence in b-file form")
    p.set_defaults(func=cmd_census)

    p = family_parser("morse", "grow a matching tree and report its census")
    p.set_defaults(func=cmd_morse)

    p = family_parser("homology", "exact reduced homology of a complex")
    p.add_argument("--face-cap", type=int, default=DEFAULT_FACE_CAP)
    p.set_defaults(func=cmd_homology)

    p = table_parser("riordan", "check the m=2 array identities", 30)
    p.set_defaults(func=cmd_riordan)

    p = table_parser("scan", "rank-excess scan of the m=2 table", 99)
    p.set_defaults(func=cmd_scan)

    p = table_parser("verify", "run the desk-scale cross-check suite", 5)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--face-cap", type=int, default=DEFAULT_FACE_CAP)
    p.add_argument("--seed", type=int, default=20160603)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "m", None) is not None and args.m < 0:
        parser.error("--m must be nonnegative")
    if getattr(args, "nmax", 0) < 0:
        parser.error("--nmax must be nonnegative")
    if getattr(args, "face_cap", 0) < 0:
        parser.error("--face-cap must be nonnegative")
    if getattr(args, "jobs", 1) < 1:
        parser.error("--jobs must be at least 1")
    try:
        return args.func(args)
    except CapacityError as exc:
        print("capacity exceeded: %s" % exc, file=sys.stderr)
        return EXIT_CAPACITY
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
