"""Command-line interface.

Subcommands: graph, complex, census, morse, homology, riordan, scan, verify.
Exit codes: 0 success, 1 verification failure, 2 usage error, 3 capacity
exceeded.  Identical invocations produce byte-identical output.  Selected
defaults can be overridden with MG_-prefixed environment variables
(MG_FACE_CAP, MG_SEED, MG_JOBS, MG_FORMAT).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import census as census_mod
from . import comb as comb_mod
from .complexes import (CapacityError, DEFAULT_FACE_CAP, count_independent_sets,
                        independence_complex)
from .graphs import build_graph
from .homology import (DEFAULT_HOMOLOGY_FACE_CAP, IntegerMatrix,
                       morse_inequality_check, reduced_homology,
                       smith_normal_form, torsion_scan)
from .morse import collect_pairing, run_strategy, verify_acyclic

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3


def _env_int(name, default):
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        print("invalid %s=%r" % (name, raw), file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


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


def _strategy_for(args):
    if args.family == "delta":
        return comb_mod.comb_strategy(args.m, args.n)
    if args.family == "star":
        return comb_mod.star_strategy(args.m, args.n)
    if args.family == "theta":
        return comb_mod.theta_strategy(args.m, args.n)
    if args.family == "path":
        return comb_mod.path_strategy(args.n)
    raise ValueError("no pivot script for the %s family" % args.family)


def cmd_morse(args):
    g = _build_family(args)
    tree = run_strategy(g, _strategy_for(args))
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
    want = {2: {(0, 0): 1, (1, 1): 2, (2, 2): 1, (3, 2): 2}}
    table = census_mod.census_seed(m)
    got = {(n, d): c for n, d, c in table.nonzero()}
    if m == 2:
        return got == want[2]
    expect = {(0, 0): 1, (1, 1): 1, (1, m - 1): 1, (2, m): 1, (3, 2): 1, (3, m): 1}
    return got == expect


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
    crit = set(tuple(sorted(nd.A)) for nd in tree.critical_leaves())
    partition = (pairing.paired_faces() | crit == set(cx.all_faces())
                 and not (pairing.paired_faces() & crit))
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
                results = list(pool.map(_instance_checks_packed, jobs))
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


def _instance_checks_packed(job):
    return _instance_checks(*job)


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

    def add_common(p, family=False, needs_n=False, nmax_default=None):
        if family:
            p.add_argument("--family", default="delta",
                           choices=["path", "cycle", "grid2", "star", "theta", "delta"])
        p.add_argument("--m", type=int, default=None if family else 2)
        if needs_n:
            p.add_argument("--n", type=int, required=True)
        if nmax_default is not None:
            p.add_argument("--nmax", type=int,
                           default=_env_int("MG_NMAX", nmax_default))
        p.add_argument("--format", choices=["csv", "json"],
                       default=os.environ.get("MG_FORMAT", "json"))
        p.add_argument("--out", default=None)
        p.add_argument("--face-cap", type=int,
                       default=_env_int("MG_FACE_CAP", DEFAULT_FACE_CAP))
        p.add_argument("--seed", type=int, default=_env_int("MG_SEED", 20160603))
        p.add_argument("--jobs", type=int, default=_env_int("MG_JOBS", 1))

    p = sub.add_parser("graph", help="emit a graph as JSON")
    add_common(p, family=True, needs_n=True)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("complex", help="enumerate an independence complex")
    add_common(p, family=True, needs_n=True)
    p.add_argument("--faces", action="store_true", help="include the face list")
    p.set_defaults(func=cmd_complex)

    p = sub.add_parser("census", help="closed-form critical cell table")
    add_common(p, nmax_default=10)
    p.add_argument("--oeis", action="store_true",
                   help="print the Euler characteristic sequence in b-file form")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("morse", help="grow a matching tree and report its census")
    add_common(p, family=True, needs_n=True)
    p.set_defaults(func=cmd_morse)

    p = sub.add_parser("homology", help="exact reduced homology of a complex")
    add_common(p, family=True, needs_n=True)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("riordan", help="check the m=2 array identities")
    add_common(p, nmax_default=30)
    p.set_defaults(func=cmd_riordan)

    p = sub.add_parser("scan", help="rank-excess scan of the m=2 table")
    add_common(p, nmax_default=99)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="run the desk-scale cross-check suite")
    add_common(p, nmax_default=5)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.m is not None and args.m < 0:
        parser.error("--m must be nonnegative")
    if getattr(args, "nmax", 0) < 0:
        parser.error("--nmax must be nonnegative")
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
