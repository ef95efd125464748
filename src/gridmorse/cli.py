"""Command-line interface.

Subcommands: graph, complex, census, morse, homology, riordan, scan, verify.
Each subcommand accepts only the flags it reads.  Exit codes: 0 success,
1 verification failure, 2 usage error or unwritable --out, 3 capacity
exceeded; a reader that closes stdout early does not change the code.
Identical invocations produce byte-identical output, written to stdout or
--out by one writer, _emit, which hands the document piece by piece to the
buffered file object and never holds its whole text.  Every JSON document
comes from one encoder, _json_pieces, which yields the bytes of
json.dumps(obj, indent=2, sort_keys=True) a whole top-level member, or a
whole element of a top-level member's list, at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from contextlib import nullcontext
from itertools import chain

from . import census as census_mod
from . import comb as comb_mod
from .complexes import CapacityError, DEFAULT_FACE_CAP, independence_complex
from .graphs import build_graph
from .homology import (DEFAULT_HOMOLOGY_FACE_CAP, IntegerMatrix,
                       full_homology, morse_homology, morse_inequality_check,
                       smith_normal_form)
from .morse import (collect_pairing, critical_cells, run_strategy,
                    verify_acyclic)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3

SNF_CHECK_SEED = 20160603  # seeds verify's random unimodular perturbations

_str = json.encoder.encode_basestring_ascii
_int = int.__repr__


def _json(obj, nl):
    """The text json.dumps(obj, indent=2, sort_keys=True) writes for obj
    nested at the depth whose line break and indent is nl.  A list of str
    is written by one map, a dict of int values by one comprehension.
    Anything else json.dumps would write (a float, a tuple, a non-str key)
    raises TypeError."""
    t = type(obj)
    if t is str:
        return _str(obj)
    if t is int:
        return _int(obj)
    if t is list:
        if not obj:
            return "[]"
        inner = nl + "  "
        if {*map(type, obj)} == {str}:
            body = map(_str, obj)
        else:
            body = [_json(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(body) + nl + "]"
    if t is dict:
        if not obj:
            return "{}"
        inner = nl + "  "
        items = sorted(obj.items())
        if {*map(type, obj.values())} == {int}:
            body = [_str(k) + ": " + _int(v) for k, v in items]
        else:
            body = [_str(k) + ": " + _json(v, inner) for k, v in items]
        return "{" + inner + ("," + inner).join(body) + nl + "}"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    raise TypeError("Object of type %s is not written as JSON" % t.__name__)


def _json_pieces(obj):
    """Yield json.dumps(obj, indent=2, sort_keys=True) in pieces: each member
    of a top-level object, and each element of a list that is such a
    member, is one piece joined by _json."""
    if type(obj) is not dict or not obj:
        yield _json(obj, "\n")
        return
    sep = "{\n  "
    for key, value in sorted(obj.items()):
        head = sep + _str(key) + ": "
        sep = ",\n  "
        if type(value) is list and value:
            yield head + "["
            item_sep = "\n    "
            for item in value:
                yield item_sep + _json(item, "\n    ")
                item_sep = ",\n    "
            yield "\n  ]"
        else:
            yield head + _json(value, "\n  ")
    yield "\n}"


def _emit(pieces, out_path):
    """Write a document, given as an iterable of str pieces, to out_path or
    stdout, one nonempty piece at a time, so the whole text is never held;
    the file object buffers the writes.  A newline is appended when the
    document does not end with one.  The destination is opened only here,
    after the document's object is built, so a run refused before that
    leaves no file.  A reader that closes stdout early ends the writing,
    not the run: file descriptor 1 then points at os.devnull, so the
    interpreter's final flush stays quiet, and the command exits with the
    status it computed."""
    last = ""
    try:
        with (open(out_path, "w") if out_path is not None
              else nullcontext(sys.stdout)) as fh:
            for piece in pieces:
                if piece:
                    fh.write(piece)
                    last = piece[-1]
            if last != "\n":
                fh.write("\n")
            fh.flush()  # a closed pipe shows here, not at exit
    except BrokenPipeError:
        if out_path is not None:
            raise
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


def _lines(lines):
    return ("%s\n" % line for line in lines)


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
    _emit(_json_pieces(_build_family(args).to_json()), args.out)
    return EXIT_OK


def cmd_complex(args):
    g = _build_family(args)
    cx = independence_complex(g, args.face_cap)
    _emit(_json_pieces(cx.to_json(include_faces=args.faces)), args.out)
    return EXIT_OK


def cmd_census(args):
    table = census_mod.census_table(args.m, args.nmax)
    if args.format == "oeis":
        _emit(_lines("%d %d" % (n, census_mod.euler_from_table(table, n))
                     for n in range(args.nmax + 1)), args.out)
    elif args.format == "csv":
        _emit(_lines(chain(["m,n,d,count"], table.to_csv_rows())), args.out)
    else:
        _emit(_json_pieces(table.to_json()), args.out)
    return EXIT_OK


def cmd_morse(args):
    g = _build_family(args)
    tree = run_strategy(g, comb_mod.PIVOT_RULE)
    out = tree.to_json()
    out["census"] = comb_mod.census_from_tree(tree).to_json()
    _emit(_json_pieces(out), args.out)
    return EXIT_OK


def cmd_homology(args):
    report = morse_homology(_build_family(args), args.face_cap)
    _emit(_json_pieces(report.to_json()), args.out)
    return EXIT_OK


def cmd_riordan(args):
    ok = census_mod.riordan_identity_check(args.nmax)
    _emit(_lines(["riordan identity through n=%d: %s"
                  % (args.nmax, "ok" if ok else "FAILED")]), args.out)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_scan(args):
    holds, exceptions = census_mod.observation_scan(args.nmax)
    _emit(_lines(["rank-excess scan through n=%d" % args.nmax,
                  "holds for %d of %d rows" % (len(holds), args.nmax + 1),
                  "exceptions: %s" % exceptions]), args.out)
    return EXIT_OK


def _check_seed(m):
    """The seed rows against the censuses of the matching trees, which share
    no code with the seed."""
    seed = census_mod.census_seed(m)
    return all(seed.row_counts(n)
               == comb_mod.census_from_tree(comb_mod.comb_tree(m, n)).counts
               for n in range(4))


def _instance_checks(m, n, cap):
    """Tree/complex cross-checks for one comb instance, all under one face
    cap, or a SKIP row over it."""
    name = "acyclic+partition(m=%d,n=%d)" % (m, n)
    try:
        cx = independence_complex(build_graph("delta", m=m, n=n), cap)
    except CapacityError:
        return [(name, None, "more than %d faces" % cap)]
    tree = comb_mod.comb_tree(m, n)
    pairing = collect_pairing(tree, cap)
    paired = pairing.paired_faces()
    crit = set(critical_cells(tree))
    partition = paired | crit == set(cx.all_faces()) and not paired & crit
    acyclic, _ = verify_acyclic(cx, pairing)
    # the full route, a path that shares no code with the tree it checks
    report = full_homology(cx, cap)
    morse_ok = morse_inequality_check(comb_mod.census_from_tree(tree), report)
    return [(name, partition and acyclic, ""),
            ("morse-inequalities(m=%d,n=%d)" % (m, n), morse_ok, "")]


def _snf_perturbation_check():
    rng = random.Random(SNF_CHECK_SEED)
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
    rows = [("seed-table(m=%d)" % m, _check_seed(m), "")]

    table = census_mod.census_table(m, max(nmax, 12))
    ok = True
    bad = []
    for n in range(0, nmax + 1):
        got = comb_mod.census_from_tree(comb_mod.comb_tree(m, n)).counts
        want = table.row_counts(n)
        if got != want:
            ok = False
            bad.append(n)
    rows.append(("tree-vs-table(m=%d,n<=%d)" % (m, nmax), ok,
                 "" if ok else "rows %s" % bad))

    hist = {}
    ok = True
    for n in range(0, table.n_max + 1):
        e = census_mod.euler_from_table(table, n)
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

    for n in range(0, nmax + 1):
        rows.extend(_instance_checks(m, n, args.face_cap))

    scan_ok = census_mod.observation_scan(99)[1] == [48, 61, 74, 84, 87, 90, 94, 97]
    rows.append(("rank-excess-scan(n<=99)", scan_ok, ""))
    rows.append(("snf-unimodular-invariance(seed=%d)" % SNF_CHECK_SEED,
                 _snf_perturbation_check(), ""))
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
    _emit(_lines(lines), args.out)
    return EXIT_VERIFY if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridmorse",
        description="Matching and independence complexes of grid-like graphs: "
                    "morse matchings, cell censuses, exact homology.")
    sub = parser.add_subparsers(dest="command", required=True)

    def family_parser(name, summary):
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--family", default="delta",
                       choices=["path", "cycle", "grid2", "star", "theta", "delta"])
        p.add_argument("--m", type=int, default=None)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--out", default=None)
        return p

    def table_parser(name, summary, nmax):
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
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
    p.add_argument("--format", choices=["csv", "json", "oeis"], default="json",
                   help="oeis prints the Euler characteristic sequence in b-file form")
    p.set_defaults(func=cmd_census)

    p = family_parser("morse", "grow a matching tree and report its census")
    p.set_defaults(func=cmd_morse)

    p = family_parser("homology", "exact reduced homology of a complex")
    p.add_argument("--face-cap", type=int, default=DEFAULT_HOMOLOGY_FACE_CAP)
    p.set_defaults(func=cmd_homology)

    p = table_parser("riordan", "check the m=2 array identities", 30)
    p.set_defaults(func=cmd_riordan)

    p = table_parser("scan", "rank-excess scan of the m=2 table", 99)
    p.set_defaults(func=cmd_scan)

    p = table_parser("verify", "run the desk-scale cross-check suite", 5)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--face-cap", type=int, default=DEFAULT_HOMOLOGY_FACE_CAP)
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
    try:
        return args.func(args)
    except CapacityError as exc:
        print("capacity exceeded: %s" % exc, file=sys.stderr)
        return EXIT_CAPACITY
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
