"""gridmorse benchmark: time to an exact, oracle-checked answer.

    python3 bench/run.py --workload snf-homology --seed 1 --seconds 30 --trace 0

Each workload is one caller in a closed loop over a fixed list of
operations (see workloads.py and bench/README.md).  A pass runs the whole
list once, each operation checked against its oracle inside the timed
region; passes repeat until --seconds is used up, and the median pass is
reported.  An operation that raises or disagrees with its oracle counts as
failed.

--trace 0 prints the end-to-end metrics: solve_s (median pass), setup_s
(median over fresh interpreters of the time from process start until the
inputs are built) and peak_rss_mb (ru_maxrss of this process).
--trace 1 alternates untraced passes with passes in which every public
function of the gridmorse modules records a span, and prints per-layer
times and counts.  The spans, the counts and a run record are written to
bench/out/trace-<workload>-<seed>.json.

The last line of standard output is the result object; the line before it
is the run record (nproc, Python, git sha, seed, instances, pass times,
failures).
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

MIN_PASSES = 3          # untraced passes; a traced run needs 2 of each kind
SETUP_PROBES = 9
PROBE = Path(__file__).resolve().parent / "setup_probe.py"

# Per-layer times: metric -> span names whose outermost calls it sums.
LAYER_TIMES = {
    "graphs.line_graph_s": {"graphs.line_graph"},
    "complexes.enumerate_s": {"complexes.independence_complex",
                              "complexes.matching_complex"},
    "complexes.count_s": {"complexes.count_independent_sets"},
    "comb.tree_s": {"comb.comb_tree", "morse.run_strategy"},
    "morse.expand_s": {"morse.expand"},
    "morse.pairing_s": {"morse.collect_pairing"},
    "morse.acyclic_s": {"morse.verify_acyclic"},
    "census.table_s": {"census.census_table", "census.census_seed",
                       "census.census_extend"},
    "census.euler_s": {"census.euler_from_table", "census.euler_recursion",
                       "census.euler_closed_form"},
    "homology.boundary_s": {"homology.boundary_matrices"},
    "homology.snf_s": {"homology.smith_normal_form"},
    "cli.main_s": {"cli.main"},
}
GRAPH_BUILD = {"graphs.build_graph", "graphs.Graph"}
COUNTS = ("complexes.faces", "complexes.counted_sets", "comb.tree_nodes",
          "comb.critical_cells", "morse.pairs", "homology.nnz",
          "homology.snf_nnz_in", "homology.rank_total", "cli.out_bytes")
CALLS = {"morse.expand_calls": "morse.expand",
         "homology.snf_calls": "homology.smith_normal_form"}
SELF_LAYERS = tuple(m.__name__.rsplit(".", 1)[-1] for m in wl.LAYERS) + ("bench",)
METHODS = ((wl.graphs.Graph, "__init__", "graphs.Graph"),
           (wl.comb.StrategyScript, "__call__", "comb.pivot"))


def attempt(label, op, errors):
    """Run one operation; a raise or an oracle mismatch is one failure."""
    try:
        op()
        return 0
    except Exception as exc:
        if len(errors) < 20:
            errors.append("%s: %s: %s" % (label, type(exc).__name__, exc))
        return 1


def run_pass(ops, errors):
    """Run every operation once; return (seconds, failures)."""
    gc.collect()
    t0 = time.perf_counter()
    failed = sum(attempt(label, op, errors) for label, op in ops)
    return time.perf_counter() - t0, failed


def traced_pass(ops, errors, tracer):
    """One pass with every layer wrapped; returns (seconds, failures, first
    span index, counts)."""
    gc.collect()
    tracer.counts.clear()
    lo = len(tracer)
    failed = 0
    with tracer.installed(wl.LAYERS, METHODS), tracer.span("bench.pass"):
        for label, op in ops:
            with tracer.span("bench.op"):
                failed += attempt(label, op, errors)
    return tracer.ends[lo] - tracer.starts[lo], failed, lo, dict(tracer.counts)


def layer_metrics(t, lo, counts):
    """Per-layer times and counts of the traced pass whose spans start at lo."""
    hi = len(t)
    out = {name: tr.outermost_time(t, lo, hi, names)
           for name, names in LAYER_TIMES.items()}
    for metric, name in CALLS.items():
        out[metric] = t.names[lo:hi].count(name)
    for name in COUNTS:
        out[name] = counts.get(name, 0)
    faces = counts.get("complexes.faces", 0)
    out["morse.paired_frac"] = 2 * counts.get("morse.pairs", 0) / faces if faces else 0.0
    selfs = dict.fromkeys(SELF_LAYERS, 0.0)
    for name, s in zip(t.names[lo:hi], tr.self_times(t, lo, hi)):
        selfs[name.split(".", 1)[0]] += s
    for layer, s in selfs.items():
        out[layer + ".self_s"] = s
    out["trace.spans"] = hi - lo
    return out


def probe_setup(workload, seed):
    """Seconds from launching a fresh interpreter until it has imported
    gridmorse and built the workload's inputs."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-B", str(PROBE), workload, str(seed)],
                          capture_output=True, text=True, timeout=120, cwd=wl.ROOT)
    if proc.returncode != 0:
        raise RuntimeError("setup probe failed: %s" % proc.stderr.strip())
    return float(proc.stdout.split()[-1]) - t0


def git_sha():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    head = wl.ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = wl.ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = wl.ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    wl.OUT_DIR.mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=wl.OUT_DIR)
    try:
        return measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, scratch):
    errors = []
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": platform.python_version(),
              "nproc": os.cpu_count(), "git_sha": git_sha()}
    tracer = tr.Tracer() if args.trace else None
    if tracer is None:
        setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        record["setup_probes_s"] = setups
        ops = wl.build(args.workload, args.seed, scratch)
    else:
        with tracer.installed(wl.LAYERS, METHODS), tracer.span("bench.setup"):
            ops = wl.build(args.workload, args.seed, scratch)
        setup_end = len(tracer)
    record["instances"] = [label for label, _ in ops]

    start = time.perf_counter()
    plain, traced, layer_runs, count_runs = [], [], [], []
    attempted = failed = 0
    while True:
        if tracer is None:
            secs, bad = run_pass(ops, errors)
            plain.append(secs)
        else:
            # alternate, so drift in machine speed hits both kinds alike
            if len(plain) <= len(traced):
                secs, bad = run_pass(ops, errors)
                plain.append(secs)
            else:
                secs, bad, lo, counts = traced_pass(ops, errors, tracer)
                traced.append(secs)
                layer_runs.append(layer_metrics(tracer, lo, counts))
                count_runs.append(counts)
        attempted += len(ops)
        failed += bad
        elapsed = time.perf_counter() - start
        enough = (len(plain) >= MIN_PASSES if tracer is None
                  else min(len(plain), len(traced)) >= 2)
        if enough and elapsed + secs > args.seconds:
            break

    record.update({"passes_s": plain, "solve_s_quartiles": statistics.quantiles(plain, n=4),
                   "attempted": attempted, "failed": failed,
                   "failed_frac": failed / attempted, "errors": errors})
    if tracer is None:
        metrics = {
            "solve_s": {"value": statistics.median(plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "unit": "MB"},
        }
    else:
        metrics = trace_metrics(tracer, setup_end, plain, traced, layer_runs, count_runs,
                                record, args)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def trace_metrics(tracer, setup_end, plain, traced, layer_runs, count_runs, record, args):
    """Per-layer values: times are medians over the traced passes, counts
    come from the first traced pass (record["counts_repeat"] says whether
    every traced pass gave the same ones)."""
    exact = set(COUNTS) | set(CALLS) | {"trace.spans", "morse.paired_frac"}
    values = {name: (layer_runs[0][name] if name in exact
                     else statistics.median(run[name] for run in layer_runs))
              for name in layer_runs[0]}
    values["graphs.build_s"] = tr.outermost_time(tracer, 0, setup_end, GRAPH_BUILD)
    values["trace.solve_s"] = statistics.median(traced)
    values["trace.untraced_solve_s"] = statistics.median(plain)
    values["trace.overhead_frac"] = values["trace.solve_s"] / values["trace.untraced_solve_s"] - 1
    record["traced_passes_s"] = traced
    record["counts_repeat"] = all(c == count_runs[0] for c in count_runs)
    record["counts"] = {k: v for k, v in values.items() if k in exact}

    names = sorted(set(tracer.names))
    index = {n: i for i, n in enumerate(names)}
    path = wl.OUT_DIR / ("trace-%s-%d.json" % (args.workload, args.seed))
    with open(path, "w") as fh:
        json.dump({"record": record, "layers": values, "names": names,
                   "spans": [[index[n], round(s, 7), round(e, 7), p] for n, s, e, p
                             in zip(tracer.names, tracer.starts, tracer.ends,
                                    tracer.parents)]}, fh)
    unit = {k: ("ratio" if k.endswith("_frac") else "count" if k in exact else "s")
            for k in values}
    return {k: {"value": values[k], "unit": unit[k]} for k in sorted(values)}


if __name__ == "__main__":
    sys.exit(main())
