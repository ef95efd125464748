"""Span recorder for the traced run.

The tracer replaces each public function of the gridmorse modules, at every
module attribute that names it, by a wrapper that records one span per call:
name, start, end and the index of the enclosing span.  Internal calls go
through the same module attributes, so `reduced_homology` records its
`boundary_matrices` and `smith_normal_form` children, `comb_tree` records
`run_strategy` and `expand`, and `cli.main` records the `cmd_*` it runs.
Spans stay in memory and are written out when the run ends.

Two methods are wrapped as well, because they hold a layer's work that no
public function reaches: `Graph.__init__` (graph construction) and
`StrategyScript.__call__` (the comb pivot rule, called once per tree step).
`census.table_get` is left unwrapped: it is a per-cell accessor called
millions of times inside `census_extend`, whose span covers it.
"""

from __future__ import annotations

import inspect
import os
from array import array
from contextlib import contextmanager
from time import perf_counter

UNWRAPPED = {"census.table_get"}


def out_bytes(argv):
    """Size of the file a `gridmorse ... --out PATH` call wrote."""
    if argv and "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            return os.path.getsize(path)
    return 0


# Counts taken at layer boundaries: span name -> (args, result) -> {count: n}.
COUNT_HOOKS = {
    "complexes.independence_complex": lambda a, r: {"complexes.faces": r.num_faces()},
    "complexes.count_independent_sets": lambda a, r: {"complexes.counted_sets": r},
    "morse.run_strategy": lambda a, r: {"comb.tree_nodes": len(r.nodes),
                                        "comb.critical_cells": len(r.critical_leaves())},
    "morse.collect_pairing": lambda a, r: {"morse.pairs": len(r)},
    "homology.boundary_matrices": lambda a, r: {"homology.nnz": sum(M.nnz() for M in r)},
    "homology.smith_normal_form": lambda a, r: {"homology.snf_nnz_in": a[0].nnz(),
                                                "homology.rank_total": r.rank},
    "cli.main": lambda a, r: {"cli.out_bytes": out_bytes(a[0] if a else None)},
}


class Tracer:
    """Spans are kept column-wise in flat arrays (name, start, end, parent
    index or -1), so that recording adds no objects for the garbage
    collector to traverse; tree growth is sensitive to that."""

    def __init__(self):
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counts = {}
        self._stack = []

    def __len__(self):
        return len(self.names)

    def _open(self, name):
        stack = self._stack
        i = len(self.names)
        self.names.append(name)
        self.parents.append(stack[-1] if stack else -1)
        self.ends.append(0.0)
        stack.append(i)
        self.starts.append(perf_counter())
        return i

    def _close(self, i):
        self.ends[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, fn, name):
        hook = COUNT_HOOKS.get(name)
        counts, begin, close = self.counts, self._open, self._close

        def traced(*args, **kwargs):
            i = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if hook is not None:
                for key, value in hook(args, result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, modules, methods=()):
        """Wrap the public functions of `modules` (plus the given
        (class, attribute, span name) methods) for the duration."""
        owners = [m.__name__ for m in modules]
        wrappers = {}
        undo = []
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ not in owners):
                    continue
                name = "%s.%s" % (obj.__module__.rsplit(".", 1)[-1], obj.__name__)
                if name in UNWRAPPED:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, name)
                undo.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
        for cls, attr, name in methods:
            orig = cls.__dict__[attr]
            undo.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(orig, name))
        try:
            yield
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)


def self_times(t, lo, hi):
    """Self time (duration minus the durations of its children) of each of
    the spans lo..hi-1, a closed subtree of the recording."""
    dur = [t.ends[i] - t.starts[i] for i in range(lo, hi)]
    child = [0.0] * (hi - lo)
    for i in range(lo, hi):
        if t.parents[i] >= lo:
            child[t.parents[i] - lo] += dur[i - lo]
    return [d - c for d, c in zip(dur, child)]


def outermost_time(t, lo, hi, names):
    """Summed duration of the spans lo..hi-1 named in `names` that have no
    ancestor also named in `names`, so that nesting is not counted twice."""
    total = 0.0
    for i in range(lo, hi):
        if t.names[i] not in names:
            continue
        parent = t.parents[i]
        while parent >= lo and t.names[parent] not in names:
            parent = t.parents[parent]
        if parent < lo:
            total += t.ends[i] - t.starts[i]
    return total
