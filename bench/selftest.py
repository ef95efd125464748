"""Self-test of the benchmark harness (a few seconds):

    python3 bench/selftest.py

- An operation whose expected answer is deliberately wrong, and one that
  raises CapacityError, each count as one failed operation, and the pass
  still runs every other operation, traced or not.
- A traced pass leaves no wrapper behind, and the self times of its spans
  add up to the pass's duration.
- The same seed gives the same inputs, and another seed other inputs.
"""

import sys

sys.dont_write_bytecode = True

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

COUNT_DELTA_2_4 = 733    # independent sets of delta(2, 4), by transfer matrix


def check(what, ok):
    if not ok:
        raise SystemExit("selftest FAILED: %s" % what)
    print("ok  %s" % what)


def over_cap():
    wl.complexes.independence_complex(wl.graphs.build_graph("delta", m=2, n=4),
                                      face_cap=10)


def main():
    g = wl.graphs.build_graph("delta", m=2, n=4)
    ops = [wl.count_op(2, 4, g, COUNT_DELTA_2_4),
           wl.count_op(2, 4, g, COUNT_DELTA_2_4 + 1),    # wrong on purpose
           ("over cap", over_cap),
           wl.tree_op(2, 8)]

    errors = []
    _, failed = run.run_pass(ops, errors)
    check("untraced pass counts 2 of 4 operations as failed", failed == 2)
    check("the failures are the mismatch and the capacity error",
          [e.split(": ")[1] for e in errors] == ["Mismatch", "CapacityError"])

    t = tr.Tracer()
    errors = []
    secs, failed, lo, counts = run.traced_pass(ops, errors, t)
    check("traced pass counts the same failures", failed == 2 and len(errors) == 2)
    check("wrappers are removed after the pass",
          not hasattr(wl.complexes.count_independent_sets, "__wrapped__")
          and not hasattr(wl.graphs.Graph.__init__, "__wrapped__"))
    check("the count hook sees both counts",
          counts["complexes.counted_sets"] == 2 * COUNT_DELTA_2_4)
    layers = run.layer_metrics(t, lo, counts)
    total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    check("layer self times account for the traced pass",
          abs(total - secs) < 1e-6 * max(secs, 1.0))

    def orders(seed):
        return [g.vertices for *_, g in wl.homology_inputs(seed)]
    check("the same seed gives the same inputs", orders(3) == orders(3))
    check("another seed gives other inputs", orders(3) != orders(4))
    print("selftest passed")


if __name__ == "__main__":
    main()
