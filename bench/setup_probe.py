"""Set-up probe: build one workload's inputs in a fresh interpreter, then
print the monotonic clock, so the caller can time interpreter start,
`import gridmorse` and input building together.

    python3 -B bench/setup_probe.py <workload> <seed>
"""

import sys

sys.dont_write_bytecode = True

import time  # noqa: E402

import workloads as wl  # noqa: E402

# Set-up writes nothing; the directory only names where passes would write.
wl.build(sys.argv[1], int(sys.argv[2]), str(wl.OUT_DIR))
print(repr(time.monotonic()))
