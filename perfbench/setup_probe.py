"""Set-up only, in a fresh process: import, make job 0's inputs, build penalties.

    python3 perfbench/setup_probe.py <workload> <seed> <full|quick>

Prints ``ready`` once set-up is done; run.py times process start to that line.
"""

import sys

from run import import_package

import_package()
from workloads import WORKLOADS  # noqa: E402  (needs src/ on the path)

workload, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
wl = WORKLOADS[workload](getattr(WORKLOADS[workload], size))
ctx = wl.setup()
wl.inputs(ctx, seed, 0)
print("ready", flush=True)
