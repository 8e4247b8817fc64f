"""Start-up probe: `python3 perfbench/startup.py <workload> <seed>`.

Imports the package, fills its derivation cache, generates the first
inputs of the workload, prints "ready" and exits.  The benchmark times it
from launch to that line; the median over several probes is `setup_s`.
"""

import sys

import bench

workload = bench.make_workload(sys.argv[1], int(sys.argv[2]))
bench.warm_cache()
workload.inputs()
print("ready", flush=True)
