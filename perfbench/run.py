"""Benchmark of the cahnallen toolkit.

    python3 perfbench/run.py --workload cli-cold|exact-warm|dynamics \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With --trace 0 it measures the end-to-end
metrics of one workload; with --trace 1 it measures the per-layer metrics
and the tracing overhead on that workload.  Every operation's output is
checked.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""

import os

# one thread per BLAS pool; set before numpy is first imported, and
# inherited by every child process
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_CAPS:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

SETUP_PROBES = 7


def environment(workload: str, seed: int, trace: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload, "seed": seed, "trace": trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "thread_caps": {name: os.environ[name] for name in THREAD_CAPS},
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-cold", "exact-warm", "dynamics"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cahnallen", "cli.py")):
        sys.stderr.write("perfbench: run from the root of a cahnallen"
                         " checkout (src/cahnallen is missing)\n")
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    import bench

    os.makedirs(bench.WORK, exist_ok=True)
    env = environment(args.workload, args.seed, args.trace)
    print("env: " + json.dumps(env, sort_keys=True), flush=True)
    started = time.time()
    if args.trace:
        import layers

        tally, metrics, extra = layers.traced_run(args.workload, args.seed,
                                                  args.seconds)
    else:
        workload = bench.make_workload(args.workload, args.seed)
        bench.warm_cache()
        tally = bench.measure(workload, args.seconds)
        setups = bench.setup_seconds(args.workload, args.seed, SETUP_PROBES)
        metrics = bench.end_to_end(tally, setups)
        extra = {"setup_samples_s": setups}

    for message in tally.unexpected:
        sys.stderr.write(f"perfbench: FAILED {message}\n")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    result = {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(result, env=env, started=started,
                  unexpected=tally.unexpected, latencies_s=tally.wall,
                  cpu_s=tally.cpu)
    record.update(extra)
    results = os.path.join(bench.WORK, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as fh:
        json.dump(record, fh)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
