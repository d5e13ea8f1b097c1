"""Benchmark of spinctrl: one workload per process, end to end or per layer.

Run from the repository root:

    python3 spinbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

The networks are generated from --seed in set-up. The measured part runs
whole rounds of them (every network once, in a seeded order) until the
time spent inside spinctrl reaches --seconds, and checks every network's
outputs between calls, outside the timed span. The last line of standard
output is one JSON object: correct, attempted, failed and the metrics
(end-to-end with --trace 0, per layer with --trace 1). The line before it
records the machine, the BLAS threads and the run's rounds. Both lines, any
errors and, with --trace 1, the spans go to spinbench/out/.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

# One BLAS thread: at most nproc, and no contention between BLAS threads and
# the rest of the machine. Set before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("sweep", "analyze", "detect")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Import spinctrl from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "spinctrl", "__init__.py")):
        sys.exit(f"spinbench: no spinctrl sources under {SRC}")
    sys.path.insert(0, SRC)
    import spinctrl
    if os.path.dirname(os.path.dirname(os.path.abspath(spinctrl.__file__))) != SRC:
        sys.exit(f"spinbench: imported spinctrl from {spinctrl.__file__}, not {SRC}")
    return spinctrl


def blas_threads_in_use(numpy):
    """Thread count OpenBLAS reports, or None when its library is not found."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def warm_up(L):
    """Every layer once on a 4-node chain, so first-call costs fall in set-up."""
    spec = L.make_chain(4, "uniform", 0.0, (1,))
    L.analyze(spec)
    sub = L.single_excitation(spec)
    L.lie_closure([sub.h0, sub.h1], mode="exact")


def main(argv=None):
    args = parse_args(argv)
    spinctrl = import_program()
    import numpy

    import checks
    from tracing import ROUND, SETUP, Layers, Tracer, per_layer
    from workloads import WORKLOADS
    import_s = time.perf_counter() - _PROCESS_START

    make_cases, run_one = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    with Layers(tracer) as L:
        setup_times = []
        for rep in range(SETUP_REPEATS):
            if tracer:
                tracer.phase = (SETUP, rep)
            t0 = time.perf_counter()
            cases = make_cases(L, args.seed)
            warm_up(L)
            setup_times.append(time.perf_counter() - t0)

        times = [[] for _ in cases]   # seconds per round, for each network
        measured = 0.0
        rounds = attempted = failed = 0
        wrong, errors = [], []
        wall0 = time.perf_counter()
        while rounds == 0 or measured < args.seconds:
            # every round starts from the same heap: what a network leaves in
            # reference cycles is freed here, outside the timed calls
            gc.collect()
            if tracer:
                tracer.phase = (ROUND, rounds)
            for case, spent in zip(cases, times):
                seconds, error, found = checks.attempt(L, case, run_one)
                spent.append(seconds)
                measured += seconds
                attempted += 1
                if error:
                    errors.append(f"{case.label}: {error}")
                if found:
                    wrong.append(f"{case.label}: {'; '.join(found)}")
                failed += bool(error or found)
            rounds += 1
        wall_s = time.perf_counter() - wall0

    if tracer:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in per_layer(tracer).items()}
    else:
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setup_times), "unit": "s"},
            # one round's networks over the sum of each network's median time
            "networks_per_s": {"value": (attempted - failed) / rounds
                               / sum(statistics.median(t) for t in times), "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            * 1024 / 1e6, "unit": "MB"},
        }
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "openblas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        .get("version"),
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_reported": blas_threads_in_use(numpy),
        "networks_per_round": len(cases), "rounds": rounds,
        "measured_s": measured, "wall_s": wall_s,
        "import_s": import_s, "setup_repeats_s": setup_times,
        "spinctrl": spinctrl.__version__,
    }
    result = {"correct": not wrong, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    for line in errors[:len(cases)] + wrong[:len(cases)]:
        print(f"spinbench: {line}", file=sys.stderr)

    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump({"info": info, "result": result, "errors": errors, "wrong": wrong,
                   "spans": tracer.spans if tracer else []}, fh)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
