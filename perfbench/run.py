"""Benchmark of the modunfold pipeline: one workload, one seed, one run.

    python3 perfbench/run.py --workload {recover,sweep,mgrid} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ./src.  The
run sets up the workload's inputs from the seed (several times, to time
set-up), then repeats the workload's pass of operations for S seconds (at
least one whole pass), timing each operation and checking every result.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, measured without
wrappers; with --trace 1 they are its per_layer list, from a run with span
wrappers around the package's public functions.  A record with the
environment and every figure goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
# Imports run once per process, so extra imports are timed in child
# interpreters that import the package and exit.
IMPORT_CHILDREN = 2
_IMPORT = ("import sys, time; started = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
           "import numpy, scipy, modunfold; print(time.perf_counter() - started)")
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("recover", "sweep", "mgrid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _limit_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; returns the cap."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    for name in BLAS_VARIABLES:
        value = os.environ.get(name, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[name] = str(nproc)
    return nproc


def _environment(args, nproc: int) -> dict:
    import numpy
    import scipy
    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(), "executable": sys.executable,
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "nproc": nproc,
        "machine": platform.machine(), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
    }


def _measure(workload, seconds: float, tally, speed, tracer=None) -> list[list[float]]:
    """Repeat the pass until `seconds` have gone and one pass is complete."""
    count = len(workload.ops)
    times = [[] for _ in range(count)]
    deadline = time.perf_counter() + seconds
    done = 0
    while done < count or time.perf_counter() < deadline:
        i = done % count
        if tracer is not None:
            tracer.start_op(i)
        started = time.perf_counter()
        try:
            result = workload.run(i)
        except Exception as err:  # a raising operation is a failed one, not a crash
            result = err
        times[i].append(time.perf_counter() - started)
        tally.judge(i, result)
        speed.maybe_probe()
        done += 1
    speed.probe()
    return times


def _import_times(src: Path) -> list[float]:
    """Import time of numpy, scipy and modunfold in fresh interpreters."""
    return [float(subprocess.run([sys.executable, "-c", _IMPORT, str(src)], check=True,
                                 capture_output=True, text=True, timeout=170).stdout)
            for _ in range(IMPORT_CHILDREN)]


def _load_metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {"0": spec["end_to_end"], "1": spec["per_layer"]}


def main(argv=None) -> int:
    args = _parse(argv)
    nproc = _limit_blas_threads()
    started = time.perf_counter()
    try:
        import numpy  # noqa: F401  (checked before anything else needs it)
        import scipy  # noqa: F401
    except ImportError as err:
        print(f"error: {sys.executable} cannot import {err.name}; run the benchmark "
              "with a Python that has numpy and scipy", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "modunfold" / "__init__.py").is_file():
        print(f"error: no modunfold package under {src}; run from the root of a "
              "repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    package = importlib.import_module("modunfold")
    import_s = time.perf_counter() - started

    import layers
    import reference
    from hostspeed import HostSpeed
    from spans import Tracer
    from workloads import WORKLOADS, Tally

    speed = HostSpeed()
    speed.probe()
    if not args.trace:
        import_s = statistics.median([import_s] + _import_times(src))
    cls = WORKLOADS[args.workload]
    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        speed.probe()
        began = time.perf_counter()
        workload = cls(package, args.seed)
        workload.setup()
        workload.warm_up()
        setups.append(time.perf_counter() - began)

    tally = Tally(workload, reference.lookup(args.workload, args.seed))
    if args.trace:
        with Tracer(layers.COUNTERS) as tracer:
            workload.setup()  # traced input generation: the set-up bucket
            times = _measure(workload, args.seconds, tally, speed, tracer)
        figures = layers.per_layer(tracer)
        skipped = sorted(tracer.skipped)
    else:
        times = _measure(workload, args.seconds, tally, speed)
        figures = {}
        skipped = []

    medians = [statistics.median(t) for t in times]
    setup_raw_s = import_s + statistics.median(setups)
    factor = speed.factor()
    figures.update({
        "setup_raw_s": setup_raw_s,
        "wall_raw_s": sum(medians),
        "host_factor": factor,
        "setup_s": setup_raw_s * factor,
        "wall_s": sum(medians) * factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_failed_frac": tally.not_ok / tally.attempted,
    })
    figures.update(workload.summary([m * factor for m in medians], tally.first))

    specs = _load_metric_specs()[str(args.trace)]
    metrics = {s["name"]: {"value": figures[s["name"]], "unit": s["unit"]} for s in specs}
    env = _environment(args, nproc)
    _report(env, workload, times, figures, specs, tally, skipped)
    reference.save_record(args, {
        "environment": env, "metrics": metrics, "figures": figures,
        "ops": {op: sorted(t) for op, t in zip(workload.ops, times)},
        "probes_s": speed.samples,
        "attempted": tally.attempted, "failed": tally.failed,
        "problems": tally.problems, "trace_skipped": skipped,
    })
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def _report(env, workload, times, figures, specs, tally, skipped) -> None:
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for op, samples in zip(workload.ops, times):
        print(f"  op {op}: n={len(samples)} median={statistics.median(samples) * 1e3:.2f} ms "
              f"min={min(samples) * 1e3:.2f} ms max={max(samples) * 1e3:.2f} ms")
    shown = {s["name"] for s in specs}
    for name, unit in [("setup_raw_s", "s"), ("wall_raw_s", "s"), ("host_factor", "ratio")] \
            + workload.report_units():
        if name not in shown:
            print(f"  {name} = {figures[name]:.6g} {unit}")
    for s in specs:
        print(f"  {s['name']} = {figures[s['name']]:.6g} {s['unit']}")
    print(f"  attempted={tally.attempted} failed={tally.failed}")
    for problem in tally.problems:
        print(f"  FAILED {problem}")
    for name in skipped:
        print(f"  trace skipped: {name}")


if __name__ == "__main__":
    sys.exit(main())
