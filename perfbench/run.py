"""Time-to-certified-solution benchmark for gptw.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; gptw is imported from ``src/`` next
to this directory, never from an installed copy. Workloads, seeds and the
physics gate live in ``workloads.py``; why each workload exists is in
``README.md``.

With ``--trace 0`` the run is:

1. ``setup_s``: eleven fresh processes each time ``import gptw`` plus building
   the workload's inputs; the median is reported.
2. An untimed warm-up: the same calls at the workload's grid, few iterations.
3. Repetitions of the workload, each from the first public call to a gated
   result, until ``--seconds`` have passed (at least two). ``wall_s`` is
   their median, ``descent_p90_ms`` the 90th percentile of the per-descent
   times (calls of ``minimize_action``; on workloads without descents, the
   per-repetition times; the median below 100 samples),
   ``peak_rss_mb`` this process's ``ru_maxrss``.

With ``--trace 1`` the run is one untimed warm-up, one untraced repetition,
one repetition traced by ``tracer.py`` (set-up included), per-call
microbenchmarks at the workload's grid and, for workloads that run Lanczos,
one more traced repetition that only measures peak memory. It reports the
per-layer metrics.

The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics"}``. The line before it holds
the environment and the sample quartiles. A repetition fails when it raises or
fails the gate; the exit code is 0 only when none failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

# One BLAS thread, set before numpy loads and inherited by the set-up probes.
# With OpenBLAS's default of one thread per CPU, on a 2-CPU x86_64 machine
# the dot products of a 256^2 descent kept both CPUs busy for no gain in wall
# time (4.5-5.1 s of CPU per 2.3-2.6 s repetition, against 2.1-2.3 s of CPU
# and wall with one thread), and timings then depended on the other CPU being
# idle.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SETUP_PROBES = 11
MIN_REPS = 2
MICRO_BUDGET_S = 0.3


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _p90(values):
    """90th percentile when at least ten samples lie beyond it, else the
    median: a percentile of fewer samples reads mostly the slowest one."""
    if len(values) < 100:
        return statistics.median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _blas_threads():
    """Thread count of the OpenBLAS library numpy loaded, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _environment(args):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _probe_setup(args):
    """Child process: time import gptw plus the workload's inputs."""
    start = time.perf_counter()
    import workloads

    workloads.WORKLOADS[args.workload].prepare(args.seed)
    print(time.perf_counter() - start)


def _setup_times(args):
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
               "--workload", args.workload, "--seed", str(args.seed)]
        # the probe's stderr is not captured, so a failing probe's traceback
        # shows in this run's stderr
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


class Runner:
    """Repetitions of one workload, with their gate outcomes."""

    def __init__(self, wl, refs):
        self.wl = wl
        self.ref = refs[wl.name]
        self.attempted = 0
        self.failures = []

    def once(self, inputs):
        """One gated repetition; returns its wall time in seconds."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            bad = self.wl.check(self.wl.run(inputs), self.ref)
        except Exception as exc:  # a raising repetition counts as failed
            traceback.print_exc()
            bad = [f"{type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - start
        if bad:
            self.failures.append(bad)
            print(f"gate failed: {bad}", file=sys.stderr)
        return elapsed


def _descent_timer():
    """Record the wall time of every minimize_action call; returns
    (samples, undo)."""
    import gptw

    original = gptw.minimize.minimize_action
    samples = []

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            samples.append(time.perf_counter() - start)

    bound = [(m, k) for m in (gptw, gptw.minimize, gptw.spectrum)
             for k, v in list(vars(m).items()) if v is original]
    for m, k in bound:
        setattr(m, k, timed)

    def undo():
        for m, k in bound:
            setattr(m, k, original)

    return samples, undo


def _end_to_end(args, wl, runner):
    setup = _setup_times(args)
    inputs = wl.prepare(args.seed)
    wl.warm_up()
    walls = []
    descents, undo = _descent_timer()
    try:
        begin = time.perf_counter()
        while True:
            mark = len(descents)
            wall = runner.once(inputs)
            walls.append(wall)
            if len(descents) == mark:
                descents.append(wall)
            if len(walls) >= MIN_REPS and time.perf_counter() - begin >= args.seconds:
                break
    finally:
        undo()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = {"wall_s": walls, "setup_s": setup, "descent_ms": [1e3 * d for d in descents]}
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "descent_p90_ms": (1e3 * _p90(descents), "ms"),
    }
    return metrics, samples


def _per_call_us(fn, *args):
    """Median per-call time over repeated calls within MICRO_BUDGET_S."""
    times = []
    begin = time.perf_counter()
    while len(times) < 5 or time.perf_counter() - begin < MICRO_BUDGET_S:
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times)


def _traced_once(tracer, args, wl, runner):
    """Set-up plus one repetition under `tracer`; returns the repetition's
    wall time."""
    tracer.install()
    try:
        inputs = wl.prepare(args.seed)
        return runner.once(inputs)
    finally:
        tracer.restore()


def _per_layer(args, wl, runner):
    import gptw
    from tracer import Tracer

    inputs = wl.prepare(args.seed)
    wl.warm_up()
    untraced = runner.once(inputs)
    tracer = Tracer()
    traced = _traced_once(tracer, args, wl, runner)
    metrics = tracer.metrics()
    metrics["tracing.overhead_s"] = (traced - untraced, "s")
    memory = Tracer(memory=True)
    if metrics["spectrum.matvecs"][0]:
        _traced_once(memory, args, wl, runner)
    metrics.update(memory.peaks())
    f, p = wl.probe(inputs)
    metrics["field.transform_forward_us"] = (_per_call_us(gptw.transform_forward, f), "us")
    metrics["functionals.gradient_us"] = (_per_call_us(gptw.gradient, f, p), "us")
    metrics["functionals.action_us"] = (_per_call_us(gptw.action, f, p), "us")
    metrics["functionals.hessian_apply_us"] = (_per_call_us(gptw.hessian_apply, f, f, p), "us")
    samples = {"wall_s": [untraced], "traced_wall_s": [traced], "spans": [len(tracer.spans)]}
    return metrics, samples


def _seed(text):
    """numpy seeds must be non-negative; fold any integer into [0, 2**64),
    which leaves every seed already in that range unchanged."""
    return int(text) % 2**64


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=_seed, default=0,
                        help="any integer; taken modulo 2**64")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe_setup:
        _probe_setup(args)
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    runner = Runner(wl, workloads.REFERENCES)
    measure = _per_layer if args.trace else _end_to_end
    metrics, samples = measure(args, wl, runner)

    detail = {"environment": _environment(args), "samples": {}}
    for key, values in samples.items():
        q1, q2, q3 = _quartiles(values)
        detail["samples"][key] = {"n": len(values), "q1": q1, "median": q2, "q3": q3}
    print(json.dumps(detail))
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not runner.failures else 1


if __name__ == "__main__":
    sys.exit(main())
