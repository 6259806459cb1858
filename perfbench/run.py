"""End-to-end benchmark of qborel: CLI confluence and Stokes runs and an
evaluation sweep, with a separate traced run that splits them into layers.

Run from the root of a source checkout (qborel is imported from ./src):

    python3 perfbench/run.py --workload confluence --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one unit
untraced and one traced and prints the per-layer metrics (see spans.py).
Human-readable report lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
Scratch files (CLI CSVs, span dumps) go to ./.perfbench_work.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_PINS:
    os.environ[_var] = "1"        # before numpy is imported, here and in children

WORKDIR = ".perfbench_work"
SETUP_PROBES = 3
TRACE_CLOSURE_MAX = 0.01          # self times + unattributed vs traced wall
SMOKE_ORACLE_SCALE = 1.0 + 1e-6   # --corrupt-oracle: every oracle off by 1e-6


def import_qborel(root: str):
    """Import qborel from <root>/src and refuse any other copy."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    try:
        import qborel
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import qborel from {src}: {exc}")
    origin = os.path.realpath(qborel.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"perfbench: qborel imported from {origin}, not from {src}")


def setup(args, root: str):
    """Process start to ready: import qborel and generate the inputs."""
    import_qborel(root)
    import workloads

    workdir = os.path.join(root, WORKDIR)
    os.makedirs(workdir, exist_ok=True)
    scale = SMOKE_ORACLE_SCALE if args.corrupt_oracle else 1.0
    return workloads.make_workload(args.workload, args.seed, workdir,
                                   smoke=args.smoke, oracle_scale=scale), workdir


def measure_setup(args, root: str, probes: int) -> list[float]:
    """Wall time of fresh processes that only do the set-up step."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=root, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def environment(args) -> dict:
    import numpy
    import scipy

    try:
        from qborel._kernels import BACKEND as walk_backend
    except ImportError:
        walk_backend = "absent"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "walk_backend": walk_backend,
        "thread_pins": {v: os.environ[v] for v in THREAD_PINS},
        "seed": args.seed,
    }


def run_units(work, workdir: str, seconds: float, min_units: int = 2) -> list:
    """Repeat whole units until the next one would overrun the time budget.
    Each unit starts from a collected heap, so no unit pays for the garbage
    of the one before."""
    units = []
    t0 = time.perf_counter()
    while True:
        gc.collect()
        units.append(work.run_unit(workdir, len(units)))
        elapsed = time.perf_counter() - t0
        typical = statistics.median(u.wall for u in units)
        if len(units) >= min_units and elapsed + typical > seconds:
            return units


def percentile(values, p: int) -> float:
    return float(statistics.quantiles(values, n=100, method="inclusive")[p - 1])


def end_to_end(units, setup_times) -> dict:
    latencies = [t for u in units for t in u.latencies]
    return {
        "wall_s": (statistics.median(u.wall for u in units), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "cold_start_s": (statistics.median(u.first for u in units), "s"),
        "point_ms_p50": (1e3 * statistics.median(latencies), "ms"),
        "point_ms_p90": (1e3 * percentile(latencies, 90), "ms"),
    }


def traced(work, workdir: str, trace_path: str):
    """One untraced unit, then the same unit traced; per-layer metrics."""
    from spans import Tracer

    plain = work.run_unit(workdir, 0)
    tracer = Tracer()
    with tracer:
        unit = work.run_unit(workdir, 0)
    tracer.save(trace_path)
    layer = tracer.metrics()
    layer["trace.overhead_s"] = unit.wall - plain.wall
    layer["trace.overhead_frac"] = (unit.wall - plain.wall) / plain.wall
    return [plain, unit], layer, tracer.absent


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac", "_error")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal inputs (shorter q-grids, 10 sweep points)")
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="feed oracles that are off by 1e-6 relative")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    root = os.getcwd()

    if args.setup_probe:
        setup(args, root)
        return 0

    work, workdir = setup(args, root)
    tag = f"{args.workload}-seed{args.seed}"
    absent = []
    if args.trace:
        units, layer, absent = traced(work, workdir,
                                      os.path.join(workdir, f"spans-{tag}.npz"))
        metrics = {name: (value, layer_unit(name)) for name, value in layer.items()}
    else:
        setup_times = measure_setup(args, root, 1 if args.smoke else SETUP_PROBES)
        units = run_units(work, workdir, args.seconds)
        metrics = end_to_end(units, setup_times)

    trace_closes = not args.trace or layer["trace.closure_error"] < TRACE_CLOSURE_MAX
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    problems = [p for u in units for p in u.problems]
    if not trace_closes:
        problems.insert(0, "self times plus unattributed time miss the traced wall "
                           f"by {layer['trace.closure_error']:.2%}")
    report = {
        "workload": args.workload,
        "env": environment(args),
        "units": len(units),
        "unit_wall_s": [round(u.wall, 4) for u in units],
        "point_samples": sum(len(u.latencies) for u in units),
        "fail_frac": failed / attempted,
        "csv_digests": units[-1].digests,
        "absent_layers": absent,
        "problems": problems[:10],
    }
    print("perfbench report: " + json.dumps(report))
    if args.trace:
        wall = layer["trace.wall_s"]
        ranked = sorted((k for k in layer if k.endswith(".self_s")), key=lambda k: -layer[k])
        print("perfbench top layers by self time: " + ", ".join(
            f"{k[:-len('.self_s')]}={layer[k]:.3f}s ({layer[k] / wall:.1%})"
            for k in ranked[:6]))
    result = {
        "correct": failed == 0 and trace_closes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
