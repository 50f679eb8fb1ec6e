"""Pipeline benchmark for memtensor.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cutoff_sweep --seed 1 --seconds 25 --trace 0

Runs whole passes of one workload for about ``--seconds`` (at least two
passes), checks every pass, and prints a summary followed, as the last
line, by one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced passes (no spans, no ``expm`` probe) and traced passes
and reports the per-layer metrics of the traced ones, plus the tracing
overhead. See ``perfbench/README.md``.
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FINGERPRINTS = HERE / "fingerprints.json"
TRACE_DIR = ROOT / ".bench_out"

# One BLAS thread: on a 2-core machine the default thread count makes the
# 256x256 exponentials of large_bath about twice as slow and much noisier.
BLAS_THREADS = "1"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Subprocesses that repeat the set-up, so that setup_s is a median.
SETUP_PROBES = 4
# Passes per run, whatever --seconds says: two give cutoff_sweep (one pass
# of about 14 s on a 2-core machine) a median, and a traced run one
# untraced and one traced pass.
MIN_PASSES = 2

# max_error is a trace distance, except on continuum_kernel, where it is a
# relative operator-norm difference (see README.md)
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_rate": "ratio",
                    "max_error": "dimensionless"}
SPANS = (
    "models.evolve_state",
    "tomography.reconstruct_family",
    "tomography.check_cptp",
    "transfer.build_tensors",
    "transfer.propagate",
    "transfer.error_bound",
    "transfer.memory_cutoff_heuristic",
    "kernel.kernel_norm_curve",
    "kernel.convergence_study",
    "kernel.nz_kernel_slice",
    "serialization.tensors_json",
)
COUNTS = (
    "tomography.maps",
    "tomography.cptp_checks",
    "transfer.tensors",
    "transfer.propagate.steps",
    "transfer.error_bound.calls",
    "kernel.kernels",
    "serialization.bytes",
    "linalg.expm.mats",
    "linalg.expm.s",
    "linalg.expm.flops_computed",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["cutoff_sweep", "long_horizon", "continuum_kernel", "large_bath"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up alone and print the seconds (used for setup_s)")
    return parser.parse_args(argv)


def import_library():
    """Import memtensor from this checkout's ``src``."""
    if not (SRC / "memtensor" / "__init__.py").is_file():
        raise SystemExit(f"error: no memtensor package under {SRC}")
    sys.path.insert(0, str(SRC))
    import memtensor

    if Path(memtensor.__file__).resolve().parent != SRC / "memtensor":
        raise SystemExit(f"error: imported memtensor from {memtensor.__file__}, not {SRC}")
    return memtensor


def environment(memtensor) -> dict:
    import numpy
    import scipy

    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        commit = ref
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "memtensor": memtensor.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARIABLES},
        "commit": commit,
    }


def probe_setup(args) -> list[float]:
    """Set-up seconds measured in fresh interpreters (import included)."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def layer_metrics(totals: dict, counters: dict, check, wall: float) -> dict:
    """Per-layer metrics of one traced pass."""
    metrics = {}
    for name in SPANS:
        span = totals.get(name, {"s": 0.0, "self_s": 0.0})
        metrics[f"{name}.s"] = span["s"]
        metrics[f"{name}.self_s"] = span["self_s"]
    for name in COUNTS:
        metrics[name] = counters.get(name, 0.0)
    steps = counters.get("transfer.propagate.steps", 0.0)
    metrics["transfer.propagate.us_per_step"] = (
        1e6 * metrics["transfer.propagate.s"] / steps if steps else 0.0)
    # ratios are useful / attempted; 0 when nothing was attempted (the base
    # is reported next to each)
    checks = counters.get("tomography.cptp_checks", 0.0)
    metrics["tomography.cptp_pass_ratio"] = counters.get("tomography.cptp_passed", 0.0) / checks if checks else 0.0
    metrics["transfer.bound_checks"] = check.bound_checks
    metrics["transfer.bound_ok_ratio"] = check.bound_ok / check.bound_checks if check.bound_checks else 0.0
    metrics["trace.wall_s"] = wall
    return metrics


def unit_of(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("us_per_step"):
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("flops_computed"):
        return "flop"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    # before numpy is first imported
    for variable in THREAD_VARIABLES:
        os.environ[variable] = BLAS_THREADS
    start = time.perf_counter()
    from tracing import ExpmProbe, NullTracer, Tracer

    tracer = Tracer() if args.trace else NullTracer()
    probe = ExpmProbe(tracer) if args.trace else None  # before memtensor binds expm
    memtensor = import_library()
    if probe:
        probe.bind()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(repr(setup_s))
        return 0

    env = environment(memtensor)
    print("# environment " + json.dumps(env, sort_keys=True))
    if not workload.uses_seed:
        print(f"# {args.workload} is deterministic: --seed {args.seed} is ignored")
    golden = json.loads(FINGERPRINTS.read_text())[args.workload]

    attempted = failed = 0
    max_error = 0.0
    walls = {False: [], True: []}
    per_pass = []
    traces = []
    deadline = time.perf_counter() + args.seconds
    traced = False
    # At least MIN_PASSES passes (one traced, in a traced run); after that a
    # pass starts only if a pass of median length still ends by the deadline,
    # so a run overruns --seconds by at most one short pass.
    while len(walls[False]) + len(walls[True]) < MIN_PASSES or (
        time.perf_counter() + statistics.median(walls[False] + walls[True]) <= deadline
    ):
        if args.trace:
            tracer.reset()
            tracer.enabled = traced
            probe.activate(traced)
        t0 = time.perf_counter()
        try:
            results = workload.run(tracer)
        except Exception as exc:  # noqa: BLE001 - a step shared by every operation failed
            results = workloads.Failed(exc)
        wall = time.perf_counter() - t0
        walls[traced].append(wall)
        if traced:
            tracer.enabled = False  # the checks below are not part of any layer
            probe.activate(False)
            totals, counters = tracer.layer_totals(), tracer.counter_totals()
            traces.append({"spans": tracer.spans, "counters": counters})
        if isinstance(results, workloads.Failed):
            check = workloads.CheckResult()
            for key in workload.ops:
                check.fail(key, results.reason)
        else:
            check = workload.check(results, golden)
        attempted += len(workload.ops)
        failed += len(check.failures)
        max_error = max(max_error, check.max_error)
        for key, reason in check.failures.items():
            print(f"# FAILED {args.workload} op {key}: {reason}", file=sys.stderr)
        if traced:
            per_pass.append(layer_metrics(totals, counters, check, wall))
        if args.trace:
            traced = not traced
        del results  # not alive while the next pass runs: peak_rss_mb is one pass
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        TRACE_DIR.mkdir(exist_ok=True)
        (TRACE_DIR / f"{args.workload}-seed{args.seed}.json").write_text(json.dumps(traces))
        metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        wall = metrics.pop("trace.wall_s")
        print(f"# {len(walls[True])} traced / {len(walls[False])} untraced passes; layer shares of the traced pass:")
        for name in SPANS:
            if metrics[f"{name}.s"]:
                print(f"#   {name:34s} {metrics[f'{name}.s']:9.4f} s  {100 * metrics[f'{name}.s'] / wall:5.1f}%"
                      f"  self {metrics[f'{name}.self_s']:9.4f} s")
        print(f"#   {'linalg.expm':34s} {metrics['linalg.expm.s']:9.4f} s  {100 * metrics['linalg.expm.s'] / wall:5.1f}%")
    else:
        setup_samples = [setup_s] + probe_setup(args)
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(walls[False]),
            "peak_rss_mb": peak_rss_mb,
            "ok_rate": (attempted - failed) / attempted,
            "max_error": max_error,
        }
        print(f"# {len(walls[False])} passes, wall_s samples {[round(w, 4) for w in walls[False]]}")
        print(f"# fail_rate = {failed / attempted:g} ({failed} of {attempted} operations)")
    out = {"correct": failed == 0, "attempted": attempted, "failed": failed,
           "metrics": {name: {"value": value, "unit": unit_of(name) if args.trace else END_TO_END_UNITS[name]}
                       for name, value in metrics.items()}}
    for name, entry in out["metrics"].items():
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
