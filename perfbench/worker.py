"""One workload run in a fresh interpreter; prints one JSON report.

``run.py`` starts this script once per benchmark run, so the import
cost and the peak memory of each workload count in full.  Usage::

    python3 perfbench/worker.py --workload fleet --seed 1 --seconds 10 \\
        --trace 0

With ``--import-only`` it only times the workload's imports, which
``run.py`` repeats in further fresh interpreters for a median.
"""

import time

START_S = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOAD_IMPORTS = {
    "select": ("repro.selection", "repro.framework.chaos"),
    "dse": ("repro.dse", "repro.engine"),
    "fleet": ("repro.serving",),
    "wire": ("repro.serving",),
}
SETUPS = 3
"""Set-ups per run; ``setup_s`` reports their median."""
TRACED_STEPS = {"select": 1, "dse": 3, "fleet": 200, "wire": 3}
"""Fixed work for the traced phase, so per-layer totals compare
between commits however fast the untraced phase ran."""


def import_workload(name):
    """Import what the workload uses; returns (workloads module, secs)."""
    start_s = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    for module in WORKLOAD_IMPORTS[name]:
        importlib.import_module(module)
    workloads = importlib.import_module("workloads")
    return workloads, time.perf_counter() - start_s


def run_steps(workload, n_steps=None, seconds=None):
    """Closed loop, one step after another: ``n_steps`` of them, or as
    many as fit in ``seconds`` (at least ``workload.min_steps``)."""
    totals = {"attempted": 0, "failed": 0, "busy_s": 0.0, "steps": 0}
    latencies = []
    step_walls = []
    counts = {}
    start_s = time.perf_counter()
    while True:
        step_start_s = time.perf_counter()
        step = workload.step(totals["steps"])
        step_walls.append(time.perf_counter() - step_start_s)
        totals["steps"] += 1
        for key in ("attempted", "failed", "busy_s"):
            totals[key] += step[key]
        latencies.extend(step["latencies_s"])
        for name, value in step.get("counts", {}).items():
            counts[name] = counts.get(name, 0) + value
        if n_steps is not None:
            if totals["steps"] >= n_steps:
                break
        elif (
            totals["steps"] >= workload.min_steps
            and time.perf_counter() - start_s >= seconds
        ):
            break
    totals["wall_s"] = time.perf_counter() - start_s
    totals["step_walls_s"] = step_walls
    return totals, latencies, counts


def blas_threads():
    """The OpenBLAS thread count numpy runs with (-1 if unknown).

    Read, never set: the benchmark leaves every thread variable as the
    environment gave it.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as handle:
            paths = {
                line.split()[-1]
                for line in handle
                if "openblas" in line.lower()
            }
    except OSError:
        return -1
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            function = getattr(lib, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return -1


def traced_phase(name, workload, untraced):
    """Run the fixed traced work; returns the per-layer report."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install(tracing.LAYERS)
    try:
        totals, _, counts = run_steps(workload, n_steps=TRACED_STEPS[name])
    finally:
        tracer.uninstall()
    for counter, value in counts.items():
        tracer.count(counter, value)
    # Traced steps replay the first untraced ones (same inputs), so the
    # overhead is their wall time difference.
    baseline = untraced["step_walls_s"][: totals["steps"]]
    untraced_wall_s = sum(baseline) * totals["steps"] / len(baseline)
    wall_s = totals["wall_s"]
    layers = {
        span: tracer.self_s.get(span, 0.0) for span in tracing.SPAN_NAMES
    }
    counters = dict(tracer.counters)
    entries = counters.get("regression.lasso_entries", 0)
    batches = counters.get("serving.batches", 0)
    layers.update(
        {
            "regression.lasso_entries": entries,
            "regression.lasso_sweeps": counters.get(
                "regression.lasso_sweeps", 0
            ),
            "regression.lasso_unconverged": counters.get(
                "regression.lasso_unconverged", 0
            ),
            "regression.lasso_useful_ratio": (
                counters.get("regression.lasso_finite_bic", 0) / entries
                if entries
                else 0.0
            ),
            "regression.mars_fits": tracer.calls.get("regression.mars_s", 0),
            "framework.folds": tracer.calls.get(
                "framework.evaluate_fold_s", 0
            ),
            "dse.candidates": counters.get("dse.candidates", 0),
            "dse.feasible": counters.get("dse.feasible", 0),
            "engine.tasks": counters.get("engine.tasks", 0),
            "engine.cache_hits": counters.get("engine.cache_hits", 0),
            "serving.ticks": tracer.calls.get("serving.batcher_tick_s", 0),
            "serving.batch_size_mean": (
                counters.get("serving.batched_samples", 0) / batches
                if batches
                else 0.0
            ),
            "serving.protocol_bytes": counters.get(
                "serving.protocol_bytes", 0
            ),
            "trace.wall_s": wall_s,
            "trace.residual_s": wall_s - tracer.total_self_s(),
            "trace.overhead_s": wall_s - untraced_wall_s,
        }
    )
    return totals, layers, tracer.to_payload()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOAD_IMPORTS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args(argv)

    workloads, import_s = import_workload(args.workload)
    if args.import_only:
        print(json.dumps({"import_s": import_s}))
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    scratch_dir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        report = run_workload(args, workloads, import_s, scratch_dir)
    finally:
        shutil.rmtree(scratch_dir, ignore_errors=True)
    print(json.dumps(report))
    return 0


def run_workload(args, workloads, import_s, scratch_dir):
    # Set up several times for a median; the last instance runs.
    setup_times = []
    generate_times = []
    workload = None
    for _ in range(SETUPS):
        workload = None  # free the previous set-up before the next one
        workload = workloads.make(args.workload, scratch_dir)
        start_s = time.perf_counter()
        parts = workload.setup(args.seed)
        setup_times.append(time.perf_counter() - start_s)
        generate_times.append(parts["generate_s"])
    warm_up_s = workload.warm_up() if hasattr(workload, "warm_up") else 0.0

    untraced, latencies, _ = run_steps(workload, seconds=args.seconds)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "import_s": import_s,
        "setup_s": statistics.median(setup_times),
        "generate_s": statistics.median(generate_times),
        "warm_up_s": warm_up_s,
        "untraced": untraced,
        "latencies_s": latencies,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "thread_env": {
            key: value
            for key, value in sorted(os.environ.items())
            if key.endswith("_NUM_THREADS")
        },
    }
    if args.trace:
        traced, layers, trace = traced_phase(args.workload, workload, untraced)
        if args.workload == "dse":
            layers["engine.pool_over_serial"] = workload.pool_over_serial()
        else:
            layers["engine.pool_over_serial"] = 0.0
        report["traced"] = traced
        report["layers"] = layers
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(trace))
        report["trace_file"] = str(trace_path.relative_to(ROOT))

    expected = load_expected().get(args.workload, {}).get(str(args.seed))
    report["errors"] = workload.check(expected)
    report["outputs"] = workload.outputs()
    report["expected_recorded"] = expected is not None
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    report["process_s"] = time.perf_counter() - START_S
    return report


def load_expected():
    path = HERE / "expected.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text())


if __name__ == "__main__":
    sys.exit(main())
