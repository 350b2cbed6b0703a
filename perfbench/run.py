"""The repo benchmark: one workload run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 15 --trace 0

Workloads: ``select``, ``dse``, ``fleet``, ``wire`` (see README.md).
Each run starts the workload in a fresh interpreter (``worker.py``),
so import cost and peak memory count, and times the workload's imports
in two more fresh interpreters for a median.  The last line printed is
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` its per-layer metrics.  The line before it carries the
run's environment (core count, BLAS threads) and step counts.  Full
reports and span traces are written under ``perfbench/out/``.
"""

import argparse
import json
import math
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("select", "dse", "fleet", "wire")
IMPORT_REPEATS = 3
DEADLINE_S = 170.0


def percentile(values, share):
    """Nearest-rank percentile of ``values`` (share in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def run_worker(args, deadline_s, extra=()):
    remaining = deadline_s - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("no time left for the workload")
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            *extra,
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        timeout=remaining,
        check=True,
    )
    return json.loads(completed.stdout.decode().splitlines()[-1])


def end_to_end(report, import_times):
    untraced = report["untraced"]
    latencies_ms = [value * 1e3 for value in report["latencies_s"]]
    return {
        "setup_s": (
            statistics.median(import_times)
            + report["setup_s"]
            + report["warm_up_s"]
        ),
        "peak_rss_mb": report["peak_rss_mb"],
        "work_per_s": (
            (untraced["attempted"] - untraced["failed"]) / untraced["busy_s"]
        ),
        "step_p95_ms": percentile(latencies_ms, 0.95),
    }


def per_layer(report, import_times):
    values = dict(report["layers"])
    values["import_s"] = statistics.median(import_times)
    values["cluster.generate_s"] = report["generate_s"]
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline_s = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no program source under {ROOT / 'src'}",
            file=sys.stderr,
        )
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        import_times = [
            run_worker(args, deadline_s, ["--import-only"])["import_s"]
            for _ in range(IMPORT_REPEATS - 1)
        ]
        report = run_worker(args, deadline_s)
    except (subprocess.SubprocessError, TimeoutError, ValueError) as error:
        print(f"error: workload run failed: {error}", file=sys.stderr)
        return 1
    import_times.append(report["import_s"])

    values = (
        per_layer(report, import_times)
        if args.trace
        else end_to_end(report, import_times)
    )
    metrics = {
        metric["name"]: {
            "value": values[metric["name"]],
            "unit": metric["unit"],
        }
        for metric in metric_specs
    }
    attempted = report["untraced"]["attempted"]
    failed = report["untraced"]["failed"]
    if args.trace:
        attempted += report["traced"]["attempted"]
        failed += report["traced"]["failed"]
    result = {
        "correct": not report["errors"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"result-{stem}.json").write_text(
        json.dumps({"result": result, "report": report}, indent=1)
    )
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": report["nproc"],
        "affinity": report["affinity"],
        "blas_threads": report["blas_threads"],
        "thread_env": report["thread_env"],
        "steps": report["untraced"]["steps"],
        "latency_samples": len(report["latencies_s"]),
        # Informational only: tick times on shared machines are bimodal
        # (fast and slow phases of a few seconds), so the median flips
        # between modes from run to run; work_per_s and the p95 do not.
        "step_p50_ms": percentile(
            [value * 1e3 for value in report["latencies_s"]], 0.50
        ),
        "import_s": import_times,
        "expected_recorded": report["expected_recorded"],
        "errors": report["errors"],
    }
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
