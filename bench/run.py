"""qbsim benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; qbsim is imported from its `src/`.
Each workload runs in fresh worker processes (`worker.py`), one caller
in a closed loop. Untraced, the worker is started SETUPS times and
`setup_s` is the median time from launch until the worker is ready; the
last one then runs the timed loop. Traced, one worker runs an untraced
and then a traced loop, and the per-layer metrics come from its spans.

The last line printed is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The lines before it give sample
counts, the output digest, failures and the software versions. Workload
design and baseline numbers are in `bench/DESIGN.md`.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("batch-stats", "committee-scaling", "cli-cold-start")
SETUPS = 3  # worker launches per untraced run; setup_s is their median
READY_TIMEOUT_S = 60
RESULT_TIMEOUT_S = 150
FAILURES_SHOWN = 3


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def start_worker(args, tmp: str) -> tuple[subprocess.Popen, float]:
    """A worker that has finished its set-up, and the seconds it took."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), args.workload, str(args.seed), str(args.seconds),
         str(args.trace), tmp],
        cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        ready = selector.select(READY_TIMEOUT_S) and proc.stdout.readline() == "ready\n"
    elapsed = time.perf_counter() - start
    if not ready:
        stop(proc)
        raise RuntimeError(f"worker for {args.workload} did not get ready")
    return proc, elapsed


def stop(proc: subprocess.Popen):
    """Kill a worker that is still running, with any CLI process it started."""
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def finish(proc: subprocess.Popen, command: str, timeout: float) -> str:
    try:
        out, _ = proc.communicate(command + "\n", timeout=timeout)
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def run_workers(args, tmp: str) -> tuple[dict, list[float]]:
    """The measuring worker's result and every set-up time."""
    setups = []
    launches = SETUPS if args.trace == 0 else 1
    for launch in range(launches):
        proc, seconds = start_worker(args, tmp)
        setups.append(seconds)
        if launch < launches - 1:
            finish(proc, "quit", READY_TIMEOUT_S)
    out = finish(proc, "go", RESULT_TIMEOUT_S)
    return json.loads(out.splitlines()[-1]), setups


def environment() -> dict:
    env = {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))}
    for package in ("numpy", "scipy", "jsonschema", "click"):
        try:
            env[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            env[package] = None
    return env


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, dict]:
    """(metrics, sample counts) of an untraced run."""
    latencies = result["latencies_ms"]
    p90, beyond = percentile(latencies, 0.9)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        # median over whole config cycles: steadier than the overall mean
        # when the shared host changes speed inside a run
        "runs_per_s": (statistics.median(result["cycle_runs_per_s"]), "1/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_p90_ms": (p90, "ms"),
        "cold_start_p50_s": (statistics.median(result["cold_start_s"]), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    samples = {
        "setup_s": len(setups),
        "runs_per_s": len(result["cycle_runs_per_s"]),
        "runs": result["runs"],
        "latency_p50_ms": len(latencies),
        "latency_p90_ms": len(latencies),
        "latency_p90_samples_beyond": beyond,
        "cold_start_p50_s": len(result["cold_start_s"]),
    }
    return metrics, samples


def per_layer(result: dict) -> tuple[dict, dict]:
    """(metrics, sample counts) of a traced run."""
    totals = spans.SpanTotals()
    for path in result["span_files"]:
        totals.add_file(path)
    layers = totals.metrics(result["runs"], result["schemes"])
    metrics = {name: (value, "ms" if "_ms" in name else "bytes" if "bytes" in name
                      else "count")
               for name, value in sorted(layers.items())}
    metrics["trace.overhead_ratio"] = (
        result["untraced_runs_per_s"] / result["traced_runs_per_s"], "ratio")
    return metrics, {"traced_runs": result["runs"], "span_files": len(result["span_files"])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qbsim" / "__init__.py").is_file():
        print(f"bench: no qbsim package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as tmp:
        result, setups = run_workers(args, tmp)
        if args.trace:
            metrics, samples = per_layer(result)
        else:
            metrics, samples = end_to_end(result, setups)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace
                                                       else "end_to_end"]}
    printed = {name: unit for name, (_, unit) in metrics.items()}
    if printed != declared:
        raise RuntimeError(f"metrics {printed} differ from BENCHMARK.json {declared}")

    failures = result["failures"]
    attempted = result["ops"]
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "digest": result["digest"], "samples": samples,
        "failed_ratio": len(failures) / attempted,
        "failures": failures[:FAILURES_SHOWN], "environment": environment(),
    }, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
