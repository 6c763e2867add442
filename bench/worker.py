"""One benchmark worker process.

Usage: worker.py WORKLOAD SEED SECONDS TRACE TMPDIR

The worker imports qbsim from the checkout's `src/`, does the
workload's set-up and warm-up, prints `ready`, and waits for one line on
stdin. On `quit` it exits; on `go` it runs the workload in a closed
loop, one operation at a time, and prints one JSON line of raw results.

Untraced (TRACE 0): the timed loop runs for SECONDS, stopping only at a
whole cycle of the workload's config classes; the workload's CLI probes
run between cycles, spread over the loop. Traced (TRACE 1): an untraced
loop of SECONDS / 2 gives the untraced rate, then exactly `digest_ops`
operations run traced and their spans are written to TMPDIR.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, run_cli  # noqa: E402


class Loop:
    """Results of a sequence of timed operations."""

    def __init__(self):
        self.latencies_ms: list[float] = []
        self.op_s: list[float] = []
        self.op_runs: list[int] = []
        self.busy_s = 0.0
        self.runs = 0
        self.failures: list[str] = []
        self.op_hashes: list[bytes] = []
        self.first_output: bytes | None = None

    def record(self, workload, index, run):
        start = time.perf_counter()
        try:
            output, runs = run(index)
            error = None
        except Exception:  # a failed operation is counted, the loop goes on
            output, runs, error = b"", 1, traceback.format_exc(limit=4)
        elapsed = time.perf_counter() - start
        self.op_s.append(elapsed)
        self.op_runs.append(runs)
        self.busy_s += elapsed
        self.runs += runs
        self.latencies_ms.append(elapsed * 1000 / runs)
        if error is None:
            try:
                error = workload.check(index, output)
            except Exception:
                error = traceback.format_exc(limit=4)
        if index == 0:
            self.first_output = output
        if index == len(self.op_hashes):
            self.op_hashes.append(hashlib.sha256(output).digest())
        if error is not None:
            self.failures.append(f"op {index}: {error}")

    def cycle_runs_per_s(self, cycle: int) -> list[float]:
        """Throughput of each whole cycle of config classes."""
        ends = range(cycle, len(self.op_s) + 1, cycle)
        return [sum(self.op_runs[end - cycle:end]) / sum(self.op_s[end - cycle:end])
                for end in ends]

    def digest(self, ops: int) -> str:
        return hashlib.sha256(b"".join(self.op_hashes[:ops])).hexdigest()


def timed_loop(workload, seconds: float, between_cycles=None) -> Loop:
    """Closed loop from operation 0 until `seconds` of loop time would be
    exceeded, ending at a whole cycle and covering at least `digest_ops`
    and `min_ops`. `between_cycles(fraction of seconds elapsed)` runs at
    each cycle boundary; its time is not loop time."""
    loop = Loop()
    least = max(workload.digest_ops, workload.min_ops)
    start = time.perf_counter()
    paused = 0.0
    index = 0
    while True:
        if index % workload.cycle == 0:
            elapsed = time.perf_counter() - start - paused
            if index >= least and elapsed * (1 + workload.cycle / index) > seconds:
                break
            if between_cycles is not None:
                pause = time.perf_counter()
                between_cycles(elapsed / seconds)
                paused += time.perf_counter() - pause
        loop.record(workload, index, workload.run)
        index += 1
    return loop


def untraced(workload, seconds: float, warm_output: bytes | None) -> dict:
    """The timed loop, with the workload's CLI probes spread evenly over
    it, so that they sample the same stretch of machine time."""
    probes = workload.probes()
    probe_failures, cold_start_s = [], []

    def run_probe():
        index, args, expected = probes[len(cold_start_s)]
        seconds_taken, code, stdout = run_cli(args)
        cold_start_s.append(seconds_taken)
        try:
            error = (f"exit code {code}, expected {expected}" if code != expected
                     else workload.check_probe(index, stdout))
        except Exception:
            error = traceback.format_exc(limit=4)
        if error is not None:
            probe_failures.append(f"probe of op {index}: {error}")

    def probes_due(fraction):
        while len(cold_start_s) < len(probes) and fraction >= len(cold_start_s) / len(probes):
            run_probe()

    loop = timed_loop(workload, seconds, probes_due)
    while len(cold_start_s) < len(probes):
        run_probe()
    if warm_output is not None and loop.first_output != warm_output:
        loop.failures.append("op 0: output differs between warm-up and timed run")
    if workload.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        cold_start_s = [ms / 1000 for ms in loop.latencies_ms]
    return {
        "ops": len(loop.latencies_ms) + len(probes),
        "runs": loop.runs,
        "cycle_runs_per_s": loop.cycle_runs_per_s(workload.cycle),
        "latencies_ms": loop.latencies_ms,
        "cold_start_s": cold_start_s,
        "failures": loop.failures + probe_failures,
        "digest": loop.digest(workload.digest_ops),
        "peak_rss_mb": peak_kb / 1024,
    }


def traced(workload, seconds: float, tmp: str) -> dict:
    plain = timed_loop(workload, seconds / 2)
    loop = Loop()
    span_files = []
    if workload.in_process:
        tracer = Tracer()
        tracer.install()

        def run(index):
            tracer.op = index
            return workload.run(index)
    else:
        def run(index):
            span_files.append(os.path.join(tmp, f"spans-{index}.json"))
            return workload.run(index, span_files[-1])

    for index in range(workload.digest_ops):
        loop.record(workload, index, run)
    if workload.in_process:
        span_files.append(os.path.join(tmp, "spans.json"))
        tracer.dump(span_files[-1])
    return {
        "ops": len(plain.latencies_ms) + len(loop.latencies_ms),
        "runs": loop.runs,
        "untraced_runs_per_s": plain.runs / plain.busy_s,
        "traced_runs_per_s": loop.runs / loop.busy_s,
        "span_files": span_files,
        "schemes": sum(map(workload.is_scheme, range(workload.digest_ops))),
        "failures": plain.failures + loop.failures,
        "digest": loop.digest(workload.digest_ops),
    }


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, tmp = argv
    workload = WORKLOADS[name](int(seed), tmp)
    import qbsim

    if not Path(qbsim.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"qbsim was imported from {qbsim.__file__}, not from {SRC}")
    workload.setup()
    warm_output = workload.run(0)[0] if workload.in_process else None
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    if trace == "1":
        result = traced(workload, float(seconds), tmp)
    else:
        result = untraced(workload, float(seconds), warm_output)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
