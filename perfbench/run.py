#!/usr/bin/env python3
"""qredshift benchmark: one named workload per run, driven by one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a qredshift checkout: the package is imported from the
checkout's `src/`, and the workloads and metric names are those of its
BENCHMARK.json.  One process, one thread: op i+1 starts when op i has
returned.  A warm-up op 0 runs before the timed phase, which then runs
ops 1, 2, ... until S seconds have passed.  After it, op 0 is replayed
and every op's outputs are checked (see workloads.py); the replay must
reproduce op 0 exactly.  Right before each timed op, the workload's
calibration kernel (calibrate.py) is timed once; the gated op times
(`op_s_p50_norm`, `ops_per_s_norm`) are wall times rescaled by it.

--trace 0 reports the end-to-end metrics.  --trace 1 runs untraced for
S/2 seconds, then with timing wrappers (tracing.py) for S/2 seconds, and
reports the per-layer metrics; its spans go to .perfbench_out/.

stdout carries an environment record and a readable report; its last
line is one JSON object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread, in this process and the set-up probes it starts: the
# benchmark is a single-threaded closed loop that does no BLAS work, and
# starting OpenBLAS's idle worker thread made `import numpy` take either
# 0.09 s or 0.16 s for minutes at a time, by the load on the other CPU.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"  # per-process scratch, removed on exit
TRACE_DIR = ROOT / ".perfbench_out"  # span files of traced runs
# Set-up is timed in fresh processes, half before the timed phase and half
# after it, so the median samples the machine at both ends of the run.
SETUP_PROBES = 8


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def import_workloads():
    """Import the workloads module, and through it qredshift from this checkout's src/ only."""
    package = SRC / "qredshift"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no qredshift package at {package}; run from a qredshift checkout")
    sys.path.insert(0, str(SRC))
    import qredshift
    import workloads

    if Path(qredshift.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported qredshift from {qredshift.__file__}, not {package}")
    return workloads


# --- environment record (read-only) ----------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return ""


def _steal_ticks() -> int | None:
    fields = _read("/proc/stat").split("\n", 1)[0].split()
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else None


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def environment_start() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "loadavg_start": _read("/proc/loadavg").strip(),
        "steal_ticks_start": _steal_ticks(),
    }


def environment_end(env: dict) -> dict:
    import numpy

    start = env.pop("steal_ticks_start")
    end = _steal_ticks()
    env["numpy"] = numpy.__version__
    env["loadavg_end"] = _read("/proc/loadavg").strip()
    env["steal_ticks_delta"] = None if start is None or end is None else end - start
    return env


# --- set-up, timed phase, checks ---------------------------------------------


def setup_probe(args: argparse.Namespace) -> None:
    """Print the seconds from before `import qredshift` to the first op being ready, and its rescale factor.

    The factor comes from the python calibration kernel, run three times
    in this fresh process just before the set-up; the fastest run counts,
    because the first also pays for growing the new process's heap.
    """
    import calibrate

    scale = calibrate.timer("python")
    factor = max(scale() for _ in range(3))
    workdir = WORK_DIR / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        start = time.perf_counter()
        workloads = import_workloads()
        workloads.make(args.workload, args.seed, args.size, workdir)
        print(repr(time.perf_counter() - start), repr(factor))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(args: argparse.Namespace, count: int) -> list[tuple[float, float]]:
    """(set-up seconds, rescale factor) of `count` fresh processes, run one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size]
    probes = []
    for _ in range(count):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        seconds, factor = done.stdout.strip().splitlines()[-1].split()
        probes.append((float(seconds), float(factor)))
    return probes


class OpError:
    """An op that raised; every checked call of it counts as failed."""

    def __init__(self) -> None:
        self.traceback = traceback.format_exc()


def run_op(op, index: int):
    try:
        return op(index)
    except Exception:  # a failing op is counted, and the closed loop goes on
        return OpError()


def timed_ops(op, first: int, seconds: float, scale) -> tuple[dict, dict, dict]:
    """Run op(first), op(first + 1), ... until `seconds` have passed.

    Before each op, `scale()` times the calibration kernel once.  Returns
    (records, op wall seconds, op rescale factors), each keyed by op index.
    """
    records, durations, scales = {}, {}, {}
    index = first
    start = time.perf_counter()
    while True:
        scales[index] = scale()
        t0 = time.perf_counter()
        records[index] = run_op(op, index)
        t1 = time.perf_counter()
        durations[index] = t1 - t0
        index += 1
        if t1 - start >= seconds:
            return records, durations, scales


def rescaled_median(durations: dict, scales: dict) -> float:
    """Median op time, each op's wall time rescaled by the calibration factor taken before it."""
    return statistics.median(durations[i] * scales[i] for i in durations)


def tail_percentile(samples: list[float]) -> str:
    """The highest of p99, p95, p90, p75 with at least ten samples above it, as report text."""
    if len(samples) < 11:
        return ""
    cuts = statistics.quantiles(samples, n=100)
    for pct in (99, 95, 90, 75):
        beyond = sum(1 for x in samples if x > cuts[pct - 1])
        if beyond >= 10:
            return f"; p{pct} {cuts[pct - 1]:.6g} s ({beyond} ops above it)"
    return ""


def check_all(workload, records: dict, replay) -> list[str]:
    """One status per checked call; op 0's calls also fail where its replay differs."""
    statuses = []
    for index, record in records.items():
        if isinstance(record, OpError):
            found = [f"fail: op {index} raised\n{record.traceback}"] * workload.checks_per_op
            statuses.extend(found)
            continue
        try:
            found = workload.check(index, record)
        except Exception:  # a check that cannot read the output fails that op's calls
            found = [f"fail: check of op {index} raised\n{traceback.format_exc()}"] * workload.checks_per_op
        if index == 0:
            again = replay if isinstance(replay, list) else [None] * len(record)
            found = [status if mine == theirs else "fail: replay of op 0 differs"
                     for status, mine, theirs in zip(found, record, again)]
        statuses.extend(found)
    return statuses


def traced_phase(workload, first: int, seconds: float, scale, tracing) -> tuple[dict, dict, dict, object, list[str]]:
    """timed_ops with timing wrappers installed: (records, op seconds, rescale factors, tracer, wrappers skipped)."""
    tracer = tracing.Tracer()

    def op(index: int):
        tracer.op = index
        try:
            return workload.op(index)
        finally:
            tracer.op = None

    restore, skipped = tracing.install(tracer)
    try:
        records, durations, scales = timed_ops(op, first, seconds, scale)
    finally:
        restore()
    for index, record in records.items():
        if not isinstance(record, OpError):
            tracer.count(index, workload.counters(record))
    return records, durations, scales, tracer, skipped


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        setup_probe(args)
        return 0

    env = environment_start()
    workloads = import_workloads()
    import calibrate
    import tracing

    workdir = WORK_DIR / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # the traced run reports no set-up time, so it takes none
        probes = 0 if args.trace else SETUP_PROBES
        setups = measure_setup(args, probes // 2)
        workload = workloads.make(args.workload, args.seed, args.size, workdir)
        scale = calibrate.timer(workload.calibration)
        records = {0: run_op(workload.op, 0)}
        if args.trace:
            more, untraced, untraced_scales = timed_ops(workload.op, 1, args.seconds / 2.0, scale)
            records.update(more)
            traced_records, durations, scales, tracer, skipped = traced_phase(
                workload, 1 + len(more), args.seconds / 2.0, scale, tracing)
            records.update(traced_records)
        else:
            more, durations, scales = timed_ops(workload.op, 1, args.seconds, scale)
            records.update(more)
        replay = run_op(workload.op, 0)
        statuses = check_all(workload, records, replay)
        setups += measure_setup(args, probes - probes // 2)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(statuses)
    failed = sum(status != workloads.PASS for status in statuses)
    known = sum(status == workloads.KNOWN_DEFECT for status in statuses)
    failures = [s for s in statuses if s.startswith("fail")]
    op_s_p50 = statistics.median(durations.values())

    print("env:", json.dumps(environment_end(env), sort_keys=True))
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  trace {args.trace}  "
          f"seconds {args.seconds:g}")
    print(f"ops: {len(durations)} timed, 1 warm-up, 1 replay of op 0; "
          f"{attempted} checked calls, {failed} failed ({known} known-defect)")
    if known:
        print(f"  known defect: `sweep --target protocol` ignores the scenario's run.time_s "
              f"(ROADMAP open item 4): {known} of {attempted} checked calls")
    if failures:
        print("  first failure:", failures[0], file=sys.stderr)

    if args.trace:
        profiles = tracing.profiles(tracer, durations)
        names = [m["name"] for m in spec["per_layer"]]
        values = tracing.median_layer_values([n for n in names if n != "trace.overhead_s"], profiles)
        values["trace.overhead_s"] = rescaled_median(durations, scales) - rescaled_median(untraced, untraced_scales)
        print(f"  trace: {len(tracer.spans)} spans; skipped wrappers {skipped or 'none'}; "
              f"spans no metric reports {sorted(tracing.uncovered_spans(names, profiles)) or 'none'}; "
              f"max per-op |sum self + unattributed - op time| "
              f"{max(tracing.closure_error(p) for p in profiles.values()):.3g} s")
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
        declared = spec["per_layer"]
    else:
        ops = len(durations)
        busy = sum(durations.values())
        rescaled = sum(durations[i] * scales[i] for i in durations)
        values = {
            "op_s_p50_norm": rescaled_median(durations, scales),
            "ops_per_s_norm": ops / rescaled,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(seconds * factor for seconds, factor in setups),
        }
        declared = spec["end_to_end"]
        print(f"  {'op_s_p50':<15} {op_s_p50:.6g} s    median wall time of {ops} timed ops"
              f"{tail_percentile(list(durations.values()))}")
        print(f"  {'ops_per_s':<15} {ops / busy:.6g} 1/s  {ops} ops / {busy:.3f} s of op wall time")
        print(f"  {'op_s_p50_norm':<15} {values['op_s_p50_norm']:.6g} s    median of {ops} op times rescaled "
              f"to the {workload.calibration} calibration kernel (median rescale factor "
              f"{statistics.median(scales.values()):.4g})")
        print(f"  {'ops_per_s_norm':<15} {values['ops_per_s_norm']:.6g} 1/s  {ops} ops / "
              f"{rescaled:.3f} rescaled s")
        print(f"  {'peak_rss_mb':<15} {values['peak_rss_mb']:.6g} MB   ru_maxrss of this process")
        print(f"  {'setup_s':<15} {values['setup_s']:.6g} s    median of {len(setups)} fresh-process set-ups "
              f"rescaled to the python calibration kernel; raw {[round(s, 4) for s, _ in setups]}")
        print(f"  {'error_rate':<15} {failed / attempted:.6g} 1    {failed} failed of {attempted} checked calls")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
