#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes; not part of the tier-1 suite.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json for one second with --size tiny,
untraced and traced, and checks the result line: metric names and units
as declared, a correct run, and an error rate that is 0, or on
cli-session the documented known-defect share 1/7.  Then checks that a
wrapped name which no longer exists is skipped by the tracer, and that
the benchmark fails without printing a result in a directory that holds
only BENCHMARK.json and perfbench/.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# cli-session: one of its seven checked calls per op hits the known sweep defect
KNOWN_DEFECT_SHARE = {"cli-session": Fraction(1, 7)}


def expect(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"smoke: FAIL: {message}")


def run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=180,
    )
    expect(done.returncode == 0, f"{workload} trace {trace} exited {done.returncode}: {done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_result(workload: str, trace: int, result: dict) -> None:
    where = f"{workload} trace {trace}"
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {sorted(result)}")
    expect(result["correct"] is True, f"{where}: not correct")
    declared = SPEC["per_layer" if trace else "end_to_end"]
    expect([m for m in result["metrics"]] == [m["name"] for m in declared], f"{where}: metric names")
    for m in declared:
        got = result["metrics"][m["name"]]
        expect(got["unit"] == m["unit"], f"{where}: unit of {m['name']}")
        expect(isinstance(got["value"], (int, float)), f"{where}: value of {m['name']}")
        if not trace:
            expect(got["value"] > 0, f"{where}: {m['name']} is {got['value']}")
    share = Fraction(result["failed"], result["attempted"])
    expect(share in (0, KNOWN_DEFECT_SHARE.get(workload, 0)), f"{where}: error rate {share}")


def check_missing_wrap_is_skipped() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracing

    wraps = [("qredshift.protocol", "no_such_function", "protocol.no_such_function", None)]
    restore, skipped = tracing.install(tracing.Tracer(), wraps)
    restore()
    expect(skipped == ["qredshift.protocol.no_such_function"], f"skipped wrappers {skipped}")


def check_bare_directory_fails() -> None:
    bare = ROOT / ".perfbench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "dense", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0 and '"metrics"' not in done.stdout,
           f"bare directory: exit {done.returncode}, stdout {done.stdout!r}")


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_result(workload, trace, run(workload, trace))
            print(f"smoke: {workload} trace {trace} ok")
    check_missing_wrap_is_skipped()
    check_bare_directory_fails()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
