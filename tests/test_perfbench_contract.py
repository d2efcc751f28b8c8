"""The benchmark's traced path still runs against the package.

`perfbench/tracing.py` wraps package functions by module attribute and
reads counters off their results, and `perfbench/workloads.py` calls the
package's public API; neither file changes with the package.  A wrapped
name that is gone is skipped and listed, but a wrapper whose counter no
longer fits the function's result, or a workload call the package no
longer accepts, would break every traced benchmark run.  Both modules
are loaded by file path, and op 0 of every workload runs at its tiny
size under the tracer, as `perfbench/run.py --trace 1 --size tiny` runs it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Wrapped names the package no longer has; the tracer skips them.
SKIPPED = {
    "qredshift.protocol.partition_by_sign",
    "qredshift.protocol.branch_phases",
    "qredshift.protocol.final_state",
    "qredshift.protocol.sample_outcomes",
    "qredshift.protocol.shot_uniforms",
    "qredshift.branch.accumulate",
}


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module's annotations through sys.modules
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def traced_ops(tmp_path_factory):
    """(skipped wrappers, tracer, {workload: check statuses of op 0}) of one traced op 0 per workload."""
    tracing, workloads = load("tracing"), load("workloads")
    tracer = tracing.Tracer()
    statuses = {}
    restore, skipped = tracing.install(tracer)
    try:
        for name in workloads.WORKLOADS:
            workload = workloads.make(name, 7, "tiny", tmp_path_factory.mktemp(name))
            tracer.op = 0
            try:
                record = workload.op(0)
            finally:
                tracer.op = None
            statuses[name] = workload.check(0, record)
    finally:
        restore()
        sys.modules.pop("perfbench_tracing")
        sys.modules.pop("perfbench_workloads")
    return skipped, tracer, statuses


def test_every_workload_op_checks(traced_ops):
    _, _, statuses = traced_ops
    assert set(statuses) == {"branch-large", "shots-heavy", "dense", "cli-session"}
    for name, found in statuses.items():
        assert found and all(status == "pass" for status in found), f"{name}: {found}"


def test_skipped_wrappers(traced_ops):
    skipped, _, _ = traced_ops
    assert set(skipped) == SKIPPED
    assert len(skipped) == len(SKIPPED)


def test_dense_kernels_are_traced(traced_ops):
    """run_protocol reaches the dense kernels through the module attributes the tracer wraps."""
    _, tracer, _ = traced_ops
    names = {span.name for span in tracer.spans}
    assert {"protocol.build_circuit", "statevector.probability_of"} <= names
    assert {f"statevector.apply_gate.{kind}" for kind in ("h", "s", "x", "cx", "phase")} <= names
