"""In-memory span tracer for the benchmark's traced run.

Timing wrappers are installed from outside the program, at the module
attribute each caller looks up at call time: `run_protocol` looks up
`qredshift.protocol.dephasing_angles`, `sample_outcomes` looks up
`qredshift.protocol.shot_uniforms`, `final_state` looks up
`qredshift.statevector.apply_gate`, and so on.  The program is unchanged.
A wrapped name that no longer exists is skipped and listed.

A span records (name, start, end, parent, op).  Self time is a span's
duration minus the time its child spans cover; the op time outside every
span is "unattributed", so per op the self times plus the unattributed
time add up to the op time.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

SENSING_FUNCTIONS = (
    "closed_form_phase",
    "gravimeter_phase",
    "gravimeter_sensitivity",
    "min_detectable_strain",
    "required_qubits",
    "strain_phase",
)


def _gate(args: tuple, kwargs: dict) -> Any:
    return args[1] if len(args) > 1 else kwargs["gate"]


def _gate_span(args: tuple, kwargs: dict) -> str:
    return f"statevector.apply_gate.{_gate(args, kwargs).kind}"


def _cx_targets(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    gate = _gate(args, kwargs)
    return {"statevector.cx_targets": len(gate.targets)} if gate.kind == "cx" else {}


# (module, attribute, span name or function of the call's arguments,
#  counters taken from the call's arguments and result)
WRAPS: list[tuple[str, str, str | Callable, Callable | None]] = [
    ("qredshift.protocol", "dephasing_angles", "gravity.dephasing_angles",
     lambda a, k, r: {"gravity.sites": len(r)}),
    ("qredshift.protocol", "partition_by_sign", "protocol.partition_by_sign", None),
    ("qredshift.protocol", "branch_phases", "protocol.branch_phases", None),
    ("qredshift.protocol", "expected_delta_phi", "protocol.expected_delta_phi", None),
    ("qredshift.protocol", "build_circuit", "protocol.build_circuit", None),
    ("qredshift.protocol", "final_state", "protocol.final_state",
     lambda a, k, r: {"statevector.state_mb_computed": r.amplitudes.nbytes / 1e6}),
    ("qredshift.protocol", "sample_outcomes", "protocol.sample_outcomes",
     lambda a, k, r: {"protocol.shots": r.size}),
    ("qredshift.protocol", "shot_uniforms", "rng.shot_uniforms",
     lambda a, k, r: {"rng.uniforms": r.size, "rng.uniforms_mb_computed": r.nbytes / 1e6}),
    ("qredshift.protocol", "run_protocol", "protocol.run_protocol", None),
    ("qredshift.cli", "run_protocol", "protocol.run_protocol", None),
    ("qredshift.branch", "accumulate", "branch.accumulate", None),
    ("qredshift.branch", "ancilla_probabilities", "branch.ancilla_probabilities", None),
    ("qredshift.statevector", "apply_gate", _gate_span, _cx_targets),
    ("qredshift.statevector", "probability_of", "statevector.probability_of", None),
    ("qredshift.cli", "load_scenario", "scenario.load_scenario", None),
    *(("qredshift.cli", fn, f"sensing.{fn}", None) for fn in SENSING_FUNCTIONS),
    ("qredshift.cli", "main", "cli.main", None),
]


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span; None for a span directly under the op
    op: int


class Tracer:
    """Spans and counters of the ops run while `op` is set; nothing is recorded otherwise."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op: int | None = None
        self._open: list[int] = []

    def count(self, op: int, values: dict[str, float]) -> None:
        for key, value in values.items():
            self.counters[op][key] += value

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, counters: Callable | None) -> Any:
        if self.op is None:
            return fn(*args, **kwargs)
        index = len(self.spans)
        self.spans.append(None)  # reserved so children can name this span as parent
        parent = self._open[-1] if self._open else None
        self._open.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self.op)
        if counters is not None:
            self.count(self.op, counters(args, kwargs, result))
        return result

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as stream:
            for span in self.spans:
                stream.write(json.dumps(asdict(span)) + "\n")


def install(tracer: Tracer, wraps=WRAPS) -> tuple[Callable[[], None], list[str]]:
    """Wrap every listed name; return (a function that restores them, the names skipped)."""
    originals: list[tuple[object, str, Callable]] = []
    skipped: list[str] = []
    for module_name, attr, span, counters in wraps:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            skipped.append(f"{module_name}.{attr}")
            continue

        def wrapper(*args, _fn=fn, _span=span, _counters=counters, **kwargs):
            name = _span if isinstance(_span, str) else _span(args, kwargs)
            return tracer.call(name, _fn, args, kwargs, _counters)

        originals.append((module, attr, fn))
        setattr(module, attr, functools.wraps(fn)(wrapper))

    def restore() -> None:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)

    return restore, skipped


@dataclass
class OpProfile:
    """One op's trace: self time and calls per span name, counters, unattributed time."""

    self_s: dict[str, float]
    calls: dict[str, int]
    counters: dict[str, float]
    unattributed_s: float
    op_s: float


def profiles(tracer: Tracer, op_times: dict[int, float]) -> dict[int, OpProfile]:
    """Per-op profiles of the traced ops whose wall times are `op_times`."""
    result = {
        op: OpProfile(defaultdict(float), defaultdict(int), dict(tracer.counters.get(op, {})), t, t)
        for op, t in op_times.items()
    }
    for span in tracer.spans:
        duration = span.end - span.start
        profile = result[span.op]
        profile.self_s[span.name] += duration
        profile.calls[span.name] += 1
        if span.parent is None:
            profile.unattributed_s -= duration
        else:
            profile.self_s[tracer.spans[span.parent].name] -= duration
    return result


def _layer_sum(table: dict[str, float], layer: str) -> float:
    return sum(v for name, v in table.items() if name == layer or name.startswith(layer + "."))


def layer_value(metric: str, profile: OpProfile) -> float:
    """One op's value of a per-layer metric named as in BENCHMARK.json.

    `<span>.self_s` and `<span>.calls` sum every span named `<span>` or
    `<span>.*` (so `sensing.self_s` covers all sensing functions);
    `trace.op_s` is the traced op's wall time; any other name is a
    counter, 0 when the op never reached it.
    """
    if metric == "trace.op_s":
        return profile.op_s
    if metric == "trace.unattributed_s":
        return profile.unattributed_s
    if metric.endswith(".self_s"):
        return _layer_sum(profile.self_s, metric[: -len(".self_s")])
    if metric.endswith(".calls"):
        return _layer_sum(profile.calls, metric[: -len(".calls")])
    return profile.counters.get(metric, 0.0)


def median_layer_values(metrics: list[str], ops: dict[int, OpProfile]) -> dict[str, float]:
    return {m: statistics.median(layer_value(m, p) for p in ops.values()) for m in metrics}


def closure_error(profile: OpProfile) -> float:
    """|sum of self times + unattributed - op time| for one op; rounding only."""
    return abs(sum(profile.self_s.values()) + profile.unattributed_s - profile.op_s)


def uncovered_spans(metrics: list[str], ops: dict[int, OpProfile]) -> set[str]:
    """Span names whose self time no `.self_s` metric reports."""
    layers = [m[: -len(".self_s")] for m in metrics if m.endswith(".self_s")]
    names = {name for p in ops.values() for name in p.self_s}
    return {n for n in names if not any(n == layer or n.startswith(layer + ".") for layer in layers)}
