"""Public names: every `__all__` entry resolves, has one home, and every package re-export is listed.

A stale `__all__` entry breaks `from qredshift.<module> import *`; a name
that `qredshift/__init__.py` re-exports without its module listing it is
public by accident; a class or function that a module lists but imports
from another module gives that name two public homes.
"""

import ast
import importlib
import inspect
import math
import pkgutil
import re
import warnings
from dataclasses import dataclass
from numbers import Real
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

import qredshift
import qredshift.rng

MODULES = sorted(info.name for info in pkgutil.iter_modules(qredshift.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"qredshift.{name}")
    assert hasattr(module, "__all__"), f"qredshift.{name} has no __all__"
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == [], f"qredshift.{name}.__all__ lists missing names {missing}"
    namespace: dict = {}
    exec(f"from qredshift.{name} import *", namespace)


@pytest.mark.parametrize("name", MODULES)
def test_listed_classes_and_functions_are_defined_in_their_module(name):
    module = importlib.import_module(f"qredshift.{name}")
    values = {attr: getattr(module, attr) for attr in module.__all__}
    foreign = [attr for attr, value in values.items()
               if (inspect.isclass(value) or inspect.isfunction(value)) and value.__module__ != module.__name__]
    assert foreign == [], f"qredshift.{name}.__all__ lists names defined elsewhere: {foreign}"


def test_reexports_are_listed_in_their_module():
    tree = ast.parse(Path(qredshift.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert len(imports) >= 5
    unlisted = []
    for node in imports:
        source = importlib.import_module(f"qredshift.{node.module}")
        unlisted += [f"{node.module}.{a.name}" for a in node.names if a.name not in source.__all__]
    assert unlisted == []


# --- argument contract ---------------------------------------------------------------------------------------------
#
# Every parameter of every public function (the functions the package re-exports, and rng's) has one row below:
# its kind, the values the function takes.  A checked kind rejects every value outside it with TypeError,
# ValueError, ArithmeticError or ResourceCapError naming the parameter; a value inside it gives a result or,
# at a cap or the end of the float range, one of those errors, but never a TypeError.  `any real` and `array`
# parameters run no check, by design: their functions apply plain float arithmetic, so a non-real raises
# Python's own error, and a NaN result must be documented.  A bool is the real 0 or 1, as in Python, but
# never a count.


@dataclass(frozen=True)
class Kind:
    name: str
    domain: Callable[[object], bool]
    checked: bool = True


def _integer(value: object) -> bool:
    return type(value) is not bool and isinstance(value, (int, np.integer))


def integer(minimum: int, bits: int | None = None) -> Kind:
    """An integer >= `minimum`, and below 2^bits when `bits` is given."""
    maximum = math.inf if bits is None else 2**bits - 1
    return Kind(f"integer in [{minimum}, {maximum}]", lambda v: _integer(v) and minimum <= v <= maximum)


POSITIVE = Kind("finite real > 0", lambda v: isinstance(v, Real) and 0 < v < math.inf)
TIME = Kind("finite time >= 0", lambda v: isinstance(v, Real) and 0 <= v < math.inf)
REAL_N = Kind("real >= 1", lambda v: isinstance(v, Real) and v >= 1)
STRAIN = Kind("real in (-1, 1)", lambda v: isinstance(v, Real) and abs(v) < 1)
CHOICE = Kind("one of fixed strings", lambda v: False)  # no odd value below is one of them
REAL = Kind("any real", lambda v: isinstance(v, Real), checked=False)
ARRAY = Kind("array", lambda v: isinstance(v, Real), checked=False)  # fed as a one-element float array
OBJECT = None  # a scenario, perturbation, constants, state, gate or density matrix: not fed numbers

ODD = (0, -1, 2**70, 2**258, 1.5, math.inf, -math.inf, math.nan, True, np.int64(3), np.float64(2.0), None)
OMEGA = 2 * math.pi * 1e10
SCENARIO = qredshift.GravScenario(qredshift.line_chip(4, 1e-3, OMEGA), qredshift.VerticalRotation(0.1))
THETA = np.array([0.1, -0.2])

# function -> {parameter: (kind, base value)}; every other parameter keeps its base value while one is fed
CONTRACT = {
    # NaN: documented as (NaN, NaN), not rejected, since run_protocol rejects a non-finite dphi before the readout
    "ancilla_probabilities": {"delta_phi": (REAL, 0.1)},
    "standard_pea_probabilities": {"delta_phi": (REAL, 0.1)},
    "estimate": {"count_one": (integer(0), 1), "shots": (integer(1), 2)},
    "dephasing_angles": {"scenario": (OBJECT, SCENARIO), "t": (TIME, 1e-3)},
    "uniform_delta_phi": {"scenario": (OBJECT, SCENARIO), "t": (TIME, 1e-3)},
    "line_chip": {"n": (integer(1), 4), "spacing": (POSITIVE, 1e-3), "frequency": (POSITIVE, OMEGA),
                  "orientation": (REAL, 0.0)},  # carried, read by no computation
    "grid_chip": {"n": (integer(1), 4), "spacing": (POSITIVE, 1e-3), "frequency": (POSITIVE, OMEGA),
                  "orientation": (REAL, 0.0)},
    "potential_change": {"perturbation": (OBJECT, qredshift.VerticalRotation(0.1)), "coordinates": (REAL, 0.5),
                         "constants": (OBJECT, qredshift.DEFAULT_CONSTANTS)},
    "universal_rate": {"engineering_factor": (POSITIVE, 1.0), "constants": (OBJECT, qredshift.DEFAULT_CONSTANTS)},
    "build_circuit": {"theta": (ARRAY, THETA)},
    "expected_delta_phi": {"theta": (ARRAY, THETA)},
    "run_protocol": {"scenario": (OBJECT, SCENARIO), "t": (TIME, 1e-3), "shots": (integer(1), 10),
                     "seed": (integer(0, 128), 1), "backend": (CHOICE, "branch")},
    "gravimeter_phase": {"n": (integer(1), 10), "mean_frequency": (POSITIVE, OMEGA), "delta_g": (REAL, 1e-3),
                         "t": (TIME, 1e-3), "constants": (OBJECT, qredshift.DEFAULT_CONSTANTS)},
    "gravimeter_sensitivity": {"n": (integer(1), 10), "mean_frequency": (POSITIVE, OMEGA),
                               "coherence_time": (POSITIVE, 1e-3), "phase_resolution": (POSITIVE, 0.1),
                               "constants": (OBJECT, qredshift.DEFAULT_CONSTANTS)},
    # criteria 5 and 6 evaluate the closed form at non-integer n
    "closed_form_phase": {"n": (REAL_N, 10), "mean_frequency": (POSITIVE, OMEGA), "spacing": (POSITIVE, 1e-3),
                          "t": (TIME, 1e-3), "geometry": (CHOICE, "1d"),
                          "constants": (OBJECT, qredshift.DEFAULT_CONSTANTS)},
    "required_qubits": {"mean_frequency": (POSITIVE, OMEGA), "spacing": (POSITIVE, 1e-3),
                        "coherence_time": (POSITIVE, 1e-3), "phase_resolution": (POSITIVE, 0.1),
                        "geometry": (CHOICE, "1d"), "constants": (OBJECT, qredshift.DEFAULT_CONSTANTS)},
    "strain_phase": {"n": (integer(1), 10), "mean_frequency": (POSITIVE, OMEGA), "spacing": (POSITIVE, 1e-3),
                     "strain": (STRAIN, 1e-6), "t": (TIME, 1e-3), "constants": (OBJECT, qredshift.DEFAULT_CONSTANTS)},
    "min_detectable_strain": {"n": (integer(1), 10), "mean_frequency": (POSITIVE, OMEGA),
                              "spacing": (POSITIVE, 1e-3), "coherence_time": (POSITIVE, 1e-3),
                              "phase_resolution": (POSITIVE, 0.1), "constants": (OBJECT, qredshift.DEFAULT_CONSTANTS)},
    "init_zero": {"qubit_count": (integer(1), 2)},
    "apply_gate": {"state": (OBJECT, qredshift.init_zero(2)), "gate": (OBJECT, qredshift.Gate("h", (0,)))},
    "probability_of": {"state": (OBJECT, qredshift.init_zero(2)), "site": (integer(0), 0), "bit": (integer(0, 1), 1)},
    "apply_channel": {"rho": (OBJECT, np.eye(2, dtype=complex) / 2), "angles": (ARRAY, [0.1])},
    # a zero threshold counts no shot, so a huge count costs nothing
    "count_below": {"seed": (integer(0, 128), 1), "count": (integer(0), 3), "threshold": (REAL, 0.0)},
    # a Philox stream ends at word 2^258
    "shot_uniforms": {"seed": (integer(0, 128), 1), "count": (integer(0), 3), "start": (integer(0, 258), 0)},
    "substream_seed": {"seed": (integer(0, 128), 1), "index": (integer(0, 64), 2)},
}
# the word an error uses for a parameter, where that is not the parameter's name
NAMED_AS = {("line_chip", "n"): "qubit_count", ("grid_chip", "n"): "qubit_count",
            ("line_chip", "frequency"): "frequencies", ("grid_chip", "frequency"): "frequencies"}
# documented errors beyond the four types, by (function, parameter)
ALSO_RAISES = {("probability_of", "site"): (IndexError,)}
ERRORS = (TypeError, ValueError, ArithmeticError, qredshift.ResourceCapError)


def public_functions() -> dict[str, Callable]:
    functions = {name: value for name, value in vars(qredshift).items()
                 if not name.startswith("_") and inspect.isfunction(value)}
    return {**functions, **{name: getattr(qredshift.rng, name) for name in qredshift.rng.__all__}}


def test_every_public_parameter_has_a_contract_row():
    parameters = {name: list(inspect.signature(function).parameters) for name, function in public_functions().items()}
    assert {name: list(rows) for name, rows in CONTRACT.items()} == parameters


def _has_nan(result: object) -> bool:
    """Whether a number, or a tuple, dict or array of numbers, holds a NaN; other records are not read."""
    if isinstance(result, dict):
        result = tuple(result.values())
    if isinstance(result, tuple):
        return any(_has_nan(item) for item in result)
    return isinstance(result, (float, np.ndarray)) and bool(np.isnan(result).any())


def _outcome(function: Callable, arguments: dict, allowed: tuple) -> object:
    try:
        with warnings.catch_warnings():  # the estimator-range warning of a run at a huge time
            warnings.simplefilter("ignore")
            return function(**arguments)
    except allowed as exc:
        return exc


@pytest.mark.parametrize("function_name, parameter", [
    (name, parameter) for name, rows in CONTRACT.items() for parameter, (kind, _) in rows.items() if kind
], ids=lambda value: value)
def test_argument_contract(function_name, parameter):
    function = public_functions()[function_name]
    kind = CONTRACT[function_name][parameter][0]
    allowed = ERRORS + ALSO_RAISES.get((function_name, parameter), ())
    word = re.compile(rf"\b{re.escape(NAMED_AS.get((function_name, parameter), parameter))}\b")
    failures = []
    for value in ODD:
        arguments = {name: base for name, (_, base) in CONTRACT[function_name].items()}
        arguments[parameter] = np.array([value], dtype=float if value is not None else object) \
            if kind is ARRAY else value
        outcome = _outcome(function, arguments, allowed)
        if kind.domain(value):
            if isinstance(outcome, TypeError):
                failures.append(f"{value!r} is {kind.name} but raised {outcome!r}")
        elif kind.checked and not (isinstance(outcome, Exception) and word.search(str(outcome))):
            failures.append(f"{value!r} is not {kind.name}, but gave {outcome!r}")
        if _has_nan(outcome) and "NaN" not in (inspect.getdoc(function) or ""):
            failures.append(f"{value!r} gave the undocumented NaN result {outcome!r}")
    assert failures == [], f"{function_name}({parameter}=...) breaks its {kind.name} contract"
