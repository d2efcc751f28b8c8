"""Strict JSON scenario documents for protocol runs.

Schema (version 1), all keys validated, unknown keys rejected; `= x` marks
an optional key and its default:

    {
      "version": 1,
      "geometry": {"layout": "line"|"grid", "n": int,
                   "spacing_m": float, "orientation_deg": float = 0},
      "qubits": {"frequency_ghz": number | [number, ...]},
      "perturbation": {"kind": "rotation",    "angle_deg": float}
                    | {"kind": "delta_g",     "delta_g": float}
                    | {"kind": "mass",        "mass_kg": float, "distance_m": float}
                    | {"kind": "translation", "delta_x_m": float}
                    | {"kind": "strain",      "strain": float, "angle_deg": float = 90},
      "constants": {overrides of any of c, G, g0, earth_radius} = {},
      "run": {"time_s": float, "shots": int, "seed": int,
              "backend": "branch"|"statevector" = "branch"}
    }

Frequencies are given in GHz and converted to angular rad/s internally;
angles in the file are degrees.  A value that a library rule rejects
raises ScenarioError("scenario: <the rule's message>"), named by its JSON
path where the loader applies the rule (geometry.n and the run settings).
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Any, Iterable

from .constants import CONSTANT_NAMES, DEFAULT_CONSTANTS, PhysicalConstants, _choice
from .gravity import (
    LAYOUTS,
    ChipGeometry,
    GravScenario,
    Perturbation,
    ProximalMass,
    UniformDeltaG,
    UniformStrain,
    VerticalRotation,
    VerticalTranslation,
    _check_time,
    _index,
)
from .protocol import BACKENDS
from .rng import _check_seed

__all__ = ["ScenarioError", "RunSettings", "ScenarioDocument",
           "load_constants", "load_scenario", "parse_constants", "parse_scenario"]

SCHEMA_VERSION = 1

# kind -> (dataclass, {JSON key: field}).  A `*_deg` key is read in degrees;
# a key is optional exactly when its field has a default.
_PERTURBATIONS = {
    "rotation": (VerticalRotation, {"angle_deg": "angle"}),
    "delta_g": (UniformDeltaG, {"delta_g": "delta_g"}),
    "mass": (ProximalMass, {"mass_kg": "mass", "distance_m": "distance"}),
    "translation": (VerticalTranslation, {"delta_x_m": "delta_x"}),
    "strain": (UniformStrain, {"strain": "strain", "angle_deg": "angle"}),
}


def _omega(freq_ghz: float) -> float:
    """A frequency in GHz as an angular frequency, rad/s; the CLI's --freq-ghz goes through it too."""
    return 2.0 * math.pi * 1e9 * freq_ghz


class ScenarioError(ValueError):
    """A scenario or constants document failed to decode or validate; the message names the file or field."""


@dataclass(frozen=True)
class RunSettings:
    time_s: float
    shots: int
    seed: int
    backend: str


@dataclass(frozen=True)
class ScenarioDocument:
    """Validated scenario: the physical setup plus default run settings."""

    scenario: GravScenario
    run: RunSettings


def _require(mapping: dict[str, Any], key: str, where: str) -> Any:
    if key not in mapping:
        raise ScenarioError(f"scenario: missing key '{key}' in {where}")
    return mapping[key]


def _reject_unknown(mapping: dict[str, Any], allowed: Iterable[str], where: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ScenarioError(f"scenario: unknown key '{key}' in {where}")


def _section(doc: dict[str, Any], name: str, allowed: Iterable[str] | None = None) -> dict[str, Any]:
    """The object under `name`; with `allowed`, a key outside it is rejected."""
    section = _require(doc, name, "scenario")
    if not isinstance(section, dict):
        raise ScenarioError(f"scenario: '{name}' must be an object")
    if allowed is not None:
        _reject_unknown(section, allowed, name)
    return section


def _number(value: Any, where: str, source: str = "scenario") -> float:
    """A finite, non-bool JSON number as a float; the error names `where`."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ScenarioError(f"{source}: '{where}' must be a finite number, got {value!r}")


def parse_constants(overrides: Any, source: str) -> PhysicalConstants:
    """Constants from a JSON object of overrides: a scenario's "constants", or --constants-file."""
    if not isinstance(overrides, dict):
        raise ScenarioError(f"{source}: constants must be a JSON object")
    values = {}
    for key, value in overrides.items():
        if key not in CONSTANT_NAMES:
            raise ScenarioError(f"{source}: unknown constant '{key}'")
        values[key] = _number(value, key, source)
    try:
        return PhysicalConstants(**values)
    except ValueError as exc:
        raise ScenarioError(f"{source}: {exc}") from exc


def _perturbation(pert_doc: dict[str, Any]) -> Perturbation:
    kind = _require(pert_doc, "kind", "perturbation")
    if not isinstance(kind, str) or kind not in _PERTURBATIONS:  # a list is unhashable
        raise ScenarioError(f"scenario: perturbation.kind must be one of {sorted(_PERTURBATIONS)}, got {kind!r}")
    cls, keys = _PERTURBATIONS[kind]
    _reject_unknown(pert_doc, {"kind", *keys}, f"perturbation ({kind})")
    optional = {f.name for f in fields(cls) if f.default is not MISSING}
    values = {}
    for key, name in keys.items():
        if key in pert_doc or name not in optional:
            value = _number(_require(pert_doc, key, "perturbation"), f"perturbation.{key}")
            values[name] = math.radians(value) if key.endswith("_deg") else value
    return cls(**values)


def parse_scenario(doc: dict[str, Any]) -> ScenarioDocument:
    """The validated document; a library rule that rejects a value raises ScenarioError("scenario: ...")."""
    try:
        return _document(doc)
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"scenario: {exc}") from exc


def _document(doc: dict[str, Any]) -> ScenarioDocument:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario: top level must be an object")
    _reject_unknown(doc, {"version", "geometry", "qubits", "perturbation", "constants", "run"}, "scenario")
    version = _require(doc, "version", "scenario")
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"scenario: unsupported version {version!r}, expected {SCHEMA_VERSION}")

    constants = DEFAULT_CONSTANTS
    if "constants" in doc:
        constants = parse_constants(doc["constants"], "scenario")

    geo = _section(doc, "geometry", {"layout", "n", "spacing_m", "orientation_deg"})
    layout = _require(geo, "layout", "geometry")
    _choice(layout, LAYOUTS, "geometry.layout")
    n = _index(_require(geo, "n", "geometry"), "geometry.n", 1)
    spacing = _number(_require(geo, "spacing_m", "geometry"), "geometry.spacing_m")
    orientation = math.radians(_number(geo.get("orientation_deg", 0.0), "geometry.orientation_deg"))

    freq = _require(_section(doc, "qubits", {"frequency_ghz"}), "frequency_ghz", "qubits")
    if isinstance(freq, list):
        if len(freq) != n:
            raise ScenarioError(f"scenario: qubits.frequency_ghz lists {len(freq)} values for {n} sites")
        omega = [_omega(_number(f, "qubits.frequency_ghz[]")) for f in freq]
    else:
        omega = _omega(_number(freq, "qubits.frequency_ghz"))
    geometry = ChipGeometry(layout, n, spacing, orientation, omega)
    pert = _perturbation(_section(doc, "perturbation"))

    run_doc = _section(doc, "run", {"time_s", "shots", "seed", "backend"})
    time_s = _number(_require(run_doc, "time_s", "run"), "run.time_s")
    _check_time(time_s, "run.time_s")
    shots = _index(_require(run_doc, "shots", "run"), "run.shots", 1)
    # a seed the CLI's --seed replaces is checked too, like shots and time_s
    seed = _check_seed(_require(run_doc, "seed", "run"), "run.seed")
    backend = _choice(run_doc.get("backend", "branch"), BACKENDS, "run.backend")

    return ScenarioDocument(
        scenario=GravScenario(geometry=geometry, perturbation=pert, constants=constants),
        run=RunSettings(time_s=time_s, shots=shots, seed=seed, backend=backend),
    )


def _read_json(path: str | Path, invalid: str) -> Any:
    """The JSON value in a file; undecodable or too deeply nested text raises `<invalid>: <reason>`."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ScenarioError(f"{invalid}: {exc}") from exc


def load_scenario(path: str | Path) -> ScenarioDocument:
    """Parse and validate a scenario file."""
    return parse_scenario(_read_json(path, f"scenario: {path} is not valid JSON"))


def load_constants(path: str | Path) -> PhysicalConstants:
    """Constants from a JSON file of overrides (the CLI's --constants-file)."""
    return parse_constants(_read_json(path, f"constants file {path}: invalid JSON"), f"constants file {path}")
