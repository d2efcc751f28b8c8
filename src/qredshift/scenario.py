"""Strict JSON scenario documents for protocol runs.

Schema (version 1), all keys validated, unknown keys rejected:

    {
      "version": 1,
      "geometry": {"layout": "line"|"grid", "n": int,
                   "spacing_m": float, "orientation_deg": float},
      "qubits": {"frequency_ghz": number | [number, ...]},
      "perturbation": {"kind": "rotation",    "angle_deg": float}
                    | {"kind": "delta_g",     "delta_g": float}
                    | {"kind": "mass",        "mass_kg": float, "distance_m": float}
                    | {"kind": "translation", "delta_x_m": float}
                    | {"kind": "strain",      "strain": float, "angle_deg": float},
      "constants": {optional overrides: c, G, g0, earth_mass, earth_radius},
      "run": {"time_s": float, "shots": int, "seed": int,
              "backend": "statevector"|"branch"}
    }

Frequencies are given in GHz and converted to angular rad/s internally;
angles in the file are degrees.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .constants import CONSTANT_NAMES, DEFAULT_CONSTANTS, PhysicalConstants
from .gravity import (
    ChipGeometry,
    GravScenario,
    ProximalMass,
    UniformDeltaG,
    UniformStrain,
    VerticalRotation,
    VerticalTranslation,
    grid_chip,
    line_chip,
)

__all__ = ["ScenarioError", "RunSettings", "ScenarioDocument", "load_scenario", "parse_constants", "parse_scenario"]

SCHEMA_VERSION = 1

_PERTURBATION_KEYS = {
    "rotation": {"angle_deg"},
    "delta_g": {"delta_g"},
    "mass": {"mass_kg", "distance_m"},
    "translation": {"delta_x_m"},
    "strain": {"strain", "angle_deg"},
}


class ScenarioError(ValueError):
    """A scenario document failed validation; the message names the field."""


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


def _reject_unknown(mapping: dict[str, Any], allowed: set[str], where: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ScenarioError(f"scenario: unknown key '{key}' in {where}")


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


def _integer(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"scenario: '{where}' must be an integer, got {value!r}")
    return value


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


def parse_scenario(doc: dict[str, Any]) -> ScenarioDocument:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario: top level must be an object")
    _reject_unknown(doc, {"version", "geometry", "qubits", "perturbation", "constants", "run"}, "scenario")
    version = _require(doc, "version", "scenario")
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"scenario: unsupported version {version!r}, expected {SCHEMA_VERSION}")

    constants = DEFAULT_CONSTANTS
    if "constants" in doc:
        constants = parse_constants(doc["constants"], "scenario")

    geo = _require(doc, "geometry", "scenario")
    if not isinstance(geo, dict):
        raise ScenarioError("scenario: 'geometry' must be an object")
    _reject_unknown(geo, {"layout", "n", "spacing_m", "orientation_deg"}, "geometry")
    layout = _require(geo, "layout", "geometry")
    if layout not in ("line", "grid"):
        raise ScenarioError(f"scenario: geometry.layout must be 'line' or 'grid', got {layout!r}")
    n = _integer(_require(geo, "n", "geometry"), "geometry.n")
    spacing = _number(_require(geo, "spacing_m", "geometry"), "geometry.spacing_m")
    orientation = math.radians(_number(geo.get("orientation_deg", 0.0), "geometry.orientation_deg"))

    qubits = _require(doc, "qubits", "scenario")
    if not isinstance(qubits, dict):
        raise ScenarioError("scenario: 'qubits' must be an object")
    _reject_unknown(qubits, {"frequency_ghz"}, "qubits")
    freq = _require(qubits, "frequency_ghz", "qubits")
    if isinstance(freq, list):
        if len(freq) != n:
            raise ScenarioError(
                f"scenario: qubits.frequency_ghz lists {len(freq)} values for {n} sites"
            )
        omega = [2.0 * math.pi * 1e9 * _number(f, "qubits.frequency_ghz[]") for f in freq]
    else:
        omega = 2.0 * math.pi * 1e9 * _number(freq, "qubits.frequency_ghz")

    try:
        builder = line_chip if layout == "line" else grid_chip
        geometry: ChipGeometry = builder(n, spacing, omega, orientation)
    except ValueError as exc:
        raise ScenarioError(f"scenario: {exc}") from exc

    pert_doc = _require(doc, "perturbation", "scenario")
    if not isinstance(pert_doc, dict):
        raise ScenarioError("scenario: 'perturbation' must be an object")
    kind = _require(pert_doc, "kind", "perturbation")
    if kind not in _PERTURBATION_KEYS:
        raise ScenarioError(
            f"scenario: perturbation.kind must be one of {sorted(_PERTURBATION_KEYS)}, got {kind!r}"
        )
    _reject_unknown(pert_doc, _PERTURBATION_KEYS[kind] | {"kind"}, f"perturbation ({kind})")
    try:
        if kind == "rotation":
            pert = VerticalRotation(
                angle=math.radians(_number(_require(pert_doc, "angle_deg", "perturbation"), "perturbation.angle_deg"))
            )
        elif kind == "delta_g":
            pert = UniformDeltaG(delta_g=_number(_require(pert_doc, "delta_g", "perturbation"), "perturbation.delta_g"))
        elif kind == "mass":
            pert = ProximalMass(
                mass=_number(_require(pert_doc, "mass_kg", "perturbation"), "perturbation.mass_kg"),
                distance=_number(_require(pert_doc, "distance_m", "perturbation"), "perturbation.distance_m"),
            )
        elif kind == "translation":
            pert = VerticalTranslation(
                delta_x=_number(_require(pert_doc, "delta_x_m", "perturbation"), "perturbation.delta_x_m")
            )
        else:
            pert = UniformStrain(
                strain=_number(_require(pert_doc, "strain", "perturbation"), "perturbation.strain"),
                angle=math.radians(_number(pert_doc.get("angle_deg", 90.0), "perturbation.angle_deg")),
            )
    except ValueError as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"scenario: {exc}") from exc

    run_doc = _require(doc, "run", "scenario")
    if not isinstance(run_doc, dict):
        raise ScenarioError("scenario: 'run' must be an object")
    _reject_unknown(run_doc, {"time_s", "shots", "seed", "backend"}, "run")
    time_s = _number(_require(run_doc, "time_s", "run"), "run.time_s")
    if time_s < 0.0:
        raise ScenarioError(f"scenario: run.time_s must be >= 0, got {time_s}")
    shots = _integer(_require(run_doc, "shots", "run"), "run.shots")
    if shots < 1:
        raise ScenarioError(f"scenario: run.shots must be >= 1, got {shots}")
    seed = _integer(_require(run_doc, "seed", "run"), "run.seed")
    backend = run_doc.get("backend", "branch")
    if backend not in ("branch", "statevector"):
        raise ScenarioError(
            f"scenario: run.backend must be 'branch' or 'statevector', got {backend!r}"
        )

    return ScenarioDocument(
        scenario=GravScenario(geometry=geometry, perturbation=pert, constants=constants),
        run=RunSettings(time_s=time_s, shots=shots, seed=seed, backend=backend),
    )


def load_scenario(path: str | Path) -> ScenarioDocument:
    """Parse and validate a scenario file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario: {path} is not valid JSON: {exc}") from exc
    return parse_scenario(doc)
