"""Scenario document schema: strict validation, unit conversion."""

import json
import math
import re
from dataclasses import asdict

import numpy as np
import pytest

from qredshift.gravity import (
    ProximalMass,
    UniformDeltaG,
    UniformStrain,
    VerticalRotation,
    VerticalTranslation,
)
from qredshift.scenario import ScenarioError, load_constants, load_scenario, parse_scenario


def base_doc() -> dict:
    return {
        "version": 1,
        "geometry": {"layout": "line", "n": 4, "spacing_m": 1e-3, "orientation_deg": 0.0},
        "qubits": {"frequency_ghz": 10.0},
        "perturbation": {"kind": "rotation", "angle_deg": 90.0},
        "run": {"time_s": 1e-3, "shots": 1000, "seed": 7, "backend": "branch"},
    }


class TestParsing:
    def test_round_numbers(self):
        doc = parse_scenario(base_doc())
        geom = doc.scenario.geometry
        assert geom.qubit_count == 4
        assert geom.layout == "line"
        np.testing.assert_allclose(geom.frequencies, 2 * math.pi * 10e9)
        assert isinstance(doc.scenario.perturbation, VerticalRotation)
        assert doc.scenario.perturbation.angle == pytest.approx(math.pi / 2)
        assert doc.run.shots == 1000

    def test_per_site_frequencies(self):
        raw = base_doc()
        raw["qubits"]["frequency_ghz"] = [10.0, 11.0, 12.0, 13.0]
        doc = parse_scenario(raw)
        np.testing.assert_allclose(
            doc.scenario.geometry.frequencies,
            [2 * math.pi * f * 1e9 for f in (10.0, 11.0, 12.0, 13.0)],
        )

    def test_frequency_list_length_checked(self):
        raw = base_doc()
        raw["qubits"]["frequency_ghz"] = [10.0, 11.0]
        with pytest.raises(ScenarioError, match="frequency_ghz"):
            parse_scenario(raw)

    @pytest.mark.parametrize(
        "payload, expected, values",
        [
            ({"kind": "rotation", "angle_deg": 30.0}, VerticalRotation, {"angle": math.pi / 6}),
            ({"kind": "delta_g", "delta_g": 1e-6}, UniformDeltaG, {"delta_g": 1e-6}),
            ({"kind": "mass", "mass_kg": 1e3, "distance_m": 0.1}, ProximalMass, {"mass": 1e3, "distance": 0.1}),
            ({"kind": "translation", "delta_x_m": -0.01}, VerticalTranslation, {"delta_x": -0.01}),
            ({"kind": "strain", "strain": 0.1, "angle_deg": 30.0}, UniformStrain, {"strain": 0.1, "angle": math.pi / 6}),
            # angle_deg left out: UniformStrain's default, 90 degrees
            ({"kind": "strain", "strain": 0.1}, UniformStrain, {"strain": 0.1, "angle": math.pi / 2}),
        ],
    )
    def test_perturbation_kinds(self, payload, expected, values):
        raw = base_doc()
        raw["perturbation"] = payload
        pert = parse_scenario(raw).scenario.perturbation
        assert type(pert) is expected
        assert asdict(pert) == pytest.approx(values, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"kind": "rotation"}, "angle_deg"),
            ({"kind": "delta_g"}, "delta_g"),
            ({"kind": "mass", "distance_m": 0.1}, "mass_kg"),
            ({"kind": "mass", "mass_kg": 1e3}, "distance_m"),
            ({"kind": "translation"}, "delta_x_m"),
            ({"kind": "strain", "angle_deg": 30.0}, "strain"),
        ],
    )
    def test_perturbation_key_without_default_required(self, payload, key):
        raw = base_doc()
        raw["perturbation"] = payload
        with pytest.raises(ScenarioError, match=f"^scenario: missing key '{key}' in perturbation$"):
            parse_scenario(raw)

    def test_constants_overrides(self):
        raw = base_doc()
        raw["constants"] = {"g0": 9.8}
        doc = parse_scenario(raw)
        assert doc.scenario.constants.g0 == 9.8
        assert doc.scenario.constants.c == 299792458.0

    def test_grid_layout(self):
        raw = base_doc()
        raw["geometry"]["layout"] = "grid"
        raw["geometry"]["n"] = 4
        assert parse_scenario(raw).scenario.geometry.layout == "grid"


class TestStrictness:
    def test_unknown_top_level_key(self):
        raw = base_doc()
        raw["extra"] = 1
        with pytest.raises(ScenarioError, match="'extra'"):
            parse_scenario(raw)

    @pytest.mark.parametrize("section", ["geometry", "qubits", "perturbation", "run"])
    def test_unknown_nested_key(self, section):
        raw = base_doc()
        raw[section]["bogus"] = 1
        with pytest.raises(ScenarioError, match="'bogus'"):
            parse_scenario(raw)

    def test_missing_section_named(self):
        raw = base_doc()
        del raw["run"]
        with pytest.raises(ScenarioError, match="'run'"):
            parse_scenario(raw)

    def test_version_gate(self):
        raw = base_doc()
        raw["version"] = 2
        with pytest.raises(ScenarioError, match="version"):
            parse_scenario(raw)

    def test_wrong_types_rejected(self):
        raw = base_doc()
        raw["geometry"]["n"] = 4.5
        with pytest.raises(ScenarioError, match="geometry.n"):
            parse_scenario(raw)

    def test_bool_is_not_a_number(self):
        raw = base_doc()
        raw["run"]["time_s"] = True
        with pytest.raises(ScenarioError, match="time_s"):
            parse_scenario(raw)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("geometry", "orientation_deg", math.nan),
            ("perturbation", "angle_deg", math.inf),
            ("run", "time_s", -math.inf),
            ("geometry", "spacing_m", 10**400),
        ],
    )
    def test_non_finite_number_rejected(self, section, key, value):
        raw = base_doc()
        raw[section][key] = value
        with pytest.raises(ScenarioError, match=f"{section}.{key}"):
            parse_scenario(raw)

    def test_constant_beyond_float_range_rejected(self):
        raw = base_doc()
        raw["constants"] = {"G": 10**400}
        with pytest.raises(ScenarioError, match="'G' must be a finite number"):
            parse_scenario(raw)

    def test_bad_backend(self):
        raw = base_doc()
        raw["run"]["backend"] = "gpu"
        with pytest.raises(ScenarioError, match="backend"):
            parse_scenario(raw)

    def test_nonpositive_shots(self):
        raw = base_doc()
        raw["run"]["shots"] = 0
        with pytest.raises(ScenarioError, match="shots"):
            parse_scenario(raw)

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_the_key_range(self, seed):
        raw = base_doc()
        raw["run"]["seed"] = seed
        with pytest.raises(ScenarioError, match=rf"^scenario: run\.seed must be in \[0, 2\^128\), got {seed}$"):
            parse_scenario(raw)

    @pytest.mark.parametrize("section, key, value, error", [
        ("geometry", "n", 2.5, "geometry.n must be an integer, got 2.5"),
        ("geometry", "n", True, "geometry.n must be an integer, got True"),
        ("geometry", "n", 0, "geometry.n must be >= 1, got 0"),
        ("run", "shots", True, "run.shots must be an integer, got True"),
        ("run", "shots", 0, "run.shots must be >= 1, got 0"),
        ("run", "seed", 1.5, "run.seed must be an integer, got 1.5"),
        ("run", "time_s", -1, "run.time_s must be finite and >= 0, got -1.0"),
        ("run", "backend", "gpu", "run.backend must be 'branch' or 'statevector', got 'gpu'"),
        ("geometry", "spacing_m", 0, "spacing must be finite and strictly positive, got 0.0"),
    ])
    def test_library_rule_named_once(self, section, key, value, error):
        raw = base_doc()
        raw[section][key] = value
        with pytest.raises(ScenarioError, match=f"^{re.escape(f'scenario: {error}')}$"):
            parse_scenario(raw)

    def test_perturbation_rule_named(self):
        raw = base_doc()
        raw["perturbation"] = {"kind": "mass", "mass_kg": 1.0, "distance_m": 0.0}
        with pytest.raises(ScenarioError, match=r"^scenario: distance must be finite and strictly positive, got 0\.0$"):
            parse_scenario(raw)

    def test_unknown_perturbation_kind(self):
        raw = base_doc()
        raw["perturbation"] = {"kind": "tilt", "angle_deg": 3.0}
        with pytest.raises(ScenarioError, match="kind"):
            parse_scenario(raw)
        raw["perturbation"] = {"kind": []}  # unhashable: once a TypeError that escaped the loader
        with pytest.raises(ScenarioError, match=r"^scenario: perturbation\.kind must be one of .*, got \[\]$"):
            parse_scenario(raw)

    def test_foreign_parameter_for_kind(self):
        raw = base_doc()
        raw["perturbation"] = {"kind": "delta_g", "delta_g": 1e-6, "angle_deg": 1.0}
        with pytest.raises(ScenarioError, match="'angle_deg'"):
            parse_scenario(raw)

    def test_unknown_constant(self):
        raw = base_doc()
        raw["constants"] = {"hbar": 1.0}
        with pytest.raises(ScenarioError, match="'hbar'"):
            parse_scenario(raw)

    def test_grid_square_enforced(self):
        raw = base_doc()
        raw["geometry"]["layout"] = "grid"
        raw["geometry"]["n"] = 5
        with pytest.raises(ScenarioError, match="square"):
            parse_scenario(raw)


class TestLoading:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(base_doc()), encoding="utf-8")
        doc = load_scenario(path)
        assert doc.scenario.geometry.qubit_count == 4

    @pytest.mark.parametrize(
        "content",
        [b"{not json", b"[" * 2000, b"\xff{}"],
        ids=["malformed", "nested-beyond-recursion-limit", "not-utf-8"],
    )
    @pytest.mark.parametrize("load, invalid", [
        (load_scenario, "scenario: {path} is not valid JSON: "),
        (load_constants, "constants file {path}: invalid JSON: "),
    ], ids=["scenario", "constants"])
    def test_invalid_json(self, tmp_path, content, load, invalid):
        path = tmp_path / "broken.json"
        path.write_bytes(content)
        with pytest.raises(ScenarioError, match="^" + re.escape(invalid.format(path=path))):
            load(path)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            load_scenario(tmp_path / "absent.json")
