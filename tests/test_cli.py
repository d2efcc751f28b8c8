"""Command-line interface: outputs, determinism, exit codes, sweeps."""

import argparse
import io
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qredshift
from qredshift import cli
from qredshift.cli import main, read_result_csv, write_result_csv
from qredshift.protocol import run_protocol
from qredshift.rng import substream_seed
from qredshift.scenario import load_scenario
from qredshift.sensing import closed_form_phase

OMEGA_10GHZ = 2.0 * math.pi * 10e9
# file contents no JSON reader accepts: nesting beyond the recursion limit, bytes that are not UTF-8
BAD_JSON = {"nested": b"[" * 2000, "undecodable": b"\xff{}"}


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def scenario_file(tmp_path, **overrides) -> str:
    doc = {
        "version": 1,
        "geometry": {"layout": "line", "n": 8, "spacing_m": 1e-3, "orientation_deg": 0.0},
        "qubits": {"frequency_ghz": 10.0},
        "perturbation": {"kind": "rotation", "angle_deg": 90.0},
        "run": {"time_s": 1e-3, "shots": 10**5, "seed": 42, "backend": "branch"},
    }
    doc.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def single_row(text: str) -> dict:
    _, columns, rows = read_result_csv(text)
    assert len(rows) == 1
    return dict(zip(columns, rows[0]))


class TestRedshift:
    def test_vertical_example(self, capsys):
        code, out = run_cli(
            capsys, "--reproducible", "redshift", "--delta-x", "0.01", "--freq-ghz", "10"
        )
        assert code == 0
        row = single_row(out)
        assert list(row) == ["perturbation", "freq_ghz", "fractional_shift", "phase_rate_rad_s"]
        assert row["fractional_shift"] == pytest.approx(1.0911369672198218e-18, rel=1e-15)
        assert row["phase_rate_rad_s"] == pytest.approx(6.855815760556077e-08, rel=1e-15)

    def test_mass_example(self, capsys):
        code, out = run_cli(capsys, "redshift", "--mass", "1000", "--distance", "0.1")
        assert code == 0
        assert single_row(out)["fractional_shift"] == pytest.approx(-7.426160269118664e-24, rel=1e-15)

    def test_zero_displacement(self, capsys):
        code, out = run_cli(capsys, "redshift", "--delta-x", "0")
        assert code == 0
        row = single_row(out)
        assert row["fractional_shift"] == 0 and row["phase_rate_rad_s"] == 0

    def test_conflicting_flags_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["redshift", "--delta-x", "0.01", "--mass", "10"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_mass_without_distance(self, capsys):
        code, _ = run_cli(capsys, "redshift", "--mass", "10")
        assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["redshift", "--delta-x", "nan"],
        ["gravimeter", "--tc", "inf"],
        ["gravimeter", "--n", "inf"],
        ["sweep", "--target", "phase", "--param", "n", "--steps", "3", "--out", "unused.csv",
         "--from", "1", "--to", "inf"],
    ],
)
def test_non_finite_flag_is_one_line_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert f"argument {argv[-2]}: expected a finite number" in captured.err


class TestProtocol:
    def test_reproducible_runs_byte_identical(self, tmp_path, capsys):
        path = scenario_file(tmp_path)
        code_a, out_a = run_cli(capsys, "--reproducible", "protocol", path)
        code_b, out_b = run_cli(capsys, "--reproducible", "protocol", path)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_backends_agree_on_estimate(self, tmp_path, capsys):
        path = scenario_file(tmp_path)
        _, out_branch = run_cli(capsys, "--reproducible", "protocol", path, "--backend", "branch")
        _, out_sv = run_cli(capsys, "--reproducible", "protocol", path, "--backend", "statevector")
        row_b, row_s = single_row(out_branch), single_row(out_sv)
        assert row_b["delta_phi_hat_rad"] == row_s["delta_phi_hat_rad"]
        assert row_b["count_one"] == row_s["count_one"]

    def test_json_output_structure(self, tmp_path, capsys):
        path = scenario_file(tmp_path)
        code, out = run_cli(capsys, "--reproducible", "--out", "json", "protocol", path)
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"inputs", "results", "provenance"}
        assert doc["results"]["shots"] == 10**5
        assert doc["provenance"]["tool"] == "qredshift"

    def test_zero_shots_rejected(self, tmp_path, capsys):
        path = scenario_file(tmp_path)
        code, _ = run_cli(capsys, "protocol", path, "--shots", "0")
        assert code == 2

    @pytest.mark.parametrize("content", BAD_JSON.values(), ids=BAD_JSON)
    def test_scenario_file_that_does_not_decode(self, tmp_path, capsys, content):
        path = tmp_path / "scenario.json"
        path.write_bytes(content)
        code = main(["protocol", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: scenario: {path} is not valid JSON: ")
        assert err.count("\n") == 1

    def test_malformed_scenario_names_field(self, tmp_path, capsys):
        path = scenario_file(tmp_path, geometry={"layout": "line", "n": 8, "spacing_m": 1e-3, "frobnicate": 1})
        code = main(["protocol", path])
        err = capsys.readouterr().err
        assert code == 2
        assert "frobnicate" in err

    def test_statevector_cap_exit_code(self, tmp_path, capsys):
        path = scenario_file(
            tmp_path,
            geometry={"layout": "line", "n": 40, "spacing_m": 1e-3, "orientation_deg": 0.0},
        )
        code = main(["protocol", path, "--backend", "statevector", "--shots", "10"])
        err = capsys.readouterr().err
        assert code == 3
        assert "branch" in err

    def test_shot_cap_exit_code(self, tmp_path, capsys):
        code = main(["protocol", scenario_file(tmp_path), "--shots", "1e11"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "shots" in captured.err

    def test_huge_uniform_chip_runs_on_branch(self, tmp_path, capsys):
        geometry = {"layout": "line", "n": 10**13, "spacing_m": 1e-3, "orientation_deg": 0.0}
        run = {"time_s": 1e-15, "shots": 1000, "seed": 42, "backend": "branch"}
        code, out = run_cli(capsys, "--reproducible", "protocol", scenario_file(tmp_path, geometry=geometry, run=run))
        assert code == 0
        row = single_row(out)
        assert row["n"] == 10**13
        assert row["analytic_delta_phi_rad"] == pytest.approx(closed_form_phase(10**13, OMEGA_10GHZ, 1e-3, 1e-15),
                                                             rel=1e-12)
        assert all(math.isfinite(cell) for cell in row.values() if isinstance(cell, float))

    def test_huge_chip_on_statevector_exit_code(self, tmp_path, capsys):
        geometry = {"layout": "line", "n": 10**13, "spacing_m": 1e-3, "orientation_deg": 0.0}
        code = main(["protocol", scenario_file(tmp_path, geometry=geometry), "--backend", "statevector"])
        assert code == 3
        assert "dense backend" in one_line_error(capsys)

    def test_sweep_to_huge_uniform_chip(self, tmp_path, capsys):
        out_csv = tmp_path / "x.csv"
        code = main(["--reproducible", "sweep", "--target", "protocol", "--param", "n", "--from", "2",
                     "--to", "1e13", "--steps", "2", "--time-s", "1e-15", "--scenario", scenario_file(tmp_path),
                     "--out", str(out_csv)])
        assert code == 0
        _, _, rows = read_result_csv(out_csv.read_text(encoding="utf-8"))
        assert [row[0] for row in rows] == [2, 10**13]
        assert all(math.isfinite(cell) for row in rows for cell in row if isinstance(cell, float))

    @pytest.mark.parametrize(
        "field, overrides",
        [
            ("geometry.orientation_deg",
             {"geometry": {"layout": "line", "n": 8, "spacing_m": 1e-3, "orientation_deg": math.nan}}),
            ("perturbation.angle_deg", {"perturbation": {"kind": "rotation", "angle_deg": math.inf}}),
        ],
    )
    def test_non_finite_scenario_number_names_field(self, tmp_path, capsys, field, overrides):
        code = main(["protocol", scenario_file(tmp_path, **overrides)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert field in captured.err

    def test_seed_override_changes_shots(self, tmp_path, capsys):
        path = scenario_file(tmp_path)
        _, out_a = run_cli(capsys, "--reproducible", "--seed", "1", "protocol", path)
        _, out_b = run_cli(capsys, "--reproducible", "--seed", "2", "protocol", path)
        assert single_row(out_a)["count_one"] != single_row(out_b)["count_one"]


class TestSensingCommands:
    def test_gravimeter_example(self, capsys):
        code, out = run_cli(capsys, "gravimeter", "--n", "1e3", "--tc", "1e-3", "--freq-ghz", "10")
        assert code == 0
        row = single_row(out)
        assert row["delta_g_over_g"] == pytest.approx(0.0022894610365567425, rel=1e-14)

    def test_required_qubits_example(self, capsys):
        code, out = run_cli(capsys, "required-qubits", "--geometry", "1d", "--tc", "1")
        assert code == 0
        assert single_row(out)["n_required"] == 7639

    def test_strain_example(self, capsys):
        code, out = run_cli(capsys, "strain", "--n", "1e3", "--tc", "1e-3")
        assert code == 0
        assert single_row(out)["min_strain"] == pytest.approx(14586156.263903009, rel=1e-12)

    def test_nonpositive_parameter_rejected(self, capsys):
        code, _ = run_cli(capsys, "gravimeter", "--n", "1e3", "--tc", "0")
        assert code == 2

    def test_constants_file_override(self, tmp_path, capsys):
        path = tmp_path / "constants.json"
        path.write_text(json.dumps({"g0": 9.8}), encoding="utf-8")
        code, out = run_cli(
            capsys, "--constants-file", str(path), "gravimeter", "--n", "1e3", "--tc", "1e-3"
        )
        assert code == 0
        row = single_row(out)
        assert row["delta_g_over_g"] == pytest.approx(row["delta_g"] / 9.8, rel=1e-14)

    def test_constants_file_unknown_key(self, tmp_path, capsys):
        path = tmp_path / "constants.json"
        path.write_text(json.dumps({"hbar": 1.0}), encoding="utf-8")
        code = main(["--constants-file", str(path), "gravimeter"])
        assert code == 2
        assert "hbar" in capsys.readouterr().err


    @pytest.mark.parametrize("overrides", [{"c": True}, {"g0": float("inf")}])
    def test_constants_file_non_finite_or_bool_rejected(self, tmp_path, capsys, overrides):
        path = tmp_path / "constants.json"
        path.write_text(json.dumps(overrides), encoding="utf-8")
        code = main(["--constants-file", str(path), "gravimeter"])
        assert code == 2
        assert next(iter(overrides)) in capsys.readouterr().err

    @pytest.mark.parametrize("content", BAD_JSON.values(), ids=BAD_JSON)
    def test_constants_file_that_does_not_decode(self, tmp_path, capsys, content):
        path = tmp_path / "constants.json"
        path.write_bytes(content)
        code = main(["--constants-file", str(path), "gravimeter"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: constants file {path}: invalid JSON: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("constants_file", ["constants.json", "missing.json"])
    @pytest.mark.parametrize("command", ["protocol", "sweep"])
    def test_scenario_runs_reject_constants_file(self, tmp_path, capsys, command, constants_file):
        (tmp_path / "constants.json").write_text(json.dumps({"g0": 9.8}), encoding="utf-8")
        scenario = scenario_file(tmp_path)
        argv = {"protocol": ["protocol", scenario],
                "sweep": ["sweep", "--target", "protocol", "--param", "n", "--from", "2", "--to", "8",
                          "--steps", "2", "--scenario", scenario, "--out", str(tmp_path / "sweep.csv")]}[command]
        code = main(["--constants-file", str(tmp_path / constants_file), *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --constants-file does not apply to protocol runs; " \
                               "use the scenario's \"constants\" object\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["constants.json", "scenario.json"]

    @pytest.mark.parametrize("argv", [
        ["gravimeter", "--delta-g", "1", "--time-s=-1"],
        ["strain", "--strain", "0.1", "--time-s=-1"],
        ["sweep", "--target", "phase", "--param", "time", "--from=-1", "--to", "1", "--steps", "3"],
    ], ids=["gravimeter", "strain", "sweep"])
    def test_negative_time_rejected(self, tmp_path, capsys, argv):
        out_csv = tmp_path / "sweep.csv"
        code = main([*argv, *(["--out", str(out_csv)] if argv[0] == "sweep" else [])])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        point = "sweep point time = -1.0: " if argv[0] == "sweep" else ""
        assert captured.err == f"error: {point}accumulation time t must be finite and >= 0, got -1.0\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("overrides", [{"c": True}, {"g0": float("inf")}])
    def test_scenario_constants_non_finite_or_bool_rejected(self, tmp_path, capsys, overrides):
        path = scenario_file(tmp_path, constants=overrides)
        code = main(["protocol", path])
        assert code == 2
        assert next(iter(overrides)) in capsys.readouterr().err


class TestCsvFormat:
    def test_round_trip_at_full_precision(self, capsys):
        code, out = run_cli(capsys, "--reproducible", "gravimeter", "--n", "1e3", "--tc", "1e-3")
        assert code == 0
        provenance, columns, rows = read_result_csv(out)
        assert provenance["tool"] == "qredshift"
        # parse -> re-serialize reproduces the CSV byte for byte: the
        # 17-significant-digit text pins the exact binary values
        buffer = io.StringIO()
        write_result_csv(buffer, provenance, columns, rows)
        assert buffer.getvalue() == out

    def test_lf_line_endings(self, capsys):
        _, out = run_cli(capsys, "--reproducible", "redshift", "--delta-x", "0.01")
        assert "\r" not in out

    def test_timestamp_suppressed_only_when_reproducible(self, capsys):
        _, out_repro = run_cli(capsys, "--reproducible", "redshift", "--delta-x", "0.01")
        _, out_stamped = run_cli(capsys, "redshift", "--delta-x", "0.01")
        assert "timestamp" not in out_repro
        assert "timestamp" in out_stamped


class TestSweep:
    def test_gravimeter_slope(self, tmp_path, capsys):
        out_csv = tmp_path / "sweep.csv"
        code, _ = run_cli(
            capsys, "--reproducible", "sweep", "--target", "gravimeter", "--param", "n",
            "--from", "1e2", "--to", "1e6", "--steps", "9", "--log", "--out", str(out_csv),
        )
        assert code == 0
        _, columns, rows = read_result_csv(out_csv.read_text(encoding="utf-8"))
        n = np.array([r[columns.index("n")] for r in rows], dtype=float)
        dg = np.array([r[columns.index("delta_g")] for r in rows], dtype=float)
        slope = np.polyfit(np.log(n), np.log(dg), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.01)

    def test_phase_slopes(self, tmp_path, capsys):
        for geometry, expected in (("1d", 2.0), ("2d", 1.5)):
            out_csv = tmp_path / f"phase_{geometry}.csv"
            code, _ = run_cli(
                capsys, "--reproducible", "sweep", "--target", "phase", "--param", "n",
                "--from", "1e2", "--to", "1e6", "--steps", "9", "--log",
                "--geometry", geometry, "--out", str(out_csv),
            )
            assert code == 0
            _, columns, rows = read_result_csv(out_csv.read_text(encoding="utf-8"))
            n = np.array([r[0] for r in rows], dtype=float)
            phase = np.array([r[columns.index("phase_rad")] for r in rows], dtype=float)
            slope = np.polyfit(np.log(n), np.log(phase), 1)[0]
            assert slope == pytest.approx(expected, abs=0.01)

    def test_protocol_sweep_rows_ordered(self, tmp_path, capsys):
        out_csv = tmp_path / "proto.csv"
        path = scenario_file(tmp_path)
        code, _ = run_cli(
            capsys, "--reproducible", "sweep", "--target", "protocol", "--param", "shots",
            "--from", "100", "--to", "500", "--steps", "3",
            "--scenario", path, "--out", str(out_csv),
        )
        assert code == 0
        _, columns, rows = read_result_csv(out_csv.read_text(encoding="utf-8"))
        assert [r[0] for r in rows] == [100, 300, 500]

    def test_protocol_sweep_uses_scenario_time(self, tmp_path, capsys):
        path = scenario_file(tmp_path, run={"time_s": 5.0, "shots": 1000, "seed": 42, "backend": "branch"})
        base = ["--reproducible", "sweep", "--target", "protocol", "--param", "shots",
                "--from", "100", "--to", "500", "--steps", "3", "--scenario", path]
        expected = {
            (): closed_form_phase(8, OMEGA_10GHZ, 1e-3, 5.0),
            ("--time-s", "1e-3"): closed_form_phase(8, OMEGA_10GHZ, 1e-3, 1e-3),
        }
        for flags, phase in expected.items():
            out_csv = tmp_path / "proto.csv"
            assert run_cli(capsys, *base, *flags, "--out", str(out_csv))[0] == 0
            _, columns, rows = read_result_csv(out_csv.read_text(encoding="utf-8"))
            for row in rows:
                assert row[columns.index("analytic_delta_phi_rad")] == pytest.approx(phase, rel=1e-12)

    def test_sweep_deterministic_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["--reproducible", "sweep", "--target", "strain", "--param", "tc",
                "--from", "1e-4", "--to", "1e-2", "--steps", "5", "--log"]
        assert run_cli(capsys, *base, "--out", str(a))[0] == 0
        assert run_cli(capsys, *base, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_single_step_rejected(self, tmp_path, capsys):
        code, _ = run_cli(
            capsys, "sweep", "--target", "gravimeter", "--param", "n",
            "--from", "10", "--to", "20", "--steps", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2

    def test_incompatible_param_rejected(self, tmp_path, capsys):
        code = main(["sweep", "--target", "gravimeter", "--param", "shots",
                     "--from", "1", "--to", "2", "--steps", "2", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "shots" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, code, message", [
        (["--target", "gravimeter", "--param", "n", "--from", "0.4", "--to", "10"], 2,
         "sweep point n = 0: n must be >= 1, got 0"),
        (["--target", "protocol", "--param", "n", "--from", "2", "--to", "30", "--scenario", "sv"], 3,
         "sweep point n = 30: 30 register qubits exceed the dense backend; use backend='branch'"),
    ], ids=["gravimeter-n-0", "protocol-dense-cap"])
    def test_point_error_names_point(self, tmp_path, capsys, argv, code, message):
        run = {"time_s": 1e-3, "shots": 100, "seed": 1, "backend": "statevector"}
        argv = [scenario_file(tmp_path, run=run) if arg == "sv" else arg for arg in argv]
        out_csv = tmp_path / "sweep.csv"
        assert main(["sweep", *argv, "--steps", "2", "--out", str(out_csv)]) == code
        assert one_line_error(capsys) == f"error: {message}\n"
        assert not out_csv.exists()

    def test_unwritable_path_io_error(self, tmp_path, capsys):
        code = main(["sweep", "--target", "gravimeter", "--param", "n",
                     "--from", "10", "--to", "20", "--steps", "2",
                     "--out", str(tmp_path / "missing" / "x.csv")])
        assert code == 4
        capsys.readouterr()

    def test_directory_path_io_error_leaves_no_temp_file(self, tmp_path, capsys):
        # the rows are written to a temporary file beside the path, which cannot replace a directory
        (tmp_path / "out").mkdir()
        code = main(["sweep", "--target", "gravimeter", "--param", "n",
                     "--from", "10", "--to", "20", "--steps", "2", "--out", str(tmp_path / "out")])
        assert code == 4
        one_line_error(capsys)
        assert sorted(path.name for path in tmp_path.iterdir()) == ["out"]
        assert list((tmp_path / "out").iterdir()) == []


def one_line_error(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    return captured.err


class TestRangeErrors:
    """Finite flags whose results leave the floating-point range exit 2 with one line."""

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["redshift", "--mass", "1e300", "--distance", "1e-300"], "fractional_shift"),
            (["gravimeter", "--tc", "1e-320"], "delta_g"),
            (["strain", "--tc", "1e300", "--n", "1e20"], "baseline_phase_rad"),
            (["strain", "--tc", "1e-320"], "strain"),
            (["required-qubits", "--tc", "1e-320"], "required-qubits"),
        ],
    )
    def test_command_out_of_range(self, capsys, argv, named):
        assert main(argv) == 2
        assert named in one_line_error(capsys)

    def test_large_coherence_time_in_range(self, capsys):
        # (t / c^2) is taken before the other factors, so the baseline phase stays finite
        assert main(["strain", "--tc", "1e300"]) == 0
        assert single_row(capsys.readouterr().out)["baseline_phase_rad"] == 6.8558157605560789e+294

    def test_sweep_out_of_range(self, tmp_path, capsys):
        out_csv = tmp_path / "x.csv"
        code = main(["sweep", "--target", "phase", "--param", "n", "--from", "1", "--to", "1e300",
                     "--steps", "2", "--out", str(out_csv)])
        assert code == 2
        err = one_line_error(capsys)
        assert "phase_rad = inf" in err and "Numerical result" not in err
        assert not out_csv.exists()

    def test_sweep_names_a_huge_count_at_17_digits(self, tmp_path, capsys):
        code = main(["sweep", "--target", "phase", "--param", "n", "--from", "1", "--to", "1e300",
                     "--steps", "2", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert one_line_error(capsys).startswith("error: sweep point n = 1.0000000000000001e+300: phase: ")

    @pytest.mark.parametrize("command", ["protocol", "sweep"])
    def test_site_count_beyond_float_range(self, tmp_path, capsys, command):
        if command == "protocol":  # a 400-digit n
            geometry = {"layout": "line", "n": 10**400, "spacing_m": 1e-3, "orientation_deg": 0.0}
            argv = ["protocol", scenario_file(tmp_path, geometry=geometry)]
        else:
            argv = ["sweep", "--target", "protocol", "--param", "n", "--from", "2", "--to", "1e300",
                    "--steps", "2", "--scenario", scenario_file(tmp_path), "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 2
        err = one_line_error(capsys)
        assert "analytic_delta_phi_rad = inf" in err and "convert" not in err

    def test_sweep_grid_overflow(self, tmp_path, capsys):
        code = main(["sweep", "--target", "phase", "--param", "freq", "--from=-1.7e308", "--to=1.7e308",
                     "--steps", "3", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "--param freq" in one_line_error(capsys)

    @pytest.mark.parametrize("backend", ["branch", "statevector"])
    def test_protocol_dphi_overflow(self, tmp_path, capsys, backend):
        # every angle is finite, but their sum overflows
        path = scenario_file(
            tmp_path,
            qubits={"frequency_ghz": 1e8},
            perturbation={"kind": "delta_g", "delta_g": 1e300},
            run={"time_s": 1, "shots": 1000, "seed": 1, "backend": backend},
        )
        code, out, err = run_with_stderr(capsys, ["protocol", path])
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "analytic_delta_phi_rad" in err

    @pytest.mark.parametrize("backend", ["branch", "statevector"])
    @pytest.mark.parametrize("frequency_ghz", [10.0, [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0]])
    @pytest.mark.parametrize(
        "time_s, message",
        [(0, "analytic_delta_phi_rad = nan: "), (1, "analytic_delta_phi_rad = inf: the sum of |theta_k| overflows")],
    )
    def test_protocol_infinite_potential(self, tmp_path, capsys, backend, frequency_ghz, time_s, message):
        # -G M / d overflows to -inf; 0 s times it is undefined, 1 s times it overflows.
        # Every backend and frequency layout prints the same one line, with no numpy warning.
        path = scenario_file(
            tmp_path,
            qubits={"frequency_ghz": frequency_ghz},
            perturbation={"kind": "mass", "mass_kg": 1e300, "distance_m": 1e-300},
            run={"time_s": time_s, "shots": 1000, "seed": 1, "backend": backend},
        )
        code, out, err = run_with_stderr(capsys, ["--reproducible", "protocol", path])
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert message in err
        assert ("overflow" in err) == (time_s == 1)

    @pytest.mark.parametrize("geometry", ["1d", "2d"])
    def test_required_qubits_overflow_names_n_required(self, capsys, geometry):
        code, out, err = run_with_stderr(capsys, ["--reproducible", "required-qubits", "--tc", "1e-320",
                                                  "--geometry", geometry])
        assert code == 2 and out == ""
        assert err == ("error: required-qubits: the inputs leave the floating-point range "
                       "(n_required = inf: the qubit count overflows)\n")

    def test_required_qubits_underflow_is_one_qubit(self, capsys):
        code, out = run_cli(capsys, "required-qubits", "--tc", "1e300")
        assert code == 0
        assert single_row(out)["n_required"] == 1

    def test_gravimeter_underflow_names_delta_g(self, capsys):
        # the phase at delta_g = 1 overflows, so the smallest delta_g underflows to 0
        code, out, err = run_with_stderr(capsys, ["--reproducible", "gravimeter", "--tc", "1e300", "--n", "1e300"])
        assert code == 2 and out == ""
        assert err == ("error: gravimeter: the inputs leave the floating-point range "
                       "(delta_g = 0.0: the phase at delta_g = 1 overflows)\n")

    def test_saturated_protocol_keeps_documented_nan(self, tmp_path, capsys):
        code, out = run_cli(capsys, "--reproducible", "protocol", scenario_file(tmp_path), "--shots", "1")
        assert code == 0
        row = single_row(out)
        assert row["saturated"] == 1 and math.isnan(row["std_error_rad"])


def process_display(message, category, filename, lineno, file=None, line=None) -> None:
    """How a process shows a warning by default (pytest would record it instead)."""
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def run_with_stderr(capsys, argv: list[str], shown: bool = True) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one run; with shown=False every warning is filtered out."""
    with warnings.catch_warnings():
        warnings.showwarning = process_display
        if not shown:
            warnings.simplefilter("ignore")
        code = main(argv)
        assert warnings.showwarning is process_display  # main restores the display it replaced
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWarningLines:
    """A shown warning is one `warning: <message>` stderr line; stdout and files do not change."""

    def test_saturated_protocol(self, tmp_path, capsys):
        argv = ["--reproducible", "protocol", scenario_file(tmp_path), "--shots", "1"]
        code, out, err = run_with_stderr(capsys, argv)
        assert code == 0 and single_row(out)["saturated"] == 1
        assert err and all(line.startswith("warning: ") for line in err.splitlines())
        assert "saturates the estimator" in err
        assert run_with_stderr(capsys, argv, shown=False) == (0, out, "")

    def test_saturated_protocol_sweep(self, tmp_path, capsys):
        out_csv = tmp_path / "proto.csv"
        argv = ["--reproducible", "sweep", "--target", "protocol", "--param", "shots", "--from", "1",
                "--to", "2", "--steps", "2", "--scenario", scenario_file(tmp_path), "--out", str(out_csv)]
        code, out, err = run_with_stderr(capsys, argv)
        written = out_csv.read_text(encoding="utf-8")
        assert code == 0 and out == ""
        assert err and all(line.startswith("warning: ") for line in err.splitlines())
        assert run_with_stderr(capsys, argv, shown=False) == (0, "", "")
        assert out_csv.read_text(encoding="utf-8") == written

    @pytest.mark.parametrize("command, flag", [("gravimeter", "--delta-g"), ("strain", "--strain")])
    def test_time_past_coherence(self, capsys, command, flag):
        argv = ["--reproducible", command, flag, "1e-9", "--time-s", "1"]
        code, out, err = run_with_stderr(capsys, argv)
        assert code == 0
        assert err == "warning: accumulation time 1.0 s exceeds the coherence time 0.001 s\n"
        assert run_with_stderr(capsys, argv, shown=False) == (0, out, "")


class TestIntegerFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["protocol", "unused.json", "--shots", "2.7"],
            ["gravimeter", "--n", "2.7"],
            ["sweep", "--target", "phase", "--param", "n", "--from", "1", "--to", "2",
             "--out", "unused.csv", "--steps", "2.5"],
        ],
    )
    def test_fraction_is_one_line_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == "" and captured.err.count("\n") == 1
        assert f"argument {argv[-2]}: expected an integer" in captured.err

    def test_exponent_steps_accepted(self, tmp_path, capsys):
        out_csv = tmp_path / "x.csv"
        assert run_cli(capsys, "sweep", "--target", "phase", "--param", "n", "--from", "1", "--to", "5",
                       "--steps", "5e0", "--out", str(out_csv))[0] == 0
        assert len(read_result_csv(out_csv.read_text(encoding="utf-8"))[2]) == 5

    def test_sweep_point_cap_before_grid(self, tmp_path, capsys, monkeypatch):
        from qredshift.cli import MAX_SWEEP_POINTS

        def no_grid(*args, **kwargs):
            raise AssertionError("the grid must not be built")

        monkeypatch.setattr(np, "linspace", no_grid)
        monkeypatch.setattr(np, "geomspace", no_grid)
        for log in ([], ["--log"]):
            code = main(["sweep", "--target", "phase", "--param", "n", "--from", "1", "--to", "2",
                         "--steps", str(MAX_SWEEP_POINTS + 1), *log, "--out", str(tmp_path / "x.csv")])
            assert code == 3
            assert "sweep points" in one_line_error(capsys)

    def test_count_beyond_2_53_echoes_as_float(self, capsys):
        code, out = run_cli(capsys, "--reproducible", "gravimeter", "--n", "1e30")
        assert code == 0
        assert out.splitlines()[-1].startswith("1e+30,")
        code, out = run_cli(capsys, "--reproducible", "--out", "json", "gravimeter", "--n", "1e30")
        doc = json.loads(out)
        assert code == 0 and doc["inputs"]["n"] == doc["results"]["n"] == 1e30
        assert isinstance(doc["inputs"]["n"], float) and isinstance(doc["results"]["n"], float)
        code, out = run_cli(capsys, "--reproducible", "gravimeter", "--n", str(2**53))
        assert out.splitlines()[-1].startswith(f"{2**53},")

    def test_seed_beyond_2_53_stays_exact(self, tmp_path, capsys):
        seed = 2**64 + 1
        path = scenario_file(tmp_path)
        assert single_row(run_cli(capsys, "--seed", str(seed), "protocol", path)[1])["seed"] == seed
        doc = json.loads(run_cli(capsys, "--seed", str(seed), "--out", "json", "protocol", path)[1])
        assert doc["inputs"]["seed"] == doc["results"]["seed"] == seed

    def test_largest_seed_accepted(self, tmp_path, capsys):
        # the argv matrix holds the rejected seeds, -1 and 2^128, from a flag, a scenario and a sweep
        top = 2**128 - 1
        assert single_row(run_cli(capsys, "--seed", str(top), "protocol", scenario_file(tmp_path))[1])["seed"] == top


def run_captured(capsys, argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process call, a SystemExit included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parser_actions(parser: argparse.ArgumentParser):
    """Every action of `parser` and of its subparsers."""
    for action in parser._actions:
        yield action
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from parser_actions(sub)


def is_immutable(value) -> bool:
    if isinstance(value, tuple):
        return all(map(is_immutable, value))
    return value is None or type(value) in (bool, int, float, str)


def test_row_subcommands_take_their_row_parameters():
    # the flags of each one-row subcommand set exactly its row's parameters; the seed is the global --seed
    sub = next(action for action in parser_actions(cli._parser()) if isinstance(action, argparse._SubParsersAction))
    for name, parser in sub.choices.items():
        if name in cli._ROWS:
            dests = {action.dest for action in parser_actions(parser)} - {"help"}
            assert dests == set(cli._ROWS[name].params) - {"seed"}, name


def test_flag_dependencies_name_their_rows_flags():
    # each (dest, needed) pair of a row names two flags of that row's own parameters
    for name, row in cli._ROWS.items():
        for pair in row.needs:
            assert set(pair) <= set(row.params) & set(cli._FLAGS) and pair[0] != pair[1], (name, pair)


class TestParserReuse:
    """`main` builds the parser once per process, and no call leaves state in it."""

    def test_built_once_on_the_first_call(self, capsys):
        cli._parser.cache_clear()
        for _ in range(2):
            assert run_cli(capsys, "--reproducible", "redshift", "--delta-x", "0.01")[0] == 0
        assert cli._parser.cache_info().misses == 1

    def test_import_builds_no_parser(self):
        src = str(Path(qredshift.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "import qredshift.cli as cli; print(cli._parser.cache_info().misses)"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True,
                                timeout=60)
        assert result.stdout.strip() == "0"

    def test_a_call_leaves_no_state_for_the_next(self, tmp_path, capsys):
        path = scenario_file(tmp_path)
        first = ["--reproducible", "protocol", path]
        before = run_captured(capsys, first)
        assert before[0] == 0
        assert run_captured(capsys, ["protocol", path, "--shots", "2.7"])[0] == 2
        assert run_captured(capsys, ["--help"])[0] == 0
        # a protocol sweep fills its run settings and flag defaults into its Namespace
        sweep = ["--reproducible", "--seed", "9", "sweep", "--target", "protocol", "--param", "freq", "--from", "4",
                 "--to", "8", "--steps", "2", "--scenario", path, "--shots", "10", "--time-s", "1",
                 "--out", str(tmp_path / "sweep.csv")]
        assert run_captured(capsys, sweep)[0] == 0
        assert run_captured(capsys, first) == before

    def test_every_default_is_immutable(self):
        actions = list(parser_actions(cli._parser()))
        assert len(actions) > 50
        mutable = [(action.dest, action.default) for action in actions if not is_immutable(action.default)]
        assert mutable == []

    def test_help_wraps_at_each_calls_width(self, capsys, monkeypatch):
        widths = {}
        for columns in (60, 120):
            monkeypatch.setenv("COLUMNS", str(columns))
            code, out, _ = run_captured(capsys, ["--help"])
            assert code == 0
            # the subcommand list {redshift,...,sweep} is one word, which argparse never breaks
            widths[columns] = max(len(line) for line in out.splitlines() if "{" not in line)
        assert widths[60] <= 60 < widths[120] <= 120


class TestSharedOutputPath:
    def test_protocol_sweep_flags_saturation(self, tmp_path, capsys):
        out_csv = tmp_path / "proto.csv"
        code, _ = run_cli(
            capsys, "--reproducible", "sweep", "--target", "protocol", "--param", "shots",
            "--from", "1", "--to", "2", "--steps", "2", "--scenario", scenario_file(tmp_path),
            "--out", str(out_csv),
        )
        assert code == 0
        _, columns, rows = read_result_csv(out_csv.read_text(encoding="utf-8"))
        assert columns[-2:] == ["saturated", "range_exceeded"]
        first = dict(zip(columns, rows[0]))
        assert first["saturated"] == 1 and math.isnan(first["std_error_rad"])

    def test_protocol_sweep_records_scenario_seed(self, tmp_path, capsys):
        out_csv = tmp_path / "proto.csv"
        code, _ = run_cli(
            capsys, "--reproducible", "sweep", "--target", "protocol", "--param", "shots",
            "--from", "100", "--to", "200", "--steps", "2", "--scenario", scenario_file(tmp_path),
            "--out", str(out_csv),
        )
        assert code == 0
        provenance, _, _ = read_result_csv(out_csv.read_text(encoding="utf-8"))
        assert provenance["seed"] == "42"

    @pytest.mark.parametrize("command, flag", [("gravimeter", "--delta-g"), ("strain", "--strain")])
    def test_json_inputs_record_time(self, capsys, command, flag):
        code, out = run_cli(capsys, "--reproducible", "--out", "json", command, flag, "1e-3",
                            "--time-s", "5e-4")
        assert code == 0
        assert json.loads(out)["inputs"]["time_s"] == 5e-4


GRID_9 = {"layout": "grid", "n": 9, "spacing_m": 1e-3, "orientation_deg": 10.0}
PER_SITE = {"frequency_ghz": [4.0, 4.5, 5.0, 5.5, 6.0, 6.5, 7.0, 7.5]}


class TestProtocolSweepChip:
    """A protocol sweep point is the scenario's own chip with the swept field replaced."""

    @pytest.mark.parametrize("overrides, param, start, stop, field, unit", [
        ({"geometry": GRID_9}, "freq", "4", "8", "frequency", 2.0 * math.pi * 1e9),
        ({"qubits": PER_SITE}, "ell", "1e-4", "1e-2", "spacing", 1.0),
    ], ids=["grid-freq", "per-site-ell"])
    def test_point_matches_run_protocol(self, tmp_path, capsys, overrides, param, start, stop, field, unit):
        path = scenario_file(tmp_path, run={"time_s": 1.0, "shots": 1000, "seed": 42, "backend": "branch"},
                             **overrides)
        out_csv = tmp_path / "sweep.csv"
        code, _ = run_cli(capsys, "--reproducible", "sweep", "--target", "protocol", "--param", param,
                          f"--from={start}", f"--to={stop}", "--steps", "3", "--scenario", path,
                          "--out", str(out_csv))
        assert code == 0
        _, columns, rows = read_result_csv(out_csv.read_text(encoding="utf-8"))
        assert len(rows) == 3
        doc = load_scenario(path)
        for index, row in enumerate(rows):
            chip = replace(doc.scenario.geometry, **{field: unit * row[0]})
            outcome = run_protocol(replace(doc.scenario, geometry=chip), 1.0, 1000, substream_seed(42, index),
                                   "branch")
            expected = [outcome.analytic_delta_phi, outcome.p_one, outcome.p_hat, outcome.delta_phi_hat,
                        outcome.std_error, outcome.count_one, outcome.saturated, outcome.range_exceeded]
            assert list(row[1:]) == expected

    @pytest.mark.parametrize("overrides, grid, message", [
        ({"qubits": PER_SITE}, ["--from", "8", "--to", "2", "--steps", "2"],
         "sweep point n = 2: expected 2 site frequencies, got shape (8,)"),
        ({"geometry": GRID_9}, ["--from", "4", "--to", "16", "--steps", "3"],
         "sweep point n = 10: grid layout needs a perfect-square qubit count, got 10"),
    ], ids=["per-site", "non-square-grid"])
    def test_invalid_chip_point(self, tmp_path, capsys, overrides, grid, message):
        # the first point is a valid chip, the second is not
        out_csv = tmp_path / "sweep.csv"
        code = main(["sweep", "--target", "protocol", "--param", "n", *grid,
                     "--scenario", scenario_file(tmp_path, **overrides), "--out", str(out_csv)])
        assert code == 2
        assert one_line_error(capsys) == f"error: {message}\n"
        assert not out_csv.exists()


class TestUnreadFlags:
    """A flag that no phase or run of the command reads is a usage error, not silently ignored."""

    @pytest.mark.parametrize("argv, message", [
        (["gravimeter", "--time-s=-1"], "--time-s only applies with --delta-g"),
        (["strain", "--time-s", "1"], "--time-s only applies with --strain"),
        (["redshift", "--delta-x", "1", "--distance", "2"], "--distance only applies with --mass"),
        (["sweep", "--target", "gravimeter", "--param", "n", "--time-s=-5"],
         "sweep --target gravimeter does not read --time-s"),
        (["sweep", "--target", "strain", "--param", "tc", "--time-s", "1"],
         "sweep --target strain does not read --time-s"),
        (["sweep", "--target", "required-qubits", "--param", "tc", "--time-s", "1"],
         "sweep --target required-qubits does not read --time-s"),
        (["sweep", "--target", "phase", "--param", "n", "--scenario", "nonexist.json", "--shots", "3"],
         "sweep --target phase does not read --scenario, --shots"),
        (["sweep", "--target", "gravimeter", "--param", "freq", "--scenario", "nonexist.json"],
         "sweep --target gravimeter does not read --scenario"),
        # flags with a default: the sweep's copies stay unset, so a given one is seen
        (["sweep", "--target", "gravimeter", "--param", "freq", "--geometry", "2d"],
         "sweep --target gravimeter does not read --geometry"),
        (["sweep", "--target", "gravimeter", "--param", "n", "--ell", "1e-3"],
         "sweep --target gravimeter does not read --ell"),
        (["sweep", "--target", "strain", "--param", "freq", "--geometry", "1d"],
         "sweep --target strain does not read --geometry"),
        (["sweep", "--target", "required-qubits", "--param", "ell", "--n", "77"],
         "sweep --target required-qubits does not read --n"),
        (["sweep", "--target", "phase", "--param", "n", "--tc", "5", "--phase-res", "3"],
         "sweep --target phase does not read --tc, --phase-res"),
        (["sweep", "--target", "protocol", "--param", "freq", "--scenario", "nonexist.json", "--geometry", "2d",
          "--tc", "5", "--n", "3"],
         "sweep --target protocol does not read --geometry, --n, --tc"),
        # the swept parameter's own flag: every point overwrites it
        (["sweep", "--target", "gravimeter", "--param", "n", "--n", "77"],
         "sweep --target gravimeter does not read --n"),
    ], ids=["gravimeter", "strain", "redshift-distance", "sweep-gravimeter", "sweep-strain", "sweep-required-qubits",
            "sweep-phase", "sweep-gravimeter-scenario", "sweep-gravimeter-geometry", "sweep-gravimeter-ell",
            "sweep-strain-geometry",
            "sweep-required-qubits-n", "sweep-phase-tc-phase-res", "sweep-protocol-defaulted", "sweep-swept-flag"])
    def test_rejected(self, tmp_path, capsys, argv, message):
        if argv[0] == "sweep":
            argv = [*argv, "--from", "1", "--to", "10", "--steps", "2", "--out", str(tmp_path / "sweep.csv")]
        assert main(argv) == 2
        assert one_line_error(capsys) == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_gravimeter_has_no_ell(self, capsys):
        # no gravimeter result reads the site spacing
        with pytest.raises(SystemExit) as exc:
            main(["gravimeter", "--ell", "1e-3"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == "" and captured.err == "qredshift: error: unrecognized arguments: --ell 1e-3\n"

    @pytest.mark.parametrize("argv", [
        ["--target", "gravimeter", "--param", "tc", "--phase-res", "0.2", "--n", "10"],
        ["--target", "strain", "--param", "n", "--tc", "1", "--freq-ghz", "5", "--ell", "1e-2"],
        ["--target", "required-qubits", "--param", "tc", "--geometry", "2d", "--phase-res", "0.2"],
        ["--target", "phase", "--param", "freq", "--geometry", "2d", "--n", "9", "--time-s", "1"],
        ["--target", "protocol", "--param", "freq", "--scenario", "scenario", "--time-s", "1", "--shots", "10"],
    ], ids=["gravimeter", "strain", "required-qubits", "phase", "protocol"])
    def test_read_flag_accepted(self, tmp_path, capsys, argv):
        argv = [scenario_file(tmp_path) if arg == "scenario" else arg for arg in argv]
        out_csv = tmp_path / "sweep.csv"
        assert main(["sweep", *argv, "--from", "1", "--to", "10", "--steps", "2", "--out", str(out_csv)]) == 0
        assert len(read_result_csv(out_csv.read_text(encoding="utf-8"))[2]) == 2
