"""Command-line front end.

Subcommands: redshift, protocol, gravimeter, strain, required-qubits,
sweep.  Global flags: --seed, --constants-file, --out {csv,json},
--reproducible (suppresses the timestamp so repeated runs are
byte-identical).

Exit codes: 0 success, 2 validation or usage error, 3 resource cap (dense
register size, shot count), 4 I/O error; an error is one stderr line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, NoReturn, TextIO

import numpy as np

from . import __version__
from .constants import CONSTANT_NAMES, DEFAULT_CONSTANTS, PhysicalConstants
from .gravity import GravScenario, fractional_shift_mass, fractional_shift_vertical, line_chip
from .protocol import run_protocol
from .rng import substream_seed
from .scenario import ScenarioDocument, ScenarioError, load_scenario, parse_constants
from .sensing import (
    SensingConfig,
    closed_form_phase,
    gravimeter_phase,
    gravimeter_sensitivity,
    min_detectable_strain,
    required_qubits,
    strain_phase,
)
from .statevector import ResourceCapError

__all__ = ["ResultTable", "main", "read_result_csv"]

_FLOAT_FMT = ".17g"
# accumulation time of `sweep --target phase` when --time-s is not given
_PHASE_TIME_S = 1e-3

_SWEEP_PARAMS = {
    "gravimeter": ("n", "tc", "freq", "ell"),
    "strain": ("n", "tc", "freq", "ell"),
    "required-qubits": ("tc", "freq", "ell"),
    "phase": ("n", "freq", "ell", "time"),
    "protocol": ("n", "freq", "ell", "shots", "time"),
}
_PARAM_COLUMN = {
    "n": "n",
    "tc": "tc_s",
    "freq": "freq_ghz",
    "ell": "ell_m",
    "shots": "shots",
    "time": "time_s",
}


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format(value, _FLOAT_FMT)
    return str(value)


@dataclass
class ResultTable:
    """Rectangular, deterministic output: named columns, typed rows, provenance header."""

    columns: list[str]
    rows: list[tuple] = field(default_factory=list)
    provenance: dict[str, str] = field(default_factory=dict)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(f"row has {len(values)} values for {len(self.columns)} columns")
        self.rows.append(tuple(values))

    def write_csv(self, stream: TextIO) -> None:
        for key, value in self.provenance.items():
            stream.write(f"# {key}={value}\n")
        stream.write(",".join(self.columns) + "\n")
        for row in self.rows:
            stream.write(",".join(_fmt(v) for v in row) + "\n")


def read_result_csv(text: str) -> tuple[dict[str, str], list[str], list[tuple]]:
    """Parse a ResultTable CSV back into (provenance, columns, typed rows)."""
    provenance: dict[str, str] = {}
    columns: list[str] = []
    rows: list[tuple] = []

    def parse_cell(cell: str) -> Any:
        try:
            return int(cell)
        except ValueError:
            pass
        try:
            return float(cell)
        except ValueError:
            return cell

    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            provenance[key] = value
        elif not columns:
            columns = line.split(",")
        else:
            rows.append(tuple(parse_cell(c) for c in line.split(",")))
    return provenance, columns, rows


def _provenance(constants: PhysicalConstants, seed: int | None, reproducible: bool) -> dict[str, str]:
    info = {
        "tool": "qredshift",
        "version": __version__,
        "seed": "" if seed is None else str(seed),
        "constants": ",".join(
            f"{name}={format(getattr(constants, name), _FLOAT_FMT)}"
            for name in CONSTANT_NAMES
        ),
    }
    if not reproducible:
        info["timestamp"] = datetime.now(timezone.utc).isoformat()
    return info


def _emit(table: ResultTable, inputs: dict[str, Any], args: argparse.Namespace) -> None:
    if args.out == "json":
        results: Any
        if len(table.rows) == 1:
            results = dict(zip(table.columns, table.rows[0]))
        else:
            results = {"columns": table.columns, "rows": [list(r) for r in table.rows]}
        doc = {"inputs": inputs, "results": results, "provenance": table.provenance}
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        table.write_csv(sys.stdout)


def _load_constants(args: argparse.Namespace) -> PhysicalConstants:
    if not args.constants_file:
        return DEFAULT_CONSTANTS
    source = f"constants file {args.constants_file}"
    try:
        overrides = json.loads(Path(args.constants_file).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{source}: invalid JSON: {exc}") from exc
    return parse_constants(overrides, source)


def _finite_float(text: str) -> float:
    """argparse type of every real-valued flag: nan, inf and malformed text are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _int_arg(text: str) -> int:
    return int(_finite_float(text))


# --- subcommands ------------------------------------------------------------


def _cmd_redshift(args: argparse.Namespace) -> int:
    constants = _load_constants(args)
    omega = 2.0 * math.pi * 1e9 * args.freq_ghz
    if args.delta_x is not None:
        if args.distance is not None:
            raise ValueError("--distance only applies to the --mass perturbation")
        kind = "vertical"
        shift = fractional_shift_vertical(args.delta_x, constants)
    else:
        if args.distance is None:
            raise ValueError("--mass requires --distance")
        kind = "mass"
        shift = fractional_shift_mass(args.mass, args.distance, constants)
    table = ResultTable(
        columns=["perturbation", "freq_ghz", "fractional_shift", "delta_omega_rad_s", "phase_rate_rad_s"],
        provenance=_provenance(constants, args.seed, args.reproducible),
    )
    table.add_row(kind, args.freq_ghz, shift, shift * omega, shift * omega)
    inputs = {
        "command": "redshift",
        "delta_x_m": args.delta_x,
        "mass_kg": args.mass,
        "distance_m": args.distance,
        "freq_ghz": args.freq_ghz,
    }
    _emit(table, inputs, args)
    return 0


_PROTOCOL_COLUMNS = [
    "backend",
    "n",
    "time_s",
    "shots",
    "seed",
    "analytic_delta_phi_rad",
    "p_one",
    "p_hat",
    "delta_phi_hat_rad",
    "std_error_rad",
    "count_one",
    "saturated",
    "range_exceeded",
]


def _protocol_row(doc: ScenarioDocument, time_s: float, shots: int, seed: int, backend: str) -> tuple:
    outcome = run_protocol(doc.scenario, time_s, shots, seed, backend)
    return (
        outcome.backend,
        doc.scenario.geometry.qubit_count,
        time_s,
        outcome.shots,
        seed,
        outcome.analytic_delta_phi,
        outcome.p_one,
        outcome.p_hat,
        outcome.delta_phi_hat,
        outcome.std_error,
        outcome.count_one,
        outcome.saturated,
        outcome.range_exceeded,
    )


def _cmd_protocol(args: argparse.Namespace) -> int:
    doc = load_scenario(args.scenario)
    time_s = doc.run.time_s if args.time_s is None else args.time_s
    shots = doc.run.shots if args.shots is None else args.shots
    seed = doc.run.seed if args.seed is None else args.seed
    backend = doc.run.backend if args.backend is None else args.backend
    table = ResultTable(
        columns=_PROTOCOL_COLUMNS,
        provenance=_provenance(doc.scenario.constants, seed, args.reproducible),
    )
    table.add_row(*_protocol_row(doc, time_s, shots, seed, backend))
    inputs = {
        "command": "protocol",
        "scenario": str(args.scenario),
        "time_s": time_s,
        "shots": shots,
        "seed": seed,
        "backend": backend,
    }
    _emit(table, inputs, args)
    return 0


def _sensing_config(args: argparse.Namespace, constants: PhysicalConstants) -> SensingConfig:
    return SensingConfig(
        n=args.n,
        mean_frequency=2.0 * math.pi * 1e9 * args.freq_ghz,
        coherence_time=args.tc,
        spacing=args.ell,
        phase_resolution=args.phase_res,
        constants=constants,
    )


def _cmd_gravimeter(args: argparse.Namespace) -> int:
    constants = _load_constants(args)
    config = _sensing_config(args, constants)
    report = gravimeter_sensitivity(config)
    columns = ["n", "tc_s", "freq_ghz", "ell_m", "phase_res_rad", "delta_g", "delta_g_over_g"]
    row = [
        config.n,
        config.coherence_time,
        args.freq_ghz,
        config.spacing,
        config.phase_resolution,
        report.sensitivity["delta_g"],
        report.sensitivity["delta_g_over_g"],
    ]
    if args.delta_g is not None:
        t = config.coherence_time if args.time_s is None else args.time_s
        columns += ["phase_rad"]
        row += [gravimeter_phase(config, args.delta_g, t)]
    table = ResultTable(columns=columns, provenance=_provenance(constants, args.seed, args.reproducible))
    table.add_row(*row)
    inputs = {"command": "gravimeter", "n": args.n, "tc_s": args.tc, "freq_ghz": args.freq_ghz,
              "ell_m": args.ell, "phase_res_rad": args.phase_res, "delta_g": args.delta_g}
    _emit(table, inputs, args)
    return 0


def _cmd_strain(args: argparse.Namespace) -> int:
    constants = _load_constants(args)
    config = _sensing_config(args, constants)
    report = min_detectable_strain(config)
    columns = ["n", "tc_s", "freq_ghz", "ell_m", "phase_res_rad", "baseline_phase_rad", "min_strain"]
    row = [
        config.n,
        config.coherence_time,
        args.freq_ghz,
        config.spacing,
        config.phase_resolution,
        report.phase,
        report.sensitivity["min_strain"],
    ]
    if args.strain is not None:
        t = config.coherence_time if args.time_s is None else args.time_s
        columns += ["phase_rad"]
        row += [strain_phase(config, t, args.strain)]
    table = ResultTable(columns=columns, provenance=_provenance(constants, args.seed, args.reproducible))
    table.add_row(*row)
    inputs = {"command": "strain", "n": args.n, "tc_s": args.tc, "freq_ghz": args.freq_ghz,
              "ell_m": args.ell, "phase_res_rad": args.phase_res, "strain": args.strain}
    _emit(table, inputs, args)
    return 0


def _cmd_required_qubits(args: argparse.Namespace) -> int:
    constants = _load_constants(args)
    config = SensingConfig(
        n=1,
        mean_frequency=2.0 * math.pi * 1e9 * args.freq_ghz,
        coherence_time=args.tc,
        spacing=args.ell,
        phase_resolution=args.phase_res,
        constants=constants,
    )
    result = required_qubits(config, args.geometry)
    table = ResultTable(
        columns=["geometry", "tc_s", "freq_ghz", "ell_m", "phase_res_rad", "n_required", "length_m"],
        provenance=_provenance(constants, args.seed, args.reproducible),
    )
    table.add_row(args.geometry, args.tc, args.freq_ghz, args.ell, args.phase_res, result.n, result.length)
    inputs = {"command": "required-qubits", "geometry": args.geometry, "tc_s": args.tc,
              "freq_ghz": args.freq_ghz, "ell_m": args.ell, "phase_res_rad": args.phase_res}
    _emit(table, inputs, args)
    return 0


# --- sweep ------------------------------------------------------------------


def _sweep_values(args: argparse.Namespace) -> list[float]:
    if args.steps < 2:
        raise ValueError(f"sweep needs steps >= 2, got {args.steps}")
    if args.log:
        if args.sweep_from <= 0 or args.sweep_to <= 0:
            raise ValueError("log-spaced sweeps need positive endpoints")
        grid = np.geomspace(args.sweep_from, args.sweep_to, args.steps)
    else:
        grid = np.linspace(args.sweep_from, args.sweep_to, args.steps)
    return [float(v) for v in grid]


def _sweep_point(args: argparse.Namespace, constants: PhysicalConstants,
                 doc: ScenarioDocument | None, index: int, value: float) -> tuple[list[str], tuple]:
    """Columns and row for one sweep point; pure in (args, value) so points are order-free."""
    run_time_s = _PHASE_TIME_S if doc is None else doc.run.time_s
    run_shots = None if doc is None else doc.run.shots
    params = {
        "n": args.n, "tc": args.tc, "freq": args.freq_ghz, "ell": args.ell,
        "time": run_time_s if args.time_s is None else args.time_s,
        "shots": run_shots if args.shots is None else args.shots,
    }
    params[args.param] = value
    n = int(round(params["n"]))
    omega = 2.0 * math.pi * 1e9 * params["freq"]

    if args.target in ("gravimeter", "strain"):
        config = SensingConfig(
            n=n, mean_frequency=omega, coherence_time=params["tc"],
            spacing=params["ell"], phase_resolution=args.phase_res, constants=constants,
        )
        if args.target == "gravimeter":
            report = gravimeter_sensitivity(config)
            return (["delta_g", "delta_g_over_g"],
                    (report.sensitivity["delta_g"], report.sensitivity["delta_g_over_g"]))
        report = min_detectable_strain(config)
        return (["baseline_phase_rad", "min_strain"],
                (report.phase, report.sensitivity["min_strain"]))
    if args.target == "required-qubits":
        config = SensingConfig(
            n=1, mean_frequency=omega, coherence_time=params["tc"],
            spacing=params["ell"], phase_resolution=args.phase_res, constants=constants,
        )
        result = required_qubits(config, args.geometry)
        return ["n_required", "length_m"], (result.n, result.length)
    if args.target == "phase":
        phase = closed_form_phase(n, omega, params["ell"], params["time"], args.geometry, constants)
        return ["phase_rad"], (phase,)
    # protocol target: rebuild the scenario with the overridden parameter
    assert doc is not None
    geometry = doc.scenario.geometry
    if args.param in ("n", "freq", "ell"):
        if geometry.layout != "line":
            raise ValueError("protocol sweeps only support line geometries")
        freq_value = omega if args.param == "freq" else float(geometry.frequencies[0])
        if args.param != "freq" and not np.all(geometry.frequencies == geometry.frequencies[0]):
            raise ValueError("protocol sweeps need a uniform qubit frequency")
        geometry = line_chip(
            n if args.param == "n" else geometry.qubit_count,
            params["ell"] if args.param == "ell" else geometry.spacing,
            freq_value,
            geometry.orientation,
        )
    scenario = GravScenario(geometry=geometry, perturbation=doc.scenario.perturbation,
                            constants=doc.scenario.constants)
    base_seed = doc.run.seed if args.seed is None else args.seed
    outcome = run_protocol(scenario, params["time"], int(params["shots"]),
                           substream_seed(base_seed, index), doc.run.backend)
    return (
        ["analytic_delta_phi_rad", "p_one", "p_hat", "delta_phi_hat_rad", "std_error_rad", "count_one"],
        (outcome.analytic_delta_phi, outcome.p_one, outcome.p_hat,
         outcome.delta_phi_hat, outcome.std_error, outcome.count_one),
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.param not in _SWEEP_PARAMS[args.target]:
        raise ValueError(
            f"param '{args.param}' cannot be swept for target '{args.target}' "
            f"(supported: {', '.join(_SWEEP_PARAMS[args.target])})"
        )
    doc = None
    if args.target == "protocol":
        if not args.scenario:
            raise ValueError("sweep --target protocol needs --scenario")
        doc = load_scenario(args.scenario)
        constants = doc.scenario.constants
    else:
        constants = _load_constants(args)

    values = _sweep_values(args)
    if args.param in ("n", "shots"):
        values = [float(int(round(v))) for v in values]

    rows: list[tuple] = []
    out_columns: list[str] | None = None
    for index, value in enumerate(values):
        columns, outputs = _sweep_point(args, constants, doc, index, value)
        if out_columns is None:
            out_columns = columns
        point = int(value) if args.param in ("n", "shots") else value
        rows.append((point, *outputs))

    assert out_columns is not None
    table = ResultTable(
        columns=[_PARAM_COLUMN[args.param], *out_columns],
        provenance=_provenance(constants, args.seed, args.reproducible),
    )
    for row in rows:
        table.add_row(*row)

    out_path = Path(args.out_path)
    fd, tmp_name = tempfile.mkstemp(dir=out_path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as stream:
            table.write_csv(stream)
        os.replace(tmp_name, out_path)
    except OSError:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    return 0


# --- parser -----------------------------------------------------------------


def _add_sensing_flags(parser: argparse.ArgumentParser, with_n: bool = True) -> None:
    if with_n:
        parser.add_argument("--n", type=_int_arg, default=1000, help="qubit count")
    parser.add_argument("--tc", type=_finite_float, default=1e-3, help="coherence time, s")
    parser.add_argument("--freq-ghz", type=_finite_float, default=10.0, help="mean qubit frequency, GHz")
    parser.add_argument("--ell", type=_finite_float, default=1e-3, help="site spacing, m")
    parser.add_argument("--phase-res", type=_finite_float, default=0.1, help="resolvable phase, rad")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line and exit code 2, like main()'s errors."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qredshift",
        description="Gravitational-redshift dephasing: channel numbers, protocol runs, sensing estimates.",
    )
    parser.add_argument("--seed", type=int, default=None, help="master seed for shot sampling")
    parser.add_argument("--constants-file", default=None, help="JSON file with constant overrides")
    parser.add_argument("--out", choices=("csv", "json"), default="csv", help="stdout format")
    parser.add_argument("--reproducible", action="store_true",
                        help="omit the timestamp so identical runs are byte-identical")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("redshift", help="single-qubit frequency shift and phase rate")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--delta-x", type=_finite_float, help="vertical displacement, m")
    group.add_argument("--mass", type=_finite_float, help="proximal mass, kg")
    p.add_argument("--distance", type=_finite_float, help="distance to the proximal mass, m")
    p.add_argument("--freq-ghz", type=_finite_float, default=10.0, help="qubit frequency, GHz")
    p.set_defaults(func=_cmd_redshift)

    p = sub.add_parser("protocol", help="run the phase-measurement protocol on a scenario file")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--shots", type=_int_arg, default=None, help="override run.shots")
    p.add_argument("--time-s", type=_finite_float, default=None, help="override run.time_s")
    p.add_argument("--backend", choices=("branch", "statevector"), default=None,
                   help="override run.backend")
    p.set_defaults(func=_cmd_protocol)

    p = sub.add_parser("gravimeter", help="delta-g sensitivity of a GHZ register")
    _add_sensing_flags(p)
    p.add_argument("--delta-g", type=_finite_float, default=None, help="also report the phase for this delta_g")
    p.add_argument("--time-s", type=_finite_float, default=None, help="accumulation time for --delta-g")
    p.set_defaults(func=_cmd_gravimeter)

    p = sub.add_parser("strain", help="minimum detectable strain of a GHZ register")
    _add_sensing_flags(p)
    p.add_argument("--strain", type=_finite_float, default=None, help="also report the phase at this strain")
    p.add_argument("--time-s", type=_finite_float, default=None, help="accumulation time for --strain")
    p.set_defaults(func=_cmd_strain)

    p = sub.add_parser("required-qubits", help="qubits needed to resolve the rotated-chip phase")
    p.add_argument("--geometry", choices=("1d", "2d"), default="1d")
    _add_sensing_flags(p, with_n=False)
    p.set_defaults(func=_cmd_required_qubits)

    p = sub.add_parser("sweep", help="evaluate a target over a parameter grid, write CSV")
    p.add_argument("--target", choices=tuple(_SWEEP_PARAMS), required=True)
    p.add_argument("--param", choices=tuple(_PARAM_COLUMN), required=True)
    p.add_argument("--from", dest="sweep_from", type=_finite_float, required=True)
    p.add_argument("--to", dest="sweep_to", type=_finite_float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--log", action="store_true", help="log-spaced grid")
    p.add_argument("--out", dest="out_path", required=True, help="output CSV path")
    p.add_argument("--geometry", choices=("1d", "2d"), default="1d")
    p.add_argument("--scenario", default=None, help="scenario file for --target protocol")
    p.add_argument("--time-s", dest="time_s", type=_finite_float, default=None,
                   help="accumulation time, s (default: the scenario's run.time_s; 1e-3 for --target phase)")
    p.add_argument("--shots", type=_int_arg, default=None, help="shots (default: the scenario's run.shots)")
    _add_sensing_flags(p)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
