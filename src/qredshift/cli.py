"""Command-line front end, driven by one table of row functions.

Subcommands: redshift, protocol, gravimeter, strain, required-qubits,
sweep.  Global flags: --seed (protocol runs only), --constants-file,
--out {csv,json} (one-row commands only; csv when unset), --reproducible
(suppresses the timestamp so repeated runs are byte-identical).

`_ROWS` holds one entry per computation: a row function that maps its
parameters to one output row `(echoed input columns, result columns)`, the
parameters it reads, the `--param` names `sweep` may vary, and which flag
needs which (gravimeter's `--time-s` needs `--delta-g`); `main` dispatches
from it.  The parameters are the argparse dests, named after their columns
(`tc_s`, `ell_m`, `phase_res_rad`, ...), so the parsed flag values are the
row's arguments and the JSON `inputs`.  A protocol row's unset `time_s`,
`shots`, `seed` and `backend` come from the scenario's `run` object, its
constants from the scenario alone.  Every row goes through `_run_row`,
which turns a cell outside the floating-point range into an error.  A
subcommand prints its one row with a provenance header as CSV or JSON
(`write_result_csv`); `sweep` evaluates a target's row at each grid value
of one column and writes the result columns to a CSV file.  The `phase`
row (the rotated-chip closed form) is a sweep target only.  `_FLAGS`
declares each flag that sets a row parameter, once, for every subcommand.

The argparse parser is built once per process, on the first `main` call,
and reused by every later call.

Exit codes: 0 success, 2 validation or usage error (including results out
of the floating-point range), 3 resource cap (sites of a chip with per-site
frequencies, dense register size, shot count, sweep points), 4 I/O error;
an error is one stderr line.
A warning the run raises (estimator saturation or range, a time beyond the
coherence time) is one `warning: <message>` line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
import warnings
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, NoReturn, TextIO

import numpy as np

from . import __version__
from .constants import CONSTANT_NAMES, DEFAULT_CONSTANTS, PhysicalConstants
from .gravity import ProximalMass, ResourceCapError, VerticalTranslation, _index, potential_change
from .protocol import BACKENDS, run_protocol
from .rng import substream_seed
from .scenario import ScenarioDocument, _omega, load_constants, load_scenario
from .sensing import (
    PHASE_EXPONENTS,
    closed_form_phase,
    gravimeter_phase,
    gravimeter_sensitivity,
    min_detectable_strain,
    required_qubits,
    strain_phase,
)

__all__ = ["MAX_SWEEP_POINTS", "main", "read_result_csv", "write_result_csv"]

_FLOAT_FMT = ".17g"
# accumulation time of `sweep --target phase` when --time-s is not given
_PHASE_TIME_S = 1e-3
# flag defaults by dest; every parser leaves these flags unset, so `sweep` can tell a given flag from a
# default, and `_row_inputs` fills an unset one in from here
_DEFAULTS = {"n": 1000, "tc_s": 1e-3, "freq_ghz": 10.0, "ell_m": 1e-3, "phase_res_rad": 0.1, "geometry": "1d"}
# Most grid points one sweep evaluates; a larger --steps exits 3 before the
# grid is built.  A million closed-form points take ~5 s and ~270 MB.
MAX_SWEEP_POINTS = 10**6


def _cells(row: dict[str, Any]) -> dict[str, Any]:
    """`row` with each integer cell beyond 2^53, and within the float range, as the nearest float.

    Beyond 2^53 the digits of a count read through a float flag or grid
    are rounding noise, so such a cell prints like a float cell instead of
    as up to 309 digits.  The seed is a key and stays exact.
    """
    return {key: float(value) if key != "seed" and type(value) is int and 2**53 < abs(value) <= sys.float_info.max
            else value for key, value in row.items()}


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format(value, _FLOAT_FMT)
    return str(value)


def write_result_csv(stream: TextIO, provenance: dict[str, str], columns: list[str], rows: list[tuple]) -> None:
    """Write `# key=value` provenance lines, the header and the rows; floats at 17 significant digits."""
    for key, value in provenance.items():
        stream.write(f"# {key}={value}\n")
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(_fmt(v) for v in row) + "\n")


def read_result_csv(text: str) -> tuple[dict[str, str], list[str], list[tuple]]:
    """Parse what write_result_csv wrote back into (provenance, columns, typed rows)."""
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
    """argparse type of every integer flag: accepts `1e3`, rejects `2.7`."""
    value = _finite_float(text)
    if not value.is_integer():
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(value)


# --- rows: parameters -> (echoed input columns, result columns) --------------

_Row = tuple[dict[str, Any], dict[str, Any]]


def _accumulation_time(p: dict[str, Any]) -> float:
    """--time-s, by default the coherence time; warns when it exceeds the coherence time."""
    if p["time_s"] is None:
        return p["tc_s"]
    if p["time_s"] > p["tc_s"]:
        warnings.warn(f"accumulation time {p['time_s']} s exceeds the coherence time {p['tc_s']} s")
    return p["time_s"]


def _redshift(p: dict[str, Any], constants: PhysicalConstants, doc: ScenarioDocument | None) -> _Row:
    if p["delta_x_m"] is not None:
        kind, pert = "vertical", VerticalTranslation(p["delta_x_m"])
    elif p["distance_m"] is None:
        raise ValueError("--mass requires --distance")
    else:
        kind, pert = "mass", ProximalMass(p["mass_kg"], p["distance_m"])
    shift = potential_change(pert, constants=constants) / constants.c_squared
    return ({"perturbation": kind, "freq_ghz": p["freq_ghz"]},
            {"fractional_shift": shift, "phase_rate_rad_s": shift * _omega(p["freq_ghz"])})


def _protocol(p: dict[str, Any], constants: PhysicalConstants, doc: ScenarioDocument | None) -> _Row:
    scenario = doc.scenario
    if "n" in p:  # a sweep point resizes or retunes the scenario's chip
        scenario = replace(scenario, geometry=replace(scenario.geometry, qubit_count=p["n"]))
    elif "ell_m" in p:
        scenario = replace(scenario, geometry=replace(scenario.geometry, spacing=p["ell_m"]))
    elif "freq_ghz" in p:
        scenario = replace(scenario, geometry=replace(scenario.geometry, frequency=_omega(p["freq_ghz"])))
    outcome = run_protocol(scenario, p["time_s"], p["shots"], p["seed"], p["backend"])
    return (
        {"backend": outcome.backend, "n": scenario.geometry.qubit_count, "time_s": p["time_s"],
         "shots": outcome.shots, "seed": p["seed"]},
        {"analytic_delta_phi_rad": outcome.analytic_delta_phi, "p_one": outcome.p_one,
         "p_hat": outcome.p_hat, "delta_phi_hat_rad": outcome.delta_phi_hat,
         "std_error_rad": outcome.std_error, "count_one": outcome.count_one,
         "saturated": outcome.saturated, "range_exceeded": outcome.range_exceeded},
    )


def _gravimeter(p: dict[str, Any], constants: PhysicalConstants, doc: ScenarioDocument | None) -> _Row:
    omega = _omega(p["freq_ghz"])
    results = gravimeter_sensitivity(p["n"], omega, p["tc_s"], p["phase_res_rad"], constants)
    if p["delta_g"] is not None:
        results["phase_rad"] = gravimeter_phase(p["n"], omega, p["delta_g"], _accumulation_time(p), constants)
    return {key: p[key] for key in _GRAVIMETER}, results


def _strain(p: dict[str, Any], constants: PhysicalConstants, doc: ScenarioDocument | None) -> _Row:
    omega = _omega(p["freq_ghz"])
    results = min_detectable_strain(p["n"], omega, p["ell_m"], p["tc_s"], p["phase_res_rad"], constants)
    if p["strain"] is not None:
        results["phase_rad"] = strain_phase(p["n"], omega, p["ell_m"], p["strain"], _accumulation_time(p), constants)
    return {key: p[key] for key in _STRAIN}, results


def _required_qubits(p: dict[str, Any], constants: PhysicalConstants, doc: ScenarioDocument | None) -> _Row:
    return dict(p), required_qubits(_omega(p["freq_ghz"]), p["ell_m"], p["tc_s"], p["phase_res_rad"], p["geometry"],
                                    constants)


def _phase(p: dict[str, Any], constants: PhysicalConstants, doc: ScenarioDocument | None) -> _Row:
    t = _PHASE_TIME_S if p["time_s"] is None else p["time_s"]
    phase = closed_form_phase(p["n"], _omega(p["freq_ghz"]), p["ell_m"], t, p["geometry"], constants)
    return dict(p, time_s=t), {"phase_rad": phase}


@dataclass(frozen=True)
class _RowSpec:
    """A row function, the parameters (flag dests) it reads, the `--param` names sweep may vary."""

    compute: Callable[[dict[str, Any], PhysicalConstants, ScenarioDocument | None], _Row]
    params: tuple[str, ...]
    sweep: tuple[str, ...] = ()
    # (dest, needed) pairs: the flag of dest applies only with the flag of needed
    needs: tuple[tuple[str, str], ...] = ()


# the sensing inputs gravimeter and strain take as flags and echo as columns
_GRAVIMETER = ("n", "tc_s", "freq_ghz", "phase_res_rad")
_STRAIN = ("n", "tc_s", "freq_ghz", "ell_m", "phase_res_rad")
_ROWS = {
    "redshift": _RowSpec(_redshift, ("delta_x_m", "mass_kg", "distance_m", "freq_ghz"),
                         needs=(("distance_m", "mass_kg"),)),
    "gravimeter": _RowSpec(_gravimeter, (*_GRAVIMETER, "delta_g", "time_s"), ("n", "tc", "freq"),
                           (("time_s", "delta_g"),)),
    "strain": _RowSpec(_strain, (*_STRAIN, "strain", "time_s"), ("n", "tc", "freq", "ell"), (("time_s", "strain"),)),
    "required-qubits": _RowSpec(_required_qubits, ("geometry", "tc_s", "freq_ghz", "ell_m", "phase_res_rad"),
                                ("tc", "freq", "ell")),
    "phase": _RowSpec(_phase, ("n", "freq_ghz", "ell_m", "time_s", "geometry"), ("n", "freq", "ell", "time")),
    "protocol": _RowSpec(_protocol, ("scenario", "time_s", "shots", "seed", "backend"),
                         ("n", "freq", "ell", "shots", "time")),
}
_PARAM_COLUMN = {"n": "n", "tc": "tc_s", "freq": "freq_ghz", "ell": "ell_m", "shots": "shots", "time": "time_s"}
# every flag that sets a row parameter, by dest: (option string, argparse keywords).  The sweep's flags
# come first, in the order its "does not read" message names them.
_FLAGS = {
    "scenario": ("--scenario", {"help": "scenario file for --target protocol"}),
    "shots": ("--shots", {"type": _int_arg}),
    "time_s": ("--time-s", {"type": _finite_float}),
    "geometry": ("--geometry", {"choices": tuple(PHASE_EXPONENTS)}),
    "n": ("--n", {"metavar": "N", "type": _int_arg, "help": "qubit count"}),
    "tc_s": ("--tc", {"metavar": "TC", "type": _finite_float, "help": "coherence time, s"}),
    "freq_ghz": ("--freq-ghz", {"type": _finite_float, "help": "mean qubit frequency, GHz"}),
    "ell_m": ("--ell", {"metavar": "ELL", "type": _finite_float, "help": "site spacing, m"}),
    "phase_res_rad": ("--phase-res", {"metavar": "PHASE_RES", "type": _finite_float, "help": "resolvable phase, rad"}),
    "delta_x_m": ("--delta-x", {"metavar": "DELTA_X", "type": _finite_float, "help": "vertical displacement, m"}),
    "mass_kg": ("--mass", {"metavar": "MASS", "type": _finite_float, "help": "proximal mass, kg"}),
    "distance_m": ("--distance", {"metavar": "DISTANCE", "type": _finite_float,
                                  "help": "distance to the proximal mass, m"}),
    "backend": ("--backend", {"choices": BACKENDS, "help": "override run.backend"}),
    "delta_g": ("--delta-g", {"type": _finite_float, "help": "also report the phase for this delta_g"}),
    "strain": ("--strain", {"type": _finite_float, "help": "also report the phase at this strain"}),
}
# the sweep's row-parameter flags, in its --help order
_SWEEP = ("geometry", "scenario", "time_s", "shots", "n", "tc_s", "freq_ghz", "ell_m", "phase_res_rad")


def _row_inputs(
    args: argparse.Namespace, row: _RowSpec
) -> tuple[dict[str, Any], PhysicalConstants, ScenarioDocument | None]:
    """(the row's parameters, constants, scenario): an unset flag takes its `_DEFAULTS` value, and a
    protocol row's unset run setting the scenario's.  A flag given without the flag it needs is an error."""
    if "scenario" not in row.params:
        if args.seed is not None:
            raise ValueError("--seed applies only to protocol runs; no other command draws shots")
        constants = load_constants(args.constants_file) if args.constants_file else DEFAULT_CONSTANTS
        doc, unset = None, _DEFAULTS
    else:
        if args.constants_file:
            raise ValueError("--constants-file does not apply to protocol runs; "
                             "use the scenario's \"constants\" object")
        if not args.scenario:
            raise ValueError("sweep --target protocol needs --scenario")
        doc = load_scenario(args.scenario)
        constants, unset = doc.scenario.constants, asdict(doc.run)
    given = {key: getattr(args, key, None) for key in row.params}
    for dest, needed in row.needs:
        if given[dest] is not None and given[needed] is None:
            raise ValueError(f"{_FLAGS[dest][0]} only applies with {_FLAGS[needed][0]}")
    return {key: unset.get(key) if value is None else value for key, value in given.items()}, constants, doc


def _run_row(name: str, p: dict[str, Any], constants: PhysicalConstants, doc: ScenarioDocument | None) -> _Row:
    """One row; a result outside the floating-point range is an error, never a cell."""
    try:
        echo, results = _ROWS[name].compute(p, constants, doc)
    except ArithmeticError as exc:
        raise ArithmeticError(f"{name}: the inputs leave the floating-point range ({exc})") from None
    for column, value in {**echo, **results}.items():
        # documented exception: a saturated protocol estimate has no standard error
        if column == "std_error_rad" and results["saturated"]:
            continue
        if isinstance(value, float) and not math.isfinite(value):
            raise ArithmeticError(f"{name}: {column} = {value}; the inputs leave the floating-point range")
    return echo, results


def _cmd_row(args: argparse.Namespace) -> int:
    p, constants, doc = _row_inputs(args, _ROWS[args.command])
    echo, results = _run_row(args.command, p, constants, doc)
    cells = _cells({**echo, **results})
    provenance = _provenance(constants, p.get("seed"), args.reproducible)
    if args.out == "json":
        out = {"inputs": {"command": args.command, **_cells(p)}, "results": cells, "provenance": provenance}
        sys.stdout.write(json.dumps(out, indent=2, sort_keys=True) + "\n")
    else:
        write_result_csv(sys.stdout, provenance, list(cells), [tuple(cells.values())])
    return 0


# --- sweep ------------------------------------------------------------------


def _sweep_values(args: argparse.Namespace) -> list[float] | list[int]:
    if _index(args.steps, "--steps", 2) > MAX_SWEEP_POINTS:
        raise ResourceCapError(f"{args.steps} sweep points exceed the cap of {MAX_SWEEP_POINTS}")
    if args.log and (args.sweep_from <= 0 or args.sweep_to <= 0):
        raise ValueError("log-spaced sweeps need positive endpoints")
    with np.errstate(all="ignore"):  # a grid outside the float range is the one error below
        grid = (np.geomspace if args.log else np.linspace)(args.sweep_from, args.sweep_to, args.steps)
    if not np.all(np.isfinite(grid)):
        raise ArithmeticError(f"sweep: the --param {args.param} grid leaves the floating-point range")
    if args.param in ("n", "shots"):
        return [int(round(float(v))) for v in grid]
    return [float(v) for v in grid]


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.out is not None:
        raise ValueError(f"--out {args.out} sets stdout's format; sweep writes only CSV, to its own --out path")
    row = _ROWS[args.target]
    if args.param not in row.sweep:
        raise ValueError(
            f"param '{args.param}' cannot be swept for target '{args.target}' "
            f"(supported: {', '.join(row.sweep)})"
        )
    column = _PARAM_COLUMN[args.param]
    # a target reads its row's parameters, but not the swept column (each point sets it) nor one that
    # needs a flag sweep does not take (gravimeter and strain read a time only with --delta-g or --strain)
    reads = set(row.params) - {dest for dest, needed in row.needs if needed not in _SWEEP} - {column}
    unread = [flag for dest, (flag, _) in _FLAGS.items() if getattr(args, dest, None) is not None and dest not in reads]
    if unread:
        raise ValueError(f"sweep --target {args.target} does not read {', '.join(unread)}")
    base, constants, doc = _row_inputs(args, row)
    rows = []
    for index, value in enumerate(_sweep_values(args)):
        point = {**base, column: value}
        if "seed" in point:  # each protocol point draws its shots from its own substream
            point["seed"] = substream_seed(base["seed"], index)
        try:
            _, results = _run_row(args.target, point, constants, doc)
        except (ValueError, ArithmeticError, ResourceCapError) as exc:  # same type, so main's exit code holds
            point = value if isinstance(value, float) else format(float(value), _FLOAT_FMT)  # a count: 17 digits
            exc.args = (f"sweep point {args.param} = {point}: {exc}",)
            raise
        rows.append(tuple(_cells({column: value, **results}).values()))
    provenance = _provenance(constants, base.get("seed"), args.reproducible)

    out_path = Path(args.out_path)
    fd, tmp_name = tempfile.mkstemp(dir=out_path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as stream:
            write_result_csv(stream, provenance, [column, *results], rows)
        os.replace(tmp_name, out_path)
    except OSError:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    return 0


# --- parser -----------------------------------------------------------------


def _add_flags(parser: argparse._ActionsContainer, dests: tuple[str, ...], **helps: str) -> None:
    """Add the `_FLAGS` flags of `dests` in order; `helps` replaces a flag's help text, by dest."""
    for dest in dests:
        flag, kwargs = _FLAGS[dest]
        parser.add_argument(flag, dest=dest, **dict(kwargs, help=helps.get(dest, kwargs.get("help"))))


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line and exit code 2, like main()'s errors."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused: parsing only reads it.

    Each parse fills a fresh Namespace, every default is an immutable
    value, and argparse builds its help and usage formatters per call, so
    no call sees another's state.
    """
    parser = _Parser(
        prog="qredshift",
        description="Gravitational-redshift dephasing: channel numbers, protocol runs, sensing estimates.",
    )
    parser.add_argument("--seed", type=int, default=None, help="master seed for shot sampling")
    parser.add_argument("--constants-file", default=None, help="JSON file with constant overrides")
    parser.add_argument("--out", choices=("csv", "json"), default=None, help="stdout format")  # unset: csv
    parser.add_argument("--reproducible", action="store_true",
                        help="omit the timestamp so identical runs are byte-identical")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("redshift", help="single-qubit frequency shift and phase rate")
    _add_flags(p.add_mutually_exclusive_group(required=True), ("delta_x_m", "mass_kg"))
    _add_flags(p, ("distance_m", "freq_ghz"), freq_ghz="qubit frequency, GHz")

    p = sub.add_parser("protocol", help="run the phase-measurement protocol on a scenario file")
    p.add_argument("scenario", help="scenario JSON file")
    _add_flags(p, ("shots", "time_s", "backend"), shots="override run.shots", time_s="override run.time_s")

    p = sub.add_parser("gravimeter", help="delta-g sensitivity of a GHZ register")
    _add_flags(p, _ROWS["gravimeter"].params, time_s="accumulation time for --delta-g")

    p = sub.add_parser("strain", help="minimum detectable strain of a GHZ register")
    _add_flags(p, _ROWS["strain"].params, time_s="accumulation time for --strain")

    p = sub.add_parser("required-qubits", help="qubits needed to resolve the rotated-chip phase")
    _add_flags(p, _ROWS["required-qubits"].params)

    p = sub.add_parser("sweep", help="evaluate a target over a parameter grid, write CSV")
    p.add_argument("--target", choices=tuple(name for name, row in _ROWS.items() if row.sweep), required=True)
    p.add_argument("--param", choices=tuple(_PARAM_COLUMN), required=True)
    p.add_argument("--from", dest="sweep_from", type=_finite_float, required=True)
    p.add_argument("--to", dest="sweep_to", type=_finite_float, required=True)
    p.add_argument("--steps", type=_int_arg, required=True)
    p.add_argument("--log", action="store_true", help="log-spaced grid")
    p.add_argument("--out", dest="out_path", required=True, help="output CSV path")
    _add_flags(p, _SWEEP, shots="shots (default: the scenario's run.shots)",
               time_s="accumulation time, s (default: the scenario's run.time_s; 1e-3 for --target phase)")

    return parser


def _show_warning(message: Warning | str, *_: Any) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    with warnings.catch_warnings():  # restores showwarning for in-process callers
        warnings.showwarning = _show_warning
        try:
            return (_cmd_row if args.command in _ROWS else _cmd_sweep)(args)
        except (ValueError, ArithmeticError) as exc:  # ScenarioError is a ValueError
            code, error = 2, exc
        except ResourceCapError as exc:
            code, error = 3, exc
        except OSError as exc:
            code, error = 4, exc
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
