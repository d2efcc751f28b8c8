"""A fixed matrix of `qredshift` commands and the golden file of their outputs.

    python3 tools/argv_matrix.py --write

replays every command in process through `qredshift.cli.main`, imported
from this checkout's `src`, and writes the records to
tests/data/argv_matrix.jsonl, which tests/test_argv_matrix.py replays the
same way and compares.  Each command runs in a temporary directory that
holds the scenario and constants files the matrix uses, valid or not, with
COLUMNS=80 so that argparse wraps `--help` alike on every terminal.  A
record is one JSON line: argv, exit code, stdout, stderr and the text of
the sweep file the command wrote (null when it wrote none), with the
temporary directory replaced by `<tmp>`.  A change that moves output bytes
regenerates the file, and `--write` prints each command whose record it
added, removed or changed, with the changed fields; a CSV field whose
header held, or JSON object whose keys held, names the cells that moved,
as `stdout(count_one)` or `stdout(results.count_one)`.
Standard library only, apart from qredshift itself.
"""

from __future__ import annotations

import io
import json
import os
import shlex
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "argv_matrix.jsonl"
SWEEP_FILE = "sweep.csv"


def _scenario(geometry=None, qubits=None, perturbation=None, run=None, **extra) -> dict:
    doc = {
        "version": 1,
        "geometry": {"layout": "line", "n": 8, "spacing_m": 1e-3, "orientation_deg": 0.0},
        "qubits": {"frequency_ghz": 10.0},
        "perturbation": {"kind": "rotation", "angle_deg": 90.0},
        "run": {"time_s": 1e-3, "shots": 100000, "seed": 42, "backend": "branch"},
    }
    for key, value in (("geometry", geometry), ("qubits", qubits), ("perturbation", perturbation), ("run", run)):
        if value is not None:
            doc[key] = value
    doc.update(extra)
    return doc


_RUN_1S = {"time_s": 1.0, "shots": 1000, "seed": 1, "backend": "branch"}
_RUN_SV = {"time_s": 1e-3, "shots": 100000, "seed": 42, "backend": "statevector"}
_RUN_0S = {"time_s": 0, "shots": 1000, "seed": 1, "backend": "branch"}
_PER_SITE = {"frequency_ghz": [4.0, 4.5, 5.0, 5.5, 6.0, 6.5, 7.0, 7.5]}
_INF_POTENTIAL = {"kind": "mass", "mass_kg": 1e300, "distance_m": 1e-300}

FILES = {
    "rotation.json": _scenario(),
    "delta_g.json": _scenario(perturbation={"kind": "delta_g", "delta_g": 1e-3}, run=_RUN_1S),
    "mass.json": _scenario(perturbation={"kind": "mass", "mass_kg": 1000.0, "distance_m": 0.1}, run=_RUN_1S),
    "translation.json": _scenario(perturbation={"kind": "translation", "delta_x_m": 0.01}, run=_RUN_1S),
    "strain.json": _scenario(perturbation={"kind": "strain", "strain": 1e-6, "angle_deg": 30.0}),
    "grid.json": _scenario(geometry={"layout": "grid", "n": 9, "spacing_m": 1e-3, "orientation_deg": 10.0}),
    "sv.json": _scenario(run=_RUN_SV),
    # dense registers of several 2^15-amplitude blocks: 17, 21 and 17 qubits
    "sv_16.json": _scenario(geometry={"layout": "line", "n": 16, "spacing_m": 1e-3, "orientation_deg": 0.0},
                            run=_RUN_SV),
    "sv_20.json": _scenario(geometry={"layout": "line", "n": 20, "spacing_m": 1e-3, "orientation_deg": 10.0},
                            run=_RUN_SV),
    "sv_grid.json": _scenario(geometry={"layout": "grid", "n": 16, "spacing_m": 1e-3, "orientation_deg": 10.0},
                              run=_RUN_SV),
    "strain_default_angle.json": _scenario(perturbation={"kind": "strain", "strain": 1e-6}),
    "per_site.json": _scenario(qubits=_PER_SITE),
    "constants.json": _scenario(constants={"c": 3.0e8, "g0": 9.81}),
    "saturated.json": _scenario(run={"time_s": 1e-3, "shots": 1, "seed": 3, "backend": "branch"}),
    "range.json": _scenario(perturbation={"kind": "delta_g", "delta_g": 10.0}, run=_RUN_1S),
    "overflow.json": _scenario(qubits={"frequency_ghz": 1e8}, perturbation={"kind": "delta_g", "delta_g": 1e300},
                               run=_RUN_1S),
    # -G M / d overflows to -inf; 0 s times it is undefined, 1 s times it overflows
    "nan_dphi.json": _scenario(perturbation=_INF_POTENTIAL, run=_RUN_0S),
    "nan_dphi_per_site.json": _scenario(qubits=_PER_SITE, perturbation=_INF_POTENTIAL, run=_RUN_0S),
    "inf_dphi.json": _scenario(perturbation=_INF_POTENTIAL, run=_RUN_1S),
    "inf_dphi_per_site.json": _scenario(qubits=_PER_SITE, perturbation=_INF_POTENTIAL, run=_RUN_1S),
    # g0 * x_k overflows on the outer grid rows, not at the closed form's j = 1 coordinate
    "outer_overflow.json": _scenario(geometry={"layout": "grid", "n": 9, "spacing_m": 4.893498587044238e307,
                                               "orientation_deg": 0.0},
                                     perturbation={"kind": "rotation", "angle_deg": 202.0}, run=_RUN_1S),
    # 2 pi 1e9 * 1e299 GHz overflows the angular frequency
    "inf_omega.json": _scenario(geometry={"layout": "line", "n": 1, "spacing_m": 1e-3, "orientation_deg": 0.0},
                                qubits={"frequency_ghz": 1e299}),
    "huge_n.json": _scenario(geometry={"layout": "line", "n": 10**13, "spacing_m": 1e-3, "orientation_deg": 0.0}),
    # the sensing scales `required-qubits` reports at T_c = 1 ms: 241 547 sites (1D), 3879^2 sites (2D)
    "paper_1d.json": _scenario(geometry={"layout": "line", "n": 241547, "spacing_m": 1e-3, "orientation_deg": 0.0}),
    "paper_2d.json": _scenario(geometry={"layout": "grid", "n": 3879**2, "spacing_m": 1e-3, "orientation_deg": 0.0}),
    "digits_400.json": _scenario(geometry={"layout": "line", "n": 10**400, "spacing_m": 1e-3, "orientation_deg": 0.0}),
    "dense_cap.json": _scenario(geometry={"layout": "line", "n": 30, "spacing_m": 1e-3, "orientation_deg": 0.0}),
    "unknown_key.json": _scenario(geometry={"layout": "line", "n": 8, "spacing_m": 1e-3, "frobnicate": 1}),
    "bad_layout.json": _scenario(geometry={"layout": "ring", "n": 8, "spacing_m": 1e-3}),
    "negative_seed.json": _scenario(run={"time_s": 1e-3, "shots": 100000, "seed": -1, "backend": "branch"}),
    "consts.json": {"c": 299792458.0, "g0": 9.81},
    "bad_consts.json": {"c": True},
    # documents of the wrong shape or with out-of-range values
    "list.json": [],
    "geometry_list.json": _scenario(geometry=[]),
    "constants_list.json": _scenario(constants=[]),
    "zero_G.json": _scenario(constants={"G": 0}),
    "zero_n.json": _scenario(geometry={"layout": "line", "n": 0, "spacing_m": 1e-3, "orientation_deg": 0.0}),
    "float_n.json": _scenario(geometry={"layout": "line", "n": 2.5, "spacing_m": 1e-3, "orientation_deg": 0.0}),
    "bool_shots.json": _scenario(run={"time_s": 1e-3, "shots": True, "seed": 42, "backend": "branch"}),
    "negative_time.json": _scenario(run={"time_s": -1, "shots": 100000, "seed": 42, "backend": "branch"}),
    "list_kind.json": _scenario(perturbation={"kind": []}),
    "negative_c.json": {"c": -1},
    "earth_mass.json": {"earth_mass": 5.972e24},
}
# files no JSON reader accepts: nesting beyond the recursion limit, bytes that are not UTF-8
RAW_FILES = {"nested.json": b"[" * 2000, "undecodable.json": b"\xff{}"}

R = "--reproducible"


def _sweep(target: str, param: str, start: str, stop: str, steps: str = "3", *extra: str) -> list[str]:
    return [R, "sweep", "--target", target, "--param", param, f"--from={start}", f"--to={stop}",
            "--steps", steps, "--out", SWEEP_FILE, *extra]


def commands() -> list[list[str]]:
    cmds: list[list[str]] = []
    for out in ("csv", "json"):
        cmds += [
            [R, "--out", out, "redshift", "--delta-x", "0.01", "--freq-ghz", "10"],
            [R, "--out", out, "redshift", "--mass", "1000", "--distance", "0.1"],
            [R, "--out", out, "gravimeter", "--n", "1e3", "--tc", "1e-3", "--freq-ghz", "10"],
            [R, "--out", out, "gravimeter", "--delta-g", "1e-7", "--time-s", "1e-3"],
            [R, "--out", out, "strain"],
            [R, "--out", out, "strain", "--strain", "1e-9", "--time-s", "1"],
            [R, "--out", out, "required-qubits", "--geometry", "1d", "--tc", "1"],
            [R, "--out", out, "required-qubits", "--geometry", "2d", "--tc", "1e-3"],
        ]
    cmds += [
        [R, "redshift", "--delta-x", "0"],
        [R, "--constants-file", "consts.json", "redshift", "--delta-x", "0.01"],
        [R, "--constants-file", "consts.json", "gravimeter", "--n", "100"],
        [R, "--constants-file", "consts.json", "strain", "--n", "100"],
        [R, "--constants-file", "consts.json", "required-qubits", "--geometry", "2d"],
        [R, "--constants-file", "bad_consts.json", "gravimeter"],
        [R, "--constants-file", "missing.json", "gravimeter"],
        [R, "required-qubits", "--tc", "1e300"],
    ]
    # protocol: every perturbation kind and layout on both backends, plus overrides
    for name in ("rotation", "delta_g", "mass", "translation", "strain", "strain_default_angle", "grid", "per_site",
                 "constants", "nan_dphi", "nan_dphi_per_site", "inf_dphi", "inf_dphi_per_site", "outer_overflow",
                 "inf_omega"):
        for backend in ("branch", "statevector"):
            cmds.append([R, "protocol", f"{name}.json", "--backend", backend])
    cmds += [
        [R, "--out", "json", "protocol", "rotation.json"],
        [R, "--out", "json", "protocol", "per_site.json", "--backend", "statevector"],
        [R, "--seed", "7", "protocol", "rotation.json"],
        [R, "--seed", "7", "protocol", "rotation.json", "--backend", "statevector"],
        [R, "protocol", "rotation.json", "--shots", "262145", "--time-s", "2e-3"],
        [R, "protocol", "sv_16.json"],
        [R, "protocol", "sv_20.json"],
        [R, "protocol", "sv_grid.json"],
        [R, "protocol", "saturated.json"],
        [R, "protocol", "saturated.json", "--backend", "statevector"],
        [R, "protocol", "range.json"],
        [R, "protocol", "range.json", "--backend", "statevector"],
        [R, "protocol", "overflow.json"],
        [R, "protocol", "overflow.json", "--backend", "statevector"],
        [R, "protocol", "huge_n.json"],
        [R, "protocol", "huge_n.json", "--backend", "statevector"],
        [R, "protocol", "paper_1d.json"],
        [R, "protocol", "paper_2d.json"],
        [R, "protocol", "digits_400.json"],
        [R, "protocol", "dense_cap.json", "--backend", "statevector"],
        [R, "protocol", "rotation.json", "--shots", "1e11"],
        [R, "protocol", "rotation.json", "--shots", "0"],
        [R, "protocol", "rotation.json", "--shots", "2.7"],
        [R, "protocol", "unknown_key.json"],
        [R, "protocol", "bad_layout.json"],
        [R, "protocol", "missing.json"],
    ]
    # sweeps: every target/param pair, linear and log, both geometries, both backends
    cmds += [
        _sweep("gravimeter", "n", "10", "1000"),
        _sweep("gravimeter", "n", "10", "1000", "3", "--log"),
        _sweep("gravimeter", "tc", "1e-4", "1e-2", "3", "--log"),
        _sweep("gravimeter", "freq", "4", "8"),
        _sweep("gravimeter", "ell", "1e-4", "1e-2", "3", "--geometry", "2d"),
        _sweep("strain", "n", "10", "1000", "4"),
        _sweep("strain", "tc", "1e-4", "1e-2"),
        _sweep("strain", "freq", "4", "8", "3", "--log"),
        _sweep("strain", "ell", "1e-4", "1e-2"),
        _sweep("required-qubits", "tc", "1e-4", "1", "3", "--log"),
        _sweep("required-qubits", "freq", "4", "8", "3", "--geometry", "2d"),
        _sweep("required-qubits", "ell", "1e-4", "1e-2"),
        _sweep("phase", "n", "2", "100"),
        _sweep("phase", "n", "4", "400", "3", "--geometry", "2d"),
        _sweep("phase", "freq", "4", "8", "3", "--time-s", "1"),
        _sweep("phase", "ell", "1e-4", "1e-2", "3", "--log"),
        _sweep("phase", "time", "1e-3", "1", "3", "--log"),
        _sweep("protocol", "n", "2", "8", "4", "--scenario", "rotation.json"),
        _sweep("protocol", "n", "2", "8", "4", "--scenario", "sv.json"),
        [R, "--seed", "5", *_sweep("protocol", "freq", "4", "8", "3", "--scenario", "rotation.json")[1:]],
        _sweep("protocol", "freq", "4", "8", "3", "--scenario", "sv.json", "--shots", "5000"),
        _sweep("protocol", "ell", "1e-4", "1e-2", "3", "--scenario", "delta_g.json", "--log"),
        _sweep("protocol", "shots", "1", "1000", "3", "--scenario", "rotation.json"),
        _sweep("protocol", "shots", "10", "1e5", "3", "--scenario", "mass.json", "--log"),
        _sweep("protocol", "time", "1e-3", "1", "3", "--scenario", "translation.json"),
        _sweep("protocol", "time", "1e-3", "1", "3", "--scenario", "sv.json", "--shots", "1000"),
        _sweep("protocol", "ell", "1e-4", "1e-2", "2", "--scenario", "strain.json", "--time-s", "1"),
        _sweep("protocol", "time", "1", "2", "2", "--scenario", "overflow.json"),
        _sweep("protocol", "n", "2", "1e13", "2", "--scenario", "rotation.json"),
        _sweep("protocol", "n", "1e3", "1e13", "6", "--scenario", "rotation.json", "--log", "--time-s", "1e-15"),
        _sweep("protocol", "n", "2", "8"),
        # a sweep point replaces one field of the scenario's own chip, which then validates it
        _sweep("protocol", "freq", "4", "8", "3", "--scenario", "grid.json"),
        _sweep("protocol", "n", "4", "16", "2", "--scenario", "grid.json"),
        _sweep("protocol", "n", "4", "16", "3", "--scenario", "grid.json"),
        _sweep("protocol", "ell", "1e-4", "1e-2", "3", "--scenario", "grid.json", "--log"),
        _sweep("protocol", "freq", "4", "8", "3", "--scenario", "per_site.json"),
        _sweep("protocol", "ell", "1e-4", "1e-2", "3", "--scenario", "per_site.json"),
        _sweep("protocol", "n", "2", "8", "2", "--scenario", "per_site.json"),
        _sweep("phase", "n", "1", "1e300", "2"),
        _sweep("gravimeter", "n", "1", "1e300", "3"),
        _sweep("phase", "freq", "-1.7e308", "1.7e308", "3"),
        _sweep("phase", "n", "1", "2", "1e7"),
        _sweep("phase", "n", "1", "2", "2.5"),
        _sweep("required-qubits", "n", "1", "2"),
    ]
    cmds += [
        ["redshift", "--mass", "10"],
        ["redshift", "--delta-x", "1", "--mass", "1"],
        ["redshift", "--delta-x", "nan"],
        ["redshift", "--mass", "1e300", "--distance", "1e-300"],
        ["gravimeter", "--tc", "inf"],
        ["gravimeter", "--tc", "1e-320"],
        ["gravimeter", "--n", "2.7"],
        [R, "strain", "--tc", "1e300"],
        [R, "strain", "--tc", "1e300", "--n", "1e20"],
        [R, "gravimeter", "--delta-g", "1e300", "--time-s", "1", "--n", "1"],
        [R, "gravimeter", "--tc", "1e300", "--n", "1e300"],
        # counts beyond 2^53 echo as floats
        [R, "strain", "--strain", "1e-3", "--n", "1e300"],
        [R, "strain", "--ell", "1e308", "--strain", "0.9"],  # the strained spacing overflows
        [R, "--out", "json", "gravimeter", "--n", "1e30"],
        ["required-qubits", "--tc", "1e-320"],
        ["frobnicate"],
        [],
        ["--help"],
        *([name, "--help"] for name in ("redshift", "protocol", "gravimeter", "strain", "required-qubits", "sweep")),
    ]
    # --constants-file on scenario runs, input files that do not decode, negative accumulation times
    scenario_sweep = _sweep("protocol", "n", "2", "8", "2", "--scenario", "rotation.json")[1:]
    for constants in ("consts.json", "missing.json"):
        cmds += [[R, "--constants-file", constants, "protocol", "rotation.json"],
                 [R, "--constants-file", constants, *scenario_sweep]]
    for name in RAW_FILES:
        cmds += [[R, "protocol", name], [R, "--constants-file", name, "gravimeter"]]
    cmds += [
        [R, "gravimeter", "--delta-g", "1", "--time-s=-1"],
        [R, "strain", "--strain", "0.1", "--time-s=-1"],
        [R, "strain", "--strain", "1", "--time-s", "1"],
        _sweep("phase", "time", "-1", "1"),
    ]
    # flags no phase or run of the command reads
    cmds += [
        [R, "gravimeter", "--time-s=-1"],
        [R, "strain", "--time-s", "1"],
        [R, "redshift", "--delta-x", "1", "--distance", "2"],
        _sweep("gravimeter", "n", "10", "100", "2", "--time-s=-5"),
        _sweep("strain", "tc", "1e-4", "1e-2", "2", "--time-s", "1"),
        _sweep("required-qubits", "tc", "1e-4", "1e-2", "2", "--time-s", "1"),
        _sweep("phase", "n", "2", "10", "2", "--scenario", "missing.json", "--shots", "3"),
        # flags with a default, and the swept parameter's own flag
        _sweep("protocol", "freq", "4", "8", "2", "--scenario", "grid.json", "--geometry", "2d", "--tc", "5",
               "--n", "3"),
        _sweep("phase", "n", "2", "10", "2", "--tc", "5", "--phase-res", "3"),
        _sweep("required-qubits", "tc", "1e-4", "1e-2", "2", "--n", "77"),
        _sweep("strain", "freq", "4", "8", "2", "--geometry", "2d"),
        _sweep("gravimeter", "n", "10", "100", "2", "--n", "77"),
        _sweep("gravimeter", "n", "10", "100", "2", "--ell", "1e-3"),
        [R, "gravimeter", "--ell", "1e-3"],
    ]
    # errors raised at one sweep point
    cmds += [
        _sweep("gravimeter", "n", "0.4", "10", "2"),
        _sweep("phase", "n", "-4", "4"),
        _sweep("phase", "ell", "-1", "1"),
        _sweep("phase", "freq", "-10", "10"),
        _sweep("protocol", "n", "2", "30", "2", "--scenario", "sv.json"),
    ]
    # seeds outside [0, 2^128), rejected rather than masked into range
    cmds += [
        [R, "--seed", "-1", "protocol", "rotation.json"],
        [R, "--seed", str(2**128), "protocol", "rotation.json"],
        [R, "protocol", "negative_seed.json"],
        [R, "--seed", "5", "protocol", "negative_seed.json"],
        [R, "--seed", "-1", *_sweep("protocol", "n", "2", "8", "2", "--scenario", "rotation.json")[1:]],
    ]
    # --seed on commands that draw no shots, the global --out on sweep
    cmds += [
        [R, "--seed", "-1", "gravimeter"],
        [R, "--seed", "5", "redshift", "--delta-x", "1"],
        [R, "--seed", "5", "strain"],
        [R, "--seed", "0", "required-qubits"],
        *([R, "--seed", "5", *_sweep(target, param, "1", "10", "2")[1:]] for target, param in
          (("phase", "n"), ("gravimeter", "tc"), ("strain", "ell"), ("required-qubits", "freq"))),
        [R, "--out", "json", *_sweep("phase", "n", "2", "10", "2")[1:]],
        [R, "--out", "csv", *_sweep("protocol", "n", "2", "8", "2", "--scenario", "rotation.json")[1:]],
    ]
    # input errors: wrong document shapes and values, a non-numeric flag, a log grid through zero
    cmds += [
        *([R, "protocol", name] for name in ("list.json", "geometry_list.json", "constants_list.json",
                                              "zero_G.json", "zero_n.json", "float_n.json", "bool_shots.json",
                                              "negative_time.json", "list_kind.json")),
        [R, "--constants-file", "negative_c.json", "gravimeter"],
        [R, "--constants-file", "list.json", "gravimeter"],
        [R, "gravimeter", "--tc", "abc"],
        _sweep("gravimeter", "n", "-1", "10", "3", "--log"),
        _sweep("gravimeter", "n", "10", "100", "1"),
    ]
    # a seed that differs from 5 only from bit 64 up, a constant no formula reads
    cmds += [
        [R, "--seed", str(5 + 2**64), *_sweep("protocol", "freq", "4", "8", "3", "--scenario", "rotation.json")[1:]],
        [R, "--constants-file", "earth_mass.json", "gravimeter"],
    ]
    return cmds


def write_files(workdir: Path) -> None:
    """Write the matrix's input files into `workdir`."""
    for name, doc in FILES.items():
        (workdir / name).write_text(json.dumps(doc), encoding="utf-8")
    for name, content in RAW_FILES.items():
        (workdir / name).write_bytes(content)


def replay(argv: list[str], workdir: Path) -> dict:
    """Run one command in process in `workdir` (which holds the input files) and return its record."""
    from qredshift.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with patch.dict(os.environ, COLUMNS="80"), redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors and --help
                code = exc.code
    finally:
        os.chdir(cwd)
    sweep_path = workdir / SWEEP_FILE
    sweep = sweep_path.read_text(encoding="utf-8") if sweep_path.exists() else None
    sweep_path.unlink(missing_ok=True)

    def scrub(text: str | None) -> str | None:
        return None if text is None else text.replace(str(workdir), "<tmp>")

    return {"argv": argv, "exit": code, "stdout": scrub(stdout.getvalue()), "stderr": scrub(stderr.getvalue()),
            "sweep": scrub(sweep)}


def _moved_keys(old: object, new: object, path: str) -> list[str]:
    """The dotted paths below `path` of the leaves in which JSON value `new` differs from `old`."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        return [moved for key in old for moved in _moved_keys(old[key], new[key], f"{path}.{key}")]
    return [] if old == new else [path]


def _moved_cells(old: object, new: object) -> list[str]:
    """The JSON keys, or CSV columns in header order, of the cells in which text `new` differs from `old`.

    Empty unless both are texts that hold one JSON object with the same
    keys, or the same lines apart from cells under one shared CSV header,
    the first line that is not a `#` comment.
    """
    if not (isinstance(old, str) and isinstance(new, str)):
        return []
    try:
        old_doc, new_doc = json.loads(old), json.loads(new)
    except ValueError:
        pass
    else:
        moved = _moved_keys(old_doc, new_doc, "")
        return [] if "" in moved else [key[1:] for key in moved]  # "": the documents differ at the top
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        return []
    header, moved = None, set()
    for old_line, new_line in zip(old_lines, new_lines):
        if header is None and not old_line.startswith("#"):
            header = old_line.split(",")
        if old_line == new_line:
            continue
        old_cells, new_cells = old_line.split(","), new_line.split(",")
        if header is None or old_line == ",".join(header) or not len(old_cells) == len(new_cells) == len(header):
            return []
        moved.update(index for index, (a, b) in enumerate(zip(old_cells, new_cells)) if a != b)
    return [header[index] for index in sorted(moved)]


def changed_fields(old: dict, new: dict) -> list[str]:
    """The fields of record `old` that `new` changed, each with its moved JSON keys or CSV columns if known."""
    fields = []
    for field in ("exit", "stdout", "stderr", "sweep"):
        if old[field] != new[field]:
            cells = _moved_cells(old[field], new[field])
            fields.append(f"{field}({', '.join(cells)})" if cells else field)
    return fields


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args != ["--write"]:
        print("usage: python3 tools/argv_matrix.py --write", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory(prefix="argv_matrix_") as tmp:
        workdir = Path(tmp).resolve()
        write_files(workdir)
        records = [replay(cmd, workdir) for cmd in commands()]
    old = {}
    if GOLDEN.exists():
        old = {shlex.join(record["argv"]): record
               for record in map(json.loads, GOLDEN.read_text(encoding="utf-8").splitlines())}
    moved = 0
    for record in records:
        command = shlex.join(record["argv"])
        before = old.pop(command, None)
        fields = ["added"] if before is None else changed_fields(before, record)
        if fields:
            moved += 1
            print(f"{command}: {' '.join(fields)}")
    for command in old:
        print(f"{command}: removed")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(json.dumps(record, sort_keys=True) + "\n" for record in records), encoding="utf-8")
    print(f"{len(records)} commands -> {GOLDEN.relative_to(ROOT)}; {moved} added or changed, {len(old)} removed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
