"""The benchmark's workloads: set-up, one op, and the checks on each op's outputs.

Every chip is a line of 1 mm spacing with 10 GHz qubits, rotated from
horizontal to vertical (a 90 degree VerticalRotation).  Op `i` draws its
shots from `rng.substream_seed(seed, i)`.

An op's record is a list with one entry per checked call; `check` turns
it into one status per entry: PASS, KNOWN_DEFECT or "fail: <reason>".
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qredshift import GravScenario, VerticalRotation, cli, line_chip, protocol, rng, scenario, sensing

PASS = "pass"
# A check that fails exactly the way a documented program defect predicts.
# It counts as failed; it does not make the run incorrect.
KNOWN_DEFECT = "known-defect"

FREQ_GHZ = 10.0
OMEGA = 2.0 * math.pi * 1e9 * FREQ_GHZ
SPACING_M = 1e-3
TOL = 1e-12
# Reference shot counts are taken in chunks no larger than this, so the
# checks never raise peak RSS above what the program itself reaches.
REFERENCE_CHUNK = 1_000_000
# `sweep --time-s` default.  `sweep --target protocol` uses it in place of
# the scenario's run.time_s (ROADMAP open item 4); the cli-session check
# names that case KNOWN_DEFECT.
CLI_SWEEP_DEFAULT_TIME_S = 1e-3


def fail(reason: str) -> str:
    return f"fail: {reason}"


def rotated_line(n: int) -> GravScenario:
    return GravScenario(line_chip(n, SPACING_M, OMEGA), VerticalRotation(math.pi / 2.0))


def sine_law(delta_phi: float) -> float:
    return 0.5 + 0.5 * math.sin(delta_phi)


def reference_count(seed: int, shots: int, p_one: float) -> int:
    """Shots with u_i < p_one, from the seeded stream read in bounded chunks."""
    count = 0
    for start in range(0, shots, REFERENCE_CHUNK):
        uniforms = rng.shot_uniforms(seed, min(REFERENCE_CHUNK, shots - start), start)
        count += int(np.count_nonzero(uniforms < p_one))
    return count


def check_run(n: int, t: float, shots: int, shot_seed: int, analytic: float, p_one: float, count_one: int) -> str:
    """PASS, or why one protocol run on the n-site chip disagrees with the closed form, the sine law or the shots."""
    closed = sensing.closed_form_phase(n, OMEGA, SPACING_M, t)
    if not math.isclose(analytic, closed, rel_tol=TOL, abs_tol=0.0):
        return fail(f"analytic dphi {analytic!r} != closed form {closed!r}")
    if abs(p_one - sine_law(analytic)) > TOL:
        return fail(f"p_one {p_one!r} off the sine law")
    expected = reference_count(shot_seed, shots, p_one)
    if count_one != expected:
        return fail(f"count_one {count_one} != reference {expected}")
    return PASS


def exact_run(scen: GravScenario, t: float, backend: str) -> tuple[float, float]:
    """(analytic dphi, p_one) of `run_protocol`; its single shot, and any warning about it, is ignored."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = protocol.run_protocol(scen, t, 1, 0, backend)
    return out.analytic_delta_phi, out.p_one


def _finite(rows: list[tuple]) -> bool:
    return all(math.isfinite(cell) for row in rows for cell in row if isinstance(cell, float))


class ProtocolWorkload:
    """One `run_protocol` call per op on a fixed chip; one checked call per op."""

    checks_per_op = 1

    # name: (backend, calibration kernel, {size: (register qubits, accumulation time s, shots)})
    SIZES = {
        "branch-large": ("branch", "python", {"full": (1_000_000, 3e-4, 10_000), "tiny": (1_000, 3e-4, 10_000)}),
        "shots-heavy": ("branch", "philox", {"full": (1_024, 1.0, 20_000_000), "tiny": (1_024, 1.0, 10_000)}),
        "dense": ("statevector", "memory", {"full": (20, 1.0, 10_000), "tiny": (10, 1.0, 10_000)}),
    }

    def __init__(self, name: str, seed: int, size: str, workdir: Path) -> None:
        self.backend, self.calibration, sizes = self.SIZES[name]
        self.n, self.t, self.shots = sizes[size]
        self.seed = seed
        self.scenario = rotated_line(self.n)

    def op(self, index: int) -> list:
        shot_seed = rng.substream_seed(self.seed, index)
        return [(shot_seed, protocol.run_protocol(self.scenario, self.t, self.shots, shot_seed, self.backend))]

    def counters(self, record: list) -> dict[str, float]:
        return {}

    @functools.cached_property
    def _branch_p_one(self) -> float:
        return exact_run(self.scenario, self.t, "branch")[1]

    def check(self, index: int, record: list) -> list[str]:
        ((shot_seed, out),) = record
        if self.backend == "statevector" and abs(out.p_one - self._branch_p_one) > TOL:
            return [fail(f"dense p_one {out.p_one!r} != branch p_one {self._branch_p_one!r}")]
        return [check_run(self.n, self.t, self.shots, shot_seed, out.analytic_delta_phi, out.p_one, out.count_one)]


@dataclass(frozen=True)
class Reply:
    """What one in-process CLI command produced."""

    code: int | str | None  # exit code, or the traceback of an exception
    stdout: str
    csv: str | None  # the CSV a sweep wrote, read back; None for other commands


class CliSession:
    """One op is a fixed session of seven `cli.main` calls; one checked call each."""

    checks_per_op = 7
    calibration = "python"

    # size: (scenario register qubits, scenario shots, last point of the protocol sweep)
    SIZES = {"full": (2_000, 100_000, 2e4), "tiny": (200, 10_000, 2e3)}
    TIME_S = 0.5
    SWEEP_POINTS = 9
    PHASE_POINTS = 50

    def __init__(self, name: str, seed: int, size: str, workdir: Path) -> None:
        self.n, self.shots, self.sweep_to = self.SIZES[size]
        self.seed = seed
        self.workdir = workdir
        self.scenario_path = workdir / "scenario.json"
        self.scenario_path.write_text(json.dumps({
            "version": 1,
            "geometry": {"layout": "line", "n": self.n, "spacing_m": SPACING_M, "orientation_deg": 0.0},
            "qubits": {"frequency_ghz": FREQ_GHZ},
            "perturbation": {"kind": "rotation", "angle_deg": 90.0},
            "run": {"time_s": self.TIME_S, "shots": self.shots, "seed": seed, "backend": "branch"},
        }))
        self.doc = scenario.load_scenario(self.scenario_path)
        self._references: dict[tuple[int, float], tuple[float, float]] = {}

    def _commands(self, index: int) -> list[tuple[list[str], Path | None]]:
        seed = str(rng.substream_seed(self.seed, index))
        scen = str(self.scenario_path)
        sweep_n = self.workdir / "sweep-n.csv"
        sweep_phase = self.workdir / "sweep-phase.csv"
        return [
            (["--reproducible", "--seed", seed, "protocol", scen], None),
            (["--reproducible", "--out", "json", "gravimeter", "--delta-g", "1e-6"], None),
            (["--reproducible", "strain", "--strain", "1e-3"], None),
            (["--reproducible", "required-qubits", "--geometry", "2d"], None),
            (["--reproducible", "redshift", "--delta-x", "0.01"], None),
            (["--reproducible", "--seed", seed, "sweep", "--target", "protocol", "--param", "n",
              "--from", "1e2", "--to", repr(self.sweep_to), "--steps", str(self.SWEEP_POINTS), "--log",
              "--scenario", scen, "--out", str(sweep_n)], sweep_n),
            (["--reproducible", "sweep", "--target", "phase", "--param", "n", "--from", "1e2",
              "--to", "1e6", "--steps", str(self.PHASE_POINTS), "--log", "--out", str(sweep_phase)],
             sweep_phase),
        ]

    def op(self, index: int) -> list[Reply]:
        replies = []
        for argv, csv_path in self._commands(index):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code: int | str | None = cli.main(argv)
                except SystemExit as exc:  # argparse rejected the argv
                    code = exc.code
                except Exception:  # one failing command must not end the session
                    code = traceback.format_exc()
            csv = None
            if csv_path is not None and code == 0:
                csv = csv_path.read_text(encoding="utf-8")
                csv_path.unlink()
            replies.append(Reply(code, out.getvalue(), csv))
        return replies

    def counters(self, record: list[Reply]) -> dict[str, float]:
        return {"cli.stdout_bytes": sum(len(reply.stdout.encode()) for reply in record)}

    def check(self, index: int, record: list[Reply]) -> list[str]:
        checkers = [
            self._check_protocol,
            self._check_json_row,
            self._check_csv_row,
            self._check_csv_row,
            self._check_csv_row,
            self._check_sweep_protocol,
            self._check_sweep_phase,
        ]
        statuses = []
        for checker, reply in zip(checkers, record):
            if reply.code != 0:
                statuses.append(fail(f"exit {reply.code!r}"))
            else:
                statuses.append(checker(index, reply))
        return statuses

    def _single_row(self, text: str) -> dict | None:
        _, columns, rows = cli.read_result_csv(text)
        if len(rows) != 1 or not _finite(rows):
            return None
        return dict(zip(columns, rows[0]))

    def _check_csv_row(self, index: int, reply: Reply) -> str:
        return PASS if self._single_row(reply.stdout) is not None else fail("not one finite row")

    def _check_json_row(self, index: int, reply: Reply) -> str:
        results = json.loads(reply.stdout)["results"]
        numbers = [v for v in results.values() if isinstance(v, float)]
        if "phase_rad" not in results or not all(math.isfinite(v) for v in numbers):
            return fail(f"bad gravimeter results {results!r}")
        return PASS

    def _check_protocol(self, index: int, reply: Reply) -> str:
        row = self._single_row(reply.stdout)
        if row is None:
            return fail("protocol: not one finite row")
        shot_seed = rng.substream_seed(self.seed, index)
        if row["seed"] != shot_seed or row["shots"] != self.shots:
            return fail(f"protocol ran seed {row['seed']}, shots {row['shots']}")
        return check_run(self.n, self.TIME_S, self.shots, shot_seed,
                         row["analytic_delta_phi_rad"], row["p_one"], row["count_one"])

    def _reference(self, n: int, time_s: float) -> tuple[float, float]:
        """(analytic dphi, p_one) of `run_protocol` on the scenario resized to n sites."""
        key = (n, time_s)
        if key not in self._references:
            geo = self.doc.scenario.geometry
            resized = GravScenario(
                line_chip(n, geo.spacing, float(geo.frequencies[0]), geo.orientation),
                self.doc.scenario.perturbation,
                self.doc.scenario.constants,
            )
            self._references[key] = exact_run(resized, time_s, self.doc.run.backend)
        return self._references[key]

    def _rows_match(self, rows: list[dict], shot_seed: int, time_s: float) -> bool:
        for point, row in enumerate(rows):
            analytic, p_one = self._reference(row["n"], time_s)
            if not math.isclose(row["analytic_delta_phi_rad"], analytic, rel_tol=TOL, abs_tol=0.0):
                return False
            if abs(row["p_one"] - p_one) > TOL:
                return False
            point_seed = rng.substream_seed(shot_seed, point)
            if row["count_one"] != reference_count(point_seed, self.doc.run.shots, p_one):
                return False
        return True

    def _check_sweep_protocol(self, index: int, reply: Reply) -> str:
        _, columns, table = cli.read_result_csv(reply.csv)
        rows = [dict(zip(columns, r)) for r in table]
        ns = [row["n"] for row in rows]
        if len(rows) != self.SWEEP_POINTS or not _finite(table) or ns != sorted(ns):
            return fail(f"protocol sweep: {len(rows)} rows, n = {ns}")
        shot_seed = rng.substream_seed(self.seed, index)
        if self._rows_match(rows, shot_seed, self.doc.run.time_s):
            return PASS
        if self._rows_match(rows, shot_seed, CLI_SWEEP_DEFAULT_TIME_S):
            return KNOWN_DEFECT
        return fail("protocol sweep rows match run_protocol at neither run.time_s nor the --time-s default")

    def _check_sweep_phase(self, index: int, reply: Reply) -> str:
        _, _, rows = cli.read_result_csv(reply.csv)
        if len(rows) != self.PHASE_POINTS or not _finite(rows):
            return fail(f"phase sweep: {len(rows)} rows")
        return PASS


WORKLOADS = {
    "branch-large": ProtocolWorkload,
    "shots-heavy": ProtocolWorkload,
    "dense": ProtocolWorkload,
    "cli-session": CliSession,
}


def make(name: str, seed: int, size: str, workdir: Path) -> ProtocolWorkload | CliSession:
    return WORKLOADS[name](name, seed, size, workdir)
