"""Property: for any finite inputs the CLI prints finite cells or one error line.

Every real-valued flag of redshift, gravimeter, strain, required-qubits and
sweep (targets phase, gravimeter, strain, required-qubits) is drawn from
all finite floats.  A run either exits 0 with every float cell finite, or
exits 2, 3 or 4 with exactly one `error:` line on stderr; no exception
escapes `main`.  The same holds for `protocol` on scenario files whose
numbers are drawn the same way, where the stderr of a run may also carry
`warning: ` lines and a saturated row keeps its documented NaN.  On
registers of at most 10 sites, uniform or per-site frequencies, the branch
and statevector backends print the same exit code and `error:` line, and
within the estimator range agree on `p_one` to 1e-12 and on `count_one`.
Those draws reach a sweep's compute path almost never, so sweeps that
draw only the flags their target reads, with positive moderate values and
a `--param` the target sweeps, must exit 0 with every cell finite.
"""

import contextlib
import io
import json
import math
import sys
import warnings
from math import isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from qredshift.cli import MAX_SWEEP_POINTS, main, read_result_csv
from qredshift.gravity import MAX_SITES
from qredshift.protocol import MAX_SHOTS

# all finite floats, weighted toward positive values where most commands succeed and
# toward the ends of the float range where results overflow or underflow
REALS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(1e-3, 1e3),
    st.floats(1e300, 1.7976931348623157e308),
    st.floats(5e-324, 1e-300),
)
INTEGERS = st.one_of(st.integers(), st.integers(1, 10**4), REALS)  # integer flags also see fractions
SENSING = {"--tc": REALS, "--freq-ghz": REALS, "--ell": REALS, "--phase-res": REALS}
GRAVIMETER_SENSING = {"--tc": REALS, "--freq-ghz": REALS, "--phase-res": REALS}


def flags(spec: dict) -> st.SearchStrategy[list[str]]:
    """Each flag of `spec` left out or given a drawn value (as `--flag=value`, so `-1e+300` is a value)."""
    parts = [st.one_of(st.just([]), values.map(lambda v, name=name: [f"{name}={v!r}"]))
             for name, values in spec.items()]
    return st.tuples(*parts).map(lambda lists: [arg for part in lists for arg in part])


def command(name: str, spec: dict, required: st.SearchStrategy = st.just([])) -> st.SearchStrategy:
    return st.tuples(required, flags(spec)).map(lambda pair: [name, *pair[0], *pair[1]])


REDSHIFT = command(
    "redshift", {"--distance": REALS, "--freq-ghz": REALS},
    st.tuples(st.sampled_from(["--delta-x", "--mass"]), REALS).map(lambda f: [f"{f[0]}={f[1]!r}"]),
)
GRAVIMETER = command("gravimeter", {"--n": INTEGERS, **GRAVIMETER_SENSING, "--delta-g": REALS, "--time-s": REALS})
STRAIN = command("strain", {"--n": INTEGERS, **SENSING, "--strain": REALS, "--time-s": REALS})
REQUIRED_QUBITS = command("required-qubits", SENSING, st.sampled_from([[], ["--geometry=2d"]]))
SWEPT = {
    "phase": ["n", "freq", "ell", "time"],
    "gravimeter": ["n", "tc", "freq"],
    "strain": ["n", "tc", "freq", "ell"],
    "required-qubits": ["tc", "freq", "ell"],
}
# a target and a --param, mostly one the target can sweep
TARGET_PARAM = st.sampled_from(sorted(SWEPT)).flatmap(
    lambda target: st.tuples(
        st.just(target),
        st.one_of(st.sampled_from(SWEPT[target]), st.sampled_from(["n", "tc", "freq", "ell", "shots", "time"])),
    )
)
SWEEP = command(
    "sweep",
    {"--n": INTEGERS, **SENSING, "--time-s": REALS},
    st.tuples(
        TARGET_PARAM,
        REALS,
        REALS,
        st.one_of(st.integers(2, 6), st.integers(-2, 6), st.integers(min_value=MAX_SWEEP_POINTS + 1)),
        st.sampled_from([[], ["--log"]]),
        st.sampled_from(["1d", "2d"]),
    ).map(lambda s: ["--target", s[0][0], "--param", s[0][1], f"--from={s[1]!r}", f"--to={s[2]!r}",
                     f"--steps={s[3]}", *s[4], "--geometry", s[5]]),
)


# the flags each sweep target reads (besides --geometry), with values at which every target computes;
# PARAM_FLAG is the flag of each --param, which a sweep of that param must leave out
POSITIVE = st.floats(1e-3, 1e3)
COUNTS = st.integers(1, 10**4)
READS = {
    "phase": {"--n": COUNTS, "--freq-ghz": POSITIVE, "--ell": POSITIVE, "--time-s": POSITIVE},
    "gravimeter": {"--n": COUNTS, "--tc": POSITIVE, "--freq-ghz": POSITIVE, "--phase-res": POSITIVE},
    "strain": {"--n": COUNTS, "--tc": POSITIVE, "--freq-ghz": POSITIVE, "--ell": POSITIVE, "--phase-res": POSITIVE},
    "required-qubits": {"--tc": POSITIVE, "--freq-ghz": POSITIVE, "--ell": POSITIVE, "--phase-res": POSITIVE},
}
PARAM_FLAG = {"n": "--n", "tc": "--tc", "freq": "--freq-ghz", "ell": "--ell", "time": "--time-s"}


@st.composite
def computing_sweeps(draw) -> list[str]:
    target = draw(st.sampled_from(sorted(SWEPT)))
    param = draw(st.sampled_from(SWEPT[target]))
    ends = COUNTS if param == "n" else POSITIVE
    geometry = ([], ["--geometry=1d"], ["--geometry=2d"]) if target in ("phase", "required-qubits") else ([],)
    return ["sweep", "--target", target, "--param", param, f"--from={draw(ends)!r}", f"--to={draw(ends)!r}",
            f"--steps={draw(st.integers(2, 6))}", *draw(st.sampled_from([[], ["--log"]])),
            *draw(st.sampled_from(geometry)),
            *draw(flags({flag: v for flag, v in READS[target].items() if flag != PARAM_FLAG[param]}))]


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    return tmp_path_factory.mktemp("property") / "sweep.csv"


def run_main(argv: list[str], sweep_csv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process run; a sweep writes to `sweep_csv`."""
    if "sweep" in argv:
        argv = [*argv, "--out", str(sweep_csv)]
        sweep_csv.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage error
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def float_cells(argv: list[str], stdout: str, sweep_csv) -> list[float]:
    if "sweep" in argv:
        rows = read_result_csv(sweep_csv.read_text(encoding="utf-8"))[2]
    elif "json" in argv:
        rows = [tuple(json.loads(stdout)["results"].values())]
    else:
        rows = read_result_csv(stdout)[2]
        assert len(rows) == 1
    return [cell for row in rows for cell in row if isinstance(cell, float)]


@settings(max_examples=200)
@given(
    st.sampled_from([[], ["--out", "json"]]),
    st.one_of(REDSHIFT, GRAVIMETER, STRAIN, REQUIRED_QUBITS, SWEEP, SWEEP),  # sweeps fail most often
)
def test_finite_cells_or_one_error_line(sweep_csv, out, argv):
    # the global --out is a row command's stdout format: a sweep given it exits 2 before any other check
    argv = ["--reproducible", *([] if argv[0] == "sweep" else out), *argv]
    code, stdout, stderr = run_main(argv, sweep_csv)
    if code == 0:
        cells = float_cells(argv, stdout, sweep_csv)
        assert all(math.isfinite(cell) for cell in cells), (argv, cells)
    else:
        assert code in (2, 3, 4), (argv, code)
        assert stdout == ""
        errors = [line for line in stderr.splitlines() if "error:" in line]
        assert len(errors) == 1, (argv, stderr)


# one computing sweep per target, pinned because the drawn examples shift with the source literals
# hypothesis reads
@example(argv=["sweep", "--target", "phase", "--param", "n", "--from=2", "--to=1000", "--steps=3", "--ell=0.001"])
@example(argv=["sweep", "--target", "gravimeter", "--param", "tc", "--from=0.001", "--to=1.0", "--steps=3", "--log",
               "--n=1000"])
@example(argv=["sweep", "--target", "strain", "--param", "ell", "--from=0.0001", "--to=0.01", "--steps=3",
               "--tc=0.001"])
@example(argv=["sweep", "--target", "required-qubits", "--param", "freq", "--from=4.0", "--to=8.0", "--steps=3",
               "--geometry=2d"])
@settings(max_examples=50)
@given(computing_sweeps())
def test_sweep_computes_finite_cells(sweep_csv, argv):
    code, _, stderr = run_main(["--reproducible", *argv], sweep_csv)
    assert code == 0, (argv, stderr)
    cells = float_cells(argv, "", sweep_csv)
    assert cells and all(math.isfinite(cell) for cell in cells), (argv, cells)


# site counts up to 4096, weighted toward the statevector backend's n <= 10, or above the site cap
SITES = st.one_of(st.integers(1, 10), st.integers(1, 4096), st.integers(MAX_SITES + 1, 10**15))
SIDES = st.one_of(st.integers(1, 3), st.integers(1, 64), st.integers(isqrt(MAX_SITES) + 1, isqrt(10**15)))
LAYOUTS = st.one_of(st.tuples(st.just("line"), SITES), st.tuples(st.just("grid"), SIDES.map(lambda m: m * m)))
PERTURBATIONS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("rotation"), "angle_deg": REALS}),
    st.fixed_dictionaries({"kind": st.just("delta_g"), "delta_g": REALS}),
    st.fixed_dictionaries({"kind": st.just("mass"), "mass_kg": REALS, "distance_m": REALS}),
    st.fixed_dictionaries({"kind": st.just("translation"), "delta_x_m": REALS}),
    st.fixed_dictionaries({"kind": st.just("strain"), "strain": REALS}, optional={"angle_deg": REALS}),
)
SHOTS = st.one_of(st.integers(1, 10**4), st.integers(MAX_SHOTS + 1, 10**15))


@st.composite
def scenarios(draw) -> dict:
    layout, n = draw(LAYOUTS)
    backend = draw(st.sampled_from(["branch", "statevector"])) if n <= 10 else "branch"
    return {
        "version": 1,
        "geometry": {"layout": layout, "n": n, "spacing_m": draw(REALS), "orientation_deg": draw(REALS)},
        "qubits": {"frequency_ghz": draw(REALS)},
        "perturbation": draw(PERTURBATIONS),
        "run": {"time_s": draw(REALS), "shots": draw(SHOTS), "seed": draw(st.integers(0, 2**64)),
                "backend": backend},
    }


def process_display(message, category, filename, lineno, file=None, line=None) -> None:
    """How a process shows a warning by default (pytest would record it instead)."""
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    return tmp_path_factory.mktemp("property") / "scenario.json"


@settings(max_examples=200)
@given(st.sampled_from([[], ["--out", "json"]]), scenarios())
def test_protocol_finite_cells_or_one_error_line(scenario_path, out, doc):
    scenario_path.write_text(json.dumps(doc), encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        warnings.showwarning = process_display
        code = main(["--reproducible", *out, "protocol", str(scenario_path)])
    lines = [line for line in stderr.getvalue().splitlines() if not line.startswith("warning: ")]
    if code == 0:
        assert lines == [], (doc, stderr.getvalue())
        if out:
            row = json.loads(stdout.getvalue())["results"]
        else:
            _, columns, rows = read_result_csv(stdout.getvalue())
            (values,) = rows
            row = dict(zip(columns, values))
        if row["saturated"]:
            assert math.isnan(row.pop("std_error_rad"))
        cells = [cell for cell in row.values() if isinstance(cell, float)]
        assert all(math.isfinite(cell) for cell in cells), (doc, row)
    else:
        assert code in (2, 3, 4), (doc, code)
        assert stdout.getvalue() == ""
        assert len(lines) == 1 and lines[0].startswith("error: "), (doc, stderr.getvalue())


# registers the statevector backend runs: n <= 10 on a line, 1, 4 or 9 sites on a grid
SMALL_LAYOUTS = st.one_of(st.tuples(st.just("line"), st.integers(1, 10)),
                          st.tuples(st.just("grid"), st.sampled_from([1, 4, 9])))


@st.composite
def small_scenarios(draw) -> dict:
    layout, n = draw(SMALL_LAYOUTS)
    return {
        "version": 1,
        "geometry": {"layout": layout, "n": n, "spacing_m": draw(REALS), "orientation_deg": draw(REALS)},
        "qubits": {"frequency_ghz": draw(st.one_of(REALS, st.lists(REALS, min_size=n, max_size=n)))},
        "perturbation": draw(PERTURBATIONS),
        "run": {"time_s": draw(REALS), "shots": draw(st.integers(1, 10**4)), "seed": draw(st.integers(0, 2**64))},
    }


def protocol_run(path, backend: str) -> tuple[int, dict | None, list[str]]:
    """(exit code, the result row or None, stderr lines other than warnings) of one protocol run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        warnings.showwarning = process_display
        code = main(["--reproducible", "protocol", str(path), "--backend", backend])
    lines = [line for line in stderr.getvalue().splitlines() if not line.startswith("warning: ")]
    if code != 0:
        return code, None, lines
    _, columns, (values,) = read_result_csv(stdout.getvalue())
    return code, dict(zip(columns, values)), lines


def small_doc(layout: str, n: int, spacing_m: float, frequency_ghz: float, perturbation: dict,
              time_s: float) -> dict:
    """One fixed small_scenarios document."""
    return {
        "version": 1,
        "geometry": {"layout": layout, "n": n, "spacing_m": spacing_m, "orientation_deg": 0.0},
        "qubits": {"frequency_ghz": frequency_ghz},
        "perturbation": perturbation,
        "run": {"time_s": time_s, "shots": 1000, "seed": 1},
    }


# g0 * x_k overflows on the outer grid rows only, not at the closed form's j = 1 coordinate
OUTER_OVERFLOW = ("grid", 9, 4.893498587044238e307, 10.0, {"kind": "rotation", "angle_deg": 202.0})


# Shapes that once split the backends (the outer_overflow and inf_omega files of
# tools/argv_matrix.py, and a one-site angle that overflows), pinned because the
# drawn examples shift with the source literals hypothesis reads.
@example(doc=small_doc(*OUTER_OVERFLOW, time_s=0.0))
@example(doc=small_doc(*OUTER_OVERFLOW, time_s=1.0))
@example(doc=small_doc("line", 1, 1e-3, 1e299, {"kind": "rotation", "angle_deg": 90.0}, 1e-3))
@example(doc=small_doc("line", 1, 1e-3, 10.0, {"kind": "delta_g", "delta_g": 1.09e25}, 3.7e283))
@settings(max_examples=150)  # two runs an example: about 1.6 s on a 2-vCPU machine
@given(small_scenarios())
def test_protocol_backends_agree(scenario_path, doc):
    scenario_path.write_text(json.dumps(doc), encoding="utf-8")
    code, row, lines = protocol_run(scenario_path, "branch")
    dense_code, dense_row, dense_lines = protocol_run(scenario_path, "statevector")
    assert (code, lines) == (dense_code, dense_lines), doc
    # beyond the estimator range the rounding of dphi, ~ n * eps * dphi, may exceed 1e-12 in sin(dphi)
    if code == 0 and not row["range_exceeded"]:
        assert abs(row["p_one"] - dense_row["p_one"]) <= 1e-12, (doc, row, dense_row)
        assert row["count_one"] == dense_row["count_one"], (doc, row, dense_row)
