"""Property: for any finite flag values the CLI prints finite cells or one error line.

Every real-valued flag of redshift, gravimeter, strain, required-qubits and
sweep (targets phase, gravimeter, strain, required-qubits) is drawn from
all finite floats.  A run either exits 0 with every float cell finite, or
exits 2, 3 or 4 with exactly one `error:` line on stderr; no exception
escapes `main`.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from qredshift.cli import MAX_SWEEP_POINTS, main, read_result_csv

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
GRAVIMETER = command("gravimeter", {"--n": INTEGERS, **SENSING, "--delta-g": REALS, "--time-s": REALS})
STRAIN = command("strain", {"--n": INTEGERS, **SENSING, "--strain": REALS, "--time-s": REALS})
REQUIRED_QUBITS = command("required-qubits", SENSING, st.sampled_from([[], ["--geometry=2d"]]))
SWEPT = {
    "phase": ["n", "freq", "ell", "time"],
    "gravimeter": ["n", "tc", "freq", "ell"],
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


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    return tmp_path_factory.mktemp("property") / "sweep.csv"


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
    argv = ["--reproducible", *out, *argv]
    if "sweep" in argv:
        argv += ["--out", str(sweep_csv)]
        sweep_csv.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage error
            code = exc.code
    if code == 0:
        cells = float_cells(argv, stdout.getvalue(), sweep_csv)
        assert all(math.isfinite(cell) for cell in cells), (argv, cells)
    else:
        assert code in (2, 3, 4), (argv, code)
        assert stdout.getvalue() == ""
        errors = [line for line in stderr.getvalue().splitlines() if "error:" in line]
        assert len(errors) == 1, (argv, stderr.getvalue())
