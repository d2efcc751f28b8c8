"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete.  Closed-form reference numbers carry order-of-magnitude
tolerances (factor 10 unless noted) because they reproduce
one-significant-figure estimates; everything algebraic is checked at
1e-12.
"""

import functools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from qredshift.branch import ancilla_probabilities, standard_pea_probabilities
from qredshift.cli import main, read_result_csv
from qredshift.constants import DEFAULT_CONSTANTS
from qredshift.gravity import GravScenario, UniformDeltaG, VerticalRotation, dephasing_angles, line_chip
from qredshift.protocol import build_circuit, expected_delta_phi, run_protocol
from qredshift.rng import shot_uniforms
from qredshift.sensing import (
    closed_form_phase,
    gravimeter_sensitivity,
    required_qubits,
)
from qredshift.statevector import apply_channel, apply_gate, init_zero, probability_of

OMEGA_10GHZ = 2.0 * math.pi * 10e9
C2 = DEFAULT_CONSTANTS.c_squared


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f} s (budget {budget_s} s)"
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f} s)")


def assert_within_factor(value: float, reference: float, factor: float) -> None:
    assert value * reference > 0, f"{value} and {reference} differ in sign"
    ratio = abs(value / reference)
    assert 1.0 / factor <= ratio <= factor, f"{value} vs {reference}: off by {ratio:.3g}x"


def ghz_scenario(target_phi: float, n: int, t: float) -> GravScenario:
    delta_g = target_phi * C2 / (DEFAULT_CONSTANTS.earth_radius * t * OMEGA_10GHZ * n)
    return GravScenario(line_chip(n, 1e-3, OMEGA_10GHZ), UniformDeltaG(delta_g))


def test_criterion_1_protocol_exactness():
    with criterion(1, "dense circuit reproduces P(1) = 1/2 + sin(dphi)/2 to 1e-12", 5.0):
        rng = np.random.default_rng(20260810)
        for n in range(1, 11):
            for _ in range(50):
                theta = rng.uniform(-3.0, 3.0, size=n)
                state = functools.reduce(apply_gate, build_circuit(theta), init_zero(n + 1))
                p_one = probability_of(state, 0, 1)
                expected = 0.5 + 0.5 * math.sin(expected_delta_phi(theta))
                assert abs(p_one - expected) < 1e-12


def test_criterion_2_backend_equivalence():
    with criterion(2, "branch and statevector agree on P(1) and shot sequences", 10.0):
        for n in range(1, 13):
            for seed in range(20):
                scenario = ghz_scenario(0.05 + 0.01 * seed, n, 1e-3)
                a = run_protocol(scenario, 1e-3, 500, seed=seed, backend="branch")
                b = run_protocol(scenario, 1e-3, 500, seed=seed, backend="statevector")
                assert abs(a.p_one - b.p_one) < 1e-12
                assert a.count_one == b.count_one
                seq_a = shot_uniforms(seed, 500) < a.p_one
                seq_b = shot_uniforms(seed, 500) < b.p_one
                np.testing.assert_array_equal(seq_a, seq_b)


def test_criterion_3_channel_properties():
    with criterion(3, "channel preserves trace, diagonals, coherences; composes in time", 5.0):
        rng = np.random.default_rng(33)
        for n in range(1, 5):
            dim = 1 << n
            for _ in range(10):
                a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                rho = (a @ a.conj().T) / np.trace(a @ a.conj().T)
                rates = rng.uniform(-2.0, 2.0, size=n)
                t1, t2 = rng.uniform(0.1, 2.0, size=2)
                out = apply_channel(rho, rates * t1)
                assert abs(np.trace(out) - np.trace(rho)) < 1e-12
                np.testing.assert_array_equal(np.diag(out), np.diag(rho))
                np.testing.assert_allclose(np.abs(out), np.abs(rho), atol=1e-12)
                stepwise = apply_channel(out, rates * t2)
                direct = apply_channel(rho, rates * (t1 + t2))
                np.testing.assert_allclose(stepwise, direct, atol=1e-12)


def test_criterion_4_linear_versus_cosine_sensitivity():
    with criterion(4, "readout slope at zero phase: 1/2 linear protocol, 0 cosine baseline", 1.0):
        h = 1e-6
        up = ancilla_probabilities(h)[1]
        down = ancilla_probabilities(-h)[1]
        assert (up - down) / (2 * h) == pytest.approx(0.5, abs=1e-6)
        cos_up = standard_pea_probabilities(h)[1]
        cos_down = standard_pea_probabilities(-h)[1]
        assert (cos_up - cos_down) / (2 * h) == pytest.approx(0.0, abs=1e-6)


def test_criterion_5_reference_numbers():
    with criterion(5, "closed-form numbers match the published estimates", 1.0):
        from qredshift.gravity import ProximalMass, VerticalTranslation, potential_change, uniform_delta_phi

        def phase_rate(delta_x, omega):  # the angle of one raised qubit after 1 s
            return uniform_delta_phi(GravScenario(line_chip(1, 1e-3, omega), VerticalTranslation(delta_x)), 1.0)

        # transmon phase rate: 1 cm at 10 GHz vs 1e-7 rad/s
        rate = phase_rate(0.01, OMEGA_10GHZ)
        assert rate == pytest.approx(6.855815760556077e-08, rel=1e-12)
        assert_within_factor(rate, 1e-7, 10.0)

        # Th-229 phase rate: 1 mm at 2000 THz vs 1e-3 rad/s (factor 2)
        th_rate = phase_rate(1e-3, 2.0 * math.pi * 2000e12)
        assert th_rate == pytest.approx(1.3711631521112154e-3, rel=1e-12)
        assert_within_factor(th_rate, 1e-3, 2.0)

        # 1 cm vertical move vs 1e-18
        shift = potential_change(VerticalTranslation(0.01)) / C2
        assert shift == pytest.approx(1.0911369672198218e-18, rel=1e-12)
        assert_within_factor(shift, 1e-18, 10.0)

        # proximal mass vs -1e-23
        mass_shift = potential_change(ProximalMass(1e3, 0.1)) / C2
        assert mass_shift == pytest.approx(-7.426160269118664e-24, rel=1e-12)
        assert_within_factor(mass_shift, -1e-23, 10.0)

        # gravimeter: near-term vs 1e-2, future vs 1e-7
        near = gravimeter_sensitivity(1000, OMEGA_10GHZ, 1e-3)["delta_g_over_g"]
        assert near == pytest.approx(0.0022894610365567425, rel=1e-12)
        assert_within_factor(near, 1e-2, 10.0)
        future = gravimeter_sensitivity(10**5, OMEGA_10GHZ, 1.0)["delta_g_over_g"]
        assert future == pytest.approx(2.2894610365567428e-08, rel=1e-12)
        assert_within_factor(future, 1e-7, 10.0)

        # required qubits: 1e-3 s vs 1e5; 1 s vs 5000 (factor 2)
        short = required_qubits(OMEGA_10GHZ, 1e-3, 1e-3, geometry="1d")
        assert short["n_required"] == 241547
        assert_within_factor(float(short["n_required"]), 1e5, 10.0)
        long = required_qubits(OMEGA_10GHZ, 1e-3, 1.0, geometry="1d")
        assert long["n_required"] == 7639
        assert_within_factor(float(long["n_required"]), 5000.0, 2.0)

        # 2D threshold: a million qubits at T_c = 1 s clear 0.1 rad
        phase_2d = closed_form_phase(10**6, OMEGA_10GHZ, 1e-3, 1.0, "2d")
        assert phase_2d == pytest.approx(1.7139539401390194, rel=1e-12)
        assert phase_2d >= 0.1


def test_criterion_6_scaling_laws():
    with criterion(6, "log-log slopes: 2.00 for 1D chips, 1.50 for 2D", 2.0):
        counts = np.array([10, 20, 50, 100, 200, 500, 1000, 2000])
        chips = [line_chip(int(n), 1e-3, OMEGA_10GHZ) for n in counts]
        phases = np.array(
            [expected_delta_phi(dephasing_angles(GravScenario(chip, VerticalRotation(math.pi / 2)), 1e-3))
             for chip in chips]
        )
        slope_1d = np.polyfit(np.log(counts), np.log(phases), 1)[0]
        assert slope_1d == pytest.approx(2.0, abs=0.01)

        grid = np.geomspace(1e2, 1e8, 13)
        phases_2d = np.array([closed_form_phase(n, OMEGA_10GHZ, 1e-3, 1.0, "2d") for n in grid])
        slope_2d = np.polyfit(np.log(grid), np.log(phases_2d), 1)[0]
        assert slope_2d == pytest.approx(1.5, abs=0.01)


def test_criterion_7_estimator_statistics():
    with criterion(7, "3-sigma coverage and shot-noise floor at dphi = 0.1, 1e6 shots", 60.0):
        scenario = ghz_scenario(0.1, n=100, t=1e-3)
        estimates = []
        hits = 0
        for seed in range(200):
            outcome = run_protocol(scenario, 1e-3, 10**6, seed=seed, backend="branch")
            estimates.append(outcome.delta_phi_hat)
            if abs(outcome.delta_phi_hat - 0.1) < 3.0 * outcome.std_error:
                hits += 1
        assert hits >= 198  # >= 99% of 200 seeds

        p = 0.5 + 0.5 * math.sin(0.1)
        predicted = math.sqrt(p * (1 - p) / 10**6) / (0.5 * math.cos(0.1))
        empirical = float(np.std(estimates, ddof=1))
        assert abs(empirical - predicted) / predicted < 0.10


def test_criterion_8_cli_determinism(tmp_path, capsys):
    with criterion(8, "reproducible CLI runs are byte-identical; sweeps chunk-invariant", 10.0):
        scenario = {
            "version": 1,
            "geometry": {"layout": "line", "n": 8, "spacing_m": 1e-3, "orientation_deg": 0.0},
            "qubits": {"frequency_ghz": 10.0},
            "perturbation": {"kind": "rotation", "angle_deg": 90.0},
            "run": {"time_s": 1e-3, "shots": 10**5, "seed": 42, "backend": "branch"},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")

        assert main(["--reproducible", "protocol", str(path)]) == 0
        first = capsys.readouterr().out
        assert main(["--reproducible", "protocol", str(path)]) == 0
        second = capsys.readouterr().out
        assert first == second and first

        sweep_args = [
            "--reproducible", "sweep", "--target", "protocol", "--param", "time",
            "--from", "1e-4", "--to", "1e-3", "--steps", "4",
            "--scenario", str(path),
        ]
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(sweep_args + ["--out", str(out_a)]) == 0
        assert main(sweep_args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        provenance, _, rows = read_result_csv(out_a.read_text(encoding="utf-8"))
        assert len(rows) == 4 and "timestamp" not in provenance

        # shot streams are counter-based: chunked generation equals sequential,
        # so shot loops may be parallelized without changing any outcome
        full = shot_uniforms(42, 40_000)
        chunks = np.concatenate([shot_uniforms(42, 10_000, start=i * 10_000) for i in range(4)])
        np.testing.assert_array_equal(full, chunks)
