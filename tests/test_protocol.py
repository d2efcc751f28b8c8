"""Protocol: circuit construction, shot runs, estimator, phase sums."""

import functools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from qredshift import gravity, protocol, rng
from qredshift.branch import ancilla_probabilities, standard_pea_probabilities
from qredshift.constants import DEFAULT_CONSTANTS
from qredshift.gravity import (
    GravScenario,
    ProximalMass,
    ResourceCapError,
    UniformDeltaG,
    VerticalRotation,
    dephasing_angles,
    grid_chip,
    line_chip,
)
from qredshift.protocol import (
    BACKENDS,
    MAX_SHOTS,
    build_circuit,
    expected_delta_phi,
    run_protocol,
)
from qredshift.sensing import closed_form_phase
from qredshift.statevector import apply_gate, init_zero, probability_of

OMEGA_10GHZ = 2.0 * math.pi * 10e9
C2 = DEFAULT_CONSTANTS.c_squared
CHUNK = rng._COUNT_CHUNK  # uniforms per chunk of the streamed shot count


def angles_of(*theta: float) -> np.ndarray:
    return np.array(theta)


def delta_g_for_phase(target_phi: float, n: int, omega: float, t: float) -> float:
    return target_phi * C2 / (DEFAULT_CONSTANTS.earth_radius * t * omega * n)


def ghz_scenario(target_phi: float, n: int = 50, t: float = 1e-3) -> GravScenario:
    geom = line_chip(n, 1e-3, OMEGA_10GHZ)
    return GravScenario(geom, UniformDeltaG(delta_g_for_phase(target_phi, n, OMEGA_10GHZ, t)))


def x_targets(gates) -> list[int]:
    """Sites the circuit prepares in |1>: the minus sites of the sign partition."""
    return [k for g in gates if g.kind == "x" for k in g.targets]


def cx_targets(gates) -> list[int]:
    """Targets of the entangling and the disentangling controlled-X layers, in order."""
    return [k for g in gates if g.kind == "cx" for k in g.targets]


class TestPartition:
    """The sign partition, read off the circuit: X on the minus sites, CX on all sites."""

    def test_all_positive_is_ghz(self):
        gates = build_circuit(angles_of(0.1, 0.2, 0.3))
        assert x_targets(gates) == []
        assert cx_targets(gates) == [1, 2, 3] * 2

    def test_rotation_splits_at_midline(self):
        geom = line_chip(4, 1e-3, OMEGA_10GHZ)
        sc = GravScenario(geom, VerticalRotation(math.pi / 2))
        gates = build_circuit(dephasing_angles(sc, 1e-3))
        assert x_targets(gates) == [1, 2]  # upper half of the chip
        assert cx_targets(gates) == [1, 2, 3, 4] * 2  # the lower half (3, 4) stays plus

    def test_zeros_count_as_plus(self):
        gates = build_circuit(angles_of(0.0, 0.0))
        assert cx_targets(gates) == [1, 2] * 2
        assert x_targets(gates) == []

    def test_sets_partition_all_sites(self):
        rng = np.random.default_rng(17)
        theta = rng.normal(size=9)
        gates = build_circuit(angles_of(*theta))
        assert x_targets(gates) == list(np.flatnonzero(theta < 0) + 1)
        assert cx_targets(gates) == list(range(1, 10)) * 2


class TestCircuit:
    def test_single_qubit_plus_only(self):
        angles = angles_of(0.3)
        gates = build_circuit(angles)
        assert [g.kind for g in gates] == ["h", "s", "cx", "phase", "cx", "h"]

    def test_no_x_without_minus_sites(self):
        angles = angles_of(0.1, 0.2)
        gates = build_circuit(angles)
        assert all(g.kind != "x" for g in gates)

    def test_x_prepares_minus_sites(self):
        angles = angles_of(-0.1, 0.2, -0.3)
        assert x_targets(build_circuit(angles)) == [1, 3]

    def test_gate_count(self):
        # 3 single-qubit ancilla gates, one X gate when there are minus sites,
        # an entangling and a disentangling controlled-X fan-out, 1 phase
        rng = np.random.default_rng(23)
        for n in (1, 2, 5, 8):
            angles = angles_of(*rng.normal(size=n))
            minus = int(np.count_nonzero(angles < 0))
            gates = build_circuit(angles)
            assert len(gates) == 6 + (minus > 0)


class TestExpectedDeltaPhi:
    def test_hand_sum(self):
        assert expected_delta_phi(angles_of(0.1, -0.2)) == pytest.approx(0.3, abs=1e-15)

    def test_zeros(self):
        assert expected_delta_phi(angles_of(0.0, 0.0, 0.0)) == 0.0

    def test_equals_absolute_sum(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            theta = rng.normal(size=12)
            assert expected_delta_phi(angles_of(*theta)) == pytest.approx(
                float(np.abs(theta).sum()), rel=1e-14
            )

    def test_million_angles_match_fsum(self):
        theta = np.random.default_rng(53).normal(scale=1e-10, size=10**6)
        exact = math.fsum(np.abs(theta))
        assert abs(expected_delta_phi(theta) - exact) <= 1e-14 * exact

    def test_branch_phases_split(self):
        theta = np.array([0.5, -0.25, 0.125])
        phi_plus = float(theta[theta >= 0].sum())
        phi_minus = float(theta[theta < 0].sum())
        assert phi_plus == pytest.approx(0.625, abs=1e-15)
        assert phi_minus == pytest.approx(-0.25, abs=1e-15)
        assert expected_delta_phi(angles_of(*theta)) == pytest.approx(phi_plus - phi_minus, abs=1e-15)


class TestSineLaw:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_statevector_matches_analytic(self, n):
        rng = np.random.default_rng(600 + n)
        for _ in range(10):
            theta = rng.uniform(-3, 3, size=n)
            angles = angles_of(*theta)
            state = functools.reduce(apply_gate, build_circuit(angles), init_zero(n + 1))
            p1 = probability_of(state, 0, 1)
            assert abs(p1 - (0.5 + 0.5 * math.sin(expected_delta_phi(angles)))) < 1e-12

    def test_sign_flip_swaps_probabilities(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            theta = rng.normal(size=6)
            phi_plus = float(theta[theta >= 0].sum())
            phi_minus = float(theta[theta < 0].sum())
            p0, p1 = ancilla_probabilities(phi_plus - phi_minus)
            q0, q1 = ancilla_probabilities((-phi_plus) - (-phi_minus))
            assert q1 == pytest.approx(p0, abs=1e-15)
            assert q0 == pytest.approx(p1, abs=1e-15)

    def test_maximality_of_sign_partition(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            theta = rng.normal(size=10)
            best = expected_delta_phi(angles_of(*theta))
            for _ in range(100):
                mask = rng.integers(0, 2, size=10).astype(bool)
                alternative = abs(theta[mask].sum() - theta[~mask].sum())
                assert best >= alternative - 1e-12


class TestStandardPea:
    def test_endpoints(self):
        assert standard_pea_probabilities(0.0) == (1.0, 0.0)
        p0, p1 = standard_pea_probabilities(math.pi)
        assert p0 == pytest.approx(0.0, abs=1e-15)
        assert p1 == pytest.approx(1.0, abs=1e-15)

    def test_flat_at_origin_versus_linear_protocol(self):
        h = 1e-6
        cos_slope = (standard_pea_probabilities(h)[1] - standard_pea_probabilities(-h)[1]) / (2 * h)
        assert cos_slope == pytest.approx(0.0, abs=1e-6)
        up = ancilla_probabilities(h)[1]
        down = ancilla_probabilities(-h)[1]
        assert (up - down) / (2 * h) == pytest.approx(0.5, abs=1e-6)


class TestLinearReadout:
    """The readout is linear in the phase drift: the arcsine estimate of dphi is unbiased with RMSE 1/sqrt(N).

    A one-site UniformDeltaG chip tuned to dphi runs 400 times at N = 1e4
    shots, run i drawing its shots from substream_seed(SEED, i).  The
    cosine law of plain phase estimation, inverted through acos(1 - 2 p_hat)
    on the same shot streams, is biased low near 0 (p_hat rounds to a few
    counts).  Both laws carry unit Fisher information per shot, so its RMSE
    is not what tells them apart.
    """

    SEED, RUNS, SHOTS = 17, 400, 10**4

    @pytest.mark.parametrize("dphi", [1e-2, 3e-2, 0.1])
    def test_sine_readout_unbiased_at_the_shot_noise_limit(self, dphi):
        sc = ghz_scenario(dphi, n=1)
        estimates = np.array([run_protocol(sc, 1e-3, self.SHOTS, rng.substream_seed(self.SEED, i)).delta_phi_hat
                              for i in range(self.RUNS)])
        std_error = estimates.std(ddof=1) / math.sqrt(self.RUNS)
        assert abs(estimates.mean() - dphi) < 4 * std_error
        rmse = math.sqrt(np.mean((estimates - dphi) ** 2))
        assert 0.9 < rmse * math.sqrt(self.SHOTS) < 1.1

    def test_cosine_readout_biased_near_zero(self):
        dphi = 1e-2
        p_one = standard_pea_probabilities(dphi)[1]
        estimates = np.array([
            math.acos(1.0 - 2.0 * rng.count_below(rng.substream_seed(self.SEED, i), self.SHOTS, p_one) / self.SHOTS)
            for i in range(self.RUNS)])
        std_error = estimates.std(ddof=1) / math.sqrt(self.RUNS)
        assert estimates.mean() < dphi - 4 * std_error


class TestRunProtocol:
    def test_null_phase_statistics(self):
        outcome = run_protocol(ghz_scenario(0.0), 1e-3, 10**5, seed=7, backend="branch")
        assert outcome.analytic_delta_phi == 0.0
        assert abs(outcome.p_hat - 0.5) < 0.005  # 3 sigma at 1e5 shots

    def test_reference_phase_statistics(self):
        outcome = run_protocol(ghz_scenario(0.1), 1e-3, 10**6, seed=11, backend="branch")
        assert outcome.p_one == pytest.approx(0.5499167083234141, abs=1e-12)
        assert abs(outcome.p_hat - 0.5499167083234141) < 0.0015  # 3 sigma at 1e6 shots
        assert abs(outcome.delta_phi_hat - 0.1) < 3 * outcome.std_error

    def test_single_shot(self):
        with pytest.warns(UserWarning, match="saturat"):
            outcome = run_protocol(ghz_scenario(0.3), 1e-3, 1, seed=13)
        assert outcome.count_one in (0, 1)
        assert outcome.p_hat in (0.0, 1.0)
        assert outcome.saturated

    def test_seeded_determinism(self):
        a = run_protocol(ghz_scenario(0.2), 1e-3, 5000, seed=99)
        b = run_protocol(ghz_scenario(0.2), 1e-3, 5000, seed=99)
        assert a == b

    def test_p_hat_invariant(self):
        outcome = run_protocol(ghz_scenario(0.15), 1e-3, 4321, seed=3)
        assert outcome.p_hat == outcome.count_one / outcome.shots
        expected_std = math.sqrt(outcome.p_hat * (1 - outcome.p_hat) / outcome.shots) / (
            0.5 * math.cos(outcome.delta_phi_hat)
        )
        assert outcome.std_error == pytest.approx(expected_std, rel=1e-12)

    def test_backend_equivalence(self):
        for n, seed in [(2, 0), (5, 1), (9, 2), (12, 3)]:
            sc = ghz_scenario(0.25, n=n)
            a = run_protocol(sc, 1e-3, 2000, seed=seed, backend="branch")
            b = run_protocol(sc, 1e-3, 2000, seed=seed, backend="statevector")
            assert abs(a.p_one - b.p_one) < 1e-12
            assert a.count_one == b.count_one
            assert a.delta_phi_hat == b.delta_phi_hat

    @pytest.mark.parametrize("n", [16, 20])
    def test_backends_agree_on_multi_block_registers(self, n):
        # the dense benchmark's chip: a rotated line, 1 mm, 10 GHz, t = 1 s; 2^(n+1) amplitudes span many blocks
        sc = GravScenario(line_chip(n, 1e-3, OMEGA_10GHZ), VerticalRotation(math.pi / 2))
        a = run_protocol(sc, 1.0, 10_000, seed=n, backend="branch")
        b = run_protocol(sc, 1.0, 10_000, seed=n, backend="statevector")
        assert abs(a.p_one - b.p_one) <= 1e-12
        assert a.count_one == b.count_one

    def test_shot_sequences_identical_across_backends(self):
        sc = ghz_scenario(0.4, n=6)
        a = run_protocol(sc, 1e-3, 100, seed=5, backend="branch")
        b = run_protocol(sc, 1e-3, 100, seed=5, backend="statevector")
        seq_a = rng.shot_uniforms(5, 3000) < a.p_one
        seq_b = rng.shot_uniforms(5, 3000) < b.p_one
        np.testing.assert_array_equal(seq_a, seq_b)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_seed_outside_the_key_range_rejected(self, backend):
        # a Philox key is 128 bits; a seed outside them is an error, not masked into range
        for seed in (-1, 2**128, -(2**128)):
            with pytest.raises(ValueError, match=rf"seed must be in \[0, 2\^128\), got {seed}$"):
                run_protocol(ghz_scenario(0.2, n=4), 1e-3, 100, seed=seed, backend=backend)
        top = run_protocol(ghz_scenario(0.2, n=4), 1e-3, 100, seed=2**128 - 1, backend=backend)
        assert top.count_one == rng.count_below(2**128 - 1, 100, top.p_one)

    @pytest.mark.parametrize("value", [np.int64(100), np.uint16(100), 100.0, np.float64(100.0), "100", True])
    @pytest.mark.parametrize("name", ["shots", "seed"])
    def test_integer_arguments(self, name, value):
        # a numpy integer runs as the equal int; anything else is one TypeError naming the argument
        call = functools.partial(run_protocol, ghz_scenario(0.2, n=4), 1e-3)
        if isinstance(value, np.integer):
            assert call(**{"shots": 100, "seed": 100, name: value}) == call(shots=100, seed=100)
        else:
            with pytest.raises(TypeError, match=f"^{re.escape(f'{name} must be an integer, got {value!r}')}$"):
                call(**{"shots": 100, "seed": 100, name: value})

    @pytest.mark.parametrize("value", [np.int64(4), np.uint16(4), 4.0, np.float64(4.0), "4", True])
    @pytest.mark.parametrize("chip", [line_chip, grid_chip])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_integer_qubit_count(self, backend, chip, value):
        # a numpy integer builds the int's chip and runs alike; anything else is one TypeError naming qubit_count
        def run(n):
            scenario = GravScenario(chip(n, 1e-3, OMEGA_10GHZ), VerticalRotation(math.pi / 2))
            return run_protocol(scenario, 1e-3, 100, seed=1, backend=backend)

        if isinstance(value, np.integer):
            assert type(chip(value, 1e-3, OMEGA_10GHZ).qubit_count) is int
            assert run(value) == run(4)
        else:
            with pytest.raises(TypeError, match=f"^{re.escape(f'qubit_count must be an integer, got {value!r}')}$"):
                run(value)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_nan_time_rejected(self, backend):
        with pytest.raises(ValueError, match="^accumulation time t must be finite and >= 0, got nan$"):
            run_protocol(ghz_scenario(0.2, n=4), math.nan, 100, seed=1, backend=backend)

    def test_estimator_consistency_over_seeds(self):
        # 3 sigma coverage of the arcsine estimator at 1e4 shots
        sc = ghz_scenario(0.1)
        hits = 0
        for seed in range(200):
            outcome = run_protocol(sc, 1e-3, 10**4, seed=seed)
            if abs(outcome.delta_phi_hat - 0.1) < 3 * outcome.std_error:
                hits += 1
        assert hits >= 198

    def test_branch_sine_law_on_million_site_chip(self):
        n = 10**6
        sc = GravScenario(line_chip(n, 1e-3, OMEGA_10GHZ), VerticalRotation(math.pi / 2))
        outcome = run_protocol(sc, 3e-4, 1000, seed=8, backend="branch")
        closed = closed_form_phase(n, OMEGA_10GHZ, 1e-3, 3e-4)
        assert abs(outcome.p_one - (0.5 + 0.5 * math.sin(closed))) < 1e-12

    def test_statevector_cap_suggests_branch(self):
        sc = GravScenario(line_chip(30, 1e-3, OMEGA_10GHZ), UniformDeltaG(1e-6))
        with pytest.raises(ResourceCapError, match="branch"):
            run_protocol(sc, 1e-3, 10, seed=1, backend="statevector")

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="shots"):
            run_protocol(ghz_scenario(0.1), 1e-3, 0, seed=1)
        with pytest.raises(ValueError, match="backend"):
            run_protocol(ghz_scenario(0.1), 1e-3, 10, seed=1, backend="tensor")

    @pytest.mark.parametrize(
        "t, error, match",
        [(0.0, ValueError, "nan: .* undefined"), (1.0, ArithmeticError, "inf: the sum of .* overflows")],
    )
    def test_infinite_potential(self, t, error, match):
        sc = GravScenario(line_chip(8, 1e-3, OMEGA_10GHZ), ProximalMass(1e300, 1e-300))
        with pytest.raises(error, match=match):
            run_protocol(sc, t, 10, seed=1)

    def test_range_exceeded_flagged(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            outcome = run_protocol(ghz_scenario(2.0), 1e-3, 100, seed=1)
        assert outcome.range_exceeded
        assert abs(outcome.delta_phi_hat) <= math.pi / 2

    def test_saturated_estimate_warns(self):
        with pytest.warns(UserWarning, match="saturat"):
            outcome = run_protocol(ghz_scenario(math.pi / 2), 1e-3, 50, seed=2)
        assert outcome.saturated
        assert math.isnan(outcome.std_error)


class TestClosedFormPath:
    """A chip with one frequency runs the branch backend in O(1); the other paths build the angles."""

    @pytest.mark.parametrize("chip, geometry", [
        pytest.param(lambda: line_chip(10**13, 1e-3, OMEGA_10GHZ), "1d", id="line-1e13"),
        pytest.param(lambda: grid_chip(10**14, 1e-3, OMEGA_10GHZ), "2d", id="grid-1e14"),
    ])
    def test_no_per_site_array(self, monkeypatch, chip, geometry):
        def no_array(*args, **kwargs):
            raise AssertionError("the branch path of a uniform chip builds no per-site array")

        for name in ("full", "arange", "asarray"):
            monkeypatch.setattr(np, name, no_array)
        # Philox seeding calls np.asarray; the shot count is tested elsewhere
        monkeypatch.setattr(protocol, "count_below", lambda seed, count, threshold: count // 2)
        sc = GravScenario(chip(), VerticalRotation(math.pi / 2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the phase lies far outside the estimator range
            outcome = run_protocol(sc, 1e-12, 1000, seed=8, backend="branch")
        closed = closed_form_phase(sc.geometry.qubit_count, OMEGA_10GHZ, 1e-3, 1e-12, geometry)
        assert outcome.analytic_delta_phi == pytest.approx(closed, rel=1e-12)
        assert math.isfinite(outcome.p_one)
        assert outcome.p_one == 0.5 + 0.5 * math.sin(outcome.analytic_delta_phi)

    def test_dense_cap_checked_before_any_angle(self, monkeypatch):
        def no_angles(*args, **kwargs):
            raise AssertionError("no angle may be built above the dense cap")

        monkeypatch.setattr(protocol, "dephasing_angles", no_angles)
        for n in (30, 2 * 10**7):
            sc = GravScenario(line_chip(n, 1e-3, OMEGA_10GHZ), VerticalRotation(math.pi / 2))
            with pytest.raises(ResourceCapError, match="dense backend"):
                run_protocol(sc, 1e-3, 10, seed=1, backend="statevector")

    def test_array_paths_keep_the_site_cap(self, monkeypatch):
        per_site = line_chip(5, 1e-3, [OMEGA_10GHZ, 2 * OMEGA_10GHZ, OMEGA_10GHZ, OMEGA_10GHZ, OMEGA_10GHZ])
        uniform = line_chip(5, 1e-3, OMEGA_10GHZ)
        monkeypatch.setattr(gravity, "MAX_SITES", 4)
        pert = VerticalRotation(math.pi / 2)
        for chip, backend in ((per_site, "branch"), (per_site, "statevector"), (uniform, "statevector")):
            with pytest.raises(ResourceCapError, match="5 sites"):
                run_protocol(GravScenario(chip, pert), 1e-3, 10, seed=1, backend=backend)
        assert run_protocol(GravScenario(uniform, pert), 1e-3, 10, seed=1).analytic_delta_phi > 0.0

    def test_angle_sum_where_angles_are_built(self):
        per_site = line_chip(6, 1e-3, [4e10, 5e10, 6e10, 7e10, 8e10, 9e10])
        uniform = line_chip(6, 1e-3, OMEGA_10GHZ)
        for chip, backend in ((per_site, "branch"), (per_site, "statevector"), (uniform, "statevector")):
            sc = GravScenario(chip, VerticalRotation(0.8))
            outcome = run_protocol(sc, 1e-3, 10, seed=1, backend=backend)
            assert outcome.analytic_delta_phi == expected_delta_phi(dephasing_angles(sc, 1e-3))


def count_of(shots: int, seed: int) -> tuple[int, int]:
    """(streamed count_one of run_protocol, count of the materialised shot uniforms below p_one)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # one shot saturates the estimator
        outcome = run_protocol(ghz_scenario(0.1), 1e-3, shots, seed=seed)
    return outcome.count_one, int(np.count_nonzero(rng.shot_uniforms(seed, shots) < outcome.p_one))


class TestStreamedCount:
    @pytest.mark.parametrize("seed", [0, 1, 42, 2**64 + 5, 2**127 - 1])
    def test_count_equals_sample_outcomes(self, seed):
        streamed, materialised = count_of(700_001, seed)
        assert streamed == materialised

    @pytest.mark.parametrize("shots", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17, 10**7])
    def test_count_at_chunk_edges(self, shots):
        streamed, materialised = count_of(shots, seed=9)
        assert streamed == materialised

    def test_memory_does_not_grow_with_shots(self):
        # materialising 1e7 uniforms alone would trace 80 MB
        tracemalloc.start()
        try:
            run_protocol(ghz_scenario(0.1), 1e-3, 10**7, seed=4, backend="branch")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_shot_cap_checked_before_drawing(self, monkeypatch):
        monkeypatch.setattr(protocol, "count_below", lambda seed, count, threshold: count // 2)
        assert run_protocol(ghz_scenario(0.1), 1e-3, MAX_SHOTS, seed=1).count_one == MAX_SHOTS // 2
        with pytest.raises(ResourceCapError, match="shots"):
            run_protocol(ghz_scenario(0.1), 1e-3, MAX_SHOTS + 1, seed=1)


def rotated_line_phase(n: int, spacing: float, omega: float, t: float) -> float:
    """dphi of a line chip rotated from horizontal to vertical: the site sum of |theta_k|."""
    sc = GravScenario(line_chip(n, spacing, omega), VerticalRotation(math.pi / 2))
    return expected_delta_phi(dephasing_angles(sc, t))


class TestRotatedLinePhase:
    """The rotated line's site sum against sensing.closed_form_phase, g omega ell n^2 t / (4 c^2)."""

    def test_two_site_hand_sum(self):
        assert rotated_line_phase(2, 1.0, 1.0, 1.0) == pytest.approx(1.0911369672198217e-16, rel=1e-14)

    def test_closed_form_large_chip(self):
        closed = closed_form_phase(10**5, OMEGA_10GHZ, 1e-3, 1e-3, "1d")
        assert closed == pytest.approx(0.017139539401390194, rel=1e-14)
        # headline scale: ~1e5 qubits reach a 0.1 rad resolution within a factor 10
        assert 0.01 < closed < 1.0

    @pytest.mark.parametrize("n", [2, 4, 10, 100, 1000])
    def test_exact_equals_closed_form_for_uniform_even(self, n):
        # even n: the centered heights satisfy sum_k |x_k| = n^2 * spacing / 4
        exact = rotated_line_phase(n, 1e-3, OMEGA_10GHZ, 1e-3)
        assert exact / closed_form_phase(n, OMEGA_10GHZ, 1e-3, 1e-3, "1d") == pytest.approx(1.0, rel=1e-13)
