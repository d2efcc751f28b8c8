"""Sensing figures of merit against frozen closed-form values."""

import math

import numpy as np
import pytest

from qredshift.gravity import GravScenario, UniformDeltaG, VerticalRotation, dephasing_angles, line_chip
from qredshift.protocol import expected_delta_phi
from qredshift.sensing import (
    SensingConfig,
    closed_form_phase,
    gravimeter_phase,
    gravimeter_sensitivity,
    min_detectable_strain,
    required_qubits,
    strain_phase,
)

OMEGA_10GHZ = 2.0 * math.pi * 10e9


def near_term(n=1000, tc=1e-3, **kwargs) -> SensingConfig:
    return SensingConfig(n=n, mean_frequency=OMEGA_10GHZ, coherence_time=tc, **kwargs)


class TestGravimeterPhase:
    def test_zero_delta_g(self):
        assert gravimeter_phase(near_term(), 0.0, 1e-3) == 0.0

    def test_reference_tenth_radian(self):
        phase = gravimeter_phase(near_term(), 0.02245, 1e-3)
        assert phase == pytest.approx(0.09999134563034137, rel=1e-14)

    def test_linearity_in_n(self):
        single = gravimeter_phase(near_term(n=1000), 0.01, 1e-3)
        double = gravimeter_phase(near_term(n=2000), 0.01, 1e-3)
        assert double == pytest.approx(2 * single, rel=1e-14)

    def test_warns_beyond_coherence(self):
        with pytest.warns(UserWarning, match="coherence") as record:
            gravimeter_phase(near_term(tc=1e-3), 0.01, 2e-3)
        assert record[0].filename == __file__

    def test_matches_protocol_stack(self):
        # a uniform delta-g scenario accumulates exactly the gravimeter phase
        n, t = 64, 1e-3
        geom = line_chip(n, 1e-3, OMEGA_10GHZ)
        scenario = GravScenario(geom, UniformDeltaG(3.7e-4))
        dphi = expected_delta_phi(dephasing_angles(scenario, t))
        config = near_term(n=n)
        assert dphi == pytest.approx(gravimeter_phase(config, 3.7e-4, t), rel=1e-12)


class TestGravimeterSensitivity:
    def test_near_term_values(self):
        report = gravimeter_sensitivity(near_term())
        assert report.sensitivity["delta_g"] == pytest.approx(0.02245194307414918, rel=1e-14)
        assert report.sensitivity["delta_g_over_g"] == pytest.approx(
            0.0022894610365567425, rel=1e-14
        )

    def test_future_values(self):
        report = gravimeter_sensitivity(near_term(n=10**5, tc=1.0))
        assert report.sensitivity["delta_g_over_g"] == pytest.approx(
            2.2894610365567428e-08, rel=1e-14
        )

    def test_scaling_inverse_in_n_and_tc(self):
        base = gravimeter_sensitivity(near_term()).sensitivity["delta_g"]
        assert gravimeter_sensitivity(near_term(n=2000)).sensitivity["delta_g"] == pytest.approx(
            base / 2, rel=1e-14
        )
        assert gravimeter_sensitivity(near_term(tc=2e-3)).sensitivity["delta_g"] == pytest.approx(
            base / 2, rel=1e-14
        )

    def test_round_trip_randomized(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            config = SensingConfig(
                n=int(rng.integers(1, 10**6)),
                mean_frequency=rng.uniform(1e9, 1e12),
                coherence_time=rng.uniform(1e-4, 10.0),
                phase_resolution=rng.uniform(1e-3, 1.0),
            )
            delta_g = gravimeter_sensitivity(config).sensitivity["delta_g"]
            phase = gravimeter_phase(config, delta_g, config.coherence_time)
            assert phase == pytest.approx(config.phase_resolution, rel=1e-9)


class TestRequiredQubits:
    def test_near_term_1d(self):
        result = required_qubits(near_term(n=1), "1d")
        assert result.n == 241547  # ~2.4e5
        assert result.length == pytest.approx(241.547, rel=1e-12)

    def test_future_1d(self):
        result = required_qubits(near_term(n=1, tc=1.0), "1d")
        assert result.n == 7639
        assert result.length == pytest.approx(7.639, rel=1e-12)

    def test_2d_threshold_check(self):
        phase = closed_form_phase(10**6, OMEGA_10GHZ, 1e-3, 1.0, "2d")
        assert phase == pytest.approx(1.7139539401390194, rel=1e-14)
        assert phase >= 0.1

    def test_2d_trades_qubits_for_size(self):
        config = near_term(n=1, tc=1.0)
        one_d = required_qubits(config, "1d")
        two_d = required_qubits(config, "2d")
        assert two_d.n > one_d.n  # weaker scaling needs more qubits...
        assert two_d.length < one_d.length  # ...but a much smaller chip

    def test_inverse_check_even_lattice(self):
        # the returned count reaches the resolution; two fewer falls short
        config = near_term(n=1, tc=1.0)
        result = required_qubits(config, "1d")
        n_even = result.n + result.n % 2
        def rotated_phase(n: int) -> float:
            sc = GravScenario(line_chip(n, config.spacing, OMEGA_10GHZ), VerticalRotation(math.pi / 2))
            return expected_delta_phi(dephasing_angles(sc, config.coherence_time))

        assert rotated_phase(n_even) >= config.phase_resolution
        assert rotated_phase(n_even - 2) < config.phase_resolution

    def test_bad_geometry(self):
        with pytest.raises(ValueError, match="geometry must be '1d' or '2d', got '3d'"):
            required_qubits(near_term(), "3d")
        with pytest.raises(ValueError, match="geometry must be '1d' or '2d', got '3d'"):
            closed_form_phase(100, OMEGA_10GHZ, 1e-3, 1.0, "3d")

    @pytest.mark.parametrize("geometry", ["1d", "2d"])
    def test_at_least_one_qubit_when_the_scale_underflows(self, geometry):
        result = required_qubits(near_term(n=1, tc=1e300), geometry)
        assert result.n == 1
        assert result.length == pytest.approx(1e-3, rel=1e-15)

    @pytest.mark.parametrize("geometry", ["1d", "2d"])
    def test_count_beyond_float_range_names_n_required(self, geometry):
        with pytest.raises(OverflowError, match="n_required = inf"):
            required_qubits(near_term(n=1, tc=1e-320), geometry)


class TestStrain:
    def test_baseline_phase(self):
        phase = strain_phase(near_term(), 1e-3, 0.0)
        assert phase == pytest.approx(6.855815760556078e-9, rel=1e-14)

    def test_linear_response(self):
        base = strain_phase(near_term(), 1e-3, 0.0)
        assert strain_phase(near_term(), 1e-3, 0.5) == pytest.approx(1.5 * base, rel=1e-14)

    def test_full_compression_limit(self):
        base = strain_phase(near_term(), 1e-3, 0.0)
        eps = 1e-9
        assert strain_phase(near_term(), 1e-3, -1 + eps) == pytest.approx(base * eps, rel=1e-6)

    def test_strain_bound(self):
        with pytest.raises(ValueError, match="strain"):
            strain_phase(near_term(), 1e-3, 1.0)

    def test_warns_beyond_coherence(self):
        with pytest.warns(UserWarning, match="accumulation time 1.0 s exceeds the coherence time 0.001 s") as record:
            strain_phase(near_term(tc=1e-3), 1.0, 1e-9)
        assert record[0].filename == __file__  # the warning names the caller, as gravimeter_phase's does

    def test_min_detectable_reference(self):
        report = min_detectable_strain(near_term())
        assert report.sensitivity["min_strain"] == pytest.approx(14586156.263903009, rel=1e-12)
        # far above the ~1e-6 resolved by MEMS strain gauges
        assert report.sensitivity["min_strain"] > 1e6

    def test_resolution_scaling(self):
        base = min_detectable_strain(near_term()).sensitivity["min_strain"]
        halved = min_detectable_strain(near_term(phase_resolution=0.05)).sensitivity["min_strain"]
        assert halved == pytest.approx(base / 2, rel=1e-14)

    def test_qubit_count_scaling(self):
        base = min_detectable_strain(near_term(n=1000)).sensitivity["min_strain"]
        doubled = min_detectable_strain(near_term(n=2000)).sensitivity["min_strain"]
        assert doubled == pytest.approx(base / 2, rel=1e-14)


class TestMonotonicity:
    @pytest.mark.parametrize(
        "field,values",
        [
            ("n", [10, 100, 1000, 10**4]),
            ("coherence_time", [1e-4, 1e-3, 1e-2, 1.0]),
            ("mean_frequency", [1e9, 1e10, 1e11, 1e12]),
        ],
    )
    def test_sensitivities_improve(self, field, values):
        kwargs = {"n": 1000, "mean_frequency": OMEGA_10GHZ, "coherence_time": 1e-3}
        results = []
        for value in values:
            kwargs[field] = value
            config = SensingConfig(**kwargs)
            results.append(
                (
                    gravimeter_sensitivity(config).sensitivity["delta_g"],
                    min_detectable_strain(config).sensitivity["min_strain"],
                )
            )
        for prev, cur in zip(results, results[1:]):
            assert cur[0] < prev[0]
            assert cur[1] < prev[1]

    def test_required_qubits_drop_with_coherence(self):
        counts = [required_qubits(near_term(n=1, tc=tc), "1d").n for tc in (1e-3, 1e-2, 1e-1, 1.0)]
        assert counts == sorted(counts, reverse=True)


class TestConfigValidation:
    def test_positive_fields(self):
        with pytest.raises(ValueError):
            SensingConfig(n=0, mean_frequency=1.0, coherence_time=1.0)
        with pytest.raises(ValueError, match="coherence_time"):
            SensingConfig(n=1, mean_frequency=1.0, coherence_time=0.0)
