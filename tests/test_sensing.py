"""Sensing figures of merit against frozen closed-form values."""

import math

import numpy as np
import pytest

from qredshift.gravity import (
    GravScenario,
    UniformDeltaG,
    UniformStrain,
    VerticalRotation,
    VerticalTranslation,
    dephasing_angles,
    grid_chip,
    line_chip,
    uniform_delta_phi,
)
from qredshift.protocol import expected_delta_phi
from qredshift.sensing import (
    closed_form_phase,
    gravimeter_phase,
    gravimeter_sensitivity,
    min_detectable_strain,
    required_qubits,
    strain_phase,
)

OMEGA_10GHZ = 2.0 * math.pi * 10e9


class TestGravimeterPhase:
    def test_zero_delta_g(self):
        assert gravimeter_phase(1000, OMEGA_10GHZ, 0.0, 1e-3) == 0.0

    def test_reference_tenth_radian(self):
        phase = gravimeter_phase(1000, OMEGA_10GHZ, 0.02245, 1e-3)
        assert phase == pytest.approx(0.09999134563034137, rel=1e-14)

    def test_linearity_in_n(self):
        single = gravimeter_phase(1000, OMEGA_10GHZ, 0.01, 1e-3)
        double = gravimeter_phase(2000, OMEGA_10GHZ, 0.01, 1e-3)
        assert double == pytest.approx(2 * single, rel=1e-14)

    def test_matches_protocol_stack(self):
        # a uniform delta-g scenario accumulates exactly the gravimeter phase
        n, t = 64, 1e-3
        geom = line_chip(n, 1e-3, OMEGA_10GHZ)
        scenario = GravScenario(geom, UniformDeltaG(3.7e-4))
        dphi = expected_delta_phi(dephasing_angles(scenario, t))
        assert dphi == pytest.approx(gravimeter_phase(n, OMEGA_10GHZ, 3.7e-4, t), rel=1e-12)


class TestGravimeterSensitivity:
    def test_near_term_values(self):
        result = gravimeter_sensitivity(1000, OMEGA_10GHZ, 1e-3)
        assert result["delta_g"] == pytest.approx(0.02245194307414918, rel=1e-14)
        assert result["delta_g_over_g"] == pytest.approx(
            0.0022894610365567425, rel=1e-14
        )

    def test_future_values(self):
        result = gravimeter_sensitivity(10**5, OMEGA_10GHZ, 1.0)
        assert result["delta_g_over_g"] == pytest.approx(
            2.2894610365567428e-08, rel=1e-14
        )

    def test_scaling_inverse_in_n_and_tc(self):
        base = gravimeter_sensitivity(1000, OMEGA_10GHZ, 1e-3)["delta_g"]
        assert gravimeter_sensitivity(2000, OMEGA_10GHZ, 1e-3)["delta_g"] == pytest.approx(
            base / 2, rel=1e-14
        )
        assert gravimeter_sensitivity(1000, OMEGA_10GHZ, 2e-3)["delta_g"] == pytest.approx(
            base / 2, rel=1e-14
        )

    def test_round_trip_randomized(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = int(rng.integers(1, 10**6))
            omega = rng.uniform(1e9, 1e12)
            tc = rng.uniform(1e-4, 10.0)
            resolution = rng.uniform(1e-3, 1.0)
            delta_g = gravimeter_sensitivity(n, omega, tc, resolution)["delta_g"]
            phase = gravimeter_phase(n, omega, delta_g, tc)
            assert phase == pytest.approx(resolution, rel=1e-9)

    def test_unit_phase_beyond_float_range_names_delta_g(self):
        # the phase at delta_g = 1 overflows to inf, which would make delta_g 0
        with pytest.raises(ArithmeticError, match=r"^delta_g = 0\.0: the phase at delta_g = 1 overflows$"):
            gravimeter_sensitivity(int(1e300), OMEGA_10GHZ, 1e300)


class TestRequiredQubitCount:
    def test_near_term_1d(self):
        result = required_qubits(OMEGA_10GHZ, 1e-3, 1e-3, geometry="1d")
        assert result["n_required"] == 241547  # ~2.4e5
        assert result["length_m"] == pytest.approx(241.547, rel=1e-12)

    def test_future_1d(self):
        result = required_qubits(OMEGA_10GHZ, 1e-3, 1.0, geometry="1d")
        assert result["n_required"] == 7639
        assert result["length_m"] == pytest.approx(7.639, rel=1e-12)

    def test_2d_threshold_check(self):
        phase = closed_form_phase(10**6, OMEGA_10GHZ, 1e-3, 1.0, "2d")
        assert phase == pytest.approx(1.7139539401390194, rel=1e-14)
        assert phase >= 0.1

    def test_2d_trades_qubits_for_size(self):
        one_d = required_qubits(OMEGA_10GHZ, 1e-3, 1.0, geometry="1d")
        two_d = required_qubits(OMEGA_10GHZ, 1e-3, 1.0, geometry="2d")
        assert two_d["n_required"] > one_d["n_required"]  # weaker scaling needs more qubits...
        assert two_d["length_m"] < one_d["length_m"]  # ...but a much smaller chip

    def test_inverse_check_even_lattice(self):
        # the returned count reaches the resolution; two fewer falls short
        spacing, tc, resolution = 1e-3, 1.0, 0.1
        result = required_qubits(OMEGA_10GHZ, spacing, tc, resolution, "1d")
        n_even = result["n_required"] + result["n_required"] % 2
        def rotated_phase(n: int) -> float:
            sc = GravScenario(line_chip(n, spacing, OMEGA_10GHZ), VerticalRotation(math.pi / 2))
            return expected_delta_phi(dephasing_angles(sc, tc))

        assert rotated_phase(n_even) >= resolution
        assert rotated_phase(n_even - 2) < resolution

    def test_bad_geometry(self):
        with pytest.raises(ValueError, match="geometry must be '1d' or '2d', got '3d'"):
            required_qubits(OMEGA_10GHZ, 1e-3, 1e-3, geometry="3d")
        with pytest.raises(ValueError, match="geometry must be '1d' or '2d', got '3d'"):
            closed_form_phase(100, OMEGA_10GHZ, 1e-3, 1.0, "3d")

    @pytest.mark.parametrize("geometry", ["1d", "2d"])
    def test_at_least_one_qubit_when_the_scale_underflows(self, geometry):
        result = required_qubits(OMEGA_10GHZ, 1e-3, 1e300, geometry=geometry)
        assert result["n_required"] == 1
        assert result["length_m"] == pytest.approx(1e-3, rel=1e-15)

    @pytest.mark.parametrize("geometry", ["1d", "2d"])
    def test_count_beyond_float_range_names_n_required(self, geometry):
        with pytest.raises(OverflowError, match="n_required = inf"):
            required_qubits(OMEGA_10GHZ, 1e-3, 1e-320, geometry=geometry)


class TestStrain:
    def test_baseline_phase(self):
        phase = strain_phase(1000, OMEGA_10GHZ, 1e-3, 0.0, 1e-3)
        assert phase == pytest.approx(6.855815760556078e-9, rel=1e-14)

    def test_linear_response(self):
        base = strain_phase(1000, OMEGA_10GHZ, 1e-3, 0.0, 1e-3)
        assert strain_phase(1000, OMEGA_10GHZ, 1e-3, 0.5, 1e-3) == pytest.approx(1.5 * base, rel=1e-14)

    def test_full_compression_limit(self):
        base = strain_phase(1000, OMEGA_10GHZ, 1e-3, 0.0, 1e-3)
        eps = 1e-9
        assert strain_phase(1000, OMEGA_10GHZ, 1e-3, -1 + eps, 1e-3) == pytest.approx(base * eps, rel=1e-6)

    def test_strain_bound(self):
        with pytest.raises(ValueError, match="strain"):
            strain_phase(1000, OMEGA_10GHZ, 1e-3, 1.0, 1e-3)

    def test_strained_spacing_overflow_names_its_inputs(self):
        # 1e308 * 1.9 leaves the float range: the error names the arguments, not the translation built from them
        with pytest.raises(ArithmeticError, match=r"^spacing \* \(1 \+ strain\) = inf: the strained spacing overflows"):
            strain_phase(10, OMEGA_10GHZ, 1e308, 0.9, 1e-3)
        assert math.isfinite(strain_phase(10, OMEGA_10GHZ, 1e308, -0.9, 1e-3))

    def test_min_detectable_reference(self):
        result = min_detectable_strain(1000, OMEGA_10GHZ, 1e-3, 1e-3)
        assert result["min_strain"] == pytest.approx(14586156.263903009, rel=1e-12)
        # far above the ~1e-6 resolved by MEMS strain gauges
        assert result["min_strain"] > 1e6

    def test_resolution_scaling(self):
        base = min_detectable_strain(1000, OMEGA_10GHZ, 1e-3, 1e-3)["min_strain"]
        halved = min_detectable_strain(1000, OMEGA_10GHZ, 1e-3, 1e-3, phase_resolution=0.05)["min_strain"]
        assert halved == pytest.approx(base / 2, rel=1e-14)

    def test_qubit_count_scaling(self):
        base = min_detectable_strain(1000, OMEGA_10GHZ, 1e-3, 1e-3)["min_strain"]
        doubled = min_detectable_strain(2000, OMEGA_10GHZ, 1e-3, 1e-3)["min_strain"]
        assert doubled == pytest.approx(base / 2, rel=1e-14)


class TestEquivalentChips:
    """Each estimate is the channel of its equivalent chip: the sum of |theta_k| to 1e-12."""

    @pytest.mark.parametrize("n", [1, 7, 64, 1000])
    def test_gravimeter_is_a_uniform_delta_g(self, n):
        chip = GravScenario(line_chip(n, 1e-3, OMEGA_10GHZ), UniformDeltaG(3.7e-4))
        assert gravimeter_phase(n, OMEGA_10GHZ, 3.7e-4, 1e-3) == pytest.approx(
            uniform_delta_phi(chip, 1e-3), rel=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 10, 100, 1000])
    def test_1d_is_a_rotated_line(self, n):
        chip = GravScenario(line_chip(n, 1e-3, OMEGA_10GHZ), VerticalRotation(math.pi / 2))
        assert closed_form_phase(n, OMEGA_10GHZ, 1e-3, 1e-3, "1d") == pytest.approx(
            uniform_delta_phi(chip, 1e-3), rel=1e-12)

    @pytest.mark.parametrize("m", [2, 4, 10, 100])
    def test_2d_is_a_rotated_grid(self, m):
        chip = GravScenario(grid_chip(m * m, 1e-3, OMEGA_10GHZ), VerticalRotation(math.pi / 2))
        assert closed_form_phase(m * m, OMEGA_10GHZ, 1e-3, 1e-3, "2d") == pytest.approx(
            uniform_delta_phi(chip, 1e-3), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 4, 1000])
    @pytest.mark.parametrize("strain", [0.0, 1e-6, -0.5])
    def test_strain_is_a_raised_register(self, n, strain):
        chip = GravScenario(line_chip(n, 1e-3, OMEGA_10GHZ), VerticalTranslation(1e-3 * (1 + strain)))
        assert strain_phase(n, OMEGA_10GHZ, 1e-3, strain, 1e-3) == pytest.approx(uniform_delta_phi(chip, 1e-3),
                                                                                  rel=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 1000])
    def test_strain_kind_is_a_different_model(self, n):
        # the tilted, stretched chip of the `strain` scenario kind is n/4 times the raised register at 90 degrees
        chip = GravScenario(line_chip(n, 1e-3, OMEGA_10GHZ), UniformStrain(1e-6))
        assert uniform_delta_phi(chip, 1e-3) == pytest.approx(n / 4 * strain_phase(n, OMEGA_10GHZ, 1e-3, 1e-6, 1e-3),
                                                             rel=1e-12)


PHASES = pytest.mark.parametrize("phase", [
    lambda t: gravimeter_phase(1000, OMEGA_10GHZ, 0.01, t),
    lambda t: strain_phase(1000, OMEGA_10GHZ, 1e-3, 0.1, t),
    lambda t: closed_form_phase(100, OMEGA_10GHZ, 1e-3, t),
], ids=["gravimeter_phase", "strain_phase", "closed_form_phase"])


class TestNegativeTime:
    @PHASES
    def test_rejected_with_the_channel_angles_error(self, phase):
        with pytest.raises(ValueError) as channel:
            dephasing_angles(GravScenario(line_chip(2, 1e-3, OMEGA_10GHZ), UniformDeltaG(1.0)), -1.0)
        with pytest.raises(ValueError) as sensing:
            phase(-1.0)
        assert str(sensing.value) == str(channel.value) == "accumulation time t must be finite and >= 0, got -1.0"

    @PHASES
    def test_nan_rejected(self, phase):
        with pytest.raises(ValueError, match="^accumulation time t must be finite and >= 0, got nan$"):
            phase(math.nan)


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
            results.append(
                (
                    gravimeter_sensitivity(**kwargs)["delta_g"],
                    min_detectable_strain(spacing=1e-3, **kwargs)["min_strain"],
                )
            )
        for prev, cur in zip(results, results[1:]):
            assert cur[0] < prev[0]
            assert cur[1] < prev[1]

    def test_required_qubits_drop_with_coherence(self):
        counts = [required_qubits(OMEGA_10GHZ, 1e-3, tc, geometry="1d")["n_required"] for tc in (1e-3, 1e-2, 1e-1, 1.0)]
        assert counts == sorted(counts, reverse=True)


POSITIVE = "must be finite and strictly positive"


class TestConfigValidation:
    """Every estimate rejects n < 1 and an input it reads that is not finite and > 0, the first in argument order."""

    def test_positive_fields(self):
        with pytest.raises(ValueError):
            gravimeter_sensitivity(0, 1.0, 1.0)
        with pytest.raises(ValueError, match="coherence_time"):
            gravimeter_sensitivity(1, 1.0, 0.0)

    @pytest.mark.parametrize("estimate, message", [
        (lambda: gravimeter_phase(0, OMEGA_10GHZ, 1e-7, 1e-3), "n must be >= 1, got 0"),
        (lambda: gravimeter_sensitivity(1000, OMEGA_10GHZ, 1e-3, -0.1), f"phase_resolution {POSITIVE}, got -0.1"),
        (lambda: strain_phase(1000, OMEGA_10GHZ, -1.0, 0.0, 1e-3), f"spacing {POSITIVE}, got -1.0"),
        (lambda: min_detectable_strain(0, OMEGA_10GHZ, -1.0, 1e-3), "n must be >= 1, got 0"),
        (lambda: min_detectable_strain(1, 1.0, -1.0, 0.0), f"coherence_time {POSITIVE}, got 0.0"),
        (lambda: required_qubits(0.0, -1.0, 1e-3), f"mean_frequency {POSITIVE}, got 0.0"),
        (lambda: required_qubits(OMEGA_10GHZ, -1.0, 1e-3), f"spacing {POSITIVE}, got -1.0"),
    ], ids=["gravimeter_phase", "gravimeter_sensitivity", "strain_phase", "min_detectable_strain-n-first",
            "min_detectable_strain-coherence_time-before-spacing", "required_qubits-frequency-first",
            "required_qubits-spacing"])
    def test_estimates_reject(self, estimate, message):
        with pytest.raises(ValueError) as exc:
            estimate()
        assert str(exc.value) == message

    @pytest.mark.parametrize("estimate, error, message", [
        (lambda: gravimeter_sensitivity(math.nan, OMEGA_10GHZ, 1e-3), TypeError, "n must be an integer, got nan"),
        (lambda: min_detectable_strain(100, OMEGA_10GHZ, math.inf, 1e-3), ValueError, f"spacing {POSITIVE}, got inf"),
        (lambda: min_detectable_strain(100, OMEGA_10GHZ, 1e-3, math.inf), ValueError,
         f"coherence_time {POSITIVE}, got inf"),
        (lambda: min_detectable_strain(math.inf, OMEGA_10GHZ, 1e-3, 1e-3), TypeError, "n must be an integer, got inf"),
        (lambda: required_qubits(OMEGA_10GHZ, 1e-3, math.inf), ValueError, f"coherence_time {POSITIVE}, got inf"),
        (lambda: gravimeter_phase(2.5, OMEGA_10GHZ, 1e-7, 1e-3), TypeError, "n must be an integer, got 2.5"),
        (lambda: gravimeter_phase(True, OMEGA_10GHZ, 1e-7, 1e-3), TypeError, "n must be an integer, got True"),
        (lambda: strain_phase(100, OMEGA_10GHZ, 1e-3, None, 1e-3), ValueError, "|strain| must be < 1, got None"),
    ], ids=["gravimeter_sensitivity-nan-n", "min_detectable_strain-inf-spacing", "min_detectable_strain-inf-tc",
            "min_detectable_strain-inf-n", "required_qubits-inf-tc", "gravimeter_phase-float-n",
            "gravimeter_phase-bool-n", "strain_phase-none-strain"])
    def test_non_finite_and_non_integer_inputs_rejected(self, estimate, error, message):
        with pytest.raises(error) as exc:
            estimate()
        assert str(exc.value) == message

    def test_numpy_integer_count(self):
        phase = gravimeter_phase(100, OMEGA_10GHZ, 1e-7, 1e-3)
        assert gravimeter_phase(np.int64(100), OMEGA_10GHZ, 1e-7, 1e-3) == phase

    @pytest.mark.parametrize("n, omega, spacing, message", [
        (0, OMEGA_10GHZ, 1e-3, "n must be >= 1, got 0"),
        (-4, OMEGA_10GHZ, 1e-3, "n must be >= 1, got -4"),
        (100, OMEGA_10GHZ, 0.0, f"spacing {POSITIVE}, got 0.0"),
        (100, OMEGA_10GHZ, -1.0, f"spacing {POSITIVE}, got -1.0"),
        (100, 0.0, 1e-3, f"mean_frequency {POSITIVE}, got 0.0"),
        (100, -62831853071.79587, 1e-3, f"mean_frequency {POSITIVE}, got -62831853071.79587"),
    ])
    def test_closed_form_phase_rejects(self, n, omega, spacing, message):
        with pytest.raises(ValueError) as exc:
            closed_form_phase(n, omega, spacing, 1e-3)
        assert str(exc.value) == message
