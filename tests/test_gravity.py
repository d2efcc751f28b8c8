"""Potentials, shifts, site heights, and dephasing angles.

Frozen expected values are independent closed-form evaluations with the
default constants (c = 299792458, G = 6.6743e-11, g0 = 9.80665,
M_earth = 5.972e24, R_earth = 6.371e6).
"""

import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qredshift import (
    DEFAULT_CONSTANTS,
    GravScenario,
    PhysicalConstants,
    ProximalMass,
    ResourceCapError,
    UniformDeltaG,
    UniformStrain,
    VerticalRotation,
    VerticalTranslation,
    dephasing_angles,
    grid_chip,
    line_chip,
    potential_change,
    universal_rate,
)
from qredshift import gravity
from qredshift.gravity import uniform_delta_phi
from qredshift.statevector import Gate, apply_gate, init_zero

C2 = DEFAULT_CONSTANTS.c_squared
G0 = DEFAULT_CONSTANTS.g0
OMEGA_10GHZ = 2.0 * math.pi * 10e9


class TestConstants:
    def test_defaults(self):
        c = DEFAULT_CONSTANTS
        assert c.c == 299792458.0
        assert c.G == 6.6743e-11
        assert c.g0 == 9.80665
        assert c.earth_radius == 6.371e6

    def test_overrides(self):
        rounded = replace(DEFAULT_CONSTANTS, g0=9.8)
        assert rounded.g0 == 9.8
        assert rounded.c == DEFAULT_CONSTANTS.c

    @pytest.mark.parametrize("name", ["c", "G", "g0", "earth_radius"])
    def test_positivity_enforced(self, name):
        with pytest.raises(ValueError, match=name):
            PhysicalConstants(**{name: 0.0})


def phase_rate(delta_x, omega):
    """Phase rate (rad/s) of a qubit raised by delta_x: its angle after one second."""
    return uniform_delta_phi(GravScenario(line_chip(1, 1e-3, omega), VerticalTranslation(delta_x)), 1.0)


class TestMassPotential:
    def test_earth_surface(self):
        expected = -6.6743e-11 * 5.972e24 / 6.371e6  # = -6.2563e7
        assert potential_change(ProximalMass(5.972e24, 6.371e6)) == pytest.approx(expected, rel=1e-15)
        assert potential_change(ProximalMass(5.972e24, 6.371e6)) == pytest.approx(-6.257e7, rel=1e-3)

    def test_zero_mass(self):
        assert potential_change(ProximalMass(0.0, 1.0)) == 0.0

    def test_inverse_distance_scaling(self):
        surface = potential_change(ProximalMass(5.972e24, 6.371e6))
        far = potential_change(ProximalMass(5.972e24, 2 * 6.371e6))
        assert far == pytest.approx(surface / 2, rel=1e-15)
        assert far == pytest.approx(-3.128e7, rel=1e-3)

    @pytest.mark.parametrize("distance", [0.0, -1.0])
    def test_nonpositive_distance_rejected(self, distance):
        with pytest.raises(ValueError, match="distance"):
            ProximalMass(1.0, distance)


class TestRedshiftFactor:
    """The clock-rate multiplier 1 + dPhi/c^2 of the weak-field law."""

    def test_flat_spacetime(self):
        assert 1.0 + potential_change(VerticalTranslation(0.0)) / C2 == 1.0

    def test_earth_surface(self):
        phi = potential_change(ProximalMass(5.972e24, 6.371e6))
        assert 1.0 + phi / C2 == pytest.approx(1.0 - 6.962e-10, rel=1e-12)

    def test_mm_scale_clock_comparison(self):
        # two clocks 1 mm apart in height differ by O(1e-19) fractionally
        r = DEFAULT_CONSTANTS.earth_radius
        low = potential_change(ProximalMass(5.972e24, r))
        high = potential_change(ProximalMass(5.972e24, r + 1e-3))
        fractional = (high - low) / C2
        assert 1e-20 < fractional < 1e-18
        # and it matches g*dx/c^2 with the local g = GM/r^2
        local_g = 6.6743e-11 * 5.972e24 / r**2
        assert fractional == pytest.approx(local_g * 1e-3 / C2, rel=1e-6)


class TestFractionalShifts:
    # 1 cm; 1 mm (Bothwell et al., Nature 602, 420 (2022) scale); 0.33 m (Chou
    # et al., Science 329, 1630 (2010)); 22.5 m (the Pound-Rebka tower).  The
    # shift is g0 h / c^2: positive for a raised clock and linear in h.
    @pytest.mark.parametrize("height", [0.01, 1e-3, 0.33, 22.5])
    def test_vertical(self, height):
        shift = potential_change(VerticalTranslation(height)) / C2
        assert shift == pytest.approx(height * 1.0911369672198218e-16, rel=1e-15)

    def test_vertical_zero_and_antisymmetry(self):
        assert potential_change(VerticalTranslation(0.0)) == 0.0
        assert potential_change(VerticalTranslation(-0.01)) == -potential_change(VerticalTranslation(0.01))

    def test_mass_reference_case(self):
        shift = potential_change(ProximalMass(1e3, 0.1)) / C2
        assert shift == pytest.approx(-7.426160269118664e-24, rel=1e-15)
        assert shift == pytest.approx(-7.43e-24, rel=1e-3)

    def test_mass_zero(self):
        assert potential_change(ProximalMass(0.0, 0.1)) / C2 == 0.0

    def test_mass_distance_scaling(self):
        assert potential_change(ProximalMass(1e3, 0.2)) / C2 == pytest.approx(-3.713080134559332e-24, rel=1e-15)

    def test_mass_never_positive(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert potential_change(ProximalMass(rng.uniform(0, 1e6), rng.uniform(1e-3, 10))) <= 0.0


class TestExternalAnchors:
    """The shift of a raised clock against published clock comparisons."""

    @staticmethod
    def shift(height: float) -> float:
        return potential_change(VerticalTranslation(height)) / C2

    def test_chou_2010_within_one_sigma(self):
        # Chou et al. measured (4.1 +- 1.6)e-17 for a clock raised 33 cm
        assert abs(self.shift(0.33) - 4.1e-17) <= 1.6e-17

    def test_pound_rebka_one_way_prediction(self):
        # Pound and Rebka, PRL 4, 337 (1960): 2.46e-15 over their 22.5 m tower
        assert self.shift(22.5) == pytest.approx(2.46e-15, rel=2e-3)


class TestPhaseRates:
    def test_transmon_reference(self):
        rate = phase_rate(0.01, OMEGA_10GHZ)
        assert rate == pytest.approx(6.855815760556077e-08, rel=1e-15)
        # headline figure is 1e-7 rad/s at this configuration
        assert 1e-8 < rate < 1e-6

    def test_thorium_reference(self):
        rate = phase_rate(1e-3, 2.0 * math.pi * 2000e12)
        assert rate == pytest.approx(1.3711631521112154e-3, rel=1e-15)
        assert rate == pytest.approx(1e-3, rel=1.0)  # within a factor 2

    def test_zero_separation(self):
        assert phase_rate(0.0, OMEGA_10GHZ) == 0.0

    def test_universal_rate_defaults(self):
        assert universal_rate(1.0) == pytest.approx(3.271146334174958e-08, rel=1e-15)
        assert universal_rate(2.0) == pytest.approx(2.0 * universal_rate(1.0), rel=1e-15)

    def test_universal_rate_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            universal_rate(0.0)

    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e6, max_value=1e16),
    )
    def test_wavelength_spacing_identity(self, factor, omega):
        # dx = N c / omega makes the phase rate frequency independent
        dx = factor * DEFAULT_CONSTANTS.c / omega
        assert phase_rate(dx, omega) == pytest.approx(universal_rate(factor), rel=1e-12)


def _heights(geom, angle):
    """Height change of each site (m) after rotating the chip axis by `angle` about its center of gravity."""
    return geom.axis_coordinates() * math.sin(angle)


class TestGeometry:
    def test_line_heights(self):
        geom = line_chip(4, 1e-3, OMEGA_10GHZ)
        np.testing.assert_allclose(
            _heights(geom, math.pi / 2), [1.5e-3, 0.5e-3, -0.5e-3, -1.5e-3], rtol=1e-15
        )

    def test_horizontal_is_flat(self):
        geom = line_chip(5, 1e-3, OMEGA_10GHZ)
        assert np.all(_heights(geom, 0.0) == 0.0)

    def test_two_sites_center_pivot(self):
        geom = line_chip(2, 1.0, OMEGA_10GHZ)
        np.testing.assert_allclose(_heights(geom, math.pi / 2), [0.5, -0.5], rtol=1e-15)

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 100])
    def test_displacements_sum_to_zero(self, n):
        geom = line_chip(n, 1e-3, OMEGA_10GHZ)
        assert abs(_heights(geom, math.pi / 2).sum()) <= 1e-12 * n * geom.spacing

    def test_general_angle_scales_by_sine(self):
        geom = line_chip(4, 1e-3, OMEGA_10GHZ)
        full = _heights(geom, math.pi / 2)
        tilted = _heights(geom, math.pi / 6)
        np.testing.assert_allclose(tilted, full * math.sin(math.pi / 6), rtol=1e-15)

    def test_grid_rows_share_heights(self):
        geom = grid_chip(9, 1e-3, OMEGA_10GHZ)
        x = _heights(geom, math.pi / 2)
        # three rows of three sites: heights (+l, 0, -l) repeated within rows
        np.testing.assert_allclose(x[:3], 1e-3, rtol=1e-15)
        np.testing.assert_allclose(x[3:6], 0.0, atol=1e-18)
        np.testing.assert_allclose(x[6:], -1e-3, rtol=1e-15)
        assert abs(x.sum()) <= 1e-12 * 9 * geom.spacing

    def test_grid_requires_square_count(self):
        with pytest.raises(ValueError, match="square"):
            grid_chip(5, 1e-3, OMEGA_10GHZ)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="layout"):
            line_chip(2, 1e-3, OMEGA_10GHZ).__class__("ring", 2, 1e-3, 0.0, np.ones(2))
        with pytest.raises(ValueError, match="spacing"):
            line_chip(2, 0.0, OMEGA_10GHZ)
        with pytest.raises(ValueError, match="frequencies"):
            line_chip(3, 1e-3, [1.0, 2.0])
        with pytest.raises(ValueError, match="positive"):
            line_chip(2, 1e-3, -5.0)
        for frequency in (math.inf, [1.0, math.inf]):
            with pytest.raises(ValueError, match="^all site frequencies must be finite$"):
                line_chip(2, 1e-3, frequency)


class TestSiteCap:
    """MAX_SITES caps the per-site arrays; a chip with one frequency is not capped itself."""

    def test_cap_boundary(self, monkeypatch):
        monkeypatch.setattr(gravity, "MAX_SITES", 16)
        sc = GravScenario(line_chip(16, 1e-3, OMEGA_10GHZ), VerticalRotation(math.pi / 2))
        assert len(dephasing_angles(sc, 1e-3)) == 16
        assert len(line_chip(16, 1e-3, [OMEGA_10GHZ] * 16).frequencies) == 16
        for chip in (line_chip(17, 1e-3, OMEGA_10GHZ), grid_chip(25, 1e-3, OMEGA_10GHZ)):
            above = GravScenario(chip, VerticalRotation(math.pi / 2))
            assert uniform_delta_phi(above, 1e-3) > 0.0
            level = GravScenario(chip, UniformDeltaG(1e-6))
            for array_path in (lambda: dephasing_angles(above, 1e-3), lambda: dephasing_angles(level, 1e-3),
                               chip.axis_coordinates, lambda: chip.frequencies):
                with pytest.raises(ResourceCapError, match=f"{chip.qubit_count} sites"):
                    array_path()
        with pytest.raises(ResourceCapError, match="17 sites"):
            line_chip(17, 1e-3, [OMEGA_10GHZ, 2 * OMEGA_10GHZ] * 8 + [OMEGA_10GHZ])

    def test_checked_before_any_array(self, monkeypatch):
        def no_array(*args, **kwargs):
            raise AssertionError("no per-site array may be built above the cap")

        for name in ("full", "arange", "asarray", "broadcast_to"):
            monkeypatch.setattr(np, name, no_array)
        for n in (gravity.MAX_SITES + 1, 10**13):
            chip = line_chip(n, 1e-3, OMEGA_10GHZ)
            for pert in (VerticalRotation(math.pi / 2), UniformDeltaG(1e-7)):
                with pytest.raises(ResourceCapError, match="cap"):
                    dephasing_angles(GravScenario(chip, pert), 1e-3)
            with pytest.raises(ResourceCapError, match="cap"):
                chip.frequencies
            with pytest.raises(ResourceCapError, match="cap"):
                line_chip(n, 1e-3, range(1, n + 1))  # per-site frequencies


class TestUniformFrequency:
    def test_scalar_kept_as_one_float(self):
        chip = line_chip(10**13, 1e-3, OMEGA_10GHZ)
        assert chip.uniform_frequency == OMEGA_10GHZ
        assert isinstance(chip.frequency, float)

    def test_equal_per_site_values_are_one_frequency(self):
        assert line_chip(4, 1e-3, [OMEGA_10GHZ] * 4).uniform_frequency == OMEGA_10GHZ
        assert line_chip(2, 1e-3, [OMEGA_10GHZ, 2 * OMEGA_10GHZ]).uniform_frequency is None

    def test_frequencies_view(self):
        freqs = grid_chip(9, 1e-3, OMEGA_10GHZ).frequencies
        assert freqs.shape == (9,) and freqs[0] == OMEGA_10GHZ and freqs.strides == (0,)
        with pytest.raises(ValueError):
            freqs[0] = 1.0
        np.testing.assert_array_equal(line_chip(2, 1e-3, [1.0, 2.0]).frequencies, [1.0, 2.0])


# one of each perturbation kind, at several angles and strains
PERTURBATIONS = [
    VerticalRotation(math.pi / 2),
    VerticalRotation(-0.3),
    VerticalRotation(2.5),
    UniformStrain(1e-6, math.pi / 2),
    UniformStrain(-0.4, 0.7),
    UniformStrain(0.9, -1.2),
    UniformDeltaG(1e-7),
    UniformDeltaG(-3e-2),
    ProximalMass(1e3, 0.1),
    ProximalMass(7.5, 2.0),
    VerticalTranslation(0.01),
    VerticalTranslation(-2.5e-4),
]


class TestUniformDeltaPhi:
    """The closed form against dephasing_angles, the independent per-site reference."""

    @pytest.mark.parametrize("pert", PERTURBATIONS, ids=repr)
    @pytest.mark.parametrize(
        "chip",
        [line_chip(n, 1e-3, OMEGA_10GHZ) for n in (1, 2, 3, 8, 101, 1000, 20001)]
        + [grid_chip(m * m, 3e-4, 2 * math.pi * 7.3e9) for m in (1, 2, 3, 10, 45, 141)],
        ids=lambda chip: f"{chip.layout}{chip.qubit_count}",
    )
    def test_matches_sum_of_angles(self, chip, pert):
        for t in (1e-3, 0.37):
            sc = GravScenario(chip, pert)
            reference = math.fsum(np.abs(dephasing_angles(sc, t)))
            assert uniform_delta_phi(sc, t) == pytest.approx(reference, rel=1e-15, abs=0.0)

    def test_per_site_frequencies_rejected(self):
        chip = line_chip(2, 1e-3, [OMEGA_10GHZ, 2 * OMEGA_10GHZ])
        with pytest.raises(ValueError, match="one qubit frequency"):
            uniform_delta_phi(GravScenario(chip, UniformDeltaG(1e-7)), 1e-3)

    def test_negative_time_rejected(self):
        sc = GravScenario(line_chip(2, 1e-3, OMEGA_10GHZ), VerticalRotation(math.pi / 2))
        with pytest.raises(ValueError, match="time"):
            uniform_delta_phi(sc, -1.0)

    def test_nan_time_rejected(self):
        sc = GravScenario(line_chip(2, 1e-3, OMEGA_10GHZ), VerticalRotation(math.pi / 2))
        with pytest.raises(ValueError, match="^accumulation time must be >= 0, got nan$"):
            uniform_delta_phi(sc, math.nan)

    @pytest.mark.parametrize(
        "chip, pert, t",
        [
            # the outermost coordinate, 7 * 5e307 m, overflows; 1e-300 rad keeps the j = 1 angle small
            (line_chip(8, 1e308, OMEGA_10GHZ), VerticalRotation(1e-300), 1e-3),
            # at angle 0 the overflowed coordinate times sin(0) is NaN
            (line_chip(8, 1e308, OMEGA_10GHZ), UniformStrain(0.5, 0.0), 1e-3),
            # g0 * x_k overflows on the outer rows only, and 0 s times it is NaN
            (grid_chip(9, 4.893498587044238e307, OMEGA_10GHZ), VerticalRotation(math.radians(202.0)), 0.0),
            (grid_chip(9, 4.893498587044238e307, OMEGA_10GHZ), VerticalRotation(math.radians(202.0)), 1.0),
        ],
    )
    def test_non_finite_exactly_when_the_angles_are(self, chip, pert, t):
        sc = GravScenario(chip, pert)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # dephasing_angles warns about nothing
            theta = dephasing_angles(sc, t)
        reference = float(np.abs(theta).sum())
        assert not math.isfinite(reference)
        assert repr(uniform_delta_phi(sc, t)) == repr(reference)
        with pytest.raises(ValueError, match="dephasing angles must be finite"):
            apply_gate(init_zero(chip.qubit_count + 1), Gate("phase", angles=theta))

    def test_site_count_beyond_float_range(self):
        huge = line_chip(10**400, 1e-3, OMEGA_10GHZ)
        assert uniform_delta_phi(GravScenario(huge, VerticalRotation(0.5)), 1e-3) == math.inf
        assert uniform_delta_phi(GravScenario(huge, VerticalRotation(0.0)), 1e-3) == 0.0
        assert uniform_delta_phi(GravScenario(huge, VerticalRotation(0.5)), 0.0) == 0.0
        # 10**350 sites times an angle of ~1e-100 rad: the count overflows a float, the sum does not
        sc = GravScenario(line_chip(10**350, 1e-3, OMEGA_10GHZ), UniformDeltaG(1e-100))
        angle = abs(dephasing_angles(GravScenario(line_chip(1, 1e-3, OMEGA_10GHZ), sc.perturbation), 1.0)[0])
        assert uniform_delta_phi(sc, 1.0) == pytest.approx(float(Fraction(angle) * 10**350), rel=1e-15)


def _theta(dphi, t=1e-3):
    """Channel angle of a 10 GHz site whose potential changes by dphi (m^2/s^2) over t seconds."""
    return -(t / C2) * dphi * OMEGA_10GHZ


class TestPotentialChangeAngles:
    def test_uniform_delta_g(self):
        geom = line_chip(4, 1e-3, OMEGA_10GHZ)
        sc = GravScenario(geom, UniformDeltaG(1e-6))
        np.testing.assert_allclose(dephasing_angles(sc, 1e-3), _theta(-6.371), rtol=1e-15)

    def test_rotation_two_sites(self):
        geom = line_chip(2, 1.0, OMEGA_10GHZ)
        sc = GravScenario(geom, VerticalRotation(math.pi / 2))
        np.testing.assert_allclose(dephasing_angles(sc, 1e-3), _theta(np.array([G0 / 2, -G0 / 2])), rtol=1e-15)

    def test_massless_proximal_mass(self):
        geom = line_chip(3, 1e-3, OMEGA_10GHZ)
        sc = GravScenario(geom, ProximalMass(0.0, 0.1))
        assert np.all(dephasing_angles(sc, 1e-3) == 0.0)

    def test_proximal_mass_common_value(self):
        geom = line_chip(3, 1e-3, OMEGA_10GHZ)
        sc = GravScenario(geom, ProximalMass(1e3, 0.1))
        np.testing.assert_allclose(dephasing_angles(sc, 1e-3), _theta(-6.6743e-11 * 1e3 / 0.1), rtol=1e-15)

    def test_translation_is_uniform(self):
        geom = line_chip(3, 1e-3, OMEGA_10GHZ, orientation=math.pi / 2)
        sc = GravScenario(geom, VerticalTranslation(0.02))
        np.testing.assert_allclose(dephasing_angles(sc, 1e-3), _theta(G0 * 0.02), rtol=1e-15)

    def test_strain_scales_rotation(self):
        geom = line_chip(2, 1.0, OMEGA_10GHZ)
        plain = dephasing_angles(GravScenario(geom, VerticalRotation(math.pi / 2)), 1e-3)
        strained = dephasing_angles(GravScenario(geom, UniformStrain(0.25, math.pi / 2)), 1e-3)
        np.testing.assert_allclose(strained, plain * 1.25, rtol=1e-15)

    def test_proximal_mass_distance_validated(self):
        with pytest.raises(ValueError, match="distance"):
            ProximalMass(1e3, -0.5)

    def test_strain_magnitude_validated(self):
        with pytest.raises(ValueError, match="strain"):
            UniformStrain(1.0)


class TestChannelAngles:
    def rotation_scenario(self, n=2, spacing=0.01):
        geom = line_chip(n, spacing, OMEGA_10GHZ)
        return GravScenario(geom, VerticalRotation(math.pi / 2))

    def test_zero_time(self):
        assert np.all(dephasing_angles(self.rotation_scenario(), 0.0) == 0.0)

    def test_rotation_reference_values(self):
        angles = dephasing_angles(self.rotation_scenario(), 1e-3)
        np.testing.assert_allclose(angles, [-3.427907880278039e-11, 3.427907880278039e-11], rtol=1e-14)

    def test_linearity_in_time(self):
        sc = self.rotation_scenario()
        once = dephasing_angles(sc, 1e-3)
        twice = dephasing_angles(sc, 2e-3)
        np.testing.assert_allclose(twice, 2 * once, rtol=1e-15)

    def test_linearity_in_perturbation(self):
        geom = line_chip(4, 1e-3, OMEGA_10GHZ)
        small = dephasing_angles(GravScenario(geom, UniformDeltaG(1e-7)), 1e-3)
        large = dephasing_angles(GravScenario(geom, UniformDeltaG(5e-7)), 1e-3)
        np.testing.assert_allclose(large, 5 * small, rtol=1e-15)

    def test_linearity_in_frequency(self):
        slow = line_chip(2, 1e-3, OMEGA_10GHZ)
        fast = line_chip(2, 1e-3, 3 * OMEGA_10GHZ)
        pert = VerticalRotation(math.pi / 2)
        a = dephasing_angles(GravScenario(slow, pert), 1e-3)
        b = dephasing_angles(GravScenario(fast, pert), 1e-3)
        np.testing.assert_allclose(b, 3 * a, rtol=1e-15)

    @pytest.mark.parametrize("n", [2, 4, 6, 10])
    def test_reflection_antisymmetry(self, n):
        sc = GravScenario(line_chip(n, 1e-3, OMEGA_10GHZ), VerticalRotation(math.pi / 2))
        theta = dephasing_angles(sc, 1e-3)
        np.testing.assert_allclose(theta, -theta[::-1], rtol=1e-14)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="time"):
            dephasing_angles(self.rotation_scenario(), -1.0)

    def test_nan_time_rejected(self):
        with pytest.raises(ValueError, match="^accumulation time must be >= 0, got nan$"):
            dephasing_angles(self.rotation_scenario(), math.nan)

    def test_angle_count_matches_register(self):
        sc = self.rotation_scenario(n=7)
        assert len(dephasing_angles(sc, 1e-3)) == 7
