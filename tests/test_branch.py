"""Two-branch readout: the sine law of the branch phase difference, its inverse and the cosine baseline."""

import functools
import math
import re

import numpy as np
import pytest

from qredshift.branch import ancilla_probabilities, estimate, standard_pea_probabilities
from qredshift.protocol import build_circuit
from qredshift.statevector import apply_gate, init_zero, probability_of


class TestReadout:
    def test_zero_phase_balanced(self):
        p0, p1 = ancilla_probabilities(0.0)
        assert (p0, p1) == (0.5, 0.5)

    def test_quarter_turn_endpoint(self):
        p0, p1 = ancilla_probabilities(math.pi / 2)
        assert p0 == pytest.approx(0.0, abs=1e-15)
        assert p1 == pytest.approx(1.0, abs=1e-15)

    def test_reference_point(self):
        _, p1 = ancilla_probabilities(0.1)
        assert p1 == pytest.approx(0.5499167083234141, abs=1e-15)

    def test_probabilities_sum_to_one_exactly(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            p0, p1 = ancilla_probabilities(rng.uniform(-4, 4) - rng.uniform(-4, 4))
            assert p0 + p1 == 1.0

    @pytest.mark.parametrize("law", [ancilla_probabilities, standard_pea_probabilities])
    def test_infinite_phase_named(self, law):
        # named, not math's bare "math domain error"; a NaN phase stays the documented (NaN, NaN)
        for delta_phi in (math.inf, -math.inf):
            with pytest.raises(ValueError, match=rf"^delta_phi must be finite, got {delta_phi}$"):
                law(delta_phi)
        assert all(math.isnan(p) for p in law(math.nan))

    def test_slope_one_half_at_origin(self):
        h = 1e-6
        _, up = ancilla_probabilities(h)
        _, down = ancilla_probabilities(-h)
        assert (up - down) / (2 * h) == pytest.approx(0.5, abs=1e-6)


class TestSubspaceExactness:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_statevector(self, n):
        rng = np.random.default_rng(1000 + n)
        for _ in range(5):
            theta = rng.uniform(-2.5, 2.5, size=n)
            state = functools.reduce(apply_gate, build_circuit(theta), init_zero(n + 1))
            p1_dense = probability_of(state, 0, 1)
            phi_plus = float(theta[theta >= 0].sum())
            phi_minus = float(theta[theta < 0].sum())
            _, p1_branch = ancilla_probabilities(phi_plus - phi_minus)
            assert abs(p1_dense - p1_branch) < 1e-12


def clamped_estimate(count_one: int, shots: int) -> tuple[float, float]:
    """(delta_phi_hat, std_error) as the inverse computed them with clamps and the propagated slope."""
    p_hat = count_one / shots
    x = 2.0 * p_hat - 1.0
    slope = 0.5 * math.sqrt(max(0.0, 1.0 - x * x))
    std_error = math.nan if p_hat <= 0.0 or p_hat >= 1.0 else math.sqrt(p_hat * (1.0 - p_hat) / shots) / slope
    return math.asin(max(-1.0, min(1.0, x))), std_error


SHOT_COUNTS = [1, 2, 3, 7, 1000]


class TestEstimate:
    @pytest.mark.parametrize("shots", SHOT_COUNTS)
    def test_arcsine_needs_no_clamp(self, shots):
        for count in range(shots + 1):
            p_hat, delta_hat, _, _ = estimate(count, shots)
            assert p_hat == count / shots
            assert delta_hat.hex() == clamped_estimate(count, shots)[0].hex(), count

    @pytest.mark.parametrize("shots", SHOT_COUNTS)
    def test_std_error_is_one_over_root_shots(self, shots):
        for count in range(1, shots):
            _, _, std_error, saturated = estimate(count, shots)
            assert not saturated
            assert std_error == 1.0 / math.sqrt(shots)
            # the propagated slope rounds 1 - x^2, which cancels as |x| = |2 p_hat - 1| nears 1
            x = 2.0 * count / shots - 1.0
            bound = 1e-15 + 2.0**-53 / (1.0 - x * x)
            assert abs(clamped_estimate(count, shots)[1] - std_error) <= bound * std_error, count

    @pytest.mark.parametrize("shots", SHOT_COUNTS)
    def test_zero_or_all_ones_saturate(self, shots):
        for count, edge in ((0, -math.pi / 2), (shots, math.pi / 2)):
            p_hat, delta_hat, std_error, saturated = estimate(count, shots)
            assert saturated and math.isnan(std_error)
            assert (p_hat, delta_hat) == (count / shots, edge)

    @pytest.mark.parametrize("name, value", [
        ("count_one", np.int64(3)), ("count_one", np.uint8(3)), ("count_one", 3.0), ("count_one", 3.5),
        ("count_one", np.float64(3.0)), ("count_one", "3"), ("count_one", True),
        ("shots", np.int64(10)), ("shots", np.uint16(10)), ("shots", 10.0), ("shots", np.float64(10.0)), ("shots", "10"),
        ("shots", True),
    ])
    def test_integer_arguments(self, name, value):
        # a numpy integer gives the equal int's estimate, in Python floats; anything else is one TypeError naming it
        args = {"count_one": 3, "shots": 10}
        if isinstance(value, np.integer):
            result = estimate(**{**args, name: value})
            assert result == estimate(**args)
            assert [type(cell) for cell in result] == [float, float, float, bool]
        else:
            with pytest.raises(TypeError, match=f"^{re.escape(f'{name} must be an integer, got {value!r}')}$"):
                estimate(**{**args, name: value})

    @pytest.mark.parametrize("count, shots", [(5, 3), (-1, 3), (0, 0), (1, 0), (0, -2)])
    def test_count_outside_the_shots_rejected(self, count, shots):
        with pytest.raises(ValueError, match=rf"0 <= count_one <= shots, got count_one={count}, shots={shots}$"):
            estimate(count, shots)
