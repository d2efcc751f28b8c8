"""Two-branch readout: the sine law of the branch phase difference."""

import math

import numpy as np
import pytest

from qredshift.branch import ancilla_probabilities
from qredshift.protocol import build_circuit, final_state
from qredshift.statevector import probability_of


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
            state = final_state(build_circuit(theta), n + 1)
            p1_dense = probability_of(state, 0, 1)
            phi_plus = float(theta[theta >= 0].sum())
            phi_minus = float(theta[theta < 0].sum())
            _, p1_branch = ancilla_probabilities(phi_plus - phi_minus)
            assert abs(p1_dense - p1_branch) < 1e-12
