"""Closed-form readout of the measurement protocol's two-branch subspace.

Once the ancilla is entangled with the register, the joint state never
leaves span{|0>|minus>, |1>|plus>}: it starts as
(|0>|minus> + i |1>|plus>) / sqrt(2), and the dephasing channel is
diagonal, so it only rotates the two branch phases.  The ancilla then
reads out nothing but their difference dphi = phi_plus - phi_minus, which
for the sign partition is sum_k |theta_k| (protocol.expected_delta_phi).
Evaluating the sine law on that one number reproduces the dense
simulation exactly.  On a chip with one qubit frequency the number has a
closed form (gravity.uniform_delta_phi), so a register of any size costs
O(1); per-site frequencies cost one O(n) numpy pass over the angles.

The module holds the whole readout: the sine law, its inverse from a shot
count (estimate), and the cosine law of plain phase estimation.
"""

from __future__ import annotations

import math

from .gravity import _index

__all__ = ["ancilla_probabilities", "estimate", "standard_pea_probabilities"]


def ancilla_probabilities(delta_phi: float) -> tuple[float, float]:
    """(P(0), P(1)) of the ancilla after disentangling and the final Hadamard.

    The readout is the sine law P(1) = 1/2 + 1/2 sin(dphi); P(0) is
    returned as 1 - P(1) so the pair always sums to one exactly.  A NaN dphi gives (NaN, NaN).
    """
    p_one = 0.5 + 0.5 * math.sin(delta_phi)
    return 1.0 - p_one, p_one


def estimate(count_one: int, shots: int) -> tuple[float, float, float, bool]:
    """(p_hat, delta_phi_hat, std_error, saturated) from `count_one` ones in `shots` shots.

    Inverts the sine law, delta_phi_hat = asin(2 p_hat - 1); 2 p_hat - 1
    lies in [-1, 1] for every count.  At the estimate the law's slope
    cos(delta_phi_hat)/2 equals sqrt(p_hat (1 - p_hat)), so the binomial
    error sqrt(p_hat (1 - p_hat) / N) propagates to exactly 1/sqrt(N).  A
    count of 0 or N saturates the arcsine at -+pi/2, where the slope
    vanishes: its std_error is NaN.  A count outside [0, shots], or fewer
    than one shot, raises ValueError; a non-integer argument TypeError.
    """
    count_one, shots = _index(count_one, "count_one"), _index(shots, "shots")
    if shots < 1 or not 0 <= count_one <= shots:
        raise ValueError(f"need shots >= 1 and 0 <= count_one <= shots, got count_one={count_one}, shots={shots}")
    p_hat = count_one / shots
    saturated = count_one in (0, shots)
    std_error = math.nan if saturated else 1.0 / math.sqrt(shots)
    return p_hat, math.asin(2.0 * p_hat - 1.0), std_error, saturated


def standard_pea_probabilities(delta_phi: float) -> tuple[float, float]:
    """(P(0), P(1)) of plain phase estimation (no S gate): the cosine law.

    Quadratic around dphi = 0, hence the comparison baseline for the
    linear readout above.  A NaN dphi gives (NaN, NaN).
    """
    p_zero = 0.5 + 0.5 * math.cos(delta_phi)
    return p_zero, 1.0 - p_zero
