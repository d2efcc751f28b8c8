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
"""

from __future__ import annotations

import math

__all__ = ["ancilla_probabilities"]


def ancilla_probabilities(delta_phi: float) -> tuple[float, float]:
    """(P(0), P(1)) of the ancilla after disentangling and the final Hadamard.

    The readout is the sine law P(1) = 1/2 + 1/2 sin(dphi); P(0) is
    returned as 1 - P(1) so the pair always sums to one exactly.
    """
    p_one = 0.5 + 0.5 * math.sin(delta_phi)
    return 1.0 - p_one, p_one
