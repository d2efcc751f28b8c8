"""The phase-measurement protocol: state preparation, readout, estimation.

The prepared superposition excites the positive-angle sites in one branch
and the negative-angle sites (theta_k < 0) in the other, which maximizes
the phase difference dphi = phi_plus - phi_minus the two branches accrue.
The ancilla-based circuit, fixed by the signs of the angles alone, is

    H(ancilla); X on minus sites; S(ancilla);
    ancilla-controlled X on all sites;      # entangle: |0>|minus> + i|1>|plus>
    diagonal dephasing phase;               # wait
    ancilla-controlled X on all sites;      # disentangle the register again
    H(ancilla); then the ancilla is measured

The S gate makes the readout linear in the phase: P(1) = 1/2 + sin(dphi)/2,
with slope 1/2 at dphi = 0, where the plain phase-estimation readout
(cosine law) has slope 0; qredshift.branch holds both laws and the
estimate of dphi from the shot count.  The second controlled-X layer is
what moves the branch phase difference onto the ancilla; without it the
register stays entangled and the ancilla reads P(1) = 1/2 regardless of
dphi.

The statevector backend applies that circuit gate by gate to the array
of 2^(n+1) amplitudes of |0...0> and reads the ancilla off it; the branch
backend evaluates the sine law on dphi = sum_k |theta_k| directly and
never builds the circuit.  On a chip with one qubit frequency that dphi
comes from gravity.uniform_delta_phi in O(1), so the branch backend builds
no per-site array at any register size; per-site frequencies take one
numpy pass over the angle array of gravity.dephasing_angles, which is
also what the dense circuit applies.  run_protocol counts the shots
against the exact ancilla probability in fixed-size chunks of the
seeded streams of qredshift.rng, which open at any shot index, so its
memory does not grow with the shot count and a run is reproducible from
(seed, shot index) alone on either backend.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import branch as branch_engine
from . import statevector as sv
from .constants import _choice
from .gravity import GravScenario, ResourceCapError, _index, dephasing_angles, uniform_delta_phi
from .rng import _check_seed, count_below

__all__ = [
    "BACKENDS",
    "MAX_SHOTS",
    "ProtocolOutcome",
    "expected_delta_phi",
    "build_circuit",
    "run_protocol",
]

# Most shots run_protocol takes; above it the run raises ResourceCapError
# (CLI exit code 3).  The streamed count needs fixed memory, so the cap
# bounds run time: 1e9 shots take about three to four CPU-seconds (2.8-3.8 s
# on one core of a busy 2-vCPU machine, 1.6-1.7 s split over both), so the
# cap is under forty CPU-seconds.
MAX_SHOTS = 10**10

BACKENDS = ("branch", "statevector")


@dataclass(frozen=True)
class ProtocolOutcome:
    """Shot statistics of one protocol run and the phase estimate they imply."""

    shots: int
    count_one: int
    p_hat: float
    delta_phi_hat: float
    std_error: float
    backend: str
    analytic_delta_phi: float
    p_one: float
    saturated: bool = False
    range_exceeded: bool = False


def expected_delta_phi(theta: np.ndarray) -> float:
    """dphi = phi_plus - phi_minus = sum of |theta_k|.

    numpy's pairwise summation keeps the rounding error at O(eps log n).
    Finite angles can still sum past the float range; the result is then
    inf, which run_protocol rejects, as it rejects the NaN of a NaN angle.
    """
    with np.errstate(over="ignore"):
        return float(np.abs(theta).sum())


def build_circuit(theta: np.ndarray) -> list[sv.Gate]:
    """Gate sequence of the measurement circuit (ancilla = bit 0, site k = bit k).

    One X gate flips the minus sites, theta_k < 0 (exact zeros count as
    plus; no minus sites, no X gate), and each controlled-X layer is one
    fan-out onto every site, so the circuit has at most 7 gates.
    """
    minus = tuple(int(k) + 1 for k in np.flatnonzero(theta < 0.0))
    fan_out = sv.Gate("cx", tuple(range(1, len(theta) + 1)), control=0)
    gates = [sv.Gate("h", (0,))] + ([sv.Gate("x", minus)] if minus else [])
    return gates + [sv.Gate("s", (0,)), fan_out, sv.Gate("phase", angles=theta), fan_out, sv.Gate("h", (0,))]


def run_protocol(
    scenario: GravScenario,
    t: float,
    shots: int,
    seed: int,
    backend: str = "branch",
) -> ProtocolOutcome:
    """Execute the protocol on `backend` ("branch" or "statevector") and estimate dphi.

    Shots and seed are integers (numpy ones too), and the shot and
    dense-size caps and the seed range [0, 2^128) are checked before any
    per-site work.  An infinite dphi raises ArithmeticError, a NaN one
    (zero times an infinite factor) ValueError.
    """
    shots = _index(shots, "shots", 1)
    if shots > MAX_SHOTS:
        raise ResourceCapError(f"{shots} shots exceed the cap of {MAX_SHOTS}")
    _choice(backend, BACKENDS, "backend")
    seed = _check_seed(seed)
    qubit_count = scenario.geometry.qubit_count + 1
    if backend == "statevector" and qubit_count > sv.MAX_QUBITS:
        raise ResourceCapError(
            f"{scenario.geometry.qubit_count} register qubits exceed the dense backend; use backend='branch'"
        )
    if backend == "branch" and scenario.geometry.uniform_frequency is not None:
        analytic = uniform_delta_phi(scenario, t)
    else:  # per-site frequencies, or the dense circuit, which needs the angles
        theta = dephasing_angles(scenario, t)
        analytic = expected_delta_phi(theta)
    if math.isnan(analytic):
        raise ValueError("analytic_delta_phi_rad = nan: theta_k = t * dPhi_k * omega_k / c^2 "
                         "multiplies zero by infinity, which is undefined")
    if math.isinf(analytic):
        raise ArithmeticError(f"analytic_delta_phi_rad = {analytic}: the sum of |theta_k| overflows")

    if backend == "branch":
        _, p_one = branch_engine.ancilla_probabilities(analytic)
    else:
        state = sv.init_zero(qubit_count)
        for gate in build_circuit(theta):
            sv.apply_gate(state, gate)
        p_one = sv.probability_of(state, 0, 1)

    count_one = count_below(seed, shots, p_one)
    p_hat, delta_hat, std_error, saturated = branch_engine.estimate(count_one, shots)
    if saturated:
        warnings.warn(
            f"p_hat = {p_hat} saturates the estimator at {delta_hat:+.6f} rad", stacklevel=2
        )
    range_exceeded = abs(analytic) > math.pi / 2.0
    if range_exceeded:
        warnings.warn(
            f"analytic dphi = {analytic:.6f} rad lies outside the estimator range [-pi/2, pi/2]",
            stacklevel=2,
        )
    return ProtocolOutcome(
        shots=shots,
        count_one=count_one,
        p_hat=p_hat,
        delta_phi_hat=delta_hat,
        std_error=std_error,
        backend=backend,
        analytic_delta_phi=analytic,
        p_one=p_one,
        saturated=saturated,
        range_exceeded=range_exceeded,
    )

