"""Dense statevector and density-matrix simulation of dephasing circuits.

Amplitude index bit 0 is the ancilla; register site k lives at bit k.
Everything the measurement circuit needs is an amplitude-pair unitary
(H, S, X), a basis permutation (controlled X), or a diagonal phase
multiplication, so a few reshaped-view numpy kernels cover all of it
without ever building a 2^n x 2^n matrix.

The gravitational channel has a single unitary Kraus operator
Sigma = (x) diag(1, e^{i theta_k}), so pure states stay pure and the
statevector path is exact.  The density-matrix path exists to verify the
channel properties (trace/diagonal preservation, coherence modulus,
composition) on small registers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gravity import DephasingAngles, ResourceCapError

__all__ = [
    "MAX_QUBITS",
    "DENSITY_MAX_QUBITS",
    "ResourceCapError",
    "StateVector",
    "Gate",
    "hadamard",
    "s_gate",
    "x_gate",
    "controlled_x",
    "diagonal_phase",
    "init_zero",
    "apply_gate",
    "apply_diagonal_phase",
    "probability_of",
    "DensityMatrix",
    "density_from_amplitudes",
    "apply_channel",
]

MAX_QUBITS = 24
DENSITY_MAX_QUBITS = 6

_SQRT1_2 = 1.0 / math.sqrt(2.0)


@dataclass
class StateVector:
    """qubit_count qubits (ancilla at bit 0), 2^qubit_count complex amplitudes."""

    qubit_count: int
    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))

    def copy(self) -> "StateVector":
        return StateVector(self.qubit_count, self.amplitudes.copy())


@dataclass(frozen=True)
class Gate:
    """One circuit element.

    kind: "h" | "s" | "x" | "cx" | "phase"
    "cx" flips every target bit where `control` is set; "phase" applies
    the diagonal dephasing angles to the register bits 1..n.
    """

    kind: str
    targets: tuple[int, ...] = ()
    control: int | None = None
    angles: DephasingAngles | None = None


def hadamard(target: int) -> Gate:
    return Gate("h", (target,))


def s_gate(target: int) -> Gate:
    return Gate("s", (target,))


def x_gate(target: int) -> Gate:
    return Gate("x", (target,))


def controlled_x(control: int, *targets: int) -> Gate:
    return Gate("cx", tuple(targets), control=control)


def diagonal_phase(angles: DephasingAngles) -> Gate:
    return Gate("phase", angles=angles)


def init_zero(qubit_count: int) -> StateVector:
    """|0...0> on qubit_count qubits."""
    if qubit_count < 1:
        raise ValueError(f"qubit_count must be >= 1, got {qubit_count}")
    if qubit_count > MAX_QUBITS:
        raise ResourceCapError(
            f"{qubit_count} qubits exceeds the dense cap of {MAX_QUBITS}; use the branch backend"
        )
    amps = np.zeros(1 << qubit_count, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(qubit_count, amps)


def _check_bit(state: StateVector, bit: int) -> None:
    if not 0 <= bit < state.qubit_count:
        raise IndexError(f"qubit index {bit} out of range for {state.qubit_count}-qubit state")


def _bit_view(amps: np.ndarray, bit: int) -> np.ndarray:
    # shape (high, 2, low): axis 1 is the addressed bit
    return amps.reshape(-1, 2, 1 << bit)


def _apply_h(state: StateVector, bit: int) -> None:
    view = _bit_view(state.amplitudes, bit)
    a0 = view[:, 0, :].copy()
    a1 = view[:, 1, :]
    view[:, 0, :] = (a0 + a1) * _SQRT1_2
    view[:, 1, :] = (a0 - a1) * _SQRT1_2


def _apply_s(state: StateVector, bit: int) -> None:
    _bit_view(state.amplitudes, bit)[:, 1, :] *= 1j


def _apply_x(state: StateVector, bit: int) -> None:
    view = _bit_view(state.amplitudes, bit)
    tmp = view[:, 0, :].copy()
    view[:, 0, :] = view[:, 1, :]
    view[:, 1, :] = tmp


def _apply_cx(state: StateVector, control: int, target: int) -> None:
    if control == target:
        raise ValueError("control and target must differ")
    hi, lo = max(control, target), min(control, target)
    # axes: (rest, bit_hi, mid, bit_lo, low)
    view = state.amplitudes.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    if control == hi:
        sub = view[:, 1, :, :, :]
        tmp = sub[:, :, 0, :].copy()
        sub[:, :, 0, :] = sub[:, :, 1, :]
        sub[:, :, 1, :] = tmp
    else:
        sub = view[:, :, :, 1, :]
        tmp = sub[:, 0, :, :].copy()
        sub[:, 0, :, :] = sub[:, 1, :, :]
        sub[:, 1, :, :] = tmp


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply `gate` in place and return the state."""
    if gate.kind == "h":
        (target,) = gate.targets
        _check_bit(state, target)
        _apply_h(state, target)
    elif gate.kind == "s":
        (target,) = gate.targets
        _check_bit(state, target)
        _apply_s(state, target)
    elif gate.kind == "x":
        (target,) = gate.targets
        _check_bit(state, target)
        _apply_x(state, target)
    elif gate.kind == "cx":
        if gate.control is None:
            raise ValueError("cx gate needs a control")
        _check_bit(state, gate.control)
        if len(set(gate.targets)) != len(gate.targets):
            raise ValueError("cx targets must be distinct")
        for target in gate.targets:
            _check_bit(state, target)
            _apply_cx(state, gate.control, target)
    elif gate.kind == "phase":
        if gate.angles is None:
            raise ValueError("phase gate needs angles")
        apply_diagonal_phase(state, gate.angles)
    else:
        raise ValueError(f"unknown gate kind {gate.kind!r}")
    return state


def apply_diagonal_phase(state: StateVector, angles: DephasingAngles) -> StateVector:
    """Multiply each basis amplitude by exp(i * sum of theta_k over set register bits).

    Angles address register bits 1..n; the ancilla (bit 0) picks up no
    phase.  Requires len(angles) == qubit_count - 1.
    """
    theta = np.asarray(angles.angles, dtype=float)
    if theta.size != state.qubit_count - 1:
        raise ValueError(
            f"expected {state.qubit_count - 1} angles for a {state.qubit_count}-qubit state, "
            f"got {theta.size}"
        )
    for k, theta_k in enumerate(theta, start=1):
        if theta_k != 0.0:
            _bit_view(state.amplitudes, k)[:, 1, :] *= complex(math.cos(theta_k), math.sin(theta_k))
    return state


def probability_of(state: StateVector, site: int, bit: int) -> float:
    """Exact marginal probability that measuring `site` yields `bit`."""
    _check_bit(state, site)
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    view = _bit_view(state.amplitudes, site)
    return float(np.sum(np.abs(view[:, bit, :]) ** 2))


# --- density-matrix channel checks -----------------------------------------


@dataclass
class DensityMatrix:
    """qubit_count register qubits, 2^n x 2^n complex entries."""

    qubit_count: int
    entries: np.ndarray

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def purity(self) -> float:
        return float(np.real(np.trace(self.entries @ self.entries)))

    def validate(self, atol: float = 1e-10, eig_floor: float = -1e-8) -> None:
        """Raise unless Hermitian, unit trace, and positive semidefinite."""
        m = self.entries
        if m.shape != (1 << self.qubit_count, 1 << self.qubit_count):
            raise ValueError(f"entries shape {m.shape} does not match {self.qubit_count} qubits")
        if not np.allclose(m, m.conj().T, atol=atol):
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(m) - 1.0) > atol:
            raise ValueError(f"density matrix trace {np.trace(m)} != 1")
        if float(np.min(np.linalg.eigvalsh(m))) < eig_floor:
            raise ValueError("density matrix has a negative eigenvalue")


def density_from_amplitudes(amplitudes: Sequence[complex]) -> DensityMatrix:
    """|psi><psi| for a pure state given by its amplitudes."""
    vec = np.asarray(amplitudes, dtype=np.complex128)
    n = int(math.log2(vec.size))
    if 1 << n != vec.size:
        raise ValueError(f"amplitude count {vec.size} is not a power of two")
    if n > DENSITY_MAX_QUBITS:
        raise ResourceCapError(f"{n} qubits exceeds the density-matrix cap of {DENSITY_MAX_QUBITS}")
    return DensityMatrix(n, np.outer(vec, vec.conj()))


def _basis_phases(theta: np.ndarray) -> np.ndarray:
    """Phase sum per basis index: phi_j = sum of theta_k over set bits of j."""
    dim = 1 << theta.size
    bits = (np.arange(dim)[:, None] >> np.arange(theta.size)[None, :]) & 1
    return bits @ theta


def apply_channel(
    rho: DensityMatrix, angles: DephasingAngles | Sequence[float]
) -> DensityMatrix:
    """Dephasing channel rho -> Sigma rho Sigma^dagger with Sigma = (x) diag(1, e^{i theta_k}).

    One angle per qubit of rho (bit k of the basis index carries theta[k]).
    Diagonal entries are preserved exactly; coherences pick up unit-modulus
    factors e^{i(phi_j - phi_l)}.
    """
    theta = np.asarray(angles.angles if isinstance(angles, DephasingAngles) else angles, dtype=float)
    if theta.size != rho.qubit_count:
        raise ValueError(f"expected {rho.qubit_count} angles, got {theta.size}")
    if rho.qubit_count > DENSITY_MAX_QUBITS:
        raise ResourceCapError(
            f"{rho.qubit_count} qubits exceeds the density-matrix cap of {DENSITY_MAX_QUBITS}"
        )
    phase = np.exp(1j * _basis_phases(theta))
    weights = np.outer(phase, phase.conj())
    np.fill_diagonal(weights, 1.0)  # Sigma is diagonal, so w_jj == 1 identically
    return DensityMatrix(rho.qubit_count, rho.entries * weights)
