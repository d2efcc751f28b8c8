"""Dense statevector and density-matrix simulation of dephasing circuits.

Amplitude index bit 0 is the ancilla; register site k lives at bit k.
The kernels address the amplitudes as a (2,) * qubit_count tensor and
work on the two halves that one bit splits it into (optionally within
control = 1): H mixes them, S and each phase angle scale the bit = 1
half, and one X kernel swaps them.  That kernel flips any number of
targets at once, so an X layer and a controlled-X fan-out are each one
whole-register pass, and no 2^n x 2^n matrix is ever built.  H and X run
in place, over blocks of at most 2^15 amplitudes (512 KB), so no gate
allocates a temporary of the state's size.

The gravitational channel has a single unitary Kraus operator
Sigma = (x) diag(1, e^{i theta_k}), so pure states stay pure and the
statevector path is exact.  The density-matrix path exists to verify the
channel properties (trace/diagonal preservation, coherence modulus,
composition) on small registers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .gravity import ResourceCapError

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
_BLOCK = 1 << 15  # amplitudes per block: 512 KB of complex128, cache-sized


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
    "h" and "s" act on one target; "x" flips every target bit and "cx"
    flips every target bit where `control` is set (no targets: identity);
    "phase" applies the diagonal dephasing angles to the register bits 1..n.
    """

    kind: str
    targets: tuple[int, ...] = ()
    control: int | None = None
    angles: np.ndarray | None = None


def hadamard(target: int) -> Gate:
    return Gate("h", (target,))


def s_gate(target: int) -> Gate:
    return Gate("s", (target,))


def x_gate(*targets: int) -> Gate:
    """One "x" gate that flips every target."""
    return Gate("x", tuple(targets))


def controlled_x(control: int, *targets: int) -> Gate:
    return Gate("cx", tuple(targets), control=control)


def diagonal_phase(angles: np.ndarray) -> Gate:
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


def _halves(state: StateVector, bit: int, control: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(bit = 0, bit = 1) views of the amplitudes, both restricted to control = 1 if given.

    The views keep every axis of the (2,) * qubit_count tensor, in which axis
    qubit_count - 1 - k holds bit k, so axis numbers mean the same on both.
    """
    top = state.qubit_count - 1
    tensor = state.amplitudes.reshape((2,) * state.qubit_count)
    index = [slice(None)] * state.qubit_count
    if control is not None:
        index[top - control] = slice(1, 2)
    index[top - bit] = slice(0, 1)
    zero = tensor[tuple(index)]
    index[top - bit] = slice(1, 2)
    return zero, tensor[tuple(index)]


def _block_pairs(
    zero: np.ndarray, one: np.ndarray, flip_axes: tuple[int, ...] = ()
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Walk two `_halves` views in matching blocks of at most _BLOCK amplitudes.

    The halves split along their leading size-2 axes until a block holds
    at most _BLOCK amplitudes.  Each zero-block is paired with the one-block
    mirrored along `flip_axes`: its index is mirrored on the split axes
    among them, and the view is flipped on all of them (a no-op on the
    split axes, which have size 1 in a block), so pair by pair the blocks
    cover `zero` and `np.flip(one, flip_axes)`.
    """
    split, size = [], zero.size
    for axis, length in enumerate(zero.shape):
        if size <= _BLOCK:
            break
        if length == 2:
            split.append(axis)
            size //= 2
    index = [slice(None)] * zero.ndim
    mirror = [slice(None)] * zero.ndim
    for bits in itertools.product((0, 1), repeat=len(split)):
        for axis, b in zip(split, bits):
            index[axis] = slice(b, b + 1)
            m = 1 - b if axis in flip_axes else b
            mirror[axis] = slice(m, m + 1)
        yield zero[tuple(index)], np.flip(one[tuple(mirror)], flip_axes)


def _apply_x(state: StateVector, targets: tuple[int, ...], control: int | None = None) -> None:
    """Flip every target bit (where `control` is set) in one whole-register pass.

    The halves on either side of the first target swap, each mirrored along
    the other target axes, one block pair at a time through a block-size
    copy.  `view[...] = np.flip(view, axes)` would instead copy the whole
    state into one temporary.
    """
    if not targets:
        return
    first, *rest = targets
    axes = tuple(state.qubit_count - 1 - k for k in rest)
    for zero, one in _block_pairs(*_halves(state, first, control), axes):
        swap = zero.copy()
        zero[...] = one
        one[...] = swap


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply `gate` in place and return the state."""
    bits = gate.targets if gate.control is None else (*gate.targets, gate.control)
    for bit in bits:
        _check_bit(state, bit)
    if len(set(bits)) != len(bits):
        raise ValueError(f"{gate.kind} gate bits must be distinct, got {bits}")
    if gate.kind == "h":
        (target,) = gate.targets
        for zero, one in _block_pairs(*_halves(state, target)):
            total = zero + one
            np.subtract(zero, one, out=one)
            one *= _SQRT1_2
            np.multiply(total, _SQRT1_2, out=zero)
    elif gate.kind == "s":
        (target,) = gate.targets
        _, one = _halves(state, target)
        one *= 1j
    elif gate.kind == "x":
        _apply_x(state, gate.targets)
    elif gate.kind == "cx":
        if gate.control is None:
            raise ValueError("cx gate needs a control")
        _apply_x(state, gate.targets, gate.control)
    elif gate.kind == "phase":
        if gate.angles is None:
            raise ValueError("phase gate needs angles")
        apply_diagonal_phase(state, gate.angles)
    else:
        raise ValueError(f"unknown gate kind {gate.kind!r}")
    return state


def _finite_angles(angles: np.ndarray | Sequence[float]) -> np.ndarray:
    theta = np.asarray(angles, dtype=float)
    if not np.all(np.isfinite(theta)):
        raise ValueError("dephasing angles must be finite")
    return theta


def apply_diagonal_phase(state: StateVector, angles: np.ndarray) -> StateVector:
    """Multiply each basis amplitude by exp(i * sum of theta_k over set register bits).

    Angles address register bits 1..n; the ancilla (bit 0) picks up no
    phase.  Requires len(angles) == qubit_count - 1 and finite angles.
    """
    theta = _finite_angles(angles)
    if theta.size != state.qubit_count - 1:
        raise ValueError(
            f"expected {state.qubit_count - 1} angles for a {state.qubit_count}-qubit state, "
            f"got {theta.size}"
        )
    for k, theta_k in enumerate(theta, start=1):
        if theta_k != 0.0:
            _, one = _halves(state, k)
            one *= complex(math.cos(theta_k), math.sin(theta_k))
    return state


def probability_of(state: StateVector, site: int, bit: int) -> float:
    """Exact marginal probability that measuring `site` yields `bit`."""
    _check_bit(state, site)
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    return float(np.sum(np.abs(_halves(state, site)[bit]) ** 2))


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


def apply_channel(rho: DensityMatrix, angles: np.ndarray | Sequence[float]) -> DensityMatrix:
    """Dephasing channel rho -> Sigma rho Sigma^dagger with Sigma = (x) diag(1, e^{i theta_k}).

    One angle per qubit of rho (bit k of the basis index carries theta[k]).
    Diagonal entries are preserved exactly; coherences pick up unit-modulus
    factors e^{i(phi_j - phi_l)}.  Rejects a non-finite angle.
    """
    theta = _finite_angles(angles)
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
