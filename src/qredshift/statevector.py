"""Dense statevector and density-matrix simulation of dephasing circuits.

A q-qubit state is a plain 1-D complex128 array of 2^q amplitudes: index
bit 0 is the ancilla, register site k lives at bit k.  Every kernel reads
q off the array, rejects any other input with a ValueError before it
touches an amplitude, and works in place, in blocks of at most 2^15
amplitudes (512 KB), on views of the amplitudes as a matrix split at some
index bit (Haner & Steiger, arXiv:1704.01127), so none builds a 2^n x 2^n
matrix or allocates a temporary of the state's size.  H, S and the readout
`probability_of` take the (bit = 0, bit = 1) halves of a (rows, 2, 2^bit)
view: H mixes them through one block buffer, S scales the bit = 1 half,
and the readout adds per-block sums of |amp|^2 in numpy's pairwise tree.
X on a set of targets is the index permutation j -> j ^ mask (where the
control bit is set, for CX): the mask's bits from 15 up pair blocks, and
one gather per block takes the amplitudes that move from its partner.
The dephasing phase e^{i phi_j} factors over the low and high index bits,
and each row block is multiplied by both factor vectors.

The gravitational channel has a single unitary Kraus operator
Sigma = (x) diag(1, e^{i theta_k}), so pure states stay pure and the
statevector path is exact.  The density-matrix path, `apply_channel`,
maps a plain 2^n x 2^n array to another; it exists to verify the channel
properties (trace/diagonal preservation, coherence modulus, composition)
on small registers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .gravity import ResourceCapError, _index

__all__ = [
    "MAX_QUBITS",
    "DENSITY_MAX_QUBITS",
    "Gate",
    "init_zero",
    "apply_gate",
    "probability_of",
    "apply_channel",
]

MAX_QUBITS = 24
DENSITY_MAX_QUBITS = 6

_SQRT1_2 = 1.0 / math.sqrt(2.0)
_BLOCK = 1 << 15  # amplitudes per block: 512 KB of complex128, cache-sized


@dataclass(frozen=True)
class Gate:
    """One circuit element, built directly and run by `apply_gate`: Gate("cx", (1, 2), control=0).

    kind: "h" | "s" | "x" | "cx" | "phase"
    "h" and "s" act on one target; "x" flips every target bit and "cx"
    flips every target bit where `control` is set (no targets: identity);
    "phase" applies the diagonal dephasing angles to the register bits 1..n.
    """

    kind: str
    targets: tuple[int, ...] = ()
    control: int | None = None
    angles: np.ndarray | None = None


def init_zero(qubit_count: int) -> np.ndarray:
    """|0...0> on qubit_count qubits."""
    qubit_count = _index(qubit_count, "qubit_count", 1)
    if qubit_count > MAX_QUBITS:
        raise ResourceCapError(
            f"{qubit_count} qubits exceeds the dense cap of {MAX_QUBITS}; use the branch backend"
        )
    state = np.zeros(1 << qubit_count, dtype=np.complex128)
    state[0] = 1.0
    return state


def _qubits(state: np.ndarray) -> int:
    """q of a 1-D complex128 array of 2^q amplitudes, 1 <= q <= MAX_QUBITS; ValueError for anything else."""
    if isinstance(state, np.ndarray) and state.ndim == 1 and state.dtype == np.complex128:
        qubits = state.size.bit_length() - 1
        if 1 <= qubits <= MAX_QUBITS and state.size == 1 << qubits:
            return qubits
    raise ValueError(f"a state is a 1-D complex128 array of 2^q amplitudes, 1 <= q <= {MAX_QUBITS}; "
                     f"got dtype {getattr(state, 'dtype', type(state).__name__)} and shape {np.shape(state)}")


def _check_bit(state: np.ndarray, bit: object, name: str) -> int:
    qubits = _qubits(state)
    bit = _index(bit, name)
    if not 0 <= bit < qubits:
        raise IndexError(f"{name} {bit} out of range for {qubits}-qubit state")
    return bit


def _pair_blocks(state: np.ndarray, bit: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(bit = 0, bit = 1) views in matching blocks of at most _BLOCK amplitudes, in index order.

    Blocks of a (rows, 2, 2^bit) view: runs of whole rows, or column runs of
    one row wider than _BLOCK; at bit 0, 1-D stride-2 views.  All share one shape.
    """
    pairs = state.reshape(-1, 2, 1 << bit)
    width = min(1 << bit, _BLOCK)
    height = min(len(pairs), _BLOCK // width)
    for r in range(0, len(pairs), height):
        for c in range(0, 1 << bit, width):
            block = pairs[r : r + height, :, c : c + width] if bit else pairs[r : r + height, :, 0]
            yield block[:, 0], block[:, 1]


def _apply_x(state: np.ndarray, targets: tuple[int, ...], control: int | None = None) -> None:
    """Flip every target bit (where `control` is set): the index permutation j -> j ^ mask.

    The state splits into blocks of at most _BLOCK amplitudes: block b pairs
    with block b ^ (mask >> 15), and a control above the block bits skips
    the blocks where it is clear.  A block is a run of chunks as wide as its
    lowest flipped or control bit, and one np.take per block gathers the
    chunks that move, all of them or, under a control inside the block,
    those where it is set: each from the partner's chunk at the flipped
    index.  A pair swaps through two block buffers, so no temporary is of
    the state's size.
    """
    mask = sum(1 << t for t in targets)
    if not mask:
        return
    size = min(state.size, _BLOCK)
    blocks = state.reshape(-1, size)
    pair, low = divmod(mask, size)  # the mask's bits of the block index, and inside a block
    gate, inner = divmod(0 if control is None else 1 << control, size)  # the control's bit, likewise
    width = (low | inner) & -(low | inner) or size
    chunks, step = np.arange(size // width), inner // width
    source = chunks[(chunks & step) == step] ^ low // width  # the chunks that move, flipped

    def view(block: np.ndarray) -> np.ndarray:
        return block.reshape(-1, 2, inner)[:, 1] if inner else block

    buffers = np.empty((2,) + view(blocks[0]).shape, np.complex128)

    def gather(block: np.ndarray, out: np.ndarray) -> np.ndarray:
        # mode "raise" would buffer `out`
        np.take(block.reshape(-1, width), source, axis=0, out=out.reshape(-1, width), mode="wrap")
        return out

    for b, block in enumerate(blocks):
        p = b ^ pair
        if p < b or (b & gate) != gate:
            continue  # swapped from its partner, or the control is clear
        first = gather(blocks[p], buffers[0])
        if p != b:
            view(blocks[p])[...] = gather(block, buffers[1])
        view(block)[...] = first


def apply_gate(state: np.ndarray, gate: Gate) -> np.ndarray:
    """Apply `gate` in place and return the state.

    A malformed state or gate raises before any amplitude is touched: a
    state `_qubits` rejects, an unknown kind, "h" or "s" without exactly
    one target, a control on anything but "cx" or a "cx" without one,
    targets or no angles on "phase", and repeated or out-of-range bits.
    """
    _qubits(state)
    kind = gate.kind
    if kind not in ("h", "s", "x", "cx", "phase"):
        raise ValueError(f"unknown gate kind {kind!r}")
    if kind in ("h", "s") and len(gate.targets) != 1:
        raise ValueError(f"{kind} gate takes one target, got {gate.targets}")
    if kind == "cx" and gate.control is None:
        raise ValueError("cx gate needs a control")
    if kind != "cx" and gate.control is not None:
        raise ValueError(f"{kind} gate takes no control, got control={gate.control}")
    if kind == "phase" and gate.targets:
        raise ValueError(f"phase gate takes no targets, got {gate.targets}")
    if kind == "phase" and gate.angles is None:
        raise ValueError("phase gate needs angles")
    bits = tuple(_check_bit(state, bit, "target") for bit in gate.targets)
    if gate.control is not None:
        bits += (_check_bit(state, gate.control, "control"),)
    if len(set(bits)) != len(bits):
        raise ValueError(f"{kind} gate bits must be distinct, got {bits}")
    if kind == "h":
        total = None  # one block buffer, allocated by the first add
        for zero, one in _pair_blocks(state, bits[0]):
            total = np.add(zero, one, out=total)
            np.subtract(zero, one, out=one)
            one *= _SQRT1_2
            np.multiply(total, _SQRT1_2, out=zero)
    elif kind == "s":
        for _, one in _pair_blocks(state, bits[0]):
            one *= 1j
    elif kind == "phase":
        _apply_phase(state, gate.angles)
    else:
        _apply_x(state, gate.targets, gate.control)
    return state


def _finite_angles(angles: np.ndarray | Sequence[float]) -> np.ndarray:
    theta = np.asarray(angles, dtype=float)
    if not np.all(np.isfinite(theta)):
        raise ValueError("dephasing angles must be finite")
    return theta


def _basis_phases(theta: np.ndarray) -> np.ndarray:
    """Phase sum per basis index: phi_j = sum of theta_k over set bits of j.

    Built by doubling: angle k appends phi + theta_k, the indices with bit
    k set, so each sum adds its angles in bit order on every platform (a
    matrix product would leave the order to the BLAS build).
    """
    phases = np.zeros(1)
    for theta_k in theta:
        phases = np.concatenate((phases, phases + theta_k))
    return phases


def _apply_phase(state: np.ndarray, angles: np.ndarray) -> None:
    """Multiply each basis amplitude by exp(i * sum of theta_k over set register bits).

    Angles address register bits 1..n; the ancilla (bit 0) picks up no
    phase.  A q-qubit state requires q - 1 angles, all finite.
    The phase factors into the low bits (the ancilla, at angle 0, and
    register bits 1..n // 2) and the high bits (the rest); each row block
    of the (high, low) matrix is multiplied by the low factor, then by its
    high factors, each factor exp(i * _basis_phases) of its angles.
    """
    qubits = _qubits(state)
    theta = _finite_angles(angles)
    if theta.size != qubits - 1:
        raise ValueError(f"expected {qubits - 1} angles for a {qubits}-qubit state, got {theta.size}")
    low = theta.size // 2
    matrix = state.reshape(1 << (theta.size - low), 2 << low)
    low_factor = np.exp(1j * _basis_phases(np.concatenate(([0.0], theta[:low]))))  # bit 0, the ancilla: angle 0
    high_factor = np.exp(1j * _basis_phases(theta[low:]))[:, None]
    blocks = max(1, matrix.size // _BLOCK)  # row blocks of at most _BLOCK amplitudes
    for block, high in zip(np.split(matrix, blocks), np.split(high_factor, blocks)):
        block *= low_factor
        block *= high


def probability_of(state: np.ndarray, site: int, bit: int) -> float:
    """Exact marginal probability that measuring `site` yields `bit`; a site off the state raises IndexError.

    Block sums of |amp|^2 over the `bit` half, added as a balanced tree; numpy's
    pairwise sum halves 2^k terms exactly, so this is np.sum of the half bit for bit.
    """
    site = _check_bit(state, site, "site")
    if _index(bit, "bit") not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    square, sums = None, []
    for pair in _pair_blocks(state, site):
        square = np.abs(pair[bit], out=square)
        np.square(square, out=square)
        sums.append(square.sum())
    tree = np.array(sums)
    while tree.size > 1:
        tree = tree[0::2] + tree[1::2]
    return float(tree[0])


# --- density-matrix channel checks -----------------------------------------


def apply_channel(rho: np.ndarray, angles: np.ndarray | Sequence[float]) -> np.ndarray:
    """Dephasing channel rho -> Sigma rho Sigma^dagger with Sigma = (x) diag(1, e^{i theta_k}).

    One angle per qubit (bit k of the basis index carries theta[k]), so rho
    is 2^n x 2^n for n angles.  Diagonal entries are preserved exactly;
    coherences pick up unit-modulus factors e^{i(phi_j - phi_l)}.  Rejects a
    non-finite angle and a rho of any other shape.
    """
    n = np.size(angles)
    if n > DENSITY_MAX_QUBITS:
        raise ResourceCapError(f"{n} qubits exceeds the density-matrix cap of {DENSITY_MAX_QUBITS}")
    theta = _finite_angles(angles)
    shape = (1 << n, 1 << n)
    if np.shape(rho) != shape:
        raise ValueError(f"expected a density matrix of shape {shape} for {n} angles, got shape {np.shape(rho)}")
    phase = np.exp(1j * _basis_phases(theta))
    weights = np.outer(phase, phase.conj())
    np.fill_diagonal(weights, 1.0)  # Sigma is diagonal, so w_jj == 1 identically
    return rho * weights
