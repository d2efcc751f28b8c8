"""Dense engine: gates against explicit matrix oracles, channel properties, sampling.

The oracle path builds full 2^n x 2^n operators with np.kron (bit 0 is the
least significant amplitude-index bit) and never touches the reshaped-view
kernels it checks.
"""

import functools
import math
import re
import tracemalloc

import numpy as np
import pytest

from qredshift.gravity import ResourceCapError
from qredshift.rng import shot_uniforms
from qredshift.statevector import (
    DENSITY_MAX_QUBITS,
    MAX_QUBITS,
    Gate,
    apply_channel,
    apply_gate,
    init_zero,
    probability_of,
)

H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
S = np.array([[1, 0], [0, 1j]], dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def kron_on(op: np.ndarray, bit: int, m: int) -> np.ndarray:
    """op acting on `bit` of an m-qubit register, bit 0 least significant."""
    full = np.eye(1, dtype=complex)
    for k in reversed(range(m)):
        full = np.kron(full, op if k == bit else I2)
    return full


def cx_matrix(control: int, target: int, m: int) -> np.ndarray:
    dim = 1 << m
    mat = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        out = j ^ (1 << target) if (j >> control) & 1 else j
        mat[out, j] = 1.0
    return mat


def random_subset(rng, bits) -> list[int]:
    """A non-empty subset of `bits` in random order."""
    pool = rng.permutation(list(bits))
    return [int(b) for b in pool[: rng.integers(1, len(pool) + 1)]]


def random_state(m: int, seed: int):
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
    vec /= np.linalg.norm(vec)
    state = init_zero(m)
    state[:] = vec
    return state


class TestInit:
    def test_single_qubit(self):
        state = init_zero(1)
        np.testing.assert_array_equal(state, [1.0, 0.0])

    def test_three_qubits(self):
        state = init_zero(3)
        assert state.size == 8
        assert state[0] == 1.0
        assert np.all(state[1:] == 0.0)

    def test_unit_norm(self):
        assert np.linalg.norm(init_zero(5)) == 1.0

    def test_plain_complex_array(self):
        state = init_zero(4)
        assert type(state) is np.ndarray
        assert state.dtype == np.complex128 and state.shape == (16,)

    def test_cap(self):
        assert MAX_QUBITS >= 23
        with pytest.raises(ResourceCapError, match="branch"):
            init_zero(MAX_QUBITS + 1)

    @pytest.mark.parametrize(
        "count, error, message",
        [
            (0, ValueError, "qubit_count must be >= 1, got 0"),
            (2.5, TypeError, "qubit_count must be an integer, got 2.5"),
            (np.float64(3.0), TypeError, f"qubit_count must be an integer, got {np.float64(3.0)!r}"),
            ("3", TypeError, "qubit_count must be an integer, got '3'"),
        ],
        ids=["zero", "float", "numpy-float", "string"],
    )
    def test_bad_count(self, count, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            init_zero(count)


class TestGates:
    def test_hadamard_on_zero(self):
        state = apply_gate(init_zero(1), Gate("h", (0,)))
        np.testing.assert_allclose(state, [1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_s_on_plus(self):
        state = apply_gate(apply_gate(init_zero(1), Gate("h", (0,))), Gate("s", (0,)))
        np.testing.assert_allclose(state, [1 / math.sqrt(2), 1j / math.sqrt(2)])

    def test_x_sets_bit(self):
        state = apply_gate(init_zero(3), Gate("x", (2,)))
        assert state[4] == 1.0

    def test_cx_flips_when_control_set(self):
        state = apply_gate(init_zero(2), Gate("x", (0,)))
        state = apply_gate(state, Gate("cx", (1,), control=0))
        assert state[3] == 1.0

    def test_cx_idle_when_control_clear(self):
        state = apply_gate(init_zero(2), Gate("cx", (1,), control=0))
        assert state[0] == 1.0

    def test_multi_target_cx(self):
        state = apply_gate(init_zero(4), Gate("x", (0,)))
        state = apply_gate(state, Gate("cx", (1, 2, 3), control=0))
        assert state[0b1111] == 1.0

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_against_kron_oracle(self, m):
        rng = np.random.default_rng(m)
        for trial in range(25):
            state = random_state(m, seed=100 * m + trial)
            expected = state.copy()
            for _ in range(6):
                choice = rng.integers(0, 6)
                if choice == 0:
                    bit = int(rng.integers(0, m))
                    apply_gate(state, Gate("h", (bit,)))
                    expected = kron_on(H, bit, m) @ expected
                elif choice == 1:
                    bit = int(rng.integers(0, m))
                    apply_gate(state, Gate("s", (bit,)))
                    expected = kron_on(S, bit, m) @ expected
                elif choice == 2:
                    bit = int(rng.integers(0, m))
                    apply_gate(state, Gate("x", (bit,)))
                    expected = kron_on(X, bit, m) @ expected
                elif choice == 3:
                    control, target = rng.choice(m, size=2, replace=False)
                    apply_gate(state, Gate("cx", (int(target),), control=int(control)))
                    expected = cx_matrix(int(control), int(target), m) @ expected
                elif choice == 4:
                    targets = random_subset(rng, range(m))
                    apply_gate(state, Gate("x", tuple(targets)))
                    for target in targets:
                        expected = kron_on(X, target, m) @ expected
                else:
                    # the control lands below, above or between the targets
                    control = int(rng.integers(0, m))
                    targets = random_subset(rng, [b for b in range(m) if b != control])
                    apply_gate(state, Gate("cx", tuple(targets), control=control))
                    for target in targets:
                        expected = cx_matrix(control, target, m) @ expected
            np.testing.assert_allclose(state, expected, atol=1e-13)

    @pytest.mark.parametrize(
        "control, targets",
        [
            (0, (1, 2, 3, 4)),  # control below every target: the circuit's fan-out
            (4, (2, 0, 1)),  # control above
            (2, (4, 0, 3, 1)),  # control between
            (None, (3, 1, 4)),
            (None, (0, 1, 2, 3, 4)),
            (1, ()),  # no targets: identity
            (None, ()),
        ],
    )
    def test_fan_out_equals_one_target_at_a_time(self, control, targets):
        def gate(*bits):
            return Gate("x" if control is None else "cx", bits, control=control)

        fan_out = random_state(5, seed=31)
        one_at_a_time = fan_out.copy()
        apply_gate(fan_out, gate(*targets))
        for target in targets:
            apply_gate(one_at_a_time, gate(target))
        np.testing.assert_array_equal(fan_out, one_at_a_time)

    def test_norm_preserved_random_circuit(self):
        state = random_state(6, seed=3)
        rng = np.random.default_rng(4)
        for _ in range(60):
            bit = int(rng.integers(0, 6))
            gate = [Gate("h", (bit,)), Gate("s", (bit,)), Gate("x", (bit,))][rng.integers(0, 3)]
            apply_gate(state, gate)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            apply_gate(init_zero(2), Gate("h", (2,)))

    def test_cx_duplicate_targets_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            apply_gate(init_zero(3), Gate("cx", (1, 1), control=0))

    @pytest.mark.parametrize(
        "gate, error, match",
        [
            (Gate("x", (1, 2, 1)), ValueError, "distinct"),
            (Gate("cx", (2, 1, 2), control=0), ValueError, "distinct"),
            (Gate("cx", (2, 1), control=1), ValueError, "distinct"),  # control is also a target
            (Gate("x", (0, 1, 3)), IndexError, "out of range"),
            (Gate("cx", (1, 3, 2), control=0), IndexError, "out of range"),
            (Gate("cx", (1, 2), control=3), IndexError, "out of range"),
            (Gate("x", (1,), control=0), ValueError, "x gate takes no control"),
            (Gate("h", (0, 1)), ValueError, "h gate takes one target"),
            (Gate("h", ()), ValueError, "h gate takes one target"),
            (Gate("s", (2, 0)), ValueError, "s gate takes one target"),
            (Gate("h", (1,), control=0), ValueError, "h gate takes no control"),
            (Gate("s", (1,), control=0), ValueError, "s gate takes no control"),
            (Gate("phase", control=0, angles=np.zeros(2)), ValueError, "phase gate takes no control"),
            (Gate("phase", (1,), angles=np.zeros(2)), ValueError, "phase gate takes no targets"),
            (Gate("phase"), ValueError, "^phase gate needs angles$"),
            (Gate("cx", (1,)), ValueError, "cx gate needs a control"),
            (Gate("y", (1,)), ValueError, "unknown gate kind"),
            (Gate("h", (1.0,)), TypeError, "^target must be an integer, got 1.0$"),
            (Gate("s", (0.5,)), TypeError, "^target must be an integer, got 0.5$"),
            (Gate("x", (1, 2.0)), TypeError, "^target must be an integer, got 2.0$"),
            (Gate("cx", (1,), control=0.0), TypeError, "^control must be an integer, got 0.0$"),
        ],
    )
    def test_bad_fan_out_rejected_before_any_pass(self, gate, error, match):
        state = random_state(3, seed=5)
        before = state.copy()
        with pytest.raises(error, match=match):
            apply_gate(state, gate)
        np.testing.assert_array_equal(state, before)


@pytest.mark.parametrize(
    "make, dtype, shape",
    [
        pytest.param(lambda: np.array([1.0, 0.0, 0.0, 0.0]), "float64", "(4,)", id="float64"),
        pytest.param(lambda: np.eye(2, dtype=np.complex128), "complex128", "(2, 2)", id="2-D"),
        pytest.param(lambda: np.array([1, 0, 0], dtype=np.complex128), "complex128", "(3,)", id="3-amplitudes"),
        pytest.param(lambda: np.ones(1, dtype=np.complex128), "complex128", "(1,)", id="1-amplitude"),
        pytest.param(lambda: np.zeros(0, dtype=np.complex128), "complex128", "(0,)", id="0-amplitudes"),
        pytest.param(lambda: [1j, 0j, 0j, 0j], "list", "(4,)", id="list"),
        # read-only and zero-strided: 2^(MAX_QUBITS + 1) amplitudes without allocating them
        pytest.param(lambda: np.broadcast_to(np.complex128(0), (1 << (MAX_QUBITS + 1),)), "complex128",
                     f"({1 << (MAX_QUBITS + 1)},)", id="over-the-cap"),
    ],
)
def test_malformed_state_rejected_untouched(make, dtype, shape):
    """Every kernel names the dtype and shape of an array that is no state, before touching an amplitude."""
    state = make()
    gates = (Gate("h", (0,)), Gate("s", (0,)), Gate("x", (0,)), Gate("cx", (1,), control=0), Gate("phase", angles=np.zeros(1)))
    calls = [functools.partial(apply_gate, state, gate) for gate in gates]
    calls += [functools.partial(probability_of, state, 0, 1)]
    for call in calls:
        with pytest.raises(ValueError, match=f"got dtype {dtype} and shape {re.escape(shape)}$"):
            call()
    np.testing.assert_array_equal(state[:4], make()[:4])  # every writable case whole; over-the-cap is read-only


def h_oracle(amplitudes: np.ndarray, bit: int) -> np.ndarray:
    """H on `bit` through full-size temporaries, the formula the blocked kernel must reproduce."""
    pairs = amplitudes.reshape(-1, 2, 1 << bit)
    zero, one = pairs[:, 0, :].copy(), pairs[:, 1, :].copy()
    out = np.empty_like(pairs)
    out[:, 0, :] = (zero + one) * (1.0 / math.sqrt(2.0))
    out[:, 1, :] = (zero - one) * (1.0 / math.sqrt(2.0))
    return out.reshape(-1)


def s_oracle(amplitudes: np.ndarray, bit: int) -> np.ndarray:
    """S on `bit` as one scaling of the whole bit = 1 half."""
    out = amplitudes.copy()
    out.reshape(-1, 2, 1 << bit)[:, 1, :] *= 1j
    return out


def half_probability(amplitudes: np.ndarray, site: int, bit: int) -> float:
    """P(site = bit) as one numpy sum over an |amp|^2 array of the whole half."""
    half = amplitudes.reshape(-1, 2, 1 << site)[:, bit, :]
    return float(np.sum(np.abs(half) ** 2))


def block_tree_sum(x: np.ndarray) -> float:
    """Sum of 2^15-element block sums, combined by a balanced tree."""
    sums = np.array([block.sum() for block in x.reshape(-1, 1 << 15)])
    while sums.size > 1:
        sums = sums[0::2] + sums[1::2]
    return float(sums[0])


def x_oracle(amplitudes: np.ndarray, targets: tuple[int, ...], control: int | None) -> np.ndarray:
    """X on every target (where `control` is set) as one gather by flipped basis index."""
    index = np.arange(amplitudes.size)
    flipped = index ^ sum(1 << t for t in targets)
    return amplitudes[flipped if control is None else np.where((index >> control) & 1, flipped, index)]


@pytest.mark.parametrize("qubits", [1, 2, 3, 4, 5])
def test_x_every_mask_and_control_matches_index_oracle(qubits):
    """Every target mask, uncontrolled and under each control bit outside it, on 1..5 qubits."""
    start = random_state(qubits, seed=qubits)
    for mask in range(1 << qubits):
        targets = tuple(b for b in range(qubits) if mask >> b & 1)
        for control in [None, *(c for c in range(qubits) if not mask >> c & 1)]:
            state = start.copy()
            apply_gate(state, Gate("x" if control is None else "cx", targets, control=control))
            np.testing.assert_array_equal(state, x_oracle(start, targets, control))


class TestBlockedKernels:
    """H, S, X, CX, the phase gate and the readout walk the state in blocks of at most 2^15 amplitudes.

    H, S and `probability_of` view the amplitudes as a (rows, 2, 2^bit)
    array: on 18 qubits each half holds 2^17 amplitudes, four blocks of
    whole rows, or from bit 15 up of columns of one row.  X is the
    permutation j -> j ^ mask on eight blocks of 2^15 amplitudes: the
    targets from bit 15 up pair blocks, and those below it pick the
    chunks, as wide as the lowest flipped bit, that one gather takes from
    the partner block.  A control below bit 15 caps the chunk width at its
    bit and moves only the chunks where it is set; one at bit 15 to 17
    skips the blocks where it is clear.
    """

    QUBITS = 18

    @pytest.mark.parametrize("bit", range(QUBITS))
    def test_hadamard_matches_full_temporaries(self, bit):
        state = random_state(self.QUBITS, seed=bit)
        expected = h_oracle(state, bit)
        apply_gate(state, Gate("h", (bit,)))
        np.testing.assert_array_equal(state, expected)

    @pytest.mark.parametrize("bit", range(QUBITS))
    def test_s_matches_whole_half_scaling(self, bit):
        state = random_state(self.QUBITS, seed=bit)
        expected = s_oracle(state, bit)
        apply_gate(state, Gate("s", (bit,)))
        np.testing.assert_array_equal(state, expected)

    @pytest.mark.parametrize(
        "qubits, site",
        [
            (16, 0),  # a half of 2^15: one block
            (16, 15),
            (17, 0),  # two blocks
            (17, 16),  # two column blocks of one row
            (18, 0),
            (18, 1),
            (18, 9),
            (18, 16),  # two rows of two column blocks
            (18, 17),
            (21, 0),  # 32 blocks: the benchmark's readout
            (21, 20),  # 32 column blocks
        ],
    )
    def test_probability_matches_one_sum_over_the_half(self, qubits, site):
        state = random_state(qubits, seed=site)
        for bit in (0, 1):
            assert probability_of(state, site, bit) == half_probability(state, site, bit)

    @pytest.mark.parametrize(
        "control, targets",
        [
            (None, (0,)),
            (None, (9,)),
            (None, (17,)),
            (None, (0, 17)),
            (None, (17, 16, 0)),
            (None, (3, 16, 15, 8)),  # 15 and 16: rows paired across blocks
            (None, tuple(range(18))),
            (None, (1, 4, 10)),  # low bits only: columns
            (None, tuple(range(1, 11))),  # the circuit's X layer: ancilla column chunk unflipped
            (None, (11, 14, 17)),  # high bits only: 11 and 14 flip inside a block, 17 pairs blocks
            (None, (12,)),
            (None, (2, 10, 11, 16)),  # low and high bits
            (0, tuple(range(1, 18))),  # the circuit's fan-out: control at bit 0, rows of one amplitude
            (0, (1, 3, 16)),
            (6, (0, 3, 12, 17)),  # control below the split
            (14, (2, 11, 15, 17)),  # control above the split
            (17, (16, 2)),  # column blocks paired across bit 16
            (17, (0, 5, 16)),
            (9, (0, 17, 15)),
            (16, (17,)),
            (5, (9,)),
        ],
    )
    def test_x_matches_index_oracle(self, control, targets):
        state = random_state(self.QUBITS, seed=len(targets))
        expected = x_oracle(state, targets, control)
        apply_gate(state, Gate("x" if control is None else "cx", targets, control=control))
        np.testing.assert_array_equal(state, expected)

    @pytest.mark.parametrize(
        "control, targets", [(None, tuple(range(1, 11))), (0, tuple(range(1, 21)))], ids=["x-layer", "fan-out"]
    )
    def test_x_matches_index_oracle_on_the_dense_benchmark(self, control, targets):
        # the only X and CX shapes the dense benchmark applies: 21 qubits, X on 1..10, the fan-out onto 1..20
        state = random_state(21, seed=len(targets))
        expected = x_oracle(state, targets, control)
        apply_gate(state, Gate("x" if control is None else "cx", targets, control=control))
        np.testing.assert_array_equal(state, expected)

    def test_no_state_size_temporary(self):
        state = init_zero(21)  # 2^21 amplitudes: 32 MiB
        state[:] = np.linspace(0.0, 1.0, state.size)
        angles = np.linspace(-1.0, 1.0, 20)
        gates = [Gate("h", (bit,)) for bit in (0, 1, 10, 20)] + [Gate("s", (0,)), Gate("s", (20,))]
        gates += [Gate("x", tuple(range(1, 21))), Gate("cx", tuple(range(1, 21)), control=0),
                  Gate("x", tuple(range(1, 11))), Gate("x", tuple(range(11, 21))),
                  Gate("cx", tuple(range(1, 11)), control=20), Gate("phase", angles=angles)]
        calls = [functools.partial(apply_gate, state, gate) for gate in gates]
        calls += [functools.partial(probability_of, state, 0, 1), functools.partial(probability_of, state, 20, 0)]
        for call in calls:
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 2 << 20, f"{call.func.__name__}{call.args[1:]} allocated {peak} bytes"


@pytest.mark.parametrize("log_size", range(15, 21))
def test_numpy_sum_is_the_balanced_tree_of_block_sums(log_size):
    """The numpy contract `probability_of` relies on: a power-of-two sum splits exactly in half down to a block."""
    x = np.random.default_rng(log_size).random(1 << log_size) ** 3
    assert float(np.sum(x)) == block_tree_sum(x)


class TestDiagonalPhase:
    def test_phase_gates_compare_and_hash_by_value(self):
        # a frozen gate holding a numpy array raised "truth value ... ambiguous" on == and TypeError on hash
        theta = np.array([0.1, -0.2])
        gate = Gate("phase", angles=theta)
        assert gate == Gate("phase", angles=theta.copy()) == Gate("phase", angles=[0.1, -0.2])
        assert hash(gate) == hash(Gate("phase", angles=theta.copy()))
        assert gate != Gate("phase", angles=[0.1, -0.3])
        assert gate.angles == (0.1, -0.2) and all(type(angle) is float for angle in gate.angles)
        theta[0] = 5.0  # the gate keeps the angles it was built with
        assert gate.angles == (0.1, -0.2)

    def test_zero_angles_identity(self):
        state = random_state(3, seed=9)
        before = state.copy()
        apply_gate(state, Gate("phase", angles=np.zeros(2)))
        np.testing.assert_array_equal(state, before)

    def test_pi_flips_x_expectation(self):
        # ancilla + one register qubit in |+x>
        state = init_zero(2)
        apply_gate(state, Gate("h", (1,)))

        def x_expectation(s):
            flipped = s.reshape(-1, 2, 2)[:, ::-1, :]
            return float(np.real(np.vdot(s, flipped.reshape(-1))))

        assert x_expectation(state) == pytest.approx(1.0, abs=1e-12)
        apply_gate(state, Gate("phase", angles=np.array([math.pi])))
        assert x_expectation(state) == pytest.approx(-1.0, abs=1e-12)

    def test_composition_adds_angles(self):
        rng = np.random.default_rng(11)
        theta1, theta2 = rng.uniform(-2, 2, size=(2, 4))
        a = random_state(5, seed=12)
        b = a.copy()
        apply_gate(a, Gate("phase", angles=theta1))
        apply_gate(a, Gate("phase", angles=theta2))
        apply_gate(b, Gate("phase", angles=theta1 + theta2))
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_norm_unchanged(self):
        state = random_state(4, seed=13)
        apply_gate(state, Gate("phase", angles=np.array([0.3, -0.7, 2.1])))
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="angles"):
            apply_gate(init_zero(3), Gate("phase", angles=np.zeros(3)))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        state = init_zero(3)
        with pytest.raises(ValueError, match="^dephasing angles must be finite$"):
            apply_gate(state, Gate("phase", angles=np.array([0.0, bad])))
        assert state[0] == 1.0

    @pytest.mark.parametrize("register", range(19))
    def test_matches_per_angle_oracle(self, register):
        def per_angle(amplitudes, theta):
            """One scaling of the bit = 1 half per nonzero angle, register bit k carrying theta[k - 1]."""
            out = amplitudes.copy()
            for k, theta_k in enumerate(theta, start=1):
                if theta_k != 0.0:
                    out.reshape(-1, 2, 1 << k)[:, 1, :] *= complex(math.cos(theta_k), math.sin(theta_k))
            return out

        rng = np.random.default_rng(1000 + register)
        theta = rng.uniform(-3.0, 3.0, register)
        theta[rng.random(register) < 0.25] = 0.0  # exact zeros, which the loop skipped
        state = random_state(register + 1, seed=register)
        expected = per_angle(state, theta)
        apply_gate(state, Gate("phase", angles=theta))
        np.testing.assert_allclose(state, expected, rtol=1e-14, atol=1e-15)


def assert_density(m: np.ndarray) -> None:
    """Hermitian, unit trace, and positive semidefinite."""
    assert np.allclose(m, m.conj().T, atol=1e-10)
    assert abs(np.trace(m) - 1.0) <= 1e-10
    assert float(np.min(np.linalg.eigvalsh(m))) >= -1e-8


def random_density(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dim = 1 << n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    assert_density(rho)
    return rho


class TestChannel:
    def test_diagonal_rho_unchanged(self):
        diag = np.diag(np.array([0.1, 0.2, 0.3, 0.4], dtype=complex))
        out = apply_channel(diag, np.array([0.7, -1.3]))
        np.testing.assert_array_equal(out, diag)

    def test_single_qubit_coherence_phase(self):
        rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        theta = 0.8
        out = apply_channel(rho, np.array([theta]))
        assert out[0, 1] == pytest.approx(0.5 * np.exp(-1j * theta), abs=1e-15)
        assert out[1, 0] == pytest.approx(0.5 * np.exp(1j * theta), abs=1e-15)
        assert out[0, 0] == 0.5 and out[1, 1] == 0.5

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cptp_properties(self, n):
        rng = np.random.default_rng(40 + n)
        for trial in range(5):
            rho = random_density(n, seed=50 * n + trial)
            theta = rng.uniform(-3, 3, size=n)
            out = apply_channel(rho, theta)
            np.testing.assert_array_equal(np.diag(out), np.diag(rho))
            assert abs(np.trace(out) - np.trace(rho)) < 1e-12
            np.testing.assert_allclose(np.abs(out), np.abs(rho), atol=1e-12)
            assert_density(out)

    def test_composition_in_time(self):
        rho = random_density(3, seed=77)
        rng = np.random.default_rng(78)
        rates = rng.uniform(-1, 1, size=3)
        t1, t2 = 0.6, 1.7
        stepwise = apply_channel(apply_channel(rho, rates * t1), rates * t2)
        direct = apply_channel(rho, rates * (t1 + t2))
        np.testing.assert_allclose(stepwise, direct, atol=1e-12)

    def test_pure_state_purity_invariant(self):
        rng = np.random.default_rng(81)
        vec = rng.normal(size=8) + 1j * rng.normal(size=8)
        vec /= np.linalg.norm(vec)
        out = apply_channel(np.outer(vec, vec.conj()), rng.uniform(-2, 2, size=3))
        assert float(np.real(np.trace(out @ out))) == pytest.approx(1.0, abs=1e-12)

    def test_matches_statevector_on_pure_states(self):
        # ancilla + 3 register qubits; channel leaves the ancilla alone
        state = random_state(4, seed=90)
        theta = np.random.default_rng(91).uniform(-2, 2, size=3)
        rho = np.outer(state, state.conj())
        rho_out = apply_channel(rho, np.concatenate(([0.0], theta)))
        apply_gate(state, Gate("phase", angles=theta))
        expected = np.outer(state, state.conj())
        np.testing.assert_allclose(rho_out, expected, atol=1e-12)

    def test_angle_count_must_match(self):
        with pytest.raises(ValueError, match="angles"):
            apply_channel(random_density(2, seed=1), np.zeros(3))

    @pytest.mark.parametrize(
        "rho, angles, shapes",
        [
            pytest.param(np.array([[1.0]]), [0.1, 0.2], r"\(4, 4\) for 2 angles, got shape \(1, 1\)$",
                         id="1x1-two-angles"),
            pytest.param(np.eye(4) / 4, [0.1], r"\(2, 2\) for 1 angles, got shape \(4, 4\)$",
                         id="4x4-one-angle"),
        ],
    )
    def test_shape_mismatch_names_both_shapes(self, rho, angles, shapes):
        with pytest.raises(ValueError, match=shapes):
            apply_channel(rho, angles)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="^dephasing angles must be finite$"):
            apply_channel(random_density(2, seed=1), [0.0, bad])

    def test_density_cap(self):
        with pytest.raises(ResourceCapError):
            apply_channel(np.eye(1), np.zeros(DENSITY_MAX_QUBITS + 1))


class TestMeasurement:
    def test_balanced_superposition_statistics(self):
        state = apply_gate(init_zero(1), Gate("h", (0,)))
        p_one = probability_of(state, 0, 1)
        outcomes = shot_uniforms(2718, 10**6) < p_one
        # 3 sigma of a fair binomial at 1e6 shots is 0.0015; allow 0.002
        assert abs(outcomes.mean() - 0.5) < 0.002

    def test_probability_examples(self):
        assert probability_of(init_zero(1), 0, 0) == 1.0
        plus = apply_gate(init_zero(1), Gate("h", (0,)))
        assert probability_of(plus, 0, 1) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize(
        "site, bit, error, match",
        [
            (0, 2, ValueError, "^bit must be 0 or 1, got 2$"),
            (0, -1, ValueError, "^bit must be 0 or 1, got -1$"),
            (0, 1.0, TypeError, "^bit must be an integer, got 1.0$"),
            (1.0, 0, TypeError, "^site must be an integer, got 1.0$"),
            (2, 0, IndexError, "^site 2 out of range for 2-qubit state$"),
        ],
    )
    def test_probability_bad_site_or_bit(self, site, bit, error, match):
        with pytest.raises(error, match=match):
            probability_of(init_zero(2), site, bit)
