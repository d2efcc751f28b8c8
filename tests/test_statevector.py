"""Dense engine: gates against explicit matrix oracles, channel properties, sampling.

The oracle path builds full 2^n x 2^n operators with np.kron (bit 0 is the
least significant amplitude-index bit) and never touches the reshaped-view
kernels it checks.
"""

import math
import tracemalloc

import numpy as np
import pytest

from qredshift.rng import shot_uniforms
from qredshift.statevector import (
    DENSITY_MAX_QUBITS,
    MAX_QUBITS,
    DensityMatrix,
    ResourceCapError,
    apply_channel,
    apply_diagonal_phase,
    apply_gate,
    controlled_x,
    density_from_amplitudes,
    diagonal_phase,
    hadamard,
    init_zero,
    probability_of,
    s_gate,
    x_gate,
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
    state.amplitudes[:] = vec
    return state


class TestInit:
    def test_single_qubit(self):
        state = init_zero(1)
        np.testing.assert_array_equal(state.amplitudes, [1.0, 0.0])

    def test_three_qubits(self):
        state = init_zero(3)
        assert state.amplitudes.size == 8
        assert state.amplitudes[0] == 1.0
        assert np.all(state.amplitudes[1:] == 0.0)

    def test_unit_norm(self):
        assert init_zero(5).norm() == 1.0

    def test_cap(self):
        assert MAX_QUBITS >= 23
        with pytest.raises(ResourceCapError, match="branch"):
            init_zero(MAX_QUBITS + 1)

    def test_bad_count(self):
        with pytest.raises(ValueError):
            init_zero(0)


class TestGates:
    def test_hadamard_on_zero(self):
        state = apply_gate(init_zero(1), hadamard(0))
        np.testing.assert_allclose(state.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_s_on_plus(self):
        state = apply_gate(apply_gate(init_zero(1), hadamard(0)), s_gate(0))
        np.testing.assert_allclose(state.amplitudes, [1 / math.sqrt(2), 1j / math.sqrt(2)])

    def test_x_sets_bit(self):
        state = apply_gate(init_zero(3), x_gate(2))
        assert state.amplitudes[4] == 1.0

    def test_cx_flips_when_control_set(self):
        state = apply_gate(init_zero(2), x_gate(0))
        state = apply_gate(state, controlled_x(0, 1))
        assert state.amplitudes[3] == 1.0

    def test_cx_idle_when_control_clear(self):
        state = apply_gate(init_zero(2), controlled_x(0, 1))
        assert state.amplitudes[0] == 1.0

    def test_multi_target_cx(self):
        state = apply_gate(init_zero(4), x_gate(0))
        state = apply_gate(state, controlled_x(0, 1, 2, 3))
        assert state.amplitudes[0b1111] == 1.0

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_against_kron_oracle(self, m):
        rng = np.random.default_rng(m)
        for trial in range(25):
            state = random_state(m, seed=100 * m + trial)
            expected = state.amplitudes.copy()
            for _ in range(6):
                choice = rng.integers(0, 6)
                if choice == 0:
                    bit = int(rng.integers(0, m))
                    apply_gate(state, hadamard(bit))
                    expected = kron_on(H, bit, m) @ expected
                elif choice == 1:
                    bit = int(rng.integers(0, m))
                    apply_gate(state, s_gate(bit))
                    expected = kron_on(S, bit, m) @ expected
                elif choice == 2:
                    bit = int(rng.integers(0, m))
                    apply_gate(state, x_gate(bit))
                    expected = kron_on(X, bit, m) @ expected
                elif choice == 3:
                    control, target = rng.choice(m, size=2, replace=False)
                    apply_gate(state, controlled_x(int(control), int(target)))
                    expected = cx_matrix(int(control), int(target), m) @ expected
                elif choice == 4:
                    targets = random_subset(rng, range(m))
                    apply_gate(state, x_gate(*targets))
                    for target in targets:
                        expected = kron_on(X, target, m) @ expected
                else:
                    # the control lands below, above or between the targets
                    control = int(rng.integers(0, m))
                    targets = random_subset(rng, [b for b in range(m) if b != control])
                    apply_gate(state, controlled_x(control, *targets))
                    for target in targets:
                        expected = cx_matrix(control, target, m) @ expected
            np.testing.assert_allclose(state.amplitudes, expected, atol=1e-13)

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
            return x_gate(*bits) if control is None else controlled_x(control, *bits)

        fan_out = random_state(5, seed=31)
        one_at_a_time = fan_out.copy()
        apply_gate(fan_out, gate(*targets))
        for target in targets:
            apply_gate(one_at_a_time, gate(target))
        np.testing.assert_array_equal(fan_out.amplitudes, one_at_a_time.amplitudes)

    def test_norm_preserved_random_circuit(self):
        state = random_state(6, seed=3)
        rng = np.random.default_rng(4)
        for _ in range(60):
            bit = int(rng.integers(0, 6))
            gate = [hadamard(bit), s_gate(bit), x_gate(bit)][rng.integers(0, 3)]
            apply_gate(state, gate)
        assert abs(state.norm() - 1.0) < 1e-12

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            apply_gate(init_zero(2), hadamard(2))

    def test_cx_duplicate_targets_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            apply_gate(init_zero(3), controlled_x(0, 1, 1))

    @pytest.mark.parametrize(
        "gate, error, match",
        [
            (x_gate(1, 2, 1), ValueError, "distinct"),
            (controlled_x(0, 2, 1, 2), ValueError, "distinct"),
            (controlled_x(1, 2, 1), ValueError, "distinct"),  # control is also a target
            (x_gate(0, 1, 3), IndexError, "out of range"),
            (controlled_x(0, 1, 3, 2), IndexError, "out of range"),
            (controlled_x(3, 1, 2), IndexError, "out of range"),
        ],
    )
    def test_bad_fan_out_rejected_before_any_pass(self, gate, error, match):
        state = random_state(3, seed=5)
        before = state.amplitudes.copy()
        with pytest.raises(error, match=match):
            apply_gate(state, gate)
        np.testing.assert_array_equal(state.amplitudes, before)


def h_oracle(amplitudes: np.ndarray, bit: int) -> np.ndarray:
    """H on `bit` through full-size temporaries, the formula the blocked kernel must reproduce."""
    pairs = amplitudes.reshape(-1, 2, 1 << bit)
    zero, one = pairs[:, 0, :].copy(), pairs[:, 1, :].copy()
    out = np.empty_like(pairs)
    out[:, 0, :] = (zero + one) * (1.0 / math.sqrt(2.0))
    out[:, 1, :] = (zero - one) * (1.0 / math.sqrt(2.0))
    return out.reshape(-1)


def x_oracle(amplitudes: np.ndarray, targets: tuple[int, ...], control: int | None) -> np.ndarray:
    """X on every target (where `control` is set) as one gather by flipped basis index."""
    index = np.arange(amplitudes.size)
    flipped = index ^ sum(1 << t for t in targets)
    return amplitudes[flipped if control is None else np.where((index >> control) & 1, flipped, index)]


class TestBlockedKernels:
    """H, X and CX walk the state in blocks of at most 2^15 amplitudes.

    On 18 qubits each half holds 2^17 amplitudes (2^16 within a control), so
    a gate splits it along the two (one) leading size-2 axes, the top bits
    that are neither target nor control; a target on such an axis pairs
    mirrored blocks, every other target is flipped inside a block.
    """

    QUBITS = 18

    @pytest.mark.parametrize("bit", [0, 9, 17])
    def test_hadamard_matches_full_temporaries(self, bit):
        state = random_state(self.QUBITS, seed=bit)
        expected = h_oracle(state.amplitudes, bit)
        apply_gate(state, hadamard(bit))
        np.testing.assert_array_equal(state.amplitudes, expected)

    @pytest.mark.parametrize(
        "control, targets",
        [
            (None, (0,)),
            (None, (9,)),
            (None, (17,)),
            (None, (0, 17)),  # bit 17 mirrors a split axis
            (None, (17, 16, 0)),  # first target on the top bit; 16 mirrors a split axis
            (None, (3, 16, 15, 8)),  # 16 on a split axis, 15 inside a block
            (None, tuple(range(18))),
            (0, tuple(range(1, 18))),  # the circuit's fan-out: 17 on the split axis
            (17, (16, 2)),  # control and first target take the top axes; bit 15 splits, unflipped
            (9, (0, 17, 15)),
            (16, (17,)),
            (5, (9,)),
        ],
    )
    def test_x_matches_index_oracle(self, control, targets):
        state = random_state(self.QUBITS, seed=len(targets))
        expected = x_oracle(state.amplitudes, targets, control)
        apply_gate(state, x_gate(*targets) if control is None else controlled_x(control, *targets))
        np.testing.assert_array_equal(state.amplitudes, expected)

    def test_no_state_size_temporary(self):
        state = init_zero(21)  # 2^21 amplitudes: 32 MiB
        state.amplitudes[:] = np.linspace(0.0, 1.0, state.amplitudes.size)
        for gate in (hadamard(0), hadamard(10), hadamard(20), x_gate(*range(1, 21)), controlled_x(0, *range(1, 21))):
            tracemalloc.start()
            try:
                apply_gate(state, gate)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 2 << 20, f"{gate.kind} {gate.targets} allocated {peak} bytes"


class TestDiagonalPhase:
    def test_zero_angles_identity(self):
        state = random_state(3, seed=9)
        before = state.amplitudes.copy()
        apply_diagonal_phase(state, np.zeros(2))
        np.testing.assert_array_equal(state.amplitudes, before)

    def test_pi_flips_x_expectation(self):
        # ancilla + one register qubit in |+x>
        state = init_zero(2)
        apply_gate(state, hadamard(1))

        def x_expectation(s):
            flipped = s.amplitudes.reshape(-1, 2, 2)[:, ::-1, :]
            return float(np.real(np.vdot(s.amplitudes, flipped.reshape(-1))))

        assert x_expectation(state) == pytest.approx(1.0, abs=1e-12)
        apply_diagonal_phase(state, np.array([math.pi]))
        assert x_expectation(state) == pytest.approx(-1.0, abs=1e-12)

    def test_composition_adds_angles(self):
        rng = np.random.default_rng(11)
        theta1, theta2 = rng.uniform(-2, 2, size=(2, 4))
        a = random_state(5, seed=12)
        b = a.copy()
        apply_diagonal_phase(a, theta1)
        apply_diagonal_phase(a, theta2)
        apply_diagonal_phase(b, theta1 + theta2)
        np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-14)

    def test_norm_unchanged(self):
        state = random_state(4, seed=13)
        apply_diagonal_phase(state, np.array([0.3, -0.7, 2.1]))
        assert abs(state.norm() - 1.0) < 1e-12

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="angles"):
            apply_diagonal_phase(init_zero(3), np.zeros(3))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        state = init_zero(3)
        with pytest.raises(ValueError, match="^dephasing angles must be finite$"):
            apply_diagonal_phase(state, np.array([0.0, bad]))
        assert state.amplitudes[0] == 1.0

    def test_phase_gate_wrapper(self):
        state = random_state(3, seed=21)
        twin = state.copy()
        angles = np.array([0.4, -1.1])
        apply_gate(state, diagonal_phase(angles))
        apply_diagonal_phase(twin, angles)
        np.testing.assert_array_equal(state.amplitudes, twin.amplitudes)


def random_density(n: int, seed: int) -> DensityMatrix:
    rng = np.random.default_rng(seed)
    dim = 1 << n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    mat = DensityMatrix(n, rho)
    mat.validate()
    return mat


class TestChannel:
    def test_diagonal_rho_unchanged(self):
        diag = np.diag(np.array([0.1, 0.2, 0.3, 0.4], dtype=complex))
        rho = DensityMatrix(2, diag)
        out = apply_channel(rho, np.array([0.7, -1.3]))
        np.testing.assert_array_equal(out.entries, diag)

    def test_single_qubit_coherence_phase(self):
        rho = DensityMatrix(1, np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
        theta = 0.8
        out = apply_channel(rho, np.array([theta]))
        assert out.entries[0, 1] == pytest.approx(0.5 * np.exp(-1j * theta), abs=1e-15)
        assert out.entries[1, 0] == pytest.approx(0.5 * np.exp(1j * theta), abs=1e-15)
        assert out.entries[0, 0] == 0.5 and out.entries[1, 1] == 0.5

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cptp_properties(self, n):
        rng = np.random.default_rng(40 + n)
        for trial in range(5):
            rho = random_density(n, seed=50 * n + trial)
            theta = rng.uniform(-3, 3, size=n)
            out = apply_channel(rho, theta)
            np.testing.assert_array_equal(np.diag(out.entries), np.diag(rho.entries))
            assert abs(out.trace() - rho.trace()) < 1e-12
            np.testing.assert_allclose(np.abs(out.entries), np.abs(rho.entries), atol=1e-12)
            out.validate()

    def test_composition_in_time(self):
        rho = random_density(3, seed=77)
        rng = np.random.default_rng(78)
        rates = rng.uniform(-1, 1, size=3)
        t1, t2 = 0.6, 1.7
        stepwise = apply_channel(apply_channel(rho, rates * t1), rates * t2)
        direct = apply_channel(rho, rates * (t1 + t2))
        np.testing.assert_allclose(stepwise.entries, direct.entries, atol=1e-12)

    def test_pure_state_purity_invariant(self):
        rng = np.random.default_rng(81)
        vec = rng.normal(size=8) + 1j * rng.normal(size=8)
        vec /= np.linalg.norm(vec)
        rho = density_from_amplitudes(vec)
        out = apply_channel(rho, rng.uniform(-2, 2, size=3))
        assert out.purity() == pytest.approx(1.0, abs=1e-12)

    def test_matches_statevector_on_pure_states(self):
        # ancilla + 3 register qubits; channel leaves the ancilla alone
        state = random_state(4, seed=90)
        theta = np.random.default_rng(91).uniform(-2, 2, size=3)
        rho = density_from_amplitudes(state.amplitudes)
        rho_out = apply_channel(rho, np.concatenate(([0.0], theta)))
        apply_diagonal_phase(state, theta)
        expected = np.outer(state.amplitudes, state.amplitudes.conj())
        np.testing.assert_allclose(rho_out.entries, expected, atol=1e-12)

    def test_angle_count_must_match(self):
        with pytest.raises(ValueError, match="angles"):
            apply_channel(random_density(2, seed=1), np.zeros(3))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="^dephasing angles must be finite$"):
            apply_channel(random_density(2, seed=1), [0.0, bad])

    def test_density_cap(self):
        with pytest.raises(ResourceCapError):
            density_from_amplitudes(np.eye(1, 1 << (DENSITY_MAX_QUBITS + 1)).ravel())


class TestMeasurement:
    def test_balanced_superposition_statistics(self):
        state = apply_gate(init_zero(1), hadamard(0))
        p_one = probability_of(state, 0, 1)
        outcomes = shot_uniforms(2718, 10**6) < p_one
        # 3 sigma of a fair binomial at 1e6 shots is 0.0015; allow 0.002
        assert abs(outcomes.mean() - 0.5) < 0.002

    def test_probability_examples(self):
        assert probability_of(init_zero(1), 0, 0) == 1.0
        plus = apply_gate(init_zero(1), hadamard(0))
        assert probability_of(plus, 0, 1) == pytest.approx(0.5, abs=1e-12)

    def test_probability_bad_bit(self):
        with pytest.raises(ValueError):
            probability_of(init_zero(1), 0, 2)
