import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vqpde.statevec import (
    Gate,
    QuantumState,
    RegisterLayout,
    SimulationError,
    apply_gate,
    apply_shift,
    hadamard_test,
    layout_1d,
    shift_permutation,
)
from vqpde.ansatz import AnsatzSpec
from vqpde.oracle import axis_operator, shift_matrix
from reference import dft_matrix

SQ2 = 1.0 / np.sqrt(2.0)


def random_state(rng, n):
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return QuantumState(amps / np.linalg.norm(amps), n)


# -- construction -----------------------------------------------------------

def test_state_length_must_match_qubits():
    with pytest.raises(SimulationError):
        QuantumState(np.ones(3, dtype=complex), 2)


def test_state_amplitudes_read_only():
    s = QuantumState.zero(2)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


def test_layout_rejects_bad_axes():
    with pytest.raises(SimulationError):
        RegisterLayout((("x", 0, 1.0),))
    with pytest.raises(SimulationError):
        RegisterLayout((("x", 2, -1.0),))
    with pytest.raises(SimulationError):
        RegisterLayout((("x", 2, 1.0), ("x", 1, 1.0)))


@pytest.mark.parametrize("n", [2.7, 2.0, True, "2", None])
def test_layout_rejects_a_qubit_count_that_is_not_an_integer(n):
    with pytest.raises(SimulationError):
        RegisterLayout((("x", n, 1.0),))
    assert RegisterLayout((("x", np.int64(2), 1.0),)).axes == (("x", 2, 1.0),)


def test_layout_offsets():
    lay = RegisterLayout((("x", 2, 0.5), ("y", 3, 0.25)))
    assert lay.total_qubits == 5
    assert lay.axis_info("x") == (0, 2, 0.5)
    assert lay.axis_info("y") == (2, 3, 0.25)
    assert lay.grid_shape() == (4, 8)


# -- gates ------------------------------------------------------------------

def test_hadamard_on_zero():
    out = apply_gate(QuantumState.zero(1), Gate("H"), (0,))
    assert np.allclose(out.amplitudes, [SQ2, SQ2])


def test_ry_pi_flips_zero():
    out = apply_gate(QuantumState.zero(1), Gate("RY", np.pi), (0,))
    assert abs(abs(out.amplitudes[1]) - 1.0) < 1e-12


def test_cnot_truth_table():
    # basis index 1 (control qubit 0 set), target qubit 1 -> index 3
    amps = np.zeros(4, dtype=complex)
    amps[1] = 1.0
    out = apply_gate(QuantumState(amps, 2), Gate("CNOT"), (0, 1))
    assert abs(out.amplitudes[3] - 1.0) < 1e-12


def test_gate_target_validation():
    s = QuantumState.zero(2)
    with pytest.raises(SimulationError):
        apply_gate(s, Gate("H"), (5,))
    with pytest.raises(SimulationError):
        apply_gate(s, Gate("CNOT"), (1, 1))
    with pytest.raises(SimulationError):
        apply_gate(s, Gate("H"), (0, 1))


def test_swap_and_cphase():
    rng = np.random.default_rng(3)
    s = random_state(rng, 2)
    swapped = apply_gate(s, Gate("SWAP"), (0, 1))
    assert np.allclose(swapped.amplitudes[[0, 1, 2, 3]],
                       s.amplitudes[[0, 2, 1, 3]])
    phased = apply_gate(s, Gate("CPHASE", np.pi / 3), (0, 1))
    expect = s.amplitudes.copy()
    expect[3] *= np.exp(1j * np.pi / 3)
    assert np.allclose(phased.amplitudes, expect)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 8))
def test_gates_preserve_norm(seed, n):
    rng = np.random.default_rng(seed)
    s = random_state(rng, n)
    kinds = ["H", "RX", "RY", "RZ", "X", "Z"]
    g = Gate(kinds[seed % len(kinds)], rng.normal())
    out = apply_gate(s, g, (int(rng.integers(n)),))
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


# -- shifts -----------------------------------------------------------------

def test_shift_increments_basis_index():
    lay = layout_1d(2, 1.0)
    amps = np.zeros(4, dtype=complex)
    amps[1] = 1.0
    out = apply_shift(QuantumState(amps, 2), lay, "x")
    assert abs(out.amplitudes[2] - 1.0) < 1e-12


def test_shift_wraps_cyclically():
    lay = layout_1d(2, 1.0)
    amps = np.zeros(4, dtype=complex)
    amps[3] = 1.0
    out = apply_shift(QuantumState(amps, 2), lay, "x")
    assert abs(out.amplitudes[0] - 1.0) < 1e-12


def test_shift_unknown_axis():
    with pytest.raises(SimulationError):
        apply_shift(QuantumState.zero(2), layout_1d(2, 1.0), "z")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 4), st.integers(1, 3))
def test_shift_backward_inverts_forward(seed, nx, ny):
    rng = np.random.default_rng(seed)
    lay = RegisterLayout((("x", nx, 1.0), ("y", ny, 0.5)))
    s = random_state(rng, nx + ny)
    for ax in ("x", "y"):
        out = apply_shift(apply_shift(s, lay, ax, "forward"), lay, ax, "backward")
        assert np.max(np.abs(out.amplitudes - s.amplitudes)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=3))
def test_shift_permutation_equals_dense_circulant(qubits):
    lay = RegisterLayout(tuple((l, n, 1.0) for l, n in zip("xyz", qubits)))
    for ax in lay.axis_labels():
        dense = axis_operator(lay, ax, shift_matrix(lay.axis_points(ax)))
        for direction, want in (("forward", dense), ("backward", dense.T)):
            # row j of the gather reads amplitude src[j]
            src = shift_permutation(lay, ax, direction)
            assert np.array_equal(np.eye(lay.dim)[src], want)


def test_shift_rejects_bad_direction_and_size():
    lay = layout_1d(2, 1.0)
    with pytest.raises(SimulationError):
        apply_shift(QuantumState.zero(2), lay, "x", "sideways")
    with pytest.raises(SimulationError):
        apply_shift(QuantumState.zero(3), lay, "x")


def test_shift_acts_on_named_axis_only():
    lay = RegisterLayout((("x", 1, 1.0), ("y", 1, 1.0)))
    amps = np.zeros(4, dtype=complex)
    amps[0] = 1.0  # (x=0, y=0)
    out = apply_shift(QuantumState(amps, 2), lay, "y")
    assert abs(out.amplitudes[2] - 1.0) < 1e-12  # y incremented, x untouched


# -- qft --------------------------------------------------------------------

def test_qft_of_delta_is_uniform():
    """The Fourier block's start, the QFT of |0...0>, is the uniform
    superposition, bit for bit the first column of the dense DFT matrix."""
    for n in range(1, 11):
        want = dft_matrix(2 ** n)[:, 0]
        got = AnsatzSpec(n, qft_block=True).plan.start
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert np.allclose(got, np.full(2 ** n, 1 / np.sqrt(2 ** n)))


# -- hadamard test ----------------------------------------------------------

def test_hadamard_test_identity():
    rng = np.random.default_rng(7)
    s = random_state(rng, 3).amplitudes[None, :]
    assert abs(hadamard_test(s, s)[0] - 1.0) < 1e-12


def test_hadamard_test_pauli_z_on_plus():
    plus = QuantumState(np.array([SQ2, SQ2]), 1)
    z_plus = apply_gate(plus, Gate("Z"), (0,))
    est = hadamard_test(plus.amplitudes[None, :], z_plus.amplitudes[None, :])
    assert abs(est[0]) < 1e-12


def test_hadamard_test_shift_off_diagonal():
    lay = layout_1d(2, 1.0)
    z = QuantumState.zero(2)
    shifted = apply_shift(z, lay, "x")
    est = hadamard_test(z.amplitudes[None, :], shifted.amplitudes[None, :])
    assert abs(est[0]) < 1e-12


# the ket rows that measure each part: Im<b|k> = Re<b|-i k>, the phase a
# device applies to the ancilla to read the imaginary part
PHASES = {"real": 1.0, "imag": -1j}


def test_hadamard_exact_equals_inner(seed=0):
    rng = np.random.default_rng(seed)
    lay = layout_1d(3, 1.0)
    bra, ket = random_state(rng, 3), random_state(rng, 3)
    op_ket = apply_shift(ket, lay, "x").amplitudes
    want = np.vdot(bra.amplitudes, op_ket)
    for part, phase in PHASES.items():
        est = hadamard_test(bra.amplitudes[None, :], phase * op_ket[None, :])
        assert abs(est[0] - getattr(want, part)) < 1e-12


def test_hadamard_shot_mode_needs_the_callers_generator():
    s = QuantumState.zero(2).amplitudes[None, :]
    with pytest.raises(SimulationError, match="random generator"):
        hadamard_test(s, s, shots=100)
    # exact mode draws nothing
    assert hadamard_test(s, s)[0] == 1.0


BAD_SHOTS = [2.5, 100.0, np.float64(4.0), True, False, 0, -3, np.int64(0),
             "100"]


@pytest.mark.parametrize("shots", BAD_SHOTS, ids=repr)
def test_hadamard_rejects_a_bad_shot_count(shots):
    """A shot count is a positive integer: 2.5 would draw binomial(2, p)
    and divide by 2.5, True would be one shot and 0 would divide by 0."""
    s = QuantumState.zero(2).amplitudes[None, :]
    with pytest.raises(SimulationError, match="shot count"):
        hadamard_test(s, s, shots=shots, rng=np.random.default_rng(0))


def test_hadamard_takes_a_numpy_integer_shot_count():
    rng = np.random.default_rng(3)
    bra = random_state(rng, 2).amplitudes[None, :]
    ket = random_state(rng, 2).amplitudes[None, :]
    got = [hadamard_test(bra, ket, shots=s, rng=np.random.default_rng(5))
           for s in (7, np.int64(7), np.int32(7))]
    assert got[0] == got[1] == got[2]


def test_hadamard_shot_mode_within_four_sigma():
    rng = np.random.default_rng(2024)
    lay = layout_1d(3, 1.0)
    shots = 10 ** 5
    hits = 0
    for trial in range(100):
        bra = random_state(rng, 3).amplitudes
        ket = apply_shift(random_state(rng, 3), lay, "x").amplitudes
        exact = np.real(np.vdot(bra, ket))
        est = hadamard_test(bra[None, :], ket[None, :],
                            shots=shots, rng=rng)
        sigma = np.sqrt((1.0 - exact ** 2) / shots)
        if abs(est[0] - exact) <= 4 * max(sigma, 1e-12):
            hits += 1
    assert hits >= 99


def _rows(seed, t=6, n=3):
    rng = np.random.default_rng(seed)
    lay = layout_1d(n, 1.0)
    bras = [random_state(rng, n).amplitudes for _ in range(t)]
    kets = [apply_shift(random_state(rng, n), lay, "x").amplitudes
            for _ in range(t)]
    return np.array(bras), np.array(kets)


@pytest.mark.parametrize("part", ["real", "imag"])
def test_hadamard_rows_equal_scalar_calls_exact(part):
    bra_rows, ket_rows = _rows(11)
    ket_rows = PHASES[part] * ket_rows
    rows = hadamard_test(bra_rows, ket_rows)
    single = [hadamard_test(b[None, :], k[None, :])[0]
              for b, k in zip(bra_rows, ket_rows)]
    assert np.array_equal(rows, single)
    want = [getattr(np.vdot(b, k / PHASES[part]), part)
            for b, k in zip(bra_rows, ket_rows)]
    assert np.max(np.abs(rows - want)) < 1e-12


@pytest.mark.parametrize("part", ["real", "imag"])
def test_hadamard_rows_equal_scalar_calls_shots(part):
    bra_rows, ket_rows = _rows(12)
    ket_rows = PHASES[part] * ket_rows
    rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
    rows = hadamard_test(bra_rows, ket_rows, shots=500,
                         rng=rng_a)
    single = [hadamard_test(b[None, :], k[None, :],
                            shots=500, rng=rng_b)[0]
              for b, k in zip(bra_rows, ket_rows)]
    assert np.array_equal(rows, single)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_hadamard_rows_shape_mismatch():
    bra_rows, ket_rows = _rows(14, t=3)
    with pytest.raises(SimulationError):
        hadamard_test(bra_rows, ket_rows[:2])
    with pytest.raises(SimulationError):
        hadamard_test(bra_rows[0], ket_rows[0])


def test_hadamard_rows_mix_parts_and_sampled_rows():
    """Rows of both parts (kets with and without the -i phase), sampled in
    one call over a 2-D leading shape: the values and draws of one call per
    row, taken in C order of the leading shape."""
    bra_rows, ket_rows = _rows(15)
    imag = np.array([False, True, True, False, True, False])
    ket_rows = np.where(imag[:, None], -1j, 1.0) * ket_rows
    rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
    rows = hadamard_test(bra_rows.reshape(2, 3, -1),
                         ket_rows.reshape(2, 3, -1), shots=500, rng=rng_a)
    assert rows.shape == (2, 3)
    for i, (b, k) in enumerate(zip(bra_rows, ket_rows)):
        one = hadamard_test(b[None, :], k[None, :], shots=500, rng=rng_b)
        assert rows.ravel()[i] == one[0]
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
