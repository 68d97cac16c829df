import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vqpde.statevec import (
    Estimate,
    Gate,
    QuantumState,
    RegisterLayout,
    SimulationError,
    apply_diagonal,
    apply_gate,
    apply_shift,
    hadamard_test,
    inner,
    layout_1d,
    qft,
)

SQ2 = 1.0 / np.sqrt(2.0)


def random_state(rng, n):
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return QuantumState.from_amplitudes(amps / np.linalg.norm(amps))


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
    assert abs(out.norm() - 1.0) < 1e-12


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


def test_shift_acts_on_named_axis_only():
    lay = RegisterLayout((("x", 1, 1.0), ("y", 1, 1.0)))
    amps = np.zeros(4, dtype=complex)
    amps[0] = 1.0  # (x=0, y=0)
    out = apply_shift(QuantumState(amps, 2), lay, "y")
    assert abs(out.amplitudes[2] - 1.0) < 1e-12  # y incremented, x untouched


# -- diagonal, inner --------------------------------------------------------

def test_diagonal_identity_and_annihilator():
    rng = np.random.default_rng(0)
    s = random_state(rng, 3)
    assert np.allclose(apply_diagonal(s, np.ones(8)).amplitudes, s.amplitudes)
    assert np.allclose(apply_diagonal(s, np.zeros(8)).amplitudes, 0.0)


def test_diagonal_is_pointwise_product():
    f = np.arange(1.0, 5.0)
    g = np.array([0.5, -1.0, 2.0, 0.25])
    enc = QuantumState.from_amplitudes(g.astype(complex))
    out = apply_diagonal(enc, f)
    assert np.allclose(out.amplitudes, f * g)


def test_diagonal_length_mismatch():
    with pytest.raises(SimulationError):
        apply_diagonal(QuantumState.zero(2), np.ones(3))


def test_inner_orthonormal_basis():
    e0 = QuantumState.zero(2)
    amps = np.zeros(4, dtype=complex)
    amps[2] = 1.0
    e2 = QuantumState(amps, 2)
    assert inner(e0, e0) == 1.0
    assert inner(e0, e2) == 0.0


def test_inner_uniform_shift_invariance():
    lay = layout_1d(2, 1.0)
    s = QuantumState.from_amplitudes(np.full(4, 0.5))
    assert abs(inner(s, apply_shift(s, lay, "x")) - 1.0) < 1e-12


# -- qft --------------------------------------------------------------------

def test_qft_of_delta_is_uniform():
    lay = layout_1d(3, 1.0)
    out = qft(QuantumState.zero(3), lay, "x")
    assert np.allclose(out.amplitudes, np.full(8, 1 / np.sqrt(8)))


def test_qft_of_uniform_is_delta():
    lay = layout_1d(3, 1.0)
    s = QuantumState.from_amplitudes(np.full(8, 1 / np.sqrt(8)))
    out = qft(s, lay, "x")
    assert abs(out.amplitudes[0] - 1.0) < 1e-12
    assert np.max(np.abs(out.amplitudes[1:])) < 1e-12


def test_qft_inverse_round_trip():
    rng = np.random.default_rng(5)
    lay = RegisterLayout((("x", 2, 1.0), ("y", 2, 1.0)))
    s = random_state(rng, 4)
    out = qft(qft(s, lay, "y"), lay, "y", inverse=True)
    assert np.max(np.abs(out.amplitudes - s.amplitudes)) < 1e-10


# -- hadamard test ----------------------------------------------------------

def test_hadamard_test_identity():
    rng = np.random.default_rng(7)
    s = random_state(rng, 3)
    est = hadamard_test(s, s, lambda k: k)
    assert abs(est.value - 1.0) < 1e-12


def test_hadamard_test_pauli_z_on_plus():
    plus = QuantumState.from_amplitudes([SQ2, SQ2])
    op = lambda k: apply_gate(k, Gate("Z"), (0,))
    assert abs(hadamard_test(plus, plus, op).value) < 1e-12


def test_hadamard_test_shift_off_diagonal():
    lay = layout_1d(2, 1.0)
    z = QuantumState.zero(2)
    op = lambda k: apply_shift(k, lay, "x")
    assert abs(hadamard_test(z, z, op).value) < 1e-12


def test_hadamard_exact_equals_inner(seed=0):
    rng = np.random.default_rng(seed)
    lay = layout_1d(3, 1.0)
    bra, ket = random_state(rng, 3), random_state(rng, 3)
    op = lambda k: apply_shift(k, lay, "x")
    for part, proj in (("real", np.real), ("imag", np.imag)):
        est = hadamard_test(bra, ket, op, part)
        assert abs(est.value - proj(inner(bra, op(ket)))) < 1e-12


def test_hadamard_shot_mode_rejects_nonunitary():
    s = QuantumState.zero(2)
    with pytest.raises(SimulationError):
        hadamard_test(s, s, lambda k: k, shots=100, op_is_unitary=False)


def test_hadamard_shot_mode_within_four_sigma():
    rng = np.random.default_rng(2024)
    lay = layout_1d(3, 1.0)
    op = lambda k: apply_shift(k, lay, "x")
    hits = 0
    for trial in range(100):
        bra = random_state(rng, 3)
        ket = random_state(rng, 3)
        exact = np.real(inner(bra, op(ket)))
        est = hadamard_test(bra, ket, op, shots=10 ** 5, rng=rng)
        assert isinstance(est, Estimate)
        assert est.stderr <= 1.0 / np.sqrt(10 ** 5) + 1e-12
        if abs(est.value - exact) <= 4 * max(est.stderr, 1e-12):
            hits += 1
    assert hits >= 99


def _rows_and_states(seed, t=6, n=3):
    rng = np.random.default_rng(seed)
    lay = layout_1d(n, 1.0)
    bras = [random_state(rng, n) for _ in range(t)]
    kets = [apply_shift(random_state(rng, n), lay, "x") for _ in range(t)]
    return (bras, kets, np.array([b.amplitudes for b in bras]),
            np.array([k.amplitudes for k in kets]))


@pytest.mark.parametrize("part", ["real", "imag"])
def test_hadamard_rows_equal_scalar_calls_exact(part):
    bras, kets, bra_rows, ket_rows = _rows_and_states(11)
    rows = hadamard_test(bra_rows, ket_rows, None, part)
    single = [hadamard_test(b, k, None, part) for b, k in zip(bras, kets)]
    assert np.array_equal(rows.value, [e.value for e in single])
    assert np.array_equal(rows.stderr, [e.stderr for e in single])
    want = [getattr(inner(b, k), part) for b, k in zip(bras, kets)]
    assert np.max(np.abs(rows.value - want)) < 1e-12


@pytest.mark.parametrize("part", ["real", "imag"])
def test_hadamard_rows_equal_scalar_calls_shots(part):
    bras, kets, bra_rows, ket_rows = _rows_and_states(12)
    rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
    rows = hadamard_test(bra_rows, ket_rows, None, part, 500, rng_a)
    single = [hadamard_test(b, k, None, part, 500, rng_b)
              for b, k in zip(bras, kets)]
    assert np.array_equal(rows.value, [e.value for e in single])
    assert np.array_equal(rows.stderr, [e.stderr for e in single])
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_hadamard_rows_shot_mode_rejects_nonunitary_row():
    _, _, bra_rows, ket_rows = _rows_and_states(13, t=3)
    rng = np.random.default_rng(0)
    with pytest.raises(SimulationError):
        hadamard_test(bra_rows, ket_rows, None, shots=100, rng=rng,
                      op_is_unitary=np.array([True, False, True]))
    # the same rows in exact mode need no unitary op
    hadamard_test(bra_rows, ket_rows, None,
                  op_is_unitary=np.array([True, False, True]))


def test_hadamard_rows_shape_mismatch():
    _, _, bra_rows, ket_rows = _rows_and_states(14, t=3)
    with pytest.raises(SimulationError):
        hadamard_test(bra_rows, ket_rows[:2])
