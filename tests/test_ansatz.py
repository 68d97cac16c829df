import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vqpde.ansatz import AnsatzSpec, prepare
from vqpde.statevec import SimulationError


def test_parameter_count():
    spec = AnsatzSpec(n_qubits=3, layers=4, rotation_axes=("Y", "Z"))
    assert spec.parameter_count == 24


def test_spec_validation():
    with pytest.raises(SimulationError):
        AnsatzSpec(n_qubits=0)
    with pytest.raises(SimulationError):
        AnsatzSpec(n_qubits=2, layers=0)
    with pytest.raises(SimulationError):
        AnsatzSpec(n_qubits=2, entangler="star")
    with pytest.raises(SimulationError):
        AnsatzSpec(n_qubits=2, rotation_axes=("X",))


@pytest.mark.parametrize("field", ["n_qubits", "layers"])
@pytest.mark.parametrize("value", [3.0, True, "3", None])
def test_spec_rejects_non_integer_sizes(field, value):
    args = {"n_qubits": 2, "layers": 1, field: value}
    with pytest.raises(SimulationError, match=field):
        AnsatzSpec(**args)


def test_spec_accepts_numpy_integers():
    spec = AnsatzSpec(n_qubits=np.int64(3), layers=np.uint8(2))
    assert spec == AnsatzSpec(n_qubits=3, layers=2)
    assert type(spec.n_qubits) is int and type(spec.layers) is int
    assert prepare(spec, np.zeros(6)).amplitudes[0] == 1.0


def test_zero_parameters_give_reference_state():
    spec = AnsatzSpec(n_qubits=3, layers=2, rotation_axes=("Y",))
    out = prepare(spec, np.zeros(spec.parameter_count))
    assert abs(out.amplitudes[0] - 1.0) < 1e-12


def test_single_ry_amplitudes():
    spec = AnsatzSpec(n_qubits=1, layers=1, rotation_axes=("Y",),
                      entangler="none")
    theta = 0.7
    out = prepare(spec, np.array([theta]))
    assert np.allclose(out.amplitudes,
                       [np.cos(theta / 2), np.sin(theta / 2)])


def test_prepare_rejects_wrong_length():
    spec = AnsatzSpec(n_qubits=2)
    with pytest.raises(SimulationError):
        prepare(spec, np.zeros(5))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_prepare_unit_norm_and_deterministic(seed):
    rng = np.random.default_rng(seed)
    spec = AnsatzSpec(n_qubits=3, layers=2, rotation_axes=("Y", "Z"),
                      entangler="ring", qft_block=bool(seed % 2))
    lam = rng.normal(size=spec.parameter_count)
    a = prepare(spec, lam)
    b = prepare(spec, lam)
    assert abs(np.linalg.norm(a.amplitudes) - 1.0) < 1e-12
    assert np.array_equal(a.amplitudes, b.amplitudes)


def test_qft_block_plan_builds_no_dense_transform():
    """The Fourier block's start is built directly: a 10-qubit plan, whose
    dense DFT matrix would take 16 MiB, peaks under 1 MiB."""
    tracemalloc.start()
    try:
        AnsatzSpec(n_qubits=10, qft_block=True).plan
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_amplitude_gradient_matches_shift_rule():
    # amplitudes are linear in each rotation, so the state-shift rule with
    # denominator 2*sqrt(2) must match central finite differences
    rng = np.random.default_rng(9)
    spec = AnsatzSpec(n_qubits=2, layers=2, rotation_axes=("Y", "Z"))
    lam = rng.normal(size=spec.parameter_count)
    h = 1e-5
    for i in range(spec.parameter_count):
        e = np.zeros_like(lam)
        e[i] = 1.0
        fd = (prepare(spec, lam + h * e).amplitudes
              - prepare(spec, lam - h * e).amplitudes) / (2 * h)
        ps = (prepare(spec, lam + (np.pi / 2) * e).amplitudes
              - prepare(spec, lam - (np.pi / 2) * e).amplitudes) \
            / (2 * np.sqrt(2))
        assert np.max(np.abs(fd - ps)) < 1e-6


# A variational state is the row (lam, lam0); ``readout`` turns it into the
# field lam0 * prepare(spec, lam) and is where a bad row is rejected.

def test_variational_state_field():
    from vqpde.evolve import readout
    spec = AnsatzSpec(n_qubits=1, layers=1, entangler="none")
    f, _ = readout(spec, np.array([np.pi / 2, 2.0]))
    assert np.allclose(f, [np.sqrt(2), np.sqrt(2)])


def test_variational_state_validation():
    from vqpde.evolve import readout
    spec = AnsatzSpec(n_qubits=2)
    with pytest.raises(SimulationError, match="expected 2 parameters"):
        readout(spec, np.zeros(4))
    with pytest.raises(SimulationError, match="finite"):
        readout(spec, np.array([0.0, 0.0, np.inf]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_variational_state_rejects_non_finite_angles(bad):
    from vqpde.evolve import readout
    spec = AnsatzSpec(n_qubits=2, layers=1)
    with pytest.raises(SimulationError, match="finite"):
        readout(spec, np.append(np.full(spec.parameter_count, bad), 1.0))
    with pytest.raises(SimulationError, match="finite"):
        readout(spec, np.array([0.0, bad, 1.0]))
