"""The compiled, batched kernel against independent slow paths: a dense
np.kron circuit product, dense operator matrices built from the oracle's
circulants, the per-coordinate parameter-shift rule and finite
differences."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vqpde.ansatz import (
    BLOCK,
    Y_BLOCK,
    AnsatzSpec,
    block_matrices,
    prepare,
    prepare_batch,
    prepare_pi_rows,
)
from vqpde.costlib import (
    Boussinesq,
    CamassaHolm,
    DSW,
    Einstein,
    HunterSaxton,
    LinTsien,
    Maxwell,
    NavierStokes,
    build_cost,
)
from vqpde.opexpr import (
    OpExpr,
    OpTerm,
    compile_monomials,
    diag,
    shift,
    shiftdag,
)
from vqpde.optim import finite_diff_grad
from vqpde.statevec import RegisterLayout, layout_1d, rotate

from reference import (
    dense_circuit_state,
    dense_reference,
    entangler_matrix,
    kron_qubits,
    rotation_matrix,
    shift_rule_grad,
    split_row,
)
from test_acceptance import pde_instances


# -- dense reference circuit --------------------------------------------------

AXES = [("Y",), ("Z",), ("Y", "Z"), ("Z", "Y")]


def block_width(n: int, axes: tuple) -> int:
    """The plan's rule: a register of up to BLOCK qubits, or of up to
    Y_BLOCK with Y rotations alone, is one block; else blocks of BLOCK
    qubits."""
    one = n <= BLOCK or (n <= Y_BLOCK and axes == ("Y",))
    return n if one else BLOCK


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 7), layers=st.integers(1, 2), rows=st.integers(1, 3),
       entangler=st.sampled_from(["chain", "ring", "none"]),
       axes=st.sampled_from(AXES), seed=st.integers(0, 2 ** 32 - 1))
def test_block_matrices_equal_np_kron(n, layers, rows, entangler, axes, seed):
    """Each block's gathered matrix is the np.kron product of its qubits'
    rotations, axis after axis; when one block spans the register (folded),
    it also holds the layer's CNOTs, and otherwise the plan keeps them."""
    spec = AnsatzSpec(n_qubits=n, layers=layers, entangler=entangler,
                      rotation_axes=axes)
    lams = np.random.default_rng(seed).normal(
        scale=2.0, size=(rows, spec.parameter_count))
    angles = lams.reshape(rows, layers, len(axes), n)
    mats = block_matrices(spec, lams)
    width = block_width(n, axes)
    assert [q for q, _ in mats] == list(range(0, n, width))
    folded = width == n
    assert (spec.plan.entangler is None) == (folded or entangler == "none"
                                             or n == 1)
    for q, u in mats:
        k = min(width, n - q)
        assert u.shape == (layers, rows, 2 ** k, 2 ** k)
        assert u.dtype == (np.float64 if axes == ("Y",) else np.complex128)
        for layer in range(layers):
            for r in range(rows):
                want = np.eye(2 ** k)
                for a, axis in enumerate(axes):
                    want = kron_qubits([rotation_matrix(axis, t) for t in
                                        angles[r, layer, a, q:q + k]]) @ want
                if folded:
                    want = entangler_matrix(n, entangler) @ want
                assert np.max(np.abs(u[layer, r] - want)) <= 1e-14


def one_block_equals_rotate_loop(spec, lams):
    """prepare_batch's one matmul per layer against rotate's block loop."""
    (q, u), = block_matrices(spec, lams)
    assert q == 0 and spec.plan.entangler is None
    want = spec.plan.start[None, :]
    for layer in range(spec.layers):
        want = rotate(want, q, u[layer])
    got = prepare_batch(spec, lams)
    assert got.shape == (len(lams), 2 ** spec.n_qubits)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-15


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, Y_BLOCK), layers=st.integers(1, 4),
       rows=st.integers(0, 5),
       entangler=st.sampled_from(["chain", "ring", "none"]),
       axes=st.sampled_from(AXES), qft_block=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_one_block_path_equals_rotate_loop(n, layers, rows, entangler, axes,
                                           qft_block, seed):
    """When one block spans the register, prepare_batch's one matmul per
    layer gives the rows that rotate's block loop gives."""
    axes = axes if block_width(n, axes) == n else ("Y",)
    spec = AnsatzSpec(n_qubits=n, layers=layers, entangler=entangler,
                      qft_block=qft_block, rotation_axes=axes)
    lams = np.random.default_rng(seed).normal(
        scale=2.0, size=(rows, spec.parameter_count))
    one_block_equals_rotate_loop(spec, lams)


FOUR_QUBIT_CIRCUITS = [
    (axes, entangler, qft_block) for axes in (("Y",), ("Z",), ("Y", "Z"))
    for entangler in ("chain", "ring", "none") for qft_block in (False, True)]


@pytest.mark.parametrize("axes,entangler,qft_block", FOUR_QUBIT_CIRCUITS)
def test_four_qubit_rows_equal_dense_circuit(axes, entangler, qft_block):
    """At 4 qubits, Y rotations alone make one block of two 2-qubit halves
    and Z or Y+Z keep blocks of BLOCK qubits; both match the dense circuit,
    and the one block matches rotate's loop."""
    rng = np.random.default_rng(len(axes) * 10 + len(entangler) + qft_block)
    for layers in (1, 2, 4):
        spec = AnsatzSpec(n_qubits=4, layers=layers, entangler=entangler,
                          qft_block=qft_block, rotation_axes=axes)
        lams = rng.normal(scale=2.0, size=(3, spec.parameter_count))
        assert spec.plan.wide == (axes == ("Y",))
        for row, lam in zip(prepare_batch(spec, lams), lams):
            assert np.max(np.abs(row - dense_circuit_state(spec, lam))) \
                <= 1e-13
        if spec.plan.wide:
            one_block_equals_rotate_loop(spec, lams)


def pi_rows_equal_shifted_batches(spec, lams):
    """Row 0 of prepare_pi_rows is prepare_batch of the base rows bit for
    bit, and row j that of the base rows with angle j - 1 shifted by pi."""
    p = spec.parameter_count
    rows = prepare_pi_rows(spec, lams)
    assert rows.shape == (p + 1, len(lams), 2 ** spec.n_qubits)
    assert rows.dtype == np.complex128 and rows.flags.c_contiguous
    assert np.array_equal(rows[0], prepare_batch(spec, lams))
    for j in range(p):
        shifted = lams.copy()
        shifted[:, j] += np.pi
        assert np.max(np.abs(rows[j + 1] - prepare_batch(spec, shifted))) \
            <= 1e-13


@pytest.mark.parametrize("axes,entangler,qft_block", FOUR_QUBIT_CIRCUITS)
def test_four_qubit_pi_rows_equal_shifted_batches(axes, entangler, qft_block):
    """At 4 qubits row 0 of prepare_pi_rows is prepare_batch bit for bit and
    row j the batch with angle j - 1 shifted by pi, for 1 to 3 base rows."""
    rng = np.random.default_rng(len(axes) * 10 + len(entangler) + qft_block)
    for layers, parts in ((1, 1), (2, 1), (2, 3), (4, 2)):
        spec = AnsatzSpec(n_qubits=4, layers=layers, entangler=entangler,
                          qft_block=qft_block, rotation_axes=axes)
        lams = rng.normal(scale=2.0, size=(parts, spec.parameter_count))
        pi_rows_equal_shifted_batches(spec, lams)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), layers=st.integers(1, 3),
       entangler=st.sampled_from(["chain", "ring", "none"]),
       axes=st.sampled_from([("Y",), ("Z",), ("Y", "Z"), ("Z", "Y")]),
       qft_block=st.booleans(), parts=st.integers(1, 2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_pi_rows_equal_shifted_batches(n, layers, entangler, axes, qft_block,
                                       parts, seed):
    """Row 0 of prepare_pi_rows is prepare_batch of the base rows bit for
    bit, and row j that of the base rows with angle j - 1 shifted by pi
    (several blocks from 4 qubits, or from 5 with Y rotations alone)."""
    spec = AnsatzSpec(n_qubits=n, layers=layers, entangler=entangler,
                      qft_block=qft_block, rotation_axes=axes)
    lams = np.random.default_rng(seed).normal(
        scale=2.0, size=(parts, spec.parameter_count))
    pi_rows_equal_shifted_batches(spec, lams)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), layers=st.integers(1, 3),
       entangler=st.sampled_from(["chain", "ring", "none"]),
       axes=st.sampled_from([("Y",), ("Z",), ("Y", "Z"), ("Z", "Y")]),
       qft_block=st.booleans(), rows=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_prepare_batch_rows_equal_dense_circuit(n, layers, entangler, axes,
                                                qft_block, rows, seed):
    spec = AnsatzSpec(n_qubits=n, layers=layers, entangler=entangler,
                      qft_block=qft_block, rotation_axes=axes)
    lams = np.random.default_rng(seed).normal(
        scale=2.0, size=(rows, spec.parameter_count))
    batch = prepare_batch(spec, lams)
    assert batch.shape == (rows, 2 ** n)
    # complex128 rows whether or not the circuit ran in float64
    assert batch.dtype == np.complex128 and batch.flags.c_contiguous
    empty = prepare_batch(spec, lams[:0])
    assert empty.shape == (0, 2 ** n) and empty.dtype == np.complex128
    for row, lam in zip(batch, lams):
        assert np.max(np.abs(row - dense_circuit_state(spec, lam))) <= 1e-13
        assert np.array_equal(row, prepare(spec, lam).amplitudes)


# -- compiled operators -------------------------------------------------------

def _parts(n: int) -> list:
    """Every builder's cost on n qubits, split into single-operator parts."""
    costs = pde_instances(n, two_axis=(max(n - n // 2, 1), max(n // 2, 1)))
    out = []
    for c in costs.values():
        out.extend(c.parts)
    return out


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 6), rows=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_compiled_m_op_equals_dense_matrix(n, rows, seed):
    rng = np.random.default_rng(seed)
    for cost in _parts(n):
        t = cost.template
        shape = (rows, t.layout.dim)
        psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        dense = dense_reference(t.m_op, t.layout, cost.arrays)
        got = t.m.constant.apply(psi)
        scale = max(np.max(np.abs(dense)), 1.0) * np.max(np.abs(psi))
        assert np.max(np.abs(got - psi @ dense.T)) <= 1e-13 * scale, cost.name


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(1, 3), ny=st.integers(0, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_compiled_random_expression_equals_dense_matrix(nx, ny, seed):
    rng = np.random.default_rng(seed)
    axes = [("x", nx, 1.0)] + ([("y", ny, 1.0)] if ny else [])
    lay = RegisterLayout(tuple(axes))
    binds = {f: rng.normal(size=lay.dim) for f in ("f", "g")}
    makers = [lambda: shift("x"), lambda: shiftdag("x"),
              lambda: diag(str(rng.choice(["f", "g"])))]
    if ny:
        makers += [lambda: shift("y"), lambda: shiftdag("y")]
    terms = [OpTerm(complex(*rng.normal(size=2)),
                    tuple(makers[i]() for i in
                          rng.integers(len(makers), size=rng.integers(0, 5))))
             for _ in range(rng.integers(1, 5))]
    expr = OpExpr(tuple(terms))
    psi = rng.normal(size=(2, lay.dim)) + 1j * rng.normal(size=(2, lay.dim))
    got = compile_monomials(expr, lay, binds).apply(psi)
    want = psi @ dense_reference(expr, lay, binds).T
    assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0)


# -- gradient ---------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 4), layers=st.integers(1, 2),
       axes=st.sampled_from([("Y",), ("Y", "Z")]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_batched_shift_grad_equals_loop(n, layers, axes, seed):
    """The P + 1-row gradient against the +/- pi/2 rule on the dense
    circuit, one coordinate and one state at a time."""
    rng = np.random.default_rng(seed)
    spec = AnsatzSpec(n_qubits=n, layers=layers, rotation_axes=axes,
                      entangler="ring")
    xs = np.arange(float(2 ** n))
    u = np.sin(2 * np.pi * xs / 2 ** n)
    cost = build_cost(CamassaHolm(1.0), [0.9 * u, u], layout_1d(n, 1.0),
                      0.05, spec).parts[0]
    lam = rng.normal(size=spec.parameter_count)
    lam0 = float(rng.normal())
    batched = cost.grad_vec(np.append(lam, lam0))
    looped = shift_rule_grad(cost, lam, lam0)
    assert np.max(np.abs(batched - looped)) <= 1e-12


# every kind ``build_cost`` accepts, as (problem, number of history fields)
GRAD_KINDS_1D = {
    "couette": (NavierStokes(nu=1.0), 1),
    "navier-stokes": (NavierStokes(nu=0.5, pressure=("uniform", 0.3)), 1),
    "einstein": (Einstein(), 1),
    "maxwell": (Maxwell(component="z", which="B"), 1),
    "boussinesq": (Boussinesq(0.5, 0.5), 2),
    "camassa-holm": (CamassaHolm(1.0), 2),
    "dsw": (DSW(), 2),
    "hunter-saxton": (HunterSaxton(), 1),
}


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(sorted(GRAD_KINDS_1D) + ["lin-tsien"]),
       n=st.integers(1, 4), layers=st.integers(1, 2),
       axes=st.sampled_from([("Y",), ("Y", "Z"), ("Z", "Y")]),
       qft_block=st.booleans(),
       entangler=st.sampled_from(["chain", "ring", "none"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_grad_vec_equals_shift_rule_and_finite_differences(
        kind, n, layers, axes, qft_block, entangler, seed):
    """Every kind, random history, angles and scales: the P + 1-row
    gradient against the dense +/- pi/2 rule and central differences, and
    the fused call's cost and gradient against ``evaluate_rows`` and
    ``grad_vec`` bit for bit."""
    rng = np.random.default_rng(seed)
    if kind == "lin-tsien":
        n = max(n, 2)
        layout = RegisterLayout((("x", n - 1, 1.0), ("y", 1, 1.0)))
        problem, depth = LinTsien(), 1
    else:
        layout = layout_1d(n, 1.0)
        problem, depth = GRAD_KINDS_1D[kind]
    spec = AnsatzSpec(n_qubits=n, layers=layers, entangler=entangler,
                      qft_block=qft_block, rotation_axes=axes)
    history = list(rng.normal(size=(depth, 2 ** n)))
    if kind == "maxwell":
        problem = Maxwell(component="z", which="B",
                          ext_fields={"E_y": rng.normal(size=2 ** n)})
    cost = build_cost(problem, history, layout, 0.05, spec)
    x = rng.normal(size=cost.n_params)
    got = cost.grad_vec(x)
    want = np.concatenate([shift_rule_grad(p, lam, lam0)
                           for p, (lam, lam0) in zip(cost.parts, split_row(cost, x))])
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.linalg.norm(want))
    fd = finite_diff_grad(cost.evaluate_rows, x)
    assert np.max(np.abs(got - fd)) <= 1e-6
    f, g = cost.value_and_grad(x)
    assert f == cost.evaluate_rows(x[None, :])[0]
    assert np.array_equal(g, got)
