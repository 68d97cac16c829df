"""The compiled, batched kernel against independent slow paths: a dense
np.kron circuit product, dense operator matrices built from the oracle's
circulants and the per-coordinate parameter-shift loop."""
from math import sqrt

import numpy as np
from hypothesis import given, settings, strategies as st

from vqpde.ansatz import AnsatzSpec, prepare, prepare_batch
from vqpde.costlib import CamassaHolm, build_cost
from vqpde.opexpr import (
    OpExpr,
    OpTerm,
    compile_monomials,
    diag,
    shift,
    shiftdag,
)
from vqpde.optim import parameter_shift_grad
from vqpde.statevec import RegisterLayout, kron_rows, layout_1d

from reference import dense_circuit_state, dense_reference
from test_acceptance import pde_instances


# -- dense reference circuit --------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(k=st.integers(1, 4), rows=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_kron_rows_equals_np_kron(k, rows, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(rows, k, 2, 2)) + 1j * rng.normal(size=(rows, k, 2, 2))
    got = kron_rows(m)
    assert got.shape == (rows, 2 ** k, 2 ** k)
    for r in range(rows):
        want = np.eye(1)
        for q in reversed(range(k)):
            want = np.kron(want, m[r, q])
        assert np.max(np.abs(got[r] - want)) <= 1e-15 * np.max(np.abs(want))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), layers=st.integers(1, 3),
       entangler=st.sampled_from(["chain", "ring", "none"]),
       axes=st.sampled_from([("Y",), ("Z",), ("Y", "Z")]),
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
        shape = (rows, cost.layout.dim)
        psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        dense = dense_reference(cost.m_op, cost.layout, cost.bindings)
        got = cost.m_form.apply(psi)
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


# -- batched gradient ---------------------------------------------------------

def loop_shift_grad(cost, lam, lam0: float) -> np.ndarray:
    """The parameter-shift rule one coordinate and one state at a time."""
    def split(row):
        q, l = cost.shift_split_eval(row[None, :])
        return q[0], l[0]

    grad = np.zeros(lam.size + 1)
    for i in range(lam.size):
        e = np.zeros_like(lam)
        e[i] = np.pi / 2
        qp, lp = split(lam + e)
        qm, lm = split(lam - e)
        grad[i] = (lam0 * lam0 * (qp - qm) / 2.0
                   - 2.0 * lam0 * (lp - lm) / (2.0 * sqrt(2.0)))
    q, l = split(lam)
    grad[-1] = 2.0 * lam0 * q - 2.0 * l
    return grad


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 4), layers=st.integers(1, 2),
       axes=st.sampled_from([("Y",), ("Y", "Z")]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_batched_shift_grad_equals_loop(n, layers, axes, seed):
    rng = np.random.default_rng(seed)
    spec = AnsatzSpec(n_qubits=n, layers=layers, rotation_axes=axes,
                      entangler="ring")
    xs = np.arange(float(2 ** n))
    u = np.sin(2 * np.pi * xs / 2 ** n)
    cost = build_cost(CamassaHolm(1.0), [0.9 * u, u], layout_1d(n, 1.0),
                      0.05, spec).parts[0]
    lam = rng.normal(size=spec.parameter_count)
    lam0 = float(rng.normal())
    batched = parameter_shift_grad(cost, lam, lam0)
    looped = loop_shift_grad(cost, lam, lam0)
    assert np.max(np.abs(batched - looped)) <= 1e-12
