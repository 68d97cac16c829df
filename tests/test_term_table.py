"""The compiled term table against an independent per-term loop.

The reference applies every term-list entry to the prepared amplitudes
through its dense matrix (``reference.dense_reference``) and estimates it
with its own one-row ``hadamard_test`` call, in term-list order, row by row
and part by part (the draw order ``JointCost.term_values`` documents), and
sums a row's total over the parts' term lists stacked in part order.
"""
import zlib

import numpy as np
import pytest

from vqpde.ansatz import AnsatzSpec, prepare, prepare_batch
from vqpde.cli import _demo_cost
from vqpde import costlib
from vqpde.costlib import CostFunction, JointCost, PartTemplate
from vqpde.opexpr import (
    OpExpr,
    OpTerm,
    diag,
    grad_op,
    laplacian_op,
    shift,
)
from vqpde.statevec import hadamard_test, layout_1d

from reference import dense_reference, direct_cost, split_row, tagged_state

KINDS = ["couette", "navier-stokes", "einstein", "maxwell", "boussinesq",
         "lin-tsien", "camassa-holm", "dsw", "hunter-saxton"]
SHOTS = 2000


def complex_cost(c=0.1) -> CostFunction:
    """A hand-built cost on a Y+Z ansatz, whose amplitudes are complex, so
    <bra|T|psi> has a nonzero imaginary part that the real coefficients
    drop.  ``c`` scales its non-unitary term; a complex ``c`` makes the
    coefficients complex."""
    lay = layout_1d(3, 1.0)
    spec = AnsatzSpec(n_qubits=3, layers=2, rotation_axes=("Y", "Z"))
    xs = np.arange(8.0)
    u = np.sin(2 * np.pi * xs / 8) + 0.5
    m_op = OpExpr.identity() + OpExpr.single(shift("x"), 0.3)
    expr = OpExpr.identity() + (
        OpExpr((OpTerm(1.0, (diag("w"),)),)) * grad_op("x", 1.0)).scale(c) \
        + laplacian_op("x", 1.0).scale(0.05)
    return CostFunction(PartTemplate("complex", lay, m_op, (expr,), ("u",),
                                     ("w",)),
                        spec, (u,), {"w": np.cos(2 * np.pi * xs / 8)})


def cases():
    out = [(f"{kind}/{i}", part) for kind in KINDS
           for i, part in enumerate(_demo_cost(kind).parts)]
    return out + [("complex", complex_cost())]


CASES = cases()
IDS = [name for name, _ in CASES]


def reference_values(cost, lam, shots=None, rng=None) -> np.ndarray:
    psi = prepare(cost.spec, lam).amplitudes
    entries = cost.term_list()
    values = np.zeros(len(entries))
    for i, (_, bra, term) in enumerate(entries):
        unitary = term.is_unitary_product()
        op = dense_reference([term], cost.template.layout, cost.bindings)
        values[i] = hadamard_test(
            tagged_state(cost, bra, psi)[None, :], (op @ psi)[None, :],
            sampled=unitary, shots=shots if unitary else None, rng=rng)[0]
    return values


def reference_total(costs, values, lam0s) -> float:
    """||b||^2 + sum of lam0^p coeff Re<bra|T|psi> over the parts' term
    lists stacked in part order, each term scaled by its own part's lam0,
    combined in the same order as ``JointCost.estimate_rows`` so that shot
    totals compare bit for bit."""
    coeff, scale = [], []
    for cost, lam0 in zip(costs, lam0s):
        for c, bra, _ in cost.term_list():
            coeff.append(c.real)
            scale.append(lam0 if bra else lam0 * lam0)
    b = np.concatenate([cost.b_vector for cost in costs])
    return float(np.real(np.vdot(b, b)) + np.sum(
        np.array(coeff) * np.concatenate(values) * np.array(scale)))


def draws(name: str, cost):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    return rng.normal(size=cost.spec.parameter_count), rng.uniform(0.5, 1.5)


@pytest.mark.parametrize("name,cost", CASES, ids=IDS)
def test_exact_term_values_match_per_term_loop(name, cost):
    for _ in range(5):
        lam, lam0 = draws(name, cost)
        got = JointCost(name, (cost,)).term_values(
            np.append(lam, lam0)[None, :])
        want = reference_values(cost, lam)
        assert np.max(np.abs(got[0] - want)) <= 1e-12
        assert abs(cost.evaluate_terms(lam, lam0)
                   - reference_total([cost], [want], [lam0])) <= 1e-12


@pytest.mark.parametrize("name,cost", CASES, ids=IDS)
def test_term_sum_equals_direct_residual_norm(name, cost):
    lam, lam0 = draws(name, cost)
    assert abs(cost.evaluate_terms(lam, lam0)
               - direct_cost(cost, lam, lam0)) < 1e-10


@pytest.mark.parametrize("name,cost", CASES, ids=IDS)
def test_shot_draws_match_per_term_loop(name, cost):
    lam, lam0 = draws(name, cost)
    seed = zlib.crc32(name.encode()) + 1
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        got = cost.evaluate_terms(lam, lam0, shots=SHOTS, rng=rng_a)
        want = reference_total(
            [cost], [reference_values(cost, lam, SHOTS, rng_b)], [lam0])
        assert np.array_equal(got, want)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_complex_cost_has_complex_and_nonunitary_terms():
    """The Y+Z cost's term values <bra|T|psi> have imaginary parts that the
    table drops, and it mixes unitary and non-unitary terms."""
    cost = complex_cost()
    table = JointCost(cost.name, (cost,)).term_table
    psi = prepare(cost.spec, draws("complex", cost)[0]).amplitudes
    imag = []
    for _, bra, term in cost.term_list():
        op = dense_reference([term], cost.template.layout, cost.bindings)
        imag.append(np.vdot(tagged_state(cost, bra, psi), op @ psi).imag)
    assert np.max(np.abs(imag)) > 1e-3
    assert not np.all(table.sampled) and np.any(table.sampled)


def test_complex_coefficient_is_rejected():
    """A Hadamard test measures only the real part of a term, so a term
    list with a complex coefficient has no table."""
    with pytest.raises(costlib.ProblemError, match="complex coefficient"):
        JointCost("complex", (complex_cost(0.1j),)).term_table


# -- batched objective calls --------------------------------------------------

JOINTS = [(kind, _demo_cost(kind)) for kind in KINDS] + [
    ("complex", JointCost("complex", (complex_cost(),)))]
JOINT_IDS = [name for name, _ in JOINTS]


def reference_rows(joint, xs, shots=None, rng=None) -> tuple:
    """Per row, per part, the per-term loop (the order of one objective
    call per row and part); per row its values in stacked-table order (B, T)
    and its total (B,)."""
    values, totals = [], []
    for x in xs:
        blocks = split_row(joint, x)
        row = [reference_values(p, lam, shots, rng)
               for p, (lam, _) in zip(joint.parts, blocks)]
        values.append(np.concatenate(row))
        totals.append(reference_total(joint.parts, row,
                                      [lam0 for _, lam0 in blocks]))
    return np.array(values), np.array(totals)


@pytest.mark.parametrize("shots", [None, SHOTS])
@pytest.mark.parametrize("b", [1, 2, 5])
@pytest.mark.parametrize("name,joint", JOINTS, ids=JOINT_IDS)
def test_batched_rows_match_row_by_row_reference(name, joint, b, shots):
    """One call over b rows gives every term value and every total of the
    row-by-row loop bit for bit, and leaves the generator in the same
    state."""
    seed = zlib.crc32(name.encode()) + b
    xs = np.random.default_rng(seed).normal(size=(b, joint.n_params))
    rngs = [np.random.default_rng(seed) for _ in range(4)]
    want_values, _ = reference_rows(joint, xs, shots, rngs[0])
    assert np.array_equal(joint.term_values(xs, shots, rngs[1]), want_values)
    _, want = reference_rows(joint, xs, shots, rngs[2])
    assert np.array_equal(joint.estimate_rows(xs, shots, rngs[3]), want)
    states = [r.bit_generator.state for r in rngs]
    assert all(s == states[0] for s in states)


def test_batched_contraction_reduces_rows_of_a_2d_view():
    """Each value is the sum over one row of a (rows, dim) array, equal bit
    for bit to a one-row call.  A sum over the last axis of the 3-D
    (B, T, dim) product rounds differently for these rows, so this pins
    the reduction."""
    part = _demo_cost("camassa-holm").parts[0]
    t = JointCost(part.name, (part,)).term_table
    lams = np.random.default_rng(3).normal(size=(3, part.spec.parameter_count))
    psi = prepare_batch(part.spec, lams)
    kets = t.weight * psi[:, t.perm]
    bras = np.where(t.quadratic[:, None], psi[:, None, :], t.source)
    got = hadamard_test(bras, kets, sampled=t.sampled)
    for i in range(3):
        assert np.array_equal(got[i], hadamard_test(
            bras[i], kets[i], sampled=t.sampled))


def test_stacked_table_reads_each_part_columns():
    """dsw's table is its parts' one-part tables in part order; a v term
    reads the columns [dim, 2 dim) of a row, where the stacked rows keep
    part v's amplitudes."""
    joint = _demo_cost("dsw")
    u, v = (JointCost(p.name, (p,)).term_table for p in joint.parts)
    t, dim = joint.term_table, joint.parts[0].template.layout.dim
    assert np.array_equal(t.part, np.repeat([0, 1], [u.part.size,
                                                     v.part.size]))
    assert np.array_equal(t.perm, np.concatenate((u.perm, v.perm + dim)))
    for name in ("coeff", "quadratic", "sampled", "weight", "source"):
        assert np.array_equal(getattr(t, name), np.concatenate(
            (getattr(u, name), getattr(v, name))))


@pytest.mark.parametrize("rows_per_block", [1, 2])
@pytest.mark.parametrize("name,joint", JOINTS, ids=JOINT_IDS)
def test_blocked_rows_match_row_by_row_reference(name, joint, rows_per_block,
                                                 monkeypatch):
    """A call cut into blocks of consecutive rows (5 rows as 1+1+1+1+1 or
    2+2+1) still gives the row-by-row totals bit for bit and leaves the
    generator in the same state."""
    monkeypatch.setattr(costlib, "TERM_BLOCK",
                        rows_per_block * joint.term_table.perm.size)
    seed = zlib.crc32(name.encode()) + 7
    xs = np.random.default_rng(seed).normal(size=(5, joint.n_params))
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    _, want = reference_rows(joint, xs, SHOTS, rng_a)
    assert np.array_equal(joint.estimate_rows(xs, SHOTS, rng_b), want)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
