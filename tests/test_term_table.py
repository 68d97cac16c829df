"""The term list and the two-family estimator against independent dense
references.

The term list (``vqpde terms``) is checked by applying every entry to the
prepared amplitudes through its dense matrix (``reference.dense_reference``).
The estimator is checked against ``reference.two_families``: M as a dense
matrix, the grid's Fourier transform as an np.kron of per-axis DFTs, and, in
shot mode, one binomial draw for the overlap and one multinomial draw for
the Fourier family of every (row, part), in that order.
"""
import zlib

import numpy as np
import pytest

from vqpde.ansatz import AnsatzSpec, prepare, prepare_batch
from vqpde.cli import _demo_cost
from vqpde import costlib
from vqpde.costlib import CostFunction, CostTemplate, JointCost, PartTemplate
from vqpde.opexpr import (
    MonomialForm,
    OpExpr,
    OpTerm,
    diag,
    grad_op,
    laplacian_op,
    shift,
)
from vqpde.statevec import SimulationError, hadamard_test, layout_1d

from reference import (
    dense_reference,
    direct_cost,
    family_cost,
    split_row,
    tagged_state,
    two_families,
)

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
    return CostFunction(PartTemplate("complex", lay, m_op, (expr,), ("u",)),
                        spec, {"u": u, "w": np.cos(2 * np.pi * xs / 8)})


def cases():
    out = [(f"{kind}/{i}", part) for kind in KINDS
           for i, part in enumerate(_demo_cost(kind).parts)]
    return out + [("complex", complex_cost())]


CASES = cases()
IDS = [name for name, _ in CASES]


def reference_values(cost, lam) -> np.ndarray:
    """Re<bra|T|psi> of every term-list entry, one dense matrix each."""
    psi = prepare(cost.spec, lam).amplitudes
    entries = cost.term_list()
    values = np.zeros(len(entries))
    for i, (_, bra, term) in enumerate(entries):
        op = dense_reference([term], cost.template.layout, cost.arrays)
        values[i] = hadamard_test(tagged_state(cost, bra, psi)[None, :],
                                  (op @ psi)[None, :])[0]
    return values


def reference_total(cost, values, lam0) -> float:
    """||b||^2 + sum of lam0^p coeff Re<bra|T|psi> over the term list."""
    return cost.joint.offset + sum(
        c.real * v * (lam0 if bra else lam0 * lam0)
        for (c, bra, _), v in zip(cost.term_list(), values))


def reference_draw(cost, lam, lam0, shots, rng) -> float:
    """One shot estimate of a part: the overlap Re<beta|psi> read off the
    term list's source entries (they sum to -2 Re<b|M psi>) and the
    Fourier probabilities of the dense DFT, a family measured unless its
    value cannot depend on psi (the rule ``JointCost.families`` states),
    the overlap drawn first."""
    psi = prepare(cost.spec, lam).amplitudes
    _, norm, probs, weight = two_families(cost, psi[None, :])
    source = sum(c.real * v for (c, bra, _), v in
                 zip(cost.term_list(), reference_values(cost, lam)) if bra)
    overlap = -source / (2.0 * norm) if norm else 0.0
    top = weight.max()
    if norm > costlib.FLAT * np.sqrt(top) * np.linalg.norm(cost.joint.b[0]):
        p = min(max((1.0 + overlap) / 2.0, 0.0), 1.0)
        overlap = 2.0 * rng.binomial(shots, p) / shots - 1.0
    probs = probs[0] / probs[0].sum()
    if np.ptp(weight) > costlib.FLAT * top:
        probs = rng.multinomial(shots, probs) / shots
    return cost.joint.offset - 2.0 * lam0 * norm * overlap \
        + lam0 * lam0 * (probs @ weight)


def close(got, want, tol=1e-12) -> bool:
    """Equal to ``tol`` relative to the larger of 1 and the largest |want|:
    a cost near 1e4 (einstein's) carries rounding near 1e-12."""
    want = np.asarray(want)
    return np.max(np.abs(got - want)) <= tol * max(1.0, np.abs(want).max())


def draws(name: str, cost):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    return rng.normal(size=cost.spec.parameter_count), rng.uniform(0.5, 1.5)


@pytest.mark.parametrize("name,cost", CASES, ids=IDS)
def test_exact_term_values_match_per_term_loop(name, cost):
    """The per-term loop over the term list sums to the two-family exact
    estimate and to the dense families' cost."""
    for _ in range(5):
        lam, lam0 = draws(name, cost)
        want = reference_total(cost, reference_values(cost, lam), lam0)
        assert close(cost.evaluate_terms(lam, lam0), want)
        psi = prepare(cost.spec, lam).amplitudes[None, :]
        assert close(family_cost(cost, psi, [lam0])[0], want)


@pytest.mark.parametrize("name,cost", CASES, ids=IDS)
def test_term_sum_equals_direct_residual_norm(name, cost):
    lam, lam0 = draws(name, cost)
    assert abs(cost.evaluate_terms(lam, lam0)
               - direct_cost(cost, lam, lam0)) < 1e-10


@pytest.mark.parametrize("name,cost", CASES, ids=IDS)
def test_shot_draws_match_per_term_loop(name, cost):
    """Three shot estimates in a row take the draws of ``reference_draw``,
    whose overlap comes from the per-term loop, and leave the generator in
    the same state."""
    lam, lam0 = draws(name, cost)
    seed = zlib.crc32(name.encode()) + 1
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        got = cost.evaluate_terms(lam, lam0, shots=SHOTS, rng=rng_a)
        want = reference_draw(cost, lam, lam0, SHOTS, rng_b)
        assert close(got, want)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_complex_cost_has_complex_and_nonunitary_terms():
    """The Y+Z cost's term values <bra|T|psi> have imaginary parts that the
    real coefficients drop, and it mixes unitary and non-unitary terms."""
    cost = complex_cost()
    psi = prepare(cost.spec, draws("complex", cost)[0]).amplitudes
    imag, unitary = [], []
    for _, bra, term in cost.term_list():
        op = dense_reference([term], cost.template.layout, cost.arrays)
        imag.append(np.vdot(tagged_state(cost, bra, psi), op @ psi).imag)
        unitary.append(all(a.is_unitary() for a in term.atoms))
    assert np.max(np.abs(imag)) > 1e-3
    assert not all(unitary) and any(unitary)


def test_complex_coefficients_are_estimated():
    """A source with a complex coefficient makes b and beta complex; the
    Hadamard test reads Re<beta|psi>, and the estimate keeps the cost."""
    cost = complex_cost(0.1j).joint
    assert np.iscomplexobj(cost.b) and np.abs(cost.b.imag).max() > 1e-3
    xs = np.random.default_rng(5).normal(size=(4, cost.n_params))
    assert close(cost.estimate_rows(xs), cost.evaluate_rows(xs))


# -- batched objective calls --------------------------------------------------

JOINTS = [(kind, _demo_cost(kind)) for kind in KINDS] + [
    ("complex", complex_cost().joint)]
JOINT_IDS = [name for name, _ in JOINTS]


def reference_rows(joint, xs, shots=None, rng=None) -> np.ndarray:
    """Per row, the parts' dense family costs summed, or in shot mode their
    ``reference_draw``s, part by part: the order of one call per row."""
    totals = []
    for x in xs:
        total = 0.0
        for p, (lam, lam0) in zip(joint.parts, split_row(joint, x)):
            if shots is None:
                psi = prepare(p.spec, lam).amplitudes[None, :]
                total += family_cost(p, psi, [lam0])[0]
            else:
                total += reference_draw(p, lam, lam0, shots, rng)
        totals.append(total)
    return np.array(totals)


@pytest.mark.parametrize("shots", [None, SHOTS])
@pytest.mark.parametrize("b", [1, 2, 5])
@pytest.mark.parametrize("name,joint", JOINTS, ids=JOINT_IDS)
def test_batched_rows_match_row_by_row_reference(name, joint, b, shots):
    """One call over b rows gives every total of one call per row bit for
    bit and leaves the generator in the same state; both match the dense
    row-by-row reference, draw for draw in shot mode."""
    seed = zlib.crc32(name.encode()) + b
    xs = np.random.default_rng(seed).normal(size=(b, joint.n_params))
    rngs = [np.random.default_rng(seed) for _ in range(3)]
    got = joint.estimate_rows(xs, shots, rngs[0])
    one = np.concatenate([joint.estimate_rows(x[None, :], shots, rngs[1])
                          for x in xs])
    assert np.array_equal(got, one)
    want = reference_rows(joint, xs, shots, rngs[2])
    assert close(got, want)
    states = [r.bit_generator.state for r in rngs]
    assert all(s == states[0] for s in states)


def test_batched_contraction_reduces_rows_of_a_2d_view():
    """Each overlap is the contraction of one row by itself: over the
    (B, K, dim) rows of a call it equals a one-row call bit for bit."""
    joint = _demo_cost("camassa-holm")
    beta = joint.families[0]
    lams = np.random.default_rng(3).normal(
        size=(3, joint.parts[0].spec.parameter_count))
    psi = prepare_batch(joint.parts[0].spec, lams)[:, None, :]
    got = hadamard_test(np.broadcast_to(beta, psi.shape), psi)
    for i in range(3):
        assert np.array_equal(got[i], hadamard_test(beta, psi[i]))


def test_stacked_families_are_each_parts_own():
    """dsw's families are its parts' one-part families in part order."""
    joint = _demo_cost("dsw")
    alone = [p.joint.families for p in joint.parts]
    for got, *want in zip(joint.families, *alone):
        assert np.array_equal(np.concatenate(want), got)


@pytest.mark.parametrize("rows_per_block", [1, 2])
@pytest.mark.parametrize("name,joint", JOINTS, ids=JOINT_IDS)
def test_blocked_rows_match_row_by_row_reference(name, joint, rows_per_block):
    """A shot call cut into calls over blocks of consecutive rows (5 rows
    as 1+1+1+1+1 or 2+2+1) gives the totals of one call and of the
    row-by-row reference, and leaves the generator in the same state."""
    seed = zlib.crc32(name.encode()) + 7
    xs = np.random.default_rng(seed).normal(size=(5, joint.n_params))
    rngs = [np.random.default_rng(seed) for _ in range(3)]
    blocks = np.concatenate([
        joint.estimate_rows(xs[i:i + rows_per_block], SHOTS, rngs[0])
        for i in range(0, 5, rows_per_block)])
    assert np.array_equal(blocks, joint.estimate_rows(xs, SHOTS, rngs[1]))
    want = reference_rows(joint, xs, SHOTS, rngs[2])
    assert close(blocks, want)
    states = [r.bit_generator.state for r in rngs]
    assert all(s == states[0] for s in states)


# -- the two families -------------------------------------------------------

@pytest.mark.parametrize("name,joint", JOINTS, ids=JOINT_IDS)
def test_exact_families_equal_evaluate_rows(name, joint):
    """The dense reference's families and the package's, evaluated
    exactly, give ``evaluate_rows`` to 1e-12, and the package's beta,
    ||M'b|| and |m_hat|^2 are the dense ones."""
    xs = np.random.default_rng(zlib.crc32(name.encode()) + 3).normal(
        size=(6, joint.n_params))
    want = joint.evaluate_rows(xs)
    assert close(joint.estimate_rows(xs), want)
    dense = np.zeros(len(xs))
    beta, norm, weight, _ = joint.families
    for k, p in enumerate(joint.parts):
        blocks = np.array([split_row(joint, x)[k][0] for x in xs])
        lam0s = [split_row(joint, x)[k][1] for x in xs]
        psi = prepare_batch(p.spec, blocks)
        dense += family_cost(p, psi, lam0s)
        overlap, ref_norm, _, ref_weight = two_families(p, psi)
        assert close(norm[k], ref_norm)
        assert close(weight[k], ref_weight)
        assert close((psi @ beta[k].conj()).real, overlap)
    assert close(dense, want)


def closed_form_sd(joint, x, shots) -> float:
    """Standard deviation of one shot estimate at row x: per part, the
    Bernoulli variance (1 - Re^2) / shots of the overlap, scaled by
    (2 lam0 ||M'b||)^2, plus the multinomial variance (sum w^2 p -
    (sum w p)^2) / shots of the Fourier family, scaled by lam0^4."""
    var = 0.0
    for p, (lam, lam0) in zip(joint.parts, split_row(joint, x)):
        overlap, norm, probs, weight = two_families(
            p, prepare(p.spec, lam).amplitudes[None, :])
        probs = probs[0] / probs[0].sum()
        var += (2.0 * lam0 * norm) ** 2 * (1.0 - overlap[0] ** 2) / shots
        var += lam0 ** 4 * (probs @ weight ** 2 - (probs @ weight) ** 2) \
            / shots
    return float(np.sqrt(max(var, 0.0)))


@pytest.mark.parametrize("name,joint", JOINTS, ids=JOINT_IDS)
def test_shot_estimates_centre_and_spread(name, joint):
    """2000 shot estimates of one row: their mean sits within 4 standard
    errors of ``evaluate_rows`` and their standard deviation within 10% of
    the closed form (exactly 0 where no family is measured)."""
    rng = np.random.default_rng(zlib.crc32(name.encode()) + 11)
    x = rng.normal(size=joint.n_params)
    est = joint.estimate_rows(np.tile(x, (2000, 1)), 200, rng)
    sd = closed_form_sd(joint, x, 200)
    exact = joint.evaluate_rows(x[None, :])[0]
    assert abs(est.mean() - exact) <= 4.0 * sd / np.sqrt(2000) + 1e-12
    assert abs(est.std() - sd) <= 0.1 * sd


def test_shot_mode_reads_no_closed_form(monkeypatch):
    """A shot evaluation measures: it calls none of the exact evaluators
    and no compiled operator."""
    joints = [joint for _, joint in JOINTS]
    for joint in joints:
        joint.families  # built on first use, from the step's b

    def refuse(*args, **kwargs):
        raise AssertionError("closed-form evaluation in shot mode")
    for name in ("evaluate_rows", "split", "value_and_grad"):
        monkeypatch.setattr(JointCost, name, refuse)
    monkeypatch.setattr(MonomialForm, "apply", refuse)
    rng = np.random.default_rng(9)
    for joint in joints:
        xs = rng.normal(size=(3, joint.n_params))
        assert np.isfinite(joint.estimate_rows(xs, SHOTS, rng)).all()


MEASURED = {  # per part: (overlap, Fourier)
    "couette": [(True, False)], "navier-stokes": [(True, False)],
    "einstein": [(True, False)], "maxwell": [(True, False)],
    "boussinesq": [(True, True)], "lin-tsien": [(True, True)],
    "camassa-holm": [(True, True)], "dsw": [(True, False), (True, True)],
    "hunter-saxton": [(True, True)],
}


@pytest.mark.parametrize("kind", KINDS)
def test_each_part_spends_at_most_two_circuits(kind, monkeypatch):
    """Where M is the identity or a shift (couette, navier-stokes, einstein,
    maxwell, dsw's u) the Fourier family is not measured; every other
    family is, each with ``shots`` shots: one Hadamard test and at most one
    multinomial draw per part and row."""
    joint = _demo_cost(kind)
    assert [tuple(m) for m in joint.families[3]] == MEASURED[kind]
    calls = {"hadamard": 0, "multinomial": 0}
    hadamard = costlib.hadamard_test

    def counted(*args, shots=None, rng=None):
        calls["hadamard"] += shots == SHOTS
        return hadamard(*args, shots=shots, rng=rng)
    monkeypatch.setattr(costlib, "hadamard_test", counted)
    rng = np.random.default_rng(4)
    multinomial = rng.multinomial

    class Counted:
        def binomial(self, *args):
            return rng.binomial(*args)

        def multinomial(self, n, p):
            calls["multinomial"] += n == SHOTS
            return multinomial(n, p)
    joint.estimate_rows(rng.normal(size=(3, joint.n_params)), SHOTS,
                        Counted())
    assert calls == {"hadamard": 3 * sum(m[0] for m in MEASURED[kind]),
                     "multinomial": 3 * sum(m[1] for m in MEASURED[kind])}


def test_a_family_independent_of_psi_draws_nothing():
    """With M = I and b = 0 neither family can depend on psi: a shot call
    draws nothing and returns the exact cost."""
    part = PartTemplate("rest", layout_1d(3, 1.0), OpExpr.identity(),
                        (OpExpr.identity(),), ("u",))
    joint = JointCost(CostTemplate("rest", (part,)), AnsatzSpec(3, layers=2),
                      {"u": np.zeros(8)})
    assert joint.families[3] == [[False, False]]
    rng = np.random.default_rng(6)
    xs = rng.normal(size=(4, joint.n_params))
    state = rng.bit_generator.state
    got = joint.estimate_rows(xs, SHOTS, rng)
    assert rng.bit_generator.state == state
    assert close(got, joint.evaluate_rows(xs))


@pytest.mark.parametrize("shots", [2.5, 2000.0, True, 0, -1], ids=repr)
def test_shot_estimates_reject_a_bad_shot_count(shots):
    """``estimate_rows`` and the one-part ``evaluate_terms`` reject a shot
    count that is not a positive integer, before any draw."""
    joint = _demo_cost("camassa-holm")
    x = np.random.default_rng(4).normal(size=joint.n_params)
    rng = np.random.default_rng(6)
    state = rng.bit_generator.state
    with pytest.raises(SimulationError, match="shot count"):
        joint.estimate_rows(x[None, :], shots, rng)
    part, = joint.parts
    with pytest.raises(SimulationError, match="shot count"):
        part.evaluate_terms(x[:-1], x[-1], shots, rng)
    assert rng.bit_generator.state == state
