import re
import zlib
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vqpde import ansatz
from vqpde.ansatz import AnsatzSpec, prepare
from vqpde.cli import _demo_cost
from vqpde.costlib import (
    Boussinesq,
    CamassaHolm,
    CostFunction,
    DSW,
    Einstein,
    EquilibriumFluid,
    HunterSaxton,
    JointCost,
    LinTsien,
    Maxwell,
    NavierStokes,
    PartTemplate,
    PointParticle,
    ProblemError,
    build_cost,
    components,
    grid_coordinates,
)
from vqpde.opexpr import OpExpr
from vqpde.statevec import RegisterLayout, SimulationError, layout_1d

from reference import (
    dense_reference,
    direct_joint_cost,
    shift_rule_grad,
    split_row,
)

LAY = layout_1d(3, 1.0)
SPEC = AnsatzSpec(n_qubits=3, layers=2, rotation_axes=("Y", "Z"))
SPEC_Y = AnsatzSpec(n_qubits=3, layers=4, rotation_axes=("Y",))
LAY2 = RegisterLayout((("x", 2, 1.0), ("y", 1, 1.0)))
SPEC2 = AnsatzSpec(n_qubits=3, layers=2, rotation_axes=("Y", "Z"))
XS = np.arange(8.0)
U = np.sin(2 * np.pi * XS / 8)
V = np.cos(2 * np.pi * XS / 8)
TAU = 0.05


def all_costs():
    u3 = np.sin(2 * np.pi * np.arange(8.0) / 8)
    return {
        "navier-stokes": build_cost(
            NavierStokes(nu=1.0, pressure=("field", 0.1 * V)),
            [U], LAY, TAU, SPEC),
        "couette": build_cost(NavierStokes(nu=1.0), [U], LAY, TAU, SPEC),
        "einstein": build_cost(
            Einstein(tensor=EquilibriumFluid(1.0, 0.1, 1.0, 1.0)),
            [U + 2.0], LAY, TAU, SPEC),
        "maxwell": build_cost(
            Maxwell(component="z", which="B", ext_fields={"E_y": V}),
            [U], LAY, TAU, SPEC),
        "boussinesq": build_cost(Boussinesq(0.5, 0.5), [0.9 * U, U],
                                 LAY, TAU, SPEC),
        "lin-tsien": build_cost(LinTsien(), [u3], LAY2, TAU, SPEC2),
        "camassa-holm": build_cost(CamassaHolm(1.0), [0.9 * U, U],
                                   LAY, TAU, SPEC),
        "dsw": build_cost(DSW(), [U, V + 1.5], LAY, TAU, SPEC),
        "hunter-saxton": build_cost(HunterSaxton(), [U], LAY, TAU, SPEC),
    }


DEMO_KINDS = ("couette", "navier-stokes", "einstein", "maxwell", "boussinesq",
              "lin-tsien", "camassa-holm", "dsw", "hunter-saxton")


@lru_cache(maxsize=None)
def demo_costs(kind):
    """The demo's joint cost, after each of its parts alone when it has
    several."""
    joint = _demo_cost(kind)
    if len(joint.parts) == 1:
        return (joint,)
    return (*(JointCost(p.name, (p,)) for p in joint.parts), joint)


# -- problem validation -------------------------------------------------------

@pytest.mark.parametrize("nu", [-1.0, 0.0, np.nan, np.inf, True, np.bool_(1),
                                "1", None])
def test_problem_rejects_a_bad_coefficient(nu):
    """A coefficient is a positive, finite real: a bool or a string is
    rejected by name, not by a numpy TypeError."""
    with pytest.raises(ProblemError, match="nu must be positive"):
        NavierStokes(nu=nu)


NAN_FIELD = np.where(XS == 3, np.nan, U)


# (problem class, bad fields, the error's text)
BAD_PROBLEMS = {
    "boussinesq-alpha-nan": (Boussinesq, {"alpha": np.nan},
                             "alpha must be a finite number"),
    "boussinesq-alpha-bool": (Boussinesq, {"alpha": True},
                              "alpha must be a finite number"),
    "boussinesq-beta-str": (Boussinesq, {"beta": "1"},
                            "beta must be a finite number"),
    "camassa-holm-kappa-inf": (CamassaHolm, {"kappa": np.inf},
                               "kappa must be a finite number"),
    "particle-m-nan": (PointParticle, {"m": np.nan, "v_mu": 0.5,
                                       "v_nu": 0.5},
                       "m must be a finite number"),
    "particle-c-zero": (PointParticle, {"m": 1.0, "v_mu": 0.5, "v_nu": 0.5,
                                        "c": 0.0}, "c must be positive"),
    "fluid-rho-nan": (EquilibriumFluid, {"rho_e": np.nan, "p": 0.1,
                                         "u_mu": 1.0, "u_nu": 1.0},
                      "rho_e must be a finite number"),
    "fluid-c-zero": (EquilibriumFluid, {"rho_e": 1.0, "p": 0.1, "u_mu": 1.0,
                                        "u_nu": 1.0, "c": 0.0},
                     "c must be positive"),
    "einstein-g-nan": (Einstein, {"G": np.nan}, "G must be a finite number"),
    "einstein-tensor": (Einstein, {"tensor": "fluid"},
                        "tensor must be an EquilibriumFluid or a "
                        "PointParticle"),
    "pressure-pair": (NavierStokes, {"pressure": ("uniform",)},
                      "pressure must be None or a (model, value) pair"),
    "pressure-model": (NavierStokes, {"pressure": ("bogus", 1)},
                       "unknown pressure model 'bogus'"),
    "pressure-uniform-nan": (NavierStokes, {"pressure": ("uniform", np.nan)},
                             "uniform pressure gradient must be a finite "
                             "number"),
    "pressure-field-nan": (NavierStokes, {"pressure": ("field", NAN_FIELD)},
                           "pressure field must be a row of finite numbers"),
    "pressure-field-bool": (NavierStokes, {"pressure": ("field", U > 0)},
                            "pressure field must be a row of finite "
                            "numbers"),
    "maxwell-ext-field-nan": (Maxwell, {"ext_fields": {"E_y": NAN_FIELD}},
                              "E_y must be a row of finite numbers"),
}


@pytest.mark.parametrize("case", sorted(BAD_PROBLEMS))
def test_problems_reject_bad_inputs_when_constructed(case):
    """A non-finite or non-numeric coefficient, an unknown pressure model
    and NaN samples fail by name when the problem is made, not as a
    non-finite objective in the optimizer or at the first compile."""
    cls, fields, message = BAD_PROBLEMS[case]
    with pytest.raises(ProblemError, match=re.escape(message)):
        cls(**fields)


def test_problem_validation():
    with pytest.raises(ProblemError):
        NavierStokes(nu=-1.0)
    with pytest.raises(ProblemError):
        Maxwell(which="Q")
    with pytest.raises(ProblemError):
        PointParticle(1.0, 2.0, 0.0, c=1.0)


def test_insufficient_history_rejected():
    with pytest.raises(ProblemError):
        build_cost(Boussinesq(1.0, 1.0), [U], LAY, TAU, SPEC)
    with pytest.raises(ProblemError):
        build_cost(CamassaHolm(), [U], LAY, TAU, SPEC)
    with pytest.raises(ProblemError):
        build_cost(DSW(), [U], LAY, TAU, SPEC)


@pytest.mark.parametrize("n", [2, 16])
def test_wrong_length_field_rejected(n):
    samples = np.linspace(0.0, 1.0, n)
    for problem in (NavierStokes(nu=1.0, pressure=("field", samples)),
                    Maxwell(component="z", which="B",
                            ext_fields={"E_y": samples})):
        with pytest.raises((SimulationError, ProblemError)):
            build_cost(problem, [U], LAY, TAU, SPEC)


def test_build_cost_has_one_part_per_component():
    for name, cost in all_costs().items():
        assert isinstance(cost, JointCost)
        assert len(cost.parts) == (2 if name == "dsw" else 1), name
    assert components(DSW()) == ("u", "v")
    assert components(NavierStokes(nu=1.0)) == ("u",)


def test_nonpositive_tau_rejected():
    with pytest.raises(ProblemError):
        build_cost(HunterSaxton(), [U], LAY, 0.0, SPEC)


# -- evaluation equivalences --------------------------------------------------

@pytest.mark.parametrize("name", sorted(all_costs()))
def test_term_sum_equals_direct_residual_norm(name):
    cost = all_costs()[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(25):
        x = rng.normal(size=cost.n_params)
        closed = cost.evaluate_rows(x[None, :])[0]
        direct = direct_joint_cost(cost, x)
        terms = sum(p.evaluate_terms(lam, lam0)
                    for p, (lam, lam0) in zip(cost.parts, split_row(cost, x)))
        assert abs(closed - direct) < 1e-10
        assert abs(terms - direct) < 1e-10


@pytest.mark.parametrize("kind", DEMO_KINDS)
def test_rows_evaluation_equals_one_row_bitwise(kind):
    rng = np.random.default_rng(zlib.crc32(kind.encode()))
    for cost in demo_costs(kind):
        assert cost.evaluate_rows(np.zeros((0, cost.n_params))).shape == (0,)
        for b in (1, 2, 11):
            xs = rng.normal(size=(b, cost.n_params))
            rows = cost.evaluate_rows(xs)
            assert rows.shape == (b,)
            for i in range(b):
                assert np.array_equal(rows[i],
                                      cost.evaluate_rows(xs[i:i + 1])[0])


@pytest.mark.parametrize("kind", DEMO_KINDS)
def test_joint_calls_equal_per_part_calls_bitwise(kind):
    """The joint cost stacks its parts into one block-diagonal residual; its
    rows, cost, scales and gradient equal those of one-part costs over each
    part's columns, summed or concatenated."""
    joint = _demo_cost(kind)
    singles = [JointCost(p.name, (p,)) for p in joint.parts]
    rng = np.random.default_rng(zlib.crc32(kind.encode()) + 1)
    xs = rng.normal(size=(5, joint.n_params))
    ends = np.cumsum([p.n_params for p in joint.parts])[:-1]
    want = 0.0
    for one, b in zip(singles, np.split(xs, ends, axis=1)):
        want = want + one.evaluate_rows(b)
    assert np.array_equal(joint.evaluate_rows(xs), want)
    blocks = np.split(xs[0], ends)
    assert np.array_equal(joint.rescale(xs[0]), np.concatenate([
        one.rescale(x) for one, x in zip(singles, blocks)]))
    pairs = [one.value_and_grad(x) for one, x in zip(singles, blocks)]
    f, g = joint.value_and_grad(xs[0])
    assert f == sum(c for c, _ in pairs)
    assert np.array_equal(g, np.concatenate([d for _, d in pairs]))
    assert np.array_equal(joint.grad_vec(xs[0]), np.concatenate([
        p.grad_vec(x) for p, x in zip(joint.parts, blocks)]))


def test_joint_cost_rejects_parts_with_different_ansatze():
    """Every part is prepared with one ansatz, so parts built on different
    ones cannot be stacked."""
    a = build_cost(NavierStokes(nu=1.0), [U], LAY, TAU, SPEC).parts[0]
    b = build_cost(NavierStokes(nu=1.0), [U], LAY, TAU, SPEC_Y).parts[0]
    with pytest.raises(ProblemError, match="one ansatz"):
        JointCost("mixed", (a, b))
    assert JointCost("same", (a, a)).n_params == 2 * a.n_params


def test_block_diagonal_operator_pads_shorter_parts():
    """dsw's u part (M = 1) is padded with weight-0 identity rows to the
    v part's term count; each part's columns see only its own operator."""
    joint = _demo_cost("dsw")
    u, v = joint.parts
    dim = u.template.layout.dim
    form = joint.m_form
    um, vm = (p.template.m.constant for p in joint.parts)
    assert not form.identity and form.perm.shape == (len(vm.perm), 2 * dim)
    assert np.array_equal(form.perm[:, dim:], vm.perm + dim)
    assert np.array_equal(form.weight[:, dim:], vm.weight)
    assert np.array_equal(form.perm[:1, :dim], um.perm)
    assert np.array_equal(form.weight[:1, :dim], um.weight)
    assert np.all(form.perm[1:, :dim] == np.arange(dim))
    assert np.all(form.weight[1:, :dim] == 0)
    assert np.array_equal(joint.b, np.stack([u.b_vector, v.b_vector]))


@pytest.mark.parametrize("kind", DEMO_KINDS)
def test_rescale_lowers_the_cost_and_is_idempotent(kind):
    """Each part's cost is an exact quadratic in its lam0, so ``rescale``'s
    closed-form scales can only lower the cost.  They depend on the angles
    alone, so a second rescale changes nothing; the angles stay, and x is
    not written."""
    rng = np.random.default_rng(zlib.crc32(kind.encode()) + 3)
    for cost in demo_costs(kind):
        scales = np.cumsum([p.n_params for p in cost.parts]) - 1
        for _ in range(5):
            x = rng.normal(scale=2.0, size=cost.n_params)
            kept = x.copy()
            y = cost.rescale(x)
            assert np.array_equal(x, kept)
            assert np.array_equal(np.delete(y, scales), np.delete(x, scales))
            assert np.array_equal(cost.rescale(y), y)
            before, after = cost.evaluate_rows(np.stack([x, y]))
            assert after <= before


@pytest.mark.parametrize("kind", DEMO_KINDS)
def test_fused_call_equals_evaluate_rows_and_shift_rule(kind):
    """On every demo part and joint cost, ``value_and_grad``'s cost is
    ``evaluate_rows`` bit for bit, and its gradient is ``grad_vec`` bit for
    bit and the dense +/- pi/2 rule to 1e-10."""
    rng = np.random.default_rng(zlib.crc32(kind.encode()) + 2)
    for cost in demo_costs(kind):
        for _ in range(3):
            x = rng.normal(size=cost.n_params)
            f, g = cost.value_and_grad(x)
            assert f == cost.evaluate_rows(x[None, :])[0]
            assert np.array_equal(g, cost.grad_vec(x))
            k, want = 0, []
            for p in cost.parts:
                k += p.n_params
                want.append(shift_rule_grad(p, x[k - p.n_params:k - 1],
                                            x[k - 1]))
            assert np.max(np.abs(g - np.concatenate(want))) <= 1e-10


JACOBIAN_ANSATZE = {
    "Y": {"rotation_axes": ("Y",)},
    "Y+Z": {"rotation_axes": ("Y", "Z")},
    "qft_block": {"rotation_axes": ("Y", "Z"), "qft_block": True},
}


@pytest.mark.parametrize("ansatz", sorted(JACOBIAN_ANSATZE))
@pytest.mark.parametrize("kind", DEMO_KINDS)
def test_residual_jacobian_matches_differences_and_gradient(kind, ansatz):
    """On every demo part and joint cost, on a real and two complex
    ansatze: r.r, returned third, is the cost, J the central differences
    of r to 1e-8, and 2 J^T r ``value_and_grad``'s gradient to 1e-12
    max(1, |g|).  A complex residual comes as [Re; Im] rows, a real one as
    its real rows."""
    rng = np.random.default_rng(zlib.crc32((kind + ansatz).encode()))
    for demo in demo_costs(kind):
        spec = AnsatzSpec(n_qubits=demo.parts[0].spec.n_qubits, layers=2,
                          **JACOBIAN_ANSATZE[ansatz])
        cost = JointCost(demo.name, tuple(replace(p, spec=spec)
                                          for p in demo.parts))
        x = rng.normal(size=cost.n_params)
        r, jac, rr = cost.residual_jacobian(x)
        assert rr == float(r.dot(r))
        assert r.size == (1 if ansatz == "Y" else 2) * cost.b.size
        assert jac.shape == (r.size, cost.n_params)
        h = 1e-5
        diff = np.stack([cost.residual_jacobian(x + e)[0]
                         - cost.residual_jacobian(x - e)[0]
                         for e in h * np.eye(x.size)], axis=1) / (2 * h)
        assert np.max(np.abs(jac - diff)) <= 1e-8
        f, g = cost.value_and_grad(x)
        assert abs(r.dot(r) - f) <= 1e-12 * f
        assert np.max(np.abs(2.0 * jac.T @ r - g)) <= 1e-12 * max(
            1.0, np.linalg.norm(g))


def test_costs_compare_and_hash_by_identity():
    """A bound part and its joint cost hold arrays: they compare and hash
    as objects, not field by field."""
    cost = build_cost(CamassaHolm(1.0), [0.9 * U, U], LAY, TAU, SPEC_Y)
    part = cost.parts[0]
    copy = replace(part)
    assert part == part and part != copy and cost != replace(cost)
    assert len({part, copy, cost}) == 3


def test_joint_gradient_is_one_prepare_batch_call(monkeypatch):
    """dsw's two parts take their P + 1 rows each from one build of the
    block matrices, for the two base rows."""
    joint = build_cost(DSW(), [U, V + 1.5], LAY, TAU, SPEC_Y)
    rows = []
    axis_factors = ansatz.axis_factors

    def counted(spec, lams):
        rows.append(len(lams))
        return axis_factors(spec, lams)

    monkeypatch.setattr(ansatz, "axis_factors", counted)
    joint.grad_vec(np.zeros(joint.n_params))
    assert rows == [2]


@pytest.mark.parametrize("name", sorted(DEMO_KINDS))
@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2), st.integers(1, 6), st.integers(0, 2 ** 32 - 1),
       st.booleans())
def test_cost_is_nonnegative(name, which, b, seed, best):
    """Every row of every demo part and of the joint cost, at random angles
    and scales or at the closed-form best scale."""
    costs = demo_costs(name)
    cost = costs[min(which, len(costs) - 1)]
    xs = np.random.default_rng(seed).normal(scale=2.0, size=(b, cost.n_params))
    if best:
        xs = np.array([cost.rescale(x) for x in xs])
    assert np.all(cost.evaluate_rows(xs) >= 0.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.1, 10.0))
def test_cost_is_nonnegative_at_an_exact_fit(seed, lam0):
    """Encoding a field that the ansatz reaches exactly: the residual at
    that row is zero up to rounding and must not read negative."""
    lam = np.random.default_rng(seed).normal(size=SPEC_Y.parameter_count)
    field = lam0 * prepare(SPEC_Y, lam).amplitudes.real
    cost = CostFunction(PartTemplate("encode", LAY, OpExpr.identity(),
                                     (OpExpr.identity(),), ("f",)),
                        SPEC_Y, (field,), {})
    row = np.append(lam, lam0)[None, :]
    assert JointCost("encode", (cost,)).evaluate_rows(row)[0] >= 0.0


def test_zero_at_truth_for_invertible_updates():
    from vqpde import oracle as orc
    cases = [
        (NavierStokes(nu=1.0), [U]),
        (Maxwell(component="z", which="B", ext_fields={"E_y": V}), [U]),
        (Boussinesq(0.5, 0.5), [0.9 * U, U]),
        (CamassaHolm(1.0), [0.9 * U, U]),
        (Einstein(tensor=EquilibriumFluid(1.0, 0.1, 1.0, 1.0)), [U + 2.0]),
    ]
    for prob, hist in cases:
        cost = build_cost(prob, hist, LAY, TAU, SPEC).parts[0]
        nxt = orc.classical_step(prob, hist, LAY, TAU)
        mc = dense_reference(cost.template.m_op, LAY, cost.bindings) @ nxt
        assert np.vdot(mc - cost.b_vector, mc - cost.b_vector).real <= 1e-10


def test_couette_constant_field_is_stationary():
    c = np.full(8, 1.7)
    cost = build_cost(NavierStokes(nu=1.0), [c], LAY, 0.1, SPEC)
    x = np.zeros(cost.n_params)
    x[:3] = np.pi / 2  # uniform product state in the first rotation layer
    x = cost.rescale(x)
    assert cost.evaluate_rows(x[None, :])[0] <= 1e-10


def test_hunter_saxton_zero_field_minimized_at_zero_scale():
    cost = build_cost(HunterSaxton(), [np.zeros(8)], LAY, TAU, SPEC)
    assert np.max(np.abs(cost.parts[0].b_vector)) == 0.0
    lam = np.random.default_rng(0).normal(size=SPEC.parameter_count)
    x = cost.rescale(np.append(lam, 1.0))
    assert x[-1] == 0.0
    assert cost.evaluate_rows(x[None, :])[0] <= 1e-12


def test_scale_consistency_for_linear_problem():
    cost1 = build_cost(NavierStokes(nu=1.0), [U], LAY, TAU, SPEC)
    cost3 = build_cost(NavierStokes(nu=1.0), [3.0 * U], LAY, TAU, SPEC)
    x = np.append(np.random.default_rng(2).normal(size=SPEC.parameter_count),
                  0.0)
    x1, x3 = cost1.rescale(x), cost3.rescale(x)
    assert abs(x3[-1] - 3.0 * x1[-1]) < 1e-10
    c1 = cost1.evaluate_rows(x1[None, :])[0]
    c3 = cost3.evaluate_rows(x3[None, :])[0]
    assert abs(c3 - 9.0 * c1) < 1e-8


# -- term lists ---------------------------------------------------------------

def test_couette_term_list_structure():
    cost = build_cost(NavierStokes(nu=1.0), [U], LAY, TAU, SPEC).parts[0]
    labels = {t.label() for _, _, t in cost.term_list()}
    # implicit side is the identity; shifts enter only through the explicit
    # diffusion stencil, so every term is a unitary product
    assert labels == {"1", "A[x]", "Adag[x]"}
    assert all(a.is_unitary() for _, _, t in cost.term_list()
               for a in t.atoms)


def test_identity_residual_single_quadratic_term():
    cost = CostFunction(PartTemplate("plain", LAY, OpExpr.identity(),
                                     (OpExpr.identity(),), ("u",)),
                        SPEC, (U,), {})
    quad = [e for e in cost.term_list() if e[1] == 0]
    assert len(quad) == 1 and quad[0][2].label() == "1"


def test_term_list_deterministic_across_rebuilds():
    a = build_cost(CamassaHolm(1.0), [0.9 * U, U], LAY, TAU, SPEC).parts[0]
    b = build_cost(CamassaHolm(1.0), [0.9 * U, U], LAY, TAU, SPEC).parts[0]
    assert a.serialize_terms() == b.serialize_terms()


# -- shot mode ----------------------------------------------------------------

def test_shot_mode_unbiased_within_four_sigma():
    cost = build_cost(NavierStokes(nu=1.0), [U], LAY, 0.1, SPEC).parts[0]
    rng = np.random.default_rng(77)
    lam = rng.normal(size=SPEC.parameter_count)
    lam0 = 0.8
    exact = JointCost(cost.name, (cost,)).evaluate_rows(
        np.append(lam, lam0)[None, :])[0]
    vals = [cost.evaluate_terms(lam, lam0, shots=10 ** 5, rng=rng)
            for _ in range(20)]
    spread = np.std(vals)
    assert abs(np.mean(vals) - exact) <= 4 * spread / np.sqrt(20) + 1e-6


# -- stress-energy models -------------------------------------------------------

def test_point_particle_localized_source():
    t = PointParticle(2.0, 0.5, 0.5, position=3.0).samples(LAY, "x")
    assert np.count_nonzero(t) == 1
    gamma = 1.0 / np.sqrt(1 - 0.25)
    assert abs(t[3] - 2.0 * gamma * 0.25) < 1e-12


def test_fluid_source_constant():
    t = EquilibriumFluid(2.0, 0.4, 1.0, 1.0, eta=-1.0).samples(LAY, "x")
    assert np.allclose(t, (2.0 + 0.4) * 1.0 - 0.4)


def test_grid_coordinates_order():
    lay = RegisterLayout((("x", 1, 1.0), ("y", 1, 2.0)))
    coords = grid_coordinates(lay)
    # first axis occupies the low qubits, so x varies fastest
    assert np.allclose(coords["x"], [0, 1, 0, 1])
    assert np.allclose(coords["y"], [0, 0, 2, 2])
