import numpy as np
import pytest

from vqpde import oracle as orc
from vqpde.costlib import (
    Boussinesq,
    CamassaHolm,
    DSW,
    Einstein,
    EquilibriumFluid,
    HunterSaxton,
    LinTsien,
    Maxwell,
    NavierStokes,
    ProblemError,
)
from vqpde.statevec import RegisterLayout, layout_1d

LAY = layout_1d(3, 1.0)
LAY2 = RegisterLayout((("x", 2, 1.0), ("y", 1, 1.0)))
XS = np.arange(8.0)
U = np.sin(2 * np.pi * XS / 8)
V = np.cos(2 * np.pi * XS / 8)


# -- dense building blocks ----------------------------------------------------

def test_shift_matrix_is_cyclic_permutation():
    s = orc.shift_matrix(4)
    v = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(s @ v, [4.0, 1.0, 2.0, 3.0])
    assert np.allclose(s @ s.T, np.eye(4))


def test_grad_matrix_annihilates_constants():
    g = orc.grad_matrix(LAY, "x")
    assert np.max(np.abs(g @ np.ones(8))) < 1e-14


def test_laplacian_matrix_row_on_delta():
    lap = orc.laplacian_matrix(layout_1d(2, 1.0), "x")
    e0 = np.zeros(4)
    e0[0] = 1.0
    assert np.allclose(lap @ e0, [-2, 1, 0, 1])


def test_axis_operator_embedding_acts_on_named_axis():
    gx = orc.grad_matrix(LAY2, "x")
    gy = orc.grad_matrix(LAY2, "y")
    f = np.ones(8)
    assert np.max(np.abs(gx @ f)) < 1e-14
    assert np.max(np.abs(gy @ f)) < 1e-14
    # a field varying only along y is flat for the x derivative
    fy = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
    assert np.max(np.abs(gx @ fy)) < 1e-14
    assert np.max(np.abs(gy @ fy)) > 0.5


# -- diffusion hand example ---------------------------------------------------

def test_diffusion_delta_one_step_hand_values():
    # explicit heat step on 4 points, nu=1, tau=0.1, delta=1: the unit spike
    # at index 1 loses 2*0.1 and each neighbour gains 0.1
    lay = layout_1d(2, 1.0)
    f = np.zeros(4)
    f[1] = 1.0
    out = orc.classical_step(NavierStokes(nu=1.0), [f], lay, 0.1)
    assert np.allclose(out, [0.1, 0.8, 0.1, 0.0], atol=1e-12)


def test_diffusion_preserves_constants():
    c = np.full(8, 2.5)
    out = orc.classical_step(NavierStokes(nu=1.0), [c], LAY, 0.1)
    assert np.allclose(out, c, atol=1e-12)


def test_diffusion_sinusoid_decay_factor():
    k = 2 * np.pi / 8
    nu, tau = 1.0, 0.05
    out = orc.classical_step(NavierStokes(nu=nu), [U], LAY, tau)
    factor = 1.0 - 2.0 * nu * tau * (1.0 - np.cos(k))
    assert np.max(np.abs(out - factor * U)) < 1e-12


# -- classical stepping vs the symbolic operator path -------------------------

def step_cases():
    u3 = np.sin(2 * np.pi * np.arange(8.0) / 8)
    return {
        "navier-stokes": (NavierStokes(nu=0.4, pressure=("field", 0.1 * V)),
                          [U], LAY),
        "einstein": (Einstein(tensor=EquilibriumFluid(1.0, 0.1, 1.0, 1.0)),
                     [U + 2.0], LAY),
        "maxwell": (Maxwell(component="z", which="B", ext_fields={"E_y": V}),
                    [U], LAY),
        "boussinesq": (Boussinesq(0.5, 0.5), [0.9 * U, U], LAY),
        "lin-tsien": (LinTsien(), [u3], LAY2),
        "camassa-holm": (CamassaHolm(1.0), [0.9 * U, U], LAY),
        "dsw": (DSW(), [U, V + 1.5], LAY),
        "hunter-saxton": (HunterSaxton(), [U], LAY),
    }


@pytest.mark.parametrize("name", sorted(step_cases()))
def test_step_satisfies_symbolic_update_equation(name):
    # the dense oracle and the operator-expression cost are built from
    # independent code paths; the oracle's next field must zero the residual
    from vqpde.ansatz import AnsatzSpec
    from vqpde.costlib import build_cost
    from reference import dense_reference
    problem, hist, lay = step_cases()[name]
    spec = AnsatzSpec(n_qubits=sum(n for _, n, _ in lay.axes), layers=1)
    cost = build_cost(problem, hist, lay, 0.05, spec)
    nxt = orc.classical_step(problem, hist, lay, 0.05)
    # one next field per part: the (u, v) pair or a single array
    fields = np.reshape(nxt, (len(cost.parts), -1))
    for field, part in zip(fields, cost.parts):
        m = dense_reference(part.template.m_op, lay, part.bindings)
        mc = m @ field
        if name in ("lin-tsien", "hunter-saxton"):
            # singular implicit operator: the least-squares solution zeroes
            # the normal-equation residual, not the raw one
            assert np.max(np.abs(m.conj().T @ (mc - part.b_vector))) < 1e-9
        else:
            assert np.max(np.abs(mc - part.b_vector)) < 1e-9


def test_singular_update_keeps_mean_of_current_field():
    # the compressible-ray and stretched-string updates constrain only the
    # derivative; the solver must carry the old mean forward, not drop it
    f = U + 0.7
    out = orc.classical_step(HunterSaxton(), [f], LAY, 0.05)
    assert abs(np.mean(out) - np.mean(f)) < 1e-10


def test_small_scale_regular_system_takes_the_direct_solve(monkeypatch):
    # det(0.05 I) at 16 points is 1.5e-21, yet the system is perfectly
    # conditioned; a determinant threshold would send it to least squares
    def no_pinv(m):
        raise AssertionError("regular system sent to least squares")

    monkeypatch.setattr(orc.np.linalg, "pinv", no_pinv)
    b = np.arange(16.0)
    assert np.max(np.abs(orc._solve(0.05 * np.eye(16), b) - b / 0.05)) \
        <= 1e-12


def test_large_scale_singular_system_takes_least_squares():
    # 1e3 times a rank-15 projector: its computed determinant is of order
    # 1e31, yet the system is singular; the minimum-norm solution of
    # P x = b / 1e3 is P b / 1e3
    p = np.eye(16) - np.full((16, 16), 1.0 / 16)
    b = np.arange(16.0)
    assert np.max(np.abs(orc._solve(1e3 * p, b) - p @ b / 1e3)) <= 1e-12


@pytest.mark.parametrize("tau", [0.0, -0.05, np.nan, np.inf, True, "0.1"])
def test_classical_step_rejects_a_bad_tau(tau):
    with pytest.raises(ProblemError, match="tau must be positive"):
        orc.classical_step(NavierStokes(), [U], LAY, tau)


@pytest.mark.parametrize("tau", [float("nan"), 0.0, -0.1, float("inf")])
def test_classical_run_rejects_a_bad_tau_before_any_step(tau):
    """A run of 0 steps never reaches ``classical_step``; the run checks
    tau at entry."""
    with pytest.raises(ProblemError, match="tau must be positive"):
        orc.classical_run(NavierStokes(), [U], LAY, tau, 0)


@pytest.mark.parametrize("n_steps", [-3, 2.5, 2.0, True, "2", None])
def test_classical_run_rejects_a_bad_step_count(n_steps):
    with pytest.raises(ProblemError, match="step count"):
        orc.classical_run(NavierStokes(), [U], LAY, 0.05, n_steps)


def test_classical_run_lengths_and_start():
    traj = orc.classical_run(NavierStokes(nu=1.0), [U], LAY, 0.05, 5)
    assert len(traj) == 6
    assert np.array_equal(traj[0], U)


def test_classical_run_two_level_history_threads():
    t1 = orc.classical_run(Boussinesq(0.3, 0.3), [0.9 * U, U], LAY, 0.02, 3)
    # manual threading of the same stepper
    hist = [0.9 * U, U]
    for _ in range(3):
        nxt = orc.classical_step(Boussinesq(0.3, 0.3), hist, LAY, 0.02)
        hist = [hist[-1], nxt]
    assert np.allclose(t1[-1], hist[-1], atol=1e-12)


def test_classical_run_coupled_returns_v_of_each_step():
    u, v = U, V + 1.5
    ref = [v]
    for _ in range(3):
        u, v = orc.classical_step(DSW(), [u, v], LAY, 0.02)
        ref.append(v)
    out = orc.classical_run(DSW(), [U, V + 1.5], LAY, 0.02, 3)
    assert all(np.array_equal(a, b) for a, b in zip(out, ref, strict=True))
    with pytest.raises(ProblemError):
        orc.classical_run(DSW(), [U], LAY, 0.02, 1)


def test_classical_run_second_order_from_rest_repeats_the_level():
    a = orc.classical_run(CamassaHolm(), [U], LAY, 0.02, 3)
    b = orc.classical_run(CamassaHolm(), [U, U], LAY, 0.02, 3)
    assert all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_classical_run_rejects_non_finite_initial_data(bad):
    u = U.copy()
    u[2] = bad
    with pytest.raises(ProblemError, match="not finite"):
        orc.classical_run(NavierStokes(nu=1.0), [u], LAY, 0.05, 2)
    with pytest.raises(ProblemError, match="not finite"):
        orc.classical_run(DSW(), [u, V + 1.5], LAY, 0.02, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_classical_step_rejects_non_finite_history(bad):
    """One check in the step serves the run and direct callers alike."""
    u = U.copy()
    u[5] = bad
    with pytest.raises(ProblemError, match="history field is not finite"):
        orc.classical_step(NavierStokes(nu=1.0), [u], LAY, 0.05)
    with pytest.raises(ProblemError, match="history field is not finite"):
        orc.classical_step(DSW(), [U, u], LAY, 0.02)


def test_classical_step_rejects_short_history():
    with pytest.raises(ProblemError):
        orc.classical_step(CamassaHolm(), [U], LAY, 0.05)


# -- exact references ---------------------------------------------------------

def test_exponential_flow_degenerate_amplitude_is_constant():
    ref = orc.NsExponential(A=0.0, B=1.4, c=0.3, nu=1.0, alpha=1.0, beta=1.0)
    assert ref.vx(0.3, -0.2) == 1.4


def test_exponential_flow_is_divergence_free_and_steady():
    ref = orc.NsExponential(A=0.01, B=0.0, c=0.01, nu=1.0, alpha=1.0,
                            beta=1.0)
    h = 1e-6
    for (x, y) in [(0.1, 0.2), (0.5, 0.9), (0.33, 0.77)]:
        div = ((ref.vx(x + h, y) - ref.vx(x - h, y))
               + (ref.vy(x, y + h) - ref.vy(x, y - h))) / (2 * h)
        assert abs(div) < 1e-7


def test_exponential_flow_validation():
    with pytest.raises(ProblemError):
        orc.NsExponential(A=1.0, B=0.0, c=1.0, nu=0.0, alpha=1.0, beta=1.0)


def test_stationarity_residual_small_and_first_order():
    ref = orc.NsExponential(A=0.01, B=0.0, c=0.01, nu=1.0, alpha=1.0,
                            beta=1.0)
    r32 = orc.ns_stationarity_residual(ref, 32)
    r64 = orc.ns_stationarity_residual(ref, 64)
    assert r32 < 1e-8
    # forward differences converge at first order
    assert 1.5 < r32 / r64 < 2.5


def test_reference_point_values():
    assert orc.exact_eval(orc.CouetteSteady(top=2.0, height=4.0), 1.0) == 0.5
    assert abs(orc.exact_eval(orc.SechTanh(), 0.0)) < 1e-15
    assert abs(orc.exact_eval(orc.Sinusoid(wavenumber=2.0), np.pi / 4)
               - 1.0) < 1e-12
    assert orc.exact_eval(orc.LinearNegativeSlope(slope=-2.0, intercept=1.0),
                          0.5) == 0.0


def test_sech_tanh_tail_and_width():
    # cosh overflows beyond |z| ~ 710; the profile there is zero to 1e-300
    assert abs(orc.exact_eval(orc.SechTanh(), 1000.0)) < 1e-300
    assert abs(orc.exact_eval(orc.SechTanh(width=-1.0), -1000.0)) < 1e-300
    with pytest.raises(ProblemError):
        orc.SechTanh(width=0.0)


# -- error metric -------------------------------------------------------------

def test_l2_error_examples():
    errs = orc.l2_error([U, 2 * U], [U, U])
    assert errs[0] < 1e-15
    assert abs(errs[1] - 1.0) < 1e-12


def test_l2_error_zero_reference_guarded():
    errs = orc.l2_error([np.zeros(4)], [np.zeros(4)])
    assert np.isfinite(errs[0]) and errs[0] == 0.0


def test_l2_error_shape_checks():
    with pytest.raises(ProblemError):
        orc.l2_error([U], [U, U])
    with pytest.raises(ProblemError):
        orc.l2_error([U], [np.zeros(4)])
