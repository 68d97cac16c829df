from dataclasses import replace

import numpy as np
import pytest

from vqpde.ansatz import AnsatzSpec
from vqpde.costlib import CamassaHolm, NavierStokes, build_cost
from vqpde.optim import (
    CMAES,
    DifferentialEvolution,
    GradientDescent,
    NelderMead,
    OptimizationError,
    ParticleSwarm,
    SPSA,
    finite_diff_grad,
    minimize,
    parameter_shift_grad,
)
from vqpde.statevec import layout_1d

ALL_CONFIGS = [
    GradientDescent(eta=0.3, max_iters=300),
    SPSA(a=0.5, max_iters=2000, seed=1),
    NelderMead(max_iters=400),
    CMAES(max_iters=200, seed=2),
    ParticleSwarm(max_iters=200, seed=3),
    DifferentialEvolution(max_iters=150, seed=4),
]


def quadratic(xs):
    return (xs[:, 0] - 2.0) ** 2


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: type(c).__name__)
def test_every_method_solves_shifted_parabola(cfg):
    trace = minimize(quadratic, np.array([0.0]), cfg)
    assert abs(trace.x_best[0] - 2.0) <= 1e-4


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: type(c).__name__)
def test_traces_are_monotone_and_start_counted(cfg):
    trace = minimize(quadratic, np.array([0.0]), cfg)
    vals = trace.best_values
    assert len(vals) >= 1
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
    assert vals[0] >= trace.f_best


@pytest.mark.parametrize("cfg", [
    SPSA(max_iters=50, seed=7),
    CMAES(max_iters=30, seed=7),
    ParticleSwarm(max_iters=30, seed=7),
    DifferentialEvolution(max_iters=20, seed=7),
], ids=lambda c: type(c).__name__)
def test_stochastic_methods_reproducible_per_seed(cfg):
    f = lambda xs: np.sum((xs - 1.5) ** 2, axis=1) + 0.1 * np.sum(xs ** 4, axis=1)
    t1 = minimize(f, np.array([0.0, 0.5]), cfg)
    t2 = minimize(f, np.array([0.0, 0.5]), cfg)
    assert t1.best_values == t2.best_values
    assert np.array_equal(t1.x_best, t2.x_best)


def test_cmaes_solves_rosenbrock_within_budget():
    def rosen(xs):
        return 100 * (xs[:, 1] - xs[:, 0] ** 2) ** 2 + (1 - xs[:, 0]) ** 2
    trace = minimize(rosen, np.array([-1.0, 1.0]),
                     CMAES(sigma0=0.5, max_iters=800, f_tol=1e-8, seed=7))
    assert trace.f_best <= 1e-6
    assert trace.n_evals <= 5000


def test_nonfinite_start_rejected():
    for cfg in ALL_CONFIGS:
        with pytest.raises(OptimizationError, match="start point"):
            minimize(lambda xs: np.full(len(xs), np.nan), np.array([0.0]),
                     cfg)


def later_rows_nan(xs):
    vals = quadratic(xs)
    vals[1:] = np.nan  # every row after the first of each call
    return vals


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: type(c).__name__)
def test_nonfinite_later_row_accepted(cfg):
    cfg = replace(cfg, max_iters=5)
    trace = minimize(later_rows_nan, np.array([0.0, 0.5]), cfg,
                     grad=lambda x: 2.0 * (x - 2.0))
    assert trace.n_evals > 1
    assert trace.x_best is not None
    assert np.isfinite(trace.f_best)


@pytest.mark.filterwarnings("error")
def test_spsa_stops_at_a_nonfinite_estimate():
    x0 = np.array([0.0, 0.5])
    trace = minimize(later_rows_nan, x0, SPSA(max_iters=5, seed=1))
    assert trace.n_evals == 3
    assert np.array_equal(trace.x_best, x0)


def test_objective_must_return_one_value_per_row():
    with pytest.raises(OptimizationError, match="one value per row"):
        minimize(lambda xs: quadratic(xs)[:1], np.array([0.0]), CMAES(seed=0))


class Recorder:
    """Rows objective that records the shape of every call."""

    def __init__(self):
        self.shapes = []

    def __call__(self, xs):
        self.shapes.append(xs.shape)
        return np.sum((xs - 1.0) ** 2, axis=1)


N = 3


@pytest.mark.parametrize("cfg, calls", [
    (CMAES(popsize=6, max_iters=5, seed=1), [(1, N)] + [(6, N)] * 5),
    (ParticleSwarm(particles=7, max_iters=4, seed=1), [(7, N)] * 5),
    (SPSA(max_iters=3, seed=1), [(1, N)] + [(2, N), (1, N)] * 3),
    (NelderMead(max_iters=0), [(N + 1, N)]),
    (DifferentialEvolution(population=5, max_iters=2, seed=1),
     [(5, N)] + [(1, N)] * 10),
], ids=lambda v: type(v).__name__ if not isinstance(v, list) else "calls")
def test_populations_are_one_call(cfg, calls):
    rec = Recorder()
    trace = minimize(rec, np.zeros(N), cfg)
    assert rec.shapes == calls
    assert trace.n_evals == sum(rows for rows, _ in rec.shapes)


def test_gradient_descent_passes_single_rows():
    rec = Recorder()
    trace = minimize(rec, np.zeros(N), GradientDescent(max_iters=5),
                     grad=lambda x: 2.0 * (x - 1.0))
    assert len(rec.shapes) > 1
    assert set(rec.shapes) == {(1, N)}
    assert trace.n_evals == len(rec.shapes)


def test_finite_diff_is_one_call_of_2n_rows():
    rec = Recorder()
    g = finite_diff_grad(rec, np.zeros(N))
    assert rec.shapes == [(2 * N, N)]
    assert np.allclose(g, -2.0)


def test_respects_iteration_budget():
    trace = minimize(quadratic, np.array([100.0]),
                     DifferentialEvolution(population=5, max_iters=3, seed=0))
    assert trace.n_evals <= 5 * (3 + 1) + 1


# -- gradients ----------------------------------------------------------------

def test_finite_diff_on_square():
    g = finite_diff_grad(lambda xs: xs[:, 0] ** 2, np.array([3.0]))
    assert abs(g[0] - 6.0) < 1e-5


def test_finite_diff_constant_function():
    g = finite_diff_grad(lambda xs: np.ones(len(xs)), np.array([1.0, 2.0]))
    assert np.max(np.abs(g)) < 1e-12


def test_finite_diff_rejects_bad_step():
    with pytest.raises(ValueError):
        finite_diff_grad(lambda xs: np.zeros(len(xs)), np.array([0.0]), h=0.0)


class _SingleRotationCost:
    """C(theta, lam0) = lam0^2 - 2 lam0 cos(theta/2): q = 1, l = <e0|Psi>."""

    def shift_split_eval(self, lams):
        lams = np.asarray(lams, dtype=float)
        return np.ones(len(lams)), np.cos(lams[:, 0] / 2.0)


def test_shift_rule_on_analytic_rotation():
    cost = _SingleRotationCost()
    theta = 0.9
    g = parameter_shift_grad(cost, np.array([theta]), 1.0)
    # d/dtheta of -2 cos(theta/2) = sin(theta/2)
    assert abs(g[0] - np.sin(theta / 2.0)) < 1e-10
    # scale derivative 2 lam0 q - 2 l
    assert abs(g[1] - (2.0 - 2.0 * np.cos(theta / 2.0))) < 1e-12


def test_zero_gradient_at_exact_minimum():
    lay = layout_1d(3, 1.0)
    spec = AnsatzSpec(n_qubits=3, layers=1, rotation_axes=("Y",))
    u = np.full(8, 1.3)
    cost = build_cost(NavierStokes(nu=1.0), [u], lay, 0.1, spec).parts[0]
    # constant field is a fixed point; the exact encoding is reachable with
    # all-zero angles after a basis rotation trick is unnecessary: uniform
    # state = RY(pi/2) on each qubit
    lam = np.full(3, np.pi / 2)
    lam0 = cost.best_scale(lam)
    assert cost.evaluate_rows(np.append(lam, lam0)[None, :])[0] < 1e-10
    g = parameter_shift_grad(cost, lam, lam0)
    assert np.max(np.abs(g)) < 1e-8


def test_shift_rule_matches_finite_differences_on_pde_cost():
    rng = np.random.default_rng(12)
    lay = layout_1d(3, 1.0)
    spec = AnsatzSpec(n_qubits=3, layers=2, rotation_axes=("Y", "Z"),
                      entangler="ring")
    xs = np.arange(8.0)
    u = np.sin(2 * np.pi * xs / 8)
    cost = build_cost(CamassaHolm(1.0), [0.9 * u, u], lay, 0.05, spec).parts[0]
    for _ in range(5):
        x = rng.normal(size=spec.parameter_count + 1)
        ps = parameter_shift_grad(cost, x[:-1], x[-1])
        fd = finite_diff_grad(cost.evaluate_rows, x)
        assert np.max(np.abs(ps - fd)) < 1e-6


# -- config checks -----------------------------------------------------------

@pytest.mark.parametrize("cls, bad", [
    (GradientDescent, {"max_iters": -1}),
    (GradientDescent, {"eta": -0.1}),
    (GradientDescent, {"eta": float("inf")}),
    (GradientDescent, {"grad_tol": -1e-8}),
    (GradientDescent, {"f_tol": float("nan")}),
    (SPSA, {"seed": -1}),
    (SPSA, {"c": 0.0}),
    (SPSA, {"alpha": float("nan")}),
    (SPSA, {"max_iters": 2.5}),
    (NelderMead, {"scale": 0.0}),
    (NelderMead, {"f_tol": -1.0}),
    (CMAES, {"popsize": 0}),
    (CMAES, {"popsize": 1}),
    (CMAES, {"sigma0": -1.0}),
    (CMAES, {"seed": -2}),
    (ParticleSwarm, {"particles": 0}),
    (ParticleSwarm, {"inertia": -0.5}),
    (DifferentialEvolution, {"population": -3}),
    (DifferentialEvolution, {"population": 3}),
    (DifferentialEvolution, {"cr": 1.5}),
    (DifferentialEvolution, {"f": 0.0}),
], ids=lambda v: v.__name__ if isinstance(v, type) else str(v))
def test_configs_reject_bad_fields(cls, bad):
    with pytest.raises(OptimizationError):
        cls(**bad)


def test_configs_accept_edge_values():
    CMAES(popsize=2, max_iters=0, f_tol=None)
    ParticleSwarm(particles=1, inertia=0.0)
    DifferentialEvolution(population=4, cr=0.0)
    DifferentialEvolution(cr=1.0)
    GradientDescent(grad_tol=0.0, f_tol=0.0)
    SPSA(seed=np.int64(3))
