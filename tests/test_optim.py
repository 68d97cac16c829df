import ast
from dataclasses import replace
from functools import partial
import hashlib
import inspect

import numpy as np
import pytest

from vqpde import optim
from vqpde.ansatz import AnsatzSpec
from vqpde.costlib import CamassaHolm, Maxwell, NavierStokes, build_cost
from vqpde.optim import (
    CMAES,
    CONFIGS,
    DifferentialEvolution,
    GradientDescent,
    LevenbergMarquardt,
    NelderMead,
    OptimizationError,
    OptimizationTrace,
    ParticleSwarm,
    SPSA,
    SPSA_CHUNK,
    _counted,
    finite_diff_grad,
    minimize,
)
from vqpde.statevec import layout_1d

from reference import shift_rule_grad

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


def spsa_two_calls_per_iteration(objective, x, cfg):
    """SPSA as a loop that evaluates the +/- pair in one call and each new
    point in a call of its own, the row order the batched loop keeps."""
    trace = OptimizationTrace()
    f = _counted(objective, trace)
    x = np.array(x, dtype=float)
    rng = np.random.default_rng(cfg.seed)
    trace.record(x, f(x))
    for k in range(cfg.max_iters):
        ak = cfg.a / (k + 1 + cfg.stability) ** cfg.alpha
        ck = cfg.c / (k + 1) ** cfg.gamma
        delta = rng.integers(0, 2, size=x.size) * 2.0 - 1.0
        fp, fm = f(np.array([x + ck * delta, x - ck * delta]))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            trace.stop = "non-finite"
            break
        gk = (fp - fm) / (2 * ck) / delta
        x = x - ak * gk
        trace.record(x, f(x))
    return trace


@pytest.mark.parametrize("iters", [0, 1, 25])
def test_spsa_matches_three_call_reference(iters):
    """On a shot-estimated Camassa-Holm cost the one-call iterations draw
    the same shots as the reference loop: the same trace, the same rows and
    the same final state of the evaluation generator."""
    lay = layout_1d(4, 1.0)
    spec = AnsatzSpec(n_qubits=4, layers=2, rotation_axes=("Y",),
                      entangler="chain")
    u = 1.0 + 0.2 * np.sin(2 * np.pi * np.arange(16) / 16 + 0.3)
    cost = build_cost(CamassaHolm(1.0), [u, 1.01 * u], lay, 0.01, spec)
    lam = np.random.default_rng(4).normal(scale=0.5,
                                          size=spec.parameter_count)
    x0 = cost.rescale(np.append(lam, 0.0))
    cfg = SPSA(a=0.05, c=0.05, max_iters=iters, seed=11)
    runs = []
    for run in (spsa_two_calls_per_iteration, minimize):
        rng = np.random.default_rng(21)
        trace = run(partial(cost.estimate_rows, shots=2000, rng=rng), x0, cfg)
        runs.append((trace, rng.bit_generator.state))
    (ref, ref_state), (new, new_state) = runs
    assert new.best_values == ref.best_values
    assert np.array_equal(new.x_best, ref.x_best)
    assert new.n_evals == ref.n_evals == 3 * iters + 1
    assert new_state == ref_state


def tilted_bowl(xs):
    return np.sum((xs - 0.3) ** 2 * np.arange(1, xs.shape[1] + 1), axis=1) \
        + np.sin(xs[:, 0])


def pair_nan_at_iteration(k):
    """tilted_bowl, but the +/- rows of SPSA iteration k (from 1) are NaN:
    they are the last two rows of the k-th call of more than one row."""
    calls = []

    def objective(xs):
        vals = tilted_bowl(xs)
        if len(xs) > 1:
            calls.append(len(xs))
            if len(calls) == k:
                vals[-2:] = np.nan
        return vals
    return objective


# (n, max_iters, the iteration whose +/- rows are NaN, or None)
SPSA_DRAW_CASES = [
    (n, iters, None) for n in (1, 7, 13)
    for iters in (0, 1, SPSA_CHUNK, SPSA_CHUNK + 1)] + [
    (n, 2 * SPSA_CHUNK + 5, SPSA_CHUNK + 3) for n in (1, 7, 13)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n,iters,nan_at", SPSA_DRAW_CASES)
def test_spsa_chunked_draws_equal_per_iteration_draws(n, iters, nan_at):
    """Directions drawn SPSA_CHUNK iterations at a time are the stream of
    the reference loop's one draw per iteration: the same trace, bit for
    bit, on both sides of a chunk's end and at a non-finite stop in the
    second chunk."""
    x0 = np.linspace(-0.8, 0.9, n)
    cfg = SPSA(a=0.05, c=0.2, max_iters=iters, seed=17 + n)
    ref, new = (run(tilted_bowl if nan_at is None else
                    pair_nan_at_iteration(nan_at), x0, cfg)
                for run in (spsa_two_calls_per_iteration, minimize))
    assert new.stop == ref.stop == ("max-iters" if nan_at is None
                                    else "non-finite")
    assert new.best_values == ref.best_values
    assert np.array_equal(new.x_best, ref.x_best)
    assert new.n_evals == ref.n_evals == (3 * iters + 1 if nan_at is None
                                          else 3 * nan_at)


def rising(xs):
    return np.sum(xs ** 2, axis=1)


def quadratic_grad(x):
    return 2.0 * (x - 2.0)


STOP_CASES = [
    (GradientDescent(eta=0.3, max_iters=300), quadratic, quadratic_grad,
     "converged"),
    (GradientDescent(eta=0.3, max_iters=2), quadratic, quadratic_grad,
     "max-iters"),
    # the "gradient" points uphill, so backtracking finds no lower point
    (GradientDescent(eta=0.3, max_iters=300), rising, lambda x: -2.0 * x - 1.0,
     "no-descent"),
    (GradientDescent(eta=0.3, max_iters=300), quadratic,
     lambda x: np.full(x.size, np.nan), "non-finite"),
    (SPSA(max_iters=20, seed=1), quadratic, None, "max-iters"),
    (SPSA(max_iters=20, seed=1), later_rows_nan, None, "non-finite"),
    (NelderMead(max_iters=400), quadratic, None, "converged"),
    (NelderMead(max_iters=3), quadratic, None, "max-iters"),
    (CMAES(max_iters=200, f_tol=1e-12, seed=2), quadratic, None, "converged"),
    (CMAES(max_iters=3, seed=2), quadratic, None, "max-iters"),
    (ParticleSwarm(max_iters=10, seed=3), quadratic, None, "max-iters"),
    (DifferentialEvolution(max_iters=5, seed=4), quadratic, None, "max-iters"),
]


@pytest.mark.parametrize("cfg, objective, grad, stop", STOP_CASES,
                         ids=[f"{type(c[0]).__name__}-{c[3]}"
                              for c in STOP_CASES])
def test_every_method_records_why_it_stopped(cfg, objective, grad, stop):
    trace = minimize(objective, np.array([0.0]), cfg, grad=grad)
    assert trace.stop == stop
    assert trace.converged == (stop == "converged")


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
    (SPSA(max_iters=3, seed=1), [(3, N)] * 3 + [(1, N)]),
    (NelderMead(max_iters=0), [(N + 1, N)]),
    (DifferentialEvolution(population=5, max_iters=2, seed=1),
     [(5, N)] + [(1, N)] * 10),
], ids=lambda v: type(v).__name__ if not isinstance(v, list) else "calls")
def test_populations_are_one_call(cfg, calls):
    rec = Recorder()
    trace = minimize(rec, np.zeros(N), cfg)
    assert rec.shapes == calls
    assert trace.n_evals == sum(rows for rows, _ in rec.shapes)


def gradient_descent_reference(objective, x, cfg, grad, trace):
    """Gradient descent as a loop that evaluates each candidate alone and
    takes the gradient at every accepted point, before its next step."""
    f = _counted(objective, trace)
    x = np.array(x, dtype=float)
    fx = f(x)
    trace.record(x, fx)
    eta = cfg.eta
    for _ in range(cfg.max_iters):
        g = grad(x)
        if np.linalg.norm(g) <= cfg.grad_tol:
            break
        moved = False
        while eta > 1e-14:
            cand = x - eta * g
            fc = f(cand)
            if fc < fx:
                x, fx = cand, fc
                eta = min(eta * 1.3, cfg.eta * 100)
                moved = True
                break
            eta *= 0.5
        trace.record(x, fx)
        if not moved:
            break
    return trace


def test_gradient_descent_passes_single_rows():
    """Without a fused call, each candidate is one row and the gradient is
    taken only at accepted points: the calls of the reference loop, in its
    order."""
    cfg = GradientDescent(eta=0.9, max_iters=6)
    logs = []
    for run in (gradient_descent_reference, None):
        log = []

        def objective(xs):
            log.append(("f", xs.copy()))
            return np.sum((xs - 1.0) ** 2 + np.sin(3.0 * xs), axis=1)

        def grad(x):
            log.append(("g", x.copy()))
            return 2.0 * (x - 1.0) + 3.0 * np.cos(3.0 * x)

        trace = (run(objective, np.zeros(N), cfg, grad, OptimizationTrace())
                 if run else minimize(objective, np.zeros(N), cfg, grad=grad))
        logs.append((log, trace))
    (ref_log, ref), (log, trace) = logs
    assert [k for k, _ in log] == [k for k, _ in ref_log]
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(log, ref_log))
    rows = [v for k, v in log if k == "f"]
    assert {v.shape for v in rows} == {(1, N)}
    assert trace.best_values == ref.best_values
    assert trace.n_evals == ref.n_evals == len(rows)
    # some candidates were rejected, and took no gradient
    assert sum(k == "g" for k, _ in log) < len(rows) - 1


def test_gradient_descent_is_one_fused_call_per_candidate():
    """With ``value_and_grad`` each candidate, the start included, is one
    call that also returns its gradient; the rows objective is not called,
    and the path is that of the separate calls."""
    rec, points = Recorder(), []

    def fused(x):
        points.append(x.copy())
        return float(np.sum((x - 1.0) ** 2)), 2.0 * (x - 1.0)

    cfg = GradientDescent(max_iters=5)
    trace = minimize(rec, np.zeros(N), cfg, value_and_grad=fused)
    assert rec.shapes == []
    assert len(points) > 1 and {p.shape for p in points} == {(N,)}
    assert trace.n_evals == len(points)
    ref = minimize(Recorder(), np.zeros(N), cfg,
                   grad=lambda x: 2.0 * (x - 1.0))
    assert trace.best_values == ref.best_values
    assert np.array_equal(trace.x_best, ref.x_best)
    assert trace.n_evals == ref.n_evals


def nan_grad(x):
    return np.full(x.size, np.nan)


@pytest.mark.parametrize("fused", [False, True])
def test_gradient_descent_stops_at_a_nonfinite_gradient(fused):
    """A NaN gradient gives no direction: the descent stops at once instead
    of backtracking through NaN candidates."""
    rec = Recorder()
    kwargs = ({"value_and_grad": lambda x: (rec(x[None])[0], nan_grad(x))}
              if fused else {"grad": nan_grad})
    trace = minimize(rec, np.zeros(N), GradientDescent(max_iters=5), **kwargs)
    assert trace.stop == "non-finite"
    assert trace.n_evals == len(rec.shapes) == 1
    assert np.array_equal(trace.x_best, np.zeros(N))


def test_fused_values_are_checked_like_rows():
    """A fused call's value is checked as a row is: the start point must be
    finite, and a later NaN reads as +inf, so it is never accepted."""
    with pytest.raises(OptimizationError, match="start point"):
        minimize(quadratic, np.array([0.0]), GradientDescent(),
                 value_and_grad=lambda x: (np.nan, np.zeros(1)))
    trace = minimize(quadratic, np.array([0.0]), GradientDescent(max_iters=3),
                     value_and_grad=lambda x: (np.nan if x.any() else 0.0,
                                               np.ones(1)))
    assert trace.stop == "no-descent"
    assert trace.best_values == [0.0, 0.0]
    assert np.array_equal(trace.x_best, [0.0])


def test_shot_mode_gradient_descent_matches_reference_loop():
    """On a shot-estimated Camassa-Holm cost, gradient descent with the
    exact gradient draws the same shots as the reference loop: the same
    trace, the same final state of the evaluation generator, and exact
    gradients at the same (accepted) points only."""
    lay = layout_1d(4, 1.0)
    spec = AnsatzSpec(n_qubits=4, layers=2, rotation_axes=("Y",))
    u = 1.0 + 0.2 * np.sin(2 * np.pi * np.arange(16) / 16 + 0.3)
    cost = build_cost(CamassaHolm(1.0), [u, 1.01 * u], lay, 0.01, spec)
    lam = np.random.default_rng(4).normal(scale=0.5,
                                          size=spec.parameter_count)
    x0 = cost.rescale(np.append(lam, 0.0))
    cfg = GradientDescent(eta=0.05, max_iters=8, grad_tol=0.0)
    runs = []
    for run in (gradient_descent_reference, None):
        rng, points = np.random.default_rng(21), []

        def grad(x):
            points.append(x.copy())
            return cost.grad_vec(x)

        objective = partial(cost.estimate_rows, shots=2000, rng=rng)
        trace = (run(objective, x0, cfg, grad, OptimizationTrace())
                 if run else minimize(objective, x0, cfg, grad=grad))
        runs.append((trace, rng.bit_generator.state, points))
    (ref, ref_state, ref_points), (new, new_state, new_points) = runs
    assert len(new_points) == len(ref_points) < new.n_evals - 1
    assert all(map(np.array_equal, new_points, ref_points))
    assert new.best_values == ref.best_values
    assert np.array_equal(new.x_best, ref.x_best)
    assert new.n_evals == ref.n_evals > cfg.max_iters
    assert new_state == ref_state


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


def test_shift_rule_on_analytic_rotation():
    """One qubit, M = I and b = e0: C(theta, lam0) = lam0^2 -
    2 lam0 cos(theta/2) + 1."""
    cost = build_cost(Maxwell(), [np.array([1.0, 0.0])], layout_1d(1, 1.0),
                      0.1, AnsatzSpec(n_qubits=1)).parts[0]
    theta = 0.9
    want = [np.sin(theta / 2.0), 2.0 - 2.0 * np.cos(theta / 2.0)]
    for g in (cost.grad_vec(np.array([theta, 1.0])),
              shift_rule_grad(cost, np.array([theta]), 1.0)):
        # d/dtheta of -2 cos(theta/2) = sin(theta/2)
        assert abs(g[0] - want[0]) < 1e-10
        # scale derivative 2 lam0 q - 2 l
        assert abs(g[1] - want[1]) < 1e-12


def test_zero_gradient_at_exact_minimum():
    lay = layout_1d(3, 1.0)
    spec = AnsatzSpec(n_qubits=3, layers=1, rotation_axes=("Y",))
    u = np.full(8, 1.3)
    cost = build_cost(NavierStokes(nu=1.0), [u], lay, 0.1, spec)
    # constant field is a fixed point; the exact encoding is reachable with
    # all-zero angles after a basis rotation trick is unnecessary: uniform
    # state = RY(pi/2) on each qubit
    x = cost.rescale(np.append(np.full(3, np.pi / 2), 0.0))
    assert cost.evaluate_rows(x[None, :])[0] < 1e-10
    assert np.max(np.abs(cost.grad_vec(x))) < 1e-8
    assert np.max(np.abs(shift_rule_grad(cost.parts[0], x[:-1],
                                         x[-1]))) < 1e-8


def test_shift_rule_matches_finite_differences_on_pde_cost():
    rng = np.random.default_rng(12)
    lay = layout_1d(3, 1.0)
    spec = AnsatzSpec(n_qubits=3, layers=2, rotation_axes=("Y", "Z"),
                      entangler="ring")
    xs = np.arange(8.0)
    u = np.sin(2 * np.pi * xs / 8)
    cost = build_cost(CamassaHolm(1.0), [0.9 * u, u], lay, 0.05, spec)
    for _ in range(5):
        x = rng.normal(size=spec.parameter_count + 1)
        fd = finite_diff_grad(cost.evaluate_rows, x)
        for g in (cost.grad_vec(x),
                  shift_rule_grad(cost.parts[0], x[:-1], x[-1])):
            assert np.max(np.abs(g - fd)) < 1e-6


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
    (LevenbergMarquardt, {"mu0": 0.0}),
    (LevenbergMarquardt, {"mu0": float("inf")}),
    (LevenbergMarquardt, {"max_iters": -1}),
    (LevenbergMarquardt, {"f_tol": -1.0}),
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


@pytest.mark.parametrize("cls,bad", [
    (GradientDescent, {"max_iters": True}),
    (GradientDescent, {"eta": "0.1"}),
    (GradientDescent, {"eta": True}),
    (GradientDescent, {"grad_tol": "0"}),
    (GradientDescent, {"f_tol": np.True_}),
    (SPSA, {"seed": True}),
    (SPSA, {"stability": "10"}),
    (NelderMead, {"scale": None}),
    (LevenbergMarquardt, {"mu0": "1e-3"}),
    (LevenbergMarquardt, {"max_iters": True}),
    (CMAES, {"popsize": True}),
    (CMAES, {"sigma0": "0.3"}),
    (ParticleSwarm, {"inertia": False}),
    (DifferentialEvolution, {"cr": "0.5"}),
], ids=lambda v: v.__name__ if isinstance(v, type) else repr(v))
def test_configs_reject_bools_and_non_numbers(cls, bad):
    """A bool is not a count or a step size (``max_iters=True`` would run
    one iteration), and a string or None is rejected by name, not by a
    numpy TypeError."""
    name = next(iter(bad))
    with pytest.raises(OptimizationError, match=name):
        cls(**bad)


def test_minimize_runs_every_config_class_and_nothing_else():
    """``CONFIGS`` is what ``minimize`` dispatches on: each class runs, and
    a name, None or a class rather than an instance is rejected."""
    assert set(CONFIGS) == {type(c) for c in ALL_CONFIGS} | {
        LevenbergMarquardt}
    for cls in CONFIGS:
        trace = minimize(quadratic, np.zeros(2), cls(max_iters=1),
                         residual_jacobian=parabola_rj)
        assert trace.n_evals >= 1
    for bad in ("gd", None, GradientDescent):
        with pytest.raises(OptimizationError, match="unknown optimizer"):
            minimize(quadratic, np.zeros(2), bad)


# -- Levenberg-Marquardt --------------------------------------------------------

def with_rr(r, jac) -> tuple:
    """(r, J, r.r): what ``residual_jacobian`` returns."""
    return r, jac, float(r.dot(r))


def parabola_rj(x):
    """Residual x_0 - 2 of ``quadratic`` and its Jacobian."""
    return with_rr(np.array([x[0] - 2.0]), np.eye(1, x.size))


def offset_rj(x):
    """A residual whose least r.r is 1, at x_0 = 2."""
    return with_rr(np.array([x[0] - 2.0, 1.0]),
                   np.eye(2, x.size) * [[1.0], [0.0]])


def test_lm_solves_the_parabola_one_call_per_candidate():
    calls = []

    def rj(x):
        calls.append(x.copy())
        return parabola_rj(x)

    trace = minimize(quadratic, np.array([0.0]), LevenbergMarquardt(),
                     residual_jacobian=rj)
    assert trace.stop == "converged"
    assert abs(trace.x_best[0] - 2.0) <= 1e-12
    assert trace.n_evals == len(calls) == len(trace.best_values)
    vals = trace.best_values
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_lm_damping_shrinks_on_descent_and_grows_on_ascent():
    """mu starts at mu0 max diag J^T J, is divided by 3 after a descent and
    multiplied by 4 after an ascent: on r = x - 2 the steps are 2/(1 + mu)
    of the distance left."""
    steps = []

    def rj(x):
        steps.append(x[0])
        return parabola_rj(x)

    minimize(quadratic, np.array([0.0]), LevenbergMarquardt(mu0=1.0,
                                                            max_iters=2),
             residual_jacobian=rj)
    assert steps[1] == pytest.approx(2.0 / 2.0)
    assert steps[2] == pytest.approx(1.0 + 1.0 / (1.0 + 1.0 / 3.0))
    steps.clear()
    uphill = lambda x: with_rr(rj(x)[0], -np.eye(1))  # always ascends
    minimize(quadratic, np.array([0.0]), LevenbergMarquardt(max_iters=3),
             residual_jacobian=uphill)
    assert steps[1:] == pytest.approx([-2.0 / (1.0 + 1e-3 * 4 ** k)
                                       for k in range(3)])


LM_STOPS = [
    (LevenbergMarquardt(f_tol=1e-20), parabola_rj, "converged"),
    # reaches the least r.r, 1
    (LevenbergMarquardt(), offset_rj, "converged"),
    # mu so large that the first descent is below 1e-6 of r.r
    (LevenbergMarquardt(mu0=1e9), offset_rj, "converged"),
    # the start is the least r.r: the first step is 0
    (LevenbergMarquardt(), lambda x: offset_rj(x + 2.0), "converged"),
    (LevenbergMarquardt(max_iters=1), parabola_rj, "max-iters"),
    # the Jacobian points uphill, so no damping finds a lower point
    (LevenbergMarquardt(), lambda x: with_rr(parabola_rj(x)[0], -np.eye(1)),
     "no-descent"),
    (LevenbergMarquardt(), lambda x: with_rr(parabola_rj(x)[0],
                                             np.full((1, 1), np.nan)),
     "non-finite"),
]


@pytest.mark.parametrize("cfg, rj, stop", LM_STOPS,
                         ids=[f"{c[2]}-{i}" for i, c in enumerate(LM_STOPS)])
def test_lm_records_why_it_stopped(cfg, rj, stop):
    trace = minimize(quadratic, np.array([0.0]), cfg, residual_jacobian=rj)
    assert trace.stop == stop
    assert trace.n_evals == len(trace.best_values)


def test_lm_start_must_be_finite_and_later_nan_is_rejected():
    with pytest.raises(OptimizationError, match="start point"):
        minimize(quadratic, np.array([0.0]), LevenbergMarquardt(),
                 residual_jacobian=lambda x: with_rr(np.array([np.nan]),
                                                     np.eye(1)))
    nan_after_start = lambda x: with_rr(
        parabola_rj(x)[0] if x[0] == 0.0 else np.array([np.nan]), np.eye(1))
    trace = minimize(quadratic, np.array([0.0]),
                     LevenbergMarquardt(max_iters=5),
                     residual_jacobian=nan_after_start)
    assert trace.n_evals == 6
    assert trace.f_best == 4.0 and trace.x_best[0] == 0.0


@pytest.mark.parametrize("cls, name", [(GradientDescent, "grad_tol"),
                                       (NelderMead, "f_tol")])
@pytest.mark.parametrize("bad", [None, np.inf])
def test_tolerances_without_a_none_must_be_finite_reals(cls, name, bad):
    """These tolerances have no off switch: None (which would raise a
    TypeError at the first comparison) is rejected by name, as in the
    config file."""
    with pytest.raises(OptimizationError,
                       match=f"{name} must be non-negative and finite"):
        cls(**{name: bad})


def test_lm_needs_a_residual_and_jacobian():
    with pytest.raises(OptimizationError, match="Jacobian"):
        minimize(quadratic, np.array([0.0]), LevenbergMarquardt())


def test_configs_accept_edge_values():
    CMAES(popsize=2, max_iters=0, f_tol=None)
    ParticleSwarm(particles=1, inertia=0.0)
    DifferentialEvolution(population=4, cr=0.0)
    DifferentialEvolution(cr=1.0)
    GradientDescent(grad_tol=0.0, f_tol=0.0)
    SPSA(seed=np.int64(3))


# -- Trace pins -------------------------------------------------------------

def nan_valley(xs):
    """A bent 2-D valley, least near (2, -1), that is NaN where x_0 > 2.2:
    a method that oversteps meets NaN rows."""
    vals = ((xs[:, 0] - 2.0) ** 2 + 0.5 * (xs[:, 1] + 1.0) ** 2
            + 0.1 * np.sin(3.0 * xs[:, 0] * xs[:, 1]))
    vals[xs[:, 0] > 2.2] = np.nan
    return vals


def nan_valley_fused(x):
    """``nan_valley`` at one point, with its gradient."""
    s = 0.3 * np.cos(3.0 * x[0] * x[1])
    g = np.array([2.0 * (x[0] - 2.0) + s * x[1], (x[1] + 1.0) + s * x[0]])
    return nan_valley(x[None, :])[0], g


def nan_valley_rj(x):
    """A bent residual, NaN where x_0 > 2.2, and its Jacobian."""
    r = np.array([x[0] - 2.0 + 0.3 * np.sin(x[1]),
                  x[1] + 1.0 + 0.2 * x[0] ** 2])
    jac = np.array([[1.0, 0.3 * np.cos(x[1])], [0.4 * x[0], 1.0]])
    return with_rr(np.full(2, np.nan) if x[0] > 2.2 else r, jac)


def trace_digest(trace) -> str:
    h = hashlib.sha256(np.array(trace.best_values, dtype=float).tobytes())
    h.update(np.asarray(trace.x_best, dtype=float).tobytes())
    h.update(repr((trace.f_best, trace.n_evals, trace.stop)).encode())
    return h.hexdigest()


PIN_X0 = np.array([0.0, 0.5])
PIN_CASES = {
    **{f"{type(cfg).__name__}-{obj.__name__}": (cfg, obj, {})
       for cfg in ALL_CONFIGS for obj in (nan_valley, later_rows_nan)},
    # steps long enough to reach the NaN region
    "GradientDescent-long": (GradientDescent(eta=1.5, max_iters=300),
                             nan_valley, {}),
    "GradientDescent-fused": (GradientDescent(eta=1.5, max_iters=300),
                              nan_valley, {"value_and_grad":
                                           nan_valley_fused}),
    "SPSA-long": (SPSA(a=1.0, c=0.5, max_iters=100, seed=5), nan_valley, {}),
    "LevenbergMarquardt": (LevenbergMarquardt(), nan_valley,
                           {"residual_jacobian": nan_valley_rj}),
    "LevenbergMarquardt-f_tol": (LevenbergMarquardt(mu0=10.0, f_tol=1e-3),
                                 nan_valley,
                                 {"residual_jacobian": nan_valley_rj}),
    "LevenbergMarquardt-max_iters": (LevenbergMarquardt(max_iters=4),
                                     nan_valley,
                                     {"residual_jacobian": nan_valley_rj}),
}
# sha256 of each case's best_values, x_best, f_best, n_evals and stop.  A
# change that moves them updates them and says why in CHANGES.md.
TRACE_SHA256 = {
    "CMAES-later_rows_nan":
        "0ef0511269bdef6342d2ad27e2c180dca2b14d843eafba7d6ee6848c097e5aa6",
    "CMAES-nan_valley":
        "40b4f9197c6c979e6df6ea9777593def6a55266d588e612e2c75382e79a4d1ec",
    "DifferentialEvolution-later_rows_nan":
        "efe09e92e3223c06003f0f0491a54d68ab3a2311b2b1e3326f4bc0280789222e",
    "DifferentialEvolution-nan_valley":
        "f7a0d276dbedc6fea1b45a3f41a1cb4d1486f982f646468ca593ffafb17e145d",
    "GradientDescent-fused":
        "b5c27fc4f4af01933204badc4820ddf44e9320fe53d1b30d369453170047b1f1",
    "GradientDescent-later_rows_nan":
        "451eaef9966aa5790d718b36b55085dc8ccd7131b5c468f8028b90c576560218",
    "GradientDescent-long":
        "371054147d2ba1f0251e8870a6d789169818026f9917bc813453d14f5c4767ec",
    "GradientDescent-nan_valley":
        "09e2a37ebc7d654cba9e408f884a0a3e76fd043cf204cdafa587821b4952a1fa",
    "LevenbergMarquardt":
        "f4d21e16e0ec35ac59e4c7bca6b99ea37690d089b8778ac1d86b2e295f127201",
    "LevenbergMarquardt-f_tol":
        "e4628e5ad986dcd21388c82345380c337158303fee28633a9b97e283af3d2708",
    "LevenbergMarquardt-max_iters":
        "de530808ad09deee503561665cc928a75aecec28df1e49db2a56d32dae7547ae",
    "NelderMead-later_rows_nan":
        "017e26680cbd80165fd1b6a6c038f505c65146162129dab6c293df020037985b",
    "NelderMead-nan_valley":
        "9681db2f215042fd5a3f640bbb30037e9e02673dc3d89f33eb5f422f25aed4df",
    "ParticleSwarm-later_rows_nan":
        "a866b79d3d8bc9839dc9424770a0213069397102fb6fb787f57a829f734b71ff",
    "ParticleSwarm-nan_valley":
        "f5ce178d999ad6d21b35033323705b65bbcac40a7f26f2b327821a5bcf24d22a",
    "SPSA-later_rows_nan":
        "f264f817fe02b6c3c2be51dbafc130845b6bbfbcb6f71627a7ad4db15bf48964",
    "SPSA-long":
        "81e5c8597f94640a055622780183c2c0df1dfab99b46ab55831b9800a210a4ef",
    "SPSA-nan_valley":
        "01ca931a6c4bcecc997901c0253d59750601cb39342464353f71defb6698b217",
}


@pytest.mark.parametrize("name", sorted(PIN_CASES))
def test_traces_are_pinned(name):
    cfg, objective, kwargs = PIN_CASES[name]
    trace = minimize(objective, PIN_X0, cfg, **kwargs)
    assert trace_digest(trace) == TRACE_SHA256[name]


# -- Only minimize writes a trace ---------------------------------------------

TRACE_WRITERS = {"minimize"}
COUNTERS = {"_tally", "_count", "_counted"}


def trace_writes(tree):
    """(top-level function, what) for every ``.record(`` call, ``.stop``
    assignment and ``trace`` parameter in a module."""
    found = []
    for top in tree.body:
        if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            continue
        for node in ast.walk(top):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "record"):
                found.append((top.name, "record"))
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(node, (ast.AugAssign,
                                                          ast.AnnAssign))
                       else [])
            found += [(top.name, "stop") for t in targets
                      if isinstance(t, ast.Attribute) and t.attr == "stop"]
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args
                found += [(top.name, "trace") for a in (
                    args.posonlyargs + args.args + args.kwonlyargs)
                    if a.arg == "trace"]
    return found


def test_only_minimize_writes_the_trace():
    """Each method yields its steps and returns why it stopped: no function
    but ``minimize`` records or sets a stop, and only it and the counting
    helpers take a trace."""
    tree = ast.parse(inspect.getsource(optim))
    found = trace_writes(tree)
    assert {name for name, what in found if what != "trace"} \
        == TRACE_WRITERS
    assert {name for name, what in found if what == "trace"} \
        <= TRACE_WRITERS | COUNTERS


def test_trace_writes_finds_each_kind_of_write():
    tree = ast.parse("def m(f, trace):\n    trace.record(0, f)\n"
                     "    trace.stop = 'x'\n"
                     "def g(x):\n    h = lambda trace: trace.record(x, 0)\n")
    assert sorted(trace_writes(tree)) == [
        ("g", "record"), ("g", "trace"),
        ("m", "record"), ("m", "stop"), ("m", "trace")]


@pytest.mark.parametrize("x0", [np.zeros((2, 2)), np.zeros(0), np.float64(1.0),
                                [], 0.5], ids=["2x2", "empty", "scalar",
                                               "empty-list", "float"])
@pytest.mark.parametrize("cfg", [*ALL_CONFIGS, LevenbergMarquardt()],
                         ids=lambda c: type(c).__name__)
def test_start_must_be_a_non_empty_row(cfg, x0):
    calls = []

    def objective(xs):
        calls.append(xs)
        return quadratic(xs)

    with pytest.raises(OptimizationError, match="x0"):
        minimize(objective, x0, cfg, residual_jacobian=parabola_rj)
    assert calls == []
