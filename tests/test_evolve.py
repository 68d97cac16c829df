import re
import warnings
from functools import partial

import numpy as np
import pytest

from vqpde.ansatz import AnsatzSpec, prepare
from vqpde.costlib import (
    DSW,
    CamassaHolm,
    CostFunction,
    JointCost,
    NavierStokes,
    PartTemplate,
    build_cost,
    compile_cost,
)
from vqpde.evolve import (
    ENCODE_TOL,
    IMAG_LEAK_TOL,
    EvolutionConfig,
    EvolutionError,
    Trajectory,
    fields_to_trajectory,
    fit_field,
    readout,
    run,
    step,
    trajectory_rows,
    write_trajectory_csv,
)
from vqpde.opexpr import OpExpr
from vqpde.optim import (
    CMAES,
    SPSA,
    GradientDescent,
    LevenbergMarquardt,
    minimize,
)
from vqpde.statevec import SimulationError, layout_1d

from reference import dense_reference, direct_cost

LAY = layout_1d(3, 1.0)
SPEC = AnsatzSpec(n_qubits=3, layers=4, rotation_axes=("Y",))
XS = np.arange(8.0)
GD = GradientDescent(eta=0.2, max_iters=150, grad_tol=1e-10)


def couette(cfg: EvolutionConfig):
    """``step``'s template argument for couette flow on ``LAY``: the compiled
    cost, as ``run`` hands it over."""
    return partial(compile_cost, NavierStokes(nu=1.0), LAY, cfg.tau)


def test_config_validation():
    with pytest.raises(EvolutionError):
        EvolutionConfig(tau=0.0, n_steps=1, optimizer=GD)
    with pytest.raises(EvolutionError):
        EvolutionConfig(tau=0.1, n_steps=-1, optimizer=GD)
    with pytest.raises(EvolutionError):
        EvolutionConfig(tau=0.1, n_steps=1, optimizer=GD, restarts=0)
    with pytest.raises(EvolutionError):
        EvolutionConfig(tau=0.1, n_steps=1, optimizer=GD, mode="fuzzy")
    with pytest.raises(EvolutionError):
        EvolutionConfig(tau=0.1, n_steps=1, optimizer=GD, mode="shots")


@pytest.mark.parametrize("optimizer", ["gd", None, GradientDescent])
def test_config_rejects_what_is_not_an_optimizer_config(optimizer):
    """A name, None or a config class (not an instance) fails at the
    config, before ``run`` spends its encoding on it."""
    with pytest.raises(EvolutionError, match="unknown optimizer"):
        EvolutionConfig(tau=0.1, n_steps=1, optimizer=optimizer)


@pytest.mark.parametrize("tau", [True, np.True_, "0.1", None])
def test_config_rejects_a_bool_time_step(tau):
    with pytest.raises(EvolutionError, match="time step"):
        EvolutionConfig(tau=tau, n_steps=1, optimizer=GD)


def test_levenberg_marquardt_needs_exact_mode():
    """A device does not measure the overlaps J^T J holds."""
    with pytest.raises(EvolutionError, match="mode 'exact'"):
        EvolutionConfig(tau=0.1, n_steps=1, optimizer=LevenbergMarquardt(),
                        mode="shots", shots=1000)
    EvolutionConfig(tau=0.1, n_steps=1, optimizer=LevenbergMarquardt())


def test_shot_count_needs_shot_mode():
    with pytest.raises(EvolutionError, match="mode 'shots'"):
        EvolutionConfig(tau=0.1, n_steps=1, optimizer=GD, shots=1000)
    with pytest.raises(EvolutionError, match="mode 'shots'"):
        EvolutionConfig(tau=0.1, n_steps=1, optimizer=GD, mode="exact",
                        shots=1000)
    assert EvolutionConfig(tau=0.1, n_steps=1, optimizer=GD, mode="shots",
                           shots=1000).shots == 1000


@pytest.mark.parametrize("bad", [
    {"tau": float("nan")}, {"tau": float("inf")},
])
def test_config_rejects_nonfinite_values(bad):
    kwargs = {"tau": 0.1, "n_steps": 1, "optimizer": GD, **bad}
    with pytest.raises(EvolutionError):
        EvolutionConfig(**kwargs)


@pytest.mark.parametrize("bad", [
    {"mode": "shots", "shots": 2.5}, {"mode": "shots", "shots": True},
    {"n_steps": True}, {"n_steps": 2.5}, {"restarts": 1.5}, {"seed": 1.5},
], ids=["shots-float", "shots-bool", "n_steps-bool", "n_steps-float",
        "restarts-float", "seed-float"])
def test_config_rejects_non_integer_counts(bad):
    """A fractional shot count would be truncated by the binomial draw but
    still divide the estimate, and a bool would count as 1; both are
    rejected when the config is made, before any work."""
    kwargs = {"tau": 0.1, "n_steps": 1, "optimizer": GD, **bad}
    name = next(k for k in bad if k != "mode")
    with pytest.raises(EvolutionError, match=f"{name} must be an integer"):
        EvolutionConfig(**kwargs)


def test_config_stores_numpy_integer_counts_as_int():
    cfg = EvolutionConfig(tau=0.1, n_steps=np.int64(2), optimizer=GD,
                          restarts=np.int32(2), mode="shots",
                          shots=np.int64(100), seed=np.uint32(3))
    assert [type(v) for v in (cfg.n_steps, cfg.restarts, cfg.shots,
                              cfg.seed)] == [int] * 4


def test_readout_roundtrip_and_zero_scale():
    spec = AnsatzSpec(n_qubits=1, layers=1, entangler="none")
    f, leak = readout(spec, np.array([np.pi / 2, 2.0]))
    assert np.allclose(f, [np.sqrt(2), np.sqrt(2)])
    assert leak < 1e-12
    f0, _ = readout(spec, np.array([0.3, 0.0]))
    assert np.max(np.abs(f0)) == 0.0


def test_readout_warns_when_it_drops_an_imaginary_part():
    """Y rotations and CNOTs keep the amplitudes real; a Z layer does not,
    and the warning names the share of the norm that readout drops."""
    rng = np.random.default_rng(3)
    spec_y = AnsatzSpec(n_qubits=3, layers=2, rotation_axes=("Y",))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, leak = readout(spec_y, np.append(
            rng.normal(size=spec_y.parameter_count), 1.5))
    assert leak == 0.0
    spec_yz = AnsatzSpec(n_qubits=3, layers=2, rotation_axes=("Y", "Z"))
    row = np.append(rng.normal(size=spec_yz.parameter_count), 1.5)
    with pytest.warns(RuntimeWarning, match="imaginary part") as caught:
        _, leak = readout(spec_yz, row)
    assert leak > IMAG_LEAK_TOL
    assert f"{leak:.3g}" in str(caught[0].message)


def test_fit_field_recovers_profile():
    rng = np.random.default_rng(5)
    target = np.sin(2 * np.pi * XS / 8) + 1.1
    x = fit_field(SPEC, LAY, target, rng)
    assert x.shape == (SPEC.parameter_count + 1,)
    f, _ = readout(SPEC, x)
    assert np.linalg.norm(f - target) / np.linalg.norm(target) < 1e-3


def encoding_cost(field, spec=SPEC, lay=LAY):
    """The M = I residual ``fit_field`` minimizes, as its ``JointCost``."""
    return CostFunction(PartTemplate("encode", lay, OpExpr.identity(),
                                     (OpExpr.identity(),), ("f",)),
                        spec, (field,), {}).joint


def test_cmaes_on_the_encoding_cost_batched_equals_one_row_at_a_time():
    """CMA-ES, still a method users can pick, passes each generation as one
    call of rows; evaluated one row at a time, the search is the same."""
    target = np.sin(2 * np.pi * XS / 8) + 1.1
    cost = encoding_cost(target)
    x0 = np.random.default_rng(5).normal(scale=0.1, size=cost.n_params)
    x0[-1] = np.linalg.norm(target)
    cfg = CMAES(sigma0=0.3, max_iters=400, f_tol=1e-15 * cost.offset, seed=3)
    calls = []

    def rows_one_by_one(xs):
        calls.append(len(xs))
        return np.array([cost.evaluate_rows(x[None, :])[0] for x in xs])

    batched = minimize(cost.evaluate_rows, x0, cfg)
    single = minimize(rows_one_by_one, x0, cfg)
    assert max(calls) > 1
    assert batched.best_values == single.best_values
    assert np.array_equal(batched.x_best, single.x_best)


def test_fit_field_warns_when_the_encoding_is_missed():
    """Two Y-layers on 4 qubits do not reach this profile: every start
    stops at a residual far above the tolerance, and the warning names the
    best one.  Four layers on 3 qubits reach a sine profile to rounding,
    silently."""
    lay = layout_1d(4, 1.0)
    spec = AnsatzSpec(n_qubits=4, layers=2, rotation_axes=("Y",),
                      entangler="chain")
    field = 1.0 + 0.2 * np.sin(2 * np.pi * np.arange(16) / 16 + 0.7)
    with pytest.warns(RuntimeWarning, match="field encoding missed") as caught:
        x = fit_field(spec, lay, field, np.random.default_rng(1))
    named = re.search(r"residual (\S+) of", str(caught[0].message)).group(1)
    cost = encoding_cost(field, spec, lay)
    assert float(named) > ENCODE_TOL
    assert named == f"{cost.evaluate_rows(x[None, :])[0] / cost.offset:.3g}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit_field(SPEC, LAY, np.sin(2 * np.pi * XS / 8 + 0.4) + 1.2,
                  np.random.default_rng(1))


def test_fit_field_draws_one_row_and_one_integer_from_rng():
    """The encoding takes one normal row and one integer from the run's
    generator, restarts included, so the draws after it do not move."""
    lay4 = layout_1d(4, 1.0)
    spec4 = AnsatzSpec(n_qubits=4, layers=2, rotation_axes=("Y",))
    missed = 1.0 + 0.2 * np.sin(2 * np.pi * np.arange(16) / 16 + 0.7)
    for spec, lay, field in ((SPEC, LAY, np.sin(2 * np.pi * XS / 8) + 1.1),
                             (spec4, lay4, missed)):
        rng, ref = np.random.default_rng(7), np.random.default_rng(7)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the 4 x 2 encoding misses
            fit_field(spec, lay, field, rng)
        ref.normal(size=spec.parameter_count + 1)
        ref.integers(2 ** 31)
        assert rng.bit_generator.state == ref.bit_generator.state


def test_fit_field_reaches_rounding_on_the_relaxation_fields():
    """On the relaxation benchmark's field recipe (seeds 1-10, 3 qubits,
    4 Y-layers) the encoding reaches 1e-15 of the squared norm."""
    for seed in range(1, 11):
        rng = np.random.default_rng(seed)
        amp, phase = rng.uniform(0.9, 1.1), rng.uniform(0.0, 2 * np.pi)
        field = amp * np.sin(2 * np.pi * XS / 8 + phase) + 1.2
        run_rng = np.random.default_rng(int(rng.integers(2 ** 31)))
        x = fit_field(SPEC, LAY, field, run_rng)
        cost = encoding_cost(field)
        assert cost.evaluate_rows(x[None, :])[0] <= 1e-15 * cost.offset, seed


def test_fit_field_zero_field_shortcut():
    x = fit_field(SPEC, LAY, np.zeros(8), np.random.default_rng(0))
    assert x.shape == (SPEC.parameter_count + 1,)
    assert x[-1] == 0.0


@pytest.mark.parametrize("field", [np.zeros(5), np.zeros((2, 4)),
                                   np.zeros((1, 8)), np.ones(5), 0.0],
                         ids=["zeros5", "zeros2x4", "zeros1x8", "ones5",
                              "scalar"])
def test_fit_field_rejects_a_field_off_the_grid_before_the_zero_shortcut(
        field):
    with pytest.raises(SimulationError, match="one row of 8 samples"):
        fit_field(SPEC, LAY, field, np.random.default_rng(0))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_exact_cost_matches_direct_at_fit_field_optimum(seed):
    """The encoding reaches the direct cost's rounding level; there both
    costs are rounding noise, so the two are compared at a fixed step off
    the returned row, where the cost is about 1e-6 of the offset."""
    target = np.sin(2 * np.pi * XS / 8) + 1.1
    x = fit_field(SPEC, LAY, target, np.random.default_rng(seed))
    cost = CostFunction(PartTemplate("encode", LAY, OpExpr.identity(),
                                     (OpExpr.identity(),), ("f",)),
                        SPEC, (target,), {})
    assert direct_cost(cost, x[:-1], x[-1]) <= 1e-12 * cost.offset
    y = x + 1e-3 * np.cos(np.arange(x.size))
    direct = direct_cost(cost, y[:-1], y[-1])
    rows = JointCost(cost.name, (cost,)).evaluate_rows(y[None, :])[0]
    assert direct > 1e-9 * cost.offset
    assert abs(rows - direct) <= 1e-6 * direct


def test_reported_cost_matches_direct_at_converged_steps():
    u0 = np.sin(2 * np.pi * XS / 8) + 1.2
    cfg = EvolutionConfig(tau=0.05, n_steps=3,
                          optimizer=GradientDescent(eta=0.2, max_iters=300,
                                                    grad_tol=1e-10),
                          seed=11)
    traj = run(NavierStokes(nu=1.0), [u0], cfg, LAY, SPEC)
    for prev, rec in zip(traj.records, traj.records[1:]):
        part = build_cost(NavierStokes(nu=1.0), [prev.fields["u"]], LAY,
                          cfg.tau, SPEC).parts[0]
        # the converged residual is ~1e-12 of the field, so one rounding
        # step in psi or b moves its squared norm by ~1e-5: the direct norm
        # takes the program's psi and b (each checked against a dense
        # reference elsewhere) and the dense operator in place of m_form
        m = dense_reference(part.template.m_op, LAY, part.bindings)
        r = rec.x[-1] * (m @ prepare(SPEC, rec.x[:-1]).amplitudes) \
            - part.b_vector
        direct = float(np.vdot(r, r).real)
        assert abs(rec.cost - direct) <= 1e-6 * direct


@pytest.mark.parametrize("iters", [0, 4])
def test_shot_mode_spsa_step_is_one_call_per_iteration(monkeypatch, iters):
    """A shot-mode step with K SPSA iterations estimates K + 1 batches:
    each iteration's point with its +/- pair, then the last point."""
    calls = []
    estimate_rows = JointCost.estimate_rows

    def counted(self, xs, *args, **kwargs):
        calls.append(len(xs))
        return estimate_rows(self, xs, *args, **kwargs)

    monkeypatch.setattr(JointCost, "estimate_rows", counted)
    lay = layout_1d(3, 1.0)
    spec = AnsatzSpec(n_qubits=3, layers=2, rotation_axes=("Y",))
    u = 1.0 + 0.2 * np.sin(2 * np.pi * XS / 8)
    rng = np.random.default_rng(8)
    x0 = np.append(rng.normal(size=spec.parameter_count), np.linalg.norm(u))
    cfg = EvolutionConfig(tau=0.01, n_steps=1,
                          optimizer=SPSA(max_iters=iters, seed=2),
                          mode="shots", shots=500)
    _, info = step(partial(compile_cost, CamassaHolm(1.0), lay, cfg.tau),
                   [u, u], x0, cfg, spec, rng)
    assert len(calls) == iters + 1
    assert sum(calls) == info["n_evals"] == 3 * iters + 1


def count_preparations(monkeypatch) -> list:
    """Patch costlib's two state preparations to record, per call, the
    rows it prepares: a ``prepare_batch`` call's rows, or the P + 1 rows
    per base row of a ``prepare_pi_rows`` call."""
    from vqpde import costlib

    calls = []
    prepare_batch, prepare_pi_rows = (costlib.prepare_batch,
                                      costlib.prepare_pi_rows)

    def counted(spec, lams):
        calls.append(len(lams))
        return prepare_batch(spec, lams)

    def counted_pi(spec, lams):
        rows = prepare_pi_rows(spec, lams)
        calls.append(rows.shape[0] * rows.shape[1])
        return rows

    monkeypatch.setattr(costlib, "prepare_batch", counted)
    monkeypatch.setattr(costlib, "prepare_pi_rows", counted_pi)
    return calls


@pytest.mark.parametrize("restarts", [1, 2])
def test_exact_gd_step_prepares_once_per_evaluation(monkeypatch, restarts):
    """An exact-mode gradient-descent step prepares one batch per counted
    evaluation, each candidate's gradient included, plus the closed-form
    scales at the warm start and, per start, at its best point and the
    fused cost and gradient reported there."""
    calls = count_preparations(monkeypatch)
    u = np.sin(2 * np.pi * XS / 8) + 1.2
    rng = np.random.default_rng(5)
    x0 = np.append(rng.normal(size=SPEC.parameter_count), np.linalg.norm(u))
    cfg = EvolutionConfig(tau=0.05, n_steps=1, restarts=restarts,
                          optimizer=GradientDescent(eta=0.2, max_iters=10,
                                                    grad_tol=0.0))
    _, info = step(couette(cfg), [u], x0, cfg, SPEC, rng)
    assert info["n_evals"] > 10 * restarts
    assert len(calls) == info["n_evals"] + 1 + 2 * restarts
    assert calls.count(SPEC.parameter_count + 1) == len(calls) - 1 - restarts


def test_exact_gd_step_above_the_fused_size_takes_one_row_candidates(
        monkeypatch):
    """Above ``FUSED_MAX_AMPS`` a candidate is one row and a gradient is
    taken only where one is accepted; the step is the same bit for bit."""
    from vqpde import evolve

    calls = count_preparations(monkeypatch)
    u = np.sin(2 * np.pi * XS / 8) + 1.2
    x0 = np.append(np.full(SPEC.parameter_count, 0.3), np.linalg.norm(u))
    cfg = EvolutionConfig(tau=0.05, n_steps=1, optimizer=GradientDescent(
        eta=0.2, max_iters=10, grad_tol=0.0))
    args = (couette(cfg), [u], x0, cfg, SPEC)
    x_fused, info_fused = step(*args, np.random.default_rng(5))
    n_fused = len(calls)
    calls.clear()
    monkeypatch.setattr(evolve, "FUSED_MAX_AMPS", 0)
    x, info = step(*args, np.random.default_rng(5))
    assert np.array_equal(x, x_fused) and info == info_fused
    assert calls.count(1) == info["n_evals"] + 2  # + the two scale fits
    assert len(calls) > n_fused


def test_lm_steps_take_few_calls_and_match_the_oracle(monkeypatch):
    """Three relaxation steps by Levenberg-Marquardt at its defaults: each
    step prepares at most 10 batches (the warm start's scale, the
    candidates, and the winner's scale and reported cost) and ends within
    1e-12 of the oracle."""
    from vqpde import evolve
    from vqpde import oracle as orc

    calls, per_step = count_preparations(monkeypatch), []
    one_step = evolve.step

    def step_counted(*args, **kwargs):
        calls.clear()
        out = one_step(*args, **kwargs)
        per_step.append(len(calls))
        return out

    monkeypatch.setattr(evolve, "step", step_counted)
    u0 = np.sin(2 * np.pi * XS / 8) + 1.2
    cfg = EvolutionConfig(tau=0.05, n_steps=3,
                          optimizer=LevenbergMarquardt(), seed=11)
    traj = run(NavierStokes(nu=1.0), [u0], cfg, LAY, SPEC)
    ref = orc.classical_run(NavierStokes(nu=1.0), [u0], LAY, 0.05, 3)
    assert len(per_step) == 3 and max(per_step) <= 10
    assert [r.stop for r in traj.records[1:]] == ["converged"] * 3
    assert orc.l2_error(traj.fields("u"), ref).max() <= 1e-12


@pytest.mark.parametrize("optimizer, mode, stop", [
    (GradientDescent(eta=0.2, max_iters=5, grad_tol=0.0), "exact",
     "max-iters"),
    (GradientDescent(eta=0.2, max_iters=5, grad_tol=1e6), "exact",
     "converged"),
    (SPSA(max_iters=3, seed=1), "shots", "max-iters"),
    (LevenbergMarquardt(), "exact", "converged"),
])
def test_steps_record_why_the_optimization_stopped(optimizer, mode, stop):
    u0 = np.sin(2 * np.pi * XS / 8) + 1.2
    cfg = EvolutionConfig(tau=0.05, n_steps=2, optimizer=optimizer, mode=mode,
                          shots=500 if mode == "shots" else None, seed=3)
    traj = run(NavierStokes(nu=1.0), [u0], cfg, LAY, SPEC)
    assert [r.stop for r in traj.records] == [None, stop, stop]


def test_zero_steps_returns_initial_only():
    cfg = EvolutionConfig(tau=0.1, n_steps=0, optimizer=GD, seed=3)
    traj = run(NavierStokes(nu=1.0), [XS * 0 + 1.0], cfg, LAY, SPEC)
    assert len(traj) == 1
    assert np.allclose(traj.records[0].fields["u"], 1.0)


def test_constant_field_is_a_fixed_point():
    c = np.full(8, 1.3)
    cfg = EvolutionConfig(tau=0.1, n_steps=3, optimizer=GD, seed=7)
    traj = run(NavierStokes(nu=1.0), [c], cfg, LAY, SPEC)
    assert len(traj) == 4
    for rec in traj.records[1:]:
        assert rec.cost <= 1e-8
        assert np.max(np.abs(rec.fields["u"] - c)) < 1e-3


def test_run_is_deterministic_per_seed():
    u0 = np.sin(2 * np.pi * XS / 8) + 1.2
    cfg = EvolutionConfig(tau=0.05, n_steps=2, optimizer=GD, seed=11)
    a = run(NavierStokes(nu=1.0), [u0], cfg, LAY, SPEC)
    b = run(NavierStokes(nu=1.0), [u0], cfg, LAY, SPEC)
    for ra, rb in zip(a.records, b.records):
        assert np.array_equal(ra.fields["u"], rb.fields["u"])
        assert ra.cost == rb.cost


def test_diffusion_tracks_classical_oracle():
    from vqpde import oracle as orc
    u0 = np.sin(2 * np.pi * XS / 8) + 1.2
    cfg = EvolutionConfig(tau=0.05, n_steps=4,
                          optimizer=GradientDescent(eta=0.2, max_iters=300,
                                                    grad_tol=1e-10),
                          seed=11)
    traj = run(NavierStokes(nu=1.0), [u0], cfg, LAY, SPEC)
    ref = orc.classical_run(NavierStokes(nu=1.0), [u0], LAY, 0.05, 4)
    errs = orc.l2_error(traj.fields("u"), ref)
    assert errs.max() < 1e-4


def test_joint_system_records_both_components():
    u0 = 0.1 * np.sin(2 * np.pi * XS / 8)
    v0 = 0.1 * np.cos(2 * np.pi * XS / 8) + 1.0
    cfg = EvolutionConfig(tau=0.02, n_steps=1,
                          optimizer=GradientDescent(eta=0.1, max_iters=80,
                                                    grad_tol=1e-8),
                          seed=2)
    traj = run(DSW(), [u0, v0], cfg, LAY, SPEC)
    assert len(traj) == 2
    rec = traj.records[1]
    assert set(rec.fields) == {"u", "v"}
    assert np.isfinite(rec.cost)
    # the record keeps the whole row, one (lam, lam0) block per component
    assert rec.x.shape == (2 * (SPEC.parameter_count + 1),)
    for name, row in zip(("u", "v"), np.split(rec.x, 2)):
        assert np.array_equal(readout(SPEC, row)[0], rec.fields[name])


@pytest.mark.parametrize("size", [SPEC.parameter_count,
                                  2 * (SPEC.parameter_count + 1)])
def test_step_rejects_a_row_of_the_wrong_length(size):
    u = np.sin(2 * np.pi * XS / 8) + 1.2
    cfg = EvolutionConfig(tau=0.05, n_steps=1, optimizer=GD)
    with pytest.raises(EvolutionError, match="row of 13 parameters"):
        step(couette(cfg), [u], np.zeros(size), cfg, SPEC,
             np.random.default_rng(0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_step_rejects_a_non_finite_row(bad):
    """The warm start is rejected by name before any objective call."""
    u = np.sin(2 * np.pi * XS / 8) + 1.2
    cfg = EvolutionConfig(tau=0.05, n_steps=1, optimizer=GD)
    x0 = np.full(SPEC.parameter_count + 1, 0.3)
    x0[4] = bad
    with pytest.raises(EvolutionError, match="x0 is not finite"):
        step(couette(cfg), [u], x0, cfg, SPEC, np.random.default_rng(0))


@pytest.mark.parametrize("n_qubits", [2, 4])
def test_run_rejects_an_ansatz_of_another_size_by_name(n_qubits):
    """An ansatz of 2 or 4 qubits on an 8-point grid fails by name in the
    encoding, not inside numpy."""
    cfg = EvolutionConfig(tau=0.05, n_steps=1, optimizer=GD)
    with pytest.raises(SimulationError,
                       match="ansatz size does not match the grid"):
        run(NavierStokes(), [np.sin(2 * np.pi * XS / 8)], cfg, LAY,
            AnsatzSpec(n_qubits, 2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_field_rejects_a_non_finite_field(bad):
    field = np.sin(2 * np.pi * XS / 8) + 1.1
    field[2] = bad
    with pytest.raises(SimulationError, match="field to encode"):
        fit_field(SPEC, LAY, field, np.random.default_rng(0))


def test_second_order_from_rest_equals_repeated_level():
    u0 = 1.0 + 0.1 * np.sin(2 * np.pi * XS / 8)
    cfg = EvolutionConfig(tau=0.01, n_steps=1,
                          optimizer=GradientDescent(eta=0.1, max_iters=10),
                          seed=3)
    a = run(CamassaHolm(), [u0], cfg, LAY, SPEC)
    b = run(CamassaHolm(), [u0, u0], cfg, LAY, SPEC)
    assert len(a) == len(b) == 2
    for ra, rb in zip(a.records, b.records):
        assert np.array_equal(ra.fields["u"], rb.fields["u"])
        assert np.array_equal(ra.cost, rb.cost)


def test_coupled_system_needs_both_fields():
    cfg = EvolutionConfig(tau=0.02, n_steps=1, optimizer=GD)
    with pytest.raises(EvolutionError):
        run(DSW(), [np.ones(8)], cfg, LAY, SPEC)


def test_run_rejects_wrong_grid_size():
    cfg = EvolutionConfig(tau=0.1, n_steps=1, optimizer=GD)
    with pytest.raises(SimulationError):
        run(NavierStokes(nu=1.0), [np.ones(4)], cfg, LAY, SPEC)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_run_rejects_non_finite_initial_data(bad):
    """A non-finite sample fails at the boundary, before the encoding."""
    cfg = EvolutionConfig(tau=0.02, n_steps=1, optimizer=GD)
    u = np.ones(8)
    u[3] = bad
    with pytest.raises(SimulationError, match="not finite"):
        run(NavierStokes(nu=1.0), [u], cfg, LAY, SPEC)
    with pytest.raises(SimulationError, match="not finite"):
        run(DSW(), [np.ones(8), u], cfg, LAY, SPEC)


def test_trajectory_rows_deterministic_and_complete():
    fields = [np.arange(8.0), np.arange(8.0) * 2]
    traj = fields_to_trajectory(fields, LAY, 0.5)
    rows = trajectory_rows(traj)
    assert len(rows) == 2 * 8
    assert rows == trajectory_rows(fields_to_trajectory(fields, LAY, 0.5))
    assert rows[0][:3] == ["0", "u", "0"]
    assert rows[8][0] == "0.5"


def test_write_trajectory_csv(tmp_path):
    traj = fields_to_trajectory([np.arange(8.0)], LAY, 0.1)
    path = tmp_path / "out.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,component,index,x,value,cost,grad_norm"
    assert len(lines) == 9
