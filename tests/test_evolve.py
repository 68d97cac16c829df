import numpy as np
import pytest

from vqpde.ansatz import AnsatzSpec, VariationalState
from vqpde.costlib import (
    DSW,
    CamassaHolm,
    CostFunction,
    NavierStokes,
    Source,
    build_cost,
)
from vqpde.evolve import (
    EvolutionConfig,
    EvolutionError,
    Trajectory,
    fields_to_trajectory,
    fit_field,
    readout,
    run,
    trajectory_rows,
    write_trajectory_csv,
)
from vqpde.opexpr import OpExpr
from vqpde.optim import GradientDescent, minimize
from vqpde.statevec import layout_1d

LAY = layout_1d(3, 1.0)
SPEC = AnsatzSpec(n_qubits=3, layers=4, rotation_axes=("Y",))
XS = np.arange(8.0)
GD = GradientDescent(eta=0.2, max_iters=150, grad_tol=1e-10)


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


@pytest.mark.parametrize("bad", [
    {"tau": float("nan")}, {"tau": float("inf")},
])
def test_config_rejects_nonfinite_values(bad):
    kwargs = {"tau": 0.1, "n_steps": 1, "optimizer": GD, **bad}
    with pytest.raises(EvolutionError):
        EvolutionConfig(**kwargs)


def test_readout_roundtrip_and_zero_scale():
    spec = AnsatzSpec(n_qubits=1, layers=1, entangler="none")
    vs = VariationalState(spec, np.array([np.pi / 2]), 2.0)
    f, leak = readout(vs)
    assert np.allclose(f, [np.sqrt(2), np.sqrt(2)])
    assert leak < 1e-12
    f0, _ = readout(VariationalState(spec, np.array([0.3]), 0.0))
    assert np.max(np.abs(f0)) == 0.0


def test_fit_field_recovers_profile():
    rng = np.random.default_rng(5)
    target = np.sin(2 * np.pi * XS / 8) + 1.1
    vs = fit_field(SPEC, LAY, target, rng)
    f, _ = readout(vs)
    assert np.linalg.norm(f - target) / np.linalg.norm(target) < 1e-3


def test_fit_field_batched_equals_one_row_at_a_time(monkeypatch):
    from vqpde import evolve
    target = np.sin(2 * np.pi * XS / 8) + 1.1
    batched = fit_field(SPEC, LAY, target, np.random.default_rng(5))
    calls = []

    def one_row_minimize(objective, x0, config, grad=None):
        def rows_one_by_one(xs):
            calls.append(len(xs))
            return np.array([objective(x[None, :])[0] for x in xs])
        return minimize(rows_one_by_one, x0, config, grad=grad)

    monkeypatch.setattr(evolve, "minimize", one_row_minimize)
    single = fit_field(SPEC, LAY, target, np.random.default_rng(5))
    assert max(calls) > 1
    assert np.array_equal(batched.lam, single.lam)
    assert batched.lam0 == single.lam0


def test_fit_field_zero_field_shortcut():
    vs = fit_field(SPEC, LAY, np.zeros(8), np.random.default_rng(0))
    assert vs.lam0 == 0.0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_exact_cost_matches_direct_at_fit_field_optimum(seed):
    target = np.sin(2 * np.pi * XS / 8) + 1.1
    vs = fit_field(SPEC, LAY, target, np.random.default_rng(seed))
    cost = CostFunction("encode", LAY, SPEC, OpExpr.identity(),
                        (Source(OpExpr.identity(), target, "f"),), {})
    direct = cost.evaluate_direct(vs.lam, vs.lam0)
    rows = cost.evaluate_rows(np.append(vs.lam, vs.lam0)[None, :])[0]
    assert direct <= 1e-12 * cost.offset
    assert abs(rows - direct) <= 1e-6 * direct


def test_reported_cost_matches_direct_at_converged_steps():
    u0 = np.sin(2 * np.pi * XS / 8) + 1.2
    cfg = EvolutionConfig(tau=0.05, n_steps=3,
                          optimizer=GradientDescent(eta=0.2, max_iters=300,
                                                    grad_tol=1e-10),
                          seed=11)
    traj = run(NavierStokes(nu=1.0), [u0], cfg, LAY, SPEC)
    for prev, rec in zip(traj.records, traj.records[1:]):
        cost = build_cost(NavierStokes(nu=1.0), [prev.fields["u"]], LAY,
                          cfg.tau, SPEC)
        direct = cost.evaluate_direct_vec(np.append(rec.lam, rec.lam0))
        assert abs(rec.cost - direct) <= 1e-6 * direct


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
    assert set(traj.records[1].fields) == {"u", "v"}
    assert np.isfinite(traj.records[1].cost)


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
    from vqpde.statevec import SimulationError
    cfg = EvolutionConfig(tau=0.1, n_steps=1, optimizer=GD)
    with pytest.raises(SimulationError):
        run(NavierStokes(nu=1.0), [np.ones(4)], cfg, LAY, SPEC)


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
