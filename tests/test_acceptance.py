"""End-to-end acceptance gate.

Each test checks one headline guarantee of the package and prints a single
PASS/FAIL line with the measured value and its tolerance.
"""
import time
import zlib

import numpy as np
import pytest

from vqpde import oracle as orc
from vqpde.ansatz import AnsatzSpec, prepare, prepare_batch
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
    build_cost,
)
from vqpde.evolve import EvolutionConfig, run
from vqpde.opexpr import compile_monomials, grad_op, laplacian_op
from vqpde.optim import (
    CMAES,
    DifferentialEvolution,
    GradientDescent,
    NelderMead,
    ParticleSwarm,
    SPSA,
    finite_diff_grad,
    minimize,
)
from vqpde.statevec import RegisterLayout, hadamard_test, layout_1d

from reference import (
    dense_reference,
    direct_cost_rows,
    direct_joint_cost,
    tagged_state,
    term_list_cost,
)


def report(capsys, ok: bool, label: str, detail: str):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok


def pde_instances(n_qubits_1d: int, two_axis: tuple = (2, 1)):
    """One representative cost per equation on small grids."""
    lay = layout_1d(n_qubits_1d, 1.0)
    n = 2 ** n_qubits_1d
    xs = np.arange(float(n))
    u = np.sin(2 * np.pi * xs / n)
    v = np.cos(2 * np.pi * xs / n)
    spec = AnsatzSpec(n_qubits=n_qubits_1d, layers=2, rotation_axes=("Y", "Z"))
    nx, ny = two_axis
    lay2 = RegisterLayout((("x", nx, 1.0), ("y", ny, 1.0)))
    n2 = 2 ** (nx + ny)
    u2 = np.sin(2 * np.pi * np.arange(float(n2)) / n2)
    spec2 = AnsatzSpec(n_qubits=nx + ny, layers=2, rotation_axes=("Y", "Z"))
    tau = 0.05
    return {
        "navier-stokes": build_cost(
            NavierStokes(nu=1.0, pressure=("field", 0.1 * v)),
            [u], lay, tau, spec),
        "einstein": build_cost(
            Einstein(tensor=EquilibriumFluid(1.0, 0.1, 1.0, 1.0)),
            [u + 2.0], lay, tau, spec),
        "maxwell": build_cost(
            Maxwell(component="z", which="B", ext_fields={"E_y": v}),
            [u], lay, tau, spec),
        "boussinesq": build_cost(Boussinesq(0.5, 0.5), [0.9 * u, u],
                                 lay, tau, spec),
        "lin-tsien": build_cost(LinTsien(), [u2], lay2, tau, spec2),
        "camassa-holm": build_cost(CamassaHolm(1.0), [0.9 * u, u],
                                   lay, tau, spec),
        "dsw": build_cost(DSW(), [u, v + 1.5], lay, tau, spec),
        "hunter-saxton": build_cost(HunterSaxton(), [u], lay, tau, spec),
    }


def test_term_sum_matches_direct_residual_norms(capsys):
    """All 8 residual costs: the term list that ``vqpde terms`` prints,
    summed term by term, vs the direct squared norm, 1000 random candidates
    each, grids up to 6 qubits, within 1e-10; both from the batched dense
    reference at the same prepared states."""
    t0 = time.time()
    worst = 0.0
    insts = dict(pde_instances(3, two_axis=(2, 1)))
    # larger grids: diffusion on 6 qubits, two-axis transonic case on 2+2
    lay6 = layout_1d(6, 1.0)
    xs6 = np.arange(64.0)
    insts["navier-stokes-64pt"] = build_cost(
        NavierStokes(nu=1.0), [np.sin(2 * np.pi * xs6 / 64) + 1.1],
        lay6, 0.05, AnsatzSpec(n_qubits=6, layers=1, rotation_axes=("Y",)))
    insts["lin-tsien-16pt"] = pde_instances(3, two_axis=(2, 2))["lin-tsien"]
    for name, cost in insts.items():
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        xs = rng.normal(size=(1000, cost.n_params))
        terms = direct = 0.0
        for p, block in zip(cost.parts, np.split(
                xs, len(cost.parts), axis=1)):
            psi = prepare_batch(p.spec, block[:, :-1])
            terms = terms + term_list_cost(p, psi, block[:, -1])
            direct = direct + direct_cost_rows(p, psi, block[:, -1])
        worst = max(worst, float(np.max(np.abs(terms - direct))))
    elapsed = time.time() - t0
    report(capsys, worst <= 1e-10 and elapsed < 120.0,
           "term-sum cost equals direct residual norm",
           f"max deviation {worst:.3e} <= 1e-10 over 10x1000 candidates, "
           f"{elapsed:.1f}s < 120s")


def test_derivative_operators_match_dense_circulants(capsys):
    """Compiled forward difference and three-point stencil, materialized
    column by column, vs dense circulant matrices (exact), plus the sine
    eigenvalue identity to 1e-12."""
    n = 32
    lay = layout_1d(5, 0.5)
    delta = 0.5
    eye = np.eye(lay.dim)

    def runtime_matrix(expr):
        # column j is the compiled operator applied to basis vector j
        return compile_monomials(expr, lay).apply(eye).T

    g_dev = np.max(np.abs(runtime_matrix(grad_op("x", delta))
                          - orc.grad_matrix(lay, "x")))
    l_dev = np.max(np.abs(runtime_matrix(laplacian_op("x", delta))
                          - orc.laplacian_matrix(lay, "x")))
    k = 2 * np.pi * 3 / n
    f = np.sin(k * np.arange(n))
    lap = runtime_matrix(laplacian_op("x", delta)) @ f
    ev = -(2.0 / delta ** 2) * (1.0 - np.cos(k))
    e_dev = np.max(np.abs(lap - ev * f))
    report(capsys, g_dev == 0.0 and l_dev == 0.0 and e_dev <= 1e-12,
           "derivative stencils match dense circulants",
           f"matrix deviation {max(g_dev, l_dev):.1e} (exact), "
           f"sine eigenvalue deviation {e_dev:.3e} <= 1e-12")


def test_shift_rule_gradients_match_finite_differences(capsys):
    """Every equation's cost: analytic shift-rule gradient vs central finite
    differences, 20 random draws, max-abs 1e-6."""
    t0 = time.time()
    worst = 0.0
    for name, cost in pde_instances(3, two_axis=(2, 1)).items():
        rng = np.random.default_rng(100 + zlib.crc32(name.encode()) % 2 ** 16)
        for _ in range(20):
            x = rng.normal(scale=0.7, size=cost.n_params)
            ps = cost.grad_vec(x)
            fd = finite_diff_grad(cost.evaluate_rows, x)
            worst = max(worst, float(np.max(np.abs(ps - fd))))
    elapsed = time.time() - t0
    report(capsys, worst <= 1e-6 and elapsed < 300.0,
           "shift-rule gradients match finite differences",
           f"max deviation {worst:.3e} <= 1e-6 over 8x20 draws, "
           f"{elapsed:.1f}s < 300s")


def test_shot_estimates_consistent_with_exact_values(capsys):
    """Ancilla-test shot estimates (1e5 shots) of every unitary cost term sit
    within 4 standard errors of the exact value in >= 99 of 100 trials."""
    lay = layout_1d(3, 1.0)
    spec = AnsatzSpec(n_qubits=3, layers=2, rotation_axes=("Y", "Z"))
    u = np.sin(2 * np.pi * np.arange(8.0) / 8) + 1.2
    cost = build_cost(NavierStokes(nu=1.0), [u], lay, 0.05, spec).parts[0]
    terms = [e for e in cost.term_list()
             if all(a.is_unitary() for a in e[2].atoms)]
    assert terms
    good = 0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        lam = rng.normal(scale=0.5, size=spec.parameter_count)
        psi = prepare(spec, lam).amplitudes
        ok = True
        for _, bra, term in terms:
            bra = tagged_state(cost, bra, psi)[None, :]
            ket = (dense_reference([term], lay, cost.arrays) @ psi)[None, :]
            exact = hadamard_test(bra, ket)[0]
            est = hadamard_test(bra, ket, shots=10 ** 5, rng=rng)[0]
            sigma = np.sqrt(max(1.0 - exact ** 2, 0.0) / 10 ** 5)
            if abs(est - exact) > 4.0 * sigma + 1e-12:
                ok = False
        good += ok
    report(capsys, good >= 99,
           "shot estimates within 4 standard errors",
           f"{good}/100 trials had every unitary term within 4 sigma "
           f"(threshold 99)")


def test_diffusive_relaxation_tracks_classical_solver(capsys):
    """Shear-driven viscous profile on 8 points, 50 implicit variational
    steps: per-step relative L2 error vs the classical solver <= 1e-2 and the
    dominant sine-mode amplitude decays monotonically."""
    t0 = time.time()
    lay = layout_1d(3, 1.0)
    xs = np.arange(8.0)
    u0 = np.sin(2 * np.pi * xs / 8) + 1.2
    spec = AnsatzSpec(n_qubits=3, layers=8, rotation_axes=("Y",))
    cfg = EvolutionConfig(
        tau=0.05, n_steps=50,
        optimizer=GradientDescent(eta=0.2, max_iters=300, grad_tol=1e-10),
        seed=11)
    traj = run(NavierStokes(nu=1.0), [u0], cfg, lay, spec)
    ref = orc.classical_run(NavierStokes(nu=1.0), [u0], lay, cfg.tau,
                            cfg.n_steps)
    errs = orc.l2_error(traj.fields("u"), ref)
    amps = [abs(np.fft.rfft(f)[1]) for f in traj.fields("u")]
    monotone = all(b <= a * (1 + 1e-9) + 1e-12
                   for a, b in zip(amps, amps[1:]))
    elapsed = time.time() - t0
    report(capsys, len(traj) == 51 and errs.max() <= 1e-2 and monotone
           and elapsed < 600.0,
           "viscous relaxation tracks the classical solver",
           f"max relative L2 {errs.max():.3e} <= 1e-2 over 50 steps, "
           f"sine mode monotone={monotone}, {elapsed:.1f}s < 600s")


def test_exact_flow_profile_is_numerically_stationary(capsys):
    """The closed-form exponential two-component flow has steady-state
    residual <= 1e-8 on a 32x32 grid, shrinking at first order in the
    spacing."""
    ref = orc.NsExponential(A=0.01, B=0.0, c=0.01, nu=1.0, alpha=1.0,
                            beta=1.0)
    r32 = orc.ns_stationarity_residual(ref, 32)
    r64 = orc.ns_stationarity_residual(ref, 64)
    ratio = r32 / r64
    report(capsys, r32 <= 1e-8 and 1.5 < ratio < 2.5,
           "exact flow profile is numerically stationary",
           f"residual {r32:.3e} <= 1e-8 on 32x32, refinement ratio "
           f"{ratio:.2f} in (1.5, 2.5)")


def test_electromagnetic_single_step_matches_curl_update(capsys):
    """Plane-wave magnetic component on 8 points: the minimized one-step cost
    reaches <= 1e-8 and the read-out field matches the classical curl update
    to relative L2 <= 1e-3."""
    lay = layout_1d(3, 1.0)
    xs = np.arange(8.0)
    b0 = np.sin(2 * np.pi * xs / 8)
    e_y = np.cos(2 * np.pi * xs / 8)
    problem = Maxwell(component="z", which="B", ext_fields={"E_y": e_y})
    spec = AnsatzSpec(n_qubits=3, layers=8, rotation_axes=("Y",))
    cfg = EvolutionConfig(
        tau=0.05, n_steps=1,
        optimizer=GradientDescent(eta=0.2, max_iters=400, grad_tol=1e-12),
        seed=3)
    traj = run(problem, [b0], cfg, lay, spec)
    ref = orc.classical_step(problem, [b0], lay, cfg.tau)
    final = traj.records[-1]
    rel = float(np.linalg.norm(final.fields["u"] - ref)
                / np.linalg.norm(ref))
    report(capsys, final.cost <= 1e-8 and rel <= 1e-3,
           "electromagnetic step matches the curl update",
           f"cost {final.cost:.3e} <= 1e-8, relative L2 {rel:.3e} <= 1e-3")


def test_coupled_system_joint_minimization(capsys):
    """Coupled dispersive pair: joint minimization over both components cuts
    the summed cost by >= 1e3 from a perturbed warm start, and a 20-step
    trajectory stays finite."""
    t0 = time.time()
    lay = layout_1d(3, 1.0)
    xs = np.arange(8.0)
    u0 = 0.1 * np.sin(2 * np.pi * xs / 8)
    v0 = 0.1 * np.cos(2 * np.pi * xs / 8) + 1.0
    spec = AnsatzSpec(n_qubits=3, layers=4, rotation_axes=("Y",))

    # one-shot reduction from a perturbed warm start
    from vqpde.evolve import fit_field
    rng = np.random.default_rng(8)
    cost = build_cost(DSW(), [u0, v0], lay, 0.02, spec)
    warm = np.concatenate([fit_field(spec, lay, f, rng) for f in (u0, v0)])
    start = warm + rng.normal(scale=0.3, size=warm.size)
    f_start = cost.evaluate_rows(start[None, :])[0]
    trace = minimize(cost.evaluate_rows, start,
                     GradientDescent(eta=0.15, max_iters=400, grad_tol=1e-12),
                     grad=cost.grad_vec)
    best = cost.rescale(trace.x_best)
    f_end = cost.evaluate_rows(best[None, :])[0]
    reduction = f_start / max(f_end, 1e-300)

    cfg = EvolutionConfig(
        tau=0.02, n_steps=20,
        optimizer=GradientDescent(eta=0.1, max_iters=60, grad_tol=1e-8),
        seed=4)
    traj = run(DSW(), [u0, v0], cfg, lay, spec)
    finite = (len(traj) == 21
              and all(np.all(np.isfinite(r.fields["u"]))
                      and np.all(np.isfinite(r.fields["v"]))
                      for r in traj.records))
    elapsed = time.time() - t0
    report(capsys, reduction >= 1e3 and finite,
           "coupled-system joint minimization",
           f"cost reduction {reduction:.1e} >= 1e3, 20-step trajectory "
           f"finite={finite}, {elapsed:.1f}s")


def test_reruns_are_byte_identical(capsys, tmp_path):
    """Identical config and seed give byte-identical CSV data rows."""
    import yaml
    from vqpde.cli import main as cli_main
    cfg = {
        "problem": {"kind": "couette", "nu": 1.0},
        "grid": {"axes": [{"label": "x", "qubits": 3, "delta": 1.0}]},
        "initial": {"profile": "sinusoid", "amplitude": 1.0, "mode": 1},
        "ansatz": {"layers": 4, "rotations": ["Y"]},
        "evolution": {"tau": 0.05, "n_steps": 3},
        "optimizer": {"method": "gd", "eta": 0.2, "max_iters": 80},
        "seed": 9,
    }
    identical = True
    payloads = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg["output_dir"] = str(out)
        path = tmp_path / f"{tag}.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert cli_main(["run", str(path)]) == 0
        payloads.append(tuple((out / f).read_bytes()
                              for f in ("vqa_000.csv", "oracle.csv",
                                        "errors.csv")))
    identical = payloads[0] == payloads[1]
    report(capsys, identical, "reruns are byte-identical",
           "all CSV payloads identical across two runs"
           if identical else "CSV payloads differ")


def test_optimizer_suite_sanity(capsys):
    """Every optimizer solves the shifted parabola to 1e-4; the covariance
    adaptation method solves 2-D Rosenbrock to f <= 1e-6 within 5000
    evaluations."""
    configs = [
        GradientDescent(eta=0.3, max_iters=300),
        SPSA(a=0.5, max_iters=2000, seed=1),
        NelderMead(max_iters=400),
        CMAES(max_iters=200, seed=2),
        ParticleSwarm(max_iters=200, seed=3),
        DifferentialEvolution(max_iters=150, seed=4),
    ]
    parabola_ok = all(
        abs(minimize(lambda xs: (xs[:, 0] - 2.0) ** 2, np.array([0.0]),
                     cfg).x_best[0] - 2.0) <= 1e-4
        for cfg in configs)

    def rosen(xs):
        return 100 * (xs[:, 1] - xs[:, 0] ** 2) ** 2 + (1 - xs[:, 0]) ** 2

    trace = minimize(rosen, np.array([-1.0, 1.0]),
                     CMAES(sigma0=0.5, max_iters=800, f_tol=1e-8, seed=7))
    rosen_ok = trace.f_best <= 1e-6 and trace.n_evals <= 5000
    report(capsys, parabola_ok and rosen_ok, "optimizer suite sanity",
           f"6/6 methods hit the parabola minimum to 1e-4; Rosenbrock "
           f"f={trace.f_best:.2e} <= 1e-6 in {trace.n_evals} <= 5000 evals")
