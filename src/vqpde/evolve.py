"""Outer hybrid loop: per step, freeze history, minimize the residual cost
over (lam, lam0), commit the winner, read the field back out.

The parameters are one row x = (lam_1, lam0_1, lam_2, lam0_2, ...), one
block per component, from encoding to readout.  History is kept as the
committed readout fields (real grid samples), so each step's cost sees
exactly what the previous optimization produced.  The candidate scale admits
a closed-form optimum at fixed angles (the cost is an exact quadratic in
lam0), which ``JointCost.rescale`` applies before and after each inner
optimization; it can only lower the cost.
"""
from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field as dfield
from functools import cache, partial

import numpy as np

from .ansatz import (
    AnsatzSpec,
    prepare,  # noqa: F401  unused here; perfbench/tracing.py patches it
    prepare_batch,
)
from .costlib import (
    CostTemplate,
    JointCost,
    PartTemplate,
    build_cost,  # noqa: F401  unused here; perfbench/tracing.py patches it
    compile_cost,
    components,
    grid_coordinates,
)
from .opexpr import OpExpr
from .optim import CONFIGS, LevenbergMarquardt, minimize
from .statevec import RegisterLayout, SimulationError, is_real

# largest imaginary part, relative to the amplitudes' norm, that readout
# drops without a warning
IMAG_LEAK_TOL = 1e-6
# largest encoding residual, relative to ||field||^2, that fit_field returns
# without a warning: a relative L2 error of 1e-3
ENCODE_TOL = 1e-6
RESTART_SIGMA = 0.1  # spread of the perturbed restarts around the warm start
ENCODE_FIT = 1e-15  # encoding residual, relative to ||field||^2, that ends it
ENCODE_STARTS = 8  # most Levenberg-Marquardt starts of one encoding
ENCODE_SPREAD = 1.0  # angle spread of the encoding's later starts
FUSED_MAX_AMPS = 2 ** 10  # largest n_params * dim of a fused GD call


class EvolutionError(RuntimeError):
    pass


@dataclass(frozen=True)
class EvolutionConfig:
    tau: float
    n_steps: int
    optimizer: object
    restarts: int = 1
    mode: str = "exact"
    shots: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not (is_real(self.tau) and np.isfinite(self.tau) and self.tau > 0):
            raise EvolutionError("time step must be positive and finite")
        if type(self.optimizer) not in CONFIGS:
            raise EvolutionError(f"unknown optimizer {self.optimizer!r}")
        for name in ("n_steps", "restarts", "seed", "shots"):
            v = getattr(self, name)
            if v is None and name == "shots":
                continue
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise EvolutionError(f"{name} must be an integer")
            object.__setattr__(self, name, int(v))
        if self.n_steps < 0:
            raise EvolutionError("step count must be nonnegative")
        if self.restarts < 1:
            raise EvolutionError("at least one start is required")
        if self.mode not in ("exact", "shots"):
            raise EvolutionError(f"unknown mode {self.mode!r}")
        if self.mode == "shots" and (self.shots is None or self.shots < 1):
            raise EvolutionError("shot mode needs a positive shot count")
        if self.mode != "shots" and self.shots is not None:
            raise EvolutionError("a shot count needs mode 'shots'")
        if self.mode == "shots" and type(self.optimizer) is LevenbergMarquardt:
            # a device does not measure the overlaps between states at
            # different angles that the Jacobian's J^T J holds
            raise EvolutionError("Levenberg-Marquardt needs mode 'exact'")
        if self.seed < 0:
            raise EvolutionError("seed must be nonnegative")


@dataclass(frozen=True)
class StepRecord:
    t: float
    fields: dict  # component name -> real grid samples
    cost: float = 0.0
    x: np.ndarray | None = None  # every component's (lam, lam0) block
    grad_norm: float = 0.0
    n_evals: int = 0
    imag_leak: float = 0.0
    stop: str | None = None  # why the winning start's optimization ended


@dataclass
class Trajectory:
    layout: RegisterLayout
    records: list = dfield(default_factory=list)

    def __len__(self):
        return len(self.records)

    def fields(self, component: str = "u") -> list:
        return [r.fields[component] for r in self.records]


def readout(spec: AnsatzSpec, row):
    """Field of one component's row (lam, lam0): the real part of lam0
    times row 0 of ``prepare_batch(spec, [lam])``, plus the relative
    imaginary leakage diagnostic.  A leak above ``IMAG_LEAK_TOL`` is
    returned with a warning that names it; a non-finite row raises
    ``SimulationError``."""
    row = np.asarray(row, dtype=float)
    if not np.isfinite(row).all():
        raise SimulationError("parameters and scale must be finite")
    amps = row[-1] * prepare_batch(spec, row[None, :-1])[0]
    norm = max(np.linalg.norm(amps), 1e-300)
    leak = float(np.linalg.norm(np.imag(amps)) / norm)
    if leak > IMAG_LEAK_TOL:
        warnings.warn(f"readout dropped an imaginary part of {leak:.3g} of "
                      f"the field's norm (tolerance {IMAG_LEAK_TOL:g})",
                      RuntimeWarning, stacklevel=2)
    return np.real(amps), leak


def step(template, history, x0, cfg: EvolutionConfig, spec: AnsatzSpec,
         rng: np.random.Generator):
    """Minimize the frozen-history cost, bound from the compiled cost that
    ``template()`` returns, from the warm start row x0 plus perturbed
    restarts; returns (best row, diagnostics dict with the winner's stop
    reason)."""
    cost = template().bind(history, spec)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (cost.n_params,):
        raise EvolutionError(f"expected a row of {cost.n_params} parameters, "
                             f"got shape {x0.shape}")
    if not np.isfinite(x0).all():
        raise EvolutionError("warm-start row x0 is not finite")
    x0 = cost.rescale(x0)

    objective, fused = cost.evaluate_rows, None
    if cfg.mode == "shots":
        eval_rng = np.random.default_rng(rng.integers(2 ** 63))
        objective = partial(cost.estimate_rows, shots=cfg.shots, rng=eval_rng)
    elif cost.n_params * cost.b.shape[1] <= FUSED_MAX_AMPS:
        fused = cost.value_and_grad

    starts = [x0]
    for _ in range(cfg.restarts - 1):
        starts.append(x0 + rng.normal(scale=RESTART_SIGMA, size=x0.size))

    best_x, best_f, n_evals = None, np.inf, 0
    for s in starts:
        trace = minimize(objective, s, cfg.optimizer, grad=cost.grad_vec,
                         value_and_grad=fused,
                         residual_jacobian=cost.residual_jacobian)
        n_evals += trace.n_evals
        cand = cost.rescale(trace.x_best)
        f, g = cost.value_and_grad(cand)
        if not np.isfinite(f):
            raise EvolutionError("optimizer diverged to a non-finite cost")
        if f < best_f:
            best_x, best_f, best_g, stop = cand, f, g, trace.stop
    return best_x, {"cost": best_f, "grad_norm": float(np.linalg.norm(best_g)),
                    "n_evals": n_evals, "stop": stop}


def fit_field(spec: AnsatzSpec, layout: RegisterLayout, field,
              rng: np.random.Generator) -> np.ndarray:
    """Variational encoding of a classical field as a row (lam, lam0):
    minimize ||lam0 Psi(lam) - field||^2 (a residual cost with identity
    operator) by Levenberg-Marquardt down to ``ENCODE_FIT`` of the field's
    squared norm, then take the closed-form lam0.  Zero angles are a
    stationary saddle whenever the field has no overlap with the reference
    state, hence the randomized start.  A start that misses is followed by
    others, up to ``ENCODE_STARTS`` in all, drawn from a generator seeded by
    one draw of ``rng``; the best is kept.  ``rng`` gives exactly one
    normal row and one integer.  A residual above ``ENCODE_TOL`` of the
    squared norm is returned with a warning that names it."""
    if 2 ** spec.n_qubits != layout.dim:
        raise SimulationError("ansatz size does not match the grid")
    field = np.asarray(field, dtype=float)
    if field.shape != (layout.dim,):
        raise SimulationError(f"field to encode must be one row of "
                              f"{layout.dim} samples, got shape {field.shape}")
    if not np.isfinite(field).all():
        raise SimulationError("field to encode is not finite")
    if np.linalg.norm(field) == 0.0:
        return np.zeros(spec.parameter_count + 1)
    part = PartTemplate("encode", layout, OpExpr.identity(),
                        (OpExpr.identity(),), ("f",))
    cost = JointCost(CostTemplate("encode", (part,)), spec, {"f": field})
    x0 = rng.normal(scale=0.1, size=cost.n_params)
    x0[-1] = float(np.linalg.norm(field))
    starts = np.random.default_rng(int(rng.integers(2 ** 31)))
    lm = LevenbergMarquardt(f_tol=ENCODE_FIT * cost.offset)
    searches = []
    for _ in range(ENCODE_STARTS):
        searches.append(minimize(cost.evaluate_rows, x0, lm,
                                 residual_jacobian=cost.residual_jacobian))
        if searches[-1].f_best <= lm.f_tol:
            break
        x0 = np.append(starts.normal(scale=ENCODE_SPREAD, size=x0.size - 1),
                       x0[-1])
    x = cost.rescale(min(searches, key=lambda t: t.f_best).x_best)
    rel = cost.evaluate_rows(x[None, :])[0] / cost.offset
    if rel > ENCODE_TOL:
        warnings.warn(f"field encoding missed: residual {rel:.3g} of "
                      f"||field||^2 (tolerance {ENCODE_TOL:g})",
                      RuntimeWarning, stacklevel=2)
    return x


def run(problem, initial_fields, cfg: EvolutionConfig, layout: RegisterLayout,
        spec: AnsatzSpec) -> Trajectory:
    """Full trajectory: n_steps hybrid updates from the given initial data.

    ``initial_fields`` is a list of real grid arrays, one per name in
    ``components(problem)`` for each time level given, oldest level first
    (for the coupled system: the (u, v) pair).  A second-order kind given one
    level starts from rest: that level is repeated.  Each step appends the new
    level to the history and sees its last ``problem.history_depth`` fields.
    Deterministic for a fixed config seed; an ``EvolutionError`` from a step
    propagates, so no partial trajectory is returned.  The run compiles
    the kind's cost once, at its first step, and every step binds from it.
    """
    rng = np.random.default_rng(cfg.seed)
    names = components(problem)
    history = [np.asarray(f, dtype=float) for f in initial_fields]
    if any(f.size != layout.dim for f in history):
        raise SimulationError("initial field does not match the grid")
    if not all(np.isfinite(f).all() for f in history):
        raise SimulationError("initial field is not finite")
    if not history or len(history) % len(names):
        raise EvolutionError(
            f"{problem.name} needs initial data for {', '.join(names)}")
    while len(history) < problem.history_depth:
        history = [f.copy() for f in history[:len(names)]] + history

    traj = Trajectory(layout)
    traj.records.append(StepRecord(
        0.0, {c: f.copy() for c, f in zip(names, history[-len(names):])}))
    x = np.concatenate([fit_field(spec, layout, f, rng)
                        for f in history[-len(names):]])
    template = cache(partial(compile_cost, problem, layout, cfg.tau))
    for k in range(cfg.n_steps):
        x, info = step(template, history[-problem.history_depth:], x, cfg,
                       spec, rng)
        fields, leaks = zip(*(readout(spec, row)
                              for row in np.split(x, len(names))))
        history += fields
        traj.records.append(StepRecord(
            (k + 1) * cfg.tau, dict(zip(names, fields)), info["cost"], x,
            info["grad_norm"], info["n_evals"], max(leaks), info["stop"]))
    return traj


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def trajectory_rows(traj: Trajectory) -> list:
    """Flat CSV payload: one row per (step, component, grid point)."""
    coords = grid_coordinates(traj.layout)
    labels = traj.layout.axis_labels()
    rows = []
    for rec in traj.records:
        for comp in sorted(rec.fields):
            f = rec.fields[comp]
            for i in range(traj.layout.dim):
                row = [f"{rec.t:.17g}", comp, str(i)]
                row += [f"{coords[ax][i]:.17g}" for ax in labels]
                row += [f"{f[i]:.17g}", f"{rec.cost:.17g}",
                        f"{rec.grad_norm:.17g}"]
                rows.append(row)
    return rows


def write_trajectory_csv(traj: Trajectory, path) -> None:
    labels = traj.layout.axis_labels()
    header = ["t", "component", "index", *labels, "value", "cost", "grad_norm"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(trajectory_rows(traj))


def fields_to_trajectory(fields, layout: RegisterLayout, tau: float,
                         component: str = "u") -> Trajectory:
    """Wrap a plain field sequence (e.g. the classical reference) in the same
    trajectory shape for shared serialization."""
    traj = Trajectory(layout)
    for k, f in enumerate(fields):
        traj.records.append(StepRecord(
            k * tau, {component: np.asarray(f, dtype=float)}))
    return traj
