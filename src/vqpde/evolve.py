"""Outer hybrid loop: per step, freeze history, minimize the residual cost
over (lam, lam0), commit the winner, read the field back out.

History is kept as the committed readout fields (real grid samples), so each
step's cost sees exactly what the previous optimization produced.  The
candidate scale admits a closed-form optimum at fixed angles (the cost is an
exact quadratic in lam0), which is applied before and after each inner
optimization; it can only lower the cost.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field as dfield

import numpy as np

from .ansatz import AnsatzSpec, VariationalState, prepare
from .costlib import (
    CostFunction,
    Source,
    build_cost,
    components,
    grid_coordinates,
)
from .opexpr import OpExpr
from .optim import CMAES, minimize
from .statevec import RegisterLayout, SimulationError

IMAG_LEAK_TOL = 1e-6
RESTART_SIGMA = 0.1  # spread of the perturbed restarts around the warm start


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
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise EvolutionError("time step must be positive and finite")
        if self.n_steps < 0:
            raise EvolutionError("step count must be nonnegative")
        if self.restarts < 1:
            raise EvolutionError("at least one start is required")
        if self.mode not in ("exact", "shots"):
            raise EvolutionError(f"unknown mode {self.mode!r}")
        if self.mode == "shots" and (self.shots is None or self.shots < 1):
            raise EvolutionError("shot mode needs a positive shot count")
        if self.seed < 0:
            raise EvolutionError("seed must be nonnegative")


@dataclass(frozen=True)
class StepRecord:
    t: float
    fields: dict  # component name -> real grid samples
    cost: float = 0.0
    lam: np.ndarray | None = None  # first component's angles and scale
    lam0: float | None = None
    grad_norm: float = 0.0
    n_evals: int = 0
    imag_leak: float = 0.0


@dataclass
class Trajectory:
    layout: RegisterLayout
    records: list = dfield(default_factory=list)

    def __len__(self):
        return len(self.records)

    def fields(self, component: str = "u") -> list:
        return [r.fields[component] for r in self.records]

    def costs(self) -> list:
        return [r.cost for r in self.records]


def readout(vstate: VariationalState, layout: RegisterLayout | None = None):
    """Scaled real part of the prepared amplitudes, plus the relative
    imaginary leakage diagnostic."""
    amps = vstate.lam0 * prepare(vstate.spec, vstate.lam).amplitudes
    norm = max(np.linalg.norm(amps), 1e-300)
    leak = float(np.linalg.norm(np.imag(amps)) / norm)
    return np.real(amps), leak


def _apply_best_scale(cost, x: np.ndarray) -> np.ndarray:
    """Closed-form lam0 update of every part at fixed angles (exact quadratic
    minimum)."""
    x = np.array(x, dtype=float)
    k = 0
    for p in cost.parts:
        k += p.n_params
        x[k - 1] = p.best_scale(x[k - p.n_params:k - 1])
    return x


def step(problem, history, warm, cfg: EvolutionConfig,
         layout: RegisterLayout, rng: np.random.Generator):
    """Minimize the frozen-history cost from the warm start (one variational
    state per component) plus perturbed restarts; returns (best parameter
    vector, diagnostics dict)."""
    cost = build_cost(problem, history, layout, cfg.tau, warm[0].spec)
    x0 = np.concatenate([np.append(w.lam, w.lam0) for w in warm])
    x0 = _apply_best_scale(cost, x0)

    if cfg.mode == "shots":
        eval_rng = np.random.default_rng(rng.integers(2 ** 63))

        # row by row, in order, so the shot draws follow the rows
        def objective(xs):
            return np.array([sum(
                p.evaluate_terms(lam, lam0, shots=cfg.shots, rng=eval_rng)
                for p, (lam, lam0) in zip(cost.parts, cost.split(x)))
                for x in xs])
    else:
        objective = cost.evaluate_rows

    starts = [x0]
    for _ in range(cfg.restarts - 1):
        starts.append(x0 + rng.normal(scale=RESTART_SIGMA, size=x0.size))

    best_x, best_f, n_evals = None, np.inf, 0
    for s in starts:
        trace = minimize(objective, s, cfg.optimizer, grad=cost.grad_vec)
        n_evals += trace.n_evals
        cand = _apply_best_scale(cost, trace.x_best)
        f = cost.evaluate_vec(cand)
        if not np.isfinite(f):
            raise EvolutionError("optimizer diverged to a non-finite cost")
        if f < best_f:
            best_x, best_f = cand, f
    grad_norm = float(np.linalg.norm(cost.grad_vec(best_x)))
    return best_x, {"cost": best_f, "grad_norm": grad_norm, "n_evals": n_evals}


def fit_field(spec: AnsatzSpec, layout: RegisterLayout, field,
              rng: np.random.Generator) -> VariationalState:
    """Variational encoding of a classical field: minimize
    ||lam0 Psi(lam) - field||^2 (a residual cost with identity operator) by
    CMA-ES, down to 1e-15 of the field's squared norm.  Zero angles are a
    stationary saddle whenever the field has no overlap with the reference
    state, hence the randomized start."""
    field = np.asarray(field, dtype=float)
    if np.linalg.norm(field) == 0.0:
        return VariationalState(spec, np.zeros(spec.parameter_count), 0.0)
    cost = CostFunction("encode", layout, spec, OpExpr.identity(),
                        (Source(OpExpr.identity(), field, "f"),), {})
    x0 = rng.normal(scale=0.1, size=spec.parameter_count + 1)
    x0[-1] = float(np.linalg.norm(field))
    search = minimize(cost.evaluate_rows, x0,
                      CMAES(sigma0=0.3, max_iters=400,
                            f_tol=1e-15 * cost.offset,
                            seed=int(rng.integers(2 ** 31))))
    lam = search.x_best[:-1]
    return VariationalState(spec, lam, cost.best_scale(lam))


def run(problem, initial_fields, cfg: EvolutionConfig, layout: RegisterLayout,
        spec: AnsatzSpec) -> Trajectory:
    """Full trajectory: n_steps hybrid updates from the given initial data.

    ``initial_fields`` is a list of real grid arrays, one per name in
    ``components(problem)`` for each time level given, oldest level first
    (for the coupled system: the (u, v) pair).  A second-order kind given one
    level starts from rest: that level is repeated.  Each step appends the new
    level to the history and sees its last ``problem.history_depth`` fields.
    Deterministic for a fixed config seed; an ``EvolutionError`` from a step
    propagates, so no partial trajectory is returned.
    """
    rng = np.random.default_rng(cfg.seed)
    names = components(problem)
    history = [np.asarray(f, dtype=float) for f in initial_fields]
    if any(f.size != layout.dim for f in history):
        raise SimulationError("initial field does not match the grid")
    if not history or len(history) % len(names):
        raise EvolutionError(
            f"{problem.name} needs initial data for {', '.join(names)}")
    while len(history) < problem.history_depth:
        history = [f.copy() for f in history[:len(names)]] + history

    traj = Trajectory(layout)
    traj.records.append(StepRecord(
        0.0, {c: f.copy() for c, f in zip(names, history[-len(names):])}))
    warm = [fit_field(spec, layout, f, rng) for f in history[-len(names):]]
    for k in range(cfg.n_steps):
        x, info = step(problem, history[-problem.history_depth:], warm, cfg,
                       layout, rng)
        warm = [VariationalState(spec, p[:-1], p[-1])
                for p in np.split(x, len(names))]
        fields, leaks = zip(*(readout(w) for w in warm))
        history += fields
        traj.records.append(StepRecord(
            (k + 1) * cfg.tau, dict(zip(names, fields)), info["cost"],
            warm[0].lam, warm[0].lam0, info["grad_norm"],
            info["n_evals"], max(leaks)))
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
