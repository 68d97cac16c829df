"""Classical optimizers with a uniform minimize() interface.

The objective takes rows: X of shape (B, n) in, B values out.  Population
methods pass a whole population in one call, and each SPSA iteration is one
call on the current point and its +/- pair; single points pass one row.
All stochastic methods draw from a seeded numpy Generator so runs are
bit-reproducible.  A method yields (x, value) per iteration from the start
point on and returns why it stopped; ``minimize`` alone counts calls and
records the best-so-far values, so a trace is non-increasing.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, isfinite, isnan, sqrt

import numpy as np

from .statevec import is_real

F_TOL_DEFAULT = 1e-10
GRAD_TOL_DEFAULT = 1e-8
# Levenberg-Marquardt's stops: a relative descent of r.r, a relative step
# size, and a damping relative to the start's largest diag J^T J
LM_STALL = 1e-6
LM_STEP_TOL = 1e-14
LM_MU_CAP = 1e16
# SPSA iterations whose +/-1 directions one generator call draws
SPSA_CHUNK = 64


class OptimizationError(RuntimeError):
    pass


def _check(cfg, counts=None, positive=(), nonneg=(), tols=()) -> None:
    """Reject a config whose named fields are out of range.  ``counts`` maps
    an integer field to its least value; ``positive`` fields (step sizes and
    scales) are positive and finite, ``nonneg`` fields finite and >= 0, and
    ``tols`` (the optional tolerances) None or >= 0.  A bool is not a number
    here."""
    for name, least in (counts or {}).items():
        v = getattr(cfg, name)
        if isinstance(v, bool) or not (isinstance(v, (int, np.integer))
                                       and v >= least):
            raise OptimizationError(f"{name} must be an integer >= {least}")
    for name in positive:
        v = getattr(cfg, name)
        if not (is_real(v) and np.isfinite(v) and v > 0):
            raise OptimizationError(f"{name} must be positive and finite")
    for name in nonneg:
        v = getattr(cfg, name)
        if not (is_real(v) and np.isfinite(v) and v >= 0):
            raise OptimizationError(f"{name} must be non-negative and finite")
    for name in tols:
        v = getattr(cfg, name)
        if v is not None and not (is_real(v) and v >= 0):
            raise OptimizationError(f"{name} must be None or non-negative")


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradientDescent:
    eta: float = 0.1
    max_iters: int = 200
    grad_tol: float = GRAD_TOL_DEFAULT
    # absolute stop target, meaningful for objectives bounded below by zero
    f_tol: float | None = None

    def __post_init__(self):
        _check(self, {"max_iters": 0}, ("eta",), ("grad_tol",), ("f_tol",))


@dataclass(frozen=True)
class LevenbergMarquardt:
    """Damped Gauss-Newton on a residual; ``max_iters`` counts candidates,
    each one call of ``residual_jacobian``."""
    mu0: float = 1e-3  # start damping, relative to the largest diag J^T J
    max_iters: int = 100
    # absolute stop target on r.r
    f_tol: float | None = None

    def __post_init__(self):
        _check(self, {"max_iters": 0}, ("mu0",), tols=("f_tol",))


@dataclass(frozen=True)
class SPSA:
    a: float = 0.2
    c: float = 0.1
    alpha: float = 0.602
    gamma: float = 0.101
    stability: float = 10.0
    max_iters: int = 500
    seed: int = 0

    def __post_init__(self):
        _check(self, {"max_iters": 0, "seed": 0}, ("a", "c"),
               ("alpha", "gamma", "stability"))


@dataclass(frozen=True)
class NelderMead:
    scale: float = 0.5
    max_iters: int = 1000
    f_tol: float = F_TOL_DEFAULT

    def __post_init__(self):
        _check(self, {"max_iters": 0}, ("scale",), ("f_tol",))


@dataclass(frozen=True)
class CMAES:
    sigma0: float = 0.5
    popsize: int | None = None
    max_iters: int = 500
    # absolute stop target, meaningful for objectives bounded below by zero
    f_tol: float | None = None
    seed: int = 0

    def __post_init__(self):
        _check(self, {"max_iters": 0, "seed": 0}, ("sigma0",),
               tols=("f_tol",))
        if self.popsize is not None:
            _check(self, {"popsize": 2})


@dataclass(frozen=True)
class ParticleSwarm:
    particles: int = 20
    inertia: float = 0.7
    cognitive: float = 1.5
    social: float = 1.5
    max_iters: int = 300
    seed: int = 0

    def __post_init__(self):
        _check(self, {"particles": 1, "max_iters": 0, "seed": 0},
               nonneg=("inertia", "cognitive", "social"))


@dataclass(frozen=True)
class DifferentialEvolution:
    population: int = 20
    f: float = 0.7
    cr: float = 0.9
    max_iters: int = 300
    seed: int = 0

    def __post_init__(self):
        _check(self, {"population": 4, "max_iters": 0, "seed": 0}, ("f",))
        if not (is_real(self.cr) and 0.0 <= self.cr <= 1.0):
            raise OptimizationError("cr must lie in [0, 1]")


@dataclass
class OptimizationTrace:
    """Best-so-far values per iteration, the row count and why the method
    stopped: "converged", "max-iters" (the default: out of iterations),
    "no-descent" (gradient descent's backtracking or Levenberg-Marquardt's
    damping ran out) or "non-finite" (a non-finite SPSA +/- estimate,
    gradient-descent gradient or Levenberg-Marquardt step)."""
    best_values: list = field(default_factory=list)
    n_evals: int = 0
    x_best: np.ndarray | None = None
    f_best: float = np.inf
    stop: str = "max-iters"

    @property
    def converged(self) -> bool:
        return self.stop == "converged"

    def record(self, x, f) -> None:
        if f < self.f_best:
            self.f_best = float(f)
            self.x_best = np.array(x, dtype=float)
        self.best_values.append(self.f_best)


def _tally(vals, n: int, trace: OptimizationTrace) -> np.ndarray:
    """Check and count the n values of one objective call."""
    vals = np.asarray(vals, dtype=float)
    if vals.shape != (n,):
        raise OptimizationError("objective must return one value per row")
    _count(vals, n, trace)
    return np.fmin(vals, np.inf)  # NaN -> +inf; fmin ignores a NaN


def _count(vals, n: int, trace: OptimizationTrace) -> None:
    """Count n values; the first value of the first call must be finite."""
    if trace.n_evals == 0 and not isfinite(vals[0]):
        raise OptimizationError("objective is not finite at the start point")
    trace.n_evals += n


def _counted(objective, trace: OptimizationTrace):
    """``f(X)``: the objective's B values at the rows X (B, n), each row one
    count in ``n_evals``; ``f(x)`` on one point returns one float."""
    def f(x):
        x = np.asarray(x, dtype=float)
        rows = x if x.ndim == 2 else x[None, :]
        vals = _tally(objective(rows), len(rows), trace)
        return vals if x.ndim == 2 else float(vals[0])
    return f


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

def finite_diff_grad(objective, x, h: float = 1e-5) -> np.ndarray:
    """Central differences per coordinate, all 2n points in one call of the
    rows objective (testing oracle)."""
    if h <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=float)
    steps = np.eye(x.size) * h
    vals = np.asarray(objective(np.vstack([x + steps, x - steps])), dtype=float)
    return (vals[:x.size] - vals[x.size:]) / (2 * h)


# ---------------------------------------------------------------------------
# Methods
# ---------------------------------------------------------------------------

def _gradient_descent(fg, x, cfg: GradientDescent, grad):
    """``fg(x)`` is (value, gradient or None for ``grad`` to take later)."""
    fx, g = fg(x)
    yield x, fx
    eta = cfg.eta
    for _ in range(cfg.max_iters):
        g = np.asarray(grad(x) if g is None else g, dtype=float)
        gn = sqrt(g.dot(g))  # np.linalg.norm's sum, without its checks
        if not (isfinite(gn) and gn > cfg.grad_tol):
            return "converged" if gn <= cfg.grad_tol else "non-finite"
        # backtracking: shrink the step until the value decreases
        while eta > 1e-14:
            cand = x - eta * g
            fc, gc = fg(cand)
            if fc < fx:
                x, fx, g = cand, fc, gc
                eta = min(eta * 1.3, cfg.eta * 100)
                break
            eta *= 0.5
        yield x, fx
        if eta <= 1e-14:  # ran out: an accepted step leaves eta above this
            return "no-descent"
        if cfg.f_tol is not None and fx <= cfg.f_tol:
            return "converged"


def _levenberg_marquardt(rj, x, cfg: LevenbergMarquardt):
    """``rj(x)`` is one call's (r, J, r.r); x - (J^T J + mu I)^-1 J^T r is
    kept when r.r falls, and mu shrinks 3x, else mu grows 4x.
    Converged at r.r <= ``f_tol``, at a descent of at most ``LM_STALL`` of
    r.r, or when the step proposed at a new point is at most
    ``LM_STEP_TOL`` of |x| (the residual is at rounding level); no descent
    once mu passes ``LM_MU_CAP`` times the start's largest diag J^T J."""
    r, jac, fx = rj(x)
    yield x, fx
    a, g = jac.T @ jac, jac.T @ r
    scale = max(float(a.diagonal().max()), 1e-300)
    mu, eye, fresh = cfg.mu0 * scale, np.eye(x.size), True
    for _ in range(cfg.max_iters):
        if cfg.f_tol is not None and fx <= cfg.f_tol:
            return "converged"
        delta = np.linalg.solve(a + mu * eye, g)
        step = sqrt(delta.dot(delta))
        if not isfinite(step):
            return "non-finite"
        if fresh and step <= LM_STEP_TOL * sqrt(x.dot(x)):
            return "converged"
        cand = x - delta
        rc, jc, fc = rj(cand)
        fresh = fc < fx  # NaN: rejected
        if fresh:
            stalled = fx - fc <= LM_STALL * fx
            x, fx, a, g = cand, fc, jc.T @ jc, jc.T @ rc
            mu /= 3.0
        else:
            mu *= 4.0
        yield x, fx
        if fresh and stalled:
            return "converged"
        if mu > LM_MU_CAP * scale:
            return "no-descent"


def _spsa(f, x, cfg: SPSA):
    """One call per iteration on the rows [x_k, x_k + c_k d, x_k - c_k d],
    then x_K alone: the rows, and so the draws of a shot objective, come in
    the order of a loop that evaluates each new point by itself.  The
    directions d are drawn SPSA_CHUNK iterations per generator call, the
    stream of one call per iteration, since each +/-1 entry takes one
    32-bit word of the generator's stream either way."""
    rng = np.random.default_rng(cfg.seed)
    for k in range(cfg.max_iters):
        if k % SPSA_CHUNK == 0:
            deltas = rng.integers(0, 2, size=(min(
                SPSA_CHUNK, cfg.max_iters - k), x.size)) * 2.0 - 1.0
        delta = deltas[k % SPSA_CHUNK]
        ak = cfg.a / (k + 1 + cfg.stability) ** cfg.alpha
        ck = cfg.c / (k + 1) ** cfg.gamma
        step = ck * delta
        fx, fp, fm = f(np.array([x, x + step, x - step])).tolist()
        yield x, fx
        if not (isfinite(fp) and isfinite(fm)):
            return "non-finite"  # no gradient estimate to step along
        gk = (fp - fm) / (2 * ck) / delta
        x = x - ak * gk
    yield x, f(x)


def _nelder_mead(f, x0, cfg: NelderMead):
    simplex = np.tile(x0, (x0.size + 1, 1))
    i = np.arange(x0.size)
    simplex[i + 1, i] += np.where(x0 == 0, cfg.scale,
                                  0.1 * cfg.scale * (1 + np.abs(x0)))
    values = f(simplex)
    yield simplex[np.argmin(values)], values.min()
    for _ in range(cfg.max_iters):
        order = np.argsort(values)
        simplex, values = simplex[order], values[order]
        if values[-1] - values[0] < cfg.f_tol:
            return "converged"
        centroid = np.mean(simplex[:-1], axis=0)
        xr = centroid + (centroid - simplex[-1])
        fr = f(xr)
        if values[0] <= fr < values[-2]:
            simplex[-1], values[-1] = xr, fr
        elif fr < values[0]:
            xe = centroid + 2.0 * (centroid - simplex[-1])
            fe = f(xe)
            if fe < fr:
                simplex[-1], values[-1] = xe, fe
            else:
                simplex[-1], values[-1] = xr, fr
        else:
            xc = centroid + 0.5 * (simplex[-1] - centroid)
            fc = f(xc)
            if fc < values[-1]:
                simplex[-1], values[-1] = xc, fc
            else:
                simplex[1:] = simplex[0] + 0.5 * (simplex[1:] - simplex[0])
                values[1:] = f(simplex[1:])
        yield simplex[np.argmin(values)], values.min()


def _cmaes(f, x0, cfg: CMAES):
    """Covariance matrix adaptation with cumulative step-size control."""
    rng = np.random.default_rng(cfg.seed)
    n = x0.size
    lam = cfg.popsize if cfg.popsize is not None else 4 + int(3 * np.log(n))
    mu = lam // 2
    w = np.log(lam / 2 + 0.5) - np.log(np.arange(1, mu + 1))
    w /= w.sum()
    mueff = 1.0 / np.sum(w ** 2)
    cc = (4 + mueff / n) / (n + 4 + 2 * mueff / n)
    cs = (mueff + 2) / (n + mueff + 5)
    c1 = 2 / ((n + 1.3) ** 2 + mueff)
    cmu = min(1 - c1, 2 * (mueff - 2 + 1 / mueff) / ((n + 2) ** 2 + mueff))
    damps = 1 + 2 * max(0.0, sqrt((mueff - 1) / (n + 1)) - 1) + cs
    chi_n = sqrt(n) * (1 - 1.0 / (4 * n) + 1.0 / (21 * n * n))

    mean = x0
    sigma = cfg.sigma0
    pc = np.zeros(n)
    ps = np.zeros(n)
    cov = np.eye(n)
    yield mean, f(mean)
    for g in range(cfg.max_iters):
        vals, diag = np.linalg.eigh(cov)
        vals = np.maximum(vals, 1e-20)
        sqrt_c = (diag * np.sqrt(vals)) @ diag.T
        inv_sqrt_c = (diag * (1.0 / np.sqrt(vals))) @ diag.T
        z = rng.standard_normal((lam, n))
        xs = mean + sigma * z @ sqrt_c.T
        fs = f(xs)
        order = np.argsort(fs)
        yield xs[order[0]], fs[order[0]]
        if cfg.f_tol is not None and fs[order[0]] <= cfg.f_tol:
            return "converged"
        old_mean = mean
        sel = xs[order[:mu]]
        mean = w @ sel
        y = (mean - old_mean) / sigma
        ps = (1 - cs) * ps + sqrt(cs * (2 - cs) * mueff) * inv_sqrt_c @ y
        ps_norm = sqrt(ps.dot(ps))  # np.linalg.norm's sum, without its checks
        hsig = (ps_norm
                / sqrt(1 - (1 - cs) ** (2 * (g + 1))) / chi_n) < 1.4 + 2 / (n + 1)
        pc = (1 - cc) * pc + hsig * sqrt(cc * (2 - cc) * mueff) * y
        artmp = (sel - old_mean) / sigma
        cov = ((1 - c1 - cmu) * cov
               + c1 * (np.outer(pc, pc) + (not hsig) * cc * (2 - cc) * cov)
               + (cmu * artmp.T * w) @ artmp)
        cov = (cov + cov.T) / 2
        sigma *= np.exp((cs / damps) * (ps_norm / chi_n - 1))
        if sigma < 1e-16:
            return "converged"


def _particle_swarm(f, x0, cfg: ParticleSwarm):
    rng = np.random.default_rng(cfg.seed)
    n = x0.size
    pos = x0 + rng.normal(scale=1.0, size=(cfg.particles, n))
    pos[0] = x0
    vel = np.zeros_like(pos)
    pvals = f(pos)
    pbest = pos.copy()
    gi = int(np.argmin(pvals))
    yield pbest[gi], pvals[gi]
    gbest, gval = pbest[gi].copy(), pvals[gi]
    for _ in range(cfg.max_iters):
        r1 = rng.random((cfg.particles, n))
        r2 = rng.random((cfg.particles, n))
        vel = (cfg.inertia * vel
               + cfg.cognitive * r1 * (pbest - pos)
               + cfg.social * r2 * (gbest - pos))
        pos = pos + vel
        vals = f(pos)
        better = vals < pvals
        pbest[better] = pos[better]
        pvals[better] = vals[better]
        gi = int(np.argmin(pvals))
        if pvals[gi] < gval:
            gbest, gval = pbest[gi].copy(), pvals[gi]
        yield gbest, gval


def _differential_evolution(f, x0, cfg: DifferentialEvolution):
    rng = np.random.default_rng(cfg.seed)
    n = x0.size
    np_ = cfg.population
    pop = x0 + rng.normal(scale=1.0, size=(np_, n))
    pop[0] = x0
    vals = f(pop)
    bi = int(np.argmin(vals))
    yield pop[bi], vals[bi]
    for _ in range(cfg.max_iters):
        # one trial at a time: an accepted trial changes pop for the next
        for i in range(np_):
            idx = [j for j in range(np_) if j != i]
            a, b, c = rng.choice(idx, size=3, replace=False)
            mutant = pop[a] + cfg.f * (pop[b] - pop[c])
            cross = rng.random(n) < cfg.cr
            cross[rng.integers(n)] = True
            trial = np.where(cross, mutant, pop[i])
            ft = f(trial)
            if ft <= vals[i]:
                pop[i], vals[i] = trial, ft
        bi = int(np.argmin(vals))
        yield pop[bi], vals[bi]


_DISPATCH = {
    SPSA: _spsa,
    NelderMead: _nelder_mead,
    CMAES: _cmaes,
    ParticleSwarm: _particle_swarm,
    DifferentialEvolution: _differential_evolution,
}
# every config class ``minimize`` runs
CONFIGS = (GradientDescent, LevenbergMarquardt, *_DISPATCH)


def minimize(objective, x0, config, grad=None, value_and_grad=None,
             residual_jacobian=None) -> OptimizationTrace:
    """Run the configured method on the rows objective (X of shape (B, n)
    to B values); stochastic methods are seeded and reproducible.  Gradient
    descent calls ``value_and_grad(x)`` instead when given, else ``grad``
    (finite differences when absent) at accepted points.  Levenberg-
    Marquardt calls only ``residual_jacobian(x)``, (r, J, r.r) with the
    objective r.r, which it needs.  Owns its x0 copy; counts and records
    each step."""
    x0 = np.array(x0, dtype=float)
    if x0.ndim != 1 or x0.size == 0:
        raise OptimizationError(f"x0 must be a non-empty 1-D row, got shape "
                                f"{x0.shape}")
    kind = type(config)
    if kind not in CONFIGS:
        raise OptimizationError(f"unknown optimizer config {config!r}")
    trace = OptimizationTrace()
    f = _counted(objective, trace)
    lm = kind is LevenbergMarquardt
    if lm:
        if residual_jacobian is None:
            raise OptimizationError("Levenberg-Marquardt needs a residual "
                                    "and its Jacobian")
        steps = _levenberg_marquardt(residual_jacobian, x0, config)
    elif kind is GradientDescent:
        def fg(x):
            if value_and_grad is None:
                return f(x), None
            v, g = value_and_grad(x)
            _count((v,), 1, trace)  # one value: _tally without the arrays
            return inf if isnan(v) else float(v), g
        steps = _gradient_descent(fg, x0, config, grad or (
            lambda x: finite_diff_grad(objective, x)))
    else:
        steps = _DISPATCH[kind](f, x0, config)
    while True:
        try:
            x, fx = next(steps)
        except StopIteration as end:
            trace.stop = end.value or trace.stop
            return trace
        if lm:  # one residual_jacobian call per step it yields
            _count((fx,), 1, trace)
        trace.record(x, fx)
