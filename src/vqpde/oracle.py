"""Classical reference solvers and exact solutions.

Everything here is dense numpy built straight from circulant stencil matrices
(np.roll on identity), deliberately sharing no code with the operator
algebra: agreement between the two paths is what the tests certify.  The
discretization is identical — periodic boundaries, forward first
differences, symmetric second differences.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import cosh, exp, pi, sin, tanh

import numpy as np

from .costlib import (
    Boussinesq,
    CamassaHolm,
    DSW,
    Einstein,
    HunterSaxton,
    LinTsien,
    Maxwell,
    NavierStokes,
    ProblemError,
    components,
)
from .statevec import RegisterLayout

EPS = 1e-12


# ---------------------------------------------------------------------------
# Dense stencil matrices
# ---------------------------------------------------------------------------

def shift_matrix(n_points: int) -> np.ndarray:
    """Cyclic increment: column j maps to row (j+1) mod N."""
    return np.roll(np.eye(n_points), 1, axis=0)


def axis_operator(layout: RegisterLayout, axis: str, local: np.ndarray) -> np.ndarray:
    """Embed a per-axis matrix into the full grid (first axis varies fastest)."""
    offset, n_ax, _ = layout.axis_info(axis)
    low = 2 ** offset
    high = layout.dim // (low * 2 ** n_ax)
    return np.kron(np.kron(np.eye(high), local), np.eye(low))


def grad_matrix(layout: RegisterLayout, axis: str) -> np.ndarray:
    n = layout.axis_points(axis)
    dx = layout.spacing(axis)
    return axis_operator(layout, axis, (shift_matrix(n) - np.eye(n)) / dx)


def laplacian_matrix(layout: RegisterLayout, axis: str) -> np.ndarray:
    n = layout.axis_points(axis)
    dx = layout.spacing(axis)
    s = shift_matrix(n)
    return axis_operator(layout, axis, (s.T - 2.0 * np.eye(n) + s) / dx ** 2)


def _lap_full(layout: RegisterLayout) -> np.ndarray:
    out = np.zeros((layout.dim, layout.dim))
    for ax in layout.axis_labels():
        out += laplacian_matrix(layout, ax)
    return out


def _solve(m: np.ndarray, b: np.ndarray, keep_kernel_of: np.ndarray | None = None):
    """Dense solve; singular systems fall back to least squares, retaining
    the given field's null-space component (typically the axis mean, which
    the residual cannot see).  A system counts as singular when its 1-norm
    condition number reaches 1 / (n eps): unlike the determinant, this does
    not depend on the scale of m, and unlike ``matrix_rank`` it needs only
    the LU factorization that ``solve`` uses, not an SVD."""
    n = m.shape[0]
    if np.linalg.cond(m, 1) < 1.0 / (n * np.finfo(float).eps):
        return np.linalg.solve(m, b)
    pinv = np.linalg.pinv(m)
    c = pinv @ b
    if keep_kernel_of is not None:
        kernel_proj = np.eye(n) - pinv @ m
        c = c + kernel_proj @ keep_kernel_of
    return c


# ---------------------------------------------------------------------------
# Explicit-Euler reference step
# ---------------------------------------------------------------------------

def _ns_step(problem: NavierStokes, fields, layout, tau):
    u = fields[-1]
    b = u.copy()
    if problem.pressure is not None and layout.has_axis(problem.component):
        g = grad_matrix(layout, problem.component)
        b -= tau * u * (g @ u)
    b += problem.nu * tau * (_lap_full(layout) @ u)
    if problem.pressure is not None:
        kind, val = problem.pressure
        if kind == "uniform":
            b -= (tau / problem.rho) * float(val) * np.ones(layout.dim)
        else:
            b -= (tau / problem.rho) * (
                grad_matrix(layout, problem.component) @ np.asarray(val, dtype=float))
    return b


def _einstein_step(problem: Einstein, fields, layout, tau):
    g = fields[-1]
    ax_i, ax_n = problem.axes
    n = layout.axis_points(ax_i)
    m = axis_operator(layout, ax_i, shift_matrix(n))
    k = 8.0 * pi * problem.G * layout.spacing(ax_i) * layout.spacing(ax_n) \
        / problem.c ** 4
    t_field = problem.tensor.samples(layout, ax_i)
    return _solve(m, m @ g + k * t_field)


_CYCLIC = {"x": ("y", "z"), "y": ("z", "x"), "z": ("x", "y")}


def _maxwell_step(problem: Maxwell, fields, layout, tau):
    f = fields[-1].copy()
    j, k = _CYCLIC[problem.component]
    ext = problem.ext_fields or {}
    other = "E" if problem.which == "B" else "B"
    sign = -tau if problem.which == "B" else tau / (problem.mu0 * problem.eps0)
    for d_ax, comp_ax, s in ((j, k, 1.0), (k, j, -1.0)):
        key = f"{other}_{comp_ax}"
        if key in ext and layout.has_axis(d_ax):
            f += sign * s * (grad_matrix(layout, d_ax)
                             @ np.asarray(ext[key], dtype=float))
    return f


def _boussinesq_step(problem: Boussinesq, fields, layout, tau):
    u, u_prev = fields[-1], fields[-2]
    ax = layout.axes[0][0]
    lap = laplacian_matrix(layout, ax)
    grad = grad_matrix(layout, ax)
    m = np.eye(layout.dim) - problem.beta * lap
    b = m @ (2.0 * u - u_prev) + tau * tau * (
        lap @ u + 2.0 * problem.alpha * (grad @ (u * (grad @ u))))
    return _solve(m, b)


def _lin_tsien_step(problem: LinTsien, fields, layout, tau):
    u = fields[-1]
    gx = grad_matrix(layout, "x")
    lx = laplacian_matrix(layout, "x")
    ly = laplacian_matrix(layout, "y")
    ux = gx @ u
    b = gx @ u + 0.5 * tau * (ly @ u - ux * (lx @ u))
    return _solve(gx, b, keep_kernel_of=u)


def _camassa_holm_step(problem: CamassaHolm, fields, layout, tau):
    u, u_prev = fields[-1], fields[-2]
    ax = layout.axes[0][0]
    grad = grad_matrix(layout, ax)
    lap = laplacian_matrix(layout, ax)
    m = np.eye(layout.dim) - 0.5 * lap
    ux = grad @ u
    b = u - 0.5 * (lap @ u_prev) + tau * (
        2.0 * ux * (lap @ u)
        + u * (grad @ (lap @ u))
        - (3.0 * u + 2.0 * problem.kappa) * ux)
    return _solve(m, b)


def _dsw_step(problem: DSW, fields, layout, tau):
    u, v = fields[-2], fields[-1]
    ax = layout.axes[0][0]
    grad = grad_matrix(layout, ax)
    lap = laplacian_matrix(layout, ax)
    b_u = u - 3.0 * tau * v * (grad @ v)
    m_v = np.eye(layout.dim) - 2.0 * tau * (grad @ lap)
    b_v = v + tau * (grad @ u) + 2.0 * tau * u * (grad @ v)
    return b_u, _solve(m_v, b_v)


def _hunter_saxton_step(problem: HunterSaxton, fields, layout, tau):
    u = fields[-1]
    ax = layout.axes[0][0]
    grad = grad_matrix(layout, ax)
    ux = grad @ u
    b = ux + tau * (0.5 * ux * ux - grad @ (u * ux))
    return _solve(grad, b, keep_kernel_of=u)


_STEPPERS = {
    NavierStokes: _ns_step,
    Einstein: _einstein_step,
    Maxwell: _maxwell_step,
    Boussinesq: _boussinesq_step,
    LinTsien: _lin_tsien_step,
    CamassaHolm: _camassa_holm_step,
    DSW: _dsw_step,
    HunterSaxton: _hunter_saxton_step,
}


def classical_step(problem, fields, layout: RegisterLayout, tau: float):
    """One explicit-Euler reference update (implicit terms solved densely).

    ``fields`` is the history, oldest first; the coupled system takes the
    (u, v) pair and returns a pair.
    """
    fields = [np.asarray(f, dtype=float) for f in fields]
    if len(fields) < problem.history_depth:
        raise ProblemError(
            f"{problem.name} needs {problem.history_depth} history levels")
    if any(f.size != layout.dim for f in fields):
        raise ProblemError("field does not match the grid")
    if not all(np.isfinite(f).all() for f in fields):
        raise ProblemError("history field is not finite")
    return _STEPPERS[type(problem)](problem, fields, layout, tau)


def classical_run(problem, fields, layout: RegisterLayout, tau: float,
                  n_steps: int) -> list:
    """Repeated classical_step from the initial levels (one field per name in
    ``components(problem)`` each, oldest first); returns the last component's
    fields (n_steps + 1 entries including the initial one).  A second-order
    kind given one level starts from rest, as in ``evolve.run``."""
    k = len(components(problem))
    history = [np.asarray(f, dtype=float) for f in fields]
    if not history or len(history) % k:
        raise ProblemError(f"{problem.name} needs whole time levels")
    while len(history) < problem.history_depth:
        history = [f.copy() for f in history[:k]] + history
    out = [history[-1].copy()]
    for _ in range(n_steps):
        nxt = classical_step(problem, history[-problem.history_depth:],
                             layout, tau)
        history += list(np.reshape(nxt, (k, layout.dim)))
        out.append(history[-1].copy())
    return out


# ---------------------------------------------------------------------------
# Exact solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NsExponential:
    """Steady two-component flow: vx = A exp[c(ax+by)/(nu(a^2+b^2))] + B and
    the divergence-free partner vy = (c - alpha*B - alpha*(vx - B))/beta,
    stationary under zero pressure gradient."""

    A: float
    B: float
    c: float
    nu: float
    alpha: float
    beta: float

    def __post_init__(self):
        if self.nu * (self.alpha ** 2 + self.beta ** 2) == 0:
            raise ProblemError("degenerate exponential-solution parameters")

    def vx(self, x: float, y: float) -> float:
        k = self.c / (self.nu * (self.alpha ** 2 + self.beta ** 2))
        return self.A * exp(k * (self.alpha * x + self.beta * y)) + self.B

    def vy(self, x: float, y: float) -> float:
        if self.beta == 0:
            raise ProblemError("the partner component needs beta != 0")
        k = self.c / (self.nu * (self.alpha ** 2 + self.beta ** 2))
        e = self.A * exp(k * (self.alpha * x + self.beta * y))
        return (self.c - self.alpha * self.B - self.alpha * e) / self.beta


@dataclass(frozen=True)
class CouetteSteady:
    """Linear steady shear profile u(y) = top * y / height."""

    top: float = 1.0
    height: float = 1.0


@dataclass(frozen=True)
class SechTanh:
    amplitude: float = 1.0
    width: float = 1.0
    center: float = 0.0

    def __post_init__(self):
        if self.width == 0:
            raise ProblemError("the width must be nonzero")


@dataclass(frozen=True)
class Sinusoid:
    amplitude: float = 1.0
    wavenumber: float = 1.0
    phase: float = 0.0


@dataclass(frozen=True)
class LinearNegativeSlope:
    slope: float = -1.0
    intercept: float = 0.0


def exact_eval(ref, x) -> float:
    """Closed-form value of a one-dimensional reference at a point."""
    if isinstance(ref, CouetteSteady):
        return ref.top * float(x) / ref.height
    if isinstance(ref, SechTanh):
        z = (float(x) - ref.center) / ref.width
        # beyond |z| = 700, where cosh overflows, sech(z) < 1e-304
        return ref.amplitude * tanh(z) / cosh(min(abs(z), 700.0))
    if isinstance(ref, Sinusoid):
        return ref.amplitude * sin(ref.wavenumber * float(x) + ref.phase)
    if isinstance(ref, LinearNegativeSlope):
        return ref.slope * float(x) + ref.intercept
    raise ProblemError(f"unknown reference solution {ref!r}")


def ns_stationarity_residual(ref: NsExponential, n_points: int,
                             span: float = 1.0) -> float:
    """Max-abs steady-state momentum residual of the exact flow on an
    n x n grid, using the artifact's stencils on interior (non-wrapping)
    points.  Decays O(delta) under refinement."""
    delta = span / n_points
    xs = np.arange(n_points) * delta
    xg, yg = np.meshgrid(xs, xs, indexing="ij")
    vx = np.vectorize(ref.vx)(xg, yg)
    vy = np.vectorize(ref.vy)(xg, yg)

    def dx_f(f):
        return (np.roll(f, -1, axis=0) - f) / delta

    def dy_f(f):
        return (np.roll(f, -1, axis=1) - f) / delta

    def lap(f):
        return ((np.roll(f, -1, axis=0) - 2 * f + np.roll(f, 1, axis=0)) / delta ** 2
                + (np.roll(f, -1, axis=1) - 2 * f + np.roll(f, 1, axis=1)) / delta ** 2)

    res_x = vx * dx_f(vx) + vy * dy_f(vx) - ref.nu * lap(vx)
    res_y = vx * dx_f(vy) + vy * dy_f(vy) - ref.nu * lap(vy)
    interior = (slice(1, -1), slice(1, -1))
    return float(max(np.abs(res_x[interior]).max(), np.abs(res_y[interior]).max()))


def l2_error(fields, references) -> np.ndarray:
    """Per-step relative L2 distance with an epsilon-guarded denominator."""
    if len(fields) != len(references):
        raise ProblemError("trajectories have different lengths")
    out = np.zeros(len(fields))
    for i, (f, r) in enumerate(zip(fields, references)):
        f = np.asarray(f, dtype=float)
        r = np.asarray(r, dtype=float)
        if f.shape != r.shape:
            raise ProblemError("grid mismatch between trajectories")
        out[i] = np.linalg.norm(f - r) / max(np.linalg.norm(r), EPS)
    return out
