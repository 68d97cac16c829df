"""Per-time-step cost functions for the supported PDEs.

Every cost has the same shape: the candidate next-step field c = lam0*|Psi(lam)>
must match the image of the frozen history under one explicit-Euler update,

    C(lam, lam0) = || M c - b ||^2,

where M collects any implicit (candidate-side) terms and b is assembled by
applying operator expressions to the frozen history fields.  Expanding the
norm gives

    C = lam0^2 <Psi|M'M|Psi> - 2 lam0 Re<b|M|Psi> + <b|b>,

a term list of expectation values with classical coefficients.  M contains
only shift atoms for every equation here, so the quadratic block is fully
unitary and shot-estimable; nonlinear frozen-field factors live in b.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dfield
from functools import cache, cached_property
from math import pi, sqrt

import numpy as np

from .ansatz import (
    AnsatzSpec,
    prepare,  # noqa: F401  unused here; perfbench/tracing.py patches it
    prepare_batch,
)
from .opexpr import (
    MonomialForm,
    OpExpr,
    OpTerm,
    adjoint,
    apply_expr,
    apply_term,  # noqa: F401  unused here; perfbench/tracing.py patches it
    compile_monomials,
    diag,
    expand_product,
    grad_op,
    laplacian_op,
    shift,
)
from .statevec import RegisterLayout, hadamard_test

_IDENT = OpExpr.identity()
# amplitudes per (rows, term-table rows, dim) work array of one
# ``JointCost.term_values`` block: 128 KiB of complex, or one row when a row
# alone needs more
TERM_BLOCK = 1 << 13


class ProblemError(ValueError):
    pass


def _require_positive(problem, *names) -> None:
    for name in names:
        v = getattr(problem, name)
        if not (np.isfinite(v) and v > 0):
            raise ProblemError(f"{name} must be positive and finite")


# ---------------------------------------------------------------------------
# Problem definitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NavierStokes:
    """Velocity-component update.  ``pressure`` is None (pressure-free,
    advection-free relaxation), ("uniform", g) for a constant gradient, or
    ("field", samples) for an explicit pressure field."""

    nu: float = 1.0
    rho: float = 1.0
    pressure: tuple | None = None
    component: str = "x"

    def __post_init__(self):
        _require_positive(self, "nu", "rho")

    name = "navier-stokes"
    history_depth = 1


@dataclass(frozen=True)
class PointParticle:
    m: float
    v_mu: float
    v_nu: float
    position: float = 0.0
    c: float = 1.0

    def __post_init__(self):
        speed = max(abs(self.v_mu), abs(self.v_nu))
        if speed >= self.c:
            raise ProblemError("particle speed must stay below c")

    def samples(self, layout: RegisterLayout, axis: str) -> np.ndarray:
        xs = grid_coordinates(layout)[axis]
        delta = layout.spacing(axis)
        out = np.zeros(layout.dim)
        speed = max(abs(self.v_mu), abs(self.v_nu))
        gamma = 1.0 / sqrt(1.0 - (speed / self.c) ** 2)
        idx = int(np.argmin(np.abs(xs - self.position)))
        out[idx] = self.m * gamma * self.v_mu * self.v_nu / delta
        return out


@dataclass(frozen=True)
class EquilibriumFluid:
    rho_e: float
    p: float
    u_mu: float
    u_nu: float
    eta: float = 1.0  # flat-metric component for the (mu, nu) slot
    c: float = 1.0

    def samples(self, layout: RegisterLayout, axis: str) -> np.ndarray:
        val = (self.rho_e + self.p / self.c ** 2) * self.u_mu * self.u_nu \
            + self.p * self.eta
        return np.full(layout.dim, val)


@dataclass(frozen=True)
class Einstein:
    """Single evolved metric component sourced by a classical stress-energy
    field; the candidate is constrained through a shifted copy of itself."""

    tensor: object = EquilibriumFluid(rho_e=1.0, p=0.1, u_mu=1.0, u_nu=1.0)
    G: float = 1.0
    c: float = 1.0
    axes: tuple = ("x", "x")  # derivative axes (i, n)

    def __post_init__(self):
        _require_positive(self, "c")
        if len(self.axes) != 2:
            raise ProblemError("axes must name two derivative axes")

    name = "einstein"
    history_depth = 1


@dataclass(frozen=True)
class Maxwell:
    """One field-component update of the source-free curl equations.
    ``component`` is the updated axis index (i in the cyclic triple i,j,k)
    and ``which`` selects the magnetic or electric update."""

    component: str = "z"
    which: str = "B"
    mu0: float = 1.0
    eps0: float = 1.0
    ext_fields: dict | None = None  # e.g. {"E_y": samples} for the B update

    def __post_init__(self):
        if self.which not in ("B", "E"):
            raise ProblemError("update selector must be 'B' or 'E'")
        if self.component not in ("x", "y", "z"):
            raise ProblemError("component must be one of x, y, z")
        other = "E" if self.which == "B" else "B"
        read = {f"{other}_{a}" for a in "xyz" if a != self.component}
        if set(self.ext_fields or ()) - read:
            raise ProblemError(f"external fields must be among {sorted(read)}")
        _require_positive(self, "mu0", "eps0")

    name = "maxwell"
    history_depth = 1


@dataclass(frozen=True)
class Boussinesq:
    alpha: float = 1.0
    beta: float = 1.0

    name = "boussinesq"
    history_depth = 2


@dataclass(frozen=True)
class LinTsien:
    name = "lin-tsien"
    history_depth = 1


@dataclass(frozen=True)
class CamassaHolm:
    kappa: float = 1.0

    name = "camassa-holm"
    history_depth = 2


@dataclass(frozen=True)
class DSW:
    # the two "history" entries are the current (u, v) pair
    name = "dsw"
    history_depth = 2
    components = ("u", "v")


@dataclass(frozen=True)
class HunterSaxton:
    name = "hunter-saxton"
    history_depth = 1


def components(problem) -> tuple:
    """Names of the fields a problem evolves, in the order of its cost parts
    and of their parameter blocks."""
    return getattr(problem, "components", ("u",))


def grid_coordinates(layout: RegisterLayout) -> dict:
    """Per-axis coordinate arrays over the flattened grid."""
    shape = layout.grid_shape()
    out = {}
    for pos, (label, _, delta) in enumerate(layout.axes):
        idx = np.arange(shape[pos]) * delta
        # first axis occupies the lowest qubits, i.e. the fastest index
        full = np.ones(shape[::-1])
        full = full * idx.reshape(
            [shape[pos] if a == len(shape) - 1 - pos else 1
             for a in range(len(shape))]
        )
        out[label] = full.reshape(-1)
    return out


# ---------------------------------------------------------------------------
# Cost function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Source:
    """One additive contribution expr(field) to the Euler image b."""

    expr: OpExpr
    samples: np.ndarray
    tag: str


@dataclass(frozen=True)
class TermTable:
    """A cost's term list compiled for one batched evaluation.  Term k adds
    lam0^p coeff[k] Re<bra_k|T_k|psi> to the offset, p = 2 for bra_k = psi
    and 1 for a normalized source row; (T_k psi)[j] = weight[k, j]
    psi[perm[k, j]] and the bra is psi where ``quadratic[k]``, else
    ``source[k]``."""

    coeff: np.ndarray        # (T,) real
    quadratic: np.ndarray    # (T,) bool: bra_k = psi
    sampled: np.ndarray      # (T,) bool: shift-only term, shot-estimable
    perm: np.ndarray         # (T, dim) source indices
    weight: np.ndarray       # (T, dim) complex, unit term coefficients
    source: np.ndarray       # (T, dim) complex normalized bra; 0 for psi


@cache
def _pi_shifts(p: int) -> np.ndarray:
    """[-0.0; pi I] (P + 1, P): lam + it is lam bitwise, then lam + pi e_k."""
    shifts = np.vstack([np.full(p, -0.0), pi * np.eye(p)])
    shifts.setflags(write=False)  # one array, shared by every caller
    return shifts


def _sq_norms(r) -> np.ndarray:
    """Squared norm of every residual row r (B, dim)."""
    return np.einsum("bi,bi->b", r.conj(), r).real


@dataclass(frozen=True)
class CostFunction:
    """Frozen-history residual ||M c - b||^2 over candidates c = lam0 Psi(lam)."""

    name: str
    layout: RegisterLayout
    spec: AnsatzSpec
    m_op: OpExpr
    sources: tuple
    bindings: dict
    b_vector: np.ndarray = dfield(init=False)
    offset: float = dfield(init=False)
    m_form: MonomialForm = dfield(init=False, repr=False)  # compiled m_op

    def __post_init__(self):
        b = np.zeros(self.layout.dim, dtype=complex)
        for s in self.sources:
            b = b + apply_expr(s.expr, s.samples, self.layout, self.bindings)
        b = np.real_if_close(b, tol=1e6)
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "b_vector", b)
        object.__setattr__(self, "offset", float(np.real(np.vdot(b, b))))
        object.__setattr__(self, "m_form", compile_monomials(
            self.m_op, self.layout, self.bindings))

    # -- candidate-side pieces ----------------------------------------------

    @property
    def n_params(self) -> int:
        return self.spec.parameter_count + 1

    def split_rows(self, psi) -> tuple:
        """Arrays (q, l) over prepared rows psi (B, dim), with
        C = lam0^2 q - 2 lam0 l + offset for each row: what a device
        measures, read from the rows M psi."""
        mpsi = self.m_form.apply(psi)
        q = np.einsum("bi,bi->b", mpsi.conj(), mpsi).real
        l = np.einsum("bi,i->b", mpsi, np.conj(self.b_vector)).real
        return q, l

    def shift_split_eval(self, lams) -> tuple:
        """``split_rows`` of the angle rows lams (B, P)."""
        return self.split_rows(prepare_batch(self.spec, lams))

    def cost_rows(self, psi, lam0) -> np.ndarray:
        """Cost of prepared rows psi (B, dim) at scales lam0 (B, 1): the
        squared norm of the residual row lam0 M psi - b, never negative."""
        return _sq_norms(lam0 * self.m_form.apply(psi) - self.b_vector)

    def grad_rows(self, psi, lam0) -> tuple:
        """Cost ||r||^2 and gradient from r = lam0 M psi_0 - b and the rows
        psi (P + 1, dim) at lam + ``_pi_shifts``.  Each angle sits in one
        exp(-i t G / 2) with G^2 = I, so d psi_0 / d lam_k = psi_k / 2:
        dC/d lam_k = lam0 Re<r|M psi_k> and dC/d lam0 = 2 Re<M psi_0|r>."""
        mpsi = self.m_form.apply(psi)
        r = lam0 * mpsi[:1] - self.b_vector
        g = (mpsi @ r[0].conj()).real
        return float(_sq_norms(r)[0]), np.concatenate((lam0 * g[1:],
                                                       [2.0 * g[0]]))

    def grad_vec(self, x) -> np.ndarray:
        """``JointCost.value_and_grad``'s gradient of this part alone."""
        return JointCost(self.name, (self,)).value_and_grad(x)[1]

    # -- term list ----------------------------------------------------------

    def term_list(self) -> tuple:
        """(coeff, bra, unit-coefficient OpTerm) entries, the bra 0 for psi
        and i + 1 for source i; every ket is psi.

        offset + sum over entries of lam0^p Re(coeff <bra|T|psi>) with
        p = 2 for bra psi and 1 for a source reproduces the cost.  Source
        states are normalized; their norms are folded into the coefficients.
        """
        quad = expand_product([adjoint(self.m_op), self.m_op])
        entries = [(complex(t.coeff), 0, OpTerm(1.0, t.atoms))
                   for t in quad.terms]
        for si, s in enumerate(self.sources):
            norm = float(np.linalg.norm(s.samples))
            if norm == 0.0:
                continue
            cross = expand_product([adjoint(s.expr), self.m_op])
            entries += [(-2.0 * norm * complex(t.coeff), si + 1,
                         OpTerm(1.0, t.atoms)) for t in cross.terms]
        return tuple(entries)

    @cached_property
    def term_table(self) -> TermTable:
        """``term_list()`` compiled on first use; costs that are only
        evaluated in closed form never build it."""
        coeff, bra, terms = zip(*self.term_list())
        coeff, bra = np.array(coeff), np.array(bra)
        if np.any(coeff.imag != 0):
            raise ProblemError(
                f"{self.name}: the term list has a complex coefficient; a "
                "Hadamard test measures Re<bra|T|psi> only")
        # row 0 stands for psi, row i + 1 for source i
        sources = np.zeros((len(self.sources) + 1, self.layout.dim),
                           dtype=complex)
        for si, s in enumerate(self.sources):
            samples = np.asarray(s.samples, dtype=float)
            norm = np.linalg.norm(samples)
            if norm > 0.0:
                sources[si + 1] = samples / norm
        form = compile_monomials(terms, self.layout, self.bindings)
        return TermTable(
            coeff=coeff.real, quadratic=bra == 0,
            sampled=np.array([t.is_unitary_product() for t in terms]),
            perm=form.perm, weight=form.weight, source=sources[bra])

    def evaluate_terms(self, lam, lam0: float, shots: int | None = None,
                       rng: np.random.Generator | None = None) -> float:
        """``JointCost.estimate_rows`` of this part alone at one point."""
        x = np.append(np.asarray(lam, dtype=float), lam0)[None, :]
        return float(JointCost(self.name, (self,)).estimate_rows(
            x, shots, rng)[0])

    def serialize_terms(self) -> str:
        lines = [f"offset {self.offset:+.12g}"]
        for coeff, bra, term in self.term_list():
            cs = f"({coeff.real:+.12g}{coeff.imag:+.12g}j)"
            tag = f"src{bra - 1}:{self.sources[bra - 1].tag}" if bra else "psi"
            lines.append(f"{cs} * <{tag}| {term.label()} |psi>")
        return "\n".join(lines)


def _cat(arrays: list, axis: int = 0) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis)


@dataclass(frozen=True)
class JointCost:
    """Per-step cost of a problem: the sum of its component costs (one part
    per evolved field), optimized over the concatenated vector
    (lam_1, lam0_1, lam_2, lam0_2, ...), equal weights.  The parts share
    one ansatz, so the cost rows, the closed-form scales, the gradient and
    the term-list estimates prepare the states of all parts in one
    ``prepare_batch`` call."""

    name: str
    parts: tuple

    @property
    def n_params(self) -> int:
        return sum(p.n_params for p in self.parts)

    def _blocks(self, xs) -> list:
        """Per part, its angle columns and its scale column of xs."""
        out, k = [], 0
        for p in self.parts:
            k += p.n_params
            out.append((xs[..., k - p.n_params:k - 1], xs[..., k - 1:k]))
        return out

    def _states(self, lams: list) -> list:
        """Each part's states at its angle rows (one (B, P) block per part),
        all from one ``prepare_batch`` call."""
        psi, b = prepare_batch(self.parts[0].spec, _cat(lams)), len(lams[0])
        return [psi[i * b:(i + 1) * b] for i in range(len(lams))]

    def evaluate_rows(self, xs) -> np.ndarray:
        """Sum of the parts' exact costs over their column blocks."""
        xs = np.asarray(xs, dtype=float)
        if len(self.parts) == 1:  # skips the blocks' glue
            p = self.parts[0]
            return p.cost_rows(prepare_batch(p.spec, xs[:, :-1]), xs[:, -1:])
        blocks = self._blocks(xs)
        states = self._states([lams for lams, _ in blocks])
        return sum(p.cost_rows(psi, lam0) for p, psi, (_, lam0)
                   in zip(self.parts, states, blocks))

    def rescale(self, x) -> np.ndarray:
        """Copy of x with every part's lam0 at its exact quadratic's
        minimum l / q at x's angles (0 where q vanishes): one batch."""
        x = np.array(x, dtype=float)
        blocks = self._blocks(x)  # views into x
        states = self._states([lam[None, :] for lam, _ in blocks])
        for p, psi, (_, lam0) in zip(self.parts, states, blocks):
            q, l = p.split_rows(psi)
            lam0[:] = l / q if q[0] > 1e-300 else 0.0
        return x

    def value_and_grad(self, x) -> tuple:
        """Cost and exact gradient at x: each part's ``grad_rows`` at its
        angles plus ``_pi_shifts`` (P + 1 rows), all in one batch."""
        x = np.asarray(x, dtype=float)
        if len(self.parts) == 1:  # skips the blocks' glue
            p = self.parts[0]
            lam = x[:-1] + _pi_shifts(x.size - 1)
            return p.grad_rows(prepare_batch(p.spec, lam), x[-1])
        blocks = self._blocks(x)
        states = self._states([lam + _pi_shifts(lam.size)
                               for lam, _ in blocks])
        pairs = [p.grad_rows(psi, lam0[0]) for p, psi, (_, lam0)
                 in zip(self.parts, states, blocks)]
        return sum(c for c, _ in pairs), np.concatenate([g for _, g in pairs])

    def grad_vec(self, x) -> np.ndarray:
        return self.value_and_grad(x)[1]

    def term_values(self, lams: list, shots: int | None = None,
                    rng: np.random.Generator | None = None) -> list:
        """Re<bra_k|T_k|psi> for the term-list entries of every part over
        its angle rows (one (B, P) block per part): one (B, T) array per
        part.  The rows are measured in blocks of at most ``TERM_BLOCK``
        amplitudes per work array, one ``hadamard_test`` call per block; in
        shot mode it samples the fully unitary terms and contracts the
        others exactly.  Shots are drawn row by row, then part by part, in
        term-list order: the order of one call per row and part, so
        batching does not change the draws."""
        tabs = [p.term_table for p in self.parts]
        states = self._states(lams)
        sampled = _cat([t.sampled for t in tabs])
        block = max(1, TERM_BLOCK // (sampled.size * states[0].shape[1]))
        est = []
        for r in range(0, len(states[0]), block):
            rows = [psi[r:r + block] for psi in states]
            kets = [t.weight * psi[:, t.perm] for t, psi in zip(tabs, rows)]
            bras = [np.where(t.quadratic[:, None], psi[:, None, :], t.source)
                    for t, psi in zip(tabs, rows)]
            est.append(hadamard_test(_cat(bras, 1), _cat(kets, 1),
                                     sampled=sampled, shots=shots, rng=rng))
        est = _cat(est)
        ends = np.cumsum([t.coeff.size for t in tabs])
        return np.split(est, ends[:-1], axis=1)

    def estimate_rows(self, xs, shots: int | None = None,
                      rng: np.random.Generator | None = None) -> np.ndarray:
        """Cost of every row of xs (B, n_params) from the parts' term lists:
        offset + sum over terms of lam0^p coeff Re<bra|T|psi>, with the
        values of ``term_values``; in shot mode what a device sees."""
        blocks = self._blocks(np.asarray(xs, dtype=float))
        values = self.term_values([lams for lams, _ in blocks], shots, rng)
        total = 0.0
        for p, v, (_, lam0) in zip(self.parts, values, blocks):
            t = p.term_table
            scale = np.where(t.quadratic, lam0 * lam0, lam0)
            total = total + (p.offset + (t.coeff * v * scale).sum(axis=1))
        return total


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def _history_fields(history, layout: RegisterLayout) -> list:
    out = []
    for h in history:
        f = np.asarray(h, dtype=float)
        if f.size != layout.dim:
            raise ProblemError("history field does not match the grid")
        out.append(f)
    return out


def _diag_expr(key: str) -> OpExpr:
    return OpExpr((OpTerm(1.0, (diag(key),)),))


def _build_navier_stokes(problem: NavierStokes, fields, layout, tau, spec):
    u = fields[-1]
    bindings = {}
    rhs = _IDENT  # acting on u
    if problem.pressure is not None and layout.has_axis(problem.component):
        bindings["adv_self"] = u
        rhs = rhs - (_diag_expr("adv_self")
                     * grad_op(problem.component,
                               layout.spacing(problem.component))).scale(tau)
    for ax in layout.axis_labels():
        rhs = rhs + laplacian_op(ax, layout.spacing(ax)).scale(problem.nu * tau)
    sources = [Source(rhs, u, "u")]
    if problem.pressure is not None:
        kind, val = problem.pressure
        if kind == "uniform":
            sources.append(Source(
                OpExpr.identity(-tau / problem.rho),
                float(val) * np.ones(layout.dim), "pgrad"))
        elif kind == "field":
            sources.append(Source(
                grad_op(problem.component,
                        layout.spacing(problem.component)).scale(-tau / problem.rho),
                np.asarray(val, dtype=float), "p"))
        else:
            raise ProblemError(f"unknown pressure model {kind!r}")
    return (CostFunction(problem.name, layout, spec, _IDENT, tuple(sources),
                         bindings),)


def _build_einstein(problem: Einstein, fields, layout, tau, spec):
    g = fields[-1]
    ax_i, ax_n = problem.axes
    for ax in (ax_i, ax_n):
        if not layout.has_axis(ax):
            raise ProblemError(f"derivative axis {ax!r} missing from the grid")
    m_op = OpExpr.single(shift(ax_i))
    k = 8.0 * pi * problem.G * layout.spacing(ax_i) * layout.spacing(ax_n) \
        / problem.c ** 4
    t_field = problem.tensor.samples(layout, ax_i)
    sources = (
        Source(OpExpr.single(shift(ax_i)), g, "g"),
        Source(OpExpr.identity(k), t_field, "T"),
    )
    return (CostFunction(problem.name, layout, spec, m_op, sources, {}),)


_CYCLIC = {"x": ("y", "z"), "y": ("z", "x"), "z": ("x", "y")}


def _build_maxwell(problem: Maxwell, fields, layout, tau, spec):
    f = fields[-1]
    i = problem.component
    j, k = _CYCLIC[i]
    ext = problem.ext_fields or {}
    other = "E" if problem.which == "B" else "B"
    # dB_i/dt = -(curl E)_i ; dE_i/dt = +(curl B)_i / (mu0 eps0)
    sign = -tau if problem.which == "B" else tau / (problem.mu0 * problem.eps0)
    sources = [Source(_IDENT, f, problem.which.lower())]
    for d_ax, comp_ax, s in ((j, k, 1.0), (k, j, -1.0)):
        key = f"{other}_{comp_ax}"
        if key not in ext or not layout.has_axis(d_ax):
            continue
        sources.append(Source(
            grad_op(d_ax, layout.spacing(d_ax)).scale(sign * s),
            np.asarray(ext[key], dtype=float), key))
    return (CostFunction(problem.name, layout, spec, _IDENT, tuple(sources),
                         {}),)


def _build_boussinesq(problem: Boussinesq, fields, layout, tau, spec):
    if len(fields) < 2:
        raise ProblemError("second-order time stepping needs two history levels")
    u, u_prev = fields[-1], fields[-2]
    ax = layout.axes[0][0]
    dx = layout.spacing(ax)
    lap = laplacian_op(ax, dx)
    gr = grad_op(ax, dx)
    m_op = _IDENT - lap.scale(problem.beta)
    bindings = {"bq_u": u}
    expr_u = m_op.scale(2.0) + lap.scale(tau * tau) \
        + (gr * _diag_expr("bq_u") * gr).scale(2.0 * problem.alpha * tau * tau)
    expr_prev = m_op.scale(-1.0)
    sources = (Source(expr_u, u, "u"), Source(expr_prev, u_prev, "u_prev"))
    return (CostFunction(problem.name, layout, spec, m_op, sources, bindings),)


def _build_lin_tsien(problem: LinTsien, fields, layout, tau, spec):
    u = fields[-1]
    if not (layout.has_axis("x") and layout.has_axis("y")):
        raise ProblemError("this equation needs x and y axes")
    gx = grad_op("x", layout.spacing("x"))
    lx = laplacian_op("x", layout.spacing("x"))
    ly = laplacian_op("y", layout.spacing("y"))
    bindings = {"lt_ux": apply_expr(gx, u, layout).real}
    expr_u = gx + (ly - _diag_expr("lt_ux") * lx).scale(0.5 * tau)
    return (CostFunction(problem.name, layout, spec, gx,
                         (Source(expr_u, u, "u"),), bindings),)


def _build_camassa_holm(problem: CamassaHolm, fields, layout, tau, spec):
    if len(fields) < 2:
        raise ProblemError("the mixed-derivative term needs two history levels")
    u, u_prev = fields[-1], fields[-2]
    ax = layout.axes[0][0]
    dx = layout.spacing(ax)
    gr = grad_op(ax, dx)
    lap = laplacian_op(ax, dx)
    m_op = _IDENT - lap.scale(0.5)
    bindings = {
        "ch_ux": apply_expr(gr, u, layout).real,
        "ch_u": u,
        "ch_lin": 3.0 * u + 2.0 * problem.kappa,
    }
    expr_u = _IDENT + (
        (_diag_expr("ch_ux") * lap).scale(2.0)
        + _diag_expr("ch_u") * gr * lap
        - _diag_expr("ch_lin") * gr
    ).scale(tau)
    expr_prev = lap.scale(-0.5)
    sources = (Source(expr_u, u, "u"), Source(expr_prev, u_prev, "u_prev"))
    return (CostFunction(problem.name, layout, spec, m_op, sources, bindings),)


def _build_dsw(problem: DSW, fields, layout, tau, spec):
    """Coupled pair: fields = [u, v] at the current step; one part each."""
    if len(fields) < 2:
        raise ProblemError("the coupled system needs both current fields")
    u, v = fields[-2], fields[-1]
    ax = layout.axes[0][0]
    dx = layout.spacing(ax)
    gr = grad_op(ax, dx)
    lap = laplacian_op(ax, dx)
    u_bind = {"dsw_v": v}
    expr_uu = _IDENT
    expr_uv = (_diag_expr("dsw_v") * gr).scale(-3.0 * tau)
    cost_u = CostFunction(problem.name + "-u", layout, spec, _IDENT,
                          (Source(expr_uu, u, "u"), Source(expr_uv, v, "v")),
                          u_bind)
    v_bind = {"dsw_u": u}
    m_v = _IDENT - (gr * lap).scale(2.0 * tau)
    expr_vv = _IDENT + (_diag_expr("dsw_u") * gr).scale(2.0 * tau)
    expr_vu = gr.scale(tau)
    cost_v = CostFunction(problem.name + "-v", layout, spec, m_v,
                          (Source(expr_vv, v, "v"), Source(expr_vu, u, "u")),
                          v_bind)
    return cost_u, cost_v


def _build_hunter_saxton(problem: HunterSaxton, fields, layout, tau, spec):
    u = fields[-1]
    ax = layout.axes[0][0]
    dx = layout.spacing(ax)
    gr = grad_op(ax, dx)
    bindings = {"hs_ux": apply_expr(gr, u, layout).real, "hs_u": u}
    expr_u = gr + (
        _diag_expr("hs_ux").scale(0.5) * gr - gr * _diag_expr("hs_u") * gr
    ).scale(tau)
    return (CostFunction(problem.name, layout, spec, gr,
                         (Source(expr_u, u, "u"),), bindings),)


_BUILDERS = {
    NavierStokes: _build_navier_stokes,
    Einstein: _build_einstein,
    Maxwell: _build_maxwell,
    Boussinesq: _build_boussinesq,
    LinTsien: _build_lin_tsien,
    CamassaHolm: _build_camassa_holm,
    DSW: _build_dsw,
    HunterSaxton: _build_hunter_saxton,
}


def build_cost(problem, history, layout: RegisterLayout, tau: float,
               spec: AnsatzSpec):
    """Assemble the per-step cost from frozen history fields: a JointCost
    with one part per name in ``components(problem)``.

    ``history`` holds field arrays ordered oldest to newest; depth must match
    the equation's time order.  For the coupled system the two entries are
    the current (u, v) pair and the parts are optimized jointly.
    """
    if tau <= 0:
        raise ProblemError("time step must be positive")
    if type(problem) not in _BUILDERS:
        raise ProblemError(f"unsupported problem {problem!r}")
    fields = _history_fields(history, layout)
    if len(fields) < problem.history_depth:
        raise ProblemError(
            f"{problem.name} needs {problem.history_depth} history levels, "
            f"got {len(fields)}"
        )
    if 2 ** spec.n_qubits != layout.dim:
        raise ProblemError("ansatz size does not match the grid")
    parts = _BUILDERS[type(problem)](problem, fields, layout, tau, spec)
    return JointCost(problem.name, parts)

