"""Per-time-step cost functions for the supported PDEs.

Every cost has the same shape: the candidate next-step field c = lam0*|Psi(lam)>
must match the image of the frozen history under one explicit-Euler update,

    C(lam, lam0) = || M c - b ||^2,

where M collects any implicit (candidate-side) terms and b is assembled by
applying operator expressions to the frozen history fields.  Expanding the
norm gives

    C = lam0^2 <Psi|M'M|Psi> - 2 lam0 Re<b|M|Psi> + <b|b>,

a term list of expectation values with classical coefficients, which
``vqpde terms`` prints.  M contains only shift atoms (``PartTemplate``
rejects one that reads a field); nonlinear frozen-field factors live in b.
So M is a constant multi-level circulant, diagonal in the grid's Fourier
basis: with m_hat the FFT of M's first column, Psi_hat the unitary FFT of
Psi and beta = M'b / ||M'b||,

    C = <b|b> - 2 lam0 ||M'b|| Re<beta|Psi> + lam0^2 sum_p |m_hat_p|^2
        |Psi_hat_p|^2,

which shot mode estimates per part from two measured circuits: a Hadamard
test against beta and a computational-basis sample of QFT Psi.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dfield
from functools import cached_property, reduce
from math import pi, sqrt

import numpy as np

from .ansatz import (
    AnsatzSpec,
    prepare,  # noqa: F401  unused here; perfbench/tracing.py patches it
    prepare_batch,
    prepare_pi_rows,
)
from .opexpr import (
    MonomialForm,
    MonomialTemplate,
    OpExpr,
    OpTerm,
    adjoint,
    apply_expr,  # noqa: F401  unused here; perfbench/tracing.py patches it
    apply_term,  # noqa: F401  unused here; perfbench/tracing.py patches it
    block_diagonal,
    compile_monomials,
    diag,
    expand_product,
    grad_op,
    laplacian_op,
    shift,
)
from .statevec import RegisterLayout, SimulationError, hadamard_test, is_real

_IDENT = OpExpr.identity()
# relative size below which a family's psi-dependent part counts as 0: of
# ||M'b|| against max |m_hat| ||b||, and of the spread of |m_hat|^2 against
# its largest value
FLAT = 1e-12


class ProblemError(ValueError):
    pass


def _require_positive(problem, *names) -> None:
    for name in names:
        v = getattr(problem, name)
        if not (is_real(v) and np.isfinite(v) and v > 0):
            raise ProblemError(f"{name} must be positive and finite")


def _require_finite(problem, *names) -> None:
    for name in names:
        v = getattr(problem, name)
        if not (is_real(v) and np.isfinite(v)):
            raise ProblemError(f"{name} must be a finite number")


def check_tau(tau) -> None:
    """A time step is a positive, finite real number."""
    if not (is_real(tau) and np.isfinite(tau) and tau > 0):
        raise ProblemError(f"time step tau must be positive and finite, "
                           f"got {tau!r}")


def _require_samples(name: str, samples) -> None:
    """Grid samples are one row of finite real numbers (no bools)."""
    a = np.asarray(samples)
    if a.ndim != 1 or a.dtype.kind not in "iuf" or not np.isfinite(a).all():
        raise ProblemError(f"{name} must be a row of finite numbers")


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
        if self.pressure is None:
            return
        if not (isinstance(self.pressure, tuple) and len(self.pressure) == 2):
            raise ProblemError("pressure must be None or a (model, value) pair")
        kind, val = self.pressure
        if kind == "field":
            _require_samples("pressure field", val)
        elif kind != "uniform":
            raise ProblemError(f"unknown pressure model {kind!r}")
        elif not (is_real(val) and np.isfinite(val)):
            raise ProblemError("uniform pressure gradient must be a finite "
                               "number")

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
        _require_finite(self, "m", "v_mu", "v_nu", "position")
        _require_positive(self, "c")
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

    def __post_init__(self):
        _require_finite(self, "rho_e", "p", "u_mu", "u_nu", "eta")
        _require_positive(self, "c")

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
        if not isinstance(self.tensor, (EquilibriumFluid, PointParticle)):
            raise ProblemError("tensor must be an EquilibriumFluid or a "
                               "PointParticle")
        _require_finite(self, "G")
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
        for key, samples in (self.ext_fields or {}).items():
            _require_samples(key, samples)
        _require_positive(self, "mu0", "eps0")

    name = "maxwell"
    history_depth = 1


@dataclass(frozen=True)
class Boussinesq:
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        _require_finite(self, "alpha", "beta")

    name = "boussinesq"
    history_depth = 2


@dataclass(frozen=True)
class LinTsien:
    name = "lin-tsien"
    history_depth = 1


@dataclass(frozen=True)
class CamassaHolm:
    kappa: float = 1.0

    def __post_init__(self):
        _require_finite(self, "kappa")

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


def grid_fft(rows: np.ndarray, layout: RegisterLayout,
             norm: str = "backward", inverse: bool = False) -> np.ndarray:
    """n-dimensional FFT of rows (..., dim) over the layout's axis
    registers: each row is read as the grid, first axis fastest, and the
    transform comes back in the same flat order.  One 1-D transform per
    axis: ``np.fft.fftn`` costs twice as much per call at these sizes."""
    shape = layout.grid_shape()[::-1]
    out = rows.reshape(*rows.shape[:-1], *shape)
    fft = np.fft.ifft if inverse else np.fft.fft
    for axis in range(-len(shape), 0):
        out = fft(out, axis=axis, norm=norm)
    return out.reshape(rows.shape)


def grid_coordinates(layout: RegisterLayout) -> dict:
    """Per-axis coordinate arrays over the flattened grid, whose fastest
    index is the first axis (it occupies the lowest qubits)."""
    idx = np.indices(layout.grid_shape()[::-1])[::-1]
    return {label: (i * delta).reshape(-1)
            for i, (label, _, delta) in zip(idx, layout.axes)}


# ---------------------------------------------------------------------------
# Cost function
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PartTemplate:
    """One part's operators compiled once: M, which reads no field, and
    every source expression as ``MonomialTemplate``s, and on first use its
    term rows.  A step binds only the frozen fields (``CostFunction``):
    source i reads the step's array ``tags[i]`` and the diagonal atoms the
    fields ``binds``."""

    name: str
    layout: RegisterLayout
    m_op: OpExpr
    exprs: tuple  # source expressions, in order
    tags: tuple  # the step's array each source reads
    binds: tuple = ()
    m: MonomialTemplate = dfield(init=False, repr=False)
    sources: tuple = dfield(init=False, repr=False)  # of MonomialTemplate

    def __post_init__(self):
        m = MonomialTemplate.compile(self.m_op, self.layout)
        if m.constant is None:
            raise ProblemError(f"{self.name}: M reads {', '.join(m.fields)}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "sources", tuple(
            MonomialTemplate.compile(e, self.layout) for e in self.exprs))

    @cached_property
    def rows(self) -> tuple:
        """(coeff, bra, unit-coefficient OpTerm) of adjoint(M) M, bra 0,
        then of adjoint(S_i) M, bra i + 1, for every source i."""
        return tuple((complex(t.coeff), bra, OpTerm(1.0, t.atoms))
                     for bra, e in enumerate((self.m_op, *self.exprs))
                     for t in expand_product([adjoint(e), self.m_op]).terms)


@dataclass(frozen=True, eq=False)
class CostFunction:
    """Frozen-history residual ||M c - b||^2 over candidates c = lam0 Psi(lam):
    one part of a ``JointCost``, which evaluates it.  It is its compiled
    ``template`` plus one step's values: ``samples``, one array per source
    of the template in order, and ``bindings``, the diagonal fields."""

    template: PartTemplate
    spec: AnsatzSpec
    samples: tuple
    bindings: dict
    b_vector: np.ndarray = dfield(init=False)
    offset: float = dfield(init=False)

    def __post_init__(self):
        t = self.template
        if len(self.samples) != len(t.sources):
            raise ProblemError(f"{t.name}: {len(self.samples)} samples for "
                               f"{len(t.sources)} sources")
        b = np.zeros(t.layout.dim, dtype=complex)
        for tag, amps, form in zip(t.tags, self.samples, t.sources):
            amps = np.asarray(amps)
            if amps.shape != b.shape:
                raise SimulationError(
                    f"samples {tag!r} of length {amps.size} do not match "
                    f"{t.layout.total_qubits} qubits")
            b = b + form.bind(self.bindings).apply(amps[None, :])[0]
        b = np.real_if_close(b, tol=1e6).copy()
        b.setflags(write=False)
        object.__setattr__(self, "b_vector", b)
        object.__setattr__(self, "offset", float(np.real(np.vdot(b, b))))

    @property
    def name(self) -> str:
        return self.template.name

    @property
    def n_params(self) -> int:
        return self.spec.parameter_count + 1

    @cached_property
    def joint(self) -> "JointCost":
        """This part alone as the ``JointCost`` that evaluates it."""
        return JointCost(self.name, (self,))

    def shift_split_eval(self, lams) -> tuple:
        """``JointCost.split`` of this part alone over angle rows (B, P)."""
        q, l = self.joint.split(np.asarray(lams)[:, None])
        return q[0], l[0]

    def grad_vec(self, x) -> np.ndarray:
        """``JointCost.value_and_grad``'s gradient of this part alone."""
        return self.joint.value_and_grad(x)[1]

    def term_list(self) -> tuple:
        """The template's ``rows`` with every ket psi, a source's coefficients
        times -2 ||samples|| and its rows dropped when that is 0: offset +
        sum of lam0^p Re(coeff <bra|T|psi>), p = 2 for bra psi and 1 for a
        source's normalized samples, reproduces the cost."""
        norms = [1.0] + [float(np.linalg.norm(s)) for s in self.samples]
        return tuple((c if bra == 0 else -2.0 * norms[bra] * c, bra, term)
                     for c, bra, term in self.template.rows
                     if norms[bra] != 0.0)

    def evaluate_terms(self, lam, lam0: float, shots: int | None = None,
                       rng: np.random.Generator | None = None) -> float:
        """``JointCost.estimate_rows`` of this part alone at one point."""
        return float(self.joint.estimate_rows(np.append(lam, lam0)[None, :],
                                              shots, rng)[0])

    def serialize_terms(self) -> str:
        lines, tags = [f"offset {self.offset:+.12g}"], self.template.tags
        for coeff, bra, term in self.term_list():
            cs = f"({coeff.real:+.12g}{coeff.imag:+.12g}j)"
            tag = f"src{bra - 1}:{tags[bra - 1]}" if bra else "psi"
            lines.append(f"{cs} * <{tag}| {term.label()} |psi>")
        return "\n".join(lines)


@dataclass(frozen=True, eq=False)
class CostTemplate:
    """A problem's step cost compiled for one (layout, tau): its parts'
    templates and ``values``, which reads a step's named arrays (samples and
    diagonal fields) off the history.  ``bind`` makes the step's
    ``JointCost``.  The stacked M is built here once, and M's Fourier
    transform on first use."""

    name: str
    parts: tuple  # of PartTemplate
    values: object = None  # history fields -> {name: array}
    depth: int = 1  # history levels a step reads: the kind's history_depth
    m_form: MonomialForm = dfield(init=False, repr=False)  # M, stacked

    def __post_init__(self):
        object.__setattr__(self, "m_form", block_diagonal(
            [p.m.constant for p in self.parts], self.parts[0].layout.dim))

    def bind(self, history, spec: AnsatzSpec) -> "JointCost":
        """The step's cost from its frozen history fields, oldest first."""
        dim = self.parts[0].layout.dim
        fields = [np.asarray(h, dtype=float) for h in history]
        if any(f.size != dim for f in fields):
            raise ProblemError("history field does not match the grid")
        for i, f in enumerate(fields):
            if not np.isfinite(f).all():
                raise ProblemError(f"history field {i} is not finite")
        if len(fields) < self.depth:
            raise ProblemError(f"{self.name} needs {self.depth} history "
                               f"levels, got {len(fields)}")
        if 2 ** spec.n_qubits != dim:
            raise ProblemError("ansatz size does not match the grid")
        vals = self.values(fields)
        return JointCost(self.name, tuple(
            CostFunction(p, spec, tuple(vals[t] for t in p.tags),
                         {k: vals[k] for k in p.binds})
            for p in self.parts), self)

    @cached_property
    def m_hat(self) -> np.ndarray:
        """Every part's M in the grid's Fourier basis, (K, dim): M is a
        constant multi-level circulant, so its eigenvalues are the FFT of
        its first column, M = F' diag(m_hat) F for the unitary DFT F."""
        layout = self.parts[0].layout
        e0 = np.eye(1, layout.dim)
        m_hat = grid_fft(np.array([p.m.constant.apply(e0)[0]
                                   for p in self.parts]), layout)
        m_hat.setflags(write=False)
        return m_hat


@dataclass(frozen=True, eq=False)
class JointCost:
    """Per-step cost of a problem: one residual over its K component costs
    (one part per evolved field) on one ansatz, over the row
    (lam_1, lam0_1, lam_2, lam0_2, ...) read as (K, P + 1).  The parts'
    operators are stacked into a block-diagonal ``m_form`` over K dim
    amplitudes, once per ``template``, and their targets into ``b``
    (K, dim); B rows are prepared as B K angle rows, row-major and
    part-minor, in one ``prepare_batch``.  Parts joined by hand get a
    template of their own parts' templates."""

    name: str
    parts: tuple
    template: CostTemplate = dfield(default=None, repr=False)
    m_form: MonomialForm = dfield(init=False, repr=False)
    b: np.ndarray = dfield(init=False, repr=False)
    offset: float = dfield(init=False)  # ||b||^2

    def __post_init__(self):
        if any(p.spec != self.parts[0].spec for p in self.parts):
            raise ProblemError(f"{self.name}: the parts must share one ansatz")
        b = np.array([p.b_vector for p in self.parts])
        b.setflags(write=False)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "offset", float(np.real(np.vdot(b, b))))
        if self.template is None:
            object.__setattr__(self, "template", CostTemplate(
                self.name, tuple(p.template for p in self.parts)))
        object.__setattr__(self, "m_form", self.template.m_form)

    @property
    def n_params(self) -> int:
        return len(self.parts) * self.parts[0].n_params

    def _rows(self, xs) -> np.ndarray:
        """Rows xs (B, n_params) as (B, K, P + 1)."""
        return np.asarray(xs, float).reshape(len(xs), len(self.parts),
                                             self.parts[0].n_params)

    def _mpsi(self, lams) -> np.ndarray:
        """M psi of the angle rows lams (B, K, P) as (K, dim, B), from one
        ``prepare_batch``."""
        return self._m_cols(prepare_batch(self.parts[0].spec, lams.reshape(
            -1, lams.shape[-1])))

    def _m_cols(self, psi) -> np.ndarray:
        """M psi of prepared rows psi (B K, dim), part-minor, as
        (K, dim, B): each part's rows column-major, as summed."""
        psi = psi.reshape(-1, self.b.size)
        return self.m_form.apply(psi).T.reshape(*self.b.shape, len(psi))

    def split(self, lams) -> tuple:
        """(q, l), each (K, B), of the angle rows lams (B, K, P): part k's
        cost is lam0^2 q - 2 lam0 l + ||b_k||^2, read from M psi."""
        mpsi = self._mpsi(lams)
        return (np.einsum("kib,kib->kb", mpsi.conj(), mpsi).real,
                np.einsum("kib,ki->kb", mpsi, self.b.conj()).real)

    def evaluate_rows(self, xs) -> np.ndarray:
        """Exact cost of every row of xs (B, n_params): the squared norms
        of the parts' residual rows lam0 M psi - b, summed; never
        negative."""
        x = self._rows(xs)
        r = x[:, :, -1:].transpose(1, 2, 0) * self._mpsi(x[:, :, :-1]) \
            - self.b[:, :, None]
        return reduce(np.add, np.einsum("kib,kib->kb", r.conj(), r).real)

    def rescale(self, x) -> np.ndarray:
        """Copy of x with every part's lam0 at its exact quadratic's
        minimum l / q at x's angles (0 where q vanishes): one batch."""
        x = np.array(x, dtype=float)
        rows = x.reshape(len(self.parts), -1)  # a view into x
        q, l = self.split(rows[None, :, :-1])
        ok = q[:, 0] > 1e-300
        rows[:, -1] = np.where(ok, l[:, 0], 0.0) / np.where(ok, q[:, 0], 1.0)
        return x

    def _pi_rows(self, x) -> tuple:
        """(lam0 (K, 1), M psi (K, dim, P + 1), r (K, dim)) at x: M psi of
        every part's ``prepare_pi_rows``, lam then lam + pi e_j, and the
        residual r = lam0 M psi_0 - b."""
        x = np.asarray(x, dtype=float).reshape(len(self.parts), -1)
        lam0 = x[:, -1:]
        mpsi = self._m_cols(prepare_pi_rows(self.parts[0].spec, x[:, :-1]))
        return lam0, mpsi, lam0 * mpsi[:, :, 0] - self.b

    def value_and_grad(self, x) -> tuple:
        """Cost and exact gradient at x from ``_pi_rows``: each exp(-i t G / 2)
        has G^2 = I, so d psi_0 / d lam_j = psi_j / 2, and per part
        dC/d lam_j = lam0 Re<r|M psi_j> and dC/d lam0 = 2 Re<M psi_0|r>."""
        lam0, mpsi, r = self._pi_rows(x)
        rc = r.conj()
        g = (rc[:, None, :] @ mpsi)[:, 0].real
        cost = reduce(np.add, np.einsum("ki,ki->k", rc, r).real)
        return float(cost), np.concatenate((lam0 * g[:, 1:], 2.0 * g[:, :1]),
                                           axis=1).ravel()

    def grad_vec(self, x) -> np.ndarray:
        return self.value_and_grad(x)[1]

    def residual_jacobian(self, x) -> tuple:
        """Residual r = lam0 M psi_0 - b of x, the parts stacked, and its
        Jacobian (r.size, n_params), block-diagonal over the parts, from
        ``_pi_rows``: dr/d lam_j = lam0 M psi_j / 2 and dr/d lam0 = M psi_0.
        A complex r and J come back real as [Re; Im] rows (real ones drop
        their zero Im rows), so r.r, returned third, is the cost and 2 J^T r
        its gradient."""
        lam0, mpsi, r = self._pi_rows(x)
        r = r.ravel()
        blocks = np.concatenate((0.5 * lam0[:, :, None] * mpsi[:, :, 1:],
                                 mpsi[:, :, :1]), axis=2)
        jac = (np.eye(len(self.parts))[:, None, :, None]
               * blocks[:, :, None, :]).reshape(r.size, -1)
        if r.imag.any() or jac.imag.any():
            r, jac = (np.concatenate((r.real, r.imag)),
                      np.concatenate((jac.real, jac.imag)))
        else:
            r, jac = r.real, jac.real
        return r, jac, float(r.dot(r))

    @cached_property
    def families(self) -> tuple:
        """Each part's two measured families, built on first use: (beta
        (K, dim), ||M'b|| (K,), |m_hat|^2 (K, dim), measured: K pairs of bool)
        with M'b = ifftn(conj(m_hat) fftn(b)) and beta = M'b / ||M'b||.
        A family whose value cannot depend on psi is not measured: the
        overlap where M'b = 0, the Fourier family where every |m_hat_p| is
        equal (M = I or a shift)."""
        layout, m_hat = self.parts[0].template.layout, self.template.m_hat
        mtb = grid_fft(m_hat.conj() * grid_fft(self.b, layout), layout,
                       inverse=True)
        norm = np.linalg.norm(mtb, axis=1)
        weight = np.abs(m_hat) ** 2
        top = weight.max(axis=1)
        measured = np.stack((
            norm > FLAT * np.sqrt(top) * np.linalg.norm(self.b, axis=1),
            np.ptp(weight, axis=1) > FLAT * top), axis=1).tolist()
        return mtb / np.where(norm > 0.0, norm, 1.0)[:, None], norm, \
            weight, measured

    def estimate_rows(self, xs, shots: int | None = None,
                      rng: np.random.Generator | None = None) -> np.ndarray:
        """Cost of every row of xs (B, n_params) from each part's two
        ``families``: ||b||^2 - 2 lam0 ||M'b|| Re<beta|psi> + lam0^2
        sum_p |m_hat_p|^2 |psi_hat_p|^2, psi_hat the unitary grid FFT of
        psi.  Exact mode contracts both.  Shot mode measures each family
        with one circuit of ``shots`` shots: the overlap by a Hadamard test
        against beta, the Fourier family by one multinomial draw over
        |psi_hat_p|^2.  It draws row by row, part by part, overlap first:
        the order of one call per row, so batching keeps the draws."""
        beta, norm, weight, measured = self.families
        x = self._rows(xs)
        psi = prepare_batch(self.parts[0].spec, x[:, :, :-1].reshape(
            -1, x.shape[2] - 1)).reshape(len(x), *self.b.shape)
        probs = np.abs(grid_fft(psi, self.parts[0].template.layout,
                                "ortho")) ** 2
        if shots is None:
            overlap = hadamard_test(np.broadcast_to(beta, psi.shape), psi)
        elif rng is None:
            raise SimulationError("shot mode needs the caller's random "
                                  "generator")
        else:  # an overlap left unmeasured is 0 to within FLAT
            overlap = np.zeros((len(x), len(norm)))
            # rounding can push a row's sum above 1; one sum per row of a
            # 2-D view, so a row's value does not depend on its batch
            flat = probs.reshape(-1, probs.shape[2])
            flat /= flat.sum(axis=1, keepdims=True)
            for r, (row, p) in enumerate(zip(psi, probs)):
                for k, (ov, fourier) in enumerate(measured):
                    if ov:
                        overlap[r, k] = hadamard_test(
                            beta[None, k], row[None, k], shots=shots,
                            rng=rng)[0]
                    if fourier:
                        p[k] = rng.multinomial(shots, p[k])
            # a measured Fourier row holds counts: weight / shots reads them
            # as frequencies
            weight = weight / np.array([[shots if f else 1.0]
                                        for _, f in measured])
        lam0 = x[:, :, -1]
        # vecdot reduces each row by itself, as one call per row would
        return self.offset + np.vecdot(lam0, lam0 * np.vecdot(
            probs, weight) - 2.0 * norm * overlap)


# ---------------------------------------------------------------------------
# Builders: each compiles its kind's template once per (layout, tau)
# ---------------------------------------------------------------------------

def _diag_expr(key: str) -> OpExpr:
    return OpExpr((OpTerm(1.0, (diag(key),)),))


def _part(name, layout, m_op, sources, binds=()) -> PartTemplate:
    """A part whose sources are (expression, tag) pairs."""
    exprs, tags = zip(*sources)
    return PartTemplate(name, layout, m_op, exprs, tags, binds)


def _derivative(op: OpExpr, layout):
    """The real part of op applied to a field, op compiled once."""
    form = compile_monomials(op, layout)
    return lambda f: form.apply(f[None, :])[0].real


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)  # shared by every step's cost
    return a


def _build_navier_stokes(problem: NavierStokes, layout, tau):
    ax = problem.component
    binds = ()
    rhs = _IDENT  # acting on u
    if problem.pressure is not None and layout.has_axis(ax):
        binds = ("adv_self",)
        rhs = rhs - (_diag_expr("adv_self")
                     * grad_op(ax, layout.spacing(ax))).scale(tau)
    for label in layout.axis_labels():
        rhs = rhs + laplacian_op(label, layout.spacing(label)).scale(
            problem.nu * tau)
    sources, fixed = [(rhs, "u")], {}
    if problem.pressure is not None:
        kind, val = problem.pressure
        if kind == "uniform":
            sources.append((OpExpr.identity(-tau / problem.rho), "pgrad"))
            fixed["pgrad"] = _frozen(float(val) * np.ones(layout.dim))
        else:
            sources.append((grad_op(ax, layout.spacing(ax)).scale(
                -tau / problem.rho), "p"))
            fixed["p"] = np.asarray(val, dtype=float)
    return (_part(problem.name, layout, _IDENT, sources, binds),), \
        lambda f: {**fixed, "u": f[-1], "adv_self": f[-1]}


def _build_einstein(problem: Einstein, layout, tau):
    ax_i, ax_n = problem.axes
    for ax in (ax_i, ax_n):
        if not layout.has_axis(ax):
            raise ProblemError(f"derivative axis {ax!r} missing from the grid")
    k = 8.0 * pi * problem.G * layout.spacing(ax_i) * layout.spacing(ax_n) \
        / problem.c ** 4
    t_field = _frozen(problem.tensor.samples(layout, ax_i))
    sources = ((OpExpr.single(shift(ax_i)), "g"), (OpExpr.identity(k), "T"))
    return (_part(problem.name, layout, OpExpr.single(shift(ax_i)),
                  sources),), lambda f: {"g": f[-1], "T": t_field}


_CYCLIC = {"x": ("y", "z"), "y": ("z", "x"), "z": ("x", "y")}


def _build_maxwell(problem: Maxwell, layout, tau):
    i = problem.component
    j, k = _CYCLIC[i]
    ext = problem.ext_fields or {}
    other = "E" if problem.which == "B" else "B"
    own = problem.which.lower()
    # dB_i/dt = -(curl E)_i ; dE_i/dt = +(curl B)_i / (mu0 eps0)
    sign = -tau if problem.which == "B" else tau / (problem.mu0 * problem.eps0)
    sources, fixed = [(_IDENT, own)], {}
    for d_ax, comp_ax, s in ((j, k, 1.0), (k, j, -1.0)):
        key = f"{other}_{comp_ax}"
        if key not in ext or not layout.has_axis(d_ax):
            continue
        sources.append((grad_op(d_ax, layout.spacing(d_ax)).scale(sign * s),
                        key))
        fixed[key] = np.asarray(ext[key], dtype=float)
    return (_part(problem.name, layout, _IDENT, sources),), \
        lambda f: {**fixed, own: f[-1]}


def _build_boussinesq(problem: Boussinesq, layout, tau):
    ax = layout.axes[0][0]
    dx = layout.spacing(ax)
    lap = laplacian_op(ax, dx)
    gr = grad_op(ax, dx)
    m_op = _IDENT - lap.scale(problem.beta)
    expr_u = m_op.scale(2.0) + lap.scale(tau * tau) \
        + (gr * _diag_expr("bq_u") * gr).scale(2.0 * problem.alpha * tau * tau)
    sources = ((expr_u, "u"), (m_op.scale(-1.0), "u_prev"))
    return (_part(problem.name, layout, m_op, sources, ("bq_u",)),), \
        lambda f: {"u": f[-1], "u_prev": f[-2], "bq_u": f[-1]}


def _build_lin_tsien(problem: LinTsien, layout, tau):
    if not (layout.has_axis("x") and layout.has_axis("y")):
        raise ProblemError("this equation needs x and y axes")
    gx = grad_op("x", layout.spacing("x"))
    lx = laplacian_op("x", layout.spacing("x"))
    ly = laplacian_op("y", layout.spacing("y"))
    ux = _derivative(gx, layout)
    expr_u = gx + (ly - _diag_expr("lt_ux") * lx).scale(0.5 * tau)
    return (_part(problem.name, layout, gx, ((expr_u, "u"),), ("lt_ux",)),), \
        lambda f: {"u": f[-1], "lt_ux": ux(f[-1])}


def _build_camassa_holm(problem: CamassaHolm, layout, tau):
    ax = layout.axes[0][0]
    dx = layout.spacing(ax)
    gr = grad_op(ax, dx)
    lap = laplacian_op(ax, dx)
    m_op = _IDENT - lap.scale(0.5)
    ux = _derivative(gr, layout)
    expr_u = _IDENT + (
        (_diag_expr("ch_ux") * lap).scale(2.0)
        + _diag_expr("ch_u") * gr * lap
        - _diag_expr("ch_lin") * gr
    ).scale(tau)
    sources = ((expr_u, "u"), (lap.scale(-0.5), "u_prev"))
    return (_part(problem.name, layout, m_op, sources,
                  ("ch_ux", "ch_u", "ch_lin")),), \
        lambda f: {"u": f[-1], "u_prev": f[-2], "ch_ux": ux(f[-1]),
                   "ch_u": f[-1], "ch_lin": 3.0 * f[-1] + 2.0 * problem.kappa}


def _build_dsw(problem: DSW, layout, tau):
    """Coupled pair: fields = [u, v] at the current step; one part each."""
    ax = layout.axes[0][0]
    dx = layout.spacing(ax)
    gr = grad_op(ax, dx)
    lap = laplacian_op(ax, dx)
    expr_uv = (_diag_expr("dsw_v") * gr).scale(-3.0 * tau)
    cost_u = _part(problem.name + "-u", layout, _IDENT,
                   ((_IDENT, "u"), (expr_uv, "v")), ("dsw_v",))
    m_v = _IDENT - (gr * lap).scale(2.0 * tau)
    expr_vv = _IDENT + (_diag_expr("dsw_u") * gr).scale(2.0 * tau)
    cost_v = _part(problem.name + "-v", layout, m_v,
                   ((expr_vv, "v"), (gr.scale(tau), "u")), ("dsw_u",))
    return (cost_u, cost_v), \
        lambda f: {"u": f[-2], "v": f[-1], "dsw_u": f[-2], "dsw_v": f[-1]}


def _build_hunter_saxton(problem: HunterSaxton, layout, tau):
    ax = layout.axes[0][0]
    dx = layout.spacing(ax)
    gr = grad_op(ax, dx)
    ux = _derivative(gr, layout)
    expr_u = gr + (
        _diag_expr("hs_ux").scale(0.5) * gr - gr * _diag_expr("hs_u") * gr
    ).scale(tau)
    return (_part(problem.name, layout, gr, ((expr_u, "u"),),
                  ("hs_ux", "hs_u")),), \
        lambda f: {"u": f[-1], "hs_ux": ux(f[-1]), "hs_u": f[-1]}


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


def compile_cost(problem, layout: RegisterLayout, tau: float) -> CostTemplate:
    """The kind's step cost compiled for one (layout, tau): every step of a
    run binds its history to the one template (``CostTemplate.bind``)."""
    check_tau(tau)
    if type(problem) not in _BUILDERS:
        raise ProblemError(f"unsupported problem {problem!r}")
    parts, values = _BUILDERS[type(problem)](problem, layout, tau)
    return CostTemplate(problem.name, parts, values, problem.history_depth)


def build_cost(problem, history, layout: RegisterLayout, tau: float,
               spec: AnsatzSpec):
    """Assemble the per-step cost from frozen history fields: a JointCost
    with one part per name in ``components(problem)``.

    ``history`` holds field arrays ordered oldest to newest; depth must match
    the equation's time order.  For the coupled system the two entries are
    the current (u, v) pair and the parts are optimized jointly.  Each call
    compiles the kind's cost anew; a run compiles once and binds each step
    (``evolve.run``).
    """
    return compile_cost(problem, layout, tau).bind(history, spec)
