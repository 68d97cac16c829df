"""Symbolic algebra over shift/diagonal operator atoms.

An expression is a sum of scalar-weighted ordered products of atoms
(identity, cyclic shift per axis, its adjoint, and diagonal multiplication by
a named classical field).  Discrete derivative operators, residuals, and the
expanded cost superpositions are all values of this algebra; applying an
expression to a state resolves shift atoms against a register layout and
diagonal atoms against a field-binding table.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass, field as dfield
from itertools import product

import numpy as np

from .statevec import (
    RegisterLayout,
    SimulationError,
    apply_shift,  # noqa: F401  unused here; perfbench/tracing.py patches it
    shift_permutation,
)


@dataclass(frozen=True)
class OpAtom:
    """One factor: 'shift'/'shiftdag' carry an axis, 'diag' a field name."""

    kind: str  # shift | shiftdag | diag
    axis: str | None = None
    field: str | None = None

    def __post_init__(self):
        if self.kind in ("shift", "shiftdag"):
            if not self.axis:
                raise ValueError(f"{self.kind} atom needs an axis label")
        elif self.kind == "diag":
            if not self.field:
                raise ValueError("diag atom needs a field name")
        else:
            raise ValueError(f"unknown atom kind {self.kind!r}")

    def adjoint(self) -> "OpAtom":
        if self.kind == "shift":
            return OpAtom("shiftdag", axis=self.axis)
        if self.kind == "shiftdag":
            return OpAtom("shift", axis=self.axis)
        return self  # diagonal atoms hold real fields

    def is_unitary(self) -> bool:
        return self.kind != "diag"

    def label(self) -> str:
        if self.kind == "shift":
            return f"A[{self.axis}]"
        if self.kind == "shiftdag":
            return f"Adag[{self.axis}]"
        return f"D[{self.field}]"

    def _sort_key(self):
        return (self.axis, self.kind)


def shift(axis: str) -> OpAtom:
    return OpAtom("shift", axis=axis)


def shiftdag(axis: str) -> OpAtom:
    return OpAtom("shiftdag", axis=axis)


def diag(field: str) -> OpAtom:
    return OpAtom("diag", field=field)


def _commutes(a: OpAtom, b: OpAtom) -> bool:
    # Only shift-type atoms on different axes are reordered; diagonal atoms
    # and same-axis shifts keep their written order.
    return a.is_unitary() and b.is_unitary() and a.axis != b.axis


def _canonical_atoms(atoms) -> tuple:
    """Stable reordering using only adjacent swaps of commuting atoms."""
    atoms = list(atoms)
    changed = True
    while changed:
        changed = False
        for i in range(len(atoms) - 1):
            a, b = atoms[i], atoms[i + 1]
            if _commutes(a, b) and a._sort_key() > b._sort_key():
                atoms[i], atoms[i + 1] = b, a
                changed = True
    return tuple(atoms)


@dataclass(frozen=True)
class OpTerm:
    """coeff * (ordered product of atoms); empty product is the identity."""

    coeff: complex
    atoms: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "coeff", complex(self.coeff))
        object.__setattr__(self, "atoms", tuple(self.atoms))
        if not cmath.isfinite(self.coeff):
            raise ValueError("term coefficient must be finite")

    def label(self) -> str:
        return "*".join(a.label() for a in self.atoms) if self.atoms else "1"


@dataclass(frozen=True)
class OpExpr:
    """Canonical sum of terms: like atom sequences merged, zeros dropped."""

    terms: tuple = ()

    def __post_init__(self):
        merged: dict = {}
        order: list = []
        for t in self.terms:
            atoms = _canonical_atoms(t.atoms)
            k = tuple((a.kind, a.axis, a.field) for a in atoms)
            if k in merged:
                merged[k] = (merged[k][0] + complex(t.coeff), atoms)
            else:
                merged[k] = (complex(t.coeff), atoms)
                order.append(k)
        out = [
            OpTerm(c, atoms)
            for k in sorted(order)
            for c, atoms in [merged[k]]
            if abs(c) > 0.0
        ]
        object.__setattr__(self, "terms", tuple(out))

    # -- construction helpers ------------------------------------------------

    @classmethod
    def identity(cls, coeff: complex = 1.0) -> "OpExpr":
        return cls((OpTerm(coeff),))

    @classmethod
    def single(cls, atom: OpAtom, coeff: complex = 1.0) -> "OpExpr":
        return cls((OpTerm(coeff, (atom,)),))

    def __add__(self, other: "OpExpr") -> "OpExpr":
        return OpExpr(self.terms + other.terms)

    def __sub__(self, other: "OpExpr") -> "OpExpr":
        return self + other.scale(-1.0)

    def scale(self, c: complex) -> "OpExpr":
        return OpExpr(tuple(OpTerm(t.coeff * c, t.atoms) for t in self.terms))

    def __mul__(self, other: "OpExpr") -> "OpExpr":
        return expand_product([self, other])


# ---------------------------------------------------------------------------
# Discrete derivative builders
# ---------------------------------------------------------------------------

def grad_op(axis: str, delta: float) -> OpExpr:
    """Forward difference (1/delta)(A - 1)."""
    if delta <= 0:
        raise ValueError("grid spacing must be positive")
    return OpExpr((
        OpTerm(1.0 / delta, (shift(axis),)),
        OpTerm(-1.0 / delta),
    ))


def laplacian_op(axis: str, delta: float) -> OpExpr:
    """Symmetric second difference (1/delta^2)(Adag - 2 + A)."""
    if delta <= 0:
        raise ValueError("grid spacing must be positive")
    d2 = delta * delta
    return OpExpr((
        OpTerm(1.0 / d2, (shiftdag(axis),)),
        OpTerm(-2.0 / d2),
        OpTerm(1.0 / d2, (shift(axis),)),
    ))


def expand_product(factors) -> OpExpr:
    """Distribute a product of sums into a canonical sum of terms."""
    factors = list(factors)
    if not factors:
        raise ValueError("empty factor list")
    out = []
    for combo in product(*(f.terms for f in factors)):
        coeff = 1.0 + 0.0j
        atoms: list = []
        for t in combo:
            coeff *= t.coeff
            atoms.extend(t.atoms)
        out.append(OpTerm(coeff, tuple(atoms)))
    return OpExpr(tuple(out))


def adjoint(expr: OpExpr) -> OpExpr:
    return OpExpr(tuple(
        OpTerm(np.conj(t.coeff), tuple(a.adjoint() for a in reversed(t.atoms)))
        for t in expr.terms
    ))


# ---------------------------------------------------------------------------
# Application
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonomialForm:
    """An expression compiled for batched application: every term is a
    monomial matrix, so (expr psi)[j] = sum_t weight[t, j] psi[perm[t, j]]."""

    perm: np.ndarray    # (T, dim) source indices
    weight: np.ndarray  # (T, dim) complex
    identity: bool = False  # expr is 1: apply copies the rows

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """Apply to rows of raw amplitudes, shape (B, dim)."""
        if self.identity:  # in the sum's column-major layout: rounds alike
            return np.array(psi, dtype=complex, order="F")
        return (self.weight * psi[:, self.perm]).sum(axis=1)


@dataclass(frozen=True, eq=False)
class MonomialTemplate:
    """An expression's monomials resolved against a layout once, before any
    field is bound: each term's permutation and coefficient and, depth by
    depth from its rightmost diagonal atom, the field that atom reads and
    the gather that carries the field to the term's output index."""

    perm: np.ndarray     # (T, dim) source indices
    coeff: np.ndarray    # (T,) complex
    fields: tuple        # names the diagonal atoms read, in first-use order
    depths: tuple        # per depth: (rows, field index (R,), gather (R, dim))
    identity: bool       # expr is 1
    # the one form of a template that reads no field, built once
    constant: MonomialForm = dfield(init=False, default=None, repr=False)

    def __post_init__(self):
        if not self.fields:
            object.__setattr__(self, "constant", self._form(None))

    @classmethod
    def compile(cls, expr, layout: RegisterLayout) -> "MonomialTemplate":
        """``expr`` is an ``OpExpr`` or a sequence of ``OpTerm``s, compiled
        one row each (a term list repeats operators that an ``OpExpr``
        would merge)."""
        terms = expr.terms if isinstance(expr, OpExpr) else tuple(expr)
        dim = layout.dim
        perms, factors, srcs = [], [], {}
        for term in terms:
            perm, diags = np.arange(dim), []
            for atom in reversed(term.atoms):  # rightmost atom acts first
                if atom.kind == "diag":
                    diags.append((atom.field, np.arange(dim)))
                    continue
                if atom not in srcs:
                    srcs[atom] = shift_permutation(
                        layout, atom.axis,
                        "forward" if atom.kind == "shift" else "backward")
                src = srcs[atom]
                perm = perm[src]
                diags = [(f, g[src]) for f, g in diags]
            perms.append(perm)
            factors.append(diags)
        fields = tuple(dict.fromkeys(f for diags in factors for f, _ in diags))
        depths = []
        for d in range(max(map(len, factors), default=0)):
            rows = [t for t, diags in enumerate(factors) if len(diags) > d]
            depths.append((
                slice(None) if len(rows) == len(terms) else np.array(rows),
                np.array([fields.index(factors[t][d][0]) for t in rows]),
                np.array([factors[t][d][1] for t in rows])))
        perm = np.array(perms, dtype=np.intp).reshape(len(perms), dim)
        perm.setflags(write=False)
        return cls(perm, np.array([t.coeff for t in terms], dtype=complex),
                   fields, tuple(depths), terms == (OpTerm(1.0),))

    def bind(self, bindings=None) -> MonomialForm:
        """The form with every diagonal atom resolved against ``bindings``."""
        if self.constant is not None:
            return self.constant
        dim = self.perm.shape[1]
        values = []
        for name in self.fields:
            if bindings is None or name not in bindings:
                raise SimulationError(f"unresolved field reference {name!r}")
            v = np.asarray(bindings[name], dtype=float)
            if v.shape != (dim,):
                raise SimulationError(
                    f"diagonal of length {v.size} does not match state of "
                    f"dimension {dim}")
            values.append(v)
        return self._form(np.array(values))

    def _form(self, values) -> MonomialForm:
        """weight = coeff * (d_1 * (... * (d_n * 1))), each d_i a gathered
        field: the order ``compile_monomials`` has always multiplied in, so
        the weights are bitwise those of a form compiled anew."""
        weight = np.ones(self.perm.shape, dtype=complex)
        for rows, field, gather in self.depths:
            weight[rows] = values[field[:, None], gather] * weight[rows]
        weight = self.coeff[:, None] * weight
        weight.setflags(write=False)
        return MonomialForm(self.perm, weight, self.identity)


def compile_monomials(expr, layout: RegisterLayout,
                      bindings=None) -> MonomialForm:
    """Resolve shift atoms against the layout and diagonal atoms against the
    bindings once, for ``apply``: a ``MonomialTemplate`` bound at once."""
    return MonomialTemplate.compile(expr, layout).bind(bindings)


def block_diagonal(forms, dim: int) -> MonomialForm:
    """One form over K dim amplitudes that applies forms[k] to columns
    [k dim, (k + 1) dim); a shorter form is padded with weight-0 identity
    rows, which add exact zeros after its own terms.  One form is its own
    stack."""
    if len(forms) == 1:
        return forms[0]
    rows = max(len(f.perm) for f in forms)
    perm = np.tile(np.arange(len(forms) * dim), (rows, 1))
    weight = np.zeros(perm.shape, dtype=complex)
    for k, f in enumerate(forms):
        perm[:len(f.perm), k * dim:(k + 1) * dim] = f.perm + k * dim
        weight[:len(f.perm), k * dim:(k + 1) * dim] = f.weight
    for a in (perm, weight):
        a.setflags(write=False)
    return MonomialForm(perm, weight, all(f.identity for f in forms))


def apply_expr(expr, amplitudes, layout: RegisterLayout,
               bindings=None) -> np.ndarray:
    """``expr`` applied to one vector of grid amplitudes (real or complex)."""
    amps = np.asarray(amplitudes)
    if amps.ndim != 1 or amps.size != layout.dim:
        raise SimulationError(
            f"amplitude vector of length {amps.size} does not match "
            f"{layout.total_qubits} qubits")
    return compile_monomials(expr, layout, bindings).apply(amps[None, :])[0]


def apply_term(term: OpTerm, amplitudes, layout: RegisterLayout,
               bindings=None) -> np.ndarray:
    return apply_expr((term,), amplitudes, layout, bindings)
