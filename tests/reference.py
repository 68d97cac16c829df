"""Independent dense references for the tests: the circuit as a product of
np.kron matrices, every operator expression as a product of the oracle's
np.roll circulants and np.diag matrices, and the residual cost and its
parameter-shift gradient formed from them.  None of this shares code with
``prepare_batch`` or ``compile_monomials``."""
from functools import lru_cache, reduce
from math import sqrt

import numpy as np

from vqpde import oracle as orc
from vqpde.ansatz import AnsatzSpec
from vqpde.opexpr import OpExpr

_I2 = np.eye(2)
_P0 = np.diag([1.0, 0.0])
_P1 = np.diag([0.0, 1.0])
_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def kron_qubits(mats) -> np.ndarray:
    """Kronecker product of one matrix per qubit, qubit 0 the least
    significant factor."""
    return reduce(np.kron, reversed(mats))


def rotation_matrix(axis: str, theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    if axis == "Y":
        return np.array([[c, -s], [s, c]], dtype=complex)
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


@lru_cache(maxsize=None)
def entangler_matrix(n: int, entangler: str) -> np.ndarray:
    """One layer's CNOTs as one matrix: CNOT(c, t) = P0_c + P1_c X_t."""
    pairs = []
    if entangler != "none" and n > 1:
        pairs = [(q, q + 1) for q in range(n - 1)]
        if entangler == "ring" and n > 2:
            pairs.append((n - 1, 0))
    out = np.eye(2 ** n)
    for c, t in pairs:
        p0 = [_P0 if q == c else _I2 for q in range(n)]
        p1x = [_P1 if q == c else _X if q == t else _I2 for q in range(n)]
        out = (kron_qubits(p0) + kron_qubits(p1x)) @ out
    return out


def dft_matrix(dim: int) -> np.ndarray:
    """The unitary discrete Fourier transform, entry (j, k) exp(2 pi i jk /
    dim) / sqrt(dim): the QFT on dim amplitudes."""
    j = np.arange(dim)
    return np.exp(2j * np.pi * np.outer(j, j) / dim) / sqrt(dim)


def dense_circuit_state(spec: AnsatzSpec, lam) -> np.ndarray:
    n = spec.n_qubits
    dim = 2 ** n
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    if spec.qft_block:
        psi = dft_matrix(dim) @ psi
    k = 0
    for _ in range(spec.layers):
        for axis in spec.rotation_axes:
            layer = kron_qubits([rotation_matrix(axis, t) for t in lam[k:k + n]])
            psi = layer @ psi
            k += n
        psi = entangler_matrix(n, spec.entangler) @ psi
    return psi


def dense_reference(expr, layout, bindings=None) -> np.ndarray:
    """Dense matrix of an ``OpExpr`` or a sequence of ``OpTerm``s: per term,
    the product of its atoms' matrices, right to left, times its
    coefficient."""
    terms = expr.terms if isinstance(expr, OpExpr) else tuple(expr)
    out = np.zeros((layout.dim, layout.dim), dtype=complex)
    for term in terms:
        mat = np.eye(layout.dim)
        for atom in reversed(term.atoms):
            if atom.kind == "diag":
                factor = np.diag(np.asarray(bindings[atom.field], dtype=float))
            else:
                shift = orc.axis_operator(layout, atom.axis, orc.shift_matrix(
                    layout.axis_points(atom.axis)))
                factor = shift if atom.kind == "shift" else shift.T
            mat = factor @ mat
        out += term.coeff * mat
    return out


_RESIDUALS: dict = {}


def _residual_operators(part) -> tuple:
    """(R, b) of a cost part, built once per part; the cache holds the part
    itself so that its id stays unique."""
    if id(part) not in _RESIDUALS:
        t = part.template
        r = dense_reference(t.m_op, t.layout, part.bindings)
        b = sum(dense_reference(e, t.layout, part.bindings)
                @ np.asarray(s, dtype=float)
                for e, s in zip(t.exprs, part.samples))
        _RESIDUALS[id(part)] = (part, r, b)
    return _RESIDUALS[id(part)][1:]


def direct_cost(part, lam, lam0: float) -> float:
    """||lam0 R psi(lam) - sum_s S_s samples_s||^2 with R, S_s the dense
    references of the part's operators and psi the dense circuit state."""
    r, b = _residual_operators(part)
    res = lam0 * (r @ dense_circuit_state(part.spec, lam)) - b
    return float(np.vdot(res, res).real)


def shift_rule_grad(part, lam, lam0: float) -> np.ndarray:
    """Gradient of ``direct_cost`` by the +/- pi/2 parameter-shift rule on
    q = ||R psi||^2 and l = Re<b|R psi>, the cost being
    lam0^2 q - 2 lam0 l + ||b||^2: divisor 2 on q, 2 sqrt(2) on l (the
    state, not an expectation, is shifted), and the scale derivative
    2 lam0 q - 2 l."""
    r, b = _residual_operators(part)

    def split(row):
        m = r @ dense_circuit_state(part.spec, row)
        return np.vdot(m, m).real, np.vdot(b, m).real

    lam = np.asarray(lam, dtype=float)
    grad = np.empty(lam.size + 1)
    for k in range(lam.size):
        e = np.zeros(lam.size)
        e[k] = np.pi / 2
        (qp, lp), (qm, lm) = split(lam + e), split(lam - e)
        grad[k] = lam0 * lam0 * (qp - qm) / 2.0 \
            - 2.0 * lam0 * (lp - lm) / (2.0 * sqrt(2.0))
    q, l = split(lam)
    grad[-1] = 2.0 * lam0 * q - 2.0 * l
    return grad


def split_row(cost, x) -> list:
    """A ``JointCost`` row x cut into one (angles, scale) pair per part."""
    ends = np.cumsum([p.n_params for p in cost.parts])
    return [(b[:-1], float(b[-1]))
            for b in np.split(np.asarray(x, dtype=float), ends[:-1])]


def direct_joint_cost(cost, x) -> float:
    """``direct_cost`` summed over a ``JointCost``'s parts."""
    return sum(direct_cost(p, lam, lam0)
               for p, (lam, lam0) in zip(cost.parts, split_row(cost, x)))


def tagged_state(cost, bra: int, psi: np.ndarray) -> np.ndarray:
    """The amplitudes a term-list bra index names: psi for 0, else the
    normalized samples of source bra - 1."""
    if bra == 0:
        return psi
    samples = np.asarray(cost.samples[bra - 1], dtype=float)
    return samples / np.linalg.norm(samples)
