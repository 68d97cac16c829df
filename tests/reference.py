"""Independent dense references for the tests: the circuit as a product of
np.kron matrices, every operator expression as a product of the oracle's
np.roll circulants and np.diag matrices, the grid's Fourier transform as an
np.kron of per-axis DFT matrices, and the residual cost, its term list, its
two measured families and its parameter-shift gradient formed from them.
None of this shares code with ``prepare_batch``, ``compile_monomials`` or
``numpy.fft``."""
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
        r = dense_reference(t.m_op, t.layout, part.arrays)
        b = sum(dense_reference(e, t.layout, part.arrays)
                @ np.asarray(part.arrays[tag], dtype=float)
                for e, tag in zip(t.exprs, t.tags))
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
    return [(b[:-1], float(b[-1]))
            for b in np.split(np.asarray(x, dtype=float), len(cost.parts))]


def direct_joint_cost(cost, x) -> float:
    """``direct_cost`` summed over a ``JointCost``'s parts."""
    return sum(direct_cost(p, lam, lam0)
               for p, (lam, lam0) in zip(cost.parts, split_row(cost, x)))


def tagged_state(cost, bra: int, psi: np.ndarray) -> np.ndarray:
    """The amplitudes a term-list bra index names: psi for 0, else the
    normalized samples of source bra - 1."""
    if bra == 0:
        return psi
    samples = np.asarray(cost.arrays[cost.template.tags[bra - 1]],
                         dtype=float)
    return samples / np.linalg.norm(samples)


def grid_dft(layout) -> np.ndarray:
    """The unitary forward DFT over the layout's axis registers, numpy's
    sign exp(-2 pi i jk / N): one conjugated ``dft_matrix`` per axis, the
    first axis the least significant np.kron factor."""
    return reduce(np.kron, [dft_matrix(2 ** n).conj()
                            for _, n, _ in reversed(layout.axes)])


def two_families(part, psi) -> tuple:
    """The dense two-family reference of a cost part at prepared rows psi
    (B, dim): (Re<beta|psi> (B,), ||M'b||, |F psi|^2 (B, dim),
    |diag(F M F')|^2 (dim,)) with M dense, F = ``grid_dft`` and
    beta = M'b / ||M'b||; the cost is ||b||^2 - 2 lam0 ||M'b|| Re<beta|psi>
    + lam0^2 |F psi|^2 . |diag(F M F')|^2."""
    m, b = _residual_operators(part)
    f = grid_dft(part.template.layout)
    mtb = m.conj().T @ b
    norm = float(np.linalg.norm(mtb))
    beta = mtb / norm if norm else mtb
    weight = np.abs(np.diag(f @ m @ f.conj().T)) ** 2
    return (psi @ beta.conj()).real, norm, np.abs(psi @ f.T) ** 2, weight


def family_cost(part, psi, lam0s) -> np.ndarray:
    """The part's exact cost at rows psi (B, dim) from ``two_families``."""
    overlap, norm, probs, weight = two_families(part, psi)
    lam0s = np.asarray(lam0s, dtype=float)
    return part.joint.offset - 2.0 * lam0s * norm * overlap \
        + lam0s ** 2 * (probs @ weight)


def term_list_cost(part, psi, lam0s) -> np.ndarray:
    """offset + sum of lam0^p Re(coeff <bra|T|psi>) over the part's
    ``term_list()`` at rows psi (B, dim), each term's dense matrix applied
    to every row at once (p = 2 for bra psi, else 1)."""
    lam0s = np.asarray(lam0s, dtype=float)
    total = np.full(len(psi), part.joint.offset)
    for coeff, bra, term in part.term_list():
        op = dense_reference([term], part.template.layout, part.arrays)
        bras = psi if bra == 0 else tagged_state(part, bra, psi[0])
        value = np.real(coeff * np.sum(np.conj(bras) * (psi @ op.T), axis=1))
        total += value * (lam0s ** 2 if bra == 0 else lam0s)
    return total


def direct_cost_rows(part, psi, lam0s) -> np.ndarray:
    """``direct_cost`` at rows psi (B, dim), every row at once."""
    r, b = _residual_operators(part)
    res = np.asarray(lam0s, dtype=float)[:, None] * (psi @ r.T) - b
    return np.sum(np.abs(res) ** 2, axis=1)
