"""Parametrized state preparation: layered rotations with entanglers.

The family is an optional leading Fourier block followed by ``layers``
repetitions of single-qubit rotations (a fixed subset of {Y, Z} axes) and an
entangling pattern of CNOTs.  A prepared state together with a real scale
``lambda0`` represents the physical field lambda0 * amplitudes.

A spec compiles once (``AnsatzSpec.plan``) into index tables that form every
layer's block matrices for a batch of parameter rows.  A register of up to
``BLOCK`` qubits, or of up to ``Y_BLOCK`` with Y rotations alone, is one
block that also holds the CNOTs, so a layer is one matmul; a wider register
takes one matmul per block of ``BLOCK`` qubits and an entangler gather.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .statevec import (
    QuantumState,
    SimulationError,
    apply_gate,  # noqa: F401  unused here; perfbench/tracing.py patches it
    basis_permutation,
    rotate,
)

_ENTANGLERS = ("chain", "ring", "none")
_ROTATIONS = ("Y", "Z")
BLOCK = 3  # qubits per rotation block: one matmul applies a layer's block
# widest register of Y rotations alone that is one block, formed from two
# halves; with Z rotations its complex matrices (4 KiB per layer and row)
# made a 4-layer, 20-row call about twice as slow as blocks of BLOCK qubits
Y_BLOCK = 4
# entry of each 2x2 rotation element, in units of n, in a call's entry table
# [c | s | -s] (Y) or [exp(-i theta/2) | exp(i theta/2) | 0] (Z)
_SLOTS = {"Y": ((0, 2), (1, 0)), "Z": ((0, 2), (2, 1))}


@dataclass(frozen=True)
class AnsatzSpec:
    """Shape of the preparation circuit; parameter layout is
    lambda[layer][rotation-axis][qubit], flattened in that order."""

    n_qubits: int
    layers: int = 1
    entangler: str = "chain"
    qft_block: bool = False
    rotation_axes: tuple = ("Y",)

    def __post_init__(self):
        object.__setattr__(self, "rotation_axes", tuple(self.rotation_axes))
        for name in ("n_qubits", "layers"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise SimulationError(f"{name} must be an integer")
            object.__setattr__(self, name, int(v))
        if self.n_qubits < 1:
            raise SimulationError("ansatz needs at least one qubit")
        if self.layers < 1:
            raise SimulationError("ansatz needs at least one layer")
        if self.entangler not in _ENTANGLERS:
            raise SimulationError(f"unknown entangler {self.entangler!r}")
        if not self.rotation_axes or any(a not in _ROTATIONS
                                         for a in self.rotation_axes):
            raise SimulationError(
                f"rotation axes must be a nonempty subset of {_ROTATIONS}"
            )
        twice = [a for a in _ROTATIONS if self.rotation_axes.count(a) > 1]
        if twice:  # its two angles would act as one rotation
            raise SimulationError(f"rotation axis {twice[0]!r} is repeated "
                                  f"in {self.rotation_axes}")

    @property
    def parameter_count(self) -> int:
        return self.layers * self.n_qubits * len(self.rotation_axes)

    @cached_property
    def plan(self) -> "AnsatzPlan":
        """The circuit, compiled on first use and kept on the spec."""
        n = self.n_qubits
        # |0...0>, real, or its Fourier transform: the uniform superposition
        start = (np.full(2 ** n, 1 / np.sqrt(2 ** n), complex)
                 if self.qft_block else np.eye(1, 2 ** n)[0])
        pairs = []
        if self.entangler != "none" and n > 1:
            pairs = [(q, q + 1) for q in range(n - 1)]
            if self.entangler == "ring" and n > 2:
                pairs.append((n - 1, 0))
        perm = np.arange(2 ** n)  # a CNOT only permutes amplitudes
        for pair in pairs:
            perm = perm[basis_permutation("CNOT", pair, n)]
        # a register of up to BLOCK qubits, or of up to Y_BLOCK with Y
        # rotations alone, is one block, which takes the CNOTs; else blocks
        # of BLOCK qubits
        width = n if n <= BLOCK or (
            n <= Y_BLOCK and self.rotation_axes == ("Y",)) else BLOCK
        slots = np.array([_SLOTS[a] for a in self.rotation_axes])
        firsts = range(0, n, width)
        blocks = tuple((q, _block_tables(slots, n, q, min(width, n - q),
                                         perm if width == n else None))
                       for q in firsts)
        entangler = perm if pairs and width < n else None
        wide = width > BLOCK
        pauli = (_y_shift_rows(n),) if wide else tuple(
            _pi_tables(q, min(width, n - q), self.rotation_axes,
                       self.layers, n) for q in firsts)
        tables = (t for _, axes in blocks for groups in axes
                  for group in groups for t in group if t is not None)
        for a in (start, *tables, *sum(pauli, ())):
            a.setflags(write=False)
        return AnsatzPlan(start, blocks, entangler, pauli, wide)


def _block_tables(slots: np.ndarray, n: int, q: int, k: int,
                  perm: np.ndarray | None) -> tuple:
    """Per rotation axis, the groups (table, place) that form the matrix of
    the block of qubits q .. q + k - 1 from a call's entry tables.  On axis
    a, element (i, j) of a group of the m qubits q + p + r, r < m, is the
    product over r of entry _SLOTS[a][bit r of i][bit r of j] * n + q + p
    + r: one index table (m, 2^m, 2^m).  Up to BLOCK qubits are one group,
    which is the block; a wider block is the product of its halves'
    groups, each gathered to the block's entries by ``place`` (2^k, 2^k):
    2^m x 2^m gathers per half instead of 2^k x 2^k per qubit.  A block
    that spans the register takes the CNOTs' ``perm`` in its last axis'
    rows."""
    groups = []
    for p, m in [(0, k)] if k <= BLOCK else [(k // 2, k - k // 2),
                                               (0, k // 2)]:
        bits = (np.arange(2 ** m)[:, None] >> np.arange(m)) & 1
        t = slots[:, bits[:, None], bits[None, :]] * n + q + p + np.arange(m)
        h = (np.arange(2 ** k) >> p) % 2 ** m  # the group's bits of a row
        groups.append((np.moveaxis(t, -1, 1), None if m == k else
                       h[:, None] * 2 ** m + h[None, :]))
    tables = [tuple((t[a], place) for t, place in groups)
              for a in range(len(slots))]
    if perm is not None:
        tables[-1] = tuple((t[:, perm], None) if place is None else
                           (t, place[perm]) for t, place in tables[-1])
    return tuple(tables)


def _y_shift_rows(n: int) -> tuple:
    """-i Y_m on a state, R(t + pi) = R(t) (-i Y): amplitude c of
    (-i Y_m) psi is amplitude index[m, c] = c ^ 2^m of psi times factor[m,
    c], -1 where bit m of c is 0 and +1 where it is 1; index (n, 2^n) and
    factor (n, 2^n, 1, 1)."""
    c, m = np.arange(2 ** n), np.arange(n)[:, None]
    return c ^ (1 << m), (2.0 * ((c >> m) & 1) - 1.0)[..., None, None]


def _pi_tables(q: int, k: int, axes: tuple, layers: int, n: int) -> tuple:
    """The pi rows of the block of qubits q .. q + k - 1.  R(t + pi) =
    R(t) (-i G), so a shifted row's block matrix at its layer is u (-i G_m)
    for its qubit m before its axis: column c of u (-i G_m) is column
    index[c] of u times factor[c], with -iY_m: index c ^ 2^m, factor +/-1,
    and -iZ_m: index c, factor -/+i (the upper sign where bit m of c is 0),
    index and factor (axis, k, 2^k).  A call's source rows are u's entries
    as (2^k, 2^k, layer), the same times each of ``scales`` (the first
    axis' factors other than 1), then per axis a >= 1 the products for its
    shifts as (k, 2^k, 2^k, layer); src (P + 1, 2^k, 2^k, layer) is the
    source row of every pi row's entries."""
    size, na = 2 ** k, len(axes)
    c, m = np.arange(size), np.arange(k)
    sign = 1.0 - 2.0 * ((c >> m[:, None]) & 1)
    index = np.array([c ^ (1 << m[:, None]) if a == "Y" else
                      np.broadcast_to(c, sign.shape) for a in axes])
    factor = np.array([sign if a == "Y" else -1j * sign for a in axes])
    scales = np.array([-1.0] if axes[0] == "Y" else [-1j, 1j])
    slab, i, col = size * size * layers, c[:, None], c[None, :]
    src = np.empty((1 + layers * na * n, size, size, layers), np.int32)
    src[:] = (i * size + col)[..., None] * layers + np.arange(layers)
    for layer in range(layers):
        for a in range(na):
            rows = 1 + q + m + n * (a + na * layer)
            if a == 0:
                f = factor[0][:, None, :]
                which = sum((f == v) * (1 + j) for j, v in enumerate(scales))
                src[rows, :, :, layer] = which * slab + (
                    i * size + index[0][:, None, :]) * layers + layer
            else:
                src[rows, :, :, layer] = slab * (
                    1 + len(scales) + (a - 1) * k) + ((
                        m[:, None, None] * size + i) * size + col) \
                    * layers + layer
    return index, factor, scales, src


@dataclass(frozen=True)
class AnsatzPlan:
    """A compiled circuit: the start vector (real unless a Fourier block
    leads), per block its first qubit and per axis its ``_block_tables``
    into a call's entry tables, the layer's CNOT entangler as one
    basis-index permutation (None when it is the identity or folded into
    the one block), and per block the ``_pi_tables`` of its pi rows, or,
    when one block is wider than ``BLOCK`` (``wide``), its
    ``_y_shift_rows``."""

    start: np.ndarray
    blocks: tuple
    entangler: np.ndarray | None
    pauli: tuple
    wide: bool


def axis_factors(spec: AnsatzSpec, lams: np.ndarray) -> list:
    """Each block's first qubit and per rotation axis, in order, its
    (layer, row) matrices for parameter rows (B, P): the product over the
    block's qubits of their 2x2 rotations' entries, laid out in memory as
    (2^k, 2^k, layer, row).  Real for Y rotations."""
    axes, n = spec.rotation_axes, spec.n_qubits
    # half angles as [axis][qubit, layer, row], and per axis the entry table
    half = lams.reshape(len(lams), spec.layers, len(axes), n).transpose(
        2, 3, 1, 0) * 0.5
    c, s = np.cos(half), np.sin(half)
    entries = [np.concatenate((c[a], s[a], -s[a]) if axis == "Y" else
                              (c[a] - 1j * s[a], c[a] + 1j * s[a],
                               np.zeros_like(c[a])))
               for a, axis in enumerate(axes)]
    mats = []
    for q, tables in spec.plan.blocks:
        gs = []
        for e, groups in zip(entries, tables):
            u = None
            for t, place in groups:
                # (m, 2^m, 2^m, layer, row): each qubit's slice is
                # contiguous, so each product is one elementwise kernel
                g = e.take(t, axis=0)
                f = g[0]
                for h in g[1:]:
                    f = f * h
                if place is not None:  # a half, gathered to the block's
                    f = f.reshape(len(f) ** 2, *f.shape[2:]).take(place,
                                                                  axis=0)
                u = f if u is None else np.multiply(u, f, out=u)
            gs.append(u.transpose(2, 3, 0, 1))
        mats.append((q, tuple(gs)))
    return mats


def _then(u: np.ndarray, g: np.ndarray) -> np.ndarray:
    """u, then g: their product g @ u."""
    return g @ u


def block_matrices(spec: AnsatzSpec, lams: np.ndarray) -> list:
    """Each block's first qubit and its (layer, row) matrices for parameter
    rows (B, P): the ``axis_factors``, the axes acting in order."""
    return [(q, reduce(_then, gs)) for q, gs in axis_factors(spec, lams)]


def _angle_rows(spec: AnsatzSpec, lams) -> np.ndarray:
    """lams as float rows (B, P), or SimulationError."""
    lams = np.asarray(lams, dtype=float)
    if lams.ndim != 2 or lams.shape[1] != spec.parameter_count:
        raise SimulationError(
            f"expected {spec.parameter_count} parameters per row, got "
            f"shape {lams.shape}"
        )
    return lams


def _run(spec: AnsatzSpec, mats: list) -> np.ndarray:
    """The rows that ``block_matrices``' mats prepare, (B, 2**n) complex;
    mats may hold matrices (layer, ..., 2^k, 2^k) for rows of any shape,
    which come back flattened in order."""
    plan = spec.plan
    if len(mats) == 1:
        # one block holds the entangler: one matmul, ~15 us under rotate's
        psi = plan.start[:, None]
        for layer in range(spec.layers):
            psi = mats[0][1][layer] @ psi
    else:
        psi = plan.start[None, :]
        for layer in range(spec.layers):
            for q, u in mats:
                psi = rotate(psi, q, u[layer])
            if plan.entangler is not None:
                psi = psi[..., plan.entangler]
    return np.ascontiguousarray(psi.reshape(-1, plan.start.size), complex)


def prepare_batch(spec: AnsatzSpec, lams) -> np.ndarray:
    """Raw amplitudes for a batch of parameter rows: lams (B, P) ->
    complex128 (B, 2**n), row i equal to ``prepare(spec, lams[i])``.  A real
    circuit (Y rotations only, no Fourier block) runs in float64."""
    return _run(spec, block_matrices(spec, _angle_rows(spec, lams)))


def prepare_pi_rows(spec: AnsatzSpec, lams) -> np.ndarray:
    """The P + 1 pi rows of every base row: lams (B, P) -> complex128
    (P + 1, B, 2**n), row 0 ``prepare_batch(spec, lams)`` bit for bit and
    row j the state at lams + pi e_j, up to rounding.  The axis factors are
    built once, for the B base rows.  Since R(t + pi) = R(t) (-i G), row j
    differs from row 0 only in its rotation's block matrix at its layer,
    which takes the Pauli -i G before that rotation's axis: a column
    gather of the later axes' product (``AnsatzPlan.pauli``) times the
    earlier axes' product.  Every row then runs through prepare_batch's
    products.  One block wider than ``BLOCK`` takes ``_wide_pi_rows``."""
    lams = _angle_rows(spec, lams)
    if not len(lams):  # the reshapes below cannot infer a row count of 0
        return np.zeros((spec.parameter_count + 1, 0, spec.plan.start.size),
                        complex)
    if spec.plan.wide:
        return _wide_pi_rows(spec, lams)
    b, mats = len(lams), []
    for (q, gs), (index, factor, scales, src) in zip(
            axis_factors(spec, lams), spec.plan.pauli):
        u = reduce(_then, gs)
        flat = u.transpose(2, 3, 0, 1).reshape(-1, b)  # a row per entry
        source = [flat, *(flat * f for f in scales)]
        for a in range(1, len(gs)):
            shifted = reduce(_then, gs[a:]).take(index[a], axis=-1) \
                * factor[a]
            shifted = shifted.transpose(0, 1, 3, 2, 4) @ reduce(
                _then, gs[:a])[:, :, None]
            source.append(shifted.transpose(2, 3, 4, 0, 1).reshape(-1, b))
        rows = np.concatenate(source).take(src, axis=0).transpose(
            3, 0, 4, 1, 2)
        # every matrix needs u's strides, since numpy multiplies a
        # contiguous matrix (by BLAS) and a strided one (by its own loop)
        # with different rounding: the gather lays them out as
        # axis_factors does, and a product of two axes is C-contiguous
        mats.append((q, np.ascontiguousarray(rows) if u.flags.c_contiguous
                     else rows))
    return _run(spec, mats).reshape(len(src), b, spec.plan.start.size)


def _wide_pi_rows(spec: AnsatzSpec, lams: np.ndarray) -> np.ndarray:
    """``prepare_pi_rows`` on one block wider than ``BLOCK`` (Y rotations
    alone, so pi row 1 + j shifts qubit j % n at layer j // n).  Rather
    than gather every pi row's matrix at every layer, 2^2n entries per row
    and layer, row j takes u (-i Y) psi as u ((-i Y) psi): before its
    layer, its state is gathered and signed by ``_y_shift_rows``, and one
    matmul per layer runs every row, row 0 as prepare_batch does."""
    n, b, start = spec.n_qubits, len(lams), spec.plan.start
    (_, (u,)), = axis_factors(spec, lams)  # (layer, B, 2^n, 2^n)
    (index, factor), = spec.plan.pauli
    psi = np.empty((1 + spec.parameter_count, b, start.size, 1), start.dtype)
    psi[...] = start[:, None]
    qubit = np.arange(n)[:, None]
    for layer in range(spec.layers):
        rows = psi[1 + layer * n:1 + (layer + 1) * n]
        rows[...] = (rows[qubit, :, index] * factor).transpose(0, 2, 1, 3)
        psi = u[layer] @ psi
    return np.ascontiguousarray(psi[..., 0], complex)


def prepare(spec: AnsatzSpec, lam) -> QuantumState:
    """Deterministic normalized state for the given parameters."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (spec.parameter_count,):
        raise SimulationError(
            f"expected {spec.parameter_count} parameters, got {lam.size}"
        )
    return QuantumState(prepare_batch(spec, lam[None, :])[0], spec.n_qubits)

