"""Parametrized state preparation: layered rotations with entanglers.

The family is an optional leading Fourier block followed by ``layers``
repetitions of single-qubit rotations (a fixed subset of {Y, Z} axes) and an
entangling pattern of CNOTs.  A prepared state together with a real scale
``lambda0`` represents the physical field lambda0 * amplitudes.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
        # per block, element (i, j) of its matrix on axis a is the product
        # over qubits m of entry _SLOTS[a][bit m of i][bit m of j] * n + q + m
        slots, blocks = np.array([_SLOTS[a] for a in self.rotation_axes]), []
        for q in range(0, n, BLOCK):
            k = min(BLOCK, n - q)
            bits = (np.arange(2 ** k)[:, None] >> np.arange(k)) & 1
            t = slots[:, bits[:, None], bits[None, :]] * n + q + np.arange(k)
            blocks.append((q, np.moveaxis(t, -1, 1)))
        if n <= BLOCK:  # one block: its last axis' rows take the CNOTs
            blocks[0][1][-1] = blocks[0][1][-1][:, perm]
        entangler = perm if pairs and n > BLOCK else None
        for a in (start, *(t for _, t in blocks)):
            a.setflags(write=False)
        return AnsatzPlan(start, tuple(blocks), entangler)


@dataclass(frozen=True)
class AnsatzPlan:
    """A compiled circuit: the start vector (real unless a Fourier block
    leads), per block of up to ``BLOCK`` qubits its first qubit and its
    index tables (axis, k, 2^k, 2^k) into a call's entry tables, and the
    layer's CNOT entangler as one basis-index permutation (None when it is
    the identity or folded into the last axis' tables)."""

    start: np.ndarray
    blocks: tuple
    entangler: np.ndarray | None


@dataclass(frozen=True)
class VariationalState:
    """(ansatz parameters, scale) pair; the field is lam0 * prepare(spec, lam)."""

    spec: AnsatzSpec
    lam: np.ndarray
    lam0: float

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        if lam.shape != (self.spec.parameter_count,):
            raise SimulationError(
                f"expected {self.spec.parameter_count} parameters, got {lam.size}"
            )
        if not (np.isfinite(lam).all() and np.isfinite(self.lam0)):
            raise SimulationError("parameters and scale must be finite")
        lam = lam.copy()
        lam.setflags(write=False)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "lam0", float(self.lam0))


def block_matrices(spec: AnsatzSpec, lams: np.ndarray) -> list:
    """Each block's first qubit and its (layer, row) matrices for parameter
    rows (B, P): per axis the product of k gathers from the entry table,
    qubit by qubit; the axes act in order.  Real for Y rotations alone."""
    axes, n = spec.rotation_axes, spec.n_qubits
    # half angles as [axis][layer, row, qubit], and per axis the entry table
    half = lams.reshape(len(lams), spec.layers, len(axes), n).transpose(
        2, 1, 0, 3) * 0.5
    c, s = np.cos(half), np.sin(half)
    entries = [np.concatenate((c[a], s[a], -s[a]) if axis == "Y" else
                              (c[a] - 1j * s[a], c[a] + 1j * s[a],
                               np.zeros_like(c[a])), axis=-1)
               for a, axis in enumerate(axes)]
    mats = []
    for q, tables in spec.plan.blocks:
        u = None
        for e, t in zip(entries, tables):
            g = e[..., t[0]]
            for idx in t[1:]:
                g = g * e[..., idx]
            u = g if u is None else g @ u
        mats.append((q, u))
    return mats


def prepare_batch(spec: AnsatzSpec, lams) -> np.ndarray:
    """Raw amplitudes for a batch of parameter rows: lams (B, P) ->
    complex128 (B, 2**n), row i equal to ``prepare(spec, lams[i])``.  A real
    circuit (Y rotations only, no Fourier block) runs in float64."""
    lams = np.asarray(lams, dtype=float)
    if lams.ndim != 2 or lams.shape[1] != spec.parameter_count:
        raise SimulationError(
            f"expected rows of {spec.parameter_count} parameters, "
            f"got shape {lams.shape}"
        )
    plan, mats = spec.plan, block_matrices(spec, lams)
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
                psi = psi[:, plan.entangler]
    return np.ascontiguousarray(psi.reshape(-1, plan.start.size), complex)


def prepare(spec: AnsatzSpec, lam) -> QuantumState:
    """Deterministic normalized state for the given parameters."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (spec.parameter_count,):
        raise SimulationError(
            f"expected {spec.parameter_count} parameters, got {lam.size}"
        )
    return QuantumState(prepare_batch(spec, lam[None, :])[0], spec.n_qubits)

