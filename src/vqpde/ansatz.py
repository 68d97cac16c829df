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
    RegisterLayout,
    SimulationError,
    apply_gate,  # noqa: F401  unused here; perfbench/tracing.py patches it
    basis_permutation,
    kron_rows,
    qft,
    rotate,
    rotation_matrices,
)

_ENTANGLERS = ("chain", "ring", "none")
_ROTATIONS = ("Y", "Z")
BLOCK = 3  # qubits per rotation block: one matmul applies a layer's block


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
        start = QuantumState.zero(n)
        if self.qft_block:
            start = qft(start, RegisterLayout((("q", n, 1.0),)), "q")
        pairs = []
        if self.entangler != "none" and n > 1:
            pairs = [(q, q + 1) for q in range(n - 1)]
            if self.entangler == "ring" and n > 2:
                pairs.append((n - 1, 0))
        entangler = None
        if pairs:
            # a CNOT only permutes amplitudes, so the whole layer is one gather
            entangler = np.arange(2 ** n)
            for pair in pairs:
                entangler = entangler[basis_permutation("CNOT", pair, n)]
            entangler.setflags(write=False)
        kinds = tuple("RY" if a == "Y" else "RZ" for a in self.rotation_axes)
        return AnsatzPlan(start.amplitudes, kinds, entangler)


@dataclass(frozen=True)
class AnsatzPlan:
    """A compiled circuit: the start vector, the rotation gate of each axis
    of a layer, and the layer's CNOT entangler as one basis-index
    permutation (None when the entangler is the identity)."""

    start: np.ndarray
    kinds: tuple
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
        if not np.isfinite(self.lam0):
            raise SimulationError("scale must be finite")
        lam = lam.copy()
        lam.setflags(write=False)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "lam0", float(self.lam0))


def prepare_batch(spec: AnsatzSpec, lams) -> np.ndarray:
    """Raw amplitudes for a batch of parameter rows: lams (B, P) ->
    complex128 (B, 2**n), row i equal to ``prepare(spec, lams[i])``."""
    lams = np.asarray(lams, dtype=float)
    if lams.ndim != 2 or lams.shape[1] != spec.parameter_count:
        raise SimulationError(
            f"expected rows of {spec.parameter_count} parameters, "
            f"got shape {lams.shape}"
        )
    plan = spec.plan
    n, rows = spec.n_qubits, lams.shape[0]
    # angles as [axis][layer, row, qubit]
    angles = lams.reshape(rows, spec.layers, len(plan.kinds), n)
    angles = angles.transpose(2, 1, 0, 3)
    mats = [rotation_matrices(kind, angles[a])
            for a, kind in enumerate(plan.kinds)]
    # each block's (layer, row) matrices; the axes act in order, and
    # rotations on different blocks commute
    blocks = []
    for q in range(0, n, BLOCK):
        u = kron_rows(mats[0][..., q:q + BLOCK, :, :])
        for m in mats[1:]:
            u = kron_rows(m[..., q:q + BLOCK, :, :]) @ u
        blocks.append((q, u))
    psi = np.repeat(plan.start[None, :], rows, axis=0)
    for layer in range(spec.layers):
        for q, u in blocks:
            psi = rotate(psi, q, u[layer])
        if plan.entangler is not None:
            psi = psi[:, plan.entangler]
    return psi


def prepare(spec: AnsatzSpec, lam) -> QuantumState:
    """Deterministic normalized state for the given parameters."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (spec.parameter_count,):
        raise SimulationError(
            f"expected {spec.parameter_count} parameters, got {lam.size}"
        )
    return QuantumState(prepare_batch(spec, lam[None, :])[0], spec.n_qubits)

