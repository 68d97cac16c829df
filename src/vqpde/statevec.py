"""Dense statevector simulator: gates, cyclic shifts, expectation estimation.

Conventions
-----------
Little-endian qubit order: basis index ``j`` has qubit 0 as its least
significant bit.  A register layout partitions the qubits into contiguous
axis registers (first axis occupies the lowest qubits); basis index ``j`` of
an axis register encodes grid point ``x_j = j * delta``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np

_SQRT2_INV = 1.0 / sqrt(2.0)


class SimulationError(ValueError):
    """Raised for invalid gate targets, axis labels, or dimension mismatches."""


def is_real(v) -> bool:
    """A real scalar that is not a bool: what every numeric setting takes."""
    return isinstance(v, (int, float, np.integer, np.floating)) \
        and not isinstance(v, bool)


@dataclass(frozen=True)
class QuantumState:
    """Immutable vector of 2^n complex amplitudes."""

    amplitudes: np.ndarray
    n_qubits: int

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size != 2 ** self.n_qubits:
            raise SimulationError(
                f"amplitude vector of length {amps.size} does not match "
                f"{self.n_qubits} qubits"
            )
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def zero(cls, n_qubits: int) -> "QuantumState":
        amps = np.zeros(2 ** n_qubits, dtype=complex)
        amps[0] = 1.0
        return cls(amps, n_qubits)


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered axis registers: (label, qubit count, grid spacing)."""

    axes: tuple  # of (label: str, n_qubits: int, delta: float)
    total_qubits: int = field(init=False, repr=False, compare=False)
    dim: int = field(init=False, repr=False, compare=False)  # 2^total_qubits

    def __post_init__(self):
        if any(isinstance(n, bool) or not isinstance(n, (int, np.integer))
               for _, n, _ in self.axes):
            raise SimulationError("every axis' qubit count must be an integer")
        axes = tuple((str(l), int(n), float(d)) for l, n, d in self.axes)
        if not axes:
            raise SimulationError("a layout needs at least one axis")
        seen = set()
        for label, n, d in axes:
            if not label:
                raise SimulationError("every axis needs a label")
            if n <= 0:
                raise SimulationError(f"axis {label!r} has no qubits")
            if not (np.isfinite(d) and d > 0):
                raise SimulationError(
                    f"axis {label!r} needs a positive finite spacing")
            if label in seen:
                raise SimulationError(f"duplicate axis label {label!r}")
            seen.add(label)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "total_qubits", sum(n for _, n, _ in axes))
        object.__setattr__(self, "dim", 2 ** self.total_qubits)

    def axis_labels(self) -> tuple:
        return tuple(label for label, _, _ in self.axes)

    def has_axis(self, label: str) -> bool:
        return any(l == label for l, _, _ in self.axes)

    def axis_info(self, label: str):
        """Return (qubit offset, n_qubits, delta) for an axis."""
        offset = 0
        for l, n, d in self.axes:
            if l == label:
                return offset, n, d
            offset += n
        raise SimulationError(f"unknown axis {label!r}")

    def spacing(self, label: str) -> float:
        return self.axis_info(label)[2]

    def axis_points(self, label: str) -> int:
        return 2 ** self.axis_info(label)[1]

    def grid_shape(self) -> tuple:
        """Points per axis, in axis order."""
        return tuple(2 ** n for _, n, _ in self.axes)


def layout_1d(n_qubits: int, delta: float, label: str = "x") -> RegisterLayout:
    return RegisterLayout(((label, n_qubits, delta),))


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gate:
    """Tagged gate: kind plus optional rotation/phase angle."""

    kind: str
    theta: float = 0.0

    _ONE_QUBIT = frozenset({"H", "RX", "RY", "RZ", "X", "Z"})
    _TWO_QUBIT = frozenset({"CNOT", "CPHASE", "SWAP"})

    def __post_init__(self):
        if self.kind not in self._ONE_QUBIT | self._TWO_QUBIT:
            raise SimulationError(f"unknown gate kind {self.kind!r}")
        if not np.isfinite(self.theta):
            raise SimulationError("gate angle must be finite")

    @property
    def n_targets(self) -> int:
        return 1 if self.kind in self._ONE_QUBIT else 2

    def matrix(self) -> np.ndarray:
        k = self.kind
        if k == "H":
            return np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV
        if k == "X":
            return np.array([[0, 1], [1, 0]], dtype=complex)
        if k == "Z":
            return np.array([[1, 0], [0, -1]], dtype=complex)
        c, s = np.cos(self.theta / 2), np.sin(self.theta / 2)
        if k == "RX":
            return np.array([[c, -1j * s], [-1j * s, c]])
        if k == "RY":
            return np.array([[c, -s], [s, c]], dtype=complex)
        if k == "RZ":
            return np.diag([c - 1j * s, c + 1j * s])
        raise SimulationError(f"no single-qubit matrix for {k!r}")


# ---------------------------------------------------------------------------
# Batched kernel: rows of raw amplitudes, shape (B, 2**n)
# ---------------------------------------------------------------------------

def rotate(psi: np.ndarray, qubit: int, u: np.ndarray) -> np.ndarray:
    """Apply a 2**k x 2**k matrix to qubits ``qubit .. qubit+k-1`` of every
    row, in one matmul; ``u`` is one matrix or one per row, (..., 2**k,
    2**k) for rows psi (..., 2**n), and rows and matrices broadcast.
    Returns a new (..., 2**n) array."""
    *rows, dim = psi.shape
    size, low = u.shape[-1], 1 << qubit
    v = psi.reshape(*rows, dim // (size * low), size, low)
    out = np.matmul(u[..., None, :, :], v)
    return out.reshape(*out.shape[:-3], dim)


def basis_permutation(kind: str, targets, n_qubits: int) -> np.ndarray:
    """Source index of every output amplitude for CNOT (control, target) or
    SWAP; both gates only permute basis states, and both are involutions."""
    a, b = targets
    j = np.arange(2 ** n_qubits)
    if kind == "CNOT":
        return j ^ (((j >> a) & 1) << b)
    if kind == "SWAP":
        differ = ((j >> a) ^ (j >> b)) & 1
        return j ^ (differ << a) ^ (differ << b)
    raise SimulationError(f"{kind!r} is not a basis permutation")


def apply_gate(state: QuantumState, gate: Gate, targets) -> QuantumState:
    """Apply a gate to the given qubit indices; returns a fresh state."""
    targets = tuple(int(q) for q in targets)
    n = state.n_qubits
    if len(set(targets)) != len(targets):
        raise SimulationError(f"duplicate targets {targets}")
    if any(q < 0 or q >= n for q in targets):
        raise SimulationError(f"target out of range for {n} qubits: {targets}")
    if len(targets) != gate.n_targets:
        raise SimulationError(
            f"gate {gate.kind} expects {gate.n_targets} targets, got {len(targets)}"
        )

    psi = state.amplitudes[None, :]
    if gate.n_targets == 1:
        psi = rotate(psi, targets[0], gate.matrix())
    elif gate.kind == "CPHASE":
        j = np.arange(psi.shape[1])
        both = ((j >> targets[0]) & (j >> targets[1]) & 1).astype(bool)
        psi = psi * np.where(both, np.exp(1j * gate.theta), 1.0)
    else:
        psi = psi[:, basis_permutation(gate.kind, targets, n)]
    return QuantumState(psi[0], n)


# ---------------------------------------------------------------------------
# Axis-register operations
# ---------------------------------------------------------------------------

def apply_shift(state: QuantumState, layout: RegisterLayout, axis: str,
                direction: str = "forward") -> QuantumState:
    """Cyclic modular increment of an axis register.

    ``forward`` maps grid index j to (j+1) mod N; ``backward`` is the inverse.
    """
    if layout.total_qubits != state.n_qubits:
        raise SimulationError("layout does not match state size")
    src = shift_permutation(layout, axis, direction)
    return QuantumState(state.amplitudes[src], state.n_qubits)


def shift_permutation(layout: RegisterLayout, axis: str,
                      direction: str = "forward") -> np.ndarray:
    """Source index of every output amplitude of ``apply_shift``: output
    grid index a along the axis reads a - 1 (forward) or a + 1 (backward),
    mod N, with the other axes' bits unchanged."""
    if direction not in ("forward", "backward"):
        raise SimulationError(f"unknown shift direction {direction!r}")
    offset, n_ax, _ = layout.axis_info(axis)
    j = np.arange(layout.dim)
    a = (j >> offset) & ((1 << n_ax) - 1)
    step = -1 if direction == "forward" else 1
    return j + ((((a + step) % (1 << n_ax)) - a) << offset)


# ---------------------------------------------------------------------------
# Hadamard-test expectation estimation
# ---------------------------------------------------------------------------

def shot_count(shots) -> int:
    """``shots`` as an int, or SimulationError naming it: a shot count is
    a positive integer, and neither a bool nor a float is one."""
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)) \
            or shots < 1:
        raise SimulationError(
            f"shot count must be a positive integer, got {shots!r}")
    return int(shots)


def hadamard_test(bras, kets, *, shots: int | None = None,
                  rng: np.random.Generator | None = None) -> np.ndarray:
    """Estimate Re <bra|ket> for every row of raw amplitudes, shape
    (..., dim): both rows normalized states, the ket already prepared.

    Exact mode (``shots=None``) contracts the statevector directly.  Shot mode
    simulates the ancilla measurement record of the two-state Hadamard test:
    the ancilla X expectation equals the real part, and each shot is a +/-1
    Bernoulli draw, so the estimator is unbiased with standard error
    sqrt((1 - Re^2) / shots).  Each row's binomial draw is taken from
    ``rng`` in row order (C order of the leading shape): the draws of one
    call per row.
    """
    bras, kets = np.asarray(bras), np.asarray(kets)
    if bras.ndim < 2 or bras.shape != kets.shape:
        raise SimulationError(
            f"bra rows {bras.shape} do not match ket rows {kets.shape}")
    # vecdot conjugates the bras and reduces each row by itself, so a row's
    # value does not depend on its batch
    value = np.vecdot(bras, kets).real
    if shots is None:
        return value
    if rng is None:
        raise SimulationError("shot mode needs the caller's random generator")
    shots = shot_count(shots)
    # one scalar draw per row: the draws of one array call, without its
    # per-call cost of several microseconds
    est = [2.0 * rng.binomial(shots, min(max((1.0 + v) / 2.0, 0.0), 1.0))
           / shots - 1.0 for v in value.ravel().tolist()]
    return np.array(est).reshape(value.shape)
