"""Finite-dimensional complex state vectors, unitaries, and projective measurements.

Everything here is plain dense numpy in double precision, aimed at Hilbert
space dimensions 2..16. Values are immutable after construction and every
constructor enforces its structural invariants up to an explicit tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

NORM_TOL = 1e-12      # normalization of states / probability vectors
STRUCT_TOL = 1e-10    # unitarity, projector structure, completeness
MAX_DIM = 16


def _as_complex_vector(values) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if arr.ndim != 1:
        raise ValueError(f"expected a vector, got shape {arr.shape}")
    return arr


def _as_complex_matrix(values) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _check_dim(dim: int) -> None:
    if not 2 <= dim <= MAX_DIM:
        raise ValueError(f"dimension {dim} outside supported range 2..{MAX_DIM}")


@dataclass(frozen=True)
class StateVector:
    """Unit vector in C^d, defined up to global phase."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_complex_vector(self.amplitudes)
        _check_dim(arr.shape[0])
        with np.errstate(over="ignore", invalid="ignore"):   # an overflowing norm is off by inf
            norm_sq = float(np.sum(np.abs(arr) ** 2))
        if not abs(norm_sq - 1.0) <= NORM_TOL:
            raise ValueError(f"state not normalized: sum |a_i|^2 = {norm_sq!r}")
        object.__setattr__(self, "amplitudes", _freeze(arr))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @staticmethod
    def normalized(values) -> "StateVector":
        arr = _as_complex_vector(values)
        norm = np.linalg.norm(arr)
        if norm == 0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(arr / norm)

    def inner(self, other: "StateVector") -> complex:
        """<self|other>."""
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def same_ray(self, other: "StateVector", tol: float = STRUCT_TOL) -> bool:
        """Equality up to global phase: | |<x|y>| - 1 | <= tol."""
        return abs(abs(self.inner(other)) - 1.0) <= tol


@dataclass(frozen=True)
class UnitaryMap:
    """d x d unitary matrix."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = _as_complex_matrix(self.matrix)
        _check_dim(mat.shape[0])
        with np.errstate(over="ignore", invalid="ignore"):   # overflow: inf or nan, rejected
            dev = np.linalg.norm(mat.conj().T @ mat - np.eye(mat.shape[0]))
        if not dev <= STRUCT_TOL:
            raise ValueError(f"matrix not unitary: ||U^dag U - I||_F = {float(dev)!r}")
        object.__setattr__(self, "matrix", _freeze(mat))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class ProjMeasurement:
    """Complete projective measurement: labelled, mutually orthogonal projectors."""

    outcomes: tuple
    projectors: np.ndarray  # shape (n_outcomes, d, d)

    def __post_init__(self) -> None:
        outcomes = tuple(str(o) for o in self.outcomes)
        if len(set(outcomes)) != len(outcomes):
            raise ValueError("outcome labels must be distinct")
        projs = np.array(self.projectors, dtype=complex)
        if projs.ndim != 3 or projs.shape[1] != projs.shape[2]:
            raise ValueError(f"projectors must have shape (n, d, d), got {projs.shape}")
        if projs.shape[0] != len(outcomes):
            raise ValueError("one projector per outcome required")
        _check_dim(projs.shape[1])
        d = projs.shape[1]
        for k, p in enumerate(projs):
            if not np.abs(p - p.conj().T).max() <= STRUCT_TOL:
                raise ValueError(f"projector {outcomes[k]} not Hermitian")
            if not np.abs(p @ p - p).max() <= STRUCT_TOL:
                raise ValueError(f"projector {outcomes[k]} not idempotent")
        if not np.abs(projs.sum(axis=0) - np.eye(d)).max() <= STRUCT_TOL:
            raise ValueError("projectors do not sum to the identity")
        for i in range(len(projs)):
            for j in range(i + 1, len(projs)):
                if not np.abs(projs[i] @ projs[j]).max() <= STRUCT_TOL:
                    raise ValueError(
                        f"projectors {outcomes[i]} and {outcomes[j]} not orthogonal"
                    )
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "projectors", _freeze(projs))

    @property
    def dim(self) -> int:
        return self.projectors.shape[1]

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)


def basis_measurement(vectors: Sequence[StateVector], labels: Sequence[str] | None = None) -> ProjMeasurement:
    """Measurement of the orthonormal basis spanned by ``vectors``."""
    if not vectors:
        raise ValueError("empty basis")
    d = vectors[0].dim
    if len(vectors) != d:
        raise ValueError(f"need {d} basis vectors, got {len(vectors)}")
    projs = np.stack([np.outer(v.amplitudes, v.amplitudes.conj()) for v in vectors])
    return ProjMeasurement(tuple(range(d) if labels is None else labels), projs)


def computational_measurement(dim: int, labels: Sequence[str] | None = None) -> ProjMeasurement:
    eye = np.eye(dim, dtype=complex)
    states = [StateVector(eye[i]) for i in range(dim)]
    return basis_measurement(states, labels)


def born(state: StateVector, meas: ProjMeasurement) -> np.ndarray:
    """Outcome probabilities <psi|P_k|psi> as a probability vector."""
    if state.dim != meas.dim:
        raise ValueError(f"dimension mismatch: state {state.dim}, measurement {meas.dim}")
    amp = state.amplitudes
    probs = np.einsum("i,kij,j->k", amp.conj(), meas.projectors, amp).real
    probs = np.clip(probs, 0.0, 1.0)
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"born probabilities sum to {float(total)!r}")
    return probs / total


def apply_unitary(u: UnitaryMap, state: StateVector) -> StateVector:
    """U|psi>, renormalized against accumulated rounding: the one way the
    package applies a unitary to a state."""
    if u.dim != state.dim:
        raise ValueError(f"dimension mismatch: unitary {u.dim}, state {state.dim}")
    return StateVector.normalized(u.matrix @ state.amplitudes)


def gram(states: Sequence[StateVector]) -> np.ndarray:
    """Hermitian matrix of inner products, entry (i, j) being
    ``states[i].inner(states[j])`` bit for bit. The anti-distinguishability
    check reads its overlaps from it."""
    if not states:
        raise ValueError("gram of an empty state list")
    if len({s.dim for s in states}) != 1:
        raise ValueError("states must share a dimension")
    return np.array([[s.inner(t) for t in states] for s in states], dtype=complex)
