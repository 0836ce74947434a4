"""Three-time Leggett-Garg statistics for quantum dynamics and finite models.

Convention (declared in all outputs): two-valued measurements at times
t1 < t2 < t3 with one application of the step evolution between consecutive
times; each correlator C_ij comes from a run measuring at its two times
only, and K = C12 + C23 - C13 with classical bound 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ontomodel import FiniteOntModel, apply_map
from .quantum import ProjMeasurement, StateVector, UnitaryMap
from .zoo import measurement_from_direction, rotation_unitary


class LGICorrelators(NamedTuple):
    c12: float
    c23: float
    c13: float
    k: float


@dataclass(frozen=True)
class LGIProtocol:
    """Dichotomic measurement, a per-step unitary, and the outcome values."""

    measurement: ProjMeasurement
    step: UnitaryMap
    outcome_values: tuple = (1.0, -1.0)
    times: tuple = ("t1", "t2", "t3")

    def __post_init__(self) -> None:
        if self.measurement.n_outcomes != 2:
            raise ValueError("the protocol measurement must be dichotomic")
        if self.step.dim != self.measurement.dim:
            raise ValueError("step unitary and measurement dimensions differ")
        if len(self.outcome_values) != 2:
            raise ValueError("need one value per outcome")
        if len(self.times) != 3:
            raise ValueError("three time labels required")


def rotation_protocol(theta: float) -> LGIProtocol:
    """Qubit protocol: measure along z, rotate the Bloch sphere by ``theta``
    about y between times."""
    meas = measurement_from_direction((0.0, 0.0, 1.0), labels=("+", "-"))
    return LGIProtocol(measurement=meas, step=rotation_unitary((0.0, 1.0, 0.0), theta))


def _eigen_branches(protocol: LGIProtocol) -> list:
    """Uniform mixture over the measurement's two eigenstates."""
    branches = []
    for proj in protocol.measurement.projectors:
        vals, vecs = np.linalg.eigh(proj)
        branches.append((0.5, StateVector.normalized(vecs[:, np.argmax(vals)])))
    return branches


def _pair_correlator_quantum(
    protocol: LGIProtocol, branches, steps_before: int, steps_between: int
) -> float:
    u = protocol.step.matrix
    values = np.asarray(protocol.outcome_values, dtype=float)
    projs = protocol.measurement.projectors
    total = 0.0
    for weight, state in branches:
        amp = state.amplitudes
        for _ in range(steps_before):
            amp = u @ amp
        for k, proj in enumerate(projs):
            collapsed = proj @ amp
            p_first = float(np.real(np.vdot(amp, collapsed)))
            if p_first <= 0.0:
                continue
            post = collapsed / np.sqrt(p_first)
            for _ in range(steps_between):
                post = u @ post
            p_second = np.real(np.einsum("i,kij,j->k", post.conj(), projs, post))
            total += weight * p_first * values[k] * float(values @ p_second)
    return total


def quantum_correlators(
    protocol: LGIProtocol, initial: StateVector | None = None
) -> LGICorrelators:
    """Sequential projective evaluation of C12, C23, C13 and K.

    ``initial=None`` starts from the uniform mixture over the measurement's
    eigenstates, which makes the non-invasiveness comparison with mixture
    models meaningful.
    """
    if initial is None:
        branches = _eigen_branches(protocol)
    else:
        if initial.dim != protocol.measurement.dim:
            raise ValueError("initial state dimension mismatch")
        branches = [(1.0, initial)]
    c12 = _pair_correlator_quantum(protocol, branches, 0, 1)
    c23 = _pair_correlator_quantum(protocol, branches, 1, 1)
    c13 = _pair_correlator_quantum(protocol, branches, 0, 2)
    return LGICorrelators(c12, c23, c13, c12 + c23 - c13)


@dataclass(frozen=True)
class LGIModelBinding:
    """Names inside a model realizing the protocol pieces.

    ``initial`` defaults to the uniform mixture over the first declared
    eigenstate preparation of each macro value.
    """

    measurement: str
    step_map: str
    outcome_values: tuple = (1.0, -1.0)
    initial: tuple | None = None


def _initial_weights(model: FiniteOntModel, binding: LGIModelBinding) -> np.ndarray:
    if binding.initial is not None:
        names = binding.initial
    else:
        labels = model.outcome_labels[model.macro_measurement]
        try:
            names = tuple(model.eigenstate_preps[q][0] for q in labels)
        except KeyError as exc:
            raise ValueError(
                "no declared eigenstate preparation to build the initial mixture"
            ) from exc
    vecs = [model.preparation(n) for n in names]
    return np.mean(vecs, axis=0)


def _apply_steps(model: FiniteOntModel, weights: np.ndarray, map_name: str, steps: int) -> np.ndarray:
    out = weights
    for _ in range(steps):
        out = apply_map(model, out, map_name)
    return out


def _pair_correlator_model(
    model: FiniteOntModel,
    binding: LGIModelBinding,
    mu0: np.ndarray,
    steps_before: int,
    steps_between: int,
) -> float:
    resp = model.response(binding.measurement)
    if resp.shape[0] != 2:
        raise ValueError("bound measurement is not dichotomic")
    labels = model.outcome_labels[binding.measurement]
    update_table = model.updates.get(binding.measurement)
    if update_table is None:
        raise ValueError(
            f"measurement {binding.measurement!r} has no update rule; "
            "sequences need post-measurement re-preparation"
        )
    values = np.asarray(binding.outcome_values, dtype=float)
    mu = _apply_steps(model, mu0, binding.step_map, steps_before)
    first = resp @ mu
    total = 0.0
    for k, label in enumerate(labels):
        if first[k] <= 0.0:
            continue
        try:
            post_name = update_table[label]
        except KeyError:
            raise ValueError(f"no update rule for outcome {label!r}") from None
        post = model.preparation(post_name)
        post = _apply_steps(model, post, binding.step_map, steps_between)
        second = resp @ post
        total += first[k] * values[k] * float(values @ second)
    return total


def model_correlators(model: FiniteOntModel, binding: LGIModelBinding) -> LGICorrelators:
    """Exhaustive outcome-tree evaluation of the three correlators on a
    finite model with measurement update rules."""
    mu0 = _initial_weights(model, binding)
    c12 = _pair_correlator_model(model, binding, mu0, 0, 1)
    c23 = _pair_correlator_model(model, binding, mu0, 1, 1)
    c13 = _pair_correlator_model(model, binding, mu0, 0, 2)
    return LGICorrelators(c12, c23, c13, c12 + c23 - c13)
