"""Three-time Leggett-Garg statistics for quantum dynamics and finite models.

Convention (declared in all outputs): two-valued measurements at times
t1 < t2 < t3 with one application of the step evolution between consecutive
times; each correlator C_ij comes from a run measuring at its two times
only, and K = C12 + C23 - C13 with classical bound 1. Every run starts from
the uniform mixture over the macro measurement's eigenstates: the
projectors' eigenvectors for quantum dynamics, the first declared eigenstate
preparation of each macro value for a finite model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .ontomodel import FiniteOntModel, apply_map
from .quantum import ProjMeasurement, StateVector, UnitaryMap
from .zoo import measurement_from_direction, rotation_unitary

# The value of each measurement outcome. K's classical bound of 1 assumes
# dichotomic values +-1.
OUTCOME_VALUES = (1.0, -1.0)


class LGICorrelators(NamedTuple):
    c12: float
    c23: float
    c13: float
    k: float


@dataclass(frozen=True)
class LGIProtocol:
    """Dichotomic measurement and a per-step unitary."""

    measurement: ProjMeasurement
    step: UnitaryMap

    def __post_init__(self) -> None:
        if self.measurement.n_outcomes != 2:
            raise ValueError("the protocol measurement must be dichotomic")
        if self.step.dim != self.measurement.dim:
            raise ValueError("step unitary and measurement dimensions differ")


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
    values = np.array(OUTCOME_VALUES)
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


def _correlators(pair) -> LGICorrelators:
    """C12, C23, C13 and K from ``pair(steps_before, steps_between)``, the
    correlator of a run measuring after ``steps_before`` steps and again
    ``steps_between`` steps later."""
    c12 = pair(0, 1)
    c23 = pair(1, 1)
    c13 = pair(0, 2)
    return LGICorrelators(c12, c23, c13, c12 + c23 - c13)


def quantum_correlators(protocol: LGIProtocol) -> LGICorrelators:
    """Sequential projective evaluation of C12, C23, C13 and K."""
    return _correlators(partial(_pair_correlator_quantum, protocol, _eigen_branches(protocol)))


@dataclass(frozen=True)
class LGIModelBinding:
    """Names inside a model realizing the protocol pieces."""

    measurement: str
    step_map: str


def _initial_weights(model: FiniteOntModel) -> np.ndarray:
    """Uniform mixture over the first declared eigenstate preparation of
    each macro value."""
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
    values = np.array(OUTCOME_VALUES)
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
    return _correlators(partial(_pair_correlator_model, model, binding, _initial_weights(model)))
