"""Numerical workbench for macro-realism no-go analysis on quantum fragments.

Builds witness states and measurements, computes asymmetric overlaps on
finite ontological models, and certifies by linear programming that no
eigenstate-supported (or eigenstate-mixture) model reproduces the witness
fragment's quantum statistics.
"""

__version__ = "0.1.0"

from .quantum import (
    ProjMeasurement,
    StateVector,
    UnitaryMap,
    apply_unitary,
    basis_measurement,
    born,
    computational_measurement,
    gram,
)
from .witness import (
    AntidistReport,
    CertificationError,
    ContradictionReport,
    SweepRow,
    WitnessBundle,
    WitnessCoefficients,
    WitnessParams,
    build_fixing_unitary,
    build_witness,
    check_antidistinguishable,
    contradiction_gap,
    sweep,
    witness_coefficients,
)
from .ontomodel import (
    Bindings,
    Classification,
    FiniteOntModel,
    OverlapReport,
    QuantumFragment,
    ValidationReport,
    asymmetric_overlap,
    classify,
    kernel_set,
    predict,
    push_forward,
    validate,
)
from .zoo import (
    SphereGrid,
    beltrametti_bugajski_model,
    bloch_vector,
    deterministic_extension_model,
    emmr_toy_model,
    fibonacci_sphere_grid,
    kochen_specker_model,
    measurement_from_direction,
    paired_validation_grid,
    qubit_fragment,
    rotation_unitary,
    standard_qubit_fragment,
    state_from_bloch,
)
from .lp import (
    LinearProgram,
    LPOutcome,
    PivotBudgetError,
    solve_lp,
    verify_certificate,
)
from .exclusion import (
    ExclusionReport,
    WitnessExclusion,
    accessible_atoms,
    enumerate_atoms,
    witness_fragment,
)
from .lgi import (
    LGICorrelators,
    LGIModelBinding,
    LGIProtocol,
    model_correlators,
    quantum_correlators,
    rotation_protocol,
)
from .serialize import (
    fragment_from_json,
    fragment_to_json,
    model_from_json,
    model_to_json,
)

__all__ = [name for name in dir() if not name.startswith("_")]
