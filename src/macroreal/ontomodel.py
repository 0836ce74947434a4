"""Finite ontological models over a discrete set of ontic atoms.

A model carries preparation measures (probability vectors over atoms),
stochastic maps, and per-measurement response matrices, together with the
bookkeeping a macro-realism analysis needs: which preparations count as
operational eigenstates of the designated macro observable, and which
preparations realize which quantum state (the delta sets). Queries are pure;
models are immutable, and registering a pushed-forward preparation returns a
new model. Each preparation's support is computed once per model, on first
use, and ``with_preparation`` carries the supports already computed over to
the new model.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .quantum import ProjMeasurement, born

SUPPORT_EPS = 1e-12        # membership threshold for supports
KERNEL_EPS = 1e-9          # membership threshold for kernel sets
PROB_TOL = 1e-12           # stochasticity of preparations / maps / responses
EIGENPREP_TOL = 1e-10      # certainty requirement on declared eigenstate preps
DETERMINISM_TOL = 1e-10    # 0/1 response columns for the SSMR condition
MIXTURE_RESIDUAL_TOL = 1e-9
MIXTURE_BAND = 1e-3        # relative half-width of the band around MIXTURE_RESIDUAL_TOL
                           # where scipy's nnls, not a certificate, decides condition (b)
NNLS_ROUNDING = 2.0**-44   # rounding allowance, relative, in NNLS gradients and residuals


@dataclass(frozen=True)
class QuantumFragment:
    """Finite catalogue of states, unitaries, and measurements with one
    designated macro observable."""

    dim: int
    states: dict
    unitaries: dict
    measurements: dict
    macro_observable: str

    def __post_init__(self) -> None:
        for name, s in self.states.items():
            if s.dim != self.dim:
                raise ValueError(f"state {name!r} has dim {s.dim}, fragment dim {self.dim}")
        for name, u in self.unitaries.items():
            if u.dim != self.dim:
                raise ValueError(f"unitary {name!r} has dim {u.dim}, fragment dim {self.dim}")
        for name, m in self.measurements.items():
            if m.dim != self.dim:
                raise ValueError(f"measurement {name!r} has dim {m.dim}, fragment dim {self.dim}")
        if self.macro_observable not in self.measurements:
            raise ValueError(f"macro observable {self.macro_observable!r} not in measurements")
        object.__setattr__(self, "states", dict(self.states))
        object.__setattr__(self, "unitaries", dict(self.unitaries))
        object.__setattr__(self, "measurements", dict(self.measurements))

    @property
    def macro(self) -> ProjMeasurement:
        return self.measurements[self.macro_observable]

    def born(self, state_name: str, meas_name: str) -> np.ndarray:
        return born(self.states[state_name], self.measurements[meas_name])


def _stochastic(values, shape: tuple, what: str) -> np.ndarray:
    """Read-only float copy of ``values`` with nonnegative entries whose
    columns (axis 0) sum to 1 within ``PROB_TOL``. ``shape`` is checked as a
    numpy shape, where -1 takes the array's own extent. A read-only float64
    array that owns its data is kept, not copied: models share such arrays
    as they share their own."""
    if (isinstance(values, np.ndarray) and values.dtype == np.float64
            and values.flags.owndata and not values.flags.writeable):
        arr = values
    else:
        arr = np.array(values, dtype=float)
    if arr.ndim != len(shape) or any(want not in (-1, got) for want, got in zip(shape, arr.shape)):
        raise ValueError(f"{what}: expected shape {shape}, got {arr.shape}")
    if arr.min(initial=0.0) < -PROB_TOL:
        raise ValueError(f"{what}: negative entry {float(arr.min())!r}")
    with np.errstate(over="ignore"):   # a sum that overflows is off by inf
        off = float(np.abs(arr.sum(axis=0) - 1.0).max(initial=0.0))
    if not off <= PROB_TOL:
        raise ValueError(f"{what}: columns not stochastic, a sum is off 1 by {off!r}")
    arr.setflags(write=False)
    return arr


def _check_map(mat, n: int, name: str) -> np.ndarray:
    arr = np.asarray(mat)
    if arr.ndim != 1:
        return _stochastic(arr, (n, n), f"map {name!r}")
    # deterministic map given as target indices per atom: whole numbers in
    # range, so NaN and 0.7 fail and the cast below truncates nothing
    arr = arr.astype(float)
    if (
        arr.shape != (n,)
        or not (arr.min(initial=0) >= 0 and arr.max(initial=0) < n)
        or not (arr == np.floor(arr)).all()
    ):
        raise ValueError(f"map {name!r}: bad deterministic target array")
    targets = arr.astype(int)
    targets.setflags(write=False)
    return targets


def _registered(names, preparations: dict, what: str) -> tuple:
    """``names`` as a tuple, each checked to name a registered preparation."""
    names = tuple(names)
    for pname in names:
        if pname not in preparations:
            raise ValueError(f"{what} names unknown preparation {pname!r}")
    return names


@dataclass(frozen=True, eq=False)
class FiniteOntModel:
    """Ontic atoms 0..atoms-1 with preparations, maps, responses, and the
    macro-realism declarations.

    ``responses[m]`` has shape (outcomes, atoms) with stochastic columns;
    ``outcome_labels[m]`` names its rows. ``maps`` values are either dense
    column-stochastic matrices or integer target arrays (deterministic
    maps). ``eigenstate_preps`` maps each macro value to the preparation
    names declared as its operational eigenstates; ``delta_sets`` maps a
    state name to the preparations that realize it; ``updates`` maps a
    measurement and outcome label to the re-prepared preparation name.

    Models compare and hash by identity: they hold arrays and memoized
    supports, so equal fields do not make two models interchangeable.
    """

    atoms: int
    preparations: dict
    responses: dict
    outcome_labels: dict
    macro_measurement: str
    eigenstate_preps: dict = field(default_factory=dict)
    maps: dict = field(default_factory=dict)
    updates: dict = field(default_factory=dict)
    delta_sets: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = self.atoms
        if n <= 0:
            raise ValueError("atom count must be positive")
        preparations = {
            name: _stochastic(vec, (n,), f"preparation {name!r}")
            for name, vec in self.preparations.items()
        }
        responses = {
            mname: _stochastic(resp, (-1, n), f"response {mname!r}")
            for mname, resp in self.responses.items()
        }
        labels = {}
        for mname, arr in responses.items():
            lab = self.outcome_labels.get(mname)
            lab = tuple(str(x) for x in (range(arr.shape[0]) if lab is None else lab))
            if len(lab) != arr.shape[0]:
                raise ValueError(f"response {mname!r}: {len(lab)} labels for {arr.shape[0]} rows")
            labels[mname] = lab
        if self.macro_measurement not in responses:
            raise ValueError(f"macro measurement {self.macro_measurement!r} has no response matrix")
        maps = {name: _check_map(m, n, name) for name, m in self.maps.items()}

        macro_labels = labels[self.macro_measurement]
        eigen = {}
        for q, names in self.eigenstate_preps.items():
            q = str(q)
            if q not in macro_labels:
                raise ValueError(f"eigenstate declaration for unknown macro value {q!r}")
            names = _registered(names, preparations, f"eigenstate declaration for {q!r}")
            if not names:
                raise ValueError(f"eigenstate declaration for {q!r} is empty")
            row = responses[self.macro_measurement][macro_labels.index(q)]
            for pname in names:
                certainty = float(row @ preparations[pname])
                if certainty < 1.0 - EIGENPREP_TOL:
                    raise ValueError(
                        f"preparation {pname!r} yields {q!r} with probability "
                        f"{certainty!r}, not 1"
                    )
            eigen[q] = names
        updates = {}
        for mname, table in self.updates.items():
            if mname not in responses:
                raise ValueError(f"update rule for unknown measurement {mname!r}")
            table = {str(k): str(v) for k, v in table.items()}
            for out_label in table:
                if out_label not in labels[mname]:
                    raise ValueError(f"update rule for unknown outcome {out_label!r} of {mname!r}")
            _registered(table.values(), preparations, f"update rule for {mname!r}")
            updates[mname] = table
        delta = {
            str(sname): _registered(names, preparations, f"delta set of {sname!r}")
            for sname, names in self.delta_sets.items()
        }

        object.__setattr__(self, "preparations", preparations)
        object.__setattr__(self, "responses", responses)
        object.__setattr__(self, "outcome_labels", labels)
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "eigenstate_preps", eigen)
        object.__setattr__(self, "updates", updates)
        object.__setattr__(self, "delta_sets", delta)
        # preparation name -> support(preparation); not a dataclass field
        object.__setattr__(self, "_supports", {})

    # -- resolution helpers -------------------------------------------------

    def preparation(self, name: str) -> np.ndarray:
        try:
            return self.preparations[name]
        except KeyError:
            raise ValueError(f"unknown preparation {name!r}") from None

    def support(self, name: str) -> np.ndarray:
        """Read-only ascending atom indices of ``support(preparation(name))``,
        computed on first use and kept for the model's lifetime."""
        atoms = self._supports.get(name)
        if atoms is None:
            atoms = support(self.preparation(name))
            atoms.setflags(write=False)
            self._supports[name] = atoms
        return atoms

    def response(self, name: str) -> np.ndarray:
        try:
            return self.responses[name]
        except KeyError:
            raise ValueError(f"unknown measurement {name!r}") from None

    def target_preparations(self, target: str) -> tuple:
        """Resolve an overlap target: a preparation name, a state with a
        declared delta set, or a macro value with declared eigenstates."""
        if target in self.preparations:
            return (target,)
        if target in self.delta_sets and self.delta_sets[target]:
            return self.delta_sets[target]
        if target in self.eigenstate_preps:
            return self.eigenstate_preps[target]
        raise ValueError(
            f"target {target!r} is neither a preparation nor a state with "
            "declared realizing preparations"
        )

    def with_preparation(
        self,
        name: str,
        weights: np.ndarray,
        *,
        delta_of: str | None = None,
    ) -> "FiniteOntModel":
        """New model with one more registered preparation (closure under
        transformations is realized by registering push-forward results).

        Only the new vector is checked: nothing else changes, and the rest
        of the model was checked when it was built.
        """
        if name in self.preparations:
            raise ValueError(f"preparation {name!r} already registered")
        preps = dict(self.preparations)
        preps[name] = _stochastic(weights, (self.atoms,), f"preparation {name!r}")
        delta = dict(self.delta_sets)
        if delta_of is not None:
            delta[delta_of] = delta.get(delta_of, ()) + (name,)
        model = copy.copy(self)
        object.__setattr__(model, "preparations", preps)
        object.__setattr__(model, "delta_sets", delta)
        # its own memo: a shared dict would let siblings see each other's names
        object.__setattr__(model, "_supports", dict(self._supports))
        return model


def support(weights: np.ndarray) -> np.ndarray:
    """Atom indices carrying more than ``SUPPORT_EPS`` weight."""
    return np.where(np.asarray(weights) > SUPPORT_EPS)[0]


def _support_mask(model: FiniteOntModel, names: Iterable[str]) -> np.ndarray:
    """Boolean union over atoms of the supports of the named preparations,
    read from their weights: the memo is left alone, and one comparison per
    preparation is cheaper than scattering its memoized indices."""
    mask = np.zeros(model.atoms, dtype=bool)
    for name in names:
        mask |= model.preparation(name) > SUPPORT_EPS
    return mask


def predict(model: FiniteOntModel, preparation: str, measurement: str) -> np.ndarray:
    """Outcome distribution: sum_atoms mu(atom) P(outcome | atom)."""
    mu = model.preparation(preparation)
    probs = model.response(measurement) @ mu
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"prediction sums to {float(total)!r}")
    return np.clip(probs, 0.0, 1.0) / total


def apply_map(model: FiniteOntModel, weights: np.ndarray, map_name: str) -> np.ndarray:
    """Unnormalised image of ``weights`` under a registered map."""
    try:
        gamma = model.maps[map_name]
    except KeyError:
        raise ValueError(f"unknown map {map_name!r}") from None
    if gamma.ndim == 1:
        return np.bincount(gamma, weights=weights, minlength=model.atoms)
    return gamma @ weights


def push_forward(model: FiniteOntModel, preparation: str, map_name: str) -> np.ndarray:
    """Effective preparation after a stochastic map."""
    out = apply_map(model, model.preparation(preparation), map_name)
    return out / out.sum()


def kernel_set(f: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Atoms where the [0,1]-valued function f equals 1 within ``KERNEL_EPS``.

    If sum mu*f = 1 then the returned set carries full mu-measure (the
    finite form of the unit-average kernel lemma). The set itself depends
    only on ``f``; ``mu`` must be a measure over the same atoms.
    """
    f = np.asarray(f, dtype=float)
    if np.shape(mu) != f.shape:
        raise ValueError(f"kernel_set: mu has shape {np.shape(mu)}, f has {f.shape}")
    if not (f.min(initial=0.0) >= -1e-12 and f.max(initial=0.0) <= 1.0 + 1e-12):
        raise ValueError("kernel_set expects entries in [0, 1]")
    return np.where(1.0 - f <= KERNEL_EPS)[0]


# -- validation -------------------------------------------------------------

@dataclass(frozen=True)
class Bindings:
    """Which model names realize which fragment names.

    ``pairs`` restricts the validated (preparation, measurement) grid;
    by default every bound preparation is checked against every bound
    measurement.
    """

    preparations: dict
    measurements: dict
    pairs: tuple | None = None

    def iter_pairs(self):
        if self.pairs is not None:
            return iter(self.pairs)
        return itertools.product(self.preparations, self.measurements)


def default_bindings(model: FiniteOntModel, fragment: QuantumFragment) -> Bindings:
    """Identity bindings: shared measurement names, with preparations bound
    to states through the declared delta sets (same-named preparations bind
    to their states as a fallback)."""
    preps = {}
    for sname in fragment.states:
        for pname in model.delta_sets.get(sname, ()):
            preps[pname] = sname
        if sname in model.preparations:
            preps.setdefault(sname, sname)
    meas = {m: m for m in fragment.measurements if m in model.responses}
    return Bindings(preparations=preps, measurements=meas)


@dataclass(frozen=True)
class ValidationReport:
    """The Born check over bound pairs: its largest deviation, first reached at ``worst_pair``."""

    passed: bool
    max_deviation: float
    tol: float
    worst_pair: tuple


def validate(
    model: FiniteOntModel,
    fragment: QuantumFragment,
    bindings: Bindings,
    tol: float,
) -> ValidationReport:
    """Compare model predictions with Born probabilities over bound pairs.

    ``tol`` must be a finite number >= 0: an infinite one would pass any
    model, and a NaN or negative one would fail every model.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    rows = []
    for prep, meas in bindings.iter_pairs():
        if prep not in bindings.preparations:
            raise ValueError(f"pair references unbound preparation {prep!r}")
        if meas not in bindings.measurements:
            raise ValueError(f"pair references unbound measurement {meas!r}")
        state_name = bindings.preparations[prep]
        frag_meas = bindings.measurements[meas]
        expected = fragment.born(state_name, frag_meas)
        got = predict(model, prep, meas)
        if got.shape != expected.shape:
            raise ValueError(
                f"outcome count mismatch for pair ({prep!r}, {meas!r}): "
                f"{got.shape} vs {expected.shape}"
            )
        rows.append((prep, meas, float(np.abs(got - expected).max())))
    if not rows:
        raise ValueError("bindings produce no pairs to validate")
    prep, meas, max_dev = max(rows, key=lambda row: row[2])   # the first maximum
    return ValidationReport(
        passed=max_dev <= tol,
        max_deviation=max_dev,
        tol=tol,
        worst_pair=(prep, meas),
    )


# -- asymmetric overlap -----------------------------------------------------

@dataclass(frozen=True)
class OverlapReport:
    """Overlap mass and the realizing atom set.

    ``realizing_set`` is a read-only ascending array of atom indices, so
    reports are not meant to be hashed or compared. When the targets
    resolve to one preparation it is that preparation's memoized support,
    shared with every other report that reads it.
    """

    value: float
    realizing_set: np.ndarray


def asymmetric_overlap(
    model: FiniteOntModel, mu_name: str, targets: Iterable[str] | str
) -> OverlapReport:
    """Probability that a sample from ``mu`` lands in every full-measure set
    of every target.

    On a finite atom set the infimum is achieved by the union of the
    supports of all preparations realizing the targets, so the value is the
    mu-mass of that union.
    """
    if isinstance(targets, str):
        targets = (targets,)
    mu = model.preparation(mu_name)
    names = dict.fromkeys(
        pname for target in targets for pname in model.target_preparations(target)
    )
    if len(names) == 1:
        (name,) = names
        realizing = model.support(name)
    else:
        realizing = np.flatnonzero(_support_mask(model, names))
        realizing.setflags(write=False)
    value = float(mu[realizing].sum())
    return OverlapReport(value, realizing)


# -- classification ---------------------------------------------------------

class Classification:
    """A macro-realism verdict, ``kind`` (EMMR, ESMR, SSMR or NONE), and
    the ``evidence`` dict behind it.

    ``evidence`` may be given as a function of no arguments that returns
    the dict: it is then called on the first read of ``evidence``, and its
    dict kept. Verdicts are read-only and compare by kind and evidence.
    """

    __slots__ = ("kind", "_evidence")

    def __init__(self, kind: str, evidence) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "_evidence", evidence)

    @property
    def evidence(self) -> dict:
        if callable(self._evidence):
            object.__setattr__(self, "_evidence", self._evidence())
        return self._evidence

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"Classification is read-only; cannot set {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Classification):
            return NotImplemented
        return self.kind == other.kind and self.evidence == other.evidence

    def __repr__(self) -> str:
        return f"Classification(kind={self.kind!r}, evidence={self.evidence!r})"


def _nnls(matrix: np.ndarray, gram: np.ndarray, mu: np.ndarray) -> tuple:
    """min ||matrix @ x - mu|| over x >= 0, by the active-set method of
    Lawson and Hanson (*Solving Least Squares Problems*, 1974, ch. 23) run
    on the k x k normal form ``gram = matrix.T @ matrix``.

    Returns x >= 0 and its residual r = mu - matrix @ x. A column joins the
    passive set while its gradient entry (matrix.T @ r)_j exceeds
    ``NNLS_ROUNDING * |column j| * |mu|``, so zero and repeated columns stay
    out. The normal form squares the columns' condition number, which
    bounds how closely r approaches the optimum; nothing here is trusted,
    as ``_mixture_verdict`` re-verifies the pair.
    """
    k = gram.shape[0]
    h = mu @ matrix
    floor = NNLS_ROUNDING * np.sqrt(np.diagonal(gram)) * math.sqrt(float(mu @ mu))
    x = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    for _ in range(3 * k):   # scipy's cap; a pair that stops short fails re-verification
        gradient = h - gram @ x
        entering = np.flatnonzero(~passive & (gradient > floor))
        if not entering.size:
            break
        passive[entering[np.argmax(gradient[entering])]] = True
        while passive.any():
            cols = np.flatnonzero(passive)
            z = np.zeros(k)
            try:
                z[cols] = np.linalg.solve(gram[np.ix_(cols, cols)], h[cols])
            except np.linalg.LinAlgError:
                return x, mu - matrix @ x
            if (z[cols] > 0.0).all():
                x = z
                break
            # step from x towards z until the first passive entry reaches 0
            blocked = cols[z[cols] <= 0.0]
            drop = x[blocked] - z[blocked]   # 0 only where x and z are both 0: no step
            ratios = np.divide(x[blocked], drop, out=np.zeros_like(drop), where=drop > 0.0)
            x = x + ratios.min() * (z - x)
            x[blocked[np.argmin(ratios)]] = 0.0
            passive &= x > 0.0
            x[~passive] = 0.0
    return x, mu - matrix @ x


def _mixture_verdict(
    matrix: np.ndarray, mu: np.ndarray, x: np.ndarray, r: np.ndarray
) -> bool | None:
    """Re-verify an NNLS pair (x, r) for condition (b): is ``mu`` within
    ``MIXTURE_RESIDUAL_TOL`` of the cone of ``matrix``'s columns?

    True when x >= 0 and ``matrix @ x`` lies within the tolerance of mu.
    False when r is a Farkas certificate that mu lies farther than that:
    matrix.T @ r <= 0 up to rounding (``NNLS_ROUNDING * |column j| * |mu|``),
    so that every point of the cone is at least mu.r/|r| from mu, less a
    rounding allowance; at an NNLS optimum mu.r/|r| = |r| by the KKT
    conditions. None when neither holds by a margin of ``MIXTURE_BAND``
    times the tolerance, or when r is not x's residual.
    """
    mu_norm = math.sqrt(float(mu @ mu))
    fit = mu - matrix @ x
    if not ((x >= 0.0).all() and np.linalg.norm(r - fit) <= NNLS_ROUNDING * mu_norm):
        return None
    if np.linalg.norm(fit) <= MIXTURE_RESIDUAL_TOL * (1.0 - MIXTURE_BAND):
        return True
    allowance = NNLS_ROUNDING * mu_norm   # r carries rounding of order eps * |mu|
    col_norms = np.sqrt(np.einsum("ij,ij->j", matrix, matrix))
    if (r @ matrix <= allowance * col_norms).all():
        # an x' >= 0 no farther from mu than 0 is has |matrix @ x'| <= 2|mu|,
        # so sum_j x'_j |column j| <= 2 sqrt(k) |mu|, and
        # |mu - matrix @ x'| >= (mu.r - x'.(matrix.T @ r)) / |r| >= bound
        slack = 2.0 * math.sqrt(matrix.shape[1]) * mu_norm * allowance
        bound = (float(mu @ r) - slack) / float(np.linalg.norm(r))
        if bound > MIXTURE_RESIDUAL_TOL * (1.0 + MIXTURE_BAND):
            return False
    return None


def _all_mixtures(model: FiniteOntModel, eigen_matrix: np.ndarray) -> bool:
    """Condition (b): each preparation, in registration order, is a
    nonnegative mixture of ``eigen_matrix``'s columns, stopping at the first
    that is certified not to be. Only a preparation whose verdict the NNLS
    pair leaves open is sent to scipy's ``nnls``, whose residual then
    decides as it does in the evidence."""
    gram = eigen_matrix.T @ eigen_matrix
    for mu in model.preparations.values():
        verdict = _mixture_verdict(eigen_matrix, mu, *_nnls(eigen_matrix, gram, mu))
        if verdict is None:
            from scipy.optimize import nnls
            verdict = bool(nnls(eigen_matrix, mu)[1] <= MIXTURE_RESIDUAL_TOL)
        if not verdict:
            return False
    return True


def _scipy_mixture_evidence(model: FiniteOntModel, eigen_matrix: np.ndarray) -> dict:
    """``worst_mixture`` (when some residual is positive) and
    ``max_mixture_residual``: scipy's ``nnls`` residual of every
    preparation against the eigenstate columns, the first largest kept.

    Transitional: these bits are recorded in the CLI digests, so the
    evidence keeps scipy's residual until a re-record moves it to the
    NNLS pair's, and takes scipy out of the runtime with it.
    """
    from scipy.optimize import nnls

    evidence: dict = {}
    worst_residual = 0.0
    for pname, mu in model.preparations.items():
        _, residual = nnls(eigen_matrix, mu)
        if residual > worst_residual:
            worst_residual = residual
            evidence["worst_mixture"] = {"preparation": pname, "residual": float(residual)}
    evidence["max_mixture_residual"] = float(worst_residual)
    return evidence


def classify(model: FiniteOntModel, fragment: QuantumFragment) -> Classification:
    """Decide which macro-realism category the model's declarations realize.

    Conditions, relative to the declared operational-eigenstate sets:
    (a) every preparation is supported inside the union A of eigenstate
    supports; (b) every preparation is a nonnegative mixture of declared
    eigenstate preparations; (c) every carried atom answers the macro
    measurement deterministically. EMMR = (a) and (b); ESMR = (a) without
    (b); SSMR = (c) with some preparation carrying weight outside A;
    anything else is NONE. (a) and (c) test the weights against
    ``SUPPORT_EPS`` directly and leave the support memo as they found it.
    (b) is asked only when (a) holds, of one preparation after another
    until one is certified not to be a mixture: an in-house NNLS gives
    each verdict with a re-verified certificate, and scipy is imported
    only for a verdict inside the narrow band around
    ``MIXTURE_RESIDUAL_TOL``. The evidence's two residual entries are
    scipy's, formed on the first read of ``evidence``, so a caller that
    reads only ``kind`` does not load ``scipy.optimize``. The model's macro
    labels must be ``fragment``'s macro outcomes, and the caller is
    expected to have validated the two.
    """
    macro = model.macro_measurement
    macro_labels = model.outcome_labels[macro]
    missing = [q for q in macro_labels if q not in model.eigenstate_preps]
    if fragment.macro.outcomes != macro_labels:
        raise ValueError(f"macro outcome labels {macro_labels!r} do not match fragment "
                         f"macro outcomes {fragment.macro.outcomes!r}")
    if missing:
        raise ValueError(f"no eigenstate preparations declared for macro values {missing!r}")

    eigen_names = [pname for q in macro_labels for pname in model.eigenstate_preps[q]]
    accessible = _support_mask(model, eigen_names)

    head: dict = {"eigenstate_atoms": int(accessible.sum())}

    # (a), and (c)'s carried atoms, in one pass that runs past the first violation
    carried = np.zeros(model.atoms, dtype=bool)
    for pname, mu in model.preparations.items():
        held = mu > SUPPORT_EPS
        carried |= held
        outside = held & ~accessible
        if outside.any() and "support_violation" not in head:
            atom = int(outside.argmax())
            head["support_violation"] = {"preparation": pname, "atom": atom,
                                         "weight": float(mu[atom])}
    support_ok = "support_violation" not in head

    # (b) mixtures of declared eigenstate preparations
    eigen_matrix = np.column_stack([model.preparation(p) for p in eigen_names])
    mixture_ok = support_ok and _all_mixtures(model, eigen_matrix)

    # (c) deterministic macro responses on carried atoms (eigenstates carry some)
    tail: dict = {}
    col_max = model.response(macro)[:, carried].max(axis=0)
    deterministic_ok = bool((col_max >= 1.0 - DETERMINISM_TOL).all())
    if not deterministic_ok:
        bad_local = int(np.argmin(col_max))
        tail["nondeterministic_atom"] = {"atom": int(np.flatnonzero(carried)[bad_local]),
                                         "max_response": float(col_max[bad_local])}

    if mixture_ok:
        kind = "EMMR"
    elif support_ok:
        kind = "ESMR"
    elif deterministic_ok:
        kind = "SSMR"   # not support_ok already witnesses weight outside A
    else:
        kind = "NONE"
    return Classification(
        kind, lambda: {**head, **_scipy_mixture_evidence(model, eigen_matrix), **tail}
    )
