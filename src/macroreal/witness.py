"""Witness construction for the macro-realism exclusion argument.

For a parameter ``alpha`` in the open interval (0, 1/sqrt(2)) and dimension
d >= 4, builds the state triple {psi, phi, zero}, the basis ``bprime`` the
triple is written in, a designated macro-observable basis containing
``zero``, a unitary that fixes ``psi`` while carrying ``zero`` to ``phi``,
and a projective measurement anti-distinguishing the triple. The headline
quantity is the gap between the overlap mass any eigenstate-supported model
must place on {phi, zero} (``2 alpha^2``) and the mass quantum statistics
allow (``alpha^2 (1 + 2 alpha^2)``).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .quantum import (
    NORM_TOL,
    STRUCT_TOL,
    ProjMeasurement,
    StateVector,
    UnitaryMap,
    basis_measurement,
    born,
    computational_measurement,
    gram,
)

ALPHA_MAX = 1.0 / math.sqrt(2.0)
ANTIDIST_RESIDUAL_TOL = 1e-8
SLACK_SATURATION_TOL = 1e-12

ANTIDIST_OUTCOMES = ("not_psi", "not_phi", "not_zero", "rest")


class CertificationError(RuntimeError):
    """A required numerical certificate could not be produced."""


class WitnessCoefficients(NamedTuple):
    alpha: float
    beta: float
    tau: float
    delta: float
    eta: float
    kappa: float


@dataclass(frozen=True)
class WitnessParams:
    """alpha strictly inside (0, 1/sqrt(2)); dim >= 4."""

    alpha: float
    dim: int = 4

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < ALPHA_MAX:
            raise ValueError(
                f"alpha must lie strictly in (0, {ALPHA_MAX!r}); got {self.alpha!r}"
            )
        # operator.index rejects NaN and other non-integers with a TypeError
        dim = operator.index(self.dim)
        if dim < 4:
            raise ValueError(f"dim must be >= 4, got {dim}")
        object.__setattr__(self, "dim", dim)


@dataclass(frozen=True)
class WitnessBundle:
    params: WitnessParams
    psi: StateVector
    phi: StateVector
    zero: StateVector
    basis_bprime: ProjMeasurement
    basis_bq: ProjMeasurement
    fixing_unitary: UnitaryMap
    coefficients: WitnessCoefficients

    @property
    def alpha(self) -> float:
        return self.params.alpha

    @property
    def dim(self) -> int:
        return self.params.dim


@dataclass(frozen=True)
class AntidistReport:
    """Squared overlaps, the two anti-distinguishability inequalities, and,
    when certified, the excluding measurement with its Born residuals."""

    a: float
    b: float
    c: float
    inequality1_ok: bool
    inequality2_ok: bool
    slack1: float
    slack2: float
    measurement: ProjMeasurement | None
    residuals: np.ndarray | None

    @property
    def certified(self) -> bool:
        return self.measurement is not None


@dataclass(frozen=True)
class ContradictionReport:
    esmr_lower_bound: float
    quantum_upper_bound: float
    deficit: float


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    coefficients: WitnessCoefficients
    antidist: AntidistReport
    contradiction: ContradictionReport


def witness_coefficients(alpha: float) -> WitnessCoefficients:
    """Closed-form expansion coefficients; tau and kappa are the positive roots."""
    beta = math.sqrt(2.0) * alpha**2
    tau_sq = 1.0 - alpha**2 - beta**2
    delta = 1.0 - 2.0 * alpha**2
    eta = math.sqrt(2.0) * alpha
    kappa_sq = 1.0 - delta**2 - eta**2
    if tau_sq <= 0.0 or kappa_sq <= 0.0:
        # inside (0, ALPHA_MAX) both are positive; near 0 they round to zero
        raise CertificationError(f"alpha {alpha!r} leaves no normalization headroom")
    return WitnessCoefficients(alpha, beta, math.sqrt(tau_sq), delta, eta, math.sqrt(kappa_sq))


def _completion_basis(dim: int) -> list[np.ndarray]:
    """Deterministic orthonormal basis containing e0.

    The macro basis must contain ``zero``; the rest is free, so it is fixed by
    Gram-Schmidt on the triangular-sum family over coordinates 1..d-1, which
    mixes all of them and keeps the basis distinct from the bprime axes.
    """
    e = np.eye(dim, dtype=complex)
    vecs = [e[0]]
    for k in range(1, dim):
        v = np.zeros(dim, dtype=complex)
        v[k:] = 1.0
        for u in vecs:
            v = v - (u.conj() @ v) * u
        vecs.append(v / np.linalg.norm(v))
    return vecs


def build_witness(params: WitnessParams) -> WitnessBundle:
    """Construct the full witness bundle for the given parameters."""
    alpha, dim = params.alpha, params.dim
    co = witness_coefficients(alpha)

    psi_amp = np.zeros(dim, dtype=complex)
    psi_amp[[0, 1, 2]] = (co.alpha, co.beta, co.tau)
    phi_amp = np.zeros(dim, dtype=complex)
    phi_amp[[0, 1, 3]] = (co.delta, co.eta, co.kappa)
    zero_amp = np.zeros(dim, dtype=complex)
    zero_amp[0] = 1.0

    psi = StateVector(psi_amp)
    phi = StateVector(phi_amp)
    zero = StateVector(zero_amp)

    bprime_labels = ["0"] + [f"{k}'" for k in range(1, dim)]
    bprime = computational_measurement(dim, bprime_labels)

    bq_vecs = _completion_basis(dim)
    bq = basis_measurement(
        [StateVector(v) for v in bq_vecs], [f"q{k}" for k in range(dim)]
    )

    u = build_fixing_unitary(psi, zero, phi)

    bundle = WitnessBundle(params, psi, phi, zero, bprime, bq, u, co)
    _check_bundle(bundle)
    return bundle


def _check_bundle(bundle: WitnessBundle) -> None:
    alpha = bundle.alpha
    ip_zero = bundle.zero.inner(bundle.psi)
    ip_phi = bundle.phi.inner(bundle.psi)
    if abs(ip_zero - alpha) > NORM_TOL or abs(ip_phi - alpha) > NORM_TOL:
        raise CertificationError("inner-product identities <0|psi> = <phi|psi> = alpha violated")
    u = bundle.fixing_unitary.matrix
    if np.linalg.norm(u @ bundle.zero.amplitudes - bundle.phi.amplitudes) > STRUCT_TOL:
        raise CertificationError("fixing unitary does not map zero to phi")
    if np.linalg.norm(u @ bundle.psi.amplitudes - bundle.psi.amplitudes) > STRUCT_TOL:
        raise CertificationError("fixing unitary does not fix psi")


def build_fixing_unitary(psi: StateVector, zero: StateVector, phi: StateVector) -> UnitaryMap:
    """Unitary with U psi = psi and U zero = phi.

    The argument only needs some unitary with these two actions. This one is
    the reflection U = I - 2 w w^dag / ||w||^2 across w = zero - phi (det -1,
    the identity when w = 0). It fixes psi when <w|psi> = 0, that is
    <zero|psi> = <phi|psi>, and it carries zero exactly to phi when
    <zero|phi> is real. For the witness, w = (1 - delta, -eta, 0, -kappa,
    0, ...) is formed without cancellation (1 - delta is exact near
    delta = 1), so U holds to rounding at both ends of the alpha range.
    """
    if not (psi.dim == zero.dim == phi.dim):
        raise ValueError("states must share a dimension")
    ip_zero = zero.inner(psi)
    ip_phi = phi.inner(psi)
    if abs(ip_zero - ip_phi) > NORM_TOL:
        raise CertificationError(f"need <0|psi> = <phi|psi>, got {ip_zero!r}, {ip_phi!r}")
    if abs(zero.inner(phi).imag) > NORM_TOL:
        raise CertificationError("overlap <0|phi> must be real")
    w = zero.amplitudes - phi.amplitudes
    w_sq = float(np.vdot(w, w).real)
    u = np.eye(psi.dim, dtype=complex)
    if w_sq > 0.0:
        u -= (2.0 / w_sq) * np.outer(w, w.conj())
    try:
        return UnitaryMap(u)
    except ValueError as exc:
        # u is unitary in exact arithmetic, so a failed check is rounding
        raise CertificationError(f"fixing unitary: {exc}") from None


# ---------------------------------------------------------------------------
# Anti-distinguishing measurement
# ---------------------------------------------------------------------------

_BOUNDED_MAXFUN = 500
_BRENTQ_MAXITER = 100


def _sign_nonzero(v: float) -> float:
    """``sign(v) + (v == 0)``: the step direction, +1 at zero."""
    return float(v > 0) - float(v < 0) + float(v == 0)


def _bounded_min(func, lo: float, hi: float, xatol: float) -> float:
    """Minimiser of ``func`` on [lo, hi] by Brent's bounded method.

    A line-for-line port of scipy 1.17.1's
    ``scipy/optimize/_optimize.py::_minimize_scalar_bounded``: the same
    expression order, constants and evaluation cap. Returns the best point
    also when the cap is hit, as scipy's ``res.x`` does. ``func`` must
    return finite floats.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # parabolic fit through the three best points
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign_nonzero(xm - xf)
            else:
                golden = True
        if golden:
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = golden_mean * e

        x = xf + _sign_nonzero(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _BOUNDED_MAXFUN:
            break
    return xf


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float) -> float:
    """Root of ``f`` in the sign-changing bracket [xa, xb] by Brent's method.

    A port of scipy 1.17.1's C ``brentq`` (``scipy.optimize.brentq``): the
    same bracket swap, interpolate/extrapolate/bisect choice and ``delta``
    step, with ``_BRENTQ_MAXITER`` iterations. Raises ``CertificationError``
    where scipy raises: the bracket does not change sign, or the iterations
    run out.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = f(xpre)
    fcur = f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise CertificationError(
            f"root bracket [{xa!r}, {xb!r}] does not change sign"
        )
    for _ in range(_BRENTQ_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre
            fpre = fcur
            fcur = fblk
            fblk = fpre

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                # good short step
                spre = scur
                scur = stry
            else:
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise CertificationError(
        f"root find did not converge (iteration cap {_BRENTQ_MAXITER})"
    )


def _solve_slot_angles(p: float, q: float, r: float):
    """Solve cos(t1)cos(t2)=p, sin(t1)cos(t3)=q, sin(t2)sin(t3)=r on [0, pi/2].

    Returns (t1, t2, t3) or None. Degenerate zero cases are handled by
    direct assignment; the generic case reduces to a one-dimensional root
    find in t3. Tangent maxima (the saturated second inequality) are
    accepted within a small slack and settled by the downstream residual
    check on the assembled measurement.

    The peak of the gap is found by ``_bounded_min`` and its root by
    ``_brentq``, pure-Python ports of scipy 1.17.1's
    ``optimize._optimize._minimize_scalar_bounded`` and of its C
    ``optimize.brentq``, so importing this module does not load scipy.
    Both ports must stay bitwise equal to scipy, because the witness
    bytes depend on every bit of the angles; ``tests/test_witness_ports.py``
    checks them against scipy and this function against the scipy-based
    original kept in ``tests/helpers.py``.
    """
    z = 1e-15
    if q < z:
        if p > 1.0:
            return None
        c2 = p
        s2 = math.sqrt(1.0 - c2 * c2)
        if r < z:
            return (0.0, math.acos(c2), 0.0)
        if r > s2 + 1e-12:
            return None
        if s2 == 0.0:   # p = 1 pins t2 = 0; r is within the slack of 0
            return (0.0, math.acos(c2), 0.0)
        return (0.0, math.acos(c2), math.asin(min(1.0, r / s2)))
    if r < z:
        if q > 1.0:
            return None
        c1 = math.sqrt(1.0 - q * q)
        if c1 < z:
            return (math.pi / 2, math.pi / 2, 0.0) if p < z else None
        if p / c1 > 1.0 + 1e-12:
            return None
        return (math.asin(q), math.acos(min(1.0, p / c1)), 0.0)
    if p < z:
        if q > 1.0:
            return None
        s3 = math.sqrt(1.0 - q * q)
        if s3 < z:
            return None
        if r / s3 > 1.0 + 1e-12:
            return None
        return (math.pi / 2, math.asin(min(1.0, r / s3)), math.acos(q))

    lo = math.asin(min(1.0, r))
    hi = math.acos(min(1.0, q))
    if lo > hi:
        return None

    def gap(t3: float) -> float:
        c3, s3 = math.cos(t3), math.sin(t3)
        s1 = q / c3 if c3 > 0 else math.inf
        s2 = r / s3 if s3 > 0 else math.inf
        if s1 > 1.0 or s2 > 1.0:
            return -1.0
        return math.sqrt(1.0 - s1 * s1) * math.sqrt(1.0 - s2 * s2) - p

    t_peak = _bounded_min(lambda t: -gap(t), lo, hi, 1e-15)
    g_peak = gap(t_peak)
    if g_peak < -1e-7:
        return None
    if g_peak <= 0.0:
        t3 = t_peak
    elif gap(lo) >= 0.0:
        t3 = lo
    else:
        t3 = _brentq(gap, lo, t_peak, 2e-16, 8.9e-16)
    c3, s3 = math.cos(t3), math.sin(t3)
    s1 = min(1.0, q / c3) if c3 > 0 else 1.0
    s2 = min(1.0, r / s3) if s3 > 0 else 1.0
    return (math.asin(s1), math.asin(s2), t3)


def _zero_diagonal_frame(g: np.ndarray) -> np.ndarray | None:
    """3x3 matrix X with zero diagonal and X^dag X = G.

    Columns of X are the three states written in the anti-distinguishing
    basis, so X_kk = 0 encodes "outcome k never fires on state k". All six
    assignments of states to diagonal slots are tried; the pairwise overlap
    magnitudes land in cos*cos / sin*cos / sin*sin slots of the angle system
    depending on the assignment.
    """
    best: tuple[np.ndarray, float] | None = None
    for perm in itertools.permutations(range(3)):
        gp = g[np.ix_(perm, perm)]
        mags = (abs(gp[0, 1]), abs(gp[0, 2]), abs(gp[1, 2]))
        sol = _solve_slot_angles(*mags)
        if sol is None:
            continue
        t1, t2, t3 = sol
        ph12 = np.angle(gp[0, 1]) if mags[0] > 0 else 0.0
        ph13 = np.angle(gp[0, 2]) if mags[1] > 0 else 0.0
        ph23 = np.angle(gp[1, 2]) if mags[2] > 0 else 0.0
        x = np.zeros((3, 3), dtype=complex)
        x[:, 0] = (0.0, math.sin(t1), math.cos(t1))
        x[:, 1] = (math.sin(t2), 0.0, math.cos(t2) * np.exp(1j * ph12))
        x[:, 2] = (math.sin(t3) * np.exp(1j * ph23), math.cos(t3) * np.exp(1j * ph13), 0.0)
        err = float(np.abs(x.conj().T @ x - gp).max())
        inv = np.argsort(perm)
        x_full = x[np.ix_(inv, inv)]
        if best is None or err < best[1]:
            best = (x_full, err)
        if err < 1e-13:
            break
    return None if best is None else best[0]


def check_antidistinguishable(
    psi: StateVector, phi: StateVector, zero: StateVector
) -> AntidistReport:
    """Evaluate the anti-distinguishability inequalities and, when they hold,
    exhibit a projective measurement with outcome k certain not to fire on
    state k.

    a = |<psi|phi>|^2, b = |<psi|zero>|^2, c = |<phi|zero>|^2. The two
    inequalities are a+b+c < 1 and (1-a-b-c)^2 >= 4abc. The measurement is
    assembled inside the 3-dimensional span of the triple from a
    zero-diagonal Gram factor, padded with the orthocomplement projector.
    """
    states = (psi, phi, zero)
    g = gram(states)
    a = float(abs(g[0, 1]) ** 2)
    b = float(abs(g[0, 2]) ** 2)
    c = float(abs(g[1, 2]) ** 2)
    slack1 = 1.0 - (a + b + c)
    slack2 = (1.0 - a - b - c) ** 2 - 4.0 * a * b * c
    ok1 = slack1 > 0.0
    ok2 = slack2 >= -SLACK_SATURATION_TOL
    if not (ok1 and ok2):
        return AntidistReport(a, b, c, ok1, ok2, slack1, slack2, None, None)

    stack = np.column_stack([s.amplitudes for s in states])
    q_basis, r = np.linalg.qr(stack)
    if np.abs(np.diag(r)).min() < 1e-9:
        raise CertificationError(
            "triple is linearly dependent; no projective anti-distinguishing "
            "measurement inside its span"
        )
    span = q_basis[:, :3]
    coords = span.conj().T @ stack       # 3x3, columns = states in span frame

    x = _zero_diagonal_frame(g)
    if x is None:
        raise CertificationError("zero-diagonal Gram factorization failed")
    w = x @ np.linalg.inv(coords)
    u_pol, _, vt_pol = np.linalg.svd(w)  # polish to an exact unitary
    w = u_pol @ vt_pol

    dim = psi.dim
    vecs = w.conj().T                    # columns are the measurement rays
    projs = np.empty((4, dim, dim), dtype=complex)
    for k in range(3):
        lifted = span @ vecs[:, k]
        projs[k] = np.outer(lifted, lifted.conj())
    projs[3] = np.eye(dim) - projs[:3].sum(axis=0)
    meas = ProjMeasurement(ANTIDIST_OUTCOMES, projs)

    residuals = np.array(
        [born(psi, meas)[0], born(phi, meas)[1], born(zero, meas)[2]]
    )
    if residuals.max() > ANTIDIST_RESIDUAL_TOL:
        raise CertificationError(
            f"anti-distinguishing residuals {residuals!r} exceed "
            f"{ANTIDIST_RESIDUAL_TOL}"
        )
    return AntidistReport(a, b, c, ok1, ok2, slack1, slack2, meas, residuals)


def contradiction_gap(alpha: float) -> ContradictionReport:
    """Eigenstate-support lower bound 2 alpha^2 vs quantum ceiling
    alpha^2 (1 + 2 alpha^2); the deficit alpha^2 (1 - 2 alpha^2) is positive
    on the open interval and zero at the closed boundary, which is allowed
    here for the zero-gap check."""
    if not 0.0 < alpha <= ALPHA_MAX + 1e-15:
        raise ValueError(f"alpha must lie in (0, 1/sqrt(2)]; got {alpha!r}")
    lower = 2.0 * alpha**2
    upper = alpha**2 * (1.0 + 2.0 * alpha**2)
    return ContradictionReport(lower, upper, lower - upper)


def sweep(alphas: Sequence[float], dim: int = 4) -> list[SweepRow]:
    """Certify one witness per alpha; row errors carry the row index."""
    rows: list[SweepRow] = []
    for i, alpha in enumerate(alphas):
        try:
            bundle = build_witness(WitnessParams(float(alpha), dim))
            report = check_antidistinguishable(bundle.psi, bundle.phi, bundle.zero)
            gap = contradiction_gap(float(alpha))
        except (ValueError, CertificationError) as exc:
            raise type(exc)(f"sweep row {i} (alpha={alpha!r}): {exc}") from exc
        rows.append(SweepRow(float(alpha), bundle.coefficients, report, gap))
    return rows
