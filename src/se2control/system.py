"""System descriptions, controllability rank check, classification, reduction.

A system on the planar motion group is specified by the drift data (A, xi),
the invariant field data (alpha, eta1) and a control range Omega = [u-, u+]
with u- < 0 < u+.  When det A != 0 the angle decouples and the translation
part reduces to the planar system

    vdot = (A - u theta) v + u eta,

after absorbing alpha into the control (the reduced control range is
alpha * Omega and the reduced drift vector is eta / alpha with
eta = alpha A^{-1} xi + eta1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .group import scaled_norm, to_pairs, unit_exponent

# Tolerance of the commuting form, relative to max(|lam|, |mu|).
COMMUTE_TOL = 1e-12

# Classification cases.
CASE_DEGENERATE = "DegenerateDetZero"
CASE_TRACE_ZERO = "ControllableTraceZero"
CASE_CLOSED = "ClosedBoundedControlSet"
CASE_OPEN = "OpenControlSet"
CASE_NOT_CLASSIFIED = "NotClassified"


def matrix_from_lambda_mu(lam: float, mu: float) -> np.ndarray:
    """Build the commuting matrix [[lam, -mu], [mu, lam]]."""
    return np.array([[lam, -mu], [mu, lam]])


def _check_omega(omega):
    lo, hi = float(omega[0]), float(omega[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < 0.0 < hi):
        raise ValueError("omega must satisfy u- < 0 < u+")
    return lo, hi


@dataclass
class SystemSpec:
    """Full system data on the planar motion group.

    Attributes
    ----------
    alpha : float
        Angular rate of the invariant field.
    xi : ndarray, shape (2,)
        Drift translation data.
    A : ndarray, shape (2, 2)
        Linear part [[lam, -mu], [mu, lam]], with lam = A[0, 0] and mu =
        A[1, 0] of the matrix given.  The matrix given must commute with the
        rotation generator to COMMUTE_TOL relative to max(|lam|, |mu|).
    eta1 : ndarray, shape (2,)
        Invariant field translation data.
    omega : (float, float)
        Control range [u-, u+] with u- < 0 < u+.
    """

    alpha: float
    xi: np.ndarray
    A: np.ndarray
    eta1: np.ndarray
    omega: tuple = (-1.0, 1.0)

    def __post_init__(self):
        self.alpha = float(self.alpha)
        self.xi = np.asarray(self.xi, dtype=float).reshape(2).copy()
        self.eta1 = np.asarray(self.eta1, dtype=float).reshape(2).copy()
        a, b, c, d = np.asarray(self.A, dtype=float).reshape(4).tolist()
        # A theta - theta A has the entries +-(b + c) and +-(d - a); a NaN fails.
        if not np.max(np.abs([b + c, d - a])) <= COMMUTE_TOL * max(abs(a), abs(c)):
            raise ValueError("A must commute with the rotation generator")
        self.A = matrix_from_lambda_mu(a, c)
        self.omega = _check_omega(self.omega)
        if not (
            np.isfinite(self.alpha)
            and np.all(np.isfinite(self.xi))
            and np.all(np.isfinite(self.eta1))
            and np.all(np.isfinite(self.A))
        ):
            raise ValueError("system data must be finite")

    @property
    def lam(self) -> float:
        return float(self.A[0, 0])

    @property
    def mu(self) -> float:
        return float(self.A[1, 0])

    @property
    def a_is_zero(self) -> bool:
        """A = 0, tested as lam = mu = 0: lam^2 + mu^2 can underflow to 0 for A != 0."""
        return self.lam == 0.0 and self.mu == 0.0

    def det(self) -> float:
        """lam^2 + mu^2; inf when it exceeds the float range."""
        try:
            return self.lam**2 + self.mu**2
        except OverflowError:
            return math.inf

    def trace(self) -> float:
        return 2.0 * self.lam


@dataclass(frozen=True, eq=False)
class Circle:
    """Immutable centre and radius: the circle of equilibria, or the invariant ball."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = np.array(self.center, dtype=float).reshape(2)
        center.flags.writeable = False
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))

    def to_dict(self) -> dict:
        return {"center": [float(c) for c in self.center], "radius": float(self.radius)}


@dataclass(frozen=True, eq=False)
class ReducedSpec:
    """Planar reduced system vdot = (A - u theta) v + u eta.

    The control u ranges over `omega` (already alpha-rescaled when the spec
    comes from :func:`reduce_system`).  Frozen, with a read-only `eta`, it
    computes its geometry (`length`, `ball`, `circle`) on first use and
    keeps it.  For lam = 0 the equilibria sweep the line R * theta eta.
    """

    lam: float
    mu: float
    eta: np.ndarray
    omega: tuple = (-1.0, 1.0)

    def __post_init__(self):
        lam, mu = float(self.lam), float(self.mu)
        eta = np.array(self.eta, dtype=float).reshape(2)
        eta.flags.writeable = False
        if lam == 0.0 and mu == 0.0:
            raise ValueError("reduced system requires det A != 0")
        omega = _check_omega(self.omega)
        if not np.all(np.isfinite([lam, mu, *eta])):
            raise ValueError("lam, mu and eta must be finite")
        for name, value in (("lam", lam), ("mu", mu), ("eta", eta), ("omega", omega)):
            object.__setattr__(self, name, value)

    def det_a_of_u(self, u) -> tuple:
        """det A(u) = lam^2 + (mu - u)^2 = d / c^2 for controls u of shape (...), as (d, c).

        c = 2^k with k the unit_exponent of max(|lam|, |mu - u|, 2^-1022): no square leaves
        the float range, d < 8, and d = 0 only at the singular control (lam = 0 and u = mu)."""
        nu = self.mu - np.asarray(u, dtype=float)[()]
        c = 2.0 ** unit_exponent(np.maximum(max(abs(self.lam), 2.0**-1022), abs(nu)))
        lam, nu = c * self.lam, c * nu
        return lam * lam + nu * nu, c

    @cached_property
    def length(self) -> float:
        """|eta|, as :func:`group.scaled_norm` forms it.  Raises ValueError when |eta| overflows."""
        length = float(scaled_norm(self.eta))
        if not math.isfinite(length):
            raise ValueError("|eta| overflows: the reduced system's geometry is out of range")
        return length

    @cached_property
    def ball(self) -> Circle:
        """Invariant ball: center -theta eta, radius |eta| sqrt(lam^2+mu^2)/|lam|.

        sqrt((lam^2 + mu^2) / lam^2) |eta| on lam and mu times 2^k above, lam times
        2^j below and |eta| times 2^e, each a unit_exponent, so no square leaves the
        float range.  Raises ValueError when lam = 0 or the radius overflows."""
        if self.lam == 0.0:
            raise ValueError("the invariant ball requires lam != 0")
        k, j, e = (unit_exponent(x) for x in (max(abs(self.lam), abs(self.mu)), self.lam, self.length))
        lk, mk, lj = math.ldexp(self.lam, k), math.ldexp(self.mu, k), math.ldexp(self.lam, j)
        ratio = math.sqrt((lk * lk + mk * mk) / (lj * lj)) * math.ldexp(self.length, e)
        try:
            radius = math.ldexp(ratio, j - k - e)
        except OverflowError:
            raise ValueError("the invariant ball's radius overflows") from None
        return Circle(to_pairs(-1j * complex(*self.eta)), radius)

    @cached_property
    def circle(self) -> Circle:
        """Circle swept by the equilibria v(u) = -u A(u)^{-1} eta, u in R (requires lam != 0).

        Its center is -((mu/lam) eta + theta eta)/2 and its radius half the
        ball's, |eta| sqrt(mu^2 + lam^2) / (2 |lam|); as u -> +-infinity the
        equilibria approach -theta eta, the ball's center.  Raises what
        reading `ball` raises.
        """
        if self.lam == 0.0:
            raise ValueError("equilibria form a line when lam = 0, not a circle")
        radius = 0.5 * self.ball.radius
        eta = complex(*self.eta)
        return Circle(to_pairs(-0.5 * ((self.mu / self.lam) * eta + 1j * eta)), radius)

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "mu": self.mu,
            "eta": list(self.eta),
            "omega": list(self.omega),
        }


def larc(spec: SystemSpec) -> bool:
    """Rank condition: alpha != 0 and alpha xi + A eta1 != 0.

    When it fails the system is not controllable on any neighborhood and the
    classification is unreliable.  The sum is formed on the rates (alpha, A)
    and the lengths (xi, eta1), each group times 2^k, k the unit_exponent of
    its largest magnitude, and tested for a nonzero component.  Powers of two
    scale exactly while neither group spans more than about 2^1000, so the
    answer is the unscaled sum's wherever that sum is in range, and
    power-of-two time and translation scalings leave it unchanged.
    """
    if spec.alpha == 0.0:
        return False
    rates = unit_exponent(max(abs(spec.alpha), abs(spec.lam), abs(spec.mu)))
    lengths = unit_exponent(max(map(abs, spec.xi.tolist() + spec.eta1.tolist())))
    xi, eta1 = np.ldexp(spec.xi, lengths), np.ldexp(spec.eta1, lengths)
    return bool((math.ldexp(spec.alpha, rates) * xi + np.ldexp(spec.A, rates) @ eta1).any())


def reduced_range(spec: SystemSpec) -> tuple:
    """Range alpha * Omega of the rescaled control alpha u, sorted.

    Raises ValueError when it is no valid range (alpha * u- or alpha * u+
    rounds to 0 or overflows).
    """
    return _check_omega(sorted((spec.alpha * spec.omega[0], spec.alpha * spec.omega[1])))


def reduce_system(spec: SystemSpec) -> ReducedSpec:
    """Reduce the translation dynamics to the planar system.

    Requires det A != 0.  The reduced control is u~ = alpha u, so the reduced
    range is alpha * Omega (sorted) and the reduced drift vector is
    eta~ = eta / alpha with eta = alpha A^{-1} xi + eta1.
    """
    if spec.a_is_zero:
        raise ValueError("reduce_system requires det A != 0")
    if spec.alpha == 0.0:
        raise ValueError("reduce_system requires alpha != 0")
    with np.errstate(over="ignore", invalid="ignore"):
        eta = spec.alpha * np.linalg.solve(spec.A, spec.xi) + spec.eta1
    if not np.all(np.isfinite(eta)):
        # A^{-1} xi overflows where lam and mu are tiny (or alpha huge).
        raise ValueError("eta = alpha A^{-1} xi + eta1 overflows")
    # For det A != 0 the rank condition is equivalent to eta != 0 because
    # alpha xi + A eta1 = A eta; assert the identity instead of trusting it.
    # Both sides carry rounding relative to |alpha xi| + |A| |eta1| (|A| =
    # hypot(lam, mu), the operator norm), so the tolerance scales with it.
    residual = float(
        np.max(np.abs((spec.alpha * spec.xi + spec.A @ spec.eta1) - spec.A @ eta))
    )
    scale = (
        abs(spec.alpha) * math.hypot(*spec.xi)
        + math.hypot(spec.lam, spec.mu) * math.hypot(*spec.eta1)
    )
    if residual > 1e-9 * scale:
        raise AssertionError("internal identity A eta = alpha xi + A eta1 violated")
    if larc(spec) and not eta.any():
        raise AssertionError("rank condition holds but reduced eta vanished")
    return ReducedSpec(lam=spec.lam, mu=spec.mu, eta=eta / spec.alpha, omega=reduced_range(spec))


@dataclass(frozen=True, eq=False)
class Plant:
    """A system prepared once for its exact flows on the group.

    `chart` names the decoupling chart that applies.  "psi" (det A != 0):
    psi1 and psi2 lead to the planar system `rs`, and `offset` is the
    complex number w = i A^{-1} xi, so that psi1(t, v) = (t, v + w - e^{it} w).
    "zero" (A = 0): the chart to the normal form with invariant field
    (alpha, 0), and `offset` is i eta1.  "none" (alpha = 0): no chart
    and no exact flow.  Build it with :func:`prepare`.
    """

    spec: SystemSpec
    chart: str
    offset: complex | None = None

    @cached_property
    def rs(self) -> ReducedSpec | None:
        """The planar reduction for the "psi" chart, else None.

        It is computed on first use and then kept, so a job reduces its
        system at most once, and only if it needs the reduction: classify
        reads it after the rank test, so a spec whose rank condition fails
        is classified even when its reduction would raise.
        """
        return reduce_system(self.spec) if self.chart == "psi" else None


def prepare(spec: SystemSpec) -> Plant:
    """Prepare `spec` once: which chart applies and the chart offset.

    Reading `rs` raises what :func:`reduce_system` raises.
    """
    if spec.alpha == 0.0:
        return Plant(spec, "none")
    if spec.a_is_zero:
        return Plant(spec, "zero", 1j * complex(*spec.eta1))
    return Plant(spec, "psi", 1j * complex(*np.linalg.solve(spec.A, spec.xi)))


@dataclass
class ClassificationReport:
    """Outcome of :func:`classify`, JSON-serializable via :meth:`to_dict`."""

    case: str
    controllable: bool
    larc: bool
    det: float
    trace: float
    lam: float
    mu: float
    boundary_structure: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    reduced: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "controllable": self.controllable,
            "larc": self.larc,
            "det": self.det,
            "trace": self.trace,
            "lambda": self.lam,
            "mu": self.mu,
            "boundary_structure": self.boundary_structure,
            "notes": self.notes,
            "reduced": self.reduced,
        }


def _boundary_structure(lam: float, mu: float, eta, omega) -> dict:
    """Boundary of the lifted control set for the open (trace > 0) case.

    At reduced control u = mu the closed loop A(mu) = lam * I has the single
    equilibrium v(mu) = -(mu/lam) eta, a one-point planar control set whose
    lift is a periodic orbit of period 2*pi/mu; for mu = 0 every (t, 0) is a
    fixed point, giving a continuum of one-point control sets.
    """
    lo, hi = omega
    if not (lo <= mu <= hi):
        return {"kind": "none", "reason": "mu outside the reduced control range"}
    if mu == 0.0:
        return {"kind": "continuum_of_fixed_points", "plane_point": [0.0, 0.0]}
    with np.errstate(over="ignore", invalid="ignore"):
        point = -(mu / lam) * np.asarray(eta, float)
    if not np.all(np.isfinite(point)):
        raise ValueError("the one-point control set v(mu) = -(mu / lambda) eta overflows")
    return {
        "kind": "periodic_orbit",
        "control": mu,
        "plane_point": [float(point[0]), float(point[1])],
        "period": 2.0 * np.pi / mu,
    }


def classify(plant: Plant) -> ClassificationReport:
    """Classify the control-set structure of the system.

    Cases: det A = 0 (infinitely many control sets with empty interior);
    trace A = 0 (controllable on the plane after reduction); trace A < 0
    (unique bounded control set, closed); trace A > 0 (unique control set
    with nonempty interior, open).  When the rank condition fails the report
    abstains from predicting a case.
    """
    spec = plant.spec
    lam, mu = spec.lam, spec.mu
    rank_ok = larc(spec)
    controllable = False
    notes = []
    boundary: dict = {"kind": "none"}
    reduced: dict = {}
    if not rank_ok:
        case = CASE_NOT_CLASSIFIED
        notes.append(
            "rank condition fails (alpha = 0 or alpha xi + A eta1 = 0); "
            "no case predicted"
        )
    elif spec.a_is_zero:
        case = CASE_DEGENERATE
        notes.append(
            "A = 0: control sets are one-dimensional slices "
            "{angle 0} x (v + R xi), all with empty interior"
        )
    else:
        if not math.isfinite(spec.det()):
            raise ValueError("det A = lambda^2 + mu^2 overflows")
        rs = plant.rs
        reduced = rs.to_dict()
        if lam == 0.0:
            case = CASE_TRACE_ZERO
            controllable = True
        elif lam < 0.0:
            case = CASE_CLOSED
            if rs.omega[0] <= mu <= rs.omega[1]:
                notes.append(
                    "mu lies in the reduced control range: the singleton "
                    "{v(mu)} is an additional one-point control set"
                )
        else:
            case = CASE_OPEN
            boundary = _boundary_structure(lam, mu, rs.eta, rs.omega)

    return ClassificationReport(
        case=case,
        controllable=controllable,
        larc=rank_ok,
        det=spec.det(),
        trace=spec.trace(),
        lam=lam,
        mu=mu,
        boundary_structure=boundary,
        notes=notes,
        reduced=reduced,
    )
