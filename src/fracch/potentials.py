"""Double-well potentials split into a convex graph part and a smooth perturbation.

Each potential is the sum of a convex, proper, lower semicontinuous part
``beta_hat`` with ``beta_hat(0) = 0`` and a smooth perturbation ``pi_hat``
whose derivative ``pi`` is globally Lipschitz.  The subdifferential of the
convex part is a maximal monotone graph ``beta`` in the plane, possibly
multivalued and possibly with a bounded effective domain.

The regularized machinery is built from the resolvent: for a level
``lam > 0``, ``J_lam(s)`` is the unique solution of ``J + lam*beta(J) ∋ s``,
the Yosida approximation is ``beta_lam(s) = (s - J_lam(s))/lam``, and the
regularized convex part evaluates in primal form as

    beta_hat_lam(s) = |s - J_lam(s)|^2 / (2*lam) + beta_hat(J_lam(s)),

which coincides with the infimal convolution of ``beta_hat`` with the
scaled quadratic.  Each :class:`PotentialSpec` carries its own vectorized
resolvent, Yosida map and Yosida slope.  The slope takes the Yosida value
at the same points as well, so a caller holding ``beta_lam(s)`` gets the
slope without a second resolvent solve: the quartic and logarithmic wells
read ``J_lam(s)`` off that value in closed form.  :func:`make_potential`
builds the four canonical splits with closed forms (the logarithmic graph
is inverted by Newton's method, monotone from a lower bound of the root as
the equation is concave there).  Any other graph enters through
:func:`custom_potential`, which validates the split and supplies
bracketing bisection, the difference quotient and centered differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import CoercivityError, ConfigurationError, DomainError, NumericalError

#: The ladder of coercivity slopes, scanned from largest to smallest.
ALPHA_LADDER = (8.0, 4.0, 2.0, 1.0, 1.0 / 2.0, 1.0 / 3.0, 1.0 / 4.0,
                1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0)

_FD_STEP = 1e-6  # centered-difference step for slopes without closed form

#: The range of a regularization level ``lam``: (check, requirement).  A NaN
#: fails the check.
LEVEL_RANGE = (lambda lam: lam > 0, "must be positive")

#: A regularized map of a spec: (level, array of points) -> array of values.
RegularizedMap = Callable[[float, np.ndarray], np.ndarray]
#: The Yosida slope of a spec: (level, points, Yosida values there) -> slopes.
SlopeMap = Callable[[float, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class DomainInterval:
    """Effective domain of a scalar graph: an interval with open or closed ends."""

    lo: float = -math.inf
    hi: float = math.inf
    lo_closed: bool = False
    hi_closed: bool = False

    def contains(self, s):
        """Elementwise membership of scalars or arrays."""
        s = np.asarray(s, dtype=float)
        above = s >= self.lo if self.lo_closed else s > self.lo
        below = s <= self.hi if self.hi_closed else s < self.hi
        return above & below

    def strictly_contains(self, s: float) -> bool:
        return self.lo < s < self.hi

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)


def _xlogx(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0.0
    out[pos] = t[pos] * np.log(t[pos])
    return out


@dataclass(frozen=True)
class PotentialSpec:
    """Convex/smooth split of a double-well potential with its regularized maps.

    ``beta_hat``, ``pi_hat``, ``pi`` and ``pi_prime`` are vectorized scalar
    functions; ``pi`` has Lipschitz constant ``lipschitz_pi``.  ``beta``
    maps an array of points of its domain to the arrays ``(lo, hi)`` of the
    ends of the (possibly degenerate, possibly unbounded) graph intervals
    there.  ``resolvent`` and ``yosida`` map a level and an array of points
    to ``J_lam`` and ``beta_lam`` at those points.  ``yosida_slope`` maps a
    level, the points and ``beta_lam`` at them to the derivative of
    ``beta_lam`` there; a slope with a closed form in ``J_lam`` reads the
    resolvent off the Yosida value instead of solving for it again, and the
    others ignore the value.  Build specs with :func:`make_potential` or
    :func:`custom_potential`.
    """

    beta_hat: Callable[[np.ndarray], np.ndarray]
    beta: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]
    pi_hat: Callable[[np.ndarray], np.ndarray]
    pi: Callable[[np.ndarray], np.ndarray]
    pi_prime: Callable[[np.ndarray], np.ndarray]
    lipschitz_pi: float
    resolvent: RegularizedMap
    yosida: RegularizedMap
    yosida_slope: SlopeMap
    beta_domain: DomainInterval = DomainInterval()
    beta_hat_domain: DomainInterval = DomainInterval()
    #: set when the graph is a single-valued C^1 function on an open interval
    smooth_graph: bool = False

    @property
    def stability_shift(self) -> float:
        """Lipschitz constant of ``pi`` plus one; the convexifying shift of the scheme."""
        return self.lipschitz_pi + 1.0


def _quotient(resolvent: RegularizedMap) -> RegularizedMap:
    """The Yosida map ``(s - J_lam(s))/lam`` of a resolvent."""
    return lambda lam, s: (s - resolvent(lam, s)) / lam


def _regular_spec() -> PotentialSpec:
    # quartic double well split so the convex part vanishes at the origin
    # and the perturbation derivative has Lipschitz constant one
    def resolvent(lam, s):
        # J + lam*J^3 = s, single real root of the depressed cubic in hyperbolic form
        p = 1.0 / lam
        arg = (s / lam) / (2.0 * (p / 3.0) ** 1.5)
        return 2.0 * np.sqrt(p / 3.0) * np.sinh(np.arcsinh(arg) / 3.0)

    def yosida_slope(lam, s, value):
        j = np.cbrt(value)  # beta_lam(s) = beta(J) = J^3
        return 3.0 * j * j / (1.0 + 3.0 * lam * j * j)

    return PotentialSpec(
        beta_hat=lambda s: np.asarray(s, dtype=float) ** 4 / 4.0,
        beta=lambda y: (y**3, y**3),
        pi_hat=lambda s: (1.0 - 2.0 * np.asarray(s, dtype=float) ** 2) / 4.0,
        pi=lambda s: -np.asarray(s, dtype=float),
        pi_prime=lambda s: -np.ones_like(np.asarray(s, dtype=float)),
        lipschitz_pi=1.0,
        resolvent=resolvent,
        yosida=_quotient(resolvent),
        yosida_slope=yosida_slope,
        smooth_graph=True,
    )


def _logarithmic_newton(lam, s, tol=1e-12, budget=100):
    # J = tanh(theta) gives f = tanh(theta) + 2 lam theta - s = 0 and beta_lam = 2 theta.  As f' =
    # sech^2 + 2 lam > 0 and f'' = -2 sech^2 tanh, f is concave on [0, theta*] for s > 0: Newton
    # climbs to theta* from any point there.  Lower bounds: the Newton step from atanh(s) > theta*
    # (s < 1), (s - 1)/(2 lam) as tanh < 1, s/(1 + 2 lam) as tanh x <= x.  s < 0 mirrors via |s|.
    s = np.asarray(s, dtype=float)
    a = np.abs(s)
    u = np.where(a < 1.0, a, 0.0)
    v = 1.0 - u * u
    bound = np.maximum((a - 1.0) / (2.0 * lam), a / (1.0 + 2.0 * lam))
    theta = np.copysign(np.maximum(np.arctanh(u) * v / (v + 2.0 * lam), bound), s)
    for _ in range(budget):
        t = np.tanh(theta)
        f = t + 2.0 * lam * theta - s
        # the step after |f| < tol polishes theta to round-off for the nodal residual
        theta = theta - f / ((1.0 - t * t) + 2.0 * lam)
        if np.max(np.abs(f)) < tol:
            break
    else:
        worst = float(np.max(np.abs(np.tanh(theta) + 2.0 * lam * theta - s)))
        raise NumericalError(
            f"logarithmic resolvent failed to converge: residual {worst:.3e} "
            f"after {budget} iterations at level {lam}"
        )
    return np.tanh(theta), 2.0 * theta


def _logarithmic_spec(c1: float) -> PotentialSpec:
    def beta_hat(s):
        s = np.asarray(s, dtype=float)
        out = np.full_like(s, np.inf)
        ok = np.abs(s) <= 1.0
        out[ok] = _xlogx(1.0 + s[ok]) + _xlogx(1.0 - s[ok])
        return out

    def beta(y):
        v = np.log((1.0 + y) / (1.0 - y))
        return v, v

    def yosida_slope(lam, s, value):
        # value = 2*theta exactly, so tanh(value/2) is the resolvent bit for bit
        j = np.tanh(0.5 * value)
        return 2.0 / ((1.0 - j * j) + 2.0 * lam)

    return PotentialSpec(
        beta_hat=beta_hat,
        beta=beta,
        pi_hat=lambda s: -c1 * np.asarray(s, dtype=float) ** 2,
        pi=lambda s: -2.0 * c1 * np.asarray(s, dtype=float),
        pi_prime=lambda s: np.full_like(np.asarray(s, dtype=float), -2.0 * c1),
        lipschitz_pi=2.0 * c1,
        beta_domain=DomainInterval(-1.0, 1.0),
        beta_hat_domain=DomainInterval(-1.0, 1.0, True, True),
        resolvent=lambda lam, s: _logarithmic_newton(lam, s)[0],
        yosida=lambda lam, s: _logarithmic_newton(lam, s)[1],
        yosida_slope=yosida_slope,
        smooth_graph=True,
    )


def _obstacle_spec(c2: float) -> PotentialSpec:
    def beta_hat(s):
        s = np.asarray(s, dtype=float)
        return np.where(np.abs(s) <= 1.0, 0.0, np.inf)

    def beta(y):
        y = np.asarray(y, dtype=float)
        return np.where(y <= -1.0, -np.inf, 0.0), np.where(y >= 1.0, np.inf, 0.0)

    def resolvent(lam, s):
        # np.clip's value, NaN and -0.0 included, at about half its call cost
        return np.minimum(np.maximum(s, -1.0), 1.0)

    return PotentialSpec(
        beta_hat=beta_hat,
        beta=beta,
        pi_hat=lambda s: -c2 * np.asarray(s, dtype=float) ** 2,
        pi=lambda s: -2.0 * c2 * np.asarray(s, dtype=float),
        pi_prime=lambda s: np.full_like(np.asarray(s, dtype=float), -2.0 * c2),
        lipschitz_pi=2.0 * c2,
        beta_domain=DomainInterval(-1.0, 1.0, True, True),
        beta_hat_domain=DomainInterval(-1.0, 1.0, True, True),
        resolvent=resolvent,
        yosida=_quotient(resolvent),
        yosida_slope=lambda lam, s, value: np.where(np.abs(s) > 1.0, 1.0 / lam, 0.0),
    )


def _nonunique_mu_spec() -> PotentialSpec:
    # quadratic plus absolute value: the graph jumps across [-1, 1] at zero,
    # the construction behind the nonuniqueness of the longtime multiplier
    def beta(y):
        y = np.asarray(y, dtype=float)
        v = 2.0 * y + np.sign(y)
        return np.where(y == 0.0, -1.0, v), np.where(y == 0.0, 1.0, v)

    def resolvent(lam, s):
        return np.sign(s) * np.maximum(np.abs(s) - lam, 0.0) / (1.0 + 2.0 * lam)

    return PotentialSpec(
        beta_hat=lambda s: np.asarray(s, dtype=float) ** 2 + np.abs(np.asarray(s, dtype=float)),
        beta=beta,
        pi_hat=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        pi=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        pi_prime=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        lipschitz_pi=0.0,
        resolvent=resolvent,
        yosida=_quotient(resolvent),
        yosida_slope=lambda lam, s, value: np.where(np.abs(s) <= lam, 1.0 / lam,
                                                    2.0 / (1.0 + 2.0 * lam)),
    )


def make_potential(name: str, **params) -> PotentialSpec:
    """Build one of the canonical potentials.

    ``regular``: quartic double well, no parameters.
    ``logarithmic``: entropy well minus ``c1*s**2``; requires ``c1 > 1``.
    ``obstacle``: indicator of [-1, 1] minus ``c2*s**2``; requires ``c2 > 0``.
    ``example_best``: ``s**2 + |s|`` with no perturbation (multivalued at 0).
    """
    if name == "regular":
        if params:
            raise ConfigurationError("regular potential takes no parameters")
        return _regular_spec()
    if name == "logarithmic":
        c1 = params.pop("c1", None)
        if params or c1 is None or not c1 > 1.0:
            raise ConfigurationError("logarithmic potential requires exactly c1 > 1")
        return _logarithmic_spec(float(c1))
    if name == "obstacle":
        c2 = params.pop("c2", None)
        if params or c2 is None or not c2 > 0.0:
            raise ConfigurationError("obstacle potential requires exactly c2 > 0")
        return _obstacle_spec(float(c2))
    if name == "example_best":
        if params:
            raise ConfigurationError("example_best potential takes no parameters")
        return _nonunique_mu_spec()
    raise ConfigurationError(f"unknown potential name: {name!r}")


def custom_potential(**fields) -> PotentialSpec:
    """Spec of a graph without closed forms, admitted by :func:`validate_potential`.

    ``fields`` are the fields of :class:`PotentialSpec` other than the three
    regularized maps; ``beta`` must accept arrays.  The resolvent is found
    by bracketing bisection, the Yosida map is ``(s - J)/lam`` and its
    slope a centered difference with step 1e-6.  Raises
    :class:`ConfigurationError` when the sampled structural checks fail.
    """
    def resolvent(lam, s):
        return _resolvent_bisection(spec, lam, s)

    yosida = _quotient(resolvent)

    def yosida_slope(lam, s, value):
        return (yosida(lam, s + _FD_STEP) - yosida(lam, s - _FD_STEP)) / (2.0 * _FD_STEP)

    spec = PotentialSpec(resolvent=resolvent, yosida=yosida, yosida_slope=yosida_slope,
                         **fields)
    validate_potential(spec)
    return spec


def validate_potential(spec: PotentialSpec) -> None:
    """Sampled check of the structural hypotheses; raises on failure.

    Verifies ``beta_hat(0) = 0`` and nonnegativity, monotonicity of the
    graph on sorted samples inside its domain, and the declared Lipschitz
    constant of the perturbation derivative.  :func:`custom_potential`
    runs it on every spec it builds.
    """
    samples, span = 1000, 3.0   # drawn points, and the half-width of their range
    rng = np.random.default_rng(0)
    b0 = float(spec.beta_hat(np.array([0.0]))[0])
    if abs(b0) > 1e-12:
        raise ConfigurationError(f"beta_hat(0) = {b0!r}, expected 0")
    dom = spec.beta_domain
    lo = max(dom.lo, -span)
    hi = min(dom.hi, span)
    pts = rng.uniform(lo, hi, size=2 * samples)
    pts = pts[dom.contains(pts)]
    vals = spec.beta_hat(pts)
    if np.any(vals < -1e-12):
        raise ConfigurationError("beta_hat takes negative values")
    # graph monotonicity: sup beta(s) <= inf beta(t) whenever s < t
    order = np.sort(pts[:samples])
    s, t = order[:-1], order[1:]
    bad = (s != t) & (spec.beta(s)[1] > spec.beta(t)[0] + 1e-12)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ConfigurationError(f"graph is not monotone between {s[i]} and {t[i]}")
    a = rng.uniform(-span, span, size=samples)
    b = rng.uniform(-span, span, size=samples)
    gap = np.abs(spec.pi(a) - spec.pi(b))
    bound = spec.lipschitz_pi * np.abs(a - b)
    if np.any(gap > bound + 1e-10 * np.maximum(1.0, bound)):
        raise ConfigurationError("declared Lipschitz constant of pi is violated")


def _resolvent_bisection(spec, lam, s, budget=200):
    # generic maximal monotone graph: J is the unique point with
    # s - J in lam*beta(J); bracket via nonexpansiveness through 0.  The
    # first two probes are the bracket's ends, where a multivalued point of
    # the graph (a kink of beta_hat or a closed domain end) may sit exactly;
    # later probes are midpoints.  A point leaves the active set once its
    # probe is a selection or its bracket has shrunk to round-off.
    s = np.asarray(s, dtype=float)
    flat = s.ravel()
    out = np.empty_like(flat)
    dom = spec.beta_domain
    active = np.arange(flat.size)
    lo = np.maximum(np.minimum(flat, 0.0), dom.lo)
    hi = np.minimum(np.maximum(flat, 0.0), dom.hi)
    width_tol = 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(flat))
    for k in range(budget):
        if not active.size:
            break
        si = flat[active]
        probe = lo if k == 0 else hi if k == 1 else 0.5 * (lo + hi)
        # nudge into the domain; the bracket ends may sit on an open boundary
        probe = np.where(dom.contains(probe), probe, np.nextafter(probe, 0.0))
        blo, bhi = spec.beta(probe)
        target = (si - probe) / lam
        up, down = target > bhi, target < blo
        lo, hi = np.where(up, probe, lo), np.where(down, probe, hi)
        hit = ~(up | down)
        narrow = ~hit & (hi - lo < width_tol[active])
        out[active[hit]] = probe[hit]
        out[active[narrow]] = 0.5 * (lo[narrow] + hi[narrow])
        keep = ~(hit | narrow)
        active, lo, hi = active[keep], lo[keep], hi[keep]
    if active.size:
        raise NumericalError(
            f"resolvent bisection exhausted {budget} iterations at "
            f"s={float(flat[active[0]])!r}, level {lam}: bracket [{lo[0]:.17g}, {hi[0]:.17g}]"
        )
    residual = graph_selection_residual(spec, out, (flat - out) / lam)
    # a narrow bracket's midpoint is within width_tol/2 of J, which moves the
    # quotient (s - J)/lam by up to width_tol/(2 lam): at small levels more
    # than the relative allowance when |s| is below about lam
    bad = residual > 1e-10 * np.maximum(1.0, np.abs(flat) / lam) + width_tol / lam
    if np.any(bad):
        i = int(np.argmax(bad))
        raise NumericalError(
            f"resolvent bisection left selection residual {residual[i]:.3e} "
            f"at s={float(flat[i])!r}, level {lam}"
        )
    return out.reshape(s.shape)


def _pointwise(fn, lam: float, s, *values):
    # scalars map to floats, arrays to arrays of the same shape; 1-d float
    # arrays, the stepper's rows, go through as they are (values: at most one)
    value = values[0] if values else s
    if (type(s) is np.ndarray and s.ndim == 1 and s.dtype == np.float64
            and type(value) is np.ndarray and value.ndim == 1 and value.dtype == np.float64):
        return fn(lam, s, *values)
    out = fn(lam, *[np.atleast_1d(np.asarray(v, dtype=float)) for v in (s, *values)])
    return float(out[0]) if np.isscalar(s) else out


def yosida(spec: PotentialSpec, lam: float, s) -> np.ndarray | float:
    """Yosida approximation ``beta_lam(s) = (s - J_lam(s))/lam`` at level ``lam``.

    This is a selection of the graph at the resolvent point:
    ``beta_lam(s)`` lies in ``beta(J_lam(s))``.
    """
    return _pointwise(spec.yosida, lam, s)


def yosida_primal(spec: PotentialSpec, lam: float, s) -> np.ndarray | float:
    """Regularized convex part ``beta_hat_lam(s)``, always in [0, beta_hat(s)].

    Evaluated through the resolvent as ``|s - J|^2/(2 lam) + beta_hat(J)``,
    which equals the infimum over r of ``|r - s|^2/(2 lam) + beta_hat(r)``.
    """
    scalar = np.isscalar(s)
    arr = np.atleast_1d(np.asarray(s, dtype=float))
    j = spec.resolvent(lam, arr)
    if spec.beta_domain.bounded:
        # the resolvent may round onto the boundary of an open domain;
        # beta_hat is evaluated in the closure where it is finite
        j = np.clip(j, spec.beta_hat_domain.lo, spec.beta_hat_domain.hi)
    out = (arr - j) ** 2 / (2.0 * lam) + spec.beta_hat(j)
    return float(out[0]) if scalar else out


def yosida_derivative(spec: PotentialSpec, lam: float, s, value) -> np.ndarray | float:
    """Pointwise derivative of the Yosida approximation, in [0, 1/lam].

    ``value`` is ``beta_lam(s)`` as :func:`yosida` returns it; the smooth
    canonical wells take their slope from it without solving the resolvent
    again.  At kinks of the piecewise-defined canonical graphs one of the
    one-sided values is used; custom graphs use centered differences.
    """
    return _pointwise(spec.yosida_slope, lam, s, value)


def graph_selection_residual(spec: PotentialSpec, y, xi):
    """Elementwise distance from ``xi`` to the set ``beta(y)``; zero iff a valid selection.

    Raises :class:`DomainError` when a point ``y`` lies outside the graph's domain.
    """
    y = np.asarray(y, dtype=float)
    outside = ~spec.beta_domain.contains(y)
    if np.any(outside):
        raise DomainError(
            f"{float(y[outside][0])!r} is outside the effective domain of the graph")
    lo, hi = spec.beta(y)
    out = np.maximum(np.maximum(lo - xi, xi - hi), 0.0)
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class CoercivityCertificate:
    """Numerical witness of the quadratic lower bound of the regularized split.

    Certifies ``beta_hat_lam(s) + pi_hat(s) >= alpha*s^2 - C`` on the
    scanned grid for every tested level up to ``lambda_max``.  The bound is
    only witnessed on the finite range recorded here; it is not
    extrapolated beyond it.
    """

    alpha: float
    C: float
    scan_range: Tuple[float, float]
    lambda_max: float
    grid_points: int


def coercivity_check(spec: PotentialSpec, lambdas, scan_range=(-5.0, 5.0),
                     grid: int = 2001) -> CoercivityCertificate:
    """Scan for the largest slope of :data:`ALPHA_LADDER` admitting a finite offset.

    For each candidate ``alpha`` (descending) the deficit
    ``beta_hat_lam + pi_hat - alpha*s^2`` is evaluated on the grid for all
    supplied levels.  A candidate is rejected when the deficit is still
    falling at either edge of the range, since the offset would then grow
    with the range and the quadratic growth hypothesis is in doubt.
    Raises :class:`CoercivityError` when every candidate is rejected.
    """
    lo, hi = float(scan_range[0]), float(scan_range[1])
    if not (lo < 0.0 < hi) or abs(lo + hi) > 1e-12 * (hi - lo):
        raise ConfigurationError("scan range must be symmetric around zero")
    if grid < 1000:
        raise ConfigurationError("coercivity scan needs at least 1000 grid points")
    lambdas = sorted(float(v) for v in np.atleast_1d(lambdas))
    if not lambdas or not all(LEVEL_RANGE[0](lam) for lam in lambdas):
        raise ConfigurationError("need at least one positive regularization level")
    s = np.linspace(lo, hi, int(grid))
    base = np.full_like(s, np.inf)
    for lam in lambdas:
        base = np.minimum(base, yosida_primal(spec, lam, s) + spec.pi_hat(s))
    edge_tol = 1e-9 * max(1.0, float(np.abs(base[np.isfinite(base)]).max()))
    rejected = {}
    for alpha in ALPHA_LADDER:
        deficit = base - alpha * s * s
        falling_right = deficit[-1] < deficit[-2] - edge_tol
        falling_left = deficit[0] < deficit[1] - edge_tol
        if falling_left or falling_right:
            rejected[alpha] = "deficit decreasing at the range edge"
            continue
        c = max(0.0, float(-deficit.min()))
        return CoercivityCertificate(
            alpha=float(alpha), C=c, scan_range=(lo, hi),
            lambda_max=lambdas[-1], grid_points=int(grid),
        )
    raise CoercivityError(
        "no quadratic lower bound certified on the scanned range",
        report={"rejected": rejected, "scan_range": (lo, hi), "lambdas": lambdas},
    )
