"""Implicit time discretization of the two-operator phase separation system.

One step advances the pair (y, mu) by solving

    (y+ - y)/h + mu+ + A2r mu+ = mu
    tau (y+ - y)/h + (L I + B2s + beta_lam + pi)(y+) = L y + mu+ + u+

where ``A2r`` and ``B2s`` are the doubled fractional powers of the two
operators, ``beta_lam`` is the Yosida approximation of the graph at level
``lam``, and ``L`` is the Lipschitz constant of ``pi`` plus one.  With the
increment ``d = y+ - y`` and the diagonal spectral inverse
``S = (I + A2r)^(-1)``, the potential value is ``mu+ = S (mu - d/h)`` and
the increment solves the strongly monotone nodal equation

    K d + beta_lam(y + d) + pi(y + d) = u+ + S mu - B2s y,
    K = (tau/h + L) I + B2s + S/h.

``K`` is assembled once per run; damped Newton solves for ``d`` from the
previous step's increment ``y^n - y^(n-1)`` (from ``d = 0`` on the first
step), the state moving at a constant rate being a better guess than a
state at rest.  The start changes where Newton begins, not the equation it
solves or ``mu+``, which stays eliminated exactly.  Newton takes one
product with ``K`` per residual and ``K`` plus the slope diagonal
``beta_lam' + pi'`` as Jacobian.  Its direction is found in one of three
ways, picked by the slope and the operators:

- At most half of the nodes lie above the smallest slope ``c`` (the
  obstacle well, whose Yosida slope is 0 or 1/lam): the Woodbury
  correction of ``G = (K + c I)^(-1)`` on those nodes.  ``G`` is inverted
  once per run and again only when ``c`` changes, and each iteration
  solves a system the size of that node set.  The obstacle slope changes
  only where the contact set does, so the columns of ``G`` on that set
  and the small system's matrix are kept from one iteration and one step
  to the next until the set or its slopes move.
- More nodes above ``c`` (the smooth wells, whose slope differs from node
  to node), and both operators on one eigenbasis ``Phi`` of ``n`` modes
  with ``n`` at most 3/5 of the grid size: ``K`` is a multiple of the
  identity plus a rank-``n`` term along the modes, and the Woodbury
  identity along them leaves one ``n`` x ``n`` system per iteration.
- Otherwise (two bases, or as many modes as nodes, as a matrix operator
  has) the dense LU of the Jacobian.

Each iteration makes exactly one ``numpy.linalg.solve`` call.  Newton
stops once the residual is at most ``newton_tol``.  A residual it can
reduce no further is accepted at its round-off floor, which for large
operator powers lies above ``newton_tol``.

Trajectories start from ``y0`` with ``mu0 = 0``; that
initialization is part of the scheme, not a configurable choice, and it
is what makes the discrete mass identity exact.  A trajectory stores the
states as two read-only (N+1, m) arrays, one row per step, which the
stepper fills in place.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import potentials as pot
from . import spectral as sp
from .errors import (
    ConfigurationError,
    ConstantSpanHypothesisError,
    DimensionError,
    InitialDataHypothesisError,
    MeanInteriorHypothesisError,
    SourceTailHypothesisError,
    SpectrumHypothesisError,
    StepError,
)


#: A Newton residual within this many times its largest summand (16
#: machine epsilons) is round-off; no step size or regularization level
#: reduces it.
_ROUNDOFF = 16.0 * np.finfo(float).eps


#: The range of each scalar setting of the scheme: name -> (check, requirement).
#: A NaN fails every check.
SCHEME_RANGES = {
    "tau": (lambda value: 0.0 <= value <= 1.0, "must lie in [0, 1]"),
    "yosida_lambda": (lambda value: value > 0, "must be positive"),
    "h": (lambda value: value > 0, "must be positive"),
    "steps": (lambda value: value >= 0, "must be nonnegative"),
    "newton_tol": (lambda value: value > 0, "must be positive"),
    "newton_max": (lambda value: value >= 1, "must be at least 1"),
}


@dataclass(frozen=True)
class SchemeConfig:
    """Everything the scheme needs besides the data: operators, potential, steps."""

    op_A: sp.FractionalOperator
    op_B: sp.FractionalOperator
    spec: pot.PotentialSpec
    yosida_lambda: float
    tau: float
    h: float
    steps: int
    newton_tol: float = 1e-10
    newton_max: int = 50

    def __post_init__(self):
        for key, (ok, requirement) in SCHEME_RANGES.items():
            if not ok(getattr(self, key)):
                raise ConfigurationError(f"{key} {requirement}")
        if not self.op_A.basis.grid.same_as(self.op_B.basis.grid):
            raise ConfigurationError("the two operators must share one quadrature grid")

    @property
    def grid(self) -> sp.Grid:
        return self.op_A.basis.grid

    @property
    def regularization(self) -> pot.YosidaRegularization:
        return pot.YosidaRegularization(self.spec, self.yosida_lambda)



@dataclass(frozen=True)
class DecaySource:
    """Source ``u(t) = u_inf + bump * exp(-rate*t)``.

    Covers the constant case (zero bump) and the settling case (positive
    rate).  The time derivative has the exact integral norm
    ``|bump| * (1 - exp(-rate*T))`` used by the energy ledgers.
    """

    u_inf: sp.Field
    bump: Optional[sp.Field] = None
    rate: float = 0.0

    def __post_init__(self):
        if self.rate < 0:
            raise ConfigurationError("decay rate must be nonnegative")
        if self.bump is not None and not self.bump.grid.same_as(self.u_inf.grid):
            raise DimensionError("bump and settled value live on different grids")

    def at(self, t: float) -> sp.Field:
        return sp.Field(self.values(np.array([t]))[0], self.u_inf.grid)

    def values(self, times: np.ndarray) -> np.ndarray:
        """Nodal values at each of the given times, one row per time."""
        if self.bump is None:
            return np.broadcast_to(self.u_inf.values, (len(times), self.u_inf.grid.size))
        return self.u_inf.values + np.exp(-self.rate * times)[:, None] * self.bump.values

    def derivative_l1(self, horizon):
        """Exact value of the integral of |du/dt| over (0, horizon)."""
        if self.bump is None or self.rate == 0.0:
            return 0.0
        return sp.norm(self.bump) * (1.0 - np.exp(-self.rate * horizon))

    def settles(self) -> bool:
        """Whether u - u_inf is square integrable on the half line."""
        return self.bump is None or sp.norm(self.bump) == 0.0 or self.rate > 0.0


@dataclass(frozen=True)
class TabulatedSource:
    """Right-continuous step source through tabulated (time, field) samples."""

    times: np.ndarray
    fields: Sequence[sp.Field]

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size != len(self.fields) or t.size == 0:
            raise ConfigurationError("tabulated source needs matching times and fields")
        if np.any(np.diff(t) <= 0):
            raise ConfigurationError("tabulated times must be strictly increasing")
        t.flags.writeable = False
        object.__setattr__(self, "times", t)
        table = np.array([f.values for f in self.fields])
        table.flags.writeable = False
        object.__setattr__(self, "_table", table)

    @property
    def u_inf(self) -> sp.Field:
        return self.fields[-1]

    def at(self, t: float) -> sp.Field:
        return sp.Field(self.values(np.array([t]))[0], self.u_inf.grid)

    def values(self, times: np.ndarray) -> np.ndarray:
        """Nodal values at each of the given times, one row per time."""
        idx = np.searchsorted(self.times, times, side="right") - 1
        return self._table[np.maximum(idx, 0)]

    def derivative_l1(self, horizon):
        """Sum of the jump norms at the tabulated times up to each horizon."""
        jumps = sp.row_norms(np.diff(self._table, axis=0), self.u_inf.grid)
        totals = np.concatenate(([0.0], np.cumsum(jumps)))
        return totals[np.searchsorted(self.times[1:], horizon, side="right")]

    def settles(self) -> bool:
        return True  # compactly supported variation


def zero_source(grid: sp.Grid) -> DecaySource:
    return DecaySource(sp.constant_field(0.0, grid))


@dataclass(frozen=True)
class ProblemData:
    """Initial state and source term."""

    y0: sp.Field
    source: DecaySource | TabulatedSource

    @property
    def initial_mean(self) -> float:
        return sp.mean(self.y0)


@dataclass(frozen=True)
class ValidationReport:
    """Named outcomes of the hypothesis checks; all true when validation passes."""

    checks: dict

    def __bool__(self):
        return all(self.checks.values())


def validate(config: SchemeConfig, data: ProblemData) -> ValidationReport:
    """Check the structural and data hypotheses; raise a named error on failure.

    With a positive first eigenvalue of the first operator the mean-value
    hypotheses are skipped.  With a zero first eigenvalue the zero must be
    simple with a constant first mode, constants must be representable in
    the second operator's basis, and the initial mean must lie strictly
    inside the graph domain.
    """
    checks = {}
    basis_a = config.op_A.basis
    lam1 = config.op_A.lambda1
    checks["lambda1_branch"] = "positive" if lam1 > 0 else "zero"
    if lam1 == 0.0:
        if basis_a.n < 2 or basis_a.lambdas[1] <= 0.0:
            raise SpectrumHypothesisError("zero eigenvalue is not simple: lambda_2 = 0")
        if not basis_a.first_mode_is_constant():
            raise SpectrumHypothesisError(
                "first eigenvalue vanishes but the first mode is not constant"
            )
        checks["simple_zero_eigenvalue"] = True
        ones = sp.constant_field(1.0, config.grid)
        defect = config.op_B.basis.span_projection_defect(ones)
        if defect > 1e-10 * np.sqrt(config.grid.length):
            raise ConstantSpanHypothesisError(
                f"constants are not in the span of the second basis (defect {defect:.3e})"
            )
        checks["constants_in_second_span"] = True
    y0 = data.y0
    if not y0.grid.same_as(config.grid):
        raise DimensionError("initial state is not on the scheme grid")
    if not data.source.u_inf.grid.same_as(config.grid):
        raise DimensionError("source is not on the scheme grid")
    energy = config.spec.beta_hat(y0.values)
    if not np.all(np.isfinite(energy)):
        raise InitialDataHypothesisError(
            "initial state has non-integrable convex energy (values outside the domain)"
        )
    checks["initial_energy_integrable"] = True
    if lam1 == 0.0:
        m0 = data.initial_mean
        if not config.spec.beta_domain.strictly_contains(m0):
            raise MeanInteriorHypothesisError(
                f"initial mean {m0!r} is not interior to the graph domain"
            )
        checks["mean_interior"] = True
    if not data.source.settles():
        raise SourceTailHypothesisError(
            "source does not settle: u - u_inf is not square integrable in time"
        )
    checks["source_settles"] = True
    return ValidationReport(checks)


@dataclass
class StepStats:
    """Per-step solver diagnostics."""

    iterations: int
    residual_phase: float
    residual_potential: float
    dampings: int = 0


class FieldRows(Sequence):
    """The rows of a (K, m) array of nodal values, each indexed as a Field."""

    def __init__(self, values: np.ndarray, grid: sp.Grid):
        self.values = values
        self.grid = grid

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, k) -> sp.Field:
        return sp.Field(self.values[k], self.grid)


@dataclass(frozen=True, eq=False)
class DiscreteTrajectory:
    """Solution tuples (y^0..y^N, mu^0..mu^N) plus solver diagnostics.

    ``y`` and ``mu`` are read-only (N+1, m) arrays of nodal values with one
    row per step; ``ys[k]`` and ``mus[k]`` return row k as a Field.
    """

    y: np.ndarray
    mu: np.ndarray
    solver_stats: List[StepStats]
    config: SchemeConfig
    data: ProblemData

    def __post_init__(self):
        shape = (len(self.solver_stats) + 1, self.config.grid.size)
        for name in ("y", "mu"):
            rows = np.asarray(getattr(self, name), dtype=float)
            if rows.shape != shape:
                raise DimensionError(f"{name} must hold {shape[0]} rows of {shape[1]} nodal values")
            rows.flags.writeable = False
            object.__setattr__(self, name, rows)

    @property
    def ys(self) -> FieldRows:
        return FieldRows(self.y, self.config.grid)

    @property
    def mus(self) -> FieldRows:
        return FieldRows(self.mu, self.config.grid)

    @property
    def h(self) -> float:
        return self.config.h

    @property
    def steps(self) -> int:
        return len(self.y) - 1

    @property
    def final_time(self) -> float:
        return self.steps * self.h

    def times(self) -> np.ndarray:
        return self.h * np.arange(self.steps + 1)

    def truncated(self, steps: int) -> "DiscreteTrajectory":
        """Prefix of the trajectory with the given number of steps; a view."""
        if not (0 <= steps <= self.steps):
            raise ConfigurationError("truncation exceeds the trajectory length")
        return dataclasses.replace(self, y=self.y[: steps + 1], mu=self.mu[: steps + 1],
                                   solver_stats=self.solver_stats[:steps])


#: The mode branch pays while the shared basis has at most this share of the
#: grid size as modes.  Timed per direction against the dense LU on grids
#: of 129, 257 and 513 nodes (one BLAS thread), it is faster on all three up
#: to 0.60 (1.5x, 1.7x and 2.0x at 0.50), between 4% slower and 7% faster
#: at 0.70, and slower on all three at 0.75.
_MODE_SHARE = 0.6


class _Workspace:
    """The step operator K of one run, assembled once, and its Newton directions.

    ``direction`` solves ``(K + diag(slope)) delta = -g`` along one of three
    branches.  With ``c`` the smallest slope and ``off`` the nodes above it,
    ``K + diag(slope)`` is ``K + c I`` plus a diagonal update on ``off``.

    *Nodes.*  When ``off`` holds at most half of the nodes, the Woodbury
    identity on them gives

        delta = x - G[:, off] (I + E G[off, off])^(-1) E x[off],
        x = -G g,   G = (K + c I)^(-1),   E = diag(slope - c)[off],

    with ``G`` cached until ``c`` changes.  ``K + c I`` is invertible: ``K``
    carries the shift ``L = Lip(pi) + 1`` and ``c >= -Lip(pi)``.  The
    capacitance matrix ``I + E G[off, off]`` is ``E (E^(-1) + G[off, off])``
    without the division, so a slope gap that rounds to a subnormal cannot
    overflow.  ``active`` keeps the factors of the last call, the columns
    ``G[:, off]`` as one contiguous copy and the capacitance matrix, under
    the key ``(off, slope[off] - c)`` for the cached shift.  A call whose
    key equals it bit for bit reuses them; any other key rebuilds them from
    ``G``, and a new shift drops them before ``G`` is inverted again, so a
    failed inversion leaves no factors behind.  A hit feeds the same arrays
    to the same products, so its direction is the rebuilt one bit for bit.

    *Modes.*  More nodes off, with both operators on one basis ``Phi`` of
    ``n <= _MODE_SHARE * m`` modes: there ``K = a I + Phi diag(kappa) Phi^T W``
    with ``a = tau/h + L + 1/h`` and ``kappa = lam_B^2s - lam_A^2r / ((1 +
    lam_A^2r) h)``.  With ``D = a + slope``, which is at least ``1 + 1/h``,
    and ``z = -g / D``, the Woodbury identity along the modes gives

        delta = z - D^(-1) Phi C^(-1) (kappa * Phi^T W z),
        C = I + diag(kappa) Phi^T W D^(-1) Phi,

    an ``n`` x ``n`` system that is invertible because ``K + diag(slope)``
    is (``det(K + diag(slope)) = det(D) det(C)``).  ``Phi^T W D^(-1) Phi``
    is the Gram matrix of the rows of ``Phi^T (W / D)^(1/2)``.  The branch
    keeps no state between calls.

    *Dense.*  Otherwise the dense LU of ``K + diag(slope)``.  Neither of
    the last two branches touches the node branch's factors.  Every branch
    makes one ``numpy.linalg.solve`` call, the capacitance solve running
    even for an empty ``off`` and on every hit, so that a count of linear
    solves (the benchmark's trace) equals the Newton iteration count.
    """

    def __init__(self, config: SchemeConfig):
        # K = (tau/h + L) I + B2s + (I + A2r)^(-1)/h applied to the unit
        # vectors: row i of the result is column i of K
        eye = np.eye(config.grid.size)
        columns = (sp.power_rows(config.op_B, eye, 2.0)
                   + sp.solve_shifted(config.op_A, eye) / config.h)
        self.k = np.ascontiguousarray(columns.T)
        self.diagonal = np.diag_indices_from(self.k)
        shift = config.tau / config.h + config.spec.stability_shift
        self.k[self.diagonal] += shift
        self.w = config.grid.w
        self.k_rows = self.h_norm(np.abs(self.k).sum(axis=1))
        self.config = config
        self.reg = config.regularization
        self.inverse = None   # G = (K + c I)^(-1) for the cached shift c
        self.shift = np.nan
        self.active = None    # (off, excess, G[:, off], capacitance) of the last set
        basis = config.op_A.basis
        self.kappa = None     # set when the smooth slopes take the mode branch
        if basis is config.op_B.basis and basis.n <= _MODE_SHARE * config.grid.size:
            weights = config.op_A.power_weights(2.0)
            self.a = shift + 1.0 / config.h
            self.kappa = config.op_B.power_weights(2.0) - weights / ((1.0 + weights) * config.h)
            self.modes = basis.modes
            self.analysis = basis.analysis_matrix

    def direction(self, slope: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Newton direction: the solution of ``(K + diag(slope)) delta = -g``."""
        c = slope.min()
        off = np.flatnonzero(slope - c)
        if 2 * off.size > slope.size:
            if self.kappa is not None:
                return self._along_modes(slope, g)
            jac = self.k.copy()
            jac[self.diagonal] += slope
            return np.linalg.solve(jac, -g)
        if c != self.shift:
            # drop every factor of the old G before inverting, so that a
            # failed inversion leaves nothing to hit
            self.inverse, self.shift, self.active = None, np.nan, None
            # shift K in place and restore its diagonal exactly: a copy of K
            # would hold one more m x m array at the run's peak
            diagonal = self.k[self.diagonal]
            self.k[self.diagonal] += c
            try:
                self.inverse = np.linalg.inv(self.k)
            finally:
                self.k[self.diagonal] = diagonal
            self.shift = c
        excess = slope[off] - c
        if (self.active is None or not np.array_equal(self.active[0], off)
                or not np.array_equal(self.active[1], excess)):
            columns = self.inverse[:, off]
            capacitance = excess[:, None] * columns[off]
            capacitance[np.diag_indices_from(capacitance)] += 1.0
            self.active = (off, excess, columns, capacitance)
        _, _, columns, capacitance = self.active
        x = self.inverse @ -g
        return x - columns @ np.linalg.solve(capacitance, excess * x[off])

    def _along_modes(self, slope: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The direction of the mode branch (see the class docstring)."""
        inv_d = 1.0 / (self.a + slope)
        z = -g * inv_d
        root = self.modes.T * np.sqrt(self.w * inv_d)
        capacitance = root @ root.T   # a matrix times its own transpose: half a general product
        capacitance *= self.kappa[:, None]
        capacitance.flat[:: len(capacitance) + 1] += 1.0   # the diagonal, without index arrays
        coefficients = np.linalg.solve(capacitance, self.kappa * (self.analysis @ z))
        return z - inv_d * (self.modes @ coefficients)

    def h_norm(self, v: np.ndarray) -> float:
        return float(np.sqrt(np.sum(self.w * v * v)))

    def roundoff_floor(self, d: np.ndarray, *summands: np.ndarray) -> float:
        """Round-off floor of the residual ``K d + sum(summands)``.

        That is :data:`_ROUNDOFF` times the quadrature norm of its largest
        summand.  The products ``K_ij d_j`` are summands too; once the high
        modes are damped they exceed ``K d`` by orders of magnitude, so
        ``K d`` is sized by the absolute row sums of ``K`` times the largest
        ``|d_j|``.
        """
        largest = max(self.k_rows * float(np.abs(d).max()),
                      math.sqrt(max(self.w @ (t * t) for t in summands)))
        return _ROUNDOFF * largest


def _newton_solve(ws: _Workspace, y_prev: np.ndarray, r: np.ndarray, d: np.ndarray):
    """Damped Newton for ``K d + beta_lam(y_prev + d) + pi(y_prev + d) = r``, from ``d``.

    Each residual evaluation solves the resolvent once, through
    :func:`potentials.yosida`.  The Jacobian slope and the round-off floor
    of an accepted iterate reuse the Yosida value of its residual, so no
    iterate solves the resolvent twice.  When the line search fails or
    ``newton_max`` is reached above ``newton_tol``, the residual is accepted
    if it is finite and at its round-off floor (see
    :meth:`_Workspace.roundoff_floor`).
    """
    cfg = ws.config
    reg = ws.reg

    def residual(dc):
        # the residual at y_prev + dc and the Yosida value in it
        yc = y_prev + dc
        beta = pot.yosida(reg, yc)
        return ws.k @ dc + beta + cfg.spec.pi(yc) - r, beta

    def floor_at(dc, beta):
        return ws.roundoff_floor(dc, beta, cfg.spec.pi(y_prev + dc), r)

    g, beta = residual(d)
    res = ws.h_norm(g)
    history = [res]
    dampings = 0
    for iteration in range(cfg.newton_max):
        if res <= cfg.newton_tol:
            return d, iteration, res, dampings
        y = y_prev + d
        delta = ws.direction(pot.yosida_derivative(reg, y, beta) + cfg.spec.pi_prime(y), g)
        alpha = 1.0
        for _ in range(30):
            d_new = d + alpha * delta
            g_new, beta_new = residual(d_new)
            res_new = ws.h_norm(g_new)
            if res_new < res:
                break
            alpha *= 0.5
            dampings += 1
        else:
            floor = floor_at(d, beta)
            if res <= floor < math.inf:
                return d, iteration, res, dampings
            raise StepError(
                f"Newton step could not reduce the residual {res:.3e} below newton_tol "
                f"{cfg.newton_tol:.1e} or its round-off floor {floor:.1e} after 30 halvings; "
                "try a smaller step size or a larger regularization level",
                residual_history=history,
            )
        d, g, beta, res = d_new, g_new, beta_new, res_new
        history.append(res)
    if res <= cfg.newton_tol or res <= floor_at(d, beta) < math.inf:
        return d, cfg.newton_max, res, dampings
    raise StepError(
        f"Newton did not reach tolerance {cfg.newton_tol:.1e} in {cfg.newton_max} "
        "iterations; try a smaller step size or a larger regularization level",
        residual_history=history,
    )


def _advance(ws: _Workspace, y: np.ndarray, mu: np.ndarray, u_next: np.ndarray,
             d_start: np.ndarray):
    """One step from the rows ``(y, mu)``, Newton started at ``y + d_start``.

    Returns the new rows, the increment ``d = y+ - y`` that Newton found,
    which :func:`run` passes on as the next step's start, and the stats.
    """
    cfg = ws.config
    r = u_next + sp.solve_shifted(cfg.op_A, mu) - sp.power_rows(cfg.op_B, y, 2.0)
    d, iters, res, dampings = _newton_solve(ws, y, r, d_start)
    mu_next = sp.solve_shifted(cfg.op_A, mu - d / cfg.h)
    phase_res = ws.h_norm(d / cfg.h + mu_next + sp.power_rows(cfg.op_A, mu_next, 2.0) - mu)
    return y + d, mu_next, d, StepStats(iterations=iters, residual_phase=phase_res,
                                        residual_potential=res, dampings=dampings)


def solve_step(prev_y: sp.Field, prev_mu: sp.Field, u_next: sp.Field,
               config: SchemeConfig, start: Optional[sp.Field] = None):
    """Advance one step; returns ``(next_y, next_mu, stats)``.

    The potential value is eliminated exactly through the shifted spectral
    inverse, so the first equation holds to round-off by construction; the
    Newton residual reported in the stats is the one of the remaining
    nodal equation in the new state.
    """
    for f in (prev_y, prev_mu, u_next):
        if not f.grid.same_as(config.grid):
            raise DimensionError("step fields are not on the scheme grid")
    d_start = (start or prev_y).values - prev_y.values
    y, mu, _, stats = _advance(_Workspace(config), prev_y.values, prev_mu.values,
                               u_next.values, d_start)
    return sp.Field(y, config.grid), sp.Field(mu, config.grid), stats


def run(config: SchemeConfig, data: ProblemData) -> DiscreteTrajectory:
    """Validate, then march the scheme from (y0, 0) for the configured steps.

    Newton starts step 0 at ``d = 0`` and every later step at the previous
    step's increment ``y^n - y^(n-1)``.
    """
    validate(config, data)
    ws = _Workspace(config)
    y = np.empty((config.steps + 1, config.grid.size))
    mu = np.zeros_like(y)
    y[0] = data.y0.values
    d = np.zeros(config.grid.size)
    stats: List[StepStats] = []
    for n in range(config.steps):
        (u_next,) = data.source.values(np.array([(n + 1) * config.h]))
        try:
            y[n + 1], mu[n + 1], d, st = _advance(ws, y[n], mu[n], u_next, d)
        except StepError as exc:
            exc.step_index = n
            raise
        stats.append(st)
    return DiscreteTrajectory(y=y, mu=mu, solver_stats=stats, config=config, data=data)
