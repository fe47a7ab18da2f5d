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

Each basis keeps one ``m`` x ``n`` array, its modes ``Phi``: a synthesis
``Phi c`` and an analysis ``Phi^T W v``, which weights ``v`` by the
quadrature before its product with ``Phi``, pass over the same array.
``K`` is a multiple of the identity plus a term along ``N`` columns
``Psi``, orthonormal in the quadrature inner product: the modes of a basis
both operators share, or else found once per run to span both bases.  ``K``
is applied in that form, one analysis and one synthesis per product, on
every grid.  Damped Newton solves for ``d`` from the previous step's
increment ``d1 = y^n - y^(n-1)`` (from ``d = 0`` on the first step), the
state moving at a constant rate being a better guess than a state at rest.
On a smooth well (``spec.smooth_graph``) it starts instead at whichever of
``0``, ``d1`` and the quadratic extrapolation ``3 d1 - 3 d2 + d3`` of the
last three increments would have come nearest, in the quadrature norm, to
the previous step's increment (Hairer & Wanner, Solving Ordinary
Differential Equations II, IV.8): a settled run starts at ``0``, where
``d1``, a little too large, costs an iteration.  Obstacle runs given the
choice took line-search halvings and ran slower, so the other graphs keep
``d1``.  The start changes where Newton begins, not the equation it solves
or ``mu+``, which stays eliminated exactly.
Newton takes ``K`` plus the slope diagonal
``beta_lam' + pi'`` as Jacobian, and :class:`_Workspace` finds its
direction on one of three branches: the Woodbury correction of ``(K + c
I)^(-1)``, closed along ``Psi``, on the nodes above the smallest slope
``c`` while they are at most half (the obstacle well, whose factors are
kept and updated by the nodes that enter or leave that set); the
Woodbury identity along ``Psi``, one ``N`` x ``N`` system, for other slopes
while ``N`` is at most 3/5 of the grid size; else the dense LU of the
Jacobian, the one thing in a run that builds an ``m`` x ``m`` array.

Newton stops once the residual ``g`` is at most ``newton_tol``.  A finite
residual it can reduce no further is accepted at its round-off floor, node
by node: every ``|g_i|`` at most ``_ROUNDOFF`` times the largest summand at
node ``i`` among ``K d``, sized as :meth:`_Workspace.apply` computes it,
``beta_lam``, ``pi``, the right-hand side and ``slope * (y + d)``, the
rounding of the state times its slope (Oettli and Prager's componentwise
backward error; Higham, Accuracy and Stability of Numerical Algorithms,
ch. 7).  Large operator powers, and slopes of ``1/lam`` at contact nodes,
put that floor above ``newton_tol``.

A step hands the next one Newton's increment ``d``, ``K d`` and the
analysis ``Psi^T W d`` of that product, which its first residual reuses
when it starts at ``d``, so that ``K`` is applied once per trial point of
the line search and once per other start; on a smooth well, the two
increments before ``d`` and the choice of start; the coefficients ``c(mu)``
and ``c(y)`` of the rows along the first and the second basis; and the
spectral part ``S mu - mu - B2s y`` of its right-hand side.
With ``c(d)`` (Newton's on a shared basis, one analysis
per basis with two), ``mu+ = mu - d/h - Phi_A (q (c(mu) - c(d)/h))``, ``q
= lam_A^2r / (1 + lam_A^2r)``, is analysed once, ``c(y+) = c(y) + c(d)``,
and one synthesis gives the next spectral part: three passes over the
modes of a shared basis, six over those of two, plus two per product with
``K`` and per node direction.
``c(y)`` drifts from a fresh analysis by about a rounding per step, so
``run`` analyses the rows afresh at the first step of each block of 64.
``run`` and ``solve_step`` take every step through one routine.  The
carry computed from the rows, the increment and the start history is, at
the first step of a block of a run, the carried one, and gives the step
bit for bit, and elsewhere agrees to round-off; ``solve_step`` computes it
from its rows and start, without a history.

Trajectories start from ``y0`` with ``mu0 = 0``; that
initialization is part of the scheme, not a configurable choice, and it
is what makes the discrete mass identity exact.  ``run`` marches in
blocks of 64 steps and keeps no state beyond the block: at the end of each
block it reduces the block's rows, together with the last row of the block
before, to the per-row and per-step scalar columns every later analysis
reads (norms, split energies, increments, the source pairing and the dual
rates), copies the rows at the snapshot steps and drops the rest.  These
and Newton's numbers go in place into arrays allocated at the run's
length, so a run holds its snapshots and 136 bytes per step.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

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


#: A Newton residual within this many times its largest summand at every
#: node (16 machine epsilons) is round-off; no step size or regularization
#: level reduces it.
_ROUNDOFF = 16.0 * np.finfo(float).eps


#: The range of each scalar setting of the scheme: name -> (check, requirement).
#: A NaN fails every check.
SCHEME_RANGES = {
    "tau": (lambda value: 0.0 <= value <= 1.0, "must lie in [0, 1]"),
    "yosida_lambda": pot.LEVEL_RANGE,
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
    def basis_modes(self) -> tuple:
        """The mode count of each distinct basis: one entry when both operators share one."""
        a, b = self.op_A.basis, self.op_B.basis
        return (a.n,) if a is b else (a.n, b.n)


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
    """Right-continuous step source through tabulated (time, nodal values) rows.

    ``table`` holds one row of nodal values on ``grid`` per time.  It is kept
    as given, read-only, not copied.
    """

    times: np.ndarray
    table: np.ndarray
    grid: sp.Grid

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        table = np.asarray(self.table, dtype=float)
        if t.ndim != 1 or t.size == 0 or table.shape != (t.size, self.grid.size):
            raise ConfigurationError("tabulated source needs matching times and rows")
        if np.any(np.diff(t) <= 0):
            raise ConfigurationError("tabulated times must be strictly increasing")
        for name, array in (("times", t), ("table", table)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def u_inf(self) -> sp.Field:
        return sp.Field(self.table[-1], self.grid)

    def at(self, t: float) -> sp.Field:
        return sp.Field(self.values(np.array([t]))[0], self.grid)

    def values(self, times: np.ndarray) -> np.ndarray:
        """Nodal values at each of the given times, one row per time."""
        idx = np.searchsorted(self.times, times, side="right") - 1
        return self.table[np.maximum(idx, 0)]

    def derivative_l1(self, horizon):
        """Sum of the jump norms at the tabulated times up to each horizon."""
        jumps = sp.row_norms(np.diff(self.table, axis=0), self.grid)
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


def validate(config: SchemeConfig, data: ProblemData) -> None:
    """Check the structural and data hypotheses; raise a named error on failure.

    A positive first eigenvalue of the first operator skips the mean-value
    hypotheses.  With a zero one the zero must be simple with a constant
    first mode, constants must be representable in the second operator's
    basis, and the initial mean must lie strictly inside the graph domain.
    On both branches the data must lie on the scheme grid, the initial state
    must have a finite convex energy and the source must settle.
    """
    basis_a = config.op_A.basis
    lam1 = config.op_A.lambda1
    if lam1 == 0.0:
        if basis_a.n < 2 or basis_a.lambdas[1] <= 0.0:
            raise SpectrumHypothesisError("zero eigenvalue is not simple: lambda_2 = 0")
        if not basis_a.first_mode_is_constant():
            raise SpectrumHypothesisError(
                "first eigenvalue vanishes but the first mode is not constant"
            )
        ones = sp.constant_field(1.0, config.grid)
        defect = config.op_B.basis.span_projection_defect(ones)
        if defect > 1e-10 * np.sqrt(config.grid.length):
            raise ConstantSpanHypothesisError(
                f"constants are not in the span of the second basis (defect {defect:.3e})"
            )
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
    if lam1 == 0.0:
        m0 = data.initial_mean
        if not config.spec.beta_domain.strictly_contains(m0):
            raise MeanInteriorHypothesisError(
                f"initial mean {m0!r} is not interior to the graph domain"
            )
    if not data.source.settles():
        raise SourceTailHypothesisError(
            "source does not settle: u - u_inf is not square integrable in time"
        )


#: Newton's numbers of one step: iterations, accepted residual, line-search halvings.
STEP_STATS = np.dtype([("iterations", np.int64), ("residual_potential", np.float64),
                       ("dampings", np.int64)])


#: The per-row columns of a trajectory, one entry per state ``k = 0..N``:
#: means and norms of ``y`` and ``mu``, ``|B^s y|``, ``|A^r mu|`` and the
#: integral of ``beta_hat_lam + pi_hat`` at ``y`` and of its absolute value.
ROW_COLUMNS = ("mean_y", "mean_mu", "norm_y", "norm_B_sigma_y", "norm_mu", "norm_Ar_mu",
               "split_energy", "split_energy_abs")

#: The per-step columns, one entry per step ``k = 1..N``: with ``dy = y^k -
#: y^(k-1)``, the norms ``|dy|``, ``|mu^k - mu^(k-1)|`` and ``|B^s dy|``, the
#: pairing ``(u^k, dy)``, and the dual norm of the first operator of ``dy / h``
#: and of ``mu^(k-1) - mu^k - A2r mu^k``, which the first equation makes equal.
STEP_COLUMNS = ("norm_dy", "norm_dmu", "norm_B_sigma_dy", "source_pairing", "dual_rate",
                "dual_rate_identity")


@dataclass(frozen=True, eq=False)
class DiscreteTrajectory:
    """A run as it was reduced while it marched, plus solver diagnostics.

    ``columns`` maps each name of :data:`ROW_COLUMNS` to an array of N+1
    entries and each name of :data:`STEP_COLUMNS` to one of N entries.
    ``y_snapshots`` and ``mu_snapshots`` are the (S, m) state rows at
    ``snapshot_steps``, ``y_range`` is the (min, max) of ``y`` over all
    states and ``solver_stats`` the record array of N :data:`STEP_STATS`.
    No other state is kept; every array is the run's own, read-only.
    """

    columns: dict
    snapshot_steps: tuple
    y_snapshots: np.ndarray
    mu_snapshots: np.ndarray
    y_range: tuple
    solver_stats: np.recarray
    config: SchemeConfig
    data: ProblemData

    def snapshot(self, step: int):
        """The state ``(y, mu)`` at one of the snapshot steps, as Fields."""
        i = self.snapshot_steps.index(step)
        grid = self.config.grid
        return sp.Field(self.y_snapshots[i], grid), sp.Field(self.mu_snapshots[i], grid)

    @property
    def h(self) -> float:
        return self.config.h

    @property
    def steps(self) -> int:
        return len(self.solver_stats)

    @property
    def final_time(self) -> float:
        return self.steps * self.h

    def times(self) -> np.ndarray:
        return self.h * np.arange(self.steps + 1)


#: Nodal values per batch of the Yosida evaluation of the split energies: the
#: logarithmic resolvent holds about nine temporaries the size of its batch.
_SPLIT_BLOCK = 8192


class _Recorder:
    """The columns, snapshots, range and Newton numbers of a trajectory,
    written as it marches into arrays allocated at their final length.

    :meth:`add` takes consecutive state rows.  Every call after the first
    starts with the last row of the call before, so that each step's
    increment lies within one call, and every row enters the per-row
    columns once.  The rows at the snapshot steps are copied, in the order
    of ``snapshot_steps``; the others are left to the caller.  ``run``
    writes each step's Newton numbers into ``stats``.
    """

    def __init__(self, config: SchemeConfig, data: ProblemData, snapshot_steps):
        self.snapshot_steps = tuple(int(s) for s in snapshot_steps)
        if any(not 0 <= s <= config.steps for s in self.snapshot_steps):
            raise ConfigurationError(f"snapshot steps must lie in [0, {config.steps}]")
        self.config, self.data = config, data
        self.wanted = np.array(self.snapshot_steps, dtype=int)
        self.snap_y = np.empty((len(self.wanted), config.grid.size))
        self.snap_mu = np.empty_like(self.snap_y)
        self.columns = {name: np.empty(config.steps + 1) for name in ROW_COLUMNS}
        self.columns.update((name, np.empty(config.steps)) for name in STEP_COLUMNS)
        self.stats = np.recarray(config.steps, STEP_STATS)
        self.rows = 0          # rows taken so far
        self.y_min, self.y_max = np.inf, -np.inf

    def add(self, y: np.ndarray, mu: np.ndarray, sources: np.ndarray) -> None:
        """Take the (K+1, m) rows ``y`` and ``mu`` and the (K, m) source rows
        of the K steps that end at ``y[1:]``."""
        cfg, grid, columns = self.config, self.config.grid, self.columns
        spec, lam = cfg.spec, cfg.yosida_lambda
        skip = 1 if self.rows else 0      # the first row was taken by the call before
        first = self.rows - skip          # the step index of y[0]
        new_y, new_mu = y[skip:], mu[skip:]
        rows = slice(self.rows, first + len(y))   # the entries of the per-row columns
        steps = slice(first, first + len(y) - 1)  # and of the per-step ones
        chunk = max(1, _SPLIT_BLOCK // grid.size)
        for start in range(0, len(new_y), chunk):
            block = new_y[start:start + chunk]
            values = pot.yosida_primal(spec, lam, block) + spec.pi_hat(block)
            at = slice(self.rows + start, self.rows + start + len(block))
            columns["split_energy"][at] = np.sum(grid.w * values, axis=1)
            columns["split_energy_abs"][at] = np.sum(grid.w * np.abs(values), axis=1)
        dy = np.diff(y, axis=0)
        basis_a, basis_b = cfg.op_A.basis, cfg.op_B.basis
        c_mu = basis_a.coefficients(mu)
        c_dy = basis_b.coefficients(dy)
        c_dy_a = c_dy if basis_a is basis_b else basis_a.coefficients(dy)
        for name, column in (
                ("mean_y", sp.row_means(new_y, grid)),
                ("mean_mu", sp.row_means(new_mu, grid)),
                ("norm_y", sp.row_norms(new_y, grid)),
                ("norm_B_sigma_y", sp.row_power_norms(cfg.op_B, new_y)),
                ("norm_mu", sp.row_norms(new_mu, grid)),
                ("norm_Ar_mu", sp.power_norms(cfg.op_A, c_mu[skip:])),
                ("norm_dy", sp.row_norms(dy, grid)),
                ("norm_dmu", sp.row_norms(np.diff(mu, axis=0), grid)),
                ("norm_B_sigma_dy", sp.power_norms(cfg.op_B, c_dy)),
                ("source_pairing", sp.row_inner(sources, dy, grid)),
                ("dual_rate", sp.dual_norms(cfg.op_A, c_dy_a) / cfg.h),
                ("dual_rate_identity", sp.dual_norms(
                    cfg.op_A, c_mu[:-1] - c_mu[1:] - cfg.op_A.power_weights(2.0) * c_mu[1:]))):
            columns[name][rows if name in ROW_COLUMNS else steps] = column
        self.y_min = np.minimum(self.y_min, new_y.min())
        self.y_max = np.maximum(self.y_max, new_y.max())
        hit = np.flatnonzero((self.wanted >= rows.start) & (self.wanted < rows.stop))
        self.snap_y[hit] = y[self.wanted[hit] - first]
        self.snap_mu[hit] = mu[self.wanted[hit] - first]
        self.rows = rows.stop

    def trajectory(self) -> DiscreteTrajectory:
        """The trajectory of the rows taken: the recorder's own arrays, made read-only."""
        for array in (*self.columns.values(), self.snap_y, self.snap_mu, self.stats):
            array.flags.writeable = False
        return DiscreteTrajectory(
            columns=self.columns, snapshot_steps=self.snapshot_steps, y_snapshots=self.snap_y,
            mu_snapshots=self.snap_mu, y_range=(float(self.y_min), float(self.y_max)),
            solver_stats=self.stats, config=self.config, data=self.data)


#: The mode branch pays while ``K`` has at most this share of the grid size
#: as columns along its term.  Timed per direction on a shared basis against
#: the dense LU on grids of 129, 257 and 513 nodes (one BLAS thread), it is
#: faster on all three up to 0.60 (1.5x, 1.7x and 2.0x at 0.50), between 4%
#: slower and 7% faster at 0.70, and slower on all three at 0.75.
_MODE_SHARE = 0.6

#: How many ``m`` x ``m`` arrays a run with more than ``_MODE_SHARE`` columns
#: per node holds at once, at most: ``K``, a dense LU's Jacobian and LAPACK's
#: copy of it, and beside them the node branch's kept factors of ``G``, of at
#: most ``m // 2`` rows: ``Psi[off] gamma`` and ``W_off Psi[off]`` (half of one
#: each) and the kept inverse of its capacitance matrix (a quarter).  An update
#: that outgrows them copies them into larger ones, never beside a dense LU.
_DENSE_ARRAYS = 4.25


def _mode_branch(grid_size: int, columns: int) -> bool:
    """Whether ``K`` has at most ``_MODE_SHARE`` of the ``grid_size`` nodes as
    ``columns`` along its term."""
    return columns <= _MODE_SHARE * grid_size


def step_operator_bytes(grid_size: int, basis_modes: tuple) -> int:
    """Bytes a run's step operator holds at once beyond its bases, at most, on
    ``grid_size`` nodes and one basis per entry of ``basis_modes`` (its mode
    count), so along at most ``n = sum(basis_modes)`` columns: the ``(n, m)``
    root and ``n`` x ``n`` capacitance of a direction on the
    :func:`_mode_branch`, or else the dense arrays, and for two bases their
    columns, ``8 m n``, on top, or the peak of the SVD that builds them if
    larger, ``8 (4 m n + 6 n^2 + 13 n + 64 (m + n))``: the union, LAPACK's
    copy of it, either factor twice and a workspace of at most ``4 n^2 + 7 n
    + 64 (m + n)`` doubles."""
    m, n = grid_size, sum(basis_modes)
    held = 8 * n * (m + n) if _mode_branch(m, n) else int(_DENSE_ARRAYS * 8 * m * m)
    if len(basis_modes) == 1:
        return held
    return max(held + 8 * m * n, 8 * (4 * m * n + 6 * n * n + 13 * n + 64 * (m + n)))


class _NodeFactors:
    """The node branch's kept factors (see the *Nodes* paragraph of
    :class:`_Workspace`): the first ``size`` entries of ``nodes``,
    ``weight``, ``rows``, ``weighted`` and the leading block of ``inverse``,
    with room to spare.  A build borders the inverse of no nodes by all of
    ``off``; ``spent`` counts the flops of the updates since then."""

    def __init__(self, ws: "_Workspace", slope: np.ndarray, c: float, off: np.ndarray):
        self.modes, self.w, self.limit = ws.modes, ws.w, slope.size // 2
        self.slope, self.c, self.scale = slope.copy(), c, ws.a + c
        self.gamma = ws.kappa / (self.scale + ws.kappa)
        self.size = self.spent = 0
        self._reserve(off.size)
        if off.size:
            self._append(off, slope)

    def _reserve(self, size: int) -> None:
        """Room for ``size`` nodes and 16 more, up to half of the grid: one
        array at a time moves into a larger one, so that at most one is held
        twice.  Room for a quarter more nodes raised the peak memory of an
        obstacle run on 513 nodes above a rebuild's."""
        k, n = self.size, self.modes.shape[1]
        capacity = min(self.limit, size + 16)
        kept = slice(0, k)
        for name, shape in (("nodes", capacity), ("weight", capacity), ("rows", (capacity, n)),
                            ("weighted", (capacity, n)), ("inverse", (capacity, capacity))):
            array = np.empty(shape, dtype=np.intp if name == "nodes" else float)
            if k:
                at = (kept, kept) if name == "inverse" else kept
                array[at] = getattr(self, name)[at]
            setattr(self, name, array)

    def _columns(self, start: int, stop: int) -> np.ndarray:
        """The capacitance matrix's columns ``start:stop`` on its first ``stop`` rows."""
        block = self.rows[:stop] @ self.weighted[start:stop].T
        np.negative(block, out=block)
        diagonal = block[start:].reshape(-1)[:: stop - start + 1]   # a view
        diagonal += 1.0   # now (a + c) G on the columns
        block *= self.weight[:stop, None]
        diagonal += 1.0
        return block

    def update(self, slope: np.ndarray, c: float, moved: np.ndarray) -> bool:
        """Update the factors to ``slope``, of floor ``c``, that differs from
        the kept one at ``moved``; False, changing nothing, when it differs
        otherwise or the updates would cost more than a build."""
        off_now = slope[moved] != c
        if c != self.c or (off_now == (self.slope[moved] != c)).any():
            return False
        left, entered = moved[~off_now], moved[off_now]
        k, n = self.size, self.modes.shape[1]
        size = k - left.size + entered.size
        cost = (moved.size * k + entered.size * n) * k
        if self.spent + cost > size * size * (n + size):
            return False
        self.spent += cost
        if left.size:
            self._drop(left)
        if entered.size:
            self._append(entered, slope)
        self.slope[moved] = slope[moved]
        return True

    def _drop(self, left: np.ndarray) -> None:
        """Move the nodes ``left`` to the tail of the kept ones and downdate the
        inverse to the others: ``P - Q S^(-1) R`` from its blocks ``[[P, Q],
        [R, S]]``."""
        k = self.size
        leaving = np.zeros(self.slope.size, dtype=bool)
        leaving[left] = True
        r = k - left.size
        gone = leaving[self.nodes[:r]].nonzero()[0]
        stay = r + (~leaving[self.nodes[r:k]]).nonzero()[0]
        swap, into = np.concatenate((gone, stay)), np.concatenate((stay, gone))
        for array in (self.nodes, self.weight, self.rows, self.weighted):
            array[swap] = array[into]
        inverse = self.inverse
        inverse[swap, :k] = inverse[into, :k]
        inverse[:k, swap] = inverse[:k, into]
        inverse[:r, :r] -= inverse[:r, r:k] @ np.linalg.inv(inverse[r:k, r:k]) @ inverse[r:k, :r]
        self.size = r

    def _append(self, entered: np.ndarray, slope: np.ndarray) -> None:
        """Append the nodes ``entered`` and border the inverse by them: with the
        capacitance matrix ``[[M, U], [V, Z]]``, ``X = M^(-1) U`` and the Schur
        complement ``S = Z - V X``, the new inverse is ``[[M^(-1) + X Y, -X
        S^(-1)], [-Y, S^(-1)]]``, ``Y = S^(-1) V M^(-1)``."""
        k, p = self.size, entered.size
        if k + p > len(self.nodes):
            self._reserve(k + p)
        old, new, inverse = slice(0, k), slice(k, k + p), self.inverse
        modes = self.modes[entered]
        self.nodes[new] = entered
        self.weight[new] = (slope[entered] - self.c) / self.scale
        np.multiply(modes, self.gamma, out=self.rows[new])
        np.multiply(modes, self.w[entered, None], out=self.weighted[new])
        self.size = k + p
        v = self.rows[new] @ self.weighted[old].T
        v *= -self.weight[new, None]
        columns = self._columns(k, k + p)
        x = inverse[old, old] @ columns[old]
        schur = columns[new]
        schur -= v @ x
        s_inv = np.linalg.inv(schur)
        y = s_inv @ (v @ inverse[old, old])
        inverse[old, old] += x @ y
        np.negative(x @ s_inv, out=inverse[old, new])
        np.negative(y, out=inverse[new, old])
        inverse[new, new] = s_inv

    def direction(self, g: np.ndarray) -> np.ndarray:
        """The node branch's direction (see the :class:`_Workspace` docstring)."""
        k = self.size
        off, inverse = self.nodes[:k], self.inverse[:k, :k]
        analysed = (g * self.w) @ self.modes
        rhs = self.weight[:k] * (self.rows[:k] @ analysed - g[off])
        # an empty off solves its 0 x 0 system: one linear solve per direction
        t = inverse @ rhs if k else np.linalg.solve(inverse, rhs)
        delta = self.modes @ (self.gamma * (analysed + t @ self.weighted[:k]))
        delta -= g
        delta[off] -= t
        delta /= self.scale
        return delta


class _Workspace:
    """The step operator K of one run, from the bases, and its Newton directions.

    With ``Phi`` the modes of a basis and ``W`` the diagonal of quadrature
    weights, ``B2s = Phi_B diag(lam_B^2s) Phi_B^T W`` and ``(I + A2r)^(-1) = I -
    Phi_A diag(lam_A^2r / (1 + lam_A^2r)) Phi_A^T W``, so that

        K = a I + U diag(sigma) U^T W,   U = [Phi_B, Phi_A],   sigma = [lam_B^2s, -q / h],
        a = tau/h + L + 1/h,   q = lam_A^2r / (1 + lam_A^2r).

    The workspace holds ``K`` as ``a I + Psi diag(kappa) Psi^T W`` with
    ``Psi^T W Psi = I``: on one shared basis ``Psi = Phi`` and ``kappa =
    lam_B^2s - q / h``.  With two bases ``Psi = W^(-1/2) P V``, from the SVD
    ``W^(1/2) U = P s Q^T`` cut where ``s <= s_max max(m, N) eps`` (numpy's
    rank tolerance for the ``N`` columns of ``U``) and the eigenpairs ``R
    diag(sigma) R^T = V diag(kappa) V^T`` of ``R = s Q^T``, so that nested
    or nearly dependent bases give fewer columns.  :meth:`apply` returns ``K d
    = a d + Psi (kappa * Psi^T W d)`` with the analysis ``Psi^T W d`` it
    takes, and :meth:`apply_bound` bounds its summands at each node in the
    same two passes, ``a |d| + |Psi| (|kappa| * |Psi|^T W |d|) >= |K| |d|``.
    Only the dense branch below holds ``K`` as an ``m`` x ``m`` matrix.

    :meth:`synthesize` gives the spectral part ``S mu - mu - B2s y = Phi_A
    (-q c(mu)) - Phi_B (lam_B^2s c(y))`` from the coefficients ``c(mu) =
    Phi_A^T W mu`` and ``c(y) = Phi_B^T W y``: one synthesis on a shared
    basis, and one more along ``Phi_B`` with two.  :meth:`carried` analyses
    the rows for them.

    ``direction`` solves ``(K + diag(slope)) delta = -g`` along one of three
    branches.  With ``c`` the smallest slope and ``off`` the nodes above it,
    ``K + diag(slope)`` is ``K + c I`` plus a diagonal update on ``off``.

    *Nodes.*  When ``off`` holds at most half of the nodes, the Woodbury
    identity on them gives

        delta = x - G[:, off] t,   t = (I + E G[off, off])^(-1) E x[off],
        x = -G g,   G = (K + c I)^(-1),   E = diag(slope - c)[off].

    ``K + c I`` is invertible: ``K`` carries the shift ``L = Lip(pi) + 1``
    and ``c >= -Lip(pi)``.  As the columns of ``Psi`` are orthonormal,

        G = (I - Psi diag(gamma) Psi^T W) / (a + c),   gamma = kappa / (a + c + kappa),

    whose denominators are positive, as ``a + c >= 1 + 1/h`` and ``kappa >
    -1/h``, and

        delta = (Psi (gamma * (Psi^T W g + (Psi^T W)[:, off] t)) - g - P_off t) / (a + c),

    with ``P_off`` placing a vector on ``off``: one analysis and one
    synthesis per direction.  The capacitance matrix ``I + E G[off, off]``
    is ``E (E^(-1) + G[off, off])`` without the division, so a slope gap
    that rounds to a subnormal cannot overflow; for ``E = I / lam`` (the
    obstacle well) it is similar to a symmetric matrix no worse conditioned
    than ``K + c I``.  ``active``, a :class:`_NodeFactors`, keeps the last
    slope on this branch and what it determines: ``c``, ``a + c``,
    ``gamma``, the ``k`` nodes of ``off`` in a kept order with ``E / (a +
    c)``, the rows ``Psi[off] gamma`` and ``W_off Psi[off]``, whose product
    gives ``G[off, off]``, and the inverse of the capacitance matrix, so
    that ``t`` takes one product.  An equal slope (a hit) reuses them.  One
    with the same ``c`` that differs only where ``q`` nodes left ``off`` and
    ``p`` entered it updates them in ``O((p + q) k^2 + p n k)`` flops, not a
    build's ``O(k^2 (n + k))``: the inverse is downdated by its block on the
    nodes that left and bordered by the Schur complement of those that
    entered (Hager, SIAM Review 31, 1989).  Any other slope builds them
    anew, as does an update that would take the flops of the updates since
    the build past a build's, which bounds a chain of updates and its
    drift.  ``active`` is dropped meanwhile, so that a failure leaves
    nothing to hit; new factors give a fresh workspace's direction bit for
    bit.  An empty ``off`` solves its ``0`` x ``0`` system.

    *Modes.*  More nodes off, with ``n <= _MODE_SHARE * m``.  With ``D = a +
    slope``, which is at least ``1 + 1/h``, and ``z = -g / D``, the
    Woodbury identity along the columns gives

        delta = z - D^(-1) Psi C^(-1) (kappa * Psi^T W z),
        C = I + diag(kappa) Psi^T W D^(-1) Psi,

    an ``n`` x ``n`` system that is invertible because ``K + diag(slope)``
    is (``det(K + diag(slope)) = det(D) det(C)``).  ``Psi^T W D^(-1) Psi``
    is the Gram matrix of the rows of ``Psi^T (W / D)^(1/2)``.  The branch
    keeps no state between calls.

    *Dense.*  Otherwise the dense LU of ``K + diag(slope)``, from ``K``
    assembled on the branch's first call, and kept.  Neither of the last
    two branches touches the node branch's factors.
    """

    def __init__(self, config: SchemeConfig):
        h = config.h
        shift = config.tau / h + config.spec.stability_shift
        weights = config.op_A.power_weights(2.0)
        # (I + A2r)^(-1)/h = I/h - Phi_A diag(q_h) Phi_A^T W
        q_h = weights / ((1.0 + weights) * h)
        basis, basis_b = config.op_A.basis, config.op_B.basis
        m = config.grid.size
        self.a = shift + 1.0 / h
        # the weights of S - I and B2s along their bases
        self.shifted_a = -weights / (1.0 + weights)
        self.power_b = config.op_B.power_weights(2.0)
        self.bases = (basis, basis_b)
        self.shared = basis is basis_b
        self.w = config.grid.w
        if self.shared:
            self.modes, self.kappa = basis.modes, self.power_b - q_h
        else:   # Psi from the SVD of W^(1/2) U and R diag(sigma) R^T (see the class docstring)
            root = np.sqrt(self.w)[:, None]
            p, s, qt = np.linalg.svd(np.hstack((basis_b.modes, basis.modes)) * root,
                                     full_matrices=False)
            r = s[:, None] * qt
            r = r[s > s[0] * max(m, qt.shape[1]) * np.finfo(float).eps]
            self.kappa, v = np.linalg.eigh((r * np.concatenate((self.power_b, -q_h))) @ r.T)
            self.modes = p[:, :len(r)] @ v
            self.modes /= root
        n = self.modes.shape[1]
        self.mode_branch = _mode_branch(m, n)
        self.config = config
        self.active = None    # the node branch's _NodeFactors

    def apply(self, d: np.ndarray):
        """``K d`` and the analysis ``Psi^T W d`` it takes (see the class docstring)."""
        c = (d * self.w) @ self.modes
        return self.a * d + self.modes @ (self.kappa * c), c

    def apply_bound(self, d: np.ndarray) -> np.ndarray:
        """A bound on ``|K| |d|``, the summands of ``K d`` at each node as
        :meth:`apply` computes it (see the class docstring)."""
        size, modes = np.abs(d), np.abs(self.modes)
        return self.a * size + modes @ (np.abs(self.kappa) * ((size * self.w) @ modes))

    @functools.cached_property
    def k_matrix(self) -> np.ndarray:
        """``K`` as an ``m`` x ``m`` matrix, for the dense branch alone (see the
        class docstring): ``(Psi diag(kappa)) Psi^T`` with its columns scaled
        by ``W``, plus ``a`` on the diagonal."""
        k = (self.modes * self.kappa) @ self.modes.T
        k *= self.w
        k.flat[:: self.w.size + 1] += self.a
        return k

    def direction(self, slope: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Newton direction: the solution of ``(K + diag(slope)) delta = -g``."""
        kept = self.active
        if kept is not None:
            moved = (slope != kept.slope).nonzero()[0]
            if not moved.size:
                return kept.direction(g)
        c = slope.min()
        off = np.flatnonzero(slope - c)
        if 2 * off.size > slope.size:
            if self.mode_branch:
                return self._along_modes(slope, g)
            jac = self.k_matrix.copy()
            jac.flat[:: len(jac) + 1] += slope
            return np.linalg.solve(jac, -g)
        self.active = None   # so that a failure below leaves nothing to hit
        if kept is None or not kept.update(slope, c, moved):
            kept = None   # the old factors go before the new ones are allocated
            kept = _NodeFactors(self, slope, c, off)
        self.active = kept
        return kept.direction(g)

    def _along_modes(self, slope: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The direction of the mode branch (see the class docstring)."""
        inv_d = 1.0 / (self.a + slope)
        z = -g * inv_d
        root = self.modes.T * np.sqrt(self.w * inv_d)
        capacitance = root @ root.T   # a matrix times its own transpose: half a general product
        capacitance *= self.kappa[:, None]
        capacitance.flat[:: len(capacitance) + 1] += 1.0   # the diagonal, without index arrays
        coefficients = np.linalg.solve(capacitance, self.kappa * ((z * self.w) @ self.modes))
        return z - inv_d * (self.modes @ coefficients)

    def carried(self, y: np.ndarray, mu: np.ndarray):
        """The part of a carry the rows determine (see the class docstring)."""
        c_mu, c_y = self.bases[0].coefficients(mu), self.bases[1].coefficients(y)
        return c_mu, c_y, self.synthesize(c_mu, c_y)

    def synthesize(self, c_mu: np.ndarray, c_y: np.ndarray) -> np.ndarray:
        """The spectral part of ``c_mu`` and ``c_y`` (see the class docstring)."""
        basis, basis_b = self.bases
        part = self.shifted_a * c_mu
        if self.shared:
            part -= self.power_b * c_y
        out = part @ basis.modes.T
        if not self.shared:
            out -= (self.power_b * c_y) @ basis_b.modes.T
        return out

    def h_norm(self, v: np.ndarray) -> float:
        return math.sqrt(v @ (self.w * v))


def _newton_solve(ws: _Workspace, y_prev: np.ndarray, r: np.ndarray, d: np.ndarray,
                  kd: np.ndarray, cd: np.ndarray):
    """Damped Newton for ``K d + beta_lam(y_prev + d) + pi(y_prev + d) = r``, from ``d``.

    ``kd, cd = ws.apply(d)`` of the start; every later iterate takes one
    product with ``K``.  Returns the accepted iterate, its ``K d`` and
    ``Psi^T W d``, the iteration count, the residual and the damping count.
    Each residual solves the resolvent once, through :func:`potentials.yosida`,
    whose value the slope and round-off floor of the iterate reuse.  When
    the line search fails or ``newton_max`` is reached above ``newton_tol``,
    the residual is accepted if it is finite and at its round-off floor at
    every node (see the module docstring).
    """
    cfg = ws.config
    spec, lam = cfg.spec, cfg.yosida_lambda

    def residual(dc, kdc):
        # the residual at y_prev + dc and the Yosida value in it, summed in place
        yc = y_prev + dc
        beta = pot.yosida(spec, lam, yc)
        g = kdc + beta
        g += spec.pi(yc)
        g -= r
        return g, beta

    g, beta = residual(d, kd)
    res = ws.h_norm(g)
    history = [res]
    dampings = 0
    for iteration in range(cfg.newton_max + 1):
        if res <= cfg.newton_tol:
            return d, kd, cd, iteration, res, dampings
        y = y_prev + d
        slope = pot.yosida_derivative(spec, lam, y, beta) + spec.pi_prime(y)
        if iteration == cfg.newton_max:
            break   # the floor below takes this slope
        delta = ws.direction(slope, g)
        alpha = 1.0
        for _ in range(30):
            d_new = d + delta if alpha == 1.0 else d + alpha * delta
            kd_new, cd_new = ws.apply(d_new)
            g_new, beta_new = residual(d_new, kd_new)
            res_new = ws.h_norm(g_new)
            if res_new < res:
                break
            alpha *= 0.5
            dampings += 1
        else:
            break   # the line search failed at d
        d, kd, cd, g, beta, res = d_new, kd_new, cd_new, g_new, beta_new, res_new
        history.append(res)
    size = np.abs(g)
    floor = _ROUNDOFF * np.abs([ws.apply_bound(d), beta, spec.pi(y), r, slope * y]).max(axis=0)
    if math.isfinite(res) and np.all(size <= floor):   # the guard: inf <= _ROUNDOFF * inf
        return d, kd, cd, iteration, res, dampings
    # a floor of 0 comes with a residual of 0 at its node: no division by zero
    node = int(np.argmax(size / np.maximum(floor, np.finfo(float).tiny)))
    stop = "after 30 halvings" if iteration < cfg.newton_max else f"in {iteration} iterations"
    raise StepError(
        f"Newton step could not reduce the residual {res:.3e} below newton_tol "
        f"{cfg.newton_tol:.1e} or its round-off floor {stop}: |g| {size[node]:.3e} "
        f"against a floor of {floor[node]:.1e} at node {node}; try a smaller step size "
        "or a larger regularization level",
        residual_history=history,
    )


def _fresh_carry(ws: _Workspace, y: np.ndarray, mu: np.ndarray, d: np.ndarray,
                 history=None):
    """The carry of a step from the rows ``(y, mu)`` whose last increment is
    ``d``, with the ``history`` of :func:`_advance`: ``None`` starts Newton at
    ``d``."""
    return (d, *ws.apply(d), history, *ws.carried(y, mu))


def _advance(ws: _Workspace, y: np.ndarray, mu: np.ndarray, u_next: np.ndarray, carry):
    """One step from the rows ``(y, mu)`` with the carry of the step before:
    ``(d, K d, Psi^T W d, history, c(mu), c(y), S mu - mu - B2s y)``, as
    :func:`_fresh_carry` computes it or the step before returned it.

    With ``history`` ``None`` Newton starts at the last increment ``d``.
    Otherwise it is ``(d2, d3, choice)``: the two increments before ``d`` and
    the index of the start to take among ``0``, ``d`` and the quadratic
    extrapolation ``3 d - 3 d2 + d3``, the order in which a tie prefers
    them.  A start other than ``d`` takes a product with ``K`` of its own.
    The step then chooses the next start: the candidate of this step that
    came nearest to its accepted increment.  Returns the new rows, the carry
    of the next step and the step's :data:`STEP_STATS` tuple.
    """
    cfg = ws.config
    d1, kd, cd, history, c_mu, c_y, part = carry
    start = d1, kd, cd
    if history is not None:
        d2, d3, choice = history
        starts = (np.zeros_like(d1), d1, 3.0 * (d1 - d2) + d3)
        if choice != 1:
            start = (starts[choice], *ws.apply(starts[choice]))
    d, kd, cd, *stats = _newton_solve(ws, y, u_next + mu + part, *start)
    if history is not None:
        misses = [ws.h_norm(d - s) for s in starts]
        history = (d1, d2, misses.index(min(misses)))
    basis, basis_b = ws.bases
    c_da, c_db = (cd, cd) if ws.shared else (basis.coefficients(d), basis_b.coefficients(d))
    mu_next = mu - d / cfg.h   # then (I + A2r)^(-1) of it, the identity off the span
    mu_next += (ws.shifted_a * (c_mu - c_da / cfg.h)) @ basis.modes.T
    c_mu = basis.coefficients(mu_next)
    c_y = c_y + c_db
    part = ws.synthesize(c_mu, c_y)
    return y + d, mu_next, (d, kd, cd, history, c_mu, c_y, part), tuple(stats)


def solve_step(prev_y: sp.Field, prev_mu: sp.Field, u_next: sp.Field,
               config: SchemeConfig, start: Optional[sp.Field] = None):
    """Advance one step; returns ``(next_y, next_mu, stats)``, a :data:`STEP_STATS` record.

    The potential value is eliminated exactly through the shifted spectral
    inverse, so the first equation holds to round-off by construction; the
    Newton residual reported in the stats is the one of the remaining
    nodal equation in the new state.
    """
    for f in (prev_y, prev_mu, u_next):
        if not f.grid.same_as(config.grid):
            raise DimensionError("step fields are not on the scheme grid")
    ws = _Workspace(config)
    y, mu = prev_y.values, prev_mu.values
    carry = _fresh_carry(ws, y, mu, (start or prev_y).values - y)
    y, mu, _, stats = _advance(ws, y, mu, u_next.values, carry)
    return sp.Field(y, config.grid), sp.Field(mu, config.grid), np.rec.array(stats, STEP_STATS)[()]


#: ``run`` marches this many steps at a time: it evaluates the source at their
#: times at once and reduces their rows to the trajectory's columns.
_SOURCE_BLOCK = 64


def block_bytes(grid_size: int) -> int:
    """Bytes of the arrays of up to ``_SOURCE_BLOCK + 1`` rows that ``run``
    holds at once, at most five: the two buffers of ``y`` and ``mu`` in which
    it marches, the source rows of a block, and beside those either the
    source rows of the block before and the temporary that evaluating a
    decaying source with a bump takes, or, while :meth:`_Recorder.add`
    reduces the block, its increments and one weighted copy of rows."""
    return 5 * 8 * (_SOURCE_BLOCK + 1) * grid_size


def run(config: SchemeConfig, data: ProblemData,
        snapshot_steps: Optional[Sequence[int]] = None) -> DiscreteTrajectory:
    """Validate, then march the scheme from (y0, 0) for the configured steps.

    Newton starts step 0 at ``d = 0`` and every later step at the previous
    step's increment ``y^n - y^(n-1)``, or on a smooth well at the start
    the module docstring describes.  The states of each block of
    ``_SOURCE_BLOCK`` steps are reduced to the trajectory's columns at the
    end of the block; only the rows at ``snapshot_steps`` (by default the
    first and the last step) are kept.
    """
    validate(config, data)
    steps = config.steps
    recorder = _Recorder(config, data, (0, steps) if snapshot_steps is None else snapshot_steps)
    ws = _Workspace(config)
    y = np.empty((_SOURCE_BLOCK + 1, config.grid.size))
    mu = np.zeros_like(y)
    y[0] = data.y0.values
    zeros = np.zeros(config.grid.size)
    carry = _fresh_carry(ws, y[0], mu[0], zeros,
                         (zeros, zeros, 1) if config.spec.smooth_graph else None)
    # one pass with no step when there are none, which takes the initial row alone
    for start in range(0, max(steps, 1), _SOURCE_BLOCK):
        sources = data.source.values(
            config.h * np.arange(start + 1, min(start + _SOURCE_BLOCK, steps) + 1))
        for k, u in enumerate(sources):
            try:
                y[k + 1], mu[k + 1], carry, recorder.stats[start + k] = _advance(
                    ws, y[k], mu[k], u, carry)
            except StepError as exc:
                exc.step_index = start + k
                raise
        end = len(sources)
        recorder.add(y[:end + 1], mu[:end + 1], sources)
        y[0], mu[0] = y[end], mu[end]
        carry = carry[:4] + ws.carried(y[0], mu[0])   # the drift spans one block
    return recorder.trajectory()
