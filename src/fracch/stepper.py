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
increment ``y^n - y^(n-1)`` (from ``d = 0`` on the first step), the state
moving at a constant rate being a better guess than a state at rest.  The
start changes where Newton begins, not the equation it solves or ``mu+``,
which stays eliminated exactly.  Newton takes ``K`` plus the slope diagonal
``beta_lam' + pi'`` as Jacobian.  Its direction is found in one of three
ways, picked by the slope and by ``N``:

- At most half of the nodes lie above the smallest slope ``c`` (the
  obstacle well, whose Yosida slope is 0 or 1/lam): the Woodbury
  correction of ``G = (K + c I)^(-1)`` on those nodes.  ``G`` has a closed
  form along ``Psi``, in which it is applied where ``K`` is, with weights
  found again only when ``c`` changes.  Each iteration solves a system the
  size of that node set.  The obstacle slope changes only where the
  contact set does, so the factors of ``G`` on that set and the small
  system's matrix are kept from one iteration and one step to the next
  until the set or its slopes move.
- More nodes above ``c`` (the smooth wells, whose slope differs from node
  to node), and ``N`` at most 3/5 of the grid size: the Woodbury identity
  along ``Psi`` leaves one ``N`` x ``N`` system per iteration.
- Otherwise (more columns, as a matrix operator has) the dense LU of the
  Jacobian, from ``K`` built as an ``m`` x ``m`` matrix on the first such
  direction.  Nothing else in a run builds an ``m`` x ``m`` array.

Each iteration makes exactly one ``numpy.linalg.solve`` call.  Newton
stops once the residual is at most ``newton_tol``.  A residual it can
reduce no further is accepted at its round-off floor, which for large
operator powers lies above ``newton_tol``.

A step hands three things to the next one: Newton's accepted increment,
which starts the next Newton solve; its product ``K d``, which the next
step's first residual takes in place of a new product, so that ``K`` is
applied once per trial point of the line search; and the spectral part
``S mu - mu - B2s y`` of the next right-hand side.  That part and the
``A2r mu+`` of the phase residual come from one analysis of ``(mu+, y+)``
and one synthesis, stacked when both operators share their basis.  With
the analysis and synthesis of ``mu+ = S (mu - d/h)`` a step thus makes
four passes over the modes of a shared basis and six over those of two
bases, plus two for each product with ``K`` and each node direction.
``run`` and ``solve_step`` take every step through one routine.
``solve_step`` computes the carry from its rows and start; from the rows of
a run and the increment Newton returned for the step before, that carry is
the carried one bit for bit, and so is the step.

Trajectories start from ``y0`` with ``mu0 = 0``; that
initialization is part of the scheme, not a configurable choice, and it
is what makes the discrete mass identity exact.  ``run`` marches in
blocks of 64 steps and keeps no state beyond the block: at the end of each
block it reduces the block's rows, together with the last row of the block
before, to the per-row and per-step scalar columns every later analysis
reads (norms, split energies, increments, the source pairing and the dual
rates), copies the rows at the snapshot steps and drops the rest.  So a
run holds its snapshots and a few numbers per step, whatever its horizon.
"""

from __future__ import annotations

import functools
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


def validate(config: SchemeConfig, data: ProblemData) -> None:
    """Check the structural and data hypotheses; raise a named error on failure.

    Returns None when every hypothesis holds.  With a positive first
    eigenvalue of the first operator the mean-value hypotheses are skipped.
    With a zero first eigenvalue the zero must be simple with a constant
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


@dataclass(slots=True)
class StepStats:
    """Per-step solver diagnostics."""

    iterations: int
    residual_phase: float
    residual_potential: float
    dampings: int = 0


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
    ``snapshot_steps``, and ``y_range`` is the (min, max) of ``y`` over all
    states.  No other state is kept, and every array is read-only.
    """

    columns: dict
    snapshot_steps: tuple
    y_snapshots: np.ndarray
    mu_snapshots: np.ndarray
    y_range: tuple
    solver_stats: List[StepStats]
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
    """The columns, snapshots and range of a trajectory, taken as it marches.

    :meth:`add` takes consecutive state rows.  Every call after the first
    starts with the last row of the call before, so that each step's
    increment lies within one call, and every row enters the per-row
    columns once.  The rows at the snapshot steps are copied; the others are
    left to the caller.
    """

    def __init__(self, config: SchemeConfig, data: ProblemData, snapshot_steps):
        self.snapshot_steps = tuple(int(s) for s in snapshot_steps)
        if any(not 0 <= s <= config.steps for s in self.snapshot_steps):
            raise ConfigurationError(f"snapshot steps must lie in [0, {config.steps}]")
        self.config, self.data = config, data
        self.wanted = np.array(sorted(set(self.snapshot_steps)), dtype=int)
        self.snap_y = np.empty((len(self.wanted), config.grid.size))
        self.snap_mu = np.empty_like(self.snap_y)
        self.parts = {name: [] for name in ROW_COLUMNS + STEP_COLUMNS}
        self.rows = 0          # rows taken so far
        self.y_min, self.y_max = np.inf, -np.inf

    def add(self, y: np.ndarray, mu: np.ndarray, sources: np.ndarray) -> None:
        """Take the (K+1, m) rows ``y`` and ``mu`` and the (K, m) source rows
        of the K steps that end at ``y[1:]``."""
        cfg, grid, parts = self.config, self.config.grid, self.parts
        spec, lam = cfg.spec, cfg.yosida_lambda
        skip = 1 if self.rows else 0      # the first row was taken by the call before
        first = self.rows - skip          # the step index of y[0]
        new_y, new_mu = y[skip:], mu[skip:]
        chunk = max(1, _SPLIT_BLOCK // grid.size)
        for start in range(0, len(new_y), chunk):
            block = new_y[start:start + chunk]
            values = pot.yosida_primal(spec, lam, block) + spec.pi_hat(block)
            parts["split_energy"].append(np.sum(grid.w * values, axis=1))
            parts["split_energy_abs"].append(np.sum(grid.w * np.abs(values), axis=1))
        dy = np.diff(y, axis=0)
        basis_a = cfg.op_A.basis
        c_mu = basis_a.coefficients(mu)
        # the coefficients of dy / h, the weights folded into the scaling: one (K, m) copy
        c_rate = (dy * (grid.w * (1.0 / cfg.h))) @ basis_a.modes
        for name, column in (
                ("mean_y", sp.row_means(new_y, grid)),
                ("mean_mu", sp.row_means(new_mu, grid)),
                ("norm_y", sp.row_norms(new_y, grid)),
                ("norm_B_sigma_y", sp.row_power_norms(cfg.op_B, new_y)),
                ("norm_mu", sp.row_norms(new_mu, grid)),
                ("norm_Ar_mu", sp.row_power_norms(cfg.op_A, new_mu)),
                ("norm_dy", sp.row_norms(dy, grid)),
                ("norm_dmu", sp.row_norms(np.diff(mu, axis=0), grid)),
                ("norm_B_sigma_dy", sp.row_power_norms(cfg.op_B, dy)),
                ("source_pairing", sp.row_inner(sources, dy, grid)),
                ("dual_rate", sp.dual_norms(cfg.op_A, c_rate)),
                ("dual_rate_identity", sp.dual_norms(
                    cfg.op_A, c_mu[:-1] - c_mu[1:] - cfg.op_A.power_weights(2.0) * c_mu[1:]))):
            parts[name].append(column)
        self.y_min = np.minimum(self.y_min, new_y.min())
        self.y_max = np.maximum(self.y_max, new_y.max())
        lo, hi = np.searchsorted(self.wanted, (first + skip, first + len(y)))
        self.snap_y[lo:hi] = y[self.wanted[lo:hi] - first]
        self.snap_mu[lo:hi] = mu[self.wanted[lo:hi] - first]
        self.rows = first + len(y)

    def trajectory(self, stats: List[StepStats]) -> DiscreteTrajectory:
        """The trajectory of the rows taken, with read-only arrays."""
        index = np.searchsorted(self.wanted, self.snapshot_steps)
        columns = {name: np.concatenate(part) for name, part in self.parts.items()}
        y_snapshots, mu_snapshots = self.snap_y[index], self.snap_mu[index]
        for array in (*columns.values(), y_snapshots, mu_snapshots):
            array.flags.writeable = False
        return DiscreteTrajectory(
            columns=columns, snapshot_steps=self.snapshot_steps, y_snapshots=y_snapshots,
            mu_snapshots=mu_snapshots, y_range=(float(self.y_min), float(self.y_max)),
            solver_stats=stats, config=self.config, data=self.data)


#: The mode branch pays while ``K`` has at most this share of the grid size
#: as columns along its term.  Timed per direction on a shared basis against
#: the dense LU on grids of 129, 257 and 513 nodes (one BLAS thread), it is
#: faster on all three up to 0.60 (1.5x, 1.7x and 2.0x at 0.50), between 4%
#: slower and 7% faster at 0.70, and slower on all three at 0.75.
_MODE_SHARE = 0.6

#: Entries of ``K`` per block of rows when its absolute row sums are taken.
_ROW_BLOCK = 1 << 15

#: How many ``m`` x ``m`` arrays a run with more than ``_MODE_SHARE`` columns
#: per node holds at once, at most: ``K``, a dense LU's Jacobian and LAPACK's
#: copy of it, and beside them the node branch's cached factors of ``G`` on
#: at most half of the nodes, ``Psi[off] gamma`` and ``(Psi^T W)[:, off]``
#: (half of one each), and its capacitance matrix (a quarter).
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
    or nearly dependent bases give fewer columns.  :meth:`apply` computes
    ``K d = a d + Psi (kappa * Psi^T W d)``, one analysis and one synthesis,
    and ``k_rows``, the absolute row sums of ``K`` that size its round-off,
    are taken a block of rows at a time.  Only the dense branch below holds
    ``K`` as an ``m`` x ``m`` matrix.

    ``spectral`` gives the rows a step carries, ``A2r mu`` and ``S mu - mu -
    B2s y = -Phi_A diag(q) Phi_A^T W mu - Phi_B diag(lam_B^2s) Phi_B^T W y``,
    from one analysis and one synthesis per basis: on a shared basis the
    stacked rows ``(mu, y)`` are weighted in place and multiplied by the
    modes, and the two coefficient rows by their transpose.

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
    synthesis per direction.  ``gamma`` is cached until ``c`` changes.  The
    capacitance matrix ``I + E G[off, off]`` is ``E (E^(-1) + G[off, off])``
    without the division, so a slope gap that rounds to a subnormal cannot
    overflow.  ``active`` keeps the factors of the last call under the key
    ``(off, slope[off] - c)`` for the cached shift: the rows ``Psi[off]
    gamma``, the weighted columns ``(Psi^T W)[:, off] = (W_off Psi[off])^T``,
    whose product gives ``G[off, off]``, and the capacitance matrix.  A call
    whose key equals it bit for bit reuses them; any other key rebuilds
    them, and a new shift drops them before ``gamma`` is found again, so
    that a failure meanwhile leaves no factors behind.  A hit feeds the same
    arrays to the same products, so its direction is the rebuilt one bit for
    bit.

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
    two branches touches the node branch's factors.  Every branch makes one
    ``numpy.linalg.solve`` call, the capacitance solve running even for an
    empty ``off`` and on every hit, so that a count of linear solves (the
    benchmark's trace) equals the Newton iteration count.
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
        # the weights of A2r, S - I and B2s along their bases
        self.power_a = weights
        self.shifted_a = -weights / (1.0 + weights)
        self.power_b = config.op_B.power_weights(2.0)
        self.bases = (basis, basis_b)
        self.w = config.grid.w
        if basis is basis_b:
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
        self.inverse = None   # the weights gamma of G = (K + c I)^(-1) for the cached shift c
        self.shift = np.nan
        self.active = None    # (off, excess, factors of G on off, capacitance) of the last set

    def apply(self, d: np.ndarray) -> np.ndarray:
        """``K d`` (see the class docstring)."""
        return self.a * d + self.modes @ (self.kappa * ((d * self.w) @ self.modes))

    def _k_block(self, start: int, stop: int) -> np.ndarray:
        """The rows ``start:stop`` of ``K`` as a matrix: ``(Psi diag(kappa))
        Psi^T`` with its columns scaled by ``W``, plus ``a`` on the diagonal."""
        rows = (self.modes[start:stop] * self.kappa) @ self.modes.T
        rows *= self.w      # the weights of Psi^T W, one per column
        rows.flat[start:: self.w.size + 1] += self.a   # the diagonal entries of these rows
        return rows

    @functools.cached_property
    def k_matrix(self) -> np.ndarray:
        """``K`` as an ``m`` x ``m`` matrix, for the dense branch alone (see the
        class docstring)."""
        return self._k_block(0, self.w.size)

    @functools.cached_property
    def k_rows(self) -> float:
        """The quadrature norm of the absolute row sums of ``K``, taken a block
        of rows at a time when a round-off floor first needs it."""
        m = self.w.size
        sums = np.empty(m)
        size = max(1, _ROW_BLOCK // m)
        for start in range(0, m, size):
            stop = min(start + size, m)
            rows = self._k_block(start, stop)
            sums[start:stop] = np.abs(rows, out=rows).sum(axis=1)
        return self.h_norm(sums)

    def direction(self, slope: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Newton direction: the solution of ``(K + diag(slope)) delta = -g``."""
        c = slope.min()
        off = np.flatnonzero(slope - c)
        if 2 * off.size > slope.size:
            if self.mode_branch:
                return self._along_modes(slope, g)
            jac = self.k_matrix.copy()
            jac.flat[:: len(jac) + 1] += slope
            return np.linalg.solve(jac, -g)
        if c != self.shift:
            # drop every factor of the old G before finding the new one, so
            # that a failure meanwhile leaves nothing to hit
            self.inverse, self.shift, self.active = None, np.nan, None
            self.inverse = self._shifted_inverse(c)
            self.shift = c
        excess = slope[off] - c
        if (self.active is None or not np.array_equal(self.active[0], off)
                or not np.array_equal(self.active[1], excess)):
            self.active = (off, excess, *self._node_factors(off, excess))
        return self._node_direction(g)

    def _shifted_inverse(self, c: float) -> np.ndarray:
        """The weights ``gamma`` of ``G = (K + c I)^(-1)`` (see the class docstring)."""
        return self.kappa / (self.a + c + self.kappa)

    def _node_factors(self, off: np.ndarray, excess: np.ndarray):
        """The factors of ``G`` on ``off`` and the capacitance matrix (see the
        class docstring)."""
        rows = self.modes[off] * self.inverse
        columns = (self.modes[off] * self.w[off, None]).T
        capacitance = rows @ columns
        np.negative(capacitance, out=capacitance)
        capacitance.flat[:: off.size + 1] += 1.0   # now (a + c) G[off, off]
        capacitance *= excess[:, None] / (self.a + self.shift)
        capacitance.flat[:: off.size + 1] += 1.0
        return rows, columns, capacitance

    def _node_direction(self, g: np.ndarray) -> np.ndarray:
        """The node branch's direction (see the class docstring)."""
        off, excess, rows, columns, capacitance = self.active
        scale = self.a + self.shift
        analysed = (g * self.w) @ self.modes
        t = np.linalg.solve(capacitance, (excess / scale) * (rows @ analysed - g[off]))
        delta = self.modes @ (self.inverse * (analysed + columns @ t))
        delta -= g
        delta[off] -= t
        delta /= scale
        return delta

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

    def spectral(self, mu: np.ndarray, y: np.ndarray):
        """The rows ``A2r mu`` and ``S mu - mu - B2s y`` (see the class docstring)."""
        basis, basis_b = self.bases
        if basis is basis_b:
            stacked = np.array((mu, y))
            stacked *= self.w
            c_mu, c_y = stacked @ self.modes
            return (np.array((self.power_a * c_mu, self.shifted_a * c_mu - self.power_b * c_y))
                    @ self.modes.T)
        c_mu = basis.coefficients(mu)
        a_mu, s_mu = np.array((self.power_a * c_mu, self.shifted_a * c_mu)) @ basis.modes.T
        return a_mu, s_mu - (self.power_b * basis_b.coefficients(y)) @ basis_b.modes.T

    def h_norm(self, v: np.ndarray) -> float:
        return math.sqrt((self.w * v * v).sum())

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


def _newton_solve(ws: _Workspace, y_prev: np.ndarray, r: np.ndarray, d: np.ndarray,
                  kd: np.ndarray):
    """Damped Newton for ``K d + beta_lam(y_prev + d) + pi(y_prev + d) = r``, from ``d``.

    ``kd`` is ``K d`` of the start; every later iterate takes one product
    with ``K``.  Returns the accepted iterate, its ``K d``, the iteration
    count, the residual and the damping count.  Each residual evaluation
    solves the resolvent once, through :func:`potentials.yosida`.  The
    Jacobian slope and the round-off floor of an accepted iterate reuse the
    Yosida value of its residual, so no iterate solves the resolvent twice.
    When the line search fails or ``newton_max`` is reached above
    ``newton_tol``, the residual is accepted if it is finite and at its
    round-off floor (see :meth:`_Workspace.roundoff_floor`).
    """
    cfg = ws.config
    spec, lam = cfg.spec, cfg.yosida_lambda

    def residual(dc, kdc):
        # the residual at y_prev + dc and the Yosida value in it
        yc = y_prev + dc
        beta = pot.yosida(spec, lam, yc)
        return kdc + beta + spec.pi(yc) - r, beta

    def floor_at(dc, beta):
        return ws.roundoff_floor(dc, beta, spec.pi(y_prev + dc), r)

    g, beta = residual(d, kd)
    res = ws.h_norm(g)
    history = [res]
    dampings = 0
    for iteration in range(cfg.newton_max):
        if res <= cfg.newton_tol:
            return d, kd, iteration, res, dampings
        y = y_prev + d
        delta = ws.direction(pot.yosida_derivative(spec, lam, y, beta) + spec.pi_prime(y), g)
        alpha = 1.0
        for _ in range(30):
            d_new = d + alpha * delta
            kd_new = ws.apply(d_new)
            g_new, beta_new = residual(d_new, kd_new)
            res_new = ws.h_norm(g_new)
            if res_new < res:
                break
            alpha *= 0.5
            dampings += 1
        else:
            floor = floor_at(d, beta)
            if res <= floor < math.inf:
                return d, kd, iteration, res, dampings
            raise StepError(
                f"Newton step could not reduce the residual {res:.3e} below newton_tol "
                f"{cfg.newton_tol:.1e} or its round-off floor {floor:.1e} after 30 halvings; "
                "try a smaller step size or a larger regularization level",
                residual_history=history,
            )
        d, kd, g, beta, res = d_new, kd_new, g_new, beta_new, res_new
        history.append(res)
    if res <= cfg.newton_tol or res <= floor_at(d, beta) < math.inf:
        return d, kd, cfg.newton_max, res, dampings
    raise StepError(
        f"Newton did not reach tolerance {cfg.newton_tol:.1e} in {cfg.newton_max} "
        "iterations; try a smaller step size or a larger regularization level",
        residual_history=history,
    )


def _fresh_carry(ws: _Workspace, y: np.ndarray, mu: np.ndarray, d: np.ndarray):
    """The carry of a step from the rows ``(y, mu)`` that starts Newton at ``d``."""
    return d, ws.apply(d), ws.spectral(mu, y)[1]


def _advance(ws: _Workspace, y: np.ndarray, mu: np.ndarray, u_next: np.ndarray, carry):
    """One step from the rows ``(y, mu)`` with the carry of the step before.

    ``carry`` is ``(d, K d, S mu - mu - B2s y)``: Newton's start, its
    product with ``K`` and the spectral part of the right-hand side, as
    :func:`_fresh_carry` computes it or the step before returned it.
    Returns the new rows, the carry of the next step, which starts Newton
    at this step's increment ``d = y+ - y``, and the stats.
    """
    cfg = ws.config
    d, kd, part = carry
    d, kd, iters, res, dampings = _newton_solve(ws, y, u_next + mu + part, d, kd)
    rate = d / cfg.h
    y_next = y + d
    mu_next = sp.solve_shifted(cfg.op_A, mu - rate)
    a_mu, part = ws.spectral(mu_next, y_next)
    phase_res = ws.h_norm(rate + mu_next + a_mu - mu)
    return y_next, mu_next, (d, kd, part), StepStats(
        iterations=iters, residual_phase=phase_res, residual_potential=res, dampings=dampings)


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
    ws = _Workspace(config)
    y, mu = prev_y.values, prev_mu.values
    carry = _fresh_carry(ws, y, mu, (start or prev_y).values - y)
    y, mu, _, stats = _advance(ws, y, mu, u_next.values, carry)
    return sp.Field(y, config.grid), sp.Field(mu, config.grid), stats


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
    step's increment ``y^n - y^(n-1)``.  The states of each block of
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
    carry = _fresh_carry(ws, y[0], mu[0], np.zeros(config.grid.size))
    stats: List[StepStats] = []
    # one pass with no step when there are none, which takes the initial row alone
    for start in range(0, max(steps, 1), _SOURCE_BLOCK):
        sources = data.source.values(
            config.h * np.arange(start + 1, min(start + _SOURCE_BLOCK, steps) + 1))
        for k, u in enumerate(sources):
            try:
                y[k + 1], mu[k + 1], carry, st = _advance(ws, y[k], mu[k], u, carry)
            except StepError as exc:
                exc.step_index = start + k
                raise
            stats.append(st)
        end = len(sources)
        recorder.add(y[:end + 1], mu[:end + 1], sources)
        y[0], mu[0] = y[end], mu[end]
    return recorder.trajectory(stats)
