"""Step-by-step energy ledgers for the discrete scheme.

Testing the two discrete equations with ``h*mu+`` and with the state
increment, adding, and using the convexity of

    F(r) = L r^2 / 2 + beta_hat_lam(r) + pi_hat(r),        L = L_pi + 1,

gives a per-step inequality that is exact algebra for exact discrete
solutions: summing it up to step k bounds a collection of squared norms
and increments by the initial energy plus a summation-by-parts pairing
with the source.  The ledger evaluates every term of that summed
inequality and records the slack, which can only be negative through
solver residual or round-off.  A separate data functional,
``|u(0)| + integral |du/dt|``, is recorded for boundedness monitoring:
the classical step from the summed inequality to a horizon-uniform bound
introduces generic constants, so it is monitored, not asserted.

Every pass works on all rows of the trajectory's state arrays at once;
running totals are cumulative sums.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import potentials as pot
from . import spectral as sp
from .errors import EstimateViolationError
from .stepper import DiscreteTrajectory, ProblemData, SchemeConfig

#: Order of the named left-hand-side terms of the summed inequality.
LEDGER_TERMS = (
    "mu_l2_accum",
    "mu_increment_accum",
    "Ar_mu_accum",
    "tau_rate_accum",
    "B_sigma_norm",
    "B_sigma_increment_accum",
    "beta_pi_integral",
    "y_increment_accum",
)

SLACK_FLOOR = 1e-12

#: Nodal values per block of :func:`_split_energies`.
_SPLIT_BLOCK = 8192


@dataclass(frozen=True)
class EnergyLedgerEntry:
    """All terms of the summed inequality at one step.

    ``lhs_terms`` maps the eight named quantities; the increment sums are
    nondecreasing in the step index, while the three state terms
    (``mu_l2_accum``, ``B_sigma_norm``, ``beta_pi_integral``) track the
    current state.  ``slack = rhs_bound - sum(lhs)`` and can only dip
    below zero by solver residual and round-off.
    """

    step: int
    lhs_terms: dict
    rhs_bound: float
    slack: float
    data_bound: float

    @property
    def scale(self) -> float:
        terms = [abs(v) for v in self.lhs_terms.values()] + [abs(self.rhs_bound)]
        return max(max(terms), SLACK_FLOOR)


@dataclass(frozen=True, eq=False)
class EnergyLedger(Sequence):
    """The summed inequality at every step, one array entry per step.

    ``terms`` holds the eight left-hand quantities as columns in
    :data:`LEDGER_TERMS` order.  Indexing with an integer gives the
    :class:`EnergyLedgerEntry` of one step, slicing a shorter ledger.
    """

    step: np.ndarray
    terms: np.ndarray
    rhs_bound: np.ndarray
    slack: np.ndarray
    data_bound: np.ndarray

    def __len__(self) -> int:
        return len(self.step)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return EnergyLedger(self.step[k], self.terms[k], self.rhs_bound[k],
                                self.slack[k], self.data_bound[k])
        k = range(len(self))[k]
        return EnergyLedgerEntry(
            step=int(self.step[k]),
            lhs_terms=dict(zip(LEDGER_TERMS, self.terms[k].tolist())),
            rhs_bound=float(self.rhs_bound[k]),
            slack=float(self.slack[k]),
            data_bound=float(self.data_bound[k]),
        )


def _split_energies(config: SchemeConfig, y: np.ndarray, absolute: bool = False) -> np.ndarray:
    """Integral of ``beta_hat_lam + pi_hat``, or of its absolute value, at each state row.

    The rows are evaluated in blocks of about ``_SPLIT_BLOCK`` nodal values:
    the logarithmic resolvent holds about nine temporaries the size of its
    batch, which over a whole trajectory would set the run's peak memory.
    """
    w = config.grid.w
    out = np.empty(len(y))
    rows = max(1, _SPLIT_BLOCK // y.shape[1])
    for start in range(0, len(y), rows):
        block = y[start:start + rows]
        values = pot.yosida_primal(config.regularization, block) + config.spec.pi_hat(block)
        out[start:start + rows] = np.sum(w * (np.abs(values) if absolute else values), axis=1)
    return out


def _step_norms(config: SchemeConfig, y: np.ndarray, mu: np.ndarray) -> dict:
    """Per-step squared norms shared by the ledger, uniform and dual-norm passes.

    For K+1 consecutive state rows: |dy|^2, |dmu|^2, |B^s dy|^2 and
    |A^r mu^k|^2, one value per step k = 1..K.
    """
    dy = np.diff(y, axis=0)
    return {
        "dy": sp.row_norms(dy, config.grid) ** 2,
        "dmu": sp.row_norms(np.diff(mu, axis=0), config.grid) ** 2,
        "b_dy": sp.row_power_norms(config.op_B, dy) ** 2,
        "ar_mu": sp.row_power_norms(config.op_A, mu[1:]) ** 2,
    }


def _ledger_increments(config: SchemeConfig, y: np.ndarray, mu: np.ndarray):
    """Per-step increments of the ledger terms for K+1 consecutive state rows.

    Returns the (K, 8) increments and the initial split energy and B-norm
    term that the summed inequality moves to its right side.
    """
    h, tau = config.h, config.tau
    shift = config.spec.stability_shift
    sq = _step_norms(config, y, mu)
    mu_sq = sp.row_norms(mu, config.grid) ** 2
    b_sq = sp.row_power_norms(config.op_B, y) ** 2
    energy = _split_energies(config, y)
    increments = np.column_stack([
        0.5 * h * np.diff(mu_sq),
        0.5 * h * sq["dmu"],
        h * sq["ar_mu"],
        tau / h * sq["dy"],
        0.5 * np.diff(b_sq),
        0.5 * sq["b_dy"],
        np.diff(energy),
        0.5 * shift * sq["dy"],
    ])
    return increments, float(energy[0]), 0.5 * float(b_sq[0])


@dataclass(frozen=True)
class LedgerIncrement:
    """One step's contribution to every ledger term."""

    increments: dict
    rhs_increment: float
    slack: float


def per_step_inequality(prev, next_state, u_next: sp.Field,
                        config: SchemeConfig,
                        tol_rel: float | None = None) -> LedgerIncrement:
    """Evaluate one step of the pre-summation inequality.

    ``prev`` and ``next_state`` are consecutive ``(y, mu)`` pairs of an
    accepted trajectory.  The slack is the convexity gap of the split
    energy pairing, polluted only by the solver residual.  When
    ``tol_rel`` is given, a slack below ``-tol_rel`` times the largest
    term raises :class:`EstimateViolationError`: the inequality is exact
    algebra for exact discrete solutions, so that signals a solver bug.
    """
    y = np.array([prev[0].values, next_state[0].values])
    mu = np.array([prev[1].values, next_state[1].values])
    terms, _, _ = _ledger_increments(config, y, mu)
    increments = dict(zip(LEDGER_TERMS, terms[0].tolist()))
    rhs = sp.inner(u_next, next_state[0] - prev[0])
    slack = rhs - sum(increments.values())
    if tol_rel is not None:
        scale = max(max(abs(v) for v in increments.values()), abs(rhs), SLACK_FLOOR)
        if slack < -tol_rel * scale:
            raise EstimateViolationError(
                f"per-step inequality violated: slack {slack:.3e} below "
                f"-{tol_rel:.1e} x scale {scale:.3e}"
            )
    return LedgerIncrement(increments=increments, rhs_increment=rhs, slack=slack)


def gronwall_ledger(traj: DiscreteTrajectory, data: ProblemData,
                    config: SchemeConfig) -> EnergyLedger:
    """Accumulate the per-step inequality into one entry per step.

    Entry k restates the summed inequality: the eight left-hand terms
    against ``rhs_bound`` = initial split energy + initial operator norm +
    the summation-by-parts form of the source pairing, evaluated exactly.
    ``data_bound`` carries ``|u(0)| + integral |du/dt|`` up to the entry's
    horizon for uniformity monitoring.
    """
    steps = np.arange(1, traj.steps + 1)
    times = traj.h * steps
    terms, e0_split, e0_b = _ledger_increments(config, traj.y, traj.mu)
    pairing = sp.row_inner(data.source.values(times), np.diff(traj.y, axis=0), config.grid)
    lhs = np.cumsum(terms, axis=0)
    # shift the telescoped initial energies onto the right side
    lhs[:, LEDGER_TERMS.index("B_sigma_norm")] += e0_b
    lhs[:, LEDGER_TERMS.index("beta_pi_integral")] += e0_split
    rhs = e0_split + e0_b + np.cumsum(pairing)
    data_bound = sp.norm(data.source.at(0.0)) + data.source.derivative_l1(times)
    return EnergyLedger(
        step=steps,
        terms=lhs,
        rhs_bound=rhs,
        slack=rhs - lhs.sum(axis=1),
        data_bound=np.broadcast_to(data_bound, steps.shape),
    )


@dataclass(frozen=True)
class UniformReport:
    """Interpolant-level quantities bounded uniformly in the horizon."""

    mu_jump_l2: float          # |mu_bar - mu_under| in L2(H)
    ar_mu_l2: float            # |A^r mu_bar| in L2(H)
    sup_y_graph_norm: float    # sup_t of (|y|^2 + |B^s y|^2)^(1/2)
    b_jump_scaled: float       # h^(-1/2) |B^s (y_bar - y_under)| in L2(H)
    rate_l2_scaled: float      # tau^(1/2) |dy/dt| in L2(H)
    sup_split_energy: float    # sup_t integral |beta_hat_lam + pi_hat| (y_bar)
    dual_rate_l2: float        # |dy/dt| in L2 of the dual space
    data_bound: float

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def uniform_report(traj: DiscreteTrajectory, data: ProblemData,
                   config: SchemeConfig) -> UniformReport:
    """Evaluate the uniform-in-horizon quantities of the trajectory."""
    h, tau = traj.h, config.tau
    grid = config.grid
    sq = _step_norms(config, traj.y, traj.mu)
    graph = np.hypot(sp.row_norms(traj.y, grid), sp.row_power_norms(config.op_B, traj.y))
    split = _split_energies(config, traj.y, absolute=True)
    return UniformReport(
        mu_jump_l2=float(np.sqrt(np.sum(h * sq["dmu"]))),
        ar_mu_l2=float(np.sqrt(np.sum(h * sq["ar_mu"]))),
        sup_y_graph_norm=float(graph.max()),
        b_jump_scaled=float(np.sqrt(np.sum(sq["b_dy"]))),
        rate_l2_scaled=float(np.sqrt(tau * np.sum(sq["dy"] / h))),
        sup_split_energy=float(split.max()),
        dual_rate_l2=dual_norm_rate(traj, config),
        data_bound=float(sp.norm(data.source.at(0.0))
                         + data.source.derivative_l1(traj.final_time)),
    )


@dataclass(frozen=True)
class DualNormReport:
    """Two evaluations of the dual-space rate norm plus its triangle bound."""

    value: float            # from the state increments
    value_identity: float   # from the eliminated first equation
    bound: float            # c0 |mu_under - mu_bar| + |A^r mu_bar|, both in L2(H)
    c0: float


def dual_norm_report(traj: DiscreteTrajectory, config: SchemeConfig) -> DualNormReport:
    """Rate of change measured in the dual of the first operator's domain space.

    Two independent evaluations must agree: coefficients of the state
    increments, and coefficients of ``mu^{n-1} - mu^n - A2r mu^n`` which
    the first discrete equation makes equal to the increment.  The value
    is also bounded by the potential jump and power norms with the
    explicit embedding constant ``c0`` of H into the dual space.
    """
    op = config.op_A
    h = traj.h
    analysis = op.basis.analysis_matrix
    sq = _step_norms(config, traj.y, traj.mu)
    rate = (np.diff(traj.y, axis=0) * (1.0 / h)) @ analysis.T
    c_mu = traj.mu @ analysis.T
    reconstructed = c_mu[:-1] - c_mu[1:] - op.power_weights(2.0) * c_mu[1:]
    direct = np.sum(h * sp.dual_norms(op, rate) ** 2)
    identity = np.sum(h * sp.dual_norms(op, reconstructed) ** 2)
    lam = op.basis.lambdas
    if op.lambda1 > 0.0:
        c0 = float(lam[0] ** (-op.exponent))
    else:
        c0 = max(1.0, float(lam[1] ** (-op.exponent))) if op.basis.n > 1 else 1.0
    return DualNormReport(
        value=float(np.sqrt(direct)),
        value_identity=float(np.sqrt(identity)),
        bound=c0 * float(np.sqrt(np.sum(h * sq["dmu"]))) + float(np.sqrt(np.sum(h * sq["ar_mu"]))),
        c0=c0,
    )


def dual_norm_rate(traj: DiscreteTrajectory, config: SchemeConfig) -> float:
    """The dual-space rate norm; see :func:`dual_norm_report`."""
    return dual_norm_report(traj, config).value
