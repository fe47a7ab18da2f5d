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

Every pass takes the trajectory alone, reading its scheme configuration
and data from it, and works on the per-row and per-step columns that
:func:`stepper.run` reduced the states to as it marched; running totals
are cumulative sums over whole columns.  The ledger is five arrays with one
entry per step and no per-step view: one step's contribution is the
difference of consecutive entries, or a row of :func:`_ledger_increments`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral as sp
from .stepper import DiscreteTrajectory

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


@dataclass(frozen=True, eq=False)
class EnergyLedger:
    """The summed inequality at every step, one array entry per step.

    ``terms`` holds the eight left-hand quantities as columns in
    :data:`LEDGER_TERMS` order; the increment sums are nondecreasing in the
    step, while the three state terms (``mu_l2_accum``, ``B_sigma_norm``,
    ``beta_pi_integral``) track the current state.  ``slack = rhs_bound -
    sum(terms)`` and can only dip below zero by solver residual and
    round-off.
    """

    step: np.ndarray
    terms: np.ndarray
    rhs_bound: np.ndarray
    slack: np.ndarray
    data_bound: np.ndarray


def _ledger_increments(traj: DiscreteTrajectory):
    """Per-step increments of the ledger terms, from the trajectory's columns.

    Returns the (N, 8) increments and the initial split energy and B-norm
    term that the summed inequality moves to its right side.
    """
    config, col = traj.config, traj.columns
    h, tau = config.h, config.tau
    shift = config.spec.stability_shift
    mu_sq = col["norm_mu"] ** 2
    b_sq = col["norm_B_sigma_y"] ** 2
    energy = col["split_energy"]
    dy_sq = col["norm_dy"] ** 2
    increments = np.column_stack([
        0.5 * h * np.diff(mu_sq),
        0.5 * h * col["norm_dmu"] ** 2,
        h * col["norm_Ar_mu"][1:] ** 2,
        tau / h * dy_sq,
        0.5 * np.diff(b_sq),
        0.5 * col["norm_B_sigma_dy"] ** 2,
        np.diff(energy),
        0.5 * shift * dy_sq,
    ])
    return increments, float(energy[0]), 0.5 * float(b_sq[0])


def _data_bound(source, horizon):
    """``|u(0)| + integral |du/dt|`` up to each horizon."""
    return sp.norm(source.at(0.0)) + source.derivative_l1(horizon)


def gronwall_ledger(traj: DiscreteTrajectory) -> EnergyLedger:
    """Accumulate the per-step inequality into one entry per step.

    Entry k restates the summed inequality: the eight left-hand terms
    against ``rhs_bound`` = initial split energy + initial operator norm +
    the summation-by-parts form of the source pairing, evaluated exactly.
    ``data_bound`` carries ``|u(0)| + integral |du/dt|`` up to the entry's
    horizon for uniformity monitoring.
    """
    steps = np.arange(1, traj.steps + 1)
    terms, e0_split, e0_b = _ledger_increments(traj)
    lhs = np.cumsum(terms, axis=0)
    # shift the telescoped initial energies onto the right side
    lhs[:, LEDGER_TERMS.index("B_sigma_norm")] += e0_b
    lhs[:, LEDGER_TERMS.index("beta_pi_integral")] += e0_split
    rhs = e0_split + e0_b + np.cumsum(traj.columns["source_pairing"])
    return EnergyLedger(
        step=steps,
        terms=lhs,
        rhs_bound=rhs,
        slack=rhs - lhs.sum(axis=1),
        data_bound=np.broadcast_to(_data_bound(traj.data.source, traj.h * steps), steps.shape),
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


def uniform_report(traj: DiscreteTrajectory) -> UniformReport:
    """Evaluate the uniform-in-horizon quantities of the trajectory."""
    col, h, tau = traj.columns, traj.h, traj.config.tau
    return UniformReport(
        mu_jump_l2=float(np.sqrt(np.sum(h * col["norm_dmu"] ** 2))),
        ar_mu_l2=float(np.sqrt(np.sum(h * col["norm_Ar_mu"][1:] ** 2))),
        sup_y_graph_norm=float(np.hypot(col["norm_y"], col["norm_B_sigma_y"]).max()),
        b_jump_scaled=float(np.sqrt(np.sum(col["norm_B_sigma_dy"] ** 2))),
        rate_l2_scaled=float(np.sqrt(tau * np.sum(col["norm_dy"] ** 2 / h))),
        sup_split_energy=float(col["split_energy_abs"].max()),
        dual_rate_l2=dual_norm_report(traj).value,
        data_bound=float(_data_bound(traj.data.source, traj.final_time)),
    )


@dataclass(frozen=True)
class DualNormReport:
    """Two evaluations of the dual-space rate norm plus its triangle bound."""

    value: float            # from the state increments
    value_identity: float   # from the eliminated first equation
    bound: float            # c0 |mu_under - mu_bar| + |A^r mu_bar|, both in L2(H)
    c0: float


def dual_norm_report(traj: DiscreteTrajectory) -> DualNormReport:
    """Rate of change measured in the dual of the first operator's domain space.

    Two independent evaluations must agree: coefficients of the state
    increments, and coefficients of ``mu^{n-1} - mu^n - A2r mu^n`` which
    the first discrete equation makes equal to the increment.  The value
    is also bounded by the potential jump and power norms with the
    explicit embedding constant ``c0`` of H into the dual space.
    """
    op, h, col = traj.config.op_A, traj.h, traj.columns
    direct = np.sum(h * col["dual_rate"] ** 2)
    identity = np.sum(h * col["dual_rate_identity"] ** 2)
    lam = op.basis.lambdas
    if op.lambda1 > 0.0:
        c0 = float(lam[0] ** (-op.exponent))
    else:
        c0 = max(1.0, float(lam[1] ** (-op.exponent))) if op.basis.n > 1 else 1.0
    return DualNormReport(
        value=float(np.sqrt(direct)),
        value_identity=float(np.sqrt(identity)),
        bound=(c0 * float(np.sqrt(np.sum(h * col["norm_dmu"] ** 2)))
               + float(np.sqrt(np.sum(h * col["norm_Ar_mu"][1:] ** 2)))),
        c0=c0,
    )

