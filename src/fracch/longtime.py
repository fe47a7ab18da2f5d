"""Late-time diagnostics: limit-point probes and stationarity residuals.

The long-run behavior of the state splits along the first eigenvalue of
the first operator.  When it is positive, the potential decays to zero
and every limit point of the state solves the stationary inclusion

    B2s y + beta(y) + pi(y) ∋ u_inf.

When it vanishes, the limit points satisfy the same inclusion up to an
additional spatially constant function mu_inf(t), which is nonunique and
time dependent in general; under a smooth single-valued graph and a range
confinement it is uniquely determined and constant.  The probes below
witness these statements computationally: the plain-norm gap of each
snapshot to the last one and the tail diameter of the snapshots (the
largest gap among all later ones, whose decay is the Cauchy-type
convergence of the run) plus a uniform graph-norm bound stand in for the
weak compactness, the constant part of the potential is extracted from a
trailing window, and the stationarity residual measures the distance of
the reconstructed graph selection from the graph.

:func:`longtime_report` assembles these witnesses into the payload of
``report.json``.  It reads only what a run directory stores: the snapshot
rows, the per-step scalar columns of ``trajectory.csv`` and the range of
the state.  A reloaded run and the in-memory trajectory it came from feed
it bit-identical inputs, so they give the same report byte for byte.  It
is the only late-time analysis: the constant part of the potential, the
range certificate and the unique-multiplier verdict exist only as fields
of its payload, and :func:`trajectory_columns` gives the per-step series
it reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import potentials as pot
from . import spectral as sp
from .errors import (BranchError, ConfigurationError, DomainError,
                     InsufficientDataError)
from .stepper import DiscreteTrajectory, ProblemData, SchemeConfig

#: The per-step scalar series of a run, in ``trajectory.csv`` column order.
TRAJECTORY_COLUMNS = ("t", "mean_y", "mean_mu", "norm_y", "norm_B_sigma_y",
                      "norm_mu", "norm_Ar_mu", "newton_iters")


def trajectory_columns(traj: DiscreteTrajectory) -> dict:
    """The :data:`TRAJECTORY_COLUMNS` series of a trajectory, from its columns."""
    return {
        "t": traj.times(),
        **{name: traj.columns[name] for name in TRAJECTORY_COLUMNS[1:-1]},
        "newton_iters": np.concatenate(([0.0], traj.solver_stats.iterations)),
    }


def mass_identity_defect(columns: dict, h: float) -> float:
    """The defect ``|mean y^N + h mean mu^N - mean y^0|`` of the discrete mass identity."""
    mean_y = columns["mean_y"]
    return float(abs(mean_y[-1] + h * columns["mean_mu"][-1] - mean_y[0]))


def _window_start(steps: int, window_fraction: float) -> int:
    """First step of the trailing window holding ``window_fraction`` of the run."""
    if not 0.0 < window_fraction < 1.0:
        raise ConfigurationError(
            f"window fraction must lie in (0, 1), got {window_fraction!r}")
    return int(math.ceil(steps * (1.0 - window_fraction)))


def stationarity_residual(y: sp.Field, mu_inf: float, u_inf: sp.Field,
                          spec: pot.PotentialSpec, op_B: sp.FractionalOperator,
                          overshoot_tol: float = 0.0) -> float:
    """Distance of the state from solving the stationary inclusion.

    Reconstructs the required graph selection ``xi = mu_inf + u_inf - B2s y
    - pi(y)`` and returns the quadrature norm of the nodal distances from
    ``xi`` to the graph at ``y``.  For a single-valued graph this is the
    norm of ``B2s y + beta(y) + pi(y) - mu_inf - u_inf``; for the obstacle
    graph it is the complementarity residual: the selection must vanish
    where the state is free, be nonnegative on the upper contact set and
    nonpositive on the lower one.

    Values beyond the closure of the graph domain by at most
    ``overshoot_tol`` (regularization overshoot) are clamped onto it;
    anything farther raises :class:`DomainError`.
    """
    dom = spec.beta_domain
    values = y.values
    lo, hi = dom.lo, dom.hi
    if np.any(values < lo - overshoot_tol) or np.any(values > hi + overshoot_tol):
        worst = float(np.max(np.maximum(lo - values, values - hi)))
        raise DomainError(
            f"state leaves the graph domain by {worst:.3e}, beyond the declared "
            f"overshoot tolerance {overshoot_tol:.3e}"
        )
    clamped = np.clip(values, lo, hi)
    xi = mu_inf + u_inf.values - sp.power_rows(op_B, clamped, 2.0) - spec.pi(clamped)
    # contact with an open boundary: no admissible selection exists
    violations = np.full_like(xi, np.inf)
    inside = dom.contains(clamped)
    violations[inside] = pot.graph_selection_residual(spec, clamped[inside], xi[inside])
    return float(np.sqrt(np.sum(y.grid.w * violations * violations)))


def variational_inequality_check(y: sp.Field, mu_inf: float, u_inf: sp.Field,
                                 spec: pot.PotentialSpec,
                                 op_B: sp.FractionalOperator) -> float:
    """Spot check of the stationary variational inequality on random fields.

    For 100 random test fields with values in the convex-part domain, drawn
    by :func:`potentials.uniform_draws`, and the two constant fields at the
    ends of their range, the candidate state must satisfy

        (Bs y, Bs (y - v)) + int bh(y) + (pi(y) - mu_inf - u_inf, y - v)
            <= int bh(v),

    which is the inequality form behind the pointwise complementarity
    residual.  A multiplier off by a constant raises the left side on one
    of the constant fields; random nodal values, whose means lie near zero,
    find that only by chance.  By Parseval on the quadrature-orthonormal
    modes the first term is ``(B2s y, y - v)``, one synthesis for all
    trials.  Returns the largest violation over the trials (zero when the
    inequality holds everywhere sampled).
    """
    dom = spec.beta_hat_domain
    grid = y.grid
    lo, hi = max(dom.lo, -1.0), min(dom.hi, 1.0)
    v = pot.uniform_draws(lo, hi, (102, grid.size))
    v[100:] = [[lo], [hi]]
    yc = np.clip(y.values, dom.lo, dom.hi)
    pairing = sp.power_rows(op_B, yc, 2.0) + spec.pi(yc) - mu_inf - u_inf.values
    lhs = sp.row_inner(pairing, yc - v, grid) + np.sum(grid.w * spec.beta_hat(yc))
    return max(0.0, float(np.max(lhs - np.sum(grid.w * spec.beta_hat(v), axis=-1))))


def residual_scale(y: sp.Field, mu_inf: float, u_inf: sp.Field,
                   spec: pot.PotentialSpec, op_B: sp.FractionalOperator) -> float:
    """Largest norm among the terms entering the stationary equation."""
    dom = spec.beta_domain
    clamped = np.clip(y.values, dom.lo, dom.hi)
    yc = sp.Field(clamped, y.grid)
    terms = [
        sp.norm(sp.apply_power(op_B, yc, 2.0)),
        sp.norm(sp.Field(spec.pi(clamped), y.grid)),
        abs(mu_inf) * np.sqrt(y.grid.length),
        sp.norm(u_inf),
    ]
    if spec.smooth_graph and np.all(dom.contains(clamped)):
        beta_vals = spec.beta(clamped)[0]
        if np.all(np.isfinite(beta_vals)):
            terms.append(sp.norm(sp.Field(beta_vals, y.grid)))
    return max(max(terms), 1e-12)


@dataclass(frozen=True)
class NonuniquenessReport:
    """Residuals of the constant-in-space solution family check."""

    sample_times: np.ndarray
    mu_values: np.ndarray
    first_equation_residuals: np.ndarray
    selection_residuals: np.ndarray

    @property
    def max_violation(self) -> float:
        return float(max(self.first_equation_residuals.max(),
                         self.selection_residuals.max()))


def example_best_check(mu_bar, sample_times: Sequence[float],
                       op_A: sp.FractionalOperator) -> NonuniquenessReport:
    """Verify the explicit nonunique-multiplier solution family.

    With the ``example_best`` potential, a zero state and zero source, any
    bounded time profile with values in [-1, 1] yields a solution whose
    potential is that profile times the constant function: spatially
    constant fields are annihilated by the first operator, and the profile
    value is an admissible graph selection at zero.  The check evaluates
    both residuals at the sample times; two distinct constant profiles both
    passing certifies that the limiting constant is not unique.
    """
    if op_A.lambda1 > 0.0:
        raise BranchError("the construction needs a zero first eigenvalue")
    spec = pot.make_potential("example_best")
    grid = op_A.basis.grid
    times = np.asarray(list(sample_times), dtype=float)
    mu_values = np.array([float(mu_bar(t)) for t in times])
    bad = np.abs(mu_values) > 1.0
    if np.any(bad):
        worst = float(np.abs(mu_values).max())
        raise DomainError(
            f"profile leaves the admissible band: |mu_bar| reaches {worst}"
        )
    eq_res = sp.row_norms(sp.power_rows(op_A, np.outer(mu_values, np.ones(grid.size))), grid)
    return NonuniquenessReport(
        sample_times=times,
        mu_values=mu_values,
        first_equation_residuals=eq_res,
        selection_residuals=pot.graph_selection_residual(spec, np.zeros_like(mu_values),
                                                         mu_values),
    )


def _certify_range(y_min: float, y_max: float, spec: pot.PotentialSpec,
                   yosida_lambda: float) -> dict:
    """The extent of the state over the whole run against a confinement
    interval: the closure of a bounded graph domain, or for an unbounded
    domain the observed range itself."""
    dom = spec.beta_domain
    a, b = map(float, (dom.lo, dom.hi) if dom.bounded else (y_min, y_max))
    overshoot = max(0.0, a - y_min, y_max - b)
    return {"y_min": y_min, "y_max": y_max, "interval": (a, b),
            "contained": overshoot == 0.0, "overshoot": overshoot,
            "yosida_lambda": yosida_lambda}


def _unique_constant_certified(spec: pot.PotentialSpec, cert: dict) -> bool:
    """Whether the unique-constant-multiplier hypotheses hold for a run.

    They require a single-valued smooth graph on an open interval and the
    state's range strictly inside that interval.  Density of the bounded
    functions in the operator domain is automatic for the interval bases
    and recorded as an assumption for matrix-backed ones.
    """
    if not spec.smooth_graph:
        return False
    dom = spec.beta_domain
    return dom.lo < cert["y_min"] and cert["y_max"] < dom.hi


def longtime_report(config: SchemeConfig, data: ProblemData, snapshots: np.ndarray,
                    snapshot_steps: Sequence[int], columns: dict, y_range: tuple,
                    window_fraction: float = 0.5) -> dict:
    """Limit-point analysis of a run; the payload of ``report.json``.

    Inputs: the (S, m) state rows at ``snapshot_steps``, the
    :data:`TRAJECTORY_COLUMNS` series and the (min, max) of the state.
    Gaps are plain-norm distances between snapshots: ``gap_to_last[i]`` is
    the gap of snapshot ``i`` to the last one, and ``tail_diameter[i]`` the
    largest gap among snapshots ``i`` and later, which does not increase
    and ends at 0.  The diameter is built from the last snapshot backwards,
    one row of gaps at a time, so no (S, S) array is held.
    The stationarity residual of the last snapshot uses a zero constant on
    the positive branch and, on the zero branch, the tail average of the
    potential's mean over the trailing ``window_fraction``.  Its flatness
    follows from ``|mu - mean|^2 = |mu|^2 - mean^2 * length``, which
    cancels: it resolves the flatness only to about ``sqrt(eps) * |mu|``
    (eps the machine epsilon), so a spatially constant potential reads
    about 1e-9 where the fields give 1e-17.  The residual tolerates the
    last snapshot's own overshoot of the graph domain.
    """
    start = _window_start(len(columns["t"]) - 1, window_fraction)
    if len(snapshot_steps) < 2:
        raise InsufficientDataError("need at least two snapshots")
    grid, h = config.grid, config.h
    spec, op_b, u_inf = config.spec, config.op_B, data.source.u_inf
    tail_diameter = np.zeros(len(snapshots))
    for i in range(len(snapshots) - 2, -1, -1):
        tail_diameter[i] = max(tail_diameter[i + 1],
                               sp.row_norms(snapshots[i + 1:] - snapshots[i], grid).max())
    candidate = sp.Field(snapshots[-1], grid)
    if config.op_A.lambda1 > 0.0:
        branch = "lambda1_positive"
        mu_value = 0.0
        mu_payload = None
    else:
        branch = "lambda1_zero"
        tail = columns["mean_mu"][start:]
        flatness = np.sqrt(np.maximum(
            columns["norm_mu"][start:] ** 2 - grid.length * tail ** 2, 0.0))
        mu_value = float(tail.mean())
        mu_payload = {
            "times": columns["t"][start:],
            "series": tail,
            "tail_average": mu_value,
            "spread": float(tail.max() - tail.min()),
            "flatness_max": float(flatness.max()),
        }
    dom = spec.beta_domain
    exceed = max(0.0, dom.lo - float(candidate.values.min()),
                 float(candidate.values.max()) - dom.hi)
    overshoot_tol = exceed * (1.0 + 1e-9) + 1e-15
    cert = _certify_range(y_range[0], y_range[1], spec, config.yosida_lambda)
    basis_kinds = {config.op_A.basis.kind, op_b.basis.kind}
    return {
        "schema": "fracch-longtime/2",
        "branch": branch,
        "window_fraction": window_fraction,
        "probe_times": h * np.array(snapshot_steps, dtype=float),
        "gap_to_last": sp.row_norms(snapshots - snapshots[-1], grid),
        "tail_diameter": tail_diameter,
        "b_sigma_bound": float(sp.row_power_norms(op_b, snapshots).max()),
        "stationarity_residual": stationarity_residual(
            candidate, mu_value, u_inf, spec, op_b, overshoot_tol),
        "residual_scale": residual_scale(candidate, mu_value, u_inf, spec, op_b),
        "variational_inequality_violation": variational_inequality_check(
            candidate, mu_value, u_inf, spec, op_b),
        "mu_infinity_value": mu_value,
        "mu_infinity": mu_payload,
        "mass_identity_defect": mass_identity_defect(columns, h),
        "range_certificate": cert,
        "assumptions": {
            "bounded_density": ("verified_interval_bases" if "matrix" not in basis_kinds
                                else "assumed_for_matrix_basis"),
            "unique_constant_multiplier_certified": _unique_constant_certified(spec, cert),
        },
    }
