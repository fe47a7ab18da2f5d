"""Property tests over random small problems.

Each example draws an interval basis (zero-flux or zero-boundary), one of
the four canonical potentials, the scheme parameters, a smooth initial
state and a decaying source, runs the scheme, and checks the energy
ledger against a plain Field-by-Field evaluation, the exact mass identity
and the ledger slack.  The examples are derandomized so that the suite
gives the same verdict on every run.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hs

from fracch import estimates as est
from fracch import potentials as pot
from fracch import spectral as sp
from fracch import stepper as st

from conftest import cosine_field

POTENTIALS = ("regular", "logarithmic", "obstacle", "example_best")


@hs.composite
def problems(draw):
    kind = draw(hs.sampled_from(("neumann", "dirichlet")))
    points = draw(hs.integers(9, 33))
    modes = draw(hs.integers(2, points - 2 if kind == "dirichlet" else points))
    basis = sp.build_interval_basis(kind, modes, draw(hs.floats(0.5, 4.0)), points)
    name = draw(hs.sampled_from(POTENTIALS))
    params = {}
    if name == "logarithmic":
        params["c1"] = draw(hs.floats(1.05, 2.0))
    if name == "obstacle":
        params["c2"] = draw(hs.floats(0.2, 2.0))
    config = st.SchemeConfig(
        op_A=sp.FractionalOperator(basis, draw(hs.floats(0.1, 1.0))),
        op_B=sp.FractionalOperator(basis, draw(hs.floats(0.1, 1.0))),
        spec=pot.make_potential(name, **params),
        yosida_lambda=draw(hs.floats(1e-3, 1e-1)),
        tau=draw(hs.floats(0.0, 1.0)),
        h=draw(hs.floats(1e-3, 0.05)),
        steps=draw(hs.integers(1, 30)),
    )
    grid = config.grid
    # |y0| <= 0.8 keeps every value inside the singular wells' domains
    coeffs = draw(hs.lists(hs.floats(-0.2, 0.2), min_size=1, max_size=4))
    y0 = cosine_field(grid, coeffs)
    bump = cosine_field(grid, draw(hs.lists(hs.floats(-0.5, 0.5), min_size=1, max_size=3)))
    source = st.DecaySource(sp.constant_field(draw(hs.floats(-0.5, 0.5)), grid), bump,
                            draw(hs.floats(0.1, 2.0)))
    return config, st.ProblemData(y0=y0, source=source)


def oracle_ledger(traj):
    """The summed inequality at every step, one Field and one apply_power at a time."""
    config, data = traj.config, traj.data
    h, tau = traj.h, config.tau
    shift = config.spec.stability_shift
    reg = config.regularization

    # the logarithmic resolvent iterates until a whole batch has converged,
    # so its last bits depend on the batch: evaluate it on the same batch as
    # the ledger, which leaves only the ledger's own arithmetic to compare
    integrand = pot.yosida_primal(reg, traj.y) + config.spec.pi_hat(traj.y)

    def split(k):
        return float(np.sum(traj.ys[k].grid.w * integrand[k]))

    def b_sq(y):
        return sp.norm(sp.apply_power(config.op_B, y)) ** 2

    e0_split, e0_b = split(0), 0.5 * b_sq(traj.ys[0])
    totals = dict.fromkeys(est.LEDGER_TERMS, 0.0)
    pairing = 0.0
    rows = []
    for k in range(1, traj.steps + 1):
        y0, y1, mu0, mu1 = traj.ys[k - 1], traj.ys[k], traj.mus[k - 1], traj.mus[k]
        dy = y1 - y0
        increments = {
            "mu_l2_accum": 0.5 * h * (sp.norm(mu1) ** 2 - sp.norm(mu0) ** 2),
            "mu_increment_accum": 0.5 * h * sp.norm(mu1 - mu0) ** 2,
            "Ar_mu_accum": h * sp.norm(sp.apply_power(config.op_A, mu1)) ** 2,
            "tau_rate_accum": tau / h * sp.norm(dy) ** 2,
            "B_sigma_norm": 0.5 * (b_sq(y1) - b_sq(y0)),
            "B_sigma_increment_accum": 0.5 * b_sq(dy),
            "beta_pi_integral": split(k) - split(k - 1),
            "y_increment_accum": 0.5 * shift * sp.norm(dy) ** 2,
        }
        for name in est.LEDGER_TERMS:
            totals[name] += increments[name]
        pairing += sp.inner(data.source.at(k * h), dy)
        lhs = dict(totals)
        lhs["B_sigma_norm"] += e0_b
        lhs["beta_pi_integral"] += e0_split
        rhs = e0_split + e0_b + pairing
        data_bound = sp.norm(data.source.at(0.0)) + data.source.derivative_l1(k * h)
        rows.append((lhs, rhs, rhs - sum(lhs.values()), data_bound))
    return rows


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(problems())
def test_ledger_mass_and_slack_on_random_problems(problem):
    config, data = problem
    traj = st.run(config, data)
    ledger = est.gronwall_ledger(traj, data, config)
    assert len(ledger) == traj.steps
    for entry, (lhs, rhs, slack, data_bound) in zip(ledger, oracle_ledger(traj)):
        tol = 1e-12 * entry.scale
        for name in est.LEDGER_TERMS:
            assert abs(entry.lhs_terms[name] - lhs[name]) <= tol, name
        assert abs(entry.rhs_bound - rhs) <= tol
        assert abs(entry.slack - slack) <= tol
        assert abs(entry.data_bound - data_bound) <= 1e-12 * max(data_bound, 1.0)
        assert entry.slack >= -1e-8 * entry.scale
    if config.op_A.lambda1 == 0.0:
        # the mass identity is exact when the first operator annihilates constants
        mass = sp.row_means(traj.y, config.grid) + traj.h * sp.row_means(traj.mu, config.grid)
        assert np.abs(mass - mass[0]).max() <= 1e-10
