"""Property tests over random small problems.

Each scheme example draws an interval basis (zero-flux or zero-boundary),
one of the four canonical potentials, the scheme parameters, a smooth
initial state and a decaying source, runs the scheme, and checks the
energy ledger against a plain Field-by-Field evaluation, the exact mass
identity and the ledger slack.  The regularization examples draw a graph,
two points and a level, and check the resolvent and Yosida identities.
The examples are derandomized so that the suite gives the same verdict on
every run.
"""

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as hs

from fracch import estimates as est
from fracch import potentials as pot
from fracch import spectral as sp
from fracch import stepper as st

from conftest import cosine_field, zero_potential

POTENTIALS = ("regular", "logarithmic", "obstacle", "example_best")
EPS = np.finfo(float).eps


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
    # the ledger (these trajectories fit in one of its blocks), which leaves
    # only the ledger's own arithmetic to compare
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
    ledger = est.gronwall_ledger(traj)
    assert len(ledger.step) == traj.steps
    scale = np.maximum(np.maximum(np.abs(ledger.terms).max(axis=1), np.abs(ledger.rhs_bound)),
                       est.SLACK_FLOOR)
    for k, (lhs, rhs, slack, data_bound) in enumerate(oracle_ledger(traj)):
        tol = 1e-12 * scale[k]
        for name, value in zip(est.LEDGER_TERMS, ledger.terms[k]):
            assert abs(value - lhs[name]) <= tol, name
        assert abs(ledger.rhs_bound[k] - rhs) <= tol
        assert abs(ledger.slack[k] - slack) <= tol
        assert abs(ledger.data_bound[k] - data_bound) <= 1e-12 * max(data_bound, 1.0)
        assert ledger.slack[k] >= -1e-8 * scale[k]
    if config.op_A.lambda1 == 0.0:
        # the mass identity is exact when the first operator annihilates constants
        mass = sp.row_means(traj.y, config.grid) + traj.h * sp.row_means(traj.mu, config.grid)
        assert np.abs(mass - mass[0]).max() <= 1e-10


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kind=hs.sampled_from(("neumann", "dirichlet")), points=hs.integers(5, 33),
       exponent=hs.floats(0.1, 1.0), levels=hs.lists(hs.floats(0.0, 1e3), min_size=2,
                                                      max_size=3, unique=True),
       data=hs.data())
def test_newton_direction_matches_dense_solve(kind, points, exponent, levels, data):
    # piecewise-constant slopes above -Lip(pi), like the obstacle's pi' + {0, 1/lam}
    modes = points - 2 if kind == "dirichlet" else points
    basis = sp.build_interval_basis(kind, modes, 2.0, points)
    config = st.SchemeConfig(
        op_A=sp.FractionalOperator(basis, exponent), op_B=sp.FractionalOperator(basis, exponent),
        spec=pot.make_potential("obstacle", c2=1.0), yosida_lambda=1e-2, tau=0.5, h=0.02,
        steps=1)
    ws = st._Workspace(config)
    k = ws.k.copy()
    index = data.draw(hs.lists(hs.integers(0, len(levels) - 1), min_size=points,
                               max_size=points))
    slope = np.asarray(levels)[index] - 2.0
    g = np.random.default_rng(points).normal(size=points)
    expected = np.linalg.solve(k + np.diag(slope), -g)
    delta = ws.direction(slope, g)
    assert np.abs(delta - expected).max() <= 1e-10 * np.abs(expected).max()
    assert np.array_equal(ws.k, k)


GRAPHS = {name: pot.make_potential(name, **params) for name, params in (
    ("regular", {}), ("logarithmic", {"c1": 2.0}), ("obstacle", {"c2": 1.0}),
    ("example_best", {}))}
GRAPHS["zero"] = zero_potential()
# how far a computed resolvent may sit from the exact J_lam(s) for |s| <= 3: the
# closed forms and the bisection within a few ulps of 3, the logarithmic Newton
# within its stopping rule |tanh(theta) + 2 lam theta - s| < 1e-12
RESOLVENT_ERROR = {**dict.fromkeys(GRAPHS, 16 * EPS * 3.0), "logarithmic": 1e-12}
# the slope of each graph inside its domain: how far an error in J moves beta(J)
GRAPH_SLOPE = {
    "regular": lambda j: 3.0 * j * j,
    "logarithmic": lambda j: 2.0 / (1.0 - j * j),
    "obstacle": lambda j: 0.0,
    "example_best": lambda j: 2.0,
    "zero": lambda j: 0.0,
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(name=hs.sampled_from(sorted(GRAPHS)), s=hs.floats(-3.0, 3.0), t=hs.floats(-3.0, 3.0),
       log_lam=hs.floats(-6.0, -1.0))
# a small level with |s| below it: the bisection's narrow-bracket midpoint
# must pass the bisection's own selection check
@example(name="zero", s=0.0, t=2.220446049250313e-16, log_lam=-6.0)
def test_regularization_identities(name, s, t, log_lam):
    spec, lam, err = GRAPHS[name], 10.0 ** log_lam, RESOLVENT_ERROR[name]
    reg = pot.YosidaRegularization(spec, lam)
    points = np.array([s, t])
    j, beta = pot.resolvent(reg, points), pot.yosida(reg, points)
    # an error err in J moves the difference quotient (s - J)/lam by err/lam
    beta_err = err / lam + 4 * EPS * np.abs(beta).max()
    assert np.all(np.abs(j + lam * beta - points) <= err + 8 * EPS * 3.0)
    # beta_lam(s) is a selection of the graph at J wherever J is representable
    inside = spec.beta_domain.contains(j)
    for ji, bi in zip(j[inside], beta[inside]):
        tol = err * (1.0 / lam + GRAPH_SLOPE[name](ji)) + 8 * EPS * abs(bi)
        assert pot.graph_selection_residual(spec, ji, bi) <= tol
    # J is nonexpansive, beta_lam monotone and 1/lam-Lipschitz
    assert abs(j[1] - j[0]) <= abs(t - s) + 2 * err
    assert (beta[1] - beta[0]) * np.sign(t - s) >= -2 * beta_err
    assert abs(beta[1] - beta[0]) <= abs(t - s) / lam + 2 * beta_err
