"""Property tests over random small problems.

Each scheme example draws an interval basis (zero-flux or zero-boundary),
one of the four canonical potentials, the scheme parameters, a smooth
initial state and a decaying source, runs the scheme, and checks the
energy ledger against a plain Field-by-Field evaluation, the exact mass
identity, the ledger slack and the first equation of the scheme on the
recorded rows.  The regularization examples draw a graph,
two points and a level, and check the resolvent and Yosida identities.
The serialization examples draw float arrays and check that the JSON of an
array is the JSON of its nested list and reads back to the same doubles.
The Newton-direction examples check the step operator and its shifted
inverse built from a shared basis against the dense assembly and inverse,
the reduced branch and the branch along the modes against the dense
solve, on one basis or two, and a workspace that builds new active-set
factors against a fresh one, bit for bit, and one that reuses them against
the dense solve.  The limit-set
examples draw snapshot rows, some of them repeated, and check the gap to
the last snapshot and the tail diameter of the long-time report against
the dense matrix of all snapshot gaps, bit for bit.  The warm-start
examples check a run, whose Newton solves start at the previous increment,
against ``solve_step`` chained from ``d = 0``.  The fuzzing examples
mutate a small run document or the matrix file its operators read, or
draw the flags of ``check-potentials``, ``example-best`` and ``sweep``,
and hold ``cli.main`` to its input contract.  The examples are
derandomized so that the suite gives the same verdict on every run, and
``conftest.no_mined_constants`` keeps the literals of the sources out of
the draws, so that an edit elsewhere draws the same examples; the literals
that matter are explicit examples.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as hs
from hypothesis.extra import numpy as hnp
from hypothesis.internal.conjecture import providers

from fracch import cli
from fracch import estimates as est
from fracch import potentials as pot
from fracch import runio
from fracch import spectral as sp
from fracch import stepper as st

from conftest import (assert_first_equation, assert_matches_cold_chain,
                      assert_step_operator_closed_forms, cosine_field, dense_step_operator,
                      fresh_longtime_report, recorded_run, states_trajectory, zero_potential)

POTENTIALS = ("regular", "logarithmic", "obstacle", "example_best")
EPS = np.finfo(float).eps


def test_mined_literals_stay_out_of_the_draws():
    # conftest.no_mined_constants empties hypothesis's pool of literals mined
    # from the sources through this private name; without it, every edit
    # would draw other examples for each derandomized test
    assert callable(getattr(providers, "_get_local_constants", None))
    pool = providers.HypothesisProvider(None)._local_constants
    assert not any(pool.set_for_type(kind) for kind in ("integer", "float", "bytes", "string"))


def problem(kind, points, modes, length, name, params, exponents, lam, tau, h, steps,
            y0, bump, u_inf, rate):
    """A scheme on one interval basis with a cosine initial state and a
    decaying cosine source, from the values :func:`problems` draws."""
    basis = sp.build_interval_basis(kind, modes, length, points)
    config = st.SchemeConfig(
        op_A=sp.FractionalOperator(basis, exponents[0]),
        op_B=sp.FractionalOperator(basis, exponents[1]),
        spec=pot.make_potential(name, **params),
        yosida_lambda=lam, tau=tau, h=h, steps=steps)
    grid = config.grid
    source = st.DecaySource(sp.constant_field(u_inf, grid), cosine_field(grid, bump), rate)
    return config, st.ProblemData(y0=cosine_field(grid, y0), source=source)


@hs.composite
def problems(draw):
    kind = draw(hs.sampled_from(("neumann", "dirichlet")))
    points = draw(hs.integers(9, 33))
    modes = draw(hs.integers(2, points - 2 if kind == "dirichlet" else points))
    length = draw(hs.floats(0.5, 4.0))
    name = draw(hs.sampled_from(POTENTIALS))
    params = {}
    if name == "logarithmic":
        params["c1"] = draw(hs.floats(1.05, 2.0))
    if name == "obstacle":
        params["c2"] = draw(hs.floats(0.2, 2.0))
    return problem(
        kind, points, modes, length, name, params,
        exponents=(draw(hs.floats(0.1, 1.0)), draw(hs.floats(0.1, 1.0))),
        lam=draw(hs.floats(1e-3, 1e-1)), tau=draw(hs.floats(0.0, 1.0)),
        h=draw(hs.floats(1e-3, 0.05)), steps=draw(hs.integers(1, 30)),
        # |y0| <= 0.8 keeps every value inside the singular wells' domains
        y0=draw(hs.lists(hs.floats(-0.2, 0.2), min_size=1, max_size=4)),
        bump=draw(hs.lists(hs.floats(-0.5, 0.5), min_size=1, max_size=3)),
        u_inf=draw(hs.floats(-0.5, 0.5)), rate=draw(hs.floats(0.1, 2.0)))


# tau at both ends of [0, 1], each run on a singular well with the initial
# state at its largest drawn reach, 0.8, and the source at its ends
TAU_ENDS = (
    problem("neumann", 17, 17, 4.0, "obstacle", {"c2": 2.0}, (1.0, 0.1), 1e-3, 0.0, 0.05,
            30, [0.2, 0.2, 0.2, 0.2], [0.5, -0.5, 0.5], 0.5, 2.0),
    problem("dirichlet", 9, 7, 0.5, "logarithmic", {"c1": 1.05}, (0.1, 1.0), 1e-1, 1.0,
            1e-3, 30, [-0.2, -0.2, -0.2, -0.2], [-0.5], -0.5, 0.1),
)


def oracle_ledger(traj, y, mu):
    """The summed inequality at every step of the recorded states ``y`` and
    ``mu``, one Field and one apply_power at a time."""
    config, data = traj.config, traj.data
    h, tau = traj.h, config.tau
    spec, lam = config.spec, config.yosida_lambda
    shift = spec.stability_shift

    # the logarithmic resolvent iterates until a whole batch has converged,
    # so its last bits depend on the batch: evaluate it on the same batch as
    # the run's columns (these trajectories fit in one of its blocks), which
    # leaves only the ledger's own arithmetic to compare
    integrand = pot.yosida_primal(spec, lam, y) + spec.pi_hat(y)
    ys = [sp.Field(row, config.grid) for row in y]
    mus = [sp.Field(row, config.grid) for row in mu]

    def split(k):
        return float(np.sum(config.grid.w * integrand[k]))

    def b_sq(y):
        return sp.norm(sp.apply_power(config.op_B, y)) ** 2

    e0_split, e0_b = split(0), 0.5 * b_sq(ys[0])
    totals = dict.fromkeys(est.LEDGER_TERMS, 0.0)
    pairing = 0.0
    rows = []
    for k in range(1, traj.steps + 1):
        y0, y1, mu0, mu1 = ys[k - 1], ys[k], mus[k - 1], mus[k]
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
@example(TAU_ENDS[0])
@example(TAU_ENDS[1])
def test_ledger_mass_and_slack_on_random_problems(problem):
    config, data = problem
    traj, y, mu = recorded_run(config, data)
    ledger = est.gronwall_ledger(traj)
    assert len(ledger.step) == traj.steps
    scale = np.maximum(np.maximum(np.abs(ledger.terms).max(axis=1), np.abs(ledger.rhs_bound)),
                       est.SLACK_FLOOR)
    for k, (lhs, rhs, slack, data_bound) in enumerate(oracle_ledger(traj, y, mu)):
        tol = 1e-12 * scale[k]
        for name, value in zip(est.LEDGER_TERMS, ledger.terms[k]):
            assert abs(value - lhs[name]) <= tol, name
        assert abs(ledger.rhs_bound[k] - rhs) <= tol
        assert abs(ledger.slack[k] - slack) <= tol
        assert abs(ledger.data_bound[k] - data_bound) <= 1e-12 * max(data_bound, 1.0)
        assert ledger.slack[k] >= -1e-8 * scale[k]
    if config.op_A.lambda1 == 0.0:
        # the mass identity is exact when the first operator annihilates constants
        mass = sp.row_means(y, config.grid) + traj.h * sp.row_means(mu, config.grid)
        assert np.abs(mass - mass[0]).max() <= 1e-10


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(problems())
@example(TAU_ENDS[0])
@example(TAU_ENDS[1])
def test_first_equation_on_random_problems(problem):
    config, data = problem
    _, y, mu = recorded_run(config, data)
    assert_first_equation(config, y, mu)


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(problems())
@example(TAU_ENDS[0])
@example(TAU_ENDS[1])
def test_warm_started_run_matches_the_cold_chain(problem):
    config, data = problem
    assert_matches_cold_chain(config, data)


def whole_array_columns(config, data, y, mu):
    """The columns of the states ``y`` and ``mu``, each pass over all rows at once."""
    grid, op_a, op_b, h = config.grid, config.op_A, config.op_B, config.h
    values = pot.yosida_primal(config.spec, config.yosida_lambda, y) + config.spec.pi_hat(y)
    dy = np.diff(y, axis=0)
    c_mu = (mu * grid.w) @ op_a.basis.modes
    return {
        "mean_y": sp.row_means(y, grid),
        "mean_mu": sp.row_means(mu, grid),
        "norm_y": sp.row_norms(y, grid),
        "norm_B_sigma_y": sp.row_power_norms(op_b, y),
        "norm_mu": sp.row_norms(mu, grid),
        "norm_Ar_mu": sp.row_power_norms(op_a, mu),
        "split_energy": np.sum(grid.w * values, axis=1),
        "split_energy_abs": np.sum(grid.w * np.abs(values), axis=1),
        "norm_dy": sp.row_norms(dy, grid),
        "norm_dmu": sp.row_norms(np.diff(mu, axis=0), grid),
        "norm_B_sigma_dy": sp.row_power_norms(op_b, dy),
        "source_pairing": sp.row_inner(data.source.values(h * np.arange(1, len(y))), dy, grid),
        "dual_rate": sp.dual_norms(op_a, (dy / h * grid.w) @ op_a.basis.modes),
        "dual_rate_identity": sp.dual_norms(
            op_a, c_mu[:-1] - c_mu[1:] - op_a.power_weights(2.0) * c_mu[1:]),
    }


def coefficient_floors(config, y, mu):
    """Per-row bounds on how far the columns built from weighted coefficients
    ``(rows * w) @ modes`` move when BLAS sums those products in another order.

    A dot product of m terms is off by at most about m eps times the dot
    product of the magnitudes, each way; a column weights those errors as it
    weights the coefficients.  The other columns take no floor.
    """
    gamma = 2 * (config.grid.size + 1) * EPS
    op_a, op_b = config.op_A, config.op_B

    def magnitudes(op, rows):
        return (np.abs(rows) * config.grid.w) @ np.abs(op.basis.modes)

    def power_norms(op, c):
        return np.sqrt(np.sum((op.power_weights() * c) ** 2, axis=-1))

    dy = np.diff(y, axis=0)
    a_mu = magnitudes(op_a, mu)
    return {
        "norm_B_sigma_y": gamma * power_norms(op_b, magnitudes(op_b, y)),
        "norm_Ar_mu": gamma * power_norms(op_a, a_mu),
        "norm_B_sigma_dy": gamma * power_norms(op_b, magnitudes(op_b, dy)),
        "dual_rate": gamma * sp.dual_norms(op_a, magnitudes(op_a, dy / config.h)),
        "dual_rate_identity": gamma * sp.dual_norms(
            op_a, a_mu[:-1] + (1.0 + op_a.power_weights(2.0)) * a_mu[1:]),
    }


def assert_close(ours, oracle, name, floor=0.0):
    """Agreement to 1e-13 relative to the largest magnitude of the oracle, or,
    row by row, to an absolute ``floor`` where that is larger."""
    ours, oracle = np.asarray(ours, dtype=float), np.asarray(oracle, dtype=float)
    assert ours.shape == oracle.shape, name
    if oracle.size:
        tol = np.maximum(1e-13 * max(np.abs(oracle).max(), 1e-300), floor)
        assert np.all(np.abs(ours - oracle) <= tol), name


@pytest.mark.parametrize("steps", [0, 1, 63, 64, 65, 130])
@settings(max_examples=6, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(problem=problems(), data=hs.data())
def test_streamed_columns_match_the_whole_array_pass(steps, problem, data):
    # run reduces its states block by block, 64 steps at a time, carrying the
    # last row of each block into the next; every column, snapshot and report
    # must be the one of the whole recorded trajectory
    config, problem_data = problem
    config = dataclasses.replace(config, steps=steps)
    snapshot_steps = data.draw(hs.lists(hs.integers(0, steps), min_size=2, max_size=8))
    traj, y, mu = recorded_run(config, problem_data, snapshot_steps)
    assert y.shape == (steps + 1, config.grid.size) and traj.steps == steps
    oracle = whole_array_columns(config, problem_data, y, mu)
    assert traj.columns.keys() == oracle.keys()
    # a column that cancels to round-off, as a power norm of a state constant
    # in space does, is resolved only to its coefficients' round-off
    floors = coefficient_floors(config, y, mu)
    for name, column in oracle.items():
        assert_close(traj.columns[name], column, name, floors.get(name, 0.0))
    assert traj.snapshot_steps == tuple(snapshot_steps)
    assert np.array_equal(traj.y_snapshots, y[snapshot_steps])
    assert np.array_equal(traj.mu_snapshots, mu[snapshot_steps])
    assert traj.y_range == (y.min(), y.max())
    whole = dataclasses.replace(traj, columns=oracle)
    ours, theirs = est.gronwall_ledger(traj), est.gronwall_ledger(whole)
    for field in ("terms", "rhs_bound", "slack", "data_bound"):
        assert_close(getattr(ours, field), getattr(theirs, field), field)
    # every report field is nondecreasing in each of its nonnegative columns,
    # so the reports of the columns moved down and up by their floors bracket
    # how far those floors can move it
    low, high = (dataclasses.replace(traj, columns={
        name: np.maximum(column + sign * floors[name], 0.0) if name in floors else column
        for name, column in oracle.items()}) for sign in (-1.0, 1.0))
    for report in (est.uniform_report, est.dual_norm_report):
        ours, theirs = dataclasses.asdict(report(traj)), dataclasses.asdict(report(whole))
        lows, highs = dataclasses.asdict(report(low)), dataclasses.asdict(report(high))
        for name in theirs:
            assert_close(ours[name], theirs[name], name,
                         max(highs[name] - theirs[name], theirs[name] - lows[name]))


#: Grid sizes of the Newton direction properties.
GRIDS = hs.integers(5, 33)


def direction_config(kind, points, exponent, data):
    """An obstacle scheme on one or two interval bases, for Newton directions alone.

    The first basis has either as many modes as the grid allows, more than
    ``_MODE_SHARE`` per node, so that a direction with more than half of
    the nodes off takes the dense LU, or a drawn count of at most that
    share, so that it goes along the modes.  The grid has at most 33 nodes:
    the dense oracle's own error grows with the condition number, and with
    143 modes and an exponent near 1 (condition number 1e7) the dense LU of
    ``K + diag(slope)`` misses it by 7.6e-10 relative.  The second operator
    may take a basis of its own, of a drawn kind and mode count within the
    same limits, whose union with the first has more columns or fewer than
    ``_MODE_SHARE`` per node.
    """
    def basis(kind):
        top = points - 2 if kind == "dirichlet" else points
        share = hs.integers(1, max(1, math.floor(st._MODE_SHARE * top)))
        modes = data.draw(hs.just(top) | share, label="modes")
        return sp.build_interval_basis(kind, modes, 2.0, points)
    basis_a = basis(kind)
    kind_b = data.draw(hs.sampled_from((None, "neumann", "dirichlet")), label="second basis")
    basis_b = basis_a if kind_b is None else basis(kind_b)
    return st.SchemeConfig(
        op_A=sp.FractionalOperator(basis_a, exponent),
        op_B=sp.FractionalOperator(basis_b, exponent),
        spec=pot.make_potential("obstacle", c2=1.0), yosida_lambda=1e-2, tau=0.5, h=0.02,
        steps=1)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kind=hs.sampled_from(("neumann", "dirichlet")), points=GRIDS,
       exponent=hs.floats(0.1, 1.0), levels=hs.lists(hs.floats(0.0, 1e3), min_size=2,
                                                      max_size=3, unique=True),
       data=hs.data())
def test_newton_direction_matches_dense_solve(kind, points, exponent, levels, data):
    # piecewise-constant slopes above -Lip(pi), like the obstacle's pi' + {0, 1/lam}
    config = direction_config(kind, points, exponent, data)
    ws = st._Workspace(config)
    probe = np.linspace(-1.0, 1.0, points)
    k_probe = ws.apply(probe)[0]
    index = data.draw(hs.lists(hs.integers(0, len(levels) - 1), min_size=points,
                               max_size=points))
    slope = np.asarray(levels)[index] - 2.0
    g = np.random.default_rng(points).normal(size=points)
    expected = np.linalg.solve(dense_step_operator(config) + np.diag(slope), -g)
    delta = ws.direction(slope, g)
    assert np.abs(delta - expected).max() <= 1e-10 * np.abs(expected).max()
    assert np.array_equal(ws.apply(probe)[0], k_probe)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(kind=hs.sampled_from(("neumann", "dirichlet")), points=GRIDS,
       exponents=hs.tuples(hs.floats(0.1, 1.0), hs.floats(0.1, 1.0)),
       tau=hs.floats(0.0, 1.0), h=hs.floats(1e-3, 0.05), data=hs.data())
def test_step_operator_closed_forms_match_dense_assembly(kind, points, exponents, tau, h, data):
    # K and G = (K + c I)^(-1) from the shared basis, for any mode count and
    # any shift c in [-Lip(pi), 1/lam], the range of the smallest slope
    modes = data.draw(hs.integers(1, points - 2 if kind == "dirichlet" else points))
    basis = sp.build_interval_basis(kind, modes, 2.0, points)
    config = st.SchemeConfig(
        op_A=sp.FractionalOperator(basis, exponents[0]),
        op_B=sp.FractionalOperator(basis, exponents[1]),
        spec=pot.make_potential("obstacle", c2=1.0), yosida_lambda=1e-3, tau=tau, h=h,
        steps=1)
    shift = data.draw(hs.floats(-config.spec.lipschitz_pi, 1.0 / config.yosida_lambda))
    assert_step_operator_closed_forms(st._Workspace(config), shift)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(kind=hs.sampled_from(("neumann", "dirichlet")),
       points=GRIDS,
       exponent=hs.floats(0.1, 1.0), data=hs.data())
def test_cached_newton_direction_matches_a_fresh_workspace(kind, points, exponent, data):
    # two-valued slopes like the obstacle's pi' + {0, 1/lam}, drawn from a few
    # contact sets, floors and gaps, so that whole cache keys repeat in the
    # sequence; with more than half of the nodes in contact a call takes the
    # dense branch or the branch along the modes in between.  New factors give
    # the fresh direction bit for bit; reused ones apply the inverse of the
    # capacitance matrix and are held to the dense oracle
    config = direction_config(kind, points, exponent, data)
    ws = st._Workspace(config)
    contact = data.draw(hs.lists(hs.lists(hs.booleans(), min_size=points, max_size=points),
                                 min_size=1, max_size=3))
    calls = data.draw(hs.lists(hs.tuples(hs.integers(0, len(contact) - 1),
                                         hs.sampled_from((-2.0, -1.5)),
                                         hs.sampled_from((1e2, 1e3))),
                               min_size=2, max_size=8))
    rng = np.random.default_rng(points)
    k = dense_step_operator(config)
    for index, floor, gap in calls:
        slope = np.where(contact[index], floor + gap, floor)
        g = rng.normal(size=points)
        hit = ws.active is not None and np.array_equal(ws.active[0], slope)
        delta = ws.direction(slope, g)
        if hit:
            expected = np.linalg.solve(k + np.diag(slope), -g)
            assert np.abs(delta - expected).max() <= 1e-10 * np.abs(expected).max()
        else:
            assert np.array_equal(delta, st._Workspace(config).direction(slope, g))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(kind=hs.sampled_from(("neumann", "dirichlet")), points=hs.integers(5, 65),
       exponents=hs.tuples(hs.floats(0.1, 1.0), hs.floats(0.1, 1.0)),
       tau=hs.floats(0.0, 1.0), h=hs.floats(1e-3, 0.05), seed=hs.integers(0, 2**32 - 1))
# the ends of every range
@example(kind="dirichlet", points=5, exponents=(1.0, 0.1), tau=0.0, h=1e-3, seed=0)
@example(kind="neumann", points=65, exponents=(0.1, 1.0), tau=1.0, h=0.05, seed=2**32 - 1)
def test_mode_newton_direction_matches_dense_solve(kind, points, exponents, tau, h, seed):
    # both operators on one basis of about half as many modes as nodes, and
    # continuous slopes in [-Lip(pi), 1/lam] like a smooth well's: the
    # direction solves one system along the modes
    basis = sp.build_interval_basis(kind, min(points // 2, points - 2), 2.0, points)
    config = st.SchemeConfig(
        op_A=sp.FractionalOperator(basis, exponents[0]),
        op_B=sp.FractionalOperator(basis, exponents[1]),
        spec=pot.make_potential("logarithmic", c1=1.5), yosida_lambda=1e-3, tau=tau, h=h,
        steps=1)
    ws = st._Workspace(config)
    assert ws.kappa is not None
    rng = np.random.default_rng(seed)
    slope = rng.uniform(-config.spec.lipschitz_pi, 1.0 / config.yosida_lambda, points)
    g = rng.normal(size=points)
    jac = dense_step_operator(config) + np.diag(slope)
    expected = np.linalg.solve(jac, -g)
    delta = ws.direction(slope, g)
    assert np.abs(delta - expected).max() <= 1e-10 * np.abs(expected).max()
    # the residual of a backward stable solve: round-off of the products in it
    scale = ws.h_norm(np.abs(jac) @ np.abs(delta)) + ws.h_norm(g)
    assert ws.h_norm(jac @ delta + g) <= 16 * EPS * scale
    assert ws.active is None


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kind=hs.sampled_from(("neumann", "dirichlet")), points=hs.integers(5, 33),
       length=hs.floats(0.5, 4.0), rows=hs.integers(2, 40), data=hs.data())
def test_limit_set_witnesses_match_the_dense_gap_matrix(kind, points, length, rows, data):
    basis = sp.build_interval_basis(kind, 3, length, points)
    op = sp.FractionalOperator(basis, 0.5)
    config = st.SchemeConfig(op_A=op, op_B=op, spec=pot.make_potential("regular"),
                             yosida_lambda=1e-2, tau=0.0, h=0.1, steps=rows - 1)
    grid = config.grid
    snapshots = data.draw(hnp.arrays(float, (rows, points), elements=hs.floats(-2.0, 2.0)))
    # repeated rows: gaps of exactly zero, also away from the last snapshot
    for src, dst in data.draw(hs.lists(hs.tuples(hs.integers(0, rows - 1),
                                                 hs.integers(0, rows - 1)), max_size=rows)):
        snapshots[dst] = snapshots[src]
    traj = states_trajectory(config, st.ProblemData(y0=sp.Field(snapshots[0], grid),
                                                    source=st.zero_source(grid)),
                             snapshots, np.zeros_like(snapshots), snapshot_steps=range(rows))
    report = fresh_longtime_report(traj)
    gaps = np.array([sp.row_norms(snapshots - row, grid) for row in snapshots])
    gap_to_last, tail = report["gap_to_last"], report["tail_diameter"]
    assert len(gap_to_last) == len(tail) == len(report["probe_times"]) == rows
    assert np.array_equal(gap_to_last, gaps[-1])
    assert all(tail[i] == gaps[i:, i:].max() for i in range(rows))
    assert np.all(np.diff(tail) <= 0.0) and tail[-1] == 0.0
    assert np.all(tail >= gap_to_last)


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
# 0 and the ends of the bounded domains, +-1, at both ends of the levels
@example(name="logarithmic", s=1.0, t=-1.0, log_lam=-6.0)
@example(name="logarithmic", s=0.0, t=1.0, log_lam=-1.0)
@example(name="obstacle", s=1.0, t=-1.0, log_lam=-6.0)
@example(name="obstacle", s=0.0, t=-1.0, log_lam=-1.0)
@example(name="regular", s=0.0, t=1.0, log_lam=-6.0)
@example(name="example_best", s=-1.0, t=0.0, log_lam=-1.0)
def test_regularization_identities(name, s, t, log_lam):
    spec, lam, err = GRAPHS[name], 10.0 ** log_lam, RESOLVENT_ERROR[name]
    points = np.array([s, t])
    j, beta = spec.resolvent(lam, points), pot.yosida(spec, lam, points)
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


# signed zeros, subnormals, integral values and extreme exponents
SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                  -1e-300, 1e22, float(2**53), 1.0, -3.0)


def float_arrays(finite):
    return hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0,
                                                   max_side=5),
                      elements=hs.floats(allow_nan=not finite, allow_infinity=not finite)
                      | hs.sampled_from(SPECIAL_FLOATS))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(array=hs.booleans().flatmap(float_arrays))
# empty shapes, and non-finite entries that become strings
@example(array=np.zeros((0,)))
@example(array=np.zeros((0, 3)))
@example(array=np.zeros((3, 0)))
@example(array=np.array([[0.5, np.nan], [-np.inf, -0.0]]))
@example(array=np.array([[[1.0, np.inf]], [[2.0, 3.0]]]))
# doubles whose shortest decimal is far shorter than 17 digits, and the specials
@example(array=np.array((0.1, 1.0 / 3.0, 64.0) + SPECIAL_FLOATS))
def test_float_array_json_matches_its_list(array):
    # numpy's floats and Python's give the same text, nested lists the array's
    text = runio.json_text(array)
    assert text == runio.json_text(array.tolist())
    # every finite double reads back as itself, sign of zero included
    if np.isfinite(array).all():
        back = np.array(json.loads(text), dtype=float).reshape(array.shape)
        assert np.array_equal(np.signbit(back), np.signbit(array))
        assert np.array_equal(back, array)


# the fuzzed document: grid 9, 4 steps; each entry lists the values a mutation
# may give that key, valid ones first.  The one huge step count exceeds any
# physical memory, so it is only ever rejected at parse time, never run.
FUZZ_BASE = {
    ("operator_a", "kind"): ("neumann", "dirichlet", "matrix", "spiral"),
    ("operator_a", "modes"): ("6", "1", "2", "9", "17", "0", "-1", "4.5"),
    ("operator_a", "length"): ("4.0", "1e-3", "1e3", "0", "-1"),
    ("operator_a", "grid_points"): ("9", "2", "3", "17", "1", "0", "-5"),
    ("operator_a", "exponent"): ("0.5", "0.1", "1.0", "2.5", "0", "-0.5"),
    ("operator_b", "kind"): ("neumann", "dirichlet", "matrix", "spiral"),
    ("operator_b", "modes"): ("6", "1", "9", "17", "0"),
    ("operator_b", "length"): ("4.0", "2.0", "0"),
    ("operator_b", "grid_points"): ("9", "17", "5", "0"),
    ("operator_b", "exponent"): ("0.5", "1.0", "3.0", "0"),
    # a potential's name comes with the parameters it takes, on the next line
    ("potential", "name"): ("obstacle\nc2 = 1.0", "logarithmic\nc1 = 1.1", "regular",
                            "example_best", "obstacle\nc2 = 5.0", "logarithmic\nc1 = 2.0",
                            "obstacle\nc2 = 0", "obstacle\nc2 = 1e308", "obstacle\nc2 = nan",
                            "logarithmic\nc1 = 0.5", "logarithmic", "regular\nc2 = 1.0",
                            "obstacle\nc1 = 1.1\nc2 = 1.0", "quartic"),
    ("scheme", "tau"): ("0.25", "0", "1", "1.5", "-0.1"),
    ("scheme", "yosida_lambda"): ("1e-3", "1e-8", "10", "0", "-1e-3"),
    ("scheme", "h"): ("0.01", "1e-6", "10", "0", "-1"),
    ("scheme", "steps"): ("4", "0", "1", "5", "-1", "99999999999999999999"),
    ("scheme", "newton_tol"): ("1e-10", "1e-14", "1e-2", "1e-300", "0", "-1"),
    ("scheme", "newton_max"): ("50", "1", "2", "0", "-3"),
    ("data", "y0"): ("cosine 0.1 0.4 0.2", "constant 0", "constant 0.99", "constant 1",
                     "constant 2", "cosine 0.5 0.6", "cosine", "constant", "file absent.txt",
                     "wave 1"),
    ("data", "source"): ("decay 0.5", "zero", "constant", "decay 0", "decay -1", "decay",
                         "tabulated absent.txt", "pulse"),
    ("data", "u_inf"): ("constant 0", "constant 0.5", "cosine 0 0.1", "constant x"),
    ("data", "u_bump"): ("cosine 0 0.05", "constant 0.1", "constant 3", "cosine"),
    ("output", "snapshots"): ("log 9", "log 2", "every 1", "every 7", "log 1", "every 0",
                              "weekly 2", "log"),
    ("run", "seed"): ("42", "0", "-1", "x"),
}
# any key may also get one of these, or be left out
FUZZ_TOKENS = ("", "nan", "inf", "-inf", "1e308", "-1e308", "1e-308", "5e-324", "abc",
               "1 2", "0x10")


def fuzz_document(changes):
    """The fuzzed document with ``changes`` to its (section, key) values; None drops a key."""
    chosen = {key: values[0] for key, values in FUZZ_BASE.items()}
    chosen.update(changes)
    sections = {}
    for (section, key), value in chosen.items():
        lines = sections.setdefault(section, [])
        if value is not None:
            lines.append(f"{key} = {value}")
    return "\n".join(f"[{section}]\n" + "\n".join(lines) + "\n"
                     for section, lines in sections.items())


@hs.composite
def fuzzed_documents(draw):
    keys = draw(hs.lists(hs.sampled_from(sorted(FUZZ_BASE)), max_size=4, unique=True))
    return fuzz_document({key: draw(hs.sampled_from(FUZZ_BASE[key])
                                    | hs.sampled_from(FUZZ_TOKENS + (None,)))
                          for key in keys})


def run_cli(argv):
    """Exit code, stdout, stderr and warnings of one ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def assert_runs_or_exits_with_one_json_line(document, files=()):
    """Hold ``simulate`` and then ``longtime-report`` of ``document`` to the input
    contract: exit 0, or exit 2/3/4 with exactly one JSON line on stderr; never
    a traceback and never warning text.  ``files`` are (name, text) pairs
    written beside the document."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in (("run.ini", document), *files):
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        config, rundir = os.path.join(tmp, "run.ini"), os.path.join(tmp, "out")
        for argv in (["simulate", config, "--out", rundir], ["longtime-report", rundir]):
            code, out, err, caught = run_cli(argv)
            assert caught == []
            assert code in (0, 2, 3, 4)
            if code == 0:
                assert err == ""
                continue
            (line,) = err.splitlines()
            assert json.loads(line)["exit_code"] == code
            break


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(document=fuzzed_documents())
# scales at the ends of double precision: numpy warnings, and a Python
# OverflowError in the quartic well's closed-form resolvent
@example(document=fuzz_document({("scheme", "h"): "5e-324"}))
@example(document=fuzz_document({("operator_b", "length"): "1e308"}))
@example(document=fuzz_document({("operator_a", "exponent"): "1e308"}))
@example(document=fuzz_document({("potential", "name"): "regular",
                                 ("scheme", "yosida_lambda"): "1e-308"}))
def test_every_fuzzed_document_runs_or_exits_with_one_json_line(document):
    assert_runs_or_exits_with_one_json_line(document)


# both operators of the fuzzed document read one matrix file: the graph
# Laplacian of a path of n nodes, with up to two of its tokens replaced
# (the same off-diagonal pair, so that some symmetric mutants reach the
# eigensolver and the run) or dropped
MATRIX_DOCUMENT = fuzz_document({(section, "kind"): "matrix\nmatrix_file = matrix.txt"
                                 for section in ("operator_a", "operator_b")})
MATRIX_TOKENS = ("0", "-1", "2", "3", "4.5", "-2", "1e-308", "-1e308")


@hs.composite
def matrix_files(draw):
    n = draw(hs.sampled_from((3, 1, 2, 5)))
    laplacian = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    laplacian[0, 0] = laplacian[-1, -1] = 1.0 if n > 1 else 0.0
    tokens = [str(n)] + [format(v, "g") for v in laplacian.ravel()]
    for _ in range(draw(hs.integers(0, 2))):
        value = draw(hs.sampled_from(MATRIX_TOKENS + FUZZ_TOKENS + (None,)))
        i = draw(hs.integers(0, len(tokens) - 1))
        mirror = 1 + (i - 1) % n * n + (i - 1) // n if i else 0
        for k in sorted({i, mirror} & set(range(len(tokens))), reverse=True):
            if value is None:
                del tokens[k]
            else:
                tokens[k] = value
    return " ".join(tokens)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(matrix=matrix_files())
# each of these once ended in a traceback or a run with residual nan
@example(matrix="0")
@example(matrix="-1 5")
@example(matrix="2 1 nan nan 1")
@example(matrix="3 2 -1 0 -1 nan -1 0 -1 2")
def test_every_fuzzed_matrix_file_runs_or_exits_with_one_json_line(matrix):
    assert_runs_or_exits_with_one_json_line(MATRIX_DOCUMENT, [("matrix.txt", matrix)])


# the flags of the analysis commands: valid values first, then ones outside
# their ranges; the base arguments keep every run small
FLAG_VALUES = {
    "check-potentials": {
        "--lambdas": ("0.1", "0.5", "1e-3", "0", "-0.1"),
        "--range": ("5.0", "2", "1e308", "0", "-1"),
        "--grid": ("1000", "1500", "999", "0"),
        "--samples": ("1", "2", "0", "-3"),
        "--seed": ("0", "7", "-1"),
    },
    "example-best": {
        "--mu": ("const 0", "sin", "sin 0.5 2", "const 1.5", "const x", "wave"),
        "--modes": ("4", "1", "9", "10", "0", "-2"),
        "--grid-points": ("9", "2", "5", "1", "0"),
        "--length": ("1.0", "2.5", "1e-300", "1e-308", "1e308", "0", "-1"),
        "--exponent": ("1.0", "0.5", "1e308", "0", "-1"),
        "--horizon": ("1.0", "3", "1e308", "0", "-1"),
        "--samples": ("3", "1", "0", "-3"),
        "--tol": ("1e-12", "0", "1", "-1"),
    },
    "sweep": {"--levels": ("1", "2", "0", "-1", "99999999999999999999")},
}
FLAG_BASE = {
    "check-potentials": {"--lambdas": "0.1", "--grid": "1000", "--samples": "1"},
    "example-best": {"--modes": "4", "--grid-points": "9", "--horizon": "1.0",
                     "--samples": "3"},
    "sweep": {"--levels": "1"},
}


def flag_argv(command, changes, config):
    """The command's argv from its base flags with ``changes``; ``--flag=value``
    keeps a value such as ``-inf`` from reading as a flag."""
    flags = dict(FLAG_BASE[command], **changes)
    positional = [config] if command == "sweep" else []
    return [command, *positional, *(f"{flag}={value}" for flag, value in flags.items())]


@hs.composite
def flag_changes(draw):
    command = draw(hs.sampled_from(sorted(FLAG_VALUES)))
    values = FLAG_VALUES[command]
    flags = draw(hs.lists(hs.sampled_from(sorted(values)), min_size=1, max_size=3,
                          unique=True))
    return command, {flag: draw(hs.sampled_from(values[flag]) | hs.sampled_from(FUZZ_TOKENS))
                     for flag in flags}


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=flag_changes())
# each of these once ended in a traceback, a silent wrong run or exit 3
@example(case=("example-best", {"--samples": "0"}))
@example(case=("check-potentials", {"--samples": "-3"}))
@example(case=("example-best", {"--horizon": "nan"}))
@example(case=("example-best", {"--tol": "-1"}))
# every profile but "const 0" fails: exit 3, which once printed no JSON line
@example(case=("example-best", {"--tol": "0"}))
@example(case=("example-best", {"--horizon": "-1"}))
@example(case=("example-best", {"--length": "1e-308"}))
@example(case=("sweep", {"--levels": "0"}))
@example(case=("sweep", {"--levels": "-1"}))
def test_every_fuzzed_flag_runs_or_exits_with_one_json_line(case):
    command, changes = case
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "run.ini")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(fuzz_document({}))
        code, out, err, caught = run_cli(flag_argv(command, changes, config))
    assert caught == []
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert err == ""
    else:
        (line,) = err.splitlines()
        assert json.loads(line)["exit_code"] == code
