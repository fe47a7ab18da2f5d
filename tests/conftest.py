"""Shared fixtures: bases, potentials, and the reference runs reused across tests.

The three long runs (obstacle, positive-branch, zero-branch) are session
scoped because several test modules and the acceptance gate all analyze
the same trajectories.
"""

import collections
import contextlib
import dataclasses

import numpy as np
import pytest
from hypothesis.internal.conjecture import providers

from fracch import longtime as lt
from fracch import potentials as pot
from fracch import spectral as sp
from fracch import stepper as st


@pytest.fixture(scope="session", autouse=True)
def no_mined_constants():
    """Derandomized draws that depend on the test alone.

    Hypothesis mixes literals it mines from the package and test sources
    into its draws (``providers._get_local_constants``, no public switch),
    so any edit would draw other examples for every derandomized test.  The
    pool is emptied for the session; the literals that matter are explicit
    ``@example`` cases instead.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(providers, "_get_local_constants", providers.Constants)
        providers.CONSTANTS_CACHE.cache.clear()
        yield
    providers.CONSTANTS_CACHE.cache.clear()


def zero_potential():
    """Trivial split with no graph part and no perturbation.

    Does not satisfy the quadratic coercivity hypothesis; it exists so that
    linear closed-form solutions of the scheme can be checked, and it takes
    the generic bisection path of custom graphs.
    """
    zeros = lambda s: np.zeros_like(np.asarray(s, dtype=float))
    return pot.custom_potential(beta_hat=zeros, beta=lambda y: (zeros(y), zeros(y)),
                                pi_hat=zeros, pi=zeros, pi_prime=zeros,
                                lipschitz_pi=0.0, smooth_graph=True)


def cosine_field(grid, coeffs):
    values = np.zeros(grid.size)
    for k, c in enumerate(coeffs):
        values += c * np.cos(np.pi * k * grid.x / grid.length)
    return sp.Field(values, grid)


@pytest.fixture(scope="session")
def neumann16():
    return sp.build_interval_basis("neumann", 16, 4.0, 33)


def readme_problem(steps, modes=64, points=129, length=4.0):
    """The physics of the README example over ``steps`` steps: the obstacle
    well on 64 shared zero-flux modes of 129 nodes on an interval of length 4
    (or as given), with a decaying source."""
    basis = sp.build_interval_basis("neumann", modes, length, points)
    op = sp.FractionalOperator(basis, 0.5)
    config = st.SchemeConfig(
        op_A=op, op_B=op, spec=pot.make_potential("obstacle", c2=1.0),
        yosida_lambda=1e-3, tau=0.25, h=0.01, steps=steps,
    )
    grid = config.grid
    y0 = cosine_field(grid, [0.1, 0.4, 0.2])
    bump = cosine_field(grid, [0.0, 0.05])
    data = st.ProblemData(y0=y0, source=st.DecaySource(
        sp.constant_field(0.0, grid), bump, 0.5))
    return config, data


@pytest.fixture(scope="session")
def obstacle_run():
    """64-mode zero-eigenvalue obstacle run, horizon 40 = 4 x 10 time units.

    The first 1000 steps are the 10^3-step reference run; the 2000- and
    4000-step prefixes provide the doubled horizons.
    """
    return st.run(*readme_problem(4000))


@pytest.fixture(scope="session")
def readme_long_run():
    """6000 steps of the README physics, as :func:`recorded_run` records them,
    and the carries at each boundary between two blocks of steps.

    Returns the config, the (N+1, m) rows of ``y`` and ``mu``, and a dict
    mapping each step ``n > 0`` that starts a block to the pair of carries
    there: the one the step before returned and the one step ``n`` took.
    """
    config, data = readme_problem(6000)
    advance, returned, boundaries = st._advance, {}, {}
    steps = iter(range(config.steps))

    def at_boundaries(ws, y, mu, u, carry):
        n = next(steps)
        if n and n % st._SOURCE_BLOCK == 0:
            boundaries[n] = (returned.pop(n), carry)
        out = advance(ws, y, mu, u, carry)
        if (n + 1) % st._SOURCE_BLOCK == 0:
            returned[n + 1] = out[2]
        return out

    st._advance = at_boundaries
    try:
        _, ys, mus = recorded_run(config, data)
    finally:
        st._advance = advance
    return config, ys, mus, boundaries


@pytest.fixture(scope="session")
def branch_i_run():
    """Positive-first-eigenvalue run: both operators zero-boundary, quartic well,
    no source, random initial state, horizon 100."""
    basis = sp.build_interval_basis("dirichlet", 32, 2.0, 65)
    op_a = sp.FractionalOperator(basis, 0.25)
    op_b = sp.FractionalOperator(basis, 0.05)
    config = st.SchemeConfig(
        op_A=op_a, op_B=op_b, spec=pot.make_potential("regular"),
        yosida_lambda=1e-6, tau=0.0, h=0.05, steps=2000,
    )
    rng = np.random.default_rng(7)
    coeffs = np.zeros(32)
    coeffs[:8] = rng.normal(size=8) * 0.5 / np.arange(1, 9) ** 2
    y0 = sp.Field(basis.modes @ coeffs, basis.grid)
    data = st.ProblemData(y0=y0, source=st.zero_source(config.grid))
    return st.run(config, data)


@pytest.fixture(scope="session")
def branch_ii_run():
    """Zero-eigenvalue run with the logarithmic well, mean 0.2, horizon 40."""
    basis = sp.build_interval_basis("neumann", 32, 4.0, 65)
    op = sp.FractionalOperator(basis, 0.5)
    config = st.SchemeConfig(
        op_A=op, op_B=op, spec=pot.make_potential("logarithmic", c1=1.1),
        yosida_lambda=1e-4, tau=0.5, h=0.02, steps=2000,
    )
    grid = config.grid
    y0 = cosine_field(grid, [0.2, 0.25, 0.0, 0.1])
    data = st.ProblemData(y0=y0, source=st.zero_source(grid))
    return st.run(config, data)


@pytest.fixture(scope="session")
def small_obstacle_recorded():
    """Quick 16-mode obstacle run with a decaying source (unit-test sized), and
    its recorded states: ``(trajectory, y, mu)`` as :func:`recorded_run` gives them."""
    basis = sp.build_interval_basis("neumann", 16, 4.0, 33)
    op = sp.FractionalOperator(basis, 0.5)
    config = st.SchemeConfig(
        op_A=op, op_B=op, spec=pot.make_potential("obstacle", c2=1.0),
        yosida_lambda=1e-3, tau=0.25, h=0.01, steps=300,
    )
    grid = config.grid
    y0 = cosine_field(grid, [0.1, 0.4, 0.2])
    bump = cosine_field(grid, [0.0, 0.05])
    data = st.ProblemData(y0=y0, source=st.DecaySource(
        sp.constant_field(0.0, grid), bump, 0.5))
    return recorded_run(config, data)


@pytest.fixture(scope="session")
def small_obstacle_run(small_obstacle_recorded):
    return small_obstacle_recorded[0]


@pytest.fixture(scope="session")
def small_dirichlet_run():
    """Quick positive-branch run with a decaying source."""
    basis = sp.build_interval_basis("dirichlet", 16, 2.0, 33)
    op_a = sp.FractionalOperator(basis, 0.5)
    op_b = sp.FractionalOperator(basis, 0.25)
    config = st.SchemeConfig(
        op_A=op_a, op_B=op_b, spec=pot.make_potential("regular"),
        yosida_lambda=1e-4, tau=0.5, h=0.02, steps=400,
    )
    grid = config.grid
    rng = np.random.default_rng(3)
    coeffs = np.zeros(16)
    coeffs[:6] = rng.normal(size=6) * 0.3 / np.arange(1, 7)
    y0 = sp.Field(basis.modes @ coeffs, basis.grid)
    bump = sp.Field(basis.modes @ (np.eye(16)[1] * 0.1), basis.grid)
    data = st.ProblemData(y0=y0, source=st.DecaySource(
        sp.constant_field(0.0, grid), bump, 1.0))
    return st.run(config, data)


def smooth_benchmark(h, steps, lam):
    """Small smooth problem used by the refinement ladders."""
    basis = sp.build_interval_basis("neumann", 16, 2.0, 33)
    op = sp.FractionalOperator(basis, 0.5)
    config = st.SchemeConfig(
        op_A=op, op_B=op, spec=pot.make_potential("regular"),
        yosida_lambda=lam, tau=0.5, h=h, steps=steps,
    )
    grid = config.grid
    y0 = cosine_field(grid, [0.1, 0.3, 0.0, 0.1])
    bump = cosine_field(grid, [0.0, 0.2])
    data = st.ProblemData(y0=y0, source=st.DecaySource(
        sp.constant_field(0.0, grid), bump, 1.0))
    return st.run(config, data)


def final_y(traj):
    """The last state of a run, which its default snapshots keep."""
    return traj.snapshot(traj.steps)[0]


def recorded_run(config, data, snapshot_steps=None):
    """``stepper.run`` and every state it stepped through.

    A run keeps only its snapshot rows; this records the rows its step
    routine returned, as the run took them, and returns the trajectory and
    the (N+1, m) arrays of ``y`` and ``mu``.
    """
    ys, mus = [data.y0.values], [np.zeros(config.grid.size)]
    advance = st._advance

    def recording(*args):
        out = advance(*args)
        ys.append(out[0])
        mus.append(out[1])
        return out

    st._advance = recording
    try:
        traj = st.run(config, data, snapshot_steps)
    finally:
        st._advance = advance
    return traj, np.array(ys), np.array(mus)


def states_trajectory(config, data, y, mu, snapshot_steps=None):
    """The trajectory of the (N+1, m) states ``y`` and ``mu``, reduced in one
    pass as ``run`` reduces each block of its steps, under ``config`` with N
    steps and with zero Newton numbers."""
    steps = len(y) - 1
    config = dataclasses.replace(config, steps=steps)
    recorder = st._Recorder(config, data, (0, steps) if snapshot_steps is None else snapshot_steps)
    recorder.add(y, mu, data.source.values(config.h * np.arange(1, steps + 1)))
    recorder.stats.fill(0)
    return recorder.trajectory()


def assert_first_equation(config, y, mu):
    """The first equation of the scheme, ``(y^(k+1) - y^k)/h + mu^(k+1) +
    A2r mu^(k+1) = mu^k``, on the (N+1, m) rows ``y`` and ``mu`` of a run.

    A step eliminates ``mu^(k+1)`` through ``(I + A2r)^(-1)``, so the
    equation holds to round-off of its largest summand, with ``A2r
    mu^(k+1)`` sized as ``lam_max^2r |mu^(k+1)|``: a bare ``newton_tol``
    is too tight once ``lam_max^2r`` reaches about 1e6.
    """
    grid, h = config.grid, config.h
    rate = np.diff(y, axis=0) / h
    defect = sp.row_norms(rate + mu[1:] + sp.power_rows(config.op_A, mu[1:], 2.0) - mu[:-1],
                          grid)
    norm_next = sp.row_norms(mu[1:], grid)
    largest = np.max([sp.row_norms(rate, grid), norm_next, sp.row_norms(mu[:-1], grid),
                      config.op_A.power_weights(2.0).max() * norm_next], axis=0)
    assert np.all(defect <= 1e-12 * largest), (defect / largest).max()


def cold_chain(config, data):
    """``solve_step`` chained from ``(y0, 0)``, each step started at ``d = 0``.

    The oracle of the warm start in ``stepper.run``: returns the (N+1, m)
    arrays of ``y`` and ``mu`` and the record array of the per-step stats.
    """
    y, mu = data.y0, sp.constant_field(0.0, config.grid)
    ys, mus, stats = [y.values], [mu.values], np.recarray(config.steps, st.STEP_STATS)
    for n in range(config.steps):
        y, mu, stats[n] = st.solve_step(y, mu, data.source.at((n + 1) * config.h), config)
        ys.append(y.values)
        mus.append(mu.values)
    return np.array(ys), np.array(mus), stats


def assert_matches_cold_chain(config, data):
    """The warm-started run of ``config`` and ``data`` against
    :func:`cold_chain`; returns both Newton iteration totals, warm first.

    Both solve every step's nodal equation to its accepted residual, at most
    ``tol`` (``newton_tol`` or, above it, the round-off floor).  The equation
    is strongly monotone with constant at least 1 (``K`` carries ``L =
    Lip(pi) + 1`` and the slope is at least ``-Lip(pi)``), so two such
    increments differ by at most ``2 tol`` per step; ``steps * tol`` bounds the
    states with room for the spread through later steps, and ``mu``, which
    takes ``d / h``, is bounded by that over ``h``.  Step 0 starts at
    ``d = 0`` either way, so its stats and state are the cold ones bit for bit.
    """
    traj, warm_y, warm_mu = recorded_run(config, data)
    y, mu, stats = cold_chain(config, data)
    assert traj.solver_stats[0] == stats[0]
    assert np.array_equal(warm_y[:2], y[:2]) and np.array_equal(warm_mu[:2], mu[:2])
    tol = max(config.newton_tol, *stats.residual_potential, *traj.solver_stats.residual_potential)
    bound = config.steps * tol
    assert sp.row_norms(warm_y - y, config.grid).max() <= bound
    assert sp.row_norms(warm_mu - mu, config.grid).max() <= bound / config.h
    return traj.solver_stats.iterations.sum(), stats.iterations.sum()


def fresh_longtime_report(traj, **kwargs):
    """The report.json payload of an in-memory run, from its snapshots."""
    return lt.longtime_report(traj.config, traj.data, traj.y_snapshots, traj.snapshot_steps,
                              lt.trajectory_columns(traj), traj.y_range, **kwargs)


def dense_step_operator(config):
    """The step operator ``K`` of ``config`` as a dense matrix: the operator
    applied to the unit vectors, with ``power_rows`` for ``B2s`` and the
    columns of ``(I + A2r)^(-1)`` from their coefficients, the identity off
    the span and ``1 / (1 + lambda^2r)`` on it.  It is the oracle of every
    test of ``K``, of its shifted inverse and of the Newton directions."""
    eye = np.eye(config.grid.size)
    basis, weights = config.op_A.basis, config.op_A.power_weights(2.0)
    shifted = eye - (basis.coefficients(eye) * weights / (1.0 + weights)) @ basis.modes.T
    k = (sp.power_rows(config.op_B, eye, 2.0) + shifted / config.h).T
    k += (config.tau / config.h + config.spec.stability_shift) * eye
    return k


def assert_dense_direction(ws, slope, g):
    """The workspace's Newton direction, held to the dense solve of ``K +
    diag(slope)`` to 1e-10 relative."""
    k = dense_step_operator(ws.config)
    expected = np.linalg.solve(k + np.diag(slope), -g)
    delta = ws.direction(slope, g)
    assert np.abs(delta - expected).max() <= 1e-10 * np.abs(expected).max()
    return delta


@contextlib.contextmanager
def counted_factor_work():
    """Counts of the node branch's work while the block runs: ``builds`` of
    its factors, ``updates`` of kept ones (a hit is neither), ``chain``, the
    updates since the last build, and ``longest``, the longest such chain."""
    counts = collections.Counter()
    init, update = st._NodeFactors.__init__, st._NodeFactors.update

    def counted_init(factors, *args):
        init(factors, *args)
        counts["builds"] += 1
        counts["chain"] = 0

    def counted_update(factors, *args):
        done = update(factors, *args)
        if done:
            counts["updates"] += 1
            counts["chain"] += 1
            counts["longest"] = max(counts["longest"], counts["chain"])
        return done

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(st._NodeFactors, "__init__", counted_init)
        patch.setattr(st._NodeFactors, "update", counted_update)
        yield counts


def assert_step_operator_closed_forms(ws, shift):
    """``K`` and ``G = (K + shift I)^(-1)`` of a workspace against their dense
    oracles.

    The oracle of ``K`` is :func:`dense_step_operator`, compared with what
    the workspace's ``apply`` makes of the unit vectors; ``|K| |d|`` bounds
    from below, to the round-off of either side, the ``apply_bound`` that
    sizes the round-off floor, for each unit vector and for a random ``d``,
    at every node.  The oracle of ``G`` is the dense
    inverse of that ``K`` plus the shift.  The closed form of ``G`` holds
    for orthonormal columns ``ws.modes``; their Gram defect and the
    oracle's own round-off each move ``G`` by about the condition number
    times that defect or the machine epsilon, so the bound on ``G`` is
    1e-12 relative or 16 times that, whichever is larger.  ``G`` is read off the
    directions whose slope is the shift at every node, ``-G g`` for each
    unit vector ``g``: the first of them forms ``G`` as a run does.
    """
    config = ws.config
    eye = np.eye(config.grid.size)
    k = dense_step_operator(config)
    assert np.abs(np.array([ws.apply(e)[0] for e in eye]).T - k).max() <= 1e-13 * np.abs(k).max()
    for d in (*eye, np.random.default_rng(0).standard_normal(config.grid.size)):
        assert np.all(ws.apply_bound(d) >= (1.0 - 1e-12) * (np.abs(k) @ np.abs(d)))
    shifted = k + shift * eye
    expected = np.linalg.inv(shifted)
    slope = np.full(config.grid.size, shift)
    inverse = -np.array([ws.direction(slope, e) for e in eye]).T
    assert np.array_equal(ws.active.slope, slope)   # one node-branch build, then hits
    gram = (ws.modes * ws.w[:, None]).T @ ws.modes
    defect = np.abs(gram - np.eye(len(gram))).max() + np.finfo(float).eps
    tol = max(1e-12, 16 * defect * np.linalg.cond(shifted))
    assert np.abs(inverse - expected).max() <= tol * np.abs(expected).max()
