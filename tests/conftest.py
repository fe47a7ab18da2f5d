"""Shared fixtures: bases, potentials, and the reference runs reused across tests.

The three long runs (obstacle, positive-branch, zero-branch) are session
scoped because several test modules and the acceptance gate all analyze
the same trajectories.
"""

import numpy as np
import pytest

from fracch import longtime as lt
from fracch import potentials as pot
from fracch import spectral as sp
from fracch import stepper as st


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


@pytest.fixture(scope="session")
def obstacle_run():
    """64-mode zero-eigenvalue obstacle run, horizon 40 = 4 x 10 time units.

    The first 1000 steps are the 10^3-step reference run; the 2000- and
    4000-step prefixes provide the doubled horizons.
    """
    basis = sp.build_interval_basis("neumann", 64, 4.0, 129)
    op = sp.FractionalOperator(basis, 0.5)
    config = st.SchemeConfig(
        op_A=op, op_B=op, spec=pot.make_potential("obstacle", c2=1.0),
        yosida_lambda=1e-3, tau=0.25, h=0.01, steps=4000,
    )
    grid = config.grid
    y0 = cosine_field(grid, [0.1, 0.4, 0.2])
    bump = cosine_field(grid, [0.0, 0.05])
    data = st.ProblemData(y0=y0, source=st.DecaySource(
        sp.constant_field(0.0, grid), bump, 0.5))
    return st.run(config, data)


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
    y0 = basis.synthesize(coeffs)
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
def small_obstacle_run():
    """Quick 16-mode obstacle run with a decaying source (unit-test sized)."""
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
    return st.run(config, data)


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
    y0 = basis.synthesize(coeffs)
    bump = basis.synthesize(np.eye(16)[1] * 0.1)
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


def fresh_longtime_report(traj, steps, **kwargs):
    """The report.json payload of an in-memory run with snapshots at ``steps``."""
    return lt.longtime_report(traj.config, traj.data, traj.y[steps], steps,
                              lt.trajectory_columns(traj),
                              (float(traj.y.min()), float(traj.y.max())), **kwargs)
