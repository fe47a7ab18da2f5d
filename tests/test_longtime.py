"""Limit-point probes, stationarity residuals and the nonuniqueness construction."""

import math

import numpy as np
import pytest

from fracch import longtime as lt
from fracch import potentials as pot
from fracch import spectral as sp
from fracch import stepper as st
from fracch.errors import BranchError, DomainError, InsufficientDataError

from conftest import fresh_longtime_report, states_trajectory, zero_potential


def synthetic_trajectory(config, ys, mus, snapshot_steps=None):
    data = st.ProblemData(y0=ys[0], source=st.zero_source(config.grid))
    return states_trajectory(config, data, np.array([f.values for f in ys]),
                             np.array([f.values for f in mus]), snapshot_steps=snapshot_steps)


def with_snapshots(traj, steps):
    """The run of ``traj`` again, keeping the states at ``steps``."""
    return st.run(traj.config, traj.data, steps)


def neumann_config(spec, steps=4, h=0.1):
    basis = sp.build_interval_basis("neumann", 8, 2.0, 17)
    op = sp.FractionalOperator(basis, 0.5)
    return st.SchemeConfig(op_A=op, op_B=op, spec=spec, yosida_lambda=1e-2,
                           tau=0.0, h=h, steps=steps)


class TestPotentialTail:
    """The potential over the trailing window: per-step columns and the report."""

    def test_zero_run(self):
        config = neumann_config(zero_potential())
        zero = sp.constant_field(0.0, config.grid)
        traj = synthetic_trajectory(config, [zero] * 5, [zero] * 5)
        estimate = fresh_longtime_report(traj)["mu_infinity"]
        assert np.all(estimate["series"] == 0.0)
        assert estimate["spread"] == estimate["flatness_max"] == 0.0

    def test_positive_branch_tail_decays(self, small_dirichlet_run):
        traj = small_dirichlet_run
        half = traj.steps // 2
        norm_mu = lt.trajectory_columns(traj)["norm_mu"]
        assert norm_mu[half:].max() < norm_mu[:half + 1].max()

    def test_obstacle_tail_integral_small(self, small_obstacle_run):
        traj = small_obstacle_run
        ar_mu_sq = lt.trajectory_columns(traj)["norm_Ar_mu"] ** 2
        # the integral of |A^r mu|^2 over the last quarter against the whole run
        assert ar_mu_sq[math.ceil(0.75 * traj.steps):].sum() <= 0.05 * ar_mu_sq[1:].sum()

    def test_spatially_constant_potential(self):
        config = neumann_config(zero_potential())
        grid = config.grid
        zero = sp.constant_field(0.0, grid)
        g = [0.3, 0.2, 0.15, 0.12, 0.1]
        mus = [sp.constant_field(v, grid) for v in g]
        traj = synthetic_trajectory(config, [zero] * 5, mus)
        estimate = fresh_longtime_report(traj)["mu_infinity"]
        assert np.allclose(estimate["series"], g[2:], atol=1e-14)
        # the fields are flat to round-off ...
        means = np.asarray(estimate["series"])
        rows = np.array([mu.values for mu in mus])
        assert sp.row_norms(rows[2:] - means[:, None], grid).max() <= 1e-12
        # ... and the column formula resolves that to about sqrt(eps) |mu|
        resolution = 2.0 * np.sqrt(np.finfo(float).eps) * sp.row_norms(rows, grid).max()
        assert estimate["flatness_max"] <= resolution

    def test_obstacle_run_flattens(self, small_obstacle_run):
        def flatness(window):
            report = fresh_longtime_report(small_obstacle_run, window_fraction=window)
            return report["mu_infinity"]["flatness_max"]

        assert flatness(0.25) < flatness(0.999)


class TestStationarityResidual:
    def test_trivial_zero_state(self):
        config = neumann_config(zero_potential())
        grid = config.grid
        zero = sp.constant_field(0.0, grid)
        assert lt.stationarity_residual(zero, 0.0, zero, config.spec, config.op_B) == 0.0

    def test_constant_state_interior_selection(self):
        # constant states are annihilated by the operator power; the interior
        # selection is zero, so mu_inf must balance the perturbation exactly
        c2 = 1.3
        spec = pot.make_potential("obstacle", c2=c2)
        config = neumann_config(spec)
        grid = config.grid
        m0 = 0.4
        y = sp.constant_field(m0, grid)
        u_inf = sp.constant_field(0.0, grid)
        mu_inf = -2.0 * c2 * m0
        assert lt.stationarity_residual(y, mu_inf, u_inf, spec, config.op_B) <= 1e-12
        # a wrong constant leaves exactly the constant mismatch
        wrong = lt.stationarity_residual(y, mu_inf + 0.1, u_inf, spec, config.op_B)
        assert wrong == pytest.approx(0.1 * np.sqrt(grid.length), rel=1e-10)

    def test_obstacle_complementarity_signs(self):
        spec = pot.make_potential("obstacle", c2=1.0)
        config = neumann_config(spec)
        grid = config.grid
        u_inf = sp.constant_field(0.0, grid)
        contact = sp.constant_field(1.0, grid)
        # xi = mu_inf - pi(1) = mu_inf + 2; upper contact needs xi >= 0
        ok = lt.stationarity_residual(contact, -1.0, u_inf, spec, config.op_B)
        assert ok == 0.0
        bad = lt.stationarity_residual(contact, -3.0, u_inf, spec, config.op_B)
        assert bad == pytest.approx(1.0 * np.sqrt(grid.length), rel=1e-10)

    def test_overshoot_clamping(self):
        spec = pot.make_potential("obstacle", c2=1.0)
        config = neumann_config(spec)
        grid = config.grid
        u_inf = sp.constant_field(0.0, grid)
        over = sp.constant_field(1.0 + 1e-6, grid)
        value = lt.stationarity_residual(over, -1.0, u_inf, spec, config.op_B,
                                         overshoot_tol=1e-5)
        assert value <= 1e-10
        with pytest.raises(DomainError):
            lt.stationarity_residual(over, -1.0, u_inf, spec, config.op_B,
                                     overshoot_tol=1e-8)

    def test_open_boundary_contact_is_infinite(self):
        spec = pot.make_potential("logarithmic", c1=2.0)
        config = neumann_config(spec)
        grid = config.grid
        u_inf = sp.constant_field(0.0, grid)
        boundary = sp.constant_field(1.0, grid)
        assert lt.stationarity_residual(boundary, 0.0, u_inf, spec, config.op_B) == np.inf


class TestVariationalInequality:
    def test_exact_constant_state_satisfies_inequality(self):
        c2 = 1.0
        spec = pot.make_potential("obstacle", c2=c2)
        config = neumann_config(spec)
        grid = config.grid
        m0 = 0.4
        y = sp.constant_field(m0, grid)
        u_inf = sp.constant_field(0.0, grid)
        violation = lt.variational_inequality_check(
            y, -2.0 * c2 * m0, u_inf, spec, config.op_B)
        assert violation <= 1e-10

    def test_wrong_multiplier_violates(self):
        c2 = 1.0
        spec = pot.make_potential("obstacle", c2=c2)
        config = neumann_config(spec)
        grid = config.grid
        y = sp.constant_field(0.4, grid)
        u_inf = sp.constant_field(0.0, grid)
        violation = lt.variational_inequality_check(y, 2.0, u_inf, spec, config.op_B)
        assert violation > 0.1

    def test_obstacle_run_final_state(self, small_obstacle_run):
        traj = small_obstacle_run
        report = fresh_longtime_report(traj, window_fraction=0.25)
        # regularization overshoot and remaining transients leave a small
        # inequality defect proportional to the residual scale
        assert report["variational_inequality_violation"] <= 0.05 * report["residual_scale"]


class TestOmegaProbe:
    """The limit-point witnesses of :func:`longtime.longtime_report`."""

    def test_stationary_data_zero_gaps(self):
        spec = pot.make_potential("obstacle", c2=1.0)
        config = neumann_config(spec, steps=4)
        grid = config.grid
        m0 = 0.2
        y = sp.constant_field(m0, grid)
        mu = sp.constant_field(-2.0 * m0, grid)
        traj = synthetic_trajectory(config, [y] * 5, [mu] * 5, [0, 2, 4])
        report = fresh_longtime_report(traj)
        assert np.array_equal(report["gap_to_last"], np.zeros(3))
        assert np.array_equal(report["tail_diameter"], np.zeros(3))
        assert report["stationarity_residual"] <= 1e-10
        assert report["branch"] == "lambda1_zero"

    def test_positive_branch_report(self, small_dirichlet_run):
        n = small_dirichlet_run.steps
        traj = with_snapshots(small_dirichlet_run, [n // 4, n // 2, n])
        report = fresh_longtime_report(traj)
        assert report["branch"] == "lambda1_positive"
        assert report["mu_infinity"] is None
        assert report["mu_infinity_value"] == 0.0
        # the dense matrix of all snapshot gaps is the oracle of both series
        gaps = np.array([sp.row_norms(traj.y_snapshots - row, traj.config.grid)
                         for row in traj.y_snapshots])
        gap_to_last, tail = report["gap_to_last"], report["tail_diameter"]
        assert np.array_equal(gap_to_last, gaps[-1])
        assert gap_to_last[0] >= gap_to_last[1] > 0.0  # later states closer together
        assert [tail[i] for i in range(3)] == [gaps[i:, i:].max() for i in range(3)]
        assert tail[0] >= tail[1] > tail[2] == 0.0
        assert np.isfinite(report["b_sigma_bound"])

    def test_zero_branch_report(self, small_obstacle_run):
        n = small_obstacle_run.steps
        report = fresh_longtime_report(with_snapshots(small_obstacle_run, [n // 2, n]))
        assert report["branch"] == "lambda1_zero"
        assert report["mu_infinity"] is not None
        assert report["mu_infinity"]["spread"] >= 0.0
        assert report["mass_identity_defect"] <= 1e-10

    def test_insufficient_snapshots(self, small_obstacle_run):
        with pytest.raises(InsufficientDataError):
            fresh_longtime_report(with_snapshots(small_obstacle_run, [100]))


class TestNonuniquenessConstruction:
    @pytest.fixture()
    def op_a(self):
        basis = sp.build_interval_basis("neumann", 16, 1.0, 65)
        return sp.FractionalOperator(basis, 0.5)

    def test_zero_profile(self, op_a):
        report = lt.example_best_check(lambda t: 0.0, np.linspace(0, 10, 11), op_a)
        assert report.max_violation == 0.0

    def test_sine_profile(self, op_a):
        report = lt.example_best_check(np.sin, np.linspace(0, 10, 21), op_a)
        assert report.max_violation <= 1e-12

    def test_two_constants_certify_nonuniqueness(self, op_a):
        times = np.linspace(0, 10, 11)
        plus = lt.example_best_check(lambda t: 1.0, times, op_a)
        minus = lt.example_best_check(lambda t: -1.0, times, op_a)
        assert plus.max_violation <= 1e-12
        assert minus.max_violation <= 1e-12
        # two distinct constants both solve the system exactly
        assert plus.mu_values[0] != minus.mu_values[0]

    def test_inadmissible_profile(self, op_a):
        with pytest.raises(DomainError):
            lt.example_best_check(lambda t: 1.5, [0.0, 1.0], op_a)

    def test_positive_branch_rejected(self):
        basis = sp.build_interval_basis("dirichlet", 8, 1.0, 33)
        op = sp.FractionalOperator(basis, 0.5)
        with pytest.raises(BranchError):
            lt.example_best_check(lambda t: 0.0, [0.0, 1.0], op)


class TestRangeCertificate:
    def test_zero_run_contained(self):
        config = neumann_config(zero_potential())
        zero = sp.constant_field(0.0, config.grid)
        traj = synthetic_trajectory(config, [zero] * 3, [zero] * 3)
        cert = fresh_longtime_report(traj)["range_certificate"]
        assert cert["y_min"] == cert["y_max"] == 0.0
        assert cert["contained"]

    def test_obstacle_overshoot_bounded(self, small_obstacle_run):
        cert = fresh_longtime_report(small_obstacle_run)["range_certificate"]
        assert cert["interval"] == (-1.0, 1.0)
        assert cert["overshoot"] <= 0.05
        assert cert["yosida_lambda"] == small_obstacle_run.config.yosida_lambda

    def test_unbounded_domain_self_certifies(self, small_dirichlet_run):
        cert = fresh_longtime_report(small_dirichlet_run)["range_certificate"]
        assert cert["contained"]
        assert cert["overshoot"] == 0.0

    def test_unique_constant_certification(self, small_obstacle_run, small_dirichlet_run):
        for traj, certified in ((small_obstacle_run, False), (small_dirichlet_run, True)):
            report = fresh_longtime_report(traj)
            assert report["assumptions"]["unique_constant_multiplier_certified"] == certified
