"""Limit-point probes, stationarity residuals and the nonuniqueness construction."""

import numpy as np
import pytest

from fracch import longtime as lt
from fracch import potentials as pot
from fracch import spectral as sp
from fracch import stepper as st
from fracch.errors import BranchError, DomainError, InsufficientDataError

from conftest import fresh_longtime_report


def synthetic_trajectory(config, ys, mus):
    grid = config.grid
    data = st.ProblemData(y0=ys[0], source=st.zero_source(grid))
    stats = [st.StepStats(iterations=0, residual_phase=0.0, residual_potential=0.0)]
    return st.DiscreteTrajectory(y=np.array([f.values for f in ys]),
                                 mu=np.array([f.values for f in mus]), h=config.h,
                                 solver_stats=stats * (len(ys) - 1), config=config,
                                 data=data)


def neumann_config(spec, steps=4, h=0.1):
    basis = sp.build_interval_basis("neumann", 8, 2.0, 17)
    op = sp.FractionalOperator(basis, 0.5)
    return st.SchemeConfig(op_A=op, op_B=op, spec=spec, yosida_lambda=1e-2,
                           tau=0.0, h=h, steps=steps)


class TestMuTailStats:
    def test_zero_run(self):
        config = neumann_config(pot.zero_potential())
        zero = sp.constant_field(0.0, config.grid)
        traj = synthetic_trajectory(config, [zero] * 5, [zero] * 5)
        stats = lt.mu_tail_stats(traj, 0.5)
        assert stats.sup_norm_mu == 0.0
        assert stats.integral_ar_mu_sq == 0.0
        assert np.all(stats.mean_mu_series == 0.0)

    def test_positive_branch_tail_decays(self, small_dirichlet_run):
        traj = small_dirichlet_run
        half = traj.steps // 2
        head = max(sp.norm(traj.mus[k]) for k in range(half + 1))
        stats = lt.mu_tail_stats(traj, 0.5)
        assert stats.sup_norm_mu < head

    def test_obstacle_tail_integral_small(self, small_obstacle_run):
        whole = lt.mu_tail_stats(small_obstacle_run, 0.999)
        tail = lt.mu_tail_stats(small_obstacle_run, 0.25)
        assert tail.integral_ar_mu_sq <= 0.05 * whole.integral_ar_mu_sq


class TestExtractMuInfinity:
    def test_spatially_constant_potential(self):
        config = neumann_config(pot.zero_potential())
        grid = config.grid
        zero = sp.constant_field(0.0, grid)
        g = [0.3, 0.2, 0.15, 0.12, 0.1]
        mus = [sp.constant_field(v, grid) for v in g]
        traj = synthetic_trajectory(config, [zero] * 5, mus)
        estimate = lt.extract_mu_infinity(traj, 0.5)
        assert np.allclose(estimate.series, g[2:], atol=1e-14)
        assert estimate.flatness <= 1e-12

    def test_zero_run(self):
        config = neumann_config(pot.zero_potential())
        zero = sp.constant_field(0.0, config.grid)
        traj = synthetic_trajectory(config, [zero] * 3, [zero] * 3)
        estimate = lt.extract_mu_infinity(traj, 0.5)
        assert np.all(estimate.series == 0.0)

    def test_positive_branch_rejected(self, small_dirichlet_run):
        with pytest.raises(BranchError):
            lt.extract_mu_infinity(small_dirichlet_run, 0.5)

    def test_obstacle_run_flattens(self, small_obstacle_run):
        estimate = lt.extract_mu_infinity(small_obstacle_run, 0.25)
        early = lt.extract_mu_infinity(small_obstacle_run, 0.999)
        assert estimate.flatness < early.flatness


class TestStationarityResidual:
    def test_trivial_zero_state(self):
        config = neumann_config(pot.zero_potential())
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
        estimate = lt.extract_mu_infinity(traj, 0.25)
        u_inf = traj.data.u_infinity
        violation = lt.variational_inequality_check(
            traj.ys[-1], estimate.tail_average, u_inf,
            traj.config.spec, traj.config.op_B)
        scale = lt.residual_scale(traj.ys[-1], estimate.tail_average, u_inf,
                                  traj.config.spec, traj.config.op_B,
                                  overshoot_tol=1e-2)
        # regularization overshoot and remaining transients leave a small
        # inequality defect proportional to the residual scale
        assert violation <= 0.05 * scale


class TestOmegaProbe:
    """The limit-point witnesses of :func:`longtime.longtime_report`."""

    def test_stationary_data_zero_gaps(self):
        spec = pot.make_potential("obstacle", c2=1.0)
        config = neumann_config(spec, steps=4)
        grid = config.grid
        m0 = 0.2
        y = sp.constant_field(m0, grid)
        mu = sp.constant_field(-2.0 * m0, grid)
        traj = synthetic_trajectory(config, [y] * 5, [mu] * 5)
        report = fresh_longtime_report(traj, [0, 2, 4])
        assert np.abs(report["cauchy_gaps"]).max() == 0.0
        assert report["stationarity_residual"] <= 1e-10
        assert report["branch"] == "lambda1_zero"

    def test_positive_branch_report(self, small_dirichlet_run):
        traj = small_dirichlet_run
        n = traj.steps
        report = fresh_longtime_report(traj, [n // 4, n // 2, n])
        assert report["branch"] == "lambda1_positive"
        assert report["mu_infinity"] is None
        assert report["mu_infinity_value"] == 0.0
        gaps = report["cauchy_gaps"]
        assert gaps[0, 2] >= gaps[1, 2]  # later states closer together
        assert np.isfinite(report["b_sigma_bound"])

    def test_zero_branch_report(self, small_obstacle_run):
        traj = small_obstacle_run
        n = traj.steps
        report = fresh_longtime_report(traj, [n // 2, n], overshoot_tol=1e-2)
        assert report["branch"] == "lambda1_zero"
        assert report["mu_infinity"] is not None
        assert report["mu_infinity"]["spread"] >= 0.0
        assert report["mass_identity_defect"] <= 1e-10

    def test_insufficient_snapshots(self, small_obstacle_run):
        with pytest.raises(InsufficientDataError):
            fresh_longtime_report(small_obstacle_run, [100])


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
        config = neumann_config(pot.zero_potential())
        zero = sp.constant_field(0.0, config.grid)
        traj = synthetic_trajectory(config, [zero] * 3, [zero] * 3)
        cert = lt.range_certificate(traj, config.spec, (-1.0, 1.0))
        assert cert.y_min == cert.y_max == 0.0
        assert cert.contained

    def test_obstacle_overshoot_bounded(self, small_obstacle_run):
        cert = lt.range_certificate(small_obstacle_run, small_obstacle_run.config.spec)
        assert cert.interval == (-1.0, 1.0)
        assert cert.overshoot <= 0.05
        assert cert.yosida_lambda == small_obstacle_run.config.yosida_lambda

    def test_unbounded_domain_self_certifies(self, small_dirichlet_run):
        cert = lt.range_certificate(small_dirichlet_run, small_dirichlet_run.config.spec)
        assert cert.contained
        assert cert.overshoot == 0.0

    def test_goodmui_certification(self, small_obstacle_run, small_dirichlet_run):
        obstacle_cert = lt.range_certificate(small_obstacle_run,
                                             small_obstacle_run.config.spec)
        assert not lt.goodmui_certified(small_obstacle_run, obstacle_cert)
        smooth_cert = lt.range_certificate(small_dirichlet_run,
                                           small_dirichlet_run.config.spec)
        assert lt.goodmui_certified(small_dirichlet_run, smooth_cert)
