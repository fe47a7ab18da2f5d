"""Time stepping: validation, single steps against a dense oracle, trajectories."""

import numpy as np
import pytest

from fracch import potentials as pot
from fracch import spectral as sp
from fracch import stepper as st
from fracch.errors import (
    ConfigurationError,
    ConstantSpanHypothesisError,
    InitialDataHypothesisError,
    MeanInteriorHypothesisError,
    SourceTailHypothesisError,
)

from conftest import cosine_field, zero_potential


def neumann_config(spec, n=8, points=17, length=2.0, r=0.5, sigma=0.5,
                   tau=0.5, lam=1e-2, h=0.05, steps=10, **kw):
    basis = sp.build_interval_basis("neumann", n, length, points)
    op = sp.FractionalOperator(basis, r)
    op_b = sp.FractionalOperator(basis, sigma)
    return st.SchemeConfig(op_A=op, op_B=op_b, spec=spec, yosida_lambda=lam,
                           tau=tau, h=h, steps=steps, **kw)


class TestSchemeConfig:
    def test_tau_outside_unit_interval(self):
        with pytest.raises(ConfigurationError):
            neumann_config(pot.make_potential("regular"), tau=2.0)

    def test_mismatched_grids(self):
        b1 = sp.build_interval_basis("neumann", 8, 2.0, 17)
        b2 = sp.build_interval_basis("neumann", 8, 2.0, 33)
        with pytest.raises(ConfigurationError):
            st.SchemeConfig(
                op_A=sp.FractionalOperator(b1, 0.5),
                op_B=sp.FractionalOperator(b2, 0.5),
                spec=pot.make_potential("regular"),
                yosida_lambda=1e-2, tau=0.0, h=0.1, steps=1,
            )

    def test_nonpositive_level(self):
        with pytest.raises(ConfigurationError):
            neumann_config(pot.make_potential("regular"), lam=0.0)


class TestValidate:
    def test_obstacle_zero_mean_passes(self):
        config = neumann_config(pot.make_potential("obstacle", c2=1.0))
        data = st.ProblemData(y0=sp.constant_field(0.0, config.grid),
                              source=st.zero_source(config.grid))
        report = st.validate(config, data)
        assert report.checks["mean_interior"]

    def test_obstacle_boundary_mean_rejected(self):
        config = neumann_config(pot.make_potential("obstacle", c2=1.0))
        data = st.ProblemData(y0=sp.constant_field(1.0, config.grid),
                              source=st.zero_source(config.grid))
        with pytest.raises(MeanInteriorHypothesisError):
            st.validate(config, data)

    def test_positive_branch_skips_mean_checks(self):
        basis = sp.build_interval_basis("dirichlet", 8, 2.0, 17)
        config = st.SchemeConfig(
            op_A=sp.FractionalOperator(basis, 0.5),
            op_B=sp.FractionalOperator(basis, 0.5),
            spec=pot.make_potential("obstacle", c2=1.0),
            yosida_lambda=1e-2, tau=0.0, h=0.05, steps=1,
        )
        # mean 1.0 would violate the interior condition on the zero branch
        data = st.ProblemData(y0=sp.constant_field(1.0, config.grid),
                              source=st.zero_source(config.grid))
        report = st.validate(config, data)
        assert "mean_interior" not in report.checks
        assert report.checks["lambda1_branch"] == "positive"

    def test_constants_must_span_second_basis(self):
        neumann = sp.build_interval_basis("neumann", 8, 2.0, 17)
        dirichlet = sp.build_interval_basis("dirichlet", 8, 2.0, 17)
        config = st.SchemeConfig(
            op_A=sp.FractionalOperator(neumann, 0.5),
            op_B=sp.FractionalOperator(dirichlet, 0.5),
            spec=pot.make_potential("regular"),
            yosida_lambda=1e-2, tau=0.0, h=0.05, steps=1,
        )
        data = st.ProblemData(y0=sp.constant_field(0.0, config.grid),
                              source=st.zero_source(config.grid))
        with pytest.raises(ConstantSpanHypothesisError):
            st.validate(config, data)

    def test_initial_energy_must_be_integrable(self):
        config = neumann_config(pot.make_potential("obstacle", c2=1.0))
        data = st.ProblemData(y0=sp.constant_field(1.5, config.grid),
                              source=st.zero_source(config.grid))
        with pytest.raises(InitialDataHypothesisError):
            st.validate(config, data)

    def test_source_must_settle(self):
        config = neumann_config(pot.make_potential("regular"))
        grid = config.grid
        source = st.DecaySource(sp.constant_field(0.0, grid),
                                sp.constant_field(1.0, grid), rate=0.0)
        data = st.ProblemData(y0=sp.constant_field(0.0, grid), source=source)
        with pytest.raises(SourceTailHypothesisError):
            st.validate(config, data)


class TestSolveStep:
    def test_zero_fixed_point(self):
        config = neumann_config(pot.make_potential("regular"), tau=0.0)
        zero = sp.constant_field(0.0, config.grid)
        y, mu, stats = st.solve_step(zero, zero, zero, config)
        assert sp.norm(y) <= 1e-12
        assert sp.norm(mu) <= 1e-12
        assert stats.residual_potential <= config.newton_tol

    def test_constant_mode_closed_form(self):
        # no potential, tau = 0: the constant mode solves
        # (y1 - c)(1 + 1/h) = 0, so the state stays put and mu vanishes
        config = neumann_config(zero_potential(), tau=0.0, h=0.25)
        c = 0.7
        y0 = sp.constant_field(c, config.grid)
        zero = sp.constant_field(0.0, config.grid)
        y1, mu1, _ = st.solve_step(y0, zero, zero, config)
        assert sp.norm(y1 - y0) <= 1e-12
        assert sp.norm(mu1) <= 1e-12

    def test_against_coupled_dense_oracle(self):
        """Independent oracle: Newton on the full coupled system in (y, mu),
        no elimination, block Jacobian, solved to 1e-12."""
        spec = pot.make_potential("regular")
        config = neumann_config(spec, n=8, points=17, tau=0.3, lam=1e-2, h=0.05)
        basis = config.op_A.basis
        grid = config.grid
        rng = np.random.default_rng(42)
        y0 = sp.Field(rng.normal(size=grid.size) * 0.3, grid)
        mu0 = sp.Field(rng.normal(size=grid.size) * 0.1, grid)
        u1 = sp.Field(rng.normal(size=grid.size) * 0.1, grid)

        y, mu, _ = st.solve_step(y0, mu0, u1, config)

        # oracle: assemble operator matrices from scratch and iterate on (y, mu)
        m = grid.size
        analysis = basis.modes.T * grid.w[None, :]
        a2 = basis.modes @ np.diag(basis.lambdas ** (2 * 0.5)) @ analysis
        b2 = basis.modes @ np.diag(basis.lambdas ** (2 * 0.5)) @ analysis
        reg = config.regularization
        shift = spec.stability_shift
        h, tau = config.h, config.tau
        yk = y0.values.copy()
        muk = mu0.values.copy()
        for _ in range(60):
            f1 = (yk - y0.values) / h + muk + a2 @ muk - mu0.values
            f2 = tau * (yk - y0.values) / h + shift * (yk - y0.values) \
                + b2 @ yk + pot.yosida(reg, yk) + spec.pi(yk) \
                - u1.values - muk
            residual = np.sqrt(np.sum(grid.w * (f1 * f1 + f2 * f2)))
            if residual < 1e-12:
                break
            j11 = np.eye(m) / h
            j12 = np.eye(m) + a2
            j21 = (tau / h + shift) * np.eye(m) + b2 + np.diag(
                pot.yosida_derivative(reg, yk) + spec.pi_prime(yk))
            j22 = -np.eye(m)
            jac = np.block([[j11, j12], [j21, j22]])
            rhs = -np.concatenate([f1, f2])
            delta = np.linalg.solve(jac, rhs)
            yk += delta[:m]
            muk += delta[m:]
        assert sp.norm(y - sp.Field(yk, grid)) <= 1e-8
        assert sp.norm(mu - sp.Field(muk, grid)) <= 1e-8

    def test_uniqueness_proxy_two_starts(self):
        spec = pot.make_potential("obstacle", c2=1.0)
        config = neumann_config(spec, lam=1e-3, h=0.01)
        grid = config.grid
        y0 = cosine_field(grid, [0.1, 0.5])
        zero = sp.constant_field(0.0, grid)
        y_a, _, _ = st.solve_step(y0, zero, zero, config, start=y0)
        y_b, _, _ = st.solve_step(y0, zero, zero, config, start=zero)
        assert sp.norm(y_a - y_b) <= 10 * config.newton_tol


class TestRun:
    def test_no_steps(self):
        config = neumann_config(pot.make_potential("regular"), steps=0)
        y0 = sp.constant_field(0.0, config.grid)
        traj = st.run(config, st.ProblemData(y0=y0, source=st.zero_source(config.grid)))
        assert traj.steps == 0
        assert sp.norm(traj.mus[0]) == 0.0

    def test_zero_data_zero_trajectory(self):
        config = neumann_config(pot.make_potential("regular"), steps=5)
        y0 = sp.constant_field(0.0, config.grid)
        traj = st.run(config, st.ProblemData(y0=y0, source=st.zero_source(config.grid)))
        assert max(sp.norm(y) for y in traj.ys) <= 1e-12
        assert max(sp.norm(mu) for mu in traj.mus) <= 1e-12

    def test_mass_identity(self, small_obstacle_run):
        traj = small_obstacle_run
        m0 = sp.mean(traj.ys[0])
        defects = [
            abs(sp.mean(traj.ys[k]) + traj.h * sp.mean(traj.mus[k]) - m0)
            for k in range(traj.steps + 1)
        ]
        assert max(defects) <= 1e-10

    def test_residuals_within_tolerance(self, small_obstacle_run):
        cfg = small_obstacle_run.config
        for stats in small_obstacle_run.solver_stats:
            assert stats.residual_potential <= cfg.newton_tol
            assert stats.residual_phase <= cfg.newton_tol

    def test_step_error_carries_index(self):
        # one Newton iteration cannot resolve a stiff contact forced by a
        # strong source at a tiny regularization level
        config = neumann_config(pot.make_potential("obstacle", c2=1.0),
                                lam=1e-8, h=0.5, steps=3, newton_max=1)
        grid = config.grid
        data = st.ProblemData(y0=cosine_field(grid, [0.0, 0.9]),
                              source=st.DecaySource(sp.constant_field(5.0, grid)))
        with pytest.raises(st.StepError) as excinfo:
            st.run(config, data)
        assert excinfo.value.step_index is not None
        assert excinfo.value.residual_history

    def test_roundoff_stall_names_newton_tol(self):
        # the largest eigenvalue of B^{2s} is about 1.6e9 here, so evaluating
        # the residual leaves round-off above the default newton_tol of 1e-10
        config = neumann_config(pot.make_potential("regular"), n=33, points=33, length=0.5,
                                r=1.0, sigma=1.0, tau=0.0, lam=1 / 16, h=1 / 32, steps=1)
        grid = config.grid
        rng = np.random.default_rng(4)
        data = st.ProblemData(
            y0=sp.Field(rng.uniform(-0.5, 0.5, grid.size), grid),
            source=st.DecaySource(sp.constant_field(0.0, grid),
                                  sp.Field(rng.uniform(-0.5, 0.5, grid.size), grid), 1.0))
        with pytest.raises(st.StepError) as excinfo:
            st.run(config, data)
        residual = excinfo.value.residual_history[-1]
        assert residual > config.newton_tol
        assert str(excinfo.value).startswith(
            f"Newton step stalled at residual {residual:.3e} above newton_tol 1.0e-10: "
            "round-off")
        assert str(excinfo.value).endswith("use a larger newton_tol")
        assert excinfo.value.exit_code == 3

    def test_refinement_reduces_state_difference(self):
        from conftest import smooth_benchmark
        t_final = 0.8
        states = [smooth_benchmark(h, int(round(t_final / h)), 1e-2).ys[-1]
                  for h in (0.1, 0.05, 0.025)]
        d1 = sp.norm(states[0] - states[1])
        d2 = sp.norm(states[1] - states[2])
        assert d2 < d1 / 1.3


@pytest.fixture()
def traj(small_obstacle_run):
    return small_obstacle_run


class TestInterpolate:
    def test_node_value_linear(self, traj):
        t = 7 * traj.h
        out = st.interpolate(traj, "piecewise_linear", t)
        assert sp.norm(out - traj.ys[7]) <= 1e-12

    def test_midpoint_average(self, traj):
        t = 6.5 * traj.h
        out = st.interpolate(traj, "piecewise_linear", t)
        expected = 0.5 * (traj.ys[6] + traj.ys[7])
        assert sp.norm(out - expected) <= 1e-12

    def test_constant_kinds_differ_by_increment(self, traj):
        t = 6.25 * traj.h  # interior of the 7th interval
        right = st.interpolate(traj, "piecewise_constant_right", t)
        left = st.interpolate(traj, "piecewise_constant_left", t)
        assert sp.norm((right - left) - (traj.ys[7] - traj.ys[6])) <= 1e-14

    def test_time_zero_conventions(self, traj):
        for kind in ("piecewise_constant_right", "piecewise_constant_left",
                     "piecewise_linear"):
            out = st.interpolate(traj, kind, 0.0)
            assert sp.norm(out - traj.ys[0]) == 0.0

    def test_out_of_range(self, traj):
        with pytest.raises(ConfigurationError):
            st.interpolate(traj, "piecewise_linear", -1.0)
        with pytest.raises(ConfigurationError):
            st.interpolate(traj, "piecewise_linear", traj.final_time + 1.0)

    def test_potential_interpolant(self, traj):
        out = st.interpolate(traj, "piecewise_constant_right", 3.5 * traj.h, which="mu")
        assert sp.norm(out - traj.mus[4]) == 0.0


class TestSources:
    def test_decay_derivative_l1_closed_form(self, neumann16):
        grid = neumann16.grid
        bump = cosine_field(grid, [0.0, 0.3])
        source = st.DecaySource(sp.constant_field(0.0, grid), bump, 2.0)
        t_final = 1.5
        exact = sp.norm(bump) * (1.0 - np.exp(-2.0 * t_final))
        # numerical check against a fine Riemann sum of |du/dt|
        ts = np.linspace(0, t_final, 20_001)
        numeric = np.trapezoid(
            [2.0 * np.exp(-2.0 * t) * sp.norm(bump) for t in ts], ts)
        assert exact == pytest.approx(numeric, rel=1e-8)
        assert source.derivative_l1(t_final) == pytest.approx(exact, rel=1e-14)

    def test_tabulated_source_lookup(self, neumann16):
        grid = neumann16.grid
        fields = [sp.constant_field(v, grid) for v in (1.0, 2.0, 3.0)]
        source = st.TabulatedSource(np.array([0.0, 1.0, 2.0]), fields)
        assert sp.mean(source.at(0.5)) == 1.0
        assert sp.mean(source.at(1.0)) == 2.0
        assert sp.mean(source.at(5.0)) == 3.0
        assert source.derivative_l1(2.0) == pytest.approx(
            sp.norm(fields[1] - fields[0]) + sp.norm(fields[2] - fields[1]))
