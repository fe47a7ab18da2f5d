"""Energy ledger exactness, accumulator structure and the dual-norm identity."""

import numpy as np
import pytest

from fracch import estimates as est
from fracch import potentials as pot
from fracch import spectral as sp
from fracch import stepper as st


def zero_run(steps=5):
    # trivial split: at the zero state every ledger term vanishes identically
    basis = sp.build_interval_basis("neumann", 8, 2.0, 17)
    op = sp.FractionalOperator(basis, 0.5)
    config = st.SchemeConfig(op_A=op, op_B=op, spec=pot.zero_potential(),
                             yosida_lambda=1e-2, tau=0.5, h=0.05, steps=steps)
    grid = config.grid
    data = st.ProblemData(y0=sp.constant_field(0.0, grid),
                          source=st.zero_source(grid))
    return st.run(config, data), data, config


def summed_source_pairing(traj, data, k):
    """Summation-by-parts value of the source pairing up to step k.

    Equals ``(u^k, y^k) - (u^1, y^0) - sum_{n=1}^{k-1} (u^{n+1} - u^n, y^n)``,
    which is the same number as the accumulated per-step pairings.
    """
    h = traj.h
    if k == 0:
        return 0.0
    uk = data.source.at(k * h)
    u1 = data.source.at(h)
    total = sp.inner(uk, traj.ys[k]) - sp.inner(u1, traj.ys[0])
    for n in range(1, k):
        du = data.source.at((n + 1) * h) - data.source.at(n * h)
        total -= sp.inner(du, traj.ys[n])
    return total


class TestPerStepInequality:
    def test_zero_trajectory_equality(self):
        traj, data, config = zero_run()
        inc = est.per_step_inequality(
            (traj.ys[0], traj.mus[0]), (traj.ys[1], traj.mus[1]),
            data.source.at(config.h), config)
        assert all(abs(v) <= 1e-14 for v in inc.increments.values())
        assert abs(inc.slack) <= 1e-14

    def test_constant_mode_step_scalars(self):
        # no potential, tau = 0, constant state: the step is the identity and
        # every ledger term can be checked by hand against the 2x2 system
        basis = sp.build_interval_basis("neumann", 8, 2.0, 17)
        op = sp.FractionalOperator(basis, 0.5)
        config = st.SchemeConfig(op_A=op, op_B=op, spec=pot.zero_potential(),
                                 yosida_lambda=1e-2, tau=0.0, h=0.25, steps=1)
        grid = config.grid
        c = 0.7
        data = st.ProblemData(y0=sp.constant_field(c, grid),
                              source=st.zero_source(grid))
        traj = st.run(config, data)
        inc = est.per_step_inequality(
            (traj.ys[0], traj.mus[0]), (traj.ys[1], traj.mus[1]),
            data.source.at(config.h), config)
        # y stays at c and mu stays at zero, so every increment vanishes:
        # the B-power annihilates constants and the split energy is constant
        for name, value in inc.increments.items():
            assert abs(value) <= 1e-12, name
        assert inc.slack >= -1e-12

    def test_random_run_min_slack(self, small_obstacle_run):
        traj = small_obstacle_run
        config, data = traj.config, traj.data
        worst = np.inf
        for k in range(1, traj.steps + 1):
            inc = est.per_step_inequality(
                (traj.ys[k - 1], traj.mus[k - 1]), (traj.ys[k], traj.mus[k]),
                data.source.at(k * traj.h), config)
            scale = max(max(abs(v) for v in inc.increments.values()),
                        abs(inc.rhs_increment), est.SLACK_FLOOR)
            worst = min(worst, inc.slack / scale)
        assert worst >= -1e-8

    def test_convexity_gap_pointwise(self, small_obstacle_run):
        traj = small_obstacle_run
        for k in range(1, traj.steps + 1):
            gap = est.convexity_gap(traj.config, traj.ys[k - 1], traj.ys[k])
            assert gap >= -1e-10

    def test_violation_raises_on_corrupted_state(self, small_obstacle_run):
        from fracch.errors import EstimateViolationError

        traj = small_obstacle_run
        # a state pair that no solver produced: energy jumps with no source
        bad_next = sp.Field(traj.ys[5].values * 3.0, traj.config.grid)
        with pytest.raises(EstimateViolationError):
            est.per_step_inequality(
                (traj.ys[4], traj.mus[4]), (bad_next, traj.mus[5]),
                traj.data.source.at(5 * traj.h), traj.config, tol_rel=1e-8)
        # the genuine pair passes the same check
        est.per_step_inequality(
            (traj.ys[4], traj.mus[4]), (traj.ys[5], traj.mus[5]),
            traj.data.source.at(5 * traj.h), traj.config, tol_rel=1e-8)


class TestGronwallLedger:
    def test_zero_data_identically_zero(self):
        traj, data, config = zero_run()
        for entry in est.gronwall_ledger(traj, data, config):
            assert all(abs(v) <= 1e-14 for v in entry.lhs_terms.values())
            assert abs(entry.slack) <= 1e-13

    def test_increment_accumulators_nondecreasing(self, small_obstacle_run):
        traj = small_obstacle_run
        entries = est.gronwall_ledger(traj, traj.data, traj.config)
        monotone = ("mu_increment_accum", "Ar_mu_accum", "tau_rate_accum",
                    "B_sigma_increment_accum", "y_increment_accum")
        for name in monotone:
            series = np.array([e.lhs_terms[name] for e in entries])
            assert np.all(np.diff(series) >= -1e-13)

    def test_state_terms_match_direct_evaluation(self, small_obstacle_run):
        traj = small_obstacle_run
        config = traj.config
        entries = est.gronwall_ledger(traj, traj.data, config)
        k = traj.steps // 2
        entry = entries[k - 1]
        reg = config.regularization
        y = traj.ys[k]
        direct_b = 0.5 * sp.norm(sp.apply_power(config.op_B, y)) ** 2
        direct_mu = 0.5 * traj.h * sp.norm(traj.mus[k]) ** 2
        direct_split = float(np.sum(
            y.grid.w * (pot.yosida_primal(reg, y.values) + config.spec.pi_hat(y.values))))
        assert entry.lhs_terms["B_sigma_norm"] == pytest.approx(direct_b, abs=1e-10)
        assert entry.lhs_terms["mu_l2_accum"] == pytest.approx(direct_mu, abs=1e-10)
        assert entry.lhs_terms["beta_pi_integral"] == pytest.approx(direct_split, abs=1e-10)

    def test_summation_by_parts_identity(self, small_obstacle_run):
        traj = small_obstacle_run
        data = traj.data
        entries = est.gronwall_ledger(traj, data, traj.config)
        k = traj.steps
        accumulated = entries[k - 1].rhs_bound
        config = traj.config
        y0 = traj.ys[0]
        e0_split = float(np.sum(y0.grid.w * (
            pot.yosida_primal(config.regularization, y0.values) + config.spec.pi_hat(y0.values))))
        e0_b = 0.5 * sp.norm(sp.apply_power(config.op_B, y0)) ** 2
        by_parts = e0_split + e0_b + summed_source_pairing(traj, data, k)
        assert accumulated == pytest.approx(by_parts, abs=1e-10)

    def test_decaying_source_data_bound(self, small_obstacle_run):
        traj = small_obstacle_run
        entries = est.gronwall_ledger(traj, traj.data, traj.config)
        source = traj.data.source
        t_final = traj.final_time
        expected = sp.norm(source.at(0.0)) + sp.norm(source.bump) * (
            1.0 - np.exp(-source.rate * t_final))
        assert entries[-1].data_bound == pytest.approx(expected, rel=1e-12)

    def test_min_slack_relative(self, small_obstacle_run):
        traj = small_obstacle_run
        entries = est.gronwall_ledger(traj, traj.data, traj.config)
        for entry in entries:
            assert entry.slack >= -1e-8 * entry.scale


class TestUniformReport:
    def test_zero_run_all_zero(self):
        traj, data, config = zero_run()
        report = est.uniform_report(traj, data, config)
        for name, value in report.as_dict().items():
            assert value == pytest.approx(0.0, abs=1e-12), name

    def test_quantities_finite_and_monotone_in_horizon(self, small_obstacle_run):
        # every reported quantity is a sup or an integral of a nonnegative
        # integrand, hence nondecreasing under horizon extension; the 1%
        # plateau claim is asserted on the long reference run in the
        # acceptance suite
        traj = small_obstacle_run
        half = traj.truncated(traj.steps // 2)
        full_report = est.uniform_report(traj, traj.data, traj.config).as_dict()
        half_report = est.uniform_report(half, half.data, half.config).as_dict()
        for name in full_report:
            assert np.isfinite(full_report[name])
            assert full_report[name] >= half_report[name] - 1e-12, name


class TestDualNorm:
    def test_zero_trajectory(self):
        traj, data, config = zero_run()
        assert est.dual_norm_rate(traj, config) == 0.0

    def test_single_mode_closed_form(self):
        # freeze y and put one oscillating coefficient into mu: the identity
        # path reconstructs the rate from mu alone
        basis = sp.build_interval_basis("dirichlet", 8, 2.0, 17)
        op = sp.FractionalOperator(basis, 0.5)
        config = st.SchemeConfig(op_A=op, op_B=op, spec=pot.zero_potential(),
                                 yosida_lambda=1e-2, tau=0.0, h=0.1, steps=2)
        grid = config.grid
        j = 2  # third mode
        lam_j = basis.lambdas[j]
        coeff = 0.3
        mu_field = basis.synthesize(np.eye(8)[j] * coeff)
        zero = sp.constant_field(0.0, grid)
        # dy/dt on each interval equals mu_prev - mu - A2 mu; choose states so
        # the increments realize exactly that field
        rate = sp.Field(-(1.0 + lam_j) * mu_field.values, grid)
        y1 = sp.Field(rate.values * config.h, grid)
        traj = st.DiscreteTrajectory(
            y=np.array([zero.values, y1.values]), mu=np.array([zero.values, mu_field.values]),
            h=config.h, solver_stats=[st.StepStats(0, 0.0, 0.0)], config=config,
            data=st.ProblemData(y0=zero, source=st.zero_source(grid)))
        report = est.dual_norm_report(traj, config)
        expected = np.sqrt(config.h) * lam_j ** (-0.5) * abs(
            (1.0 + lam_j) * coeff)
        assert report.value == pytest.approx(expected, rel=1e-12)
        assert report.value_identity == pytest.approx(report.value, rel=1e-10)

    def test_identity_and_bound_on_run(self, small_obstacle_run):
        traj = small_obstacle_run
        report = est.dual_norm_report(traj, traj.config)
        assert report.value == pytest.approx(report.value_identity, abs=1e-10)
        assert report.value <= report.bound * (1 + 1e-12)
