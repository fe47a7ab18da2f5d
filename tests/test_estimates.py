"""Energy ledger exactness, accumulator structure and the dual-norm identity."""

import dataclasses

import numpy as np
import pytest

from fracch import estimates as est
from fracch import potentials as pot
from fracch import spectral as sp
from fracch import stepper as st

from conftest import states_trajectory, zero_potential


def zero_run(steps=5):
    # trivial split: at the zero state every ledger term vanishes identically
    basis = sp.build_interval_basis("neumann", 8, 2.0, 17)
    op = sp.FractionalOperator(basis, 0.5)
    config = st.SchemeConfig(op_A=op, op_B=op, spec=zero_potential(),
                             yosida_lambda=1e-2, tau=0.5, h=0.05, steps=steps)
    grid = config.grid
    data = st.ProblemData(y0=sp.constant_field(0.0, grid),
                          source=st.zero_source(grid))
    return st.run(config, data), data, config


def convexity_gap(config, prev_y, next_y):
    """Nodal minimum of F'(y+)(y+ - y) - (F(y+) - F(y)), nonnegative by convexity."""
    spec, lam = config.spec, config.yosida_lambda
    shift = spec.stability_shift
    a, b = prev_y.values, next_y.values

    def f(v):
        return 0.5 * shift * v * v + pot.yosida_primal(spec, lam, v) + spec.pi_hat(v)

    fprime = shift * b + pot.yosida(spec, lam, b) + spec.pi(b)
    gap = fprime * (b - a) - (f(b) - f(a))
    return float(gap.min())


def summed_source_pairing(y, data, h, k):
    """Summation-by-parts value of the source pairing of the states ``y`` up to step k.

    Equals ``(u^k, y^k) - (u^1, y^0) - sum_{n=1}^{k-1} (u^{n+1} - u^n, y^n)``,
    which is the same number as the accumulated per-step pairings.
    """
    if k == 0:
        return 0.0
    ys = [sp.Field(row, data.y0.grid) for row in y]
    uk = data.source.at(k * h)
    u1 = data.source.at(h)
    total = sp.inner(uk, ys[k]) - sp.inner(u1, ys[0])
    for n in range(1, k):
        du = data.source.at((n + 1) * h) - data.source.at(n * h)
        total -= sp.inner(du, ys[n])
    return total


def slack_scale(ledger):
    """Largest of each step's terms and bound, floored: the unit of relative slack."""
    return np.maximum(np.maximum(np.abs(ledger.terms).max(axis=1), np.abs(ledger.rhs_bound)),
                      est.SLACK_FLOOR)


class TestPerStepInequality:
    """Single steps of the inequality: increments of the ledger and of its slack."""

    def test_zero_trajectory_equality(self):
        traj, data, config = zero_run()
        increments, _, _ = est._ledger_increments(traj)
        assert np.abs(increments).max() <= 1e-14
        assert np.abs(np.diff(est.gronwall_ledger(traj).slack, prepend=0.0)).max() <= 1e-14

    def test_constant_mode_step_scalars(self):
        # no potential, tau = 0, constant state: the step is the identity and
        # every ledger term can be checked by hand against the 2x2 system
        basis = sp.build_interval_basis("neumann", 8, 2.0, 17)
        op = sp.FractionalOperator(basis, 0.5)
        config = st.SchemeConfig(op_A=op, op_B=op, spec=zero_potential(),
                                 yosida_lambda=1e-2, tau=0.0, h=0.25, steps=1)
        grid = config.grid
        c = 0.7
        data = st.ProblemData(y0=sp.constant_field(c, grid),
                              source=st.zero_source(grid))
        traj = st.run(config, data)
        increments, _, _ = est._ledger_increments(traj)
        # y stays at c and mu stays at zero, so every increment vanishes:
        # the B-power annihilates constants and the split energy is constant
        for name, value in zip(est.LEDGER_TERMS, increments[0]):
            assert abs(value) <= 1e-12, name
        assert est.gronwall_ledger(traj).slack[0] >= -1e-12

    def test_random_run_min_slack(self, small_obstacle_run):
        traj = small_obstacle_run
        increments, e0_split, e0_b = est._ledger_increments(traj)
        ledger = est.gronwall_ledger(traj)
        slack = np.diff(ledger.slack, prepend=0.0)
        pairing = np.diff(ledger.rhs_bound, prepend=e0_split + e0_b)
        scale = np.maximum(np.maximum(np.abs(increments).max(axis=1), np.abs(pairing)),
                           est.SLACK_FLOOR)
        assert np.min(slack / scale) >= -1e-8

    def test_convexity_gap_pointwise(self, small_obstacle_recorded):
        traj, y, _ = small_obstacle_recorded
        grid = traj.config.grid
        for k in range(1, traj.steps + 1):
            gap = convexity_gap(traj.config, sp.Field(y[k - 1], grid), sp.Field(y[k], grid))
            assert gap >= -1e-10

    def test_violation_shows_on_corrupted_state(self, small_obstacle_recorded):
        traj, y, mu = small_obstacle_recorded
        genuine, mu = y[:6], mu[:6]
        # a state that no solver produced: the energy jumps with no source
        corrupted = genuine.copy()
        corrupted[5] *= 3.0
        for states, violated in ((corrupted, True), (genuine, False)):
            ledger = est.gronwall_ledger(states_trajectory(traj.config, traj.data, states, mu))
            assert (ledger.slack[4] < -1e-8 * slack_scale(ledger)[4]) == violated


class TestGronwallLedger:
    def test_zero_data_identically_zero(self):
        traj, data, config = zero_run()
        ledger = est.gronwall_ledger(traj)
        assert np.abs(ledger.terms).max() <= 1e-14
        assert np.abs(ledger.slack).max() <= 1e-13

    def test_increment_accumulators_nondecreasing(self, small_obstacle_run):
        ledger = est.gronwall_ledger(small_obstacle_run)
        monotone = ("mu_increment_accum", "Ar_mu_accum", "tau_rate_accum",
                    "B_sigma_increment_accum", "y_increment_accum")
        for name in monotone:
            series = ledger.terms[:, est.LEDGER_TERMS.index(name)]
            assert np.all(np.diff(series) >= -1e-13)

    def test_state_terms_match_direct_evaluation(self, small_obstacle_recorded):
        traj, states, mus = small_obstacle_recorded
        config = traj.config
        ledger = est.gronwall_ledger(traj)
        k = traj.steps // 2
        terms = dict(zip(est.LEDGER_TERMS, ledger.terms[k - 1]))
        spec, lam = config.spec, config.yosida_lambda
        y = sp.Field(states[k], config.grid)
        direct_b = 0.5 * sp.norm(sp.apply_power(config.op_B, y)) ** 2
        direct_mu = 0.5 * traj.h * sp.norm(sp.Field(mus[k], config.grid)) ** 2
        direct_split = float(np.sum(
            y.grid.w * (pot.yosida_primal(spec, lam, y.values) + spec.pi_hat(y.values))))
        assert terms["B_sigma_norm"] == pytest.approx(direct_b, abs=1e-10)
        assert terms["mu_l2_accum"] == pytest.approx(direct_mu, abs=1e-10)
        assert terms["beta_pi_integral"] == pytest.approx(direct_split, abs=1e-10)

    def test_summation_by_parts_identity(self, small_obstacle_recorded):
        traj, y, _ = small_obstacle_recorded
        data = traj.data
        k = traj.steps
        accumulated = est.gronwall_ledger(traj).rhs_bound[k - 1]
        config = traj.config
        y0 = data.y0
        spec, lam = config.spec, config.yosida_lambda
        e0_split = float(np.sum(y0.grid.w * (
            pot.yosida_primal(spec, lam, y0.values) + spec.pi_hat(y0.values))))
        e0_b = 0.5 * sp.norm(sp.apply_power(config.op_B, y0)) ** 2
        by_parts = e0_split + e0_b + summed_source_pairing(y, data, traj.h, k)
        assert accumulated == pytest.approx(by_parts, abs=1e-10)

    def test_decaying_source_data_bound(self, small_obstacle_run):
        traj = small_obstacle_run
        ledger = est.gronwall_ledger(traj)
        source = traj.data.source
        t_final = traj.final_time
        expected = sp.norm(source.at(0.0)) + sp.norm(source.bump) * (
            1.0 - np.exp(-source.rate * t_final))
        assert ledger.data_bound[-1] == pytest.approx(expected, rel=1e-12)

    def test_min_slack_relative(self, small_obstacle_run):
        ledger = est.gronwall_ledger(small_obstacle_run)
        assert np.all(ledger.slack >= -1e-8 * slack_scale(ledger))


class TestUniformReport:
    def test_zero_run_all_zero(self):
        traj, data, config = zero_run()
        report = est.uniform_report(traj)
        for name, value in dataclasses.asdict(report).items():
            assert value == pytest.approx(0.0, abs=1e-12), name

    def test_quantities_finite_and_monotone_in_horizon(self, small_obstacle_run):
        # every reported quantity is a sup or an integral of a nonnegative
        # integrand, hence nondecreasing under horizon extension; the 1%
        # plateau claim is asserted on the long reference run in the
        # acceptance suite
        traj = small_obstacle_run
        half = st.run(dataclasses.replace(traj.config, steps=traj.steps // 2), traj.data)
        full_report = dataclasses.asdict(est.uniform_report(traj))
        half_report = dataclasses.asdict(est.uniform_report(half))
        for name in full_report:
            assert np.isfinite(full_report[name])
            assert full_report[name] >= half_report[name] - 1e-12, name


class TestDualNorm:
    def test_zero_trajectory(self):
        traj, data, config = zero_run()
        assert est.dual_norm_report(traj).value == 0.0

    def test_single_mode_closed_form(self):
        # freeze y and put one oscillating coefficient into mu: the identity
        # path reconstructs the rate from mu alone
        basis = sp.build_interval_basis("dirichlet", 8, 2.0, 17)
        op = sp.FractionalOperator(basis, 0.5)
        config = st.SchemeConfig(op_A=op, op_B=op, spec=zero_potential(),
                                 yosida_lambda=1e-2, tau=0.0, h=0.1, steps=2)
        grid = config.grid
        j = 2  # third mode
        lam_j = basis.lambdas[j]
        coeff = 0.3
        mu_field = sp.Field(basis.modes @ (np.eye(8)[j] * coeff), basis.grid)
        zero = sp.constant_field(0.0, grid)
        # dy/dt on each interval equals mu_prev - mu - A2 mu; choose states so
        # the increments realize exactly that field
        rate = sp.Field(-(1.0 + lam_j) * mu_field.values, grid)
        y1 = sp.Field(rate.values * config.h, grid)
        traj = states_trajectory(
            config, st.ProblemData(y0=zero, source=st.zero_source(grid)),
            np.array([zero.values, y1.values]), np.array([zero.values, mu_field.values]))
        report = est.dual_norm_report(traj)
        expected = np.sqrt(config.h) * lam_j ** (-0.5) * abs(
            (1.0 + lam_j) * coeff)
        assert report.value == pytest.approx(expected, rel=1e-12)
        assert report.value_identity == pytest.approx(report.value, rel=1e-10)

    def test_identity_and_bound_on_run(self, small_obstacle_run):
        traj = small_obstacle_run
        report = est.dual_norm_report(traj)
        assert report.value == pytest.approx(report.value_identity, abs=1e-10)
        assert report.value <= report.bound * (1 + 1e-12)
