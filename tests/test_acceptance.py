"""Acceptance gate: one test per criterion, each printing a pass line.

Every tolerance is fixed here, not tuned at runtime.  The reference runs
live in conftest and are shared with the unit-test modules.
"""

import math
import os

import numpy as np
import pytest

from fracch import cli
from fracch import estimates as est
from fracch import longtime as lt
from fracch import potentials as pot
from fracch import spectral as sp

from conftest import final_y, fresh_longtime_report, smooth_benchmark


def report(line):
    print(f"[PASS] {line}")


ORACLE_SPECS = {
    "regular": pot.make_potential("regular"),
    "logarithmic": pot.make_potential("logarithmic", c1=2.0),
    "obstacle": pot.make_potential("obstacle", c2=1.0),
    "example_best": pot.make_potential("example_best"),
}
# the logarithmic selection saturates to the open domain boundary in double
# precision for arguments far outside (-1, 1); sampled where representable
ORACLE_SPAN = {"regular": 3.0, "logarithmic": 0.9, "obstacle": 3.0, "example_best": 3.0}


def test_criterion_1_yosida_oracle_equivalence():
    """Resolvent, graph approximation and regularized value against the
    million-point grid minimizer of the primal objective."""
    levels = (0.1, 0.01, 0.001)
    points = 10**6
    for name, spec in ORACLE_SPECS.items():
        dom = spec.beta_hat_domain
        lo, hi = max(dom.lo, -5.0), min(dom.hi, 5.0)
        r_grid = np.linspace(lo, hi, points)
        energy = spec.beta_hat(r_grid)
        spacing = (hi - lo) / (points - 1)
        rng = np.random.default_rng(2024)
        span = ORACLE_SPAN[name]
        samples = rng.uniform(-span, span, size=100)
        for lam in levels:
            for s in samples:
                s = float(s)
                objective = (r_grid - s) ** 2 / (2.0 * lam) + energy
                i = int(np.argmin(objective))
                r_star, v_star = float(r_grid[i]), float(objective[i])
                j = spec.resolvent(lam, s)
                xi = pot.yosida(spec, lam, s)
                primal = pot.yosida_primal(spec, lam, s)
                assert abs(j - r_star) <= 2.0 * spacing
                # the grid error propagates through (s - r)/lam
                assert abs(xi - (s - r_star) / lam) <= 2.0 * spacing / lam
                # the value error is quadratic around smooth minimizers but
                # first order in the spacing when the minimizer sits at a
                # kink, with slope up to the subdifferential width there
                glo, ghi = spec.beta(j)
                width = min(ghi - glo, 10.0)
                value_tol = 2.0 * spacing * width + spacing**2 * (1.0 / lam + 100.0)
                assert abs(primal - v_star) <= value_tol
                assert pot.graph_selection_residual(spec, j, xi) <= 1e-10
    report("criterion 1: yosida machinery matches the 1e6-point grid oracle "
           "(4 potentials x 3 levels x 100 samples)")


def test_criterion_2_spectral_correctness(obstacle_run):
    basis = obstacle_run.config.op_A.basis
    rng = np.random.default_rng(7)
    for p in (0.5, 1.0):
        op = sp.FractionalOperator(basis, p)
        for j in range(basis.n):
            ej = sp.Field(basis.modes @ np.eye(basis.n)[j], basis.grid)
            lam = basis.lambdas[j] ** p
            defect = sp.norm(sp.apply_power(op, ej) - lam * ej)
            assert defect <= 1e-10 * max(lam, 1.0)
    op = sp.FractionalOperator(basis, 0.5)
    for _ in range(20):
        v = sp.Field(rng.normal(size=basis.grid.size), basis.grid)
        twice = sp.apply_power(op, sp.apply_power(op, v))
        doubled = sp.apply_power(op, v, 2.0)
        assert sp.norm(twice - doubled) <= 1e-10 * max(sp.norm(doubled), 1.0)
    cp = sp.poincare_constant(op)
    assert cp == pytest.approx(basis.lambdas[1] ** -0.5, rel=1e-14)
    for _ in range(200):
        c = rng.normal(size=basis.n)
        c[0] = 0.0
        v = sp.Field(basis.modes @ c, basis.grid)
        assert sp.norm(v) <= cp * sp.norm(sp.apply_power(op, v)) * (1 + 1e-12)
    e2 = sp.Field(basis.modes @ np.eye(basis.n)[1], basis.grid)
    attained = sp.norm(e2) / sp.norm(sp.apply_power(op, e2))
    assert abs(attained - cp) <= 1e-10 * cp
    report("criterion 2: eigenvector scaling, power semigroup and the sharp "
           "gap inequality hold at 1e-10")


def test_criterion_3_discrete_mass_identity(obstacle_run):
    mean_y = obstacle_run.columns["mean_y"][:1001]
    mean_mu = obstacle_run.columns["mean_mu"][:1001]
    worst = float(np.abs(mean_y + obstacle_run.h * mean_mu - mean_y[0]).max())
    assert worst <= 1e-10
    report(f"criterion 3: mass identity defect {worst:.2e} <= 1e-10 over the "
           "1000-step 64-mode obstacle run")


def test_criterion_4_energy_ledger(obstacle_run):
    ledger = est.gronwall_ledger(obstacle_run)
    # each step's slack relative to the largest of its terms and its bound
    slack_scale = np.maximum(np.maximum(np.abs(ledger.terms).max(axis=1),
                                        np.abs(ledger.rhs_bound)), est.SLACK_FLOOR)
    min_rel = float(np.min(ledger.slack[:1000] / slack_scale[:1000]))
    assert min_rel >= -1e-8
    marks = [999, 1999, 3999]  # horizons T, 2T, 4T
    final = ledger.terms[marks[-1]]
    global_scale = np.abs(final).max()
    worst_ratio = 0.0
    for name in est.LEDGER_TERMS:
        column = ledger.terms[:, est.LEDGER_TERMS.index(name)]
        series = column[marks]
        scale = max(abs(column[marks[-1]]), 0.01 * global_scale)
        for a, b in zip(series[:-1], series[1:]):
            worst_ratio = max(worst_ratio, abs(b - a) / scale)
    assert worst_ratio <= 0.01
    report(f"criterion 4: min relative ledger slack {min_rel:.2e} >= -1e-8; "
           f"all 8 accumulators plateau to {worst_ratio:.2e} <= 1% over doubled horizons")


def test_criterion_5_positive_branch_longtime(branch_i_run):
    traj = branch_i_run
    norm_mu = lt.trajectory_columns(traj)["norm_mu"]
    # sup of |mu| over the second half of each horizon 25, 50, 100
    sups = [float(norm_mu[math.ceil(n / 2):n + 1].max()) for n in (500, 1000, 2000)]
    assert sups[0] > sups[1] > sups[2]
    spec = traj.config.spec
    op_b = traj.config.op_B
    u_inf = traj.data.source.u_inf
    initial = lt.stationarity_residual(traj.snapshot(0)[0], 0.0, u_inf, spec, op_b)
    final = lt.stationarity_residual(final_y(traj), 0.0, u_inf, spec, op_b)
    assert final <= 1e-3 * initial
    report(f"criterion 5: tail sup of the potential decreases "
           f"({sups[0]:.2e} > {sups[1]:.2e} > {sups[2]:.2e}); stationarity "
           f"residual shrinks to {final / initial:.2e} <= 1e-3 of its initial value")


def test_criterion_6_zero_branch_longtime(branch_ii_run):
    traj = branch_ii_run
    payload = fresh_longtime_report(traj)
    estimate = payload["mu_infinity"]
    assert estimate["flatness_max"] <= 1e-2
    assert estimate["spread"] <= 5e-2
    resid, scale = payload["stationarity_residual"], payload["residual_scale"]
    assert resid <= 1e-2 * scale
    cert = payload["range_certificate"]
    assert -1.0 < cert["y_min"] and cert["y_max"] < 1.0
    assert payload["assumptions"]["unique_constant_multiplier_certified"]
    report(f"criterion 6: potential flatness {estimate['flatness_max']:.2e} <= 1e-2, "
           f"constant spread {estimate['spread']:.2e} <= 5e-2, strong-equation "
           f"residual {resid / scale:.2e} of scale <= 1e-2, range strictly inside (-1, 1)")


def test_criterion_7_nonuniqueness_of_the_constant():
    basis = sp.build_interval_basis("neumann", 16, 1.0, 65)
    op_a = sp.FractionalOperator(basis, 0.5)
    times = np.linspace(0.0, 10.0, 21)
    profiles = {
        "0": lambda t: 0.0,
        "sin t": np.sin,
        "+1": lambda t: 1.0,
        "-1": lambda t: -1.0,
    }
    violations = {}
    for label, fn in profiles.items():
        violations[label] = lt.example_best_check(fn, times, op_a).max_violation
        assert violations[label] <= 1e-12, label
    # the two distinct admissible constants certify nonuniqueness
    assert violations["+1"] <= 1e-12 and violations["-1"] <= 1e-12
    report("criterion 7: zero-state family passes at 1e-12 for {0, sin t, +1, -1}; "
           "the two constants jointly certify a nonunique limit multiplier")


def test_criterion_8_refinement_ladders():
    t_final = 0.8
    finals = [final_y(smooth_benchmark(0.1 / 2**i, int(round(t_final / (0.1 / 2**i))), 1e-2))
              for i in range(5)]
    h_diffs = [sp.norm(finals[i] - finals[i + 1]) for i in range(4)]
    h_ratios = [h_diffs[i] / h_diffs[i + 1] for i in range(3)]
    assert all(1.5 <= r <= 3.0 for r in h_ratios)
    finals = [final_y(smooth_benchmark(0.05, 16, 1e-2 / 2**i)) for i in range(5)]
    l_diffs = [sp.norm(finals[i] - finals[i + 1]) for i in range(4)]
    l_ratios = [l_diffs[i] / l_diffs[i + 1] for i in range(3)]
    assert all(1.5 <= r <= 3.0 for r in l_ratios)
    report(f"criterion 8: step-size ratios {[f'{r:.2f}' for r in h_ratios]} and "
           f"regularization ratios {[f'{r:.2f}' for r in l_ratios]} all in [1.5, 3]")


DETERMINISM_DOC = """\
[operator_a]
kind = neumann
modes = 12
length = 4.0
grid_points = 25
exponent = 0.5

[operator_b]
kind = neumann
modes = 12
length = 4.0
grid_points = 25
exponent = 0.5

[potential]
name = obstacle
c2 = 1.0

[scheme]
tau = 0.25
yosida_lambda = 1e-3
h = 0.01
steps = 150

[data]
y0 = cosine 0.1 0.4 0.2
source = decay 0.5
u_inf = constant 0
u_bump = cosine 0 0.05

[output]
directory = {out}
snapshots = log 9

[run]
seed = 42
"""


def test_criterion_9_determinism(tmp_path):
    out = tmp_path / "run"
    cfg = tmp_path / "run.ini"
    cfg.write_text(DETERMINISM_DOC.format(out=out))
    assert cli.main(["simulate", str(cfg)]) == 0
    assert cli.main(["longtime-report", str(out)]) == 0
    first = {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}
    assert cli.main(["simulate", str(cfg)]) == 0
    assert cli.main(["longtime-report", str(out)]) == 0
    second = {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], name
    report("criterion 9: repeated simulate + report produce byte-identical "
           f"outputs ({len(first)} files compared)")
