"""Time stepping: validation, single steps against a dense oracle, trajectories."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from fracch import estimates as est
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

from conftest import (assert_matches_cold_chain, assert_step_operator_closed_forms, cosine_field,
                      dense_step_operator, final_y, recorded_run, zero_potential)


def neumann_config(spec, n=8, points=17, length=2.0, r=0.5, sigma=0.5,
                   tau=0.5, lam=1e-2, h=0.05, steps=10, **kw):
    basis = sp.build_interval_basis("neumann", n, length, points)
    op = sp.FractionalOperator(basis, r)
    op_b = sp.FractionalOperator(basis, sigma)
    return st.SchemeConfig(op_A=op, op_B=op_b, spec=spec, yosida_lambda=lam,
                           tau=tau, h=h, steps=steps, **kw)


# example_best is left out: at its jump the undamped coupled Newton of the
# oracle cycles on the Dirichlet basis with tau = 0, while the stepper converges
ORACLE_POTENTIALS = (("regular", {}), ("logarithmic", {"c1": 1.5}), ("obstacle", {"c2": 1.0}))


def assert_matches_coupled_dense_oracle(spec, kind, tau):
    """Independent oracle: Newton on the full coupled system in (y, mu),
    no elimination, block Jacobian, solved to 1e-12."""
    basis = sp.build_interval_basis(kind, 8, 2.0, 17)
    config = st.SchemeConfig(op_A=sp.FractionalOperator(basis, 0.5),
                             op_B=sp.FractionalOperator(basis, 0.5), spec=spec,
                             yosida_lambda=1e-2, tau=tau, h=0.05, steps=10)
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
    lam = config.yosida_lambda
    shift = spec.stability_shift
    h = config.h
    yk = y0.values.copy()
    muk = mu0.values.copy()
    for _ in range(60):
        f1 = (yk - y0.values) / h + muk + a2 @ muk - mu0.values
        f2 = tau * (yk - y0.values) / h + shift * (yk - y0.values) \
            + b2 @ yk + pot.yosida(spec, lam, yk) + spec.pi(yk) \
            - u1.values - muk
        residual = np.sqrt(np.sum(grid.w * (f1 * f1 + f2 * f2)))
        if residual < 1e-12:
            break
        j11 = np.eye(m) / h
        j12 = np.eye(m) + a2
        j21 = (tau / h + shift) * np.eye(m) + b2 + np.diag(
            pot.yosida_derivative(spec, lam, yk, pot.yosida(spec, lam, yk)) + spec.pi_prime(yk))
        j22 = -np.eye(m)
        jac = np.block([[j11, j12], [j21, j22]])
        rhs = -np.concatenate([f1, f2])
        delta = np.linalg.solve(jac, rhs)
        yk += delta[:m]
        muk += delta[m:]
    assert residual < 1e-12
    assert sp.norm(y - sp.Field(yk, grid)) <= 1e-8
    assert sp.norm(mu - sp.Field(muk, grid)) <= 1e-8


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

    @pytest.mark.parametrize("setting", [{"newton_tol": 0.0}, {"newton_tol": float("nan")},
                                         {"newton_max": 0}])
    def test_newton_settings(self, setting):
        # a NaN tolerance would otherwise accept the starting guess unsolved
        with pytest.raises(ConfigurationError, match="newton"):
            neumann_config(pot.make_potential("regular"), **setting)


class TestValidate:
    def test_obstacle_zero_mean_passes(self):
        config = neumann_config(pot.make_potential("obstacle", c2=1.0))
        data = st.ProblemData(y0=sp.constant_field(0.0, config.grid),
                              source=st.zero_source(config.grid))
        # the zero branch checks the mean, and 0 is interior to [-1, 1]
        assert config.op_A.lambda1 == 0.0
        assert st.validate(config, data) is None

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
        # mean 1.0 violates the interior condition on the zero branch
        # (test_obstacle_boundary_mean_rejected); the positive branch skips it
        data = st.ProblemData(y0=sp.constant_field(1.0, config.grid),
                              source=st.zero_source(config.grid))
        assert config.op_A.lambda1 > 0.0
        assert st.validate(config, data) is None

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
        assert_matches_coupled_dense_oracle(pot.make_potential("regular"), "neumann", 0.3)

    @pytest.mark.parametrize("spec_args, kind, tau", [
        (spec_args, kind, tau)
        for spec_args in ORACLE_POTENTIALS
        for kind in ("neumann", "dirichlet")
        for tau in (0.0, 0.3)
        if (spec_args[0], kind, tau) != ("regular", "neumann", 0.3)
    ], ids=lambda v: v[0] if isinstance(v, tuple) else str(v))
    def test_against_coupled_dense_oracle_across_graphs(self, spec_args, kind, tau):
        name, params = spec_args
        assert_matches_coupled_dense_oracle(pot.make_potential(name, **params), kind, tau)

    @pytest.mark.parametrize("spec_args", [("regular", {}), ("obstacle", {"c2": 1.0})],
                             ids=lambda v: v[0])
    def test_nan_start_raises(self, spec_args):
        # a NaN residual is never below newton_tol or its round-off floor
        config = neumann_config(pot.make_potential(spec_args[0], **spec_args[1]))
        grid = config.grid
        zero = sp.constant_field(0.0, grid)
        start = sp.constant_field(np.nan, grid)
        with pytest.raises(st.StepError) as excinfo:
            st.solve_step(cosine_field(grid, [0.1, 0.3]), zero, zero, config, start=start)
        assert excinfo.value.exit_code == 3

    def test_uniqueness_proxy_two_starts(self):
        spec = pot.make_potential("obstacle", c2=1.0)
        config = neumann_config(spec, lam=1e-3, h=0.01)
        grid = config.grid
        y0 = cosine_field(grid, [0.1, 0.5])
        zero = sp.constant_field(0.0, grid)
        y_a, _, _ = st.solve_step(y0, zero, zero, config, start=y0)
        y_b, _, _ = st.solve_step(y0, zero, zero, config, start=zero)
        assert sp.norm(y_a - y_b) <= 10 * config.newton_tol


#: Two interval bases built apart: the kind and mode count of the first
#: operator's basis, those of the second's, and the grid size
TWO_BASES = {
    "two-bases": ("neumann", 8, "neumann", 8, 17),    # equal bases: 8 columns
    "dirichlet-neumann": ("dirichlet", 8, "neumann", 8, 17),
    "dirichlet-neumann-factored": ("dirichlet", 8, "neumann", 8, 129),   # 16 columns
    "nested": ("neumann", 8, "neumann", 12, 17),      # the 8 modes within the 12: 12 columns
}


def direction_workspace(kind):
    """Step operator of an obstacle run on an interval basis, a matrix
    operator or two bases.

    The interval bases hold 8 modes on 17 nodes, the matrix operator 12 on
    12, and ``factored`` 8 cosine modes on 129 nodes, the grid of the README
    example.  A key of :data:`TWO_BASES` builds its two bases.  No workspace
    holds ``K`` as a matrix before a direction takes the dense LU.
    """
    def basis(kind, n=8, points=17):
        if kind == "matrix":
            a = np.random.default_rng(3).normal(size=(12, 12))
            return sp.build_matrix_basis(0.5 * (a @ a.T + a.T @ a))
        if kind == "factored":
            return sp.build_interval_basis("neumann", n, 2.0, 129)
        return sp.build_interval_basis(kind, n, 2.0, points)
    if kind in TWO_BASES:
        kind_a, n_a, kind_b, n_b, points = TWO_BASES[kind]
        basis_a, basis_b = basis(kind_a, n_a, points), basis(kind_b, n_b, points)
    else:
        basis_a = basis_b = basis(kind)
    ws = st._Workspace(st.SchemeConfig(
        op_A=sp.FractionalOperator(basis_a, 0.5), op_B=sp.FractionalOperator(basis_b, 0.7),
        spec=pot.make_potential("obstacle", c2=1.0), yosida_lambda=1e-2, tau=0.3,
        h=0.05, steps=1))
    assert "k_matrix" not in vars(ws)
    return ws


def assert_dense_direction(ws, slope, g):
    k = dense_step_operator(ws.config)
    expected = np.linalg.solve(k + np.diag(slope), -g)
    delta = ws.direction(slope, g)
    assert np.abs(delta - expected).max() <= 1e-10 * np.abs(expected).max()
    return delta


ONE_BASIS = ["neumann", "dirichlet", "matrix", "factored"]


class TestNewtonDirection:
    """``_Workspace.direction`` against the dense solve of ``K + diag(slope)``."""

    @pytest.mark.parametrize("kind", ONE_BASIS + sorted(TWO_BASES))
    def test_matches_dense_solve(self, kind):
        ws = direction_workspace(kind)
        m = ws.config.grid.size
        rng = np.random.default_rng(5)
        probe = rng.normal(size=m)
        k_probe = ws.apply(probe)
        g = rng.normal(size=m)
        floor = np.full(m, -2.0)   # obstacle slope pi' away from the contact
        few = floor.copy()
        few[rng.choice(m, 3, replace=False)] += 1.0 / 1e-2
        assert_dense_direction(ws, floor, g)   # no node off the floor
        assert_dense_direction(ws, few, g)
        assert ws.shift == -2.0
        inverse = ws.inverse
        assert_dense_direction(ws, few[::-1].copy(), g)
        assert ws.inverse is inverse   # same shift: G is reused
        assert np.array_equal(ws.apply(probe), k_probe)
        # a new shift rebuilds G and leaves K bit for bit as it was
        assert_dense_direction(ws, few + 0.5, g)
        assert ws.shift == -1.5 and ws.inverse is not inverse
        assert np.array_equal(ws.apply(probe), k_probe)

    @pytest.mark.parametrize("kind", ONE_BASIS + sorted(TWO_BASES))
    def test_closed_forms_match_dense_assembly(self, kind):
        ws = direction_workspace(kind)
        for shift in (-2.0, 0.5, 1e2):
            assert_step_operator_closed_forms(ws, shift)

    @pytest.mark.parametrize("kind, columns", [
        ("two-bases", 8), ("nested", 12), ("dirichlet-neumann", None),
        ("dirichlet-neumann-factored", None)])
    def test_two_bases_take_orthonormal_columns(self, kind, columns):
        # the columns span both bases, orthonormal in the quadrature inner
        # product; equal or nested bases collapse to the larger one's count
        ws = direction_workspace(kind)
        n = ws.modes.shape[1]
        gram = (ws.modes * ws.w[:, None]).T @ ws.modes
        assert np.abs(gram - np.eye(n)).max() <= 1e-12
        assert n == (columns or sum(b.n for b in ws.bases))
        assert ws.kappa.shape == (n,)

    @pytest.mark.parametrize("kind", ["neumann", "matrix", "factored"] + sorted(TWO_BASES))
    def test_no_dense_inverse(self, kind, monkeypatch):
        # G comes from its closed form on any basis: no workspace inverts
        # or forms the identity
        config = direction_workspace(kind).config
        m = config.grid.size
        calls = []
        inv, eye = np.linalg.inv, np.eye
        monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a.shape) or inv(a))
        monkeypatch.setattr(np, "eye", lambda *args, **kw: calls.append("eye") or eye(*args, **kw))
        ws = st._Workspace(config)
        few = np.full(m, -2.0)
        few[[1, 4]] += 1.0 / 1e-2
        g = np.random.default_rng(8).normal(size=m)
        # two shift changes, each followed by a call that keeps the shift
        for slope in (few, few[::-1].copy(), few + 0.5, few[::-1] + 0.5):
            ws.direction(slope, g)
        assert calls == []

    def test_failed_inversion_leaves_no_factors(self, monkeypatch):
        ws = direction_workspace("dirichlet-neumann")
        m = ws.config.grid.size
        probe = np.random.default_rng(9).normal(size=m)
        k_probe = ws.apply(probe)
        few = np.full(m, -2.0)
        few[[1, 4]] += 1.0 / 1e-2
        g = np.ones(m)
        assert_dense_direction(ws, few, g)
        assert ws.active is not None

        def failing(ws, c):
            raise MemoryError("G does not fit")   # as forming a dense G can

        monkeypatch.setattr(st._Workspace, "_shifted_inverse", failing)
        with pytest.raises(MemoryError):
            ws.direction(few + 0.5, g)
        assert ws.inverse is None and np.isnan(ws.shift) and ws.active is None
        assert np.array_equal(ws.apply(probe), k_probe)
        monkeypatch.undo()
        # the old shift again: nothing is left to hit, so G is formed anew
        assert_dense_direction(ws, few, g)
        assert ws.shift == -2.0

    @pytest.mark.parametrize("kind, order", [
        ("neumann", 8),        # one basis of 8 modes on 17 nodes: along the modes
        ("two-bases", 8),      # two equal bases built apart: along their 8 columns
        ("matrix", 12),        # as many modes as nodes: dense LU
        ("factored", 8),
        ("dirichlet-neumann", 17),              # 16 columns on 17 nodes: dense LU
        ("dirichlet-neumann-factored", 16),
    ], ids=["neumann", "two-bases", "matrix", "factored", "dirichlet-neumann",
            "dirichlet-neumann-factored"])
    def test_more_than_half_off_takes_modes_or_dense_branch(self, kind, order, monkeypatch):
        ws = direction_workspace(kind)
        m = ws.config.grid.size
        rng = np.random.default_rng(6)
        slope = np.full(m, -2.0)
        slope[: m // 2 + 1] += 1.0 / 1e-2
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(a.shape) or solve(a, b))
        assert_dense_direction(ws, rng.permutation(slope), rng.normal(size=m))
        assert_dense_direction(ws, rng.uniform(-2.0, 5.0, m), rng.normal(size=m))
        # the oracle's dense solve comes first, then the direction's one solve
        assert calls == [(m, m), (order, order)] * 2
        assert ws.inverse is None

    def test_one_linear_solve_per_direction(self, monkeypatch):
        self.assert_one_linear_solve_per_direction("neumann", monkeypatch)

    def test_one_linear_solve_per_direction_factored(self, monkeypatch):
        self.assert_one_linear_solve_per_direction("factored", monkeypatch)

    @staticmethod
    def assert_one_linear_solve_per_direction(kind, monkeypatch):
        ws = direction_workspace(kind)
        m = ws.config.grid.size
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(a.shape) or solve(a, b))
        few = np.full(m, -2.0)
        few[[2, 7]] = 98.0
        # the second and the last call with ``few`` reuse the cached factors;
        # the linear slope takes the branch along the shared basis's modes
        for slope in (np.full(m, -2.0), few, few, np.linspace(0.0, 1.0, m), few):
            ws.direction(slope, np.ones(m))
        n = ws.config.op_A.basis.n
        assert n < m
        assert calls == [(0, 0), (2, 2), (2, 2), (n, n), (2, 2)]

    @pytest.mark.parametrize("kind", ["neumann", "matrix", "factored", "dirichlet-neumann",
                                      "dirichlet-neumann-factored"])
    def test_cached_factors_match_a_fresh_workspace(self, kind):
        ws = direction_workspace(kind)
        m = ws.config.grid.size
        rng = np.random.default_rng(7)
        few = np.full(m, -2.0)
        few[[1, 4, 6]] += 1.0 / 1e-2
        steeper = np.full(m, -2.0)   # the same nodes off the floor, a new excess
        steeper[[1, 4, 6]] += 1.0 / 1e-3
        dense = np.linspace(0.0, 1.0, m)
        # (slope, whether the call reuses the factors of the call before it)
        sequence = [(few, False), (few, True), (steeper, False), (dense, None),
                    (steeper, True), (few + 0.5, False), (few, False), (few, True)]
        for slope, hit in sequence:
            before = ws.active
            g = rng.normal(size=m)
            delta = assert_dense_direction(ws, slope, g)
            # the cached factors are the fresh ones, bit for bit
            assert np.array_equal(delta, st._Workspace(ws.config).direction(slope, g))
            if hit is not None:
                assert (ws.active is before) == hit

    def test_factored_run_holds_no_m_by_m_array(self):
        # a shared basis of 256 modes on 513 nodes, where a dense K and G
        # took 2.1 MB each: the whole run allocates less than one of them
        basis = sp.build_interval_basis("neumann", 256, 4.0, 513)
        config = st.SchemeConfig(op_A=sp.FractionalOperator(basis, 0.5),
                                 op_B=sp.FractionalOperator(basis, 0.5),
                                 spec=pot.make_potential("obstacle", c2=1.0),
                                 yosida_lambda=1e-3, tau=0.25, h=0.01, steps=3)
        grid = config.grid
        data = st.ProblemData(y0=cosine_field(grid, [0.1, 0.4, 0.2]),
                              source=st.zero_source(grid))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            traj = st.run(config, data)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert traj.steps == 3
        assert peak < 8 * grid.size ** 2

    def test_shared_basis_run_builds_no_m_by_m_array(self, counted_workspaces, monkeypatch):
        # the README example's basis, 64 shared modes on 129 nodes: no array
        # the workspace keeps, and no matrix a linear solve takes, is m x m.
        # tracemalloc cannot show this at such a grid, where the block
        # buffers alone outweigh 8 m^2 bytes
        basis = sp.build_interval_basis("neumann", 64, 4.0, 129)
        config = st.SchemeConfig(op_A=sp.FractionalOperator(basis, 0.5),
                                 op_B=sp.FractionalOperator(basis, 0.5),
                                 spec=pot.make_potential("obstacle", c2=1.0),
                                 yosida_lambda=1e-3, tau=0.25, h=0.01, steps=20)
        grid = config.grid
        m = grid.size
        source = st.DecaySource(sp.constant_field(0.8, grid), cosine_field(grid, [0, 0, 1.0]), 0.5)
        shapes = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: shapes.append(a.shape) or solve(a, b))
        traj = st.run(config, st.ProblemData(y0=cosine_field(grid, [0.1, 0.6, 0.2]), source=source))
        (ws,) = counted_workspaces
        held = [*vars(ws).values(), *(ws.active or ())]
        assert not any(isinstance(a, np.ndarray) and a.shape == (m, m) for a in held)
        assert len(shapes) == sum(s.iterations for s in traj.solver_stats)
        assert any(side > 0 for side, _ in shapes)   # node directions on a contact set
        assert all(side < m for side, _ in shapes)


@pytest.mark.parametrize("points, modes", [(100, 80), (300, 50)], ids=["dense", "factored"])
def test_analysis_matches_the_weighted_matrix_off_powers_of_two(points, modes):
    # length 3 gives the grid the weights 3/(points - 1), no powers of two, so
    # weighting the rows before the product with the modes rounds apart from
    # the product with the weighted matrix modes.T diag(w) the basis once kept;
    # the two agree to round-off, with more modes than 3/5 of the nodes, so
    # that Newton takes the dense LU where it leaves the node branch, or fewer
    basis = sp.build_interval_basis("neumann", modes, 3.0, points)
    grid = basis.grid
    assert np.any(np.frexp(grid.w)[0] != 0.5)
    ws = st._Workspace(st.SchemeConfig(
        op_A=sp.FractionalOperator(basis, 0.5), op_B=sp.FractionalOperator(basis, 0.7),
        spec=pot.make_potential("obstacle", c2=1.0), yosida_lambda=1e-2, tau=0.3,
        h=0.05, steps=1))
    assert ws.mode_branch == (points == 300)
    weighted = (basis.modes * grid.w[:, None]).T

    def assert_close(ours, oracle):
        assert np.abs(ours - oracle).max() <= 1e-14 * np.abs(oracle).max()

    rng = np.random.default_rng(11)
    mu, y, d = rng.normal(size=(3, points))
    assert_close(basis.coefficients(np.array((mu, y))), np.array((mu, y)) @ weighted.T)
    assert_close(ws.apply(d), ws.a * d + basis.modes @ (ws.kappa * (weighted @ d)))
    a_mu, part = ws.spectral(mu, y)
    assert_close(a_mu, basis.modes @ (ws.power_a * (weighted @ mu)))
    assert_close(part, basis.modes @ (ws.shifted_a * (weighted @ mu)
                                      - ws.power_b * (weighted @ y)))


class TestRun:
    def test_no_steps(self):
        config = neumann_config(pot.make_potential("regular"), steps=0)
        y0 = sp.constant_field(0.0, config.grid)
        traj = st.run(config, st.ProblemData(y0=y0, source=st.zero_source(config.grid)))
        assert traj.steps == 0
        assert sp.norm(traj.snapshot(0)[1]) == 0.0

    def test_zero_data_zero_trajectory(self):
        config = neumann_config(pot.make_potential("regular"), steps=5)
        y0 = sp.constant_field(0.0, config.grid)
        traj = st.run(config, st.ProblemData(y0=y0, source=st.zero_source(config.grid)))
        assert traj.columns["norm_y"].max() <= 1e-12
        assert traj.columns["norm_mu"].max() <= 1e-12

    def test_mass_identity(self, small_obstacle_run):
        traj = small_obstacle_run
        mass = traj.columns["mean_y"] + traj.h * traj.columns["mean_mu"]
        assert np.abs(mass - mass[0]).max() <= 1e-10

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

    @pytest.mark.parametrize("y0", ["cosine", "random"])
    def test_step_accepted_at_roundoff_floor(self, y0):
        # the largest eigenvalue of B^{2s} is about 1.6e9 here, so evaluating
        # the residual leaves round-off above the default newton_tol of 1e-10;
        # Newton accepts the step there instead of stalling
        config = neumann_config(pot.make_potential("regular"), n=33, points=33, length=0.5,
                                r=1.0, sigma=1.0, tau=0.0, lam=1 / 16, h=1 / 32, steps=1)
        grid = config.grid
        rng = np.random.default_rng(4)
        if y0 == "cosine":
            data = st.ProblemData(y0=cosine_field(grid, [0.1, 0.4, 0.2]),
                                  source=st.zero_source(grid))
        else:
            data = st.ProblemData(
                y0=sp.Field(rng.uniform(-0.5, 0.5, grid.size), grid),
                source=st.DecaySource(sp.constant_field(0.0, grid),
                                      sp.Field(rng.uniform(-0.5, 0.5, grid.size), grid), 1.0))
        traj = st.run(config, data)
        assert traj.solver_stats[0].residual_potential > config.newton_tol
        mass = traj.columns["mean_y"] + traj.h * traj.columns["mean_mu"]
        assert abs(mass[1] - mass[0]) <= 1e-10
        ledger = est.gronwall_ledger(traj)
        scale = max(np.abs(ledger.terms[0]).max(), abs(ledger.rhs_bound[0]), est.SLACK_FLOOR)
        assert ledger.slack[0] >= -1e-8 * scale

    def test_failed_line_search_names_both_tolerances(self):
        # a slope of the wrong sign makes the Newton direction an ascent direction
        spec = dataclasses.replace(pot.make_potential("regular"),
                                   yosida_slope=lambda lam, s, value: np.full_like(s, -100.0))
        config = neumann_config(spec, steps=1)
        data = st.ProblemData(y0=cosine_field(config.grid, [0.1, 0.4, 0.2]),
                              source=st.zero_source(config.grid))
        with pytest.raises(st.StepError) as excinfo:
            st.run(config, data)
        residual = excinfo.value.residual_history[-1]
        message = str(excinfo.value)
        assert message.startswith(f"Newton step could not reduce the residual {residual:.3e} "
                                  "below newton_tol 1.0e-10 or its round-off floor ")
        assert excinfo.value.exit_code == 3

    @pytest.mark.parametrize("kind", ["neumann", "dirichlet"])
    def test_mode_directions_match_the_dense_lu_run(self, kind, monkeypatch):
        # a logarithmic run whose every Newton direction goes along the
        # modes, against the same run with the dense LU patched in
        config = warm_start_config(kind, "logarithmic")
        grid = config.grid
        data = st.ProblemData(y0=cosine_field(grid, [0.1, 0.6, 0.2]),
                              source=st.DecaySource(sp.constant_field(0.8, grid),
                                                    cosine_field(grid, [0.0, 0.0, 1.0]), 0.5))
        calls = []
        along = st._Workspace._along_modes
        monkeypatch.setattr(st._Workspace, "_along_modes",
                            lambda ws, slope, g: calls.append(1) or along(ws, slope, g))
        modes = recorded_run(config, data)
        k = dense_step_operator(config)
        monkeypatch.setattr(st._Workspace, "_along_modes",
                            lambda ws, slope, g: np.linalg.solve(k + np.diag(slope), -g))
        dense = recorded_run(config, data)
        iterations = [s.iterations for s in modes[0].solver_stats]
        assert iterations == [s.iterations for s in dense[0].solver_stats]
        assert len(calls) == sum(iterations) > config.steps
        for ours, oracle in zip(modes[1:], dense[1:]):
            assert np.abs(ours - oracle).max() <= 1e-12 * np.abs(oracle).max()

    def test_refinement_reduces_state_difference(self):
        from conftest import smooth_benchmark
        t_final = 0.8
        states = [final_y(smooth_benchmark(h, int(round(t_final / h)), 1e-2))
                  for h in (0.1, 0.05, 0.025)]
        d1 = sp.norm(states[0] - states[1])
        d2 = sp.norm(states[1] - states[2])
        assert d2 < d1 / 1.3


WARM_START_WELLS = {"obstacle": ("obstacle", {"c2": 1.0}),
                    "logarithmic": ("logarithmic", {"c1": 1.5}),
                    "quartic": ("regular", {})}


def warm_start_config(kind, well, h=0.1, steps=20):
    """A 16-mode run on either first-eigenvalue branch, stiff enough that
    Newton takes more than one iteration on most steps of the smooth wells."""
    basis = sp.build_interval_basis(kind, 16, 2.0, 33)
    name, params = WARM_START_WELLS[well]
    return st.SchemeConfig(op_A=sp.FractionalOperator(basis, 0.5),
                           op_B=sp.FractionalOperator(basis, 0.5),
                           spec=pot.make_potential(name, **params),
                           yosida_lambda=1e-3, tau=0.5, h=h, steps=steps)


class TestWarmStart:
    """``run`` starts Newton at the previous increment; the cold start of
    ``solve_step`` (``d = 0`` on every step) is its oracle."""

    @pytest.mark.parametrize("kind", ["neumann", "dirichlet"])
    @pytest.mark.parametrize("well", sorted(WARM_START_WELLS))
    def test_matches_cold_chain(self, kind, well):
        config = warm_start_config(kind, well)
        grid = config.grid
        data = st.ProblemData(y0=cosine_field(grid, [0.1, 0.6, 0.2]),
                              source=st.DecaySource(sp.constant_field(0.8, grid),
                                                    cosine_field(grid, [0.0, 0.0, 1.0]), 0.5))
        warm, cold = assert_matches_cold_chain(config, data)
        if well != "obstacle":
            # a revert to d = 0 makes the two counts equal
            assert warm < cold

    @pytest.mark.parametrize("kind", ["neumann", "dirichlet"])
    def test_tabulated_source_with_jumps(self, kind):
        # the source jumps at t = 0.4, 0.9 and 1.5, where the previous
        # increment is a poor start
        config = warm_start_config(kind, "obstacle", h=0.05, steps=40)
        grid = config.grid
        fields = [cosine_field(grid, c)
                  for c in ([0.0, 1.5], [1.0, -1.6, 0.2], [-1.2, 0.0, 1.4], [0.0])]
        source = st.TabulatedSource(np.array([0.0, 0.4, 0.9, 1.5]), fields)
        assert_matches_cold_chain(config, st.ProblemData(
            y0=cosine_field(grid, [0.1, 0.6, 0.2]), source=source))

    @pytest.mark.parametrize("kind", ["neumann", "dirichlet"])
    def test_obstacle_at_half_step(self, kind):
        # h = 0.5: the cold start needs over a hundred line-search halvings
        config = warm_start_config(kind, "obstacle", h=0.5)
        grid = config.grid
        source = st.DecaySource(sp.constant_field(0.5, grid), cosine_field(grid, [0.0, 1.5]), 0.3)
        assert_matches_cold_chain(config, st.ProblemData(
            y0=cosine_field(grid, [0.1, 0.6, 0.2]), source=source))

    @pytest.mark.parametrize("kind, length, exponent_a, y0, totals", [
        ("neumann", 1.0, 1.0, [0.1, 0.05], (23, 13)),
        ("dirichlet", 0.5, 0.5, [0.1, 0.1, 0.05], (20, 10)),
    ], ids=["neumann", "dirichlet"])
    def test_settling_run_iteration_totals(self, kind, length, exponent_a, y0, totals):
        # the run settles within about ten steps; from there the cold start
        # meets newton_tol at d = 0, while the previous increment, too large
        # by a little, costs one iteration about every other step.  The
        # totals are pinned as they stand, so that a change of the start
        # rule shows in them.  Every start residual lies at least 1.9% away
        # from newton_tol, far outside round-off
        basis = sp.build_interval_basis(kind, 8, length, 17)
        config = st.SchemeConfig(op_A=sp.FractionalOperator(basis, exponent_a),
                                 op_B=sp.FractionalOperator(basis, 1.0),
                                 spec=pot.make_potential("logarithmic", c1=1.5),
                                 yosida_lambda=1e-3, tau=0.0, h=0.0026, steps=30)
        grid = config.grid
        data = st.ProblemData(y0=cosine_field(grid, y0),
                              source=st.DecaySource(sp.constant_field(0.4, grid)))
        assert assert_matches_cold_chain(config, data) == totals


def carry_problem(kind_a, kind_b, well, h, steps, source, points=33):
    """A 16-mode run, on one basis when the two kinds agree."""
    basis_a = sp.build_interval_basis(kind_a, 16, 2.0, points)
    basis_b = basis_a if kind_b == kind_a else sp.build_interval_basis(kind_b, 16, 2.0, points)
    name, params = WARM_START_WELLS[well]
    config = st.SchemeConfig(op_A=sp.FractionalOperator(basis_a, 0.5),
                             op_B=sp.FractionalOperator(basis_b, 0.5),
                             spec=pot.make_potential(name, **params),
                             yosida_lambda=1e-3, tau=0.5, h=h, steps=steps)
    grid = config.grid
    if source == "decay":
        u = st.DecaySource(sp.constant_field(0.8, grid), cosine_field(grid, [0.0, 0.0, 1.0]), 0.5)
    else:   # jumps at t = 0.4, 0.9 and 1.5
        fields = [cosine_field(grid, c)
                  for c in ([0.0, 1.5], [1.0, -1.6, 0.2], [-1.2, 0.0, 1.4], [0.0])]
        u = st.TabulatedSource(np.array([0.0, 0.4, 0.9, 1.5]), fields)
    return config, st.ProblemData(y0=cosine_field(grid, [0.1, 0.6, 0.2]), source=u)


CARRY_PROBLEMS = {
    # the arguments of carry_problem, and the steps whose line search damps
    "shared-obstacle": (("neumann", "neumann", "obstacle", 0.5, 20, "decay"), [0]),
    "shared-logarithmic": (("neumann", "neumann", "logarithmic", 0.1, 20, "decay"), []),
    # the same run on the grid of the README example
    "factored-obstacle": (("neumann", "neumann", "obstacle", 0.5, 20, "decay", 129), [0, 2]),
    "two-bases-obstacle": (("dirichlet", "neumann", "obstacle", 0.05, 40, "tabulated"),
                           [8, 11, 18, 29]),
    "two-bases-logarithmic": (("dirichlet", "neumann", "logarithmic", 0.1, 20, "decay"), []),
}


@pytest.fixture
def counted_workspaces(monkeypatch):
    """Every workspace built from here on, with ``products``, the count of
    its applications of ``K``."""
    built = []
    init, apply = st._Workspace.__init__, st._Workspace.apply

    def counted_init(ws, config):
        init(ws, config)
        ws.products = 0
        built.append(ws)

    def counted_apply(ws, d):
        ws.products += 1
        return apply(ws, d)

    monkeypatch.setattr(st._Workspace, "__init__", counted_init)
    monkeypatch.setattr(st._Workspace, "apply", counted_apply)
    return built


class TestCarry:
    """``run`` hands each step's increment, its ``K d`` and the spectral part
    of the next right-hand side to the next step; ``solve_step`` computes
    them from its rows."""

    @pytest.mark.parametrize("problem", sorted(CARRY_PROBLEMS))
    def test_every_step_matches_a_step_with_a_fresh_carry(self, problem, monkeypatch):
        args, damped = CARRY_PROBLEMS[problem]
        config, data = carry_problem(*args)
        carries = []
        advance = st._advance
        monkeypatch.setattr(st, "_advance", lambda ws, y, mu, u, carry:
                            carries.append(carry) or advance(ws, y, mu, u, carry))
        traj, ys, mus = recorded_run(config, data)
        monkeypatch.undo()
        assert len(carries) == config.steps
        assert [n for n, s in enumerate(traj.solver_stats) if s.dampings] == damped
        ws = st._Workspace(config)
        for n, carry in enumerate(carries):
            y, mu = ys[n], mus[n]
            # the increment of the step before, as Newton returned it
            fresh = st._fresh_carry(ws, y, mu, carry[0])
            assert all(np.array_equal(a, b) for a, b in zip(carry, fresh))
            y_next, mu_next, _, stats = st._advance(
                ws, y, mu, data.source.at((n + 1) * config.h).values, fresh)
            assert np.array_equal(y_next, ys[n + 1])
            assert np.array_equal(mu_next, mus[n + 1])
            assert stats == traj.solver_stats[n]

    def test_every_newton_exit_returns_k_times_its_iterate(self, monkeypatch):
        exits = set()
        newton = st._newton_solve

        def checked(ws, y_prev, r, d, kd):
            d, kd, iterations, res, dampings = newton(ws, y_prev, r, d, kd)
            assert np.array_equal(kd, ws.apply(d))
            cfg = ws.config
            if res > cfg.newton_tol:
                exits.add("floor, line search" if iterations < cfg.newton_max
                          else "floor, newton_max")
            else:
                exits.add("start" if iterations == 0 else "converged")
            return d, kd, iterations, res, dampings

        monkeypatch.setattr(st, "_newton_solve", checked)
        # a settling run: from the previous increment some steps meet
        # newton_tol at once, others after an iteration
        basis = sp.build_interval_basis("neumann", 8, 1.0, 17)
        config = st.SchemeConfig(op_A=sp.FractionalOperator(basis, 1.0),
                                 op_B=sp.FractionalOperator(basis, 1.0),
                                 spec=pot.make_potential("logarithmic", c1=1.5),
                                 yosida_lambda=1e-3, tau=0.0, h=0.0026, steps=30)
        grid = config.grid
        st.run(config, st.ProblemData(y0=cosine_field(grid, [0.1, 0.05]),
                                      source=st.DecaySource(sp.constant_field(0.4, grid))))
        assert exits == {"start", "converged"}
        # B^{2s} up to about 1.6e9 leaves the residual at a round-off floor
        # above newton_tol: the first step stops there after a failed line
        # search, or at newton_max when that is 3
        for newton_max, exit in ((50, "floor, line search"), (3, "floor, newton_max")):
            exits.clear()
            config = neumann_config(pot.make_potential("regular"), n=33, points=33,
                                    length=0.5, r=1.0, sigma=1.0, tau=0.0, lam=1 / 16,
                                    h=1 / 32, steps=3, newton_max=newton_max)
            grid = config.grid
            st.run(config, st.ProblemData(y0=cosine_field(grid, [0.1, 0.4, 0.2]),
                                          source=st.zero_source(grid)))
            assert exit in exits

    @pytest.mark.parametrize("problem", sorted(CARRY_PROBLEMS))
    def test_k_products_per_run(self, problem, counted_workspaces, monkeypatch):
        # every residual takes one product with K, except the first residual
        # of each step after the first, which takes the carried one
        config, data = carry_problem(*CARRY_PROBLEMS[problem][0])
        calls = []
        yosida = pot.yosida
        monkeypatch.setattr(pot, "yosida",
                            lambda spec, lam, s: calls.append(1) or yosida(spec, lam, s))
        traj = st.run(config, data, (1, 2))
        (ws,) = counted_workspaces
        trial_points = sum(s.iterations + s.dampings for s in traj.solver_stats)
        assert len(calls) == config.steps + trial_points
        assert ws.products == len(calls) - (config.steps - 1) == trial_points + 1
        calls.clear()
        st.solve_step(*traj.snapshot(1), data.source.at(2 * config.h), config,
                      start=traj.snapshot(2)[0])
        assert counted_workspaces[1].products == len(calls)


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
