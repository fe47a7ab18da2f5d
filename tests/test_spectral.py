"""Spectral bases, fractional powers, norms and the sharp gap inequality."""

import tracemalloc

import numpy as np
import pytest

from fracch import spectral as sp
from fracch.errors import (
    ConfigurationError,
    DimensionError,
    HypothesisError,
    OperatorError,
    SpectrumHypothesisError,
)


def random_field(basis, rng, scale=1.0):
    return sp.Field(rng.normal(size=basis.grid.size) * scale, basis.grid)


class TestIntervalBasis:
    def test_neumann_closed_form_spectrum(self):
        b = sp.build_interval_basis("neumann", 3, 1.0, 33)
        assert np.allclose(b.lambdas, [0.0, np.pi**2, 4 * np.pi**2], rtol=1e-14)
        assert b.first_mode_is_constant()

    def test_dirichlet_closed_form_spectrum(self):
        b = sp.build_interval_basis("dirichlet", 2, 1.0, 33)
        assert np.allclose(b.lambdas, [np.pi**2, 4 * np.pi**2], rtol=1e-14)
        assert b.lambdas[0] > 0

    def test_gram_identity(self):
        b = sp.build_interval_basis("neumann", 8, 2.0, 33)
        assert b.gram_defect() <= 1e-10

    @pytest.mark.parametrize("kind,n,points", [
        ("neumann", 40, 33),
        ("dirichlet", 32, 33),
        ("neumann", 0, 33),
    ])
    def test_invalid_counts(self, kind, n, points):
        with pytest.raises(ConfigurationError):
            sp.build_interval_basis(kind, n, 1.0, points)

    def test_invalid_length(self):
        with pytest.raises(ConfigurationError):
            sp.build_interval_basis("neumann", 4, -1.0, 17)


class TestBasisBytes:
    @pytest.mark.parametrize("m, n", [(1000, 200), (2001, 1000)])
    def test_build_peak_and_kept_bytes(self, m, n):
        # the build peaks at three m x n arrays (the modes, the copy the basis
        # keeps, their weighted copy in the orthonormality check) and its n x n
        # Gram matrix; the built basis keeps its modes, one m x n array; the
        # grid and the eigenvalues add O(m + n) bytes to both
        tracemalloc.start()
        try:
            basis = sp.build_interval_basis("neumann", n, 4.0, m)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        slack = 32 * (m + n) + 4096
        assert sp.basis_bytes(m, n) == 8 * (3 * m * n + n * n)
        assert sp.basis_bytes(m, n) <= peak <= sp.basis_bytes(m, n) + slack
        assert sp.basis_bytes(m, n, built=True) == 8 * m * n == basis.modes.nbytes
        assert 8 * m * n <= kept <= 8 * m * n + slack


class TestMatrixBasis:
    def test_identity_matrix(self):
        b = sp.build_matrix_basis(np.eye(4))
        assert np.allclose(b.lambdas, 1.0)
        assert b.gram_defect() <= 1e-12

    def test_diagonal_matrix(self):
        b = sp.build_matrix_basis(np.diag([0.0, 1.0, 2.0, 3.0]))
        assert np.allclose(b.lambdas, [0, 1, 2, 3])
        # coordinate modes up to sign
        assert np.allclose(np.abs(b.modes), np.eye(4), atol=1e-14)

    def test_random_symmetric_reconstruction(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(6, 6))
        m = a @ a.T  # positive semidefinite
        b = sp.build_matrix_basis(m)
        rebuilt = (b.modes * b.lambdas) @ b.modes.T
        assert np.abs(rebuilt - m).max() <= 1e-10

    def test_asymmetric_rejected(self):
        m = np.eye(3)
        m[0, 1] = 1e-6
        with pytest.raises(OperatorError):
            sp.build_matrix_basis(m)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(OperatorError):
            sp.build_matrix_basis(np.diag([-1.0, 1.0]))

    def test_tiny_negative_clamped(self):
        b = sp.build_matrix_basis(np.diag([-1e-13, 1.0]))
        assert b.lambdas[0] == 0.0

    def test_size_cap(self):
        with pytest.raises(ConfigurationError):
            sp.build_matrix_basis(np.eye(513))

    def test_matrix_file_roundtrip(self, tmp_path):
        m = np.diag([0.0, 2.0, 5.0])
        path = tmp_path / "op.txt"
        lines = ["3"] + [" ".join(format(v, ".17g") for v in row) for row in m]
        path.write_text("\n".join(lines) + "\n")
        assert np.array_equal(sp.load_matrix_file(path), m)

    def test_matrix_file_malformed(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 0\n")
        with pytest.raises(ConfigurationError):
            sp.load_matrix_file(path)


class TestTransforms:
    def test_analyze_eigenvector(self, neumann16):
        f = sp.Field(neumann16.modes @ np.eye(16)[1], neumann16.grid)
        c = neumann16.analyze(f)
        expected = np.zeros(16)
        expected[1] = 1.0
        assert np.abs(c - expected).max() <= 1e-12

    def test_zero_coefficients(self, neumann16):
        f = sp.Field(neumann16.modes @ np.zeros(16), neumann16.grid)
        assert sp.norm(f) == 0.0

    def test_roundtrip_in_span(self, neumann16):
        rng = np.random.default_rng(5)
        c = rng.normal(size=16)
        f = sp.Field(neumann16.modes @ c, neumann16.grid)
        back = sp.Field(neumann16.modes @ neumann16.analyze(f), neumann16.grid)
        assert sp.norm(back - f) <= 1e-11

    def test_grid_mismatch(self, neumann16):
        other = sp.interval_grid(4.0, 17)
        with pytest.raises(DimensionError):
            neumann16.analyze(sp.constant_field(1.0, other))


class TestApplyPower:
    def test_eigenvector_scaling_half_power(self):
        b = sp.build_interval_basis("neumann", 4, 1.0, 33)
        op = sp.FractionalOperator(b, 0.5)
        e2 = sp.Field(b.modes @ np.eye(4)[1], b.grid)
        out = sp.apply_power(op, e2)
        assert sp.norm(out - np.pi * e2) <= 1e-10 * np.pi

    def test_constant_annihilated(self, neumann16):
        op = sp.FractionalOperator(neumann16, 0.7)
        out = sp.apply_power(op, sp.constant_field(3.0, neumann16.grid))
        assert sp.norm(out) <= 1e-12

    def test_matrix_full_power_matches_dense_product(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(4, 4))
        m = a @ a.T
        b = sp.build_matrix_basis(m)
        op = sp.FractionalOperator(b, 1.0)
        v = sp.Field(rng.normal(size=4), b.grid)
        assert sp.norm(sp.apply_power(op, v) - sp.Field(m @ v.values, b.grid)) <= 1e-10

    def test_eigenvector_scaling_all_modes(self, neumann16):
        for p in (0.5, 1.0, 1.7):
            op = sp.FractionalOperator(neumann16, p)
            for j in range(16):
                ej = sp.Field(neumann16.modes @ np.eye(16)[j], neumann16.grid)
                out = sp.apply_power(op, ej)
                lam = neumann16.lambdas[j] ** p
                assert sp.norm(out - lam * ej) <= 1e-10 * max(lam, 1.0)

    def test_power_semigroup(self, neumann16):
        rng = np.random.default_rng(9)
        op = sp.FractionalOperator(neumann16, 0.6)
        v = random_field(neumann16, rng)
        twice = sp.apply_power(op, sp.apply_power(op, v))
        doubled = sp.apply_power(op, v, 2.0)
        assert sp.norm(twice - doubled) <= 1e-10 * max(sp.norm(doubled), 1.0)

    def test_mean_annihilation(self, neumann16):
        rng = np.random.default_rng(13)
        op = sp.FractionalOperator(neumann16, 0.8)
        for _ in range(20):
            v = random_field(neumann16, rng)
            assert abs(sp.mean(sp.apply_power(op, v, 2.0))) <= 1e-10


class TestSolveShifted:
    """A step takes ``mu+ = (I + A2r)^(-1) (mu - d/h)`` from the carried ``c(mu)``."""

    def test_shifted_equation_holds_nodally(self, readme_long_run):
        # on every step of a long run, against a fresh analysis of each mu+:
        # (I + A2r) mu+ = mu - d/h to 1e-12 of the row scale, the larger of
        # |mu - d/h| and |mu+| times the largest weight of I + A2r, which
        # multiplies the rounding of mu+ in its top mode (2.8e-15 of it on
        # this run, as when each step analyses mu - d/h afresh)
        config, ys, mus, _ = readme_long_run
        grid = config.grid
        rest = mus[:-1] - np.diff(ys, axis=0) / config.h
        shifted = mus[1:] + sp.power_rows(config.op_A, mus[1:], 2.0)
        scale = np.maximum(sp.row_norms(rest, grid), (1.0 + config.op_A.power_weights(2.0).max())
                           * sp.row_norms(mus[1:], grid))
        assert np.all(sp.row_norms(shifted - rest, grid) <= 1e-12 * scale)


class TestNorms:
    def test_dual_norm_formula(self, neumann16):
        rng = np.random.default_rng(19)
        op = sp.FractionalOperator(neumann16, 0.5)
        v = random_field(neumann16, rng)
        c = neumann16.analyze(v)
        lam = neumann16.lambdas
        direct = np.sqrt(c[0] ** 2 + np.sum((lam[1:] ** -0.5 * c[1:]) ** 2))
        assert abs(sp.dual_norms(op, c) - direct) <= 1e-12 * max(direct, 1.0)

    def test_dual_norms_leave_the_shared_weights_unchanged(self, neumann16):
        op = sp.FractionalOperator(neumann16, 0.5)
        weights = op.power_weights(-1.0)
        before = weights.copy()
        sp.dual_norms(op, np.ones((2, 16)))
        assert op.power_weights(-1.0) is weights
        assert np.array_equal(weights, before, equal_nan=True) and weights[0] == 0.0
        for multiplier in (1.0, 2.0, -1.0):
            assert not op.power_weights(multiplier).flags.writeable


class TestMean:
    def test_constant(self, neumann16):
        assert abs(sp.mean(sp.constant_field(2.5, neumann16.grid)) - 2.5) <= 1e-14

    def test_cosine_mode_integrates_to_zero(self, neumann16):
        e2 = sp.Field(neumann16.modes @ np.eye(16)[1], neumann16.grid)
        assert abs(sp.mean(e2)) <= 1e-12

    def test_matches_trapezoid_oracle(self, neumann16):
        rng = np.random.default_rng(23)
        v = random_field(neumann16, rng)
        oracle = np.trapezoid(v.values, neumann16.grid.x) / neumann16.grid.length
        assert abs(sp.mean(v) - oracle) <= 1e-12


class TestPoincare:
    def test_neumann_unit_interval_constants(self):
        b = sp.build_interval_basis("neumann", 4, 1.0, 33)
        assert abs(sp.poincare_constant(sp.FractionalOperator(b, 1.0)) - np.pi**-2) <= 1e-14
        assert abs(sp.poincare_constant(sp.FractionalOperator(b, 0.5)) - np.pi**-1) <= 1e-14

    def test_matrix_gap_constant_sharp(self):
        b = sp.build_matrix_basis(np.diag([0.0, 2.0, 5.0]))
        op = sp.FractionalOperator(b, 1.0)
        cp = sp.poincare_constant(op)
        assert cp == pytest.approx(0.5, abs=1e-14)
        rng = np.random.default_rng(29)
        best = 0.0
        for _ in range(200):
            v = rng.normal(size=3)
            v[0] = 0.0  # kernel-orthogonal
            f = sp.Field(b.modes @ v, b.grid)
            ratio = sp.norm(f) / sp.norm(sp.apply_power(op, f))
            best = max(best, ratio)
            assert ratio <= cp * (1 + 1e-12)
        e2 = sp.Field(b.modes @ np.eye(3)[1], b.grid)
        attained = sp.norm(e2) / sp.norm(sp.apply_power(op, e2))
        assert abs(attained - cp) <= 1e-10

    def test_positive_first_eigenvalue_rejected(self):
        b = sp.build_interval_basis("dirichlet", 3, 1.0, 33)
        with pytest.raises(HypothesisError):
            sp.poincare_constant(sp.FractionalOperator(b, 1.0))

    def test_degenerate_gap_rejected(self):
        b = sp.build_matrix_basis(np.diag([0.0, 0.0, 1.0]))
        with pytest.raises(SpectrumHypothesisError):
            sp.poincare_constant(sp.FractionalOperator(b, 1.0))

    def test_zero_mean_fields_bounded(self, neumann16):
        rng = np.random.default_rng(31)
        op = sp.FractionalOperator(neumann16, 0.5)
        cp = sp.poincare_constant(op)
        for _ in range(200):
            c = rng.normal(size=16)
            c[0] = 0.0
            v = sp.Field(neumann16.modes @ c, neumann16.grid)
            assert sp.norm(v) <= cp * sp.norm(sp.apply_power(op, v)) * (1 + 1e-12)
        e2 = sp.Field(neumann16.modes @ np.eye(16)[1], neumann16.grid)
        assert abs(sp.norm(e2) / sp.norm(sp.apply_power(op, e2)) - cp) <= 1e-10 * cp


class TestFractionalOperatorInvariants:
    def test_positive_exponent_required(self, neumann16):
        with pytest.raises(ConfigurationError):
            sp.FractionalOperator(neumann16, 0.0)

    def test_immutability(self, neumann16):
        f = sp.constant_field(1.0, neumann16.grid)
        with pytest.raises(ValueError):
            f.values[0] = 2.0
        with pytest.raises(ValueError):
            neumann16.lambdas[0] = 1.0
