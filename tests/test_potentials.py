"""Potential splits, resolvents, regularized values and their brute-force oracles."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from fracch import potentials as pot
from fracch.errors import CoercivityError, ConfigurationError, DomainError, NumericalError

ALL_SPECS = {
    "regular": pot.make_potential("regular"),
    "logarithmic": pot.make_potential("logarithmic", c1=2.0),
    "obstacle": pot.make_potential("obstacle", c2=1.0),
    "example_best": pot.make_potential("example_best"),
}

# the logarithmic graph saturates to its open boundary in double precision
# for arguments far outside (-1, 1); sample where selections are representable
SAMPLE_SPAN = {"regular": 3.0, "logarithmic": 0.9, "obstacle": 3.0, "example_best": 3.0}


def zeros(s):
    return np.zeros_like(np.asarray(s, dtype=float))


# beta(r) = 2r with no perturbation; its regularized value is s^2/(1+2*lam)
QUADRATIC = dict(beta_hat=lambda s: np.asarray(s, dtype=float) ** 2,
                 beta=lambda y: (2.0 * y, 2.0 * y), pi_hat=zeros, pi=zeros,
                 pi_prime=zeros, lipschitz_pi=0.0, smooth_graph=True)


def grid_minimizer(spec, lam, s, points=10**6):
    """Independent oracle: minimize the quadratic-plus-convex objective on a grid."""
    dom = spec.beta_hat_domain
    lo = max(dom.lo, -5.0)
    hi = min(dom.hi, 5.0)
    r = np.linspace(lo, hi, points)
    values = (r - s) ** 2 / (2.0 * lam) + spec.beta_hat(r)
    i = int(np.argmin(values))
    return r[i], float(values[i]), (hi - lo) / (points - 1)


class TestMakePotential:
    def test_logarithmic_matches_entropy_formula(self):
        spec = ALL_SPECS["logarithmic"]
        assert spec.beta_hat(np.array([0.0]))[0] == 0.0
        r = 0.3
        expected = (1 + r) * math.log(1 + r) + (1 - r) * math.log(1 - r)
        assert spec.beta_hat(np.array([r]))[0] == pytest.approx(expected, rel=1e-14)
        assert spec.beta_domain.lo == -1.0 and spec.beta_domain.hi == 1.0
        assert not spec.beta_domain.contains(1.0)  # open interval

    def test_obstacle_indicator(self):
        spec = ALL_SPECS["obstacle"]
        assert spec.beta_hat(np.array([2.0]))[0] == np.inf
        assert spec.beta_hat(np.array([0.5]))[0] == 0.0

    def test_nonunique_graph_jump_at_origin(self):
        spec = ALL_SPECS["example_best"]
        assert spec.beta(0.0) == (-1.0, 1.0)
        assert spec.beta(0.5) == (2.0, 2.0)

    def test_regular_split(self):
        spec = ALL_SPECS["regular"]
        # beta_hat + pi_hat reassembles the quartic double well
        r = np.linspace(-2, 2, 101)
        total = spec.beta_hat(r) + spec.pi_hat(r)
        assert np.abs(total - 0.25 * (r**2 - 1) ** 2).max() <= 1e-14
        assert spec.lipschitz_pi == 1.0

    @pytest.mark.parametrize("name,params", [
        ("logarithmic", {"c1": 1.0}),
        ("logarithmic", {}),
        ("obstacle", {"c2": 0.0}),
        ("regular", {"c1": 2.0}),
        ("nope", {}),
    ])
    def test_parameter_bounds(self, name, params):
        with pytest.raises(ConfigurationError):
            pot.make_potential(name, **params)


class TestResolvent:
    def test_obstacle_projection(self):
        spec, lam = ALL_SPECS["obstacle"], 0.7
        assert spec.resolvent(lam, 2.5) == 1.0
        assert spec.resolvent(lam, -3.0) == -1.0
        assert spec.resolvent(lam, 0.4) == 0.4

    def test_nonunique_graph_closed_form(self):
        spec, lam = ALL_SPECS["example_best"], 0.5
        j = spec.resolvent(lam, 1.0)
        assert j == pytest.approx(0.25, abs=1e-14)
        # frozen from the 10^6-point grid minimization of the primal objective
        r_star, _, spacing = grid_minimizer(ALL_SPECS["example_best"], 0.5, 1.0)
        assert abs(j - r_star) <= 2 * spacing

    def test_logarithmic_odd_symmetry(self):
        spec, lam = ALL_SPECS["logarithmic"], 0.3
        assert spec.resolvent(lam, 0.0) == 0.0
        assert spec.resolvent(lam, 0.5) == pytest.approx(-spec.resolvent(lam, -0.5), abs=1e-14)

    def test_regular_cubic_root(self):
        spec, lam = ALL_SPECS["regular"], 0.1
        j = spec.resolvent(lam, 1.0)
        assert j + 0.1 * j**3 == pytest.approx(1.0, abs=1e-14)

    def test_custom_graph_bisection(self):
        # beta(r) = 2r built as a custom spec exercises the generic path
        spec, lam = pot.custom_potential(**QUADRATIC), 0.25
        for s in (-2.0, -0.3, 0.0, 1.7):
            assert spec.resolvent(lam, s) == pytest.approx(s / 1.5, abs=1e-12)


def logarithmic_defect(lam, s, value):
    """``|tanh(theta) + 2 lam theta - s|`` at ``theta = value/2``, the resolvent's equation."""
    theta = 0.5 * value
    return np.abs(np.tanh(theta) + 2.0 * lam * theta - s)


def reference_logarithmic_newton(lam, s, tol=1e-12, budget=100):
    """``potentials._logarithmic_newton`` with each formula as one expression,
    the oracle of its in-place arithmetic."""
    s = np.asarray(s, dtype=float)
    a = np.abs(s)
    u = np.where(a < 1.0, a, 0.0)
    v = 1.0 - u * u
    bound = np.maximum((a - 1.0) / (2.0 * lam), a / (1.0 + 2.0 * lam))
    theta = np.copysign(np.maximum(np.arctanh(u) * v / (v + 2.0 * lam), bound), s)
    for _ in range(budget):
        t = np.tanh(theta)
        f = t + 2.0 * lam * theta - s
        theta = theta - f / ((1.0 - t * t) + 2.0 * lam)
        if np.max(np.abs(f)) < tol:
            return np.tanh(theta), 2.0 * theta
    raise NumericalError("no convergence")


class TestLogarithmicResolvent:
    @pytest.mark.parametrize("lam", [1e-1, 1e-4, 1e-8])
    def test_in_place_arithmetic_matches_the_formulas(self, lam):
        s = np.random.default_rng(5).uniform(-3.0, 3.0, (7, 129))
        s[0, :12] = [0.0, -0.0, 1.0, -1.0, 1e-300, -5e-324, 1e-13, 1 - 1e-16, 3.0, -3.0,
                     0.999999, 1.0000001]
        for ours, oracle in zip(pot._logarithmic_newton(lam, s),
                                reference_logarithmic_newton(lam, s)):
            assert ours.shape == oracle.shape and ours.tobytes() == oracle.tobytes()
        for point in (0.3, -0.7, 1.0, 2.5, -0.0):
            ours = pot._logarithmic_newton(lam, point)
            oracle = reference_logarithmic_newton(lam, point)
            assert all(np.isscalar(x) for x in ours)
            assert np.array_equal(ours, oracle) and np.signbit(ours[1]) == np.signbit(oracle[1])
            slope = ALL_SPECS["logarithmic"].yosida_slope(lam, point, ours[1])
            j = np.tanh(0.5 * ours[1])
            assert np.isscalar(slope) and slope == 2.0 / ((1.0 - j * j) + 2.0 * lam)

    @pytest.mark.parametrize("lam", [1e-1, 1e-4, 1e-6])
    def test_exact_zero_beside_other_nodes(self, lam):
        # s = 0 has residual exactly 0 at its first iterate; bisecting it back
        # from (s + 1)/(2 lam) once held up the whole batch
        s = np.array([0.0, 0.3, -0.55, 0.999, -0.999, -1.2, 0.02])
        _, value = pot._logarithmic_newton(lam, s, budget=20)
        assert value[0] == 0.0
        assert np.all(logarithmic_defect(lam, s, value) <= 1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(exponent=hs.floats(-6.0, -1.0),
           s=hs.lists(hs.one_of(hs.floats(-3.0, 3.0),
                                hs.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, -5e-324, 1e-13])),
                      min_size=1, max_size=64))
    # 0 and the ends of the domain at the smallest and the largest level
    @example(exponent=-6.0, s=[1.0, -1.0, 0.0, 3.0, -3.0])
    @example(exponent=-1.0, s=[1.0, -1.0, 0.0, 3.0, -3.0])
    def test_random_batches_converge_quickly(self, exponent, s):
        # at most 15 Newton updates: the budget counts residual evaluations,
        # each followed by an update, the last one the polish after
        # convergence (s = 1 at lam = 1e-6 takes all of them, its theta
        # climbing from 1 by about 1/2 per update)
        lam = 10.0 ** exponent
        s = np.array(s)
        _, value = pot._logarithmic_newton(lam, s, budget=15)
        assert np.all(logarithmic_defect(lam, s, value) <= 1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(exponent=hs.floats(-8.0, -1.0),
           s=hs.lists(hs.one_of(hs.floats(-3.0, 3.0),
                                hs.sampled_from([0.0, -0.0, 1.0, 1.0 - 1e-16, 1e-300, 5e-324])),
                      min_size=1, max_size=64))
    @example(exponent=-8.0, s=[1.0, -1.0, 0.0, 1.0 - 1e-16, 3.0])
    @example(exponent=-1.0, s=[1.0, -1.0, 0.0, 1.0 - 1e-16, 3.0])
    def test_random_batches_reach_round_off_oddly(self, exponent, s):
        # the polish leaves the equation's defect at round-off of its terms,
        # and the iteration on |s| makes the resolvent odd bit for bit
        lam = 10.0 ** exponent
        s = np.array(s)
        j, value = pot._logarithmic_newton(lam, s)
        eps = np.finfo(float).eps
        assert np.all(logarithmic_defect(lam, s, value) <= 4 * eps * np.maximum(1.0, np.abs(s)))
        mirror_j, mirror_value = pot._logarithmic_newton(lam, -s)
        np.testing.assert_array_equal(mirror_j, -j)
        np.testing.assert_array_equal(mirror_value, -value)

    def test_agrees_with_bisection(self):
        # at lam = 0.1 and |s| <= 2, |J| stays below 1 - 5e-5, where the
        # bisection of the graph itself resolves J to 2 ulps
        s = np.random.default_rng(11).uniform(-2.0, 2.0, 5000)
        j, _ = pot._logarithmic_newton(0.1, s)
        oracle = pot._resolvent_bisection(ALL_SPECS["logarithmic"], 0.1, s)
        assert np.all(np.abs(j - oracle) <= 4 * np.finfo(float).eps * np.maximum(1.0, np.abs(s)))

    def test_nan_raises(self):
        with pytest.raises(NumericalError, match="failed to converge: residual nan"):
            pot._logarithmic_newton(1e-4, np.array([0.3, np.nan, -0.2]))

    def test_two_updates_on_a_log_well_batch(self):
        # the log-well benchmark calls the resolvent at lam = 1e-4 with |s| <=
        # 0.69: one update from the start, then the polish.  A start further
        # from the root costs a third update and fails here
        s = np.random.default_rng(3).uniform(-0.75, 0.75, 10000)
        pot._logarithmic_newton(1e-4, s, budget=2)
        with pytest.raises(NumericalError):
            pot._logarithmic_newton(1e-4, s, budget=1)

    @pytest.mark.parametrize("lam", [1e-1, 1e-4, 1e-8])
    def test_slope_from_value_is_slope_from_resolvent(self, lam):
        s = np.random.default_rng(7).uniform(-1.5, 1.5, 10000)
        s = np.concatenate([s, [0.0, 1.0, -1.0, 1e-300, 0.999999]])
        j, value = pot._logarithmic_newton(lam, s)
        slope = ALL_SPECS["logarithmic"].yosida_slope(lam, s, value)
        np.testing.assert_array_equal(slope, 2.0 / ((1.0 - j * j) + 2.0 * lam))


class TestYosida:
    def test_nonunique_graph_value(self):
        spec, lam = ALL_SPECS["example_best"], 0.5
        assert pot.yosida(spec, lam, 1.0) == pytest.approx(1.5, abs=1e-13)

    def test_obstacle_value(self):
        spec, lam = ALL_SPECS["obstacle"], 0.1
        assert pot.yosida(spec, lam, 2.0) == pytest.approx(10.0, abs=1e-12)

    @pytest.mark.parametrize("name", list(ALL_SPECS))
    def test_zero_fixed_point(self, name):
        spec, lam = ALL_SPECS[name], 0.2
        assert pot.yosida(spec, lam, 0.0) == 0.0


class TestYosidaPrimal:
    def test_obstacle_squared_distance(self):
        spec, lam = ALL_SPECS["obstacle"], 0.1
        assert pot.yosida_primal(spec, lam, 2.0) == pytest.approx(5.0, abs=1e-12)

    @pytest.mark.parametrize("name", list(ALL_SPECS))
    def test_zero_value(self, name):
        spec, lam = ALL_SPECS[name], 0.2
        assert pot.yosida_primal(spec, lam, 0.0) == 0.0

    def test_regular_against_grid_oracle(self):
        spec, lam = ALL_SPECS["regular"], 0.1
        value = pot.yosida_primal(spec, lam, 1.0)
        _, oracle, _ = grid_minimizer(ALL_SPECS["regular"], 0.1, 1.0)
        assert value == pytest.approx(oracle, abs=1e-6)
        # frozen closed-form value for regression
        assert value == pytest.approx(0.2110801332597008, abs=1e-12)


class TestCoercivity:
    def test_quadratic_convex_part_closed_form(self):
        spec = pot.custom_potential(**QUADRATIC)
        # regularized value is s^2/(1+2*lam); at levels up to 1 the slope 1/3 holds with no offset
        cert = pot.coercivity_check(spec, [1.0, 0.5, 0.1], (-5.0, 5.0), 2001)
        assert cert.alpha == pytest.approx(1.0 / 3.0)
        assert cert.C <= 1e-9
        assert cert.lambda_max == 1.0

    def test_obstacle_certificate_exists(self):
        cert = pot.coercivity_check(ALL_SPECS["obstacle"], [0.1, 0.01], (-5.0, 5.0), 2001)
        assert cert.alpha > 0
        assert np.isfinite(cert.C)

    def test_constant_shift_absorbed_in_offset(self):
        base = pot.coercivity_check(ALL_SPECS["regular"], [0.1], (-5.0, 5.0), 2001)
        spec = ALL_SPECS["regular"]
        shifted = dataclasses.replace(spec, pi_hat=lambda s: spec.pi_hat(s) - 0.25)
        cert = pot.coercivity_check(shifted, [0.1], (-5.0, 5.0), 2001)
        assert cert.alpha == base.alpha
        assert cert.C == pytest.approx(base.C + 0.25, abs=1e-9)

    def test_noncoercive_spec_rejected(self):
        spec = pot.custom_potential(
            beta_hat=zeros, beta=lambda y: (zeros(y), zeros(y)),
            pi_hat=lambda s: -np.asarray(s, dtype=float) ** 2,
            pi=lambda s: -2.0 * np.asarray(s, dtype=float),
            pi_prime=lambda s: np.full_like(np.asarray(s, dtype=float), -2.0),
            lipschitz_pi=2.0, smooth_graph=True,
        )
        with pytest.raises(CoercivityError):
            pot.coercivity_check(spec, [0.1], (-5.0, 5.0), 2001)

    def test_bad_scan_parameters(self):
        with pytest.raises(ConfigurationError):
            pot.coercivity_check(ALL_SPECS["regular"], [0.1], (-1.0, 5.0), 2001)
        with pytest.raises(ConfigurationError):
            pot.coercivity_check(ALL_SPECS["regular"], [0.1], (-5.0, 5.0), 100)


class TestSelectionResidual:
    def test_multivalued_point_admits_interval(self):
        spec = ALL_SPECS["example_best"]
        assert pot.graph_selection_residual(spec, 0.0, 1.0) == 0.0
        assert pot.graph_selection_residual(spec, 0.0, 1.5) == 0.5

    def test_obstacle_interior(self):
        assert pot.graph_selection_residual(ALL_SPECS["obstacle"], 0.3, 0.0) == 0.0
        assert pot.graph_selection_residual(ALL_SPECS["obstacle"], 1.0, -2.0) == 2.0

    def test_outside_domain(self):
        with pytest.raises(DomainError):
            pot.graph_selection_residual(ALL_SPECS["obstacle"], 1.5, 0.0)
        with pytest.raises(DomainError):
            pot.graph_selection_residual(ALL_SPECS["logarithmic"], 1.0, 0.0)


class TestRegularizationProperties:
    LEVELS = (1.0, 0.1, 0.01)

    @pytest.mark.parametrize("name", list(ALL_SPECS))
    def test_resolvent_nonexpansive(self, name):
        rng = np.random.default_rng(101)
        spec = ALL_SPECS[name]
        s = rng.uniform(-3, 3, size=10_000)
        t = rng.uniform(-3, 3, size=10_000)
        for lam in self.LEVELS:
            gap = np.abs(spec.resolvent(lam, s) - spec.resolvent(lam, t))
            assert np.all(gap <= np.abs(s - t) + 1e-12)

    @pytest.mark.parametrize("name", list(ALL_SPECS))
    def test_yosida_lipschitz_and_monotone(self, name):
        rng = np.random.default_rng(103)
        spec = ALL_SPECS[name]
        s = np.sort(rng.uniform(-3, 3, size=10_000))
        for lam in self.LEVELS:
            values = pot.yosida(spec, lam, s)
            assert np.all(np.diff(values) >= -1e-12)
            gap = np.abs(np.diff(values))
            assert np.all(gap <= np.abs(np.diff(s)) / lam + 1e-9 / lam)

    @pytest.mark.parametrize("name", list(ALL_SPECS))
    def test_primal_sandwich_and_monotone_in_level(self, name):
        rng = np.random.default_rng(107)
        spec = ALL_SPECS[name]
        span = SAMPLE_SPAN[name]
        s = rng.uniform(-span, span, size=500)
        previous = None
        for lam in (1.0, 0.1, 0.01):  # decreasing level
            values = pot.yosida_primal(spec, lam, s)
            assert np.all(values >= -1e-12)
            exact = spec.beta_hat(s)
            finite = np.isfinite(exact)
            assert np.all(values[finite] <= exact[finite] + 1e-9)
            if previous is not None:
                assert np.all(values >= previous - 1e-9)
            previous = values

    @pytest.mark.parametrize("name", list(ALL_SPECS))
    def test_selection_residual(self, name):
        rng = np.random.default_rng(109)
        spec = ALL_SPECS[name]
        span = SAMPLE_SPAN[name]
        for lam in self.LEVELS:
            for s in rng.uniform(-span, span, size=200):
                j = spec.resolvent(lam, float(s))
                xi = pot.yosida(spec, lam, float(s))
                assert pot.graph_selection_residual(spec, j, xi) <= 1e-10

    def test_logarithmic_convergence_to_graph(self):
        spec = ALL_SPECS["logarithmic"]
        exact = math.log(1.5 / 0.5)
        approx = pot.yosida(spec, 1e-4, 0.5)
        assert abs(approx - exact) < 1e-2


def reference_splitmix64(seed, count):
    """The first ``count`` outputs of splitmix64 from ``seed``, in Python integers."""
    mask, state, out = (1 << 64) - 1, seed, []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2, 2**64 - 1])
def test_uniform_draws_are_splitmix64_fractions(seed):
    draws = pot.uniform_draws(-3.0, 5.0, (40, 25), seed=seed)
    unit = np.array([z >> 11 for z in reference_splitmix64(seed, 1000)]) * 2.0**-53
    assert draws.shape == (40, 25)
    np.testing.assert_array_equal(draws.ravel(), -3.0 + 8.0 * unit)
    assert -3.0 <= draws.min() and draws.max() < 5.0


class TestValidatePotential:
    def test_builtins_pass(self):
        for spec in ALL_SPECS.values():
            pot.validate_potential(spec)

    def test_nonmonotone_custom_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="not monotone"):
            pot.custom_potential(**{**QUADRATIC, "beta": lambda y: (-y, -y)})

    def test_wrong_lipschitz_rejected_at_construction(self):
        # actual constant is 3
        with pytest.raises(ConfigurationError, match="Lipschitz"):
            pot.custom_potential(**{**QUADRATIC, "pi": lambda s: -3.0 * np.asarray(s, dtype=float),
                                    "lipschitz_pi": 1.0})

    def test_nonzero_at_origin_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match=r"beta_hat\(0\)"):
            pot.custom_potential(**{**QUADRATIC,
                                    "beta_hat": lambda s: np.asarray(s, dtype=float) ** 2 + 1.0})


class TestCustomPotential:
    LEVELS = (1.0, 0.1, 0.01)
    # where the canonical Yosida maps have a kink, as a function of the level
    KINKS = {"obstacle": lambda lam: 1.0, "example_best": lambda lam: lam}

    @pytest.mark.parametrize("name", list(ALL_SPECS))
    def test_generic_maps_match_closed_forms(self, name):
        spec = ALL_SPECS[name]
        generic = pot.custom_potential(
            beta_hat=spec.beta_hat, beta=spec.beta, pi_hat=spec.pi_hat, pi=spec.pi,
            pi_prime=spec.pi_prime, lipschitz_pi=spec.lipschitz_pi,
            beta_domain=spec.beta_domain, beta_hat_domain=spec.beta_hat_domain,
            smooth_graph=spec.smooth_graph)
        span = SAMPLE_SPAN[name]
        s = np.random.default_rng(113).uniform(-span, span, size=2000)
        s = np.concatenate([s, [0.0, 0.5 * span, -span, span]])
        for lam in self.LEVELS:
            tol = 1e-10 * np.maximum(1.0, np.abs(s) / lam)
            assert np.all(np.abs(generic.resolvent(lam, s) - spec.resolvent(lam, s)) <= tol)
            assert np.all(np.abs(generic.yosida(lam, s) - spec.yosida(lam, s)) <= tol)
            # centered differences with step 1e-6, away from the kinks
            kink = self.KINKS.get(name, lambda lam: np.inf)(lam)
            away = np.abs(np.abs(s) - kink) > 1e-5
            slope_gap = np.abs(generic.yosida_slope(lam, s, generic.yosida(lam, s))
                               - spec.yosida_slope(lam, s, spec.yosida(lam, s)))
            assert np.all(slope_gap[away] <= 1e-7 / lam)

    @pytest.mark.parametrize("name", list(ALL_SPECS))
    def test_array_graph_matches_elementwise(self, name):
        spec = ALL_SPECS[name]
        y = np.concatenate([np.linspace(-1.0, 1.0, 41), [-0.0, 1e-300, -1e-300]])
        y = y[spec.beta_domain.contains(y)]
        lo, hi = spec.beta(y)
        for k, v in enumerate(y):
            assert (lo[k], hi[k]) == spec.beta(v)
            assert (lo[k], hi[k]) == spec.beta(float(v))
