"""Property tests over random small problems.

Each scheme example draws an interval basis (zero-flux or zero-boundary),
one of the four canonical potentials, the scheme parameters, a smooth
initial state and a decaying source, runs the scheme, and checks the
energy ledger against a plain Field-by-Field evaluation, the exact mass
identity and the ledger slack.  The regularization examples draw a graph,
two points and a level, and check the resolvent and Yosida identities.
The serialization examples draw float arrays and check that the JSON of an
array is the JSON of its nested list.  The Newton-direction examples check
the reduced branch and the branch along the modes against the dense solve,
and a workspace that reuses its active-set factors against a fresh one, bit
for bit.  The warm-start examples check a run, whose Newton solves start at
the previous increment, against ``solve_step`` chained from ``d = 0``.  The
fuzzing examples mutate a small run document, or draw the flags of
``check-potentials``, ``example-best`` and ``sweep``, and hold ``cli.main``
to its input contract.
The examples are derandomized so that the suite gives the same verdict on
every run.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as hs
from hypothesis.extra import numpy as hnp

from fracch import cli
from fracch import estimates as est
from fracch import potentials as pot
from fracch import runio
from fracch import spectral as sp
from fracch import stepper as st

from conftest import assert_matches_cold_chain, cosine_field, zero_potential

POTENTIALS = ("regular", "logarithmic", "obstacle", "example_best")
EPS = np.finfo(float).eps


@hs.composite
def problems(draw):
    kind = draw(hs.sampled_from(("neumann", "dirichlet")))
    points = draw(hs.integers(9, 33))
    modes = draw(hs.integers(2, points - 2 if kind == "dirichlet" else points))
    basis = sp.build_interval_basis(kind, modes, draw(hs.floats(0.5, 4.0)), points)
    name = draw(hs.sampled_from(POTENTIALS))
    params = {}
    if name == "logarithmic":
        params["c1"] = draw(hs.floats(1.05, 2.0))
    if name == "obstacle":
        params["c2"] = draw(hs.floats(0.2, 2.0))
    config = st.SchemeConfig(
        op_A=sp.FractionalOperator(basis, draw(hs.floats(0.1, 1.0))),
        op_B=sp.FractionalOperator(basis, draw(hs.floats(0.1, 1.0))),
        spec=pot.make_potential(name, **params),
        yosida_lambda=draw(hs.floats(1e-3, 1e-1)),
        tau=draw(hs.floats(0.0, 1.0)),
        h=draw(hs.floats(1e-3, 0.05)),
        steps=draw(hs.integers(1, 30)),
    )
    grid = config.grid
    # |y0| <= 0.8 keeps every value inside the singular wells' domains
    coeffs = draw(hs.lists(hs.floats(-0.2, 0.2), min_size=1, max_size=4))
    y0 = cosine_field(grid, coeffs)
    bump = cosine_field(grid, draw(hs.lists(hs.floats(-0.5, 0.5), min_size=1, max_size=3)))
    source = st.DecaySource(sp.constant_field(draw(hs.floats(-0.5, 0.5)), grid), bump,
                            draw(hs.floats(0.1, 2.0)))
    return config, st.ProblemData(y0=y0, source=source)


def oracle_ledger(traj):
    """The summed inequality at every step, one Field and one apply_power at a time."""
    config, data = traj.config, traj.data
    h, tau = traj.h, config.tau
    shift = config.spec.stability_shift
    reg = config.regularization

    # the logarithmic resolvent iterates until a whole batch has converged,
    # so its last bits depend on the batch: evaluate it on the same batch as
    # the ledger (these trajectories fit in one of its blocks), which leaves
    # only the ledger's own arithmetic to compare
    integrand = pot.yosida_primal(reg, traj.y) + config.spec.pi_hat(traj.y)

    def split(k):
        return float(np.sum(traj.ys[k].grid.w * integrand[k]))

    def b_sq(y):
        return sp.norm(sp.apply_power(config.op_B, y)) ** 2

    e0_split, e0_b = split(0), 0.5 * b_sq(traj.ys[0])
    totals = dict.fromkeys(est.LEDGER_TERMS, 0.0)
    pairing = 0.0
    rows = []
    for k in range(1, traj.steps + 1):
        y0, y1, mu0, mu1 = traj.ys[k - 1], traj.ys[k], traj.mus[k - 1], traj.mus[k]
        dy = y1 - y0
        increments = {
            "mu_l2_accum": 0.5 * h * (sp.norm(mu1) ** 2 - sp.norm(mu0) ** 2),
            "mu_increment_accum": 0.5 * h * sp.norm(mu1 - mu0) ** 2,
            "Ar_mu_accum": h * sp.norm(sp.apply_power(config.op_A, mu1)) ** 2,
            "tau_rate_accum": tau / h * sp.norm(dy) ** 2,
            "B_sigma_norm": 0.5 * (b_sq(y1) - b_sq(y0)),
            "B_sigma_increment_accum": 0.5 * b_sq(dy),
            "beta_pi_integral": split(k) - split(k - 1),
            "y_increment_accum": 0.5 * shift * sp.norm(dy) ** 2,
        }
        for name in est.LEDGER_TERMS:
            totals[name] += increments[name]
        pairing += sp.inner(data.source.at(k * h), dy)
        lhs = dict(totals)
        lhs["B_sigma_norm"] += e0_b
        lhs["beta_pi_integral"] += e0_split
        rhs = e0_split + e0_b + pairing
        data_bound = sp.norm(data.source.at(0.0)) + data.source.derivative_l1(k * h)
        rows.append((lhs, rhs, rhs - sum(lhs.values()), data_bound))
    return rows


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(problems())
def test_ledger_mass_and_slack_on_random_problems(problem):
    config, data = problem
    traj = st.run(config, data)
    ledger = est.gronwall_ledger(traj)
    assert len(ledger.step) == traj.steps
    scale = np.maximum(np.maximum(np.abs(ledger.terms).max(axis=1), np.abs(ledger.rhs_bound)),
                       est.SLACK_FLOOR)
    for k, (lhs, rhs, slack, data_bound) in enumerate(oracle_ledger(traj)):
        tol = 1e-12 * scale[k]
        for name, value in zip(est.LEDGER_TERMS, ledger.terms[k]):
            assert abs(value - lhs[name]) <= tol, name
        assert abs(ledger.rhs_bound[k] - rhs) <= tol
        assert abs(ledger.slack[k] - slack) <= tol
        assert abs(ledger.data_bound[k] - data_bound) <= 1e-12 * max(data_bound, 1.0)
        assert ledger.slack[k] >= -1e-8 * scale[k]
    if config.op_A.lambda1 == 0.0:
        # the mass identity is exact when the first operator annihilates constants
        mass = sp.row_means(traj.y, config.grid) + traj.h * sp.row_means(traj.mu, config.grid)
        assert np.abs(mass - mass[0]).max() <= 1e-10


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(problems())
def test_warm_started_run_matches_the_cold_chain(problem):
    config, data = problem
    assert_matches_cold_chain(st.run(config, data))


def direction_config(kind, points, exponent):
    """An obstacle scheme on an interval basis, for Newton directions alone."""
    modes = points - 2 if kind == "dirichlet" else points
    basis = sp.build_interval_basis(kind, modes, 2.0, points)
    return st.SchemeConfig(
        op_A=sp.FractionalOperator(basis, exponent), op_B=sp.FractionalOperator(basis, exponent),
        spec=pot.make_potential("obstacle", c2=1.0), yosida_lambda=1e-2, tau=0.5, h=0.02,
        steps=1)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kind=hs.sampled_from(("neumann", "dirichlet")), points=hs.integers(5, 33),
       exponent=hs.floats(0.1, 1.0), levels=hs.lists(hs.floats(0.0, 1e3), min_size=2,
                                                      max_size=3, unique=True),
       data=hs.data())
def test_newton_direction_matches_dense_solve(kind, points, exponent, levels, data):
    # piecewise-constant slopes above -Lip(pi), like the obstacle's pi' + {0, 1/lam}
    ws = st._Workspace(direction_config(kind, points, exponent))
    k = ws.k.copy()
    index = data.draw(hs.lists(hs.integers(0, len(levels) - 1), min_size=points,
                               max_size=points))
    slope = np.asarray(levels)[index] - 2.0
    g = np.random.default_rng(points).normal(size=points)
    expected = np.linalg.solve(k + np.diag(slope), -g)
    delta = ws.direction(slope, g)
    assert np.abs(delta - expected).max() <= 1e-10 * np.abs(expected).max()
    assert np.array_equal(ws.k, k)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(kind=hs.sampled_from(("neumann", "dirichlet")), points=hs.integers(5, 17),
       exponent=hs.floats(0.1, 1.0), data=hs.data())
def test_cached_newton_direction_matches_a_fresh_workspace(kind, points, exponent, data):
    # two-valued slopes like the obstacle's pi' + {0, 1/lam}, drawn from a few
    # contact sets, floors and gaps, so that whole cache keys repeat in the
    # sequence; with more than half of the nodes in contact a call takes the
    # dense branch in between
    config = direction_config(kind, points, exponent)
    ws = st._Workspace(config)
    contact = data.draw(hs.lists(hs.lists(hs.booleans(), min_size=points, max_size=points),
                                 min_size=1, max_size=3))
    calls = data.draw(hs.lists(hs.tuples(hs.integers(0, len(contact) - 1),
                                         hs.sampled_from((-2.0, -1.5)),
                                         hs.sampled_from((1e2, 1e3))),
                               min_size=2, max_size=8))
    rng = np.random.default_rng(points)
    for index, floor, gap in calls:
        slope = np.where(contact[index], floor + gap, floor)
        g = rng.normal(size=points)
        assert np.array_equal(ws.direction(slope, g), st._Workspace(config).direction(slope, g))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(kind=hs.sampled_from(("neumann", "dirichlet")), points=hs.integers(5, 65),
       exponents=hs.tuples(hs.floats(0.1, 1.0), hs.floats(0.1, 1.0)),
       tau=hs.floats(0.0, 1.0), h=hs.floats(1e-3, 0.05), seed=hs.integers(0, 2**32 - 1))
def test_mode_newton_direction_matches_dense_solve(kind, points, exponents, tau, h, seed):
    # both operators on one basis of about half as many modes as nodes, and
    # continuous slopes in [-Lip(pi), 1/lam] like a smooth well's: the
    # direction solves one system along the modes
    basis = sp.build_interval_basis(kind, min(points // 2, points - 2), 2.0, points)
    config = st.SchemeConfig(
        op_A=sp.FractionalOperator(basis, exponents[0]),
        op_B=sp.FractionalOperator(basis, exponents[1]),
        spec=pot.make_potential("logarithmic", c1=1.5), yosida_lambda=1e-3, tau=tau, h=h,
        steps=1)
    ws = st._Workspace(config)
    assert ws.kappa is not None
    rng = np.random.default_rng(seed)
    slope = rng.uniform(-config.spec.lipschitz_pi, 1.0 / config.yosida_lambda, points)
    g = rng.normal(size=points)
    jac = ws.k + np.diag(slope)
    expected = np.linalg.solve(jac, -g)
    delta = ws.direction(slope, g)
    assert np.abs(delta - expected).max() <= 1e-10 * np.abs(expected).max()
    # the residual of a backward stable solve: round-off of the products in it
    scale = ws.h_norm(np.abs(jac) @ np.abs(delta)) + ws.h_norm(g)
    assert ws.h_norm(jac @ delta + g) <= 16 * EPS * scale
    assert ws.inverse is None and ws.active is None


GRAPHS = {name: pot.make_potential(name, **params) for name, params in (
    ("regular", {}), ("logarithmic", {"c1": 2.0}), ("obstacle", {"c2": 1.0}),
    ("example_best", {}))}
GRAPHS["zero"] = zero_potential()
# how far a computed resolvent may sit from the exact J_lam(s) for |s| <= 3: the
# closed forms and the bisection within a few ulps of 3, the logarithmic Newton
# within its stopping rule |tanh(theta) + 2 lam theta - s| < 1e-12
RESOLVENT_ERROR = {**dict.fromkeys(GRAPHS, 16 * EPS * 3.0), "logarithmic": 1e-12}
# the slope of each graph inside its domain: how far an error in J moves beta(J)
GRAPH_SLOPE = {
    "regular": lambda j: 3.0 * j * j,
    "logarithmic": lambda j: 2.0 / (1.0 - j * j),
    "obstacle": lambda j: 0.0,
    "example_best": lambda j: 2.0,
    "zero": lambda j: 0.0,
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(name=hs.sampled_from(sorted(GRAPHS)), s=hs.floats(-3.0, 3.0), t=hs.floats(-3.0, 3.0),
       log_lam=hs.floats(-6.0, -1.0))
# a small level with |s| below it: the bisection's narrow-bracket midpoint
# must pass the bisection's own selection check
@example(name="zero", s=0.0, t=2.220446049250313e-16, log_lam=-6.0)
def test_regularization_identities(name, s, t, log_lam):
    spec, lam, err = GRAPHS[name], 10.0 ** log_lam, RESOLVENT_ERROR[name]
    reg = pot.YosidaRegularization(spec, lam)
    points = np.array([s, t])
    j, beta = pot.resolvent(reg, points), pot.yosida(reg, points)
    # an error err in J moves the difference quotient (s - J)/lam by err/lam
    beta_err = err / lam + 4 * EPS * np.abs(beta).max()
    assert np.all(np.abs(j + lam * beta - points) <= err + 8 * EPS * 3.0)
    # beta_lam(s) is a selection of the graph at J wherever J is representable
    inside = spec.beta_domain.contains(j)
    for ji, bi in zip(j[inside], beta[inside]):
        tol = err * (1.0 / lam + GRAPH_SLOPE[name](ji)) + 8 * EPS * abs(bi)
        assert pot.graph_selection_residual(spec, ji, bi) <= tol
    # J is nonexpansive, beta_lam monotone and 1/lam-Lipschitz
    assert abs(j[1] - j[0]) <= abs(t - s) + 2 * err
    assert (beta[1] - beta[0]) * np.sign(t - s) >= -2 * beta_err
    assert abs(beta[1] - beta[0]) <= abs(t - s) / lam + 2 * beta_err


# signed zeros, subnormals, integral values and extreme exponents
SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                  -1e-300, 1e22, float(2**53), 1.0, -3.0)


def float_arrays(finite):
    return hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0,
                                                   max_side=5),
                      elements=hs.floats(allow_nan=not finite, allow_infinity=not finite)
                      | hs.sampled_from(SPECIAL_FLOATS))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(array=hs.booleans().flatmap(float_arrays))
# empty shapes, and non-finite entries that must take the element-wise path
@example(array=np.zeros((0,)))
@example(array=np.zeros((0, 3)))
@example(array=np.zeros((3, 0)))
@example(array=np.array([[0.5, np.nan], [-np.inf, -0.0]]))
@example(array=np.array([[[1.0, np.inf]], [[2.0, 3.0]]]))
def test_float_array_json_matches_its_list(array):
    # the nested-list path is the element-wise serializer, kept as the oracle
    assert runio._json_value(array) == runio._json_value(array.tolist())


# the fuzzed document: grid 9, 4 steps; each entry lists the values a mutation
# may give that key, valid ones first.  The one huge step count exceeds any
# physical memory, so it is only ever rejected at parse time, never run.
FUZZ_BASE = {
    ("operator_a", "kind"): ("neumann", "dirichlet", "matrix", "spiral"),
    ("operator_a", "modes"): ("6", "1", "2", "9", "17", "0", "-1", "4.5"),
    ("operator_a", "length"): ("4.0", "1e-3", "1e3", "0", "-1"),
    ("operator_a", "grid_points"): ("9", "2", "3", "17", "1", "0", "-5"),
    ("operator_a", "exponent"): ("0.5", "0.1", "1.0", "2.5", "0", "-0.5"),
    ("operator_b", "kind"): ("neumann", "dirichlet", "matrix", "spiral"),
    ("operator_b", "modes"): ("6", "1", "9", "17", "0"),
    ("operator_b", "length"): ("4.0", "2.0", "0"),
    ("operator_b", "grid_points"): ("9", "17", "5", "0"),
    ("operator_b", "exponent"): ("0.5", "1.0", "3.0", "0"),
    # a potential's name comes with the parameters it takes, on the next line
    ("potential", "name"): ("obstacle\nc2 = 1.0", "logarithmic\nc1 = 1.1", "regular",
                            "example_best", "obstacle\nc2 = 5.0", "logarithmic\nc1 = 2.0",
                            "obstacle\nc2 = 0", "obstacle\nc2 = 1e308", "obstacle\nc2 = nan",
                            "logarithmic\nc1 = 0.5", "logarithmic", "regular\nc2 = 1.0",
                            "obstacle\nc1 = 1.1\nc2 = 1.0", "quartic"),
    ("scheme", "tau"): ("0.25", "0", "1", "1.5", "-0.1"),
    ("scheme", "yosida_lambda"): ("1e-3", "1e-8", "10", "0", "-1e-3"),
    ("scheme", "h"): ("0.01", "1e-6", "10", "0", "-1"),
    ("scheme", "steps"): ("4", "0", "1", "5", "-1", "99999999999999999999"),
    ("scheme", "newton_tol"): ("1e-10", "1e-14", "1e-2", "1e-300", "0", "-1"),
    ("scheme", "newton_max"): ("50", "1", "2", "0", "-3"),
    ("data", "y0"): ("cosine 0.1 0.4 0.2", "constant 0", "constant 0.99", "constant 1",
                     "constant 2", "cosine 0.5 0.6", "cosine", "constant", "file absent.txt",
                     "wave 1"),
    ("data", "source"): ("decay 0.5", "zero", "constant", "decay 0", "decay -1", "decay",
                         "tabulated absent.txt", "pulse"),
    ("data", "u_inf"): ("constant 0", "constant 0.5", "cosine 0 0.1", "constant x"),
    ("data", "u_bump"): ("cosine 0 0.05", "constant 0.1", "constant 3", "cosine"),
    ("output", "snapshots"): ("log 9", "log 2", "every 1", "every 7", "log 1", "every 0",
                              "weekly 2", "log"),
    ("run", "seed"): ("42", "0", "-1", "x"),
}
# any key may also get one of these, or be left out
FUZZ_TOKENS = ("", "nan", "inf", "-inf", "1e308", "-1e308", "1e-308", "5e-324", "abc",
               "1 2", "0x10")


def fuzz_document(changes):
    """The fuzzed document with ``changes`` to its (section, key) values; None drops a key."""
    chosen = {key: values[0] for key, values in FUZZ_BASE.items()}
    chosen.update(changes)
    sections = {}
    for (section, key), value in chosen.items():
        lines = sections.setdefault(section, [])
        if value is not None:
            lines.append(f"{key} = {value}")
    return "\n".join(f"[{section}]\n" + "\n".join(lines) + "\n"
                     for section, lines in sections.items())


@hs.composite
def fuzzed_documents(draw):
    keys = draw(hs.lists(hs.sampled_from(sorted(FUZZ_BASE)), max_size=4, unique=True))
    return fuzz_document({key: draw(hs.sampled_from(FUZZ_BASE[key])
                                    | hs.sampled_from(FUZZ_TOKENS + (None,)))
                          for key in keys})


def run_cli(argv):
    """Exit code, stdout, stderr and warnings of one ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(document=fuzzed_documents())
# scales at the ends of double precision: numpy warnings, and a Python
# OverflowError in the quartic well's closed-form resolvent
@example(document=fuzz_document({("scheme", "h"): "5e-324"}))
@example(document=fuzz_document({("operator_b", "length"): "1e308"}))
@example(document=fuzz_document({("operator_a", "exponent"): "1e308"}))
@example(document=fuzz_document({("potential", "name"): "regular",
                                 ("scheme", "yosida_lambda"): "1e-308"}))
def test_every_fuzzed_document_runs_or_exits_with_one_json_line(document):
    # the input contract: exit 0, or exit 2/3/4 with exactly one JSON line on
    # stderr; never a traceback and never warning text
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "run.ini")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(document)
        rundir = os.path.join(tmp, "out")
        for argv in (["simulate", config, "--out", rundir], ["longtime-report", rundir]):
            code, out, err, caught = run_cli(argv)
            assert caught == []
            assert code in (0, 2, 3, 4)
            if code == 0:
                assert err == ""
                continue
            (line,) = err.splitlines()
            assert json.loads(line)["exit_code"] == code
            break


# the flags of the analysis commands: valid values first, then ones outside
# their ranges; the base arguments keep every run small
FLAG_VALUES = {
    "check-potentials": {
        "--lambdas": ("0.1", "0.5", "1e-3", "0", "-0.1"),
        "--range": ("5.0", "2", "1e308", "0", "-1"),
        "--grid": ("1000", "1500", "999", "0"),
        "--samples": ("1", "2", "0", "-3"),
        "--seed": ("0", "7", "-1"),
    },
    "example-best": {
        "--mu": ("const 0", "sin", "sin 0.5 2", "const 1.5", "const x", "wave"),
        "--modes": ("4", "1", "9", "10", "0", "-2"),
        "--grid-points": ("9", "2", "5", "1", "0"),
        "--length": ("1.0", "2.5", "1e-300", "1e-308", "1e308", "0", "-1"),
        "--exponent": ("1.0", "0.5", "1e308", "0", "-1"),
        "--horizon": ("1.0", "3", "1e308", "0", "-1"),
        "--samples": ("3", "1", "0", "-3"),
        "--tol": ("1e-12", "0", "1", "-1"),
    },
    "sweep": {"--levels": ("1", "2", "0", "-1", "99999999999999999999")},
}
FLAG_BASE = {
    "check-potentials": {"--lambdas": "0.1", "--grid": "1000", "--samples": "1"},
    "example-best": {"--modes": "4", "--grid-points": "9", "--horizon": "1.0",
                     "--samples": "3"},
    "sweep": {"--levels": "1"},
}


def flag_argv(command, changes, config):
    """The command's argv from its base flags with ``changes``; ``--flag=value``
    keeps a value such as ``-inf`` from reading as a flag."""
    flags = dict(FLAG_BASE[command], **changes)
    positional = [config] if command == "sweep" else []
    return [command, *positional, *(f"{flag}={value}" for flag, value in flags.items())]


@hs.composite
def flag_changes(draw):
    command = draw(hs.sampled_from(sorted(FLAG_VALUES)))
    values = FLAG_VALUES[command]
    flags = draw(hs.lists(hs.sampled_from(sorted(values)), min_size=1, max_size=3,
                          unique=True))
    return command, {flag: draw(hs.sampled_from(values[flag]) | hs.sampled_from(FUZZ_TOKENS))
                     for flag in flags}


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=flag_changes())
# each of these once ended in a traceback, a silent wrong run or exit 3
@example(case=("example-best", {"--samples": "0"}))
@example(case=("check-potentials", {"--samples": "-3"}))
@example(case=("example-best", {"--horizon": "nan"}))
@example(case=("example-best", {"--tol": "-1"}))
# every profile but "const 0" fails: exit 3, which once printed no JSON line
@example(case=("example-best", {"--tol": "0"}))
@example(case=("example-best", {"--horizon": "-1"}))
@example(case=("example-best", {"--length": "1e-308"}))
@example(case=("sweep", {"--levels": "0"}))
@example(case=("sweep", {"--levels": "-1"}))
def test_every_fuzzed_flag_runs_or_exits_with_one_json_line(case):
    command, changes = case
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "run.ini")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(fuzz_document({}))
        code, out, err, caught = run_cli(flag_argv(command, changes, config))
    assert caught == []
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert err == ""
    else:
        (line,) = err.splitlines()
        assert json.loads(line)["exit_code"] == code
