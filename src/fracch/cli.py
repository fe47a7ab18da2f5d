"""Command-line front end.

Subcommands: ``simulate`` runs the scheme and writes a run directory;
``check-potentials`` prints the coercivity certificate table;
``longtime-report`` analyzes a stored (or freshly simulated) run;
``example-best`` verifies the nonunique-multiplier family; ``sweep``
refines the step size and the regularization level dyadically and
writes the convergence table.  Errors exit with 2 (configuration),
3 (numerics, a floating-point overflow or invalid operation among them) or
4 (hypothesis violation) and print a one-line JSON description to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import config as cfgmod
from . import longtime as lt
from . import potentials as pot
from . import runio
from . import spectral as sp
from . import stepper as st
from .errors import ConfigurationError, FracchError, NumericalError, StepError


def _number(flag: str, ok=lambda value: True, requirement: str = ""):
    """Parser of a flag's finite number that ``ok`` accepts.

    Anything else raises a :class:`ConfigurationError` naming the flag,
    which argparse passes on, so it exits 2 with one JSON line.
    """
    def parse(token: str) -> float:
        value = cfgmod.parse_number(token, flag)
        if not ok(value):
            raise ConfigurationError(f"{flag}: must be {requirement}, got {token!r}")
        return value
    return parse


def _integer(flag: str, minimum: int):
    """Parser of a flag's integer of at least ``minimum``; see :func:`_number`."""
    def parse(token: str) -> int:
        try:
            value = int(token)
        except ValueError:
            raise ConfigurationError(f"{flag}: cannot parse {token!r} as an integer") from None
        if value < minimum:
            raise ConfigurationError(f"{flag}: must be at least {minimum}, got {value}")
        return value
    return parse


def _positive(flag: str):
    return _number(flag, lambda value: value > 0, "positive")


def _fits(flag: str, need: int, what: str) -> None:
    """A :class:`ConfigurationError` naming ``flag`` when ``need`` bytes exceed memory."""
    too_large = cfgmod.states_too_large(need, f"{flag}: {what} need {need:.3g} bytes")
    if too_large:
        raise ConfigurationError(too_large)


def _simulate_into(config_path: str, out_dir: str | None):
    text, run_cfg = cfgmod.read_config(config_path)
    directory = out_dir or run_cfg.output_directory
    if directory is None:
        raise ConfigurationError(
            "no output directory: set [output] directory or pass --out"
        )
    runio.check_run_target(directory)
    scheme, data = cfgmod.build_problem(run_cfg)
    snapshot_steps = cfgmod.snapshot_steps(run_cfg.snapshots, run_cfg.steps)
    cfgmod.input_files(run_cfg)  # an input outside the config's directory fails here
    traj = st.run(scheme, data, snapshot_steps)
    meta = runio.write_run(directory, traj, run_cfg, text)
    return directory, traj, meta


def _cmd_simulate(args) -> int:
    directory, traj, meta = _simulate_into(args.config, args.out)
    print(f"wrote {directory}: {traj.steps} steps, "
          f"mass defect {runio.fmt(meta['final_mass_identity_defect'])}")
    return 0


def _cmd_check_potentials(args) -> int:
    # the scan keeps two arrays of its points, the oracle one of its samples
    _fits("--grid", 16 * args.grid, f"the scan's {args.grid} points")
    _fits("--samples", 8 * args.samples, f"{args.samples} samples")
    rng = np.random.default_rng(args.seed)
    print("spec\tlambda\talpha\tC\toracle_max_error")
    for name, params in (("regular", {}), ("logarithmic", {"c1": 2.0}),
                         ("obstacle", {"c2": 1.0}), ("example_best", {})):
        spec = pot.make_potential(name, **params)
        dom = spec.beta_domain
        # near an open boundary the resolvent saturates to it in double precision
        span = 0.9 * dom.hi if dom.bounded and not dom.hi_closed else 3.0
        cert = pot.coercivity_check(spec, args.lambdas, (-args.range, args.range), args.grid)
        grid = np.linspace(-args.range, args.range, 10**6)
        energy = spec.beta_hat(grid)
        finite = np.isfinite(energy)
        for lam in args.lambdas:
            worst = 0.0
            for s in rng.uniform(-span, span, size=args.samples):
                oracle = float(np.min((grid[finite] - s) ** 2 / (2 * lam) + energy[finite]))
                worst = max(worst, abs(pot.yosida_primal(spec, lam, float(s)) - oracle))
            print(f"{name}\t{runio.fmt(lam)}\t{runio.fmt(cert.alpha)}"
                  f"\t{runio.fmt(cert.C)}\t{runio.fmt(worst)}")
    return 0


def _cmd_longtime_report(args) -> int:
    if args.config is not None:
        directory, _, _ = _simulate_into(args.config, args.out)
    else:
        directory = args.rundir
        if directory is None:
            raise ConfigurationError("pass a run directory or --config")
    stored = runio.load_run(directory)
    report = runio.stored_longtime_report(stored, window_fraction=args.window)
    sys.stdout.write(runio.write_report(directory, report))
    return 0


def _parse_profile(descriptor: str):
    kind, *args = descriptor.split() or [""]
    values = [cfgmod.parse_number(a, f"profile {descriptor!r}") for a in args]
    if kind == "const" and len(values) == 1:
        value = values[0]
        return descriptor, lambda t: value
    if kind == "sin":
        amp, freq = (values + [1.0, 1.0])[:2]
        return descriptor, lambda t: amp * math.sin(freq * t)
    raise ConfigurationError(f"unknown profile descriptor {descriptor!r}")


def _cmd_example_best(args) -> int:
    # the basis build peaks at spectral.basis_bytes, the residual rows hold samples x grid points
    _fits("--grid-points", sp.basis_bytes(args.grid_points, args.modes),
          f"{args.modes} modes on {args.grid_points} grid points")
    _fits("--samples", 8 * args.samples * args.grid_points,
          f"{args.samples} samples on {args.grid_points} grid points")
    basis = sp.build_interval_basis("neumann", args.modes, args.length, args.grid_points)
    op_a = sp.FractionalOperator(basis, args.exponent)
    times = np.linspace(0.0, args.horizon, args.samples)
    profiles = [_parse_profile(d) for d in args.mu or ["const 0", "sin", "const 1", "const -1"]]
    print("profile\tmax_first_equation_residual\tmax_selection_residual\tpass")
    failures = 0
    for label, fn in profiles:
        report = lt.example_best_check(fn, times, op_a)
        ok = report.max_violation <= args.tol
        failures += 0 if ok else 1
        print(f"{label}\t{runio.fmt(report.first_equation_residuals.max())}"
              f"\t{runio.fmt(report.selection_residuals.max())}"
              f"\t{'pass' if ok else 'fail'}")
    if failures:
        raise NumericalError(f"{failures} of {len(profiles)} profiles exceed the "
                             f"tolerance {runio.fmt(args.tol)}")
    return 0


def _cmd_sweep(args) -> int:
    run_cfg = cfgmod.load_config(args.config)
    h0, n0, lam0 = run_cfg.h, run_cfg.steps, run_cfg.yosida_lambda
    levels = args.levels
    scheme, data = cfgmod.build_problem(run_cfg)
    # the finest run holds the most steps, and its first and last state; past
    # 2**64 steps (or from zero steps) the count only grows, so it is capped there
    finest = max(n0, 1) * 2 ** min(levels + 1, 64)
    too_large = cfgmod.run_too_large(finest, scheme.grid.size, 2, scheme.basis_modes,
                                     built=True)
    if too_large:
        raise ConfigurationError(f"--levels: at the finest step size, {too_large}")
    ladders = (("h", h0, lambda k: {"h": h0 / k, "steps": n0 * k}),
               ("lambda", lam0, lambda k: {"yosida_lambda": lam0 / k}))
    lines = ["parameter\tvalue\tsuccessive_diff\tratio"]
    for parameter, value, settings in ladders:
        runs = (st.run(dataclasses.replace(scheme, **settings(2**i)), data)
                for i in range(levels + 2))
        finals = [traj.snapshot(traj.steps)[0] for traj in runs]
        diffs = [sp.norm(finals[i] - finals[i + 1]) for i in range(levels + 1)]
        for i in range(levels):
            ratio = diffs[i] / diffs[i + 1] if diffs[i + 1] > 0 else float("inf")
            lines.append(f"{parameter}\t{runio.fmt(value / 2**i)}\t{runio.fmt(diffs[i])}"
                         f"\t{runio.fmt(ratio)}")
    table = "\n".join(lines) + "\n"
    sys.stdout.write(table)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "sweep.tsv"), "w", encoding="utf-8",
                  newline="\n") as fh:
            fh.write(table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracch",
        description="spectral solver and verification harness for a "
                    "generalized phase separation system with fractional "
                    "operator powers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the scheme and write a run directory")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="override the output directory")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("check-potentials", help="print the coercivity certificate table")
    p.add_argument("--lambdas", nargs="+", type=_positive("--lambdas"),
                   default=[0.1, 0.01, 0.001])
    p.add_argument("--range", type=_positive("--range"), default="5.0")
    p.add_argument("--grid", type=_integer("--grid", 1000), default="2001")
    p.add_argument("--samples", type=_integer("--samples", 1), default="25")
    p.add_argument("--seed", type=_integer("--seed", 0), default="0")
    p.set_defaults(fn=_cmd_check_potentials)

    p = sub.add_parser("longtime-report", help="analyze a stored or fresh run")
    p.add_argument("rundir", nargs="?", default=None)
    p.add_argument("--config", default=None, help="simulate this config first")
    p.add_argument("--out", default=None)
    p.add_argument("--window", type=_number("--window"), default="0.5")
    p.set_defaults(fn=_cmd_longtime_report)

    p = sub.add_parser("example-best", help="verify the nonunique-multiplier family")
    p.add_argument("--mu", action="append", default=None,
                   help="profile descriptor: 'const C' or 'sin [amp [freq]]'")
    p.add_argument("--modes", type=_integer("--modes", 1), default="16")
    p.add_argument("--grid-points", type=_integer("--grid-points", 2), default="65")
    p.add_argument("--length", type=_positive("--length"), default="1.0")
    p.add_argument("--exponent", type=_positive("--exponent"), default="1.0")
    p.add_argument("--horizon", type=_positive("--horizon"), default="10.0")
    p.add_argument("--samples", type=_integer("--samples", 1), default="21")
    p.add_argument("--tol", type=_number("--tol", lambda value: value >= 0, "nonnegative"),
                   default="1e-12")
    p.set_defaults(fn=_cmd_example_best)

    p = sub.add_parser("sweep", help="dyadic step-size and regularization refinement")
    p.add_argument("config")
    p.add_argument("--levels", type=_integer("--levels", 1), default="3")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    try:
        # the flags' parsers raise a ConfigurationError on a value outside
        # the contract; argparse handles only its own errors and passes it on
        args = build_parser().parse_args(argv)
        # an overflow, a division by zero or an invalid operation means the
        # input's scales left double precision: a numerical failure, never a
        # warning printed beside a result
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return args.fn(args)
    except (FloatingPointError, OverflowError) as fault:
        exc = NumericalError(
            f"floating-point failure ({fault}): the step size, regularization level, "
            "interval lengths, exponents or data leave the range of double precision")
    except FracchError as caught:
        exc = caught
    payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": exc.exit_code}
    if isinstance(exc, StepError):
        payload.update(step_index=exc.step_index, residual_history=exc.residual_history)
    sys.stderr.write(runio.json_text(payload) + "\n")
    return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
