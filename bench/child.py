"""One benchmark repetition in a fresh process.

    python3 bench/child.py CONFIG RUNDIR RESULT [--trace] [--setup-only]

Times the set-up (package import, ``load_config``, ``build_problem``,
``stepper.validate``), then ``fracch simulate CONFIG --out RUNDIR`` and
``fracch longtime-report RUNDIR`` through ``cli.main``, and writes the
timings, exit codes and peak resident set size as JSON to RESULT.  The
report is timed ``REPORT_MIN_CALLS`` times or more, until
``REPORT_MIN_SECONDS`` have been spent in it.  Each timed section runs
under :class:`speed.SpeedProbe`; RESULT holds its wall time (``*_wall_s``)
and the wall time scaled to the probe's reference speed (``*_s``).
numpy is imported before the set-up is timed, because the probe uses it.  With ``--trace`` the two
commands run once each under :class:`spans.Tracer` and RESULT also holds
the per-layer metrics.  The package is imported from the
``src`` directory of the checkout this file sits in.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import time

import numpy  # noqa: F401  imported before the set-up is timed; the probe needs it

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPORT_MIN_CALLS = 3
REPORT_MIN_SECONDS = 1.0


def _tree_bytes(directory):
    return sum(os.path.getsize(os.path.join(base, name))
               for base, _, names in os.walk(directory) for name in names)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("rundir")
    parser.add_argument("result")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    probe = speed.SpeedProbe()
    with probe.sampling() as samples:
        start = time.perf_counter()
        import fracch.cli
        from fracch import config, stepper
        run_cfg = config.load_config(args.config)
        scheme, data = config.build_problem(run_cfg)
        stepper.validate(scheme, data)
        wall = time.perf_counter() - start
    result = {"setup_wall_s": wall, "setup_s": speed.scaled(wall, samples)}

    package = os.path.dirname(os.path.abspath(fracch.__file__))
    if package != os.path.join(ROOT, "src", "fracch"):
        sys.stderr.write(f"imported fracch from {package}, not from this checkout\n")
        return 2
    if not args.setup_only:
        result.update(_commands(args, probe, run_cfg.steps, scheme.grid.size))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _timed(probe, argv):
    """Exit code, wall time and scaled time of one ``cli.main(argv)`` call."""
    from fracch import cli

    with probe.sampling() as samples:
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
    return code, wall, speed.scaled(wall, samples)


def _commands(args, probe, steps, grid_size):
    out = {}
    tracer = None
    scope = contextlib.nullcontext()
    if args.trace:
        import spans

        tracer = spans.Tracer()
        scope = tracer.installed()
    with scope:
        out["simulate_exit"], out["simulate_wall_s"], out["simulate_s"] = _timed(
            probe, ["simulate", args.config, "--out", args.rundir])
        out["run_bytes"] = _tree_bytes(args.rundir)
        # a report takes 0.05-0.6 s, so untraced runs repeat it on the same
        # run directory for a steadier median; it rewrites report.json identically
        out["report_wall_s"], out["report_s"] = [], []
        while True:
            out["report_exit"], wall, scaled = _timed(probe, ["longtime-report", args.rundir])
            out["report_wall_s"].append(wall)
            out["report_s"].append(scaled)
            if (args.trace or out["report_exit"] != 0
                    or (len(out["report_s"]) >= REPORT_MIN_CALLS
                        and sum(out["report_wall_s"]) >= REPORT_MIN_SECONDS)):
                break
    report = os.path.join(args.rundir, "report.json")
    out["report_bytes"] = os.path.getsize(report) if os.path.exists(report) else 0
    if tracer is not None and out["simulate_exit"] == 0:
        out["layers"] = spans.layer_metrics(tracer, steps, grid_size)
    return out


if __name__ == "__main__":
    sys.exit(main())
