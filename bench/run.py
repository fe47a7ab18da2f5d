"""Benchmark of the fracch command line on one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The load is a closed loop of one client:
each repetition is a fresh child process (``child.py``) that runs
``fracch simulate`` and then ``fracch longtime-report`` on the run
document the seed draws, and the next repetition starts only after the
previous one has ended.  Repetitions continue while another one still fits
into ``--seconds``.  The children import the package from ``src`` and run
with OpenBLAS/OpenMP pinned to one thread.

Every repetition is checked: both commands exit 0, the final mass-identity
defect is at most 1e-10, the smallest relative ledger slack is at least
-1e-8, the final ``norm_y`` and ``mean_mu`` match ``references.json``, and
all repetitions of the run write byte-identical run directories.

With ``--trace 0`` the metrics are medians over the run: of the simulate
times and the peak resident set size of the repetitions, of every timed
report call (each child repeats the report on its run directory for at
least a second) and of the set-up time over at least ``SETUP_SAMPLES``
children.  Every time is the wall time scaled to a fixed machine speed by
the probe of ``speed.py``, which runs alongside each timed section; the
plain wall times are in the detail line.  With
``--trace 1`` untraced and traced repetitions alternate; the per-layer
metrics come from the traced repetition with the median simulate time,
and ``trace.overhead_s`` is the median traced simulate time minus the
median untraced one.  The line before the last one holds the environment,
every sample and any failures; the last line is the result.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BLAS_THREADS = "1"
MIN_REPETITIONS = {0: 3, 1: 2}
SETUP_SAMPLES = 15
HARD_LIMIT_S = 170.0

MASS_DEFECT_MAX = 1e-10     # acceptance criterion 3
RELATIVE_SLACK_MIN = -1e-8  # acceptance criterion 4
# Final norm_y and mean_mu may differ from the stored reference by this much
# times max(1, |reference|).  Stopping Newton at 1e-8 instead of 1e-10 moves
# them by at most 3e-13 on these workloads, and a step solved only to the
# 1e-10 residual is off by at most about 1e-10 * h / tau per step, so an
# inexact inner solve that still meets newton_tol stays far inside it.
REFERENCE_TOL = 1e-6
SLACK_FLOOR = 1e-12


def _child_env():
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    return env


def _run_child(config, rundir, result, *, trace=False, setup_only=False, timeout):
    argv = [sys.executable, os.path.join(BENCH, "child.py"), config, rundir, result]
    argv += ["--trace"] * trace + ["--setup-only"] * setup_only
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=_child_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"failures": [f"repetition exceeded {timeout:.0f} s"]}
    wall = time.perf_counter() - start
    if proc.returncode != 0 or not os.path.exists(result):
        tail = proc.stderr.decode(errors="replace").strip()[-2000:]
        return {"failures": [f"child exited {proc.returncode}: {tail}"], "wall_s": wall}
    with open(result, encoding="utf-8") as fh:
        rep = json.load(fh)
    os.remove(result)
    rep["failures"] = []
    rep["wall_s"] = wall
    rep["traced"] = bool(trace)
    return rep


def _digest(directory):
    sha = hashlib.sha256()
    for base, dirs, names in os.walk(directory):
        dirs.sort()
        for name in sorted(names):
            path = os.path.join(base, name)
            sha.update(os.path.relpath(path, directory).encode() + b"\0")
            with open(path, "rb") as fh:
                sha.update(fh.read())
    return sha.hexdigest()


def _min_relative_slack(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh, delimiter="\t")
        header = next(rows)
        slack_col, rhs_col = header.index("slack"), header.index("rhs_bound")
        worst = float("inf")
        for row in rows:
            values = [abs(float(v)) for v in row[1:slack_col]]
            slack = float(row[slack_col])
            scale = max(max(values), abs(float(row[rhs_col])), SLACK_FLOOR)
            worst = min(worst, slack / scale)
    return worst


def _final_row(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: float(value) for key, value in rows[-1].items()}


def check_run(directory, reference):
    """Failures of one run directory against the correctness checks."""
    failures = []
    with open(os.path.join(directory, "meta.json"), encoding="utf-8") as fh:
        defect = json.load(fh)["final_mass_identity_defect"]
    if not defect <= MASS_DEFECT_MAX:
        failures.append(f"mass-identity defect {defect!r} > {MASS_DEFECT_MAX}")
    slack = _min_relative_slack(os.path.join(directory, "ledger.tsv"))
    if not slack >= RELATIVE_SLACK_MIN:
        failures.append(f"relative ledger slack {slack!r} < {RELATIVE_SLACK_MIN}")
    final = _final_row(os.path.join(directory, "trajectory.csv"))
    for key in ("norm_y", "mean_mu"):
        if not abs(final[key] - reference[key]) <= REFERENCE_TOL * max(1.0, abs(reference[key])):
            failures.append(f"final {key} {final[key]!r} differs from reference "
                            f"{reference[key]!r}")
    return failures


def _environment(args, workload):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "seed": args.seed,
        "input": workload.input_index(args.seed),
        "steps": workload.steps,
        "grid": workload.grid,
        "modes": workload.modes,
        "load": "closed loop, one client, one fresh process per repetition",
    }


def measure(args, workload, work):
    config = os.path.join(work, "config.ini")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(workload.config_text(args.seed))
    with open(os.path.join(BENCH, "references.json"), encoding="utf-8") as fh:
        reference = json.load(fh)[workload.name][workload.input_index(args.seed)]
    result = os.path.join(work, "result.json")
    begin = time.perf_counter()

    def remaining():
        return max(1.0, HARD_LIMIT_S - (time.perf_counter() - begin))

    # compiles the package's bytecode and warms the file cache; not timed
    warm = _run_child(config, work, result, setup_only=True, timeout=remaining())
    if warm["failures"]:
        return [warm], []
    reps, digest = [], None
    start = time.perf_counter()
    while True:
        rundir = os.path.join(work, f"run{len(reps)}")
        rep = _run_child(config, rundir, result, trace=args.trace and len(reps) % 2 == 1,
                         timeout=remaining())
        if not rep["failures"]:
            if rep["simulate_exit"] != 0 or rep["report_exit"] != 0:
                rep["failures"].append(f"exit codes {rep['simulate_exit']}, "
                                       f"{rep['report_exit']}")
            else:
                rep["failures"] += check_run(rundir, reference)
                rep_digest = _digest(rundir)
                digest = digest or rep_digest
                if rep_digest != digest:
                    rep["failures"].append("run directory differs from the first repetition")
        shutil.rmtree(rundir, ignore_errors=True)
        reps.append(rep)
        if rep["failures"]:
            break
        elapsed = time.perf_counter() - start
        next_wall = max(r["wall_s"] for r in reps[-2:])
        if len(reps) >= MIN_REPETITIONS[args.trace] and elapsed + next_wall > args.seconds:
            break
    setups = [r for r in reps if not r["failures"]]
    while not args.trace and 0 < len(setups) < SETUP_SAMPLES:
        rep = _run_child(config, work, result, setup_only=True, timeout=remaining())
        if rep["failures"]:
            reps.append(rep)
            break
        setups.append(rep)
    return reps, setups


def metrics(args, reps, setups):
    ok = [r for r in reps if not r["failures"]]
    plain = [r for r in ok if not r["traced"]]
    if args.trace == 0:
        return {
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "simulate_s": statistics.median(r["simulate_s"] for r in plain),
            "report_s": statistics.median(t for r in plain for t in r["report_s"]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    traced = [r for r in ok if r["traced"]]
    chosen = sorted(traced, key=lambda r: r["simulate_s"])[(len(traced) - 1) // 2]
    values = dict(chosen["layers"])
    values["runio.bytes_written"] = chosen["run_bytes"]
    values["runio.report_bytes"] = chosen["report_bytes"]
    values["trace.overhead_s"] = (statistics.median(r["simulate_s"] for r in traced)
                                  - statistics.median(r["simulate_s"] for r in plain))
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fracch", "__init__.py")):
        sys.stderr.write(f"no fracch package under {os.path.join(ROOT, 'src')}\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]

    work = os.path.join(ROOT, ".bench_work", f"{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        reps, setups = measure(args, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    failures = [f for r in reps for f in r["failures"]]
    details = {
        "environment": _environment(args, workload),
        "samples": {key: [r[key] for r in reps if key in r]
                    for key in ("simulate_s", "simulate_wall_s", "report_s",
                                "report_wall_s", "peak_rss_mb", "wall_s")},
        "setup_samples": {key: [r[key] for r in setups]
                          for key in ("setup_s", "setup_wall_s")},
        "traced": [r.get("traced", False) for r in reps],
        "failures": failures,
    }
    print(json.dumps(details))
    sys.stdout.flush()
    usable = [r for r in reps if not r["failures"]]
    if not usable or (args.trace and not any(r["traced"] for r in usable)):
        sys.stderr.write("no repetition passed its checks:\n" + "\n".join(failures) + "\n")
        return 1
    values = metrics(args, reps, setups)
    result = {
        "correct": not failures,
        "attempted": len(reps),
        "failed": len(reps) - len(usable),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
