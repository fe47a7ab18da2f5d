"""Recompute ``references.json``: final ``norm_y`` and ``mean_mu`` of every input.

    python3 bench/make_references.py

Run from the root of a checkout whose outputs are trusted.  For every
workload and each of its ``INPUTS`` inputs it runs ``fracch simulate``
in this process and stores the last row of ``trajectory.csv``.
"""

import json
import os
import shutil
import sys

import run
from workloads import INPUTS, WORKLOADS

sys.path.insert(0, os.path.join(run.ROOT, "src"))
from fracch import cli  # noqa: E402


def main():
    work = os.path.join(run.ROOT, ".bench_work", "references")
    os.makedirs(work, exist_ok=True)
    references = {}
    try:
        for workload in WORKLOADS.values():
            references[workload.name] = []
            for seed in range(INPUTS):
                config = os.path.join(work, "config.ini")
                with open(config, "w", encoding="utf-8") as fh:
                    fh.write(workload.config_text(seed))
                rundir = os.path.join(work, "run")
                if cli.main(["simulate", config, "--out", rundir]) != 0:
                    return 1
                final = run._final_row(os.path.join(rundir, "trajectory.csv"))
                references[workload.name].append(
                    {key: final[key] for key in ("norm_y", "mean_mu")})
                shutil.rmtree(rundir)
    finally:
        shutil.rmtree(os.path.dirname(work), ignore_errors=True)
    with open(os.path.join(run.BENCH, "references.json"), "w", encoding="utf-8") as fh:
        json.dump(references, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
