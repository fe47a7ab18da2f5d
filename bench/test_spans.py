"""Tests of the benchmark's own tracing and checks.

    python3 -m pytest bench
"""

import contextlib
import io
import json
import os
import sys

import numpy as np
import pytest

import run
import spans
from workloads import INPUTS, WORKLOADS

sys.path.insert(0, os.path.join(run.ROOT, "src"))
from fracch import cli, config, stepper  # noqa: E402

SMALL = WORKLOADS["canonical-obstacle"].config_text(0).replace(
    "modes = 64", "modes = 8").replace("grid_points = 129", "grid_points = 17").replace(
    "steps = 1000", "steps = 20")


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_direct_children_only():
    tracer = spans.Tracer(clock=FakeClock([0.0, 1.0, 2.0, 4.0, 7.0, 7.0, 8.0, 10.0]))

    def leaf():
        return None

    def middle():
        tracer.spanned("leaf", leaf)()

    def outer():
        tracer.spanned("middle", middle)()
        tracer.spanned("leaf", leaf)()

    tracer.spanned("outer", outer)()
    names = [(name, parent) for name, parent, _, _ in tracer.spans]
    assert names == [("outer", -1), ("middle", 0), ("leaf", 1), ("leaf", 0)]
    # outer 0..10, middle 1..7, leaf 2..4, leaf 7..8
    assert spans.self_times(tracer.spans) == [3.0, 4.0, 2.0, 1.0]


def _originals():
    found = {}
    for module_name, attribute in spans.SPANNED + spans.COUNTED:
        module = sys.modules[f"fracch.{module_name}"]
        found[module_name, attribute] = getattr(module, attribute)
    found["numpy", "solve"] = np.linalg.solve
    return found


def _assert_restored(before):
    assert _originals() == before


def test_traced_run_restores_every_attribute_and_adds_up(tmp_path):
    cfg = tmp_path / "small.ini"
    cfg.write_text(SMALL)
    rundir = str(tmp_path / "run")
    before = _originals()
    tracer = spans.Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        assert np.linalg.solve is before["numpy", "solve"]  # only inside stepper.run
        assert cli.main(["simulate", str(cfg), "--out", rundir]) == 0
        assert cli.main(["longtime-report", rundir]) == 0
    _assert_restored(before)

    layers = spans.layer_metrics(tracer, 20, 17)
    children = (layers["stepper.linear_solve_s"] + layers["stepper.potentials_s"]
                + layers["stepper.validate_s"])
    assert layers["stepper.self_s"] + children == pytest.approx(layers["stepper.run_s"],
                                                                rel=1e-12)
    assert layers["stepper.self_s"] > 0
    assert layers["estimates.dual_norm_report_calls"] == 2
    assert layers["spectral.apply_power_calls"] > 0
    assert layers["runio.load_run_s"] > 0

    scheme, data = config.build_problem(config.load_config(str(cfg)))
    stats = stepper.run(scheme, data).solver_stats
    assert layers["stepper.linear_solve_calls"] == sum(s.iterations for s in stats)
    assert layers["stepper.dampings"] == sum(s.dampings for s in stats)
    assert layers["stepper.residual_evals"] == layers["potentials.yosida_calls"]
    assert run.check_run(rundir, run._final_row(os.path.join(rundir, "trajectory.csv"))) == []


def test_restores_after_an_exception():
    before = _originals()
    with pytest.raises(RuntimeError):
        with spans.Tracer().installed():
            raise RuntimeError("boom")
    _assert_restored(before)


def test_declared_per_layer_metrics_are_the_ones_computed(tmp_path):
    cfg = tmp_path / "small.ini"
    cfg.write_text(SMALL)
    tracer = spans.Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", str(cfg), "--out", str(tmp_path / "run")]) == 0
    computed = set(spans.layer_metrics(tracer, 20, 17))
    computed |= {"runio.bytes_written", "runio.report_bytes", "trace.overhead_s"}
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert declared == computed


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_inputs_are_valid_and_have_references(name):
    workload = WORKLOADS[name]
    with open(os.path.join(run.BENCH, "references.json"), encoding="utf-8") as fh:
        assert len(json.load(fh)[name]) == INPUTS
    for seed in range(INPUTS):
        amplitudes = workload.amplitudes(seed)
        assert sum(abs(a) for a in amplitudes) < 1.0
        assert workload.amplitudes(seed + INPUTS) == amplitudes
        scheme, data = config.build_problem(config.parse_config(workload.config_text(seed)))
        stepper.validate(scheme, data)
        assert scheme.steps == workload.steps and scheme.grid.size == workload.grid
