"""Per-layer spans recorded from outside the fracch package.

A :class:`Tracer` replaces public functions of fracch's modules, on the
module attributes their callers look up, with wrappers that record one
span per call: ``[name, parent span index, start, end]``.  The parent is
the innermost span open when the call began, so time spent inside a
``potentials`` call made from ``estimates`` is a child of that
``estimates`` span.  ``numpy.linalg.solve`` is wrapped only while a
``stepper.run`` span is open, which makes its spans the Newton linear
solves.  ``spectral.apply_power`` runs tens of thousands of times per run,
so it is only counted.  Spans stay in memory; :func:`layer_metrics` turns
them into the benchmark's per-layer numbers at the end.
"""

from __future__ import annotations

import collections
import contextlib
import importlib
import time

import numpy as np

# (module, function): each call becomes a span named "<module>.<function>"
SPANNED = (
    ("config", "load_config"),
    ("config", "build_problem"),
    ("config", "snapshot_steps"),
    ("stepper", "run"),
    ("stepper", "validate"),
    ("potentials", "yosida"),
    ("potentials", "yosida_derivative"),
    ("potentials", "yosida_primal"),
    ("estimates", "gronwall_ledger"),
    ("estimates", "uniform_report"),
    ("estimates", "dual_norm_report"),
    ("runio", "write_run"),
    ("runio", "trajectory_rows"),
    ("runio", "load_run"),
    ("runio", "stored_longtime_report"),
    ("longtime", "stationarity_residual"),
    ("longtime", "residual_scale"),
    ("longtime", "variational_inequality_check"),
)
COUNTED = (("spectral", "apply_power"),)
LINEAR_SOLVE = "stepper.linear_solve"


class Tracer:
    """Installs span wrappers on fracch's modules and restores the originals."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []            # [name, parent index or -1, start, end]
        self.calls = collections.Counter()
        self.solve_orders = []     # matrix order of every traced linear solve
        self._open = []            # indices of the spans not yet ended
        self._saved = []           # (owner, attribute, original), install order

    def spanned(self, name, fn):
        """Return ``fn`` wrapped so that each call records a span called ``name``."""
        spans, stack, clock = self.spans, self._open, self.clock

        def wrapper(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, clock(), None]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _solve_scoped(self, run):
        """Wrap ``stepper.run`` so that ``numpy.linalg.solve`` is traced inside it only."""
        orders = self.solve_orders

        def solve(a, b):
            orders.append(len(a))
            return original(a, b)

        original = np.linalg.solve
        traced_solve = self.spanned(LINEAR_SOLVE, solve)

        def scoped(*args, **kwargs):
            np.linalg.solve = traced_solve
            try:
                return run(*args, **kwargs)
            finally:
                np.linalg.solve = original

        return scoped

    def _patch(self, owner, attribute, replacement):
        self._saved.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self):
        for module_name, attribute in SPANNED:
            module = importlib.import_module(f"fracch.{module_name}")
            fn = getattr(module, attribute)
            if (module_name, attribute) == ("stepper", "run"):
                fn = self._solve_scoped(fn)
            self._patch(module, attribute, self.spanned(f"{module_name}.{attribute}", fn))
        for module_name, attribute in COUNTED:
            module = importlib.import_module(f"fracch.{module_name}")
            self._patch(module, attribute,
                        self.counted(f"{module_name}.{attribute}", getattr(module, attribute)))

    def restore(self):
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    @contextlib.contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.restore()


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tracer: Tracer, steps: int, grid_size: int) -> dict:
    """Per-layer numbers of one traced simulate + longtime-report repetition.

    ``stepper.run_s`` equals the sum of its children (linear solve,
    potentials, validate) plus ``stepper.self_s``, which holds the dense
    matvecs and the Jacobian assembly.  The linear-solve flops and the
    residual matvec bytes are computed from the matrix order, not measured.
    """
    spans = tracer.spans
    own = self_times(spans)
    total = collections.defaultdict(float)
    calls = collections.Counter()
    for name, _, start, end in spans:
        total[name] += end - start
        calls[name] += 1
    (run,) = [i for i, span in enumerate(spans) if span[0] == "stepper.run"]
    under_run = collections.defaultdict(float)
    for name, parent, start, end in spans:
        if parent == run:
            under_run[name] += end - start
    residual_evals = sum(1 for name, parent, _, _ in spans
                         if parent == run and name == "potentials.yosida")
    solves = len(tracer.solve_orders)
    gflop = sum(2.0 / 3.0 * m**3 for m in tracer.solve_orders) / 1e9
    solve_s = under_run[LINEAR_SOLVE]
    return {
        "stepper.run_s": total["stepper.run"],
        "stepper.step_ms": 1e3 * total["stepper.run"] / steps,
        "stepper.self_s": own[run],
        "stepper.linear_solve_s": solve_s,
        "stepper.potentials_s": sum(v for k, v in under_run.items()
                                    if k.startswith("potentials.")),
        "stepper.validate_s": under_run["stepper.validate"],
        "stepper.linear_solve_calls": solves,
        "stepper.linear_solve_gflop_computed": gflop,
        "stepper.linear_solve_gflops": gflop / solve_s if solve_s > 0 else 0.0,
        "stepper.residual_matvec_mb_computed": residual_evals * 2 * 8 * grid_size**2 / 1e6,
        "stepper.newton_iters_per_step": solves / steps,
        # each step evaluates the residual once up front and once per trial point
        "stepper.dampings": residual_evals - steps - solves,
        "stepper.residual_evals": residual_evals,
        "potentials.yosida_s": total["potentials.yosida"],
        "potentials.yosida_calls": calls["potentials.yosida"],
        "potentials.yosida_derivative_s": total["potentials.yosida_derivative"],
        "potentials.yosida_derivative_calls": calls["potentials.yosida_derivative"],
        "potentials.yosida_primal_s": total["potentials.yosida_primal"],
        "potentials.yosida_primal_calls": calls["potentials.yosida_primal"],
        "estimates.gronwall_ledger_s": total["estimates.gronwall_ledger"],
        "estimates.uniform_report_s": total["estimates.uniform_report"],
        "estimates.dual_norm_report_s": total["estimates.dual_norm_report"],
        "estimates.dual_norm_report_calls": calls["estimates.dual_norm_report"],
        "spectral.apply_power_calls": tracer.calls["spectral.apply_power"],
        "runio.write_run_s": total["runio.write_run"],
        "runio.write_run_self_s": sum(own[i] for i, span in enumerate(spans)
                                      if span[0] == "runio.write_run"),
        "runio.trajectory_rows_s": total["runio.trajectory_rows"],
        "runio.load_run_s": total["runio.load_run"],
        "runio.stored_longtime_report_s": total["runio.stored_longtime_report"],
        "longtime.variational_inequality_check_s":
            total["longtime.variational_inequality_check"],
    }
