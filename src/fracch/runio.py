"""Deterministic file output and reload of runs.

Every number is serialized with 17 significant digits, which round-trips
doubles exactly.  A finite float array is formatted a row at a time
through one ``'%.17g'`` template per row; any other value, a non-finite
array among them, goes element by element, with the same bytes either
way.  A run directory contains the verbatim configuration, a
per-step scalar table, the energy ledger, field snapshots at the
configured schedule, a metadata file and a gnuplot script referencing the
tables.  Every file is written from the trajectory's scalar columns and
snapshot rows, which :func:`stepper.run` reduced its states to as it
marched; no file needs a state that is not a snapshot.  Nothing time- or
host-dependent is ever written.  A run
directory is written into a temporary sibling and swapped in as a whole
once complete, so a failure midway leaves the previous directory intact
and no file of an earlier run survives a rerun; ``report.json`` is
replaced through a temporary file in the same way.  The long-time
report of a stored run is :func:`longtime.longtime_report` fed with the
reloaded tables, which are bit-identical to what the fresh run computed;
analyzing a reloaded run therefore reproduces the fresh analysis byte for
byte.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import asdict, dataclass
from typing import List

import numpy as np

from . import config as cfgmod
from . import estimates as est
from . import longtime
from . import stepper as st
from .errors import ConfigurationError

TRAJECTORY_COLUMNS = longtime.TRAJECTORY_COLUMNS
RUN_SCHEMA = "fracch-run/1"
TEMP_PREFIX = ".fracch-"


def fmt(x) -> str:
    """17-significant-digit representation; exact double round-trip."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _json_value(obj) -> str:
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if np.isnan(v):
            return '"nan"'
        if np.isinf(v):
            return '"inf"' if v > 0 else '"-inf"'
        return fmt(v)
    if isinstance(obj, np.ndarray):
        if obj.ndim and obj.dtype.kind == "f" and np.isfinite(obj).all():
            return _float_rows(obj, "[" + ", ".join(["%.17g"] * obj.shape[-1]) + "]")
        # row by row: a whole-matrix tolist() would hold every element as a float object
        return _json_value(obj.tolist() if obj.ndim <= 1 else list(obj))
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{_json_value(str(k))}: {_json_value(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _float_rows(array: np.ndarray, row_template: str) -> str:
    """A finite float array as ``_json_value`` writes its list: one
    ``'%.17g'`` template per row, which formats exactly like :func:`fmt`."""
    if array.ndim == 1:
        return row_template % tuple(array.tolist())
    return "[" + ", ".join(_float_rows(sub, row_template) for sub in array) + "]"


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_json(path, obj) -> None:
    _write_text(path, _json_value(obj) + "\n")


def _umask_mode(mode: int) -> int:
    """``mode`` less the process umask: what ``open`` or ``os.makedirs`` would give."""
    umask = os.umask(0o022)
    os.umask(umask)
    return mode & ~umask


def write_report(directory, report: dict) -> str:
    """Write ``report.json`` into a run directory; returns the text written.

    The text goes to a temporary file in the directory, which is then renamed
    over ``report.json``: a reader sees the old report or the new one, never
    a part of either.
    """
    text = _json_value(report) + "\n"
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=TEMP_PREFIX)
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.chmod(tmp, _umask_mode(0o666))
        os.replace(tmp, os.path.join(directory, "report.json"))
        tmp = None
    except OSError as exc:
        raise ConfigurationError(f"cannot write report.json into {directory}: {exc}") from None
    finally:
        if tmp is not None:
            os.remove(tmp)
    return text


def trajectory_rows(traj: st.DiscreteTrajectory) -> np.ndarray:
    """Per-step scalar summary rows for the trajectory table, one row per step."""
    columns = longtime.trajectory_columns(traj)
    return np.column_stack([columns[name] for name in TRAJECTORY_COLUMNS])


def _write_table(path, header, rows: np.ndarray, sep: str) -> None:
    # '%.17g' formats exactly like fmt(); integral values print without a point
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, rows, fmt="%.17g", delimiter=sep, header=sep.join(header),
                   comments="")


PLOT_SCRIPT = """\
set datafile separator ','
set key autotitle columnhead
set terminal pngcairo size 1200,800
set output 'trajectory.png'
set multiplot layout 2,2
set xlabel 't'
plot 'trajectory.csv' using 1:2 with lines title 'mean y'
plot 'trajectory.csv' using 1:6 with lines title '|mu|'
plot 'trajectory.csv' using 1:5 with lines title '|B^s y|'
plot 'trajectory.csv' using 1:7 with lines title '|A^r mu|'
unset multiplot
set output 'ledger.png'
set datafile separator '\\t'
plot 'ledger.tsv' using 1:11 with lines title 'ledger slack'
"""


def check_run_target(directory) -> None:
    """Raise :class:`ConfigurationError` unless :func:`write_run` may replace ``directory``.

    A run directory is replaced as a whole, so the target must not exist
    yet, or be an empty directory, or hold a run: a ``meta.json`` whose
    ``schema`` is :data:`RUN_SCHEMA`.  The working directory and the
    directories above it are never replaced.
    """
    target = os.path.realpath(directory)
    if os.path.commonpath([target, os.getcwd()]) == target:
        raise ConfigurationError(f"output directory {directory} is or contains the "
                                 "working directory, which a run cannot replace")
    if not os.path.exists(target):
        ancestor = os.path.dirname(target)
        while not os.path.exists(ancestor):
            ancestor = os.path.dirname(ancestor)
        if not os.path.isdir(ancestor):
            raise ConfigurationError(f"output directory {directory} lies under "
                                     f"{ancestor}, which is not a directory")
        return
    if not os.path.isdir(target):
        raise ConfigurationError(f"output directory {directory} exists and is not a directory")
    try:
        if not os.listdir(target):
            return
        with open(os.path.join(target, "meta.json"), "r", encoding="utf-8") as fh:
            if json.load(fh).get("schema") == RUN_SCHEMA:
                return
    except (OSError, ValueError, AttributeError):
        pass
    raise ConfigurationError(f"output directory {directory} is neither empty nor a run "
                             f"directory (a meta.json of schema {RUN_SCHEMA}); a run "
                             "replaces its directory as a whole, so it is left alone")


def _swap_in(staging: str, target: str) -> None:
    """Put the directory ``staging`` at ``target``, deleting what was there."""
    if not os.path.exists(target):
        os.rename(staging, target)
        return
    # a directory cannot be renamed over a non-empty one: move the old run aside first
    aside = tempfile.mkdtemp(dir=os.path.dirname(target), prefix=TEMP_PREFIX)
    os.rename(target, os.path.join(aside, "old"))
    try:
        os.rename(staging, target)
    except OSError:
        os.rename(os.path.join(aside, "old"), target)
        os.rmdir(aside)
        raise
    shutil.rmtree(aside)


def write_run(directory, traj: st.DiscreteTrajectory, run_cfg: cfgmod.RunConfig,
              config_text: str) -> dict:
    """Write the full run directory; returns the metadata dictionary.

    The files go to a temporary sibling of ``directory``, which replaces
    ``directory`` only once every file is written; a failure midway leaves
    ``directory`` as it was.  See :func:`check_run_target` for what may be
    replaced.
    """
    target = os.path.realpath(directory)
    parent = os.path.dirname(target)
    staging = None
    try:
        os.makedirs(parent, exist_ok=True)
        staging = tempfile.mkdtemp(dir=parent, prefix=TEMP_PREFIX)
        os.chmod(staging, _umask_mode(0o777))
        meta = _write_files(staging, traj, run_cfg, config_text)
        check_run_target(directory)
        _swap_in(staging, target)
        staging = None
    except OSError as exc:
        raise ConfigurationError(f"cannot write run directory {directory}: {exc}") from None
    finally:
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)
    return meta


def _write_files(directory, traj: st.DiscreteTrajectory, run_cfg: cfgmod.RunConfig,
                 config_text: str) -> dict:
    config = traj.config
    rows = trajectory_rows(traj)
    _write_table(os.path.join(directory, "trajectory.csv"), TRAJECTORY_COLUMNS, rows, ",")
    ledger = est.gronwall_ledger(traj)
    _write_table(os.path.join(directory, "ledger.tsv"),
                 ("step",) + est.LEDGER_TERMS + ("rhs_bound", "slack", "data_bound"),
                 np.column_stack([ledger.step, ledger.terms, ledger.rhs_bound,
                                  ledger.slack, ledger.data_bound]), "\t")
    snap_header = ["t"] + [f"v{i}" for i in range(config.grid.size)]
    snap_times = traj.h * np.array(traj.snapshot_steps, dtype=float)
    for name, states in (("snapshots_y.csv", traj.y_snapshots),
                         ("snapshots_mu.csv", traj.mu_snapshots)):
        _write_table(os.path.join(directory, name), snap_header,
                     np.column_stack([snap_times, states]), ",")
    report = est.uniform_report(traj)
    plateau = {}
    steps = len(ledger.step)
    if steps >= 2:
        final, halfway = ledger.terms[-1], ledger.terms[steps // 2 - 1]
        ratios = np.abs(final - halfway) / np.maximum(np.abs(final), est.SLACK_FLOOR)
        plateau = dict(zip(est.LEDGER_TERMS, ratios.tolist()))
    est_payload = {
        "uniform": asdict(report),
        "dual_norm": asdict(est.dual_norm_report(traj)),
        "min_slack": float(ledger.slack.min()) if steps else 0.0,
        "halfway_plateau_ratios": plateau,
    }
    write_json(os.path.join(directory, "estimates.json"), est_payload)
    columns = dict(zip(TRAJECTORY_COLUMNS, rows.T))
    mean_y = columns["mean_y"]
    meta = {
        "schema": RUN_SCHEMA,
        "seed": run_cfg.seed,
        "h": traj.h,
        "steps": traj.steps,
        "snapshot_steps": traj.snapshot_steps,
        "initial_mean": mean_y[0],
        "final_mass_identity_defect": abs(
            mean_y[-1] + traj.h * columns["mean_mu"][-1] - mean_y[0]),
        "y_min": traj.y_range[0],
        "y_max": traj.y_range[1],
        "newton_iterations_max": int(columns["newton_iters"].max()),
    }
    write_json(os.path.join(directory, "meta.json"), meta)
    _write_text(os.path.join(directory, "config.ini"), config_text)
    for path in cfgmod.input_files(run_cfg):
        target = os.path.join(directory, path)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copyfile(os.path.join(run_cfg.base_dir, path), target)
    _write_text(os.path.join(directory, "plot.gp"), PLOT_SCRIPT)
    return meta


@dataclass(frozen=True, eq=False)
class StoredRun:
    """A run directory loaded back into memory.

    ``columns`` holds the :data:`TRAJECTORY_COLUMNS` series and
    ``y_snapshots`` the (S, m) array of states at ``snapshot_steps``.  All
    numbers are bit-identical to the ones computed by the fresh run.  No
    report reads the potential values of ``snapshots_mu.csv``, so only its
    layout is checked.
    """

    run_config: cfgmod.RunConfig
    scheme: st.SchemeConfig
    data: st.ProblemData
    columns: dict
    snapshot_steps: List[int]
    y_snapshots: np.ndarray
    meta: dict


def _read_table(path, sep):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(sep)
        try:
            rows = np.loadtxt(fh, delimiter=sep, ndmin=2)
        except ValueError as exc:
            raise ConfigurationError(f"{path} is malformed: {exc}") from None
    return header, rows


def _table_layout(path, sep):
    """The first column of a table and the field count of its rows, the other
    fields left unparsed; rows of different lengths are malformed."""
    first, widths = [], set()
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        # line by line: the whole file at once would set the reload's peak memory;
        # splitlines() splits each as it would split the whole text
        for row in (line for text in fh for line in text.splitlines() if line.strip()):
            widths.add(row.count(sep) + 1)
            first.append(row.split(sep, 1)[0])
    if len(widths) > 1:
        raise ConfigurationError(f"{path} is malformed: its rows hold different numbers "
                                 "of fields")
    try:
        first = np.array([float(field) for field in first])
    except ValueError as exc:
        raise ConfigurationError(f"{path} is malformed: {exc}") from None
    return first, widths.pop() if widths else 0


def _read_meta(path) -> dict:
    """``meta.json`` with the entries a reload relies on checked."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except ValueError as exc:
        raise ConfigurationError(f"{path} is malformed: {exc}") from None
    if not isinstance(meta, dict):
        raise ConfigurationError(f"{path} does not hold a JSON object")

    def is_int(v):
        return isinstance(v, int) and not isinstance(v, bool)

    def is_number(v):
        return is_int(v) or isinstance(v, float)

    checks = {"steps": lambda v: is_int(v) and v >= 0,
              "snapshot_steps": lambda v: isinstance(v, list) and all(map(is_int, v)),
              "y_min": is_number, "y_max": is_number}
    bad = [key for key, ok in checks.items() if key not in meta or not ok(meta[key])]
    if bad:
        raise ConfigurationError(f"{path} lacks a valid {', '.join(bad)}")
    return meta


def load_run(directory) -> StoredRun:
    """Reload a run directory written by :func:`write_run`.

    Tables whose row count or snapshot steps disagree with ``meta.json``
    (a truncated or partly written directory) raise ``ConfigurationError``.
    """
    missing = [name for name in ("config.ini", "meta.json", "trajectory.csv",
                                 "snapshots_y.csv", "snapshots_mu.csv")
               if not os.path.exists(os.path.join(directory, name))]
    if missing:
        raise ConfigurationError(f"{directory} does not contain a run (no {', '.join(missing)})")
    run_cfg = cfgmod.load_config(os.path.join(directory, "config.ini"))
    scheme, data = cfgmod.build_problem(run_cfg)
    meta = _read_meta(os.path.join(directory, "meta.json"))
    header, values = _read_table(os.path.join(directory, "trajectory.csv"), ",")
    if tuple(header) != TRAJECTORY_COLUMNS:
        raise ConfigurationError("trajectory table has unexpected columns")
    if len(values) != meta["steps"] + 1:
        raise ConfigurationError(
            f"trajectory.csv has {len(values)} rows, expected {meta['steps'] + 1}")
    columns = dict(zip(TRAJECTORY_COLUMNS, values.T))

    def check_snapshots(name, times, fields):
        if fields != scheme.grid.size + 1:
            raise ConfigurationError(f"{name} rows do not match the grid size")
        if np.rint(times / scheme.h).astype(int).tolist() != meta["snapshot_steps"]:
            raise ConfigurationError(f"{name} does not hold the snapshot steps of meta.json")

    _, y_rows = _read_table(os.path.join(directory, "snapshots_y.csv"), ",")
    check_snapshots("snapshots_y.csv", y_rows[:, 0], y_rows.shape[1])
    check_snapshots("snapshots_mu.csv",
                    *_table_layout(os.path.join(directory, "snapshots_mu.csv"), ","))
    return StoredRun(run_config=run_cfg, scheme=scheme, data=data, columns=columns,
                     snapshot_steps=meta["snapshot_steps"], y_snapshots=y_rows[:, 1:],
                     meta=meta)


def stored_longtime_report(stored: StoredRun, window_fraction: float = 0.5) -> dict:
    """Limit-point analysis of a stored run; the payload of report.json.

    Feeds the reloaded tables to :func:`longtime.longtime_report`.
    """
    return longtime.longtime_report(
        stored.scheme, stored.data, stored.y_snapshots, stored.snapshot_steps,
        stored.columns, (stored.meta["y_min"], stored.meta["y_max"]),
        window_fraction)
