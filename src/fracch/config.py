"""Sectioned key = value run configuration.

A run document has sections ``[operator_a]``, ``[operator_b]``,
``[potential]``, ``[scheme]``, ``[data]``, ``[output]`` and ``[run]``.
Unknown sections or keys are errors: nothing is silently defaulted except
the documented tolerances.  Parsing either yields a fully resolved
:class:`RunConfig` or raises a :class:`ConfigurationError` listing every
field-level problem at once.
"""

from __future__ import annotations

import configparser
import math
import os
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import potentials as pot
from . import spectral as sp
from . import stepper as st
from .errors import ConfigurationError

_OPERATOR_KEYS = {"kind", "modes", "length", "grid_points", "exponent", "matrix_file"}
_POTENTIAL_KEYS = {"name", "c1", "c2"}
_SCHEME_KEYS = {"tau", "yosida_lambda", "h", "steps", "newton_tol", "newton_max"}
_DATA_KEYS = {"y0", "source", "u_inf", "u_bump"}
_OUTPUT_KEYS = {"directory", "snapshots"}
_RUN_KEYS = {"seed"}

DEFAULT_NEWTON_TOL = 1e-10
DEFAULT_NEWTON_MAX = 50
DEFAULT_SNAPSHOTS = "log 65"


@dataclass(frozen=True)
class OperatorSection:
    kind: str
    exponent: float
    modes: int = 0
    length: float = 0.0
    grid_points: int = 0
    matrix_file: Optional[str] = None


@dataclass(frozen=True)
class RunConfig:
    """Parsed and validated run document."""

    operator_a: OperatorSection
    operator_b: OperatorSection
    potential_name: str
    potential_params: dict
    tau: float
    yosida_lambda: float
    h: float
    steps: int
    newton_tol: float
    newton_max: int
    y0_descriptor: str
    source_descriptor: str
    u_inf_descriptor: str
    u_bump_descriptor: Optional[str]
    output_directory: Optional[str]
    snapshots: str
    seed: int
    base_dir: str = "."


class _Collector:
    def __init__(self):
        self.errors = []

    def add(self, where, message):
        self.errors.append(f"{where}: {message}")

    def raise_if_any(self):
        if self.errors:
            raise ConfigurationError("; ".join(self.errors))


def _get(parser, section, key, collector, default=None, required=True):
    if parser.has_option(section, key):
        return parser.get(section, key)
    if required and default is None:
        collector.add(f"[{section}] {key}", "missing")
    return default


def _finite(token: str) -> float:
    """``float(token)``; ``ValueError`` when it does not parse or is not finite."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token!r} is not finite")
    return value


def _typed(raw, kind, where, collector):
    """``raw`` as an int or, for ``kind=float``, a finite float; errors go to ``collector``."""
    if raw is None:
        return None
    try:
        return _finite(raw) if kind is float else kind(raw)
    except ValueError:
        expected = "a finite number" if kind is float else "an integer"
        collector.add(where, f"cannot parse {raw!r} as {expected}")
        return None


def _parse_operator(parser, section, collector) -> Optional[OperatorSection]:
    unknown = set(parser.options(section)) - _OPERATOR_KEYS
    for key in sorted(unknown):
        collector.add(f"[{section}] {key}", "unknown key")
    kind = _get(parser, section, "kind", collector)
    exponent = _typed(_get(parser, section, "exponent", collector), float,
                      f"[{section}] exponent", collector)
    if kind is None or exponent is None:
        return None
    if exponent <= 0:
        collector.add(f"[{section}] exponent", "must be positive")
        return None
    if kind in ("neumann", "dirichlet"):
        modes = _typed(_get(parser, section, "modes", collector), int,
                       f"[{section}] modes", collector)
        length = _typed(_get(parser, section, "length", collector), float,
                        f"[{section}] length", collector)
        points = _typed(_get(parser, section, "grid_points", collector), int,
                        f"[{section}] grid_points", collector)
        if None in (modes, length, points):
            return None
        # a nonpositive length or mode count fails when the basis is built
        problem = length > 0 and modes >= 1 and sp.interval_scale_problem(kind, modes, length)
        if problem:
            collector.add(f"[{section}] length", problem)
            return None
        return OperatorSection(kind=kind, exponent=exponent, modes=modes,
                               length=length, grid_points=points)
    if kind == "matrix":
        path = _get(parser, section, "matrix_file", collector)
        if path is None:
            return None
        return OperatorSection(kind=kind, exponent=exponent, matrix_file=path)
    collector.add(f"[{section}] kind", f"unknown operator kind {kind!r}")
    return None


def parse_config(text: str, base_dir: str = ".") -> RunConfig:
    """Parse a run document; collect and report every field error."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed document: {exc}") from None
    collector = _Collector()
    known_sections = {"operator_a", "operator_b", "potential", "scheme",
                      "data", "output", "run"}
    for section in parser.sections():
        if section not in known_sections:
            collector.add(f"[{section}]", "unknown section")
    for required in ("operator_a", "operator_b", "potential", "scheme", "data"):
        if not parser.has_section(required):
            collector.add(f"[{required}]", "missing section")
    collector.raise_if_any()

    op_a = _parse_operator(parser, "operator_a", collector)
    op_b = _parse_operator(parser, "operator_b", collector)

    unknown = set(parser.options("potential")) - _POTENTIAL_KEYS
    for key in sorted(unknown):
        collector.add(f"[potential] {key}", "unknown key")
    pot_name = _get(parser, "potential", "name", collector)
    pot_params = {}
    for pkey in ("c1", "c2"):
        if parser.has_option("potential", pkey):
            val = _typed(parser.get("potential", pkey), float,
                         f"[potential] {pkey}", collector)
            if val is not None:
                pot_params[pkey] = val

    unknown = set(parser.options("scheme")) - _SCHEME_KEYS
    for key in sorted(unknown):
        collector.add(f"[scheme] {key}", "unknown key")
    tau = _typed(_get(parser, "scheme", "tau", collector), float, "[scheme] tau", collector)
    lam = _typed(_get(parser, "scheme", "yosida_lambda", collector), float,
                 "[scheme] yosida_lambda", collector)
    h = _typed(_get(parser, "scheme", "h", collector), float, "[scheme] h", collector)
    steps = _typed(_get(parser, "scheme", "steps", collector), int, "[scheme] steps", collector)
    newton_tol = _typed(
        _get(parser, "scheme", "newton_tol", collector, default=str(DEFAULT_NEWTON_TOL)),
        float, "[scheme] newton_tol", collector)
    newton_max = _typed(
        _get(parser, "scheme", "newton_max", collector, default=str(DEFAULT_NEWTON_MAX)),
        int, "[scheme] newton_max", collector)
    if tau is not None and not (0.0 <= tau <= 1.0):
        collector.add("[scheme] tau", "must lie in [0, 1]")
    if lam is not None and lam <= 0:
        collector.add("[scheme] yosida_lambda", "must be positive")
    if h is not None and h <= 0:
        collector.add("[scheme] h", "must be positive")
    if steps is not None and steps < 0:
        collector.add("[scheme] steps", "must be nonnegative")
    if h is not None and steps is not None and not math.isfinite(h * steps):
        collector.add("[scheme] h", "the horizon h * steps overflows")
    if newton_tol is not None and newton_tol <= 0:
        collector.add("[scheme] newton_tol", "must be positive")
    if newton_max is not None and newton_max < 1:
        collector.add("[scheme] newton_max", "must be at least 1")
    # a matrix operator's grid is known once build_problem reads its file
    points = [op.grid_points for op in (op_a, op_b) if op is not None and op.kind != "matrix"]
    if steps is not None and steps >= 0 and points:
        too_large = states_too_large(steps, max(points))
        if too_large:
            collector.add("[scheme] steps", too_large)

    unknown = set(parser.options("data")) - _DATA_KEYS
    for key in sorted(unknown):
        collector.add(f"[data] {key}", "unknown key")
    y0_desc = _get(parser, "data", "y0", collector)
    source_desc = _get(parser, "data", "source", collector, default="zero")
    u_inf_desc = _get(parser, "data", "u_inf", collector, default="constant 0")
    u_bump_desc = _get(parser, "data", "u_bump", collector, default=None, required=False)

    out_dir = None
    snapshots = DEFAULT_SNAPSHOTS
    if parser.has_section("output"):
        unknown = set(parser.options("output")) - _OUTPUT_KEYS
        for key in sorted(unknown):
            collector.add(f"[output] {key}", "unknown key")
        out_dir = _get(parser, "output", "directory", collector, required=False)
        snapshots = _get(parser, "output", "snapshots", collector,
                         default=DEFAULT_SNAPSHOTS, required=False)

    seed = 0
    if parser.has_section("run"):
        unknown = set(parser.options("run")) - _RUN_KEYS
        for key in sorted(unknown):
            collector.add(f"[run] {key}", "unknown key")
        seed = _typed(_get(parser, "run", "seed", collector, default="0", required=False),
                      int, "[run] seed", collector) or 0

    collector.raise_if_any()
    cfg = RunConfig(
        operator_a=op_a,
        operator_b=op_b,
        potential_name=pot_name,
        potential_params=pot_params,
        tau=tau, yosida_lambda=lam, h=h, steps=steps,
        newton_tol=newton_tol, newton_max=newton_max,
        y0_descriptor=y0_desc,
        source_descriptor=source_desc,
        u_inf_descriptor=u_inf_desc,
        u_bump_descriptor=u_bump_desc,
        output_directory=out_dir,
        snapshots=snapshots,
        seed=seed,
        base_dir=base_dir,
    )
    # fail fast on unreadable referenced files
    for section in (cfg.operator_a, cfg.operator_b):
        if section.matrix_file is not None:
            path = os.path.join(base_dir, section.matrix_file)
            if not os.path.exists(path):
                raise ConfigurationError(f"matrix file not found: {path}")
    return cfg


def input_files(cfg: RunConfig) -> list:
    """Relative paths of the files the document reads; a run directory keeps a
    copy of each, so a path leaving the document's directory is an error."""
    descriptors = [cfg.y0_descriptor, cfg.u_inf_descriptor, cfg.source_descriptor]
    if cfg.source_descriptor.split()[:1] == ["decay"]:
        descriptors.append(cfg.u_bump_descriptor)
    named = [tokens[1] for tokens in map(str.split, descriptors)
             if len(tokens) == 2 and tokens[0] in ("file", "tabulated")]
    named += [s.matrix_file for s in (cfg.operator_a, cfg.operator_b) if s.matrix_file]
    paths = [path for path in named if not os.path.isabs(path)]
    for path in paths:
        if os.path.normpath(path).split(os.sep)[0] == os.pardir:
            raise ConfigurationError(f"input file {path!r} lies outside the config's "
                                     "directory and cannot be kept in the run directory; "
                                     "use an absolute path")
    return paths


def states_too_large(steps: int, grid_size: int) -> Optional[str]:
    """Why a run's states cannot fit into physical memory, or None when they can.

    A run holds its states in two (steps + 1, grid_size) float arrays.
    Where ``os.sysconf`` cannot tell the memory size, nothing is rejected.
    """
    try:
        total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None
    need = 2 * (steps + 1) * grid_size * 8
    if need <= total:
        return None
    return (f"{steps} steps on {grid_size} grid points need {need:.3g} bytes of states, "
            f"more than the {total:.3g} bytes of physical memory")


def read_config(path: str):
    """The text of a run document and its :class:`RunConfig`, from one read."""
    text = sp.read_text(path, "config file")
    return text, parse_config(text, base_dir=os.path.dirname(os.path.abspath(path)))


def load_config(path: str) -> RunConfig:
    return read_config(path)[1]


def _build_operator(section: OperatorSection, base_dir: str) -> sp.FractionalOperator:
    if section.kind == "matrix":
        matrix = sp.load_matrix_file(os.path.join(base_dir, section.matrix_file))
        basis = sp.build_matrix_basis(matrix)
    else:
        basis = sp.build_interval_basis(section.kind, section.modes,
                                        section.length, section.grid_points)
    return sp.FractionalOperator(basis, section.exponent)


def parse_number(token: str, where: str) -> float:
    """A finite ``float(token)``, or a :class:`ConfigurationError` naming ``where``."""
    try:
        return _finite(token)
    except ValueError:
        raise ConfigurationError(f"{where}: cannot parse {token!r} as a finite number") from None


def _read_numbers(path: str, what: str, ndmin: int) -> np.ndarray:
    """The finite floats of a whitespace-separated text file, as ``np.loadtxt`` reads them.

    A file that is missing, unreadable, empty, not numeric or not finite is
    a :class:`ConfigurationError` naming ``what`` and the path; numpy's
    warnings about it are raised rather than printed.
    """
    lines = sp.read_text(path, what).splitlines()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = np.loadtxt(lines, dtype=float, ndmin=ndmin)
    except (ValueError, Warning) as exc:
        raise ConfigurationError(f"{what} {path} is not a table of numbers: {exc}") from None
    if not np.all(np.isfinite(values)):
        raise ConfigurationError(f"{what} {path} holds a non-finite value")
    return values


def _build_field(descriptor: str, grid: sp.Grid, base_dir: str) -> sp.Field:
    tokens = descriptor.split()
    if not tokens:
        raise ConfigurationError("empty field descriptor")
    kind, args = tokens[0], tokens[1:]
    if kind == "constant":
        if len(args) != 1:
            raise ConfigurationError("constant descriptor takes one value")
        return sp.constant_field(parse_number(args[0], "constant descriptor"), grid)
    if kind == "cosine":
        if not args:
            raise ConfigurationError("cosine descriptor needs coefficients")
        coeffs = [parse_number(a, "cosine descriptor") for a in args]
        values = np.zeros(grid.size)
        for k, c in enumerate(coeffs):
            values += c * np.cos(np.pi * k * grid.x / grid.length)
        return sp.Field(values, grid)
    if kind == "file":
        if len(args) != 1:
            raise ConfigurationError("file descriptor takes one path")
        path = os.path.join(base_dir, args[0])
        values = _read_numbers(path, "field file", ndmin=1).ravel()
        if values.size != grid.size:
            raise ConfigurationError(
                f"field file {path} has {values.size} values, grid has {grid.size}"
            )
        return sp.Field(values, grid)
    raise ConfigurationError(f"unknown field descriptor {kind!r}")


def _build_source(cfg: RunConfig, grid: sp.Grid):
    tokens = cfg.source_descriptor.split()
    kind = tokens[0] if tokens else ""
    u_inf = _build_field(cfg.u_inf_descriptor, grid, cfg.base_dir)
    if kind == "zero":
        return st.zero_source(grid)
    if kind == "constant":
        return st.DecaySource(u_inf)
    if kind == "decay":
        if len(tokens) != 2:
            raise ConfigurationError("decay descriptor takes exactly one rate")
        rate = parse_number(tokens[1], "decay descriptor")
        if cfg.u_bump_descriptor is None:
            raise ConfigurationError("decay source needs a u_bump descriptor")
        bump = _build_field(cfg.u_bump_descriptor, grid, cfg.base_dir)
        return st.DecaySource(u_inf, bump, rate)
    if kind == "tabulated":
        if len(tokens) != 2:
            raise ConfigurationError("tabulated descriptor takes one path")
        path = os.path.join(cfg.base_dir, tokens[1])
        table = _read_numbers(path, "tabulated source file", ndmin=2)
        if table.shape[1] != grid.size + 1:
            raise ConfigurationError(
                "tabulated source rows must be a time followed by nodal values"
            )
        fields = [sp.Field(row[1:], grid) for row in table]
        return st.TabulatedSource(table[:, 0], fields)
    raise ConfigurationError(f"unknown source descriptor {kind!r}")


def build_problem(cfg: RunConfig):
    """Materialize (SchemeConfig, ProblemData) from a parsed document."""
    op_a = _build_operator(cfg.operator_a, cfg.base_dir)
    op_b = _build_operator(cfg.operator_b, cfg.base_dir)
    # parse_config has checked interval grids; a matrix grid is known only now
    too_large = states_too_large(cfg.steps, op_a.basis.grid.size)
    if too_large:
        raise ConfigurationError(f"[scheme] steps: {too_large}")
    spec = pot.make_potential(cfg.potential_name, **cfg.potential_params)
    scheme = st.SchemeConfig(
        op_A=op_a, op_B=op_b, spec=spec,
        yosida_lambda=cfg.yosida_lambda, tau=cfg.tau,
        h=cfg.h, steps=cfg.steps,
        newton_tol=cfg.newton_tol, newton_max=cfg.newton_max,
    )
    y0 = _build_field(cfg.y0_descriptor, scheme.grid, cfg.base_dir)
    source = _build_source(cfg, scheme.grid)
    data = st.ProblemData(y0=y0, source=source)
    return scheme, data


def snapshot_steps(descriptor: str, steps: int) -> list:
    """Resolve a snapshot schedule: ``log <count>`` or ``every <k>``.

    Always includes the initial and final steps.  The logarithmic schedule
    bounds memory on long runs while keeping late-time states dense enough
    for limit-point probes.
    """
    tokens = descriptor.split()
    if len(tokens) != 2:
        raise ConfigurationError(f"bad snapshot schedule {descriptor!r}")
    kind, arg = tokens
    try:
        count = int(arg)
    except ValueError:
        raise ConfigurationError(
            f"bad snapshot schedule {descriptor!r}: {arg!r} is not an integer") from None
    if kind == "every":
        if count < 1:
            raise ConfigurationError("snapshot cadence must be at least 1")
        chosen = list(range(0, steps + 1, count))
        return chosen if chosen[-1] == steps else chosen + [steps]
    if kind == "log":
        if count < 2:
            raise ConfigurationError("log schedule needs at least 2 snapshots")
        marks = np.round(np.geomspace(1, max(steps, 1), count - 1))
        chosen = {0, steps} | {int(v) for v in marks}
        return sorted(v for v in chosen if 0 <= v <= steps)
    raise ConfigurationError(f"unknown snapshot schedule kind {kind!r}")
