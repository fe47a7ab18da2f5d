"""Sectioned key = value run configuration.

A run document has sections ``[operator_a]``, ``[operator_b]``,
``[potential]``, ``[scheme]``, ``[data]``, ``[output]`` and ``[run]``.
One schema table holds every key with its type and default; the ranges of
the scheme's settings are :data:`fracch.stepper.SCHEME_RANGES`, which
``SchemeConfig`` checks too.  Unknown sections or keys are errors.
Parsing either yields a fully resolved :class:`RunConfig` or raises a
:class:`ConfigurationError` listing every field-level problem at once.
"""

from __future__ import annotations

import configparser
import math
import os
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import potentials as pot
from . import spectral as sp
from . import stepper as st
from .errors import ConfigurationError


def _finite(token: str) -> float:
    """``float(token)``; ``ValueError`` when it does not parse or is not finite."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token!r} is not finite")
    return value


#: The default of a key the document must give.
_REQUIRED = object()

#: An operator's keys; its kind picks which of the last four it reads.
_OPERATOR = {"kind": (str, _REQUIRED), "exponent": (_finite, _REQUIRED),
             "modes": (int, _REQUIRED), "length": (_finite, _REQUIRED),
             "grid_points": (int, _REQUIRED), "matrix_file": (str, _REQUIRED)}
_INTERVAL_KEYS = ("modes", "length", "grid_points")
_KIND_KEYS = {"neumann": _INTERVAL_KEYS, "dirichlet": _INTERVAL_KEYS, "matrix": ("matrix_file",)}

#: Every key of the run document: section -> key -> (parser, default).  A key
#: whose default is ``_REQUIRED`` must be given, one whose default is None may be absent.
_SCHEMA = {
    "operator_a": _OPERATOR,
    "operator_b": _OPERATOR,
    "potential": {"name": (str, _REQUIRED), "c1": (_finite, None), "c2": (_finite, None)},
    "scheme": {"tau": (_finite, _REQUIRED), "yosida_lambda": (_finite, _REQUIRED),
               "h": (_finite, _REQUIRED), "steps": (int, _REQUIRED),
               "newton_tol": (_finite, st.SchemeConfig.newton_tol),
               "newton_max": (int, st.SchemeConfig.newton_max)},
    "data": {"y0": (str, _REQUIRED), "source": (str, "zero"), "u_inf": (str, "constant 0"),
             "u_bump": (str, None)},
    "output": {"directory": (str, None), "snapshots": (str, "log 65")},
    "run": {"seed": (int, 0)},
}
_REQUIRED_SECTIONS = ("operator_a", "operator_b", "potential", "scheme", "data")


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


def _read(parser, section: str, keys, errors: list) -> dict:
    """The parsed values of ``keys`` in ``section``, with the schema's defaults.

    A required key that is missing, or a key that does not parse, is None
    and adds its error to ``errors``.
    """
    values = dict.fromkeys(keys)
    for key in keys:
        parse, default = _SCHEMA[section][key]
        raw = parser.get(section, key, fallback=None)
        if raw is not None:
            try:
                values[key] = parse(raw)
            except ValueError:
                expected = "a finite number" if parse is _finite else "an integer"
                errors.append(f"[{section}] {key}: cannot parse {raw!r} as {expected}")
        elif default is _REQUIRED:
            errors.append(f"[{section}] {key}: missing")
        else:
            values[key] = default
    return values


def parse_config(text: str, base_dir: str = ".") -> RunConfig:
    """Parse a run document; collect and report every field error."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed document: {exc}") from None
    errors = [f"[{section}]: unknown section" for section in parser.sections()
              if section not in _SCHEMA]
    errors += [f"[{section}]: missing section" for section in _REQUIRED_SECTIONS
               if not parser.has_section(section)]
    if errors:
        raise ConfigurationError("; ".join(errors))
    for section, keys in _SCHEMA.items():
        if parser.has_section(section):
            errors += [f"[{section}] {key}: unknown key"
                       for key in sorted(set(parser.options(section)) - set(keys))]

    operators = {}
    for section in ("operator_a", "operator_b"):
        kind, exponent = _read(parser, section, ("kind", "exponent"), errors).values()
        if kind is None or exponent is None:
            continue
        if exponent <= 0:
            errors.append(f"[{section}] exponent: must be positive")
        elif kind not in _KIND_KEYS:
            errors.append(f"[{section}] kind: unknown operator kind {kind!r}")
        else:
            extra = _read(parser, section, _KIND_KEYS[kind], errors)
            if None in extra.values():
                continue
            # a nonpositive length or mode count fails when the basis is built
            problem = (kind != "matrix" and extra["length"] > 0 and extra["modes"] >= 1
                       and sp.interval_scale_problem(kind, extra["modes"], extra["length"]))
            if problem:
                errors.append(f"[{section}] length: {problem}")
            else:
                operators[section] = OperatorSection(kind=kind, exponent=exponent, **extra)

    potential, scheme, data, output, run = (
        _read(parser, section, _SCHEMA[section], errors)
        for section in ("potential", "scheme", "data", "output", "run"))
    errors += [f"[scheme] {key}: {requirement}"
               for key, (ok, requirement) in st.SCHEME_RANGES.items()
               if scheme[key] is not None and not ok(scheme[key])]
    h, steps = scheme["h"], scheme["steps"]
    if h is not None and steps is not None and not math.isfinite(h * steps):
        errors.append("[scheme] h: the horizon h * steps overflows")
    # a matrix operator's grid is known once build_problem reads its file
    points = [op.grid_points for op in operators.values() if op.kind != "matrix"]
    if steps is not None and steps >= 0 and points:
        too_large = run_too_large(steps, max(points))
        if too_large:
            errors.append(f"[scheme] steps: {too_large}")
    if errors:
        raise ConfigurationError("; ".join(errors))

    cfg = RunConfig(
        operator_a=operators["operator_a"],
        operator_b=operators["operator_b"],
        potential_name=potential["name"],
        potential_params={key: value for key, value in potential.items()
                          if key != "name" and value is not None},
        **scheme,
        y0_descriptor=data["y0"],
        source_descriptor=data["source"],
        u_inf_descriptor=data["u_inf"],
        u_bump_descriptor=data["u_bump"],
        output_directory=output["directory"],
        snapshots=output["snapshots"],
        seed=run["seed"],
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


def states_too_large(need: float, what: str) -> Optional[str]:
    """Why arrays of ``need`` bytes cannot fit into physical memory, or None when they can.

    The reason is ``what``, which says which arrays need how many bytes,
    followed by the memory size.  Where ``os.sysconf`` cannot tell the
    memory size, nothing is rejected.
    """
    try:
        total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None
    if need <= total:
        return None
    return f"{what}, more than the {total:.3g} bytes of physical memory"


def run_too_large(steps: int, grid_size: int) -> Optional[str]:
    """:func:`states_too_large` for a run's states, two (steps + 1, grid_size) float arrays."""
    need = 2 * (steps + 1) * grid_size * 8
    return states_too_large(need, f"{steps} steps on {grid_size} grid points "
                                  f"need {need:.3g} bytes of states")


def read_config(path: str):
    """The text of a run document and its :class:`RunConfig`, from one read."""
    text = sp.read_text(path, "config file")
    return text, parse_config(text, base_dir=os.path.dirname(os.path.abspath(path)))


def load_config(path: str) -> RunConfig:
    return read_config(path)[1]


def _build_basis(section: OperatorSection, base_dir: str) -> sp.EigenBasis:
    if section.kind == "matrix":
        matrix = sp.load_matrix_file(os.path.join(base_dir, section.matrix_file))
        return sp.build_matrix_basis(matrix)
    return sp.build_interval_basis(section.kind, section.modes, section.length,
                                   section.grid_points)


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
    basis_a = _build_basis(cfg.operator_a, cfg.base_dir)
    # sections that differ only in their exponent share one basis, which
    # lets the stepper solve smooth-well Newton directions along its modes
    if replace(cfg.operator_b, exponent=cfg.operator_a.exponent) == cfg.operator_a:
        basis_b = basis_a
    else:
        basis_b = _build_basis(cfg.operator_b, cfg.base_dir)
    op_a = sp.FractionalOperator(basis_a, cfg.operator_a.exponent)
    op_b = sp.FractionalOperator(basis_b, cfg.operator_b.exponent)
    # parse_config has checked interval grids; a matrix grid is known only now
    too_large = run_too_large(cfg.steps, op_a.basis.grid.size)
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
