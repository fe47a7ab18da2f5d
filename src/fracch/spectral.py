"""Spectral representation of monotone selfadjoint operators.

Two operators enter the evolution system.  Each is represented by an
orthonormal eigenbasis on a shared quadrature grid, and fractional powers
act diagonally on the expansion coefficients: raising a field's
coefficients by ``lambda_j**p`` realizes the power ``p`` of the operator.
All spectral sums are truncated at the basis size; components outside the
span are projected away by every operator application.

Reference bases are one-dimensional cosine (zero-flux) and sine
(zero-boundary) families on an interval with trapezoid quadrature, under
which the modes are orthonormal to machine precision.  Arbitrary operators
up to 512 modes enter through a dense symmetric matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigurationError,
    DimensionError,
    HypothesisError,
    OperatorError,
    SpectrumHypothesisError,
)

#: Absolute floor below which a computed eigenvalue is clamped to zero.
EIGENVALUE_CLAMP = 1e-12

#: Tolerance used when deciding whether the first mode is constant.
CONSTANT_MODE_TOL = 1e-10

#: The range of an operator's fractional exponent: (check, requirement).
EXPONENT_RANGE = (lambda exponent: exponent > 0, "must be positive")


@dataclass(frozen=True)
class Grid:
    """Quadrature grid: node coordinates and positive weights.

    Weights sum to the domain length, so ``sum(w * v) / length`` is the
    mean value of a nodal function ``v``.
    """

    x: np.ndarray
    w: np.ndarray
    length: float

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        w = np.array(self.w, dtype=float)
        if x.ndim != 1 or w.shape != x.shape:
            raise ConfigurationError("grid coordinates and weights must be 1-d and equal length")
        if np.any(w <= 0):
            raise ConfigurationError("quadrature weights must be positive")
        if abs(w.sum() - self.length) > 1e-10 * max(1.0, self.length):
            raise ConfigurationError("quadrature weights must sum to the domain length")
        x.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "w", w)

    @property
    def size(self) -> int:
        return self.x.size

    def same_as(self, other: "Grid") -> bool:
        return (
            self.size == other.size
            and self.length == other.length
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.w, other.w)
        )


def interval_grid(length: float, points: int) -> Grid:
    """Uniform grid on [0, length] with trapezoid quadrature weights."""
    if points < 2:
        raise ConfigurationError("need at least two grid points")
    x = np.linspace(0.0, length, points)
    w = np.full(points, length / (points - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return Grid(x, w, float(length))


def index_grid(points: int) -> Grid:
    """Unit-weight grid for matrix-backed operators; length equals the size."""
    return Grid(np.arange(points, dtype=float), np.ones(points), float(points))


@dataclass(frozen=True)
class Field:
    """A spatial function stored as nodal values on a quadrature grid."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.x.shape:
            raise DimensionError("field values must match the grid size")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __add__(self, other):
        self._check(other)
        return Field(self.values + other.values, self.grid)

    def __sub__(self, other):
        self._check(other)
        return Field(self.values - other.values, self.grid)

    def __mul__(self, scalar):
        return Field(self.values * float(scalar), self.grid)

    __rmul__ = __mul__

    def _check(self, other):
        if not isinstance(other, Field) or not self.grid.same_as(other.grid):
            raise DimensionError("fields live on different grids")


def constant_field(value: float, grid: Grid) -> Field:
    return Field(np.full(grid.size, float(value)), grid)


def inner(u: Field, v: Field) -> float:
    """Quadrature L2 inner product."""
    u._check(v)
    return float(np.sum(u.grid.w * u.values * v.values))


def norm(u: Field) -> float:
    """Quadrature L2 norm: the norm of :func:`inner`."""
    return float(np.sqrt(inner(u, u)))


def mean(u: Field) -> float:
    """Mean value: quadrature integral divided by the domain length."""
    return float(np.sum(u.grid.w * u.values) / u.grid.length)


@dataclass(frozen=True)
class EigenBasis:
    """Orthonormal eigenpairs of a monotone selfadjoint operator.

    Attributes
    ----------
    lambdas : (n,) nondecreasing nonnegative eigenvalues.
    modes : (m, n) eigenvectors as nodal columns, orthonormal under the
        grid's quadrature inner product.
    kind : one of ``neumann``, ``dirichlet``, ``matrix``.

    The modes are the only ``m`` x ``n`` array a basis keeps: synthesis is
    ``modes @ c`` and analysis, :meth:`coefficients`, weights the rows by
    the quadrature before the product with the same array.  With weights
    that are powers of two (the interval grids of ``2**k + 1`` nodes on a
    length that is a power of two, and the unit-weight matrix grid), that
    weighting is exact and the coefficients are those of the weighted
    matrix ``modes.T @ diag(w)`` bit for bit; with other weights they
    agree to round-off.
    """

    lambdas: np.ndarray
    modes: np.ndarray
    grid: Grid
    kind: str

    def __post_init__(self):
        lam = np.array(self.lambdas, dtype=float)
        modes = np.array(self.modes, dtype=float)
        if lam.ndim != 1 or modes.shape != (self.grid.size, lam.size):
            raise ConfigurationError("eigenvalues and mode columns are inconsistent")
        if np.any(np.diff(lam) < 0):
            raise OperatorError("eigenvalues must be nondecreasing")
        if np.any(lam < 0):
            raise OperatorError("eigenvalues must be nonnegative")
        lam.flags.writeable = False
        modes.flags.writeable = False
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "modes", modes)
        defect = self.gram_defect()
        if defect > 1e-10:
            raise OperatorError(
                f"modes are not orthonormal under the quadrature inner product "
                f"(Gram defect {defect:.3e})"
            )

    @property
    def n(self) -> int:
        return self.lambdas.size

    def coefficients(self, rows: np.ndarray) -> np.ndarray:
        """Expansion coefficients ``(row, e_j)`` of each row of a (..., m)
        array of nodal values: ``(rows * w) @ modes``."""
        return (rows * self.grid.w) @ self.modes

    def gram_defect(self) -> float:
        """Max deviation of the quadrature Gram matrix from the identity."""
        g = (self.modes * self.grid.w[:, None]).T @ self.modes
        g.flat[:: self.n + 1] -= 1.0   # minus the identity, in place
        return float(np.abs(g, out=g).max())

    def first_mode_is_constant(self) -> bool:
        e1 = self.modes[:, 0]
        return (float(np.abs(e1 - e1.mean()).max())
                <= CONSTANT_MODE_TOL * max(1.0, float(np.abs(e1).max())))

    def span_projection_defect(self, f: Field) -> float:
        """Norm of the component of ``f`` outside the truncated span."""
        residual = f.values - self.modes @ self.analyze(f)
        return float(np.sqrt(np.sum(self.grid.w * residual * residual)))

    def analyze(self, f: Field) -> np.ndarray:
        """Expansion coefficients (f, e_j) under the quadrature inner product."""
        if not f.grid.same_as(self.grid):
            raise DimensionError("field is not on the basis grid")
        return self.coefficients(f.values)


def interval_scale_problem(kind: str, n: int, length: float) -> str | None:
    """Why an interval basis of ``n`` modes on a positive ``length`` cannot be
    built in double precision, or None when it can.

    The largest eigenvalue ``(pi*j/length)**2`` or the largest mode argument
    ``pi*x*j``, with ``x`` up to ``length``, may overflow.  Both are evaluated
    as :func:`build_interval_basis` evaluates them.
    """
    top = np.float64(n - 1 if kind == "neumann" else n)
    with np.errstate(over="ignore"):
        eigenvalue = (np.pi * top / length) ** 2
        argument = np.pi * length * top
    if np.isfinite(eigenvalue) and np.isfinite(argument):
        return None
    return (f"length {length!r} with {n} modes overflows the eigenvalues (pi j/length)^2 "
            "or the mode arguments pi x j/length")


def basis_bytes(grid_points: int, modes: int, built: bool = False) -> int:
    """Peak bytes of building an eigenbasis of ``modes`` modes on
    ``grid_points`` nodes, or, when ``built``, the bytes the basis keeps.

    With ``m`` nodes and ``n`` modes the build peaks at ``8 (3 m n + n^2)``:
    three ``m`` x ``n`` arrays at once (the modes, the copy
    :class:`EigenBasis` keeps and the weighted modes of its orthonormality
    check) and that check's ``n`` x ``n`` Gram matrix.  A built basis keeps
    one ``m`` x ``n`` array, its modes, ``8 m n``.  The grid and eigenvalue
    arrays, O(m + n) bytes, come on top.  A matrix basis, with ``n = m``,
    takes about the same bytes.
    """
    if built:
        return 8 * grid_points * modes
    return 8 * (3 * grid_points * modes + modes * modes)


def build_interval_basis(kind: str, n: int, length: float, grid_points: int) -> EigenBasis:
    """Cosine or sine eigenbasis of the 1-d second-derivative operator.

    ``neumann`` uses zero-flux cosines with eigenvalues ``(pi*(j-1)/length)**2``
    (so the first mode is constant with a zero eigenvalue), ``dirichlet``
    zero-boundary sines with ``(pi*j/length)**2``.  Modes are normalized
    numerically under the trapezoid quadrature, which makes the Gram matrix
    the identity to machine precision.
    """
    if length <= 0:
        raise ConfigurationError("interval length must be positive")
    if n < 1:
        raise ConfigurationError("mode count must be at least 1")
    if n > grid_points:
        raise ConfigurationError(f"mode count {n} exceeds grid resolution {grid_points}")
    problem = interval_scale_problem(kind, n, length)
    if problem:
        raise ConfigurationError(f"interval {problem}")
    grid = interval_grid(length, grid_points)
    if kind == "neumann":
        freqs, wave = np.arange(n), np.cos
    elif kind == "dirichlet":
        if n > grid_points - 2:
            raise ConfigurationError(
                f"dirichlet basis needs at least n + 2 grid points (n={n}, points={grid_points})"
            )
        freqs, wave = np.arange(1, n + 1), np.sin
    else:
        raise ConfigurationError(f"unknown interval basis kind: {kind!r}")
    lambdas = (np.pi * freqs / length) ** 2
    # each step in place: the argument pi x j / length, its wave, the squares
    modes = np.outer(grid.x, freqs)
    modes *= np.pi
    modes /= length
    wave(modes, out=modes)
    squares = np.square(modes)
    squares *= grid.w[:, None]
    norms = np.sqrt(np.sum(squares, axis=0))
    del squares
    modes /= norms
    return EigenBasis(lambdas, modes, grid, kind)


def build_matrix_basis(matrix: np.ndarray) -> EigenBasis:
    """Full eigendecomposition of a symmetric positive-semidefinite matrix.

    The matrix acts on nodal vectors under the unit-weight inner product.
    Eigenvalues within the clamp tolerance below zero are set to zero;
    anything more negative is rejected rather than repaired.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise OperatorError("operator matrix must be square")
    if m.shape[0] > 512:
        raise ConfigurationError("matrix-backed operators are limited to 512 modes")
    scale = max(1.0, float(np.abs(m).max()))
    # a difference that overflows is infinite, so it counts as asymmetry
    with np.errstate(over="ignore"):
        asymmetry = float(np.abs(m - m.T).max())
    if asymmetry > 1e-12 * scale:
        raise OperatorError("operator matrix is not symmetric to 1e-12")
    # halves first: the sum of two entries near the largest double overflows
    lambdas, modes = np.linalg.eigh(0.5 * m + 0.5 * m.T)
    floor = -EIGENVALUE_CLAMP * scale
    if np.any(lambdas < floor):
        raise OperatorError(
            f"matrix has negative eigenvalue {lambdas.min():.3e} below the clamp tolerance"
        )
    lambdas = np.clip(lambdas, 0.0, None)
    return EigenBasis(lambdas, modes, index_grid(m.shape[0]), "matrix")


def read_text(path, what: str) -> str:
    """The UTF-8 text of an input file.

    A path that is missing, a directory, unreadable or not UTF-8 is a
    :class:`ConfigurationError` naming ``what`` and the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise ConfigurationError(f"{what} not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {what} {path}: {exc}") from None


def load_matrix_file(path) -> np.ndarray:
    """Read a dense operator matrix: first line n >= 1, then n rows of n finite reals."""
    tokens = read_text(path, "matrix file").split()
    if not tokens:
        raise ConfigurationError(f"matrix file {path} is empty")
    try:
        n = int(tokens[0])
        values = [float(t) for t in tokens[1:]]
    except ValueError as exc:
        raise ConfigurationError(f"matrix file {path} is malformed: {exc}") from None
    if n < 1:
        raise ConfigurationError(f"matrix file {path} declares n={n}, expected at least 1")
    if len(values) != n * n:
        raise ConfigurationError(
            f"matrix file {path} declares n={n} but carries {len(values)} entries"
        )
    matrix = np.array(values).reshape(n, n)
    if not np.all(np.isfinite(matrix)):
        raise ConfigurationError(f"matrix file {path} has a non-finite entry")
    return matrix


@dataclass(frozen=True)
class FractionalOperator:
    """A positive fractional power of a spectrally represented operator."""

    basis: EigenBasis
    exponent: float
    _weights: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        ok, requirement = EXPONENT_RANGE
        if not ok(self.exponent):
            raise ConfigurationError(f"fractional exponent {requirement}")

    @property
    def lambda1(self) -> float:
        return float(self.basis.lambdas[0])

    def power_weights(self, multiplier: float = 1.0) -> np.ndarray:
        """Eigenvalue weights ``lambda_j**(exponent*multiplier)``, read-only.

        Zero eigenvalues map to zero weight for any power.  The weights are
        computed once per multiplier and shared by every later call.
        """
        weights = self._weights.get(multiplier)
        if weights is None:
            lam = self.basis.lambdas
            with np.errstate(divide="ignore"):
                weights = np.where(lam > 0.0, lam**(self.exponent * multiplier), 0.0)
            weights.flags.writeable = False
            self._weights[multiplier] = weights
        return weights


def apply_power(op: FractionalOperator, f: Field, multiplier: float = 1.0) -> Field:
    """Apply the fractional power: coefficients scaled by ``lambda_j**(r*multiplier)``.

    A multiplier of 2 yields the doubled power used by the evolution system.
    The result lies in the truncated span; out-of-span components are
    projected away.
    """
    if not f.grid.same_as(op.basis.grid):
        raise DimensionError("field is not on the basis grid")
    return Field(power_rows(op, f.values, multiplier), f.grid)


def power_rows(op: FractionalOperator, rows: np.ndarray, multiplier: float = 1.0) -> np.ndarray:
    """:func:`apply_power` on each row of a (..., m) array of nodal values."""
    c = op.basis.coefficients(rows)
    return (op.power_weights(multiplier) * c) @ op.basis.modes.T


def solve_shifted(op: FractionalOperator, rows: np.ndarray) -> np.ndarray:
    """Solve ``(I + A^(2r)) u = f`` for each row ``f`` of a (..., m) array.

    The operator acts as zero outside the truncated span, so the inverse is
    the identity there and diagonal on the span.  The returned rows satisfy
    the shifted equation nodally to round-off.
    """
    c = op.basis.coefficients(rows)
    weights = op.power_weights(2.0)
    # identity off the span, diagonal 1/(1 + lambda^2r) on it
    return rows - (c * weights / (1.0 + weights)) @ op.basis.modes.T


def dual_norms(op: FractionalOperator, coefficients: np.ndarray) -> np.ndarray:
    """Norm in the dual of the operator's fractional domain space, from
    expansion coefficients along the last axis.

    The coefficients are weighted by ``lambda_j**(-r)``; with a zero first
    eigenvalue the first coefficient enters unweighted.  Components outside
    the span do not contribute.
    """
    weights = op.power_weights(-1.0)
    if op.lambda1 == 0.0:
        weights = weights.copy()
        weights[0] = 1.0
    return np.sqrt(np.sum((weights * coefficients) ** 2, axis=-1))


def row_norms(rows: np.ndarray, grid: Grid) -> np.ndarray:
    """Quadrature L2 norm of each row of a (K, m) array of nodal values."""
    return np.sqrt(row_inner(rows, rows, grid))


def row_inner(u: np.ndarray, v: np.ndarray, grid: Grid) -> np.ndarray:
    """Quadrature inner product of matching rows of two (K, m) arrays."""
    # fused: no (K, m) temporaries
    return np.einsum("...j,...j,j->...", u, v, grid.w)


def row_means(rows: np.ndarray, grid: Grid) -> np.ndarray:
    """Mean value of each row of a (K, m) array of nodal values."""
    return np.sum(grid.w * rows, axis=-1) / grid.length


def row_power_norms(op: FractionalOperator, rows: np.ndarray) -> np.ndarray:
    """``norm(apply_power(op, row))`` for each row of a (K, m) array.

    The power lies in the span, where the quadrature norm is the Euclidean
    norm of the coefficients, so one analysis serves every row.
    """
    c = op.power_weights() * op.basis.coefficients(rows)
    return np.sqrt(np.sum(c * c, axis=-1))


def poincare_constant(op: FractionalOperator) -> float:
    """Sharp constant in ``|v| <= C |A^r v|`` on the kernel-orthogonal complement.

    Requires a zero first eigenvalue with a spectral gap; the constant is
    ``lambda_2**(-r)`` for the truncated basis and is attained on the second
    mode.  When the first mode is constant, orthogonality to it is the same
    as having zero mean.
    """
    lam = op.basis.lambdas
    if lam[0] > 0.0:
        raise HypothesisError(
            "first eigenvalue is positive; the inequality is not needed on this branch"
        )
    if op.basis.n < 2 or lam[1] <= 0.0:
        raise SpectrumHypothesisError("second eigenvalue vanishes; no spectral gap")
    return float(lam[1] ** (-op.exponent))
