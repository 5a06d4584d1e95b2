"""Equispaced design grids and basis systems for discretized curves.

The design puts mass 1/m at each of the m midpoints t_j = (j - 1/2)/m.
Both basis families built here build on every m >= 2 (Haar splits each block
of L indices into its first ceil(L/2) and last floor(L/2)) and are exactly
orthonormal under that empirical measure, which is what makes coefficient
analysis a plain matrix product and keeps round trips lossless.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid",
    "BasisMatrix",
    "make_grid",
    "fourier_basis",
    "haar_basis",
    "basis_for",
    "analyze",
    "synthesize",
    "check_orthonormality",
]

BASIS_FAMILIES = ("fourier", "haar")


def _frozen_array(values) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


# The checks every public entry point runs on its numbers.  Each raises a
# ValueError naming the parameter and never converts a value.  A bool, which
# numpy takes as 0 or 1, or a string is no number, and 4.0 no whole number or seed.
def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))


def _is_whole(value, minimum: int) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= minimum


def check_open(value, name: str, lo: float, hi: float):
    """lo < value < hi, never NaN: (0, inf) is a finite positive real, (-inf, inf) any finite real."""
    if not (_is_real(value) and lo < value < hi):
        raise ValueError(f"{name} must be in ({lo:g},{hi:g}), got {value!r}")


def check_nonnegative(value, name: str):
    if not (_is_real(value) and 0.0 <= value < np.inf):
        raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


def check_count(value, name: str, minimum: int):
    if not _is_whole(value, minimum):
        raise ValueError(f"need a whole number {name} >= {minimum}, got {value!r}")


def check_seed(value, name: str):
    if not _is_whole(value, 0):
        raise ValueError(f"{name} must be a whole number >= 0, got {value!r}")


def check_family(value, name: str):
    if not (isinstance(value, str) and value in BASIS_FAMILIES):
        raise ValueError(f"{name} must be one of {BASIS_FAMILIES}: unknown basis family {value!r}")


def check_distinct(keys, name: str, what: str):
    """No two entries of the list name share a key: reports tell rows apart by it."""
    first = {}
    for i, key in enumerate(keys):
        j = first.setdefault(key, i)
        if j != i:
            raise ValueError(f"{name}[{i}] repeats the {what} {key} of {name}[{j}]")


@dataclass(frozen=True)
class Grid:
    """Midpoint design on (0,1): points[j-1] = (j - 1/2)/m.  m fixes the
    design, so a grid holds m alone, compares and hashes by it, and computes
    its points afresh, writable, on each read."""

    m: int

    def __post_init__(self):
        check_count(self.m, "m", 2)

    @property
    def points(self) -> np.ndarray:
        return (np.arange(1, self.m + 1) - 0.5) / self.m


@dataclass(frozen=True, eq=False)
class BasisMatrix:
    """m basis functions evaluated on the m-point grid, one per column; the
    grid and the sup norms max_j |phi_k(t_j)| are derived from the matrix.
    family names one of BASIS_FAMILIES but is not checked against the
    columns, so a hand-built matrix may carry either name."""

    family: str
    values: np.ndarray
    grid: Grid = field(init=False)
    sup_norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        check_family(self.family, "family")
        vals = _frozen_array(self.values)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise ValueError(f"basis matrix must be square, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("basis values must be finite")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "grid", Grid(vals.shape[0]))
        object.__setattr__(self, "sup_norms", _frozen_array(np.max(np.abs(vals), axis=0)))

    @property
    def m(self) -> int:
        return self.grid.m


def make_grid(m: int) -> Grid:
    return Grid(m)


def fourier_basis(grid: Grid) -> BasisMatrix:
    """Constant, cosine/sine pairs, and for even m the alternating column.

    Column order: phi_1 = 1, then for each frequency l the pair
    sqrt(2) cos(2 pi l t), sqrt(2) sin(2 pi l t).  When m is even the sine
    at the top frequency vanishes on the midpoint grid, so the system is
    completed by the alternating column (-1)^(j-1), which has unit norm
    under the empirical measure.
    """
    m, t = grid.m, grid.points
    cols = [np.ones(m)]
    for l in range(1, (m - 1) // 2 + 1):
        cols.append(np.sqrt(2.0) * np.cos(2.0 * np.pi * l * t))
        cols.append(np.sqrt(2.0) * np.sin(2.0 * np.pi * l * t))
    if m % 2 == 0:
        cols.append((-1.0) ** np.arange(m))
    return BasisMatrix(family="fourier", values=np.column_stack(cols))


def haar_basis(grid: Grid) -> BasisMatrix:
    """Unbalanced Haar system on any m >= 2: the constant, then one wavelet
    per index block, ordered by (level, position).

    From all m points down, each block of L >= 2 points splits into its
    first p = ceil(L/2) and last q = floor(L/2).  Its wavelet is
    +sqrt(m q / (p L)) on the first part and -sqrt(m p / (q L)) on the
    second: zero mean and unit norm, and 2^(l/2) at level l when m = 2^J.
    """
    m = grid.m
    values = np.zeros((m, m))
    values[:, 0] = 1.0
    # breadth-first: the list grows by each block's halves while it is walked
    blocks = [(0, m)]
    for k, (lo, hi) in enumerate(blocks, start=1):
        size = hi - lo
        p, q = (size + 1) // 2, size // 2
        values[lo:lo + p, k] = np.sqrt(m * q / (p * size))
        values[lo + p:hi, k] = -np.sqrt(m * p / (q * size))
        blocks += [(a, b) for a, b in ((lo, lo + p), (lo + p, hi)) if b - a >= 2]
    return BasisMatrix(family="haar", values=values)


def basis_for(family: str, grid: Grid) -> BasisMatrix:
    """The named basis family on the grid; unknown names are an error.

    Every caller of a (family, m) pair shares one read-only BasisMatrix, so
    repeated experiments in one process build none after the first.
    """
    check_family(family, "family")
    return _cached_basis(family, grid)


@functools.lru_cache(maxsize=4)
def _cached_basis(family: str, grid: Grid) -> BasisMatrix:
    """One basis per (family, m), for both families on two grid sizes at
    once; an entry holds 8 m^2 bytes, 8 MB at m=1024.  Grids compare by m,
    so two grid objects of one m share an entry."""
    # on a miss the builders are looked up as module globals, so a wrapper
    # installed on a builder sees every real build and no cache hit
    if family == "fourier":
        return fourier_basis(grid)
    return haar_basis(grid)


def analyze(values: np.ndarray, basis: BasisMatrix) -> np.ndarray:
    """Coefficients c_k = (1/m) sum_j values_j phi_k(t_j), over the last
    axis of values, so a (..., m) stack gives one vector per row."""
    v = np.asarray(values, dtype=float)
    if v.ndim < 1 or v.shape[-1] != basis.m:
        raise ValueError(f"expected vector of length {basis.m}, got shape {v.shape}")
    return matvec(basis.values.T, v) / basis.m


def synthesize(coeffs: np.ndarray, basis: BasisMatrix) -> np.ndarray:
    """Function values g(t_j) = sum_k coeffs_k phi_k(t_j), over the last
    axis of coeffs, so a (..., m) stack gives one function per row."""
    c = np.asarray(coeffs, dtype=float)
    if c.ndim < 1 or c.shape[-1] != basis.m:
        raise ValueError(f"expected vector of length {basis.m}, got shape {c.shape}")
    return matvec(basis.values, c)


def matvec(matrix: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """matrix @ v for each v along the last axis of vectors.  Written as a
    stack of one-column products, each slice is bit-identical to the 1-D
    matrix @ v (vectors @ matrix.T is not)."""
    return (matrix @ vectors[..., None])[..., 0]


def check_orthonormality(basis: BasisMatrix) -> float:
    """Max entrywise deviation of the empirical Gram matrix from identity."""
    m = basis.m
    gram = basis.values.T @ basis.values / m
    return float(np.max(np.abs(gram - np.eye(m))))
