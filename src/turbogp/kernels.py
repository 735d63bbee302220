"""Spectral densities and stationary kernels for the power-law prior and baselines.

All kernel families, including the RBF and Matern baselines, are defined on
the periodic grid by sampling their spectral densities on the integer wave
vector lattice (zero mode removed, truncated to the disk |n| <= n/2) and
inverse-transforming.  That makes every kernel exactly periodic and positive
semidefinite by construction, and lets one code path serve all families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import ClassVar, Optional

import numpy as np

from .spectral_field import GridSpec, _frozen_array, _real_synthesis, mirror_indices

FAMILY_CHT = "cht"
FAMILY_RBF = "rbf"
FAMILY_MATERN = "matern"
FAMILIES = (FAMILY_CHT, FAMILY_RBF, FAMILY_MATERN)

#: Diagonal jitter ladder of Gram factorizations, tried in order until one
#: factorizes; every kernel has unit marginal variance.
JITTERS = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)

#: Distinct (spec, grid) kernel tables kept per process by
#: :func:`build_kernel_table`; an evidence-tuned comparison needs 11.
KERNEL_TABLE_CACHE_SIZE = 16

#: Distinct (spec, grid) densities kept per process by
#: :func:`spectral_density`; a comparison reads one, its truth's, per trial.
SPECTRAL_DENSITY_CACHE_SIZE = 8

#: Rows of a Gram matrix that :func:`gram_matrix` gathers per block of offsets.
_GATHER_ROWS = 64

_GAMMA_LOW = 2.0 / 3.0
_ADMISSIBILITY_EPS = 1e-12


class FactorizationError(RuntimeError):
    """Raised when a Gram matrix cannot be factorized even with max jitter."""


def _finite_positive(value: float) -> bool:
    return math.isfinite(value) and value > 0


@dataclass(frozen=True)
class KernelSpec:
    """A named spectral density family with its parameters.

    Only the parameters of the named family are meaningful and checked to be
    finite and positive; the others are ignored.  ``variance`` is the
    marginal (post-normalization) variance of every induced kernel, a
    constant 1: every prior, like every truth, has unit variance.
    """

    family: str
    alpha: Optional[float] = None
    length_scale: Optional[float] = None
    nu: Optional[float] = None
    variance: ClassVar[float] = 1.0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.family == FAMILY_CHT:
            if self.alpha is None or not _finite_positive(self.alpha):
                raise ValueError("cht kernel requires a finite alpha > 0")
        if self.family == FAMILY_RBF:
            if self.length_scale is not None and not _finite_positive(self.length_scale):
                raise ValueError("rbf kernel requires a finite length_scale > 0")
        if self.family == FAMILY_MATERN:
            if self.nu is None or not _finite_positive(self.nu):
                raise ValueError("matern kernel requires a finite nu > 0")
            if self.length_scale is not None and not _finite_positive(self.length_scale):
                raise ValueError("matern kernel requires a finite length_scale > 0")

    @classmethod
    def cht(cls, alpha: float) -> "KernelSpec":
        return cls(family=FAMILY_CHT, alpha=alpha)

    @classmethod
    def rbf(cls, length_scale: Optional[float]) -> "KernelSpec":
        """``length_scale=None`` marks a baseline to be tuned by evidence."""
        return cls(family=FAMILY_RBF, length_scale=length_scale)

    @classmethod
    def matern(cls, nu: float, length_scale: Optional[float] = 1.0) -> "KernelSpec":
        return cls(family=FAMILY_MATERN, nu=nu, length_scale=length_scale)

    @property
    def tag(self) -> str:
        """Stable identifier used in result tables and CSV output."""
        if self.family == FAMILY_CHT:
            return f"cht_a{self.alpha:g}"
        if self.family == FAMILY_RBF:
            return "rbf_tuned" if self.length_scale is None else f"rbf_l{self.length_scale:g}"
        if self.length_scale is None:
            return f"matern_nu{self.nu:g}_tuned"
        return f"matern_nu{self.nu:g}_l{self.length_scale:g}"


def raw_density(spec: KernelSpec, ksq) -> np.ndarray:
    """Unnormalized spectral density evaluated at squared wave number |n|^2."""
    ksq = np.asarray(ksq, dtype=np.float64)
    out = np.zeros_like(ksq)
    nz = ksq > 0
    if spec.family == FAMILY_CHT:
        out[nz] = ksq[nz] ** (-(1.0 + spec.alpha))
    elif spec.length_scale is None:
        raise ValueError(f"{spec.family} density requires a concrete length_scale")
    elif spec.family == FAMILY_RBF:
        out[nz] = np.exp(-0.5 * spec.length_scale**2 * ksq[nz])
    else:
        out[nz] = (1.0 + spec.length_scale**2 * ksq[nz]) ** (-(spec.nu + 1.0))
    return out


@dataclass(frozen=True)
class SpectralDensity:
    """Normalized per-mode variances on a working grid.

    ``grid_values`` holds S(n) on the DFT lattice, scaled so the values sum
    to the marginal variance.  The truncation keeps modes in the disk
    |n| <= n/2 whose components stay below the Nyquist frequency; the
    unpaired Nyquist row and column carry no variance, which keeps sampled
    fields exactly stationary and leaves the velocity recovery invertible.
    """

    spec: KernelSpec
    grid: GridSpec
    grid_values: np.ndarray

    def __post_init__(self) -> None:
        n = self.grid.n
        object.__setattr__(
            self, "grid_values", _frozen_array(self.grid_values, np.float64, (n, n))
        )


def truncation_mask(grid: GridSpec) -> np.ndarray:
    """Active-mode mask: 0 < |n| <= n/2 with |n1|, |n2| < n/2."""
    fx, fy = grid.frequency_grids()
    ksq = grid.ksq_grid()
    half = grid.n // 2
    return (ksq > 0) & (ksq <= float(half * half)) & (fx != -half) & (fy != -half)


def spectral_density(spec: KernelSpec, grid: GridSpec) -> SpectralDensity:
    """Family density sampled on the grid lattice and normalized to unit variance.

    Densities are read-only, so equal ``(spec, grid)`` pairs share one
    density from a bounded per-process cache.
    """
    return _cached_spectral_density(spec, grid)


def _normalized_density(spec: KernelSpec, grid: GridSpec) -> SpectralDensity:
    ksq = grid.ksq_grid()
    values = np.where(truncation_mask(grid), raw_density(spec, ksq), 0.0)
    total = float(values.sum())
    if not (total > 0 and math.isfinite(total)):
        raise ValueError("spectral density is degenerate on this grid")
    return SpectralDensity(spec=spec, grid=grid, grid_values=values * (spec.variance / total))


_cached_spectral_density = lru_cache(maxsize=SPECTRAL_DENSITY_CACHE_SIZE)(_normalized_density)


@dataclass(frozen=True)
class KernelTable:
    """Kernel values at every grid offset: entry (a, b) is K(a*h, b*h)."""

    grid: GridSpec
    values: np.ndarray
    spec: KernelSpec

    def __post_init__(self) -> None:
        n = self.grid.n
        object.__setattr__(self, "values", _frozen_array(self.values, np.float64, (n, n)))

    @cached_property
    def spectrum(self) -> np.ndarray:
        """``rfft2`` of the table, the multiplier of a circular convolution with it."""
        out = np.fft.rfft2(self.values)
        out.setflags(write=False)
        return out


def _symmetrize_table(values: np.ndarray) -> np.ndarray:
    # exact even symmetry values[a, b] == values[-a mod n, -b mod n] and
    # transpose symmetry; both hold analytically, this removes FFT roundoff
    n = values.shape[0]
    m = mirror_indices(n)
    sym = 0.5 * (values + values[np.ix_(m, m)])
    return 0.5 * (sym + sym.T)


def build_kernel_table(spec: KernelSpec, grid: GridSpec) -> KernelTable:
    """Physical-space kernel as the inverse transform of the normalized density.

    Tables are read-only, so equal ``(spec, grid)`` pairs share one table
    from a bounded per-process cache.
    """
    return _cached_kernel_table(spec, grid)


@lru_cache(maxsize=KERNEL_TABLE_CACHE_SIZE)
def _cached_kernel_table(spec: KernelSpec, grid: GridSpec) -> KernelTable:
    # the table is kept; the density it came from is not read again
    density = _normalized_density(spec, grid)
    values = _real_synthesis(density.grid_values[: grid.n // 2 + 1])
    return KernelTable(grid=grid, values=_symmetrize_table(values), spec=spec)


@dataclass(frozen=True, eq=False)
class PairIndex:
    """Flat index into an ``n x n`` offset table of ``x_i - x_j`` for every pair of locations.

    Only :meth:`~turbogp.gp_inference.ObservationSet.indexed` builds one,
    from the on-grid locations of the copy that then carries it, so a gather
    through it needs no check of those locations.  It holds m^2 integers
    (80 KB at m = 100).
    """

    n: int
    flat: np.ndarray

    def gather(self, table: KernelTable) -> np.ndarray:
        """The Gram matrix of ``table`` on the indexed locations; refuses another grid size."""
        if table.grid.n != self.n:
            raise ValueError(f"pair index is on a {self.n} grid, the table on {table.grid.n}")
        return np.take(table.values, self.flat)


def gram_matrix(table: KernelTable, locations) -> np.ndarray:
    """Kernel matrix between grid locations via periodic table lookups.

    The locations are checked to be on the table's grid, and the offsets are
    built here for this one gather, ``_GATHER_ROWS`` rows of the matrix at a
    time, so no m x m index is held.  An observation set that several tables
    are gathered on builds its whole pair index once instead:
    :meth:`~turbogp.gp_inference.ObservationSet.indexed`.
    """
    n = table.grid.n
    locs = _grid_indices(locations, "locations")
    _check_on_grid(locs, n, "locations")
    gram = np.empty((len(locs), len(locs)))
    for start in range(0, len(locs), _GATHER_ROWS):
        rows = slice(start, start + _GATHER_ROWS)
        # every offset is in range; the default mode="raise" would gather
        # into a new array and copy it to out
        np.take(table.values, _offset_index(locs[rows], locs, n), out=gram[rows], mode="clip")
    return gram


def _grid_indices(points, what: str) -> np.ndarray:
    """``points`` as an ``(m, 2)`` int64 array of grid indices.

    Any other shape is rejected, except that an empty input is no points; a
    non-integral float is rejected, not truncated.
    """
    raw = np.asarray(points)
    if raw.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    if raw.ndim != 2 or raw.shape[1] != 2:
        raise ValueError(f"{what} must be an (m, 2) array of grid indices")
    if raw.dtype.kind == "f" and not np.all(np.isfinite(raw) & (raw == np.round(raw))):
        raise ValueError(f"{what} must be integral grid indices")
    return raw.astype(np.int64, copy=False)


def _check_on_grid(points: np.ndarray, n: int, what: str) -> None:
    if np.any(points < 0) or np.any(points >= n):
        raise ValueError(f"{what} must be on-grid indices in [0, {n})")


def _offset_index(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Flat index into an ``n x n`` offset table of ``a_i - b_j`` for every row i of ``a``, column j of ``b``.

    ``a`` and ``b`` are ``(k, 2)`` integer grid indices.  Offsets wrap, so an
    off-grid index would silently alias an on-grid one: the public entries
    reject them first.
    """
    index = (a[:, 0][:, None] - b[:, 0][None, :]) % n
    index *= n
    index += (a[:, 1][:, None] - b[:, 1][None, :]) % n
    return index


def _offset_gather(values: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``values`` at the periodic offset ``a_i - b_j``; see :func:`_offset_index`."""
    return np.take(values, _offset_index(a, b, values.shape[0]))


def robust_cholesky(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor with the first diagonal jitter of :data:`JITTERS` that works.

    Returns the factor and the jitter applied; raises
    :class:`FactorizationError` when the last rung fails too.
    """
    for jitter in JITTERS:
        try:
            shifted = matrix + jitter * np.eye(len(matrix)) if jitter else matrix
            return np.linalg.cholesky(shifted), jitter
        except np.linalg.LinAlgError:
            pass
    raise FactorizationError(
        "Gram matrix is not positive definite even after jitter escalation"
    )


def check_admissible(alpha: float, gamma: float) -> bool:
    """Whether (alpha, gamma) supports a unique stationary field statistics.

    Standard dissipation (gamma = 1) admits any alpha > 0; weaker dissipation
    gamma in (2/3, 1) requires alpha > 2 - gamma.  The strict inequality is
    evaluated with a small epsilon so decimal inputs sitting exactly on the
    boundary are rejected despite binary rounding.  A gamma outside
    (2/3, 1] raises ``ValueError``.
    """
    if not (_GAMMA_LOW < gamma <= 1.0):
        raise ValueError(f"gamma must lie in (2/3, 1], got {gamma}")
    if gamma == 1.0:
        return alpha > 0.0
    return alpha - (2.0 - gamma) > _ADMISSIBILITY_EPS
