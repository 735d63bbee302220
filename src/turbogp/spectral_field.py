"""Periodic grid geometry, FFT contract, Gaussian field sampling and spectra.

Fourier convention used by the whole package: a real field on the square
2*pi-periodic domain is synthesized from integer wave vectors n as

    w(x_j) = sum_n coeff(n) * exp(i n . x_j),

so physical values are ``n**2 * ifft2(coeffs)`` and coefficients are
``fft2(values) / n**2`` (``GridSpec.synthesis_scale`` is that single
constant).  Under this convention the grid mean of w**2 equals
``sum_n |coeff(n)|**2``, and a stationary field with independent per-mode
variances S(n) has covariance ``K(dx) = sum_n S(n) exp(i n . dx)``.

Every field the package builds for itself (sampled truths, kernel tables,
the tables of powers of a density) is synthesized from rows 0..n/2 of its
Hermitian spectrum by one real inverse transform, so it is real by
construction.  :func:`to_physical` is the checked path, for coefficients
that come from outside (velocity recovery, the curl, library callers): it
transforms the whole lattice and rejects a result that is not real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .kernels import SpectralDensity

TWO_PI = 2.0 * math.pi

#: Max imaginary magnitude tolerated when casting a spectral field to physical
#: space, relative to the field RMS.
REALITY_TOL = 1e-10


@dataclass(frozen=True)
class GridSpec:
    """Square periodic grid with ``n`` points per axis on [0, 2*pi)^2.

    ``n`` must be even (the DFT layout pairs +k with -k) and at least 8 so
    that shell statistics are meaningful.
    """

    n: int

    def __post_init__(self) -> None:
        if self.n % 2 != 0 or self.n < 8:
            raise ValueError(f"grid size must be even and >= 8, got {self.n}")

    @property
    def domain_length(self) -> float:
        return TWO_PI

    @property
    def spacing(self) -> float:
        return TWO_PI / self.n

    @property
    def synthesis_scale(self) -> float:
        """Factor turning ``numpy.fft.ifft2`` output into Fourier-series values."""
        return float(self.n * self.n)

    def frequencies(self) -> np.ndarray:
        """Integer wave numbers per axis in standard DFT order."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64)

    def frequency_grids(self) -> tuple[np.ndarray, np.ndarray]:
        f = self.frequencies()
        return np.meshgrid(f, f, indexing="ij")

    def ksq_grid(self) -> np.ndarray:
        fx, fy = self.frequency_grids()
        return (fx * fx + fy * fy).astype(np.float64)

    def coordinates(self) -> np.ndarray:
        return np.arange(self.n) * self.spacing


def _frozen_array(values, dtype, shape) -> np.ndarray:
    arr = np.array(values, dtype=dtype, copy=True)
    if arr.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SpectralField:
    """Complex DFT coefficients of a real field, standard layout."""

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        n = self.grid.n
        object.__setattr__(
            self, "coeffs", _frozen_array(self.coeffs, np.complex128, (n, n))
        )


@dataclass(frozen=True)
class RealField:
    """Real scalar field sampled on the periodic grid."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        n = self.grid.n
        object.__setattr__(
            self, "values", _frozen_array(self.values, np.float64, (n, n))
        )

    def rms(self) -> float:
        return float(np.sqrt(np.mean(self.values**2)))


def mirror_indices(n: int) -> np.ndarray:
    """Index map sending DFT index j to the index of wave vector -n(j)."""
    return (-np.arange(n)) % n


def to_spectral(field: RealField) -> SpectralField:
    """Forward transform; inverse of :func:`to_physical` to ~1e-16."""
    coeffs = np.fft.fft2(field.values) / field.grid.synthesis_scale
    return SpectralField(field.grid, coeffs)


def to_physical(field: SpectralField) -> RealField:
    """Inverse transform to a real field.

    The checked path for coefficients from outside the package: raises if
    they are not Hermitian-symmetric enough for the result to be real (max
    imaginary part above ``REALITY_TOL`` x RMS).
    """
    values = np.fft.ifft2(field.coeffs)
    values *= field.grid.synthesis_scale
    rms = float(np.sqrt(np.mean(values.real**2)))
    max_imag = float(np.max(np.abs(values.imag)))
    if max_imag > REALITY_TOL * rms:
        raise ValueError(
            f"inverse transform is not real: max imag {max_imag:.3e} "
            f"exceeds {REALITY_TOL:g} x RMS ({rms:.3e})"
        )
    return RealField(field.grid, values.real)


def _real_synthesis(half: np.ndarray) -> np.ndarray:
    """Real ``n x n`` field whose Hermitian spectrum has rows 0..n/2 ``half``.

    ``half`` is ``(n/2 + 1, n)``; the lower rows are its conjugate mirror and
    are never formed.  Real by construction, so nothing is checked.
    """
    n = half.shape[1]
    values = np.fft.irfft2(half, s=(n, n), axes=(1, 0))
    values *= n * n
    return values


def sample_gaussian_field(density: "SpectralDensity", seed: int) -> RealField:
    """Draw a zero-mean stationary Gaussian field with per-mode variances S(n)
    on the density's grid.

    Independent complex-normal coefficients are drawn on rows 0..n/2 of the
    lattice, rows 0 and n/2 are conjugate-mirrored within themselves, and the
    four self-conjugate modes (both index components in {0, n/2}) are forced
    real with full variance S(n).  Deterministic for a fixed seed.
    """
    s = np.asarray(density.grid_values, dtype=np.float64)
    if np.any(s < 0):
        raise ValueError("per-mode variance must be nonnegative")
    if s[0, 0] != 0.0:
        raise ValueError("zero mode must carry no variance")
    return RealField(density.grid, _real_synthesis(_hermitian_half(s, seed)))


def _hermitian_half(s: np.ndarray, seed: int) -> np.ndarray:
    """Rows 0..h (h = n/2) of Hermitian DFT coefficients with per-mode
    variances ``s``, drawn from ``seed``.

    The real parts are drawn on the whole lattice, since that draw advances
    the stream before the imaginary parts, which are drawn on rows 0..h only:
    both equal the first rows of full ``n x n`` draws.
    """
    n = s.shape[0]
    h = n // 2
    rng = np.random.default_rng(seed)
    re = rng.standard_normal((n, n))[: h + 1]
    half = np.multiply(rng.standard_normal((h + 1, n)), 1j)
    half += re
    half *= np.sqrt(s[: h + 1] / 2.0)
    for row in (0, h):
        for col in (0, h):
            half[row, col] = re[row, col] * np.sqrt(s[row, col])
        half[row, h + 1 :] = np.conj(half[row, h - 1 : 0 : -1])
    half[0, 0] = 0.0
    return half


def _round_mantissa(values: np.ndarray, keep_bits: int) -> np.ndarray:
    m, e = np.frexp(values)
    return np.ldexp(np.rint(np.ldexp(m, keep_bits)), e - keep_bits)


def biot_savart_spectral(
    vorticity: SpectralField,
) -> tuple[SpectralField, SpectralField]:
    """Velocity coefficients u_hat(n) = -i n_perp w_hat(n) / |n|^2.

    The sign convention is fixed so that the discrete curl of the returned
    velocity reproduces the input vorticity.  Vorticity content on the
    unpaired Nyquist row and column has no resolvable velocity (an odd
    spectral derivative cannot be represented there) and is dropped; fields
    sampled by this package carry no such content.  The shared factor
    w_hat/|n|^2 is rounded to a shortened mantissa so the integer-frequency
    products are exact in floating point; as a result the spectral
    divergence n . u_hat is identically zero on every mode.
    """
    grid = vorticity.grid
    coeffs = vorticity.coeffs
    scale = float(np.sqrt(np.mean(np.abs(coeffs) ** 2)))
    if abs(coeffs[0, 0]) > 1e-10 * scale:
        raise ValueError("vorticity must have zero mean (coeff at n=0 must vanish)")
    fx, fy = grid.frequency_grids()
    fx = fx.astype(np.float64)
    fy = fy.astype(np.float64)
    ksq = fx * fx + fy * fy
    ksq[0, 0] = 1.0

    # keep_bits leaves room for two exact multiplications by |freq| <= n/2
    freq_bits = int(grid.n // 2 - 1).bit_length()
    keep_bits = 53 - 2 * freq_bits
    t = coeffs / ksq
    t = _round_mantissa(t.real, keep_bits) + 1j * _round_mantissa(t.imag, keep_bits)
    t[0, 0] = 0.0
    half = grid.n // 2
    t[(fx == -half) | (fy == -half)] = 0.0

    u1 = 1j * (fy * t)
    u2 = -1j * (fx * t)
    return SpectralField(grid, u1), SpectralField(grid, u2)


def biot_savart(vorticity: SpectralField) -> tuple[RealField, RealField]:
    """Physical-space incompressible velocity recovered from vorticity."""
    u1, u2 = biot_savart_spectral(vorticity)
    return to_physical(u1), to_physical(u2)


def curl(u1: RealField, u2: RealField) -> RealField:
    """Discrete curl d(u2)/dx1 - d(u1)/dx2 evaluated spectrally."""
    if u1.grid != u2.grid:
        raise ValueError("velocity components live on different grids")
    fx, fy = u1.grid.frequency_grids()
    c1 = to_spectral(u1).coeffs
    c2 = to_spectral(u2).coeffs
    w_hat = 1j * (fx * c2 - fy * c1)
    return to_physical(SpectralField(u1.grid, w_hat))


@dataclass(frozen=True)
class SpectrumEstimate:
    """Radially binned power statistics, one entry per integer shell."""

    k: np.ndarray
    shell_avg_power: np.ndarray
    shell_sum_power: np.ndarray
    mode_count: np.ndarray

    def __post_init__(self) -> None:
        size = (len(self.k),)
        object.__setattr__(self, "k", _frozen_array(self.k, np.int64, size))
        object.__setattr__(
            self, "shell_avg_power", _frozen_array(self.shell_avg_power, np.float64, size)
        )
        object.__setattr__(
            self, "shell_sum_power", _frozen_array(self.shell_sum_power, np.float64, size)
        )
        object.__setattr__(
            self, "mode_count", _frozen_array(self.mode_count, np.int64, size)
        )

    @property
    def max_shell(self) -> int:
        return int(self.k[-1]) if len(self.k) else 0


def radial_spectrum_of_power(grid: GridSpec, power: np.ndarray) -> SpectrumEstimate:
    """Bin a per-mode power array |w_hat(n)|^2 into integer shells.

    Shell k collects modes with k - 0.5 <= |n| < k + 0.5; shells run from 1
    to n/2 - 1, which keeps unpaired Nyquist-row modes out of the statistics.
    """
    n = grid.n
    power = np.asarray(power, dtype=np.float64)
    if power.shape != (n, n):
        raise ValueError("power array does not match the grid")
    radius = np.sqrt(grid.ksq_grid())
    shell = np.floor(radius + 0.5).astype(np.int64)
    max_shell = n // 2 - 1
    keep = (shell >= 1) & (shell <= max_shell)
    counts = np.bincount(shell[keep], minlength=max_shell + 1)[1:]
    sums = np.bincount(shell[keep], weights=power[keep], minlength=max_shell + 1)[1:]
    avg = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    return SpectrumEstimate(
        k=np.arange(1, max_shell + 1),
        shell_avg_power=avg,
        shell_sum_power=sums,
        mode_count=counts,
    )


def radial_spectrum(field: RealField) -> SpectrumEstimate:
    """Radially averaged power spectrum of a real field."""
    coeffs = to_spectral(field).coeffs
    return radial_spectrum_of_power(field.grid, np.abs(coeffs) ** 2)


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of log(power) against log(k)."""

    exponent: float
    exponent_stderr: float
    k_min: int
    k_max: int
    r_squared: float


def default_fit_range(n: int) -> tuple[int, int]:
    """Fit range avoiding low-k lattice discreteness and truncation bias."""
    k_min = 4
    k_max = min(max(n // 4, k_min + 3), n // 2 - 1)
    return k_min, k_max


def _fit_shells(spectrum: SpectrumEstimate, k_min: int, k_max: int) -> np.ndarray:
    """Mask of the populated shells in [k_min, k_max]; raises if a fit cannot use them."""
    if k_min < 2:
        raise ValueError("k_min must be at least 2")
    if k_max > spectrum.max_shell:
        raise ValueError(f"k_max {k_max} exceeds max shell {spectrum.max_shell}")
    mask = (spectrum.k >= k_min) & (spectrum.k <= k_max) & (spectrum.mode_count > 0)
    if int(mask.sum()) < 4:
        raise ValueError("fit range must contain at least 4 populated shells")
    return mask


def fit_range(grid: GridSpec, k_min=None, k_max=None) -> tuple[int, int]:
    """The shell range a power-law fit on ``grid`` uses, checked before any sampling.

    ``None`` takes the bound from :func:`default_fit_range`.  Raises
    ``ValueError`` when :func:`fit_power_law` would reject the range.
    """
    lo, hi = default_fit_range(grid.n)
    k_lo = lo if k_min is None else int(k_min)
    k_hi = hi if k_max is None else int(k_max)
    _fit_shells(radial_spectrum_of_power(grid, np.zeros((grid.n, grid.n))), k_lo, k_hi)
    return k_lo, k_hi


def fit_power_law(
    spectrum: SpectrumEstimate, k_min: int, k_max: int, use_sum: bool
) -> PowerLawFit:
    """Ordinary least squares of log power on log shell index over [k_min, k_max]."""
    mask = _fit_shells(spectrum, k_min, k_max)
    power = spectrum.shell_sum_power if use_sum else spectrum.shell_avg_power
    p = power[mask]
    if np.any(p <= 0):
        raise ValueError("zero power in a shell inside the fit range")
    x = np.log(spectrum.k[mask].astype(np.float64))
    y = np.log(p)
    npts = len(x)
    x_mean = x.mean()
    y_mean = y.mean()
    sxx = float(np.sum((x - x_mean) ** 2))
    slope = float(np.sum((x - x_mean) * (y - y_mean)) / sxx)
    intercept = float(y_mean - slope * x_mean)
    resid = y - (slope * x + intercept)
    rss = float(np.sum(resid**2))
    tss = float(np.sum((y - y_mean) ** 2))
    stderr = math.sqrt(rss / (npts - 2) / sxx) if npts > 2 else 0.0
    r_squared = 1.0 if tss == 0.0 else 1.0 - rss / tss
    return PowerLawFit(
        exponent=slope,
        exponent_stderr=stderr,
        k_min=k_min,
        k_max=k_max,
        r_squared=r_squared,
    )
