"""Exact GP regression on the periodic grid: posterior fields, evidence,
energy-functional variance, and greedy sensor placement.

Every prior is a stationary kernel on the torus, so the posterior mean is a
circular convolution of the weighted observation deltas with the kernel
table (one forward and one inverse real FFT) and the variance field is a sum
of m squared such convolutions, one per row of the inverse Gram factor L^-1.
Those rows are solved a block at a time, so L^-1 is never held whole;
:attr:`Posterior.jobs` threads convolve them in reused buffers and the
calling thread adds the squares up in row order.  No ``m x n^2``
cross-covariance is formed.  Greedy sensor placement subtracts the same
squares at its candidates, one row of L^-1 at a time on the coarsest
sublattice holding them, and keeps no ``count x candidates`` block.
A fitted posterior holds only the ``m x m`` Gram factor and the weights;
fields are computed when first read.  An empty observation set takes the
same path: its 0 x 0 factor leaves the prior.

Integral quantities use the normalized torus measure (weight 1/n^2 per grid
point), so traces and norms are grid means rather than physical integrals.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence, Sized

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.stats import norm as _std_normal

from .kernels import (
    FactorizationError,
    KernelSpec,
    KernelTable,
    PairIndex,
    _check_on_grid,
    _grid_indices,
    _offset_gather,
    _offset_index,
    build_kernel_table,
    gram_matrix,
    robust_cholesky,
    spectral_density,
)
from .spectral_field import GridSpec, RealField, _real_synthesis

#: Greedy placement counts posterior variances within this fraction of the
#: prior variance of the maximum as tied.  Rank-1 updates can round
#: analytically equal variances an ulp apart (1.1e-16 at unit variance), and
#: a distinct pick then changes every pick after it.
VARIANCE_TIE_RTOL = 1e-12


#: Rows of L^-1 that one triangular solve produces for the variance field.
_ROW_BLOCK = 32


def _ordered_map(fn: Callable, items: Iterable, jobs: int) -> Iterator:
    """``map(fn, items)`` on ``jobs`` threads, yielding results in item order.

    Items are pulled as tasks are submitted, and at most ``jobs + 1`` calls
    are running or waiting to be read, so a consumer that drops each result
    before the next holds bounded memory, a lazy ``items`` is read at most
    that far ahead, and what the consumer does with the results does not
    depend on ``jobs``.  One job, or a sized ``items`` of one item, runs in
    the calling thread.
    """
    if jobs <= 1 or (isinstance(items, Sized) and len(items) <= 1):
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        pending: deque = deque()
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) > jobs:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


@dataclass(frozen=True)
class ObservationSet:
    """Grid-snapped pointwise observations with homoscedastic noise."""

    locations: np.ndarray
    values: np.ndarray
    noise_variance: float

    def __post_init__(self) -> None:
        locs = _grid_indices(self.locations, "observation locations").reshape(-1, 2).copy()
        vals = np.array(self.values, dtype=np.float64, copy=True).reshape(-1)
        if len(locs) != len(vals):
            raise ValueError("locations and values must have equal length")
        if not np.all(np.isfinite(vals)):
            raise ValueError("observation values must be finite")
        if not (math.isfinite(self.noise_variance) and self.noise_variance >= 0):
            raise ValueError("noise variance must be finite and nonnegative")
        locs.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "values", vals)

    @property
    def m(self) -> int:
        return len(self.values)

    def pair_index(self, n: int) -> PairIndex:
        """The locations' :class:`~turbogp.kernels.PairIndex` on an ``n`` grid.

        Every Gram matrix on this set gathers through it (the ``pairs`` of
        :func:`~turbogp.kernels.gram_matrix`); a caller that builds several
        builds it once.  The index keeps this set's own read-only locations,
        so each gather on the set takes it unchecked.
        """
        _check_on_grid(self.locations, n, "locations")
        return PairIndex(self.locations, n, _offset_index(self.locations, self.locations, n))


def _flat_indices(points: np.ndarray, n: int) -> np.ndarray:
    return points[:, 0] * n + points[:, 1]


def _convolve_deltas(
    spectrum: np.ndarray, flat: np.ndarray, weights: np.ndarray, out: np.ndarray, buffer: np.ndarray
) -> np.ndarray:
    """``sum_i weights[i] K(x - x_i)`` at every x of an n x n torus, into ``out``.

    ``spectrum`` is the ``rfft2`` of K's table and ``flat`` holds the linear
    grid indices of the x_i.  The deltas are scattered into ``out`` itself
    (np.add.at sums coincident points in order, bit for bit as np.bincount
    does, without a grid of its own), and the transforms run one axis at a
    time in ``buffer``, an ``(n, n // 2 + 1)`` complex array; on numpy 2.4
    this gives the bits of ``scipy.fft.irfft2(rfft2(deltas) * spectrum)``.
    """
    n = out.shape[0]
    out.fill(0.0)
    np.add.at(out.reshape(-1), flat, weights)
    np.fft.rfft(out, axis=1, out=buffer)
    np.fft.fft(buffer, axis=0, out=buffer)
    buffer *= spectrum
    np.fft.ifft(buffer, axis=0, out=buffer)
    return np.fft.irfft(buffer, n, axis=1, out=out)


def _new_buffer(n: int) -> np.ndarray:
    return np.empty((n, n // 2 + 1), dtype=np.complex128)


def _inverse_rows(chol: np.ndarray) -> Iterator[np.ndarray]:
    """The rows of L^-1 for the lower triangular ``chol`` L, in order.

    Row j solves ``L^T z = e_j``; each block of ``_ROW_BLOCK`` rows is one
    triangular solve in place on unit columns, so L^-1 is never held whole.
    """
    m = len(chol)
    for start in range(0, m, _ROW_BLOCK):
        width = min(_ROW_BLOCK, m - start)
        block = np.zeros((m, width), order="F")
        block[start + np.arange(width), np.arange(width)] = 1.0
        # a factor from a successful Cholesky is finite
        block = solve_triangular(
            chol, block, lower=True, trans="T", overwrite_b=True, check_finite=False
        )
        yield from block.T
        del block  # from here only the rows drawn from it keep it alive


@dataclass(frozen=True)
class Posterior:
    """Factorized GP posterior over the full grid.

    ``chol`` is the lower Cholesky factor L of the noisy Gram matrix (plus
    ``jitter`` on its diagonal) and ``alpha_weights`` solves it against the
    observed values.  The fields are computed on first read and kept:
    ``mean_field`` is one FFT convolution, O(n^2 log n); ``variance_field``
    and ``clamp_count`` square one convolution per row of L^-1, O(m n^2 log n)
    time.  The rows of L^-1 are solved ``_ROW_BLOCK`` (32) at a time and
    run as tasks on ``jobs`` threads, at most ``jobs + 1`` at a time; each
    thread reuses one transform buffer and the squares land in at most
    ``jobs + 1`` reused grids, about ``2 jobs + 2`` grids and one block of
    rows in all.  The squares are added up in row order, so the field's
    bytes do not depend on ``jobs``.  The variance at the last observation
    given the others needs no field: it is ``chol[-1, -1]**2`` less the noise
    variance and ``jitter``.
    """

    kernel: KernelTable
    obs: ObservationSet
    chol: np.ndarray
    alpha_weights: np.ndarray
    jitter: float
    jobs: int = field(default=1, compare=False)

    @cached_property
    def mean_field(self) -> RealField:
        """Posterior mean over the grid."""
        n = self.kernel.grid.n
        flat = _flat_indices(self.obs.locations, n)
        values = _convolve_deltas(
            self.kernel.spectrum, flat, self.alpha_weights, np.empty((n, n)), _new_buffer(n)
        )
        return RealField(self.kernel.grid, values)

    @cached_property
    def _unclamped_variance(self) -> np.ndarray:
        # sigma^2 - ||L^-1 k(x)||^2, where row j of L^-1 k(x) is a convolution
        n = self.kernel.grid.n
        flat = _flat_indices(self.obs.locations, n)
        reduction = np.zeros((n, n))
        scratch = threading.local()
        free: list[np.ndarray] = []

        def squared_row(row: np.ndarray) -> np.ndarray:
            buffer = getattr(scratch, "buffer", None)
            if buffer is None:
                buffer = scratch.buffer = _new_buffer(n)
            try:  # two threads can race for the last free grid
                out = free.pop()
            except IndexError:
                out = np.empty((n, n))
            values = _convolve_deltas(self.kernel.spectrum, flat, row, out, buffer)
            return np.square(values, out=values)

        for squared in _ordered_map(squared_row, _inverse_rows(self.chol), self.jobs):
            reduction += squared
            free.append(squared)
        return np.subtract(self.kernel.spec.variance, reduction, out=reduction)

    @cached_property
    def variance_field(self) -> RealField:
        """Posterior variance clamped at zero; see :attr:`clamp_count`."""
        return RealField(self.kernel.grid, np.maximum(self._unclamped_variance, 0.0))

    @cached_property
    def clamp_count(self) -> int:
        """Grid points whose variance rounded below zero before clamping."""
        return int(np.sum(self._unclamped_variance < 0.0))


def _factorized_gram(
    kernel: KernelTable, obs: ObservationSet, pairs: PairIndex | None = None
) -> tuple[np.ndarray, float]:
    g = gram_matrix(kernel, obs.locations, pairs=pairs)
    g[np.diag_indices(obs.m)] += obs.noise_variance
    return robust_cholesky(g)


def fit_posterior(
    kernel: KernelTable, obs: ObservationSet, pairs: PairIndex | None = None, jobs: int = 1
) -> Posterior:
    """Condition the stationary prior on the observations.

    Eager cost is one m x m factorization and solve, O(m^3) time and O(m^2)
    memory; nothing of grid size is built until a field is read.  ``pairs``
    is ``obs.pair_index(n)`` when the caller has built it already; ``jobs``
    threads build the variance field (:class:`Posterior`).
    """
    chol, jitter = _factorized_gram(kernel, obs, pairs)
    weights = cho_solve((chol, True), obs.values)
    return Posterior(
        kernel=kernel, obs=obs, chol=chol, alpha_weights=weights, jitter=jitter, jobs=jobs
    )


def log_marginal_likelihood(
    kernel: KernelTable, obs: ObservationSet, pairs: PairIndex | None = None
) -> float:
    """Gaussian evidence of the observations under the prior plus noise.

    ``pairs`` is ``obs.pair_index(n)`` when the caller has built it already.
    """
    chol, _ = _factorized_gram(kernel, obs, pairs)
    weights = cho_solve((chol, True), obs.values)
    return float(
        -0.5 * obs.values @ weights
        - np.sum(np.log(np.diag(chol)))
        - 0.5 * obs.m * np.log(2.0 * np.pi)
    )


def select_hyperparameter(
    candidates: Sequence[KernelSpec],
    obs: ObservationSet,
    grid: GridSpec,
    pairs: PairIndex | None = None,
) -> KernelSpec:
    """Candidate with maximal evidence; ties keep the first occurrence.

    Every candidate's Gram matrix gathers through one pair index: ``pairs``
    if given, else ``obs.pair_index(grid.n)`` built here.
    """
    if not candidates:
        raise ValueError("need at least one candidate")
    if pairs is None:
        pairs = obs.pair_index(grid.n)
    best_spec = None
    best_lml = -np.inf
    for spec in candidates:
        try:
            lml = log_marginal_likelihood(build_kernel_table(spec, grid), obs, pairs)
        except FactorizationError:
            continue
        if best_spec is None or lml > best_lml:
            best_spec = spec
            best_lml = lml
    if best_spec is None:
        raise FactorizationError("every candidate failed to factorize")
    return best_spec


def normal_quantile(level: float) -> float:
    """Half-width in standard deviations of the central normal interval at ``level``."""
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie strictly between 0 and 1")
    return float(_std_normal.ppf(0.5 + 0.5 * level))


def _power_table(density_values: np.ndarray, power: int) -> np.ndarray:
    """Physical-space table of the density raised to ``power``, from its rows 0..n/2."""
    return _real_synthesis(density_values[: density_values.shape[0] // 2 + 1] ** power)


def energy_variance(post: Posterior) -> float:
    """Variance of the quadratic energy functional, 0.25 * Tr(K_post^2).

    The trace is taken under the normalized grid measure.  The prior term is
    the sum of squared per-mode variances; the data terms are evaluated with
    the squared- and cubed-density tables at pairwise observation offsets,
    equivalent to the dense Frobenius computation at O(m^2) cost.
    """
    grid = post.kernel.grid
    dens = spectral_density(post.kernel.spec, grid).grid_values
    prior_term = float(np.sum(dens**2))
    t2 = _power_table(dens, 2)
    t3 = _power_table(dens, 3)
    pairs = post.obs.pair_index(grid.n)
    t2_pairs = np.take(t2, pairs.flat)
    t3_pairs = np.take(t3, pairs.flat)
    cross = float(np.trace(cho_solve((post.chol, True), t3_pairs)))
    y = cho_solve((post.chol, True), t2_pairs)
    rank_m = float(np.sum(y * y.T))
    return max(0.25 * (prior_term - 2.0 * cross + rank_m), 0.0)


def greedy_sensor_placement(
    kernel: KernelTable,
    obs: ObservationSet,
    candidates: np.ndarray | Sequence[tuple[int, int]],
    count: int,
) -> list[tuple[int, int]]:
    """Pick ``count`` locations by repeatedly maximizing posterior variance.

    Each pick is conditioned on as a pseudo-observation with the observation
    set's noise variance (values are irrelevant for variance updates); a
    pick whose conditional variance plus noise is within the tie tolerance
    of zero (a noiseless point already known) adds no information and
    leaves the conditioned set as it is.  Variances within
    ``VARIANCE_TIE_RTOL`` (1e-12) times the prior variance of the maximum
    count as tied, and ties break toward the lowest linear grid index.

    A candidate c's variance is sigma^2 minus the squares of
    ``sum_q r_q k(c - q)`` over the rows r of L^-1, for the Cholesky factor
    L of the noisy Gram matrix of the conditioned points q.  From sigma^2,
    each row lowers the candidates in one step: an FFT convolution of its
    weighted deltas, read at the candidates, squared and subtracted.  The
    rows of the observations' (jittered) factor go first; a pick p extends
    L by a row ``(l, d)`` and L^-1 by the row ``(-w, 1) / d`` with
    ``w = L^-T l``.  All of it runs on the coarsest sublattice that holds
    every candidate and observation, of step ``gcd(n, every coordinate
    offset)``, whose kernel is the table sampled every ``step`` points.
    L^-1 is one ``(m + count)^2`` block and the rows share one grid and one
    transform buffer: memory is O(n^2 + (m + count)^2), time one sublattice
    convolution per row.
    """
    cands = _grid_indices(candidates, "candidates").reshape(-1, 2)
    if count < 1:
        raise ValueError("count must be at least 1")
    if count > len(cands):
        raise ValueError("count exceeds the candidate pool")
    n = kernel.grid.n
    _check_on_grid(cands, n, "candidates")

    # the candidates' linear grid indices in increasing order, so the first of
    # several tied variances is at the lowest index; only their torus
    # positions outlive the setup, and each pick is mapped back from its own
    linear = np.sort(_flat_indices(cands, n))
    del cands

    sigma2 = kernel.spec.variance
    tol = VARIANCE_TIE_RTOL * sigma2
    m = obs.m
    # L^-1: the observations' rows, then one row per pick that enters the factor
    chol, _ = _factorized_gram(kernel, obs)
    inverse = np.zeros((m + count, m + count))
    for row, weights in enumerate(_inverse_rows(chol)):
        inverse[row, : row + 1] = weights[: row + 1]
    del chol

    # every point lies on the sublattice origin + step Z^2, a torus of side
    # n / step whose kernel is the table sampled every step points
    origin = divmod(int(linear[0]), n)
    rows, cols = np.divmod(linear, n)
    del linear
    rows = (rows - origin[0]) % n
    cols = (cols - origin[1]) % n
    obs_off = (obs.locations - origin) % n
    step = math.gcd(n, *(int(np.gcd.reduce(off, axis=None)) for off in (rows, cols, obs_off)))
    side = n // step
    cand_flat = (rows // step) * side + cols // step
    del rows, cols
    table = np.ascontiguousarray(kernel.values[::step, ::step])
    spectrum = np.fft.rfft2(table)
    # torus positions of the conditioned points: the observations, then
    # each pick that entered the factor
    nodes = np.empty((m + count, 2), dtype=np.int64)
    nodes[:m] = obs_off // step

    grid = np.empty((side, side))
    buffer = _new_buffer(side)
    # a row read at the candidates goes into the spent buffer's memory (its
    # own array only when repeated candidates outnumber the sublattice), and
    # the tie mask of a pick into the same bytes
    spent = buffer.reshape(-1).view(np.float64)
    gathered = spent[: len(cand_flat)] if len(cand_flat) <= len(spent) else np.empty(len(cand_flat))
    tied = gathered.view(np.bool_)[: len(cand_flat)]
    variances = np.full(len(cand_flat), sigma2)

    def lower(row: int) -> None:
        # row j of the lower triangular L^-1 weighs the first j + 1 points
        values = _convolve_deltas(
            spectrum, _flat_indices(nodes[: row + 1], side), inverse[row, : row + 1], grid, buffer
        )
        # every index is in range; the default mode="raise" would gather into
        # a new array and copy it to out
        np.take(values.reshape(-1), cand_flat, out=gathered, mode="clip")
        np.subtract(variances, np.square(gathered, out=gathered), out=variances)

    for row in range(m):
        lower(row)
    selected: list[tuple[int, int]] = []
    rank = m
    for _ in range(count):
        pick = int(np.argmax(np.greater_equal(variances, variances.max() - tol, out=tied)))
        variances[pick] = -np.inf  # never picked again
        torus = divmod(int(cand_flat[pick]), side)
        nodes[rank] = torus
        selected.append(tuple((start + step * t) % n for start, t in zip(origin, torus)))

        # the factor's new row (ell, d), then the inverse factor's
        ell = inverse[:rank, :rank] @ _offset_gather(table, nodes[:rank], nodes[[rank]])[:, 0]
        d_sq = sigma2 + obs.noise_variance - float(ell @ ell)
        if d_sq < -tol:
            raise FactorizationError("pseudo-observation update lost positivity")
        if d_sq <= tol:
            # a noiseless pick at a point already known exactly adds nothing
            continue
        d = np.sqrt(d_sq)
        inverse[rank, :rank] = -(ell @ inverse[:rank, :rank]) / d
        inverse[rank, rank] = 1.0 / d
        lower(rank)
        rank += 1
    return selected
