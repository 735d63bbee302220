"""Shared fixtures and independent dense oracles used across the suite."""

import numpy as np
import pytest
from hypothesis import settings

from turbogp import GridSpec, KernelSpec, ObservationSet, build_kernel_table, fit_posterior
from turbogp.gp_inference import VARIANCE_TIE_RTOL
from turbogp.kernels import raw_density
from turbogp.spectral_field import SpectralField, mirror_indices, to_physical

# Shared CPUs stall at random, so per-example deadlines are off; derandomized
# examples make every run test the same cases and need no example database.
settings.register_profile("shared-host", deadline=None, derandomize=True, database=None)
settings.load_profile("shared-host")


@pytest.fixture
def grid8():
    return GridSpec(8)


@pytest.fixture
def grid16():
    return GridSpec(16)


@pytest.fixture
def grid64():
    return GridSpec(64)


@pytest.fixture
def cht_spec():
    return KernelSpec.cht(1.5)


@pytest.fixture
def cht_table16(grid16, cht_spec):
    return build_kernel_table(cht_spec, grid16)


def direct_kernel_sum(spec, dx, truncation):
    """Brute-force kernel value: normalized cosine sum over 0 < |n| <= truncation.

    The independent oracle for ``build_kernel_table``; with
    ``truncation = n // 2`` it enumerates exactly the active modes of the
    grid density (component magnitudes capped below the truncation radius,
    matching the dropped Nyquist row and column).
    """
    if truncation < 2:
        raise ValueError("truncation must be at least 2")
    rng = np.arange(-(truncation - 1), truncation)
    n1, n2 = np.meshgrid(rng, rng, indexing="ij")
    ksq = n1 * n1 + n2 * n2
    keep = (ksq > 0) & (ksq <= truncation * truncation)
    weights = raw_density(spec, ksq[keep].astype(np.float64))
    phases = n1[keep] * dx[0] + n2[keep] * dx[1]
    return float(spec.variance * np.sum(weights * np.cos(phases)) / np.sum(weights))


def hermitian_defect(field):
    """Max |coeff(-n) - conj(coeff(n))| over the lattice."""
    m = mirror_indices(field.grid.n)
    return float(np.max(np.abs(field.coeffs[np.ix_(m, m)] - np.conj(field.coeffs))))


def dense_prior_covariance(table):
    """Full covariance matrix over every grid point, by table lookup."""
    n = table.grid.n
    idx = np.arange(n * n)
    aa, bb = idx // n, idx % n
    da = (aa[:, None] - aa[None, :]) % n
    db = (bb[:, None] - bb[None, :]) % n
    return table.values[da, db]


def dense_condition(table, locations, values, noise_variance):
    """Brute-force GP conditioning via the full prior covariance matrix.

    Returns (posterior mean over the grid, posterior covariance matrix).
    """
    n = table.grid.n
    sigma = dense_prior_covariance(table)
    locs = np.asarray(locations, dtype=np.int64).reshape(-1, 2)
    x = locs[:, 0] * n + locs[:, 1]
    if len(x) == 0:
        return np.zeros(n * n), sigma
    gram = sigma[np.ix_(x, x)] + noise_variance * np.eye(len(x))
    solve = np.linalg.solve
    mean = sigma[:, x] @ solve(gram, np.asarray(values, dtype=np.float64))
    cov = sigma - sigma[:, x] @ solve(gram, sigma[x, :])
    return mean, cov


def _greedy_pick(table, variances, cands, available):
    """Index of the available candidate of maximal variance.

    Variances within ``VARIANCE_TIE_RTOL`` times the prior variance of the
    maximum tie, and the tie goes to the lowest linear grid index.
    """
    n = table.grid.n
    masked = np.where(available, variances, -np.inf)
    tol = VARIANCE_TIE_RTOL * table.spec.variance
    best = np.flatnonzero(masked >= masked.max() - tol)
    linear = cands[best, 0] * n + cands[best, 1]
    return int(best[np.argmin(linear)])


def dense_greedy(table, obs_locations, noise_variance, candidates, count):
    """Exhaustive greedy placement via dense conditioning at every step."""
    n = table.grid.n
    cands = np.asarray(candidates, dtype=np.int64).reshape(-1, 2)
    chosen = [tuple(map(int, p)) for p in np.asarray(obs_locations).reshape(-1, 2)]
    picked = []
    available = np.ones(len(cands), dtype=bool)
    for _ in range(count):
        _, cov = dense_condition(
            table, chosen, np.zeros(len(chosen)), noise_variance
        )
        diag = np.diag(cov)
        pick = _greedy_pick(table, diag[cands[:, 0] * n + cands[:, 1]], cands, available)
        point = (int(cands[pick, 0]), int(cands[pick, 1]))
        picked.append(point)
        chosen.append(point)
        available[pick] = False
    return picked


def refit_greedy(table, obs, candidates, count):
    """Greedy placement that refits the posterior after every pick.

    The oracle for ``greedy_sensor_placement``'s rank-1 factor updates: each
    step conditions on the observations plus the picks so far, as
    pseudo-observations with the set's noise variance, and reads
    ``Posterior.variance_at`` at the candidates.
    """
    cands = np.asarray(candidates, dtype=np.int64).reshape(-1, 2)
    selected = []
    available = np.ones(len(cands), dtype=bool)
    for _ in range(count):
        locs = list(map(tuple, obs.locations.tolist())) + selected
        pseudo = ObservationSet(
            locations=np.asarray(locs, dtype=np.int64).reshape(-1, 2),
            values=np.zeros(len(locs)),
            noise_variance=obs.noise_variance,
        )
        variances = fit_posterior(table, pseudo).variance_at(cands)
        pick = _greedy_pick(table, variances, cands, available)
        selected.append((int(cands[pick, 0]), int(cands[pick, 1])))
        available[pick] = False
    return selected


def mask_sample_gaussian_field(density, seed):
    """Reference Gaussian field sampler built from full-lattice boolean masks.

    Draws the same normals as ``sample_gaussian_field`` and fills the same
    coefficients with the same arithmetic, so the two agree bit for bit.
    """
    s = np.asarray(density.grid_values, dtype=np.float64)
    grid = density.grid
    n = grid.n
    rng = np.random.default_rng(seed)
    re = rng.standard_normal((n, n))
    im = rng.standard_normal((n, n))

    idx = np.arange(n)
    j1, j2 = np.meshgrid(idx, idx, indexing="ij")
    m1, m2 = (-j1) % n, (-j2) % n
    self_conj = (j1 == m1) & (j2 == m2)
    primary = (j1 < m1) | ((j1 == m1) & (j2 < m2))

    coeffs = np.zeros((n, n), dtype=np.complex128)
    half_std = np.sqrt(s / 2.0)
    coeffs[primary] = (re[primary] + 1j * im[primary]) * half_std[primary]
    coeffs[m1[primary], m2[primary]] = np.conj(coeffs[primary])
    coeffs[self_conj] = re[self_conj] * np.sqrt(s[self_conj])
    coeffs[0, 0] = 0.0
    return to_physical(SpectralField(grid, coeffs))
