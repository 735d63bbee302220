"""Ground-truth generation, the observation model, reconstruction metrics,
and the experiment protocols (kernel comparison, alpha and density sweeps,
spectrum validation) with deterministic seed derivation.

A truth is named by one of :data:`TRUTH_KINDS`, the same words as the CLI's
``--truth``, and :func:`generate_truth` is the one place that draws it.
:class:`Trial` is the one place that defines a trial's seed paths (truth
from path 0, observations from path 1 of its master seed) and its error
metric eps; every comparison, sweep and ``reconstruct`` scores through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .gp_inference import (
    ObservationSet, Posterior, _ordered_map, fit_posterior, select_hyperparameter,
)
from .kernels import (
    FAMILY_CHT, KernelSpec, KernelTable, PairIndex, build_kernel_table, spectral_density,
)
from .spectral_field import (
    GridSpec,
    PowerLawFit,
    RealField,
    fit_power_law,
    fit_range,
    radial_spectrum_of_power,
    sample_gaussian_field,
    to_spectral,
)

#: Length-scale grid for evidence-tuned baselines: geometric 1.5x steps from
#: 0.05 capped by the 1.6 endpoint (scales in radians on the 2*pi domain).
RBF_LENGTH_SCALES: tuple[float, ...] = tuple(
    0.05 * 1.5**k for k in range(9) if 0.05 * 1.5**k < 1.6
) + (1.6,)


def derive_seed(master_seed: int, *path: int) -> int:
    """Deterministic child seed for the given branch of the experiment tree."""
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(path))
    return int(seq.generate_state(1, np.uint64)[0])


#: The vortex truth: a superposition of periodic Gaussian blobs whose radii
#: span more than a decade of scales.  A genuinely multi-scale field is what
#: separates power-law priors from a single length-scale baseline in the
#: reconstruction benchmark.
VORTEX_COUNT = 12
VORTEX_RADIUS_RANGE = (0.05, 0.9)
VORTEX_AMPLITUDE_RANGE = (0.5, 1.5)
#: Probability that a blob is positive.
VORTEX_SIGN_BALANCE = 0.5


TRUTH_GAUSSIAN = "gaussian"
TRUTH_VORTEX = "vortex"
TRUTH_KINDS = (TRUTH_GAUSSIAN, TRUTH_VORTEX)


@dataclass(frozen=True)
class TrialConfig:
    """One reconstruction trial: truth, observations, and candidate priors."""

    grid_n: int
    alpha_true: float
    kernel_candidates: tuple[KernelSpec, ...]
    m: int
    noise_ratio: float
    master_seed: int
    truth_kind: str = TRUTH_GAUSSIAN

    def __post_init__(self) -> None:
        GridSpec(self.grid_n)
        if not (1 <= self.m <= self.grid_n**2):
            raise ValueError(f"m must lie in [1, {self.grid_n**2}] on a {self.grid_n}^2 grid")
        if not (math.isfinite(self.noise_ratio) and self.noise_ratio >= 0):
            raise ValueError("noise_ratio must be finite and nonnegative")
        if self.truth_kind not in TRUTH_KINDS:
            raise ValueError(f"unknown truth kind {self.truth_kind!r}")
        if not self.kernel_candidates:
            raise ValueError("need at least one kernel candidate")


@dataclass(frozen=True)
class KernelScore:
    eps: float
    rmse: float
    resolved_tag: str


@dataclass(frozen=True)
class TrialResult:
    seed: int
    per_kernel: dict
    improvement_pct: Optional[float]
    winner: str


@dataclass(frozen=True)
class SweepPoint:
    axis_value: float
    mean_improvement: float
    std_improvement: float
    win_rate: float
    trial_count: int


@dataclass(frozen=True)
class SweepResult:
    points: tuple[SweepPoint, ...]


@dataclass(frozen=True)
class AlphaSpectrumResult:
    alpha: float
    shell_sum_fit: PowerLawFit
    mode_avg_fit: PowerLawFit


def _unit_variance(values: np.ndarray) -> np.ndarray:
    scale = float(np.sqrt(np.mean(values**2)))
    if scale == 0.0:
        raise ValueError("cannot rescale a zero field to unit variance")
    return values / scale


def generate_cht_truth(alpha: float, grid: GridSpec, seed: int) -> RealField:
    """Equilibrium power-law sample rescaled to unit grid variance."""
    density = spectral_density(KernelSpec.cht(alpha), grid)
    raw = sample_gaussian_field(density, seed)
    return RealField(grid, _unit_variance(raw.values))


def vortex_superposition(grid: GridSpec, seed: int) -> np.ndarray:
    """Raw (pre-normalization) sum of periodic Gaussian blobs."""
    rng = np.random.default_rng(seed)
    coords = grid.coordinates()
    x1 = coords[:, None]
    x2 = coords[None, :]
    values = np.zeros((grid.n, grid.n))
    length = grid.domain_length
    for _ in range(VORTEX_COUNT):
        center = rng.uniform(0.0, length, size=2)
        radius = rng.uniform(*VORTEX_RADIUS_RANGE)
        amplitude = rng.uniform(*VORTEX_AMPLITUDE_RANGE)
        sign = 1.0 if rng.uniform() < VORTEX_SIGN_BALANCE else -1.0
        d1 = np.abs(x1 - center[0])
        d1 = np.minimum(d1, length - d1)
        d2 = np.abs(x2 - center[1])
        d2 = np.minimum(d2, length - d2)
        values += sign * amplitude * np.exp(-(d1**2 + d2**2) / (2.0 * radius**2))
    return values


def generate_vortex_truth(grid: GridSpec, seed: int) -> RealField:
    """Non-Gaussian vortex field, mean-removed and rescaled to unit variance."""
    values = vortex_superposition(grid, seed)
    values = values - values.mean()
    return RealField(grid, _unit_variance(values))


def observe(truth: RealField, m: int, noise_ratio: float, seed: int) -> ObservationSet:
    """Sample m distinct grid locations with additive Gaussian noise.

    The noise standard deviation is ``noise_ratio`` times the field RMS and
    its square is recorded as the observation noise variance.
    """
    n = truth.grid.n
    if not (1 <= m <= n * n):
        raise ValueError(f"m must lie in [1, {n * n}]")
    if not (math.isfinite(noise_ratio) and noise_ratio >= 0):
        raise ValueError("noise_ratio must be finite and nonnegative")
    rng = np.random.default_rng(seed)
    flat = rng.choice(n * n, size=m, replace=False)
    locations = np.stack([flat // n, flat % n], axis=1)
    sigma = noise_ratio * truth.rms()
    noise = rng.standard_normal(m) * sigma if sigma > 0 else np.zeros(m)
    values = truth.values[locations[:, 0], locations[:, 1]] + noise
    return ObservationSet(
        locations=locations, values=values, noise_variance=float(sigma**2)
    )


def generate_truth(kind: str, alpha_true: float, grid: GridSpec, seed: int) -> RealField:
    """Unit-variance truth of ``kind``: a power-law sample or a vortex field."""
    if kind == TRUTH_GAUSSIAN:
        return generate_cht_truth(alpha_true, grid, seed)
    if kind == TRUTH_VORTEX:
        return generate_vortex_truth(grid, seed)
    raise ValueError(f"unknown truth kind {kind!r}")


@dataclass(frozen=True)
class Trial:
    """One truth and its noisy observations, on which candidate priors are scored.

    :meth:`draw` takes the truth from seed path 0 and the observations from
    seed path 1 of the config's master seed, so trials that share a master
    seed share both, whatever priors they score.  :meth:`score` resolves a
    candidate (an unset baseline length scale is tuned by evidence over
    :data:`RBF_LENGTH_SCALES`), fits it, and reports eps: the RMSE of the
    posterior mean over the grid divided by the truth's grid standard
    deviation.  A trial holds no pair index: a caller scoring several
    candidates builds ``trial.obs.pair_index(trial.truth.grid.n)`` and passes
    it as ``pairs``, and it is freed with that caller.
    """

    truth: RealField
    obs: ObservationSet

    @classmethod
    def draw(cls, config: TrialConfig, truth: Optional[RealField] = None) -> Trial:
        """The config's trial; ``truth``, if given, replaces the generated one."""
        if truth is None:
            truth = generate_truth(
                config.truth_kind, config.alpha_true, GridSpec(config.grid_n),
                derive_seed(config.master_seed, 0),
            )
        elif truth.grid.n != config.grid_n:
            raise ValueError(f"truth grid {truth.grid.n} does not match grid_n {config.grid_n}")
        obs = observe(truth, config.m, config.noise_ratio, derive_seed(config.master_seed, 1))
        return cls(truth, obs)

    def _tune(self, spec: KernelSpec, pairs: Optional[PairIndex]) -> KernelSpec:
        if spec.family != FAMILY_CHT and spec.length_scale is None:
            candidates = [replace(spec, length_scale=ell) for ell in RBF_LENGTH_SCALES]
            return select_hyperparameter(candidates, self.obs, self.truth.grid, pairs)
        return spec

    def score(
        self, spec: KernelSpec, pairs: Optional[PairIndex] = None, jobs: int = 1
    ) -> tuple[KernelScore, Posterior]:
        """Resolve, fit and score ``spec``; returns its score and posterior.

        ``jobs`` threads build the posterior's variance field, if it is read.
        """
        table = build_kernel_table(self._tune(spec, pairs), self.truth.grid)
        return self.score_table(table, pairs, jobs)

    def score_table(
        self, table: KernelTable, pairs: Optional[PairIndex] = None, jobs: int = 1
    ) -> tuple[KernelScore, Posterior]:
        """Fit and score the prior of a built ``table``, as :meth:`score` does."""
        post = fit_posterior(table, self.obs, pairs, jobs)
        diff = post.mean_field.values - self.truth.values
        rmse = float(np.sqrt(np.mean(diff**2)))
        eps = rmse / float(np.std(self.truth.values))
        return KernelScore(eps=eps, rmse=rmse, resolved_tag=table.spec.tag), post


def _trial_result(
    seed: int, candidates: Sequence[KernelSpec], per_kernel: dict[str, KernelScore]
) -> TrialResult:
    """The improvement of the first power-law candidate over the first baseline
    (percent reduction of eps) and the winner, lowest eps then first listed."""
    cht_tag = next((s.tag for s in candidates if s.family == FAMILY_CHT), None)
    base_tag = next((s.tag for s in candidates if s.family != FAMILY_CHT), None)
    improvement = None
    if cht_tag is not None and base_tag is not None:
        eps_base = per_kernel[base_tag].eps
        improvement = 100.0 * (eps_base - per_kernel[cht_tag].eps) / eps_base
    order = [s.tag for s in candidates]
    winner = min(order, key=lambda tag: (per_kernel[tag].eps, order.index(tag)))
    return TrialResult(
        seed=seed, per_kernel=per_kernel, improvement_pct=improvement, winner=winner
    )


def run_trial(config: TrialConfig) -> TrialResult:
    """Draw the config's :class:`Trial` and score every candidate on it."""
    trial = Trial.draw(config)
    # every Gram matrix of the trial, evidence scan and fits, gathers through
    # one pair index, freed with the trial
    pairs = trial.obs.pair_index(config.grid_n)
    per_kernel = {
        spec.tag: trial.score(spec, pairs)[0] for spec in config.kernel_candidates
    }
    return _trial_result(config.master_seed, config.kernel_candidates, per_kernel)


def _repetitions(base: TrialConfig, trials: int) -> list[TrialConfig]:
    return [replace(base, master_seed=derive_seed(base.master_seed, t)) for t in range(trials)]


def run_comparison(base: TrialConfig, trials: int, jobs: int = 1) -> list[TrialResult]:
    """Independent repetitions of a trial with derived per-trial seeds."""
    return list(_ordered_map(run_trial, _repetitions(base, trials), jobs))


def aggregate_point(axis_value: float, results: Sequence[TrialResult]) -> SweepPoint:
    """Fold trial results into mean/std improvement and the win rate."""
    for r in results:
        if r.improvement_pct is None:
            has_power_law = any(tag.startswith(f"{FAMILY_CHT}_") for tag in r.per_kernel)
            missing = "baseline" if has_power_law else "power-law"
            raise ValueError(f"trial {r.seed} has no {missing} candidate, so no improvement")
    imps = np.array([r.improvement_pct for r in results], dtype=np.float64)
    wins = np.array([r.improvement_pct > 0 for r in results], dtype=np.float64)
    std = float(imps.std(ddof=1)) if len(imps) > 1 else 0.0
    return SweepPoint(
        axis_value=float(axis_value),
        mean_improvement=float(imps.mean()),
        std_improvement=std,
        win_rate=float(wins.mean()),
        trial_count=len(results),
    )


def sweep_alpha(
    base: TrialConfig, alphas: Sequence[float], trials: int, jobs: int = 1
) -> SweepResult:
    """Reconstruction quality across power-law exponents on shared truths.

    Per-trial seeds do not depend on the swept alpha, so every point sees the
    same truths and observations and differences isolate the prior choice.
    Each trial is drawn once, with one pair index, and its baselines are
    tuned and scored once; only the power-law fit runs per alpha.  The
    power-law tables are built once, before the first trial, and held for
    the sweep, so the kernel-table cache keeps only the baselines' tables
    and a sweep of any length builds each distinct table once.
    """
    if not alphas:
        raise ValueError("need at least one alpha")
    baseline = tuple(s for s in base.kernel_candidates if s.family != FAMILY_CHT)
    if not baseline:
        raise ValueError("alpha sweep needs a non-power-law baseline candidate")
    grid = GridSpec(base.grid_n)
    powers = [build_kernel_table(KernelSpec.cht(float(alpha)), grid) for alpha in alphas]

    def trial_results(config: TrialConfig) -> list[TrialResult]:
        trial = Trial.draw(config)
        pairs = trial.obs.pair_index(config.grid_n)
        base_scores = {spec.tag: trial.score(spec, pairs)[0] for spec in baseline}
        return [
            _trial_result(
                config.master_seed, (power.spec, *baseline),
                {power.spec.tag: trial.score_table(power, pairs)[0], **base_scores},
            )
            for power in powers
        ]

    per_trial = list(_ordered_map(trial_results, _repetitions(base, trials), jobs))
    points = tuple(
        aggregate_point(float(alpha), [results[i] for results in per_trial])
        for i, alpha in enumerate(alphas)
    )
    return SweepResult(points)


def sweep_density(
    base: TrialConfig, m_values: Sequence[int], trials: int, jobs: int = 1
) -> SweepResult:
    """Reconstruction quality across observation counts, seeds independent per m."""
    if not m_values:
        raise ValueError("need at least one observation count")
    families = {spec.family == FAMILY_CHT for spec in base.kernel_candidates}
    if families != {True, False}:
        raise ValueError("density sweep needs a power-law and a non-power-law candidate")
    # every count is checked, by TrialConfig, before any trial runs
    configs = [
        [replace(base, m=int(m), master_seed=derive_seed(base.master_seed, mi, t))
         for t in range(trials)]
        for mi, m in enumerate(m_values)
    ]
    points = [
        aggregate_point(float(m), list(_ordered_map(run_trial, point_configs, jobs)))
        for m, point_configs in zip(m_values, configs)
    ]
    return SweepResult(tuple(points))


def spectral_validation(
    alphas: Sequence[float],
    grid: GridSpec,
    seeds_per_alpha: int,
    master_seed: int = 0,
    k_min: Optional[int] = None,
    k_max: Optional[int] = None,
) -> list[AlphaSpectrumResult]:
    """Seed-averaged spectra with power-law fits for both shell estimators."""
    if not alphas:
        raise ValueError("need at least one alpha")
    if seeds_per_alpha < 1:
        raise ValueError("seeds_per_alpha must be at least 1")
    k_lo, k_hi = fit_range(grid, k_min, k_max)
    out = []
    for ai, alpha in enumerate(alphas):
        density = spectral_density(KernelSpec.cht(float(alpha)), grid)
        power = np.zeros((grid.n, grid.n))
        for s in range(seeds_per_alpha):
            sample = sample_gaussian_field(density, derive_seed(master_seed, ai, s))
            power += np.abs(to_spectral(sample).coeffs) ** 2
        estimate = radial_spectrum_of_power(grid, power / seeds_per_alpha)
        out.append(
            AlphaSpectrumResult(
                alpha=float(alpha),
                shell_sum_fit=fit_power_law(estimate, k_lo, k_hi, use_sum=True),
                mode_avg_fit=fit_power_law(estimate, k_lo, k_hi, use_sum=False),
            )
        )
    return out
