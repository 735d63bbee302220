"""The benchmark's workloads: CLI arguments, why each was chosen, and the
reference each command's output is checked against.

Every workload is one ``turbogp`` CLI command at a fixed size.  Each has a
reference that the benchmark computes itself from the seed, by dense linear
algebra with numpy (``np.linalg.solve`` on the Gram matrix built by
``gram_matrix``), and a check that compares the command's output files with
it to a tolerance.  A tolerance, not a byte digest, because an FFT or
otherwise reordered posterior legitimately changes the last bits of the
17-digit CSV floats.

The three workloads use ``gp_inference.fit_posterior`` in three different
ways (mean only, mean and variance, variance only), so an optimisation of
the posterior is seen separately on each.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from turbogp import GridSpec, KernelSpec, build_kernel_table, gram_matrix
from turbogp.experiments import RBF_LENGTH_SCALES, derive_seed, generate_cht_truth, observe

#: Tolerances on errors and fields read back from the output files.  The
#: CLI and the dense reference agree to about 1e-13 (fields have unit prior
#: variance; posterior variances are about 1e-3); an FFT posterior is
#: expected to agree as closely.
RTOL = 1e-9
ATOL = 1e-11
#: Evidence values closer than this (relative) count as a tie between length scales.
EVIDENCE_TIE_RTOL = 1e-9
#: Posterior variances closer than this count as a tie between greedy picks.
VARIANCE_TIE_ATOL = 1e-12

ALPHA = 1.5
NOISE = 0.1
CHT_TAG = KernelSpec.cht(ALPHA).tag
RBF_TAG = KernelSpec.rbf(None).tag


class CheckFailed(Exception):
    """A command's output does not match the reference."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _is_close(got: float, want: float) -> bool:
    return abs(got - want) <= ATOL + RTOL * abs(want)


def _close(got: float, want: float, what: str) -> None:
    _expect(_is_close(got, want), f"{what}: got {got!r}, reference {want!r}")


def _gram(table, locations, noise_variance: float) -> np.ndarray:
    return gram_matrix(table, locations) + noise_variance * np.eye(len(locations))


def _offsets(n: int, points: np.ndarray, locations: np.ndarray) -> np.ndarray:
    """Flat table index of the offset from each of ``locations`` (columns) to each of ``points`` (rows)."""
    da = (points[:, 0][:, None] - locations[:, 0][None, :]) % n
    db = (points[:, 1][:, None] - locations[:, 1][None, :]) % n
    return da * n + db


def _cross(table, points: np.ndarray, locations: np.ndarray) -> np.ndarray:
    """Prior covariance between ``points`` (rows) and ``locations`` (columns)."""
    return table.values.ravel()[_offsets(table.grid.n, points, locations)]


def _all_points(n: int) -> np.ndarray:
    idx = np.arange(n * n)
    return np.stack([idx // n, idx % n], axis=1)


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


def _read_real_dump(json_path: Path, n: int) -> np.ndarray:
    header = json.loads(json_path.read_text())
    _expect(header.get("n") == n and header.get("kind") == "real", f"{json_path.name}: bad header {header}")
    payload = np.fromfile(json_path.with_suffix(".bin"), dtype="<f8")
    _expect(payload.size == n * n, f"{json_path.name}: payload has {payload.size} values, expected {n * n}")
    return payload.reshape(n, n)


# --- compare ---------------------------------------------------------------

COMPARE_N, COMPARE_M, COMPARE_TRIALS, COMPARE_JOBS = 128, 100, 16, 2


@dataclass(frozen=True)
class CompareTrialRef:
    seed: int
    truth_std: float
    eps_cht: float
    #: eps of the RBF posterior mean at each length scale whose evidence ties
    #: for the maximum (usually one); the CLI must have resolved one of them
    eps_rbf: dict


def compare_reference(seed: int) -> list[CompareTrialRef]:
    grid = GridSpec(COMPARE_N)
    points = _all_points(grid.n)
    out = []
    for t in range(COMPARE_TRIALS):
        trial_seed = derive_seed(seed, t)
        truth = generate_cht_truth(ALPHA, grid, derive_seed(trial_seed, 0))
        obs = observe(truth, COMPARE_M, NOISE, derive_seed(trial_seed, 1))
        truth_std = float(np.std(truth.values))
        offsets = _offsets(grid.n, points, obs.locations)

        def eps(table, weights: np.ndarray) -> float:
            mean = (table.values.ravel()[offsets] @ weights).reshape(grid.n, grid.n)
            return float(np.sqrt(np.mean((mean - truth.values) ** 2))) / truth_std

        cht = build_kernel_table(KernelSpec.cht(ALPHA), grid)
        eps_cht = eps(cht, np.linalg.solve(_gram(cht, obs.locations, obs.noise_variance), obs.values))
        fits = []
        for ell in RBF_LENGTH_SCALES:
            table = build_kernel_table(KernelSpec.rbf(ell), grid)
            gram = _gram(table, obs.locations, obs.noise_variance)
            weights = np.linalg.solve(gram, obs.values)
            _, logdet = np.linalg.slogdet(gram)
            evidence = -0.5 * float(obs.values @ weights) - 0.5 * logdet - 0.5 * obs.m * np.log(2.0 * np.pi)
            fits.append((evidence, table, weights))
        best = max(f[0] for f in fits)
        eps_rbf = {
            ell: eps(table, weights)
            for ell, (evidence, table, weights) in zip(RBF_LENGTH_SCALES, fits)
            if evidence >= best - EVIDENCE_TIE_RTOL * (1.0 + abs(best))
        }
        out.append(CompareTrialRef(trial_seed, truth_std, eps_cht, eps_rbf))
    return out


def compare_check(outdir: Path, ref: list[CompareTrialRef]) -> None:
    """Per (trial, kernel): eps; per trial: resolved RBF length scale and winner.

    ``trials.csv`` does not name the resolved length scale, so the RBF eps
    must match the reference eps at a length scale of maximal evidence; a
    wrongly resolved length scale gives another posterior and another eps.
    """
    rows = _read_csv(outdir / "trials.csv")
    _expect(len(rows) == 2 * len(ref), f"trials.csv has {len(rows)} rows, expected {2 * len(ref)}")
    for t, trial in enumerate(ref):
        cht, rbf = rows[2 * t], rows[2 * t + 1]
        _expect((cht["kernel"], rbf["kernel"]) == (CHT_TAG, RBF_TAG), f"trial {t}: kernels {cht['kernel']}, {rbf['kernel']}")
        for row in (cht, rbf):
            _expect(int(row["seed"]) == trial.seed, f"trial {t}: seed {row['seed']}, expected {trial.seed}")
        eps_cht, eps_rbf = float(cht["eps"]), float(rbf["eps"])
        _close(eps_cht, trial.eps_cht, f"trial {t} {CHT_TAG} eps")
        _close(float(cht["rmse"]), trial.eps_cht * trial.truth_std, f"trial {t} {CHT_TAG} rmse")

        matches = [want for want in trial.eps_rbf.values() if _is_close(eps_rbf, want)]
        _expect(
            bool(matches),
            f"trial {t}: {RBF_TAG} eps {eps_rbf!r} matches no evidence-maximising length scale "
            f"(reference {trial.eps_rbf})",
        )
        ref_rbf = matches[0]
        _close(float(rbf["rmse"]), ref_rbf * trial.truth_std, f"trial {t} {RBF_TAG} rmse")
        _close(float(cht["improvement_pct"]), 100.0 * (ref_rbf - trial.eps_cht) / ref_rbf, f"trial {t} improvement_pct")

        winners = {CHT_TAG} if trial.eps_cht < ref_rbf else {RBF_TAG}
        if _is_close(trial.eps_cht, ref_rbf):
            winners = {CHT_TAG, RBF_TAG}
        for row in (cht, rbf):
            _expect(row["winner"] in winners, f"trial {t}: winner {row['winner']}, expected one of {sorted(winners)}")


# --- reconstruct -----------------------------------------------------------

RECON_N, RECON_M, RECON_RANDOM_POINTS, RECON_OBSERVED_POINTS = 256, 400, 256, 64


@dataclass(frozen=True)
class ReconstructRef:
    points: np.ndarray  # (k, 2) grid indices where the fields are checked
    mean: np.ndarray
    variance: np.ndarray


def reconstruct_reference(seed: int) -> ReconstructRef:
    """Posterior mean and variance at sampled points, by a dense solve.

    The points are random grid points plus observed locations, where the
    variance is smallest and cancellation is worst.
    """
    grid = GridSpec(RECON_N)
    truth = generate_cht_truth(ALPHA, grid, derive_seed(seed, 0))
    obs = observe(truth, RECON_M, NOISE, derive_seed(seed, 1))
    table = build_kernel_table(KernelSpec.cht(ALPHA), grid)
    rng = np.random.default_rng([seed, 1])
    flat = rng.choice(grid.n * grid.n, size=RECON_RANDOM_POINTS, replace=False)
    random_points = np.stack([flat // grid.n, flat % grid.n], axis=1)
    points = np.concatenate([random_points, obs.locations[:RECON_OBSERVED_POINTS]])
    gram = _gram(table, obs.locations, obs.noise_variance)
    cross = _cross(table, points, obs.locations)
    mean = cross @ np.linalg.solve(gram, obs.values)
    reduction = np.sum(cross * np.linalg.solve(gram, cross.T).T, axis=1)
    variance = np.maximum(table.spec.variance - reduction, 0.0)
    return ReconstructRef(points, mean, variance)


def reconstruct_check(outdir: Path, ref: ReconstructRef) -> None:
    a, b = ref.points[:, 0], ref.points[:, 1]
    for name, want in (("mean", ref.mean), ("variance", ref.variance)):
        got = _read_real_dump(outdir / f"{name}.json", RECON_N)[a, b]
        err = np.abs(got - want) - (ATOL + RTOL * np.abs(want))
        worst = int(np.argmax(err))
        _expect(
            err[worst] <= 0.0,
            f"{name} at {tuple(map(int, ref.points[worst]))}: got {float(got[worst])!r}, "
            f"reference {float(want[worst])!r}",
        )
    summary = json.loads((outdir / "credible_summary.json").read_text())
    _expect(summary.get("kernel") == CHT_TAG, f"credible_summary kernel {summary.get('kernel')!r}")


# --- place-sensors ---------------------------------------------------------

PLACE_N, PLACE_COUNT, PLACE_NOISE_VARIANCE = 128, 64, 0.01


@dataclass(frozen=True)
class PlaceRef:
    picks: list  # [(ix, iy), ...] in pick order
    variances: np.ndarray  # posterior variance at each pick, given the earlier picks


def place_reference(seed: int) -> PlaceRef:
    """Greedy max-variance placement by a dense solve at every step.

    Variances within ``VARIANCE_TIE_ATOL`` of the maximum count as tied and
    the tie goes to the lowest linear grid index, the CLI's documented rule.
    The workload has no random input, so ``seed`` does not change it.
    """
    del seed
    grid = GridSpec(PLACE_N)
    table = build_kernel_table(KernelSpec.cht(ALPHA), grid)
    points = _all_points(grid.n)
    sigma2 = table.spec.variance
    variance = np.full(len(points), sigma2)
    available = np.ones(len(points), dtype=bool)
    picks, picked_var = [], []
    for _ in range(PLACE_COUNT):
        masked = np.where(available, variance, -np.inf)
        pick = int(np.flatnonzero(masked >= masked.max() - VARIANCE_TIE_ATOL)[0])
        picks.append((int(points[pick, 0]), int(points[pick, 1])))
        picked_var.append(float(variance[pick]))
        available[pick] = False
        chosen = np.asarray(picks, dtype=np.int64)
        gram = _gram(table, chosen, PLACE_NOISE_VARIANCE)
        cross = _cross(table, points, chosen)
        variance = sigma2 - np.sum(cross * np.linalg.solve(gram, cross.T).T, axis=1)
    return PlaceRef(picks, np.array(picked_var))


def place_check(outdir: Path, ref: PlaceRef) -> None:
    rows = _read_csv(outdir / "sensors.csv")
    _expect(len(rows) == len(ref.picks), f"sensors.csv has {len(rows)} rows, expected {len(ref.picks)}")
    for k, row in enumerate(rows):
        got = (int(row["ix"]), int(row["iy"]))
        _expect(int(row["order"]) == k and got == ref.picks[k], f"pick {k}: got {got}, reference {ref.picks[k]}")
        _close(float(row["variance"]), float(ref.variances[k]), f"pick {k} variance")


# --- registry --------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    why: str
    bypasses: str
    trials: int  # trials completed per command, the numerator of trials_per_s
    jobs: int | None  # the pinned --jobs, or None when the command has no thread pool
    reference: Callable[[int], object]
    check: Callable[[Path, object], None]
    span_counts: dict  # exact calls per command of traced functions

    def command(self, seed: int, outdir: Path) -> list[str]:
        return [*self.argv, "--seed", str(seed), "--out", str(outdir)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="compare",
            argv=(
                "compare", "--truth", "gaussian", "--n", str(COMPARE_N), "--m", str(COMPARE_M),
                "--noise", str(NOISE), "--trials", str(COMPARE_TRIALS), "--jobs", str(COMPARE_JOBS),
            ),
            why=(
                "The README's example size. The posterior is read for its mean only; the variance "
                "field is computed and thrown away. 192 kernel-table builds, 11 distinct; evidence "
                "tuning; the --jobs 2 thread pool."
            ),
            bypasses="greedy placement and field dumps",
            trials=COMPARE_TRIALS,
            jobs=COMPARE_JOBS,
            reference=compare_reference,
            check=compare_check,
            span_counts={
                "experiments.run_comparison": 1,
                "experiments.run_trial": COMPARE_TRIALS,
                "gp_inference.fit_posterior": 2 * COMPARE_TRIALS,
                "gp_inference.select_hyperparameter": COMPARE_TRIALS,
                "gp_inference.log_marginal_likelihood": len(RBF_LENGTH_SCALES) * COMPARE_TRIALS,
                "kernels.build_kernel_table": (len(RBF_LENGTH_SCALES) + 2) * COMPARE_TRIALS,
                "gp_inference.greedy_sensor_placement": 0,
                "io.write_field_dump": 0,
            },
        ),
        Workload(
            name="reconstruct",
            argv=(
                "reconstruct", "--truth", "gaussian", "--n", str(RECON_N), "--m", str(RECON_M),
                "--noise", str(NOISE),
            ),
            why=(
                "The 256/400 point: one full posterior with mean and variance fields is 96% of the "
                "run and sets the memory peak. It writes two field dumps (the io write path)."
            ),
            bypasses="kernel-table reuse (one build) and evidence tuning",
            trials=1,
            jobs=None,
            reference=reconstruct_reference,
            check=reconstruct_check,
            span_counts={
                "experiments.run_trial": 0,
                "gp_inference.fit_posterior": 1,
                "gp_inference.select_hyperparameter": 0,
                "kernels.build_kernel_table": 1,
                "io.write_field_dump": 2,
            },
        ),
        Workload(
            name="place-sensors",
            argv=(
                "place-sensors", "--n", str(PLACE_N), "--kernel", "cht", "--alpha", str(ALPHA),
                "--count", str(PLACE_COUNT),
            ),
            why=(
                "Reads the posterior's variance only: greedy rank-1 updates, then a loop that "
                "refits the full grid once per pick on zero-valued pseudo-observations."
            ),
            bypasses="truth generation, evidence tuning and the posterior mean",
            trials=1,
            jobs=None,
            reference=place_reference,
            check=place_check,
            span_counts={
                "experiments.run_trial": 0,
                "experiments.generate_cht_truth": 0,
                "gp_inference.fit_posterior": PLACE_COUNT,
                "gp_inference.greedy_sensor_placement": 1,
                "gp_inference.select_hyperparameter": 0,
                "kernels.build_kernel_table": 1,
            },
        ),
    )
}
