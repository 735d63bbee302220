"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.  Run with ``pytest tests/test_acceptance.py -v``.
"""

import numpy as np

from conftest import dense_condition, dense_greedy, direct_kernel_sum, refit_greedy
from turbogp import (
    GridSpec,
    KernelSpec,
    ObservationSet,
    TrialConfig,
    build_kernel_table,
    check_admissible,
    energy_variance,
    fit_posterior,
    greedy_sensor_placement,
    run_comparison,
    sample_gaussian_field,
    spectral_density,
    spectral_validation,
    sweep_alpha,
    sweep_density,
    to_spectral,
)
from turbogp.cli import main as cli_main
from turbogp.experiments import TRUTH_VORTEX, derive_seed, observe
from turbogp.spectral_field import biot_savart_spectral, curl, to_physical

MASTER = 20260809


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({detail})", flush=True)
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_spectral_validation_shell_sum():
    grid = GridSpec(128)
    results = spectral_validation([1.5, 2.0, 2.5], grid, 10, master_seed=MASTER)
    exponents = [r.shell_sum_fit.exponent for r in results]
    theory = [-4.0, -5.0, -6.0]
    ok = all(abs(e - t) <= 0.35 for e, t in zip(exponents, theory))
    diffs = [exponents[i + 1] - exponents[i] for i in range(2)]
    ok = ok and all(abs(d + 1.0) <= 0.3 for d in diffs)
    detail = (
        "exponents "
        + ", ".join(f"{e:+.3f}" for e in exponents)
        + " vs theory -4/-5/-6; diffs "
        + ", ".join(f"{d:+.3f}" for d in diffs)
    )
    _report(1, "spectral-validation", ok, detail)


def test_criterion_02_mode_averaged_exponent():
    grid = GridSpec(128)
    results = spectral_validation([1.5], grid, 10, master_seed=MASTER)
    exponent = results[0].mode_avg_fit.exponent
    ok = abs(exponent + 5.0) <= 0.15
    _report(2, "mode-averaged-exponent", ok, f"exponent {exponent:+.3f} vs -5.00")


def test_criterion_03_oracle_equivalence():
    families = [KernelSpec.cht(1.5), KernelSpec.rbf(0.5), KernelSpec.matern(1.5, 1.0)]
    worst_table = 0.0
    for n in (8, 16):
        grid = GridSpec(n)
        coords = grid.coordinates()
        for spec in families:
            table = build_kernel_table(spec, grid)
            for a in range(n):
                for b in range(n):
                    oracle = direct_kernel_sum(spec, (coords[a], coords[b]), n // 2)
                    scale = max(abs(oracle), 1e-12)
                    worst_table = max(
                        worst_table, abs(table.values[a, b] - oracle) / scale
                    )
    ok = worst_table < 1e-10

    grid = GridSpec(16)
    table = build_kernel_table(KernelSpec.cht(1.5), grid)
    rng = np.random.default_rng(31)
    flat = rng.choice(256, size=6, replace=False)
    locs = np.stack([flat // 16, flat % 16], axis=1)
    obs = ObservationSet(locs, rng.standard_normal(6), 0.01)
    post = fit_posterior(table, obs)
    mean_dense, cov_dense = dense_condition(table, obs.locations, obs.values, 0.01)
    worst_post = max(
        float(np.max(np.abs(post.mean_field.values.ravel() - mean_dense))),
        float(np.max(np.abs(post.variance_field.values.ravel() - np.diag(cov_dense)))),
    )
    ok = ok and worst_post < 1e-8

    ev_dense = 0.25 * float(np.sum(cov_dense**2)) / 16**4
    ev_err = abs(energy_variance(post) - ev_dense) / ev_dense
    ok = ok and ev_err < 1e-8

    candidates = [(a, b) for a in range(0, 16, 2) for b in range(0, 16, 2)]
    fast = greedy_sensor_placement(table, obs, candidates, 5)
    refit = refit_greedy(table, obs, candidates, 5)
    oracle_greedy = dense_greedy(table, obs.locations, 0.01, candidates, 5)
    ok = ok and fast == refit == oracle_greedy

    detail = (
        f"table rel err {worst_table:.2e}; posterior err {worst_post:.2e}; "
        f"energy-variance rel err {ev_err:.2e}; greedy sets equal: "
        f"{fast == refit == oracle_greedy}"
    )
    _report(3, "oracle-equivalence", ok, detail)


def test_criterion_04_sampling_covariance():
    grid = GridSpec(16)
    spec = KernelSpec.cht(1.5)
    density = spectral_density(spec, grid)
    table = build_kernel_table(spec, grid)
    samples = 10_000
    draws = np.empty((samples, 256))
    for s in range(samples):
        draws[s] = sample_gaussian_field(density, derive_seed(2718, s)).values.ravel()
    emp_cov = draws.T @ draws / samples
    emp_mean = draws.mean(axis=0)

    idx = np.arange(256)
    aa, bb = idx // 16, idx % 16
    cov_true = table.values[(aa[:, None] - aa[None, :]) % 16, (bb[:, None] - bb[None, :]) % 16]
    diag = np.diag(cov_true)
    stderr_cov = np.sqrt((np.outer(diag, diag) + cov_true**2) / samples)
    cov_violations = int(np.sum(np.abs(emp_cov - cov_true) > 5.0 * stderr_cov))
    mean_violations = int(np.sum(np.abs(emp_mean) > 5.0 * np.sqrt(diag / samples)))
    ok = cov_violations == 0 and mean_violations == 0
    _report(
        4,
        "sampling-covariance",
        ok,
        f"{cov_violations} covariance and {mean_violations} mean entries "
        f"outside 5 MC standard errors over {samples} samples",
    )


def test_criterion_05_gaussian_truth_comparison():
    base = TrialConfig(
        grid_n=128,
        alpha_true=1.5,
        kernel_candidates=(KernelSpec.cht(1.5), KernelSpec.rbf(None)),
        m=100,
        noise_ratio=0.1,
        master_seed=MASTER,
    )
    results = run_comparison(base, 20, jobs=4)
    imps = np.array([r.improvement_pct for r in results])
    win_rate = float(np.mean(imps > 0))
    ok = imps.mean() > 0 and win_rate >= 0.55
    _report(
        5,
        "gaussian-truth-comparison",
        ok,
        f"mean improvement {imps.mean():+.2f}% +- {imps.std(ddof=1):.2f}, "
        f"win rate {win_rate:.2f} over 20 seeds",
    )


def test_criterion_06_density_scaling():
    base = TrialConfig(
        grid_n=128,
        alpha_true=1.5,
        kernel_candidates=(KernelSpec.cht(1.5), KernelSpec.rbf(None)),
        m=100,
        noise_ratio=0.1,
        master_seed=MASTER,
    )
    sweep = sweep_density(base, [20, 60, 150], 20, jobs=4)
    first, last = sweep.points[0], sweep.points[-1]
    ok = last.mean_improvement > first.mean_improvement
    _report(
        6,
        "density-scaling",
        ok,
        f"mean improvement {first.mean_improvement:+.2f}% at m=20 vs "
        f"{last.mean_improvement:+.2f}% at m=150",
    )


def test_criterion_07_alpha_shift():
    base = TrialConfig(
        grid_n=128,
        alpha_true=1.5,
        kernel_candidates=(KernelSpec.cht(1.5), KernelSpec.rbf(None)),
        m=100,
        noise_ratio=0.1,
        master_seed=MASTER,
    )
    sweep = sweep_alpha(base, [0.75, 1.0, 1.25, 1.5], 20, jobs=4)
    means = {p.axis_value: p.mean_improvement for p in sweep.points}
    best_alpha = max(means, key=means.get)
    ok = all(v > 0 for v in means.values()) and best_alpha <= 1.5
    _report(
        7,
        "alpha-shift",
        ok,
        "mean improvements "
        + ", ".join(f"a={a:g}: {v:+.2f}%" for a, v in means.items())
        + f"; argmax at alpha={best_alpha:g}",
    )


def test_criterion_08_vortex_benchmark():
    base = TrialConfig(
        grid_n=128,
        alpha_true=1.5,
        kernel_candidates=(KernelSpec.cht(1.25), KernelSpec.rbf(None)),
        m=60,
        noise_ratio=0.08,
        master_seed=77,
        truth_kind=TRUTH_VORTEX,
    )
    results = run_comparison(base, 20, jobs=4)
    eps_cht = np.array([r.per_kernel["cht_a1.25"].eps for r in results])
    eps_rbf = np.array([r.per_kernel["rbf_tuned"].eps for r in results])
    win_rate = float(np.mean(eps_cht < eps_rbf))
    ok = eps_cht.mean() < eps_rbf.mean() and win_rate >= 0.5
    _report(
        8,
        "vortex-benchmark",
        ok,
        f"mean eps {eps_cht.mean():.4f} (power-law) vs {eps_rbf.mean():.4f} "
        f"(tuned rbf), win rate {win_rate:.2f} over 20 cases",
    )


def test_criterion_09_posterior_properties():
    grid = GridSpec(64)
    spec = KernelSpec.cht(1.5)
    density = spectral_density(spec, grid)
    table = build_kernel_table(spec, grid)

    rng = np.random.default_rng(63)
    flat = rng.choice(64 * 64, size=50, replace=False)
    locs = np.stack([flat // 64, flat % 64], axis=1)
    obs = ObservationSet(locs, rng.standard_normal(50), 0.01)
    post = fit_posterior(table, obs)
    v = post.variance_field.values
    bounds_ok = bool(np.all(v >= 0.0) and np.all(v <= spec.variance + 1e-8))

    truth = sample_gaussian_field(density, 1001)
    exact = observe(truth, 30, 0.0, 1002)
    tiny = ObservationSet(exact.locations, exact.values, 1e-10)
    post_tiny = fit_posterior(table, tiny)
    resid = post_tiny.mean_field.values[tiny.locations[:, 0], tiny.locations[:, 1]]
    interp_err = float(np.max(np.abs(resid - tiny.values)))
    interp_ok = interp_err < 1e-6

    perm = np.random.default_rng(1).permutation(50)
    post_perm = fit_posterior(table, ObservationSet(locs[perm], obs.values[perm], 0.01))
    perm_err = max(
        float(np.max(np.abs(post.mean_field.values - post_perm.mean_field.values))),
        float(np.max(np.abs(post.variance_field.values - post_perm.variance_field.values))),
    )
    perm_ok = perm_err < 1e-12

    z = 1.959963984540054
    inside = total = 0
    for t in range(20):
        truth_t = sample_gaussian_field(density, derive_seed(314, t, 0))
        obs_t = observe(truth_t, 60, 0.1, derive_seed(314, t, 1))
        post_t = fit_posterior(table, obs_t)
        half = z * np.sqrt(np.maximum(post_t.variance_field.values, 0.0))
        inside += int(np.sum(np.abs(truth_t.values - post_t.mean_field.values) <= half))
        total += 64 * 64
    coverage = inside / total
    coverage_ok = 0.90 <= coverage <= 0.99

    ok = bounds_ok and interp_ok and perm_ok and coverage_ok
    _report(
        9,
        "posterior-properties",
        ok,
        f"bounds {bounds_ok}; interpolation err {interp_err:.2e}; permutation "
        f"err {perm_err:.2e}; 95% coverage {coverage:.4f}",
    )


def test_criterion_10_biot_savart():
    grid = GridSpec(64)
    density = spectral_density(KernelSpec.cht(1.5), grid)
    fx, fy = grid.frequency_grids()
    max_div = 0.0
    max_curl_err = 0.0
    for s in range(10):
        field = sample_gaussian_field(density, derive_seed(404, s))
        w_hat = to_spectral(field)
        u1_hat, u2_hat = biot_savart_spectral(w_hat)
        div = fx * u1_hat.coeffs + fy * u2_hat.coeffs
        max_div = max(max_div, float(np.max(np.abs(div))))
        u1, u2 = to_physical(u1_hat), to_physical(u2_hat)
        back = curl(u1, u2)
        max_curl_err = max(
            max_curl_err,
            float(np.max(np.abs(back.values - field.values))) / field.rms(),
        )
    ok = max_div == 0.0 and max_curl_err < 1e-10
    _report(
        10,
        "biot-savart",
        ok,
        f"max spectral divergence {max_div:.1e} (exact zero required); "
        f"max curl round-trip rel err {max_curl_err:.2e}",
    )


def test_criterion_11_admissibility_gate():
    from fractions import Fraction

    mismatches = []
    for gtxt in ("1", "0.9", "0.8", "0.7"):
        for atxt in ("0.5", "1.1", "1.3", "2.5"):
            g, a = Fraction(gtxt), Fraction(atxt)
            expected = (a > 0) if g == 1 else (a > 2 - g)
            got = check_admissible(float(atxt), float(gtxt))
            if got != expected:
                mismatches.append((gtxt, atxt, expected, got))
    ok = not mismatches
    _report(
        11,
        "admissibility-gate",
        ok,
        "16/16 closed-form entries match" if ok else f"mismatches: {mismatches}",
    )


def test_criterion_12_cli_determinism(tmp_path):
    runs = []
    for tag in ("a", "b"):
        root = tmp_path / tag
        assert cli_main(["sample", "--n", "64", "--alpha", "1.5", "--seed", "7",
                         "--out", str(root / "sample")]) == 0
        assert cli_main(["compare", "--truth", "gaussian", "--n", "32", "--m", "30",
                         "--noise", "0.1", "--trials", "3", "--seed", "5",
                         "--jobs", "2", "--out", str(root / "compare")]) == 0
        assert cli_main(["validate-spectrum", "--alphas", "1.5", "--n", "64",
                         "--seeds", "3", "--seed", "9",
                         "--out", str(root / "spectrum")]) == 0
        runs.append(root)
    compared = []
    identical = True
    for rel in (
        "sample/field.bin",
        "sample/field.json",
        "sample/spectrum.csv",
        "compare/trials.csv",
        "compare/summary.json",
        "spectrum/exponents.csv",
    ):
        same = (runs[0] / rel).read_bytes() == (runs[1] / rel).read_bytes()
        compared.append((rel, same))
        identical = identical and same
    detail = "byte-identical: " + ", ".join(
        f"{rel} {'yes' if same else 'NO'}" for rel, same in compared
    )
    _report(12, "cli-determinism", identical, detail)
