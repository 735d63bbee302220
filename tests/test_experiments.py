"""Truth generators, observation model, trials, sweeps, and aggregation."""

import gc
import sys
import threading
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kurtosis

from turbogp import (
    GridSpec,
    KernelSpec,
    ObservationSet,
    TrialConfig,
    generate_cht_truth,
    generate_vortex_truth,
    observe,
    run_comparison,
    run_trial,
    spectral_validation,
    sweep_alpha,
    sweep_density,
)
from turbogp import experiments, gp_inference, kernels
from turbogp.experiments import (
    RBF_LENGTH_SCALES,
    TRUTH_GAUSSIAN,
    TRUTH_VORTEX,
    SweepResult,
    Trial,
    aggregate_point,
    derive_seed,
    generate_truth,
    vortex_superposition,
)


class TestSeedDerivation:
    def test_deterministic_and_path_sensitive(self):
        assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
        assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)
        assert derive_seed(7, 0) != derive_seed(8, 0)


class TestGaussianTruth:
    def test_unit_variance(self, grid64):
        field = generate_cht_truth(1.5, grid64, 3)
        assert np.mean(field.values**2) == pytest.approx(1.0, abs=1e-12)

    def test_distinct_seeds_differ(self, grid64):
        a = generate_cht_truth(1.5, grid64, 1)
        b = generate_cht_truth(1.5, grid64, 2)
        assert np.max(np.abs(a.values - b.values)) > 0.1

    def test_spectrum_exponent(self):
        from turbogp import fit_power_law, radial_spectrum

        grid = GridSpec(128)
        field = generate_cht_truth(1.5, grid, 11)
        fit = fit_power_law(radial_spectrum(field), 4, 32, use_sum=True)
        assert fit.exponent == pytest.approx(-4.0, abs=0.4)


class TestVortexTruth:
    def test_single_vortex_peaks_near_center(self, grid64, monkeypatch):
        monkeypatch.setattr(experiments, "VORTEX_COUNT", 1)
        monkeypatch.setattr(experiments, "VORTEX_AMPLITUDE_RANGE", (1.0, 1.0))
        monkeypatch.setattr(experiments, "VORTEX_SIGN_BALANCE", 1.0)
        seed = 21
        raw = vortex_superposition(grid64, seed)
        # reproduce the center draw to locate the blob
        rng = np.random.default_rng(seed)
        center = rng.uniform(0.0, 2 * np.pi, size=2)
        nearest = tuple(
            int(np.argmin(np.abs(grid64.coordinates() - c) % (2 * np.pi)))
            for c in center
        )
        peak = np.unravel_index(np.argmax(raw), raw.shape)
        dist = [
            min(abs(peak[i] - nearest[i]), 64 - abs(peak[i] - nearest[i]))
            for i in (0, 1)
        ]
        assert max(dist) <= 1

    def test_mean_zero_unit_variance(self, grid64):
        field = generate_vortex_truth(grid64, 5)
        assert abs(field.values.mean()) < 1e-12
        assert np.mean(field.values**2) == pytest.approx(1.0, abs=1e-12)

    def test_non_gaussian_witness(self):
        grid = GridSpec(128)
        excess = [
            kurtosis(generate_vortex_truth(grid, s).values.ravel())
            for s in range(20)
        ]
        assert np.mean(excess) > 0.5


class TestObserve:
    def test_noiseless_values_exact(self, grid64):
        truth = generate_cht_truth(1.5, grid64, 1)
        obs = observe(truth, 25, 0.0, 2)
        sampled = truth.values[obs.locations[:, 0], obs.locations[:, 1]]
        assert np.array_equal(obs.values, sampled)
        assert obs.noise_variance == 0.0

    def test_locations_distinct(self, grid64):
        obs = observe(generate_cht_truth(1.5, grid64, 1), 200, 0.1, 3)
        linear = obs.locations[:, 0] * 64 + obs.locations[:, 1]
        assert len(np.unique(linear)) == 200

    @pytest.mark.parametrize("ratio,expected", [(0.1, 0.01), (0.08, 0.0064)])
    def test_noise_variance_from_ratio(self, grid64, ratio, expected):
        truth = generate_cht_truth(1.5, grid64, 1)  # unit variance, so RMS = 1
        obs = observe(truth, 10, ratio, 4)
        assert obs.noise_variance == pytest.approx(expected, rel=1e-12)

    def test_m_bounds(self, grid64):
        truth = generate_cht_truth(1.5, grid64, 1)
        with pytest.raises(ValueError):
            observe(truth, 0, 0.1, 1)
        with pytest.raises(ValueError):
            observe(truth, 64 * 64 + 1, 0.1, 1)

    @pytest.mark.parametrize("ratio", [-0.1, float("nan"), float("inf")])
    def test_bad_noise_ratio_rejected(self, grid64, ratio):
        # a negative ratio used to draw noiseless values but record (0.1 rms)^2
        with pytest.raises(ValueError, match="noise_ratio"):
            observe(generate_cht_truth(1.5, grid64, 1), 10, ratio, 4)


class TestGenerateTruth:
    def test_dispatches_on_kind(self, grid64):
        assert np.array_equal(generate_truth(TRUTH_GAUSSIAN, 1.5, grid64, 7).values,
                              generate_cht_truth(1.5, grid64, 7).values)
        assert np.array_equal(generate_truth(TRUTH_VORTEX, 1.5, grid64, 7).values,
                              generate_vortex_truth(grid64, 7).values)

    def test_unknown_kind_rejected(self, grid64):
        with pytest.raises(ValueError, match="truth kind"):
            generate_truth("gaussian_cht", 1.5, grid64, 7)


class TestRunTrial:
    def test_exhaustive_noiseless_interpolation(self):
        config = TrialConfig(
            grid_n=16,
            alpha_true=1.5,
            kernel_candidates=(KernelSpec.cht(1.5),),
            m=256,
            noise_ratio=0.0,
            master_seed=5,
        )
        result = run_trial(config)
        assert result.per_kernel["cht_a1.5"].eps < 1e-6
        assert result.improvement_pct is None

    def test_deterministic(self):
        config = TrialConfig(
            grid_n=32,
            alpha_true=1.5,
            kernel_candidates=(KernelSpec.cht(1.5), KernelSpec.rbf(None)),
            m=40,
            noise_ratio=0.1,
            master_seed=6,
        )
        assert run_trial(config) == run_trial(config)

    def test_metric_consistency_and_improvement(self):
        config = TrialConfig(
            grid_n=32,
            alpha_true=1.5,
            kernel_candidates=(KernelSpec.cht(1.5), KernelSpec.rbf(0.3)),
            m=40,
            noise_ratio=0.1,
            master_seed=7,
        )
        result = run_trial(config)
        truth = generate_cht_truth(1.5, GridSpec(32), derive_seed(7, 0))
        sigma = float(np.std(truth.values))
        for score in result.per_kernel.values():
            assert score.eps == pytest.approx(score.rmse / sigma, rel=1e-12)
        eps_c = result.per_kernel["cht_a1.5"].eps
        eps_r = result.per_kernel["rbf_l0.3"].eps
        expected = 100.0 * (eps_r - eps_c) / eps_r
        assert result.improvement_pct == pytest.approx(expected, rel=1e-12)
        assert result.winner == min(
            result.per_kernel, key=lambda tag: result.per_kernel[tag].eps
        )

    def test_seed_isolation(self):
        base = dict(
            grid_n=32,
            alpha_true=1.5,
            kernel_candidates=(KernelSpec.cht(1.5),),
            m=40,
            noise_ratio=0.1,
        )
        a = run_trial(TrialConfig(master_seed=1, **base))
        b = run_trial(TrialConfig(master_seed=2, **base))
        assert a.per_kernel["cht_a1.5"].eps != b.per_kernel["cht_a1.5"].eps

    def test_baseline_tuning_resolves_length_scale(self):
        config = TrialConfig(
            grid_n=32,
            alpha_true=1.5,
            kernel_candidates=(KernelSpec.cht(1.5), KernelSpec.rbf(None)),
            m=60,
            noise_ratio=0.1,
            master_seed=8,
        )
        result = run_trial(config)
        resolved = result.per_kernel["rbf_tuned"].resolved_tag
        assert resolved.startswith("rbf_l")
        ell = float(resolved.split("_l")[1])
        assert ell in [pytest.approx(s) for s in RBF_LENGTH_SCALES]

    @pytest.mark.parametrize("sweep", [False, True])
    def test_each_posterior_is_released_before_the_next_fit(self, monkeypatch, sweep):
        # run_trial used to keep the previous candidate's posterior (factor and
        # mean field) alive through the next candidate's evidence scan and fit
        fit = experiments.fit_posterior
        fitted = []

        def recording_fit(*args, **kwargs):
            gc.collect()
            assert all(ref() is None for ref in fitted)
            post = fit(*args, **kwargs)
            fitted.append(weakref.ref(post))
            return post

        monkeypatch.setattr(experiments, "fit_posterior", recording_fit)
        config = TrialConfig(
            grid_n=16,
            alpha_true=1.5,
            kernel_candidates=(KernelSpec.cht(1.5), KernelSpec.rbf(None), KernelSpec.rbf(0.3)),
            m=12,
            noise_ratio=0.1,
            master_seed=4,
        )
        if sweep:
            sweep_alpha(config, [1.0, 1.5], trials=1)  # two baseline fits, one per alpha
        else:
            run_trial(config)
        assert len(fitted) == (4 if sweep else 3)

    def test_explicit_truth_must_match_the_grid(self):
        config = TrialConfig(
            grid_n=16,
            alpha_true=1.5,
            kernel_candidates=(KernelSpec.cht(1.5),),
            m=12,
            noise_ratio=0.1,
            master_seed=4,
        )
        truth = generate_cht_truth(1.5, GridSpec(32), 1)
        with pytest.raises(ValueError, match="does not match"):
            Trial.draw(config, truth)
        trial = Trial.draw(replace(config, grid_n=32), truth)
        assert trial.truth is truth and trial.obs.m == 12


class TestSweeps:
    def _base(self, **overrides):
        values = dict(
            grid_n=32,
            alpha_true=1.5,
            kernel_candidates=(KernelSpec.cht(1.5), KernelSpec.rbf(None)),
            m=40,
            noise_ratio=0.1,
            master_seed=9,
        )
        values.update(overrides)
        return TrialConfig(**values)

    def test_single_point_alpha_sweep_matches_run_trial(self):
        sweep = sweep_alpha(self._base(), [1.5], trials=3)
        assert len(sweep.points) == 1
        point = sweep.points[0]
        assert point.trial_count == 3
        assert 0.0 <= point.win_rate <= 1.0

    def test_alpha_sweep_shares_truths_across_points(self):
        sweep = sweep_alpha(self._base(), [1.5, 1.5], trials=2)
        first, second = sweep.points
        assert first.mean_improvement == second.mean_improvement

    def test_density_sweep_bookkeeping(self):
        sweep = sweep_density(self._base(), [10, 20], trials=3)
        assert [p.axis_value for p in sweep.points] == [10.0, 20.0]
        for point in sweep.points:
            assert point.trial_count == 3
            assert 0.0 <= point.win_rate <= 1.0

    @pytest.mark.parametrize("candidate,missing", [
        (KernelSpec.cht(1.5), "baseline"), (KernelSpec.rbf(0.5), "power-law"),
    ])
    def test_aggregate_names_the_missing_candidate(self, candidate, missing):
        # used to raise TypeError comparing the absent improvement with 0
        results = run_comparison(self._base(grid_n=16, m=10, kernel_candidates=(candidate,)), 2)
        with pytest.raises(ValueError, match=f"no {missing} candidate"):
            aggregate_point(1.5, results)

    def test_comparison_is_ordered_and_deterministic(self):
        results_serial = run_comparison(self._base(), 4, jobs=1)
        results_parallel = run_comparison(self._base(), 4, jobs=4)
        assert results_serial == results_parallel

    def test_observation_count_beyond_the_grid_rejected(self):
        self._base(grid_n=8, m=64)
        with pytest.raises(ValueError, match=r"m must lie in \[1, 64\]"):
            self._base(grid_n=8, m=65)
        with pytest.raises(ValueError, match="m must lie"):
            self._base(m=0)

    @pytest.mark.parametrize("ratio", [float("nan"), float("inf")])
    def test_non_finite_noise_ratio_rejected(self, ratio):
        # used to be accepted, and every trial then failed in observe
        with pytest.raises(ValueError, match="noise_ratio"):
            self._base(noise_ratio=ratio)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_alpha_sweep_equals_one_comparison_per_alpha(self, jobs):
        # the definition the sweep had before it shared each trial's draw and
        # baseline across alphas, kept here as the oracle
        base = self._base()
        alphas = [0.75, 1.5, 1.0]
        baselines = tuple(s for s in base.kernel_candidates if s.family != kernels.FAMILY_CHT)
        oracle = SweepResult(tuple(
            aggregate_point(a, run_comparison(
                replace(base, kernel_candidates=(KernelSpec.cht(a), *baselines)), 3, jobs
            ))
            for a in alphas
        ))
        assert sweep_alpha(base, alphas, 3, jobs) == oracle

    def test_alpha_sweep_draws_and_tunes_each_trial_once(self, monkeypatch):
        calls = {"generate_truth": 0, "select_hyperparameter": 0}

        def counting(name):
            original = getattr(experiments, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(experiments, name, counting(name))
        sweep_alpha(self._base(grid_n=16, m=12), [0.75, 1.0, 1.5], trials=2)
        assert calls == {"generate_truth": 2, "select_hyperparameter": 2}

    def test_alpha_sweep_builds_each_distinct_table_once(self):
        # 10 baseline scan tables and 8 power-law tables are more than the
        # table cache holds; the sweep used to rebuild them for every trial
        alphas = [0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25]
        kernels._cached_kernel_table.cache_clear()
        sweep_alpha(self._base(grid_n=16, m=12), alphas, trials=3, jobs=1)
        assert kernels._cached_kernel_table.cache_info().misses <= len(RBF_LENGTH_SCALES) + len(alphas)

    @pytest.mark.parametrize("grid_n", [15, 6])
    def test_grid_rejected_by_config(self, grid_n):
        with pytest.raises(ValueError, match="grid size must be even and >= 8"):
            self._base(grid_n=grid_n, m=4)

    def test_density_sweep_checks_every_count_before_running(self, monkeypatch):
        ran = []
        monkeypatch.setattr(experiments, "run_trial", ran.append)
        with pytest.raises(ValueError, match="m must lie"):
            sweep_density(self._base(grid_n=16), [10, 300], trials=2)
        assert ran == []

    @pytest.mark.parametrize("candidates", [
        (KernelSpec.cht(1.5),),
        (KernelSpec.rbf(None),),
    ], ids=["power_law_only", "baseline_only"])
    def test_density_sweep_needs_both_families_before_running(self, monkeypatch, candidates):
        # the improvement compares a power-law fit against a baseline fit, so
        # a config without one of them is rejected before any trial runs
        ran = []
        original = experiments.run_trial

        def counting_run_trial(config):
            ran.append(config)
            return original(config)

        monkeypatch.setattr(experiments, "run_trial", counting_run_trial)
        base = self._base(grid_n=16, m=12, kernel_candidates=candidates)
        with pytest.raises(ValueError, match="power-law and a non-power-law"):
            sweep_density(base, [12, 20], trials=3)
        assert ran == []

    def test_one_pair_index_per_trial(self, monkeypatch):
        # the evidence scan and every fit gather through the index the trial
        # built: 10 scan tables and 2 fits in a trial, and in an alpha sweep
        # the baseline's 11 and one power-law fit per alpha
        indexed = ObservationSet.indexed
        gather = kernels.PairIndex.gather
        base = self._base(grid_n=16, m=12)
        runs = [
            (lambda: run_trial(base), len(RBF_LENGTH_SCALES) + 2),
            (lambda: sweep_alpha(base, [1.0, 1.5, 2.0], trials=1), len(RBF_LENGTH_SCALES) + 4),
        ]
        for run, gathers in runs:
            built, used = [], []

            def counting_indexed(obs, n):
                built.append(n)
                return indexed(obs, n)

            def recording_gather(pairs, table):
                used.append(pairs)
                return gather(pairs, table)

            monkeypatch.setattr(ObservationSet, "indexed", counting_indexed)
            monkeypatch.setattr(kernels.PairIndex, "gather", recording_gather)
            monkeypatch.setattr(gp_inference, "gram_matrix", None)  # no unindexed gather
            run()
            assert built == [16]
            assert len(used) == gathers
            assert all(p is used[0] for p in used)

    def test_threads_filling_shared_caches_agree_with_serial(self):
        # more workers than cores race to fill the empty per-process caches
        # under a short switch interval; a lost or mixed entry changes a trial
        base = self._base(grid_n=16, m=12)
        serial = run_comparison(base, 8, jobs=1)
        caches = (
            kernels._cached_spectral_density,
            kernels._cached_kernel_table,
        )
        runs = []
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for _ in range(3):
                for cache in caches:
                    cache.cache_clear()
                runs.append(run_comparison(base, 8, jobs=8))
        finally:
            sys.setswitchinterval(interval)
        assert all(parallel == serial for parallel in runs)


class TestRunPool:
    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_keeps_item_order_and_bounds_tasks_at_once(self, jobs):
        lock = threading.Lock()
        running, most, threads = [0], [0], set()

        def task(i):
            with lock:
                running[0] += 1
                most[0] = max(most[0], running[0])
                threads.add(threading.get_ident())
            time.sleep(0.001 * (7 * i % 5))  # later items often finish first
            with lock:
                running[0] -= 1
            return i * i

        assert experiments._run_pool(task, range(20), jobs) == [i * i for i in range(20)]
        assert most[0] <= jobs
        if jobs == 1:
            assert threads == {threading.get_ident()}

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_a_failing_task_cancels_the_queued_ones(self, jobs):
        # item 0 raises while items 1..jobs-1 run; its worker may take item
        # jobs before the caller cancels, and no later item starts
        lock = threading.Lock()
        started = []

        def task(i):
            with lock:
                started.append(i)
            if i == 0:
                raise RuntimeError("item 0")
            time.sleep(0.2)
            return i

        baseline = threading.active_count()
        raised = []

        def run():
            try:
                experiments._run_pool(task, range(40), jobs)
            except RuntimeError as exc:
                raised.append(exc)

        caller = threading.Thread(target=run)
        caller.start()
        caller.join(timeout=30)
        assert not caller.is_alive()
        assert [str(exc) for exc in raised] == ["item 0"]
        assert set(range(jobs)) <= set(started) <= set(range(jobs + 1))
        assert threading.active_count() == baseline


class TestSpectralValidation:
    def test_requires_inputs(self, grid64):
        with pytest.raises(ValueError):
            spectral_validation([], grid64, 2)
        with pytest.raises(ValueError):
            spectral_validation([1.5], grid64, 0)

    def test_exponents_close_to_theory(self):
        grid = GridSpec(64)
        results = spectral_validation([1.5], grid, 5, master_seed=1)
        res = results[0]
        assert res.shell_sum_fit.exponent == pytest.approx(-4.0, abs=0.5)
        assert res.mode_avg_fit.exponent == pytest.approx(-5.0, abs=0.5)


class TestVortexBenchmarkDirection:
    def test_power_law_beats_tuned_rbf_on_vortex_fields(self):
        base = TrialConfig(
            grid_n=128,
            alpha_true=1.5,
            kernel_candidates=(KernelSpec.cht(1.25), KernelSpec.rbf(None)),
            m=60,
            noise_ratio=0.08,
            master_seed=77,
            truth_kind=TRUTH_VORTEX,
        )
        results = run_comparison(base, 10, jobs=2)
        eps_c = np.array([r.per_kernel["cht_a1.25"].eps for r in results])
        eps_r = np.array([r.per_kernel["rbf_tuned"].eps for r in results])
        assert eps_c.mean() < eps_r.mean()
