"""Posterior fields vs dense conditioning, evidence, credible band coverage,
energy variance, and greedy placement."""

import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    dense_condition, dense_greedy, dense_prior_covariance, refit_greedy, variance_at,
)
from turbogp import (
    FactorizationError,
    GridSpec,
    KernelSpec,
    KernelTable,
    ObservationSet,
    build_kernel_table,
    energy_variance,
    fit_posterior,
    gram_matrix,
    greedy_sensor_placement,
    log_marginal_likelihood,
    normal_quantile,
    select_hyperparameter,
    spectral_density,
)
from turbogp import gp_inference
from turbogp.experiments import derive_seed, generate_cht_truth, observe


def _random_obs(grid, m, seed, noise_variance=0.01):
    rng = np.random.default_rng(seed)
    flat = rng.choice(grid.n * grid.n, size=m, replace=False)
    locs = np.stack([flat // grid.n, flat % grid.n], axis=1)
    values = rng.standard_normal(m)
    return ObservationSet(locations=locs, values=values, noise_variance=noise_variance)


class TestObservationSet:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ObservationSet(np.array([[0, 0]]), np.array([1.0, 2.0]), 0.1)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            ObservationSet(np.array([[0, 0]]), np.array([1.0]), -0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ObservationSet(np.array([[0, 0], [1, 1]]), np.array([1.0, bad]), 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_noise_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ObservationSet(np.array([[0, 0]]), np.array([1.0]), bad)

    @pytest.mark.parametrize("bad", [1.7, np.nan, np.inf])
    def test_fractional_location_rejected(self, bad):
        # [[1.7, 2]] used to become [[1, 2]]
        with pytest.raises(ValueError, match="integral"):
            ObservationSet(np.array([[bad, 2.0]]), np.array([1.0]), 0.1)

    def test_integral_float_location_accepted(self):
        obs = ObservationSet(np.array([[1.0, 2.0]]), np.array([1.0]), 0.1)
        assert obs.locations.dtype == np.int64
        assert obs.locations.tolist() == [[1, 2]]


@pytest.mark.parametrize("bad", [1.5, np.nan, np.inf])
@pytest.mark.parametrize("use", ["candidate", "gram"])
def test_fractional_grid_point_rejected(cht_table16, use, bad):
    # a candidate or Gram location (1.5, 2) used to be truncated to (1, 2),
    # where an observation location is rejected
    points = [(bad, 2.0), (5.0, 5.0)]
    with pytest.raises(ValueError, match="integral"):
        if use == "candidate":
            empty = ObservationSet(np.zeros((0, 2), dtype=int), np.zeros(0), 0.01)
            greedy_sensor_placement(cht_table16, empty, points, 1)
        else:
            gram_matrix(cht_table16, points)


@pytest.mark.parametrize("shape", [(2, 3), (2, 1, 2)])
@pytest.mark.parametrize("use", ["observation", "candidate"])
def test_malformed_location_array_rejected(cht_table16, use, shape):
    # a (2, 3) array used to be read as the points (1, 2), (3, 4), (5, 6)
    points = np.arange(1, 1 + math.prod(shape)).reshape(shape)
    with pytest.raises(ValueError, match=r"\(m, 2\) array"):
        if use == "observation":
            ObservationSet(points, np.zeros(points.size // 2), 0.1)
        else:
            empty = ObservationSet(np.zeros((0, 2), dtype=int), np.zeros(0), 0.01)
            greedy_sensor_placement(cht_table16, empty, points, 1)


@pytest.mark.parametrize("use", ["observation", "gram"])
def test_boolean_location_array_rejected(cht_table16, use):
    # a boolean array used to be cast to 0/1 indices: [[True, False],
    # [False, True]] observed (1, 0) and (0, 1), and [[True, True]] gave the
    # 1 x 1 Gram of (1, 1)
    with pytest.raises(ValueError, match="integral"):
        if use == "observation":
            ObservationSet(np.array([[True, False], [False, True]]), np.zeros(2), 0.1)
        else:
            gram_matrix(cht_table16, np.array([[True, True]]))


class TestFitPosterior:
    def test_empty_observations_recover_prior(self, cht_table16):
        obs = ObservationSet(np.zeros((0, 2), dtype=int), np.zeros(0), 0.0)
        post = fit_posterior(cht_table16, obs)
        assert np.all(post.mean_field.values == 0)
        assert np.all(post.variance_field.values == cht_table16.spec.variance)

    def test_single_noiseless_observation_interpolates(self, cht_table16):
        obs = ObservationSet(np.array([[5, 7]]), np.array([0.8]), 0.0)
        post = fit_posterior(cht_table16, obs)
        assert post.mean_field.values[5, 7] == pytest.approx(0.8, abs=1e-8)
        assert post.variance_field.values[5, 7] == pytest.approx(0.0, abs=1e-7)

    def test_matches_dense_conditioning(self, cht_table16):
        obs = _random_obs(cht_table16.grid, 3, seed=5)
        post = fit_posterior(cht_table16, obs)
        mean, cov = dense_condition(
            cht_table16, obs.locations, obs.values, obs.noise_variance
        )
        assert np.max(np.abs(post.mean_field.values.ravel() - mean)) < 1e-8
        assert np.max(np.abs(post.variance_field.values.ravel() - np.diag(cov))) < 1e-8

    def test_variance_bounds(self, cht_table16):
        obs = _random_obs(cht_table16.grid, 40, seed=6)
        post = fit_posterior(cht_table16, obs)
        v = post.variance_field.values
        assert np.all(v >= 0.0)
        assert np.all(v <= cht_table16.spec.variance + 1e-8)

    def test_noiseless_interpolation_limit(self):
        grid = GridSpec(32)
        table = build_kernel_table(KernelSpec.cht(1.5), grid)
        truth = generate_cht_truth(1.5, grid, 77)
        obs = observe(truth, 20, 0.0, 78)
        obs = ObservationSet(obs.locations, obs.values, 1e-10)
        post = fit_posterior(table, obs)
        residual = post.mean_field.values[obs.locations[:, 0], obs.locations[:, 1]]
        assert np.max(np.abs(residual - obs.values)) < 1e-6

    def test_permutation_invariance(self, cht_table16):
        obs = _random_obs(cht_table16.grid, 12, seed=8)
        post = fit_posterior(cht_table16, obs)
        perm = np.random.default_rng(0).permutation(12)
        shuffled = ObservationSet(
            obs.locations[perm], obs.values[perm], obs.noise_variance
        )
        post2 = fit_posterior(cht_table16, shuffled)
        assert np.max(np.abs(post.mean_field.values - post2.mean_field.values)) < 1e-12
        assert (
            np.max(np.abs(post.variance_field.values - post2.variance_field.values))
            < 1e-12
        )

    @given(
        spec=st.one_of(
            st.builds(KernelSpec.cht, st.floats(0.25, 3.0)),
            st.builds(KernelSpec.rbf, st.floats(0.05, 2.0)),
            st.builds(KernelSpec.matern, st.floats(0.5, 3.0), st.floats(0.05, 2.0)),
        ),
        m=st.integers(0, 20),
        coincident=st.integers(0, 4),
        noise=st.sampled_from([0.0, 0.05]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_indexed_fit_is_bit_identical(self, spec, m, coincident, noise, seed):
        # a set's own pair index changes how its Gram matrix is gathered, not
        # one bit of the fit; noiseless coincident points take the jitter ladder
        table = build_kernel_table(spec, GridSpec(16))
        rng = np.random.default_rng(seed)
        locs = rng.integers(0, 16, size=(m, 2))
        if m:
            locs = np.concatenate([locs, locs[rng.integers(0, m, size=coincident)]])
        obs = ObservationSet(locs, rng.standard_normal(len(locs)), noise)
        indexed = obs.indexed(16)
        try:
            plain = fit_posterior(table, obs)
        except FactorizationError:
            with pytest.raises(FactorizationError):
                fit_posterior(table, indexed)
            return
        fitted = fit_posterior(table, indexed)
        assert fitted.jitter == plain.jitter
        assert np.array_equal(fitted.mean_field.values, plain.mean_field.values)
        assert np.array_equal(fitted.variance_field.values, plain.variance_field.values)
        assert log_marginal_likelihood(table, indexed) == log_marginal_likelihood(table, obs)


def _lazy_case(name):
    # (locations, values, noise variance) for the FFT-vs-dense comparison
    rng = np.random.default_rng(31)
    if name == "empty":
        return np.zeros((0, 2), dtype=int), np.zeros(0), 0.01
    if name == "random":
        obs = _random_obs(GridSpec(16), 21, seed=32)
        return obs.locations, obs.values, obs.noise_variance
    if name == "duplicates":
        locs = np.array([[1, 2], [5, 5], [1, 2], [9, 3], [5, 5], [15, 0]])
        return locs, rng.standard_normal(6), 0.05
    # noiseless coincident observations make the Gram matrix singular
    return np.array([[1, 2], [5, 5], [1, 2], [12, 7]]), np.array([0.3, -1.0, 0.3, 0.6]), 0.0


class TestLazyPosterior:
    @pytest.mark.parametrize("case", ["empty", "random", "duplicates", "jittered"])
    def test_fft_fields_match_dense_conditioning(self, cht_table16, case):
        locs, values, noise = _lazy_case(case)
        post = fit_posterior(cht_table16, ObservationSet(locs, values, noise))
        assert (post.jitter > 0.0) == (case == "jittered")
        mean, cov = dense_condition(cht_table16, locs, values, noise + post.jitter)
        variance = np.maximum(np.diag(cov), 0.0)
        grid_points = [(a, b) for a in range(16) for b in range(16)]
        assert np.max(np.abs(post.mean_field.values.ravel() - mean)) <= 1e-12
        assert np.max(np.abs(post.variance_field.values.ravel() - variance)) <= 1e-12
        assert np.max(np.abs(variance_at(post, grid_points) - variance)) <= 1e-12

    @given(
        m=st.integers(0, 10),
        seed=st.integers(0, 2**32 - 1),
        noise=st.floats(1e-2, 1.0),
        shift=st.tuples(st.integers(0, 15), st.integers(0, 15)),
    )
    def test_periodic_shift_equivariance(self, m, seed, noise, shift):
        # rolling every observation by a grid offset rolls both fields by it
        table = build_kernel_table(KernelSpec.cht(1.5), GridSpec(16))
        rng = np.random.default_rng(seed)
        locs = rng.integers(0, 16, size=(m, 2))
        values = rng.uniform(-3.0, 3.0, size=m)
        post = fit_posterior(table, ObservationSet(locs, values, noise))
        moved = fit_posterior(table, ObservationSet((locs + shift) % 16, values, noise))
        for name in ("mean_field", "variance_field"):
            rolled = np.roll(getattr(post, name).values, shift, axis=(0, 1))
            assert np.max(np.abs(getattr(moved, name).values - rolled)) <= 1e-12

    @given(
        m=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
        noise=st.floats(1e-2, 1.0),
    )
    def test_permutation_invariance(self, m, seed, noise):
        # the posterior depends on the observations as a set, not on their
        # order; coincident points are allowed
        table = build_kernel_table(KernelSpec.cht(1.5), GridSpec(16))
        rng = np.random.default_rng(seed)
        locs = rng.integers(0, 16, size=(m, 2))
        values = rng.uniform(-3.0, 3.0, size=m)
        order = rng.permutation(m)
        post = fit_posterior(table, ObservationSet(locs, values, noise))
        moved = fit_posterior(table, ObservationSet(locs[order], values[order], noise))
        for name in ("mean_field", "variance_field"):
            diff = getattr(moved, name).values - getattr(post, name).values
            assert np.max(np.abs(diff)) <= 1e-12

    def test_fit_allocates_no_grid_sized_arrays(self):
        # the eager fit is O(m^2) memory; one dense m x n^2 cross-covariance
        # at this size would be 200 MiB
        grid = GridSpec(256)
        table = build_kernel_table(KernelSpec.cht(1.5), grid)
        obs = observe(generate_cht_truth(1.5, grid, 34), 400, 0.1, 35)
        tracemalloc.start()
        try:
            fit_posterior(table, obs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_unindexed_fit_holds_two_m_by_m_arrays(self):
        # the Gram matrix and its factor; the gather used to hold the whole
        # m x m offset index and its temporaries beside the Gram, 3.00 m^2
        grid = GridSpec(64)
        table = build_kernel_table(KernelSpec.cht(1.5), grid)
        m = 1500
        obs = _random_obs(grid, m, seed=56)
        fit_posterior(table, _random_obs(grid, 10, seed=57))
        tracemalloc.start()
        try:
            fit_posterior(table, obs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (m * m * 8) <= 2.1


class TestVarianceTasks:
    """The variance field as one task per row of the inverse Gram factor."""

    def test_bytes_do_not_depend_on_jobs(self):
        table = build_kernel_table(KernelSpec.cht(1.5), GridSpec(32))
        obs = _random_obs(table.grid, 60, seed=51)
        fields = [fit_posterior(table, obs, jobs=jobs).variance_field.values for jobs in (1, 2, 3)]
        assert np.array_equal(fields[0], fields[1])
        assert np.array_equal(fields[0], fields[2])

    def test_threads_on_a_cold_table_agree_with_serial(self, cht_table16):
        # more workers than cores race to fill the table's cached spectrum
        # under a short switch interval; a lost or mixed row changes the field
        obs = _random_obs(cht_table16.grid, 40, seed=53)
        serial = fit_posterior(cht_table16, obs).variance_field.values
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for _ in range(3):
                cold = KernelTable(cht_table16.grid, cht_table16.values, cht_table16.spec)
                threaded = fit_posterior(cold, obs, jobs=8).variance_field.values
                assert np.array_equal(threaded, serial)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("case", ["duplicates", "jittered"])
    def test_coincident_observations_match_dense_conditioning(self, cht_table16, case, jobs):
        # coincident rows scatter onto one grid point, where their deltas sum
        locs, values, noise = _lazy_case(case)
        post = fit_posterior(cht_table16, ObservationSet(locs, values, noise), jobs=jobs)
        _, cov = dense_condition(cht_table16, locs, values, noise + post.jitter)
        variance = np.maximum(np.diag(cov), 0.0)
        assert np.max(np.abs(post.variance_field.values.ravel() - variance)) <= 1e-12

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_memory_is_a_few_grids_whatever_m(self, jobs):
        # at most jobs + 1 rows are alive at once; the earlier loop over
        # two-row batches peaked at 11.6 grids here
        grid = GridSpec(128)
        table = build_kernel_table(KernelSpec.cht(1.5), grid)
        post = fit_posterior(table, _random_obs(grid, 200, seed=52), jobs=jobs)
        table.spectrum  # the table's own cached transform is not the field's cost
        tracemalloc.start()
        try:
            post.variance_field
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (grid.n**2 * 8) < 11

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_inverse_factor_is_never_held_whole(self, jobs):
        # the rows of L^-1 are solved a block of 32 at a time; the earlier
        # field held eye(m) and L^-1 at once, 2.02 m x m matrices here
        grid = GridSpec(16)
        table = build_kernel_table(KernelSpec.cht(1.5), grid)
        m = 300
        rng = np.random.default_rng(54)
        obs = ObservationSet(rng.integers(0, 16, size=(m, 2)), rng.standard_normal(m), 0.1)
        post = fit_posterior(table, obs, jobs=jobs)
        table.spectrum
        tracemalloc.start()
        try:
            post.variance_field
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (m * m * 8) < 0.5

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("m", [0, 1, 31, 32, 33, 100, 300])
    def test_row_blocks_match_dense_conditioning(self, cht_table16, m, jobs):
        # one block, a block boundary on either side, several blocks; every
        # set of two or more points holds a coincident pair
        rng = np.random.default_rng(55 + m)
        locs = rng.integers(0, 16, size=(m, 2))
        locs[1:2] = locs[:1]
        values = rng.standard_normal(m)
        post = fit_posterior(cht_table16, ObservationSet(locs, values, 0.05), jobs=jobs)
        _, cov = dense_condition(cht_table16, locs, values, 0.05 + post.jitter)
        variance = np.maximum(np.diag(cov), 0.0)
        assert np.max(np.abs(post.variance_field.values.ravel() - variance)) <= 1e-12

    @pytest.mark.parametrize("m,jobs", [(60, 2), (60, 3), (60, 4), (1, 3), (2, 3)])
    def test_workers_add_in_row_order(self, m, jobs):
        # more workers than cores, and more workers than rows
        table = build_kernel_table(KernelSpec.cht(1.5), GridSpec(32))
        obs = _random_obs(table.grid, m, seed=58)
        serial = fit_posterior(table, obs).variance_field.values
        threaded = fit_posterior(table, obs, jobs=jobs).variance_field.values
        assert np.array_equal(threaded, serial)

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_memory_is_one_grid_and_buffer_per_worker(self, jobs):
        # the sum, each worker's grid and transform buffer, and a block of 32
        # rows of L^-1 per worker besides the one being solved; a free list of
        # jobs + 1 squares read 7.03 and 9.09 grids here at jobs 2 and 3
        grid = GridSpec(128)
        table = build_kernel_table(KernelSpec.cht(1.5), grid)
        m = 200
        fit_posterior(table, _random_obs(grid, 10, seed=59)).variance_field  # lazy set-up
        post = fit_posterior(table, _random_obs(grid, m, seed=52), jobs=jobs)
        tracemalloc.start()
        try:
            post.variance_field
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cells = grid.n**2
        worker = cells * 8 + grid.n * (grid.n // 2 + 1) * 16
        assert peak <= cells * 8 + jobs * worker + (jobs + 1) * 32 * m * 8

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_a_failing_row_stops_every_worker(self, monkeypatch, jobs):
        lock = threading.Lock()
        calls = [0]
        convolve = gp_inference._convolve_deltas

        def failing(*args):
            with lock:
                calls[0] += 1
                sixth = calls[0] == 6
            if sixth:
                time.sleep(0.05)  # the other workers finish their rows and wait for this one
                raise RuntimeError("row 6")
            return convolve(*args)

        table = build_kernel_table(KernelSpec.cht(1.5), GridSpec(16))
        post = fit_posterior(table, _random_obs(table.grid, 40, seed=60), jobs=jobs)
        monkeypatch.setattr(gp_inference, "_convolve_deltas", failing)
        baseline = threading.active_count()
        raised = []

        def read():
            try:
                post.variance_field
            except RuntimeError as exc:
                raised.append(exc)

        reader = threading.Thread(target=read)
        reader.start()
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert [str(exc) for exc in raised] == ["row 6"]
        assert threading.active_count() == baseline

    def test_a_slow_row_holds_up_no_other_worker(self, monkeypatch):
        # the first row waits until the other worker has convolved three more
        # rows; a worker that waited to add its row after the slow one never
        # convolves them, and the wait times out
        lock = threading.Lock()
        calls = [0]
        released = threading.Event()
        waits = []
        convolve = gp_inference._convolve_deltas

        def slow_first(*args):
            with lock:
                calls[0] += 1
                call = calls[0]
            if call == 1:
                waits.append(released.wait(timeout=5))
            elif call == 4:
                released.set()
            return convolve(*args)

        table = build_kernel_table(KernelSpec.cht(1.5), GridSpec(32))
        obs = _random_obs(table.grid, 40, seed=61)
        serial = fit_posterior(table, obs).variance_field.values
        monkeypatch.setattr(gp_inference, "_convolve_deltas", slow_first)
        threaded = fit_posterior(table, obs, jobs=2).variance_field.values
        assert waits == [True]
        assert np.array_equal(threaded, serial)

    def test_rounded_squares_leave_no_mean_error(self):
        # each row's square is rounded to units of 2^-52; cast by truncation to
        # units of 2^-56 it lost about half a unit per row, and read +6.5e-16 high
        grid = GridSpec(128)
        table = build_kernel_table(KernelSpec.cht(1.5), grid)
        post = fit_posterior(table, _random_obs(grid, 100, seed=63))
        flat = post.obs.locations[:, 0] * grid.n + post.obs.locations[:, 1]
        values, buffer = np.empty((grid.n, grid.n)), gp_inference._new_buffer(grid.n)
        squares = np.zeros((grid.n, grid.n), dtype=np.longdouble)
        for row in gp_inference._inverse_rows(post.chol):
            gp_inference._convolve_deltas(table.spectrum, flat, row, values, buffer)
            squares += np.square(values.astype(np.longdouble))
        exact = np.maximum(table.spec.variance - squares, 0.0)
        error = np.mean(post.variance_field.values.astype(np.longdouble) - exact)
        assert abs(float(error)) <= 1e-16

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rounded_squares_bound_the_largest_error(self, jobs):
        # each row's rounding moves the sum by at most half a unit, 2^-53, and
        # the subtraction from sigma^2 by at most one more
        grid = GridSpec(128)
        table = build_kernel_table(KernelSpec.cht(1.5), grid)
        post = fit_posterior(table, _random_obs(grid, 100, seed=64), jobs=jobs)
        flat = post.obs.locations[:, 0] * grid.n + post.obs.locations[:, 1]
        values, buffer = np.empty((grid.n, grid.n)), gp_inference._new_buffer(grid.n)
        squares = np.zeros((grid.n, grid.n), dtype=np.longdouble)
        for row in gp_inference._inverse_rows(post.chol):
            gp_inference._convolve_deltas(table.spectrum, flat, row, values, buffer)
            squares += np.square(values.astype(np.longdouble))
        exact = np.maximum(table.spec.variance - squares, 0.0)
        error = np.abs(post.variance_field.values.astype(np.longdouble) - exact)
        assert float(error.max()) <= (post.obs.m + 1) * 2.0**-53

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_square_past_the_integer_range_raises(self, monkeypatch, jobs):
        # at 2^40 a unit is 2^-80, so a sum of 2^-27 or more is past the 2^53
        # whole units that float64 adds exactly; it must not reach the field
        table = build_kernel_table(KernelSpec.cht(1.5), GridSpec(16))
        post = fit_posterior(table, _random_obs(table.grid, 40, seed=62), jobs=jobs)
        monkeypatch.setattr(gp_inference, "_ROW_SCALE", 2.0**40)
        with pytest.raises(FactorizationError, match=r"2\^53"):
            post.variance_field


class TestLogMarginalLikelihood:
    def test_empty_set_has_zero_evidence(self, cht_table16):
        obs = ObservationSet(np.zeros((0, 2), dtype=int), np.zeros(0), 0.01)
        assert log_marginal_likelihood(cht_table16, obs) == 0.0

    def test_single_zero_observation_closed_form(self, cht_table16):
        obs = ObservationSet(np.array([[2, 2]]), np.array([0.0]), 0.04)
        lml = log_marginal_likelihood(cht_table16, obs)
        expected = -0.5 * np.log(2 * np.pi * (1.0 + 0.04))
        assert lml == pytest.approx(expected, rel=1e-12)

    def test_coincident_pair_matches_bivariate_density(self, cht_table16):
        y = np.array([0.3, 0.3])
        noise = 0.09
        obs = ObservationSet(np.array([[4, 4], [4, 4]]), y, noise)
        lml = log_marginal_likelihood(cht_table16, obs)
        sigma2 = cht_table16.spec.variance
        cov = np.full((2, 2), sigma2) + noise * np.eye(2)
        expected = (
            -0.5 * y @ np.linalg.solve(cov, y)
            - 0.5 * np.log(np.linalg.det(cov))
            - np.log(2 * np.pi)
        )
        assert np.isfinite(lml)
        assert lml == pytest.approx(expected, rel=1e-10)

    def test_prefers_matched_exponent(self):
        # matched-alpha evidence beats a badly mismatched one on most draws
        grid = GridSpec(32)
        matched = build_kernel_table(KernelSpec.cht(1.5), grid)
        rough = build_kernel_table(KernelSpec.cht(0.25), grid)
        hits = 0
        for s in range(20):
            truth = generate_cht_truth(1.5, grid, derive_seed(42, s, 0))
            obs = observe(truth, 100, 0.1, derive_seed(42, s, 1))
            hits += log_marginal_likelihood(matched, obs) >= log_marginal_likelihood(
                rough, obs
            )
        assert hits >= 16


class TestSelectHyperparameter:
    def test_single_candidate(self, grid16):
        obs = _random_obs(grid16, 5, seed=1)
        spec = KernelSpec.cht(1.5)
        assert select_hyperparameter([spec], obs, grid16) is spec

    def test_empty_candidates_rejected(self, grid16):
        with pytest.raises(ValueError):
            select_hyperparameter([], _random_obs(grid16, 5, seed=1), grid16)

    def test_a_candidate_that_fails_to_factorize_is_skipped(self, grid16, monkeypatch):
        # two equal candidates tie, and a tie keeps the first; with the first
        # one's factorization failing, the second is the only one left
        first, second = KernelSpec.cht(1.5), KernelSpec.cht(1.5)
        obs = _random_obs(grid16, 5, seed=1)
        assert select_hyperparameter([first, second], obs, grid16) is first
        factorize = gp_inference.robust_cholesky
        calls = []

        def fail_first(g):
            calls.append(len(g))
            if len(calls) == 1:
                raise FactorizationError("forced")
            return factorize(g)

        monkeypatch.setattr(gp_inference, "robust_cholesky", fail_first)
        assert select_hyperparameter([first, second], obs, grid16) is second
        assert calls == [5, 5]

    def test_every_candidate_failing_raises(self, grid16, monkeypatch):
        def fail(g):
            raise FactorizationError("forced")

        monkeypatch.setattr(gp_inference, "robust_cholesky", fail)
        candidates = [KernelSpec.cht(1.5), KernelSpec.rbf(0.5)]
        with pytest.raises(FactorizationError, match="every candidate"):
            select_hyperparameter(candidates, _random_obs(grid16, 5, seed=1), grid16)

    def test_interior_length_scale_selected(self):
        grid = GridSpec(64)
        scales = [round(0.1 * k, 1) for k in range(1, 11)]
        candidates = [KernelSpec.rbf(l) for l in scales]
        interior = 0
        for s in range(20):
            truth = generate_cht_truth(1.0, grid, derive_seed(43, s, 0))
            obs = observe(truth, 100, 0.1, derive_seed(43, s, 1))
            best = select_hyperparameter(candidates, obs, grid)
            interior += best.length_scale not in (0.1, 1.0)
        assert interior > 10

    def test_generative_spec_ranks_high(self):
        grid = GridSpec(32)
        alphas = (0.5, 1.0, 1.5, 2.0, 2.5)
        candidates = [KernelSpec.cht(a) for a in alphas]
        tables = {c.tag: build_kernel_table(c, grid) for c in candidates}
        hits = 0
        for s in range(20):
            truth = generate_cht_truth(1.5, grid, derive_seed(44, s, 0))
            obs = observe(truth, 100, 0.1, derive_seed(44, s, 1))
            lmls = [log_marginal_likelihood(tables[c.tag], obs) for c in candidates]
            order = sorted(range(len(alphas)), key=lambda i: -lmls[i])
            hits += alphas.index(1.5) in order[:2]
        assert hits >= 14


class TestCredibleInterval:
    def test_normal_quantile(self):
        assert normal_quantile(0.95) == pytest.approx(1.959963984540054, rel=1e-15)
        assert normal_quantile(0.9544997361036416) == pytest.approx(2.0, rel=1e-12)
        for level in (0.0, 1.0, float("nan")):
            with pytest.raises(ValueError):
                normal_quantile(level)

    # the band is the one reconstruct writes: mean +- z * sqrt(variance)
    def test_interval_collapses_at_tiny_level(self, cht_table16):
        post = fit_posterior(cht_table16, _random_obs(cht_table16.grid, 3, seed=2))
        half = normal_quantile(1e-12) * np.sqrt(post.variance_field.values[1, 1])
        mean = post.mean_field.values[1, 1]
        assert mean - half == pytest.approx(mean, abs=1e-6)
        assert mean + half == pytest.approx(mean, abs=1e-6)

    def test_two_sigma_level(self, cht_table16):
        obs = ObservationSet(np.zeros((0, 2), dtype=int), np.zeros(0), 0.0)
        post = fit_posterior(cht_table16, obs)  # prior: mean 0, variance 1
        half = normal_quantile(0.9544997361036416) * np.sqrt(post.variance_field.values[0, 0])
        mean = post.mean_field.values[0, 0]
        assert mean - half == pytest.approx(-2.0, abs=1e-9)
        assert mean + half == pytest.approx(2.0, abs=1e-9)

    def test_empirical_coverage_matched_kernel(self):
        from turbogp import sample_gaussian_field

        grid = GridSpec(64)
        spec = KernelSpec.cht(1.5)
        density = spectral_density(spec, grid)
        table = build_kernel_table(spec, grid)
        z = 1.959963984540054
        inside = total = 0
        for t in range(20):
            truth = sample_gaussian_field(density, derive_seed(314, t, 0))
            obs = observe(truth, 60, 0.1, derive_seed(314, t, 1))
            post = fit_posterior(table, obs)
            half = z * np.sqrt(np.maximum(post.variance_field.values, 0.0))
            inside += int(np.sum(np.abs(truth.values - post.mean_field.values) <= half))
            total += grid.n * grid.n
        coverage = inside / total
        assert 0.90 <= coverage <= 0.99


class TestEnergyVariance:
    def test_prior_value_is_quarter_sum_of_squared_density(self, grid16, cht_spec):
        table = build_kernel_table(cht_spec, grid16)
        obs = ObservationSet(np.zeros((0, 2), dtype=int), np.zeros(0), 0.0)
        post = fit_posterior(table, obs)
        density = spectral_density(cht_spec, grid16)
        assert energy_variance(post) == pytest.approx(
            0.25 * np.sum(density.grid_values**2), rel=1e-12
        )

    def test_matches_dense_trace(self, cht_table16):
        obs = _random_obs(cht_table16.grid, 3, seed=5)
        post = fit_posterior(cht_table16, obs)
        _, cov = dense_condition(
            cht_table16, obs.locations, obs.values, obs.noise_variance
        )
        n = cht_table16.grid.n
        dense_value = 0.25 * np.sum(cov**2) / n**4
        assert energy_variance(post) == pytest.approx(dense_value, rel=1e-8)

    def test_monotone_under_new_observations(self):
        grid = GridSpec(32)
        table = build_kernel_table(KernelSpec.cht(1.5), grid)
        rng = np.random.default_rng(99)
        for _ in range(20):
            flat = rng.choice(32 * 32, size=6, replace=False)
            locs = np.stack([flat // 32, flat % 32], axis=1)
            values = rng.standard_normal(6)
            small = ObservationSet(locs[:5], values[:5], 0.01)
            big = ObservationSet(locs, values, 0.01)
            ev_small = energy_variance(fit_posterior(table, small))
            ev_big = energy_variance(fit_posterior(table, big))
            assert ev_big <= ev_small + 1e-12


_PLACEMENT_SPECS = [
    KernelSpec.cht(0.75),
    KernelSpec.cht(1.5),
    KernelSpec.rbf(0.5),
    KernelSpec.rbf(1.2),
    KernelSpec.matern(1.5, 0.8),
]
_POINT = st.tuples(st.integers(0, 15), st.integers(0, 15))


class TestGreedyPlacement:
    def test_first_pick_breaks_tie_at_lowest_index(self, cht_table16):
        obs = ObservationSet(np.zeros((0, 2), dtype=int), np.zeros(0), 0.01)
        candidates = [(5, 9), (2, 3), (11, 1), (2, 1)]
        picks = greedy_sensor_placement(cht_table16, obs, candidates, 1)
        assert picks == [(2, 1)]

    def test_zero_count_rejected(self, cht_table16):
        obs = ObservationSet(np.zeros((0, 2), dtype=int), np.zeros(0), 0.01)
        with pytest.raises(ValueError, match="at least 1"):
            greedy_sensor_placement(cht_table16, obs, [(0, 0)], 0)

    def test_count_exceeding_pool_rejected(self, cht_table16):
        obs = ObservationSet(np.zeros((0, 2), dtype=int), np.zeros(0), 0.01)
        with pytest.raises(ValueError):
            greedy_sensor_placement(cht_table16, obs, [(0, 0)], 2)

    def test_boolean_candidates_must_be_the_whole_grid(self, cht_table16):
        # [[True, False], [True, True]] used to be read as the points (1, 0)
        # and (1, 1), and both were picked
        obs = ObservationSet(np.zeros((0, 2), dtype=int), np.zeros(0), 0.01)
        candidates = np.array([[True, False], [True, True]])
        with pytest.raises(ValueError, match=r"boolean candidate grid must be \(16, 16\)"):
            greedy_sensor_placement(cht_table16, obs, candidates, 2)

    def test_empty_candidate_grid_rejected(self, cht_table16):
        obs = ObservationSet(np.zeros((0, 2), dtype=int), np.zeros(0), 0.01)
        with pytest.raises(ValueError, match="count exceeds the candidate pool"):
            greedy_sensor_placement(cht_table16, obs, np.zeros((16, 16), dtype=bool), 1)

    def test_off_grid_candidate_rejected(self, cht_table16):
        obs = ObservationSet(np.zeros((0, 2), dtype=int), np.zeros(0), 0.01)
        with pytest.raises(ValueError, match="on-grid"):
            greedy_sensor_placement(cht_table16, obs, [(0, 0), (16, 3)], 1)

    def test_monotone_kernel_sends_pick_to_antipode(self, grid16):
        # hand-built table decaying with torus distance; with one sensor at
        # the origin the variance deficit shrinks with distance, so the next
        # pick lands at the farthest grid point
        x = grid16.coordinates()
        d1 = np.minimum(x, 2 * np.pi - x)
        dist_sq = d1[:, None] ** 2 + d1[None, :] ** 2
        values = np.exp(-dist_sq / (2.0 * 0.8**2))
        table = KernelTable(grid=grid16, values=values, spec=KernelSpec.rbf(0.8))
        obs = ObservationSet(np.array([[0, 0]]), np.array([0.4]), 0.01)
        candidates = [(a, b) for a in range(16) for b in range(16)]
        picks = greedy_sensor_placement(table, obs, candidates, 1)
        assert picks == [(8, 8)]
        oracle = dense_greedy(table, obs.locations, obs.noise_variance, candidates, 1)
        assert picks == oracle

    def test_fast_refit_and_dense_agree(self, cht_table16):
        obs = _random_obs(cht_table16.grid, 4, seed=21)
        candidates = [(a, b) for a in range(0, 16, 2) for b in range(0, 16, 2)]
        fast = greedy_sensor_placement(cht_table16, obs, candidates, 5)
        refit = refit_greedy(cht_table16, obs, candidates, 5)
        oracle = dense_greedy(
            cht_table16, obs.locations, obs.noise_variance, candidates, 5
        )
        assert fast == refit == oracle

    def test_analytic_tie_breaks_at_lowest_index(self, grid8):
        # after the pick at (0, 0), (0, 4) and (2, 6) have the same variance,
        # which the rank-1 update rounds apart in the last bits
        table = build_kernel_table(KernelSpec.cht(1.5), grid8)
        obs = ObservationSet(np.array([[6, 6]]), np.zeros(1), 0.01)
        candidates = [(0, 0), (0, 4), (2, 6)]
        picks = greedy_sensor_placement(table, obs, candidates, 2)
        assert picks == [(0, 0), (0, 4)]
        assert picks == refit_greedy(table, obs, candidates, 2)
        assert picks == dense_greedy(table, obs.locations, 0.01, candidates, 2)

    def test_noiseless_pick_at_an_observed_point_adds_nothing(self, grid8):
        # conditioning again on a point known exactly used to fail the rank-1
        # update's positivity check, where both oracles return picks
        table = build_kernel_table(KernelSpec.cht(1.5), grid8)
        obs = ObservationSet(np.array([[1, 1]]), np.zeros(1), 0.0)
        candidates = [(1, 1), (2, 2)]
        picks = greedy_sensor_placement(table, obs, candidates, 2)
        assert picks == [(2, 2), (1, 1)]
        assert picks == refit_greedy(table, obs, candidates, 2)
        assert picks == dense_greedy(table, obs.locations, 0.0, candidates, 2)

    def test_repeated_candidates_outnumbering_the_sublattice(self, grid8):
        # three copies of one point make a one-point sublattice, whose one
        # cell keeps two spares
        table = build_kernel_table(KernelSpec.cht(1.5), grid8)
        obs = ObservationSet(np.zeros((0, 2), dtype=np.int64), np.zeros(0), 0.01)
        candidates = [(3, 5)] * 3
        picks = greedy_sensor_placement(table, obs, candidates, 3)
        assert picks == candidates
        assert picks == refit_greedy(table, obs, candidates, 3)
        assert picks == dense_greedy(table, obs.locations, 0.01, candidates, 3)

    def test_repeated_candidates_among_distinct_ones(self, grid8):
        # four distinct points, two of them listed more than once, and more
        # picks than distinct points: a listed copy is picked again
        table = build_kernel_table(KernelSpec.cht(1.5), grid8)
        obs = ObservationSet(np.array([[6, 6]]), np.zeros(1), 0.01)
        candidates = [(3, 5), (1, 2), (3, 5), (6, 0), (1, 2), (3, 5), (0, 7)]
        picks = greedy_sensor_placement(table, obs, candidates, 6)
        assert len(set(picks)) < len(picks)
        assert picks == refit_greedy(table, obs, candidates, 6)
        assert picks == dense_greedy(table, obs.locations, 0.01, candidates, 6)

    def test_offset_lattice_listed_out_of_order(self, grid16):
        # the lattice (1, 1) + 2 Z^2 without its first row and column, listed
        # shuffled: every prior variance ties, and the first pick is the
        # lowest linear index, not the first listed candidate
        table = build_kernel_table(KernelSpec.rbf(0.5), grid16)
        obs = ObservationSet(np.zeros((0, 2), dtype=np.int64), np.zeros(0), 0.01)
        lattice = [(a, b) for a in range(3, 16, 2) for b in range(3, 16, 2)]
        order = np.random.default_rng(64).permutation(len(lattice))
        candidates = [lattice[i] for i in order]
        assert candidates[0] != (3, 3)
        picks = greedy_sensor_placement(table, obs, candidates, 4)
        assert picks[0] == (3, 3)
        assert picks == refit_greedy(table, obs, candidates, 4)
        assert picks == dense_greedy(table, obs.locations, 0.01, candidates, 4)

    @pytest.mark.parametrize("spec", [KernelSpec.cht(1.5), KernelSpec.rbf(0.5)], ids=["cht", "rbf"])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_many_observation_rows(self, grid16, spec, stride):
        # 40 rows of the observations' L^-1 lower the candidates before the
        # first pick, against at most 6 in the property test below
        table = build_kernel_table(spec, grid16)
        lattice = [(a, b) for a in range(0, 16, stride) for b in range(0, 16, stride)]
        rng = np.random.default_rng(40)
        locs = np.array(lattice)[rng.choice(len(lattice), size=40, replace=False)]
        obs = ObservationSet(locs, np.zeros(40), 1e-6)
        fast = greedy_sensor_placement(table, obs, lattice, 6)
        assert fast == refit_greedy(table, obs, lattice, 6)
        assert fast == dense_greedy(table, locs, 1e-6, lattice, 6)

    @given(
        n=st.sampled_from([8, 10, 12, 16]),
        spec=st.sampled_from(_PLACEMENT_SPECS),
        observed=st.lists(_POINT, max_size=6),
        noise=st.sampled_from([1e-4, 0.01, 0.1]),
        pool=st.lists(_POINT, min_size=1, max_size=24),
        count=st.integers(1, 4),
        stride=st.sampled_from([1, 2, 4]),
        origin=_POINT,
        observed_on_lattice=st.booleans(),
    )
    @example(
        n=8, spec=KernelSpec.cht(1.5), observed=[(6, 6)], noise=0.01,
        pool=[(0, 0), (0, 4), (2, 6)], count=2,
        stride=1, origin=(0, 0), observed_on_lattice=True,
    )
    @example(
        n=16, spec=KernelSpec.cht(1.5), observed=[(1, 3)], noise=0.01,
        pool=[(a, b) for a in range(4) for b in range(4)], count=4,
        stride=4, origin=(3, 2), observed_on_lattice=True,
    )
    @example(
        n=16, spec=KernelSpec.rbf(0.5), observed=[], noise=1e-4,
        pool=[(a, b) for a in range(8) for b in range(8)], count=4,
        stride=2, origin=(1, 0), observed_on_lattice=False,
    )
    def test_fast_matches_refit_and_dense(
        self, n, spec, observed, noise, pool, count, stride, origin, observed_on_lattice
    ):
        # points are drawn on the largest grid and mapped onto the lattice
        # origin + stride Z^2 of this one; the pool lies on it, and so do the
        # observations or, off it, one more observation next to the origin
        # makes the greedy sublattice the whole grid
        def on_lattice(points):
            return [((origin[0] + stride * a) % n, (origin[1] + stride * b) % n) for a, b in points]

        table = build_kernel_table(spec, GridSpec(n))
        if observed_on_lattice:
            observed = on_lattice(observed)
        else:
            observed = [*observed, (origin[0] + 1, origin[1])]
        locs = np.array(observed, dtype=np.int64).reshape(-1, 2) % n
        obs = ObservationSet(locs, np.zeros(len(locs)), noise)
        candidates = list(dict.fromkeys(on_lattice(pool)))
        count = min(count, len(candidates))
        fast = greedy_sensor_placement(table, obs, candidates, count)
        assert fast == refit_greedy(table, obs, candidates, count)
        assert fast == dense_greedy(table, locs, noise, candidates, count)

    @given(
        n=st.sampled_from([8, 10, 12, 16]),
        spec=st.sampled_from(_PLACEMENT_SPECS),
        observed=st.lists(_POINT, max_size=6),
        noise=st.sampled_from([0.0, 1e-4, 0.01, 0.1]),
        pool=st.lists(_POINT, min_size=1, max_size=24),
        count=st.integers(1, 4),
        stride=st.sampled_from([1, 2, 4]),
        origin=_POINT,
        observed_on_lattice=st.booleans(),
    )
    def test_candidate_grid_matches_its_list(
        self, n, spec, observed, noise, pool, count, stride, origin, observed_on_lattice
    ):
        # the pool of test_fast_matches_refit_and_dense, as a list in its
        # drawn order and as an (n, n) boolean grid: the list's count grid
        # must place exactly as the boolean grid does
        def on_lattice(points):
            return [((origin[0] + stride * a) % n, (origin[1] + stride * b) % n) for a, b in points]

        table = build_kernel_table(spec, GridSpec(n))
        if observed_on_lattice:
            observed = on_lattice(observed)
        else:
            observed = [*observed, (origin[0] + 1, origin[1])]
        locs = np.array(observed, dtype=np.int64).reshape(-1, 2) % n
        obs = ObservationSet(locs, np.zeros(len(locs)), noise)
        candidates = list(dict.fromkeys(on_lattice(pool)))
        grid = np.zeros((n, n), dtype=bool)
        grid[tuple(np.array(candidates).T)] = True
        count = min(count, len(candidates))
        picks = greedy_sensor_placement(table, obs, grid, count)
        assert picks == greedy_sensor_placement(table, obs, candidates, count)

    def test_memory_does_not_grow_with_count(self, grid64):
        # the rows of L^-1 K(points, candidates) are not kept: 16 and 64 picks
        # from the whole grid used to peak at 22 and 70 grids; what grows with
        # the count is the (m + count)^2 block of L^-1, 1.4 grids at m = 20
        table = build_kernel_table(KernelSpec.cht(1.5), grid64)
        axis = np.arange(grid64.n)
        candidates = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        for m in (0, 20):
            obs = _random_obs(grid64, m, seed=64)
            peaks = []
            for count in (16, 64):
                tracemalloc.start()
                try:
                    greedy_sensor_placement(table, obs, candidates, count)
                    peaks.append(tracemalloc.get_traced_memory()[1] / (grid64.n**2 * 8))
                finally:
                    tracemalloc.stop()
            assert abs(peaks[1] - peaks[0]) < 2, f"m={m}"
            assert max(peaks) < 16, f"m={m}"

    def test_memory_is_a_few_sublattice_grids(self, grid64):
        # the variances, one grid and one transform buffer, and the block of
        # L^-1 (one grid at 64 picks); sorted linear indices, a sublattice
        # index and a gathered row for every candidate read 6.5 grids here
        table = build_kernel_table(KernelSpec.cht(1.5), grid64)
        table.spectrum  # the table's own cached transform is not the placement's cost
        axis = np.arange(grid64.n)
        candidates = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        obs = ObservationSet(np.zeros((0, 2), dtype=np.int64), np.zeros(0), 0.01)
        tracemalloc.start()
        try:
            greedy_sensor_placement(table, obs, candidates, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (grid64.n**2 * 8) <= 5

    def test_contraction_with_observation_count(self):
        grid = GridSpec(64)
        table = build_kernel_table(KernelSpec.cht(1.5), grid)
        medians = []
        for m in (20, 60, 150):
            errors = []
            for s in range(10):
                truth = generate_cht_truth(1.5, grid, derive_seed(45, s, 0))
                obs = observe(truth, m, 0.1, derive_seed(45, m, s, 1))
                post = fit_posterior(table, obs)
                rmse = float(np.sqrt(np.mean((post.mean_field.values - truth.values) ** 2)))
                errors.append(rmse / float(np.std(truth.values)))
            medians.append(float(np.median(errors)))
        assert medians[0] > medians[1] > medians[2]


class TestDensePriorSanity:
    def test_prior_covariance_nearly_psd(self, cht_table16):
        sigma = dense_prior_covariance(cht_table16)
        assert np.array_equal(sigma, sigma.T)
        assert np.linalg.eigvalsh(sigma).min() >= -1e-10
