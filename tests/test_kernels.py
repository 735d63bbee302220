"""Spectral densities, kernel tables vs the direct-sum oracle, Gram assembly,
and the dissipation admissibility rule."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import direct_kernel_sum
from turbogp import (
    GridSpec,
    KernelSpec,
    ObservationSet,
    build_kernel_table,
    check_admissible,
    gram_matrix,
    spectral_density,
)
from turbogp.kernels import PairIndex, _offset_gather, raw_density


class TestKernelSpec:
    def test_families_validate_their_parameters(self):
        with pytest.raises(ValueError):
            KernelSpec.cht(-1.0)
        with pytest.raises(ValueError):
            KernelSpec.cht(0.0)
        with pytest.raises(ValueError):
            KernelSpec.rbf(-0.5)
        with pytest.raises(ValueError):
            KernelSpec.matern(-1.0, 0.5)
        with pytest.raises(TypeError):  # every kernel has unit variance
            KernelSpec(family="cht", alpha=1.0, variance=2.0)
        assert KernelSpec.cht(1.0).variance == 1.0
        with pytest.raises(ValueError):
            KernelSpec(family="nope")

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    @pytest.mark.parametrize("make", [
        lambda bad: KernelSpec.cht(bad),
        lambda bad: KernelSpec.rbf(bad),
        lambda bad: KernelSpec.matern(bad, 0.5),
        lambda bad: KernelSpec.matern(1.5, bad),
    ], ids=["cht_alpha", "rbf_length_scale", "matern_nu", "matern_length_scale"])
    def test_non_finite_parameters_rejected(self, make, bad):
        # cht(inf) used to build a table
        with pytest.raises(ValueError, match="finite"):
            make(bad)

    def test_irrelevant_fields_ignored(self):
        spec = KernelSpec(family="cht", alpha=1.5, length_scale=-3.0, nu=-1.0)
        assert spec.alpha == 1.5

    def test_tags_are_stable(self):
        assert KernelSpec.cht(1.25).tag == "cht_a1.25"
        assert KernelSpec.rbf(None).tag == "rbf_tuned"
        assert KernelSpec.rbf(0.5).tag == "rbf_l0.5"
        assert KernelSpec.matern(1.5, 0.5).tag == "matern_nu1.5_l0.5"


class TestRawDensity:
    def test_cht_unit_mode(self):
        assert raw_density(KernelSpec.cht(1.5), np.array([1.0]))[0] == 1.0

    def test_cht_mode_two(self):
        val = raw_density(KernelSpec.cht(1.5), np.array([4.0]))[0]
        assert val == pytest.approx(2.0**-5, rel=1e-15)
        assert val == pytest.approx(0.03125, rel=1e-15)

    def test_tuned_baselines_have_no_density(self, grid16):
        # a tuned Matern used to build a table at length scale 1, tagged "tuned"
        for spec in (KernelSpec.rbf(None), KernelSpec.matern(1.5, None)):
            with pytest.raises(ValueError, match="concrete length_scale"):
                raw_density(spec, np.array([1.0]))
            with pytest.raises(ValueError, match="concrete length_scale"):
                build_kernel_table(spec, grid16)

    def test_zero_mode_always_zero(self):
        for spec in (KernelSpec.cht(1.0), KernelSpec.rbf(0.5), KernelSpec.matern(1.5, 1.0)):
            assert raw_density(spec, np.array([0.0]))[0] == 0.0

    def test_matern_matches_power_law_tail(self):
        # amplitude-matched at |n| = 16, the two densities agree within 10%
        # at |n| = 32 because the tail exponents coincide
        cht, mat = KernelSpec.cht(1.5), KernelSpec.matern(1.5, 1.0)
        c16 = raw_density(cht, np.array([16.0**2]))[0]
        m16 = raw_density(mat, np.array([16.0**2]))[0]
        c32 = raw_density(cht, np.array([32.0**2]))[0]
        m32 = raw_density(mat, np.array([32.0**2]))[0]
        ratio = (c16 / m16) * m32 / c32
        assert ratio == pytest.approx(1.0, abs=0.1)


class TestSpectralDensity:
    @pytest.mark.parametrize(
        "spec",
        [KernelSpec.cht(1.5), KernelSpec.rbf(0.5), KernelSpec.matern(1.5, 1.0)],
    )
    def test_normalization_sums_to_variance(self, grid16, spec):
        density = spectral_density(spec, grid16)
        assert density.grid_values.sum() == pytest.approx(spec.variance, rel=1e-12)
        assert density.grid_values[0, 0] == 0.0

    def test_isotropy_and_evenness(self, grid16):
        values = spectral_density(KernelSpec.cht(1.0), grid16).grid_values
        assert np.array_equal(values, values.T)
        m = (-np.arange(16)) % 16
        assert np.array_equal(values, values[np.ix_(m, m)])

    def test_nyquist_row_and_column_carry_no_variance(self, grid16):
        values = spectral_density(KernelSpec.cht(1.0), grid16).grid_values
        assert np.all(values[8, :] == 0)
        assert np.all(values[:, 8] == 0)

    def test_spectral_decay_contrast(self):
        # power-law density dominates the RBF density at high wavenumber by
        # orders of magnitude once amplitudes are matched at |n| = 2
        cht, rbf = KernelSpec.cht(1.0), KernelSpec.rbf(0.5)
        c2 = raw_density(cht, np.array([4.0]))[0]
        r2 = raw_density(rbf, np.array([4.0]))[0]
        c32 = raw_density(cht, np.array([32.0**2]))[0]
        r32 = raw_density(rbf, np.array([32.0**2]))[0]
        assert c32 / ((c2 / r2) * r32) > 1e3


class TestKernelTable:
    @pytest.mark.parametrize(
        "spec",
        [KernelSpec.cht(1.5), KernelSpec.rbf(0.5), KernelSpec.matern(1.5, 1.0)],
    )
    def test_origin_value_is_variance(self, grid16, spec):
        table = build_kernel_table(spec, grid16)
        assert table.values[0, 0] == pytest.approx(spec.variance, rel=1e-12)

    def test_even_symmetry_exact(self, cht_table16):
        values = cht_table16.values
        m = (-np.arange(16)) % 16
        assert np.array_equal(values, values[np.ix_(m, m)])

    def test_isotropy_on_lattice(self, cht_table16):
        assert np.array_equal(cht_table16.values, cht_table16.values.T)

    def test_equal_arguments_share_one_read_only_table(self, grid16):
        table = build_kernel_table(KernelSpec.cht(1.5), grid16)
        assert build_kernel_table(KernelSpec.cht(1.5), GridSpec(16)) is table
        assert build_kernel_table(KernelSpec.cht(2.0), grid16) is not table
        assert not table.values.flags.writeable
        assert not table.spectrum.flags.writeable
        assert np.array_equal(table.spectrum, np.fft.rfft2(table.values))

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize(
        "spec",
        [KernelSpec.cht(1.5), KernelSpec.rbf(0.5), KernelSpec.matern(1.5, 1.0)],
    )
    def test_table_matches_direct_sum_oracle(self, n, spec):
        grid = GridSpec(n)
        table = build_kernel_table(spec, grid)
        coords = grid.coordinates()
        for a in range(n):
            for b in range(n):
                oracle = direct_kernel_sum(spec, (coords[a], coords[b]), n // 2)
                assert table.values[a, b] == pytest.approx(oracle, rel=1e-10, abs=1e-12)

    def test_matern_half_reduces_to_exponential(self):
        # band-limiting smooths the cusp at the origin, so the effective
        # length scale and amplitude are calibrated on r in [2h, ell]
        grid = GridSpec(128)
        ell = 0.3
        table = build_kernel_table(KernelSpec.matern(0.5, ell), grid)
        r = grid.coordinates()
        vals = table.values[:, 0]
        window = (r >= 2 * grid.spacing) & (r <= ell)
        design = np.vstack([r[window], np.ones(window.sum())]).T
        (slope, intercept), *_ = np.linalg.lstsq(design, np.log(vals[window]), rcond=None)
        fitted = np.exp(intercept) * np.exp(slope * r[window])
        assert np.max(np.abs(vals[window] - fitted) / fitted) < 0.02


class TestDirectKernelSum:
    def test_zero_offset_gives_variance(self, cht_spec):
        assert direct_kernel_sum(cht_spec, (0.0, 0.0), 8) == pytest.approx(
            cht_spec.variance, rel=1e-14
        )

    def test_matches_table_at_antipode(self, grid16, cht_spec, cht_table16):
        oracle = direct_kernel_sum(cht_spec, (np.pi, np.pi), 8)
        assert cht_table16.values[8, 8] == pytest.approx(oracle, rel=1e-10)

    def test_even_in_offset_exactly(self, cht_spec):
        a = direct_kernel_sum(cht_spec, (0.7, -1.3), 8)
        b = direct_kernel_sum(cht_spec, (-0.7, 1.3), 8)
        assert a == b

    def test_rejects_tiny_truncation(self, cht_spec):
        with pytest.raises(ValueError):
            direct_kernel_sum(cht_spec, (0.0, 0.0), 1)


class TestGramMatrix:
    def test_single_location(self, cht_table16):
        g = gram_matrix(cht_table16, [(3, 4)])
        assert g.shape == (1, 1)
        assert g[0, 0] == pytest.approx(cht_table16.spec.variance, rel=1e-12)

    def test_coincident_locations_rank_one(self, cht_table16):
        g = gram_matrix(cht_table16, [(3, 4), (3, 4)])
        assert np.allclose(g, cht_table16.values[0, 0])
        assert np.linalg.matrix_rank(g, tol=1e-10) == 1

    def test_off_grid_rejected(self, cht_table16):
        with pytest.raises(ValueError):
            gram_matrix(cht_table16, [(16, 0)])
        with pytest.raises(ValueError):
            gram_matrix(cht_table16, [(-1, 0)])

    @pytest.mark.parametrize(
        "spec",
        [KernelSpec.cht(1.5), KernelSpec.rbf(0.5), KernelSpec.matern(1.5, 1.0)],
    )
    def test_random_grams_nearly_psd(self, spec):
        grid = GridSpec(64)
        table = build_kernel_table(spec, grid)
        rng = np.random.default_rng(12)
        for _ in range(3):
            flat = rng.choice(64 * 64, size=50, replace=False)
            locs = np.stack([flat // 64, flat % 64], axis=1)
            g = gram_matrix(table, locs)
            assert np.linalg.eigvalsh(g).min() >= -1e-8 * spec.variance

    @given(
        spec=st.one_of(
            st.builds(KernelSpec.cht, st.floats(0.25, 3.0)),
            st.builds(KernelSpec.rbf, st.floats(0.05, 2.0)),
            st.builds(KernelSpec.matern, st.floats(0.5, 3.0), st.floats(0.05, 2.0)),
        ),
        n=st.sampled_from([8, 16, 32]),
        m=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gram_exactly_symmetric_and_psd(self, spec, n, m, seed):
        # on-grid sets, coincident points allowed; the table is even, so the
        # transposed entry reads the same table value
        table = build_kernel_table(spec, GridSpec(n))
        locs = np.random.default_rng(seed).integers(0, n, size=(m, 2))
        g = gram_matrix(table, locs)
        assert np.array_equal(g, g.T)
        assert np.linalg.eigvalsh(g).min() >= -1e-12 * m * spec.variance


class TestSharedInvariants:
    @given(
        n=st.sampled_from([8, 16, 32]),
        m=st.integers(0, 30),
        coincident=st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_shared_pair_index_gram_equals_direct_gather(self, n, m, coincident, seed):
        # one pair index serves every table gathered on a location set;
        # coincident points, a permuted order and the same locations on a
        # second grid size each have their own index
        rng = np.random.default_rng(seed)
        locs = rng.integers(0, n, size=(m, 2))
        if m:
            locs = np.concatenate([locs, locs[rng.integers(0, m, size=coincident)]])
        permuted = locs[rng.permutation(len(locs))]
        for grid_n in (n, 2 * n):
            grid = GridSpec(grid_n)
            tables = [build_kernel_table(spec, grid)
                      for spec in (KernelSpec.cht(1.5), KernelSpec.rbf(0.3))]
            for points in (locs, permuted):
                obs = ObservationSet(points, np.zeros(len(points)), 0.1)
                pairs = obs.pair_index(grid_n)
                da = (points[:, 0][:, None] - points[:, 0][None, :]) % grid_n
                db = (points[:, 1][:, None] - points[:, 1][None, :]) % grid_n
                for table in tables:
                    direct = table.values[da, db]
                    # the set's own locations take the index unchecked, equal ones check it
                    assert np.array_equal(gram_matrix(table, obs.locations, pairs=pairs), direct)
                    assert np.array_equal(gram_matrix(table, points, pairs=pairs), direct)
                    assert np.array_equal(gram_matrix(table, points), direct)
                    assert np.array_equal(_offset_gather(table.values, points, points), direct)

    def test_pair_index_of_another_set_rejected(self, grid16):
        table = build_kernel_table(KernelSpec.cht(1.5), grid16)
        locs = np.array([[0, 0], [3, 5], [15, 2]])
        pairs = ObservationSet(locs[:2], np.zeros(2), 0.1).pair_index(16)
        with pytest.raises(ValueError, match="pair index"):
            gram_matrix(table, locs, pairs=pairs)
        with pytest.raises(ValueError, match="on-grid"):
            ObservationSet(locs, np.zeros(3), 0.1).pair_index(8)

    def test_pair_index_keeps_its_own_copy_of_writable_locations(self, grid16):
        # the index of a writable array cannot follow a later write to it
        table = build_kernel_table(KernelSpec.cht(1.5), grid16)
        locs = np.array([[0, 0], [3, 5], [15, 2]])
        pairs = PairIndex.of(locs, 16)
        assert pairs.locations is not locs and not pairs.locations.flags.writeable
        assert np.array_equal(gram_matrix(table, locs, pairs=pairs), gram_matrix(table, locs))
        locs[1] = (4, 4)
        with pytest.raises(ValueError, match="pair index"):
            gram_matrix(table, locs, pairs=pairs)

    def test_pair_index_of_another_grid_or_same_size_set_rejected(self):
        # either used to be gathered silently, wrong by up to about 1
        table = build_kernel_table(KernelSpec.cht(1.5), GridSpec(32))
        rng = np.random.default_rng(3)
        locs = rng.integers(0, 16, size=(12, 2))
        other = rng.integers(0, 16, size=(12, 2))
        for pairs in (ObservationSet(locs, np.zeros(12), 0.1).pair_index(16),
                      ObservationSet(other, np.zeros(12), 0.1).pair_index(32)):
            with pytest.raises(ValueError, match="pair index"):
                gram_matrix(table, locs, pairs=pairs)

    def test_gram_is_a_private_copy(self, grid16):
        table = build_kernel_table(KernelSpec.cht(1.5), grid16)
        locs = np.array([[0, 0], [3, 5], [3, 5], [15, 2]])
        pairs = ObservationSet(locs, np.zeros(4), 0.1).pair_index(16)
        first = gram_matrix(table, locs, pairs=pairs)
        want = first.copy()
        first += 1.0
        assert np.array_equal(gram_matrix(table, locs, pairs=pairs), want)

    def test_cached_density_is_shared_and_read_only(self, grid16):
        spec = KernelSpec.cht(1.5)
        density = spectral_density(spec, grid16)
        assert spectral_density(spec, grid16) is density
        assert spectral_density(KernelSpec.cht(1.5), GridSpec(16)) is density
        assert not density.grid_values.flags.writeable
        with pytest.raises(ValueError):
            density.grid_values[1, 0] = 0.0


class TestRobustCholesky:
    def test_clean_matrix_needs_no_jitter(self):
        from turbogp.kernels import robust_cholesky

        mat = np.array([[2.0, 0.5], [0.5, 1.0]])
        chol, jitter = robust_cholesky(mat, 1.0)
        assert jitter == 0.0
        assert np.allclose(chol @ chol.T, mat)

    def test_escalates_jitter_for_tiny_negative_eigenvalue(self):
        from turbogp.kernels import robust_cholesky

        mat = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-12]])  # slightly indefinite
        chol, jitter = robust_cholesky(mat, 1.0)
        assert 0.0 < jitter <= 1e-6
        assert np.all(np.isfinite(chol))

    def test_fails_beyond_jitter_cap(self):
        from turbogp.kernels import FactorizationError, robust_cholesky

        with pytest.raises(FactorizationError):
            robust_cholesky(np.array([[-1.0, 0.0], [0.0, -1.0]]), 1.0)


class TestAdmissibility:
    def test_gamma_out_of_range(self):
        with pytest.raises(ValueError):
            check_admissible(1.0, 1.2)
        with pytest.raises(ValueError):
            check_admissible(1.0, 2.0 / 3.0)

    def test_hypoviscous_threshold_examples(self):
        assert not check_admissible(1.1, 0.8)  # needs alpha > 1.2
        assert check_admissible(1.3, 0.8)

    def test_truth_table_matches_exact_rule(self):
        gammas = ["1", "0.9", "0.8", "0.7"]
        alphas = ["0.5", "1.1", "1.3", "2.5"]
        for gtxt in gammas:
            for atxt in alphas:
                g, a = Fraction(gtxt), Fraction(atxt)
                if g == 1:
                    expected = a > 0
                else:
                    expected = a > 2 - g
                assert check_admissible(float(atxt), float(gtxt)) == expected, (
                    f"gamma={gtxt} alpha={atxt}"
                )
