"""Grid geometry, transforms, sampling, velocity recovery, and spectra."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import hermitian_defect, mask_hermitian_coeffs, mask_sample_gaussian_field
from turbogp import (
    GridSpec,
    KernelSpec,
    RealField,
    SpectralField,
    biot_savart,
    biot_savart_spectral,
    check_admissible,
    curl,
    default_fit_range,
    fit_power_law,
    fit_range,
    radial_spectrum,
    radial_spectrum_of_power,
    sample_gaussian_field,
    spectral_density,
    to_physical,
    to_spectral,
)
from turbogp.spectral_field import mirror_indices


class TestGridSpec:
    def test_basic_geometry(self):
        grid = GridSpec(16)
        assert grid.spacing * grid.n == pytest.approx(grid.domain_length, rel=1e-15)
        assert grid.synthesis_scale == 256.0

    @pytest.mark.parametrize("n", [7, 9, 15, 6, 2, 0])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            GridSpec(n)

    def test_frequencies_layout(self):
        f = GridSpec(8).frequencies()
        assert list(f) == [0, 1, 2, 3, -4, -3, -2, -1]


class TestTransforms:
    def test_zero_field_round_trip(self, grid16):
        field = RealField(grid16, np.zeros((16, 16)))
        coeffs = to_spectral(field).coeffs
        assert np.all(coeffs == 0)

    def test_cosine_has_two_conjugate_coefficients(self, grid16):
        x = grid16.coordinates()
        field = RealField(grid16, np.cos(x)[:, None] * np.ones(16)[None, :])
        coeffs = to_spectral(field).coeffs
        nonzero = np.argwhere(np.abs(coeffs) > 1e-12)
        assert sorted(map(tuple, nonzero)) == [(1, 0), (15, 0)]
        assert coeffs[1, 0] == pytest.approx(0.5, abs=1e-14)
        assert coeffs[15, 0] == pytest.approx(np.conj(coeffs[1, 0]), abs=1e-14)

    def test_round_trip_precision(self):
        grid = GridSpec(64)
        rng = np.random.default_rng(0)
        field = RealField(grid, rng.standard_normal((64, 64)))
        back = to_physical(to_spectral(field))
        rms = field.rms()
        assert np.max(np.abs(back.values - field.values)) < 1e-12 * rms

    def test_mismatched_grid_rejected(self, grid16):
        with pytest.raises(ValueError):
            SpectralField(grid16, np.zeros((8, 8), dtype=complex))

    def test_non_hermitian_input_rejected(self, grid16):
        coeffs = np.zeros((16, 16), dtype=complex)
        coeffs[1, 0] = 1.0 + 0.5j  # no conjugate partner
        with pytest.raises(ValueError):
            to_physical(SpectralField(grid16, coeffs))

    def test_parseval(self, grid64):
        density = spectral_density(KernelSpec.cht(1.5), grid64)
        field = sample_gaussian_field(density, seed=5)
        coeffs = to_spectral(field).coeffs
        spectral_sum = (2 * np.pi) ** 2 * np.sum(np.abs(coeffs) ** 2)
        quadrature = grid64.spacing**2 * np.sum(field.values**2)
        assert spectral_sum == pytest.approx(quadrature, rel=1e-10)


def _sampler_cases(n):
    """(density, seed) pairs that the sampler is checked against its oracles on."""
    from turbogp.kernels import SpectralDensity

    grid = GridSpec(n)
    # the family densities leave the Nyquist row and column empty; the
    # last density puts variance on every mode but the zero mode
    everywhere = np.random.default_rng(n).uniform(0.5, 1.5, size=(n, n))
    everywhere[0, 0] = 0.0
    densities = [spectral_density(spec, grid)
                 for spec in (KernelSpec.cht(1.5), KernelSpec.rbf(0.3))]
    densities.append(SpectralDensity(KernelSpec.cht(1.5), grid, everywhere))
    return [(density, seed) for density in densities for seed in (0, 1, 7, 2**40 + 3)]


class TestSampling:
    def test_zero_density_gives_zero_field(self, grid16, cht_spec):
        base = spectral_density(cht_spec, grid16)
        zero = type(base)(
            spec=base.spec,
            grid=grid16,
            grid_values=np.zeros((16, 16)),
        )
        field = sample_gaussian_field(zero, seed=1)
        assert np.all(field.values == 0)

    def test_negative_density_rejected(self, grid16, cht_spec):
        base = spectral_density(cht_spec, grid16)
        values = np.array(base.grid_values)
        values[1, 0] = -1e-3
        bad = type(base)(
            spec=base.spec, grid=grid16, grid_values=values
        )
        with pytest.raises(ValueError):
            sample_gaussian_field(bad, seed=1)

    def test_deterministic_for_fixed_seed(self, grid16, cht_spec):
        density = spectral_density(cht_spec, grid16)
        a = sample_gaussian_field(density, seed=9)
        b = sample_gaussian_field(density, seed=9)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.5])
    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_hermitian_real_and_mean_zero(self, alpha, n):
        grid = GridSpec(n)
        density = spectral_density(KernelSpec.cht(alpha), grid)
        field = sample_gaussian_field(density, seed=7)
        rms = field.rms()
        assert abs(field.values.mean()) <= 1e-10 * rms
        coeffs = to_spectral(field).coeffs
        assert hermitian_defect(SpectralField(grid, coeffs)) <= 1e-12 * rms
        assert coeffs[0, 0] == pytest.approx(0.0, abs=1e-12 * rms)

    @pytest.mark.parametrize("n", [8, 16, 64, 128])
    def test_bit_identical_to_mask_sampler(self, n):
        for density, seed in _sampler_cases(n):
            got = sample_gaussian_field(density, seed).values
            want = mask_sample_gaussian_field(density, seed).values
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [8, 16, 64, 128])
    def test_matches_checked_full_lattice_synthesis(self, n):
        # independent of the half-spectrum helper: the oracle's full lattice
        # of coefficients through ifft2 and the realness check of to_physical
        for density, seed in _sampler_cases(n):
            got = sample_gaussian_field(density, seed)
            coeffs = mask_hermitian_coeffs(density, seed)
            want = to_physical(SpectralField(density.grid, coeffs))
            assert np.max(np.abs(got.values - want.values)) <= 1e-14 * want.rms()

    def test_sampling_keeps_at_most_four_fields_of_memory(self):
        # 3.54 fields at the half-spectrum sampler: its synthesis holds the
        # half-lattice coefficients, their transform along rows and the
        # output field (a field each) at once
        n = 128
        grid = GridSpec(n)
        density = spectral_density(KernelSpec.cht(1.5), grid)
        sample_gaussian_field(density, 1)
        tracemalloc.start()
        try:
            sample_gaussian_field(density, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * n * n * 8

    def test_per_mode_variance_matches_density(self, grid16, cht_spec):
        density = spectral_density(cht_spec, grid16)
        samples = 4000
        acc = np.zeros((16, 16))
        for s in range(samples):
            field = sample_gaussian_field(density, seed=10_000 + s)
            acc += np.abs(to_spectral(field).coeffs) ** 2
        acc /= samples
        # relative MC error of a chi-square mean is ~ sqrt(2/samples)
        tol = 6.0 * np.sqrt(2.0 / samples)
        active = density.grid_values > 0
        ratio = acc[active] / density.grid_values[active]
        assert np.max(np.abs(ratio - 1.0)) < tol

    def test_shell_sum_exponent_near_theory(self):
        grid = GridSpec(128)
        density = spectral_density(KernelSpec.cht(1.5), grid)
        exps = []
        for seed in range(3):
            field = sample_gaussian_field(density, seed=100 + seed)
            fit = fit_power_law(radial_spectrum(field), 4, 32, use_sum=True)
            exps.append(fit.exponent)
        assert np.mean(exps) == pytest.approx(-4.0, abs=0.4)


class TestBiotSavart:
    def test_zero_vorticity(self, grid16):
        w = SpectralField(grid16, np.zeros((16, 16), dtype=complex))
        u1, u2 = biot_savart(w)
        assert np.all(u1.values == 0) and np.all(u2.values == 0)

    def test_nonzero_mean_rejected(self, grid16):
        coeffs = np.zeros((16, 16), dtype=complex)
        coeffs[0, 0] = 1.0
        with pytest.raises(ValueError):
            biot_savart_spectral(SpectralField(grid16, coeffs))

    def test_single_mode_closed_form(self, grid16):
        x = grid16.coordinates()
        w = to_spectral(RealField(grid16, np.cos(x)[:, None] * np.ones(16)[None, :]))
        u1, u2 = biot_savart(w)
        assert np.max(np.abs(u1.values)) < 1e-14
        assert np.max(np.abs(u2.values - np.sin(x)[:, None])) < 1e-13

    def test_divergence_exactly_zero_and_curl_identity(self):
        grid = GridSpec(64)
        density = spectral_density(KernelSpec.cht(1.5), grid)
        fx, fy = grid.frequency_grids()
        for seed in range(3):
            field = sample_gaussian_field(density, seed=200 + seed)
            w_hat = to_spectral(field)
            u1_hat, u2_hat = biot_savart_spectral(w_hat)
            div = fx * u1_hat.coeffs + fy * u2_hat.coeffs
            assert np.all(div == 0.0)
            u1, u2 = to_physical(u1_hat), to_physical(u2_hat)
            w_back = curl(u1, u2)
            rel = np.max(np.abs(w_back.values - field.values)) / field.rms()
            assert rel < 1e-10


    @given(
        n=st.sampled_from([8, 10, 16, 32, 64]),
        alpha=st.floats(0.05, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_curl_inverts_biot_savart_for_admissible_spectra(self, n, alpha, seed):
        # the example above, over grid sizes, exponents and draws
        assert check_admissible(alpha, 1.0)
        grid = GridSpec(n)
        field = sample_gaussian_field(spectral_density(KernelSpec.cht(alpha), grid), seed)
        u1_hat, u2_hat = biot_savart_spectral(to_spectral(field))
        fx, fy = grid.frequency_grids()
        assert np.all(fx * u1_hat.coeffs + fy * u2_hat.coeffs == 0.0)
        w_back = curl(to_physical(u1_hat), to_physical(u2_hat))
        assert np.max(np.abs(w_back.values - field.values)) < 1e-10 * field.rms()


class TestRadialSpectrum:
    def test_single_mode_shell(self, grid16):
        coeffs = np.zeros((16, 16), dtype=complex)
        c = 0.7
        coeffs[3, 0] = np.sqrt(c)
        coeffs[13, 0] = np.sqrt(c)
        est = radial_spectrum_of_power(grid16, np.abs(coeffs) ** 2)
        k3 = int(np.flatnonzero(est.k == 3)[0])
        assert est.shell_sum_power[k3] == pytest.approx(2 * c, rel=1e-12)
        others = np.delete(est.shell_sum_power, k3)
        assert np.all(others == 0)

    def test_mode_count_matches_lattice_census(self, grid16):
        est = radial_spectrum_of_power(grid16, np.ones((16, 16)))
        span = np.arange(-16, 17)
        n1, n2 = np.meshgrid(span, span, indexing="ij")
        radius = np.sqrt(n1**2 + n2**2)
        for i, k in enumerate(est.k):
            census = int(np.sum((radius >= k - 0.5) & (radius < k + 0.5) & (radius > 0)))
            assert est.mode_count[i] == census

    def test_sum_equals_avg_times_count(self, grid64):
        density = spectral_density(KernelSpec.cht(1.0), grid64)
        field = sample_gaussian_field(density, seed=3)
        est = radial_spectrum(field)
        assert np.allclose(
            est.shell_sum_power, est.shell_avg_power * est.mode_count, rtol=1e-12
        )

    def test_shells_capped_below_nyquist(self, grid16):
        est = radial_spectrum_of_power(grid16, np.ones((16, 16)))
        assert est.k[-1] == 7

    def test_white_noise_spectrum_is_flat(self, grid64):
        from turbogp.kernels import SpectralDensity, truncation_mask

        mask = truncation_mask(grid64)
        values = np.where(mask, 1.0, 0.0)
        values /= values.sum()
        flat = SpectralDensity(
            spec=KernelSpec.cht(1.0),
            grid=grid64,
            grid_values=values,
        )
        exps = []
        for seed in range(10):
            field = sample_gaussian_field(flat, seed=300 + seed)
            fit = fit_power_law(radial_spectrum(field), 4, 16, use_sum=False)
            exps.append(fit.exponent)
        assert abs(np.mean(exps)) < 0.1

    @pytest.mark.parametrize(
        "alpha,theory,tol",
        [(2.0, -5.0, 0.25), (2.5, -6.0, 0.35)],
    )
    def test_shell_sum_fit_matches_reported_exponents(self, alpha, theory, tol):
        grid = GridSpec(128)
        density = spectral_density(KernelSpec.cht(alpha), grid)
        power = np.zeros((128, 128))
        seeds = 5
        for s in range(seeds):
            field = sample_gaussian_field(density, seed=400 + s)
            power += np.abs(to_spectral(field).coeffs) ** 2
        est = radial_spectrum_of_power(grid, power / seeds)
        fit = fit_power_law(est, 4, 32, use_sum=True)
        assert fit.exponent == pytest.approx(theory, abs=tol)


class TestFitPowerLaw:
    def test_exact_power_law_recovered(self, grid64):
        base = radial_spectrum_of_power(grid64, np.ones((64, 64)))
        synthetic = type(base)(
            k=base.k,
            shell_avg_power=base.k.astype(float) ** -4.0,
            shell_sum_power=base.k.astype(float) ** -4.0,
            mode_count=base.mode_count,
        )
        fit = fit_power_law(synthetic, 4, 16, use_sum=True)
        assert fit.exponent == pytest.approx(-4.0, abs=1e-12)
        assert fit.exponent_stderr == pytest.approx(0.0, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_ranges(self, grid64):
        est = radial_spectrum_of_power(grid64, np.ones((64, 64)))
        with pytest.raises(ValueError):
            fit_power_law(est, 1, 16, use_sum=True)
        with pytest.raises(ValueError):
            fit_power_law(est, 4, 64, use_sum=True)
        with pytest.raises(ValueError):
            fit_power_law(est, 4, 6, use_sum=True)

    def test_rejects_zero_power_shell(self, grid64):
        est = radial_spectrum_of_power(grid64, np.zeros((64, 64)))
        with pytest.raises(ValueError):
            fit_power_law(est, 4, 16, use_sum=True)


class TestFitRange:
    def test_defaults(self):
        for n in (16, 64, 128):
            assert fit_range(GridSpec(n)) == default_fit_range(n)
        assert fit_range(GridSpec(64), k_max=20) == (4, 20)

    def test_agrees_with_fit_power_law(self, grid16):
        # fit_range checks a range before sampling; it must reject exactly
        # the ranges a fit on a populated spectrum rejects
        est = radial_spectrum_of_power(grid16, np.ones((16, 16)))
        for k_min in range(0, 10):
            for k_max in range(0, 10):
                try:
                    fit_power_law(est, k_min, k_max, use_sum=True)
                    fits = True
                except ValueError:
                    fits = False
                try:
                    fit_range(grid16, k_min, k_max)
                    checked = True
                except ValueError:
                    checked = False
                assert checked == fits, (k_min, k_max)

    def test_default_range_of_a_tiny_grid_rejected(self):
        with pytest.raises(ValueError, match="4 populated shells"):
            fit_range(GridSpec(8))


class TestSpectrumExponentDifference:
    def test_half_alpha_step_shifts_exponent_by_one(self):
        grid = GridSpec(128)
        fits = {}
        for alpha in (1.5, 2.0):
            density = spectral_density(KernelSpec.cht(alpha), grid)
            power = np.zeros((128, 128))
            for s in range(5):
                field = sample_gaussian_field(density, seed=500 + s)
                power += np.abs(to_spectral(field).coeffs) ** 2
            est = radial_spectrum_of_power(grid, power / 5)
            fits[alpha] = fit_power_law(est, 4, 32, use_sum=True).exponent
        assert fits[2.0] - fits[1.5] == pytest.approx(-1.0, abs=0.3)


class TestMirrorIndices:
    def test_involution(self):
        m = mirror_indices(16)
        assert np.array_equal(m[m], np.arange(16))
