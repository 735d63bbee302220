"""Command-line interface: file outputs, determinism, config handling,
exit-code discipline."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import turbogp
from conftest import dense_condition, dense_greedy
from turbogp import cli
from turbogp.cli import COMMANDS, main
from turbogp.io import read_field_dump, write_csv, write_field_dump, write_json
from turbogp import GridSpec, KernelSpec, RealField, build_kernel_table, normal_quantile


def run_cli(*argv):
    return main(list(argv))


def exit_code(*argv):
    """The exit code of a run, including argparse's for a rejected flag."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def write_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


class TestFieldDump:
    def test_real_round_trip(self, tmp_path):
        grid = GridSpec(16)
        rng = np.random.default_rng(1)
        field = RealField(grid, rng.standard_normal((16, 16)))
        path = tmp_path / "f.json"
        write_field_dump(path, field, seed=3, alpha=1.5)
        loaded = read_field_dump(path)
        assert isinstance(loaded, RealField)
        assert np.array_equal(loaded.values, field.values)
        header = json.loads(path.read_text())
        assert header == {"n": 16, "kind": "real", "seed": 3, "alpha": 1.5}

    @pytest.mark.parametrize("header", [
        {"n": 16},                      # no kind
        {"n": 16, "kind": "complex"},   # unknown kind
        {"kind": "real"},               # no n
        {"n": 16.5, "kind": "real"},    # fractional n
        [16, "real"],                   # not an object
        {"n": 16, "kind": "spectral"},  # spectral dumps are not a format
    ])
    def test_malformed_header_rejected(self, tmp_path, header):
        path = tmp_path / "f.json"
        write_field_dump(path, RealField(GridSpec(16), np.zeros((16, 16))))
        path.write_text(json.dumps(header))
        with pytest.raises(ValueError):
            read_field_dump(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_rejected(self, tmp_path, bad):
        values = np.zeros((16, 16))
        values[3, 5] = bad
        path = tmp_path / "f.json"
        write_field_dump(path, RealField(GridSpec(16), values))
        with pytest.raises(ValueError, match="non-finite"):
            read_field_dump(path)

    @pytest.mark.parametrize("write", [
        lambda path: write_csv(path, ["x"], [(1,)]),
        lambda path: write_json(path, {"x": 1}),
        lambda path: write_field_dump(path, RealField(GridSpec(16), np.zeros((16, 16)))),
    ], ids=["csv", "json", "field_dump"])
    def test_writers_create_missing_directories(self, tmp_path, write):
        path = tmp_path / "a" / "b" / "f.json"
        write(path)
        assert path.is_file()

    @pytest.mark.parametrize("write", [
        lambda path, x: write_csv(path, ["x"], [(x,)]),
        lambda path, x: write_json(path, {"x": x}),
        lambda path, x: write_field_dump(path, RealField(GridSpec(16), np.full((16, 16), x))),
    ], ids=["csv", "json", "field_dump"])
    def test_writers_replace_an_existing_file(self, tmp_path, write):
        # a new file, not the old one rewritten in place: a hard link to the
        # old file keeps its bytes
        path = tmp_path / "f.json"
        write(path, 1.0)
        old = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        for name in old:
            os.link(tmp_path / name, tmp_path / f"old_{name}")
        write(path, 2.0)
        for name, content in old.items():
            assert (tmp_path / f"old_{name}").read_bytes() == content
            assert not (tmp_path / name).samefile(tmp_path / f"old_{name}")

    def test_payload_size_must_match_header(self, tmp_path):
        # without the check, reshape would raise a ValueError of its own
        path = tmp_path / "f.json"
        write_field_dump(path, RealField(GridSpec(16), np.zeros((16, 16))))
        payload = tmp_path / "f.bin"
        payload.write_bytes(payload.read_bytes()[:-8])
        with pytest.raises(ValueError, match="does not match header"):
            read_field_dump(path)

    def test_payload_is_little_endian_float64(self, tmp_path):
        grid = GridSpec(16)
        field = RealField(grid, np.arange(256, dtype=float).reshape(16, 16))
        path = tmp_path / "f.json"
        write_field_dump(path, field)
        raw = np.frombuffer((tmp_path / "f.bin").read_bytes(), dtype="<f8")
        assert raw[17] == field.values[1, 1]


class TestSampleCommand:
    def test_writes_expected_files(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("sample", "--n", "32", "--alpha", "1.5", "--seed", "7",
                       "--out", str(out)) == 0
        for name in ("field.json", "field.bin", "spectrum.csv", "manifest.json"):
            assert (out / name).exists()
        header = json.loads((out / "field.json").read_text())
        assert header["n"] == 32 and header["seed"] == 7
        lines = (out / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "k,shell_avg_power,shell_sum_power,mode_count"
        assert len(lines) == 1 + (32 // 2 - 1)

    def test_repeat_runs_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_cli("sample", "--n", "32", "--alpha", "1.5", "--seed", "7",
                    "--out", str(out))
            outs.append(out)
        for fname in ("field.bin", "field.json", "spectrum.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_negative_alpha_usage_error(self, tmp_path, capsys):
        code = run_cli("sample", "--n", "32", "--alpha", "-1", "--out", str(tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert "alpha > 0" in err

    def test_inadmissible_hypoviscous_pair_rejected(self, tmp_path, capsys):
        code = run_cli("sample", "--n", "32", "--alpha", "1.1", "--gamma", "0.8",
                       "--out", str(tmp_path))
        assert code == 2
        assert "2 - gamma" in capsys.readouterr().err

    def test_manifest_contents(self, tmp_path):
        run_cli("sample", "--n", "32", "--alpha", "1.5", "--seed", "9",
                "--out", str(tmp_path))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "sample"
        assert manifest["master_seed"] == 9
        assert manifest["config_echo"]["n"] == 32
        assert "tool_version" in manifest and "wall_time_s" in manifest
        # the vendored OpenBLAS builds export both the getter and the setter
        pinned = 1 if cli._openblas_thread_controls() else None
        assert manifest["blas_threads"] == pinned


class TestValidateSpectrumCommand:
    def test_exponents_csv_schema(self, tmp_path):
        assert run_cli("validate-spectrum", "--alphas", "1.5,2.0", "--n", "64",
                       "--seeds", "3", "--seed", "1", "--out", str(tmp_path)) == 0
        lines = (tmp_path / "exponents.csv").read_text().splitlines()
        assert lines[0] == "alpha,estimator,exponent,stderr,k_min,k_max,r_squared"
        assert len(lines) == 1 + 2 * 2  # two estimators per alpha
        first = lines[1].split(",")
        assert first[0] == "1.5" and first[1] == "shell_sum"
        assert float(first[2]) == pytest.approx(-4.0, abs=0.6)


class TestChecksBeforeOutput:
    """Inputs a run would reject later are rejected before ``--out`` exists."""

    @pytest.mark.parametrize("argv", [
        ("compare", "--m", "300"),
        ("sweep-density", "--m", "10,300"),
        ("sweep-alpha", "--m", "300"),
    ])
    def test_observation_count_beyond_the_grid(self, tmp_path, capsys, argv):
        # used to create --out, and sweep-density ran the m = 10 point, before
        # the trial's observe rejected the count
        out = tmp_path / "out"
        assert run_cli(*argv, "--n", "16", "--trials", "1", "--jobs", "1",
                       "--out", str(out)) == 2
        assert "m must lie in [1, 256]" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_grid_runs_no_trial(self, tmp_path, monkeypatch, capsys):
        # TrialConfig used to accept the grid, and the trial then failed
        import turbogp.experiments as experiments

        ran = []
        monkeypatch.setattr(experiments, "run_trial", ran.append)
        out = tmp_path / "out"
        assert run_cli("compare", "--n", "4", "--m", "16", "--trials", "1", "--jobs", "1",
                       "--out", str(out)) == 2
        assert "grid size must be even and >= 8" in capsys.readouterr().err
        assert ran == []
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ("--n", "8"),
        ("--n", "32", "--k-min", "10", "--k-max", "3"),
        ("--n", "32", "--k-min", "1"),
        ("--n", "32", "--k-max", "16"),
    ])
    def test_validate_spectrum_fit_range(self, tmp_path, capsys, flags):
        # used to leave an empty --out behind
        out = tmp_path / "out"
        assert run_cli("validate-spectrum", *flags, "--seeds", "1", "--out", str(out)) == 2
        assert "turbogp: error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        *(((command, "--alpha", "1.1", "--gamma", "0.8"), "2 - gamma")
          for command in ("compare", "sweep-density", "place-sensors", "reconstruct")),
        # compare's prior follows its truth
        (("compare", "--alpha-true", "1.1", "--gamma", "0.8"), "2 - gamma"),
        (("reconstruct", "--kernel", "matern"), "requires --nu"),
        (("place-sensors", "--kernel", "matern", "--length-scale", "0.5"), "requires --nu"),
        (("place-sensors", "--kernel", "rbf"), "requires --length-scale"),
        (("reconstruct", "--gamma", "1.2"), "gamma must lie in (2/3, 1], got 1.2"),
    ], ids=["compare", "sweep_density", "place_sensors", "reconstruct", "compare_alpha_true",
            "reconstruct_matern", "place_matern", "place_rbf", "gamma_range"])
    def test_prior_rejected(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert run_cli(*argv, "--n", "16", "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestOutputDirectory:
    """``--out`` is created with the first file a command writes."""

    def test_numerical_failure_leaves_no_out(self, tmp_path, monkeypatch, capsys):
        # used to leave an empty --out behind
        import turbogp.experiments as experiments
        from turbogp.kernels import FactorizationError

        def boom(*args, **kwargs):
            raise FactorizationError("synthetic failure")

        monkeypatch.setattr(experiments, "fit_posterior", boom)
        out = tmp_path / "out"
        assert run_cli("reconstruct", "--n", "16", "--m", "10", "--out", str(out)) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("place-sensors", "--n", "16", "--count", "300"),
        ("sample", "--n", "6"),
        ("compare", "--n", "4", "--m", "16", "--trials", "1", "--jobs", "1"),
    ])
    def test_late_rejection_leaves_no_out(self, tmp_path, argv):
        # each is rejected by the library during the run, and used to leave
        # an empty --out behind
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("below", [False, True])
    def test_out_blocked_by_a_regular_file(self, tmp_path, capsys, below):
        afile = tmp_path / "afile"
        afile.write_text("keep")
        out = afile / "sub" if below else afile
        assert run_cli("sample", "--n", "16", "--out", str(out)) == 2
        assert str(out) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [afile]
        assert afile.read_text() == "keep"

    def test_rerun_into_one_out_writes_identical_bytes(self, tmp_path):
        args = ("reconstruct", "--truth", "gaussian", "--n", "32", "--m", "40",
                "--noise", "0.1", "--seed", "11", "--out", str(tmp_path))
        names = ("mean.json", "mean.bin", "variance.json", "variance.bin",
                 "credible_summary.json")
        assert run_cli(*args) == 0
        first = {name: (tmp_path / name).read_bytes() for name in names}
        assert run_cli(*args) == 0
        assert {name: (tmp_path / name).read_bytes() for name in names} == first


class TestCompareCommand:
    def test_summary_fields_present(self, tmp_path):
        assert run_cli("compare", "--truth", "vortex", "--n", "32", "--m", "30",
                       "--noise", "0.08", "--trials", "3", "--seed", "5",
                       "--jobs", "1", "--out", str(tmp_path)) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        for key in ("mean_eps_cht", "mean_eps_rbf", "win_rate",
                    "mean_improvement_pct", "trials"):
            assert key in summary
        lines = (tmp_path / "trials.csv").read_text().splitlines()
        assert lines[0] == "seed,kernel,eps,rmse,improvement_pct,winner"
        assert len(lines) == 1 + 3 * 2  # two kernels per trial

    @pytest.mark.parametrize("flag", [("--trials", "0"), ("--jobs", "0"), ("--jobs", "-1"),
                                      ("--trials", "1.9")])
    def test_non_positive_counts_rejected_before_any_work(self, tmp_path, flag):
        # --trials 0 used to write NaN into summary.json; --jobs 0 and -1
        # silently meant all cores and serial
        out = tmp_path / "out"
        assert exit_code("compare", "--n", "16", "--m", "10", *flag, "--out", str(out)) == 2
        assert not out.exists()

    def test_gaussian_compare_deterministic(self, tmp_path):
        args = ("compare", "--truth", "gaussian", "--n", "32", "--m", "30",
                "--noise", "0.1", "--trials", "2", "--seed", "5", "--jobs", "2")
        run_cli(*args, "--out", str(tmp_path / "a"))
        run_cli(*args, "--out", str(tmp_path / "b"))
        assert (tmp_path / "a" / "trials.csv").read_bytes() == \
            (tmp_path / "b" / "trials.csv").read_bytes()
        assert (tmp_path / "a" / "summary.json").read_bytes() == \
            (tmp_path / "b" / "summary.json").read_bytes()


class TestSweepCommands:
    def test_sweep_density_output(self, tmp_path):
        assert run_cli("sweep-density", "--m", "10,20", "--n", "32", "--trials", "2",
                       "--noise", "0.1", "--seed", "3", "--jobs", "1",
                       "--out", str(tmp_path)) == 0
        lines = (tmp_path / "density.csv").read_text().splitlines()
        assert lines[0] == "m,mean_improvement,std_improvement,win_rate,trials"
        assert len(lines) == 3
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert "improvement_increases_with_density" in summary

    def test_sweep_alpha_output(self, tmp_path):
        assert run_cli("sweep-alpha", "--alphas", "1.0,1.5", "--n", "32",
                       "--m", "20", "--trials", "2", "--seed", "3", "--jobs", "1",
                       "--out", str(tmp_path)) == 0
        lines = (tmp_path / "alpha.csv").read_text().splitlines()
        assert lines[0] == "alpha,mean_improvement,std_improvement,win_rate,trials"
        assert len(lines) == 3


class TestPlaceSensorsCommand:
    def test_sensor_csv(self, tmp_path):
        assert run_cli("place-sensors", "--n", "16", "--kernel", "cht",
                       "--alpha", "1.5", "--count", "4", "--candidate-stride", "2",
                       "--out", str(tmp_path)) == 0
        lines = (tmp_path / "sensors.csv").read_text().splitlines()
        assert lines[0] == "order,ix,iy,variance"
        assert len(lines) == 5
        # first pick is the tie-broken lowest linear index with empty history
        assert lines[1].split(",")[:3] == ["0", "0", "0"]

    PRIORS = {
        "cht": (("--kernel", "cht", "--alpha", "1.5"), KernelSpec.cht(1.5), 0.01),
        # noiseless: each pick's pivot carries its variance alone
        "rbf": (("--kernel", "rbf", "--length-scale", "0.5", "--noise-variance", "0"),
                KernelSpec.rbf(0.5), 0.0),
        "matern": (("--kernel", "matern", "--nu", "1.5", "--length-scale", "0.5",
                    "--noise-variance", "1e-6"), KernelSpec.matern(1.5, 0.5), 1e-6),
    }

    @pytest.mark.parametrize("prior,stride", [
        ("cht", 1), ("cht", 2), ("rbf", 1), ("rbf", 2), ("matern", 1), ("matern", 2),
    ], ids=["1", "2", "rbf-1", "rbf-2", "matern-1", "matern-2"])
    def test_picks_and_variances_match_dense_conditioning(self, tmp_path, prior, stride):
        flags, spec, noise = self.PRIORS[prior]
        assert run_cli("place-sensors", "--n", "32", *flags, "--count", "6",
                       "--candidate-stride", str(stride), "--out", str(tmp_path)) == 0
        rows = np.loadtxt(tmp_path / "sensors.csv", delimiter=",", skiprows=1)
        picks = [(int(ix), int(iy)) for ix, iy in rows[:, 1:3]]
        table = build_kernel_table(spec, GridSpec(32))
        axis = np.arange(0, 32, stride)
        candidates = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        assert picks == dense_greedy(table, np.zeros((0, 2)), noise, candidates, 6)
        for order, (ix, iy) in enumerate(picks):
            _, cov = dense_condition(table, picks[:order], np.zeros(order), noise)
            assert abs(rows[order, 3] - cov[ix * 32 + iy, ix * 32 + iy]) <= 1e-12

    def test_warm_command_peaks_at_four_grids(self, tmp_path):
        # the candidates are an (n, n) boolean grid; as an n^2 x 2 int64 list
        # of indices they took the warm peak to 5.4 grids
        argv = ("place-sensors", "--n", "128", "--count", "64", "--out", str(tmp_path))
        assert run_cli(*argv) == 0  # builds and caches the kernel table
        tracemalloc.start()
        try:
            assert run_cli(*argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (128**2 * 8) <= 4

    def test_bad_stride_rejected(self, tmp_path):
        assert run_cli("place-sensors", "--n", "16", "--candidate-stride", "3",
                       "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_noise_variance_is_a_usage_error(self, tmp_path, capsys, bad):
        assert run_cli("place-sensors", "--n", "16", "--count", "2",
                       "--noise-variance", bad, "--out", str(tmp_path)) == 2
        assert "finite" in capsys.readouterr().err


class TestReconstructCommand:
    def test_outputs_and_summary(self, tmp_path):
        assert run_cli("reconstruct", "--truth", "gaussian", "--n", "32",
                       "--alpha-true", "1.5", "--m", "40", "--noise", "0.1",
                       "--seed", "11", "--out", str(tmp_path)) == 0
        for name in ("mean.json", "mean.bin", "variance.json", "variance.bin",
                     "credible_summary.json", "manifest.json"):
            assert (tmp_path / name).exists()
        summary = json.loads((tmp_path / "credible_summary.json").read_text())
        assert 0.5 < summary["coverage"] <= 1.0
        assert summary["level"] == 0.95
        mean = read_field_dump(tmp_path / "mean.json")
        assert isinstance(mean, RealField) and mean.grid.n == 32

    def test_dumps_do_not_depend_on_jobs(self, tmp_path):
        args = ("reconstruct", "--truth", "gaussian", "--n", "32", "--m", "40",
                "--noise", "0.1", "--seed", "11")
        for jobs in ("1", "2"):
            assert run_cli(*args, "--jobs", jobs, "--out", str(tmp_path / jobs)) == 0
        for name in ("mean.bin", "variance.bin", "credible_summary.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_zero_jobs_creates_nothing(self, tmp_path):
        out = tmp_path / "out"
        assert exit_code("reconstruct", "--n", "16", "--m", "10", "--jobs", "0",
                         "--out", str(out)) == 2
        assert not out.exists()

    def test_reads_field_dump_as_truth(self, tmp_path):
        sample_dir = tmp_path / "sample"
        run_cli("sample", "--n", "32", "--alpha", "1.5", "--seed", "2",
                "--out", str(sample_dir))
        out = tmp_path / "rec"
        assert run_cli("reconstruct", "--field", str(sample_dir / "field.json"),
                       "--m", "40", "--noise", "0.1", "--alpha", "1.5",
                       "--seed", "3", "--out", str(out)) == 0
        assert (out / "credible_summary.json").exists()

    @pytest.mark.parametrize("flags", [("--truth", "vortex"), ("--n", "32")], ids=["truth", "n"])
    def test_field_with_truth_or_grid_is_a_usage_error(self, tmp_path, flags, capsys):
        # the dump is the truth and sets the grid; either flag used to be
        # dropped without a word
        dump = tmp_path / "field.json"
        field = np.random.default_rng(0).standard_normal((16, 16))
        write_field_dump(dump, RealField(GridSpec(16), field))
        out = tmp_path / "rec"
        assert run_cli("reconstruct", "--field", str(dump), *flags, "--m", "10",
                       "--out", str(out)) == 2
        assert f"drop {flags[0]}" in capsys.readouterr().err
        assert not out.exists()

    def test_credible_summary_is_the_band_of_the_dumps(self, tmp_path):
        # the band is z * sqrt(variance) at every grid point, read back from the dumps
        assert run_cli("sample", "--n", "32", "--seed", "2", "--out", str(tmp_path / "sample")) == 0
        dump = tmp_path / "sample" / "field.json"
        truth = read_field_dump(dump).values
        summaries = {}
        for level in (0.95, 1e-12, 0.9544997361036416):
            out = tmp_path / repr(level)
            assert run_cli("reconstruct", "--field", str(dump), "--m", "40", "--level", repr(level),
                           "--seed", "3", "--out", str(out)) == 0
            summary = json.loads((out / "credible_summary.json").read_text())
            mean = read_field_dump(out / "mean.json").values
            variance = read_field_dump(out / "variance.json").values
            assert summary["level"] == level
            assert summary["z"] == normal_quantile(level)
            half = summary["z"] * np.sqrt(variance)
            assert summary["coverage"] == float(np.mean(np.abs(truth - mean) <= half))
            assert summary["mean_interval_halfwidth"] == float(half.mean())
            summaries[level] = summary
        assert summaries[1e-12]["mean_interval_halfwidth"] < 1e-10
        assert abs(summaries[0.9544997361036416]["z"] - 2.0) <= 1e-12

    def test_level_out_of_range_creates_nothing(self, tmp_path):
        out = tmp_path / "rec"
        assert exit_code("reconstruct", "--n", "16", "--m", "10", "--level", "1.5",
                         "--out", str(out)) == 2
        assert exit_code("reconstruct", "--n", "16", "--m", "10",
                         "--config", write_config(tmp_path, {"level": 1.5}),
                         "--out", str(out)) == 2
        assert not out.exists()

    def test_missing_field_dump_is_a_usage_error(self, tmp_path, capsys):
        assert run_cli("reconstruct", "--field", str(tmp_path / "missing.json"),
                       "--m", "10", "--out", str(tmp_path / "rec")) == 2
        assert "cannot read field dump" in capsys.readouterr().err

    def test_field_dump_without_kind_is_a_usage_error(self, tmp_path):
        path = tmp_path / "f.json"
        write_field_dump(path, RealField(GridSpec(16), np.zeros((16, 16))))
        path.write_text(json.dumps({"n": 16}))
        assert run_cli("reconstruct", "--field", str(path), "--m", "10",
                       "--out", str(tmp_path / "rec")) == 2

    def test_matern_without_length_scale_is_tuned(self, tmp_path):
        assert run_cli("reconstruct", "--kernel", "matern", "--nu", "1.5", "--n", "16",
                       "--m", "20", "--out", str(tmp_path)) == 0
        kernel = json.loads((tmp_path / "credible_summary.json").read_text())["kernel"]
        assert kernel.startswith("matern_nu1.5_l") and not kernel.endswith("tuned")

    def test_non_finite_truth_is_a_usage_error(self, tmp_path, capsys):
        values = np.zeros((16, 16))
        values[::2] = np.nan
        write_field_dump(tmp_path / "nan.json", RealField(GridSpec(16), values))
        assert run_cli("reconstruct", "--field", str(tmp_path / "nan.json"),
                       "--m", "200", "--noise", "0", "--alpha", "1.5",
                       "--out", str(tmp_path / "rec")) == 2
        assert "finite" in capsys.readouterr().err

    def test_non_finite_dump_creates_nothing(self, tmp_path):
        values = np.zeros((16, 16))
        values[0, 0] = np.nan
        write_field_dump(tmp_path / "nan.json", RealField(GridSpec(16), values))
        out = tmp_path / "rec"
        assert run_cli("reconstruct", "--field", str(tmp_path / "nan.json"),
                       "--m", "10", "--out", str(out)) == 2
        assert not out.exists()

    def test_negative_noise_ratio_creates_nothing(self, tmp_path, capsys):
        # used to exit 0: noiseless values conditioned on noise variance (0.1 rms)^2
        out = tmp_path / "rec"
        assert run_cli("reconstruct", "--n", "16", "--m", "10", "--noise", "-0.1",
                       "--out", str(out)) == 2
        assert "noise_ratio" in capsys.readouterr().err
        assert not out.exists()


#: Float parameters of every command, with small sizes so a run that is
#: wrongly accepted stays cheap.
_FLOAT_CASES = [
    ("sample", "alpha", ("--n", "16")),
    ("validate-spectrum", "alphas", ("--n", "16", "--seeds", "1")),
    ("compare", "alpha", ("--n", "16", "--m", "10", "--trials", "1", "--jobs", "1")),
    ("compare", "alpha_true", ("--n", "16", "--m", "10", "--trials", "1", "--jobs", "1")),
    ("compare", "noise", ("--n", "16", "--m", "10", "--trials", "1", "--jobs", "1")),
    ("sweep-alpha", "alphas", ("--n", "16", "--m", "10", "--trials", "1", "--jobs", "1")),
    ("sweep-density", "alpha", ("--n", "16", "--m", "10", "--trials", "1", "--jobs", "1")),
    ("place-sensors", "alpha", ("--n", "16", "--count", "1")),
    ("reconstruct", "alpha", ("--n", "16", "--m", "10")),
    ("reconstruct", "length_scale", ("--n", "16", "--m", "10", "--kernel", "rbf")),
    ("reconstruct", "nu", ("--n", "16", "--m", "10", "--kernel", "matern")),
]


class FakeBlas:
    """A BLAS thread count with the getter and setter of the OpenBLAS controls."""

    def __init__(self, threads):
        self.threads = threads

    def get(self):
        return self.threads

    def set(self, threads):
        self.threads = threads


class TestBlasThreads:
    """``main`` runs each command with OpenBLAS on one thread and then restores it."""

    SAMPLE = ("sample", "--n", "16", "--seed", "1")

    def manifest(self, out):
        return json.loads((out / "manifest.json").read_text())

    def test_outputs_do_not_depend_on_openblas_threads(self, tmp_path):
        # m = 200 takes the Cholesky and L^-1 through threaded BLAS kernels,
        # whose rounding follows the thread count unless the command pins it
        env = dict(os.environ, PYTHONPATH=str(Path(turbogp.__file__).parent.parent))
        for threads in ("1", "2"):
            subprocess.run(
                [sys.executable, "-m", "turbogp.cli", "reconstruct", "--truth", "gaussian",
                 "--n", "64", "--m", "200", "--noise", "0.1", "--seed", "1",
                 "--out", str(tmp_path / threads)],
                env={**env, "OPENBLAS_NUM_THREADS": threads}, check=True, timeout=300,
            )
        for name in ("mean.bin", "variance.bin", "credible_summary.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_main_restores_the_callers_thread_count(self, tmp_path):
        controls = cli._openblas_thread_controls()
        if not controls:
            pytest.skip("no vendored OpenBLAS whose thread count can be set")
        before = [get() for get, _ in controls]
        try:
            for _, set_ in controls:
                set_(2)
            assert run_cli(*self.SAMPLE, "--out", str(tmp_path)) == 0
            assert [get() for get, _ in controls] == [2] * len(controls)
        finally:
            for (_, set_), threads in zip(controls, before):
                set_(threads)
        assert self.manifest(tmp_path)["blas_threads"] == 1

    def test_no_openblas_found_runs_unpinned(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_openblas_thread_controls", lambda: ())
        assert run_cli(*self.SAMPLE, "--out", str(tmp_path)) == 0
        assert self.manifest(tmp_path)["blas_threads"] is None

    def test_pinned_for_the_command_and_restored_after(self, tmp_path, monkeypatch):
        blas = FakeBlas(3)
        seen = []
        monkeypatch.setattr(cli, "_openblas_thread_controls", lambda: ((blas.get, blas.set),))
        monkeypatch.setitem(COMMANDS, "sample", COMMANDS["sample"]._replace(
            handler=lambda params: seen.append(blas.threads)))
        assert run_cli(*self.SAMPLE, "--out", str(tmp_path)) == 0
        assert seen == [1] and blas.threads == 3
        assert self.manifest(tmp_path)["blas_threads"] == 1

    def test_restored_after_a_failed_command(self, tmp_path, monkeypatch):
        blas = FakeBlas(3)
        monkeypatch.setattr(cli, "_openblas_thread_controls", lambda: ((blas.get, blas.set),))
        assert run_cli("sample", "--n", "16", "--alpha", "-1", "--out", str(tmp_path)) == 2
        assert blas.threads == 3


class TestNonFiniteFloats:
    # "sample --alpha inf" used to exit 0 and write "alpha": Infinity, which is
    # not JSON, into field.json and manifest.json
    @pytest.mark.parametrize("command,name,small", _FLOAT_CASES)
    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_flag_rejected(self, tmp_path, command, name, small, bad):
        value = f"1,{bad}" if name == "alphas" else bad
        out = tmp_path / "out"
        assert exit_code(command, *small, "--" + name.replace("_", "-"), value,
                         "--out", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command,name,small", _FLOAT_CASES)
    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_config_value_rejected(self, tmp_path, command, name, small, bad):
        # json writes these as Infinity and NaN, which json reads back
        value = [1.0, bad] if name == "alphas" else bad
        out = tmp_path / "out"
        config = write_config(tmp_path, {name: value})
        assert run_cli(command, *small, "--config", config, "--out", str(out)) == 2
        assert not out.exists()


class TestConfigAndEnvironment:
    def test_config_file_supplies_defaults_and_flags_override(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 32, "alpha": 1.5, "seed": 4}))
        out = tmp_path / "out"
        assert run_cli("sample", "--config", str(config), "--alpha", "2.0",
                       "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_echo"]["n"] == 32        # from config
        assert manifest["config_echo"]["alpha"] == 2.0   # flag wins
        assert manifest["master_seed"] == 4

    def test_shared_parser_carries_nothing_between_commands(self, tmp_path, monkeypatch):
        # one parser, built once per process, parses every command
        monkeypatch.delenv("TURBOGP_SEED", raising=False)
        assert cli.build_parser() is cli.build_parser()
        runs = [  # command, config file, flag values
            ("sample", {"n": 16, "gamma": 0.9, "seed": 5}, {"alpha": 2.0}),
            ("place-sensors", {"n": 16, "count": 2, "alpha": 1.25, "noise_variance": 0.02}, {}),
            ("sample", {"n": 32}, {}),
        ]
        for index, (command, config, flag_values) in enumerate(runs):
            out = tmp_path / str(index)
            flags = [text for name, value in flag_values.items() for text in (f"--{name}", str(value))]
            config_path = tmp_path / f"config{index}.json"
            config_path.write_text(json.dumps(config))
            assert run_cli(command, "--config", str(config_path), *flags, "--out", str(out)) == 0
            expected = {param.name: param.default for param in COMMANDS[command].params}
            expected.update(config, **flag_values)
            expected.update(seed=config.get("seed", 0), out=str(out))
            if command == "place-sensors":
                expected["seed"] = None  # placement draws nothing
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config_echo"] == json.loads(json.dumps(expected))

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"nope": 1}))
        assert run_cli("sample", "--config", str(config), "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("name", ["missing.json", "a_directory"])
    def test_unreadable_config_file_is_a_usage_error(self, tmp_path, capsys, name):
        (tmp_path / "a_directory").mkdir()
        config = tmp_path / name
        out = tmp_path / "out"
        assert run_cli("sample", "--config", str(config), "--out", str(out)) == 2
        assert f"cannot read config file {config}" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_must_be_an_object(self, tmp_path, capsys):
        config = write_config(tmp_path, [1, 2])
        assert run_cli("sample", "--config", config, "--out", str(tmp_path)) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_scalar_config_value_for_a_list_parameter(self, tmp_path):
        # {"m": 30} used to crash with a TypeError traceback
        config = write_config(tmp_path, {"m": 30})
        out = tmp_path / "out"
        assert run_cli("sweep-density", "--config", config, "--n", "16", "--trials", "1",
                       "--jobs", "1", "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_echo"]["m"] == [30]
        assert len((out / "density.csv").read_text().splitlines()) == 2

    @pytest.mark.parametrize("config", [
        {"trials": 1.9},        # used to run 1 trial and echo 1.9
        {"trials": 0},
        {"jobs": -1},
        {"truth": "turbulent"},
        {"n": "sixteen"},
        {"n": [16]},
        {"m": True},
        {"seed": -1},
    ])
    def test_config_values_checked_like_flags(self, tmp_path, config):
        small = {"n": 16, "m": 10, "trials": 1, "jobs": 1}
        out = tmp_path / "out"
        assert run_cli("compare", "--config", write_config(tmp_path, {**small, **config}),
                       "--out", str(out)) == 2
        assert not out.exists()

    def test_config_values_resolve_like_flags(self, tmp_path):
        common = ("--n", "16", "--m", "12", "--trials", "2", "--seed", "3", "--jobs", "1")
        config = write_config(tmp_path, {"alphas": [1.0, 1.5], "noise": 0.05, "gamma": 1})
        assert run_cli("sweep-alpha", *common, "--config", config,
                       "--out", str(tmp_path / "config")) == 0
        assert run_cli("sweep-alpha", *common, "--alphas", "1.0,1.5", "--noise", "0.05",
                       "--gamma", "1", "--out", str(tmp_path / "flags")) == 0
        for name in ("alpha.csv", "summary.json"):
            assert (tmp_path / "config" / name).read_bytes() == \
                (tmp_path / "flags" / name).read_bytes()
        echoes = [json.loads((tmp_path / d / "manifest.json").read_text())["config_echo"]
                  for d in ("config", "flags")]
        for echo in echoes:
            del echo["out"]
        assert echoes[0] == echoes[1]

    def test_env_seed_is_last_resort(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TURBOGP_SEED", "31")
        out = tmp_path / "env"
        run_cli("sample", "--n", "32", "--out", str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 31

        monkeypatch.delenv("TURBOGP_SEED")
        out2 = tmp_path / "noenv"
        run_cli("sample", "--n", "32", "--out", str(out2))
        manifest = json.loads((out2 / "manifest.json").read_text())
        assert manifest["master_seed"] == 0

    @pytest.mark.parametrize("command", ["sample", "place-sensors"])
    def test_negative_seed_rejected(self, tmp_path, capsys, command):
        # used to exit 2 without naming the flag, and place-sensors exited 0
        out = tmp_path / "out"
        assert exit_code(command, "--n", "16", "--seed", "-1", "--out", str(out)) == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
    def test_bad_env_seed_rejected(self, tmp_path, monkeypatch, capsys, value):
        # "abc" used to be reported as "invalid literal for int()"
        monkeypatch.setenv("TURBOGP_SEED", value)
        out = tmp_path / "out"
        assert run_cli("sample", "--n", "16", "--out", str(out)) == 2
        assert "TURBOGP_SEED" in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_exit_code_from_argparse(self):
        with pytest.raises(SystemExit) as err:
            run_cli("sample", "--n", "not-a-number")
        assert err.value.code == 2

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        import turbogp.experiments as experiments
        from turbogp.kernels import FactorizationError

        def boom(*args, **kwargs):
            raise FactorizationError("synthetic failure")

        monkeypatch.setattr(experiments, "fit_posterior", boom)
        code = run_cli("reconstruct", "--truth", "gaussian", "--n", "32",
                       "--m", "10", "--seed", "1", "--out", str(tmp_path))
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err


class TestParameterTable:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_help_lists_every_parameter(self, command, capsys):
        assert exit_code(command, "--help") == 0
        text = capsys.readouterr().out
        flags = [param.name.replace("_", "-") for param in COMMANDS[command].params]
        for flag in flags + ["config"]:
            assert f"[--{flag} " in text  # the usage line, e.g. "[--alpha-true ALPHA_TRUE]"

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_no_flag_run_echoes_table_defaults(self, command, tmp_path, monkeypatch):
        monkeypatch.delenv("TURBOGP_SEED", raising=False)
        monkeypatch.chdir(tmp_path)
        assert run_cli(command) == 0
        expected = {param.name: param.default for param in COMMANDS[command].params}
        expected["seed"] = None if command == "place-sensors" else 0  # placement draws nothing
        if command in ("compare", "reconstruct", "sweep-density"):
            expected["alpha"] = expected["alpha_true"]  # the cht exponent follows the truth
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config_echo"] == json.loads(json.dumps(expected))


class TestManifestEcho:
    """``config_echo`` holds each value a command resolved, as the command used it."""

    SMALL = ("--n", "16", "--m", "10", "--trials", "1")

    @pytest.mark.parametrize("command,flags,key,want", [
        ("compare", ("--truth", "vortex", *SMALL), "alpha", 1.25),
        ("compare", ("--alpha-true", "2.0", *SMALL), "alpha", 2.0),
        ("sweep-density", ("--alpha-true", "2.0", *SMALL), "alpha", 2.0),
        ("reconstruct", ("--field", "field.json", "--m", "10"), "n", 32),
        ("reconstruct", ("--truth", "vortex", "--n", "16", "--m", "10"), "alpha", 1.25),
    ], ids=["compare_vortex", "compare_gaussian", "sweep_density", "reconstruct_field",
            "reconstruct_vortex"])
    def test_resolved_value_echoed(self, tmp_path, monkeypatch, command, flags, key, want):
        # compare and sweep-density used to echo alpha null, reconstruct --field
        # the default n 128, and reconstruct --truth vortex fit --alpha-true (1.5)
        monkeypatch.chdir(tmp_path)
        field = np.random.default_rng(0).standard_normal((32, 32))
        write_field_dump("field.json", RealField(GridSpec(32), field))
        assert run_cli(command, *flags, "--jobs", "1", "--out", "out") == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config_echo"][key] == want
        if command == "reconstruct" and key == "alpha":  # the prior it fit
            summary = json.loads((tmp_path / "out" / "credible_summary.json").read_text())
            assert summary["kernel"] == f"cht_a{want:g}"

    @pytest.mark.parametrize("command,flags,nulls", [
        ("reconstruct", ("--field", "field.json", "--m", "10"), ("truth", "alpha_true")),
        ("reconstruct", ("--truth", "vortex", "--n", "16", "--m", "10"), ("alpha_true",)),
        ("reconstruct", ("--truth", "vortex", "--n", "16", "--m", "10", "--kernel", "rbf"),
         ("alpha_true", "gamma", "alpha")),
        ("reconstruct", ("--n", "16", "--m", "10", "--kernel", "matern", "--nu", "1.5",
                         "--length-scale", "0.5", "--alpha", "1.25"), ("gamma", "alpha")),
        ("compare", ("--truth", "vortex", *SMALL), ("alpha_true",)),
        ("place-sensors", ("--n", "16", "--count", "2", "--kernel", "rbf",
                           "--length-scale", "0.5"), ("alpha", "seed", "gamma")),
        ("place-sensors", ("--n", "16", "--count", "2", "--kernel", "matern", "--nu", "1.5",
                           "--length-scale", "0.5"), ("alpha", "seed", "gamma")),
        ("place-sensors", ("--n", "16", "--count", "2", "--seed", "5"), ("seed",)),
        ("place-sensors", ("--n", "16", "--count", "2", "--length-scale", "0.5", "--nu", "2"),
         ("length_scale", "nu", "seed")),
        ("reconstruct", ("--n", "16", "--m", "10", "--kernel", "rbf", "--nu", "2"),
         ("nu", "alpha", "gamma")),
    ], ids=["reconstruct_field", "reconstruct_vortex", "reconstruct_vortex_rbf",
            "reconstruct_matern", "compare_vortex", "place_rbf", "place_matern", "place_cht",
            "place_cht_baseline_flags", "reconstruct_rbf_nu"])
    def test_ignored_value_echoed_null(self, tmp_path, monkeypatch, command, flags, nulls):
        # each used to echo its default or its flag (and place-sensors the seed
        # it never read)
        monkeypatch.chdir(tmp_path)
        field = np.random.default_rng(0).standard_normal((32, 32))
        write_field_dump("field.json", RealField(GridSpec(32), field))
        assert run_cli(command, *flags, "--out", "out") == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        for key in nulls:
            assert manifest["config_echo"][key] is None
        assert manifest["master_seed"] == manifest["config_echo"]["seed"]
        if command == "place-sensors" and "alpha" not in nulls:
            assert manifest["config_echo"]["alpha"] == 1.5
            assert manifest["config_echo"]["gamma"] == 1.0
