"""Command-line front end producing deterministic CSV/JSON/binary artifacts.

Exit codes: 0 on success, 2 on usage errors (bad flags, invalid parameter
ranges, unwritable output), 3 on numerical failure (Gram factorization).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np
from scipy.stats import norm as _std_normal

from . import __version__
from .experiments import (
    TRUTH_GAUSSIAN,
    TRUTH_VORTEX,
    TrialConfig,
    VortexParams,
    derive_seed,
    generate_cht_truth,
    generate_vortex_truth,
    observe,
    resolve_candidate,
    run_comparison,
    spectral_validation,
    sweep_alpha,
    sweep_density,
)
from .gp_inference import (
    ObservationSet,
    fit_posterior,
    greedy_sensor_placement,
)
from .io import Stopwatch, read_field_dump, write_csv, write_field_dump, write_manifest
from .kernels import (
    FAMILY_CHT,
    FactorizationError,
    KernelSpec,
    build_kernel_table,
    check_admissible,
    spectral_density,
)
from .spectral_field import (
    GridSpec,
    RealField,
    radial_spectrum,
    sample_gaussian_field,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

ENV_SEED = "TURBOGP_SEED"


class UsageError(Exception):
    pass


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in str(text).split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats: {text!r}") from exc


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in str(text).split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from exc


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge flag values, config-file values, and built-in defaults.

    Flags win over the config file, which wins over defaults.  Unknown
    config keys are rejected to catch typos.
    """
    config = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            config = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {config_path}: {exc}") from exc
        unknown = set(config) - set(defaults)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for key, default in defaults.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            out[key] = flag_value
        elif key in config:
            out[key] = config[key]
        else:
            out[key] = default
    return out


def _coerce_seed(value) -> int:
    if value is None:
        env = os.environ.get(ENV_SEED)
        return int(env) if env else 0
    return int(value)


def _check_alpha_gamma(alpha: float, gamma: float) -> None:
    try:
        admissible = check_admissible(alpha, gamma)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if not admissible:
        if gamma == 1.0:
            raise UsageError(
                f"alpha={alpha:g} is not admissible: requires alpha > 0 for gamma = 1"
            )
        raise UsageError(
            f"alpha={alpha:g} with gamma={gamma:g} is not admissible: "
            f"requires alpha > 2 - gamma = {2.0 - gamma:g}"
        )


def _ensure_outdir(path_text: str) -> Path:
    outdir = Path(path_text)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        probe = outdir / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise UsageError(f"output directory {path_text!r} is not writable: {exc}") from exc
    return outdir


def _normalize_lists(params: dict, float_keys=(), int_keys=()) -> None:
    for key in float_keys:
        if isinstance(params.get(key), str):
            params[key] = _float_list(params[key])
        if params.get(key) is not None:
            params[key] = [float(v) for v in params[key]]
    for key in int_keys:
        if isinstance(params.get(key), str):
            params[key] = _int_list(params[key])
        if params.get(key) is not None:
            params[key] = [int(v) for v in params[key]]


def _kernel_from_params(params: dict) -> KernelSpec:
    family = params["kernel"]
    if family == "cht":
        return KernelSpec.cht(float(params["alpha"]))
    if family == "rbf":
        ell = params.get("length_scale")
        return KernelSpec.rbf(None if ell is None else float(ell))
    if family == "matern":
        if params.get("nu") is None:
            raise UsageError("matern kernel requires --nu")
        ell = params.get("length_scale")
        return KernelSpec.matern(float(params["nu"]), None if ell is None else float(ell))
    raise UsageError(f"unknown kernel family {family!r}")


def cmd_sample(args: argparse.Namespace) -> int:
    watch = Stopwatch()
    params = _resolve(
        args,
        {"n": 128, "alpha": 1.5, "seed": None, "gamma": 1.0, "out": "."},
    )
    params["seed"] = _coerce_seed(params["seed"])
    _check_alpha_gamma(float(params["alpha"]), float(params["gamma"]))
    outdir = _ensure_outdir(params["out"])

    grid = GridSpec(int(params["n"]))
    density = spectral_density(KernelSpec.cht(float(params["alpha"])), grid)
    field = sample_gaussian_field(density, grid, params["seed"])
    write_field_dump(
        outdir / "field.json", field, seed=params["seed"], alpha=float(params["alpha"])
    )
    spectrum = radial_spectrum(field)
    write_csv(
        outdir / "spectrum.csv",
        ["k", "shell_avg_power", "shell_sum_power", "mode_count"],
        zip(spectrum.k, spectrum.shell_avg_power, spectrum.shell_sum_power, spectrum.mode_count),
    )
    write_manifest(outdir, "sample", params, params["seed"], watch.elapsed())
    return EXIT_OK


def cmd_validate_spectrum(args: argparse.Namespace) -> int:
    watch = Stopwatch()
    params = _resolve(
        args,
        {
            "alphas": [1.5, 2.0, 2.5],
            "n": 128,
            "seeds": 10,
            "seed": None,
            "k_min": None,
            "k_max": None,
            "out": ".",
        },
    )
    _normalize_lists(params, float_keys=("alphas",))
    params["seed"] = _coerce_seed(params["seed"])
    for alpha in params["alphas"]:
        _check_alpha_gamma(float(alpha), 1.0)
    outdir = _ensure_outdir(params["out"])

    grid = GridSpec(int(params["n"]))
    results = spectral_validation(
        params["alphas"],
        grid,
        int(params["seeds"]),
        master_seed=params["seed"],
        k_min=params["k_min"],
        k_max=params["k_max"],
    )
    rows = []
    for res in results:
        for estimator, fit in (("shell_sum", res.shell_sum_fit), ("mode_avg", res.mode_avg_fit)):
            rows.append(
                (res.alpha, estimator, fit.exponent, fit.exponent_stderr,
                 fit.k_min, fit.k_max, fit.r_squared)
            )
    write_csv(
        outdir / "exponents.csv",
        ["alpha", "estimator", "exponent", "stderr", "k_min", "k_max", "r_squared"],
        rows,
    )
    write_manifest(outdir, "validate-spectrum", params, params["seed"], watch.elapsed())
    return EXIT_OK


def _comparison_config(params: dict) -> TrialConfig:
    truth = params["truth"]
    alpha_true = float(params["alpha_true"])
    alpha = params.get("alpha")
    if alpha is None:
        alpha = alpha_true if truth == "gaussian" else 1.25
    alpha = float(alpha)
    _check_alpha_gamma(alpha, float(params["gamma"]))
    candidates = (KernelSpec.cht(alpha), KernelSpec.rbf(None))
    return TrialConfig(
        grid_n=int(params["n"]),
        alpha_true=alpha_true,
        kernel_candidates=candidates,
        m=int(params["m"]),
        noise_ratio=float(params["noise"]),
        master_seed=params["seed"],
        truth_kind=TRUTH_GAUSSIAN if truth == "gaussian" else TRUTH_VORTEX,
    )


def _trials_rows(results) -> list[tuple]:
    rows = []
    for res in results:
        for tag, score in res.per_kernel.items():
            rows.append(
                (res.seed, tag, score.eps, score.rmse, res.improvement_pct, res.winner)
            )
    return rows


def cmd_compare(args: argparse.Namespace) -> int:
    watch = Stopwatch()
    params = _resolve(
        args,
        {
            "truth": "gaussian",
            "n": 128,
            "alpha_true": 1.5,
            "alpha": None,
            "m": 100,
            "noise": 0.1,
            "trials": 20,
            "seed": None,
            "gamma": 1.0,
            "jobs": None,
            "out": ".",
        },
    )
    params["seed"] = _coerce_seed(params["seed"])
    if params["truth"] not in ("gaussian", "vortex"):
        raise UsageError("--truth must be 'gaussian' or 'vortex'")
    jobs = params["jobs"] or os.cpu_count() or 1
    outdir = _ensure_outdir(params["out"])

    base = _comparison_config(params)
    results = run_comparison(base, int(params["trials"]), jobs=int(jobs))
    write_csv(
        outdir / "trials.csv",
        ["seed", "kernel", "eps", "rmse", "improvement_pct", "winner"],
        _trials_rows(results),
    )
    cht_tag = base.kernel_candidates[0].tag
    rbf_tag = base.kernel_candidates[1].tag
    eps_cht = np.array([r.per_kernel[cht_tag].eps for r in results])
    eps_rbf = np.array([r.per_kernel[rbf_tag].eps for r in results])
    imps = np.array([r.improvement_pct for r in results])
    summary = {
        "trials": len(results),
        "mean_eps_cht": float(eps_cht.mean()),
        "mean_eps_rbf": float(eps_rbf.mean()),
        "std_eps_cht": float(eps_cht.std(ddof=1)) if len(results) > 1 else 0.0,
        "std_eps_rbf": float(eps_rbf.std(ddof=1)) if len(results) > 1 else 0.0,
        "win_rate": float(np.mean(eps_cht < eps_rbf)),
        "mean_improvement_pct": float(imps.mean()),
        "std_improvement_pct": float(imps.std(ddof=1)) if len(results) > 1 else 0.0,
    }
    (outdir / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    write_manifest(outdir, "compare", params, params["seed"], watch.elapsed())
    return EXIT_OK


def cmd_sweep_alpha(args: argparse.Namespace) -> int:
    watch = Stopwatch()
    params = _resolve(
        args,
        {
            "alphas": [0.75, 1.0, 1.25, 1.5],
            "alpha_true": 1.5,
            "n": 128,
            "m": 100,
            "noise": 0.1,
            "trials": 20,
            "seed": None,
            "gamma": 1.0,
            "jobs": None,
            "out": ".",
        },
    )
    _normalize_lists(params, float_keys=("alphas",))
    params["seed"] = _coerce_seed(params["seed"])
    for alpha in params["alphas"]:
        _check_alpha_gamma(float(alpha), float(params["gamma"]))
    jobs = params["jobs"] or os.cpu_count() or 1
    outdir = _ensure_outdir(params["out"])

    base = TrialConfig(
        grid_n=int(params["n"]),
        alpha_true=float(params["alpha_true"]),
        kernel_candidates=(KernelSpec.cht(float(params["alpha_true"])), KernelSpec.rbf(None)),
        m=int(params["m"]),
        noise_ratio=float(params["noise"]),
        master_seed=params["seed"],
    )
    sweep = sweep_alpha(base, params["alphas"], int(params["trials"]), jobs=int(jobs))
    write_csv(
        outdir / "alpha.csv",
        ["alpha", "mean_improvement", "std_improvement", "win_rate", "trials"],
        [
            (p.axis_value, p.mean_improvement, p.std_improvement, p.win_rate, p.trial_count)
            for p in sweep.points
        ],
    )
    best = max(sweep.points, key=lambda p: p.mean_improvement)
    summary = {
        "best_alpha": best.axis_value,
        "best_mean_improvement": best.mean_improvement,
        "all_points_positive": bool(all(p.mean_improvement > 0 for p in sweep.points)),
    }
    (outdir / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    write_manifest(outdir, "sweep-alpha", params, params["seed"], watch.elapsed())
    return EXIT_OK


def cmd_sweep_density(args: argparse.Namespace) -> int:
    watch = Stopwatch()
    params = _resolve(
        args,
        {
            "m": [20, 60, 150],
            "alpha_true": 1.5,
            "alpha": None,
            "n": 128,
            "noise": 0.1,
            "trials": 20,
            "seed": None,
            "gamma": 1.0,
            "jobs": None,
            "out": ".",
        },
    )
    _normalize_lists(params, int_keys=("m",))
    params["seed"] = _coerce_seed(params["seed"])
    alpha = float(params["alpha"]) if params["alpha"] is not None else float(params["alpha_true"])
    _check_alpha_gamma(alpha, float(params["gamma"]))
    jobs = params["jobs"] or os.cpu_count() or 1
    outdir = _ensure_outdir(params["out"])

    base = TrialConfig(
        grid_n=int(params["n"]),
        alpha_true=float(params["alpha_true"]),
        kernel_candidates=(KernelSpec.cht(alpha), KernelSpec.rbf(None)),
        m=int(params["m"][0]),
        noise_ratio=float(params["noise"]),
        master_seed=params["seed"],
    )
    sweep = sweep_density(base, params["m"], int(params["trials"]), jobs=int(jobs))
    write_csv(
        outdir / "density.csv",
        ["m", "mean_improvement", "std_improvement", "win_rate", "trials"],
        [
            (int(p.axis_value), p.mean_improvement, p.std_improvement, p.win_rate, p.trial_count)
            for p in sweep.points
        ],
    )
    summary = {
        "improvement_increases_with_density": bool(
            sweep.points[-1].mean_improvement > sweep.points[0].mean_improvement
        ),
        "first_point_mean_improvement": sweep.points[0].mean_improvement,
        "last_point_mean_improvement": sweep.points[-1].mean_improvement,
    }
    (outdir / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    write_manifest(outdir, "sweep-density", params, params["seed"], watch.elapsed())
    return EXIT_OK


def cmd_place_sensors(args: argparse.Namespace) -> int:
    watch = Stopwatch()
    params = _resolve(
        args,
        {
            "n": 64,
            "kernel": "cht",
            "alpha": 1.5,
            "length_scale": None,
            "nu": None,
            "count": 8,
            "noise_variance": 0.01,
            "candidate_stride": 1,
            "seed": None,
            "gamma": 1.0,
            "out": ".",
        },
    )
    params["seed"] = _coerce_seed(params["seed"])
    if params["kernel"] == "cht":
        _check_alpha_gamma(float(params["alpha"]), float(params["gamma"]))
    if params["kernel"] in ("rbf", "matern") and params["length_scale"] is None:
        raise UsageError(f"{params['kernel']} placement requires --length-scale")
    outdir = _ensure_outdir(params["out"])

    grid = GridSpec(int(params["n"]))
    spec = _kernel_from_params(params)
    table = build_kernel_table(spec, grid)
    stride = int(params["candidate_stride"])
    if stride < 1 or grid.n % stride != 0:
        raise UsageError("--candidate-stride must be a positive divisor of n")
    axis = np.arange(0, grid.n, stride)
    candidates = [(int(a), int(b)) for a in axis for b in axis]
    empty = ObservationSet(
        locations=np.zeros((0, 2), dtype=np.int64),
        values=np.zeros(0),
        noise_variance=float(params["noise_variance"]),
    )
    picks = greedy_sensor_placement(table, empty, candidates, int(params["count"]))

    rows = []
    chosen: list[tuple[int, int]] = []
    for order, point in enumerate(picks):
        pseudo = ObservationSet(
            locations=np.asarray(chosen, dtype=np.int64).reshape(-1, 2),
            values=np.zeros(len(chosen)),
            noise_variance=float(params["noise_variance"]),
        )
        post = fit_posterior(table, pseudo)
        rows.append((order, point[0], point[1], float(post.variance_at([point])[0])))
        chosen.append(point)
    write_csv(outdir / "sensors.csv", ["order", "ix", "iy", "variance"], rows)
    write_manifest(outdir, "place-sensors", params, params["seed"], watch.elapsed())
    return EXIT_OK


def cmd_reconstruct(args: argparse.Namespace) -> int:
    watch = Stopwatch()
    params = _resolve(
        args,
        {
            "field": None,
            "truth": "gaussian",
            "n": 128,
            "alpha_true": 1.5,
            "m": 100,
            "noise": 0.1,
            "kernel": "cht",
            "alpha": None,
            "length_scale": None,
            "nu": None,
            "level": 0.95,
            "seed": None,
            "gamma": 1.0,
            "out": ".",
        },
    )
    params["seed"] = _coerce_seed(params["seed"])
    outdir = _ensure_outdir(params["out"])

    if params["field"]:
        loaded = read_field_dump(params["field"])
        if not isinstance(loaded, RealField):
            raise UsageError("reconstruct expects a real-field dump as truth")
        truth = loaded
        grid = truth.grid
    else:
        grid = GridSpec(int(params["n"]))
        if params["truth"] == "gaussian":
            truth = generate_cht_truth(
                float(params["alpha_true"]), grid, derive_seed(params["seed"], 0)
            )
        elif params["truth"] == "vortex":
            truth = generate_vortex_truth(
                VortexParams(), grid, derive_seed(params["seed"], 0)
            )
        else:
            raise UsageError("--truth must be 'gaussian' or 'vortex'")

    if params["kernel"] == "cht" and params["alpha"] is None:
        params["alpha"] = params["alpha_true"]
    if params["kernel"] == "cht":
        _check_alpha_gamma(float(params["alpha"]), float(params["gamma"]))
    spec = _kernel_from_params(params)
    obs = observe(
        truth, int(params["m"]), float(params["noise"]), derive_seed(params["seed"], 1)
    )
    if spec.family != FAMILY_CHT and spec.length_scale is None:
        spec = resolve_candidate(spec, obs, grid)

    post = fit_posterior(build_kernel_table(spec, grid), obs)
    write_field_dump(outdir / "mean.json", post.mean_field, seed=params["seed"])
    write_field_dump(outdir / "variance.json", post.variance_field, seed=params["seed"])

    level = float(params["level"])
    if not (0.0 < level < 1.0):
        raise UsageError("--level must lie strictly between 0 and 1")
    z = float(_std_normal.ppf(0.5 + 0.5 * level))
    half = z * np.sqrt(np.maximum(post.variance_field.values, 0.0))
    inside = np.abs(truth.values - post.mean_field.values) <= half
    diff = post.mean_field.values - truth.values
    rmse = float(np.sqrt(np.mean(diff**2)))
    summary = {
        "level": level,
        "z": z,
        "coverage": float(np.mean(inside)),
        "mean_interval_halfwidth": float(half.mean()),
        "clamped_points": post.clamp_count,
        "rmse": rmse,
        "eps": rmse / float(np.std(truth.values)),
        "kernel": spec.tag,
        "jitter": post.jitter,
    }
    (outdir / "credible_summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n"
    )
    write_manifest(outdir, "reconstruct", params, params["seed"], watch.elapsed())
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, jobs: bool = False) -> None:
    parser.add_argument("--seed", type=int, default=None, help="master seed (env TURBOGP_SEED, then 0)")
    parser.add_argument("--out", type=str, default=None, help="output directory (default: current)")
    parser.add_argument("--config", type=str, default=None, help="JSON config file; flags override it")
    if jobs:
        parser.add_argument("--jobs", type=int, default=None, help="worker threads (default: all cores)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="turbogp",
        description="Stationary GP priors for 2D turbulent vorticity: sampling, "
        "spectra, reconstruction benchmarks, sensor placement.",
    )
    parser.add_argument("--version", action="version", version=f"turbogp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a power-law field and dump it with its spectrum")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("validate-spectrum", help="fit measured spectral exponents per alpha")
    p.add_argument("--alphas", type=_float_list, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seeds", type=int, default=None)
    p.add_argument("--k-min", dest="k_min", type=int, default=None)
    p.add_argument("--k-max", dest="k_max", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_validate_spectrum)

    p = sub.add_parser("compare", help="power-law vs tuned RBF reconstruction over trials")
    p.add_argument("--truth", type=str, default=None, choices=("gaussian", "vortex"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--alpha-true", dest="alpha_true", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None, help="reconstruction exponent")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--gamma", type=float, default=None)
    _add_common(p, jobs=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep-alpha", help="improvement vs reconstruction exponent")
    p.add_argument("--alphas", type=_float_list, default=None)
    p.add_argument("--alpha-true", dest="alpha_true", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--gamma", type=float, default=None)
    _add_common(p, jobs=True)
    p.set_defaults(func=cmd_sweep_alpha)

    p = sub.add_parser("sweep-density", help="improvement vs observation count")
    p.add_argument("--m", type=_int_list, default=None)
    p.add_argument("--alpha-true", dest="alpha_true", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--gamma", type=float, default=None)
    _add_common(p, jobs=True)
    p.set_defaults(func=cmd_sweep_density)

    p = sub.add_parser("place-sensors", help="greedy max-variance sensor placement")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--kernel", type=str, default=None, choices=("cht", "rbf", "matern"))
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--length-scale", dest="length_scale", type=float, default=None)
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--noise-variance", dest="noise_variance", type=float, default=None)
    p.add_argument("--candidate-stride", dest="candidate_stride", type=int, default=None)
    p.add_argument("--gamma", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_place_sensors)

    p = sub.add_parser("reconstruct", help="posterior mean/variance fields and credible summary")
    p.add_argument("--field", type=str, default=None, help="truth field dump (json header path)")
    p.add_argument("--truth", type=str, default=None, choices=("gaussian", "vortex"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--alpha-true", dest="alpha_true", type=float, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--kernel", type=str, default=None, choices=("cht", "rbf", "matern"))
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--length-scale", dest="length_scale", type=float, default=None)
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--level", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_reconstruct)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"turbogp: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"turbogp: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FactorizationError as exc:
        print(f"turbogp: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
