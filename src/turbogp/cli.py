"""Command-line front end producing deterministic CSV/JSON/binary artifacts.

Every command is one entry of :data:`COMMANDS`: its handler, its help text
and one :class:`Param` row per parameter (name, converter, default,
choices).  The rows generate the argparse subparser and the config-file
merge, so each default, type and choice is stated once.  A value from
``--config file.json`` goes through the flag's own converter and choices
(a JSON list is read as its comma-separated flag text), and an explicit flag
overrides it.  Float rows reject ``inf`` and ``nan`` (``--noise-variance``
is checked by :class:`ObservationSet` instead).  ``--seed`` and ``--out``
are appended to every command.  Handlers take the resolved parameters and
call the library for every computation; :func:`main` times the run, fills in
the seed, writes the manifest and maps errors to exit codes.

:func:`main` runs the command with numpy's and scipy's vendored OpenBLAS on
one thread each, so ``--jobs`` is the only parallelism and the output bytes
do not depend on the core count; each library's previous count is restored
when the command ends.  A library counts only when it exports both the
``scipy_openblas`` thread getter and setter; where none is found (another
BLAS build) the command runs unpinned.  The manifest's ``blas_threads``
records the count in effect: 1, or null when unpinned.

:func:`_prior` resolves the prior a command fits, and :func:`_trial_config`
the trial it draws.  The manifest echoes parameters by one rule, which those
two apply (and ``place-sensors`` to the seed it never reads): every value the
command resolved (an exponent or a grid size taken from another parameter or
from an input file) is echoed as it was used, and a parameter the command
ignored is echoed as null.

A failing command writes nothing.  ``--out`` is created with its first file,
which is written after the computation, so an unwritable ``--out`` is
reported (exit 2) once the result is ready.

Exit codes: 0 on success, 2 on usage errors (bad flags or config values,
invalid parameter ranges, unreadable inputs, unwritable output), 3 on
numerical failure (Gram factorization).
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import scipy

from . import __version__
from .experiments import (
    TRUTH_GAUSSIAN, TRUTH_KINDS, TRUTH_VORTEX, Trial, TrialConfig, aggregate_point,
    run_comparison, spectral_validation, sweep_alpha, sweep_density,
)
from .gp_inference import ObservationSet, fit_posterior, greedy_sensor_placement, normal_quantile
from .io import read_field_dump, write_csv, write_field_dump, write_json, write_manifest
from .kernels import (
    FAMILIES, FAMILY_CHT, FAMILY_RBF, FactorizationError, KernelSpec, build_kernel_table,
    check_admissible, spectral_density,
)
from .spectral_field import GridSpec, RealField, radial_spectrum, sample_gaussian_field

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

ENV_SEED = "TURBOGP_SEED"

#: Power-law exponent fit to a vortex truth when ``--alpha`` is unset.
VORTEX_RECONSTRUCTION_ALPHA = 1.25


class UsageError(Exception):
    pass


class Param(NamedTuple):
    """One command parameter: flag ``--name`` (dashes for underscores) and config key ``name``."""

    name: str
    type: Callable[[str], object]
    default: object = None
    choices: tuple = ()
    help: str = ""


class Command(NamedTuple):
    handler: Callable[[dict], None]
    help: str
    params: tuple[Param, ...]


def _checked(convert: Callable[[str], object], valid: Callable, what: str) -> Callable:
    """A flag converter that rejects unparsable and invalid text alike."""

    def parse(text: str):
        try:
            value = convert(text)
            if valid(value):
                return value
        except (ValueError, argparse.ArgumentTypeError):
            pass
        raise argparse.ArgumentTypeError(f"expected {what}: {text!r}")

    return parse


def _parts(convert: Callable[[str], object]) -> Callable[[str], list]:
    return lambda text: [convert(part) for part in text.split(",") if part != ""]


_finite = _checked(float, math.isfinite, "a finite number")
_float_list = _checked(_parts(_finite), bool, "comma-separated finite numbers")
_int_list = _checked(_parts(int), bool, "comma-separated integers")
_LIST_TYPES = (_float_list, _int_list)
#: trials, seeds, picks and worker threads
_count = _checked(int, lambda value: value >= 1, "an integer >= 1")
_seed = _checked(int, lambda value: value >= 0, "an integer >= 0")
_level = _checked(float, lambda value: 0.0 < value < 1.0, "a level strictly between 0 and 1")


# Rows shared by several commands, with the same meaning in each.
_N = Param("n", int, 128, help="grid points per side")
_M = Param("m", int, 100, help="observations per trial")
_ALPHA_TRUE = Param("alpha_true", _finite, 1.5, help="exponent of the gaussian truth")
_ALPHA = Param(
    "alpha", _finite,
    help="power-law exponent of the prior (default: --alpha-true, or "
    f"{VORTEX_RECONSTRUCTION_ALPHA} against a vortex --truth)",
)
_NOISE = Param("noise", _finite, 0.1, help="noise std as a fraction of the truth's RMS")
_TRIALS = Param("trials", _count, 20, help="independent trials")
_GAMMA = Param(
    "gamma", _finite, 1.0,
    help="dissipation exponent, in (2/3, 1]; only checks that alpha is admissible, "
    "since the prior depends on alpha alone",
)
_JOBS = Param("jobs", _count, os.cpu_count() or 1, help="worker threads, one per core unless set")
_TRUTH = Param("truth", str, TRUTH_GAUSSIAN, TRUTH_KINDS, "kind of ground-truth field")
_KERNEL = Param("kernel", str, FAMILY_CHT, FAMILIES, "prior kernel family")
_LENGTH_SCALE = Param("length_scale", _finite, help="baseline length scale")
_NU = Param("nu", _finite, help="Matern smoothness, required for --kernel matern")
_COMMON = (
    Param("seed", _seed, help=f"master seed (default: env {ENV_SEED}, then 0)"),
    Param("out", str, ".", help="output directory"),
)


def _from_config(param: Param, raw) -> object:
    """A config-file value read exactly as its flag would be."""
    if isinstance(raw, list) and param.type in _LIST_TYPES:
        text = ",".join(map(str, raw))
    else:
        text = str(raw)
    try:
        value = param.type(text)
    except (argparse.ArgumentTypeError, ValueError) as exc:
        raise UsageError(f"config key {param.name!r}: invalid value {raw!r} ({exc})") from exc
    if param.choices and value not in param.choices:
        raise UsageError(f"config key {param.name!r}: {value!r} is not one of {list(param.choices)}")
    return value


def _read_config(path_text: str) -> dict:
    try:
        config = json.loads(Path(path_text).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {path_text}: {exc}") from exc
    if not isinstance(config, dict):
        raise UsageError(f"config file {path_text} must hold a JSON object")
    return config


def _resolve(args: argparse.Namespace, params: tuple[Param, ...]) -> dict:
    """Merge flag values, config-file values, and table defaults.

    Flags win over the config file, which wins over defaults; a config
    ``null`` leaves the default.  Unknown config keys are rejected to catch
    typos.
    """
    config = _read_config(args.config) if args.config else {}
    unknown = set(config) - {param.name for param in params}
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for param in params:
        value = getattr(args, param.name)
        if value is None and config.get(param.name) is not None:
            value = _from_config(param, config[param.name])
        out[param.name] = param.default if value is None else value
    return out


def _coerce_seed(value) -> int:
    if value is not None:
        return value
    env = os.environ.get(ENV_SEED)
    if not env:
        return 0
    try:
        return _seed(env)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"environment variable {ENV_SEED}: {exc}") from exc


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


def _prior(params: dict) -> KernelSpec:
    """The prior of ``--kernel``, a power law for a command without one.

    A power law's exponent, ``--alpha`` or its default, must be admissible
    with ``--gamma``, which a baseline ignores and echoes null.  ``alpha``,
    ``length_scale`` and ``nu`` are echoed as the built spec holds them, so a
    value the family ignores is echoed null.
    """
    family = params.get("kernel", FAMILY_CHT)
    if family == FAMILY_CHT:
        if params["alpha"] is None:
            vortex = params.get("truth") == TRUTH_VORTEX
            params["alpha"] = VORTEX_RECONSTRUCTION_ALPHA if vortex else params["alpha_true"]
        _check_alpha_gamma(params["alpha"], params["gamma"])
        spec = KernelSpec.cht(params["alpha"])
    elif family == FAMILY_RBF:
        spec = KernelSpec.rbf(params["length_scale"])
    elif params["nu"] is None:
        raise UsageError("matern kernel requires --nu")
    else:
        spec = KernelSpec.matern(params["nu"], params["length_scale"])
    if family != FAMILY_CHT:
        params["gamma"] = None
    for key in params.keys() & {"alpha", "length_scale", "nu"}:
        params[key] = getattr(spec, key)
    return spec


def _trial_config(params: dict, candidates: tuple[KernelSpec, ...], m: int) -> TrialConfig:
    """The trial of ``m`` observations on which the command scores ``candidates``.

    A ``--field`` dump gives the truth in place of ``--truth``, and only a
    gaussian truth reads ``--alpha-true``: what the truth ignored is echoed null.
    """
    config = TrialConfig(
        grid_n=params["n"],
        alpha_true=params["alpha_true"],
        kernel_candidates=candidates,
        m=m,
        noise_ratio=params["noise"],
        master_seed=params["seed"],
        truth_kind=params.get("truth", TRUTH_GAUSSIAN),
    )
    if params.get("field"):
        params["truth"] = None
    if params.get("truth", TRUTH_GAUSSIAN) != TRUTH_GAUSSIAN:
        params["alpha_true"] = None
    return config


def cmd_sample(params: dict) -> None:
    density = spectral_density(_prior(params), GridSpec(params["n"]))
    field = sample_gaussian_field(density, params["seed"])
    spectrum = radial_spectrum(field)
    outdir = Path(params["out"])
    write_field_dump(outdir / "field.json", field, seed=params["seed"], alpha=params["alpha"])
    write_csv(
        outdir / "spectrum.csv",
        ["k", "shell_avg_power", "shell_sum_power", "mode_count"],
        zip(spectrum.k, spectrum.shell_avg_power, spectrum.shell_sum_power, spectrum.mode_count),
    )


def cmd_validate_spectrum(params: dict) -> None:
    for alpha in params["alphas"]:
        _check_alpha_gamma(alpha, 1.0)
    results = spectral_validation(
        params["alphas"], GridSpec(params["n"]), params["seeds"],
        master_seed=params["seed"], k_min=params["k_min"], k_max=params["k_max"],
    )
    write_csv(
        Path(params["out"]) / "exponents.csv",
        ["alpha", "estimator", "exponent", "stderr", "k_min", "k_max", "r_squared"],
        [
            (res.alpha, estimator, fit.exponent, fit.exponent_stderr,
             fit.k_min, fit.k_max, fit.r_squared)
            for res in results
            for estimator, fit in (("shell_sum", res.shell_sum_fit), ("mode_avg", res.mode_avg_fit))
        ],
    )


def _write_sweep(path: Path, axis_name: str, points, axis=float) -> None:
    write_csv(
        path,
        [axis_name, "mean_improvement", "std_improvement", "win_rate", "trials"],
        [(axis(p.axis_value), p.mean_improvement, p.std_improvement, p.win_rate, p.trial_count)
         for p in points],
    )


def _trials_rows(results) -> list[tuple]:
    return [
        (res.seed, tag, score.eps, score.rmse, res.improvement_pct, res.winner)
        for res in results
        for tag, score in res.per_kernel.items()
    ]


def cmd_compare(params: dict) -> None:
    prior, baseline = _prior(params), KernelSpec.rbf(None)
    base = _trial_config(params, (prior, baseline), params["m"])
    results = run_comparison(base, params["trials"], jobs=params["jobs"])
    outdir = Path(params["out"])
    write_csv(
        outdir / "trials.csv",
        ["seed", "kernel", "eps", "rmse", "improvement_pct", "winner"],
        _trials_rows(results),
    )
    eps_cht = np.array([r.per_kernel[prior.tag].eps for r in results])
    eps_rbf = np.array([r.per_kernel[baseline.tag].eps for r in results])
    point = aggregate_point(prior.alpha, results)
    write_json(outdir / "summary.json", {
        "trials": len(results),
        "mean_eps_cht": float(eps_cht.mean()),
        "mean_eps_rbf": float(eps_rbf.mean()),
        "std_eps_cht": float(eps_cht.std(ddof=1)) if len(results) > 1 else 0.0,
        "std_eps_rbf": float(eps_rbf.std(ddof=1)) if len(results) > 1 else 0.0,
        "win_rate": point.win_rate,
        "mean_improvement_pct": point.mean_improvement,
        "std_improvement_pct": point.std_improvement,
    })


def cmd_sweep_alpha(params: dict) -> None:
    for alpha in params["alphas"]:
        _check_alpha_gamma(alpha, params["gamma"])
    base = _trial_config(params, (KernelSpec.rbf(None),), params["m"])
    sweep = sweep_alpha(base, params["alphas"], params["trials"], jobs=params["jobs"])
    outdir = Path(params["out"])
    _write_sweep(outdir / "alpha.csv", "alpha", sweep.points)
    best = max(sweep.points, key=lambda p: p.mean_improvement)
    write_json(outdir / "summary.json", {
        "best_alpha": best.axis_value,
        "best_mean_improvement": best.mean_improvement,
        "all_points_positive": bool(all(p.mean_improvement > 0 for p in sweep.points)),
    })


def cmd_sweep_density(params: dict) -> None:
    base = _trial_config(params, (_prior(params), KernelSpec.rbf(None)), params["m"][0])
    sweep = sweep_density(base, params["m"], params["trials"], jobs=params["jobs"])
    outdir = Path(params["out"])
    _write_sweep(outdir / "density.csv", "m", sweep.points, axis=int)
    write_json(outdir / "summary.json", {
        "improvement_increases_with_density": bool(
            sweep.points[-1].mean_improvement > sweep.points[0].mean_improvement
        ),
        "first_point_mean_improvement": sweep.points[0].mean_improvement,
        "last_point_mean_improvement": sweep.points[-1].mean_improvement,
    })


def cmd_place_sensors(params: dict) -> None:
    if params["kernel"] != FAMILY_CHT and params["length_scale"] is None:
        raise UsageError(f"{params['kernel']} placement requires --length-scale")
    spec = _prior(params)
    grid = GridSpec(params["n"])
    stride = params["candidate_stride"]
    if stride < 1 or grid.n % stride != 0:
        raise UsageError("--candidate-stride must be a positive divisor of n")
    noise_variance = params["noise_variance"]
    empty = ObservationSet(
        locations=np.zeros((0, 2), dtype=np.int64), values=np.zeros(0), noise_variance=noise_variance
    )
    table = build_kernel_table(spec, grid)
    # every stride-th point of each axis is a candidate, picked at most once
    candidates = np.zeros((grid.n, grid.n), dtype=bool)
    candidates[::stride, ::stride] = True
    picks = greedy_sensor_placement(table, empty, candidates, params["count"])
    params["seed"] = None  # placement draws nothing

    rows = []
    for order, point in enumerate(picks):
        pseudo = ObservationSet(
            locations=np.asarray(picks[: order + 1], dtype=np.int64),
            values=np.zeros(order + 1),
            noise_variance=noise_variance,
        )
        post = fit_posterior(table, pseudo)
        # the last pivot squared is the Schur complement of the earlier picks:
        # the pick's variance given them, plus its noise and jitter
        variance = float(post.chol[-1, -1]) ** 2 - noise_variance - post.jitter
        rows.append((order, point[0], point[1], max(variance, 0.0)))
    write_csv(Path(params["out"]) / "sensors.csv", ["order", "ix", "iy", "variance"], rows)


def _read_truth(path_text: str) -> RealField:
    try:
        return read_field_dump(path_text)
    except OSError as exc:
        raise UsageError(f"cannot read field dump {path_text}: {exc}") from exc


def cmd_reconstruct(params: dict) -> None:
    truth = None
    if params["field"]:
        # the dump is the truth and sets the grid
        dropped = [f"--{p.name}" for p in (_TRUTH, _N) if params[p.name] != p.default]
        if dropped:
            raise UsageError(f"--field gives the truth and its grid; drop {' and '.join(dropped)}")
        truth = _read_truth(params["field"])
        params["n"] = truth.grid.n
    spec = _prior(params)
    trial = Trial.draw(_trial_config(params, (spec,), params["m"]), truth)
    score, post = trial.score(spec, jobs=params["jobs"])
    mean, variance, clamped = post.mean_field, post.variance_field, post.clamp_count
    jitter = post.jitter
    del post  # its factor and unclamped variance are freed before the band
    outdir = Path(params["out"])
    write_field_dump(outdir / "mean.json", mean, seed=params["seed"])
    write_field_dump(outdir / "variance.json", variance, seed=params["seed"])

    level = params["level"]
    z = normal_quantile(level)
    # two grids: the half-width and the error, each formed in place
    half = np.sqrt(variance.values)
    half *= z
    error = np.subtract(trial.truth.values, mean.values)
    inside = np.abs(error, out=error) <= half
    write_json(outdir / "credible_summary.json", {
        "level": level,
        "z": z,
        "coverage": float(np.mean(inside)),
        "mean_interval_halfwidth": float(half.mean()),
        "clamped_points": clamped,
        "rmse": score.rmse,
        "eps": score.eps,
        "kernel": score.resolved_tag,
        "jitter": jitter,
    })


def _command(handler: Callable[[dict], None], help: str, *params: Param) -> Command:
    return Command(handler, help, params + _COMMON)


COMMANDS: dict[str, Command] = {
    "sample": _command(
        cmd_sample, "draw a power-law field and dump it with its spectrum",
        _N, Param("alpha", _finite, 1.5, help="spectral exponent"), _GAMMA,
    ),
    "validate-spectrum": _command(
        cmd_validate_spectrum, "fit measured spectral exponents per alpha",
        Param("alphas", _float_list, (1.5, 2.0, 2.5), help="spectral exponents"),
        _N,
        Param("seeds", _count, 10, help="samples averaged per alpha"),
        Param("k_min", int, help="lowest fitted shell (default: automatic)"),
        Param("k_max", int, help="highest fitted shell (default: automatic)"),
    ),
    "compare": _command(
        cmd_compare, "power-law vs tuned RBF reconstruction over trials",
        _TRUTH, _N, _ALPHA_TRUE, _ALPHA, _M, _NOISE, _TRIALS, _GAMMA, _JOBS,
    ),
    "sweep-alpha": _command(
        cmd_sweep_alpha, "improvement vs reconstruction exponent",
        Param("alphas", _float_list, (0.75, 1.0, 1.25, 1.5), help="reconstruction exponents"),
        _ALPHA_TRUE, _N, _M, _NOISE, _TRIALS, _GAMMA, _JOBS,
    ),
    "sweep-density": _command(
        cmd_sweep_density, "improvement vs observation count",
        Param("m", _int_list, (20, 60, 150), help="observation counts"),
        _ALPHA_TRUE, _ALPHA, _N, _NOISE, _TRIALS, _GAMMA, _JOBS,
    ),
    "place-sensors": _command(
        cmd_place_sensors, "greedy max-variance sensor placement",
        Param("n", int, 64, help="grid points per side"),
        _KERNEL,
        Param("alpha", _finite, 1.5, help="power-law exponent"),
        _LENGTH_SCALE, _NU,
        Param("count", _count, 8, help="sensors to place"),
        # a non-finite or negative value is rejected by ObservationSet
        Param("noise_variance", float, 0.01, help="sensor noise variance"),
        Param("candidate_stride", int, 1, help="candidate spacing, a divisor of n"),
        _GAMMA,
    ),
    "reconstruct": _command(
        cmd_reconstruct, "posterior mean/variance fields and credible summary",
        Param("field", str, help="truth field dump (json header path) instead of --truth and --n"),
        _TRUTH, _N, _ALPHA_TRUE, _M, _NOISE, _KERNEL, _ALPHA, _LENGTH_SCALE, _NU,
        Param("level", _level, 0.95, help="credible level"),
        _GAMMA, _JOBS,
    ),
}


def _help_text(param: Param) -> str:
    if param.default is None:
        return param.help
    default = param.default
    if isinstance(default, tuple):
        default = ",".join(map(str, default))
    return f"{param.help} (default: {default})"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="turbogp",
        description="Stationary GP priors for 2D turbulent vorticity: sampling, "
        "spectra, reconstruction benchmarks, sensor placement.",
    )
    parser.add_argument("--version", action="version", version=f"turbogp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for param in command.params:
            p.add_argument(
                "--" + param.name.replace("_", "-"),
                type=param.type,
                choices=param.choices or None,
                help=_help_text(param),
            )
        p.add_argument("--config", help="JSON config file of these parameters; flags override it")
    return parser


#: numpy's and scipy's vendored OpenBLAS, with the suffix of their thread-count symbols.
_VENDORED_OPENBLAS = ((np, "64_"), (scipy, ""))


@functools.cache
def _openblas_thread_controls() -> tuple[tuple[Callable[[], int], Callable[[int], None]], ...]:
    """``(get, set)`` thread-count functions of each vendored OpenBLAS, loaded once.

    A library that does not export both ``scipy_openblas`` functions is left out.
    """
    controls = []
    for package, suffix in _VENDORED_OPENBLAS:
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob("*openblas*")):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is None or set_ is None:
                continue
            get.argtypes, get.restype = (), ctypes.c_int
            set_.argtypes, set_.restype = (ctypes.c_int,), None
            controls.append((get, set_))
    return tuple(controls)


def _pin_one_blas_thread() -> tuple[list[tuple[Callable, int]], int | None]:
    """Set every vendored OpenBLAS to one thread.

    Returns each setter called with the count to restore, and the largest
    count a library then reports (1), or None when no library is found.
    """
    controls = _openblas_thread_controls()
    restore = [(set_, get()) for get, set_ in controls]
    for set_, _ in restore:
        set_(1)
    return restore, max((get() for get, _ in controls), default=None)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    command = COMMANDS[args.command]
    restore, blas_threads = _pin_one_blas_thread()
    try:
        params = _resolve(args, command.params)
        params["seed"] = _coerce_seed(params["seed"])
        command.handler(params)
        write_manifest(
            params["out"], args.command, params, time.perf_counter() - start, blas_threads
        )
    except (UsageError, ValueError) as exc:
        print(f"turbogp: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"turbogp: error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FactorizationError as exc:
        print(f"turbogp: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    finally:
        for set_, count in restore:
            set_(count)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
