"""turbogp benchmark: one CLI workload, timed end to end or traced per layer.

Run from the repository root, with numpy and scipy installed:

    python3 bench/run.py --workload compare --seed 1 --seconds 15 --trace 0

``--trace 0`` times the workload's command in this process through
``turbogp.cli.main``, after a warm-up, for ``--seconds`` seconds, with no
instrumentation, and reports the end-to-end metrics.  ``--trace 1`` alternates
untraced commands with commands whose every turbogp function is wrapped by
``tracer.Tracer``, and reports the per-layer metrics and the tracing overhead.
Either way every command's output is checked against the workload's
reference (see ``workloads.py``); a command that exits non-zero or fails the
check counts as failed.

Human-readable lines come first; the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 when a result is printed, 1 when the traced span counts differ from what
the workload implies, and 2 when the repository's ``src/turbogp`` is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import scipy

from tracer import LayerStats, TraceError, Tracer, check_nesting, layer_stats

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_RUNS = 3
#: Commands run under tracemalloc per run (the peak repeats to about 1%); the median is reported.
MEMORY_RUNS = 1
MIB = 2.0**20

#: Per-layer metrics read off the span statistics: function -> (field, unit).
SPAN_METRICS = {
    "gp_inference.fit_posterior": (("calls", "count"), ("self_s", "s")),
    "gp_inference.select_hyperparameter": (("calls", "count"), ("self_s", "s")),
    "gp_inference.log_marginal_likelihood": (("calls", "count"), ("self_s", "s")),
    "gp_inference.greedy_sensor_placement": (("calls", "count"), ("self_s", "s")),
    "kernels.build_kernel_table": (("calls", "count"), ("self_s", "s")),
    "kernels.spectral_density": (("calls", "count"), ("self_s", "s")),
    "kernels.gram_matrix": (("calls", "count"), ("total_s", "s")),
    "kernels.robust_cholesky": (("calls", "count"), ("total_s", "s")),
    "experiments.run_trial": (("calls", "count"), ("total_s", "s")),
    "spectral_field.sample_gaussian_field": (("calls", "count"), ("total_s", "s")),
    "io.write_field_dump": (("calls", "count"), ("total_s", "s")),
    "io.write_csv": (("total_s", "s"),),
}
#: Per-layer metrics derived from span notes, set-up and the traced/untraced pairs.
DERIVED_UNITS = {
    "gp_inference.fit_posterior.peak_mb": "MiB",
    "kernels.build_kernel_table.distinct_ratio": "ratio",
    "kernels.robust_cholesky.jittered": "count",
    "experiments.run_comparison.parallel_efficiency": "ratio",
    "experiments.generate_truth.total_s": "s",
    "io.write_field_dump.bytes": "B",
    "setup.scipy_stats_import_s": "s",
    "setup.turbogp_import_s": "s",
    "tracing.untraced_wall_s": "s",
    "tracing.traced_wall_s": "s",
    "tracing.overhead_s": "s",
}


class SetupFailed(Exception):
    pass


def _subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _version_command(*interpreter_flags: str) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *interpreter_flags, "-m", "turbogp.cli", "--version"],
        cwd=ROOT, env=_subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0 or not proc.stdout.startswith("turbogp "):
        raise SetupFailed(f"turbogp --version exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return proc


def time_setup() -> float:
    """Fresh interpreter until ``python -m turbogp.cli --version`` exits."""
    start = time.perf_counter()
    _version_command()
    return time.perf_counter() - start


def import_times() -> dict[str, float]:
    """Cumulative import time of scipy.stats and of turbogp, from ``-X importtime``."""
    cumulative_us = {}
    for line in _version_command("-X", "importtime").stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative_us[parts[2].strip()] = int(parts[1])
    try:
        return {
            "setup.scipy_stats_import_s": cumulative_us["scipy.stats"] / 1e6,
            "setup.turbogp_import_s": cumulative_us["turbogp"] / 1e6,
        }
    except KeyError as exc:
        raise SetupFailed(f"-X importtime reported no {exc}") from exc


def _blas_threads() -> int | None:
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_context(workload) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "jobs": workload.jobs,
    }


@contextlib.contextmanager
def peak_memory(peaks: list):
    tracemalloc.start()
    try:
        yield
    finally:
        peaks.append(tracemalloc.get_traced_memory()[1] / MIB)
        tracemalloc.stop()


class Runner:
    """Runs the workload's command in-process and checks every output."""

    def __init__(self, workload, seed: int, outdir: Path) -> None:
        import turbogp.cli

        self.cli = turbogp.cli
        self.workload = workload
        self.seed = seed
        self.outdir = outdir
        self.reference = workload.reference(seed)
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, around=contextlib.nullcontext) -> float:
        """One command; returns its wall time, failed or not."""
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.outdir.mkdir(parents=True)
        argv = self.workload.command(self.seed, self.outdir)
        gc.collect()
        self.attempted += 1
        with around():
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)  # looked up per call: the tracer rebinds it
            except Exception as exc:  # a crash is a failed operation, not a benchmark error
                code = f"raised {exc!r}"
            wall = time.perf_counter() - start
        try:
            if code != 0:
                raise RuntimeError(f"exit code {code}")
            self.workload.check(self.outdir, self.reference)
        except Exception as exc:  # any failed check or unreadable output
            self.failures.append(f"{type(exc).__name__}: {exc}")
        return wall


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner, seconds: float) -> dict:
    setup = [time_setup() for _ in range(SETUP_RUNS)]
    runner.run()  # warm-up: imports, first-touch allocations, FFT plans
    walls = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        walls.append(runner.run())
    peaks: list[float] = []
    for _ in range(MEMORY_RUNS):
        runner.run(lambda: peak_memory(peaks))
    wall_s = statistics.median(walls)
    print(f"wall_s: median of {len(walls)} commands; quartiles {_quartiles(walls)}")
    print(f"setup_s: median of {SETUP_RUNS} fresh interpreters; peak_mem_mb: median of {MEMORY_RUNS} commands")
    return {
        "wall_s": _metric(wall_s, "s"),
        "trials_per_s": _metric(runner.workload.trials / wall_s, "1/s"),
        "peak_mem_mb": _metric(statistics.median(peaks), "MiB"),
        "setup_s": _metric(statistics.median(setup), "s"),
    }


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return "n/a"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4f}..{q3:.4f} s"


def span_metrics(spans, workload) -> dict[str, float]:
    """Per-layer metrics of one traced command; fails if its call counts are not the workload's."""
    stats = layer_stats(spans)
    for name, expected in workload.span_counts.items():
        got = stats[name].calls if name in stats else 0
        if got != expected:
            raise TraceError(f"{name}: {got} calls per command, the workload implies {expected}")
    out = {}
    for name, fields in SPAN_METRICS.items():
        st = stats.get(name, LayerStats())
        for field, _ in fields:
            out[f"{name}.{field}"] = getattr(st, field)

    def notes(name):
        return [s.note for s in spans if s.name == name]

    builds = notes("kernels.build_kernel_table")
    out["kernels.build_kernel_table.distinct_ratio"] = len(set(builds)) / len(builds) if builds else 0.0
    out["kernels.robust_cholesky.jittered"] = sum(map(bool, notes("kernels.robust_cholesky")))
    out["io.write_field_dump.bytes"] = sum(notes("io.write_field_dump"))
    pool_capacity = sum(s.note * (s.end - s.start) for s in spans if s.name == "experiments.run_comparison")
    trial_time = stats["experiments.run_trial"].total_s if "experiments.run_trial" in stats else 0.0
    out["experiments.run_comparison.parallel_efficiency"] = trial_time / pool_capacity if pool_capacity else 0.0
    out["experiments.generate_truth.total_s"] = sum(
        stats[name].total_s
        for name in ("experiments.generate_cht_truth", "experiments.generate_vortex_truth")
        if name in stats
    )
    return out


def replay_peak_mb(fit_call) -> float:
    """tracemalloc peak of the last ``fit_posterior`` call, replayed alone."""
    if fit_call is None:
        return 0.0
    fn, args, kwargs = fit_call
    peaks: list[float] = []
    gc.collect()
    with peak_memory(peaks):
        fn(*args, **kwargs)
    return peaks[0]


def per_layer(runner: Runner, seconds: float) -> dict:
    imports = [import_times() for _ in range(SETUP_RUNS)]
    runner.run()  # warm-up
    untraced, traced, per_command = [], [], []
    main_thread = threading.get_ident()
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        untraced.append(runner.run())
        traced.append(runner.run(tracer.installed))
        spans = tracer.take_spans()
        check_nesting(spans, main_thread, root="cli.main", pool_roots={"experiments.run_trial"})
        per_command.append(span_metrics(spans, runner.workload))
    for metrics in per_command[1:]:
        for name, value in metrics.items():
            if name.endswith(".calls") and value != per_command[0][name]:
                raise TraceError(f"{name} changed between commands: {per_command[0][name]} then {value}")

    values = {
        name: value if name.endswith(".calls") else statistics.median(m[name] for m in per_command)
        for name, value in per_command[0].items()
    }
    values.update({name: statistics.median(t[name] for t in imports) for name in imports[0]})
    values["gp_inference.fit_posterior.peak_mb"] = replay_peak_mb(tracer.last_fit_args)
    values["tracing.untraced_wall_s"] = statistics.median(untraced)
    values["tracing.traced_wall_s"] = statistics.median(traced)
    values["tracing.overhead_s"] = values["tracing.traced_wall_s"] - values["tracing.untraced_wall_s"]
    print(f"traced run: {len(traced)} traced and {len(untraced)} untraced commands, medians reported")

    units = {f"{name}.{field}": unit for name, fields in SPAN_METRICS.items() for field, unit in fields}
    units.update(DERIVED_UNITS)
    return {name: _metric(values[name], unit) for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "turbogp" / "__init__.py").is_file():
        print(f"bench: no turbogp sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    print(f"workload {workload.name}: {' '.join(workload.argv)}")
    print(f"  why: {workload.why}")
    print(f"  bypasses: {workload.bypasses}")
    print(f"context: {json.dumps(machine_context(workload), sort_keys=True)}")

    outdir = ROOT / ".bench_run" / f"{workload.name}-{os.getpid()}"
    try:
        runner = Runner(workload, args.seed, outdir)
        metrics = (per_layer if args.trace else end_to_end)(runner, args.seconds)
    except (TraceError, SetupFailed) as exc:
        print(f"bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            outdir.parent.rmdir()

    failed = len(runner.failures)
    for message in runner.failures[:5]:
        print(f"failed: {message}")
    print(f"error_rate: {failed / runner.attempted} fraction ({failed} of {runner.attempted} commands failed)")
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
