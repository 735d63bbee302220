"""Per-layer tracing from outside the program.

``Tracer`` wraps every public function of turbogp's modules and records one
span per call: name, start, end, thread and the span that called it.  The
wrappers are bound at every import site: ``cli`` and ``experiments`` bind
function names at import time, so patching the defining module alone would
miss their calls.  Call stacks are thread-local, so spans made in the
``--jobs`` thread pool nest under the ``run_trial`` that made them and not
under whatever the main thread is doing.  Spans are kept in memory and
reduced to per-layer metrics after each command.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

LAYERS = ("experiments", "spectral_field", "kernels", "gp_inference", "io", "cli")


def _dump_bytes(args, kwargs, result) -> int:
    json_path = Path(kwargs.get("json_path", args[0]))
    return json_path.stat().st_size + json_path.with_suffix(".bin").stat().st_size


def _run_comparison_jobs(args, kwargs, result) -> int:
    return int(kwargs.get("jobs", args[2] if len(args) > 2 else 1))


#: What a span records about its call, beyond timing, for the metrics that need it.
ANNOTATIONS: dict[str, Callable[[tuple, dict, Any], Any]] = {
    "kernels.build_kernel_table": lambda args, kwargs, table: (table.spec, table.grid),
    "kernels.robust_cholesky": lambda args, kwargs, result: result[1] != 0.0,
    "io.write_field_dump": _dump_bytes,
    "experiments.run_comparison": _run_comparison_jobs,
}


@dataclass
class Span:
    span_id: int
    parent_id: int  # 0 for a span with no caller on its thread
    name: str
    thread: int
    start: float
    end: float
    note: Any = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: arguments of the latest ``fit_posterior`` call, replayed for its memory peak
        self.last_fit_args: tuple | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._bindings: list[tuple[object, str, Callable]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable) -> Callable:
        annotate = ANNOTATIONS.get(name)
        keep_args = name == "gp_inference.fit_posterior"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(next(self._ids), stack[-1] if stack else 0, name, threading.get_ident(), 0.0, 0.0)
            stack.append(span.span_id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)
            if annotate is not None:
                span.note = annotate(args, kwargs, result)
            if keep_args:
                self.last_fit_args = (fn, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        """Replace each public function of each layer wherever turbogp binds it."""
        wrappers: dict[Callable, Callable] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"turbogp.{layer}")
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "turbogp" and not mod_name.startswith("turbogp."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(obj) if inspect.isfunction(obj) else None
                if wrapper is not None:
                    self._bindings.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def take_spans(self) -> list[Span]:
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


class TraceError(Exception):
    """The spans of a command do not have the shape its workload implies."""


def check_nesting(spans: list[Span], main_thread: int, root: str, pool_roots: set[str]) -> None:
    """Every span lies inside its caller's interval on the caller's thread.

    The only caller-less spans are ``root`` on the main thread and, on pool
    threads, the functions the CLI hands to its thread pool.
    """
    by_id = {s.span_id: s for s in spans}
    for s in spans:
        if s.parent_id == 0:
            if not (s.name == root if s.thread == main_thread else s.name in pool_roots):
                raise TraceError(f"span {s.name} has no caller on thread {s.thread}")
            continue
        parent = by_id.get(s.parent_id)
        if parent is None or parent.thread != s.thread or not (parent.start <= s.start <= s.end <= parent.end):
            raise TraceError(f"span {s.name} does not nest inside its caller")


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def layer_stats(spans: list[Span]) -> dict[str, LayerStats]:
    """Calls, total time and self time (total minus time in traced callees) per function."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        child_time[s.parent_id] += s.end - s.start
    stats: dict[str, LayerStats] = defaultdict(LayerStats)
    for s in spans:
        st = stats[s.name]
        st.calls += 1
        st.total_s += s.end - s.start
        st.self_s += s.end - s.start - child_time[s.span_id]
    return stats
