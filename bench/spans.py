"""Span tracing of ivim's layers from outside the package.

The tracer replaces public functions of the ``ivim`` modules with wrappers
that record a span per call: name, start, end, parent span and op id.  Spans
stay in memory until the run ends, when ``layer_metrics`` folds them into
per-layer numbers.  ``install`` and ``uninstall`` swap the wrappers in and
out, so traced and untraced ops can alternate in one process.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import time
from dataclasses import dataclass
from typing import Callable, Optional

# Share of equation-sweeps counted as stiff: |alpha| (T - a) above this.
STIFF_SPAN = 30.0

MAIN = "cli.main"
GET_PROBLEM = "problems.get_problem"
SOLVE = "engine.solve"
RK4 = "reference.rk4"
ERROR_METRICS = "reference.error_metrics"
PROJECT = "grid.project_samples"
STEP = "engine.ivim_step"
DIFF_NORM = "engine.diff_norm"
RHS = "engine.rhs"


class HookError(RuntimeError):
    """A hook target is missing from the package."""


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root span
    op: int
    info: Optional[dict]
    start: float = 0.0
    end: float = 0.0
    children_s: float = 0.0  # time covered by direct children

    @property
    def duration(self) -> float:
        return self.end - self.start


def _project_info(grid, *_args, **_kwargs):
    return {"nodes": grid.n}


def _step_info(state, system, grid, *_args, **_kwargs):
    width = grid.T - grid.a
    return {
        "node_sweeps": grid.n * system.k,
        "eq_sweeps": system.k,
        "stiff_eq_sweeps": sum(abs(alpha) * width > STIFF_SPAN for alpha in system.alphas),
    }


def _rk4_info(system, step, *_args, **_kwargs):
    return {
        "steps": round((system.T - system.a) / float(step)),
        "key": (system.name, float(step)),
    }


# (module, attribute, span name, call info)
HOOKS = (
    ("ivim.cli", "solve", SOLVE, None),
    ("ivim.cli", "rk4_reference", RK4, _rk4_info),
    ("ivim.cli", "error_metrics", ERROR_METRICS, None),
    ("ivim.engine", "project_samples", PROJECT, _project_info),
    ("ivim.engine", "ivim_step", STEP, _step_info),
    ("ivim.engine", "successive_diff_norm", DIFF_NORM, None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def call(self, name: str, fn: Callable, *args, info: Optional[dict] = None, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        parent = self._stack[-1] if self._stack else -1
        span = Span(name=name, parent=parent, op=self.op, info=info)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent].children_s += span.duration

    def _wrap(self, name: str, info_fn: Optional[Callable], fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            info = info_fn(*args, **kwargs) if info_fn is not None else None
            return self.call(name, fn, *args, info=info, **kwargs)

        return wrapper

    def _wrap_rhs(self, fn: Callable) -> Callable:
        # rk4_reference calls the same callables once per stage; those calls
        # belong to its own span, so only sweeps record an rhs span
        def rhs(t, state):
            if self._stack and self.spans[self._stack[-1]].name == STEP:
                return self.call(RHS, fn, t, state)
            return fn(t, state)

        return rhs

    def _get_problem(self, fn: Callable) -> Callable:
        def get_problem(source):
            system, doc = self.call(GET_PROBLEM, fn, source)
            rhs = tuple(self._wrap_rhs(f) for f in system.rhs)
            return dataclasses.replace(system, rhs=rhs), doc

        return get_problem

    def _patch(self, module_name: str, attr: str, make: Callable) -> None:
        module = importlib.import_module(module_name)
        if not hasattr(module, attr):
            raise HookError(f"hook target {module_name}.{attr} is missing")
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            self._patch("ivim.cli", "get_problem", self._get_problem)
            for module_name, attr, name, info_fn in HOOKS:
                self._patch(module_name, attr, functools.partial(self._wrap, name, info_fn))
        except HookError:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(spans: list, scales: dict, cells: int, bytes_written: int) -> dict:
    """Per-op layer metrics from the spans of the traced ops.

    ``scales`` maps each traced op id to its calibration factor; times are
    seconds per op at the reference speed, averaged over the traced ops, and
    counts are per op.  ``cells`` and ``bytes_written`` describe one op's
    artifacts.
    """
    total = {}
    self_s = {}
    calls = {}
    for span in spans:
        scale = scales[span.op]
        total[span.name] = total.get(span.name, 0.0) + span.duration * scale
        self_s[span.name] = self_s.get(span.name, 0.0) + (span.duration - span.children_s) * scale
        calls[span.name] = calls.get(span.name, 0) + 1

    def info_sum(name: str, key: str) -> int:
        return sum(s.info[key] for s in spans if s.name == name)

    def per_op(x):
        return x / len(scales)

    step_s = per_op(total.get(STEP, 0.0))
    rhs_s = per_op(total.get(RHS, 0.0))
    node_sweeps = per_op(info_sum(STEP, "node_sweeps"))
    nodes = per_op(info_sum(PROJECT, "nodes"))
    rk4_s = per_op(total.get(RK4, 0.0))
    rk4_steps = per_op(info_sum(RK4, "steps"))
    rk4_keys = {(s.op, s.info["key"]) for s in spans if s.name == RK4}
    cli_self = per_op(self_s.get(MAIN, 0.0))
    diff_s = per_op(total.get(DIFF_NORM, 0.0))
    project_s = per_op(total.get(PROJECT, 0.0))
    return {
        "trace.op_s": (per_op(total.get(MAIN, 0.0)), "s"),
        "cli.self_s": (cli_self, "s"),
        "cli.ns_per_cell": (_ratio(cli_self, cells, 1e9), "ns"),
        "cli.cells": (cells, "count"),
        "cli.bytes_written": (bytes_written, "B"),
        "problems.get_problem_s": (per_op(total.get(GET_PROBLEM, 0.0)), "s"),
        "problems.calls": (per_op(calls.get(GET_PROBLEM, 0)), "count"),
        "grid.project_samples_s": (project_s, "s"),
        "grid.project_samples_nodes": (nodes, "count"),
        "grid.ns_per_node": (_ratio(project_s, nodes, 1e9), "ns"),
        "engine.solve_s": (per_op(total.get(SOLVE, 0.0)), "s"),
        "engine.sweeps": (per_op(calls.get(STEP, 0)), "count"),
        "engine.node_sweeps": (node_sweeps, "count"),
        "engine.ivim_step_s": (step_s, "s"),
        "engine.rhs_s": (rhs_s, "s"),
        "engine.update_s": (step_s - rhs_s, "s"),
        "engine.update_ns_per_node_sweep": (_ratio(step_s - rhs_s, node_sweeps, 1e9), "ns"),
        "engine.diff_norm_s": (diff_s, "s"),
        "engine.diff_norm_ns_per_node_sweep": (_ratio(diff_s, node_sweeps, 1e9), "ns"),
        "engine.solve_other_s": (per_op(self_s.get(SOLVE, 0.0)), "s"),
        "engine.stiff_sweep_share": (
            _ratio(info_sum(STEP, "stiff_eq_sweeps"), info_sum(STEP, "eq_sweeps")), "ratio"
        ),
        "reference.rk4_s": (rk4_s, "s"),
        "reference.rk4_calls": (per_op(calls.get(RK4, 0)), "count"),
        "reference.rk4_steps": (rk4_steps, "count"),
        "reference.rk4_ns_per_step": (_ratio(rk4_s, rk4_steps, 1e9), "ns"),
        "reference.rk4_distinct_ratio": (_ratio(len(rk4_keys), calls.get(RK4, 0)), "ratio"),
        "reference.error_metrics_s": (per_op(total.get(ERROR_METRICS, 0.0)), "s"),
    }
