"""Independent reference solutions and the scores against them.

Classical fixed-step RK4 and a problem's closed form, each held as a
``ReferenceSolution``, serve as oracles for the interpolated iteration;
``error_metrics`` and ``empirical_order`` score a solve against them.  When
a closed form exists it is the reference; otherwise ``ivim converge``
scores against an RK4 run.  A built-in's closed form at one ``t`` is
``problems.exact_builtin_eval``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .codegen import _NAMESPACE, _code
from .engine import DivergenceError, IvpSystem, SolveReport
from .grid import make_grid

__all__ = [
    "ReferenceSolution",
    "ErrorMetrics",
    "rk4_reference",
    "error_metrics",
    "empirical_order",
]


@dataclass(frozen=True)
class ReferenceSolution:
    """Trajectory on its own nodes; ``values`` has shape (k, len(nodes))."""

    nodes: np.ndarray
    values: np.ndarray
    source: tuple  # ("rk4", step) or ("closed_form", name)

    def __post_init__(self):
        nodes = np.ascontiguousarray(self.nodes, dtype=float)
        values = np.atleast_2d(np.ascontiguousarray(self.values, dtype=float))
        if values.shape[1] != nodes.size:
            raise ValueError("values and nodes do not line up")
        if not np.isfinite(nodes).all():
            i = int(np.flatnonzero(~np.isfinite(nodes))[0])
            raise ValueError(f"reference nodes must be finite: node {i + 1} is {nodes[i]}")
        if not (nodes[1:] > nodes[:-1]).all():
            raise ValueError("nodes must be strictly increasing")
        if not np.isfinite(values).all():
            j, i = np.argwhere(~np.isfinite(values))[0]
            raise ValueError(
                f"reference values must be finite: {self.source[0]} component {j + 1} "
                f"is {values[j, i]} at t={nodes[i]}"
            )
        nodes.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    def at(self, nodes) -> np.ndarray:
        """Each component interpolated linearly onto ``nodes``: (k, len(nodes))."""
        return np.vstack([np.interp(nodes, self.nodes, row) for row in self.values])


class ErrorMetrics(NamedTuple):
    max_abs: float
    per_node_abs: np.ndarray


def rk4_reference(sys: IvpSystem, step: float) -> ReferenceSolution:
    """Classical 4-stage Runge-Kutta trajectory at fixed step.

    ``step`` must divide the interval to within 1e-9 relative, into no more
    steps than one array can hold.  Integration starts from the original
    (unshifted) initial values.  When every right-hand side is compiled,
    the state is one Python float per component, and each stage evaluates
    the texts ``sys.rhs[j].inline`` written into the march itself, with the
    stage's state in locals (``_inline_march``).  Otherwise the state is one
    ``np.float64`` per component and each stage calls ``sys.rhs[j](t, state)``
    with ``state`` a list, so a callable of its own sees ``np.float64`` items
    (``U[0] ** 2`` overflows to inf rather than raising).  Either may only
    index the state and returns a real scalar.  IEEE arithmetic is the same
    on both types, so the trajectory has the same bits either way.  Per
    component the arithmetic is that of ``y + h/6 (k1 + 2 k2 + 2 k3 + k4)``,
    in that order.  The steps run in one generated loop, which holds the
    state in locals and writes each step
    into ``values``.  Numpy's floating-point warnings are off for the whole
    run.  A step that turns the state non-finite raises ``ValueError`` naming
    the equation and ``t`` if a stage of it returned NaN at a finite state
    (``f`` outside its domain), and ``DivergenceError`` naming ``t``
    otherwise.  A step whose nodes float64 cannot tell apart raises
    ``ValueError`` naming the step and the interval, before the first step.
    """
    step = float(step)
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    ratio = (sys.T - sys.a) / step
    if not math.isfinite(ratio):
        raise ValueError(
            f"step {step} gives no finite step count over the interval length {sys.T - sys.a}"
        )
    nsteps = int(round(ratio))
    if nsteps < 1 or abs(ratio - nsteps) > 1e-9:
        raise ValueError(
            f"step {step} does not divide the interval length {sys.T - sys.a}"
        )

    h = (sys.T - sys.a) / nsteps
    try:
        values = np.empty((sys.k, nsteps + 1))
    except ValueError as exc:  # past numpy's largest array, before any memory is asked for
        raise ValueError(
            f"step {step} gives {ratio:.3g} RK4 steps, too many for one array: {exc}"
        ) from None
    try:
        nodes = make_grid(sys.a, sys.T, nsteps + 1).nodes
    except ValueError:  # the interval and the count are valid, so the nodes collapse
        raise ValueError(
            f"RK4 step {step} puts {nsteps + 1} nodes on [{sys.a}, {sys.T}], "
            f"closer than float64 can separate"
        ) from None
    values[:, 0] = sys.initial
    with np.errstate(all="ignore"):
        if all(hasattr(f, "inline") for f in sys.rhs):
            march, start = _inline_march(sys.rhs), values[:, 0].tolist()
        else:
            march, start = _rk4_loop(sys.k), list(values[:, 0])
        i = march(sys.rhs, start, values, sys.a, h, nsteps)
        if i is not None:
            _reject_nan_stage(sys.rhs, sys.a + i * h, list(values[:, i]), h)
            raise DivergenceError(f"RK4 state became non-finite at t={sys.a + (i + 1) * h}")
    return ReferenceSolution(nodes=nodes, values=values, source=("rk4", step))


@functools.lru_cache(maxsize=32)
def _inline_march(rhs: tuple) -> Callable:
    """The march of ``_march`` with the texts ``f.inline`` of the compiled
    right-hand sides ``rhs`` written into it; kept per system."""
    namespace = {name: c for f in rhs for name, c in f.inline[1].items()}
    return _march(len(rhs), tuple(f.inline[0] for f in rhs), namespace, gather=False)


@functools.cache
def _rk4_loop(k: int) -> Callable:
    """The march of ``_march`` that calls ``rhs[j]`` on each stage's state list."""
    return _march(k, tuple(f"f{j}(t, s)" for j in range(k)), {}, gather=True)


def _march(k: int, slopes: tuple, namespace: dict, gather: bool) -> Callable:
    """``march(rhs, start, values, a, h, nsteps)``: the RK4 loop of
    ``rk4_reference`` for ``k`` equations, with the state in locals
    ``y0 .. y{k-1}``.

    A stage puts its time in ``t`` and its state in ``s0 .. s{k-1}`` (or,
    ``gather``, in the list ``s``); ``slopes[j]``, with ``f{j}`` bound to
    ``rhs[j]`` and ``namespace`` among the globals, is equation ``j``'s
    slope.  The march starts from the list ``start`` (Python floats or
    ``np.float64``, a type the state keeps), writes step ``i``'s state into
    ``values[:, i]`` through a memoryview of each row and returns the index
    of the first step whose new state is not finite, or ``None``.
    """

    def each(template: str, sep: str = ", ") -> str:
        return sep.join(template.format(j=j) for j in range(k))

    def stage(n: int, t: str, state: str) -> str:
        state = f"s = [{each(state)}]" if gather else f"{each('s{j}')}, = {each(state)},"
        slope = "; ".join(f"k{n}_{j} = {text}" for j, text in enumerate(slopes))
        return f"t = {t}; {state}\n        {slope}"

    src = f"""\
def march(rhs, start, values, a, h, nsteps):
    {each("f{j}")}, = rhs
    {each("y{j}")}, = start
    {each("r{j}")}, = map(memoryview, values)
    half = 0.5 * h
    sixth = h / 6.0
    ta = a
    for i in range(1, nsteps + 1):
        {stage(1, "ta", "y{j}")}
        tm = ta + half
        {stage(2, "tm", "y{j} + half * k1_{j}")}
        {stage(3, "tm", "y{j} + half * k2_{j}")}
        {stage(4, "ta + h", "y{j} + h * k3_{j}")}
        {each("n{j} = y{j} + sixth * (k1_{j} + 2.0 * k2_{j} + 2.0 * k3_{j} + k4_{j})", "; ")}
        if not ({each("isfinite(n{j})", " and ")}):
            return i - 1
        {each("y{j} = r{j}[i] = n{j}", "; ")}
        ta = a + i * h
"""
    namespace = {**_NAMESPACE, **namespace, "isfinite": math.isfinite}
    exec(_code(src, f"rk4 loop of {k} equations"), namespace)
    return namespace.pop("march")


def _reject_nan_stage(rhs, t: float, y: list, h: float) -> None:
    """Re-run the RK4 step from ``(t, y)`` and raise ``ValueError`` at the
    first stage where a right-hand side returns NaN at a finite state.

    Called only once a step has turned non-finite.  From the first stage at
    a non-finite state on, the step is left to the caller's divergence report.
    """
    k = None
    for dt in (0.0, 0.5 * h, 0.5 * h, h):
        state = y if k is None else [yj + dt * kj for yj, kj in zip(y, k)]
        if not all(map(math.isfinite, state)):
            return
        k = [f(t + dt, state) for f in rhs]
        for j, kj in enumerate(k):
            if math.isnan(kj):
                raise ValueError(
                    f"right-hand side of equation {j + 1} is nan at t={t + dt} "
                    f"(RK4 stage, u={[float(x) for x in state]}): outside its domain"
                )


def error_metrics(sol: SolveReport, ref: ReferenceSolution) -> ErrorMetrics:
    """Per-node absolute error, the max over components.

    The reference must cover the solution nodes and be at least as dense;
    ``ref.at`` puts it on the solution grid.  A NaN error stays NaN; an
    error past float64 is inf.  ``ivim converge`` reads a closed form's
    error from ``report.errors``, which has the bits of ``per_node_abs``.
    """
    nodes = sol.grid.nodes
    k = len(sol.iterate)
    if ref.values.shape[0] != k:
        raise ValueError(f"component mismatch: reference has {ref.values.shape[0]}, solution {k}")
    if ref.nodes.size < nodes.size:
        raise ValueError(
            f"grid mismatch: reference has {ref.nodes.size} nodes, "
            f"solution needs {nodes.size}"
        )
    pad = 1e-12 * (sol.grid.T - sol.grid.a)
    if ref.nodes[0] > sol.grid.a + pad or ref.nodes[-1] < sol.grid.T - pad:
        raise ValueError("reference does not cover the solution interval")
    with np.errstate(all="ignore"):
        per_node = np.max(np.abs(sol.nodal_values() - ref.at(nodes)), axis=0)
    return ErrorMetrics(max_abs=float(np.max(per_node)), per_node_abs=per_node)


def empirical_order(err_coarse: float, err_fine: float) -> float:
    """log2 of the error ratio under one grid doubling.

    Meaningful when the fine grid has (essentially) twice the cell count of
    the coarse one; the caller is responsible for that pairing.
    """
    if not (err_coarse > 0.0 and err_fine > 0.0):
        raise ValueError(
            f"errors must be positive, got {err_coarse!r} and {err_fine!r}"
        )
    return math.log2(err_coarse / err_fine)
