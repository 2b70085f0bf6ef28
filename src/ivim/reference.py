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

from .codegen import _NAMESPACE
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
        """Each component read linearly onto ``nodes``: (k, len(nodes)).  A node
        more than 1e-12 of the span outside it, which ``np.interp`` would
        clamp, is a ``ValueError`` naming the span and the node; so is NaN."""
        nodes = np.asarray(nodes, dtype=float)
        first, last = float(self.nodes[0]), float(self.nodes[-1])
        pad = 1e-12 * (last - first)
        outside = ~((nodes >= first - pad) & (nodes <= last + pad))
        if outside.any():
            raise ValueError(f"reference on [{first}, {last}] does not cover t={nodes[outside][0]}")
        return np.vstack([np.interp(nodes, self.nodes, row) for row in self.values])


class ErrorMetrics(NamedTuple):
    max_abs: float
    per_node_abs: np.ndarray


def rk4_reference(sys: IvpSystem, step: float) -> ReferenceSolution:
    """Classical 4-stage Runge-Kutta trajectory at fixed step.

    ``step`` must divide the interval to within 1e-9 relative, into no more
    steps than one array can hold.  Integration starts from the original
    (unshifted) initial values.  The steps run in one generated loop
    (``_march``), which holds the state in locals and writes each step into
    ``values``.  A stage evaluates the text ``sys.rhs[j].inline`` of a
    compiled right-hand side in place and calls any other rhs as
    ``sys.rhs[j](t, state)``, ``state`` a list it may only index; either
    returns a real scalar.  The state is one ``np.float64`` per component
    when some rhs is called, so that rhs sees ``np.float64`` items
    (``U[0] ** 2`` overflows to inf rather than raising), and one Python
    float otherwise.  IEEE arithmetic is the same on both types, so the
    trajectory has the same bits either way.  Per component the arithmetic
    is that of ``y + h/6 (k1 + 2 k2 + 2 k3 + k4)``, in that order.  Numpy's
    floating-point warnings are off for the whole run.

    A step that turns the state non-finite raises ``ValueError`` naming the
    equation and ``t`` if a stage of it returned NaN at a finite state
    (``f`` outside its domain), and ``DivergenceError`` naming ``t``
    otherwise; both read the stages the march ran.  A step whose nodes
    float64 cannot tell apart raises ``ValueError`` naming the step and the
    interval, before the first step.
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
    stage = ", ".join(f"s{j}" for j in range(sys.k))
    slopes = tuple(getattr(f, "inline", f"f{j}(t, [{stage}])") for j, f in enumerate(sys.rhs))
    called = not all(hasattr(f, "inline") for f in sys.rhs)
    start = list(values[:, 0]) if called else values[:, 0].tolist()
    with np.errstate(all="ignore"):
        failed = _march(slopes)(sys.rhs, start, values, sys.a, h, nsteps)
        if failed:
            i, stages = failed
            for t, u, k in stages:
                if not all(map(math.isfinite, u)):
                    break
                for j, kj in enumerate(k):
                    if math.isnan(kj):
                        raise ValueError(
                            f"right-hand side of equation {j + 1} is nan at t={t} "
                            f"(RK4 stage, u={[float(x) for x in u]}): outside its domain"
                        )
            raise DivergenceError(f"RK4 state became non-finite at t={sys.a + (i + 1) * h}")
    return ReferenceSolution(nodes=nodes, values=values, source=("rk4", step))


@functools.lru_cache(maxsize=32)
def _march(slopes: tuple) -> Callable:
    """``march(rhs, start, values, a, h, nsteps)``: the RK4 loop of
    ``rk4_reference`` for ``k = len(slopes)`` equations; the last 32 are
    kept, keyed by their texts.

    The state is held in locals ``y0 .. y{k-1}``, from the list ``start``
    (Python floats or ``np.float64``, a type the state keeps).  A stage puts
    its time in ``t`` and its state in ``s0 .. s{k-1}``; ``slopes[j]``, with
    ``f{j}`` bound to ``rhs[j]``, is equation ``j``'s slope.  Step ``i``'s
    state goes into ``values[:, i]`` through a memoryview of each row.  The
    march returns ``None``, or, at the first step whose new state is not
    finite, its index and its four stages as ``(t, state, slopes)``.
    """
    k = len(slopes)

    def each(template: str, sep: str = ", ") -> str:
        return sep.join(template.format(j=j) for j in range(k))

    stages = (("ta", "y{j}"), ("ta + half", "y{j} + half * k1_{j}"),
              ("ta + half", "y{j} + half * k2_{j}"), ("ta + h", "y{j} + h * k3_{j}"))
    body = "\n        ".join(
        f"t = {t}; {each('s{j}')}, = {each(state)},\n        "
        + "; ".join(f"k{n}_{j} = {text}" for j, text in enumerate(slopes))
        for n, (t, state) in enumerate(stages, 1))
    record = ", ".join(f"({t}, ({each(state)},), ({each(f'k{n}_{{j}}')},))"
                       for n, (t, state) in enumerate(stages, 1))
    src = f"""\
def march(rhs, start, values, a, h, nsteps):
    {each("f{j}")}, = rhs
    {each("y{j}")}, = start
    {each("r{j}")}, = map(memoryview, values)
    half = 0.5 * h
    sixth = h / 6.0
    ta = a
    for i in range(1, nsteps + 1):
        {body}
        {each("n{j} = y{j} + sixth * (k1_{j} + 2.0 * k2_{j} + 2.0 * k3_{j} + k4_{j})", "; ")}
        if not ({each("isfinite(n{j})", " and ")}):
            break
        {each("y{j} = r{j}[i] = n{j}", "; ")}
        ta = a + i * h
    else:
        return None
    return i - 1, ({record})
"""
    namespace = {**_NAMESPACE, "isfinite": math.isfinite}
    exec(compile(src, f"<rk4 loop of {k} equations>", "exec"), namespace)
    return namespace.pop("march")


def error_metrics(sol: SolveReport, ref: ReferenceSolution) -> ErrorMetrics:
    """Per-node absolute error, the max over components.

    ``ref.at`` reads the reference onto the solution nodes, so a reference
    coarser or finer than the grid serves, if it covers the interval.  A
    NaN error stays NaN; an error past float64 is inf.  ``ivim converge``
    reads a closed form's error from ``report.errors``, which has the bits
    of ``per_node_abs``.
    """
    k = len(sol.iterate)
    if ref.values.shape[0] != k:
        raise ValueError(f"component mismatch: reference has {ref.values.shape[0]}, solution {k}")
    with np.errstate(all="ignore"):
        per_node = np.max(np.abs(sol.nodal_values() - ref.at(sol.grid.nodes)), axis=0)
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
