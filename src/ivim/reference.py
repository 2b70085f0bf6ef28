"""Independent reference solutions and error/convergence analytics.

Classical fixed-step RK4 and the closed-form solutions of the built-in
benchmark problems serve as oracles for the interpolated iteration.  When a
closed form exists it is the reference; otherwise RK4 with a step at least a
hundred times finer than the finest solve grid keeps the oracle error well
below the quantity being measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import DivergenceError, IvpSystem, SolveReport
from .problems import BUILTIN_PROBLEMS

__all__ = [
    "ReferenceSolution",
    "ErrorMetrics",
    "rk4_reference",
    "exact_builtin_eval",
    "error_metrics",
    "empirical_order",
]

_SQRT2 = math.sqrt(2.0)
_EX1_PHASE = 0.5 * math.log((_SQRT2 - 1.0) / (_SQRT2 + 1.0))


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
        if np.any(np.diff(nodes) <= 0):
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


@dataclass(frozen=True)
class ErrorMetrics:
    max_abs: float
    per_node_abs: np.ndarray
    per_node_log10: np.ndarray


def rk4_reference(sys: IvpSystem, step: float) -> ReferenceSolution:
    """Classical 4-stage Runge-Kutta trajectory at fixed step.

    ``step`` must divide the interval to within 1e-9 relative.  Integration
    starts from the original (unshifted) initial values.  The state is one
    float64 scalar per component, and each stage calls ``sys.rhs[j](t, state)``
    with ``state`` a list of those scalars, so a right-hand side may only
    index it.  Per component the arithmetic is that of
    ``y + h/6 (k1 + 2 k2 + 2 k3 + k4)``, in that order.  Numpy's floating-point
    warnings are off for the whole run.  A step that turns the state
    non-finite raises ``ValueError`` naming the equation and ``t`` if a stage
    of it returned NaN at a finite state (``f`` outside its domain), and
    ``DivergenceError`` naming ``t`` otherwise.
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

    rhs = sys.rhs
    h = (sys.T - sys.a) / nsteps
    half = 0.5 * h
    sixth = h / 6.0
    y = [np.float64(v) for v in sys.initial]
    values = np.empty((sys.k, nsteps + 1))
    values[:, 0] = y
    t = sys.a
    with np.errstate(all="ignore"):
        for i in range(nsteps):
            k1 = [f(t, y) for f in rhs]
            s = [yj + half * kj for yj, kj in zip(y, k1)]
            k2 = [f(t + half, s) for f in rhs]
            s = [yj + half * kj for yj, kj in zip(y, k2)]
            k3 = [f(t + half, s) for f in rhs]
            s = [yj + h * kj for yj, kj in zip(y, k3)]
            k4 = [f(t + h, s) for f in rhs]
            y_next = [
                yj + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
                for yj, a1, a2, a3, a4 in zip(y, k1, k2, k3, k4)
            ]
            if not all(map(math.isfinite, y_next)):
                _reject_nan_stage(rhs, t, y, h)
                raise DivergenceError(f"RK4 state became non-finite at t={sys.a + (i + 1) * h}")
            y = y_next
            t = sys.a + (i + 1) * h
            for j, yj in enumerate(y):
                values[j, i + 1] = yj
    nodes = np.linspace(sys.a, sys.T, nsteps + 1)
    return ReferenceSolution(nodes=nodes, values=values, source=("rk4", step))


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


def exact_builtin_eval(name: str, t: float) -> np.ndarray:
    """Closed-form solution of a built-in problem at ``t``.

    ex1: Riccati ``u' = 2u - u^2 + 1`` on [0, 1],
         ``u = 1 + sqrt(2) tanh(sqrt(2) t + atanh(-1/sqrt(2)))``.
    ex2: ``u' = 5/3 * (u^2)^(1/5) * cos t`` on [0, 3], ``u = (sin t)^(5/3)``
         taken through the odd-root convention.
    ex3: second-order problem reduced to (u, v = u'); exact
         ``(t - sin t, 1 - cos t)`` on [0, 1.5].
    """
    if name not in BUILTIN_PROBLEMS:
        raise ValueError(f"unknown built-in problem {name!r}")
    interval = BUILTIN_PROBLEMS[name]["interval"]
    a, T = interval["a"], interval["T"]
    t = float(t)
    if t < a or t > T:
        raise ValueError(f"t={t} outside [{a}, {T}] for {name}")
    if name == "ex1":
        return np.array([1.0 + _SQRT2 * math.tanh(_SQRT2 * t + _EX1_PHASE)])
    if name == "ex2":
        s = math.sin(t)
        return np.array([math.copysign(abs(s) ** (5.0 / 3.0), s)])
    return np.array([t - math.sin(t), 1.0 - math.cos(t)])


def error_metrics(sol: SolveReport, ref: ReferenceSolution) -> ErrorMetrics:
    """Per-node absolute error (max over components) and its log10.

    The reference must cover the solution nodes and be at least as dense;
    ``ref.at`` puts it on the solution grid.  The log10 of an exact zero is
    -inf and of a NaN error NaN.  ``ivim converge`` reads a closed form's
    error from ``report.errors``, which has the bits of ``per_node_abs``.
    """
    nodes = sol.grid.nodes
    if ref.values.shape[0] != sol.k:
        raise ValueError(
            f"component mismatch: reference has {ref.values.shape[0]}, solution {sol.k}"
        )
    if ref.nodes.size < nodes.size:
        raise ValueError(
            f"grid mismatch: reference has {ref.nodes.size} nodes, "
            f"solution needs {nodes.size}"
        )
    pad = 1e-12 * (sol.grid.T - sol.grid.a)
    if ref.nodes[0] > sol.grid.a + pad or ref.nodes[-1] < sol.grid.T - pad:
        raise ValueError("reference does not cover the solution interval")
    per_node = np.max(np.abs(sol.nodal_values() - ref.at(nodes)), axis=0)
    with np.errstate(divide="ignore"):  # an exact zero is -inf
        per_log = np.log10(per_node)
    return ErrorMetrics(
        max_abs=float(np.max(per_node)),
        per_node_abs=per_node,
        per_node_log10=per_log,
    )


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
