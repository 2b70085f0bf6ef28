"""Fixed-point solver for first-order IVP systems on a hat-function grid.

Each equation ``u_k' = f_k(t, u)`` carries a linear coefficient ``alpha_k``
(linear part ``u_k' + alpha_k u_k``) whose exponential multiplier
``lambda(s, t) = -exp(alpha_k (s - t))`` drives the correction integral.
The iterates live in the span of the hat functions ``phi_2 .. phi_n``, so
they vanish at ``t = a``: the solver iterates on ``w = u - u_a`` and adds the
initial values back only where ``f`` is evaluated.  Each sweep is the
closed-form nodal update of ``sweep``, on a plan built once per solve.

A solve allocates its (k, n) arrays once: the iterate alternates with a
spare one, which holds ``w + u_a`` until the update overwrites it, and one
coefficient array serves every sweep.
``solve_each``, ``ivim_step`` and ``successive_diff_norm`` turn numpy's
floating-point warnings off; the helpers run under that state.

The iterates of a solve form one sequence, each computed from the one
before, so the solve to ``m`` sweeps is a prefix of the solve to any larger
``m``.  ``solve_each`` is a generator over a list of configs: consecutive
configs that differ only in an ascending ``m_max`` share one run (one grid,
one plan, one sweep loop and one evaluation of the closed form), and it
yields each config's report once that run reaches it, with the bits that
``solve`` gives it alone.  ``solve`` is its one-config case, so there is one
sweep loop.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from numbers import Real
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .grid import Grid, PiecewiseLinear, _as_size, interp_eval, make_grid, project_samples
from .sweep import MODES, DivergenceError, _plan, _sweep

__all__ = [
    "DivergenceError",
    "IvpSystem",
    "exp_multiplier",
    "SolveConfig",
    "SolveReport",
    "ivim_step",
    "solve",
    "solve_each",
    "successive_diff_norm",
    "eval_solution",
]


def exp_multiplier(alpha: float) -> float:
    """The multiplier ``-exp(alpha (s - t))`` of ``u' + alpha*u``, as its finite ``alpha``."""
    alpha = float(alpha)
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    return alpha


@dataclass(frozen=True)
class IvpSystem:
    """System of k first-order equations ``u_k' = f_k(t, u)`` on ``[a, T]``.

    ``rhs[k]`` is the complete right-hand side, called as ``rhs[k](t, state)``
    where ``state`` is indexable by equation (``state[j]``).  The solver
    passes numpy arrays over a contiguous chunk of the nodes, so ``rhs`` must
    act elementwise, and the result must broadcast to the shape of ``t``.
    ``rk4_reference`` calls the scalar forms ``rhs[k].scalar`` of compiled
    right-hand sides on Python floats, and any other rhs on ``np.float64``
    scalars; there it returns a real scalar.  The state is unshifted.

    An equation may also carry the affine split ``f = -alpha*u + g(t)`` as
    ``forcing[k] = g`` (None leaves it to ``rhs``); the solver then takes
    ``g - alpha*u_a`` as its coefficient, free of the state.  A missing
    ``rhs`` is synthesized from the split.

    ``exact`` (optional) maps a node array to exact values, shape (k, n)
    (or (n,) for k = 1); ``solve`` raises ``ValueError`` on any other shape.
    ``guess`` (optional) holds per-equation vectorized callables
    ``t -> values``, each called once on the grid nodes; minus the initial
    values they are the default initial iterate.
    """

    alphas: tuple
    a: float
    T: float
    initial: tuple
    rhs: Optional[tuple] = None
    forcing: Optional[tuple] = None
    exact: Optional[Callable] = None
    guess: Optional[tuple] = None
    name: str = ""

    def __post_init__(self):
        alphas = tuple(float(x) for x in self.alphas)
        initial = tuple(float(x) for x in self.initial)
        k = len(alphas)
        if k == 0:
            raise ValueError("system needs at least one equation")
        if len(initial) != k:
            raise ValueError(f"initial has {len(initial)} entries for {k} equation(s)")
        a, T = float(self.a), float(self.T)
        named = [(f"alpha of equation {j + 1}", x) for j, x in enumerate(alphas)]
        named += [(f"initial value of equation {j + 1}", x) for j, x in enumerate(initial)]
        for what, value in named + [("interval endpoint a", a), ("interval endpoint T", T)]:
            if not np.isfinite(value):
                raise ValueError(f"{what} must be finite, got {value!r}")
        if T <= a:
            raise ValueError(f"invalid interval: T={T} must exceed a={a}")
        if not np.isfinite(T - a):
            raise ValueError(f"interval length T - a must be finite, got {T - a!r}")
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "T", T)
        forcing = self.forcing
        if forcing is not None:
            forcing = tuple(forcing)
            if len(forcing) != k:
                raise ValueError("forcing must have one entry per equation")
            object.__setattr__(self, "forcing", forcing)
        if self.guess is not None and len(self.guess) != k:
            raise ValueError("guess must have one entry per equation")
        rhs = self.rhs
        if rhs is None:
            if forcing is None:
                raise ValueError("each equation needs rhs or forcing")
            rhs = tuple(_synthesize_rhs(alphas[j], forcing[j], j) for j in range(k))
        elif len(rhs) != k:
            raise ValueError(f"rhs has {len(rhs)} entries for {k} equation(s)")
        object.__setattr__(self, "rhs", tuple(rhs))

    @property
    def k(self) -> int:
        return len(self.alphas)


def _synthesize_rhs(alpha, forcing, index):
    def rhs(t, state):
        out = -alpha * np.asarray(state[index], dtype=float)
        if forcing is not None:
            out = out + forcing(t)
        return out

    return rhs


@dataclass(frozen=True)
class SolveConfig:
    """Solver knobs: grid size, iteration budget, quadrature mode, stopping."""

    n: int
    m_max: int
    mode: str = "paper"
    stop_tol: float = 0.0
    keep_history: bool = False

    def __post_init__(self):
        for field, least in (("n", 2), ("m_max", 1)):
            value = _as_size(getattr(self, field), f"config invalid: {field}")
            if value < least:
                raise ValueError(f"config invalid: {field}={value}, need {field} >= {least}")
            object.__setattr__(self, field, value)
        if self.mode not in MODES:
            raise ValueError(f"config invalid: mode={self.mode!r}, choose from {MODES}")
        tol = self.stop_tol  # a bool, a string, None or an int past float64 is no tolerance
        try:
            valid = not isinstance(tol, bool) and isinstance(tol, Real) and 0 <= float(tol) < np.inf
        except OverflowError:
            valid = False
        if not valid:
            raise ValueError(f"config invalid: stop_tol={tol!r}")
        object.__setattr__(self, "stop_tol", float(tol))


@dataclass
class SolveReport:
    """Solve outcome: final iterate, convergence trace, optional errors.

    With ``keep_history``, ``iterate`` is ``history[-1]``.  ``exact`` is the
    closed form, evaluated once per solve on the nodes (read-only, unshifted,
    (k, n)), and ``errors`` the per-node maximum over components of
    ``|nodal_values() - exact|``; both are None without one.
    """

    iterate: np.ndarray  # the final u - u_a, read-only (k, n), zero in column 1
    u_a: tuple
    grid: Grid
    diffs: list  # successive max-norm differences, one per iteration run
    iterations_run: int
    wall_time: float
    exact: Optional[np.ndarray] = None  # closed form at the nodes, (k, n)
    errors: Optional[np.ndarray] = None  # per-node max-abs error vs exact
    history: Optional[list] = None  # per-iteration read-only (k, n) iterates

    @property
    def final(self) -> list:
        """The rows of ``iterate`` as k ``PiecewiseLinear`` views."""
        return [PiecewiseLinear(self.grid, row) for row in self.iterate]

    def nodal_values(self, s: int = 0, e: Optional[int] = None, out=None) -> np.ndarray:
        """Unshifted solution values at nodes ``s .. e-1`` (all by default),
        (k, e - s), written into ``out`` if given, else a fresh array."""
        return np.add(self.iterate[:, s:e], np.asarray(self.u_a)[:, None], out=out)


def _nodal_array(state: Sequence[PiecewiseLinear], sys: IvpSystem, grid: Grid) -> np.ndarray:
    """Stack ``state``, one element per equation on ``grid``, into a (k, n) array.

    A non-finite nodal value is an input error that names the equation and
    the node.
    """
    if len(state) != sys.k:
        raise ValueError("state must have one element per equation")
    for pl in state:
        if pl.grid.n != grid.n or pl.grid.a != grid.a or pl.grid.T != grid.T:
            raise ValueError("state grids do not match the solve grid")
    W = np.vstack([pl.values for pl in state])
    if not np.isfinite(W).all():
        j, i = (int(x) for x in np.argwhere(~np.isfinite(W))[0])
        raise ValueError(
            f"state must be finite: equation {j + 1} is {W[j, i]} at node {i + 1} "
            f"(t={grid.nodes[i]})"
        )
    return W


def ivim_step(
    state: Sequence[PiecewiseLinear],
    sys: IvpSystem,
    grid: Grid,
    mults: Sequence[float],
    mode: str = "paper",
) -> list:
    """One interpolated iteration sweep over all equations.

    ``state`` holds the previous iterate ``u - u_a`` (k elements on
    ``grid``, vanishing at ``a``); ``grid`` must span the system's
    ``[a, T]``, and ``mults`` must be ``exp_multiplier(alpha)`` for each of
    ``sys.alphas``.  Returns the next iterate as k read-only elements, the
    sweep that ``solve`` runs.
    """
    if mode not in MODES:
        raise ValueError(f"mode={mode!r}, choose from {MODES}")
    if (grid.a, grid.T) != (sys.a, sys.T):
        raise ValueError(
            f"grid interval [{grid.a}, {grid.T}] is not the system's [{sys.a}, {sys.T}]"
        )
    W = _nodal_array(state, sys, grid)
    alphas = [float(m) for m in mults]
    if alphas != list(sys.alphas):
        raise ValueError(f"mults carry alphas {alphas}, the equations {list(sys.alphas)}")
    new = np.empty_like(W)
    with np.errstate(all="ignore"):
        _sweep(W, grid, _plan(sys, grid, mode), new, np.empty_like(W))
    return [PiecewiseLinear(grid, row) for row in new]


def successive_diff_norm(s1: Sequence[PiecewiseLinear], s2: Sequence[PiecewiseLinear]) -> float:
    """Max over components and nodes of the absolute nodal difference (inf if it overflows)."""
    if len(s1) != len(s2):
        raise ValueError(f"component count mismatch: {len(s1)} vs {len(s2)}")
    worst = 0.0
    with np.errstate(all="ignore"):
        for p1, p2 in zip(s1, s2):
            if p1.values.shape != p2.values.shape:
                raise ValueError("nodal shapes do not match")
            worst = max(worst, float(np.max(np.abs(p1.values - p2.values))))
    return worst


def solve(sys: IvpSystem, cfg: SolveConfig) -> SolveReport:
    """Run the interpolated iteration up to ``cfg.m_max`` sweeps.

    The iterates are ``u - u_a``, carried as one (k, n) array.  Iteration
    starts from the system's guess minus ``u_a``, projected on the grid, or
    from zero for an equation without one; to start elsewhere, pass a system
    with another ``guess`` (``dataclasses.replace(sys, guess=None)`` starts
    from zero).  With ``cfg.stop_tol > 0`` the loop exits early once the
    successive-difference max norm drops to the tolerance.  A non-finite
    update raises ``DivergenceError`` naming the sweep; a finite iterate that
    has not converged is returned after ``cfg.m_max`` sweeps.  Identical
    inputs produce bit-identical reports.  It is ``solve_each`` of ``[cfg]``.
    """
    return next(solve_each(sys, [cfg]))


def solve_each(sys: IvpSystem, configs: Iterable[SolveConfig]) -> Iterator[SolveReport]:
    """Yield, in order, the report ``solve(sys, cfg)`` returns for each of ``configs``.

    The iterates form one sequence, so consecutive configs that differ only
    in an ascending ``m_max`` share one run: one grid, one ``_plan``, one
    sweep loop up to the largest ``m_max`` and one evaluation of the closed
    form.  Each such report is built once its own sweeps have run: its
    ``iterate`` is a read-only copy (the last report of the run takes the
    array itself, and with ``keep_history`` each takes its last snapshot),
    its ``diffs``, ``iterations_run`` and ``history`` are prefixes of the
    run's and its ``errors`` its own.  A ``stop_tol`` stop gives every later
    config of the run the report at the stop.  The run goes on only when the
    next report is asked for, so an error at a sweep past one report's
    ``m_max`` is raised, as ``solve`` raises it, after that report.
    """
    group: list = []
    for cfg in configs:
        if group and not (
            cfg.m_max > group[-1].m_max and replace(cfg, m_max=group[-1].m_max) == group[-1]
        ):
            yield from _run(sys, group)
            group = []
        group.append(cfg)
    if group:
        yield from _run(sys, group)


def _run(sys: IvpSystem, group: list) -> Iterator[SolveReport]:
    """The reports of ``group``, configs that differ only in an ascending
    ``m_max``, from one sweep loop (``solve_each``).

    Numpy's floating-point warnings are off around the work for each report,
    not across a ``yield``, so the caller's error state holds between them.
    """
    start = time.perf_counter()
    cfg = group[-1]
    grid = make_grid(sys.a, sys.T, cfg.n)
    W = np.zeros((sys.k, grid.n))
    with np.errstate(all="ignore"):
        for j, g in enumerate(sys.guess or ()):
            if g is not None:
                W[j] = project_samples(grid, lambda t: g(t) - sys.initial[j]).values
        plan = _plan(sys, grid, cfg.mode)
    spare, C = np.empty_like(W), np.empty_like(W)
    diffs: list[float] = []
    history: Optional[list] = [] if cfg.keep_history else None
    exact = errors = None
    stopped = False
    for point in group:
        with np.errstate(all="ignore"):
            while len(diffs) < point.m_max and not stopped:
                sweep = len(diffs) + 1
                try:
                    diff = _sweep(W, grid, plan, spare, C)
                    if not math.isfinite(diff):
                        raise DivergenceError(
                            "non-finite update: the successive difference overflowed"
                        )
                except DivergenceError as exc:
                    raise DivergenceError(f"{exc} at iteration {sweep}") from None
                diffs.append(diff)
                W, spare = spare, W
                if history is not None:
                    history.append(W.copy())
                    history[-1].flags.writeable = False
                stopped = cfg.stop_tol > 0.0 and diff <= cfg.stop_tol
            if point is cfg:
                del plan, spare, C  # before the closed form, so that the peak does not rise
            if history:
                iterate = history[-1]
            elif point is cfg or stopped:  # no sweep writes W after these
                iterate = W
            else:
                iterate = W.copy()
            iterate.flags.writeable = False

            if sys.exact is not None:
                if exact is None:
                    exact = np.atleast_2d(sys.exact(grid.nodes))
                    if exact.shape != W.shape:
                        raise ValueError(
                            f"closed form has shape {exact.shape}, need {W.shape}"
                        )
                    exact.flags.writeable = False
                ua = np.asarray(sys.initial)[:, None]
                errors = np.max(np.abs((iterate + ua) - exact), axis=0)
        yield SolveReport(
            iterate=iterate,
            u_a=sys.initial,
            grid=grid,
            diffs=diffs[:],
            iterations_run=len(diffs),
            wall_time=time.perf_counter() - start,
            exact=exact,
            errors=errors,
            history=None if history is None else history[:],
        )


def eval_solution(report: SolveReport, t: float) -> np.ndarray:
    """Solution values at ``t`` (one per equation), initial offset restored."""
    shifted = np.array([interp_eval(pl, t) for pl in report.final])
    return shifted + np.asarray(report.u_a)
