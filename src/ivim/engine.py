"""Fixed-point solver for first-order IVP systems on a hat-function grid.

Each equation ``u_k' = f_k(t, u)`` carries a linear coefficient ``alpha_k``
(linear part ``u_k' + alpha_k u_k``) whose exponential multiplier
``lambda(s, t) = -exp(alpha_k (s - t))`` drives the correction integral.
The iterates live in the span of the hat functions ``phi_2 .. phi_n``, so
they vanish at ``t = a``: the solver iterates on ``w = u - u_a`` and adds the
initial values back only where ``f`` is evaluated.  One sweep replaces the
previous iterate and the integrand by their piecewise-linear interpolants,
so the update is a closed-form nodal sum: writing

    c(s) = alpha * w(s) + f(s, w(s) + u_a)

the integrand is H(s, t) = -exp(alpha (s - t)) * c(s) and

    w_new(t_i) = h * sum_{r=2}^{i-1} exp(alpha (t_r - t_i)) * c(t_r)
               + h/2 * c(t_i)                                   (i = 2 .. n)

with node 1 pinned to zero.  ``full_trapezoid`` mode adds the missing
``s = a`` endpoint ``h/2 * exp(alpha (t_1 - t_i)) * c(t_1)``, restoring the
standard composite trapezoid rule; the first-node basis function is excluded
from the state space, which is why the default ``paper`` mode drops that
term.  The omission costs one order of accuracy whenever ``f(a, u_a) != 0``.

For exponential weights the sum is the linear recurrence
``A_{i+1} = exp(-alpha h) (A_i + c_i)``, so a sweep is a prefix scan costing
O(n).  The scan runs over blocks of nodes whose factored weights
``exp(+-alpha (t - t_s))`` stay within ``e^30``; a scalar carry passes the sum
over earlier blocks on to the next block start.  When ``|alpha| (T - a) <= 30``
the whole grid is one block.  For ``alpha < 0`` the weights grow along the
interval, so ``-alpha (T - a)`` is limited to 700 to keep them finite.

The weights depend only on ``alpha``, the grid and the mode, so ``_plan``
builds them once per solve (once per call of ``ivim_step``): per equation
the block bounds, ``e^{alpha(t - t_s)}``, ``h e^{-alpha(t - t_s)}``, the
scalar carry factor of each block, the ``full_trapezoid`` endpoint column and
one reusable prefix buffer; the growth limit is checked there, before any
right-hand side is evaluated.  A sweep then writes one preallocated (k, n)
array with one multiply, one in-place cumulative sum and one multiply-add per
node: 6 ns per node-sweep at n = 65537 in one block, against 32 ns
(``alpha = 0``) and 28 ns (``alpha = 1``) when each sweep re-derived its
weights, and 11 ns against 21 ns at ``alpha = 60``, n = 4097, in two blocks
(2-vCPU x86-64 host, numpy 2.4).  Per-node weights of another quadrature,
such as exponential-integrator weights for the first, interior and last node,
belong in the same plan.  The finiteness of a sweep is read off the nodal
max norm that the divergence cap needs anyway; only a non-finite norm starts
the search for the equation and node to report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .grid import Grid, PiecewiseLinear, interp_eval, make_grid, project_samples

__all__ = [
    "DivergenceError",
    "IvpSystem",
    "exp_multiplier",
    "SolveConfig",
    "SolveReport",
    "ivim_step",
    "solve",
    "successive_diff_norm",
    "eval_solution",
]

# Largest |alpha| * width of one scan block, so the factored weights stay
# well conditioned; and the largest growth -alpha * (T - a) before they
# overflow.
_BLOCK_EXPONENT = 30.0
_GROWTH_EXPONENT_LIMIT = 700.0
# A sweep whose nodal max norm exceeds this is reported as divergence.
_DIVERGENCE_CAP = 1e12

MODES = ("paper", "full_trapezoid")


class DivergenceError(RuntimeError):
    """Iteration produced a non-finite or unboundedly large value."""


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
    where ``state`` is indexable by equation (``state[j]``); the solver passes
    numpy arrays and the result must broadcast accordingly, while
    ``rk4_reference`` passes float64 scalars.  The solver evaluates it at the
    iterate plus the initial values, so it always sees the unshifted state.

    Optionally an equation may instead (or additionally) carry the affine
    split ``f = -alpha*u + g(t)`` via ``forcing[k]`` (None leaves it to ``rhs``).
    The solver then evaluates the integrand coefficient as
    ``g - alpha*u_a``, which is algebraically identical to the general form
    and keeps the coefficient literally independent of the state.  A missing
    ``rhs`` is synthesized from the split.

    ``exact`` (optional) maps a node array to exact values, shape (k, n).
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
        if int(self.n) < 2:
            raise ValueError(f"config invalid: n={self.n}, need n >= 2")
        if int(self.m_max) < 1:
            raise ValueError(f"config invalid: m_max={self.m_max}, need m_max >= 1")
        if self.mode not in MODES:
            raise ValueError(f"config invalid: mode={self.mode!r}, choose from {MODES}")
        if not (self.stop_tol >= 0.0 and np.isfinite(self.stop_tol)):
            raise ValueError(f"config invalid: stop_tol={self.stop_tol}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "m_max", int(self.m_max))


@dataclass
class SolveReport:
    """Solve outcome: final iterate, convergence trace, optional errors.

    ``exact`` is the closed form, evaluated once per solve on the nodes
    (read-only, unshifted, (k, n)), and ``errors`` the per-node maximum over
    components of ``|nodal_values() - exact|``; both are None without one.
    """

    final: list  # k PiecewiseLinear in the shifted space (vanish at a)
    u_a: tuple
    grid: Grid
    mode: str
    diffs: list  # successive max-norm differences, one per iteration run
    iterations_run: int
    wall_time: float
    exact: Optional[np.ndarray] = None  # closed form at the nodes, (k, n)
    errors: Optional[np.ndarray] = None  # per-node max-abs error vs exact
    history: Optional[list] = None  # per-iteration read-only (k, n) iterates

    @property
    def k(self) -> int:
        return len(self.final)

    def nodal_values(self) -> np.ndarray:
        """Unshifted solution values at the nodes, shape (k, n)."""
        shifted = np.vstack([pl.values for pl in self.final])
        return shifted + np.asarray(self.u_a)[:, None]


def _coefficients(sys: IvpSystem, t: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Integrand coefficients c, shape (k, n); H(s,t) = -e^{alpha(s-t)} c(s).

    ``W`` is the shifted iterate ``u - u_a``; the right-hand sides see
    ``W + u_a``.  A non-finite coefficient passes silently and is reported
    by the caller's finiteness check on the update.
    """
    ua = np.asarray(sys.initial)
    U = W + ua[:, None]
    C = np.empty((sys.k, t.size))
    with np.errstate(all="ignore"):
        for j in range(sys.k):
            if sys.forcing is not None and sys.forcing[j] is not None:
                C[j] = sys.forcing[j](t) - sys.alphas[j] * ua[j]
            else:
                C[j] = sys.alphas[j] * W[j] + sys.rhs[j](t, U)
    return C


@dataclass(frozen=True)
class _Scan:
    """One equation's blocked scan on one grid: what every sweep reuses.

    Block ``(s, e, decay)`` covers nodes ``s .. e-1`` and hands its sum on to
    node ``e`` through ``decay = e^{-alpha(t_e - t_s)}`` (None for the last
    block).  Within each block ``fwd = e^{alpha(t - t_s)}`` and
    ``bwd = h e^{-alpha(t - t_s)}``; ``endpoint`` is ``h/2 e^{-alpha(t - t_1)}``
    over block 0 in ``full_trapezoid`` mode (else None).  ``prefix`` is the
    cumulative-sum buffer, one node longer than the longest block.
    """

    blocks: tuple
    fwd: np.ndarray
    bwd: np.ndarray
    endpoint: Optional[np.ndarray]
    prefix: np.ndarray


def _plan(sys: IvpSystem, grid: Grid, mode: str) -> tuple:
    """The scan of each equation of ``sys`` on ``grid``, built once per solve.

    Raises ``ValueError`` for an equation whose weights would grow past
    ``e^700``, before any right-hand side is evaluated.
    """
    t, h, n = grid.nodes, grid.h, grid.n
    scans = []
    for j, alpha in enumerate(sys.alphas):
        growth = -alpha * (grid.T - grid.a)
        if growth > _GROWTH_EXPONENT_LIMIT:
            raise ValueError(
                f"equation {j + 1}: -alpha*(T-a) = {growth} exceeds "
                f"{_GROWTH_EXPONENT_LIMIT}; the exponential weights overflow"
            )
        if abs(alpha) * (t[-1] - t[0]) <= _BLOCK_EXPONENT:
            size = n
        else:
            size = int(_BLOCK_EXPONENT / (abs(alpha) * h)) + 1
        blocks = []
        fwd = np.empty(n)
        bwd = np.empty(n)
        endpoint = None
        for s in range(0, n, size):
            e = min(s + size, n)
            d = t[s:e] - t[s]
            fwd[s:e] = np.exp(alpha * d)
            winv = np.exp(-alpha * d)
            bwd[s:e] = h * winv
            if s == 0 and mode == "full_trapezoid":
                endpoint = 0.5 * h * winv
            blocks.append((s, e, np.exp(-alpha * (t[e] - t[s])) if e < n else None))
        scans.append(_Scan(tuple(blocks), fwd, bwd, endpoint, np.empty(size + 1)))
    return tuple(scans)


def _update(scan: _Scan, c: np.ndarray, out: np.ndarray) -> None:
    """Add ``h sum_{r<i} e^{alpha(t_r - t_i)} c_r`` to ``out``, which holds ``h/2 c_i``.

    Within a block starting at node s the sum is ``e^{-alpha(t_i - t_s)}``
    times a cumulative sum of ``e^{alpha(t_r - t_s)} c_r``, seeded with the
    carry ``sum_{r<s} e^{alpha(t_r - t_s)} c_r``.  Per node that is one
    multiply, one in-place cumulative sum and one multiply-add.
    """
    carry = 0.0
    for s, e, decay in scan.blocks:
        prefix = scan.prefix[:e - s + 1]
        prefix[0] = carry
        np.multiply(scan.fwd[s:e], c[s:e], out=prefix[1:])
        if s == 0:
            prefix[1] = 0.0
        np.cumsum(prefix, out=prefix)  # sums over r < i
        terms = prefix[:-1]
        np.multiply(scan.bwd[s:e], terms, out=terms)
        out[s:e] += terms
        if scan.endpoint is not None and s == 0:
            np.multiply(scan.endpoint, c[0], out=terms)  # the s = a endpoint,
            out[s:e] += terms
            prefix[-1] += 0.5 * c[0]  # and through the carry for later blocks
        if decay is not None:
            carry = decay * prefix[-1]


def _reject_nan_coefficient(
    sys: IvpSystem, j: int, c: np.ndarray, W: np.ndarray, t: np.ndarray, first: int, last: int
) -> None:
    """Raise ``ValueError`` if ``c[first..last]`` holds a NaN at a finite state.

    Called only once an update has turned non-finite at node ``last``, with
    the coefficients that fed it.  A NaN that ``f`` returns at a finite state
    means ``f`` left its domain: an input error, not divergence.  An infinite
    coefficient, or one at a non-finite state, is left to the caller.
    """
    U = W[:, first:last + 1] + np.asarray(sys.initial)[:, None]
    nan = np.isnan(c[first:last + 1]) & np.isfinite(U).all(axis=0)
    if nan.any():
        i = int(np.flatnonzero(nan)[0])
        state = [float(x) for x in U[:, i]]
        i += first
        raise ValueError(
            f"right-hand side of equation {j + 1} is nan at node {i + 1} "
            f"(t={t[i]}, u={state}): outside its domain"
        )


def _sweep(W: np.ndarray, sys: IvpSystem, grid: Grid, mode: str, plan: tuple) -> tuple:
    """One interpolated iteration sweep over all equations.

    ``W`` is the previous iterate ``u - u_a`` on ``grid``, shape (k, n) and
    zero in its first column; ``plan`` is ``_plan(sys, grid, mode)``.  The
    offset ``u_a = sys.initial`` is applied where the coefficients are
    evaluated: the coupled right-hand sides see the full state vector ``u``
    at each node.  Returns the new iterate as a read-only (k, n) array and
    its nodal max norm, which is finite: a non-finite update raises here.
    """
    t = grid.nodes
    C = _coefficients(sys, t, W)
    with np.errstate(all="ignore"):  # a non-finite update is classified below
        new = np.multiply(C, 0.5 * grid.h)
        for j, scan in enumerate(plan):
            _update(scan, C[j], new[j])
    new[:, 0] = 0.0
    biggest = float(np.max(np.abs(new)))
    if not np.isfinite(biggest):
        first = 0 if mode == "full_trapezoid" else 1  # paper mode never reads c(t_1)
        for j, row in enumerate(new):
            bad = np.flatnonzero(~np.isfinite(row))
            if bad.size:
                i = int(bad[0])
                _reject_nan_coefficient(sys, j, C[j], W, t, first, i)
                raise DivergenceError(
                    f"non-finite update in equation {j + 1} at node {i + 1} (t={t[i]})"
                )
    new.flags.writeable = False
    return new, biggest


def _nodal_array(
    state: Sequence[PiecewiseLinear], sys: IvpSystem, grid: Grid, what: str
) -> np.ndarray:
    """Stack ``state``, one element per equation on ``grid``, into a (k, n) array."""
    if len(state) != sys.k:
        raise ValueError(f"{what} must have one element per equation")
    for pl in state:
        if pl.grid.n != grid.n or pl.grid.a != grid.a or pl.grid.T != grid.T:
            raise ValueError(f"{what} grids do not match the solve grid")
    return np.vstack([pl.values for pl in state])


def ivim_step(
    state: Sequence[PiecewiseLinear],
    sys: IvpSystem,
    grid: Grid,
    mults: Sequence[float],
    mode: str = "paper",
) -> list:
    """One interpolated iteration sweep over all equations.

    ``state`` holds the previous iterate ``u - u_a`` (k elements on
    ``grid``, vanishing at ``a``); ``mults`` must be
    ``exp_multiplier(alpha)`` for each of ``sys.alphas``.  Returns the next
    iterate as k read-only elements, the sweep that ``solve`` runs.
    """
    if mode not in MODES:
        raise ValueError(f"mode={mode!r}, choose from {MODES}")
    W = _nodal_array(state, sys, grid, "state")
    alphas = [float(m) for m in mults]
    if alphas != list(sys.alphas):
        raise ValueError(f"mults carry alphas {alphas}, the equations {list(sys.alphas)}")
    new, _ = _sweep(W, sys, grid, mode, _plan(sys, grid, mode))
    return [PiecewiseLinear(grid, row) for row in new]


def successive_diff_norm(s1: Sequence[PiecewiseLinear], s2: Sequence[PiecewiseLinear]) -> float:
    """Max over components and nodes of the absolute nodal difference."""
    if len(s1) != len(s2):
        raise ValueError(f"component count mismatch: {len(s1)} vs {len(s2)}")
    worst = 0.0
    for p1, p2 in zip(s1, s2):
        if p1.values.shape != p2.values.shape:
            raise ValueError("nodal shapes do not match")
        worst = max(worst, float(np.max(np.abs(p1.values - p2.values))))
    return worst


def solve(
    sys: IvpSystem,
    cfg: SolveConfig,
    u0: Optional[Sequence[PiecewiseLinear]] = None,
) -> SolveReport:
    """Run the interpolated iteration up to ``cfg.m_max`` sweeps.

    The iterates are ``u - u_a`` (the offset is applied where the
    coefficients are evaluated), carried as one (k, n) array, and iteration
    starts from ``u0``, given as ``u - u_a`` (default: the system's guess
    minus ``u_a``, else zero).  With ``cfg.stop_tol > 0`` the loop exits
    early once the successive-difference max norm drops to the tolerance.
    Identical inputs produce bit-identical reports.
    """
    start = time.perf_counter()
    grid = make_grid(sys.a, sys.T, cfg.n)
    if u0 is not None:
        W = _nodal_array(u0, sys, grid, "u0")
    else:
        W = np.zeros((sys.k, grid.n))
        for j, g in enumerate(sys.guess or ()):
            if g is not None:
                with np.errstate(all="ignore"):  # project_samples names a non-finite sample
                    W[j] = project_samples(grid, lambda t: g(t) - sys.initial[j]).values

    plan = _plan(sys, grid, cfg.mode)
    diffs: list[float] = []
    history: Optional[list] = [] if cfg.keep_history else None
    for _ in range(cfg.m_max):
        new, biggest = _sweep(W, sys, grid, cfg.mode, plan)
        diff = float(np.max(np.abs(new - W)))
        diffs.append(diff)
        if biggest > _DIVERGENCE_CAP:
            raise DivergenceError(
                f"nodal max norm {biggest} exceeded divergence cap "
                f"{_DIVERGENCE_CAP} at iteration {len(diffs)}"
            )
        if history is not None:
            history.append(new)
        W = new
        if cfg.stop_tol > 0.0 and diff <= cfg.stop_tol:
            break

    exact = errors = None
    if sys.exact is not None:
        with np.errstate(all="ignore"):  # a non-finite closed form gives non-finite errors
            exact = np.atleast_2d(sys.exact(grid.nodes))
            errors = np.max(np.abs((W + np.asarray(sys.initial)[:, None]) - exact), axis=0)
        exact.flags.writeable = False

    return SolveReport(
        final=[PiecewiseLinear(grid, row) for row in W],
        u_a=sys.initial,
        grid=grid,
        mode=cfg.mode,
        diffs=diffs,
        iterations_run=len(diffs),
        wall_time=time.perf_counter() - start,
        exact=exact,
        errors=errors,
        history=history,
    )


def eval_solution(report: SolveReport, t: float) -> np.ndarray:
    """Solution values at ``t`` (one per equation), initial offset restored."""
    t = float(t)
    if t < report.grid.a or t > report.grid.T:
        raise ValueError(f"t={t} outside [{report.grid.a}, {report.grid.T}]")
    shifted = np.array([interp_eval(pl, t) for pl in report.final])
    return shifted + np.asarray(report.u_a)
