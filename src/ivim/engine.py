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

The weights depend only on ``alpha``, the grid and the mode, and the parts
of a right-hand side in ``t`` alone only on the grid, so ``_plan`` builds
both once per solve, after checking the growth limit.  A right-hand side
compiled by ``problems`` carries ``split = (pre, main)``: ``pre(nodes)``
gives its state-free subtrees (ex2's ``5/3`` and ``cos(t)``) for each
sweep's ``main(nodes, U, p)``; any other callable is called whole.

A solve allocates its (k, n) arrays once: the iterate alternates with a
spare one, which holds ``w + u_a`` until the update overwrites it, and one
coefficient array serves every sweep.  The right-hand sides are called on
chunks of about ``_CHUNK`` nodes, so no sweep maps and faults in fresh
memory.  The update is one multiply, one in-place cumulative sum and one
multiply-add per node.  At n = 65537 a sweep takes 0.8-0.9 ms on ex2 and
1.2-1.5 ms on ex3 (2-vCPU x86-64 host, numpy 2.4).  A non-finite sweep shows
in the nodal max norm that the divergence cap needs anyway; only then are the
equation and node searched.
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
# Nodes per chunk of a coefficient evaluation: 64 KiB temporaries stay
# below glibc's 128 KiB mmap threshold, so they are never unmapped.
_CHUNK = 8192

# The weight of node 1 in a sweep's trapezoid sum, by quadrature mode.
_FIRST_WEIGHT = {"paper": 0.0, "full_trapezoid": 0.5}
MODES = tuple(_FIRST_WEIGHT)


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
    where ``state`` is indexable by equation (``state[j]``).  The solver
    passes numpy arrays over a contiguous chunk of the nodes, so ``rhs`` must
    act elementwise, and the result must broadcast to the shape of ``t``;
    ``rk4_reference`` passes float64 scalars.  The state is unshifted.

    An equation may also carry the affine split ``f = -alpha*u + g(t)`` as
    ``forcing[k] = g`` (None leaves it to ``rhs``); the solver then takes
    ``g - alpha*u_a`` as its coefficient, free of the state.  A missing
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
        """Unshifted solution values at the nodes, a fresh (k, n) array."""
        values = np.vstack([pl.values for pl in self.final])
        values += np.asarray(self.u_a)[:, None]
        return values


@dataclass(frozen=True)
class _Equation:
    """One equation's part of a solve's plan: what every sweep reuses.

    The coefficient is ``fixed`` when it does not depend on the state (a
    ``forcing`` equation: ``g - alpha*u_a``), else ``alpha*w`` plus
    ``rhs(t, U, *args[c])`` on chunk ``c`` of ``_chunks``: a right-hand side
    with ``split = (pre, main)`` is ``main`` with ``args[c]`` holding
    ``pre(t)`` sliced to the chunk, any other is called as it is.

    Block ``(s, e, decay, fwd, bwd)`` covers nodes ``s .. e-1`` and hands its
    sum on to node ``e`` through ``decay = e^{-alpha(t_e - t_s)}`` (None for
    the last block); ``fwd = e^{alpha(t - t_s)}``, ``bwd = h e^{-alpha(t -
    t_s)}``; for ``alpha = 0`` there is one block, ``fwd`` is None and ``bwd``
    is ``h``.  ``first`` is node 1's weight in units of ``h``: 0 in ``paper``
    mode, 1/2 in ``full_trapezoid``.  ``prefix`` is the cumulative-sum buffer
    that the equations share.
    """

    alpha: float
    fixed: Optional[np.ndarray]
    rhs: Callable
    args: tuple
    blocks: tuple
    first: float
    prefix: np.ndarray


def _scan(alpha: float, grid: Grid) -> tuple:
    """The blocks of ``_Equation`` for ``alpha`` on ``grid``."""
    t, h, n = grid.nodes, grid.h, grid.n
    if alpha == 0.0:  # e^{+-0 d} = 1 exactly, for either zero
        return ((0, n, None, None, h),)
    if abs(alpha) * (t[-1] - t[0]) <= _BLOCK_EXPONENT:
        size = n
    else:
        size = int(_BLOCK_EXPONENT / (abs(alpha) * h)) + 1
    blocks = []
    for s in range(0, n, size):
        e = min(s + size, n)
        d = t[s:e] - t[s]
        decay = np.exp(-alpha * (t[e] - t[s])) if e < n else None
        blocks.append((s, e, decay, np.exp(alpha * d), h * np.exp(-alpha * d)))
    return tuple(blocks)


def _chunks(n: int) -> tuple:
    """Bounds ``(s, e)`` of ``n // _CHUNK`` (at least one) near-equal chunks
    of ``n`` nodes, each starting on a multiple of 8 like a whole row."""
    count = max(1, n // _CHUNK)
    starts = [i * n // count // 8 * 8 for i in range(count)]
    return tuple(zip(starts, starts[1:] + [n]))


def _plan(sys: IvpSystem, grid: Grid, mode: str) -> tuple:
    """The scan and coefficient of each equation of ``sys`` on ``grid``,
    built once per solve.

    Raises ``ValueError`` for an equation whose weights would grow past
    ``e^700``, before any right-hand side is evaluated.  The parts of the
    coefficients that depend on ``t`` alone are then evaluated on the nodes
    and made read-only.
    """
    for j, alpha in enumerate(sys.alphas):
        growth = -alpha * (grid.T - grid.a)
        if growth > _GROWTH_EXPONENT_LIMIT:
            raise ValueError(
                f"equation {j + 1}: -alpha*(T-a) = {growth} exceeds "
                f"{_GROWTH_EXPONENT_LIMIT}; the exponential weights overflow"
            )
    t = grid.nodes
    ua = np.asarray(sys.initial)
    scans = [_scan(alpha, grid) for alpha in sys.alphas]
    prefix = np.empty(max(e - s for blocks in scans for s, e, *_ in blocks) + 1)
    chunks, first = _chunks(grid.n), _FIRST_WEIGHT[mode]
    equations = []
    for j, (alpha, blocks) in enumerate(zip(sys.alphas, scans)):
        fixed, rhs, args = None, sys.rhs[j], ((),) * len(chunks)
        with np.errstate(all="ignore"):  # a non-finite value is classified by the sweep
            if sys.forcing is not None and sys.forcing[j] is not None:
                fixed = np.broadcast_to(sys.forcing[j](t) - alpha * ua[j], t.shape)
            elif hasattr(rhs, "split"):
                pre, rhs = rhs.split
                values = pre(t)
                for value in values:
                    if isinstance(value, np.ndarray):
                        value.flags.writeable = False
                args = tuple((tuple(v[s:e] if np.ndim(v) else v for v in values),) for s, e in chunks)
        equations.append(_Equation(alpha, fixed, rhs, args, blocks, first, prefix))
    return tuple(equations)


def _coefficients(
    sys: IvpSystem, plan: tuple, t: np.ndarray, W: np.ndarray, C: np.ndarray, U: np.ndarray
) -> None:
    """Integrand coefficients c into ``C``, (k, n); H(s,t) = -e^{alpha(s-t)} c(s).

    The right-hand sides see ``W + u_a``, written into ``U`` chunk by chunk.
    A non-finite c passes silently, to the caller's check on the update.
    """
    ua = np.asarray(sys.initial)[:, None]
    with np.errstate(all="ignore"):
        for c, (s, e) in enumerate(_chunks(t.size)):
            U_c = np.add(W[:, s:e], ua, out=U[:, s:e])
            for j, eq in enumerate(plan):
                row = C[j, s:e]
                if eq.fixed is not None:
                    row[...] = eq.fixed[s:e]
                else:
                    np.multiply(eq.alpha, W[j, s:e], out=row)
                    row += eq.rhs(t[s:e], U_c, *eq.args[c])


def _update(eq: _Equation, c: np.ndarray, out: np.ndarray) -> None:
    """Add ``h sum_{r<i} e^{alpha(t_r - t_i)} c_r`` to ``out``, which holds ``h/2 c_i``.

    Within a block starting at node s the sum is ``e^{-alpha(t_i - t_s)}``
    times a cumulative sum of ``e^{alpha(t_r - t_s)} c_r``, seeded with the
    carry ``sum_{r<s} e^{alpha(t_r - t_s)} c_r``.  Per node that is one
    multiply (a copy for ``alpha = 0``), one in-place cumulative sum and one
    multiply-add.
    """
    carry = 0.0
    for s, e, decay, fwd, bwd in eq.blocks:
        prefix = eq.prefix[:e - s + 1]
        prefix[0] = carry
        if fwd is None:
            prefix[1:] = c[s:e]
        else:
            np.multiply(fwd, c[s:e], out=prefix[1:])
        if s == 0:
            prefix[1] = 0.0
        np.cumsum(prefix, out=prefix)  # sums over r < i
        terms = prefix[:-1]
        np.multiply(bwd, terms, out=terms)
        out[s:e] += terms
        if eq.first and s == 0:
            end = eq.first * c[0]
            np.multiply(bwd, end, out=terms)  # the s = a endpoint,
            out[s:e] += terms
            prefix[-1] += end  # and through the carry for later blocks
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


def _sweep(
    W: np.ndarray, sys: IvpSystem, grid: Grid, plan: tuple, new: np.ndarray, C: np.ndarray
) -> tuple:
    """One interpolated iteration sweep over all equations.

    ``W`` is the previous iterate ``u - u_a``, (k, n) and zero in its first
    column; ``plan`` is ``_plan(sys, grid, mode)``.  The new iterate goes
    into ``new``, the coefficients into ``C``.  Returns the new nodal max
    norm, which is finite (a non-finite update raises here), and the
    successive difference ``max |new - W|``, taken in the spent ``C``.
    """
    t = grid.nodes
    _coefficients(sys, plan, t, W, C, new)  # new holds the state until the update
    with np.errstate(all="ignore"):  # a non-finite update is classified below
        np.multiply(C, 0.5 * grid.h, out=new)
        for j, eq in enumerate(plan):
            _update(eq, C[j], new[j])
    new[:, 0] = 0.0
    biggest = max(float(new.max()), -float(new.min()))
    if not np.isfinite(biggest):
        for j, row in enumerate(new):
            bad = np.flatnonzero(~np.isfinite(row))
            if bad.size:
                i = int(bad[0])  # c(t_1) is read only under a nonzero first weight
                _reject_nan_coefficient(sys, j, C[j], W, t, 0 if plan[j].first else 1, i)
                raise DivergenceError(
                    f"non-finite update in equation {j + 1} at node {i + 1} (t={t[i]})"
                )
    np.subtract(new, W, out=C)
    return biggest, float(np.max(np.abs(C, out=C)))


def _nodal_array(
    state: Sequence[PiecewiseLinear], sys: IvpSystem, grid: Grid, what: str
) -> np.ndarray:
    """Stack ``state``, one element per equation on ``grid``, into a (k, n) array.

    A non-finite nodal value is an input error that names ``what``, the
    equation and the node.
    """
    if len(state) != sys.k:
        raise ValueError(f"{what} must have one element per equation")
    for pl in state:
        if pl.grid.n != grid.n or pl.grid.a != grid.a or pl.grid.T != grid.T:
            raise ValueError(f"{what} grids do not match the solve grid")
    W = np.vstack([pl.values for pl in state])
    if not np.isfinite(W).all():
        j, i = (int(x) for x in np.argwhere(~np.isfinite(W))[0])
        raise ValueError(
            f"{what} must be finite: equation {j + 1} is {W[j, i]} at node {i + 1} "
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
    new = np.empty_like(W)
    _sweep(W, sys, grid, _plan(sys, grid, mode), new, np.empty_like(W))
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

    The iterates are ``u - u_a``, carried as one (k, n) array, and iteration
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
    spare, C = np.empty_like(W), np.empty_like(W)
    diffs: list[float] = []
    history: Optional[list] = [] if cfg.keep_history else None
    for _ in range(cfg.m_max):
        biggest, diff = _sweep(W, sys, grid, plan, spare, C)
        diffs.append(diff)
        if biggest > _DIVERGENCE_CAP:
            raise DivergenceError(
                f"nodal max norm {biggest} exceeded divergence cap "
                f"{_DIVERGENCE_CAP} at iteration {len(diffs)}"
            )
        W, spare = spare, W
        if history is not None:
            history.append(W.copy())
            history[-1].flags.writeable = False
        if cfg.stop_tol > 0.0 and diff <= cfg.stop_tol:
            break
    del plan, spare, C  # before the closed form, so that the peak does not rise
    if history:
        W = history[-1]  # final shares the last snapshot

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
