"""One interpolated iteration sweep on a hat-function grid: the plan that
every sweep of a solve reuses, and the nodal update that ``engine`` runs.

One sweep replaces the previous iterate ``w = u - u_a`` and the integrand
by their piecewise-linear interpolants, so the update is a closed-form nodal
sum: writing

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
both once per solve, after checking the growth limit, with the other
invariants of a sweep: the chunk bounds and the ``u_a`` column.  A
right-hand side compiled by ``problems`` carries ``split = (pre, main)``:
``pre(nodes)`` gives its state-free subtrees (ex2's ``5/3`` and ``cos(t)``)
for each sweep's ``main(nodes, U, p)``; any other callable is called whole.

The right-hand sides are called on chunks of about ``_CHUNK`` nodes, so no
sweep maps and faults in fresh memory.  The update is one multiply, one
in-place cumulative sum (``np.add.accumulate``) and one multiply-add per
node.  Divergence is a non-finite update: the iterate is finite, so a sweep
that went wrong shows in the successive difference that the stopping rule
takes anyway; only then are the equation and node searched.  Everything here
runs under the floating-point error state that ``engine``'s entry points set.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

import numpy as np

from .grid import Grid

if TYPE_CHECKING:
    from .engine import IvpSystem

# Largest |alpha| * width of one scan block, so the factored weights stay
# well conditioned; and the largest growth -alpha * (T - a) before they
# overflow.
_BLOCK_EXPONENT = 30.0
_GROWTH_EXPONENT_LIMIT = 700.0
# Nodes per chunk of a coefficient evaluation: 64 KiB temporaries stay
# below glibc's 128 KiB mmap threshold, so they are never unmapped.
_CHUNK = 8192

# The weight of node 1 in a sweep's trapezoid sum, by quadrature mode.
_FIRST_WEIGHT = {"paper": 0.0, "full_trapezoid": 0.5}
MODES = tuple(_FIRST_WEIGHT)


class DivergenceError(RuntimeError):
    """An iteration sweep (``solve``, ``ivim_step``) produced a non-finite
    update, or an ``rk4_reference`` step a non-finite state."""


class _Equation(NamedTuple):
    """One equation's part of a solve's plan: what every sweep reuses.

    The coefficient is ``fixed`` when it does not depend on the state (a
    ``forcing`` equation: ``g - alpha*u_a``), else ``alpha*w`` plus
    ``rhs(t, U, *args[c])`` on chunk ``c`` of the plan: a right-hand side
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


class _Plan(NamedTuple):
    """What every sweep of a solve reuses: one ``_Equation`` per equation,
    the chunk bounds ``_chunks(n)`` and the initial values as a (k, 1) column.
    A named tuple, not a dataclass, since ``import ivim`` builds it in a
    seventh of the time."""

    equations: tuple
    chunks: tuple
    ua: np.ndarray


def _plan(sys: IvpSystem, grid: Grid, mode: str) -> _Plan:
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
    return _Plan(tuple(equations), chunks, ua[:, None])


def _coefficients(plan: _Plan, t: np.ndarray, W: np.ndarray, C: np.ndarray, U: np.ndarray) -> None:
    """Integrand coefficients c into ``C``, (k, n); H(s,t) = -e^{alpha(s-t)} c(s).

    The right-hand sides see ``W + u_a``, written into ``U`` chunk by chunk.
    A non-finite c passes silently, to the caller's check on the update.
    """
    for c, (s, e) in enumerate(plan.chunks):
        U_c = np.add(W[:, s:e], plan.ua, out=U[:, s:e])
        for j, eq in enumerate(plan.equations):
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
    multiply (none for ``alpha = 0``, which sums ``c`` straight into the
    prefix), one cumulative sum and one multiply-add.  ``c[0]`` is spent:
    it is read as the endpoint term and then zeroed.
    """
    carry = 0.0
    end = eq.first * c[0]
    c[0] = 0.0  # node 1 enters the sums only as the endpoint term
    for s, e, decay, fwd, bwd in eq.blocks:
        prefix = eq.prefix[:e - s + 1]
        prefix[0] = carry
        if fwd is None:  # alpha = 0: one block from a +0 carry, so no sum is -0
            np.add.accumulate(c, out=prefix[1:])
        else:
            np.multiply(fwd, c[s:e], out=prefix[1:])
            np.add.accumulate(prefix, out=prefix)  # sums over r < i
        terms = prefix[:-1]
        np.multiply(bwd, terms, out=terms)
        out[s:e] += terms
        if eq.first and s == 0:
            np.multiply(bwd, end, out=terms)  # the s = a endpoint,
            out[s:e] += terms
            prefix[-1] += end  # and through the carry for later blocks
        if decay is not None:
            carry = decay * prefix[-1]


def _reject_nan_coefficient(
    j: int, c: np.ndarray, U: np.ndarray, t: np.ndarray, first: int, last: int
) -> None:
    """Raise ``ValueError`` if ``c[first..last]`` holds a NaN at a finite state.

    Called only once an update has turned non-finite at node ``last``, with
    the coefficients that fed it and the state ``U = W + u_a`` that they were
    evaluated at.  A NaN that ``f`` returns at a finite state means ``f``
    left its domain: an input error, not divergence.  An infinite
    coefficient, or one at a non-finite state, is left to the caller.
    """
    U = U[:, first:last + 1]
    nan = np.isnan(c[first:last + 1]) & np.isfinite(U).all(axis=0)
    if nan.any():
        i = int(np.flatnonzero(nan)[0])
        state = [float(x) for x in U[:, i]]
        i += first
        raise ValueError(
            f"right-hand side of equation {j + 1} is nan at node {i + 1} "
            f"(t={t[i]}, u={state}): outside its domain"
        )


def _sweep(W: np.ndarray, grid: Grid, plan: _Plan, new: np.ndarray, C: np.ndarray) -> float:
    """One interpolated iteration sweep over all equations.

    ``W`` is the previous iterate ``u - u_a``, finite, (k, n) and zero in its
    first column; ``plan`` is ``_plan(sys, grid, mode)``.  The new iterate
    goes into ``new``, the coefficients into ``C``.  Returns the successive
    difference ``max |new - W|``, taken in the spent ``C``.  A non-finite
    ``new`` raises here; a finite one whose difference overflowed returns it.
    """
    t = grid.nodes
    _coefficients(plan, t, W, C, new)  # new holds the state until the update
    np.multiply(C, 0.5 * grid.h, out=new)
    for j, eq in enumerate(plan.equations):
        _update(eq, C[j], new[j])
    new[:, 0] = 0.0
    diff = float(np.maximum.reduce(np.abs(np.subtract(new, W, out=C), out=C), axis=None))
    if not math.isfinite(diff):
        bad = np.argwhere(~np.isfinite(new))
        if bad.size:
            j, i = (int(x) for x in bad[0])
            _coefficients(plan, t, W, C, new)  # C held the difference: refill it; new gets W + u_a
            # c(t_1) is read only under a nonzero first weight
            _reject_nan_coefficient(j, C[j], new, t, 0 if plan.equations[j].first else 1, i)
            raise DivergenceError(
                f"non-finite update in equation {j + 1} at node {i + 1} (t={t[i]})"
            )
    return diff
