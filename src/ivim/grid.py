"""Uniform grids and the first-order B-spline (hat function) space.

The iteration state space is the span of the hat functions ``phi_2 .. phi_n``
on a uniform grid over ``[a, T]``: piecewise-linear functions that vanish at
the left endpoint.  ``phi_1`` is deliberately excluded, so every element of
the space satisfies ``v(a) = 0``; this is what makes the left endpoint term
drop out of the quadrature in the default solver mode.

Index conventions follow the usual 1-based numbering of the nodes
(``t_1 = a``, ``t_n = T``); the underlying numpy arrays are 0-based.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "Grid",
    "PiecewiseLinear",
    "make_grid",
    "project_samples",
]


class Grid(NamedTuple):
    """Uniform partition of ``[a, T]`` into ``n - 1`` cells.

    Attributes
    ----------
    a, T : float
        Interval endpoints, ``T > a``.
    n : int
        Number of nodes, ``n >= 2``.
    h : float
        Cell width ``(T - a) / (n - 1)``.
    nodes : ndarray of shape (n,)
        ``nodes[i] = a + i * h`` (0-based), with the endpoints exact;
        read-only; strictly increasing, or ``make_grid`` raises.
    """

    a: float
    T: float
    n: int
    h: float
    nodes: np.ndarray


def _as_size(value, invalid: str) -> int:
    """``value`` as an int, else ``ValueError("{invalid}={value!r}, need an integer")``:
    a float, a string or a bool is no size, though ``operator.index(True)`` is 1."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{invalid}={value!r}, need an integer") from None


def make_grid(a: float, T: float, n: int) -> Grid:
    """Build a uniform grid with ``n`` nodes on ``[a, T]``.

    Raises
    ------
    ValueError
        If an endpoint or ``T - a`` is not finite, ``T <= a`` (invalid
        interval), ``n`` is not an integer, ``n < 2`` (too few nodes) or
        the nodes are not strictly increasing, which they are not when
        ``h`` is below the spacing of the doubles near the endpoints.
    """
    a = float(a)
    T = float(T)
    if not (np.isfinite(a) and np.isfinite(T)):
        raise ValueError("grid endpoints must be finite")
    if T <= a:
        raise ValueError(f"invalid interval: T={T} must exceed a={a}")
    if not np.isfinite(T - a):
        raise ValueError(f"interval length T - a must be finite, got {T - a!r}")
    n = _as_size(n, "grid invalid: n")
    if n < 2:
        raise ValueError(f"too few nodes: n={n}, need at least 2")
    h = (T - a) / (n - 1)
    nodes = np.linspace(a, T, n)
    if not (nodes[1:] > nodes[:-1]).all():
        raise ValueError("nodes must be strictly increasing")
    nodes.flags.writeable = False
    return Grid(a=a, T=T, n=n, h=h, nodes=nodes)


@dataclass(frozen=True)
class PiecewiseLinear:
    """Element of the hat-function space: nodal values, zero at the left end.

    Between nodes the element is the linear interpolation of the two
    bracketing nodal values, which is how ``engine.eval_solution`` reads a
    solve.  Instances are immutable and safe to share.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=float)
        if vals.shape != (self.grid.n,):
            raise ValueError(
                f"expected {self.grid.n} nodal values, got shape {vals.shape}"
            )
        if vals[0] != 0.0:
            raise ValueError("nodal value at t_1 = a must be 0")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def project_samples(grid: Grid, sampler: Callable[[np.ndarray], np.ndarray]) -> PiecewiseLinear:
    """Sample a function at the grid nodes and wrap it as a basis element.

    ``sampler`` is called once, with the array ``grid.nodes[1:]``, and must
    return one value per node or a scalar that holds at every node (a
    vectorized function of ``t``, such as a compiled expression).  The value
    at the first node is pinned to 0, since every element of the space
    vanishes there.  A non-finite sample raises ``ValueError`` naming the
    first such node and its ``t``, with numpy's floating-point warnings off.
    """
    values = np.zeros(grid.n)
    with np.errstate(all="ignore"):
        values[1:] = sampler(grid.nodes[1:])
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        idx = int(bad[0])
        raise ValueError(
            f"sampler returned non-finite value {float(values[idx])!r} at node {idx + 1} "
            f"(t={grid.nodes[idx]})"
        )
    return PiecewiseLinear(grid=grid, values=values)
