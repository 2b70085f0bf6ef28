"""Independent oracles for the test suite.

Nothing here shares code with the package's solver paths: the nodal update
is a literal double loop over math.exp calls, the quadrature check is a
plain composite trapezoid sum, and the hat functions are evaluated piece by
piece from their definition.
"""

import math

import numpy as np


def naive_step(alphas, rhs_list, t, h, U, mode):
    """Direct nodal update written from the plain formulas.

    H(s, t) = alpha*lam*u + lam*f with lam = -exp(alpha (s - t)); the new
    value at t_i is -h * sum_{r=2}^{i-1} H(t_r, t_i) - h/2 * H(t_i, t_i)
    (boundary term dropped for a zero start), plus the s = a endpoint
    -h/2 * H(t_1, t_i) in full_trapezoid mode.
    """
    k = len(alphas)
    n = t.size
    F = [rhs_list[j](t, U) for j in range(k)]
    out = np.zeros_like(U)
    for j in range(k):
        al = alphas[j]
        for i in range(1, n):
            acc = 0.0
            for r in range(1, i):
                lam = -math.exp(al * (t[r] - t[i]))
                acc += al * lam * U[j, r] + lam * F[j][r]
            lam_ii = -1.0
            h_ii = al * lam_ii * U[j, i] + lam_ii * F[j][i]
            val = -h * acc - 0.5 * h * h_ii
            if mode == "full_trapezoid":
                lam_a = -math.exp(al * (t[0] - t[i]))
                val -= 0.5 * h * (al * lam_a * U[j, 0] + lam_a * F[j][0])
            out[j, i] = val
    return out


def composite_trapezoid(fn, a, b, cells):
    """Plain composite trapezoid rule for a scalar integrand on [a, b]."""
    if cells < 1:
        return 0.0
    xs = np.linspace(a, b, cells + 1)
    ys = np.array([fn(float(x)) for x in xs])
    h = (b - a) / cells
    return h * (0.5 * ys[0] + ys[1:-1].sum() + 0.5 * ys[-1])


def hat_eval(grid, i, t):
    """Evaluate the hat function ``phi_i`` at ``t``.

    ``phi_i`` equals 1 at node ``t_i``, 0 at every other node, and is
    supported on ``[t_{i-1}, t_{i+1}]`` (one-sided for ``i = n``).  The index
    ``i`` is 1-based and restricted to ``2 .. n`` since ``phi_1`` is not part
    of the basis.
    """
    i = int(i)
    if i < 2 or i > grid.n:
        raise ValueError(f"basis index out of range: i={i}, valid range is 2..{grid.n}")
    t = float(t)
    if t < grid.a or t > grid.T:
        raise ValueError(f"t={t} outside [{grid.a}, {grid.T}]")
    center = grid.nodes[i - 1]
    if t == center:
        return 1.0
    left = grid.nodes[i - 2]
    if t <= left:
        return 0.0
    if t < center:
        return (t - left) / grid.h
    # falling branch; absent for the last node, where t <= T == center
    right = grid.nodes[i]
    if t >= right:
        return 0.0
    return (right - t) / grid.h
