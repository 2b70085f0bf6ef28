"""Independent oracles for the test suite.

Nothing here shares code with the package's solver paths: the nodal update
is a literal double loop over math.exp calls, the quadrature check is a
plain composite trapezoid sum, the trapezoid march solves one node at a time
with scalar fixed-point iterations, the Crank-Nicolson march steps a linear
system through one k x k step matrix, the RK4 march steps one whole
state array at a time, and the hat functions are evaluated piece by piece from
their definition.  ``closure_compile`` evaluates an expression as a tree of
closures, one per node, with no generated code.  ``stack_eval`` runs a tree
as a postfix program on a stack of Python floats through the math module,
so it agrees with generated code to a few ulps, not bit for bit.
``blocked_scan`` is the solver's nodal update (``sweep._update``) as it was
before its weights were planned once per solve: it derives every weight
afresh on each call, allocates its own temporaries, and the solver must
match it bit for bit.

``compile_array``, ``scalar_form`` and ``plain_callables`` are no
oracles: the first is the package's own code generator,
``codegen._generate``, reading each variable from a dict, the second runs
the text ``f.inline`` that the generator keeps for ``rk4_reference``'s
march as a function of its own, and the third hides that text, so that
``rk4_reference``'s march calls each rhs on ``np.float64``.  No code in
the package calls them, so they live here, for the tests.
``walked_state_free_subtrees`` is ``expr.state_free_subtrees`` as it was
before it found each node's free variables once: it asks
``expr.free_variables`` again at every node it visits.
"""

import dataclasses
import math

import numpy as np

from ivim.codegen import _NAMESPACE, _generate, _read_env
from ivim.expr import _NP_FUNCS, CONSTANTS, BinOp, Call, Const, Neg, Var, _children, free_variables
from ivim.sweep import _BLOCK_EXPONENT


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


def blocked_scan(alpha: float, C: np.ndarray, t: np.ndarray, h: float, mode: str) -> np.ndarray:
    """Nodal sums ``h sum_{r<i} e^{alpha(t_r - t_i)} c_r + h/2 c_i`` as a blocked scan.

    Within a block starting at node s the sum is ``e^{-alpha(t_i - t_s)}``
    times a cumulative sum of ``e^{alpha(t_r - t_s)} c_r``, seeded with the
    carry ``sum_{r<s} e^{alpha(t_r - t_s)} c_r``.  A single block performs the
    plain O(n) prefix-sum update.
    """
    n = t.size
    if abs(alpha) * (t[-1] - t[0]) <= _BLOCK_EXPONENT:
        size = n
    else:
        size = int(_BLOCK_EXPONENT / (abs(alpha) * h)) + 1
    out = np.empty(n)
    carry = 0.0
    for s in range(0, n, size):
        e = min(s + size, n)
        d = t[s:e] - t[s]
        q = np.exp(alpha * d) * C[s:e]
        if s == 0:
            q[0] = 0.0
        prefix = np.cumsum(np.concatenate(([carry], q)))  # sums over r < i
        winv = np.exp(-alpha * d)
        out[s:e] = h * winv * prefix[:-1] + 0.5 * h * C[s:e]
        if s == 0 and mode == "full_trapezoid":
            out[:e] += 0.5 * h * winv * C[0]  # the s = a endpoint,
            prefix[-1] += 0.5 * C[0]  # and through the carry for later blocks
        if e < n:
            carry = np.exp(-alpha * (t[e] - t[s])) * prefix[-1]
    out[0] = 0.0
    return out


def composite_trapezoid(fn, a, b, cells):
    """Plain composite trapezoid rule for a scalar integrand on [a, b]."""
    if cells < 1:
        return 0.0
    xs = np.linspace(a, b, cells + 1)
    ys = np.array([fn(float(x)) for x in xs])
    h = (b - a) / cells
    return h * (0.5 * ys[0] + ys[1:-1].sum() + 0.5 * ys[-1])


def trapezoid_march(f_scalar, a, T, n):
    """Implicit trapezoid rule for a scalar ODE u' = f(t, u), u(a) = 0.

    Marches node by node over the uniform grid with n nodes on [a, T] and
    returns the nodal values: u_i = A + B(u_i) with A = u_{i-1} + h/2 f(t_{i-1},
    u_{i-1}) and B(u) = h/2 f(t_i, u), solved by plain fixed-point iteration.
    For alpha = 0 this is the converged fixed point of the interpolated
    iteration (in ``paper`` mode as well, when f(a, 0) = 0).

    Where f grows like |u|^(2/5) at u = 0 (as in ex2), u = 0 is a spurious
    root of the first node's equation.  The iteration therefore starts at
    max(A, |B(1)|^(5/3)), never at 0: for f = g(t) |u|^(2/5) with g > 0 that
    start lies below the positive root and the iterates rise to it with a
    contraction factor of at most 2/5; where g < 0 (ex2 past t = pi/2) u is
    already far from 0 and the iteration contracts from A.  For a Lipschitz
    f with h L / 2 < 1 the start does not matter.
    """
    h = (T - a) / (n - 1)
    t = [a + i * h for i in range(n)]
    u = [0.0] * n
    for i in range(1, n):
        A = u[i - 1] + 0.5 * h * f_scalar(t[i - 1], u[i - 1])
        x = max(A, abs(0.5 * h * f_scalar(t[i], 1.0)) ** (5.0 / 3.0))
        for _ in range(200):
            nxt = A + 0.5 * h * f_scalar(t[i], x)
            if abs(nxt - x) <= 4.0 * np.finfo(float).eps * abs(nxt):
                break
            x = nxt
        else:
            raise ArithmeticError(f"trapezoid march did not settle at node {i + 1}")
        u[i] = nxt
    return np.array(u)


def crank_nicolson_march(A, u0, a, T, n):
    """The trapezoid rule for the linear system u' = A u, u(a) = u0, on n nodes.

    Each step solves ``(I - h/2 A) u_{i+1} = (I + h/2 A) u_i`` through the
    step matrix, formed once.  For alpha = 0 this is the converged fixed
    point of the interpolated iteration in ``full_trapezoid`` mode.
    Returns the nodal values, (k, n).
    """
    A = np.asarray(A, dtype=float)
    h = (T - a) / (n - 1)
    eye = np.eye(len(A))
    step = np.linalg.solve(eye - 0.5 * h * A, eye + 0.5 * h * A)
    u = np.empty((len(A), n))
    u[:, 0] = u0
    for i in range(1, n):
        u[:, i] = step @ u[:, i - 1]
    return u


def rk4_march(sys, nsteps):
    """Classical RK4 on whole state arrays: the values at every step, (k, nsteps + 1).

    Each stage gathers the k right-hand sides into one float64 array and
    advances ``y + h/6 (k1 + 2 k2 + 2 k3 + k4)`` as array arithmetic.  A
    non-finite state raises ``ArithmeticError`` naming ``t``.
    """

    def f(t, y):
        return np.array([sys.rhs[j](t, y) for j in range(sys.k)], dtype=float)

    h = (sys.T - sys.a) / nsteps
    y = np.array(sys.initial, dtype=float)
    values = np.empty((sys.k, nsteps + 1))
    values[:, 0] = y
    t = sys.a
    with np.errstate(all="ignore"):
        for i in range(nsteps):
            k1 = f(t, y)
            k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = f(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t = sys.a + (i + 1) * h
            if not np.isfinite(y).all():
                raise ArithmeticError(f"RK4 state became non-finite at t={t}")
            values[:, i + 1] = y
    return values


def plain_callables(sys):
    """``sys`` with each right-hand side behind a plain callable: one with no
    inline text, which ``rk4_reference``'s march calls on a list of the
    stage's ``np.float64`` state instead of writing its text in place."""
    return dataclasses.replace(sys, rhs=tuple(lambda t, s, f=f: f(t, s) for f in sys.rhs))


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


def closure_compile(e):
    """Compile a tree into ``fn(env)``: one Python closure per tree node.

    Each closure calls its children's closures and applies one numpy
    operation, so the values round exactly as a walk of the tree does.
    """
    if isinstance(e, Const):
        v = e.value
        return lambda env: v
    if isinstance(e, Var):
        name = e.name
        if name in CONSTANTS:
            c = CONSTANTS[name]
            return lambda env: env[name] if name in env else c
        return lambda env: env[name]
    if isinstance(e, Neg):
        inner = closure_compile(e.operand)
        return lambda env: -inner(env)
    if isinstance(e, BinOp):
        lf = closure_compile(e.left)
        rf = closure_compile(e.right)
        op = e.op
        if op == "+":
            return lambda env: lf(env) + rf(env)
        if op == "-":
            return lambda env: lf(env) - rf(env)
        if op == "*":
            return lambda env: lf(env) * rf(env)
        if op == "/":
            # np.divide, not '/', so 1/0 on two Python floats is inf
            return lambda env: np.divide(lf(env), rf(env))
        return lambda env: np.power(lf(env), rf(env))
    if isinstance(e, Call):
        if e.fn == "nthroot":
            xf = closure_compile(e.args[0])
            k = e.k
            inv = 1.0 / k
            if k % 2 == 0:
                return lambda env: np.power(xf(env), inv)

            def odd_root(env):
                # evaluate the argument once; twice would double the cost per nesting level
                x = xf(env)
                return np.copysign(np.power(np.abs(x), inv), x)

            return odd_root
        xf = closure_compile(e.args[0])
        fn = _NP_FUNCS[e.fn]
        return lambda env: fn(xf(env))
    raise TypeError(f"not an expression node: {e!r}")


def compile_array(e):
    """Compile a tree into a numpy-vectorized ``fn(env) -> ndarray``.

    ``fn`` is one generated function that reads each variable as
    ``env[name]`` (``pi`` and ``e`` only where ``env`` binds them) and
    returns one nested expression that applies one numpy operation per
    operator or call, in the tree's order.  Every operator follows IEEE
    arithmetic, so domain violations and division by zero produce nan/inf
    rather than raising.  ``fn`` does not touch numpy's error state: numpy
    reports those nan/inf as ``RuntimeWarning`` unless the caller evaluates
    under ``np.errstate(all="ignore")``, as each public entry point of the
    package (``solve``, ``ivim_step``, ``project_samples``,
    ``rk4_reference``, ``cli.main`` and the rest) does once per call.
    """
    return _generate(e, ("env",), _read_env, "expression")


def scalar_form(f):
    """``g(t, s)``: the inline text of the compiled right-hand side ``f``,
    evaluated with ``t`` and the stage locals ``s0, s1, ..`` bound to ``t``
    and the items of ``s``."""
    code = compile(f.inline, "<scalar form>", "eval")

    def g(t, s):
        return eval(code, {**_NAMESPACE, "t": t, **{f"s{j}": x for j, x in enumerate(s)}})

    return g


def walked_state_free_subtrees(e, state):
    """The maximal subtrees of ``e`` that read no variable in ``state`` and
    apply at least one operator or call, left to right, by a walk that
    collects each visited node's free variables afresh."""
    state = frozenset(state)
    found = []

    def walk(node):
        if state.isdisjoint(free_variables(node)):
            if _children(node):
                found.append(node)
            return
        for child in _children(node):
            walk(child)

    walk(e)
    return tuple(found)


def _flatten(e, program):
    """Postorder flattening; execution order is the oracle's own."""
    if isinstance(e, Const):
        program.append(("push", e.value))
    elif isinstance(e, Var):
        program.append(("load", e.name))
    elif isinstance(e, Neg):
        _flatten(e.operand, program)
        program.append(("neg", None))
    elif isinstance(e, BinOp):
        _flatten(e.left, program)
        _flatten(e.right, program)
        program.append(("bin", e.op))
    elif isinstance(e, Call):
        for a in e.args:
            _flatten(a, program)
        program.append(("call", (e.fn, e.k)))
    else:
        raise TypeError(e)


def stack_eval(e, env):
    """Evaluate a tree on Python floats with the math module, as a stack machine.

    ``^`` is ``math.pow``, an even root ``x ** (1/k)`` and an odd root
    ``copysign(|x| ** (1/k), x)``.  Where the math module refuses an
    argument this raises its ``ValueError``, ``OverflowError`` or
    ``ZeroDivisionError`` rather than returning inf or NaN.
    """
    program = []
    _flatten(e, program)
    stack = []
    for op, payload in program:
        if op == "push":
            stack.append(payload)
        elif op == "load":
            stack.append(env[payload] if payload in env else CONSTANTS[payload])
        elif op == "neg":
            stack.append(-stack.pop())
        elif op == "bin":
            b = stack.pop()
            a = stack.pop()
            if payload == "+":
                stack.append(a + b)
            elif payload == "-":
                stack.append(a - b)
            elif payload == "*":
                stack.append(a * b)
            elif payload == "/":
                stack.append(a / b)
            else:
                stack.append(math.pow(a, b))
        else:
            fn, k = payload
            x = stack.pop()
            if fn == "nthroot":
                if k % 2 == 0:
                    if x < 0:
                        raise ValueError("even root of negative")
                    stack.append(x ** (1.0 / k))
                else:
                    stack.append(math.copysign(abs(x) ** (1.0 / k), x))
            elif fn == "abs":
                stack.append(abs(x))
            else:
                stack.append(getattr(math, fn)(x))
    assert len(stack) == 1
    return stack[0]
