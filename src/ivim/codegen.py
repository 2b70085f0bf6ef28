"""The compiled forms of an expression: ``_generate`` turns a syntax tree of
``expr`` into generated numpy code, which ``problems`` and ``expr.eval_expr``
run; a right-hand side also gets its split and scalar forms."""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .expr import _NP_FUNCS, CONSTANTS, BinOp, Call, Const, Expr, Neg, Var


def _odd_root(x, inv):
    """Real odd root ``sign(x) * |x|^inv``: a call, so ``x`` is evaluated once."""
    return np.copysign(np.power(np.abs(x), inv), x)


def _quotient(a, b):
    """``a / b`` on Python floats; numpy's inf or NaN, as a float, for a zero ``b``."""
    return a / b if b else float(np.divide(a, b))


def _read_env(name, const):
    """``_generate``'s ``read`` from a dict ``env``; ``pi`` and ``e`` where it binds them."""
    return f"env[{name!r}]" if const is None else f"env.get({name!r}, {const})"


# the globals of a generated function: the callables its source names
_NAMESPACE = {
    **_NP_FUNCS, "divide": np.divide, "power": np.power, "_odd_root": _odd_root,
    "_quotient": _quotient,
}

# np.divide, not '/', so 1/0 on two Python floats is inf
_BINOPS = {
    "+": "({} + {})",
    "-": "({} - {})",
    "*": "({} * {})",
    "/": "divide({}, {})",
    "^": "power({}, {})",
}
# the scalar form: Python's '/' but for a zero divisor, and numpy's power as a float
_SCALAR_BINOPS = {**_BINOPS, "/": "_quotient({}, {})", "^": "float(power({}, {}))"}


def _generate(e: Expr, params: tuple, read: Callable, label: str, hoisted: tuple = ()) -> Callable:
    """Compile a validated tree into ``def f(*params): return <expression>``.

    ``read(name, const)`` gives the source that loads variable ``name``;
    ``const`` names the bound value of ``pi`` or ``e``, else it is ``None``.
    The returned expression nests one level per tree level and applies one
    numpy operation per operator or call, in the tree's evaluation order, so
    every intermediate rounds as in a tree walk.  The function has no locals
    beyond its parameters, so numpy may reuse an intermediate array in place.
    Constants are bound as names: the only tree text in the source is a
    variable name, inside a ``repr``.  ``label`` names the function and its
    file for tracebacks and profiles.  A node that is not an expression
    raises ``TypeError``.

    ``hoisted`` holds subtrees of ``e`` that read no variable but ``t``, as
    ``state_free_subtrees`` finds them.  When it is not empty, the same
    source defines ``pre(t)``, returning the tuple of their values, and
    ``main(*params, p)``, which is ``f`` reading the i-th subtree (matched by
    identity) as ``p[i]``; ``f.split`` is ``(pre, main)``.  As each subtree
    is evaluated by the same operations, ``main(*args, pre(t))`` has the bits
    of ``f(*args)``.  The one exception is a NaN: where numpy reuses a
    temporary array of 256 KiB or more in place, a sum or product of two
    NaNs may keep the other one's sign and payload.

    A right-hand side (``params`` is ``("t", "s")``) also gets
    ``f.scalar(t, s)``, the same expression on Python floats ``t`` and
    ``s[j]`` for ``rk4_reference``: ``+ - *`` and negation act on the
    floats, ``/`` is Python's but for a zero divisor (``_quotient``), and
    each numpy call is converted back with ``float()``.  IEEE arithmetic is
    the same on both types and ``float()`` of a float64 is exact, so it
    returns a ``float`` with the bits of ``f`` on ``np.float64`` arguments,
    the sign of a zero included.  The one exception is again a NaN: a sum or
    product of two NaNs may keep the other one's sign and payload, as
    CPython's float ``+`` and ``*`` do once the interpreter has specialized
    them (after a few calls).
    """
    consts: dict = {}
    slots: dict = {}  # id of a hoisted node -> its index in p, while main is written

    def bind(value) -> str:
        name = f"c{len(consts)}"
        consts[name] = value
        return name

    def source(node, scalar: bool = False) -> str:
        if id(node) in slots:
            return f"p[{slots[id(node)]}]"
        if isinstance(node, Const):
            return bind(node.value)
        if isinstance(node, Var):
            if type(node.name) is not str:
                raise TypeError(f"variable name must be a str: {node!r}")
            return read(node.name, bind(CONSTANTS[node.name]) if node.name in CONSTANTS else None)
        if isinstance(node, Neg):
            return f"(-{source(node.operand, scalar)})"
        if isinstance(node, BinOp):
            template = (_SCALAR_BINOPS if scalar else _BINOPS).get(node.op)
            if template is None:
                raise TypeError(f"not an operator: {node.op!r}")
            return template.format(source(node.left, scalar), source(node.right, scalar))
        if isinstance(node, Call) and node.fn == "nthroot":
            root = "power" if node.k % 2 == 0 else "_odd_root"
            text = f"{root}({source(node.args[0], scalar)}, {bind(1.0 / node.k)})"
        elif isinstance(node, Call):
            if type(node.fn) is not str or node.fn not in _NP_FUNCS:
                raise TypeError(f"not a function: {node.fn!r}")
            text = f"{node.fn}({source(node.args[0], scalar)})"
        else:
            raise TypeError(f"not an expression node: {node!r}")
        return f"float({text})" if scalar else text

    src = f"def f({', '.join(params)}):\n    return {source(e)}\n"
    if params == ("t", "s"):
        src += f"def scalar(t, s):\n    return {source(e, True)}\n"
    if hoisted:
        src += f"def pre(t):\n    return ({''.join(source(node) + ', ' for node in hoisted)})\n"
        slots.update((id(node), i) for i, node in enumerate(hoisted))
        src += f"def main({', '.join(params)}, p):\n    return {source(e)}\n"
    namespace = {**_NAMESPACE, **consts}
    exec(_code(src, label), namespace)
    # no cycle through their own globals: freed by refcount
    fn = namespace.pop("f")
    fn.__qualname__ = label
    if params == ("t", "s"):
        fn.scalar = namespace.pop("scalar")
    if hoisted:
        fn.split = (namespace.pop("pre"), namespace.pop("main"))
    return fn


@functools.lru_cache(maxsize=256)
def _code(src: str, label: str):
    """``src`` compiled; kept, as a code object is immutable and its source
    names constants rather than holding them, so every rhs of one shape
    shares it and each ``exec`` of it makes new functions."""
    return compile(src, f"<{label}>", "exec")
