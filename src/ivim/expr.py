"""Small arithmetic expression language for problem right-hand sides.

Grammar (precedence from loosest to tightest):

    sum    := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := number | name | name '(' sum (',' sum)* ')' | '(' sum ')'

so ``-u^2`` is ``-(u^2)`` and ``u^2^3`` is ``u^(2^3)``.  Implicit
multiplication is rejected.  ``pi`` and ``e`` are predefined constants.
``nthroot(x, k)`` is the real k-th root: ``sign(x) * |x|^(1/k)`` for odd k,
defined only for ``x >= 0`` when k is even.  It is the sanctioned spelling of
fractional powers of possibly negative quantities, e.g. ``nthroot(u^2, 5)``
for ``u^(2/5)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Union

import numpy as np

__all__ = [
    "ExprError",
    "Token",
    "Expr",
    "Const",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "tokenize",
    "parse_expression",
    "parse",
    "pretty",
    "eval_expr",
    "validate_vars",
    "free_variables",
    "compile_array",
    "FUNCTIONS",
    "CONSTANTS",
]


class ExprError(ValueError):
    """Lex/parse/evaluation error with a byte offset into the source."""

    def __init__(self, message: str, position: Optional[int] = None):
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


# --- tokens -----------------------------------------------------------------

@dataclass(frozen=True)
class Token:
    kind: str  # "number" | "identifier" | "operator" | "paren" | "comma"
    lexeme: str
    position: int


_OPERATORS = "+-*/^"


def tokenize(src: str) -> list[Token]:
    """Lex a source string.  Raises ExprError on an illegal character."""
    tokens: list[Token] = []
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        start = i
        if c.isdigit():
            # integer / decimal / scientific; a trailing '.' is allowed,
            # a leading '.' is not
            i += 1
            while i < n and src[i].isdigit():
                i += 1
            if i < n and src[i] == ".":
                i += 1
                while i < n and src[i].isdigit():
                    i += 1
            if i < n and src[i] in "eE":
                j = i + 1
                if j < n and src[j] in "+-":
                    j += 1
                if j < n and src[j].isdigit():
                    i = j + 1
                    while i < n and src[i].isdigit():
                        i += 1
            tokens.append(Token("number", src[start:i], start))
            continue
        if c.isalpha() or c == "_":
            i += 1
            while i < n and (src[i].isalnum() or src[i] == "_"):
                i += 1
            tokens.append(Token("identifier", src[start:i], start))
            continue
        if c in _OPERATORS:
            tokens.append(Token("operator", c, start))
            i += 1
            continue
        if c in "()":
            tokens.append(Token("paren", c, start))
            i += 1
            continue
        if c == ",":
            tokens.append(Token("comma", c, start))
            i += 1
            continue
        raise ExprError(f"illegal character {c!r}", start)
    return tokens


# --- syntax tree ------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: float
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Neg:
    operand: "Expr"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / ^
    left: "Expr"
    right: "Expr"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple
    k: Optional[int] = None  # root degree, nthroot only
    pos: int = field(default=0, compare=False)


Expr = Union[Const, Var, Neg, BinOp, Call]

FUNCTIONS = {
    "sin": 1,
    "cos": 1,
    "tan": 1,
    "tanh": 1,
    "exp": 1,
    "log": 1,
    "sqrt": 1,
    "abs": 1,
    "nthroot": 2,
}

CONSTANTS = {"pi": math.pi, "e": math.e}


# --- parser -----------------------------------------------------------------

class _Cursor:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.paren_depth = 0

    def peek(self) -> Optional[Token]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            pos = last.position + len(last.lexeme) if last else 0
            if self.paren_depth > 0:
                raise ExprError("unbalanced parenthesis", pos)
            raise ExprError("unexpected end of input", pos)
        self.i += 1
        return tok


def parse_expression(tokens: list[Token]) -> Expr:
    """Parse a full token stream into a tree; trailing input is an error."""
    if not tokens:
        raise ExprError("empty expression", 0)
    cur = _Cursor(tokens)
    tree = _parse_sum(cur)
    tok = cur.peek()
    if tok is not None:
        raise ExprError(f"trailing input {tok.lexeme!r}", tok.position)
    return tree


def parse(src: str) -> Expr:
    return parse_expression(tokenize(src))


def _parse_sum(cur: _Cursor) -> Expr:
    node = _parse_term(cur)
    while True:
        tok = cur.peek()
        if tok is not None and tok.kind == "operator" and tok.lexeme in "+-":
            cur.next()
            rhs = _parse_term(cur)
            node = BinOp(tok.lexeme, node, rhs, pos=tok.position)
        else:
            return node


def _parse_term(cur: _Cursor) -> Expr:
    node = _parse_unary(cur)
    while True:
        tok = cur.peek()
        if tok is not None and tok.kind == "operator" and tok.lexeme in "*/":
            cur.next()
            rhs = _parse_unary(cur)
            node = BinOp(tok.lexeme, node, rhs, pos=tok.position)
        else:
            return node


def _parse_unary(cur: _Cursor) -> Expr:
    tok = cur.peek()
    if tok is not None and tok.kind == "operator" and tok.lexeme == "-":
        cur.next()
        return Neg(_parse_unary(cur), pos=tok.position)
    return _parse_power(cur)


def _parse_power(cur: _Cursor) -> Expr:
    base = _parse_atom(cur)
    tok = cur.peek()
    if tok is not None and tok.kind == "operator" and tok.lexeme == "^":
        cur.next()
        # exponent through the unary level: right-associative, allows u^-2
        exponent = _parse_unary(cur)
        return BinOp("^", base, exponent, pos=tok.position)
    return base


def _parse_atom(cur: _Cursor) -> Expr:
    tok = cur.next()
    if tok.kind == "number":
        try:
            value = float(tok.lexeme)
        except ValueError:
            raise ExprError(f"malformed number {tok.lexeme!r}", tok.position)
        return Const(value, pos=tok.position)
    if tok.kind == "identifier":
        nxt = cur.peek()
        if nxt is not None and nxt.kind == "paren" and nxt.lexeme == "(":
            return _parse_call(cur, tok)
        if tok.lexeme in FUNCTIONS:
            raise ExprError(
                f"expected '(' after function name {tok.lexeme!r}", tok.position
            )
        return Var(tok.lexeme, pos=tok.position)
    if tok.kind == "paren" and tok.lexeme == "(":
        cur.paren_depth += 1
        inner = _parse_sum(cur)
        closing = cur.peek()
        if closing is None or closing.kind != "paren" or closing.lexeme != ")":
            raise ExprError("unbalanced parenthesis", tok.position)
        cur.next()
        cur.paren_depth -= 1
        return inner
    raise ExprError(f"unexpected token {tok.lexeme!r}", tok.position)


def _parse_call(cur: _Cursor, name_tok: Token) -> Expr:
    fn = name_tok.lexeme
    if fn not in FUNCTIONS:
        raise ExprError(f"unknown function {fn!r}", name_tok.position)
    open_tok = cur.next()  # '('
    cur.paren_depth += 1
    args = [_parse_sum(cur)]
    while True:
        tok = cur.peek()
        if tok is not None and tok.kind == "comma":
            cur.next()
            args.append(_parse_sum(cur))
            continue
        break
    closing = cur.peek()
    if closing is None or closing.kind != "paren" or closing.lexeme != ")":
        raise ExprError("unbalanced parenthesis", open_tok.position)
    cur.next()
    cur.paren_depth -= 1
    arity = FUNCTIONS[fn]
    if len(args) != arity:
        raise ExprError(
            f"{fn} expects {arity} argument(s), got {len(args)}", name_tok.position
        )
    if fn == "nthroot":
        korder = args[1]
        if not isinstance(korder, Const) or not float(korder.value).is_integer() or korder.value < 1:
            pos = getattr(korder, "pos", name_tok.position)
            raise ExprError("nthroot degree must be a positive integer literal", pos)
        return Call("nthroot", (args[0],), k=int(korder.value), pos=name_tok.position)
    return Call(fn, tuple(args), pos=name_tok.position)


# --- printing ---------------------------------------------------------------

_PREC_SUM, _PREC_TERM, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        if e.op in "+-":
            return _PREC_SUM
        if e.op in "*/":
            return _PREC_TERM
        return _PREC_POW
    if isinstance(e, Neg):
        return _PREC_UNARY
    return _PREC_ATOM


def pretty(e: Expr) -> str:
    """Render a tree back to source; reparsing yields an identical tree."""
    if isinstance(e, Const):
        v = e.value
        if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
            return str(int(v))
        return repr(v)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        inner = pretty(e.operand)
        if _prec(e.operand) < _PREC_UNARY:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, BinOp):
        p = _prec(e)
        left = pretty(e.left)
        right = pretty(e.right)
        if e.op == "^":
            if _prec(e.left) <= p:
                left = f"({left})"
            if _prec(e.right) < _PREC_UNARY:
                right = f"({right})"
        else:
            if _prec(e.left) < p:
                left = f"({left})"
            if _prec(e.right) <= p:
                right = f"({right})"
        return f"{left} {e.op} {right}" if e.op in "+-" else f"{left}{e.op}{right}"
    if isinstance(e, Call):
        if e.fn == "nthroot":
            return f"nthroot({pretty(e.args[0])}, {e.k})"
        return f"{e.fn}({', '.join(pretty(a) for a in e.args)})"
    raise TypeError(f"not an expression node: {e!r}")


# --- evaluation -------------------------------------------------------------

def eval_expr(e: Expr, env: dict[str, float]) -> float:
    """Evaluate with all free variables bound in ``env``.

    Raises ExprError for unbound variables, domain errors (naming the
    offending subexpression and arguments) and non-finite results.
    """
    result = _eval(e, env)
    if not math.isfinite(result):
        raise ExprError(f"non-finite result {result!r} from {pretty(e)!r}")
    return result


def _eval(e: Expr, env: dict[str, float]) -> float:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        if e.name in env:
            return float(env[e.name])
        if e.name in CONSTANTS:
            return CONSTANTS[e.name]
        raise ExprError(f"unbound variable {e.name!r}", e.pos)
    if isinstance(e, Neg):
        return -_eval(e.operand, env)
    if isinstance(e, BinOp):
        a = _eval(e.left, env)
        b = _eval(e.right, env)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if b == 0.0:
                raise ExprError(f"division by zero in {pretty(e)!r}", e.pos)
            return a / b
        try:
            return math.pow(a, b)
        except ValueError:
            raise ExprError(
                f"domain error in {pretty(e)!r}: pow({a!r}, {b!r})", e.pos
            )
        except OverflowError:
            raise ExprError(f"overflow in {pretty(e)!r}: pow({a!r}, {b!r})", e.pos)
    if isinstance(e, Call):
        if e.fn == "nthroot":
            x = _eval(e.args[0], env)
            return _nthroot(x, e.k, e)
        x = _eval(e.args[0], env)
        fn = getattr(math, e.fn) if e.fn != "abs" else abs
        try:
            return float(fn(x))
        except ValueError:
            raise ExprError(f"domain error in {pretty(e)!r}: {e.fn}({x!r})", e.pos)
        except OverflowError:
            raise ExprError(f"overflow in {pretty(e)!r}: {e.fn}({x!r})", e.pos)
    raise TypeError(f"not an expression node: {e!r}")


def _nthroot(x: float, k: int, node: Call) -> float:
    if k % 2 == 0:
        if x < 0.0:
            raise ExprError(
                f"domain error in {pretty(node)!r}: even root of {x!r}", node.pos
            )
        return x ** (1.0 / k)
    return math.copysign(abs(x) ** (1.0 / k), x)


def free_variables(e: Expr) -> dict[str, int]:
    """Free variable names mapped to the position of their first occurrence.

    The predefined constants ``pi`` and ``e`` are not free.
    """
    found: dict[str, int] = {}

    def walk(node: Expr):
        if isinstance(node, Var):
            if node.name not in CONSTANTS and node.name not in found:
                found[node.name] = node.pos
        elif isinstance(node, Neg):
            walk(node.operand)
        elif isinstance(node, BinOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Call):
            for a in node.args:
                walk(a)

    walk(e)
    return found


def validate_vars(e: Expr, allowed: Iterable[str]) -> None:
    """Raise ExprError listing every free variable not in ``allowed``."""
    allowed = set(allowed)
    unknown = {n: p for n, p in free_variables(e).items() if n not in allowed}
    if unknown:
        listing = ", ".join(f"{n!r} at offset {p}" for n, p in sorted(unknown.items()))
        raise ExprError(
            f"unknown variable(s): {listing}", min(unknown.values())
        )


# --- vectorized compilation ---------------------------------------------------

_NP_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "tanh": np.tanh,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}


def compile_array(e: Expr) -> Callable[[dict], np.ndarray]:
    """Compile a tree into a numpy-vectorized ``fn(env) -> ndarray``.

    Every operator follows IEEE arithmetic, so domain violations and division
    by zero produce nan/inf rather than raising; callers are expected to
    check finiteness of whatever they derive from the result.  ``fn`` does
    not touch numpy's error state: numpy reports those nan/inf as
    ``RuntimeWarning`` unless the caller evaluates under
    ``np.errstate(all="ignore")``, as the solver sweep, the guess and exact
    evaluations and the RK4 reference each do once per call.  The scalar
    :func:`eval_expr` is the strict evaluator.
    """
    return _compile(e)


def _compile(e: Expr):
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
        inner = _compile(e.operand)
        return lambda env: -inner(env)
    if isinstance(e, BinOp):
        lf = _compile(e.left)
        rf = _compile(e.right)
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
            xf = _compile(e.args[0])
            k = e.k
            inv = 1.0 / k
            if k % 2 == 0:
                return lambda env: np.power(xf(env), inv)
            return lambda env: np.copysign(np.power(np.abs(xf(env)), inv), xf(env))
        xf = _compile(e.args[0])
        fn = _NP_FUNCS[e.fn]
        return lambda env: fn(xf(env))
    raise TypeError(f"not an expression node: {e!r}")
