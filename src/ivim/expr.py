"""Small arithmetic expression language for problem right-hand sides.

Grammar (precedence from loosest to tightest):

    sum    := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := number | name | name '(' sum (',' sum)* ')' | '(' sum ')'

so ``-u^2`` is ``-(u^2)`` and ``u^2^3`` is ``u^(2^3)``.  Implicit
multiplication is rejected.  ``pi`` and ``e`` are predefined constants.
An expression may nest at most ``MAX_DEPTH`` (100) levels deep.
``nthroot(x, k)`` is the real k-th root: ``sign(x) * |x|^(1/k)`` for odd k,
defined only for ``x >= 0`` when k is even.  It is the sanctioned spelling of
fractional powers of possibly negative quantities, e.g. ``nthroot(u^2, 5)``
for ``u^(2/5)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

import numpy as np

__all__ = [
    "ExprError",
    "parse",
    "eval_expr",
    "validate_vars",
]


class ExprError(ValueError):
    """Lex/parse/evaluation error with a byte offset into the source."""

    def __init__(self, message: str, position: Optional[int] = None):
        self.reason = message  # the message without the offset
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


# the kind of each one-character token
_CHAR_KINDS = {**dict.fromkeys("+-*/^", "operator"), "(": "paren", ")": "paren", ",": "comma"}


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
        if c not in _CHAR_KINDS:
            raise ExprError(f"illegal character {c!r}", start)
        tokens.append(Token(_CHAR_KINDS[c], c, start))
        i += 1
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


def _children(e: Expr) -> tuple:
    if isinstance(e, Neg):
        return (e.operand,)
    if isinstance(e, BinOp):
        return (e.left, e.right)
    if isinstance(e, Call):
        return e.args
    return ()


# the one-argument functions, as the numpy ufuncs that generated code calls
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

# every function name and its arity
FUNCTIONS = {**dict.fromkeys(_NP_FUNCS, 1), "nthroot": 2}

CONSTANTS = {"pi": math.pi, "e": math.e}


# --- parser -----------------------------------------------------------------

# Deepest nesting an expression may have, both in the parser (every '(',
# call, unary minus and exponent opens a level) and in its syntax tree (every
# operator or call on top of a subexpression adds one, so does each further
# term of a chain such as a + b + c).  The parser spends up to six frames a
# level (nested calls), the tree walkers (pretty, tree comparison, the code
# generator) one to three; 100 levels keep the deepest case near 650 frames
# under Python's default limit of 1000.  The generated source nests up to two
# bracket levels per operator or call (a call inside float() in the scalar
# form of a right-hand side) and one for a leaf ``s[j]``: 2 * 99 + 1 = 199 at
# this depth, where CPython compiles at most 200 nested brackets, so this
# cannot grow.
MAX_DEPTH = 100


# binding strength, loosest first; the binary operators' levels are read by
# the parser and the printer
_PREC_SUM, _PREC_TERM, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5
_PREC = {"+": _PREC_SUM, "-": _PREC_SUM, "*": _PREC_TERM, "/": _PREC_TERM, "^": _PREC_POW}


def _too_deep(pos: int) -> ExprError:
    return ExprError(f"expression nested deeper than {MAX_DEPTH} levels", pos)


class _Cursor:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.paren_depth = 0
        self.depth = 0

    def peek(self) -> Optional[Token]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def offset(self) -> int:
        """Position of the next token, or the end of the input."""
        tok = self.peek()
        if tok is not None:
            return tok.position
        last = self.tokens[-1]
        return last.position + len(last.lexeme)

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            pos = self.offset()
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
    tree = _parse_level(cur)
    tok = cur.peek()
    if tok is not None:
        raise ExprError(f"trailing input {tok.lexeme!r}", tok.position)
    # the tree's depth, walked without recursion: a long chain such as
    # u + u + ... never nests in the parser but is as deep as it is long
    stack = [(tree, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise _too_deep(node.pos)
        stack.extend((child, depth + 1) for child in _children(node))
    return tree


@functools.lru_cache(maxsize=256)
def parse(src: str) -> Expr:
    """The tree of ``src``.  The trees of the last 256 texts are kept, as
    trees are frozen, so parsing a text again is a lookup; a bad text
    raises afresh every time."""
    return parse_expression(tokenize(src))


def _parse_level(cur: _Cursor, prec: int = _PREC_SUM) -> Expr:
    """A left-associative chain of the operators of level ``prec``: a sum of
    terms, or (``_PREC_TERM``) a term of unary operands."""
    op = None
    while True:
        operand = _parse_level(cur, _PREC_TERM) if prec == _PREC_SUM else _parse_unary(cur)
        node = operand if op is None else BinOp(op.lexeme, node, operand, pos=op.position)
        op = cur.peek()
        if op is None or op.kind != "operator" or _PREC[op.lexeme] != prec:
            return node
        cur.next()


def _parse_unary(cur: _Cursor) -> Expr:
    # every nested construct passes through here, so this bounds the recursion
    cur.depth += 1
    if cur.depth > MAX_DEPTH:
        raise _too_deep(cur.offset())
    tok = cur.peek()
    if tok is not None and tok.kind == "operator" and tok.lexeme == "-":
        cur.next()
        node = Neg(_parse_unary(cur), pos=tok.position)
    else:
        node = _parse_power(cur)
    cur.depth -= 1
    return node


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
        if math.isinf(value):  # pretty would print inf, which reparses as a variable
            raise ExprError(f"number {tok.lexeme!r} overflows float64", tok.position)
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
        inner = _parse_level(cur)
        _close(cur, tok)
        return inner
    raise ExprError(f"unexpected token {tok.lexeme!r}", tok.position)


def _parse_call(cur: _Cursor, name_tok: Token) -> Expr:
    fn = name_tok.lexeme
    if fn not in FUNCTIONS:
        raise ExprError(f"unknown function {fn!r}", name_tok.position)
    open_tok = cur.next()  # '('
    cur.paren_depth += 1
    args = [_parse_level(cur)]
    while True:
        tok = cur.peek()
        if tok is not None and tok.kind == "comma":
            cur.next()
            args.append(_parse_level(cur))
            continue
        break
    _close(cur, open_tok)
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


def _close(cur: _Cursor, open_tok: Token) -> None:
    """Consume the ')' that closes the '(' ``open_tok``."""
    closing = cur.peek()
    if closing is None or closing.kind != "paren" or closing.lexeme != ")":
        raise ExprError("unbalanced parenthesis", open_tok.position)
    cur.next()
    cur.paren_depth -= 1


# --- printing ---------------------------------------------------------------

def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _PREC[e.op]
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
    """Evaluate a tree as ``parse`` makes it by the code the solver runs, with
    its bits and IEEE semantics.  An unbound variable or a non-finite result
    raises ``ExprError``.  A hand-built tree deeper than 200 levels fails in
    CPython, as every generated function does."""
    from .codegen import _generate, _read_env  # codegen imports this module

    validate_vars(e, env)
    with np.errstate(all="ignore"):
        result = float(_generate(e, ("env",), _read_env, "eval_expr")(env))
    if not math.isfinite(result):
        raise ExprError(f"non-finite result {result!r} from {pretty(e)!r}")
    return result


def free_variables(e: Expr) -> dict[str, int]:
    """Free variable names mapped to the position of their first occurrence.

    The predefined constants ``pi`` and ``e`` are not free.
    """
    found: dict[str, int] = {}

    def walk(node: Expr):
        if isinstance(node, Var):
            if node.name not in CONSTANTS and node.name not in found:
                found[node.name] = node.pos
        for child in _children(node):
            walk(child)

    walk(e)
    return found


def state_free_subtrees(e: Expr, state: Iterable[str]) -> tuple:
    """The maximal subtrees of ``e`` that read no variable in ``state`` and
    apply at least one operator or call, left to right.

    With ``state`` the components of a right-hand side, these are its parts
    in ``t`` and constants alone: on fixed nodes their values do not change
    from one evaluation to the next (see ``codegen._generate``'s ``hoisted``).
    """
    state = frozenset(state)
    found = []

    def walk(node: Expr) -> None:
        if state.isdisjoint(free_variables(node)):
            if _children(node):
                found.append(node)
            return
        for child in _children(node):
            walk(child)

    walk(e)
    return tuple(found)


def validate_vars(e: Expr, allowed: Iterable[str]) -> None:
    """Raise ExprError listing every free variable not in ``allowed``."""
    allowed = set(allowed)
    unknown = {n: p for n, p in free_variables(e).items() if n not in allowed}
    if unknown:
        names = sorted(unknown, key=unknown.get)  # the first one's offset is reported
        listing = ", ".join(repr(n) for n in names)
        raise ExprError(f"unknown variable(s): {listing}", unknown[names[0]])
