"""Problem definitions: built-in benchmarks and the JSON problem format.

A problem file is a JSON document:

    {
      "name": "riccati",
      "interval": {"a": 0.0, "T": 1.0},
      "equations": [{"alpha": -2.0, "rhs": "2*u - u^2 + 1"}],
      "initial": [0.0],
      "exact": ["..."],          # optional, one expression per equation
      "guess": ["..."]           # optional initial iterate, expressions in t
    }

Any other key, at the top level, in ``interval`` or in an equation, is an
input error that names it: a misspelt ``"exacts"`` is not silently ignored.

Right-hand sides may reference ``t`` and the components ``u1 .. uk`` (plus
the alias ``u`` for single equations); ``exact`` and ``guess`` are functions
of ``t`` alone.  Built-ins are defined through the same expressions and the
same compilation path as loaded files, so exporting a built-in and loading
it back is exact.
"""

from __future__ import annotations

import copy
import json

import numpy as np

from .engine import IvpSystem
from .expr import ExprError, _generate, parse, validate_vars

__all__ = [
    "BUILTIN_PROBLEMS",
    "builtin_names",
    "builtin_problem_dict",
    "problem_from_dict",
    "load_problem_file",
    "get_problem",
]


BUILTIN_PROBLEMS = {
    # Quadratic Riccati equation; linear part u' - 2u.
    "ex1": {
        "name": "ex1",
        "interval": {"a": 0.0, "T": 1.0},
        "equations": [{"alpha": -2.0, "rhs": "2*u - u^2 + 1"}],
        "initial": [0.0],
        "exact": ["1 + sqrt(2)*tanh(sqrt(2)*t + 0.5*log((sqrt(2)-1)/(sqrt(2)+1)))"],
    },
    # Degenerate-at-zero problem with a fractional-power rhs.  The zero
    # function is also a fixed point of the iteration (the rhs vanishes along
    # it and is not Lipschitz there), so the guess seeds the nontrivial
    # branch; any positive seed converges to the same limit.
    "ex2": {
        "name": "ex2",
        "interval": {"a": 0.0, "T": 3.0},
        "equations": [{"alpha": 0.0, "rhs": "5/3*nthroot(u^2,5)*cos(t)"}],
        "initial": [0.0],
        "exact": ["nthroot(sin(t)^5,3)"],
        "guess": ["t"],
    },
    # Second-order problem u'' - 2(u')^2 + u' + u = g rewritten as a
    # first-order system in (u, v = u'); the second equation keeps v' + v as
    # its linear part.
    "ex3": {
        "name": "ex3",
        "interval": {"a": 0.0, "T": 1.5},
        "equations": [
            {"alpha": 0.0, "rhs": "u2"},
            {
                "alpha": 1.0,
                "rhs": "t + 2*sin(t/2)^2 - 8*sin(t/2)^4 + 2*u2^2 - u2 - u1",
            },
        ],
        "initial": [0.0, 0.0],
        "exact": ["t - sin(t)", "1 - cos(t)"],
    },
}


def builtin_names() -> list:
    return sorted(BUILTIN_PROBLEMS)


def builtin_problem_dict(name: str) -> dict:
    if name not in BUILTIN_PROBLEMS:
        raise ValueError(
            f"unknown built-in problem {name!r}; available: {', '.join(builtin_names())}"
        )
    return copy.deepcopy(BUILTIN_PROBLEMS[name])


def _must_be(what: str, kind: str, value) -> ValueError:
    """The error for a field of the wrong JSON type, spelling the value as JSON."""
    return ValueError(f"{what} must be {kind}, got {json.dumps(value, default=repr)}")


def _compile(src, what: str, k: int = 0):
    """Parse, validate and compile one JSON string; an error names ``what``.

    A right-hand side (``k`` components) compiles to ``f(t, s)`` reading
    ``u_j`` as ``s[j-1]``; ``exact`` and ``guess`` (``k = 0``) to ``f(t)``.
    """
    if not isinstance(src, str):
        raise _must_be(what, "a string", src)
    slots = {"t": "t", **{f"u{j + 1}": f"s[{j}]" for j in range(k)}}
    if k == 1:
        slots["u"] = "s[0]"  # the alias of a single equation
    try:
        tree = parse(src)
        validate_vars(tree, slots)
        return _generate(tree, ("t", "s") if k else ("t",), slots.get, what)
    except ExprError as exc:
        raise ExprError(f"{what}: {exc.reason}", exc.position) from None


def _number(value, what: str) -> float:
    """A JSON number (not a boolean) as a float; anything else names ``what``."""
    if type(value) is bool or not isinstance(value, (int, float)):
        raise _must_be(what, "a number", value)
    try:
        return float(value)
    except OverflowError:  # an integer literal past float64
        raise ValueError(f"{what} is too large for float64") from None


def _reject_unknown_keys(obj: dict, allowed: tuple, where: str) -> None:
    """Raise ``ValueError`` naming the first key of ``obj`` outside ``allowed``."""
    for key in obj:
        if key not in allowed:
            raise ValueError(f"unknown key {key!r} in {where}; allowed: {', '.join(allowed)}")


def problem_from_dict(doc: dict) -> IvpSystem:
    """Validate a problem document and compile it into a system."""
    if not isinstance(doc, dict):
        raise ValueError("problem document must be a JSON object")
    _reject_unknown_keys(
        doc, ("name", "interval", "equations", "initial", "exact", "guess"), "the problem document"
    )
    for key in ("interval", "equations", "initial"):
        if key not in doc:
            raise ValueError(f"problem document missing required key {key!r}")
    interval = doc["interval"]
    if not isinstance(interval, dict) or "a" not in interval or "T" not in interval:
        raise ValueError("interval must be an object with keys 'a' and 'T'")
    _reject_unknown_keys(interval, ("a", "T"), "interval")
    equations = doc["equations"]
    if not isinstance(equations, list) or not equations:
        raise ValueError("equations must be a non-empty list")
    k = len(equations)
    initial = doc["initial"]
    if not isinstance(initial, list) or len(initial) != k:
        raise ValueError(f"initial must list exactly {k} number(s)")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise _must_be("name", "a string", name)
    a = _number(interval["a"], "interval endpoint a")
    T = _number(interval["T"], "interval endpoint T")
    initial = tuple(_number(v, f"initial value of equation {j + 1}") for j, v in enumerate(initial))

    alphas = []
    rhs = []
    for idx, eq in enumerate(equations):
        if not isinstance(eq, dict) or "alpha" not in eq or "rhs" not in eq:
            raise ValueError(f"equation {idx + 1} must carry 'alpha' and 'rhs'")
        _reject_unknown_keys(eq, ("alpha", "rhs"), f"equation {idx + 1}")
        alphas.append(_number(eq["alpha"], f"alpha of equation {idx + 1}"))
        rhs.append(_compile(eq["rhs"], f"rhs of equation {idx + 1}", k))

    exact = None
    if doc.get("exact") is not None:
        texts = doc["exact"]
        if not isinstance(texts, list) or len(texts) != k:
            raise ValueError(f"exact must list exactly {k} expression(s)")
        fns = [_compile(s, f"exact {j + 1}") for j, s in enumerate(texts)]

        def exact(t):
            t = np.asarray(t, dtype=float)
            return np.vstack([np.broadcast_to(f(t), t.shape) for f in fns])

    guess = None
    if doc.get("guess") is not None:
        texts = doc["guess"]
        if not isinstance(texts, list) or len(texts) != k:
            raise ValueError(f"guess must list exactly {k} expression(s)")
        guess = tuple(_compile(s, f"guess {j + 1}") for j, s in enumerate(texts))

    return IvpSystem(
        alphas=tuple(alphas),
        a=a,
        T=T,
        initial=initial,
        rhs=tuple(rhs),
        exact=exact,
        guess=guess,
        name=name,
    )


def load_problem_file(path) -> tuple:
    """Load a JSON problem file; returns ``(system, document)``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed JSON in {path}: {exc}") from exc
        except (ValueError, RecursionError) as exc:
            # not UTF-8, an integer too long to convert, or nested too deep
            raise ValueError(f"cannot read {path} as JSON: {exc}") from exc
    return problem_from_dict(doc), doc


def get_problem(source) -> tuple:
    """Resolve a built-in name or a file path to ``(system, document)``."""
    source = str(source)
    if source in BUILTIN_PROBLEMS:
        doc = builtin_problem_dict(source)
        return problem_from_dict(doc), doc
    return load_problem_file(source)
