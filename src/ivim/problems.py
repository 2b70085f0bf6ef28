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
Nor is a key given twice in one object of a file: that is an input error
naming the key and the file, where ``json.load`` would keep the last value.

Right-hand sides may reference ``t`` and the components ``u1 .. uk`` (plus
the alias ``u`` for single equations); ``exact`` and ``guess`` are functions
of ``t`` alone.  Built-ins are defined through the same expressions and the
same compilation path as loaded files, so exporting a built-in and loading
it back is exact.  ``exact_builtin_eval`` evaluates a built-in's closed
form at one ``t``.
"""

from __future__ import annotations

import copy
import functools
import json

import numpy as np

from .engine import IvpSystem
from .codegen import _generate
from .expr import ExprError, parse, state_free_subtrees, validate_vars

__all__ = [
    "BUILTIN_PROBLEMS",
    "builtin_names",
    "builtin_problem_dict",
    "problem_from_dict",
    "load_problem_file",
    "get_problem",
    "exact_builtin_eval",
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


def exact_builtin_eval(name: str, t: float) -> np.ndarray:
    """Closed-form solution of a built-in problem at ``t``, shape (k,).

    The values are those of the closed form of the built-in's kept system,
    ``_system(name).exact``.
    """
    if name not in BUILTIN_PROBLEMS:
        raise ValueError(f"unknown built-in problem {name!r}")
    interval = BUILTIN_PROBLEMS[name]["interval"]
    a, T = interval["a"], interval["T"]
    t = float(t)
    if not a <= t <= T:  # False for nan
        raise ValueError(f"t={t} outside [{a}, {T}] for {name}")
    return _system(name).exact(np.array([t]))[:, 0]


def _must_be(what: str, kind: str, value) -> ValueError:
    """The error for a field of the wrong JSON type, spelling the value as JSON."""
    return ValueError(f"{what} must be {kind}, got {json.dumps(value, default=repr)}")


def _compile(src, what: str, k: int = 0):
    """Parse, validate and compile one JSON string; an error names ``what``.

    A right-hand side (``k`` components) compiles to ``f(t, s)`` reading
    ``u_j`` as ``s[j-1]``; ``exact`` and ``guess`` (``k = 0``) to ``f(t)``.
    A right-hand side carries ``f.inline``, its text on Python floats with
    ``u_j`` read as the local ``s{j-1}``, for ``rk4_reference``'s march;
    one with parts in ``t`` alone also carries ``f.split = (pre, main)``, so
    a solve on fixed nodes evaluates those parts once (see
    ``codegen._generate``).
    """
    if not isinstance(src, str):
        raise _must_be(what, "a string", src)
    index = {f"u{j + 1}": j for j in range(k)}
    if k == 1:
        index["u"] = 0  # the alias of a single equation
    try:
        tree = parse(src)
        validate_vars(tree, ["t", *index])
        if not k:
            return _generate(tree, ("t",), {"t": "t"}.get, what)
        slots = {"t": "t", **{name: f"s[{j}]" for name, j in index.items()}}
        stage = {"t": "t", **{name: f"s{j}" for name, j in index.items()}}
        return _generate(tree, ("t", "s"), slots.get, what, state_free_subtrees(tree, index),
                         stage.get)
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


def _expressions_in_t(doc: dict, key: str, k: int):
    """The optional list ``doc[key]`` of k expressions in ``t``, compiled; None without one."""
    texts = doc.get(key)
    if texts is None:
        return None
    if not isinstance(texts, list) or len(texts) != k:
        raise ValueError(f"{key} must list exactly {k} expression(s)")
    return tuple(_compile(s, f"{key} {j + 1}") for j, s in enumerate(texts))


def _stacked(fns):
    """The closed form ``t -> (k, n)`` of the k compiled expressions ``fns``; None without them."""
    if fns is None:
        return None

    def exact(t):
        t = np.asarray(t, dtype=float)
        return np.vstack([np.broadcast_to(f(t), t.shape) for f in fns])

    return exact


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

    return IvpSystem(
        alphas=tuple(alphas),
        a=a,
        T=T,
        initial=initial,
        rhs=tuple(rhs),
        exact=_stacked(_expressions_in_t(doc, "exact", k)),
        guess=_expressions_in_t(doc, "guess", k),
        name=name,
    )


class _DuplicateKey(Exception):
    """A key given twice in one JSON object; not a ``ValueError``, so
    ``load_problem_file`` does not report it as unreadable JSON."""


def _distinct_keys(pairs: list) -> dict:
    """``json.load``'s ``object_pairs_hook``: raise ``_DuplicateKey`` on a
    repeated key, which ``json.load`` alone would let overwrite the first."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise _DuplicateKey(key)
        obj[key] = value
    return obj


def load_problem_file(path) -> tuple:
    """Load a JSON problem file; returns ``(system, document)``, a fresh document."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
            doc = json.loads(text, object_pairs_hook=_distinct_keys)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed JSON in {path}: {exc}") from exc
        except (ValueError, RecursionError) as exc:
            # not UTF-8, an integer too long to convert, or nested too deep
            raise ValueError(f"cannot read {path} as JSON: {exc}") from exc
        except _DuplicateKey as exc:
            raise ValueError(f"duplicate key {exc.args[0]!r} in {path}") from None
    return _system(text), doc


def get_problem(source) -> tuple:
    """Resolve a built-in name or a file path to ``(system, document)``."""
    source = str(source)
    if source in BUILTIN_PROBLEMS:
        doc = builtin_problem_dict(source)
        return _system(source), doc
    return load_problem_file(source)


@functools.lru_cache(maxsize=32)
def _system(source: str) -> IvpSystem:
    """The system of a built-in's name or of a problem file's text (which
    cannot be a name), compiled once per process for the last 32 sources;
    an error is not kept.  The caller has parsed the text once already."""
    doc = BUILTIN_PROBLEMS.get(source) or json.loads(source, object_pairs_hook=_distinct_keys)
    return problem_from_dict(doc)
