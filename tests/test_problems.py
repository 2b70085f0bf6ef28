import cProfile
import copy
import importlib.util
import json
import math
import pstats
import sys
import traceback
from pathlib import Path

import numpy as np
import pytest

from ivim import (
    SolveConfig,
    builtin_names,
    builtin_problem_dict,
    codegen,
    exact_builtin_eval,
    expr,
    get_problem,
    load_problem_file,
    problem_from_dict,
    problems,
    rk4_reference,
    solve,
)
from ivim.cli import main as cli_main
from ivim.expr import ExprError, parse

from _oracles import compile_array, plain_callables, scalar_form


def test_builtin_names():
    assert builtin_names() == ["ex1", "ex2", "ex3"]


def test_builtin_shapes_and_intervals():
    expected = {"ex1": (1, 0.0, 1.0), "ex2": (1, 0.0, 3.0), "ex3": (2, 0.0, 1.5)}
    for name, (k, a, T) in expected.items():
        sys_, doc = get_problem(name)
        assert sys_.k == k
        assert (sys_.a, sys_.T) == (a, T)
        assert sys_.name == name
        assert doc["name"] == name


def test_builtin_dict_is_a_copy():
    d = builtin_problem_dict("ex1")
    d["interval"]["T"] = 99.0
    assert builtin_problem_dict("ex1")["interval"]["T"] == 1.0


def test_unknown_builtin():
    with pytest.raises(ValueError, match="unknown built-in"):
        builtin_problem_dict("ex9")


def _closed_form(name, t):
    """A built-in's exact solution, written apart from its expressions."""
    if name == "ex1":
        r = math.sqrt(2.0)
        return [1.0 + r * math.tanh(r * t + math.atanh(-1.0 / r))]
    if name == "ex2":
        s = math.sin(t)
        return [math.copysign(abs(s) ** (5.0 / 3.0), s)]
    return [t - math.sin(t), 1.0 - math.cos(t)]


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
def test_builtin_exact_strings_match_closed_forms(name):
    # the DSL-compiled exact solutions, which exact_builtin_eval reads, and
    # the closed forms written by hand are separate routes to the same functions
    sys_, _ = get_problem(name)
    ts = np.linspace(sys_.a, sys_.T, 23)
    compiled = np.atleast_2d(sys_.exact(ts))
    for i, t in enumerate(ts):
        reference = _closed_form(name, float(t))
        assert np.max(np.abs(compiled[:, i] - reference)) < 1e-13
        assert np.max(np.abs(exact_builtin_eval(name, float(t)) - reference)) < 1e-13


def test_ex2_carries_nonzero_guess():
    sys_, doc = get_problem("ex2")
    assert doc["guess"] == ["t"]
    assert sys_.guess is not None
    assert sys_.guess[0](2.0) == 2.0


def test_rhs_alias_u_for_scalar_problems():
    doc = {
        "name": "alias",
        "interval": {"a": 0.0, "T": 1.0},
        "equations": [{"alpha": 0.0, "rhs": "u + t"}],
        "initial": [0.0],
    }
    sys_ = problem_from_dict(doc)
    assert sys_.rhs[0](0.5, np.array([2.0])) == 2.5


def test_system_components_visible_to_rhs():
    doc = {
        "name": "c",
        "interval": {"a": 0.0, "T": 1.0},
        "equations": [
            {"alpha": 0.0, "rhs": "u2"},
            {"alpha": 0.0, "rhs": "-u1"},
        ],
        "initial": [1.0, 0.0],
    }
    sys_ = problem_from_dict(doc)
    state = np.array([3.0, 4.0])
    assert sys_.rhs[0](0.0, state) == 4.0
    assert sys_.rhs[1](0.0, state) == -3.0


def test_schema_validation_errors():
    base = {
        "name": "x",
        "interval": {"a": 0.0, "T": 1.0},
        "equations": [{"alpha": 0.0, "rhs": "u"}],
        "initial": [0.0],
    }
    missing = {k: v for k, v in base.items() if k != "interval"}
    with pytest.raises(ValueError, match="interval"):
        problem_from_dict(missing)
    bad_initial = dict(base, initial=[0.0, 1.0])
    with pytest.raises(ValueError, match="initial"):
        problem_from_dict(bad_initial)
    empty_eqs = dict(base, equations=[])
    with pytest.raises(ValueError, match="non-empty"):
        problem_from_dict(empty_eqs)
    bad_rhs = dict(base, equations=[{"alpha": 0.0, "rhs": "x - sin(t)"}])
    with pytest.raises(ValueError, match="'x'"):
        problem_from_dict(bad_rhs)
    bad_exact = dict(base, exact=["u + 1"])
    with pytest.raises(ValueError, match="'u'"):
        problem_from_dict(bad_exact)
    # a key outside the schema is an error naming it and where it sits
    for doc, message in [
        (dict(base, exacts=["t"]),
         "unknown key 'exacts' in the problem document; "
         "allowed: name, interval, equations, initial, exact, guess"),
        (dict(base, equations=[{"alpha": 0.0, "alhpa": 1.0, "rhs": "u"}]),
         "unknown key 'alhpa' in equation 1; allowed: alpha, rhs"),
        (dict(base, interval={"a": 0.0, "T": 1.0, "b": 2.0}),
         "unknown key 'b' in interval; allowed: a, T"),
    ]:
        with pytest.raises(ValueError) as err:
            problem_from_dict(doc)
        assert str(err.value) == message
    # every number field takes a JSON number only, and an error names the field
    for field, value, message in [
        ("alpha", None, "alpha of equation 1 must be a number, got null"),
        ("alpha", [1], "alpha of equation 1 must be a number, got [1]"),
        ("alpha", "2", 'alpha of equation 1 must be a number, got "2"'),
        ("alpha", True, "alpha of equation 1 must be a number, got true"),
        ("initial", [None], "initial value of equation 1 must be a number, got null"),
        ("initial", ["0.5"], 'initial value of equation 1 must be a number, got "0.5"'),
        ("interval", {"a": None, "T": 1.0}, "interval endpoint a must be a number, got null"),
        ("interval", {"a": 0, "T": False}, "interval endpoint T must be a number, got false"),
        ("interval", {"a": 0, "T": 10**400}, "interval endpoint T is too large for float64"),
    ]:
        if field == "alpha":
            field, value = "equations", [{"alpha": value, "rhs": "u"}]
        with pytest.raises(ValueError) as err:
            problem_from_dict(dict(base, **{field: value}))
        assert str(err.value) == message
    sys_ = problem_from_dict(dict(base, interval={"a": 0, "T": 2}, initial=[1]))
    assert (sys_.a, sys_.T, sys_.initial) == (0.0, 2.0, (1.0,))  # integers are numbers
    # every expression field takes a JSON string only (it used to go through str())
    for field, value, message in [
        ("rhs", None, "rhs of equation 1 must be a string, got null"),
        ("rhs", True, "rhs of equation 1 must be a string, got true"),
        ("rhs", 5, "rhs of equation 1 must be a string, got 5"),
        ("rhs", ["u"], 'rhs of equation 1 must be a string, got ["u"]'),
        ("exact", [0.5], "exact 1 must be a string, got 0.5"),
        ("guess", [None], "guess 1 must be a string, got null"),
    ]:
        if field == "rhs":
            field, value = "equations", [{"alpha": 0.0, "rhs": value}]
        with pytest.raises(ValueError) as err:
            problem_from_dict(dict(base, **{field: value}))
        assert str(err.value) == message


def test_load_problem_file_roundtrip(tmp_path):
    doc = builtin_problem_dict("ex3")
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    sys_, loaded = load_problem_file(path)
    assert loaded == doc
    assert sys_.k == 2


_BENCH_FILES = [f"{kind}-{seed}" for kind in ("stiff", "pendulum") for seed in (1, 2, 3)]


@pytest.mark.parametrize("source", builtin_names() + _BENCH_FILES)
def test_problem_files_with_distinct_keys_still_load(tmp_path, monkeypatch, source):
    # the duplicate-key check passes every file the package and its benchmark write
    if source in builtin_names():
        path = tmp_path / "p.json"
        path.write_text(json.dumps(builtin_problem_dict(source)), encoding="utf-8")
    else:  # bench/inputs.py writes it, loaded without writing bytecode there
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        script = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
        spec = importlib.util.spec_from_file_location("_bench_inputs", script)
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
        kind, seed = source.split("-")
        path = inputs.write_problem(kind, int(seed), tmp_path)
    _, doc = load_problem_file(path)
    assert doc == json.loads(path.read_text(encoding="utf-8"))


def test_load_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError, match="malformed JSON"):
        load_problem_file(path)


def test_loaded_problem_solves_identically_to_builtin(tmp_path):
    doc = builtin_problem_dict("ex1")
    path = tmp_path / "ex1.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    sys_a, _ = get_problem("ex1")
    sys_b, _ = get_problem(str(path))
    cfg = SolveConfig(n=129, m_max=6)
    ra = solve(sys_a, cfg)
    rb = solve(sys_b, cfg)
    assert np.array_equal(ra.final[0].values, rb.final[0].values)


_TWO_EQUATIONS = {
    "name": "named",
    "interval": {"a": 0.0, "T": 1.0},
    "equations": [{"alpha": 0.0, "rhs": "u2"}, {"alpha": 0.0, "rhs": "-u1"}],
    "initial": [0.0, 1.0],
}


@pytest.mark.parametrize(
    "field, texts, message, offset",
    [
        ("equations", None, "rhs of equation 2: unexpected token ')' (at offset 5)", 5),
        ("exact", ["sin(t)", "cos(t"], "exact 2: unbalanced parenthesis (at offset 3)", 3),
        ("guess", ["t + x", "1"], "guess 1: unknown variable(s): 'x' (at offset 4)", 4),
    ],
)
def test_expression_errors_name_their_expression(field, texts, message, offset):
    doc = json.loads(json.dumps(_TWO_EQUATIONS))
    if texts is None:
        doc["equations"][1]["rhs"] = "u1 + )"
    else:
        doc[field] = texts
    with pytest.raises(ExprError) as err:
        problem_from_dict(doc)
    assert str(err.value) == message  # the offset is spelled once
    assert err.value.position == offset


@pytest.mark.parametrize("field", ["exact", "guess"])
@pytest.mark.parametrize("texts", [["t"], ["t", "t", "t"], "t"])
def test_expression_list_must_match_the_equations(field, texts):
    doc = json.loads(json.dumps(_TWO_EQUATIONS))
    doc[field] = texts
    with pytest.raises(ValueError) as err:
        problem_from_dict(doc)
    assert type(err.value) is ValueError
    assert str(err.value) == f"{field} must list exactly 2 expression(s)"


@pytest.mark.parametrize("name", ["__import__", "os", "x"])
def test_unknown_names_never_reach_the_code_generator(monkeypatch, name):
    generated = []
    real = problems._generate
    monkeypatch.setattr(problems, "_generate", lambda *a: generated.append(a) or real(*a))
    doc = json.loads(json.dumps(_TWO_EQUATIONS))
    doc["equations"][1]["rhs"] = f"u1 + {name}"
    with pytest.raises(ExprError) as err:
        problem_from_dict(doc)
    assert str(err.value) == f"rhs of equation 2: unknown variable(s): {name!r} (at offset 5)"
    assert len(generated) == 1  # only the first equation's rhs was compiled


def test_compiled_functions_are_named_after_their_expression():
    doc = json.loads(json.dumps(_TWO_EQUATIONS))
    doc["guess"] = ["t", "1 - t"]
    sys_ = problem_from_dict(doc)
    for j, (f, g) in enumerate(zip(sys_.rhs, sys_.guess)):
        assert f.__qualname__ == f"rhs of equation {j + 1}"
        assert f.__code__.co_filename == f"<rhs of equation {j + 1}>"
        assert g.__code__.co_filename == f"<guess {j + 1}>"
    with pytest.raises(IndexError) as err:
        sys_.rhs[1](0.0, [])  # reads s[0]
    assert traceback.extract_tb(err.value.__traceback__)[-1].filename == "<rhs of equation 2>"


def test_generated_functions_hold_no_named_temporaries():
    # one returned expression, so numpy may reuse an intermediate in place
    src = "-(u1 - t)/(2 + sin(u1*t))^pi + nthroot(-(u1 + u2), 3) * nthroot(t*t + 1, 2)"
    doc = json.loads(json.dumps(_TWO_EQUATIONS))
    doc["equations"][0]["rhs"] = src
    doc["guess"] = [src.replace("u1", "t").replace("u2", "t")] * 2
    sys_ = problem_from_dict(doc)
    exact = problems._compile(doc["guess"][0], "exact 1")
    for fn, params in [
        (compile_array(parse(src)), ("env",)),
        (sys_.rhs[0], ("t", "s")),
        (exact, ("t",)),
        (sys_.guess[0], ("t",)),
    ]:
        assert fn.__code__.co_varnames == params


def test_profile_counts_each_expression_apart():
    sys_, _ = get_problem("ex3")
    profile = cProfile.Profile()
    # the march that calls each rhs: the inlined march calls none of them
    profile.runcall(rk4_reference, plain_callables(sys_), 0.1)  # 15 steps of 4 stages
    profile.runcall(sys_.exact, np.linspace(0.0, 1.5, 5))
    calls = {file: ncalls for (file, _, _), (_, ncalls, *_) in pstats.Stats(profile).stats.items()}
    assert calls["<rhs of equation 1>"] == calls["<rhs of equation 2>"] == 60
    assert calls["<exact 1>"] == calls["<exact 2>"] == 1


def test_loading_a_problem_again_makes_new_functions_on_shared_code():
    # problem_from_dict compiles anew; get_problem would return its kept system
    first, second = (problem_from_dict(builtin_problem_dict("ex3")) for _ in range(2))
    assert [f.inline for f in first.rhs] == [g.inline for g in second.rhs]
    pairs = [(f, g) for f, g in zip(first.rhs, second.rhs)]
    pairs += zip(first.rhs[1].split, second.rhs[1].split)  # t + 2*sin(t/2)^2 - ...
    for f, g in pairs:
        assert f is not g and f.__code__ is g.__code__


def test_a_rhs_of_a_known_shape_evaluates_its_own_constants():
    doc = {
        "interval": {"a": 0.0, "T": 1.0},
        "equations": [{"alpha": -1.0, "rhs": "2*u - 3*cos(t)"}],
        "initial": [1.0],
    }
    other = copy.deepcopy(doc)
    other["equations"][0]["rhs"] = "5*u - 0.25*cos(t)"
    t = np.linspace(0.0, 1.0, 7)
    U = np.sin(t)[None, :]

    def values(f):
        pre, main = f.split
        scalar = scalar_form(f)
        return [f(t, U), main(t, U, pre(t)), np.array([scalar(x, [y]) for x, y in zip(t, U[0])])]

    f = problem_from_dict(doc).rhs[0]
    g = problem_from_dict(other).rhs[0]
    assert g.__code__ is f.__code__
    warm = values(g)
    assert not np.array_equal(warm[0], values(f)[0])
    expr.parse.cache_clear()
    codegen._code.cache_clear()
    cold = problem_from_dict(other).rhs[0]
    assert cold.__code__ is not f.__code__
    for got, want in zip(warm, values(cold)):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


# --- the per-process cache of compiled documents -------------------------------

_PENDULUM_TEXT = json.dumps({
    "name": "pendulum",
    "interval": {"a": 0.0, "T": 2.0},
    "equations": [{"alpha": 0.0, "rhs": "u2"}, {"alpha": 0.25, "rhs": "-0.25*u2 - 4*sin(u1)"}],
    "initial": [1.0, 0.0],
})


def test_a_document_is_compiled_once_under_any_path(tmp_path, monkeypatch):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    first.write_text(_PENDULUM_TEXT, encoding="utf-8")
    second.write_text(_PENDULUM_TEXT, encoding="utf-8")
    compiled = []
    monkeypatch.setattr(problems, "problem_from_dict",
                        lambda doc: compiled.append(doc) or problem_from_dict(doc))
    problems._system.cache_clear()
    (sys_a, doc_a), (sys_b, doc_b) = get_problem(first), get_problem(second)
    assert len(compiled) == 1 and sys_a is sys_b
    assert doc_a == doc_b and doc_a is not doc_b
    assert get_problem("ex1")[0] is get_problem("ex1")[0] and len(compiled) == 2


def test_a_rewritten_file_is_compiled_again(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(_PENDULUM_TEXT, encoding="utf-8")
    before, _ = get_problem(path)
    path.write_text(_PENDULUM_TEXT.replace('"T": 2.0', '"T": 3.0'), encoding="utf-8")
    after, doc = get_problem(path)
    assert (before.T, after.T, doc["interval"]["T"]) == (2.0, 3.0, 3.0)


@pytest.mark.parametrize("text", ["{", '{"a": 1, "a": 2}', _PENDULUM_TEXT.replace('"u2"', '"u3"')],
                         ids=["malformed", "duplicate_key", "unknown_variable"])
def test_a_bad_file_fails_on_every_call_with_the_same_message(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    kept = problems._system.cache_info().currsize
    messages = []
    for _ in range(3):
        with pytest.raises(ValueError) as info:
            get_problem(path)
        messages.append(str(info.value))
    assert len(set(messages)) == 1
    assert problems._system.cache_info().currsize == kept


def test_a_returned_document_is_the_callers_own(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(_PENDULUM_TEXT, encoding="utf-8")
    for source in (path, "ex3"):
        sys_, doc = get_problem(source)
        doc["interval"]["T"] = 99.0
        doc["equations"].clear()
        again, fresh = get_problem(source)
        assert again is sys_ and fresh["interval"]["T"] == sys_.T != 99.0
        assert len(fresh["equations"]) == sys_.k


def test_the_cache_keeps_a_bounded_number_of_documents(tmp_path):
    kept = problems._system.cache_info().maxsize
    paths = [tmp_path / f"p{i}.json" for i in range(2 * kept)]
    for i, path in enumerate(paths):
        path.write_text(_PENDULUM_TEXT.replace('"T": 2.0', f'"T": {i + 1}.0'), encoding="utf-8")
        assert get_problem(path)[0].T == i + 1.0
    assert problems._system.cache_info().currsize == kept
    # the least recently used went first: the last one loaded is still kept
    hits = problems._system.cache_info().hits
    assert get_problem(paths[-1])[0].T == 2.0 * kept
    assert problems._system.cache_info().hits == hits + 1


def test_export_of_a_kept_document_writes_the_same_bytes(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(_PENDULUM_TEXT, encoding="utf-8")
    for source in (str(path), "ex2"):
        written = []
        for i in range(2):
            out = tmp_path / f"out{i}.json"
            assert cli_main(["export", "--problem", source, "--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]
