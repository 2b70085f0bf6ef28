import gc
import math
import random
import weakref

import pytest

from ivim.expr import (
    MAX_DEPTH,
    BinOp,
    Call,
    Const,
    ExprError,
    Neg,
    Var,
    eval_expr,
    free_variables,
    parse,
    parse_expression,
    pretty,
    state_free_subtrees,
    tokenize,
    validate_vars,
)

import numpy as np

from ivim.codegen import _generate
from ivim.expr import _children
from ivim.problems import problem_from_dict
from ivim.reference import _inline_march

from _oracles import compile_array, scalar_form, stack_eval


# --- tokenizer ----------------------------------------------------------------

def test_tokenize_riccati_rhs():
    toks = tokenize("2*u - u^2 + 1")
    assert len(toks) == 9
    assert [t.kind for t in toks] == [
        "number", "operator", "identifier", "operator", "identifier",
        "operator", "number", "operator", "number",
    ]


def test_tokenize_nthroot_call():
    toks = tokenize("5/3*nthroot(u^2,5)*cos(t)")
    kinds = {t.kind for t in toks}
    assert "comma" in kinds
    assert any(t.kind == "identifier" and t.lexeme == "nthroot" for t in toks)


def test_tokenize_double_dot_errors_at_offset_2():
    with pytest.raises(ExprError) as err:
        tokenize("2..5")
    assert err.value.position == 2


def test_tokenize_positions_strictly_increasing():
    toks = tokenize("  sin(t) + 2.5e-3*u ")
    positions = [t.position for t in toks]
    assert positions == sorted(positions)
    assert len(set(positions)) == len(positions)


def test_tokenize_scientific_and_trailing_dot():
    assert float(tokenize("2.5e+10")[0].lexeme) == 2.5e10
    assert float(tokenize("1e-3")[0].lexeme) == 1e-3
    assert float(tokenize("2.")[0].lexeme) == 2.0


def test_tokenize_illegal_character():
    with pytest.raises(ExprError) as err:
        tokenize("u + $")
    assert err.value.position == 4


# --- parser -------------------------------------------------------------------

def test_pow_right_associative():
    assert eval_expr(parse("u^2^3"), {"u": 2.0}) == 256.0


def test_unary_minus_binds_looser_than_pow():
    assert eval_expr(parse("-u^2"), {"u": 3.0}) == -9.0


def test_unary_minus_binds_tighter_than_mul():
    tree = parse("-u*v")
    assert isinstance(tree, BinOp) and tree.op == "*"
    assert isinstance(tree.left, Neg)


def test_negative_exponent():
    assert eval_expr(parse("2^-2"), {}) == 0.25


def test_unbalanced_paren():
    with pytest.raises(ExprError, match="unbalanced"):
        parse("(1+")


def test_trailing_input_positioned():
    with pytest.raises(ExprError) as err:
        parse("1 2")
    assert err.value.position == 2


def test_implicit_multiplication_rejected():
    with pytest.raises(ExprError):
        parse("2u")


def test_empty_expression():
    with pytest.raises(ExprError):
        parse_expression([])


def test_unknown_function():
    with pytest.raises(ExprError, match="unknown function"):
        parse("sinh(t)")


def test_function_name_requires_call():
    with pytest.raises(ExprError, match="expected '\\('"):
        parse("sin + 1")


def test_call_arity_checked():
    with pytest.raises(ExprError, match="expects 1"):
        parse("sin(t, u)")
    with pytest.raises(ExprError, match="expects 2"):
        parse("nthroot(u)")


def test_nthroot_degree_must_be_positive_integer_literal():
    for bad in ("nthroot(u, k)", "nthroot(u, 2.5)", "nthroot(u, 0)", "nthroot(u, -3)"):
        with pytest.raises(ExprError):
            parse(bad)
    tree = parse("nthroot(u, 5.0)")  # an integral-valued literal is fine
    assert isinstance(tree, Call) and tree.k == 5


@pytest.mark.parametrize("src, offset", [("1e400", 0), ("2*1E+309 + u", 2), ("nthroot(u, 1e999)", 11)])
def test_overflowing_number_literal_is_rejected(src, offset):
    lexeme = src[offset:].split()[0].rstrip(")")
    with pytest.raises(ExprError) as err:
        parse(src)
    assert err.value.reason == f"number {lexeme!r} overflows float64"
    assert err.value.position == offset


@pytest.mark.parametrize(
    "src, reason, offset",
    [
        ("u + $", "illegal character '$'", 4),
        ("sin(u + 1", "unbalanced parenthesis", 3),
        ("2*1E+309 + u", "number '1E+309' overflows float64", 2),
    ],
)
def test_a_bad_text_raises_the_same_error_on_every_parse(src, reason, offset):
    errors = []
    for _ in range(3):
        with pytest.raises(ExprError) as err:
            parse(src)
        errors.append(err.value)
    assert [(e.reason, e.position) for e in errors] == [(reason, offset)] * 3
    assert errors[0] is not errors[1]  # raised afresh, not kept


def test_a_text_parses_to_one_kept_tree():
    assert parse("u^2 - sin(t)") is parse("u^2 - sin(t)")
    with pytest.raises(TypeError):  # as before: only a str's tree is kept
        parse(None)


def test_superscript_digit_is_a_malformed_number():
    # str.isdigit accepts U+00B2 but float() does not
    with pytest.raises(ExprError) as err:
        parse("\u00b2")
    assert err.value.reason == "malformed number '\u00b2'"
    assert err.value.position == 0


def test_underflowing_and_largest_finite_literals_parse():
    assert parse("1e-400") == Const(0.0)
    biggest = parse("1.7976931348623157e308")  # the largest finite literal reparses
    assert parse(pretty(biggest)) == biggest


# --- evaluation ---------------------------------------------------------------

def test_eval_riccati_rhs_at_origin():
    assert eval_expr(parse("2*u - u^2 + 1"), {"u": 0.0, "t": 0.0}) == 1.0


def test_eval_odd_real_root():
    assert eval_expr(parse("nthroot(-8, 3)"), {}) == -2.0


def test_eval_fractional_power_rhs():
    value = eval_expr(parse("5/3*nthroot(u^2,5)*cos(t)"), {"t": 0.0, "u": 1.0})
    assert value == pytest.approx(5.0 / 3.0, rel=1e-15)


def test_eval_predefined_constants():
    assert eval_expr(parse("pi"), {}) == math.pi
    assert eval_expr(parse("e"), {}) == math.e
    assert eval_expr(parse("cos(pi)"), {}) == -1.0


def test_eval_unbound_variable():
    with pytest.raises(ExprError, match="'x'"):
        eval_expr(parse("x + 1"), {"t": 0.0})


def test_eval_non_finite_result():
    with pytest.raises(ExprError) as err:
        eval_expr(parse("1e308 * 10"), {})
    assert str(err.value) == "non-finite result inf from '1e+308*10'"


def test_eval_division_by_zero():
    with pytest.raises(ExprError) as err:
        eval_expr(parse("1/u"), {"u": 0.0})
    assert err.value.reason == "non-finite result inf from '1/u'"
    assert err.value.position is None


def test_eval_even_root_of_negative():
    with pytest.raises(ExprError) as err:
        eval_expr(parse("nthroot(u, 2)"), {"u": -1.0})
    assert err.value.reason == "non-finite result nan from 'nthroot(u, 2)'"
    assert err.value.position is None


def test_eval_pow_domain_error_names_subexpression():
    with pytest.raises(ExprError, match="u\\^0.5"):
        eval_expr(parse("u^0.5"), {"u": -4.0})


def test_eval_log_domain_error():
    with pytest.raises(ExprError, match="log"):
        eval_expr(parse("log(u)"), {"u": -1.0})


def test_eval_nonfinite_result():
    with pytest.raises(ExprError):
        eval_expr(parse("exp(u)"), {"u": 1e6})
    with pytest.raises(ExprError) as err:
        eval_expr(parse("10^400"), {})
    assert err.value.reason == "non-finite result inf from '10^400'"
    assert err.value.position is None


@pytest.mark.parametrize(
    "src, reason, offset",
    [
        ("(1+", "unbalanced parenthesis", 3),  # the end of the input
        ("(t", "unbalanced parenthesis", 0),  # the open group
        ("sin(t", "unbalanced parenthesis", 3),  # the call's '('
        ("1+", "unexpected end of input", 2),
        (")", "unexpected token ')'", 0),
        ("sin + 1", "expected '(' after function name 'sin'", 0),
        ("sinh(t)", "unknown function 'sinh'", 0),
        ("sin(t, u)", "sin expects 1 argument(s), got 2", 0),
        ("nthroot(u, 0.5)", "nthroot degree must be a positive integer literal", 11),
        ("u + $", "illegal character '$'", 4),
    ],
)
def test_error_reason_and_offset(src, reason, offset):
    with pytest.raises(ExprError) as err:
        parse(src)
    assert err.value.reason == reason
    assert err.value.position == offset
    assert str(err.value) == f"{reason} (at offset {offset})"


@pytest.mark.parametrize(
    "src, u, reason",
    [
        ("log(u)", -1.0, "non-finite result nan from 'log(u)'"),
        ("exp(u)", 1e6, "non-finite result inf from 'exp(u)'"),
        ("u^0.5", -4.0, "non-finite result nan from 'u^0.5'"),
        ("1/u", 0.0, "non-finite result inf from '1/u'"),
        ("nthroot(u, 2)", -1.0, "non-finite result nan from 'nthroot(u, 2)'"),
    ],
)
def test_eval_error_names_the_value_and_the_expression(src, u, reason):
    # the value the solver's arithmetic gives, with no offset: the whole tree is named
    with pytest.raises(ExprError) as err:
        eval_expr(parse(src), {"u": u})
    assert err.value.reason == reason
    assert err.value.position is None
    assert str(err.value) == reason


@pytest.mark.parametrize("src, u, want", [("tanh(exp(u))", 1e6, 1.0), ("exp(-1/u)", 0.0, 0.0)])
def test_eval_is_finite_where_the_solver_is(src, u, want):
    # an intermediate inf that the next operation maps back to a finite value
    tree = parse(src)
    got = eval_expr(tree, {"u": u})
    with np.errstate(all="ignore"):
        array = compile_array(tree)({"u": u})
    assert type(got) is float and got == want
    assert np.float64(got).view(np.int64) == np.float64(array).view(np.int64)


# --- validate_vars --------------------------------------------------------------

def test_validate_vars_scalar_ok():
    validate_vars(parse("2*u+1"), {"t", "u"})


def test_validate_vars_reports_unknown_with_position():
    with pytest.raises(ExprError) as err:
        validate_vars(parse("x - sin(t)"), {"t", "u"})
    assert "'x'" in str(err.value)
    assert err.value.position == 0


def test_validate_vars_lists_unknowns_in_source_order_with_one_offset():
    with pytest.raises(ExprError) as err:
        validate_vars(parse("t + y * x"), {"t"})
    assert str(err.value) == "unknown variable(s): 'y', 'x' (at offset 4)"
    assert err.value.position == 4


def test_validate_vars_system_components():
    validate_vars(parse("u2"), {"t", "u1", "u2"})


def test_validate_vars_lists_every_unknown():
    with pytest.raises(ExprError) as err:
        validate_vars(parse("x + y*t"), {"t"})
    message = str(err.value)
    assert "'x'" in message and "'y'" in message


def test_free_variables_skips_constants():
    assert set(free_variables(parse("pi*t + e"))) == {"t"}


# --- random expression generator ------------------------------------------------

_VARS = ["t", "u", "u1", "u2"]
_FNS = ["sin", "cos", "tan", "tanh", "exp", "log", "sqrt", "abs"]


def _random_expr(rng, depth):
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Const(round(rng.uniform(0, 4), 3))
        return Var(rng.choice(_VARS))
    roll = rng.random()
    if roll < 0.15:
        return Neg(_random_expr(rng, depth - 1))
    if roll < 0.75:
        op = rng.choice(["+", "-", "*", "/", "^"])
        return BinOp(op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if roll < 0.9:
        return Call(rng.choice(_FNS), (_random_expr(rng, depth - 1),))
    return Call("nthroot", (_random_expr(rng, depth - 1),), k=rng.randint(1, 5))


def test_pretty_reparse_round_trip_1000():
    rng = random.Random(987654)
    for _ in range(1000):
        tree = _random_expr(rng, rng.randint(0, 6))
        assert parse(pretty(tree)) == tree


def test_eval_agrees_with_stack_machine():
    rng = random.Random(13579)
    checked = 0
    attempts = 0
    while checked < 400 and attempts < 5000:
        attempts += 1
        tree = _random_expr(rng, rng.randint(0, 5))
        env = {name: rng.uniform(0.1, 3.0) for name in _VARS}
        try:
            expected = stack_eval(tree, env)
        except (ValueError, OverflowError, ZeroDivisionError):
            continue
        if not math.isfinite(expected):
            continue
        got = eval_expr(tree, env)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)
        checked += 1
    assert checked == 400


def test_parsing_is_total_on_fuzzed_input():
    rng = random.Random(24680)
    alphabet = "0123456789.+-*/^()ut, abcdefgnrsoqxz_\t$#%"
    for _ in range(1000):
        src = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        try:
            parse(src)
        except ExprError as exc:
            assert exc.position is None or isinstance(exc.position, int)


def test_compile_array_matches_scalar_eval():
    src = "5/3*nthroot(u^2,5)*cos(t) + tanh(t)*u - 2"
    tree = parse(src)
    fn = compile_array(tree)
    t = np.linspace(0.0, 3.0, 17)
    u = np.linspace(-2.0, 2.0, 17)
    vec = fn({"t": t, "u": u})
    for i in range(t.size):
        scalar = stack_eval(tree, {"t": float(t[i]), "u": float(u[i])})
        assert vec[i] == pytest.approx(scalar, rel=1e-13, abs=1e-13)


def test_compiled_division_by_zero_is_ieee():
    # two Python floats: '/' would raise ZeroDivisionError
    with np.errstate(all="ignore"):
        assert compile_array(parse("1/t"))({"t": 0.0}) == math.inf
        assert compile_array(parse("-1/t"))({"t": 0.0}) == -math.inf
        assert math.isnan(compile_array(parse("t/0"))({"t": 0.0}))
        assert compile_array(parse("u + 1/0"))({"u": np.zeros(3)}).tolist() == [math.inf] * 3


def test_compiled_division_keeps_the_quotient():
    rng = random.Random(97531)
    fn = compile_array(parse("x/y"))
    for _ in range(200):
        x = rng.uniform(-1e3, 1e3)
        y = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300, 300)
        assert fn({"x": x, "y": y}) == x / y


def test_compile_array_reads_variable_names_only_as_env_keys():
    # a name that is a builtin or not an identifier is one env lookup, nothing else
    reads = []

    class Env(dict):
        def __getitem__(self, name):
            reads.append(name)
            return super().__getitem__(name)

    fn = compile_array(parse("__import__ + é"))
    assert fn.__code__.co_names == ()  # the source names no global at all
    assert fn(Env({"__import__": 1.5, "é": 2.0})) == 3.5
    assert reads == ["__import__", "é"]


def test_compile_array_lets_env_shadow_the_constants():
    fn = compile_array(parse("pi + e"))
    assert fn({}) == math.pi + math.e
    assert fn({"pi": 1.0}) == 1.0 + math.e


@pytest.mark.parametrize(
    "tree",
    [
        BinOp("+", Var("u"), "__import__('os')"),
        Neg(3.0),
        Var(Const(1.0)),
        BinOp("+-", Var("u"), Var("u")),
        Call("__import__", (Var("u"),)),
        Call(("sin",), (Var("u"),)),
    ],
)
def test_compile_array_rejects_a_node_that_is_not_an_expression(tree):
    with pytest.raises(TypeError):
        compile_array(tree)


def test_compiled_function_is_freed_without_the_cycle_collector():
    # a CLI call compiles its problem afresh; cycles would linger until a collection
    gc.disable()
    try:
        ref = weakref.ref(compile_array(parse("sin(u) * pi + nthroot(u, 3)")))
        assert ref() is None
    finally:
        gc.enable()


_STIFF_RHS = "-60*u - 0.2*u^2 + 7*cos(7*t) + 60*(1 + sin(7*t)) + 0.2*(1 + sin(7*t))^2"


@pytest.mark.parametrize(
    "src, state, parts",
    [
        ("5/3*nthroot(u^2,5)*cos(t)", {"u"}, ["5/3", "cos(t)"]),  # ex2
        (
            "t + 2*sin(t/2)^2 - 8*sin(t/2)^4 + 2*u2^2 - u2 - u1",  # ex3, equation 2
            {"u1", "u2"},
            ["t + 2*sin(t/2)^2 - 8*sin(t/2)^4"],
        ),
        (_STIFF_RHS, {"u"}, ["-60", "7*cos(7*t)", "60*(1 + sin(7*t))", "0.2*(1 + sin(7*t))^2"]),
        ("2*u - u^2 + 1", {"u"}, []),  # ex1: bare constants stay in place
        ("u2", {"u1", "u2"}, []),
        ("u*pi + t", {"u"}, []),
        ("sin(t)", {"u"}, ["sin(t)"]),  # the whole tree
        ("u1 + 2*u", {"u1"}, ["2*u"]),  # only the names in state are state
    ],
)
def test_state_free_subtrees_are_the_maximal_ones_with_an_operation(src, state, parts):
    tree = parse(src)
    found = state_free_subtrees(tree, state)
    assert [pretty(node) for node in found] == parts

    def subtrees(node):
        yield node
        for child in _children(node):
            yield from subtrees(child)

    # the subtrees themselves, not copies: the generator matches them by identity
    assert all(any(part is node for node in subtrees(tree)) for part in found)


def test_split_function_reads_the_hoisted_values():
    tree = parse(_STIFF_RHS)
    read = {"t": "t", "u": "s[0]"}.get
    f = _generate(tree, ("t", "s"), read, "rhs", state_free_subtrees(tree, {"u"}))
    pre, main = f.split
    assert (f.__code__.co_varnames, pre.__code__.co_varnames, main.__code__.co_varnames) == (
        ("t", "s"), ("t",), ("t", "s", "p")
    )
    assert f.__code__.co_filename == pre.__code__.co_filename == "<rhs>"
    t = np.linspace(0.0, 1.0, 9)
    U = np.cos(3.0 * t)[None, :]
    p = pre(t)
    assert len(p) == 4 and p[0] == -60.0
    assert np.array_equal(main(t, U, p), f(t, U))
    assert np.array_equal(main(t, U, (0.0, 0.0, 0.0, 0.0)), -0.2 * U[0] ** 2)
    assert not hasattr(_generate(parse("u"), ("t", "s"), read, "rhs"), "split")
    gc.disable()  # pre and main hold no cycle back to f either
    try:
        ref = weakref.ref(_generate(tree, ("t", "s"), read, "rhs", state_free_subtrees(tree, {"u"})))
        assert ref() is None
    finally:
        gc.enable()


def test_compile_array_leaves_error_state_to_the_caller():
    fn = compile_array(parse("log(t - 1)"))
    with pytest.warns(RuntimeWarning):
        fn({"t": 0.0})
    with np.errstate(all="ignore"):
        assert math.isnan(fn({"t": 0.0}))


@pytest.mark.parametrize(
    "src, u, want",
    [("1/u", 0.0, math.inf), ("-1/u", -0.0, math.inf), ("u/u", 0.0, math.nan),
     ("1/u", -0.0, -math.inf), ("u/2", 3.0, 1.5)],
    ids=["one_by_zero", "minus_one_by_minus_zero", "zero_by_zero", "one_by_minus_zero", "plain"],
)
def test_scalar_rhs_divides_by_zero_as_numpy(src, u, want):
    # Python's '/' raises ZeroDivisionError; the inline text returns numpy's answer
    f = _generate(parse(src), ("t", "s"), {"t": "t", "u": "s[0]"}.get, "rhs",
                  inline=({"t": "t", "u": "s0"}.get, ""))
    with np.errstate(all="ignore"):
        got, array = scalar_form(f)(0.0, [u]), f(np.float64(0.0), [np.float64(u)])
    assert type(got) is float
    assert np.float64(got).view(np.int64) == np.float64(array).view(np.int64)
    assert got == want or (math.isnan(got) and math.isnan(want))


# --- nesting limit ------------------------------------------------------------

# family -> (source nested k levels below the top, offset reported at k = MAX_DEPTH)
_NESTED = {
    "parens": (lambda k: "(" * k + "u" + ")" * k, MAX_DEPTH),
    "unary": (lambda k: "-" * k + "u", MAX_DEPTH),
    "power": (lambda k: "u^" * k + "u", 2 * MAX_DEPTH),
    "calls": (lambda k: "sin(" * k + "u" + ")" * k, 4 * MAX_DEPTH),
    "sum": (lambda k: "u" + "+u" * k, 2),
    "nthroot": (lambda k: "nthroot(" * k + "u" + ", 3)" * k, 8 * MAX_DEPTH),
    "quotient": (lambda k: "u/(" * k + "u" + ")" * k, 3 * MAX_DEPTH),
    # an odd root of a negation at every other level: the generated source
    # nests a call of _odd_root and a minus in turn
    "odd_root_of_negation": (
        lambda k: "-" * (k % 2) + "nthroot(-" * (k // 2) + "u" + ", 3)" * (k // 2),
        9 * MAX_DEPTH // 2,
    ),
}


@pytest.mark.parametrize("family", sorted(_NESTED))
def test_nesting_limit_boundary(family):
    make, offset = _NESTED[family]
    # the deepest accepted expression goes through every recursive walker
    tree = parse(make(MAX_DEPTH - 1))
    validate_vars(tree, ["u"])
    with np.errstate(all="ignore"):
        assert np.isfinite(compile_array(tree)({"u": np.full(3, 0.5)})).all()
    assert math.isfinite(eval_expr(tree, {"u": 0.5}))
    assert parse(pretty(tree)) == tree
    with pytest.raises(ExprError, match=rf"nested deeper than {MAX_DEPTH} levels") as info:
        parse(make(MAX_DEPTH))
    assert info.value.position == offset


@pytest.mark.parametrize("family", sorted(_NESTED))
def test_deepest_rhs_compiles_its_scalar_form(family):
    # the inline text nests two brackets per call, under CPython's 200, and
    # so does the RK4 march that it is written into
    sys_ = problem_from_dict({
        "interval": {"a": 0.0, "T": 1.0},
        "equations": [{"alpha": 0.0, "rhs": _NESTED[family][0](MAX_DEPTH - 1)}],
        "initial": [0.0],
    })
    (f,) = sys_.rhs
    with np.errstate(all="ignore"):
        got, want = scalar_form(f)(0.25, [0.5]), f(np.float64(0.25), [np.float64(0.5)])
    assert math.isfinite(got) and got == want
    assert callable(_inline_march(sys_.rhs))


def test_nesting_limit_counts_the_tree_below_parentheses():
    # each group holds a short chain: 61 parser levels, a tree 121 deep
    src = "u"
    for _ in range(60):
        src = f"({src}+u+u)"
    with pytest.raises(ExprError, match="nested deeper"):
        parse(src)
