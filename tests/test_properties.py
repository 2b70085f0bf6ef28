"""Property tests of the sweep over random systems, grids and modes, and of
the expression compiler over random trees.

Hypothesis runs derandomized with a fixed example budget and no deadline,
so the suite draws the same examples on every run and host.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ivim import (
    DivergenceError,
    IvpSystem,
    PiecewiseLinear,
    SolveConfig,
    exp_multiplier,
    ivim_step,
    make_grid,
    rk4_reference,
    solve,
    successive_diff_norm,
)
from ivim.codegen import _generate
from ivim.engine import MODES
from ivim.expr import (
    BinOp,
    Call,
    Const,
    Neg,
    Var,
    pretty,
    state_free_subtrees,
)
from ivim.problems import problem_from_dict
from ivim.sweep import _plan

from _oracles import (
    blocked_scan,
    closure_compile,
    compile_array,
    naive_step,
    plain_callables,
    rk4_march,
    scalar_form,
    stack_eval,
    walked_state_free_subtrees,
)


def _settings(examples):
    return settings(derandomize=True, max_examples=examples, deadline=None, database=None)


_alphas = st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=2)
# on [0, 1] the scan is one block while |alpha| <= 30; negative alphas grow
# the weights up to the limit e^700; either zero takes the scalar weights
_scan_alpha = (
    st.sampled_from([0.0, -0.0]) | st.floats(-1.0, 1.0) | st.floats(31.0, 2000.0)
    | st.floats(-700.0, -31.0)
)
_scan_alphas = st.lists(_scan_alpha, min_size=1, max_size=2)
_nonzero = st.floats(0.1, 2.0) | st.floats(-2.0, -0.1)


@st.composite
def _problems(draw, alphas=_alphas, max_n=300):
    """A coupled k = 1 or 2 system with u(a) != 0, a grid size, a mode and a seed."""
    alphas = tuple(draw(alphas))
    k = len(alphas)
    ua = np.array([draw(_nonzero) for _ in range(k)])
    coefs = [draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)) for _ in range(k)]

    def make_rhs(j, p, q, r):
        # a bounded coupling keeps a sweep's growth to what the weights give it
        return lambda t, U: p * np.sin(U[(j + 1) % k]) + q * np.cos(t + j) + r * U[j]

    rhs = tuple(make_rhs(j, *coefs[j]) for j in range(k))
    sys_ = IvpSystem(alphas=alphas, a=0.0, T=1.0, initial=tuple(ua), rhs=rhs)
    shifted = tuple(lambda t, W, f=f: f(t, W + ua[:, None]) for f in rhs)
    n = draw(st.integers(2, max_n))
    mode = draw(st.sampled_from(["paper", "full_trapezoid"]))
    seed = draw(st.integers(0, 2**32 - 1))
    return sys_, shifted, n, mode, seed


@_settings(30)
@given(_problems())
def test_step_matches_naive_on_the_hand_shifted_rhs(problem):
    sys_, shifted, n, mode, seed = problem
    grid = make_grid(sys_.a, sys_.T, n)
    W = np.random.default_rng(seed).normal(size=(sys_.k, n))
    W[:, 0] = 0.0
    state = [PiecewiseLinear(grid, row) for row in W]
    mults = [exp_multiplier(alpha) for alpha in sys_.alphas]
    got = np.vstack([pl.values for pl in ivim_step(state, sys_, grid, mults, mode)])
    want = naive_step(sys_.alphas, shifted, grid.nodes, grid.h, W, mode)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(want), 1.0))


@_settings(30)
@given(_problems())
def test_modes_differ_by_the_weighted_endpoint_term(problem):
    # full_trapezoid adds the s = a endpoint h/2 e^{alpha(t_1 - t_i)} c(t_1),
    # with c(t_1) = f(a, u(a)) since W vanishes at a; paper mode drops it
    sys_, _, n, _, seed = problem
    grid = make_grid(sys_.a, sys_.T, n)
    W = np.random.default_rng(seed).normal(size=(sys_.k, n))
    W[:, 0] = 0.0
    state = [PiecewiseLinear(grid, row) for row in W]
    mults = [exp_multiplier(alpha) for alpha in sys_.alphas]
    full, paper = (
        np.vstack([pl.values for pl in ivim_step(state, sys_, grid, mults, mode)])
        for mode in ("full_trapezoid", "paper")
    )
    assert np.all(full[:, 0] == 0.0) and np.all(paper[:, 0] == 0.0)
    t = grid.nodes[1:]
    ua = np.asarray(sys_.initial)
    c1 = np.array([f(grid.a, ua) for f in sys_.rhs])[:, None]
    alphas = np.array(sys_.alphas)[:, None]
    want = 0.5 * grid.h * np.exp(alphas * (grid.a - t)) * c1
    got = full[:, 1:] - paper[:, 1:]
    # the difference cancels when the endpoint weight has decayed, so the
    # tolerance scales with the values subtracted; 1.1e-13 is the worst seen
    # over 500 examples (alpha up to +-50, n up to 300)
    scale = np.maximum.reduce([np.abs(want), np.abs(full[:, 1:]), np.abs(paper[:, 1:])])
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


@_settings(40)
@given(_problems(), st.integers(1, 6))
def test_solve_history_is_ivim_step_chained(problem, m):
    # bit for bit: solve and ivim_step run one sweep, and solve reports
    # divergence on the sweep of the chain's first non-finite update
    sys_, _, n, mode, _ = problem
    grid = make_grid(sys_.a, sys_.T, n)
    mults = [exp_multiplier(alpha) for alpha in sys_.alphas]
    cfg = SolveConfig(n=n, m_max=m, mode=mode, keep_history=True)
    state = [PiecewiseLinear(grid, np.zeros(n)) for _ in range(sys_.k)]
    chain, diffs = [], []
    while len(diffs) < m and np.isfinite(diffs).all():
        try:
            new = ivim_step(state, sys_, grid, mults, mode)
        except DivergenceError:  # a non-finite iterate
            diffs.append(math.inf)
            break
        diffs.append(successive_diff_norm(new, state))
        chain.append(np.vstack([pl.values for pl in new]))
        state = new
    if not np.isfinite(diffs[-1]):
        with pytest.raises(DivergenceError, match=f"^non-finite update.* at iteration {len(diffs)}$"):
            solve(sys_, cfg)
        return
    rep = solve(sys_, cfg)
    assert [snap.tobytes() for snap in rep.history] == [snap.tobytes() for snap in chain]
    assert rep.diffs == diffs
    assert rep.iterations_run == m


def _oracle_sweep(sys_, grid, W, mode):
    """The sweep with the coefficients formed as the engine forms them and
    each equation's sums from the scan that re-derives its weights per block."""
    t = grid.nodes
    U = W + np.asarray(sys_.initial)[:, None]
    with np.errstate(all="ignore"):
        return np.vstack([
            blocked_scan(alpha, alpha * W[j] + sys_.rhs[j](t, U), t, grid.h, mode)
            for j, alpha in enumerate(sys_.alphas)
        ])


@_settings(80)
@given(_problems(_scan_alphas, 600))
def test_step_equals_the_blocked_scan_oracle_bit_for_bit(problem):
    sys_, _, n, mode, seed = problem
    _assert_step_is_the_oracle_sweep(sys_, n, mode, seed)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("zero", [0.0, -0.0])
@_settings(20)
@given(data=st.data())
def test_zero_alpha_scans_with_scalar_weights_bit_for_bit(zero, mode, data):
    # the e^0 = 1 weights are not stored: no multiply by 1, and h as a scalar
    alphas = st.tuples(st.just(zero)) | st.tuples(st.just(zero), _scan_alpha)
    sys_, _, n, _, seed = data.draw(_problems(alphas, 600))
    grid = make_grid(sys_.a, sys_.T, n)
    assert _plan(sys_, grid, mode).equations[0].blocks == ((0, n, None, None, grid.h),)
    _assert_step_is_the_oracle_sweep(sys_, n, mode, seed)


def _tiny_interval_system(alpha, length):
    # c(t_1) = f(a, u_a) = 1.5: below 2 in magnitude, and on [0, 1e-310] a
    # value whose product with the rounded h/2 rounds one unit off
    rhs = (lambda t, U: 1.5 * np.cos(t) + 0.3 * (U[0] - 0.75),)
    return IvpSystem(alphas=(alpha,), a=0.0, T=length, initial=(0.75,), rhs=rhs)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", [9, 33])
@pytest.mark.parametrize("alpha", [0.0, 2.0, -3.0, 40.0])
def test_step_on_a_tiny_interval_equals_the_blocked_scan_oracle_bit_for_bit(alpha, n, mode):
    # h = 1e-300 / (n - 1) is still a normal double, so halving it is exact
    _assert_step_is_the_oracle_sweep(_tiny_interval_system(alpha, 1e-300), n, mode, n)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", [9, 33])
@pytest.mark.parametrize("alpha", [0.0, 2.0, -3.0, 40.0])
def test_step_with_a_subnormal_h_is_the_blocked_scan_oracle_to_one_unit(alpha, n, mode):
    # h = 1e-310 / (n - 1) is subnormal, so halving it may drop its last bit.
    # The oracle weighs the s = a endpoint by the rounded h/2 times c(t_1);
    # the sweep halves c(t_1), which is exact, and multiplies by h once.  The
    # weights e^{-alpha(t - t_1)} are 1 here, so the two products differ by
    # less than |c(t_1)| / 2 units of 2^-1074 before rounding, and with
    # |c(t_1)| < 2 by at most one unit after.  Paper mode has no endpoint
    # term and keeps every bit.
    sys_ = _tiny_interval_system(alpha, 1e-310)
    grid = make_grid(sys_.a, sys_.T, n)
    W = np.random.default_rng(n).normal(size=(1, n))
    W[:, 0] = 0.0
    state = [PiecewiseLinear(grid, W[0])]
    got = ivim_step(state, sys_, grid, [exp_multiplier(alpha)], mode)[0].values
    want = _oracle_sweep(sys_, grid, W, mode)[0]
    bound = 0.0 if mode == "paper" else 2.0**-1074
    assert np.max(np.abs(got - want)) <= bound


def _assert_step_is_the_oracle_sweep(sys_, n, mode, seed):
    grid = make_grid(sys_.a, sys_.T, n)
    W = np.random.default_rng(seed).normal(size=(sys_.k, n))
    W[:, 0] = 0.0
    state = [PiecewiseLinear(grid, row) for row in W]
    mults = [exp_multiplier(alpha) for alpha in sys_.alphas]
    want = _oracle_sweep(sys_, grid, W, mode)
    if not np.isfinite(want).all():  # the growing weights overflowed
        with pytest.raises(DivergenceError):
            ivim_step(state, sys_, grid, mults, mode)
        return
    got = np.vstack([pl.values for pl in ivim_step(state, sys_, grid, mults, mode)])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@_settings(40)
@given(_problems(_scan_alphas, 600), st.integers(1, 6))
def test_solve_history_is_the_blocked_scan_oracle_chained(problem, m):
    sys_, _, n, mode, _ = problem
    grid = make_grid(sys_.a, sys_.T, n)
    cfg = SolveConfig(n=n, m_max=m, mode=mode, keep_history=True)
    W = np.zeros((sys_.k, n))
    chain, diffs = [], []
    while len(diffs) < m and np.isfinite(diffs).all():
        new = _oracle_sweep(sys_, grid, W, mode)
        if not np.isfinite(new).all():
            diffs.append(math.inf)
            break
        diffs.append(successive_diff_norm([PiecewiseLinear(grid, row) for row in new],
                                          [PiecewiseLinear(grid, row) for row in W]))
        chain.append(new)
        W = new
    if not np.isfinite(diffs[-1]):
        with pytest.raises(DivergenceError, match=f"^non-finite update.* at iteration {len(diffs)}$"):
            solve(sys_, cfg)
        return
    rep = solve(sys_, cfg)
    assert [snap.tobytes() for snap in rep.history] == [snap.tobytes() for snap in chain]
    assert rep.diffs == diffs


# --- the expression compiler ---------------------------------------------------

_UNARY = ("sin", "cos", "tan", "tanh", "exp", "log", "sqrt", "abs")


def _trees(leaves, extend, depth):
    """Trees at most ``depth`` deep: a leaf, or ``extend`` applied to shallower trees."""
    trees = leaves
    for _ in range(depth - 1):
        trees = st.one_of(leaves, extend(trees))
    return trees


def _any_node(sub):
    return st.one_of(
        st.builds(Neg, sub),
        st.builds(BinOp, st.sampled_from("+-*/^"), sub, sub),
        st.builds(lambda fn, x: Call(fn, (x,)), st.sampled_from(_UNARY), sub),
        # odd and even degrees
        st.builds(lambda k, x: Call("nthroot", (x,), k=k), st.integers(1, 6), sub),
    )


_any_tree = _trees(
    st.one_of(
        st.builds(Const, st.floats(-4.0, 4.0)),
        st.builds(Const, st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.5, math.inf, -math.inf, math.nan])),
        st.builds(Var, st.sampled_from(["t", "u", "pi", "e"])),
    ),
    _any_node,
    12,
)


def _same_bits(got, want):
    # equal values, NaN where NaN, and the same sign on every zero
    return (
        type(got) is type(want)
        and np.array_equal(got, want, equal_nan=True)
        and np.array_equal(np.signbit(got), np.signbit(want))
    )


@_settings(300)
@given(_any_tree, st.integers(0, 2**32 - 1), st.booleans())
def test_compiled_expression_equals_the_closure_tree_bit_for_bit(tree, seed, shadow):
    rng = np.random.default_rng(seed)
    special = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]
    values = np.concatenate([rng.normal(scale=3.0, size=13), special])
    env = {"t": rng.permutation(values), "u": rng.permutation(values)}
    if shadow:  # pi and e are read from env where it binds them
        env["pi"] = rng.permutation(values)
    got, want = compile_array(tree), closure_compile(tree)
    with np.errstate(all="ignore"):
        assert _same_bits(got(env), want(env))
        for i in range(values.size):
            scalars = {name: np.float64(v[i]) for name, v in env.items()}
            assert _same_bits(got(scalars), want(scalars))


def _left_to_right(node):
    """The nodes of a tree in pre-order, left operand first."""
    yield node
    if isinstance(node, BinOp):
        kids = (node.left, node.right)
    else:
        kids = (node.operand,) if isinstance(node, Neg) else getattr(node, "args", ())
    for kid in kids:
        yield from _left_to_right(kid)


# one to four trees chained through u, ``(acc + u) * part``: the state-free
# subtrees of every part sit in one tree, in the order of the parts
_chained_tree = st.lists(_any_tree, min_size=1, max_size=4).map(
    lambda parts: functools.reduce(
        lambda acc, part: BinOp("*", BinOp("+", acc, Var("u")), part), parts
    )
)


@_settings(300)
@given(_chained_tree, st.integers(0, 2**32 - 1))
def test_split_rhs_has_the_bits_of_the_whole_rhs(tree, seed):
    hoisted = state_free_subtrees(tree, {"u"})
    place = {}
    for i, node in enumerate(_left_to_right(tree)):
        place.setdefault(id(node), i)
    at = [place[id(node)] for node in hoisted]
    assert at == sorted(set(at))  # left to right, each once
    f = _generate(tree, ("t", "s"), {"t": "t", "u": "s[0]"}.get, "rhs", hoisted)
    if not hoisted:
        assert not hasattr(f, "split")
        return
    pre, main = f.split
    rng = np.random.default_rng(seed)
    special = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]
    values = np.concatenate([rng.normal(scale=3.0, size=13), special])
    t, U = rng.permutation(values), rng.permutation(values)[None, :]
    with np.errstate(all="ignore"):
        got, want = main(t, U, pre(t)), f(t, U)
    assert type(got) is type(want)
    assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))


def _bits(x):
    return np.float64(x).view(np.int64)


@_settings(300)
@given(_any_tree, st.integers(0, 2**32 - 1))
def test_scalar_rhs_has_the_bits_of_the_rhs_on_float64(tree, seed):
    f = _generate(tree, ("t", "s"), {"t": "t", "u": "s[0]"}.get, "rhs",
                  inline={"t": "t", "u": "s0"}.get)
    scalar = scalar_form(f)
    rng = np.random.default_rng(seed)
    # NaNs of both signs, one with a payload
    nans = [math.nan, -math.nan, np.int64(0x7FF8_0000_0000_0123).view(np.float64)]
    special = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, *nans]
    values = np.concatenate([rng.normal(scale=3.0, size=6), special])
    with np.errstate(all="ignore"):
        for t, u in zip(rng.permutation(values), rng.permutation(values)):
            got, want = scalar(float(t), [float(u)]), f(t, [u])
            assert type(got) is float
            # a NaN's sign and payload may differ: once CPython specializes a
            # float '+' or '*', it keeps the other one of two NaN operands
            assert _bits(got) == _bits(want) or (math.isnan(got) and math.isnan(want))


# trees that pretty() can spell as a problem file: no infinite or NaN constant
_finite_tree = _trees(
    st.one_of(
        st.builds(Const, st.floats(-4.0, 4.0)),
        st.builds(Const, st.sampled_from([0.0, 1.0, 2.0, 0.5])),
        st.builds(Var, st.sampled_from(["t", "u", "pi", "e"])),
    ),
    _any_node,
    8,
)


def _outcome(sys_, cfg):
    try:
        rep = solve(sys_, cfg)
    except (ValueError, DivergenceError) as exc:
        return type(exc), str(exc)
    return [snap.tobytes() for snap in rep.history], rep.diffs


@_settings(150)
@given(_finite_tree, st.sampled_from([0.0, -0.0, 0.5, -2.0, 45.0]), _nonzero,
       st.integers(2, 40), st.integers(1, 4))
def test_solve_of_a_split_rhs_equals_solve_of_the_plain_callable(tree, alpha, ua, n, m):
    # a wrapped callable carries no split, so its sweeps evaluate the whole rhs
    doc = {
        "interval": {"a": 0.0, "T": 1.0},
        "equations": [{"alpha": alpha, "rhs": pretty(tree)}],
        "initial": [ua],
    }
    split = problem_from_dict(doc)
    (f,) = split.rhs
    plain = dataclasses.replace(split, rhs=(lambda t, s: f(t, s),))
    for mode in MODES:
        cfg = SolveConfig(n=n, m_max=m, mode=mode, keep_history=True)
        assert _outcome(split, cfg) == _outcome(plain, cfg)


@st.composite
def _rk4_systems(draw):
    """A compiled system of k = 1 .. 3 equations with right-hand sides from random trees."""
    k = draw(st.integers(1, 3))
    trees = _trees(
        st.one_of(
            st.builds(Const, st.floats(-4.0, 4.0)),
            st.builds(Var, st.sampled_from(["t", "pi", *(f"u{j + 1}" for j in range(k))])),
        ),
        _any_node,
        6,
    )
    a = draw(st.floats(-1.0, 1.0))
    doc = {
        "interval": {"a": a, "T": a + draw(st.floats(0.25, 2.0))},
        "equations": [{"alpha": 0.0, "rhs": pretty(draw(trees))} for _ in range(k)],
        "initial": [draw(st.floats(-2.0, 2.0)) for _ in range(k)],
    }
    return problem_from_dict(doc)


@_settings(150)
@given(_rk4_systems(), st.integers(1, 40))
def test_rk4_reference_equals_the_array_march_bit_for_bit(sys_, nsteps):
    # the inlined march and the np.float64 one, against the oracle
    step = (sys_.T - sys_.a) / nsteps
    try:
        want = rk4_march(sys_, nsteps)
    except ArithmeticError:
        errors = []
        for each in (sys_, plain_callables(sys_)):
            with pytest.raises((ValueError, DivergenceError)) as info:
                rk4_reference(each, step)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]
        return
    for each in (sys_, plain_callables(sys_)):
        got = rk4_reference(each, step).values
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@_settings(300)
@given(_any_tree, st.sets(st.sampled_from(["t", "u", "pi", "x"])))
def test_state_free_subtrees_are_those_of_the_walk_that_asks_every_node(tree, state):
    got = state_free_subtrees(tree, state)
    assert list(map(id, got)) == list(map(id, walked_state_free_subtrees(tree, state)))


def _positive_node(sub):
    # every value stays positive and each operation is well conditioned, so
    # the one-ulp gaps between numpy's exp/tanh and libm's cannot grow
    # through cancellation past the tolerance
    return st.one_of(
        st.builds(BinOp, st.sampled_from("+*/"), sub, sub),
        st.builds(BinOp, st.just("^"), sub, st.builds(Const, st.floats(-3.0, 3.0))),
        st.builds(lambda fn, x: Call(fn, (x,)), st.sampled_from(["tanh", "exp", "sqrt", "abs"]), sub),
        st.builds(lambda k, x: Call("nthroot", (x,), k=k), st.integers(1, 6), sub),
    )


_positive_tree = _trees(
    st.one_of(
        st.builds(Const, st.floats(0.5, 2.0)),
        st.builds(Var, st.sampled_from(["t", "u", "pi", "e"])),
    ),
    _positive_node,
    12,
)


@_settings(200)
@given(_positive_tree, st.integers(0, 2**32 - 1))
def test_compiled_expression_agrees_with_the_math_module_oracle_where_both_are_finite(tree, seed):
    rng = np.random.default_rng(seed)
    t, u = rng.uniform(0.5, 2.0, size=(2, 8))
    with np.errstate(all="ignore"):
        got = np.broadcast_to(compile_array(tree)({"t": t, "u": u}), t.shape)
    for i in range(t.size):
        try:
            want = stack_eval(tree, {"t": float(t[i]), "u": float(u[i])})
        except (ValueError, OverflowError, ZeroDivisionError):
            continue
        if not math.isfinite(want):
            continue
        if math.isfinite(got[i]):
            assert abs(got[i] - want) <= 1e-13 * abs(want)
