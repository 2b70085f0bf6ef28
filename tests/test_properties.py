"""Property tests of the sweep over random systems, grids and modes, and of
the expression compiler over random trees.

Hypothesis runs derandomized with a fixed example budget and no deadline,
so the suite draws the same examples on every run and host.
"""

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
    solve,
    successive_diff_norm,
)
from ivim.expr import BinOp, Call, Const, ExprError, Neg, Var, compile_array, eval_expr

from _oracles import closure_compile, naive_step

_CAP = 1e12  # the nodal max norm past which solve reports divergence


def _settings(examples):
    return settings(derandomize=True, max_examples=examples, deadline=None, database=None)


_alphas = st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=2)
_nonzero = st.floats(0.1, 2.0) | st.floats(-2.0, -0.1)


@st.composite
def _problems(draw):
    """A coupled k = 1 or 2 system with u(a) != 0, a grid size, a mode and a seed."""
    alphas = tuple(draw(_alphas))
    k = len(alphas)
    ua = np.array([draw(_nonzero) for _ in range(k)])
    coefs = [draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)) for _ in range(k)]

    def make_rhs(j, p, q, r):
        # a bounded coupling keeps a sweep's growth to what the weights give it
        return lambda t, U: p * np.sin(U[(j + 1) % k]) + q * np.cos(t + j) + r * U[j]

    rhs = tuple(make_rhs(j, *coefs[j]) for j in range(k))
    sys_ = IvpSystem(alphas=alphas, a=0.0, T=1.0, initial=tuple(ua), rhs=rhs)
    shifted = tuple(lambda t, W, f=f: f(t, W + ua[:, None]) for f in rhs)
    n = draw(st.integers(2, 300))
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
    # bit for bit: solve and ivim_step run one sweep, and solve stops at the
    # cap on the same sweep as the chain
    sys_, _, n, mode, _ = problem
    grid = make_grid(sys_.a, sys_.T, n)
    mults = [exp_multiplier(alpha) for alpha in sys_.alphas]
    cfg = SolveConfig(n=n, m_max=m, mode=mode, keep_history=True)
    state = [PiecewiseLinear(grid, np.zeros(n)) for _ in range(sys_.k)]
    chain, diffs = [], []
    while len(chain) < m and not (chain and np.max(np.abs(chain[-1])) > _CAP):
        new = ivim_step(state, sys_, grid, mults, mode)
        diffs.append(successive_diff_norm(new, state))
        chain.append(np.vstack([pl.values for pl in new]))
        state = new
    if np.max(np.abs(chain[-1])) > _CAP:
        with pytest.raises(DivergenceError, match=f"at iteration {len(chain)}$"):
            solve(sys_, cfg)
        return
    rep = solve(sys_, cfg)
    assert [snap.tobytes() for snap in rep.history] == [snap.tobytes() for snap in chain]
    assert rep.diffs == diffs
    assert rep.iterations_run == m


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
        st.builds(Const, st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.5, math.inf, math.nan])),
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
def test_compiled_expression_agrees_with_eval_expr_where_both_are_finite(tree, seed):
    rng = np.random.default_rng(seed)
    t, u = rng.uniform(0.5, 2.0, size=(2, 8))
    with np.errstate(all="ignore"):
        got = np.broadcast_to(compile_array(tree)({"t": t, "u": u}), t.shape)
    for i in range(t.size):
        try:
            want = eval_expr(tree, {"t": float(t[i]), "u": float(u[i])})
        except ExprError:  # a non-finite result
            continue
        if math.isfinite(got[i]):
            assert abs(got[i] - want) <= 1e-13 * abs(want)
