"""Property tests of the sweep over random systems, grids and modes.

Hypothesis runs derandomized with a fixed example budget and no deadline,
so the suite draws the same examples on every run and host.
"""

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

from _oracles import naive_step

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
