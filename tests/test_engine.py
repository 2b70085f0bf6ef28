import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

import ivim.engine
from ivim import (
    DivergenceError,
    IvpSystem,
    PiecewiseLinear,
    ReferenceSolution,
    SolveConfig,
    error_metrics,
    eval_solution,
    exp_multiplier,
    get_problem,
    ivim_step,
    problem_from_dict,
    make_grid,
    rk4_reference,
    solve,
    solve_each,
    successive_diff_norm,
)


from _oracles import crank_nicolson_march, naive_step


def _zero_state(grid, k):
    return [PiecewiseLinear(grid, np.zeros(grid.n)) for _ in range(k)]


def _state_from(grid, rows):
    return [PiecewiseLinear(grid, np.asarray(row, dtype=float)) for row in rows]


# --- initial-value offset -----------------------------------------------------------

@pytest.mark.parametrize("mode", ["paper", "full_trapezoid"])
def test_offset_matches_hand_shifted_system(mode):
    # solving with u(a) = u_a must equal solving the hand-shifted system
    # w' = f(t, w + u_a), w(a) = 0, and adding u_a back, bit for bit
    def rhs0(t, U):
        return U[0] * U[1] + t

    def rhs1(t, U):
        return U[0] - U[1]

    ua = np.array([1.0, -1.0])
    given = IvpSystem(
        alphas=(0.5, -0.25), a=0.0, T=1.0, initial=tuple(ua), rhs=(rhs0, rhs1),
    )
    by_hand = IvpSystem(
        alphas=(0.5, -0.25), a=0.0, T=1.0, initial=(0.0, 0.0),
        rhs=(lambda t, W: rhs0(t, W + ua[:, None]), lambda t, W: rhs1(t, W + ua[:, None])),
    )
    cfg = SolveConfig(n=65, m_max=6, mode=mode)
    got = solve(given, cfg)
    want = solve(by_hand, cfg)
    assert np.array_equal(got.nodal_values(), want.nodal_values() + ua[:, None])
    assert got.diffs == want.diffs


def test_forcing_with_nonzero_initial_value():
    # u' = u, u(0) = 1 through the affine split: alpha = -1, g = 0; the
    # coefficient is g - alpha*u_a = 1 whatever the iterate
    sys_ = IvpSystem(
        alphas=(-1.0,), a=0.0, T=1.0, initial=(1.0,),
        forcing=(lambda t: np.zeros_like(np.asarray(t, dtype=float)),),
        exact=lambda t: np.exp(t)[None, :],
    )
    rep = solve(sys_, SolveConfig(n=101, m_max=3, mode="full_trapezoid"))
    t = rep.grid.nodes
    vals = rep.nodal_values()[0]
    assert np.max(np.abs(vals - np.exp(t))) < 5e-5
    assert np.array_equal(rep.errors, np.abs(vals - np.exp(t)))


_ROTATION = IvpSystem(  # u(a) != 0 and a nonzero alpha
    alphas=(0.0, 0.5), a=0.0, T=1.0, initial=(1.0, 0.0),
    rhs=(lambda t, U: U[1], lambda t, U: -U[0]),
    exact=lambda t: np.vstack([np.cos(t), -np.sin(t)]),
)


@pytest.mark.parametrize("mode", ["paper", "full_trapezoid"])
def test_errors_are_error_metrics_against_the_kept_closed_form(mode):
    # the closed form is evaluated once, kept unshifted, and the error is
    # |u - exact| with u = w + u_a, as error_metrics computes it
    calls = []
    counted = dataclasses.replace(
        _ROTATION, exact=lambda t: calls.append(t.size) or _ROTATION.exact(t)
    )
    rep = solve(counted, SolveConfig(n=257, m_max=5, mode=mode))
    assert calls == [257]
    nodes = rep.grid.nodes
    assert np.array_equal(rep.exact, np.atleast_2d(_ROTATION.exact(nodes)))
    assert not rep.exact.flags.writeable
    ref = ReferenceSolution(nodes, rep.exact, ("closed_form", "rotation"))
    assert np.array_equal(rep.errors, error_metrics(rep, ref).per_node_abs)
    no_closed_form = dataclasses.replace(_ROTATION, exact=None)
    rep = solve(no_closed_form, SolveConfig(n=9, m_max=1, mode=mode))
    assert rep.exact is None and rep.errors is None


@pytest.mark.parametrize("system, shape", [
    # one row for two equations used to score both components against sin t
    (dataclasses.replace(_ROTATION, exact=np.sin), (1, 9)),
    # three rows for one equation used to give a (3, 9) report.exact
    (IvpSystem(alphas=(0.0,), a=0.0, T=1.0, initial=(0.0,), rhs=(lambda t, U: np.cos(t),),
               exact=lambda t: np.vstack([np.sin(t)] * 3)), (3, 9)),
], ids=["one-row-for-two", "three-rows-for-one"])
def test_solve_rejects_a_closed_form_that_is_not_k_by_n(system, shape):
    want = (system.k, 9)
    with pytest.raises(ValueError, match=re.escape(f"closed form has shape {shape}, need {want}")):
        solve(system, SolveConfig(n=9, m_max=2))


def test_a_one_equation_closed_form_may_return_a_flat_array():
    system = IvpSystem(alphas=(0.0,), a=0.0, T=1.0, initial=(0.0,),
                       rhs=(lambda t, U: np.cos(t),), exact=np.sin)
    rep = solve(system, SolveConfig(n=9, m_max=2))
    assert rep.exact.shape == (1, 9)
    assert np.array_equal(rep.exact[0], np.sin(rep.grid.nodes))


@pytest.mark.parametrize("keep_history", [False, True])
def test_nodal_values_is_a_fresh_writable_array(keep_history):
    # u_a is added to the read-only iterate, which final views row by row;
    # the result is the caller's own, and writing to it changes neither the
    # report nor a later call
    sys_ = dataclasses.replace(_ROTATION, initial=(1.0, -0.5), exact=None)
    rep = solve(sys_, SolveConfig(n=33, m_max=3, keep_history=keep_history))
    assert not rep.iterate.flags.writeable
    assert all(np.shares_memory(rep.iterate, pl.values) for pl in rep.final)
    final = [pl.values.copy() for pl in rep.final]
    history = [snap.copy() for snap in rep.history or ()]
    values = rep.nodal_values()
    want = np.vstack(final) + np.array([[1.0], [-0.5]])
    assert values.shape == (2, 33) and values.flags.writeable
    assert np.array_equal(values.view(np.int64), want.view(np.int64))
    want = rep.iterate + np.array([[1.0], [-0.5]])
    assert np.array_equal(values.view(np.int64), want.view(np.int64))
    kept = [pl.values for pl in rep.final] + list(rep.history or ())
    assert not any(np.shares_memory(values, a) for a in kept)
    values[...] = np.nan
    assert all(np.array_equal(pl.values, row) for pl, row in zip(rep.final, final))
    assert all(np.array_equal(a, b) for a, b in zip(rep.history or (), history))
    again = rep.nodal_values()
    assert not np.shares_memory(again, values)
    assert np.array_equal(again.view(np.int64), want.view(np.int64))


# --- one-step exactness -----------------------------------------------------------

@pytest.mark.parametrize("n", [2, 17, 100])
def test_constant_rhs_one_step(n):
    sys_ = IvpSystem(
        alphas=(0.0,), a=0.0, T=1.0, initial=(0.0,),
        rhs=(lambda t, U: np.ones_like(np.asarray(t, dtype=float)),),
    )
    grid = make_grid(0.0, 1.0, n)
    mults = [exp_multiplier(0.0)]
    t, h = grid.nodes, grid.h

    out = ivim_step(_zero_state(grid, 1), sys_, grid, mults, "paper")
    assert np.max(np.abs(out[0].values[1:] - (t[1:] - h / 2))) <= 1e-12

    out = ivim_step(_zero_state(grid, 1), sys_, grid, mults, "full_trapezoid")
    assert np.max(np.abs(out[0].values[1:] - t[1:])) <= 1e-12


def test_constant_rhs_one_step_any_state():
    # the coefficient alpha*u + f is state-independent here, so any previous
    # iterate gives the same update
    sys_ = IvpSystem(
        alphas=(0.0,), a=0.0, T=1.0, initial=(0.0,),
        rhs=(lambda t, U: np.ones_like(np.asarray(t, dtype=float)),),
    )
    grid = make_grid(0.0, 1.0, 33)
    state = _state_from(grid, [np.concatenate(([0.0], np.sin(grid.nodes[1:])))])
    out = ivim_step(state, sys_, grid, [exp_multiplier(0.0)], "paper")
    assert np.max(np.abs(out[0].values[1:] - (grid.nodes[1:] - grid.h / 2))) <= 1e-12


# --- fidelity against the naive double loop ---------------------------------------

def test_step_matches_naive_on_random_problems():
    # with u(a) = u_a the oracle sees the hand-shifted rhs f(t, w + u_a)
    rng = np.random.default_rng(7)
    for trial in range(12):
        ua = 0.0 if trial < 6 else 0.75
        alpha = float(rng.uniform(-3, 3))
        a_coef = float(rng.uniform(-1, 1))
        b_coef = float(rng.uniform(-1, 1))

        def rhs(t, U, a_coef=a_coef, b_coef=b_coef):
            return a_coef * U[0] + b_coef * np.sin(t) + 0.3 * U[0] ** 2

        def shifted_rhs(t, W, rhs=rhs, ua=ua):
            return rhs(t, W + ua)

        sys_ = IvpSystem(alphas=(alpha,), a=0.0, T=2.0, initial=(ua,), rhs=(rhs,))
        grid = make_grid(0.0, 2.0, 33)
        state_vals = np.vstack([np.concatenate(([0.0], rng.normal(size=32)))])
        state = _state_from(grid, state_vals)
        for mode in ("paper", "full_trapezoid"):
            got = ivim_step(state, sys_, grid, [exp_multiplier(alpha)], mode)
            want = naive_step((alpha,), (shifted_rhs,), grid.nodes, grid.h, state_vals, mode)
            assert np.max(np.abs(got[0].values - want[0])) <= 1e-12


def test_step_second_node_uses_empty_sum():
    # at i = 2 the interior sum is empty: u(t_2) = -h/2 * H(t_2, t_2)
    alpha = -1.3

    def rhs(t, U):
        return np.cos(t) - 0.5 * U[0]

    sys_ = IvpSystem(alphas=(alpha,), a=0.0, T=1.0, initial=(0.0,), rhs=(rhs,))
    grid = make_grid(0.0, 1.0, 9)
    vals = np.concatenate(([0.0], np.linspace(0.2, 1.0, 8)))
    state = _state_from(grid, [vals])
    out = ivim_step(state, sys_, grid, [exp_multiplier(alpha)], "paper")
    t2 = grid.nodes[1]
    f2 = rhs(t2, vals[None, 1])[0] if False else float(rhs(t2, np.array([vals[1]])))
    h22 = alpha * (-1.0) * vals[1] + (-1.0) * f2
    assert out[0].values[1] == pytest.approx(-grid.h / 2 * h22, abs=1e-14)


@pytest.mark.parametrize("mode", ["paper", "full_trapezoid"])
@pytest.mark.parametrize("alpha", [-50.0, 31.0, 50.0, 300.0, 2000.0])
def test_step_matches_naive_for_stiff_alpha(alpha, mode):
    # |alpha| * (T - a) > 30, so the scan runs over several blocks joined by
    # the carry; 2000 is past the old overflow cap on the weights
    def rhs(t, U):
        return np.cos(t) - U[0]

    sys_ = IvpSystem(alphas=(alpha,), a=0.0, T=1.0, initial=(0.0,), rhs=(rhs,))
    grid = make_grid(0.0, 1.0, 129)
    vals = np.concatenate(([0.0], np.linspace(-0.5, 0.5, 128)))
    state = _state_from(grid, [vals])
    got = ivim_step(state, sys_, grid, [exp_multiplier(alpha)], mode)
    want = naive_step((alpha,), sys_.rhs, grid.nodes, grid.h, vals[None, :], mode)
    scale = np.maximum(np.abs(want[0]), 1.0)
    assert np.max(np.abs(got[0].values - want[0]) / scale) <= 1e-12


# --- solve-level behavior -----------------------------------------------------------

def test_solve_riccati_error_bound():
    # threshold frozen from the pre-build oracle run (measured 3.912e-3 at
    # n = 257, m = 10 against the closed form and a 1e-5-step RK4 check)
    sys_, _ = get_problem("ex1")
    rep = solve(sys_, SolveConfig(n=257, m_max=10))
    assert rep.errors is not None
    assert rep.errors.max() <= 6.0e-3


def test_solve_fractional_rhs_error_bound():
    # frozen from the oracle run: 3.384e-3 at n = 257, m = 10 (closed-form
    # reference; an RK4 launched from zero is trapped on the zero branch)
    sys_, _ = get_problem("ex2")
    rep = solve(sys_, SolveConfig(n=257, m_max=10))
    assert rep.errors.max() <= 6.0e-3


def test_affine_split_iterates_are_idempotent_bitwise():
    sys_ = IvpSystem(
        alphas=(-1.0,), a=0.0, T=1.0, initial=(0.0,),
        forcing=(lambda t: np.ones_like(np.asarray(t, dtype=float)),),
    )
    rep = solve(sys_, SolveConfig(n=1000, m_max=3, keep_history=True))
    assert np.array_equal(rep.history[0], rep.history[1])
    assert np.array_equal(rep.history[1], rep.history[2])
    assert rep.diffs[1] == 0.0


def test_solve_determinism_bitwise():
    sys_, _ = get_problem("ex3")
    r1 = solve(sys_, SolveConfig(n=200, m_max=7))
    r2 = solve(sys_, SolveConfig(n=200, m_max=7))
    for p1, p2 in zip(r1.final, r2.final):
        assert np.array_equal(p1.values, p2.values)
    assert r1.diffs == r2.diffs
    assert np.array_equal(r1.errors, r2.errors)


def test_solve_early_stop_on_stationary_iterates():
    sys_ = IvpSystem(
        alphas=(-1.0,), a=0.0, T=1.0, initial=(0.0,),
        forcing=(lambda t: np.ones_like(np.asarray(t, dtype=float)),),
    )
    rep = solve(sys_, SolveConfig(n=100, m_max=50, stop_tol=1e-14))
    assert rep.iterations_run == 2
    assert len(rep.diffs) == 2
    assert rep.diffs[-1] <= 1e-14


def test_solve_uses_problem_guess():
    sys_, _ = get_problem("ex2")
    rep = solve(sys_, SolveConfig(n=50, m_max=1))
    # one sweep from the zero guess would stay identically zero
    assert rep.final[0].values[1:].max() > 0.0


def test_solve_accepts_explicit_initial_iterate():
    # overriding the seed with zeros lands on the spurious stationary branch
    # of the fractional-power problem: the rhs vanishes identically along it
    sys_, _ = get_problem("ex2")
    rep = solve(dataclasses.replace(sys_, guess=None), SolveConfig(n=50, m_max=8))
    assert not rep.final[0].values.any()


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_nonfinite_iterate_is_an_input_error(bad):
    # not a "non-finite update" divergence: the argument, equation and node are named
    sys_, _ = get_problem("ex3")
    grid = make_grid(sys_.a, sys_.T, 5)
    state = _state_from(grid, [[0.0, 1.0, 1.0, 1.0, 1.0], [0.0, 1.0, bad, 1.0, 1.0]])
    where = f"must be finite: equation 2 is {bad} at node 3 (t={grid.nodes[2]})"
    mults = [exp_multiplier(alpha) for alpha in sys_.alphas]
    with pytest.raises(ValueError, match=re.escape(f"state {where}") + "$"):
        ivim_step(state, sys_, grid, mults)


_STIFF = {
    "name": "stiff",
    "interval": {"a": 0.0, "T": 1.0},
    "equations": [{
        "alpha": 60.0,
        "rhs": "-60*u - 0.2*u^2 + 7*cos(7*t) + 60*(1 + sin(7*t)) + 0.2*(1 + sin(7*t))^2",
    }],
    "initial": [1.0],
    "exact": ["1 + sin(7*t)"],
}


@pytest.mark.parametrize("sys_", [get_problem("ex2")[0], problem_from_dict(_STIFF)], ids=["ex2", "stiff"])
def test_t_only_part_is_evaluated_once_per_solve(sys_, monkeypatch):
    (f,) = sys_.rhs
    pre, main = f.split
    calls = []
    monkeypatch.setattr(f, "split", (lambda t: calls.append(t.size) or pre(t), main))
    for m in (1, 4, 9):
        calls.clear()
        rep = solve(sys_, SolveConfig(n=257, m_max=m))
        assert calls == [257] and rep.iterations_run == m
    calls.clear()
    rk4_reference(sys_, 0.01)  # calls f itself
    assert calls == []


def test_system_interval_validation():
    with pytest.raises(ValueError, match="invalid interval"):
        IvpSystem(alphas=(0.0,), a=1.0, T=1.0, initial=(0.0,),
                  rhs=(lambda t, U: U[0],))


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_system_rejects_nonfinite_initial_value(bad):
    with pytest.raises(ValueError, match="initial value of equation 2 must be finite"):
        IvpSystem(alphas=(0.0, 0.0), a=0.0, T=1.0, initial=(0.0, bad),
                  rhs=(lambda t, U: U[1], lambda t, U: U[0]))


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"alphas": (0.0, float("nan"))}, "alpha of equation 2 must be finite, got nan"),
        ({"alphas": (float("-inf"), 0.0)}, "alpha of equation 1 must be finite, got -inf"),
        ({"a": float("nan")}, "interval endpoint a must be finite, got nan"),
        ({"T": float("inf")}, "interval endpoint T must be finite, got inf"),
        ({"a": -1e308, "T": 1e308}, "interval length T - a must be finite, got inf"),
    ],
)
def test_system_rejects_nonfinite_alpha_and_endpoints(fields, message):
    args = dict(alphas=(0.0, 0.0), a=0.0, T=1.0, initial=(0.0, 0.0),
                rhs=(lambda t, U: U[1], lambda t, U: U[0]))
    args.update(fields)
    with pytest.raises(ValueError, match=re.escape(message)):
        IvpSystem(**args)


_TWO = dict(alphas=(0.0, 0.0), a=0.0, T=1.0, initial=(0.0, 0.0),
            rhs=(lambda t, U: U[1], lambda t, U: U[0]))


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"alphas": (), "initial": (), "rhs": ()}, "system needs at least one equation"),
        ({"initial": (0.0,)}, "initial has 1 entries for 2 equation(s)"),
        ({"rhs": _TWO["rhs"][:1]}, "rhs has 1 entries for 2 equation(s)"),
        ({"forcing": (None,)}, "forcing must have one entry per equation"),
        ({"guess": (None, None, None)}, "guess must have one entry per equation"),
        ({"rhs": None}, "each equation needs rhs or forcing"),
    ],
)
def test_system_rejects_miscounted_fields(fields, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        IvpSystem(**dict(_TWO, **fields))


def test_step_rejects_unknown_mode_and_wrong_state_length():
    sys_ = IvpSystem(**_TWO)
    grid = make_grid(0.0, 1.0, 9)
    mults = [exp_multiplier(0.0)] * 2
    with pytest.raises(ValueError, match=re.escape("mode='trapezoid', choose from")):
        ivim_step(_zero_state(grid, 2), sys_, grid, mults, "trapezoid")
    with pytest.raises(ValueError, match="state must have one element per equation"):
        ivim_step(_zero_state(grid, 1), sys_, grid, mults)


def test_step_rejects_a_grid_off_the_system_interval():
    # ex1 on [0, 2] instead of its [0, 1] used to step to a finite 20.53 at t = 2
    system, _ = get_problem("ex1")
    grid = make_grid(0.0, 2.0, 9)
    with pytest.raises(ValueError, match=re.escape("[0.0, 2.0] is not the system's [0.0, 1.0]")):
        ivim_step(_zero_state(grid, 1), system, grid, [exp_multiplier(a) for a in system.alphas])


@pytest.mark.parametrize("other", [(0.0, 2.0, 9), (0.0, 1.0, 17)], ids=["interval", "n"])
def test_step_rejects_a_state_on_another_grid(other):
    sys_ = IvpSystem(**_TWO)
    grid = make_grid(0.0, 1.0, 9)
    with pytest.raises(ValueError, match="state grids do not match the solve grid"):
        ivim_step(_zero_state(make_grid(*other), 2), sys_, grid, [exp_multiplier(0.0)] * 2)


def test_step_rejects_multipliers_of_other_alphas():
    # the weights and the coefficient must share alpha, or the sweep would
    # iterate towards another fixed point
    sys_ = IvpSystem(alphas=(0.5, -0.25), a=0.0, T=1.0, initial=(0.0, 0.0),
                     rhs=(lambda t, U: U[1], lambda t, U: U[0]))
    grid = make_grid(0.0, 1.0, 9)
    state = _zero_state(grid, 2)
    with pytest.raises(ValueError, match="mults carry alphas"):
        ivim_step(state, sys_, grid, [exp_multiplier(0.5), exp_multiplier(0.25)])
    with pytest.raises(ValueError, match="mults carry alphas"):
        ivim_step(state, sys_, grid, [exp_multiplier(0.5)])
    out = ivim_step(state, sys_, grid, [exp_multiplier(0.5), exp_multiplier(-0.25)])
    assert len(out) == 2


def test_solve_divergence_cap():
    # u' = u^2, u(0) = 2 blows up at t = 1/2; solve raises on the sweep where
    # the ivim_step chain first turns non-finite, and says which
    sys_ = IvpSystem(
        alphas=(0.0,), a=0.0, T=1.0, initial=(2.0,),
        rhs=(lambda t, U: U[0] ** 2,),
    )
    for n in (64, 4097):
        grid = make_grid(0.0, 1.0, n)
        state = _zero_state(grid, 1)
        with pytest.raises(DivergenceError, match="^non-finite update in equation 1") as chained:
            for sweep in range(1, 61):
                state = ivim_step(state, sys_, grid, [exp_multiplier(0.0)])
        message = f"{chained.value} at iteration {sweep}"
        with pytest.raises(DivergenceError, match=re.escape(message) + "$"):
            solve(sys_, SolveConfig(n=n, m_max=60))


def test_overflowed_difference_of_finite_iterates_diverges_in_solve_only():
    # c = -+1.5e308 by the sign of u; on two nodes with h = 2 a sweep's
    # iterate at t = 2 is c, so sweep 2 moves it by 3e308, past float64
    sys_ = IvpSystem(
        alphas=(0.0,), a=0.0, T=2.0, initial=(1.0,),
        rhs=(lambda t, U: np.where(U[0] > 0.0, -1.5e308, 1.5e308),),
    )
    grid = make_grid(0.0, 2.0, 2)
    state = _zero_state(grid, 1)
    for want in (-1.5e308, 1.5e308):  # ivim_step returns each finite sweep
        state = ivim_step(state, sys_, grid, [exp_multiplier(0.0)])
        assert state[0].values.tolist() == [0.0, want]
    message = "non-finite update: the successive difference overflowed at iteration 2"
    with pytest.raises(DivergenceError, match=re.escape(message) + "$"):
        solve(sys_, SolveConfig(n=2, m_max=3))


@pytest.mark.parametrize("T, sweeps", [(30.0, 106), (40.0, 133)])
def test_long_oscillator_converges_to_the_crank_nicolson_march(T, sweeps):
    # the Picard transient T^m / m! lifts the successive difference to 1.5e16
    # at T = 40 before it contracts; the iterate stays finite, so the solve
    # runs on to the trapezoid march that is its fixed point
    sys_ = problem_from_dict({
        "interval": {"a": 0.0, "T": T},
        "equations": [{"alpha": 0.0, "rhs": "u2"}, {"alpha": 0.0, "rhs": "-u1"}],
        "initial": [1.0, 0.0],
    })
    n = int(200 * T) + 1
    rep = solve(sys_, SolveConfig(n=n, m_max=400, mode="full_trapezoid", stop_tol=1e-13))
    assert rep.iterations_run == sweeps
    march = crank_nicolson_march([[0.0, 1.0], [-1.0, 0.0]], [1.0, 0.0], 0.0, T, n)
    assert np.max(np.abs(rep.nodal_values() - march)) <= 1e-12


def test_step_divergence_reports_node():
    def rhs(t, U):
        return np.divide(1.0, 0.5 - np.asarray(t, dtype=float))  # inf at t=0.5

    sys_ = IvpSystem(alphas=(0.0,), a=0.0, T=1.0, initial=(0.0,), rhs=(rhs,))
    grid = make_grid(0.0, 1.0, 11)
    with pytest.raises(DivergenceError, match="node 6"):
        ivim_step(_zero_state(grid, 1), sys_, grid, [exp_multiplier(0.0)], "paper")


def test_step_nan_coefficient_is_an_input_error():
    # a NaN from f at a finite state is f outside its domain, not divergence
    def rhs(t, U):
        return np.sqrt(1.0 - 2.0 * np.asarray(t, dtype=float))  # nan past t=0.5

    sys_ = IvpSystem(alphas=(0.0,), a=0.0, T=1.0, initial=(0.0,), rhs=(rhs,))
    grid = make_grid(0.0, 1.0, 11)
    with pytest.raises(ValueError, match=r"equation 1 is nan at node 7 \(t=0\.6"):
        ivim_step(_zero_state(grid, 1), sys_, grid, [exp_multiplier(0.0)], "paper")


def test_nan_coefficient_names_the_equation_and_the_state():
    # equation 2 reads log(u1 - 1); u1 = 0.5 + t passes 1 at t = 0.5
    sys_ = _domain_error_problem(
        equations=[{"alpha": 0.0, "rhs": "1"}, {"alpha": 0.0, "rhs": "log(u1 - 1)"}],
        initial=[0.5, 2.0],
        guess=["0.5 + t", "2"],
    )
    message = r"equation 2 is nan at node 2 \(t=0\.03125, u=\[0\.53125, 2\.0\]\)"
    with pytest.raises(ValueError, match=message):
        solve(sys_, SolveConfig(n=33, m_max=3))


def test_nan_at_t1_is_read_only_in_full_trapezoid_mode():
    # t/t is nan only at t = a; paper mode never reads c(t_1)
    sys_ = _domain_error_problem(equations=[{"alpha": 0.0, "rhs": "t/t"}])
    report = solve(sys_, SolveConfig(n=33, m_max=3, mode="paper"))
    assert np.isfinite(report.nodal_values()).all()
    with pytest.raises(ValueError, match=r"equation 1 is nan at node 1 \(t=0\.0"):
        solve(sys_, SolveConfig(n=33, m_max=3, mode="full_trapezoid"))


def _domain_error_problem(**fields):
    doc = {
        "name": "domain",
        "interval": {"a": 0.0, "T": 1.0},
        "equations": [{"alpha": 0.0, "rhs": "1"}],
        "initial": [0.0],
    }
    doc.update(fields)
    return problem_from_dict(doc)


def test_domain_errors_reach_the_finite_checks_without_warnings():
    # compiled expressions leave numpy's error state to the caller; the
    # sweep, the guess projection and the exact evaluation each suppress it,
    # so a RuntimeWarning (an error under this suite's settings) never leaks
    cfg = SolveConfig(n=33, m_max=3)
    bad_rhs = _domain_error_problem(equations=[{"alpha": 0.0, "rhs": "log(u - 1)"}])
    with pytest.raises(ValueError, match="equation 1 is nan at node 2"):
        solve(bad_rhs, cfg)
    with pytest.raises(ValueError, match="non-finite value"):
        solve(_domain_error_problem(guess=["log(t - 2)"]), cfg)
    report = solve(_domain_error_problem(exact=["log(t - 2)"]), cfg)
    assert np.isnan(report.errors).all()


def test_step_overflow_guard():
    # for alpha < 0 the weights grow like e^{-alpha (T - a)}
    sys_ = IvpSystem(
        alphas=(-800.0,), a=0.0, T=1.0, initial=(0.0,),
        rhs=(lambda t, U: np.ones_like(np.asarray(t, dtype=float)),),
    )
    grid = make_grid(0.0, 1.0, 11)
    with pytest.raises(ValueError, match="equation 1.*800.*700"):
        ivim_step(_zero_state(grid, 1), sys_, grid, [exp_multiplier(-800.0)], "paper")


def test_growth_limit_is_checked_before_any_rhs_call():
    # the limit depends only on alpha and the interval, so it is checked when
    # the scan is planned, before the first sweep evaluates a coefficient
    calls = []

    def rhs(t, U):
        calls.append(t)
        return 800.0 * U[0] + 1.0

    sys_ = IvpSystem(alphas=(-800.0,), a=0.0, T=1.0, initial=(0.0,), rhs=(rhs,))
    with pytest.raises(ValueError, match="equation 1.*800.*700"):
        solve(sys_, SolveConfig(n=64, m_max=2))
    grid = make_grid(0.0, 1.0, 64)
    with pytest.raises(ValueError, match="equation 1.*800.*700"):
        ivim_step(_zero_state(grid, 1), sys_, grid, [exp_multiplier(-800.0)], "paper")
    assert calls == []


def test_growth_limit_is_reported_before_a_non_finite_update():
    # equation 1 turns infinite at t = 0.5 and equation 2 exceeds the limit:
    # the growth error comes first, since it is raised before any sweep
    sys_ = IvpSystem(
        alphas=(0.0, -800.0), a=0.0, T=1.0, initial=(0.0, 0.0),
        rhs=(lambda t, U: 1.0 / (0.5 - t), lambda t, U: 800.0 * U[1]),
    )
    with pytest.raises(ValueError, match="equation 2.*800.*700"):
        solve(sys_, SolveConfig(n=11, m_max=2))


def test_positive_alpha_has_no_overflow_limit():
    # for alpha > 0 every weight is at most 1, so a large span still solves
    def rhs(t, U):
        return np.cos(t) - 800.0 * U[0]

    sys_ = IvpSystem(alphas=(800.0,), a=0.0, T=1.0, initial=(0.0,), rhs=(rhs,))
    rep = solve(sys_, SolveConfig(n=65, m_max=2))
    assert np.isfinite(rep.nodal_values()).all()
    grid = rep.grid
    vals = rep.final[0].values[None, :]
    got = ivim_step(rep.final, sys_, grid, [exp_multiplier(800.0)], "paper")
    want = naive_step((800.0,), sys_.rhs, grid.nodes, grid.h, vals, "paper")
    scale = np.maximum(np.abs(want[0]), 1.0)
    assert np.max(np.abs(got[0].values - want[0]) / scale) <= 1e-12


def test_exp_multiplier_rejects_nonfinite_alpha():
    with pytest.raises(ValueError):
        exp_multiplier(float("nan"))
    with pytest.raises(ValueError):
        exp_multiplier(float("inf"))


def test_solve_config_validation():
    with pytest.raises(ValueError, match="config invalid"):
        SolveConfig(n=1, m_max=5)
    with pytest.raises(ValueError, match="config invalid"):
        SolveConfig(n=10, m_max=0)
    with pytest.raises(ValueError, match="config invalid"):
        SolveConfig(n=10, m_max=5, mode="simpson")
    with pytest.raises(ValueError, match="config invalid"):
        SolveConfig(n=10, m_max=5, stop_tol=-1.0)
    # a bool or a non-real tolerance is a config error, not a bare TypeError
    # an integer past the float range is a config error too, not a bare OverflowError
    for tol in (True, "1e-3", None, float("nan"), float("inf"), 10**400):
        with pytest.raises(ValueError, match=re.escape(f"config invalid: stop_tol={tol!r}")):
            SolveConfig(n=5, m_max=2, stop_tol=tol)
    cfg = SolveConfig(n=5, m_max=2, stop_tol=np.float32(0.5))
    assert type(cfg.stop_tol) is float and cfg.stop_tol == 0.5
    assert type(SolveConfig(n=5, m_max=2, stop_tol=1).stop_tol) is float


def test_solve_config_sizes_must_be_integers():
    # int() would truncate 2.7 to 2 sweeps and accept the string "5"
    with pytest.raises(ValueError, match=re.escape("config invalid: m_max=2.7, need an integer")):
        SolveConfig(n=5, m_max=2.7)
    with pytest.raises(ValueError, match=re.escape("config invalid: n='5', need an integer")):
        SolveConfig(n="5", m_max=2)
    with pytest.raises(ValueError, match=re.escape("config invalid: n=5.0, need an integer")):
        SolveConfig(n=5.0, m_max=2)
    cfg = SolveConfig(n=np.int64(5), m_max=np.int32(2))
    assert (cfg.n, cfg.m_max) == (5, 2)
    assert type(cfg.n) is int and type(cfg.m_max) is int


def test_solve_config_sizes_reject_booleans():
    # operator.index(True) is 1, so m_max=True would run one sweep
    with pytest.raises(ValueError, match=re.escape("config invalid: m_max=True, need an integer")):
        SolveConfig(n=5, m_max=True)
    with pytest.raises(ValueError, match=re.escape("config invalid: n=False, need an integer")):
        SolveConfig(n=False, m_max=2)


# --- successive_diff_norm -----------------------------------------------------------

def test_diff_norm_identical_states():
    grid = make_grid(0, 1, 5)
    s = _state_from(grid, [[0, 1, 2, 3, 4]])
    assert successive_diff_norm(s, s) == 0.0


def test_diff_norm_single_node():
    grid = make_grid(0, 1, 5)
    s1 = _state_from(grid, [[0, 1, 2, 3, 4]])
    s2 = _state_from(grid, [[0, 1, 2.5, 3, 4]])
    assert successive_diff_norm(s1, s2) == 0.5


def test_diff_norm_takes_component_max():
    grid = make_grid(0, 1, 3)
    s1 = _state_from(grid, [[0, 1, 1], [0, 2, 2]])
    s2 = _state_from(grid, [[0, 1.1, 1], [0, 2.3, 2]])
    assert successive_diff_norm(s1, s2) == pytest.approx(0.3)


def test_diff_norm_shape_mismatch():
    g1 = make_grid(0, 1, 3)
    g2 = make_grid(0, 1, 4)
    with pytest.raises(ValueError):
        successive_diff_norm(_state_from(g1, [[0, 1, 2]]), _state_from(g2, [[0, 1, 2, 3]]))
    with pytest.raises(ValueError):
        successive_diff_norm(_state_from(g1, [[0, 1, 2]]), _state_from(g1, [[0, 1, 2]] * 2))


# --- eval_solution ------------------------------------------------------------------

def test_eval_solution_offsets_and_interpolates():
    sys_ = IvpSystem(
        alphas=(0.0,), a=0.0, T=1.0, initial=(2.5,),
        rhs=(lambda t, U: np.ones_like(np.asarray(t, dtype=float)),),
    )
    rep = solve(sys_, SolveConfig(n=11, m_max=1, mode="full_trapezoid"))
    assert eval_solution(rep, 0.0) == pytest.approx([2.5], abs=0)
    node = rep.grid.nodes[4]
    assert eval_solution(rep, node)[0] == rep.final[0].values[4] + 2.5
    mid = 0.5 * (rep.grid.nodes[4] + rep.grid.nodes[5])
    expected = 0.5 * (rep.final[0].values[4] + rep.final[0].values[5]) + 2.5
    assert eval_solution(rep, mid)[0] == pytest.approx(expected, abs=1e-15)
    with pytest.raises(ValueError, match="outside"):
        eval_solution(rep, 1.5)


def test_eval_solution_rejects_nan():
    sys_, _ = get_problem("ex1")
    rep = solve(sys_, SolveConfig(n=11, m_max=1))
    with pytest.raises(ValueError, match=re.escape("t=nan outside [0.0, 1.0]")):
        eval_solution(rep, float("nan"))


def test_eval_solution_reads_each_row_linearly_and_adds_u_a():
    # rotation.json has k = 2 and u(a) = (1, 0), so u(a) is added per row
    system, _ = get_problem(Path(__file__).with_name("rotation.json"))
    rng = np.random.default_rng(41)
    for mode in ("paper", "full_trapezoid"):
        rep = solve(system, SolveConfig(n=33, m_max=4, mode=mode))
        g = rep.grid
        for t in [g.a, g.T, *rng.uniform(g.a, g.T, size=200)]:
            expected = np.array([np.interp(t, g.nodes, row) for row in rep.iterate])
            assert np.array_equal(eval_solution(rep, t), expected + np.asarray(system.initial))
        at_nodes = np.column_stack([eval_solution(rep, t) for t in g.nodes])
        assert np.array_equal(at_nodes, rep.nodal_values())
        for t, shown in ((1.5, "1.5"), (-0.25, "-0.25"), (float("nan"), "nan")):
            with pytest.raises(ValueError, match=re.escape(f"t={shown} outside [0.0, 1.0]")):
                eval_solution(rep, t)


def test_history_snapshots():
    sys_, _ = get_problem("ex1")
    rep = solve(sys_, SolveConfig(n=33, m_max=4, keep_history=True))
    assert len(rep.history) == 4
    assert all(snap.shape == (1, 33) for snap in rep.history)
    assert rep.history[-1] is rep.iterate
    rep2 = solve(sys_, SolveConfig(n=33, m_max=4))
    assert rep2.history is None


def test_history_snapshots_are_the_carried_iterates():
    # solve keeps each sweep's (k, n) array as it is: read-only, and the
    # last one is the storage behind final
    sys_, _ = get_problem("ex3")
    rep = solve(sys_, SolveConfig(n=33, m_max=3, keep_history=True))
    assert not any(snap.flags.writeable for snap in rep.history)
    assert all(np.shares_memory(rep.history[-1], pl.values) for pl in rep.final)
    assert rep.iterations_run == len(rep.diffs) == 3


# --- solve_each ---------------------------------------------------------------------

def _same_bits(a, b):
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_report(got, want):
    assert _same_bits(got.iterate, want.iterate) and not got.iterate.flags.writeable
    assert _same_bits(got.grid.nodes, want.grid.nodes) and got.u_a == want.u_a
    assert _same_bits(got.diffs, want.diffs) and got.iterations_run == want.iterations_run
    assert _same_bits(got.exact, want.exact) and _same_bits(got.errors, want.errors)
    if want.history is None:
        assert got.history is None
    else:
        assert len(got.history) == len(want.history)
        assert all(_same_bits(g, w) for g, w in zip(got.history, want.history))
        assert got.iterate is got.history[-1]


_SOLVE_EACH_PROBLEMS = {
    "ex1": "ex1",
    "ex2": "ex2",
    "ex3": "ex3",
    "rotation": str(Path(__file__).with_name("rotation.json")),
}
_M_LIST = (1, 3, 6, 10, 15)


@pytest.mark.parametrize("keep_history", [False, True])
@pytest.mark.parametrize("stop", [False, True], ids=["no-stop", "stop-inside"])
@pytest.mark.parametrize("mode", ["paper", "full_trapezoid"])
@pytest.mark.parametrize("name", list(_SOLVE_EACH_PROBLEMS))
def test_solve_each_reports_are_the_independent_solves(name, mode, stop, keep_history):
    # an ascending m-list is one run; every report, taken once the run is
    # over, has the bits of its own solve on every field
    sys_, _ = get_problem(_SOLVE_EACH_PROBLEMS[name])
    tol = 0.0
    if stop:  # the difference of sweep 5 stops the run between m = 3 and m = 6
        tol = solve(sys_, SolveConfig(n=33, m_max=5, mode=mode)).diffs[-1]
    configs = [SolveConfig(n=33, m_max=m, mode=mode, stop_tol=tol, keep_history=keep_history)
               for m in _M_LIST]
    reports = list(solve_each(sys_, configs))
    assert len(reports) == len(configs)
    for got, cfg in zip(reports, configs):
        _assert_same_report(got, solve(sys_, cfg))
    runs = [rep.iterations_run for rep in reports]
    assert runs == ([1, 3, 5, 5, 5] if stop else list(_M_LIST))


def test_solve_each_runs_only_what_extends_the_previous_config(monkeypatch):
    # a new n, mode or tolerance, or an m_max that does not ascend, starts a
    # new run; each report still has the bits of its own solve
    sys_, _ = get_problem("ex3")
    configs = [
        SolveConfig(n=9, m_max=1), SolveConfig(n=9, m_max=3), SolveConfig(n=17, m_max=2),
        SolveConfig(n=17, m_max=2), SolveConfig(n=17, m_max=1),
        SolveConfig(n=17, m_max=4, mode="full_trapezoid"), SolveConfig(n=17, m_max=5),
        SolveConfig(n=17, m_max=6, stop_tol=1e-3),
    ]
    stop = solve(sys_, configs[-1]).iterations_run
    calls = []
    sweep = ivim.engine._sweep
    monkeypatch.setattr(ivim.engine, "_sweep", lambda *args: calls.append(1) or sweep(*args))
    reports = list(solve_each(sys_, configs))
    assert len(calls) == 3 + 2 + 2 + 1 + 4 + 5 + stop
    monkeypatch.undo()
    for got, cfg in zip(reports, configs, strict=True):
        _assert_same_report(got, solve(sys_, cfg))
    assert list(solve_each(sys_, [])) == []


def test_solve_projects_the_guess_through_the_engine_global(monkeypatch):
    # the traced benchmark times the projection by patching this name, so a
    # solve must look it up in ivim.engine; ex2 has one equation with a guess
    sys_, _ = get_problem("ex2")
    cfg = SolveConfig(n=33, m_max=3)
    calls = []
    project = ivim.engine.project_samples
    monkeypatch.setattr(
        ivim.engine, "project_samples", lambda *args: calls.append(1) or project(*args)
    )
    got = solve(sys_, cfg)
    assert len(calls) == 1
    monkeypatch.undo()
    _assert_same_report(got, solve(sys_, cfg))


def test_solve_each_raises_the_divergence_of_the_point_it_reaches():
    # u' = u^2 from 2 blows up at t = 1/2; at n = 64 sweep 12 is non-finite,
    # so the points 3, 5 and 8 are yielded and 13 raises solve's error
    sys_ = problem_from_dict({
        "interval": {"a": 0, "T": 1}, "equations": [{"alpha": 0, "rhs": "u1^2"}],
        "initial": [2.0],
    })
    configs = [SolveConfig(n=64, m_max=m) for m in (3, 5, 8, 13, 20)]
    points = solve_each(sys_, configs)
    for cfg in configs[:3]:
        _assert_same_report(next(points), solve(sys_, cfg))
    with pytest.raises(DivergenceError) as independent:
        solve(sys_, configs[3])
    assert str(independent.value).endswith("at iteration 12")
    with pytest.raises(DivergenceError) as shared:
        next(points)
    assert str(shared.value) == str(independent.value)
    with pytest.raises(StopIteration):
        next(points)


def test_solve_each_leaves_the_callers_error_state_between_reports():
    # the warnings are off around each report's work, not across a yield
    sys_, _ = get_problem("ex1")
    with np.errstate(all="raise"):
        points = solve_each(sys_, [SolveConfig(n=9, m_max=m) for m in (1, 2, 3)])
        for _ in points:
            assert np.geterr()["over"] == "raise"
            with pytest.raises(FloatingPointError):
                np.float64(1e308) * 10
