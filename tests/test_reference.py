import math

import numpy as np
import pytest

from ivim import (
    DivergenceError,
    IvpSystem,
    PiecewiseLinear,
    ReferenceSolution,
    SolveReport,
    empirical_order,
    error_metrics,
    exact_builtin_eval,
    get_problem,
    make_grid,
    rk4_reference,
)

from _oracles import rk4_march


def _scalar_system(rhs, a, T, u0):
    return IvpSystem(alphas=(0.0,), a=a, T=T, initial=(u0,), rhs=(rhs,))


def _report_from_values(grid, rows, u_a=None):
    k = len(rows)
    u_a = tuple([0.0] * k) if u_a is None else tuple(u_a)
    final = [
        PiecewiseLinear(grid, np.asarray(row, dtype=float)) for row in rows
    ]
    return SolveReport(
        final=final, u_a=u_a, grid=grid, mode="paper", diffs=[],
        iterations_run=0, wall_time=0.0,
    )


# --- RK4 --------------------------------------------------------------------

def test_rk4_exponential_growth():
    sys_ = _scalar_system(lambda t, U: U[0], 0.0, 1.0, 1.0)
    ref = rk4_reference(sys_, 1e-3)
    assert abs(ref.values[0, -1] - math.e) < 1e-10


def test_rk4_constant_problem():
    sys_ = _scalar_system(lambda t, U: 0.0 * np.asarray(t, dtype=float), 0.0, 1.0, 3.25)
    ref = rk4_reference(sys_, 0.125)
    assert np.all(ref.values == 3.25)


def test_rk4_fourth_order():
    sys_ = _scalar_system(lambda t, U: U[0], 0.0, 1.0, 1.0)
    e_coarse = abs(rk4_reference(sys_, 1.0 / 100).values[0, -1] - math.e)
    e_fine = abs(rk4_reference(sys_, 1.0 / 200).values[0, -1] - math.e)
    order = empirical_order(e_coarse, e_fine)
    assert 3.8 <= order <= 4.2


def test_rk4_step_must_divide_interval():
    sys_ = _scalar_system(lambda t, U: U[0], 0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="divide"):
        rk4_reference(sys_, 0.3)
    with pytest.raises(ValueError, match="positive"):
        rk4_reference(sys_, -0.1)


def test_rk4_divergence_reports_time():
    # u' = u^2, u(0) = 1 blows up at t = 1
    sys_ = _scalar_system(lambda t, U: U[0] ** 2, 0.0, 2.0, 1.0)
    with pytest.raises(DivergenceError, match="t="):
        rk4_reference(sys_, 2.0 / 1000)


def test_rk4_nan_slope_is_an_input_error():
    # log(u - 1) at u = 0 is f outside its domain, not divergence
    sys_ = _scalar_system(lambda t, U: np.log(U[0] - 1.0), 0.0, 1.0, 0.0)
    with pytest.raises(ValueError, match=r"equation 1 is nan at t=0\.0 \(RK4 stage, u=\[0\.0\]\)"):
        rk4_reference(sys_, 0.01)


def test_rk4_nan_in_a_later_stage_names_its_time():
    # sqrt(0.25 - t) turns nan at the midpoint stage of the step from t = 0.25
    sys_ = _scalar_system(lambda t, U: np.sqrt(0.25 - t), 0.0, 1.0, 0.0)
    with pytest.raises(ValueError, match=r"equation 1 is nan at t=0\.2505"):
        rk4_reference(sys_, 0.001)


def _damped_pendulum():
    return IvpSystem(
        alphas=(0.0, 0.25), a=0.0, T=2.0, initial=(0.5, 0.0),
        rhs=(lambda t, U: U[1], lambda t, U: -0.25 * U[1] - 1.0 * np.sin(U[0])),
    )


def _three_equations():
    # a forced rotation coupled to a decaying third component
    return IvpSystem(
        alphas=(0.0, 0.0, 1.0), a=0.5, T=2.0, initial=(1.0, -0.5, 2.0),
        rhs=(
            lambda t, U: U[1] + 0.1 * U[2],
            lambda t, U: -U[0] + np.cos(t),
            lambda t, U: -U[2] + U[0] * U[1],
        ),
    )


@pytest.mark.parametrize("case", ["ex1", "ex3", "pendulum", "three"])
def test_rk4_matches_array_march_bitwise(case):
    if case == "pendulum":
        sys_ = _damped_pendulum()
    elif case == "three":
        sys_ = _three_equations()
    else:
        sys_, _ = get_problem(case)
    nsteps = 1500
    ref = rk4_reference(sys_, (sys_.T - sys_.a) / nsteps)
    assert np.array_equal(ref.values, rk4_march(sys_, nsteps))


def test_rk4_system_trajectory():
    # harmonic oscillator: (cos t, -sin t)
    sys_ = IvpSystem(
        alphas=(0.0, 0.0), a=0.0, T=1.0, initial=(1.0, 0.0),
        rhs=(lambda t, U: U[1], lambda t, U: -U[0]),
    )
    ref = rk4_reference(sys_, 1e-3)
    assert abs(ref.values[0, -1] - math.cos(1.0)) < 1e-10
    assert abs(ref.values[1, -1] + math.sin(1.0)) < 1e-10


# --- built-in closed forms -----------------------------------------------------

def test_exact_builtin_endpoints():
    assert exact_builtin_eval("ex1", 1.0)[0] == pytest.approx(1.6894983915943833, abs=1e-12)
    assert exact_builtin_eval("ex2", 3.0)[0] == pytest.approx(0.03825142812965909, abs=1e-12)
    v = exact_builtin_eval("ex3", 1.5)
    assert v[0] == pytest.approx(0.5025050133959456, abs=1e-12)
    assert v[1] == pytest.approx(0.9292627983322971, abs=1e-12)


def test_exact_builtin_initial_values():
    assert exact_builtin_eval("ex1", 0.0)[0] == pytest.approx(0.0, abs=1e-15)
    assert exact_builtin_eval("ex2", 0.0)[0] == 0.0
    assert np.allclose(exact_builtin_eval("ex3", 0.0), [0.0, 0.0], atol=1e-15)


def test_exact_builtin_validation():
    with pytest.raises(ValueError, match="unknown"):
        exact_builtin_eval("ex9", 0.5)
    with pytest.raises(ValueError, match="outside"):
        exact_builtin_eval("ex1", 1.5)


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
def test_exact_builtin_satisfies_its_ode(name):
    # central difference of the closed form against the compiled rhs
    sys_, _ = get_problem(name)
    a, T = sys_.a, sys_.T
    ts = np.linspace(a + 0.01, T - 0.01, 50)
    d = 1e-6
    for t in ts:
        up = exact_builtin_eval(name, t + d)
        dn = exact_builtin_eval(name, t - d)
        deriv = (up - dn) / (2 * d)
        state = exact_builtin_eval(name, t)
        f = np.array([sys_.rhs[j](t, state) for j in range(sys_.k)], dtype=float)
        assert np.max(np.abs(deriv - f)) <= 1e-6


# --- error metrics ---------------------------------------------------------------

def test_error_metrics_identical():
    grid = make_grid(0, 1, 5)
    vals = np.array([[0.0, 1.0, 2.0, 3.0, 4.0]])
    rep = _report_from_values(grid, vals)
    ref = ReferenceSolution(nodes=grid.nodes, values=vals.copy(), source=("closed_form", "x"))
    m = error_metrics(rep, ref)
    assert m.max_abs == 0.0
    assert np.all(m.per_node_abs == 0.0)
    assert np.all(np.isneginf(m.per_node_log10))


def test_error_metrics_single_offset():
    grid = make_grid(0, 1, 5)
    sol = np.array([[0.0, 1.0, 2.0, 3.0, 4.0]])
    refv = sol.copy()
    refv[0, 2] += 1e-3
    rep = _report_from_values(grid, sol)
    ref = ReferenceSolution(nodes=grid.nodes, values=refv, source=("closed_form", "x"))
    m = error_metrics(rep, ref)
    assert m.max_abs == pytest.approx(1e-3, rel=1e-12)
    assert m.per_node_log10[2] == pytest.approx(-3.0, abs=1e-12)
    # a NaN error stays NaN in log10, as in ivim solve, not the -inf of an
    # exact match
    bad = sol.copy()
    bad[0, 2] = np.nan
    m = error_metrics(_report_from_values(grid, bad), ref)
    assert np.isnan(m.max_abs)
    assert np.isnan(m.per_node_log10[2])
    assert np.array_equal(np.delete(m.per_node_log10, 2), np.full(4, -np.inf))


def test_error_metrics_component_max():
    grid = make_grid(0, 1, 3)
    sol = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    refv = np.array([[0.0, 1e-4, 0.0], [0.0, 1e-2, 0.0]])
    rep = _report_from_values(grid, sol)
    ref = ReferenceSolution(nodes=grid.nodes, values=refv, source=("closed_form", "x"))
    m = error_metrics(rep, ref)
    assert m.per_node_abs[1] == pytest.approx(1e-2, rel=1e-12)


def test_error_metrics_interpolates_denser_reference():
    grid = make_grid(0, 1, 5)
    rep = _report_from_values(grid, [grid.nodes * 2.0 - np.full(5, 0.0)])
    fine = np.linspace(0, 1, 41)
    ref = ReferenceSolution(nodes=fine, values=(2.0 * fine)[None, :], source=("rk4", 0.025))
    m = error_metrics(rep, ref)
    assert m.max_abs <= 1e-14


def test_reference_at_is_the_stacked_interpolation():
    # a coarse RK4 run put onto nodes that fall on and between its own nodes
    system = _damped_pendulum()
    ref = rk4_reference(system, 0.05)
    for nodes in (ref.nodes, np.linspace(system.a, system.T, 97), np.array([0.0125])):
        expected = np.vstack([np.interp(nodes, ref.nodes, row) for row in ref.values])
        got = ref.at(nodes)
        assert got.shape == (2, nodes.size)
        assert np.array_equal(got, expected)
    assert np.array_equal(ref.at(ref.nodes), ref.values)


def test_error_metrics_rejects_sparser_reference():
    grid = make_grid(0, 1, 9)
    rep = _report_from_values(grid, [np.zeros(9)])
    ref = ReferenceSolution(nodes=np.linspace(0, 1, 5), values=np.zeros((1, 5)), source=("rk4", 0.25))
    with pytest.raises(ValueError, match="grid mismatch"):
        error_metrics(rep, ref)


def test_error_metrics_rejects_a_mismatched_reference():
    rep = _report_from_values(make_grid(0, 1, 5), [np.zeros(5)])
    two = ReferenceSolution(np.linspace(0, 1, 5), np.zeros((2, 5)), ("closed_form", "x"))
    with pytest.raises(ValueError, match="component mismatch: reference has 2, solution 1"):
        error_metrics(rep, two)
    short = ReferenceSolution(np.linspace(0, 0.5, 9), np.zeros((1, 9)), ("rk4", 0.0625))
    with pytest.raises(ValueError, match="reference does not cover the solution interval"):
        error_metrics(rep, short)


@pytest.mark.parametrize(
    "nodes, values, message",
    [
        ([0.0, 0.5, 1.0], np.zeros((1, 2)), "values and nodes do not line up"),
        ([0.0, 0.5, 0.5], np.zeros((1, 3)), "nodes must be strictly increasing"),
        ([0.0, 1.0, 0.5], np.zeros((1, 3)), "nodes must be strictly increasing"),
    ],
)
def test_reference_solution_rejects_misaligned_or_unordered_nodes(nodes, values, message):
    with pytest.raises(ValueError, match=message):
        ReferenceSolution(np.array(nodes), values, ("rk4", 0.5))


def test_error_metrics_symmetric_in_values():
    grid = make_grid(0, 1, 4)
    a = np.array([[0.0, 0.5, 1.0, 0.25]])
    b = np.array([[0.0, 0.75, 0.5, 1.0]])
    m1 = error_metrics(_report_from_values(grid, a),
                       ReferenceSolution(grid.nodes, b, ("closed_form", "x")))
    m2 = error_metrics(_report_from_values(grid, b),
                       ReferenceSolution(grid.nodes, a, ("closed_form", "x")))
    assert np.array_equal(m1.per_node_abs, m2.per_node_abs)
    assert m1.max_abs == m2.max_abs


# --- empirical order ---------------------------------------------------------------

def test_empirical_order_values():
    assert empirical_order(1e-2, 5e-3) == pytest.approx(1.0, abs=1e-12)
    assert empirical_order(1e-2, 2.5e-3) == pytest.approx(2.0, abs=1e-12)
    assert empirical_order(1e-2, 1e-2) == 0.0


def test_empirical_order_rejects_nonpositive():
    with pytest.raises(ValueError):
        empirical_order(0.0, 1e-3)
    with pytest.raises(ValueError):
        empirical_order(1e-3, -1e-4)
