import dataclasses
import math
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest

from ivim import (
    DivergenceError,
    IvpSystem,
    ReferenceSolution,
    SolveReport,
    builtin_problem_dict,
    empirical_order,
    error_metrics,
    exact_builtin_eval,
    get_problem,
    make_grid,
    problem_from_dict,
    rk4_reference,
)
from ivim.reference import _inline_march, _rk4_loop

from _oracles import plain_callables, rk4_march


def _scalar_system(rhs, a, T, u0):
    return IvpSystem(alphas=(0.0,), a=a, T=T, initial=(u0,), rhs=(rhs,))


def _report_from_values(grid, rows, u_a=None):
    k = len(rows)
    u_a = tuple([0.0] * k) if u_a is None else tuple(u_a)
    return SolveReport(
        iterate=np.array(rows, dtype=float, ndmin=2), u_a=u_a, grid=grid, diffs=[],
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


def test_rk4_of_a_system_given_by_forcing_alone():
    # no rhs: RK4 calls the one IvpSystem synthesizes from the split
    # f = -alpha*u + g(t), which problem files never reach
    ones = IvpSystem(
        alphas=(-1.0,), a=0.0, T=1.0, initial=(0.0,),
        forcing=(lambda t: np.ones_like(np.asarray(t, dtype=float)),),
    )
    ref = rk4_reference(ones, 1e-3)
    assert np.max(np.abs(ref.values[0] - np.expm1(ref.nodes))) <= 1e-12
    decay = IvpSystem(alphas=(2.0,), a=0.5, T=1.5, initial=(1.5,), forcing=(None,))
    ref = rk4_reference(decay, 1e-3)
    assert np.max(np.abs(ref.values[0] - 1.5 * np.exp(-2.0 * (ref.nodes - 0.5)))) <= 1e-12


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


def test_rk4_rejects_a_step_whose_nodes_collapse():
    # doubles near 1e16 are 2 apart, so 0.5 steps repeat nodes; the message
    # names the step and the interval, and no step is marched
    calls = []
    sys_ = _scalar_system(lambda t, U: calls.append(t) or -U[0], 1e16, 1e16 + 400, 1.0)
    with pytest.raises(ValueError, match=re.escape(
        "RK4 step 0.5 puts 801 nodes on [1e+16, 1.00000000000004e+16], "
        "closer than float64 can separate"
    )):
        rk4_reference(sys_, 0.5)
    assert calls == []
    assert rk4_reference(sys_, 2.0).nodes.size == 201


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


def _coupled(rhs2, u0):
    return IvpSystem(alphas=(0.0, 0.0), a=0.5, T=1.5, initial=u0,
                     rhs=(lambda t, U: U[1], rhs2))


def test_rk4_nan_of_a_later_equation_after_the_first_step_names_its_stage():
    # sqrt(0.75 - t) turns nan at the midpoint stage of step 250, from t = 0.75
    sys_ = _coupled(lambda t, U: np.sqrt(0.75 - t) + U[0], (0.1, 0.2))
    # the state that step starts from: the trajectory's end on [0.5, 0.75]
    y = list(rk4_march(dataclasses.replace(sys_, T=0.75), 250)[:, -1])
    state = [float(yj + 0.0005 * f(0.75, y)) for yj, f in zip(y, sys_.rhs)]
    with pytest.raises(ValueError, match=re.escape(
            f"equation 2 is nan at t=0.7505 (RK4 stage, u={state}): outside its domain")):
        rk4_reference(sys_, 0.001)


def test_rk4_divergence_after_the_first_step_names_the_step_end():
    # u2' = u2^2 from u2 = 2 blows up at t = 1.0, hundreds of steps in
    sys_ = _coupled(lambda t, U: U[1] ** 2, (0.1, 2.0))
    with pytest.raises(ArithmeticError) as march:
        rk4_march(sys_, 1000)
    t = float(str(march.value).rpartition("t=")[2])
    assert 0.9 < t < 1.1
    with pytest.raises(DivergenceError, match=f"^{re.escape(str(march.value))}$"):
        rk4_reference(sys_, 0.001)


@pytest.mark.parametrize(
    "rhs2, u0, error, message",
    [
        (lambda t, U: np.log(U[0] - 1.0), (0.0, 1.0), ValueError,
         "right-hand side of equation 2 is nan at t=0.5 (RK4 stage, u=[0.0, 1.0]): outside its domain"),
        (lambda t, U: U[1] ** 2, (0.1, 1e200), DivergenceError,
         "RK4 state became non-finite at t=0.501"),
    ],
    ids=["nan", "divergence"],
)
def test_rk4_failure_in_the_first_step_of_a_system(rhs2, u0, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        rk4_reference(_coupled(rhs2, u0), 0.001)


def _compiled(rhs2, u0):
    return problem_from_dict({
        "interval": {"a": 0.5, "T": 1.5},
        "equations": [{"alpha": 0.0, "rhs": "u2"}, {"alpha": 0.0, "rhs": rhs2}],
        "initial": list(u0),
    })


@pytest.mark.parametrize(
    "rhs2, u0, error, message",
    [
        ("log(u1 - 1)", (0.0, 1.0), ValueError,
         "right-hand side of equation 2 is nan at t=0.5 (RK4 stage, u=[0.0, 1.0]): outside its domain"),
        ("sqrt(0.75 - t) + u1", (0.1, 0.2), ValueError, "right-hand side of equation 2 is nan at t=0.7505"),
        ("u2^2", (0.1, 1e200), DivergenceError, "RK4 state became non-finite at t=0.501"),
        ("u2^2", (0.1, 2.0), DivergenceError, "RK4 state became non-finite at t=1.0"),
    ],
    ids=["nan", "later_nan", "divergence", "later_divergence"],
)
def test_rk4_failure_of_a_compiled_system_reads_the_same_on_both_marches(rhs2, u0, error, message):
    sys_ = _compiled(rhs2, u0)
    texts = []
    for each in (sys_, plain_callables(sys_)):
        with pytest.raises(error, match=f"^{re.escape(message)}") as info:
            rk4_reference(each, 0.001)
        texts.append(str(info.value))
    assert texts[0] == texts[1]


# the benchmark's seed-1 stiff and pendulum documents, as bench/inputs.py writes them
_BENCH_DOCUMENTS = {
    "stiff": {
        "interval": {"a": 0.0, "T": 1.0},
        "equations": [{"alpha": 63.43718811426835, "rhs": (
            "-63.437188114268352*u - 0.25642996114698069*u^2"
            " + 6.5504542835763377*cos(7.3224559549051023*t)"
            " + 63.437188114268352*(1.4260877069628752 + 0.89457066371131633*sin(7.3224559549051023*t))"
            " + 0.25642996114698069*(1.4260877069628752 + 0.89457066371131633*sin(7.3224559549051023*t))^2"
        )}],
        "initial": [1.4260877069628752],
    },
    "pendulum": {
        "interval": {"a": 0.0, "T": 2.0},
        "equations": [
            {"alpha": 0.0, "rhs": "u2"},
            {"alpha": 0.2773770494479245, "rhs": "-0.27737704944792452*u2 - 0.99349186601132811*sin(u1)"},
        ],
        "initial": [0.5044394301617654, 0.0],
    },
}


@pytest.mark.parametrize("source", ["ex1", "ex2", "ex3", "rotation", *_BENCH_DOCUMENTS])
def test_rk4_marches_agree_bit_for_bit_on_the_checked_in_problems(source):
    if source in _BENCH_DOCUMENTS:
        sys_ = problem_from_dict(_BENCH_DOCUMENTS[source])
    else:
        sys_, _ = get_problem(Path(__file__).with_name("rotation.json") if source == "rotation" else source)
    for nsteps in (128, 1000):
        want = rk4_march(sys_, nsteps)
        for each in (sys_, plain_callables(sys_)):
            got = rk4_reference(each, (sys_.T - sys_.a) / nsteps).values
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_rk4_is_fourth_order_against_mpmath_on_a_damped_pendulum():
    # u1' = u2, u2' = -0.25 u2 - 4 sin u1, u(0) = (1, 0): no closed form, so
    # the reference is mpmath's Taylor-series integrator at 20 digits
    sys_ = problem_from_dict({
        "interval": {"a": 0.0, "T": 2.0},
        "equations": [{"alpha": 0.0, "rhs": "u2"}, {"alpha": 0.25, "rhs": "-0.25*u2 - 4*sin(u1)"}],
        "initial": [1.0, 0.0],
    })
    nodes = (0.5, 1.0, 1.5, 2.0)
    with mpmath.workdps(20):
        exact = mpmath.odefun(lambda t, u: [u[1], -u[1] / 4 - 4 * mpmath.sin(u[0])], 0, [1, 0])
        want = np.array([[float(x) for x in exact(t)] for t in nodes]).T
    errors = []
    for nsteps in (64, 128, 256, 512):
        at = [round(t / 2.0 * nsteps) for t in nodes]
        errors.append(np.max(np.abs(rk4_reference(sys_, 2.0 / nsteps).values[:, at] - want)))
    # measured: orders 3.998, 3.9992, 3.9997 and 1.023e-10 at h = 1/256
    orders = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
    assert all(3.99 < p < 4.01 for p in orders), orders
    assert 1.0e-10 < errors[-1] < 1.05e-10


def test_rk4_compiles_one_loop_per_equation_count():
    _rk4_loop.cache_clear()
    one = _scalar_system(lambda t, U: U[0], 0.0, 1.0, 1.0)
    rk4_reference(one, 0.5)
    rk4_reference(one, 0.25)
    assert (_rk4_loop.cache_info().hits, _rk4_loop.cache_info().misses) == (1, 1)
    rk4_reference(_damped_pendulum(), 0.5)
    assert _rk4_loop.cache_info().misses == 2
    assert _rk4_loop(1) is not _rk4_loop(2)
    assert _rk4_loop(2).__code__.co_filename == "<rk4 loop of 2 equations>"


def test_rk4_hands_a_plain_rhs_float64_items():
    # a callable without an inline text sees the state as np.float64, so
    # U[0] ** 2 overflows to inf instead of raising OverflowError
    seen = set()

    def rhs2(t, U):
        seen.update(map(type, U))
        return -0.25 * U[1] - np.sin(U[0])

    sys_ = IvpSystem(alphas=(0.0, 0.25), a=0.0, T=2.0, initial=(0.5, 0.0),
                     rhs=(lambda t, U: U[1], rhs2))
    assert not hasattr(rhs2, "inline")
    got = rk4_reference(sys_, 2.0 / 400).values
    assert seen == {np.float64}
    assert np.array_equal(got.view(np.int64), rk4_march(sys_, 400).view(np.int64))


def _spy(f, seen):
    """``f`` with its inline text, recording the types of the state it is called on."""

    def rhs(t, U):
        seen.update(map(type, U))
        return f(t, U)

    rhs.inline = f.inline
    return rhs


def test_rk4_inlines_the_right_hand_sides_only_when_all_have_a_text():
    sys_, _ = get_problem("ex3")
    want = rk4_march(sys_, 300)
    seen = set()
    spied = dataclasses.replace(sys_, rhs=tuple(_spy(f, seen) for f in sys_.rhs))
    got = rk4_reference(spied, (sys_.T - sys_.a) / 300).values
    assert not seen  # the march evaluates the texts and calls no rhs
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # one callable of its own: every equation is called on np.float64
    f1, f2 = sys_.rhs
    mixed = dataclasses.replace(sys_, rhs=(_spy(f1, seen), lambda t, U: f2(t, U)))
    got = rk4_reference(mixed, (sys_.T - sys_.a) / 300).values
    assert seen == {np.float64}
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_rk4_keeps_one_inlined_march_per_system():
    _inline_march.cache_clear()
    sys_, _ = get_problem("ex3")
    rk4_reference(sys_, 0.5)
    rk4_reference(dataclasses.replace(sys_, exact=None), 0.25)
    assert (_inline_march.cache_info().hits, _inline_march.cache_info().misses) == (1, 1)
    # the same document compiled again shares the march's code, not its constants
    again = problem_from_dict(builtin_problem_dict("ex3"))
    assert _inline_march(again.rhs).__code__ is _inline_march(sys_.rhs).__code__
    assert _inline_march.cache_info().misses == 2


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


def test_exact_builtin_rejects_nan():
    with pytest.raises(ValueError, match=re.escape("t=nan outside [0.0, 3.0] for ex2")):
        exact_builtin_eval("ex2", float("nan"))


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


def test_error_metrics_single_offset():
    grid = make_grid(0, 1, 5)
    sol = np.array([[0.0, 1.0, 2.0, 3.0, 4.0]])
    refv = sol.copy()
    refv[0, 2] += 1e-3
    rep = _report_from_values(grid, sol)
    ref = ReferenceSolution(nodes=grid.nodes, values=refv, source=("closed_form", "x"))
    m = error_metrics(rep, ref)
    assert m.max_abs == pytest.approx(1e-3, rel=1e-12)
    # a NaN error stays NaN, and the exact nodes around it stay 0
    bad = sol.copy()
    bad[0, 2] = np.nan
    m = error_metrics(_report_from_values(grid, bad), ref)
    assert np.isnan(m.max_abs)
    assert np.isnan(m.per_node_abs[2])
    assert np.array_equal(np.delete(m.per_node_abs, 2), np.zeros(4))


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
        # finite nodes whose step passes float64
        ([1.5e308, -1.5e308], np.zeros((1, 2)), "nodes must be strictly increasing"),
        # the finiteness check runs first, so these name the node rather than
        # fail the order check
        ([0.0, np.nan, 1.0], np.zeros((1, 3)), "^reference nodes must be finite: node 2 is nan$"),
        ([np.nan] * 3, np.zeros((1, 3)), "^reference nodes must be finite: node 1 is nan$"),
        ([0.0, 0.5, np.inf], np.zeros((1, 3)), "^reference nodes must be finite: node 3 is inf$"),
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
