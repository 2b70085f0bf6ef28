"""Acceptance gate: one check per criterion, one printed verdict line each.

Every derived threshold in this module was computed before the build with
independent oracles (a naive double-loop transcription of the nodal update,
a node-by-node implicit trapezoid march, closed-form solutions, fine-step
RK4) and frozen here; the measured value a threshold came from is quoted
next to it.  Run with::

    pytest tests/test_acceptance.py -v -s

to see one PASS/FAIL line per criterion.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from ivim import (
    IvpSystem,
    PiecewiseLinear,
    SolveConfig,
    empirical_order,
    eval_solution,
    exact_builtin_eval,
    exp_multiplier,
    get_problem,
    ivim_step,
    make_grid,
    rk4_reference,
    solve,
)
from ivim.expr import ExprError, eval_expr, parse

import _artifacts
from _oracles import composite_trapezoid, naive_step, trapezoid_march

from ivim.cli import main as cli_main


def _verdict(tag: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _solve_history(name, n, m, mode="paper"):
    sys_, _ = get_problem(name)
    rep = solve(sys_, SolveConfig(n=n, m_max=m, mode=mode, keep_history=True))
    return sys_, rep


def _max_error(name, n, m, mode):
    sys_, _ = get_problem(name)
    rep = solve(sys_, SolveConfig(n=n, m_max=m, mode=mode))
    return float(rep.errors.max())


def test_c01_update_rule_fidelity():
    """Engine vs an independent naive double loop: 1e-12 on all builtins."""
    started = time.perf_counter()
    worst = 0.0
    for name in ("ex1", "ex2", "ex3"):
        sys_, rep = _solve_history(name, n=129, m=5)
        grid = rep.grid
        U = np.zeros((sys_.k, grid.n))
        if sys_.guess is not None:
            for j, g in enumerate(sys_.guess):
                if g is not None:
                    U[j] = [0.0] + [g(float(t)) for t in grid.nodes[1:]]
        for snapshot in rep.history:
            U = naive_step(sys_.alphas, sys_.rhs, grid.nodes, grid.h, U, "paper")
            worst = max(worst, float(np.max(np.abs(snapshot - U))))
            U = snapshot  # keep the oracle on the engine's trajectory
    elapsed = time.perf_counter() - started
    _verdict(
        "C1 update-rule fidelity",
        worst <= 1e-12 and elapsed < 1.0,
        f"max deviation {worst:.3e}, elapsed {elapsed:.2f}s",
    )


def test_c02_trivial_exactness():
    """One step on u' = 1: t_i - h/2 in paper mode, t_i in full mode."""
    sys_ = IvpSystem(
        alphas=(0.0,), a=0.0, T=1.0, initial=(0.0,),
        rhs=(lambda t, U: np.ones_like(np.asarray(t, dtype=float)),),
    )
    worst = 0.0
    for n in (2, 17, 100):
        grid = make_grid(0.0, 1.0, n)
        zero = [PiecewiseLinear(grid, np.zeros(n))]
        mults = [exp_multiplier(0.0)]
        paper = ivim_step(zero, sys_, grid, mults, "paper")
        full = ivim_step(zero, sys_, grid, mults, "full_trapezoid")
        t, h = grid.nodes, grid.h
        worst = max(worst, float(np.max(np.abs(paper[0].values[1:] - (t[1:] - h / 2)))))
        worst = max(worst, float(np.max(np.abs(full[0].values[1:] - t[1:]))))
    _verdict("C2 trivial exactness", worst <= 1e-12, f"max deviation {worst:.3e}")


def test_c03_linear_idempotence():
    """w' = w + 1 (alpha = -1, no nonlinear part): iterate 2 == iterate 1
    exactly, and one full-trapezoid step matches a composite-trapezoid
    oracle of the integral of e^(t-s) to 1e-12 at n = 1000."""
    sys_ = IvpSystem(
        alphas=(-1.0,), a=0.0, T=1.0, initial=(0.0,),
        forcing=(lambda t: np.ones_like(np.asarray(t, dtype=float)),),
    )
    rep = solve(sys_, SolveConfig(n=1000, m_max=2, keep_history=True))
    identical = bool(np.array_equal(rep.history[0], rep.history[1]))

    full = solve(sys_, SolveConfig(n=1000, m_max=1, mode="full_trapezoid"))
    t = full.grid.nodes
    worst = 0.0
    for i in range(1, t.size):
        ti = float(t[i])
        oracle = composite_trapezoid(lambda s: math.exp(ti - s), 0.0, ti, i)
        worst = max(worst, abs(full.final[0].values[i] - oracle))
    _verdict(
        "C3 linear idempotence",
        identical and worst <= 1e-12,
        f"iterates identical: {identical}, trapezoid deviation {worst:.3e}",
    )


def test_c04_contraction_in_m():
    """Riccati at n = 4000: errors strictly decreasing for m = 1..8 and
    E(10)/E(1) below the frozen ratio (oracle measured 1.663e-4)."""
    started = time.perf_counter()
    sys_, rep = _solve_history("ex1", n=4000, m=10)
    exact = np.atleast_2d(sys_.exact(rep.grid.nodes))
    E = [float(np.max(np.abs(snap - exact))) for snap in rep.history]
    decreasing = all(E[m - 1] > E[m] for m in range(2, 9))
    ratio = E[9] / E[0]
    elapsed = time.perf_counter() - started
    _verdict(
        "C4 contraction in m",
        decreasing and ratio <= 2.5e-4 and elapsed < 10.0,
        f"E(1)={E[0]:.3e}, E(8)={E[7]:.3e}, E(10)/E(1)={ratio:.3e}, "
        f"elapsed {elapsed:.1f}s",
    )


def _ex2_rhs(t, u):
    """ex2's right-hand side in plain scalar math, for the trapezoid march."""
    return 5.0 / 3.0 * (u * u) ** 0.2 * math.cos(t)


def test_c05_order_in_h():
    """Grid-refinement orders at m = 40 over n = 1000 -> 2000 -> 4000.

    ex1 is first order in ``paper`` mode (f(0, 0) = 1 != 0; measured
    1.001/1.000) and second order in ``full_trapezoid`` mode (2.001/2.001);
    ex3 is second order (2.001/2.001).

    ex2 (u' = 5/3 (u^2)^(1/5) cos t, u(0) = 0) is first order: band
    0.8..1.2, measured 1.003/1.002.  Its rhs is not Lipschitz at u = 0, so
    the second order of the trapezoid rule does not carry over:

    * With alpha = 0 the converged iterate is the implicit trapezoid rule
      u_i = u_{i-1} + h/2 (c_{i-1} + c_i), and c(t_1) = f(0, 0) = 0, so
      ``paper`` and ``full_trapezoid`` coincide.  An independent node-by-node
      march of that rule (``_oracles.trapezoid_march``, positive root at each
      node) matches the engine to <= 1e-12 (measured 3.8e-15, 1.8e-15,
      6.7e-15; the values at m = 40, 80 and 200 agree to the same digits, so
      m = 40 is the converged limit).
    * The first cell solves u_2 = B u_2^(2/5) with B = 5/6 h cos h, so
      u_2 = (5 h cos h / 6)^(5/3): the exact value times (5/6)^(5/3) to
      leading order (relative gap to the formula measured <= 6.7e-16,
      asserted <= 1e-12).
    * With v = u^(3/5) the ODE reads v' = cos t, so the first cell's shift
      of about -h/6 in v is carried unchanged to every later t; the next
      cells near the origin, where the third derivative of u is unbounded,
      add about -0.021 h more (measured v - sin t = -0.1876 h at t = pi/2).
      In u that is an error of about 5/3 * 0.1876 h (sin t)^(2/3): first
      order, largest at t = pi/2, with max|err|/h measured 0.3135, 0.3130,
      0.3127, 0.3126 at n = 1000, 2000, 4000, 8000.

    The ex2 clause fails if its order leaves 0.8..1.2 or the engine leaves
    the trapezoid fixed point.
    """
    started = time.perf_counter()
    ns = (1000, 2000, 4000)

    def orders(errs):
        return [empirical_order(errs[i], errs[i + 1]) for i in range(2)]

    o1p = orders([_max_error("ex1", n, 40, "paper") for n in ns])
    o1f = orders([_max_error("ex1", n, 40, "full_trapezoid") for n in ns])
    o3p = orders([_max_error("ex3", n, 40, "paper") for n in ns])

    sys2, _ = get_problem("ex2")
    e2p, gaps, node2 = [], [], []
    for n in ns:
        rep = solve(sys2, SolveConfig(n=n, m_max=40))
        u, h = rep.final[0].values, rep.grid.h
        e2p.append(float(rep.errors.max()))
        march = trapezoid_march(_ex2_rhs, sys2.a, sys2.T, n)
        gaps.append(float(np.max(np.abs(u - march))))
        node2.append(abs(u[1] / (5.0 * h * math.cos(h) / 6.0) ** (5.0 / 3.0) - 1.0))
    o2p = orders(e2p)
    elapsed = time.perf_counter() - started

    ok_ex1_paper = all(0.8 <= o <= 1.2 for o in o1p)
    ok_ex1_full = all(1.7 <= o <= 2.3 for o in o1f)
    ok_ex3 = all(1.7 <= o <= 2.3 for o in o3p)
    ok_ex2 = (
        all(0.8 <= o <= 1.2 for o in o2p)
        and max(gaps) <= 1e-12
        and max(node2) <= 1e-12
    )
    _verdict(
        "C5 order in h",
        ok_ex1_paper and ok_ex1_full and ok_ex3 and ok_ex2 and elapsed < 60.0,
        f"ex1 paper orders {o1p[0]:.3f}/{o1p[1]:.3f}, "
        f"ex1 full {o1f[0]:.3f}/{o1f[1]:.3f}, ex3 {o3p[0]:.3f}/{o3p[1]:.3f}, "
        f"ex2 orders {o2p[0]:.3f}/{o2p[1]:.3f}, "
        f"ex2 vs trapezoid march {max(gaps):.1e}, "
        f"ex2 node 2 rel gap {max(node2):.1e}, "
        f"elapsed {elapsed:.1f}s",
    )


# frozen from the pre-build sweep of ex1 at m = 10 against the closed form:
# measured 3.157e-2, 1.570e-2, 7.832e-3, 3.911e-3
_SWEEP_THRESHOLDS = {33: 4.8e-2, 65: 2.4e-2, 129: 1.2e-2, 257: 6.0e-3}


def test_c06_error_sweep_protocol(tmp_path):
    """The converge command on ex1 (m=10, n=33..257) must produce strictly
    decreasing max errors below the frozen per-n thresholds."""
    out = tmp_path / "sweep"
    code = cli_main([
        "converge", "--problem", "ex1", "--m", "10",
        "--n-list", "33,65,129,257", "--out-dir", str(out),
    ])
    rows = [
        line.split(",")
        for line in (out / "convergence.csv").read_text().splitlines()[1:]
    ]
    errs = {int(r[0]): float(r[2]) for r in rows}
    seq = [errs[n] for n in (33, 65, 129, 257)]
    decreasing = all(a > b for a, b in zip(seq, seq[1:]))
    within = all(errs[n] <= thr for n, thr in _SWEEP_THRESHOLDS.items())
    _verdict(
        "C6 error sweep protocol",
        code == 0 and len(rows) == 4 and decreasing and within,
        "errors " + ", ".join(f"n={n}: {errs[n]:.3e}" for n in sorted(errs)),
    )


# endpoint error budgets at n = 257, m = 10, frozen from the pre-build
# oracle runs: measured 3.00e-3 (ex1), 9.66e-4 (ex2), 2.13e-5 (ex3)
_ENDPOINT_BUDGETS = {"ex1": 6.0e-3, "ex2": 2.0e-3, "ex3": 5.0e-5}


def test_c07_endpoint_values():
    """Solver values at T match the closed forms within frozen budgets."""
    details = []
    ok = True
    for name, budget in _ENDPOINT_BUDGETS.items():
        sys_, _ = get_problem(name)
        rep = solve(sys_, SolveConfig(n=257, m_max=10))
        got = eval_solution(rep, sys_.T)
        want = exact_builtin_eval(name, sys_.T)
        gap = float(np.max(np.abs(got - want)))
        ok = ok and gap <= budget
        details.append(f"{name}: |{got[0]:.7f} - {want[0]:.7f}| -> {gap:.2e}")
    _verdict("C7 endpoint values", ok, "; ".join(details))


def test_c08_oracle_health():
    """RK4 shows fourth order on u' = u; the built-in closed forms satisfy
    their differential equations under central differences."""
    sys_ = IvpSystem(alphas=(0.0,), a=0.0, T=1.0, initial=(1.0,),
                     rhs=(lambda t, U: U[0],))
    e_coarse = abs(rk4_reference(sys_, 1.0 / 100).values[0, -1] - math.e)
    e_fine = abs(rk4_reference(sys_, 1.0 / 200).values[0, -1] - math.e)
    order = empirical_order(e_coarse, e_fine)

    worst_residual = 0.0
    d = 1e-6
    for name in ("ex1", "ex2", "ex3"):
        system, _ = get_problem(name)
        for t in np.linspace(system.a + 0.01, system.T - 0.01, 50):
            deriv = (exact_builtin_eval(name, t + d) - exact_builtin_eval(name, t - d)) / (2 * d)
            state = exact_builtin_eval(name, t)
            f = np.array([system.rhs[j](t, state) for j in range(system.k)])
            worst_residual = max(worst_residual, float(np.max(np.abs(deriv - f))))
    _verdict(
        "C8 oracle health",
        3.8 <= order <= 4.2 and worst_residual <= 1e-6,
        f"RK4 order {order:.3f}, worst ODE residual {worst_residual:.2e}",
    )


def test_c09_expression_language():
    """Precedence, associativity, root semantics, positioned errors, and a
    1000-case fuzz run with no crashes."""
    checks = []
    checks.append(eval_expr(parse("u^2^3"), {"u": 2.0}) == 256.0)
    checks.append(eval_expr(parse("-u^2"), {"u": 3.0}) == -9.0)
    checks.append(eval_expr(parse("nthroot(-8, 3)"), {}) == -2.0)
    checks.append(
        eval_expr(parse("5/3*nthroot(u^2,5)*cos(t)"), {"t": 0.0, "u": 1.0})
        == pytest.approx(5.0 / 3.0, rel=1e-15)
    )
    try:
        eval_expr(parse("nthroot(u, 2)"), {"u": -1.0})
        checks.append(False)
    except ExprError:
        checks.append(True)
    try:
        parse("2..5")
        checks.append(False)
    except ExprError as exc:
        checks.append(exc.position == 2)
    try:
        parse("(1+")
        checks.append(False)
    except ExprError as exc:
        checks.append("unbalanced" in str(exc))
    try:
        eval_expr(parse("x + 1"), {})
        checks.append(False)
    except ExprError as exc:
        checks.append("'x'" in str(exc))

    rng = random.Random(1312)
    alphabet = "0123456789.+-*/^()ut, abcdefgnrsoqxz_$"
    crashes = 0
    for _ in range(1000):
        src = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        try:
            parse(src)
        except ExprError:
            pass
        except Exception:
            crashes += 1
    checks.append(crashes == 0)
    _verdict(
        "C9 expression language",
        all(checks),
        f"{sum(checks)}/{len(checks)} checks, {crashes} fuzz crashes",
    )


def _mask_wall_time(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if "wall_time" not in line
    )


def test_c10_cli_determinism(tmp_path):
    """Every command, run twice with fixed arguments, produces byte-identical
    CSV/JSON artifacts.  The wall_time fields of summary.json are
    informational and excluded from the comparison."""
    commands = {
        "solve": ["solve", "--problem", "ex1", "--n", "41", "--m", "6"],
        "converge": ["converge", "--problem", "ex3", "--m", "4",
                     "--n-list", "17,33,65"],
        "compare": ["compare", "--problem", "ex1", "--n", "21", "--m", "5",
                    "--rk4-step", "0.01"],
    }
    artifacts = {
        "solve": ["solution.csv", "summary.json"],
        "converge": ["convergence.csv", "summary.json"],
        "compare": ["compare.csv", "summary.json"],
    }
    ok = True
    details = []
    for label, argv in commands.items():
        d1 = tmp_path / f"{label}-1"
        d2 = tmp_path / f"{label}-2"
        assert cli_main(argv + ["--out-dir", str(d1)]) == 0
        assert cli_main(argv + ["--out-dir", str(d2)]) == 0
        for fname in artifacts[label]:
            b1 = (d1 / fname).read_text(encoding="utf-8")
            b2 = (d2 / fname).read_text(encoding="utf-8")
            if fname.endswith(".json"):
                same = _mask_wall_time(b1) == _mask_wall_time(b2)
            else:
                same = b1 == b2
            ok = ok and same
            if not same:
                details.append(f"{label}/{fname} differs")
    p1 = tmp_path / "e1.json"
    p2 = tmp_path / "e2.json"
    assert cli_main(["export", "--problem", "ex2", "--out", str(p1)]) == 0
    assert cli_main(["export", "--problem", "ex2", "--out", str(p2)]) == 0
    ok = ok and p1.read_bytes() == p2.read_bytes()
    _verdict("C10 CLI determinism", ok, "; ".join(details) or "all artifacts identical")


def test_c10_artifacts_match_recorded_digests(tmp_path):
    """The artifacts of solve, converge and compare on every built-in and on
    ``rotation.json`` (``u(a) != 0``), both modes, hash to the digests
    recorded in ``c10_digests.json`` (wall_time lines masked): the same bytes
    before and after a refactor."""
    table = json.loads(_artifacts.TABLE.read_text(encoding="utf-8"))
    here = _artifacts.environment()
    recorded = {key: table[key] for key in here}
    if here != recorded:
        pytest.skip(f"digests were recorded with {recorded}, this host has {here}")
    got = _artifacts.artifact_digests(tmp_path)
    differ = sorted(key for key in table["digests"] if got.get(key) != table["digests"][key])
    ok = not differ and got.keys() == table["digests"].keys()
    _verdict("C10 recorded digests", ok,
             f"{len(differ)} differ: {', '.join(differ[:4])}" if differ
             else f"{len(got)} artifacts match")
