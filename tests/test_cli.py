import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ivim
import ivim.cli
from ivim import (
    DivergenceError,
    ReferenceSolution,
    SolveConfig,
    builtin_problem_dict,
    codegen,
    error_metrics,
    expr,
    get_problem,
    problem_from_dict,
    rk4_reference,
    solve,
)
from ivim.cli import build_parser, main
from ivim.csvtext import _BLOCK_ROWS

from _artifacts import masked_digest


def _read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def _run(*argv):
    return main(list(argv))


# The CLI behind a cap on its own address space (argv[1], bytes), set
# before numpy is imported.
_CAPPED_CLI = """\
import resource, sys
cap = int(sys.argv.pop(1))
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard))
from ivim.cli import main
sys.exit(main())
"""


def _run_process(*argv, address_space=None):
    """Run the CLI in a fresh interpreter; returns (exit code, stderr).

    ``address_space`` (bytes) caps the child's virtual memory through
    ``RLIMIT_AS``, so that no large allocation can succeed.
    """
    env = dict(os.environ)
    package_root = str(Path(ivim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "ivim.cli", *argv]
    if address_space is not None:
        env["OPENBLAS_NUM_THREADS"] = "1"  # per-thread buffers count against the cap
        cmd = [sys.executable, "-c", _CAPPED_CLI, str(address_space), *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stderr


def _write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# damped pendulum: no closed form, so converge scores it against RK4
_PENDULUM = {
    "name": "pendulum",
    "interval": {"a": 0.0, "T": 2.0},
    "equations": [
        {"alpha": 0.0, "rhs": "u2"},
        {"alpha": 0.25, "rhs": "-0.25*u2 - sin(u1)"},
    ],
    "initial": [0.5, 0.0],
}


def test_solve_builtin_ex1(tmp_path, capsys):
    out = tmp_path / "run"
    code = _run("solve", "--problem", "ex1", "--n", "41", "--m", "6",
                "--mode", "paper", "--out-dir", str(out))
    assert code == 0
    lines = _read_lines(out / "solution.csv")
    assert len(lines) == 42  # header + one row per node
    header = lines[0].split(",")
    assert header == ["t", "u1", "exact1", "abs_err1", "log10_err"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "solve"
    assert summary["n"] == 41 and summary["m"] == 6
    assert summary["iterations_run"] == 6
    assert summary["max_abs_error"] > 0.0
    assert "wall_time_s" in summary


def test_solve_system_has_both_components(tmp_path):
    out = tmp_path / "run"
    code = _run("solve", "--problem", "ex3", "--n", "20", "--m", "5",
                "--out-dir", str(out))
    assert code == 0
    header = _read_lines(out / "solution.csv")[0].split(",")
    assert "u1" in header and "u2" in header
    assert "exact1" in header and "exact2" in header
    assert len(_read_lines(out / "solution.csv")) == 21


def test_solve_values_roundtrip_17_digits(tmp_path):
    out = tmp_path / "run"
    assert _run("solve", "--problem", "ex1", "--n", "5", "--m", "2",
                "--out-dir", str(out)) == 0
    rows = [line.split(",") for line in _read_lines(out / "solution.csv")[1:]]
    # t column must reparse to the exact grid nodes
    ts = np.array([float(r[0]) for r in rows])
    assert np.array_equal(ts, np.linspace(0, 1, 5))


def test_solve_without_exact_omits_error_columns(tmp_path):
    doc = {
        "name": "plain",
        "interval": {"a": 0.0, "T": 1.0},
        "equations": [{"alpha": 0.0, "rhs": "cos(t)"}],
        "initial": [0.0],
    }
    path = tmp_path / "plain.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "run"
    assert _run("solve", "--problem", str(path), "--n", "9", "--m", "2",
                "--out-dir", str(out)) == 0
    header = _read_lines(out / "solution.csv")[0].split(",")
    assert header == ["t", "u1"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["max_abs_error"] is None


def test_solve_zero_error_serializes_minus_inf(tmp_path):
    # at t = a the value and the closed form coincide exactly for ex3
    out = tmp_path / "run"
    assert _run("solve", "--problem", "ex3", "--n", "10", "--m", "2",
                "--out-dir", str(out)) == 0
    first_row = _read_lines(out / "solution.csv")[1].split(",")
    assert first_row[-1] == "-inf"


def test_solution_csv_matches_per_cell_spelling(tmp_path):
    # several write blocks, the last one partial; cells spelled one at a time
    n = 2 * _BLOCK_ROWS + 3
    out = tmp_path / "run"
    assert _run("solve", "--problem", "ex1", "--n", str(n), "--m", "3",
                "--out-dir", str(out)) == 0
    system, _ = get_problem("ex1")
    report = solve(system, SolveConfig(n=n, m_max=3))
    nodes = report.grid.nodes
    expected = ["t,u1,exact1,abs_err1,log10_err\n"]
    for t, u, x in zip(nodes, report.nodal_values()[0], system.exact(nodes)[0]):
        err = abs(u - x)
        log10 = f"{np.log10(err):.17g}" if err > 0.0 else "-inf"
        expected.append(f"{t:.17g},{u:.17g},{x:.17g},{err:.17g},{log10}\n")
    assert expected[1].endswith(",-inf\n")  # u(0) equals the closed form exactly
    # lists of lines: pytest reports the first differing row instead of diffing the text
    assert (out / "solution.csv").read_text(encoding="utf-8").splitlines(True) == expected


def test_compare_csv_matches_per_cell_spelling(tmp_path):
    n = _BLOCK_ROWS + 5
    out = tmp_path / "run"
    assert _run("compare", "--problem", "ex3", "--n", str(n), "--m", "4",
                "--rk4-step", "0.001", "--out-dir", str(out)) == 0
    system, _ = get_problem("ex3")
    report = solve(system, SolveConfig(n=n, m_max=4))
    nodes = report.grid.nodes
    ivim_vals = report.nodal_values()
    ref = rk4_reference(system, 0.001)
    rk_vals = np.vstack([np.interp(nodes, ref.nodes, ref.values[j]) for j in range(2)])
    gaps = np.abs(ivim_vals - rk_vals)
    expected = ["t,ivim1,ivim2,rk4_1,rk4_2,gap1,gap2\n"]
    for row in np.vstack([nodes, ivim_vals, rk_vals, gaps]).T:
        expected.append(",".join(f"{x:.17g}" for x in row) + "\n")
    assert (out / "compare.csv").read_text(encoding="utf-8").splitlines(True) == expected


def test_compare_with_rk4_coarser_than_the_grid(tmp_path):
    # 9 RK4 nodes for 33 grid nodes: too sparse for error_metrics, which
    # wants a reference at least as dense as the grid, but compare
    # interpolates it onto the nodes
    out = tmp_path / "run"
    assert _run("compare", "--problem", "ex1", "--n", "33", "--m", "3",
                "--rk4-step", "0.125", "--out-dir", str(out)) == 0
    system, _ = get_problem("ex1")
    report = solve(system, SolveConfig(n=33, m_max=3))
    ref = rk4_reference(system, 0.125)
    assert ref.nodes.size == 9
    rows = [line.split(",") for line in _read_lines(out / "compare.csv")[1:]]
    ivim_vals, rk_vals, gaps = (np.array([float(r[c]) for r in rows]) for c in (1, 2, 3))
    rk4 = np.interp(report.grid.nodes, ref.nodes, ref.values[0])
    assert [r[2] for r in rows] == [f"{x:.17g}" for x in rk4]
    assert np.array_equal(gaps, np.abs(ivim_vals - rk_vals))
    summary = json.loads((out / "summary.json").read_text())
    assert summary["max_gap"] == gaps.max() > 0.0


def _traced_peak(run):
    """What ``run()`` returns, and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _csv_phase_bytes(tmp_path, monkeypatch, argv):
    """Bytes that the command ``argv`` allocates at its peak after ``solve``
    returns, beyond what it held then."""
    held = []

    def traced_solve(*args):
        report = solve(*args)
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return report

    monkeypatch.setattr(ivim.cli, "solve", traced_solve)
    code, peak = _traced_peak(lambda: _run(*argv, "--out-dir", str(tmp_path)))
    assert code == 0
    return peak - held[0]


@pytest.mark.parametrize("command, bound", [
    (("solve",), 0.25),
    # a fixed RK4 run, so only the grid grows: its interpolation onto the
    # nodes is the one (k, n) array held beyond the report
    (("compare", "--rk4-step", str(1.5 / 4096)), 1.0),
], ids=["solve", "compare"])
def test_solution_csv_is_written_in_the_memory_of_one_block(tmp_path, monkeypatch, command, bound):
    # the writer fills one block of rows at a time from the report, so what
    # it needs does not grow with n; stacking whole-grid columns took 5.0 MiB
    # at n = 16,385 and 6.9 MiB at 65,537 for solve, and 2.25 MiB more at the
    # larger n for compare
    argv = (*command, "--problem", "ex3", "--m", "2")
    code = _run(*argv, "--n", "9", "--out-dir", str(tmp_path))  # spelling tables, compiled code
    assert code == 0
    small, large = (_csv_phase_bytes(tmp_path, monkeypatch, (*argv, "--n", str(n)))
                    for n in (16385, 65537))
    assert abs(large - small) <= bound * 2**20


def test_converge_peaks_no_higher_than_its_largest_point(tmp_path):
    # each point's report goes before the next point is solved; holding the
    # previous one raised the peak by 0.77 MiB here
    system, _ = get_problem("ex3")
    argv = ("converge", "--problem", "ex3", "--m", "2", "--out-dir", str(tmp_path))
    assert _run(*argv, "--n-list", "9,17") == 0  # compiled code, outside the trace
    _, alone = _traced_peak(lambda: solve(system, SolveConfig(n=32769, m_max=2)))
    code, swept = _traced_peak(lambda: _run(*argv, "--n-list", "4097,8193,16385,32769"))
    assert code == 0
    assert swept <= alone + 0.25 * 2**20


def test_malformed_problem_exits_1_without_outputs(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    out = tmp_path / "run"
    code = _run("solve", "--problem", str(bad), "--n", "10", "--m", "2",
                "--out-dir", str(out))
    assert code == 1
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def test_invalid_config_exits_1(tmp_path, capsys):
    code = _run("solve", "--problem", "ex1", "--n", "1", "--m", "2",
                "--out-dir", str(tmp_path / "x"))
    assert code == 1
    capsys.readouterr()


def test_divergence_exits_2(tmp_path, capsys):
    doc = {
        "name": "blowup",
        "interval": {"a": 0.0, "T": 1.0},
        "equations": [{"alpha": 0.0, "rhs": "u^2"}],
        "initial": [2.0],
    }
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = _run("solve", "--problem", str(path), "--n", "64", "--m", "60",
                "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert capsys.readouterr().err == (
        "ivim: divergence: non-finite update in equation 1 at node 60 "
        "(t=0.9365079365079365) at iteration 12\n"
    )


def test_growth_past_limit_exits_1(tmp_path, capsys):
    doc = {
        "name": "steep",
        "interval": {"a": 0.0, "T": 1.0},
        "equations": [{"alpha": -800.0, "rhs": "800*u + 1"}],
        "initial": [0.0],
    }
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = _run("solve", "--problem", str(path), "--n", "64", "--m", "2",
                "--out-dir", str(tmp_path / "out"))
    assert code == 1
    err = capsys.readouterr().err
    assert err == (
        "ivim: error: equation 1: -alpha*(T-a) = 800.0 exceeds 700.0; "
        "the exponential weights overflow\n"
    )
    assert not (tmp_path / "out").exists()


def test_solve_nonfinite_exact_exits_1_without_outputs(tmp_path, capsys):
    # log(t - 2) is NaN on [0, 1]; solve and converge both check the closed
    # form that the solve evaluated
    doc = {
        "name": "badexact",
        "interval": {"a": 0.0, "T": 1.0},
        "equations": [{"alpha": 0.0, "rhs": "1"}],
        "initial": [0.0],
        "exact": ["log(t-2)"],
    }
    path = tmp_path / "badexact.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["solve", "--n", "33", "--m", "2"], ["converge", "--n-list", "9,17", "--m", "2"]):
        out = tmp_path / argv[0]
        assert _run(*argv, "--problem", str(path), "--out-dir", str(out)) == 1
        assert capsys.readouterr().err == (
            "ivim: error: reference values must be finite: closed_form component 1 "
            "is nan at t=0.0\n"
        )
        assert not out.exists()


def test_collapsed_nodes_exit_1_without_outputs(tmp_path, capsys):
    # doubles near 1e16 are 2 apart, so 9 nodes on [1e16, 1e16 + 4] repeat;
    # make_grid rejects them, with or without a closed form to score against
    doc = {
        "name": "collapsed",
        "interval": {"a": 1e16, "T": 1e16 + 4},
        "equations": [{"alpha": 0.0, "rhs": "0"}],
        "initial": [1.0],
        "exact": ["1"],
    }
    no_exact = {key: value for key, value in doc.items() if key != "exact"}
    for name, problem in [("exact", doc), ("no_exact", no_exact)]:
        path = _write_problem(tmp_path, problem, f"{name}.json")
        for argv in (
            ["solve", "--n", "9", "--m", "1"],
            ["converge", "--n-list", "3,9", "--m", "1"],
            ["compare", "--n", "9", "--m", "1", "--rk4-step", "0.5"],
        ):
            out = tmp_path / f"{name}_{argv[0]}"
            assert _run(*argv, "--problem", str(path), "--out-dir", str(out)) == 1
            assert capsys.readouterr().err == "ivim: error: nodes must be strictly increasing\n"
            assert not out.exists()


def test_collapsed_grid_is_rejected_before_any_rk4_run(tmp_path, monkeypatch, capsys):
    # n = 3 on [1e16, 1e16 + 4] is a valid grid and n = 10001 is not; every
    # grid is built before the first RK4 candidate, so none runs
    steps = _counting_rk4(monkeypatch)
    doc = {
        "interval": {"a": 1e16, "T": 1e16 + 4},
        "equations": [{"alpha": 0.0, "rhs": "-u1"}],
        "initial": [1.0],
    }
    path = _write_problem(tmp_path, doc)
    out = tmp_path / "out"
    assert _run("converge", "--problem", str(path), "--n-list", "3,10001", "--m", "1",
                "--out-dir", str(out)) == 1
    assert capsys.readouterr().err == "ivim: error: nodes must be strictly increasing\n"
    assert steps == []
    assert not out.exists()


def test_rk4_reference_names_its_own_collapsed_nodes(tmp_path, capsys):
    # the grids of 5 and 9 nodes on [1e16, 1e16 + 400] are valid, but the
    # fixed 800-step run puts nodes 0.5 apart where doubles are 2 apart
    doc = {
        "interval": {"a": 1e16, "T": 1e16 + 400},
        "equations": [{"alpha": 0.0, "rhs": "-u1"}],
        "initial": [1.0],
    }
    path = _write_problem(tmp_path, doc)
    out = tmp_path / "out"
    assert _run("converge", "--problem", str(path), "--n-list", "5,9", "--m", "1",
                "--out-dir", str(out)) == 1
    assert capsys.readouterr().err == (
        "ivim: error: RK4 step 0.5 puts 801 nodes on [1e+16, 1.00000000000004e+16], "
        "closer than float64 can separate\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("problem", ["ex1", "pendulum"])
def test_converge_m_list_runs_the_sweeps_of_its_largest_m(tmp_path, monkeypatch, problem):
    # the points of an m-list are prefixes of one run: 16 sweeps, not 1 + 4 + 16
    calls = []
    sweep = ivim.engine._sweep
    monkeypatch.setattr(ivim.engine, "_sweep", lambda *args: calls.append(1) or sweep(*args))
    source = "ex1" if problem == "ex1" else str(_write_problem(tmp_path, _PENDULUM))
    out = tmp_path / "out"
    assert _run("converge", "--problem", source, "--n", "33", "--m-list", "1,4,16",
                "--out-dir", str(out)) == 0
    assert len(calls) == 16
    system, _ = get_problem(source)
    max_abs = json.loads((out / "summary.json").read_text())["max_abs"]
    if problem == "ex1":
        assert max_abs == [float(np.max(solve(system, SolveConfig(n=33, m_max=m)).errors))
                           for m in (1, 4, 16)]


@pytest.mark.parametrize("mode, node, t", [
    ("paper", 60, "0.9365079365079365"),
    ("full_trapezoid", 59, "0.9206349206349206"),
])
def test_converge_m_list_diverges_at_the_sweep_that_blows_up(tmp_path, capsys, mode, node, t):
    # u' = u^2 from 2 blows up at t = 1/2; its closed form is finite on the
    # 64 nodes.  Points 3, 5 and 8 are scored, then sweep 12 of point 13 is
    # non-finite, with the message of its own solve
    doc = {
        "interval": {"a": 0, "T": 1},
        "equations": [{"alpha": 0, "rhs": "u1^2"}],
        "initial": [2.0],
        "exact": ["2/(1-2*t)"],
    }
    path = _write_problem(tmp_path, doc)
    out = tmp_path / "out"
    assert _run("converge", "--problem", str(path), "--mode", mode, "--n", "64",
                "--m-list", "3,5,8,13,20", "--out-dir", str(out)) == 2
    assert capsys.readouterr().err == (
        f"ivim: divergence: non-finite update in equation 1 at node {node} (t={t}) "
        "at iteration 12\n"
    )
    assert not out.exists()


def test_each_closed_form_is_evaluated_once_per_solve(tmp_path, monkeypatch):
    calls = []
    system, doc = get_problem("ex3")
    counted = dataclasses.replace(system, exact=lambda t: calls.append(t.size) or system.exact(t))
    monkeypatch.setattr(ivim.cli, "get_problem", lambda source: (counted, doc))
    for argv, sizes in [
        (["solve", "--n", "17", "--m", "2"], [17]),
        (["converge", "--n-list", "9,17,33", "--m", "2"], [9, 17, 33]),
        (["converge", "--m-list", "1,2", "--n", "9"], [9]),  # one run for the m-list
    ]:
        calls.clear()
        assert _run(*argv, "--problem", "ex3", "--out-dir", str(tmp_path / argv[0])) == 0
        assert calls == sizes


def test_compare_never_evaluates_the_closed_form(tmp_path, monkeypatch):
    # compare.csv and summary.json score against RK4 only
    argv = ("compare", "--problem", "ex3", "--n", "33", "--m", "3", "--rk4-step", "0.015625")
    assert _run(*argv, "--out-dir", str(tmp_path / "plain")) == 0
    system, doc = get_problem("ex3")

    def refused(t):
        raise AssertionError("compare evaluated the closed form")

    withheld = dataclasses.replace(system, exact=refused)
    monkeypatch.setattr(ivim.cli, "get_problem", lambda source: (withheld, doc))
    assert _run(*argv, "--out-dir", str(tmp_path / "withheld")) == 0
    for name in ("compare.csv", "summary.json"):
        plain, got = (masked_digest(tmp_path / d / name) for d in ("plain", "withheld"))
        assert got == plain, name


def test_huge_integer_alpha_exits_1(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(
        '{"interval": {"a": 0, "T": 1}, "equations": [{"alpha": 1' + "0" * 400
        + ', "rhs": "u"}], "initial": [0]}',
        encoding="utf-8",
    )
    code = _run("solve", "--problem", str(path), "--n", "9", "--m", "2",
                "--out-dir", str(tmp_path / "out"))
    assert code == 1
    err = capsys.readouterr().err
    assert "error" in err and "too large" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad", ["1e400", "NaN"])
def test_nonfinite_initial_value_exits_1_without_outputs(tmp_path, capsys, bad):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"interval": {"a": 0, "T": 1}, "equations": [{"alpha": 0, "rhs": "u"}], '
        '"initial": [' + bad + "]}",
        encoding="utf-8",
    )
    code = _run("solve", "--problem", str(path), "--n", "33", "--m", "3",
                "--out-dir", str(tmp_path / "out"))
    assert code == 1
    err = capsys.readouterr().err
    assert "error" in err and "initial value of equation 1 must be finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, where, bad, message",
    [
        ("export", "alpha", "NaN", "alpha of equation 2 must be finite, got nan"),
        ("export", "a", "NaN", "interval endpoint a must be finite, got nan"),
        ("export", "T", "1e400", "interval endpoint T must be finite, got inf"),
        ("converge", "alpha", "1e400", "alpha of equation 2 must be finite, got inf"),
        ("converge", "a", "-Infinity", "interval endpoint a must be finite, got -inf"),
    ],
)
def test_nonfinite_alpha_or_endpoint_exits_1_without_outputs(tmp_path, command, where, bad,
                                                            message):
    # a file with a bare NaN parses, but the problem is rejected before any
    # work or output; the pendulum has no closed form, so converge would
    # otherwise start on RK4
    doc = json.loads(json.dumps(_PENDULUM))
    if where == "alpha":
        doc["equations"][1]["alpha"] = "@"
    else:
        doc["interval"][where] = "@"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc).replace('"@"', bad), encoding="utf-8")
    out = tmp_path / "out"
    if command == "export":
        argv = ("export", "--problem", str(path), "--out", str(out / "problem.json"))
    else:
        argv = ("converge", "--problem", str(path), "--n", "33", "--m-list", "1,2",
                "--out-dir", str(out))
    code, err = _run_process(*argv)
    assert code == 1
    assert "Traceback" not in err
    assert err.startswith("ivim: error: ") and message in err
    assert not out.exists()


def test_overflowing_interval_length_exits_1_without_warnings(tmp_path):
    # both endpoints are finite and their distance is not; the problem is
    # rejected by that length before numpy sees the interval
    doc = {
        "name": "huge",
        "interval": {"a": -1e308, "T": 1e308},
        "equations": [{"alpha": 0.0, "rhs": "1"}],
        "initial": [0.0],
    }
    path = _write_problem(tmp_path, doc)
    out = tmp_path / "out"
    code, err = _run_process("solve", "--problem", str(path), "--n", "5", "--m", "2",
                             "--out-dir", str(out))
    assert code == 1
    assert err == "ivim: error: interval length T - a must be finite, got inf\n"
    assert "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "content, cause",
    [
        (b"[" * 100_000 + b"]" * 100_000,
         "maximum recursion depth exceeded while decoding a JSON array"),
        (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (b'{"initial": [' + b"1" * 5000 + b"]}",
         "Exceeds the limit (4300 digits) for integer string conversion"),
    ],
    ids=["nested-too-deep", "not-utf-8", "integer-too-long"],
)
def test_unreadable_problem_file_exits_1_naming_it(tmp_path, content, cause):
    # json.load raises RecursionError past its nesting limit, and a
    # ValueError on bytes that are not UTF-8 or an integer past Python's digit
    # limit; none of them names the file
    path = tmp_path / "problem.json"
    path.write_bytes(content)
    out = tmp_path / "out"
    code, err = _run_process("solve", "--problem", str(path), "--n", "5", "--m", "2",
                             "--out-dir", str(out))
    assert code == 1
    assert "Traceback" not in err
    assert err.startswith(f"ivim: error: cannot read {path} as JSON: {cause}")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "export"])
@pytest.mark.parametrize(
    "text, key",
    [
        ('{"name": "dup", "interval": {"a": 0.0, "T": 1.0, "T": 2.0}, '
         '"equations": [{"alpha": 0.0, "rhs": "1"}], "initial": [0.0]}', "T"),
        ('{"name": "dup", "interval": {"a": 0.0, "T": 1.0}, '
         '"equations": [{"alpha": 0.0, "rhs": "1", "rhs": "u"}], "initial": [0.0]}', "rhs"),
    ],
    ids=["interval", "equation"],
)
def test_key_given_twice_exits_1_naming_it(tmp_path, capsys, command, text, key):
    # json.load alone keeps the last value, so the file would solve on
    # [0, 2] or with rhs u, and export would write the collapsed document
    path = tmp_path / "problem.json"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    if command == "export":
        argv = ("export", "--problem", str(path), "--out", str(out / "problem.json"))
    else:
        argv = ("solve", "--problem", str(path), "--n", "5", "--m", "2", "--out-dir", str(out))
    assert _run(*argv) == 1
    assert capsys.readouterr().err == f"ivim: error: duplicate key {key!r} in {path}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "where, value, message",
    [
        ("alpha", "null", "alpha of equation 2 must be a number, got null"),
        ("initial", "[0.5, true]", "initial value of equation 2 must be a number, got true"),
        ("rhs", "null", "rhs of equation 2 must be a string, got null"),
        ("rhs", '["u1"]', 'rhs of equation 2 must be a string, got ["u1"]'),
        ("rhs", "5", "rhs of equation 2 must be a string, got 5"),
        ("name", "null", "name must be a string, got null"),
        ("name", "7", "name must be a string, got 7"),
        ("name", '["p"]', 'name must be a string, got ["p"]'),
    ],
)
def test_non_number_field_exits_1_naming_it(tmp_path, where, value, message):
    # null used to exit with a bare float() message, true to be read as 1.0;
    # a non-string rhs or name went through str(), so a null rhs read as the
    # variable None and a null name was reported as the problem "None"
    doc = json.loads(json.dumps(_PENDULUM))
    if where in ("initial", "name"):
        doc[where] = "@"
    else:
        doc["equations"][1][where] = "@"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc).replace('"@"', value), encoding="utf-8")
    out = tmp_path / "out"
    code, err = _run_process("solve", "--problem", str(path), "--n", "9", "--m", "2",
                             "--out-dir", str(out))
    assert code == 1
    assert "Traceback" not in err
    assert err.startswith("ivim: error: ") and message in err
    assert not out.exists()


def test_unknown_key_exits_1_naming_it(tmp_path):
    doc = json.loads(json.dumps(_PENDULUM))
    doc["exacts"] = ["cos(t)", "-sin(t)"]
    path = _write_problem(tmp_path, doc)
    out = tmp_path / "out"
    code, err = _run_process("solve", "--problem", str(path), "--n", "9", "--m", "2",
                             "--out-dir", str(out))
    assert code == 1
    assert "Traceback" not in err
    assert err.startswith("ivim: error: unknown key 'exacts' in the problem document")
    assert not out.exists()


def test_problem_without_a_name_is_reported_by_its_path(tmp_path):
    doc = json.loads(json.dumps(_PENDULUM))
    del doc["name"]
    path = _write_problem(tmp_path, doc)
    out = tmp_path / "out"
    assert _run("solve", "--problem", str(path), "--n", "9", "--m", "2", "--out-dir", str(out)) == 0
    assert json.loads((out / "summary.json").read_text())["problem"] == str(path)


def test_expression_error_names_the_expression(tmp_path, capsys):
    doc = json.loads(json.dumps(_PENDULUM))
    doc["equations"][1]["rhs"] = "u1 + )"
    path = _write_problem(tmp_path, doc)
    code = _run("solve", "--problem", str(path), "--n", "9", "--m", "2",
                "--out-dir", str(tmp_path / "out"))
    assert code == 1
    err = capsys.readouterr().err
    assert err == "ivim: error: rhs of equation 2: unexpected token ')' (at offset 5)\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "field, text, message",
    [
        ("rhs", "1e400*0 + u", "rhs of equation 1: number '1e400' overflows float64 (at offset 0)"),
        ("exact", "t + 1e400", "exact 1: number '1e400' overflows float64 (at offset 4)"),
    ],
)
def test_overflowing_number_literal_exits_1_without_traceback(tmp_path, field, text, message):
    doc = {
        "name": "overflow",
        "interval": {"a": 0.0, "T": 1.0},
        "equations": [{"alpha": 0.0, "rhs": text if field == "rhs" else "u"}],
        "initial": [0.0],
    }
    if field == "exact":
        doc["exact"] = [text]
    path = _write_problem(tmp_path, doc)
    out = tmp_path / "out"
    code, err = _run_process("converge", "--problem", str(path), "--n-list", "9,17",
                             "--m", "2", "--out-dir", str(out))
    assert code == 1
    assert "Traceback" not in err
    assert err == f"ivim: error: {message}\n"
    assert not out.exists()


# u1' = u2, u2' = -u1 on [0, 40]: the iterates rise past 1e12 before they
# contract, and stay finite
_OSCILLATOR = {
    "name": "oscillator",
    "interval": {"a": 0.0, "T": 40.0},
    "equations": [{"alpha": 0.0, "rhs": "u2"}, {"alpha": 0.0, "rhs": "-u1"}],
    "initial": [1.0, 0.0],
    "exact": ["cos(t)", "-sin(t)"],
}


@pytest.mark.parametrize("m, error_above, error_below", [(16, 1e12, 1e13), (140, 0.0, 1e-4)])
def test_long_oscillator_solve_exits_0(tmp_path, m, error_above, error_below):
    # at m = 16 the finite iterate is far from converged and is reported so
    path = _write_problem(tmp_path, _OSCILLATOR)
    out = tmp_path / "out"
    code = _run("solve", "--problem", str(path), "--n", "8001", "--m", str(m),
                "--mode", "full_trapezoid", "--out-dir", str(out))
    assert code == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["iterations_run"] == m
    assert error_above < summary["max_abs_error"] < error_below


@pytest.mark.parametrize(
    "doc, n, message",
    [
        ({"interval": {"a": 0.0, "T": 1.0}, "equations": [{"alpha": 0.0, "rhs": "u^2"}],
          "initial": [2.0]}, 4097, "node 3796 (t=0.926513671875) at iteration 12"),
        ({**builtin_problem_dict("ex1"), "interval": {"a": 0.0, "T": 3.0}}, 257,
         "node 220 (t=2.56640625) at iteration 9"),
    ],
    ids=["u^2-4097", "ex1-on-0-3"],
)
def test_blow_up_exits_2_naming_the_sweep(tmp_path, capsys, doc, n, message):
    path = _write_problem(tmp_path, doc)
    code = _run("solve", "--problem", str(path), "--n", str(n), "--m", "60",
                "--out-dir", str(tmp_path / "out"))
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"ivim: divergence: non-finite update in equation 1 at {message}\n"


@pytest.mark.parametrize(
    "rhs, argv, message",
    [
        ("1/t", ("converge", "--n", "33", "--m-list", "1,2"),
         "RK4 state became non-finite at t="),
        ("1/t", ("compare", "--n", "33", "--m", "3", "--rk4-step", "0.01"),
         "RK4 state became non-finite at t="),
        ("u + 1/0", ("solve", "--n", "33", "--m", "3"), "non-finite update"),
        # a pole of f at the finite state u(0) = 0 is divergence, not a domain error
        ("1/u", ("solve", "--n", "33", "--m", "3"),
         "non-finite update in equation 1 at node 2 (t=0.03125) at iteration 1"),
    ],
)
def test_division_by_zero_exits_2_without_traceback(tmp_path, rhs, argv, message):
    doc = {
        "name": "pole",
        "interval": {"a": 0.0, "T": 1.0},
        "equations": [{"alpha": 0.0, "rhs": rhs}],
        "initial": [0.0],
    }
    path = _write_problem(tmp_path, doc)
    code, err = _run_process(argv[0], "--problem", str(path), *argv[1:],
                             "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert "Traceback" not in err
    assert "divergence" in err and message in err


@pytest.mark.parametrize(
    "rhs, argv, code, message",
    [
        ("log(u - 1)", ("solve", "--n", "33", "--m", "3"), 1,
         "right-hand side of equation 1 is nan at node 2 (t=0.03125, u=[0.0])"),
        ("log(u - 1)", ("compare", "--n", "33", "--m", "3", "--rk4-step", "0.01"), 1,
         "right-hand side of equation 1 is nan at node 2 (t=0.03125, u=[0.0])"),
        ("log(u - 1)", ("converge", "--n", "33", "--m-list", "1,2"), 1,
         "right-hand side of equation 1 is nan at t=0.0 (RK4 stage, u=[0.0])"),
        ("t/t", ("solve", "--n", "33", "--m", "3", "--mode", "full_trapezoid"), 1,
         "right-hand side of equation 1 is nan at node 1 (t=0.0, u=[0.0])"),
        ("t/t", ("solve", "--n", "33", "--m", "3", "--mode", "paper"), 0, ""),
    ],
)
def test_nan_from_rhs_exits_1_and_names_where(tmp_path, rhs, argv, code, message):
    # NaN at a finite state is f outside its domain; paper mode never reads c(t_1)
    doc = {
        "name": "domain",
        "interval": {"a": 0.0, "T": 1.0},
        "equations": [{"alpha": 0.0, "rhs": rhs}],
        "initial": [0.0],
    }
    path = _write_problem(tmp_path, doc)
    got, err = _run_process(argv[0], "--problem", str(path), *argv[1:],
                            "--out-dir", str(tmp_path / "out"))
    assert got == code
    assert "Traceback" not in err
    if code:
        assert err.startswith("ivim: error: ") and message in err
        assert not (tmp_path / "out").exists()
    else:
        assert err == ""


@pytest.mark.parametrize(
    "rhs, offset",
    [
        ("(" * 200 + "u" + ")" * 200, 100),
        ("(" * 3000 + "u" + ")" * 3000, 100),
        ("-" * 3000 + "u", 100),
        ("u^" * 3000 + "u", 200),
        ("sin(" * 3000 + "u" + ")" * 3000, 400),
        ("u" + " + u" * 3000, 11604),  # the first term found 101 levels deep
    ],
    ids=["parens200", "parens3000", "unary3000", "power3000", "sin3000", "sum3000"],
)
def test_deep_expression_exits_1_without_traceback(tmp_path, rhs, offset):
    doc = {
        "name": "deep",
        "interval": {"a": 0.0, "T": 1.0},
        "equations": [{"alpha": 0.0, "rhs": rhs}],
        "initial": [0.0],
    }
    path = _write_problem(tmp_path, doc)
    code, err = _run_process("solve", "--problem", str(path), "--n", "9", "--m", "2",
                             "--out-dir", str(tmp_path / "out"))
    assert code == 1
    assert "Traceback" not in err
    assert f"expression nested deeper than 100 levels (at offset {offset})" in err


def _counting_rk4(monkeypatch, refused=None):
    """Patch the CLI's rk4_reference to record each step it is called with;
    it raises DivergenceError for the step ``refused``."""
    steps = []

    def counting(system, step):
        steps.append(step)
        if step == refused:
            raise DivergenceError(f"step {step} refused")
        return rk4_reference(system, step)

    monkeypatch.setattr(ivim.cli, "rk4_reference", counting)
    return steps


@pytest.mark.parametrize(
    "sweep", [("--n", "33", "--m-list", "1,4,16"), ("--m", "5", "--n-list", "9,17,33")]
)
def test_converge_sizes_the_rk4_reference_by_step_doubling(tmp_path, monkeypatch, sweep):
    # 32 and 64 steps before any solve; the 64-step run's estimated error is
    # below 1e-6 of the smallest scored error, so no further run is made
    steps = _counting_rk4(monkeypatch)
    path = _write_problem(tmp_path, _PENDULUM)
    out = tmp_path / "out"
    assert _run("converge", "--problem", str(path), *sweep, "--out-dir", str(out)) == 0
    assert steps == [2.0 / 32, 2.0 / 64]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rk4_steps"] == 64
    assert 0.0 < summary["rk4_error_estimate"] <= 1e-6 * min(summary["max_abs"])


# u' = 0: every solve is exact, and so is every RK4 run
_FLAT = {
    "interval": {"a": 0.0, "T": 1.0},
    "equations": [{"alpha": 0.0, "rhs": "0"}],
    "initial": [1.0],
}
# u' = 0.1: full_trapezoid solves it to rounding, so no RK4 run estimates its
# own error below a millionth of that
_TENTH = {
    "interval": {"a": 0.0, "T": 1.0},
    "equations": [{"alpha": 0.0, "rhs": "0.1"}],
    "initial": [0.0],
}
# u' = -10^4 u: RK4 at 64 steps diverges, at 6400 it is stable
_DECAY = {
    "interval": {"a": 0.0, "T": 1.0},
    "equations": [{"alpha": 10000.0, "rhs": "-10000*u1"}],
    "initial": [1.0],
}


@pytest.mark.parametrize(
    "doc, argv, counts, refused",
    [
        (_PENDULUM, ["--m", "5", "--n-list", "9,17,30"], [2900], None),
        (_DECAY, ["--m", "3", "--n-list", "33,65"], [64, 6400], None),
        (_PENDULUM, ["--n", "33", "--m-list", "1,4,16"], [32, 64, 3200], 64),
        (_FLAT, ["--m", "3", "--n-list", "5,9"], [8, 16, 800], None),
        (_TENTH, ["--m", "3", "--n-list", "5,9", "--mode", "full_trapezoid"],
         [8, 16, 32, 64, 128, 256, 512, 800], None),
    ],
    ids=["non-doubling", "candidate-raises", "later-candidate-raises", "zero-error",
         "past-the-fixed-count"],
)
def test_converge_falls_back_to_the_fixed_rk4_run(tmp_path, monkeypatch, doc, argv, counts,
                                                  refused):
    # the fixed run has 100 (n_max - 1) steps and is the last in counts; the
    # run of ``refused`` steps raises DivergenceError
    path = _write_problem(tmp_path, doc)
    system, _ = get_problem(str(path))
    width = system.T - system.a
    steps = _counting_rk4(monkeypatch, refused and width / refused)
    out = tmp_path / "out"
    assert _run("converge", "--problem", str(path), *argv, "--out-dir", str(out)) == 0
    assert steps == [width / c for c in counts]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rk4_steps"] == counts[-1]
    assert summary["rk4_error_estimate"] is None
    ref = rk4_reference(system, width / counts[-1])
    mode = argv[argv.index("--mode") + 1] if "--mode" in argv else "paper"
    expected = [
        error_metrics(solve(system, SolveConfig(n=p["n"], m_max=p["m"], mode=mode)), ref).max_abs
        for p in summary["points"]
    ]
    assert summary["max_abs"] == expected


@pytest.mark.parametrize(
    "name, sweep",
    [
        ("pendulum", ("--n", "33", "--m-list", "1,4,16")),
        ("pendulum", ("--m", "5", "--n-list", "9,17,33")),
        ("ex1", ("--m", "10", "--n-list", "33,65,129,257")),
        ("ex1", ("--n", "33", "--m-list", "1,4,16")),
        ("ex3", ("--m", "10", "--n-list", "33,65,129")),
        ("ex3", ("--n", "33", "--m-list", "1,4,16")),
    ],
)
def test_converge_rk4_error_estimate_is_honest(tmp_path, monkeypatch, name, sweep):
    # against an accurate reference at the finest grid's nodes: the pendulum's
    # 102,400-step run, or the closed form of ex1 and ex3 withheld from the CLI.
    # Measured: the true error of the scored run is 1.00 to 1.21 times the
    # estimate, and max_abs moves by at most 1.06e-6 relative (ex3, m sweep)
    if name == "pendulum":
        system, doc = problem_from_dict(_PENDULUM), _PENDULUM
        accurate = rk4_reference(system, 2.0 / 102400).at
    else:
        system, doc = get_problem(name)
        accurate = system.exact
    withheld = dataclasses.replace(system, exact=None)
    monkeypatch.setattr(ivim.cli, "get_problem", lambda source: (withheld, doc))
    out = tmp_path / "out"
    assert _run("converge", "--problem", name, *sweep, "--out-dir", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    est = summary["rk4_error_estimate"]
    assert est <= 1e-6 * min(summary["max_abs"])
    ref = rk4_reference(system, (system.T - system.a) / summary["rk4_steps"])
    n_max = max(p["n"] for p in summary["points"])
    nodes = np.linspace(system.a, system.T, n_max)
    true = np.max(np.abs(ref.at(nodes) - accurate(nodes)))
    assert 0.9 * est <= true <= 1.5 * est
    for p, max_abs in zip(summary["points"], summary["max_abs"]):
        report = solve(system, SolveConfig(n=p["n"], m_max=p["m"]))
        exact = np.max(np.abs(report.nodal_values() - accurate(report.grid.nodes)))
        assert abs(max_abs - exact) <= 1.5e-6 * exact


@pytest.mark.parametrize("mode", ["paper", "full_trapezoid"])
def test_converge_scores_a_closed_form_by_the_solve_errors(tmp_path, monkeypatch, mode):
    # a closed form is scored by report.errors, in the bits error_metrics
    # gives against it; only an RK4 reference goes through error_metrics
    calls = []

    def counting(report, ref):
        calls.append(ref.source[0])
        return error_metrics(report, ref)

    monkeypatch.setattr(ivim.cli, "error_metrics", counting)
    sweep = ("--m", "4", "--n-list", "9,17,33")
    for name in ("ex1", "ex2", "ex3"):
        out = tmp_path / name
        assert _run("converge", "--problem", name, "--mode", mode, *sweep,
                    "--out-dir", str(out)) == 0
        system, _ = get_problem(name)
        expected = []
        for n in (9, 17, 33):
            report = solve(system, SolveConfig(n=n, m_max=4, mode=mode))
            ref = ReferenceSolution(report.grid.nodes, report.exact, ("closed_form", name))
            expected.append(error_metrics(report, ref).max_abs)
        assert json.loads((out / "summary.json").read_text())["max_abs"] == expected
    assert calls == []
    path = _write_problem(tmp_path, _PENDULUM)
    assert _run("converge", "--problem", str(path), "--mode", mode, *sweep,
                "--out-dir", str(tmp_path / "pendulum")) == 0
    assert calls == ["rk4"] * 3


def test_converge_rejects_bad_point_before_the_reference(tmp_path, capsys):
    # n = 1 would size the RK4 step by zero cells; every point is checked first
    path = _write_problem(tmp_path, _PENDULUM)
    code = _run("converge", "--problem", str(path), "--m", "3", "--n-list", "1,3",
                "--out-dir", str(tmp_path / "out"))
    assert code == 1
    assert "n=1" in capsys.readouterr().err


def test_converge_m_sweep_scores_against_one_reference(tmp_path):
    path = _write_problem(tmp_path, _PENDULUM)
    out = tmp_path / "out"
    assert _run("converge", "--problem", str(path), "--n", "33", "--m-list", "1,4,16",
                "--out-dir", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    system, _ = get_problem(str(path))
    ref = rk4_reference(system, 2.0 / 64)
    expected = [
        error_metrics(solve(system, SolveConfig(n=33, m_max=m)), ref).max_abs
        for m in (1, 4, 16)
    ]
    assert summary["max_abs"] == expected
    assert summary["rk4_steps"] == 64


def test_converge_sweep_with_orders(tmp_path):
    out = tmp_path / "run"
    code = _run("converge", "--problem", "ex1", "--m", "10",
                "--n-list", "33,65,129,257", "--out-dir", str(out))
    assert code == 0
    lines = _read_lines(out / "convergence.csv")
    assert lines[0] == "n,m,max_abs,observed_order"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4
    assert rows[0][3] == ""  # no previous point
    for row in rows[1:]:
        assert row[3] != ""  # cell counts double: 32 -> 64 -> 128 -> 256
    errs = [float(r[2]) for r in rows]
    assert errs == sorted(errs, reverse=True)


def test_converge_large_grid_sweep(tmp_path):
    out = tmp_path / "run"
    code = _run("converge", "--problem", "ex2", "--m", "40",
                "--n-list", "1000,2000,3000,4000", "--out-dir", str(out))
    assert code == 0
    rows = [line.split(",") for line in _read_lines(out / "convergence.csv")[1:]]
    assert len(rows) == 4
    errs = [float(r[2]) for r in rows]
    assert errs == sorted(errs, reverse=True)
    # 999 -> 1999 -> 2999 -> 3999 cells: never an exact doubling
    assert all(r[3] == "" for r in rows)


def test_converge_singleton_sweep(tmp_path):
    out = tmp_path / "run"
    code = _run("converge", "--problem", "ex1", "--m", "5",
                "--n-list", "33", "--out-dir", str(out))
    assert code == 0
    rows = _read_lines(out / "convergence.csv")[1:]
    assert len(rows) == 1
    assert rows[0].endswith(",")  # empty order column


def test_converge_m_sweep(tmp_path):
    out = tmp_path / "run"
    code = _run("converge", "--problem", "ex1", "--n", "129",
                "--m-list", "1,2,4,8", "--out-dir", str(out))
    assert code == 0
    rows = [line.split(",") for line in _read_lines(out / "convergence.csv")[1:]]
    assert len(rows) == 4
    assert all(r[3] == "" for r in rows)  # order is an h concept
    assert [r[1] for r in rows] == ["1", "2", "4", "8"]


def test_converge_non_doubling_points_leave_order_blank(tmp_path):
    out = tmp_path / "run"
    code = _run("converge", "--problem", "ex1", "--m", "5",
                "--n-list", "100,200,300", "--out-dir", str(out))
    assert code == 0
    rows = [line.split(",") for line in _read_lines(out / "convergence.csv")[1:]]
    # 99 -> 199 -> 299 cells never double exactly
    assert all(r[3] == "" for r in rows)


def test_converge_requires_one_sweep(tmp_path, capsys):
    for argv, message in [
        (["--m", "5"], "provide exactly one of --n-list or --m-list"),
        (["--m", "5", "--n", "10", "--n-list", "3,5", "--m-list", "1,2"],
         "provide exactly one of --n-list or --m-list"),
        (["--n-list", "3,5"], "--n-list requires a fixed --m"),
        (["--m-list", "1,2"], "--m-list requires a fixed --n"),
        # a fixed value the sweep would ignore
        (["--n", "5", "--m-list", "1,2", "--m", "3"],
         "--m cannot be combined with --m-list, which gives every m"),
        (["--n-list", "3,5", "--m", "2", "--n", "9"],
         "--n cannot be combined with --n-list, which gives every n"),
    ]:
        out = tmp_path / "x"
        assert _run("converge", "--problem", "ex1", *argv, "--out-dir", str(out)) == 1
        assert capsys.readouterr().err == f"ivim: error: {message}\n"
        assert not out.exists()


def test_converge_rejects_unsorted_list(tmp_path, capsys):
    code = _run("converge", "--problem", "ex1", "--m", "5",
                "--n-list", "65,33", "--out-dir", str(tmp_path / "x"))
    assert code == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "text, message",
    [
        ("5,x", "--n-list must be a comma-separated list of integers"),
        (",", "--n-list must not be empty"),
    ],
)
def test_converge_rejects_a_malformed_list(tmp_path, capsys, text, message):
    out = tmp_path / "x"
    assert _run("converge", "--problem", "ex1", "--m", "5",
                "--n-list", text, "--out-dir", str(out)) == 1
    assert capsys.readouterr().err == f"ivim: error: {message}\n"
    assert not out.exists()


def test_compare_constant_problem_gaps_zero(tmp_path):
    doc = {
        "name": "steady",
        "interval": {"a": 0.0, "T": 1.0},
        "equations": [{"alpha": 0.0, "rhs": "0"}],
        "initial": [5.0],
    }
    path = tmp_path / "steady.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "run"
    code = _run("compare", "--problem", str(path), "--n", "11", "--m", "3",
                "--rk4-step", "0.05", "--out-dir", str(out))
    assert code == 0
    rows = [line.split(",") for line in _read_lines(out / "compare.csv")[1:]]
    assert all(float(r[3]) == 0.0 for r in rows)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["max_gap"] == 0.0
    assert "wall_time_ivim_s" in summary and "wall_time_rk4_s" in summary


# 1e307 t against the closed form -1.79e308 t: both finite, their difference
# past float64 at t = 1
_HUGE = {
    "name": "huge",
    "interval": {"a": 0.0, "T": 1.0},
    "equations": [{"alpha": 0.0, "rhs": "1e307"}],
    "initial": [0.0],
    "exact": ["-1.79e308*t"],
}
# no closed form: IVIM samples the cosine at its crests, where it is
# positive, and RK4 integrates it to -8e306 t
_APART = {
    "name": "apart",
    "interval": {"a": 0.0, "T": 20.0},
    "equations": [{"alpha": 0.0, "rhs": "1.3e307*cos(pi*t/5) - 8e306"}],
    "initial": [0.0],
}


@pytest.mark.parametrize(
    "doc, argv, message",
    [
        (_HUGE, ["solve", "--n", "3", "--m", "1"],
         "error of component 1 overflows float64 at t=1.0 (7.5e+306 against -1.79e+308)"),
        (_HUGE, ["converge", "--n-list", "3,5", "--m", "1"],
         "error of component 1 overflows float64 at t=1.0 (7.5e+306 against -1.79e+308)"),
        (_APART, ["converge", "--n-list", "3,5", "--m", "1"],
         "error of component 1 overflows float64 at t=20.0 "
         "(7.499999999999998e+307 against -1.6000000000000002e+308)"),
        (_APART, ["compare", "--n", "3", "--m", "1", "--rk4-step", "0.01"],
         "gap of component 1 overflows float64 at t=20.0 "
         "(7.499999999999998e+307 against -1.600000000000001e+308)"),
    ],
    ids=["solve", "converge-closed-form", "converge-rk4", "compare"],
)
def test_error_past_float64_exits_1_without_outputs(tmp_path, capsys, doc, argv, message):
    # once written as "Infinity", which is not JSON
    path = _write_problem(tmp_path, doc)
    out = tmp_path / "out"
    assert _run(*argv, "--problem", str(path), "--out-dir", str(out)) == 1
    assert capsys.readouterr().err == f"ivim: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_json_output_rejects_a_non_finite_number(tmp_path, value):
    path = tmp_path / "summary.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        ivim.cli._write_json(path, {"max_gap": float(value)})
    assert not path.exists()


def test_compare_step_must_divide(tmp_path, capsys):
    code = _run("compare", "--problem", "ex1", "--n", "11", "--m", "3",
                "--rk4-step", "0.3", "--out-dir", str(tmp_path / "x"))
    assert code == 1
    capsys.readouterr()


def test_compare_subnormal_step_exits_1(tmp_path, capsys):
    # (T - a) / 1e-320 overflows to inf: no step count, an input error
    code = _run("compare", "--problem", "ex1", "--n", "11", "--m", "3",
                "--rk4-step", "1e-320", "--out-dir", str(tmp_path / "x"))
    assert code == 1
    err = capsys.readouterr().err
    assert "error" in err and "step 1e-320" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "step, nsteps",
    [("1e-19", "1.5e+19"), ("1e-18", "1.5e+18"), ("1e-300", "1.5e+300")],
    ids=["dimension", "bytes", "300-digit-count"],
)
def test_rk4_step_count_past_any_array_exits_1(tmp_path, step, nsteps):
    # numpy refuses these shapes before asking for memory: more elements than
    # a dimension may hold, or more bytes than an address space has
    out = tmp_path / "out"
    code, err = _run_process("compare", "--problem", "ex3", "--n", "3", "--m", "1",
                             "--rk4-step", step, "--out-dir", str(out))
    assert code == 1
    assert "Traceback" not in err
    assert err.startswith(
        f"ivim: error: step {step} gives {nsteps} RK4 steps, too many for one array: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, shape",
    [
        (("solve", "--n", "1000000000000", "--m", "1"), "(1000000000000,)"),
        (("compare", "--n", "5", "--m", "1", "--rk4-step", "1e-12"), "(1, 1000000000001)"),
    ],
    ids=["solve", "compare"],
)
def test_size_too_large_for_memory_exits_1(tmp_path, argv, shape):
    # 7.28 TiB of float64; under a 3 GiB address-space cap no allocation
    # that size can succeed, whatever the host's overcommit policy
    out = tmp_path / "out"
    code, err = _run_process(*argv, "--problem", "ex1", "--out-dir", str(out),
                             address_space=3 << 30)
    assert code == 1
    assert "Traceback" not in err
    assert err.startswith(
        f"ivim: error: Unable to allocate 7.28 TiB for an array with shape {shape}")
    assert not out.exists()


def test_atomic_write_keeps_the_old_file_when_a_chunk_fails(tmp_path):
    target = tmp_path / "solution.csv"
    target.write_text("old\n", encoding="utf-8")

    def chunks():
        yield b"new\n"
        raise RuntimeError("formatting failed")

    with pytest.raises(RuntimeError, match="formatting failed"):
        ivim.cli._write_atomic(target, chunks())
    assert target.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["solution.csv"]  # no .tmp left


def test_compare_tracks_reference(tmp_path):
    out = tmp_path / "run"
    code = _run("compare", "--problem", "ex1", "--n", "257", "--m", "10",
                "--rk4-step", "1e-4", "--out-dir", str(out))
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    # the gap to a fine RK4 run equals the solver's own error floor
    # (oracle-measured 3.912e-3 at this configuration)
    assert summary["max_gap"] < 6.0e-3


def test_export_load_roundtrip_bit_identical(tmp_path):
    exported = tmp_path / "ex1.json"
    assert _run("export", "--problem", "ex1", "--out", str(exported)) == 0
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert _run("solve", "--problem", "ex1", "--n", "41", "--m", "6",
                "--out-dir", str(out_a)) == 0
    assert _run("solve", "--problem", str(exported), "--n", "41", "--m", "6",
                "--out-dir", str(out_b)) == 0
    csv_a = (out_a / "solution.csv").read_bytes()
    csv_b = (out_b / "solution.csv").read_bytes()
    assert csv_a == csv_b


def test_export_writes_schema_fields(tmp_path):
    path = tmp_path / "ex2.json"
    assert _run("export", "--problem", "ex2", "--out", str(path)) == 0
    doc = json.loads(path.read_text())
    assert set(doc) >= {"name", "interval", "equations", "initial", "exact", "guess"}


def test_missing_problem_file_exits_3_naming_it(tmp_path, capsys):
    # a name that is neither a built-in nor a file is an I/O failure
    out = tmp_path / "x"
    code = _run("solve", "--problem", "nope.json", "--n", "5", "--m", "1",
                "--out-dir", str(out))
    assert code == 3
    assert capsys.readouterr().err == (
        "ivim: i/o error: [Errno 2] No such file or directory: 'nope.json'\n"
    )
    assert not out.exists()


def test_bad_flags_exit_1(capsys):
    assert _run("solve", "--problem", "ex1") == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--n", "5", "--m", "1"),
        ("converge", "--n-list", "5,9", "--m", "1"),
        ("compare", "--n", "5", "--m", "1", "--rk4-step", "0.25"),
    ],
    ids=lambda argv: argv[0],
)
def test_unknown_mode_exits_1_listing_the_modes(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert _run(*argv, "--problem", "ex1", "--mode", "trapezoid", "--out-dir", str(out)) == 1
    err = capsys.readouterr().err
    assert "invalid choice: 'trapezoid'" in err
    assert all(repr(mode) in err for mode in ivim.engine.MODES)
    assert not out.exists()


def test_help_exits_0(capsys):
    assert _run("--help") == 0
    assert "solve" in capsys.readouterr().out


# --- one process, many main() calls -------------------------------------------

def _clear_caches():
    ivim.cli._parser.cache_clear()
    expr.parse.cache_clear()
    codegen._code.cache_clear()


def _outcome(capsys, out, *argv):
    """(exit code, stdout, stderr, masked digest of each artifact) of one main() call."""
    code = _run(*argv, *(["--out-dir", str(out)] if argv[:1] != ("--help",) else []))
    captured = capsys.readouterr()
    files = sorted(out.iterdir()) if out.exists() else []
    return code, captured.out, captured.err, {p.name: masked_digest(p) for p in files}


def test_build_parser_returns_a_new_parser():
    assert build_parser() is not build_parser()


def test_one_parser_serves_each_command_line_as_a_fresh_one_would(tmp_path, capsys):
    argvs = [
        ("converge", "--problem", "ex1", "--n-list", "9,17", "--m", "3"),
        ("converge", "--problem", "ex1", "--m-list", "1,3", "--n", "9"),
        ("converge", "--problem", "ex1", "--n-list", "9,17", "--bogus"),
        ("--help",),
        ("solve", "--problem", "ex1", "--n", "9", "--m", "3"),
    ]
    _clear_caches()
    together = [_outcome(capsys, tmp_path / f"together{i}", *argv) for i, argv in enumerate(argvs)]
    assert ivim.cli._parser.cache_info().misses == 1
    assert [outcome[0] for outcome in together] == [0, 0, 1, 0, 0]
    for i, argv in enumerate(argvs):
        _clear_caches()
        assert _outcome(capsys, tmp_path / f"alone{i}", *argv) == together[i]


def test_a_rewritten_problem_file_is_read_afresh(tmp_path, capsys):
    path = tmp_path / "problem.json"
    doc = {
        "interval": {"a": 0.0, "T": 1.0},
        "equations": [{"alpha": -2.0, "rhs": "-2*u + cos(3*t)"}],
        "initial": [1.0],
    }
    # the first text, one of the same shape, and one of a new shape
    texts = ["-2*u + cos(3*t)", "-5*u + cos(0.5*t)", "u^2 - sin(t)"]

    def run(text, out):
        doc["equations"][0]["rhs"] = text
        path.write_text(json.dumps(doc), encoding="utf-8")
        return _outcome(capsys, out, "solve", "--problem", str(path), "--n", "17", "--m", "4")

    _clear_caches()
    warm = [run(text, tmp_path / f"warm{i}") for i, text in enumerate(texts)]
    assert [outcome[0] for outcome in warm] == [0, 0, 0]
    assert len({outcome[3]["solution.csv"] for outcome in warm}) == 3
    for i, text in enumerate(texts):
        _clear_caches()
        assert run(text, tmp_path / f"cold{i}") == warm[i]
