import json

import numpy as np
import pytest

from ivim.cli import main


def _read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def _run(*argv):
    return main(list(argv))


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
    assert "divergence" in capsys.readouterr().err


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
    assert "error" in err and "700" in err
    assert not (tmp_path / "out").exists()


def test_solve_nonfinite_exact_exits_1_without_outputs(tmp_path, capsys):
    # log(t - 2) is NaN on [0, 1]; solve takes its reference from the same
    # finite-checked closed form as converge
    doc = {
        "name": "badexact",
        "interval": {"a": 0.0, "T": 1.0},
        "equations": [{"alpha": 0.0, "rhs": "1"}],
        "initial": [0.0],
        "exact": ["log(t-2)"],
    }
    path = tmp_path / "badexact.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    code = _run("solve", "--problem", str(path), "--n", "33", "--m", "2",
                "--out-dir", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert "error" in err and "reference values must be finite" in err
    assert not (out / "solution.csv").exists()


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
    code = _run("converge", "--problem", "ex1", "--m", "5",
                "--out-dir", str(tmp_path / "x"))
    assert code == 1
    code = _run("converge", "--problem", "ex1", "--m", "5", "--n", "10",
                "--n-list", "3,5", "--m-list", "1,2",
                "--out-dir", str(tmp_path / "y"))
    assert code == 1
    capsys.readouterr()


def test_converge_rejects_unsorted_list(tmp_path, capsys):
    code = _run("converge", "--problem", "ex1", "--m", "5",
                "--n-list", "65,33", "--out-dir", str(tmp_path / "x"))
    assert code == 1
    capsys.readouterr()


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


def test_unknown_problem_exits_1(tmp_path, capsys):
    code = _run("solve", "--problem", "nope.json", "--n", "5", "--m", "1",
                "--out-dir", str(tmp_path / "x"))
    assert code in (1, 3)  # missing file surfaces as an input/i-o failure
    capsys.readouterr()


def test_bad_flags_exit_1(capsys):
    assert _run("solve", "--problem", "ex1") == 1
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert _run("--help") == 0
    assert "solve" in capsys.readouterr().out
