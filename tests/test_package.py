import contextlib
import dataclasses
import importlib
import importlib.util
import pkgutil
import sys
import tokenize
from pathlib import Path

import numpy as np
import pytest

import ivim
from ivim import (
    PiecewiseLinear,
    ReferenceSolution,
    SolveConfig,
    error_metrics,
    make_grid,
    problem_from_dict,
    project_samples,
    solve,
    successive_diff_norm,
)

# The package re-exports each module's __all__, so a name added there becomes
# public; this list makes that a reviewed change.
_PUBLIC = {
    "grid": ["Grid", "PiecewiseLinear", "make_grid", "project_samples"],
    "engine": [
        "DivergenceError",
        "IvpSystem",
        "exp_multiplier",
        "SolveConfig",
        "SolveReport",
        "ivim_step",
        "solve",
        "solve_each",
        "successive_diff_norm",
        "eval_solution",
    ],
    "expr": ["ExprError", "parse", "eval_expr", "validate_vars"],
    "reference": [
        "ReferenceSolution",
        "ErrorMetrics",
        "rk4_reference",
        "error_metrics",
        "empirical_order",
    ],
    "problems": [
        "BUILTIN_PROBLEMS",
        "builtin_names",
        "builtin_problem_dict",
        "problem_from_dict",
        "load_problem_file",
        "get_problem",
        "exact_builtin_eval",
    ],
}


def test_public_names_are_the_modules_exports():
    names = [name for module_names in _PUBLIC.values() for name in module_names]
    assert len(names) == 30
    assert sorted(ivim.__all__) == sorted(names + ["__version__"])
    for module_name, module_names in _PUBLIC.items():
        module = importlib.import_module(f"ivim.{module_name}")
        for name in module_names:
            assert getattr(ivim, name) is getattr(module, name), name
    assert ivim.expr.__all__ == _PUBLIC["expr"]


def test_benchmark_hook_targets_exist(monkeypatch):
    # bench/spans.py patches these names; a missing one aborts a traced
    # benchmark run with HookError. Loaded without writing bytecode there.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    for module_name, attr, *_ in spans.HOOKS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), attr
    tracer = spans.Tracer()
    tracer.install()  # also patches ivim.cli.get_problem; HookError names a missing target
    tracer.uninstall()
    assert ivim.cli.get_problem is ivim.problems.get_problem
    assert ivim.cli.error_metrics is ivim.reference.error_metrics


def test_no_module_reaches_4096_tokens():
    # CPython 3.11 compiles a module of 4,096 or more tokens at about 250 KiB
    # more peak memory (tracemalloc around compile(): cli.py at 4,092 tokens
    # 1,439 KiB, at 4,112 tokens 1,671 KiB).  The benchmark imports from
    # source without writing bytecode, so every workload's peak RSS pays it.
    # Counted as tokenize gives them, less comments and blank lines.
    skip = {tokenize.COMMENT, tokenize.NL}
    for path in sorted(Path(ivim.__file__).parent.glob("*.py")):
        with path.open("rb") as fh:
            count = sum(1 for tok in tokenize.tokenize(fh.readline) if tok.type not in skip)
        assert count < 4096, f"{path.name} has {count} tokens"


# A record is a named tuple unless it checks or normalises its fields on
# construction, or keeps a field out of equality: ``import ivim`` builds a
# named tuple in a fraction of a dataclass's time.
_DATACLASSES = {
    "engine.IvpSystem", "engine.SolveConfig", "grid.PiecewiseLinear",
    "reference.ReferenceSolution",
    "expr.Const", "expr.Var", "expr.Neg", "expr.BinOp", "expr.Call",
}
_RECORDS = {
    "grid.Grid": (("a", "T", "n", "h", "nodes"), {}),
    "engine.SolveReport": (
        ("iterate", "u_a", "grid", "diffs", "iterations_run", "wall_time",
         "exact", "errors", "history"),
        {"exact": None, "errors": None, "history": None},
    ),
    "reference.ErrorMetrics": (("max_abs", "per_node_abs"), {}),
    "expr.Token": (("kind", "lexeme", "position"), {}),
}


def test_only_the_checking_records_are_dataclasses():
    found = set()
    for info in pkgutil.iter_modules(ivim.__path__):
        module = importlib.import_module(f"ivim.{info.name}")
        found.update(f"{info.name}.{name}" for name, obj in vars(module).items()
                     if isinstance(obj, type) and obj.__module__ == module.__name__
                     and dataclasses.is_dataclass(obj))
    assert found == _DATACLASSES
    for qualname, (fields, defaults) in _RECORDS.items():
        module_name, name = qualname.split(".")
        record = getattr(importlib.import_module(f"ivim.{module_name}"), name)
        assert issubclass(record, tuple) and record._fields == fields, qualname
        assert record._field_defaults == defaults, qualname


# The caches a process keeps: the argparse tree, the compiled system of a
# problem document, the RK4 march of a set of slope texts, and the CSV
# speller's tables, built on first use.  A new one holds memory for the
# process's life and can hide a stale result, so this list makes it a
# reviewed change.
_CACHES = {"cli._parser", "problems._system", "reference._march", "csvtext._spelling_tables"}


def test_process_caches_are_the_kept_ones():
    found = set()
    for info in pkgutil.iter_modules(ivim.__path__):
        module = importlib.import_module(f"ivim.{info.name}")
        found.update(f"{info.name}.{name}" for name, obj in vars(module).items()
                     if callable(getattr(obj, "cache_info", None))
                     and obj.__module__ == module.__name__)
    assert found == _CACHES


def test_grid_nodes_are_read_only():
    nodes = make_grid(0, 1, 5).nodes
    assert not nodes.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        nodes[1] = 0.5


# the right-hand side 1e307 and the closed form -1.79e308 t stay finite; the
# error at t = 1 passes float64
HUGE = {
    "name": "huge",
    "interval": {"a": 0.0, "T": 1.0},
    "equations": [{"alpha": 0.0, "rhs": "1e307"}],
    "initial": [0.0],
    "exact": ["-1.79e308*t"],
}


def _log_of_negative_samples():
    with pytest.raises(ValueError, match=r"non-finite value nan at node 2 \(t=0\.25\)"):
        project_samples(make_grid(0.0, 1.0, 5), lambda t: np.log(t - 2))


def _difference_past_float64():
    grid = make_grid(0.0, 1.0, 3)
    up = [PiecewiseLinear(grid, np.array([0.0, 1.5e308, 1.0]))]
    down = [PiecewiseLinear(grid, np.array([0.0, -1.5e308, 1.0]))]
    assert successive_diff_norm(up, down) == np.inf


def _infinite_reference_nodes():
    with pytest.raises(ValueError, match="reference nodes must be finite: node 2 is inf"):
        ReferenceSolution(np.array([0.0, np.inf, np.inf]), np.zeros((1, 3)), ("rk4", 0.5))


def _reference_step_past_float64():
    # finite nodes whose step overflows are still in order
    ReferenceSolution(np.array([-1.5e308, 1.5e308]), np.zeros((1, 2)), ("rk4", 1.0))


def _error_past_float64():
    system = problem_from_dict(HUGE)
    report = solve(system, SolveConfig(n=3, m_max=1))
    closed = ReferenceSolution(report.grid.nodes, report.exact, ("closed_form", "huge"))
    assert error_metrics(report, closed).max_abs == np.inf


@pytest.mark.parametrize("state", ["warnings-are-errors", "errstate-raise"])
@pytest.mark.parametrize("case", [
    _log_of_negative_samples,
    _difference_past_float64,
    _infinite_reference_nodes,
    _reference_step_past_float64,
    _error_past_float64,
], ids=lambda case: case.__name__.lstrip("_"))
def test_no_floating_point_warning_leaves_a_public_function(case, state):
    # the suite turns RuntimeWarning into an error; np.errstate(all="raise")
    # is a caller's own error state, which the function must set aside too
    with np.errstate(all="raise") if state == "errstate-raise" else contextlib.nullcontext():
        case()
