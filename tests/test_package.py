import importlib
import importlib.util
import sys
from pathlib import Path

import ivim

# The package re-exports each module's __all__, so a name added there becomes
# public; this list makes that a reviewed change.
_PUBLIC = {
    "grid": ["Grid", "PiecewiseLinear", "make_grid", "interp_eval", "project_samples"],
    "engine": [
        "DivergenceError",
        "IvpSystem",
        "exp_multiplier",
        "SolveConfig",
        "SolveReport",
        "ivim_step",
        "solve",
        "successive_diff_norm",
        "eval_solution",
    ],
    "expr": ["ExprError", "parse", "eval_expr", "validate_vars", "compile_array"],
    "reference": [
        "ReferenceSolution",
        "ErrorMetrics",
        "rk4_reference",
        "exact_builtin_eval",
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
    ],
}


def test_public_names_are_the_modules_exports():
    names = [name for module_names in _PUBLIC.values() for name in module_names]
    assert len(names) == 31
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
