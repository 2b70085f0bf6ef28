"""Interpolated variational iteration solver for initial value problems.

Fixed-point sweeps of the variational iteration are projected onto a
piecewise-linear hat-function space on a uniform grid, turning every sweep
into a closed-form nodal update with exponential Lagrange-multiplier
weights.  The package ships the grid/basis layer, the iteration engine, a
small expression language for defining problems in text, independent
reference oracles (closed forms and fixed-step RK4), convergence analytics
and a CLI.
"""

from .grid import (
    Grid,
    PiecewiseLinear,
    interp_eval,
    make_grid,
    project_samples,
)
from .engine import (
    DivergenceError,
    IvpSystem,
    Multiplier,
    SolveConfig,
    SolveReport,
    eval_solution,
    exp_multiplier,
    ivim_step,
    solve,
    successive_diff_norm,
)
from .expr import (
    ExprError,
    compile_array,
    eval_expr,
    parse,
    validate_vars,
)
from .reference import (
    ErrorMetrics,
    ReferenceSolution,
    empirical_order,
    error_metrics,
    exact_builtin_eval,
    rk4_reference,
)
from .problems import (
    BUILTIN_PROBLEMS,
    builtin_names,
    builtin_problem_dict,
    get_problem,
    load_problem_file,
    problem_from_dict,
)

__version__ = "0.1.0"

__all__ = [
    "Grid",
    "PiecewiseLinear",
    "make_grid",
    "interp_eval",
    "project_samples",
    "Multiplier",
    "exp_multiplier",
    "DivergenceError",
    "IvpSystem",
    "SolveConfig",
    "SolveReport",
    "ivim_step",
    "solve",
    "successive_diff_norm",
    "eval_solution",
    "ExprError",
    "parse",
    "eval_expr",
    "validate_vars",
    "compile_array",
    "ReferenceSolution",
    "ErrorMetrics",
    "rk4_reference",
    "exact_builtin_eval",
    "error_metrics",
    "empirical_order",
    "BUILTIN_PROBLEMS",
    "builtin_names",
    "builtin_problem_dict",
    "problem_from_dict",
    "load_problem_file",
    "get_problem",
    "__version__",
]
