"""Command-line front end.

Subcommands:

    solve     run one solve, write solution.csv + summary.json
    converge  sweep n (or m), write convergence.csv + summary.json
    compare   solve and integrate with RK4, write compare.csv + summary.json
    export    write a problem (built-in or file) as a JSON problem file

Exit codes: 0 success, 1 input error (a size too large for memory
included), 2 divergence, 3 I/O failure.
All numeric output uses 17 significant digits, so values round-trip exactly;
outputs are written atomically and repeated runs are byte-identical apart
from the informational wall_time fields in summary.json.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterable

import numpy as np

from .csvtext import _float_rows
from .engine import MODES, DivergenceError, IvpSystem, SolveConfig, solve, solve_each
from .grid import make_grid
from .problems import builtin_names, get_problem
from .reference import ReferenceSolution, empirical_order, error_metrics, rk4_reference

__all__ = ["main", "build_parser"]


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 by default, which this tool reserves for
    # divergence; bad command lines are input errors
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


_FLOAT = "%.17g"


def _write_atomic(path: Path, chunks: Iterable[bytes]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: Path, header: list, rows: Iterable[bytes]) -> None:
    _write_atomic(path, itertools.chain([(",".join(header) + "\n").encode("ascii")], rows))


def _write_json(path: Path, doc: dict) -> None:
    _write_atomic(path, [(json.dumps(doc, indent=2, allow_nan=False) + "\n").encode("utf-8")])


def _config(args, n: int, m: int) -> SolveConfig:
    return SolveConfig(n=n, m_max=m, mode=args.mode)


def _write_summary(args, system, fields: dict) -> None:
    doc = {"command": args.command, "problem": system.name or str(args.problem), **fields}
    _write_json(Path(args.out_dir) / "summary.json", doc)


def _parse_int_list(text: str, what: str) -> list:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"{what} must be a comma-separated list of integers") from exc
    if not values:
        raise ValueError(f"{what} must not be empty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{what} must be strictly ascending")
    return values


def _max_error(system, report) -> float:
    """The largest error of ``report`` against its closed form.

    The nodes are strictly increasing, or ``make_grid`` raised before the
    solve.  Finite errors of a finite iterate imply a finite closed form, so
    the closed form is checked, naming where it is not finite, only when the
    largest error is not; an error past float64 raises ``ValueError`` too.
    """
    max_abs = float(np.max(report.errors))
    if not math.isfinite(max_abs):
        ReferenceSolution(report.grid.nodes, report.exact, ("closed_form", system.name))
        raise _overflow("error", report, report.exact)
    return max_abs


def _overflow(what, report, ref):
    """The ``ValueError`` for ``|u - ref|`` past float64, where ``u`` is the
    solution of ``report`` and ``ref`` is finite, (k, n): it names the first
    component and ``t`` where the difference overflows."""
    values = report.nodal_values()
    j, i = np.argwhere(~np.isfinite(values - ref))[0]
    return ValueError(
        f"{what} of component {j + 1} overflows float64 at t={report.grid.nodes[i]} "
        f"({values[j, i]} against {ref[j, i]})"
    )


def _rk4_scores(system: IvpSystem, configs: list) -> tuple:
    """``ivim converge`` without a closed form: solve each config in turn, as
    ``solve_each`` yields it, and return ``(errors, fields)``, each point's
    ``max_abs`` against one RK4 run and the summary fields ``rk4_steps`` and
    ``rk4_error_estimate``.  Every point's grid is built first, so a grid
    whose nodes collapse is rejected before any RK4 run.

    The run is sized by step doubling (Richardson; Hairer, Norsett and
    Wanner, *Solving ODEs I*, II.4).  Before any solve it runs ``N = n_max -
    1`` and ``2N`` steps, then scores every point against the ``2N`` run.  It
    stops once ``max|y_2N - y_N| / 15`` at the nodes of the finest grid, the
    estimate of the ``2N`` run's error, is at most 1e-6 times the smallest
    error; otherwise it doubles ``N`` and scores again.  Every ``n - 1`` must
    divide ``n_max - 1``, so every grid node is a node of every run.

    Otherwise one run of ``100 (n_max - 1)`` steps is the reference, with no
    estimate: when an ``n - 1`` does not divide ``n_max - 1``, a candidate run
    raises, an error against one is zero or not finite, or the next run would
    pass ``100 (n_max - 1)`` steps.  At worst that is ``(1 + 2 + ... + 64)
    (n_max - 1)`` candidate steps and ``100 (n_max - 1)`` more.  An error past
    float64 against that run raises ``ValueError`` at the first such point,
    before the next is solved.
    """
    reports, points = [], solve_each(system, configs)

    def errors(ref) -> list:
        # each point's error in turn, solving it on first use; stops after
        # the first one past float64
        found = []
        for i in range(len(configs)):
            if i == len(reports):
                reports.append(next(points))
            found.append(error_metrics(reports[i], ref).max_abs)
            if not math.isfinite(found[-1]):
                break
        return found

    def candidate(steps: int):
        try:
            return rk4_reference(system, length / steps)
        except Exception:  # the fixed run raises it again, or succeeds
            return None

    for n in dict.fromkeys(cfg.n for cfg in configs):
        make_grid(system.a, system.T, n)
    length = system.T - system.a
    cells = max(cfg.n for cfg in configs) - 1
    steps, fixed = cells, 100 * cells
    coarse = candidate(steps) if all(cells % (cfg.n - 1) == 0 for cfg in configs) else None
    while coarse is not None and 2 * steps <= fixed:
        fine = candidate(2 * steps)
        if fine is None:
            break
        found = errors(fine)
        if not all(0.0 < e < math.inf for e in found):
            break
        stride = steps // cells
        est = float(np.max(np.abs(fine.values[:, ::2 * stride] - coarse.values[:, ::stride]))) / 15
        if est <= 1e-6 * min(found):
            return found, {"rk4_steps": 2 * steps, "rk4_error_estimate": est}
        coarse, steps = fine, 2 * steps
    ref = rk4_reference(system, length / fixed)
    found = errors(ref)
    if not math.isfinite(found[-1]):
        report = reports[len(found) - 1]
        raise _overflow("error", report, ref.at(report.grid.nodes))
    return found, {"rk4_steps": fixed, "rk4_error_estimate": None}


def _cmd_solve(args) -> int:
    system, _ = get_problem(args.problem)
    report = solve(system, _config(args, args.n, args.m))
    out_dir = Path(args.out_dir)

    k = system.k
    nodes, exact = report.grid.nodes, report.exact
    header = ["t"] + [f"u{j + 1}" for j in range(k)]
    max_abs = None
    if exact is not None:
        max_abs = _max_error(system, report)
        header += [f"exact{j + 1}" for j in range(k)]
        header += [f"abs_err{j + 1}" for j in range(k)]
        header += ["log10_err"]

    def fill(block, s, e):
        # rows s .. e-1 of nodes, nodal values, exact, |values - exact| and log10(errors)
        block[0] = nodes[s:e]
        values = report.nodal_values(s, e, out=block[1:k + 1])
        if exact is not None:
            block[k + 1:2 * k + 1] = exact[:, s:e]
            errs = np.subtract(values, exact[:, s:e], out=block[2 * k + 1:3 * k + 1])
            np.abs(errs, out=errs)
            np.log10(report.errors[s:e], out=block[-1])  # an exact zero is -inf

    _write_csv(out_dir / "solution.csv", header, _float_rows(len(header), nodes.size, fill))

    _write_summary(args, system, {
        "n": args.n,
        "m": args.m,
        "mode": args.mode,
        "iterations_run": report.iterations_run,
        "max_abs_error": max_abs,
        "wall_time_s": round(report.wall_time, 3),
    })
    return 0


def _cmd_converge(args) -> int:
    system, _ = get_problem(args.problem)
    if (args.n_list is None) == (args.m_list is None):
        raise ValueError("provide exactly one of --n-list or --m-list")
    swept, fixed = ("n", "m") if args.n_list is not None else ("m", "n")
    if getattr(args, fixed) is None:
        raise ValueError(f"--{swept}-list requires a fixed --{fixed}")
    if getattr(args, swept) is not None:
        raise ValueError(
            f"--{swept} cannot be combined with --{swept}-list, which gives every {swept}"
        )
    values = _parse_int_list(getattr(args, f"{swept}_list"), f"--{swept}-list")
    points = [(v, args.m) for v in values] if swept == "n" else [(args.n, v) for v in values]

    configs = [_config(args, n, m) for n, m in points]

    started = time.perf_counter()
    # a closed form scores a point by report.errors; without one, every point
    # is scored against one RK4 run sized by step doubling
    if system.exact is None:
        errors, fields = _rk4_scores(system, configs)
    else:
        # an --m-list is one run; each report is dropped once scored, and
        # an error past float64 raises before the next point is solved
        score = functools.partial(_max_error, system)
        errors, fields = list(map(score, solve_each(system, configs))), {}
    rows = []
    prev = None  # (cells, max_abs)
    for (n, m), max_abs in zip(points, errors):
        order = ""
        if prev is not None and prev[0] * 2 == n - 1 and max_abs > 0.0 and prev[1] > 0.0:
            order = _FLOAT % empirical_order(prev[1], max_abs)
        rows.append(f"{n},{m},{_FLOAT % max_abs},{order}\n".encode("ascii"))
        prev = (n - 1, max_abs)

    out_dir = Path(args.out_dir)
    _write_csv(out_dir / "convergence.csv", ["n", "m", "max_abs", "observed_order"], rows)
    _write_summary(args, system, {
        "mode": args.mode,
        "points": [{"n": n, "m": m} for n, m in points],
        "max_abs": errors,
        **fields,
        "wall_time_s": round(time.perf_counter() - started, 3),
    })
    return 0


def _cmd_compare(args) -> int:
    system, _ = get_problem(args.problem)
    report = solve(system, _config(args, args.n, args.m))
    rk_started = time.perf_counter()
    ref = rk4_reference(system, args.rk4_step)
    rk_wall = time.perf_counter() - rk_started

    k = system.k
    nodes = report.grid.nodes
    ivim_vals = report.nodal_values()
    rk_vals = ref.at(nodes)
    gaps = np.abs(ivim_vals - rk_vals)
    max_gap = float(np.max(gaps))
    if not math.isfinite(max_gap):
        raise _overflow("gap", report, rk_vals)

    header = (
        ["t"]
        + [f"ivim{j + 1}" for j in range(k)]
        + [f"rk4_{j + 1}" for j in range(k)]
        + [f"gap{j + 1}" for j in range(k)]
    )
    columns = [nodes[None], ivim_vals, rk_vals, gaps]

    def fill(block, s, e):
        np.concatenate([col[:, s:e] for col in columns], out=block)

    out_dir = Path(args.out_dir)
    _write_csv(out_dir / "compare.csv", header, _float_rows(len(header), nodes.size, fill))
    _write_summary(args, system, {
        "n": args.n,
        "m": args.m,
        "mode": args.mode,
        "rk4_step": args.rk4_step,
        "max_gap": max_gap,
        "wall_time_ivim_s": round(report.wall_time, 3),
        "wall_time_rk4_s": round(rk_wall, 3),
    })
    return 0


def _cmd_export(args) -> int:
    _, doc = get_problem(args.problem)
    _write_json(Path(args.out), doc)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ivim",
        description=(
            "Solve initial value problems by variational iteration on a "
            "piecewise-linear grid."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument(
        "--problem", required=True,
        help=f"built-in problem ({', '.join(builtin_names())}) or JSON file path",
    )
    run = argparse.ArgumentParser(add_help=False, parents=[problem])
    run.add_argument("--mode", choices=MODES, default="paper",
                     help="quadrature mode (default: paper)")
    run.add_argument("--out-dir", required=True, help="output directory")

    p = sub.add_parser("solve", parents=[run], help="run one solve and write solution.csv")
    p.add_argument("--n", type=int, required=True, help="grid node count (>= 2)")
    p.add_argument("--m", type=int, required=True, help="iteration count (>= 1)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("converge", parents=[run], help="error sweep over n or m")
    p.add_argument("--n-list", help="comma-separated ascending node counts")
    p.add_argument("--m-list", help="comma-separated ascending iteration counts")
    p.add_argument("--n", type=int, help="fixed n (with --m-list)")
    p.add_argument("--m", type=int, help="fixed m (with --n-list)")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("compare", parents=[run], help="side-by-side with a fixed-step RK4 run")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--rk4-step", type=float, required=True,
                   help="RK4 step; must divide T - a")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("export", parents=[problem], help="write a problem definition as JSON")
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=_cmd_export)

    return parser


# one parser serves every main() call in a process: parse_args keeps no state
# in it, and building one costs about 1 ms, more than the rest of the front end
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with np.errstate(all="ignore"):  # a non-finite value is classified where it arises
            return args.func(args)
    except DivergenceError as exc:
        print(f"ivim: divergence: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        print(f"ivim: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the size and shape
        print(f"ivim: error: {exc or 'out of memory'}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ivim: i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
