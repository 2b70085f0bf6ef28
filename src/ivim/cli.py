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
import itertools
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .engine import MODES, DivergenceError, SolveConfig, solve
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


# Rows per formatted block: one ``%`` call spells a whole block, so the
# per-call overhead vanishes while the text held at once stays small.
_BLOCK_ROWS = 4096
_FLOAT = "%.17g"


def _write_text_atomic(path: Path, chunks: Iterable[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _float_rows(columns: np.ndarray) -> Iterator[str]:
    """CSV rows of a ``(c, n)`` float array, one string per block of rows.

    Every value is spelled ``%.17g`` (round-trip exact; ``-inf``, ``inf`` and
    ``nan`` as such), the same bytes as ``f"{x:.17g}"`` per cell.
    """
    c, n = columns.shape
    row = ",".join([_FLOAT] * c) + "\n"
    for s in range(0, n, _BLOCK_ROWS):
        block = columns[:, s:s + _BLOCK_ROWS]
        yield row * block.shape[1] % tuple(block.T.ravel().tolist())


def _write_csv(path: Path, header: list, rows: Iterable[str]) -> None:
    _write_text_atomic(path, itertools.chain([",".join(header) + "\n"], rows))


def _write_json(path: Path, doc: dict) -> None:
    _write_text_atomic(path, [json.dumps(doc, indent=2) + "\n"])


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


def _cmd_solve(args) -> int:
    system, _ = get_problem(args.problem)
    cfg = SolveConfig(n=args.n, m_max=args.m, mode=args.mode)
    report = solve(system, cfg)
    out_dir = Path(args.out_dir)

    k = system.k
    nodes = report.grid.nodes
    values = report.nodal_values()
    header = ["t"] + [f"u{j + 1}" for j in range(k)]
    columns = [nodes, values]
    max_abs = None
    if report.exact is not None:
        ReferenceSolution(nodes, report.exact, ("closed_form", system.name))  # checks it is finite
        errs = np.abs(values - report.exact)
        with np.errstate(divide="ignore"):  # an exact zero is -inf
            log_err = np.log10(report.errors)
        header += [f"exact{j + 1}" for j in range(k)]
        header += [f"abs_err{j + 1}" for j in range(k)]
        header += ["log10_err"]
        columns += [report.exact, errs, log_err]
        max_abs = float(np.max(report.errors))
    _write_csv(out_dir / "solution.csv", header, _float_rows(np.vstack(columns)))

    _write_json(
        out_dir / "summary.json",
        {
            "command": "solve",
            "problem": system.name or str(args.problem),
            "n": args.n,
            "m": args.m,
            "mode": args.mode,
            "iterations_run": report.iterations_run,
            "max_abs_error": max_abs,
            "wall_time_s": round(report.wall_time, 3),
        },
    )
    return 0


def _cmd_converge(args) -> int:
    system, _ = get_problem(args.problem)
    if (args.n_list is None) == (args.m_list is None):
        raise ValueError("provide exactly one of --n-list or --m-list")
    if args.n_list is not None:
        if args.m is None:
            raise ValueError("--n-list requires a fixed --m")
        if args.n is not None:
            raise ValueError("--n cannot be combined with --n-list, which gives every n")
        n_values = _parse_int_list(args.n_list, "--n-list")
        points = [(n, args.m) for n in n_values]
    else:
        if args.n is None:
            raise ValueError("--m-list requires a fixed --n")
        if args.m is not None:
            raise ValueError("--m cannot be combined with --m-list, which gives every m")
        m_values = _parse_int_list(args.m_list, "--m-list")
        points = [(args.n, m) for m in m_values]

    configs = [SolveConfig(n=n, m_max=m, mode=args.mode) for n, m in points]

    started = time.perf_counter()
    # a closed form scores a point by report.errors; without one, every point
    # is scored against one RK4 run, 100x finer than the finest grid
    rk4 = None
    if system.exact is None:
        n_max = max(n for n, _ in points)
        rk4 = rk4_reference(system, (system.T - system.a) / (100 * (n_max - 1)))
    rows = []
    errors = []
    prev = None  # (cells, max_abs)
    for (n, m), cfg in zip(points, configs):
        report = solve(system, cfg)
        if rk4 is None:  # checks the closed form is finite, naming where
            ReferenceSolution(report.grid.nodes, report.exact, ("closed_form", system.name))
        max_abs = error_metrics(report, rk4).max_abs if rk4 else float(np.max(report.errors))
        order = ""
        if prev is not None and prev[0] * 2 == n - 1 and max_abs > 0.0 and prev[1] > 0.0:
            order = _FLOAT % empirical_order(prev[1], max_abs)
        rows.append(f"{n},{m},{_FLOAT % max_abs},{order}\n")
        errors.append(max_abs)
        prev = (n - 1, max_abs)

    out_dir = Path(args.out_dir)
    _write_csv(out_dir / "convergence.csv", ["n", "m", "max_abs", "observed_order"], rows)
    _write_json(
        out_dir / "summary.json",
        {
            "command": "converge",
            "problem": system.name or str(args.problem),
            "mode": args.mode,
            "points": [{"n": n, "m": m} for n, m in points],
            "max_abs": errors,
            "wall_time_s": round(time.perf_counter() - started, 3),
        },
    )
    return 0


def _cmd_compare(args) -> int:
    system, _ = get_problem(args.problem)
    report = solve(system, SolveConfig(n=args.n, m_max=args.m, mode=args.mode))
    rk_started = time.perf_counter()
    ref = rk4_reference(system, args.rk4_step)
    rk_wall = time.perf_counter() - rk_started

    k = system.k
    nodes = report.grid.nodes
    ivim_vals = report.nodal_values()
    rk_vals = ref.at(nodes)
    gaps = np.abs(ivim_vals - rk_vals)

    header = (
        ["t"]
        + [f"ivim{j + 1}" for j in range(k)]
        + [f"rk4_{j + 1}" for j in range(k)]
        + [f"gap{j + 1}" for j in range(k)]
    )
    columns = np.vstack([nodes, ivim_vals, rk_vals, gaps])
    out_dir = Path(args.out_dir)
    _write_csv(out_dir / "compare.csv", header, _float_rows(columns))
    _write_json(
        out_dir / "summary.json",
        {
            "command": "compare",
            "problem": system.name or str(args.problem),
            "n": args.n,
            "m": args.m,
            "mode": args.mode,
            "rk4_step": args.rk4_step,
            "max_gap": float(np.max(gaps)),
            "wall_time_ivim_s": round(report.wall_time, 3),
            "wall_time_rk4_s": round(rk_wall, 3),
        },
    )
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
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
