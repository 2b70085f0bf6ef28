"""Benchmark workloads and the per-op correctness gate.

Every workload is one ``ivim`` command line run in a closed loop by a single
caller.  Each stresses a different module (``dominant``), and the traced run
checks that this layer takes most of an op there and little of an op on the
other workloads.  BENCHMARK.json records why each workload was chosen.
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import inputs


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple  # CLI arguments apart from --problem and --out-dir
    problem: str  # built-in name, or a generator kind from inputs.GENERATORS
    rows: int  # data rows in the CSV artifact
    tolerance: Callable[[int, int], float]  # bound on a point's max_abs, from (n, m)
    decreasing: bool  # errors must not increase along the sweep
    min_order: Optional[float]  # least observed_order on every doubling row
    dominant: str  # per-layer time metric that should dominate an op

    @property
    def generated(self) -> bool:
        return self.problem in inputs.GENERATORS

    @property
    def csv_name(self) -> str:
        return "solution.csv" if self.argv[0] == "solve" else "convergence.csv"


_STIFF_N = (1025, 2049, 4097)
_GUESS_N = (2049, 4097, 8193, 16385, 32769, 65537)


def _first_order(width: float, n: int) -> float:
    """Paper mode is first order in h = width / (n - 1); the constant is width."""
    return width * width / (n - 1)


def _picard(m: int) -> float:
    """Damped pendulum after m sweeps from u(a): the Picard remainder
    max|u - u(a)| (L (T - a))^m / m!, with L = max(1, w2) and
    max|u - u(a)| <= 2 theta0."""
    lip = max(1.0, inputs.PENDULUM_W2[1]) * inputs.PENDULUM_T
    return 2.0 * inputs.PENDULUM_THETA0[1] * lip**m / math.factorial(m)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="solve_csv",
            argv=("solve", "--n", "65537", "--m", "10"),
            problem="ex3",
            rows=65537,
            tolerance=lambda n, m: _first_order(1.5, n),  # T - a = 1.5
            decreasing=False,
            min_order=None,
            dominant="cli.self_s",
        ),
        Workload(
            name="converge_guess",
            argv=("converge", "--m", "10", "--n-list", ",".join(map(str, _GUESS_N))),
            problem="ex2",
            rows=len(_GUESS_N),
            # T - a = 3.  ex2 is not first order in h (a known, documented
            # red): at m = 10 its error sits on a floor that does not shrink
            # with n.  So every point is held to the bound at the coarsest
            # grid, and neither a decrease in n nor an order is gated.
            tolerance=lambda n, m: _first_order(3.0, _GUESS_N[0]),
            decreasing=False,
            min_order=None,
            dominant="grid.project_samples_s",
        ),
        Workload(
            name="converge_stiff",
            argv=(
                "converge", "--m", "8", "--mode", "full_trapezoid",
                "--n-list", ",".join(map(str, _STIFF_N)),
            ),
            problem="stiff",
            rows=len(_STIFF_N),
            # full_trapezoid is second order; the leading error term is
            # (alpha h)^2 A / 12 with A = A0 (SPAN_REF / alpha)^2 and T - a = 1
            tolerance=lambda n, m: inputs.STIFF_A0 * inputs.STIFF_SPAN_REF**2 / (n - 1) ** 2,
            decreasing=True,
            min_order=1.9,
            dominant="engine.update_s",
        ),
        Workload(
            name="converge_rk4",
            argv=("converge", "--n", "129", "--m-list", "1,4,16"),
            problem="pendulum",
            rows=3,
            # m sweeps leave the Picard remainder on top of the first-order
            # grid error
            tolerance=lambda n, m: _picard(m) + _first_order(inputs.PENDULUM_T, n),
            decreasing=True,
            min_order=None,
            dominant="reference.rk4_s",
        ),
    )
}


class GateError(ValueError):
    """An op's artifacts fail the correctness gate."""


def _strict_json(text: str):
    def reject(token):
        raise GateError(f"summary.json holds non-finite {token}")

    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise GateError(f"summary.json is not valid JSON: {exc}") from exc


def _gate_csv(w: Workload, path: Path) -> int:
    """Stream the CSV artifact through the row, field and finiteness checks;
    returns the number of data cells.  Only one line is held at a time, so
    the gate adds next to nothing to the worker's peak memory."""
    rows = 0
    header = None
    with open(path, encoding="utf-8", newline="") as fh:
        for line in fh:
            if not line.endswith("\n"):
                raise GateError(f"{w.csv_name} does not end with a newline")
            fields = line[:-1].split(",")
            if header is None:
                header = fields
                continue
            rows += 1
            if len(fields) != len(header):
                raise GateError(f"{w.csv_name} row {rows} has {len(fields)} fields")
            for col, field in zip(header, fields):
                _check_field(w, rows, col, field)
    if rows != w.rows:
        raise GateError(f"{w.csv_name} has {rows} rows, expected {w.rows}")
    return rows * len(header)


def _check_field(w: Workload, row: int, col: str, field: str) -> None:
    if col == "log10_err" and field == "-inf":
        return
    if col == "observed_order" and field == "":
        if w.min_order is not None and row > 1:
            raise GateError(f"{w.csv_name} row {row} has no observed_order")
        return
    value = float(field)
    if not math.isfinite(value):
        raise GateError(f"{w.csv_name} row {row} {col} is {field}")
    if col == "observed_order" and w.min_order is not None and value < w.min_order:
        raise GateError(f"{w.csv_name} row {row} observed_order {value} < {w.min_order}")


def _point_errors(w: Workload, summary: dict) -> list:
    """[(n, m, max_abs)] for every point the CLI reported."""
    if w.argv[0] == "solve":
        return [(summary["n"], summary["m"], summary["max_abs_error"])]
    points = summary["points"]
    if len(points) != len(summary["max_abs"]):
        raise GateError(f"summary.json has {len(points)} points, {len(summary['max_abs'])} errors")
    return [(p["n"], p["m"], e) for p, e in zip(points, summary["max_abs"])]


def check_first(w: Workload, out_dir: Path, keep_dir: Path) -> dict:
    """Full gate on an op's artifacts; returns what later ops are compared to.

    The artifacts are copied to ``keep_dir``.  The result holds their paths
    (``kept``), the CSV cell count
    (``cells``), the artifacts' total size (``bytes_written``) and the error
    the CLI reported, as the max over its points (``max_abs_error``).  Every
    point's error must be within the workload's tolerance, and along the
    sweep must not increase where the workload says so.
    """
    names = (w.csv_name, "summary.json")
    keep_dir.mkdir(parents=True, exist_ok=True)
    cells = _gate_csv(w, out_dir / w.csv_name)
    summary = _strict_json((out_dir / "summary.json").read_text(encoding="utf-8"))
    errors = _point_errors(w, summary)
    for n, m, err in errors:
        tol = w.tolerance(n, m)
        if not (isinstance(err, float) and 0.0 < err <= tol):
            raise GateError(f"max_abs at n={n} m={m} is {err!r}, outside (0, {tol:.3g}]")
    if w.decreasing:
        for (n, m, err), (_, _, prev) in zip(errors[1:], errors):
            if err > prev:
                raise GateError(f"max_abs rises to {err!r} at n={n} m={m}")
    return {
        "kept": {name: shutil.copyfile(out_dir / name, keep_dir / name) for name in names},
        "cells": cells,
        "bytes_written": sum((out_dir / name).stat().st_size for name in names),
        "max_abs_error": max(err for _, _, err in errors),
    }


def _same_stable_lines(a: Path, b: Path) -> bool:
    """Whether two files agree apart from lines holding ``wall_time``; both
    are streamed, so no artifact is held in memory."""
    with open(a, "rb") as fa, open(b, "rb") as fb:
        stable_a = (line for line in fa if b"wall_time" not in line)
        stable_b = (line for line in fb if b"wall_time" not in line)
        return all(x == y for x, y in itertools.zip_longest(stable_a, stable_b))


def check_same(first: dict, out_dir: Path) -> None:
    """Later ops must reproduce the first op's artifacts, wall_time lines aside."""
    for name, kept in first["kept"].items():
        if not _same_stable_lines(kept, out_dir / name):
            raise GateError(f"{name} differs from the first op")
    _strict_json((out_dir / "summary.json").read_text(encoding="utf-8"))
