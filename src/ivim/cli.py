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


# Rows per spelled block.  A block holds about 320 bytes of reused work
# arrays a cell, and as much again in temporaries.  On the benchmark's
# solve_csv (8 columns) 1024 rows were faster than 512 or 768 and kept the
# peak memory below that of stacking all the columns at once.
_BLOCK_ROWS = 1024
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


# --- %.17g for whole arrays --------------------------------------------------
#
# "%.17g" % x asks CPython's dtoa (Gay, "Correctly rounded binary-decimal and
# decimal-binary conversions", 1990) for 17 digits, past its floating-point
# fast path, so every cell costs a bignum conversion.  _Speller finds the
# same bytes with numpy, a block of cells at a time.  For a = |x|,
# e = floor(log10(a)) and p = 16 - e, the digits are y = a * 10**p rounded to
# an integer D in [10**16, 10**17), with exponent X = e.
#
# * 10**p is the double-double P_hi + P_lo of _spelling_tables, made by exact
#   integer arithmetic.  a * P_hi = hi + err exactly by Dekker's TwoProduct
#   (Numer. Math. 18, 1971) with Veltkamp's split; every step is its own
#   ufunc, so none is fused into an FMA.  y is taken as hi + lo with
#   lo = err + a * P_lo.  Its error is below 2**-46 while y < 2**57:
#   a * |P_hi + P_lo - 10**p| <= 2**-106 * y, and rounding a * P_lo and then
#   err + a * P_lo (both below 2**5) adds at most 2**-49 each.
# * For 0 <= p <= 22, 10**p is a double (P_lo == 0), so hi + lo is y exactly:
#   a fraction of exactly 1/2 is a real tie, and rounds half to even as dtoa
#   does.  For every other p a fraction within 2**-20 of 1/2 might round
#   either way, so the cell goes to the fallback.
# * e comes from a rounded log10 and can be one off next to a power of ten,
#   so a cell falls back unless 10**16 <= y and D < 10**17.  D >= 10**17 is
#   an e one too low or a y within 1/2 of 10**17.  The lower edge tests
#   D0 = hi + floor(lo) before rounding: that is floor(hi + lo) exactly, as
#   hi >= 2**53 is an integer and a smaller hi leaves D0 below 10**16.  Only
#   a true y within 2**-46 of 10**16 could land on the wrong side; adjacent
#   doubles give y more than 1 apart there, so only the doubles next to
#   10**e can, and the tests spell 10.0**k and its neighbours for every k.
# * The fallback is "%.17g" % x itself.  It takes the cells above, +-0, +-inf,
#   nan and |x| outside [1e-290, 1e290), where the split or the table could
#   overflow.
#
# The text of a cell is a row of the layout table, chosen by the sign, the
# class of X (one per X in -4..16, which %g spells in fixed notation, and
# four for the sign and digit count of an exponent) and the count of
# significant digits (%g drops trailing zeros and a bare point).  The row
# lists, for each output byte, a byte of the cell's 28-byte source: its 17
# digits, the four digits of |X| and the constants.  It is padded with NUL to
# 24 bytes, the longest %.17g, and ends with the separator; one
# bytes.translate drops the padding of a whole block.

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_P_MIN, _P_MAX = 16 - 290, 16 + 291  # p for e in [-291, 290], log10's range
_WIDTH = 24
_FALLBACK = "%-24.17g"  # %.17g padded with spaces, which translate drops
# A cell's 28-byte source is seven 4-byte words: d1..d16, |X| as four digits,
# then d0 (over the NUL) with ".0-", and "e+", the separator and a NUL.
_LEAD = b"\0.0-"
_DIGIT = (20,) + tuple(range(16))  # the source byte of digit k
_EXP3 = (17, 18, 19)  # |X| as three digits; as two, the last two
_DOT, _ZERO, _MINUS, _E, _PLUS, _SEP, _NUL = range(21, 28)


def _layout(neg: bool, xclass: int, sig: int) -> list:
    out = [_MINUS] if neg else []
    if xclass <= 20:  # fixed notation, X = xclass - 4
        X = xclass - 4
        if X >= 0:  # the integer part keeps its zeros
            ndigits = max(sig, X + 1)
            out += _DIGIT[:X + 1]
            if ndigits > X + 1:
                out += [_DOT, *_DIGIT[X + 1:ndigits]]
        else:
            out += [_ZERO, _DOT] + [_ZERO] * (-X - 1) + list(_DIGIT[:sig])
    else:  # 21: X <= -100, 22: -99 <= X <= -5, 23: 17 <= X <= 99, 24: X >= 100
        out += _DIGIT[:1]
        if sig > 1:
            out += [_DOT, *_DIGIT[1:sig]]
        out += [_E, _MINUS if xclass <= 22 else _PLUS]
        out += _EXP3 if xclass in (21, 24) else _EXP3[1:]
    return out + [_NUL] * (_WIDTH - len(out)) + [_SEP]


@functools.cache
def _spelling_tables() -> tuple:
    """(powers, quads, zeros, layout), built once per process on first use.

    Row p - _P_MIN of ``powers`` is 10**p as the double-double (hi, lo) and
    hi's Veltkamp halves.  ``quads[g]`` is g < 10**4 as four ASCII digits in
    one uint32 and ``zeros[g]`` its count of trailing zero digits.  Row
    ``(neg * 25 + xclass) * 17 + sig - 1`` of ``layout`` is ``_layout``'s.
    """
    powers = []
    for p in range(_P_MIN, _P_MAX + 1):
        if p >= 0:
            hi = float(10**p)
            lo = float(10**p - int(hi))
        else:
            q = 10**-p
            hi = 1 / q  # int division rounds correctly
            num, den = hi.as_integer_ratio()
            lo = (den - num * q) / (den * q)
        m, ex = math.frexp(hi)  # split the mantissa, where m * _SPLIT cannot overflow
        s = m * _SPLIT
        m_hi = s - (s - m)
        powers.append((hi, lo, math.ldexp(m_hi, ex), math.ldexp(m - m_hi, ex)))
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T  # row g: the digits of g
    quads = np.ascontiguousarray(digits + ord("0")).view(np.uint32).ravel()
    zeros = (digits[:, ::-1] == 0).cumprod(axis=1).sum(axis=1, dtype=np.uint8)
    layout = [_layout(neg, xclass, sig) for neg in (False, True)
              for xclass in range(25) for sig in range(1, 18)]
    return np.array(powers), quads, zeros, np.array(layout, np.intp)


class _Speller:
    """Spells rows of ``c`` cells, at most ``cells`` cells a call, as CSV bytes.

    Its work arrays of more than eight bytes a cell are made once and reused.
    Made afresh for each block, they went back to the system and were faulted
    in again as new pages, which about doubled the time of a solve_csv op.
    """

    def __init__(self, cells: int, c: int):
        self.groups = np.empty((cells, 5), np.intp)  # d1..d4 .. d13..d16, |X|
        self.quads = np.empty((cells, 5), np.uint32)
        self.source = np.empty((cells, 7), np.uint32)
        self.source[:, 5] = np.frombuffer(_LEAD, np.uint32)
        tails = b"e+,\0" * (c - 1) + b"e+\n\0"
        self.source.reshape(-1, c, 7)[:, :, 6] = np.frombuffer(tails, np.uint32)
        self.offsets = np.arange(0, 7 * 4 * cells, 7 * 4)[:, None]  # of each source row
        self.at = np.empty((cells, _WIDTH + 1), np.intp)
        self.text = np.empty((cells, _WIDTH + 1), np.uint8)

    def __call__(self, x: np.ndarray) -> bytes:
        """The rows of the flat float64 array ``x``, comma-separated and
        newline-terminated, each cell the bytes of ``"%.17g" % cell``."""
        powers, quads, zeros, layout = _spelling_tables()
        n = x.size
        a = np.abs(x)
        fast = (a >= 1e-290) & (a < 1e290)  # False for nan
        a[~fast] = 1.0  # keeps log10 and the products quiet
        e = np.floor(np.log10(a)).astype(np.intp)
        p_hi, p_lo, h_hi, h_lo = powers.take(16 - _P_MIN - e, axis=0).T
        s = a * _SPLIT
        a_hi = s - (s - a)
        a_lo = a - a_hi
        hi = a * p_hi
        lo = ((a_hi * h_hi - hi) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo
        lo += a * p_lo
        whole = np.floor(lo)
        frac = lo - whole  # exact
        D = hi.astype(np.int64) + whole.astype(np.int64)
        exact = p_lo == 0.0
        slow = ~fast | (~exact & (np.abs(frac - 0.5) < 2.0**-20)) | (D < 10**16)
        D += (frac > 0.5) | ((frac == 0.5) & exact & ((D & 1) == 1))
        slow |= D >= 10**17
        X = e
        D[slow] = 10**16  # any valid digits; the fallback replaces the text
        X[slow] = 0

        G = self.groups[:n]
        top, low = np.divmod(D, 10**8)
        d0, mid = np.divmod(top, 10**8)
        np.divmod(mid, 10**4, out=(G[:, 0], G[:, 1]))
        np.divmod(low, 10**4, out=(G[:, 2], G[:, 3]))
        np.abs(X, out=G[:, 4])
        source = self.source[:n]
        # take into an out array fills a temporary first unless mode="clip";
        # every index here is in range
        source[:, :5] = quads.take(G, out=self.quads[:n], mode="clip")
        src = source.view(np.uint8)
        src[:, 20] = d0 + ord("0")

        z = zeros.take(G[:, :4])
        tz = z[:, 3].astype(np.intp)  # trailing zeros of d1..d16
        for j in (2, 1, 0):  # four zeros carry the count into the group before
            tz += (tz == 12 - 4 * j) * z[:, j]
        fixed = (X >= -4) & (X < 17)
        xclass = np.where(fixed, X + 4, 21 + (X > -100) + (X >= 17) + (X >= 100))
        kind = ((x < 0) * 25 + xclass) * 17 + (16 - tz)
        at = layout.take(kind, axis=0, out=self.at[:n], mode="clip")
        at += self.offsets[:n]
        text = src.ravel().take(at, out=self.text[:n], mode="clip")
        i = np.flatnonzero(slow)
        if i.size:
            spelled = (_FALLBACK * i.size) % tuple(x[i].tolist())
            text[i, :_WIDTH] = np.frombuffer(spelled.encode("ascii"), np.uint8).reshape(-1, _WIDTH)
        return text.tobytes().translate(None, b"\0 ")


def _float_rows(columns: list) -> Iterator[bytes]:
    """CSV rows of equal-length columns, as bytes, one block of rows at a time.

    ``columns`` holds 1-D arrays (one column each) and 2-D arrays (one column
    per row).  Only a block of rows is stacked at a time.  Every value is
    spelled ``%.17g`` (round-trip exact; ``-inf``, ``inf`` and ``nan`` as
    such), the same bytes as ``f"{x:.17g}"`` per cell.
    """
    c = sum(1 if col.ndim == 1 else col.shape[0] for col in columns)
    n = columns[0].shape[-1]
    spell = _Speller(min(n, _BLOCK_ROWS) * c, c)
    for s in range(0, n, _BLOCK_ROWS):
        block = np.vstack([col[..., s:s + _BLOCK_ROWS] for col in columns])
        yield spell(block.ravel(order="F"))


def _write_csv(path: Path, header: list, rows: Iterable[bytes]) -> None:
    _write_atomic(path, itertools.chain([(",".join(header) + "\n").encode("ascii")], rows))


def _write_json(path: Path, doc: dict) -> None:
    _write_atomic(path, [(json.dumps(doc, indent=2) + "\n").encode("utf-8")])


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
        errs = np.subtract(values, report.exact)
        np.abs(errs, out=errs)
        with np.errstate(divide="ignore"):  # an exact zero is -inf
            log_err = np.log10(report.errors)
        header += [f"exact{j + 1}" for j in range(k)]
        header += [f"abs_err{j + 1}" for j in range(k)]
        header += ["log10_err"]
        columns += [report.exact, errs, log_err]
        max_abs = float(np.max(report.errors))
    _write_csv(out_dir / "solution.csv", header, _float_rows(columns))

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
        rows.append(f"{n},{m},{_FLOAT % max_abs},{order}\n".encode("ascii"))
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
    out_dir = Path(args.out_dir)
    _write_csv(out_dir / "compare.csv", header, _float_rows([nodes, ivim_vals, rk_vals, gaps]))
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
