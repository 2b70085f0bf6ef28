"""One benchmark worker: runs a workload's ops in-process in a closed loop.

Started by run.py, one process per run, with ``src`` on PYTHONPATH and the
BLAS thread counts pinned to 1.  After one warm-up op it calls
``ivim.cli.main`` until the time is up, gates every op's artifacts and
writes its measurements as JSON to ``--result``.  Op times are scaled to
the reference speed of calibrate.py.  With ``--trace 1`` ops
alternate between untraced and traced, so both medians come from the same
process and the same stretch of time.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import sys
import time
from pathlib import Path

import calibrate
import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]


def _import_ivim():
    import ivim
    import ivim.cli
    import numpy

    src = (ROOT / "src").resolve()
    if src not in Path(ivim.__file__).resolve().parents:
        raise ImportError(f"ivim imported from {ivim.__file__}, not from {src}")
    return ivim.cli, numpy.__version__


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--problem", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    w = workloads.WORKLOADS[args.workload]
    cli, numpy_version = _import_ivim()
    out_dir = Path(args.out_dir)
    op_argv = list(w.argv) + ["--problem", args.problem, "--out-dir", str(out_dir)]
    artifacts = [out_dir / w.csv_name, out_dir / "summary.json"]
    tracer = spans.Tracer()

    first = None
    failures = []
    attempted = 0
    op_s = {False: [], True: []}  # keyed by "traced", at the reference speed
    op_wall_s = []  # untraced ops, raw wall seconds
    scales = {}  # traced op id -> its calibration factor

    def run_op(traced: bool) -> None:
        nonlocal first, attempted
        attempted += 1
        for path in artifacts:  # an op that writes nothing must not pass on old files
            path.unlink(missing_ok=True)
        gc.collect()
        if traced:
            tracer.op += 1
            tracer.install()
        before = calibrate.kernel_seconds()
        started = time.perf_counter()
        try:
            rc = tracer.call(spans.MAIN, cli.main, op_argv) if traced else cli.main(op_argv)
        except Exception as exc:  # a traceback fails the op; the run goes on
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started
        scale = calibrate.scale(before, calibrate.kernel_seconds())
        tracer.uninstall()
        op_s[traced].append(elapsed * scale)
        if traced:
            scales[tracer.op] = scale
        else:
            op_wall_s.append(elapsed)
        try:
            if rc != 0:
                raise workloads.GateError(f"exit code {rc}")
            if first is None:
                first = workloads.check_first(w, out_dir, out_dir.parent / "first")
            else:
                workloads.check_same(first, out_dir)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            failures.append(f"op {attempted}: {exc}")

    run_op(False)  # warm-up: caches, lazy imports, the reference artifacts
    op_s[False].clear()
    op_wall_s.clear()
    deadline = time.perf_counter() + args.seconds
    traced = False
    while time.perf_counter() < deadline or not op_s[False] or (args.trace and not op_s[True]):
        run_op(traced)
        if args.trace:
            traced = not traced

    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "op_s": op_s[False],
        "op_wall_s": op_wall_s,
        "traced_op_s": op_s[True],
        "max_abs_error": first["max_abs_error"] if first else None,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }
    if args.trace and first is not None:
        layers = spans.layer_metrics(
            tracer.spans,
            scales,
            cells=first["cells"],
            bytes_written=first["bytes_written"],
        )
        result["layers"] = {name: list(pair) for name, pair in layers.items()}
    Path(args.result).write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
