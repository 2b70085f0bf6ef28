"""Run one benchmark workload once and report its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it measures the ``ivim``
package under ``src/`` of the checkout that holds this file, and fails if
there is none.  Each run makes its inputs from the seed, measures set-up
time in fresh interpreters, then starts one worker process (worker.py) that
calls ``ivim.cli.main`` in a closed loop for S seconds.  All files go to a
temporary directory under ``.bench_work/`` that is removed at the end.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced ops and reports the
per-layer metrics.  Times are wall seconds scaled to the reference machine
speed of calibrate.py; the report shows the raw wall medians beside them.
The report lists every metric by name and unit; its last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 175.0  # a run must end within 180 s
SETUP_RUNS = 15
SETUP_CODE = """\
import sys, time
sys.path.append(sys.argv[2])
import calibrate
calibrate.kernel_seconds()
before = calibrate.kernel_seconds()
started = time.perf_counter()
import ivim
ivim.get_problem(sys.argv[1])
elapsed = time.perf_counter() - started
print(elapsed, calibrate.scale(before, calibrate.kernel_seconds()))
"""


def child_env(tmp: Path) -> dict:
    """Environment for child interpreters: this checkout's sources, one thread."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        TMPDIR=str(tmp),
    )
    return env


def commit() -> str | None:
    """The checkout's commit, or None outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def measure_setup(problem: str, env: dict, deadline: float) -> tuple:
    """Median time from ``import ivim`` through ``get_problem`` in a fresh
    interpreter: (at the reference speed, raw wall seconds)."""
    scaled, wall = [], []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, problem, str(HERE)],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        elapsed, scale = map(float, done.stdout.split())
        scaled.append(elapsed * scale)
        wall.append(elapsed)
    return statistics.median(scaled), statistics.median(wall)


def end_to_end(res: dict, setup_s: float) -> dict:
    return {
        "op_s_p50": (statistics.median(res["op_s"]), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (res["peak_rss_mib"], "MiB"),
        "max_abs_error": (res["max_abs_error"], "abs"),
    }


def per_layer(res: dict) -> dict:
    layers = {name: tuple(pair) for name, pair in res["layers"].items()}
    ratio = statistics.median(res["traced_op_s"]) / statistics.median(res["op_s"]) - 1.0
    layers["trace.overhead_ratio"] = (ratio, "ratio")
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "ivim" / "__init__.py").is_file():
        print(f"run.py: no ivim package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=work_root))
    try:
        env = child_env(tmp)
        problem = str(inputs.write_problem(w.problem, args.seed, tmp)) if w.generated else w.problem
        setup = None if args.trace else measure_setup(problem, env, deadline)
        result_path = tmp / "result.json"
        worker = subprocess.run(
            [
                sys.executable, str(HERE / "worker.py"),
                "--workload", w.name, "--problem", problem,
                "--seconds", repr(args.seconds), "--trace", str(args.trace),
                "--out-dir", str(tmp / "out"), "--result", str(result_path),
            ],
            cwd=ROOT, env=env, timeout=max(1.0, deadline - time.monotonic()),
        )
        if worker.returncode != 0:
            print(f"run.py: worker exited with {worker.returncode}", file=sys.stderr)
            return 1
        res = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    for reason in res["failures"]:
        print(f"run.py: gate: {reason}", file=sys.stderr)
    stamp = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": res["python"], "numpy": res["numpy"], "nproc": os.cpu_count(),
        "machine": platform.machine(), "commit": commit(),
    }
    print("# env " + json.dumps(stamp))
    metrics = per_layer(res) if args.trace else end_to_end(res, setup[0])
    # the gate's failure share is 0 on a healthy run, so it is reported here
    # and through "failed"/"attempted", not as a bounded metric
    report = {"ops_failed_ratio": (res["failed"] / res["attempted"], "ratio"), **metrics}
    notes = {
        "ops_failed_ratio": f"{res['failed']} of {res['attempted']} ops",
        "op_s_p50": f"{len(res['op_s'])} samples; "
        f"raw wall p50 {statistics.median(res['op_wall_s']):.6g} s",
    }
    if not args.trace:
        notes["setup_s"] = f"{SETUP_RUNS} interpreters; raw wall p50 {setup[1]:.6g} s"
    else:
        notes["trace.overhead_ratio"] = (
            f"traced {statistics.median(res['traced_op_s']):.6g} s over "
            f"{len(res['traced_op_s'])} samples, untraced "
            f"{statistics.median(res['op_s']):.6g} s over {len(res['op_s'])}"
        )
    for name, (value, unit) in report.items():
        print(f"{name:34} {value!s:<24} {unit:6} {notes.get(name, '')}".rstrip())
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
