"""Self-test of the benchmark: is it steady, and does each workload stress
the layer it claims?

    python3 bench/selftest.py [--write FILE]

It runs every workload of BENCHMARK.json for BENCHMARK.json's run_seconds.
First one traced run per workload prints every per-layer metric and checks
that the workload's dominant layer takes at least half of a traced op there
and at most a tenth of an op on every other workload.  Then it makes SETS
sets of RUNS untraced runs per workload, each run with its own seed, and
prints every end-to-end metric's median and quartile spread per set.  It
checks, with the bounds in BENCHMARK.json, that each spread is within its
bound, and that no later set's median is worse than the first set's by more
than the bound.  It warns where a spread exceeds a third of its bound.
``--write`` stores everything as JSON.  Exits 1 if a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DOMINANT_SHARE = 0.5
MINOR_SHARE = 0.1
RUNS = 10
SETS = 2


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """One run of run.py; returns (env stamp, result object)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    stamp = json.loads(next(x for x in lines if x.startswith("# env "))[len("# env "):])
    return stamp, json.loads(lines[-1])


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", help="write all results as JSON to this file")
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer_names = {m["name"] for m in bench["per_layer"]}
    problems = []
    out = {"seconds": seconds, "runs": RUNS, "end_to_end": e2e, "traced": {},
           "sets": []}

    for name in names:
        stamp, res = run(name, 1, seconds, 1)
        out.setdefault("env", stamp)
        metrics = {k: v["value"] for k, v in res["metrics"].items()}
        out["traced"][name] = res
        print(f"\n== traced {name} ({res['attempted']} ops, {res['failed']} failed)")
        for k, v in res["metrics"].items():
            print(f"  {k:34} {v['value']!s:<24} {v['unit']}")
        if set(metrics) != layer_names or not res["correct"]:
            problems.append(f"traced {name}: wrong metric names or incorrect result")
            continue
        for other in names:
            layer = workloads.WORKLOADS[other].dominant
            share = metrics[layer] / metrics["trace.op_s"]
            need_major = other == name
            ok = share >= DOMINANT_SHARE if need_major else share <= MINOR_SHARE
            print(f"  share {layer:30} {share:7.3f} of trace.op_s "
                  f"(want {'>=' if need_major else '<='} "
                  f"{DOMINANT_SHARE if need_major else MINOR_SHARE}) {'ok' if ok else 'FAIL'}")
            if not ok:
                problems.append(f"{name}: {layer} share {share:.3f}")

    for s in range(SETS):
        values = {name: {m: [] for m in e2e} for name in names}
        for i in range(RUNS):
            seed = 1000 * (s + 1) + i
            for name in names:
                stamp, res = run(name, seed, seconds, 0)
                out.setdefault("env", stamp)
                if not res["correct"] or res["failed"] or set(res["metrics"]) != set(e2e):
                    problems.append(f"set {s + 1} {name} seed {seed}: {res}")
                    continue
                for m in e2e:
                    values[name][m].append(res["metrics"][m]["value"])
        out["sets"].append({name: {m: spread(v) for m, v in ms.items() if len(v) > 1}
                            for name, ms in values.items()})

    print(f"\n== {SETS} sets of {RUNS} untraced runs, {seconds} s each")
    for name in names:
        for m, spec in e2e.items():
            first = out["sets"][0][name].get(m) if out["sets"] else None
            if first is None:
                continue
            for s, st in enumerate(out["sets"]):
                cur = st[name][m]
                notes = []
                if cur["spread"] > spec["bound"]:
                    notes.append("SPREAD>BOUND")
                    problems.append(f"{name} {m} set {s + 1} spread {cur['spread']:.3f}")
                elif cur["spread"] > spec["bound"] / 3:
                    notes.append("spread>bound/3")
                worse = (cur["median"] - first["median"]) / first["median"]
                if spec["better"] == "higher":
                    worse = -worse
                if worse > spec["bound"]:
                    notes.append("WORSE>BOUND")
                    problems.append(f"{name} {m} set {s + 1} median worse by {worse:.3f}")
                print(f"  {name:15} {m:14} set {s + 1}: median {cur['median']:<12.6g} "
                      f"{spec['unit']:4} spread {cur['spread']:.4f} (bound {spec['bound']}) "
                      f"vs set 1 {worse:+.4f} {' '.join(notes)}")

    if args.write:
        Path(args.write).parent.mkdir(parents=True, exist_ok=True)
        Path(args.write).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    for p in problems:
        print(f"FAIL: {p}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
