"""SHA-256 digests of the CLI artifacts of every built-in, for the C10 check
that a refactor leaves every output byte where it was.

The table ``c10_digests.json`` beside this file holds one digest per artifact
of ``solve``, ``converge`` (an n-list and an m-list) and ``compare`` on
ex1..ex3 and on ``rotation.json`` (a closed form with ``u(a) != 0`` and a
nonzero alpha) in both modes, at fixed small sizes.  Lines that contain
``wall_time`` are masked out before hashing.  The table also records the
numpy version and ``platform.machine()`` it was made with, since a different
numpy or CPU may round a ufunc differently.  numpy picks its ufunc kernels
at run time by the CPU's SIMD tier (``X86_V2``, ``X86_V3`` or ``X86_V4`` on
x86-64), and ``exp``, ``power`` and ``log10`` round differently between
tiers, so the table holds one digest set per tier.  To record it afresh,
from the repository root::

    PYTHONPATH=src python tests/_artifacts.py

That records the host's own tier, and each lower tier in a child
interpreter that ``NPY_DISABLE_CPU_FEATURES`` holds to it.  A host without
AVX-512 records no ``X86_V4`` set.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as _umath

import ivim
from ivim.cli import main as cli_main

TABLE = Path(__file__).with_name("c10_digests.json")

# label -> the --problem argument
PROBLEMS = {
    "ex1": "ex1",
    "ex2": "ex2",
    "ex3": "ex3",
    "rotation": str(Path(__file__).with_name("rotation.json")),
}
MODES = ("paper", "full_trapezoid")
COMMANDS = {
    "solve": (["solve", "--n", "33", "--m", "6"], ["solution.csv", "summary.json"]),
    "converge_n": (["converge", "--n-list", "17,33,65", "--m", "4"],
                   ["convergence.csv", "summary.json"]),
    "converge_m": (["converge", "--m-list", "1,2,4", "--n", "33"],
                   ["convergence.csv", "summary.json"]),
    "compare": (["compare", "--n", "21", "--m", "5", "--rk4-step", "0.01"],
                ["compare.csv", "summary.json"]),
}


def masked_digest(path: Path) -> str:
    """SHA-256 of the file with every line that holds ``wall_time`` dropped."""
    lines = path.read_bytes().splitlines(keepends=True)
    return hashlib.sha256(b"".join(ln for ln in lines if b"wall_time" not in ln)).hexdigest()


def artifact_digests(root: Path) -> dict:
    """Run every command on every problem and mode under ``root``; key -> digest."""
    digests = {}
    for problem, source in PROBLEMS.items():
        for mode in MODES:
            for label, (argv, files) in COMMANDS.items():
                out = root / f"{label}-{problem}-{mode}"
                code = cli_main(argv + ["--problem", source, "--mode", mode, "--out-dir", str(out)])
                if code != 0:
                    raise RuntimeError(f"{label} {problem} {mode} exited {code}")
                for name in files:
                    digests[f"{label}/{problem}/{mode}/{name}"] = masked_digest(out / name)
    return digests


def child_env(**extra) -> dict:
    """``os.environ`` with ``extra`` for a child interpreter that imports
    this process's ``ivim``: the directory that holds the package goes first
    on ``PYTHONPATH``, which an installed package and a checkout both need."""
    env = {**os.environ, **extra}
    root = str(Path(ivim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    return env


def tiers() -> list:
    """The SIMD tiers numpy dispatches to in this process, lowest first: the
    x86-64 levels on x86-64, else every enabled baseline and dispatch target."""
    targets = [t for t in (*_umath.__cpu_baseline__, *_umath.__cpu_dispatch__)
               if _umath.__cpu_features__.get(t)]
    return [t for t in targets if t.startswith("X86_V")] or targets


def environment() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine(),
            "tier": (tiers() or ["none"])[-1]}


def tier_digests(tier: str, root: Path) -> dict:
    """``artifact_digests`` at ``tier``, a tier below this process's, from a
    child that disables every dispatch target above it."""
    dispatch = list(_umath.__cpu_dispatch__)
    above = dispatch[dispatch.index(tier) + 1:] if tier in dispatch else dispatch
    env = child_env(NPY_DISABLE_CPU_FEATURES=" ".join(above))
    out = subprocess.run([sys.executable, __file__, "--print", str(root)], env=env,
                         capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        raise RuntimeError(f"the {tier} child exited {out.returncode}:\n{out.stderr}")
    got = json.loads(out.stdout)
    if got["tier"] != tier:
        raise RuntimeError(f"child ran at {got['tier']}, not {tier}")
    return got["digests"]


if __name__ == "__main__":
    if sys.argv[1:2] == ["--print"]:  # one tier's set, for tier_digests
        root = Path(sys.argv[2])
        print(json.dumps({"tier": environment()["tier"], "digests": artifact_digests(root)}))
        sys.exit()
    env = environment()
    host = env.pop("tier")
    with tempfile.TemporaryDirectory() as tmp:
        sets = {tier: tier_digests(tier, Path(tmp, tier)) for tier in tiers()[:-1]}
        sets[host] = artifact_digests(Path(tmp, host))
    TABLE.write_text(json.dumps({**env, "tiers": sets}, indent=2, sort_keys=True) + "\n",
                     encoding="utf-8")
    print(f"wrote {len(sets[host])} digests for each of {', '.join(sets)} to {TABLE}",
          file=sys.stderr)
