"""SHA-256 digests of the CLI artifacts of every built-in, for the C10 check
that a refactor leaves every output byte where it was.

The table ``c10_digests.json`` beside this file holds one digest per artifact
of ``solve``, ``converge`` (an n-list and an m-list) and ``compare`` on
ex1..ex3 and on ``rotation.json`` (a closed form with ``u(a) != 0`` and a
nonzero alpha) in both modes, at fixed small sizes.  Lines that contain
``wall_time`` are masked out before hashing.  The table also records the
numpy version and ``platform.machine()`` it was made with, since a different
numpy or CPU may round a ufunc differently.  To record it afresh, from the
repository root::

    PYTHONPATH=src python tests/_artifacts.py
"""

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

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


def environment() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine()}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {**environment(), "digests": artifact_digests(Path(tmp))}
    TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table['digests'])} digests to {TABLE}", file=sys.stderr)
