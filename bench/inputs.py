"""Seeded problem files for the benchmark workloads.

Each generator draws the coefficients of one problem document from fixed
ranges.  The ranges are chosen so that a seed moves values but not cost or
code path: the expression shapes, the equation count and the grid sizes
never change, every draw stays on the same side of the solver's stiffness
switch, and the reported error moves by a few percent at most.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

# Stiff span |alpha|(T - a); the engine's direct path starts above 30.
STIFF_SPAN = (40.0, 80.0)
# The stiff solution amplitude is STIFF_A0 * (STIFF_SPAN_REF / span)^2, so
# the leading trapezoid error (alpha h)^2 * A / 12 has the same scale on
# every seed.
STIFF_SPAN_REF = 60.0
STIFF_A0 = 1.0

PENDULUM_T = 2.0
PENDULUM_W2 = (0.99, 1.01)
PENDULUM_THETA0 = (0.495, 0.505)


def _num(x: float) -> str:
    return f"{x:.17g}"


def stiff_problem(rng: random.Random) -> dict:
    """u' = -alpha u - beta u^2 + g(t) with exact u = ua + A sin(w t).

    g is built from the exact solution, so the closed form holds for every
    draw.  ``ua`` is nonzero, which makes the solver shift the initial value.
    """
    alpha = rng.uniform(*STIFF_SPAN)  # T - a = 1
    ua = rng.uniform(0.5, 1.5)
    amp = STIFF_A0 * (STIFF_SPAN_REF / alpha) ** 2
    w = rng.uniform(2.0 * math.pi, 2.5 * math.pi)
    beta = rng.uniform(0.1, 0.3)
    exact = f"{_num(ua)} + {_num(amp)}*sin({_num(w)}*t)"
    rhs = (
        f"-{_num(alpha)}*u - {_num(beta)}*u^2"
        f" + {_num(amp * w)}*cos({_num(w)}*t)"
        f" + {_num(alpha)}*({exact}) + {_num(beta)}*({exact})^2"
    )
    return {
        "name": "stiff",
        "interval": {"a": 0.0, "T": 1.0},
        "equations": [{"alpha": alpha, "rhs": rhs}],
        "initial": [ua],
        "exact": [exact],
    }


def pendulum_problem(rng: random.Random) -> dict:
    """Damped pendulum as a two-equation system with no closed form."""
    w2 = rng.uniform(*PENDULUM_W2)
    damping = rng.uniform(0.22, 0.28)
    theta0 = rng.uniform(*PENDULUM_THETA0)
    return {
        "name": "pendulum",
        "interval": {"a": 0.0, "T": PENDULUM_T},
        "equations": [
            {"alpha": 0.0, "rhs": "u2"},
            {"alpha": damping, "rhs": f"-{_num(damping)}*u2 - {_num(w2)}*sin(u1)"},
        ],
        "initial": [theta0, 0.0],
    }


GENERATORS = {"stiff": stiff_problem, "pendulum": pendulum_problem}


def write_problem(kind: str, seed: int, out_dir: Path) -> Path:
    """Write the ``kind`` problem for ``seed`` as ``out_dir/<kind>.json``."""
    doc = GENERATORS[kind](random.Random(f"{kind}:{seed}"))
    path = Path(out_dir) / f"{kind}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path
