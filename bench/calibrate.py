"""Machine-speed calibration for the benchmark's timings.

On a shared 2-vCPU host the same op can take 1.8x longer from one second to
the next, because the whole machine switches between speed states.  A
20-second run cannot average that out, but a fixed pure-Python kernel timed
right before and right after each measured interval slows down by the same
factor.  Every timing the benchmark reports is therefore scaled to a
reference speed: wall seconds times REF_S over the kernel's mean time around
the interval.  The raw wall seconds are reported next to it.

The kernel imports nothing but ``time``, so a fresh interpreter can run it
before ``import ivim`` without touching what set-up time measures.
"""

from __future__ import annotations

import time

REF_S = 0.01  # kernel seconds at the reference speed


def _kernel(n: int = 40000) -> int:
    acc = 0.0
    parts = []
    for i in range(n):
        acc += (i * 1.000001) ** 2 / (i + 1.0)
        if i & 15 == 0:
            parts.append(f"{acc:.17g}")
    return len(",".join(parts))


def kernel_seconds() -> float:
    """Wall seconds of one kernel run."""
    started = time.perf_counter()
    _kernel()
    return time.perf_counter() - started


def scale(before: float, after: float) -> float:
    """Factor that turns wall seconds measured between two kernel runs into
    seconds at the reference speed."""
    return 2.0 * REF_S / (before + after)
