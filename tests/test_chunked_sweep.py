"""A sweep evaluates its coefficients over node chunks and reuses its arrays.

The chunked sweep must keep every bit of a whole-row evaluation, report a
domain error or a non-finite update past the first chunk as it did on whole
rows, and allocate no array that spans the grid once the sweeps have begun.
"""

import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ivim import DivergenceError, IvpSystem, SolveConfig, get_problem, problem_from_dict, solve
from ivim.engine import MODES, ivim_step
from ivim.grid import PiecewiseLinear, make_grid, project_samples
from ivim.sweep import _CHUNK, _chunks

from _oracles import blocked_scan, naive_step

SIZES = (_CHUNK + 1, 3 * _CHUNK + 5, 65537)


def _scalar_forcing(t):
    return 1.5  # a Python scalar, not an array over the nodes


_SYSTEMS = {
    "ex2": get_problem("ex2")[0],
    "ex3": get_problem("ex3")[0],
    "hand_written": IvpSystem(  # no split; |alpha| (T - a) = 40 scans in blocks
        alphas=(40.0,), a=0.0, T=1.0, initial=(0.5,),
        rhs=(lambda t, U: np.sin(3.0 * t) * U[0] - 0.3 * U[0] ** 2,),
    ),
    "forcing": IvpSystem(
        alphas=(2.0, 0.0), a=0.0, T=2.0, initial=(0.5, -1.0),
        rhs=(lambda t, U: np.cos(3.0 * t) - 2.0 * U[0], lambda t, U: np.cos(t) * U[0]),
        forcing=(lambda t: np.cos(3.0 * t), None),
    ),
    "scalar_forcing": IvpSystem(
        alphas=(-1.0,), a=0.0, T=1.0, initial=(0.25,), forcing=(_scalar_forcing,),
    ),
    "rotation": problem_from_dict(
        json.loads(Path(__file__).with_name("rotation.json").read_text())
    ),
}


def _whole_row_sweep(sys_, grid, W, mode):
    """One sweep with each coefficient evaluated on the whole row at once,
    as the solver did before it chunked them, and the blocked scan oracle."""
    t = grid.nodes
    ua = np.asarray(sys_.initial)
    U = W + ua[:, None]
    rows = []
    with np.errstate(all="ignore"):
        for j, alpha in enumerate(sys_.alphas):
            if sys_.forcing is not None and sys_.forcing[j] is not None:
                c = np.broadcast_to(sys_.forcing[j](t) - alpha * ua[j], t.shape)
            else:
                f = sys_.rhs[j]
                value = f.split[1](t, U, f.split[0](t)) if hasattr(f, "split") else f(t, U)
                c = alpha * W[j] + value
            rows.append(blocked_scan(alpha, c, t, grid.h, mode))
    return np.vstack(rows)


def _same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("n", SIZES)
def test_chunks_tile_the_grid_from_multiples_of_8(n):
    bounds = _chunks(n)
    assert len(bounds) == max(1, n // _CHUNK)
    assert bounds[0][0] == 0 and bounds[-1][1] == n
    assert all(e == s_next for (_, e), (s_next, _) in zip(bounds, bounds[1:]))
    assert all(s % 8 == 0 for s, _ in bounds)
    sizes = [e - s for s, e in bounds]
    assert max(sizes) - min(sizes) < 16


def test_a_grid_of_up_to_one_chunk_is_one_row():
    assert _chunks(2) == ((0, 2),)
    assert _chunks(2 * _CHUNK - 1) == ((0, 2 * _CHUNK - 1),)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", list(_SYSTEMS))
def test_chunked_solve_has_the_bits_of_whole_rows(name, n, mode):
    sys_ = _SYSTEMS[name]
    m = 3
    rep = solve(sys_, SolveConfig(n=n, m_max=m, mode=mode, keep_history=True))
    grid = make_grid(sys_.a, sys_.T, n)
    W = np.zeros((sys_.k, n))
    for j, g in enumerate(sys_.guess or ()):
        W[j] = project_samples(grid, lambda t: g(t) - sys_.initial[j]).values
    diffs = []
    for snap in rep.history:
        new = _whole_row_sweep(sys_, grid, W, mode)
        diffs.append(float(np.max(np.abs(new - W))))
        assert _same_bits(snap, new)
        W = new
    assert rep.diffs == diffs

    plain = solve(sys_, SolveConfig(n=n, m_max=m, mode=mode))
    assert plain.history is None and plain.diffs == rep.diffs
    assert _same_bits(plain.nodal_values(), rep.nodal_values())
    if rep.errors is not None:
        assert _same_bits(plain.errors, rep.errors)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("ua", [0.0, 0.75])
def test_alpha_zero_sweep_keeps_the_bits_of_zero_times_w_plus_f(ua, mode):
    # an alpha = 0 row sums its coefficients 0 * w + f straight into the
    # prefix from a +0 start, which absorbs the sign of a -0 coefficient.  So
    # an f of -0 at a -0 state changes no bit
    def rhs(t, U):
        return np.where((t > 0.25) & (t < 0.6), np.cos(3.0 * t) * U[0] + 0.3, -0.0)

    sys_ = IvpSystem(alphas=(0.0,), a=0.0, T=1.0, initial=(ua,), rhs=(rhs,))
    grid = make_grid(0.0, 1.0, 33)
    W = np.sin(5.0 * grid.nodes)[None, :]
    W[0, 0], W[0, 3] = 0.0, -0.0
    got = ivim_step([PiecewiseLinear(grid, W[0])], sys_, grid, [0.0], mode)[0].values
    assert _same_bits(got, _whole_row_sweep(sys_, grid, W, mode)[0])
    want = naive_step((0.0,), (lambda t, V: rhs(t, V + ua),), grid.nodes, grid.h, W, mode)[0]
    assert np.count_nonzero(want == 0.0) > 3
    # the double loop ends in -h * (+0) = -0 where the scan sums to +0
    assert _same_bits(got, want + 0.0)


def test_history_snapshots_are_distinct_read_only_and_kept():
    sys_ = _SYSTEMS["ex3"]
    n = 3 * _CHUNK + 5
    short = solve(sys_, SolveConfig(n=n, m_max=2, keep_history=True)).history
    rep = solve(sys_, SolveConfig(n=n, m_max=5, keep_history=True))
    snaps = rep.history
    assert len(snaps) == 5
    assert not any(snap.flags.writeable for snap in snaps)
    assert not any(
        np.shares_memory(a, b) for i, a in enumerate(snaps) for b in snaps[i + 1:]
    )
    # later sweeps reuse the solve's arrays; what was recorded stays put
    assert all(_same_bits(a, b) for a, b in zip(short, snaps))
    assert all(np.shares_memory(snaps[-1], pl.values) for pl in rep.final)


# --- error paths past the first chunk ----------------------------------------------
# h = 1 on [0, 3 * _CHUNK + 4], so node i + 1 sits at t = i; nodes 20001 and
# 20002 lie in the third chunk.  The messages were recorded on the solver that
# evaluated whole rows.

_N3 = 3 * _CHUNK + 5


def test_error_nodes_lie_in_the_third_chunk():
    s, e = _chunks(_N3)[2]
    assert s <= 20000 < 20001 < e


def test_nan_coefficient_in_the_third_chunk_names_node_and_state():
    sys_ = problem_from_dict({
        "name": "domain",
        "interval": {"a": 0.0, "T": _N3 - 1.0},
        "equations": [
            {"alpha": 0.0, "rhs": "1e-4"},
            {"alpha": 0.5, "rhs": "log(20000.5 - t) + u1"},
        ],
        "initial": [0.25, 1.0],
        "guess": ["0.25 + 1e-4*t", "1 + 1e-3*t"],
    })
    message = (
        "right-hand side of equation 2 is nan at node 20002 (t=20001.0, "
        "u=[2.2501, 21.001]): outside its domain"
    )
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        solve(sys_, SolveConfig(n=_N3, m_max=3))


def test_non_finite_update_in_the_third_chunk_names_node():
    sys_ = IvpSystem(
        alphas=(0.0, 0.5), a=0.0, T=_N3 - 1.0, initial=(0.25, 1.0),
        rhs=(
            lambda t, U: 1e-4 + 0.0 * U[0],
            lambda t, U: np.divide(1.0, 20000.0 - t) + U[0],
        ),
    )
    message = "non-finite update in equation 2 at node 20001 (t=20000.0) at iteration 1"
    with pytest.raises(DivergenceError, match=re.escape(message) + "$"):
        solve(sys_, SolveConfig(n=_N3, m_max=3))


# --- memory ------------------------------------------------------------------------

def _traced_peak_rows(sys_, n, m):
    """Peak of the memory traced during one solve, in rows of n doubles."""
    solve(sys_, SolveConfig(n=33, m_max=1))  # compile and import outside the trace
    tracemalloc.start()
    try:
        solve(sys_, SolveConfig(n=n, m_max=m))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * n)


@pytest.mark.parametrize("name, rows", [("ex3", 11.5), ("ex2", 6.5)])
def test_sweeps_allocate_no_row_of_the_grid(name, rows):
    # ex3 keeps 11 rows during its sweeps (nodes, W, its spare, C, a t-only
    # subtree, two weight rows of alpha = 1 and the prefix buffer), ex2 keeps
    # 6; the chunks' temporaries add under half a row.  Evaluating
    # whole rows peaked at 13.0 and 9.0 rows.  The peak does not depend on
    # the number of sweeps, so no array outlives its sweep.
    sys_ = get_problem(name)[0]
    few, many = (_traced_peak_rows(sys_, 65537, m) for m in (2, 20))
    assert few <= rows and many <= rows
    assert abs(many - few) < 0.05
