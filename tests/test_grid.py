import numpy as np
import pytest

from ivim import (
    PiecewiseLinear,
    interp_eval,
    make_grid,
    project_samples,
)

from _oracles import hat_eval


def test_make_grid_benchmark_resolution():
    g = make_grid(0, 1, 41)
    assert g.h == pytest.approx(0.025, abs=0)
    assert g.nodes[0] == 0.0
    assert g.nodes[40] == 1.0
    assert g.n == 41


def test_make_grid_minimal_and_integer():
    g = make_grid(0, 1, 2)
    assert g.h == 1.0
    assert list(g.nodes) == [0.0, 1.0]
    g = make_grid(0, 3, 4)
    assert g.h == 1.0
    assert list(g.nodes) == [0.0, 1.0, 2.0, 3.0]


def test_make_grid_nodes_uniform_and_increasing():
    g = make_grid(-1.5, 2.25, 77)
    assert np.all(np.diff(g.nodes) > 0)
    expected = g.a + np.arange(g.n) * g.h
    assert np.max(np.abs(g.nodes - expected)) < 1e-12


@pytest.mark.parametrize("a,T,n", [(1.0, 1.0, 5), (2.0, 1.0, 5)])
def test_make_grid_invalid_interval(a, T, n):
    with pytest.raises(ValueError, match="invalid interval"):
        make_grid(a, T, n)


@pytest.mark.parametrize(
    "a,T", [(float("nan"), 1.0), (0.0, float("inf")), (float("-inf"), 0.0), (-1e308, 1e308)]
)
def test_make_grid_nonfinite_endpoints(a, T):
    # finite endpoints whose distance overflows are rejected by that length
    if np.isfinite(a) and np.isfinite(T):
        message = "interval length T - a must be finite, got inf"
    else:
        message = "grid endpoints must be finite"
    with pytest.raises(ValueError, match=message):
        make_grid(a, T, 5)


def test_make_grid_too_few_nodes():
    with pytest.raises(ValueError, match="too few nodes"):
        make_grid(0, 1, 1)


def test_hat_eval_examples():
    g = make_grid(0, 1, 5)
    assert hat_eval(g, 3, 0.5) == 1.0
    assert hat_eval(g, 3, 0.375) == pytest.approx(0.5, abs=1e-15)
    assert hat_eval(g, 3, 0.8) == 0.0


def test_hat_eval_kronecker():
    g = make_grid(0.25, 2.0, 9)
    for i in range(2, g.n + 1):
        for j in range(1, g.n + 1):
            expected = 1.0 if i == j else 0.0
            assert hat_eval(g, i, g.nodes[j - 1]) == expected


def test_hat_eval_last_node_one_sided():
    g = make_grid(0, 1, 5)
    assert hat_eval(g, 5, 1.0) == 1.0
    assert hat_eval(g, 5, 0.875) == pytest.approx(0.5, abs=1e-15)
    assert hat_eval(g, 5, 0.5) == 0.0


def test_hat_eval_errors():
    g = make_grid(0, 1, 5)
    with pytest.raises(ValueError, match="index out of range"):
        hat_eval(g, 1, 0.5)
    with pytest.raises(ValueError, match="index out of range"):
        hat_eval(g, 6, 0.5)
    with pytest.raises(ValueError, match="outside"):
        hat_eval(g, 3, 1.5)


def test_interp_eval_examples():
    g = make_grid(0, 1, 3)
    pl = PiecewiseLinear(g, np.array([0.0, 1.0, 4.0]))
    assert interp_eval(pl, 0.75) == pytest.approx(2.5, abs=1e-15)
    assert interp_eval(pl, 0.5) == 1.0
    assert interp_eval(pl, 0.0) == 0.0
    with pytest.raises(ValueError, match="outside"):
        interp_eval(pl, 1.25)


def test_piecewise_linear_must_vanish_at_a():
    g = make_grid(0, 1, 3)
    with pytest.raises(ValueError, match="t_1"):
        PiecewiseLinear(g, np.array([0.5, 1.0, 4.0]))


def test_piecewise_linear_length_checked():
    g = make_grid(0, 1, 3)
    with pytest.raises(ValueError, match="nodal values"):
        PiecewiseLinear(g, np.array([0.0, 1.0]))


def test_piecewise_linear_is_immutable():
    g = make_grid(0, 1, 3)
    pl = PiecewiseLinear(g, np.array([0.0, 1.0, 4.0]))
    with pytest.raises(ValueError):
        pl.values[1] = 7.0


def test_project_samples_parabola():
    g = make_grid(0, 1, 3)
    pl = project_samples(g, lambda t: t * t)
    assert list(pl.values) == [0.0, 0.25, 1.0]
    # chord of the parabola between the last two nodes
    assert interp_eval(pl, 0.75) == pytest.approx(0.625, abs=1e-15)


def test_project_samples_zero_and_pinning():
    g = make_grid(0, 1, 4)
    pl = project_samples(g, lambda t: 0.0)
    assert not pl.values.any()
    # the sampler value at a is irrelevant; membership pins node 1 to zero
    pl = project_samples(g, lambda t: 5.0)
    assert pl.values[0] == 0.0
    assert pl.values[1] == 5.0


def test_project_samples_nonfinite_names_node():
    g = make_grid(0, 1, 4)
    with pytest.raises(ValueError, match="node 3"):
        project_samples(g, lambda t: np.where(t == g.nodes[2], np.inf, 1.0))


def test_project_samples_calls_sampler_once_with_the_nodes():
    g = make_grid(0.5, 2.5, 9)
    calls = []

    def sampler(t):
        calls.append(np.array(t))
        return 3.0 * t

    pl = project_samples(g, sampler)
    assert len(calls) == 1
    assert np.array_equal(calls[0], g.nodes[1:])
    assert np.array_equal(pl.values[1:], 3.0 * g.nodes[1:]) and pl.values[0] == 0.0


def test_interp_reproduces_affine_through_a():
    g = make_grid(0.5, 2.5, 11)
    c = -1.75
    pl = project_samples(g, lambda t: c * (t - g.a))
    for t in np.linspace(g.a, g.T, 97):
        assert interp_eval(pl, t) == pytest.approx(c * (t - g.a), abs=1e-12)


def test_interp_matches_hat_expansion():
    rng = np.random.default_rng(42)
    g = make_grid(-1.0, 2.0, 13)
    values = np.concatenate(([0.0], rng.normal(size=g.n - 1)))
    pl = PiecewiseLinear(g, values)
    for t in rng.uniform(g.a, g.T, size=100):
        expansion = sum(
            values[r - 1] * hat_eval(g, r, t) for r in range(2, g.n + 1)
        )
        assert interp_eval(pl, t) == pytest.approx(expansion, abs=1e-12)
