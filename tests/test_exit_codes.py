"""The CLI's exit-code contract as a property over random problem documents.

Every run of ``ivim solve``, ``converge`` and ``compare`` returns 0, 1, 2
or 3 and raises nothing out of ``main``.  A run that returns 0 writes only
finite CSV fields (``log10_err`` may be ``-inf``, an exact zero error) and a
strict-JSON ``summary.json``; a run that returns anything else writes
nothing.  Which class a pole or an overflow falls in (1 or 2) is not pinned
here, only that it is one of them.

Hypothesis runs derandomized with a fixed example budget and no deadline,
so the suite draws the same documents on every run and host.
"""

import csv
import json
import math

from hypothesis import given, settings, strategies as st

from ivim.cli import main
from ivim.expr import BinOp, Call, Const, Neg, Var, pretty

_UNARY = ["sin", "cos", "tan", "tanh", "exp", "log", "sqrt", "abs"]


def _mostly(ordinary, extreme):
    """``ordinary`` about three draws in four, else one of the ``extreme`` values."""
    extreme = st.sampled_from(extreme)
    return st.sampled_from(range(4)).flatmap(lambda i: extreme if i == 3 else ordinary)


def _tree_texts(names):
    """Expression texts over ``names``, ``pi`` and ``e``, with extreme constants."""
    leaves = st.one_of(
        st.builds(Const, _mostly(st.floats(0.0, 4.0), [1e308, 5e-324, 1e-300, 0.0])),
        st.builds(Var, st.sampled_from([*names, "pi", "e"])),
    )

    def extend(sub):
        return st.one_of(
            st.builds(Neg, sub),
            st.builds(BinOp, st.sampled_from("+-*/^"), sub, sub),
            st.builds(lambda fn, x: Call(fn, (x,)), st.sampled_from(_UNARY), sub),
            st.builds(lambda k, x: Call("nthroot", (x,), k=k), st.integers(1, 5), sub),
        )

    return st.recursive(leaves, extend, max_leaves=6).map(pretty)


# the right-hand sides of a system of k equations, and expressions in t
_RHS = {1: _tree_texts(["t", "u", "u1"]), 2: _tree_texts(["t", "u1", "u2"])}
_IN_T = _tree_texts(["t"])
_EXTREME = [1e308, -1e308, 5e-324, -5e-324, 1e-300]
_values = _mostly(st.floats(-3.0, 3.0), [*_EXTREME, 0.0, -0.0])


@st.composite
def _documents(draw):
    k = draw(st.integers(1, 2))
    a = draw(_mostly(st.sampled_from([0.0, -1.0, 2.5]), _EXTREME))
    length = draw(_mostly(st.sampled_from([1.0, 0.25, 2.0]), [*_EXTREME, 0.0, -1.0]))
    doc = {
        "interval": {"a": a, "T": a + length},
        "equations": [
            {"alpha": draw(_mostly(st.floats(-5.0, 5.0), [*_EXTREME, -700.0, 0.0])),
             "rhs": draw(_RHS[k])}
            for _ in range(k)
        ],
        "initial": [draw(_values) for _ in range(k)],
    }
    for key in ("exact", "guess"):
        if draw(st.booleans()):
            doc[key] = [draw(_IN_T) for _ in range(k)]
    return doc


# each command with its sizes and the CSV it writes on success
_COMMANDS = [
    (["solve", "--n", "9", "--m", "3"], "solution.csv"),
    (["converge", "--n-list", "3,5,9", "--m", "3"], "convergence.csv"),
    (["converge", "--n", "9", "--m-list", "1,2,4"], "convergence.csv"),
    (["compare", "--n", "9", "--m", "3", "--rk4-step", "{step}"], "compare.csv"),
]


def _strict(constant):
    raise AssertionError(f"summary.json holds {constant}")


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_documents(), st.sampled_from(_COMMANDS), st.sampled_from(["paper", "full_trapezoid"]))
def test_every_run_exits_with_a_contract_code(tmp_path_factory, doc, command, mode):
    work = tmp_path_factory.mktemp("run")
    problem, out = work / "problem.json", work / "out"
    problem.write_text(json.dumps(doc), encoding="utf-8")  # Infinity where T overflows
    argv, csv_name = command
    interval = doc["interval"]
    step = repr((interval["T"] - interval["a"]) / 8)
    argv = [arg.format(step=step) for arg in argv]

    code = main([*argv, "--problem", str(problem), "--mode", mode, "--out-dir", str(out)])

    assert code in (0, 1, 2, 3)
    if code != 0:
        assert not out.exists()
        return
    with open(out / csv_name, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    for row in rows[1:]:
        for name, field in zip(header, row, strict=True):
            if name == "observed_order" and field == "":
                continue  # no doubling point before this one
            value = float(field)
            assert math.isfinite(value) or (name == "log10_err" and value == -math.inf), (
                name, field
            )
    json.loads((out / "summary.json").read_text(encoding="utf-8"), parse_constant=_strict)
