"""The CSV writer's vectorised %.17g against CPython's ``"%.17g" % x``.

``csvtext._Speller`` (and ``csvtext._float_rows`` through it) must give the
bytes of the per-cell ``%`` for every double.
Hypothesis runs derandomized with a fixed example budget and no deadline,
as in test_properties.
"""

import subprocess
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

import ivim.csvtext
from ivim.csvtext import _BLOCK_ROWS, _P_MAX, _P_MIN, _float_rows, _Speller, _spelling_tables


def _settings(examples):
    return settings(derandomize=True, max_examples=examples, deadline=None, database=None)


def _per_cell(values, c):
    cells = ["%.17g" % v for v in values]
    rows = [",".join(cells[i:i + c]) + "\n" for i in range(0, len(cells), c)]
    return "".join(rows).encode("ascii")


def _spell(x, c):
    return _Speller(x.size, c)(x)


def _assert_spelled(values, c=1):
    x = np.array(values, dtype=np.float64)
    got = _spell(x, c).splitlines(True)
    # lists of lines: pytest reports the first differing row
    assert got == _per_cell(x.tolist(), c).splitlines(True)


def _halves():
    """Dyadic halves (j + 1/2) * 2**s, among them exact ties of the 17th
    digit: with s = -p and 5**p dividing 2j + 1, x * 10**p is a half."""
    js = [0, 1, 3, 12345, 2**26 + 1, 10**15 + 7, 2**51 - 1, 2**52 - 1]
    values = [(j + 0.5) * 2.0**s for j in js for s in range(-60, 60)]
    for p in range(1, 23):
        first = -(-2 * 10**16 // 5**p)  # x * 10**p >= 10**16
        values += [m / 2.0 ** (p + 1) for m in range(first | 1, first + 40, 2) if m < 2**53]
    return values


def _edges():
    values = []
    for k in range(-300, 301):
        v = 10.0**k
        values += [np.nextafter(v, 0.0), v, np.nextafter(v, np.inf)]
    values += [1e16, 1e17, np.nextafter(1e17, 0.0), np.nextafter(1e16, 0.0)]
    values += [1e-290, np.nextafter(1e-290, 0.0), 1e290, np.nextafter(1e290, 0.0)]
    values += [5e-324, 2.2250738585072014e-308, np.finfo(float).max]
    values += [float(i) for i in range(1000)] + [float(10**k + d) for k in range(19) for d in (-1, 1)]
    values += [float(10**18), 123456789012345678.0, 0.1, 0.5, 1.5, 2.5, 1 / 3, 2 / 3]
    values += _halves()
    return values + [-v for v in values]


def test_table_of_edges_matches_per_cell():
    values = _edges()
    _assert_spelled(values + [0.0] * (-len(values) % 7), 7)


def test_exact_ties_round_half_to_even_without_the_fallback(monkeypatch):
    # a tie has an exact 5 as its 18th and last significant digit; where
    # 10**p is a double (x in [1e-6, 1e17)) it is rounded in place, so a
    # fallback spelling only 16 digits must not show
    def is_tie(x):
        digits = Decimal(x).as_tuple().digits
        return len(digits) == 18 and digits[-1] == 5

    ties = [x for x in _halves() if 1e-6 <= x < 1e17 and is_tie(x) and "%.16g" % x != "%.17g" % x]
    assert len(ties) >= 20
    assert {Decimal(x).as_tuple().digits[16] % 2 for x in ties} == {0, 1}  # down and up
    monkeypatch.setattr(ivim.csvtext, "_FALLBACK", "%-24.16g")
    _assert_spelled(ties)


@given(st.lists(st.floats(), min_size=1, max_size=60), st.integers(1, 5))
@_settings(400)
def test_any_float_matches_per_cell(values, c):
    values += [0.0] * (-len(values) % c)
    _assert_spelled(values, c)


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=60))
@_settings(300)
def test_any_bit_pattern_matches_per_cell(bits):
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    _assert_spelled(x.tolist(), 2 if len(bits) % 2 == 0 else 1)


def test_block_mixing_fallback_and_fast_cells():
    row = [0.0, 1.5, -np.inf, 3.0 / 7, np.nan, 1e300, -1e-300, 2.5, -0.0, 6.02214076e23]
    rng = np.random.default_rng(7)
    rows = [row] + [rng.permutation(row).tolist() for _ in range(40)]
    rows += (rng.standard_normal((40, len(row))) * 10.0 ** rng.integers(-8, 20, (40, 1))).tolist()
    _assert_spelled([v for r in rows for v in r], len(row))


def test_float_rows_stack_one_block_at_a_time():
    n = 2 * _BLOCK_ROWS + 3
    t = np.linspace(0.0, 1.5, n)
    U = np.vstack([np.sin(t), -np.exp(-t)])
    with np.errstate(divide="ignore"):
        log = np.log10(np.abs(U[0] - t))  # -inf at t = 0
    columns = np.vstack([t, U, log])
    blocks = []

    def fill(block, s, e):
        assert block.shape == (4, e - s)
        blocks.append((s, e))
        block[...] = columns[:, s:e]

    chunks = list(_float_rows(4, n, fill))
    assert blocks == [(0, _BLOCK_ROWS), (_BLOCK_ROWS, 2 * _BLOCK_ROWS), (2 * _BLOCK_ROWS, n)]
    assert len(chunks) == 3
    assert b"".join(chunks) == _per_cell(columns.T.ravel().tolist(), 4)


def _trailing_zeros(x):
    """The count of trailing zeros among the 17 digits of ``"%.17g" % x``."""
    digits = ("%.16e" % abs(x)).split("e")[0].replace(".", "")
    return len(digits) - len(digits.rstrip("0"))


def _with_trailing_zeros(k):
    """Doubles whose 17 digits end in exactly ``k`` zeros, with X from about
    -120 to 120: those nearest to decimals of 17 - k digits that keep them."""
    s = 17 - k
    rng = np.random.default_rng(k)
    Ns = rng.integers(10 ** (s - 1), 10**s, 8) // 10 * 10 + rng.integers(1, 10, 8)
    values = [float(f"{N}e{q}") for N in Ns.tolist() for q in range(-120 - s, 121 - s, 3)]
    return [v for v in values if _trailing_zeros(v) == k]


def test_blocks_where_some_cells_carry_trailing_zeros_across_groups():
    # only cells whose last four digits are zero count zeros in the groups
    # before; mixed here, in every row layout, with cells of 17 digits
    short = {k: _with_trailing_zeros(k) for k in range(4, 17)}
    assert all(short.values())
    rng = np.random.default_rng(3)
    full = (rng.standard_normal(200) * 10.0 ** rng.integers(-8, 20, 200)).tolist()
    values = full + [v for vs in short.values() for v in vs]
    values = rng.permutation(values + [-v for v in values]).tolist()
    assert {_trailing_zeros(v) for v in values} >= {0, *range(4, 17)}
    for c in range(1, 9):
        _assert_spelled(values + [0.0] * (-len(values) % c), c)


def test_every_exponent_class_edge_in_one_block():
    # X, the exponent of %.17g, on both sides of each change of layout class
    Xs = {-5, -4, -1, 0, 16, 17, -100, -99, 99, 100}
    mantissas = ("1", "1.5", "1.2345678901234567", "9.8765432109876543")
    values = [float(f"{m}e{X}") for X in Xs for m in mantissas]
    values = [v for v in values if int(("%.16e" % v).split("e")[1]) in Xs]  # 1e99 is 9.99...e98
    assert len(values) >= 3 * len(Xs)
    assert {int(("%.16e" % v).split("e")[1]) for v in values} == Xs
    values += [-v for v in values]
    _assert_spelled(values + [0.0] * (-len(values) % 6), 6)


def test_each_row_ends_in_a_newline_for_any_cell_count():
    # a speller sized for one block spells shorter blocks too, and one sized
    # for a count of cells that c does not divide spells whole rows of it
    rng = np.random.default_rng(5)
    for c in range(1, 9):
        for cells in (7 * c, 7 * c + c // 2):
            spell = _Speller(cells, c)
            for rows in (7, 3, 1, 7):
                x = rng.standard_normal(rows * c) * 10.0 ** rng.integers(-30, 30, rows * c)
                assert spell(x) == _per_cell(x.tolist(), c)


class _ShiftedLog10:
    """numpy, with log10 off by a whole ``shift``."""

    def __init__(self, shift):
        self.shift = shift

    def __getattr__(self, name):
        return getattr(np, name)

    def log10(self, a):
        return np.log10(a) + self.shift


def test_a_misestimated_exponent_falls_back(monkeypatch):
    # a rounded log10 can be one off next to a power of ten; here every cell is
    values = [v for v in _edges() if 1e-200 < abs(v) < 1e200]
    values += [1e17 * (1 + d * 2.0**-52) for d in range(-3, 4)]
    for shift in (-1.0, 1.0):
        monkeypatch.setattr(ivim.csvtext, "np", _ShiftedLog10(shift))
        _assert_spelled(values)


def test_no_numpy_warning_escapes():
    x = np.array([0.0, -np.inf, np.nan, -0.0, np.inf, 5e-324, 1e308, 1.0])
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        assert _spell(x, 4) == b"0,-inf,nan,-0\ninf,4.9406564584124654e-324,1e+308,1\n"


def test_powers_table_is_the_correctly_rounded_double_double():
    powers = _spelling_tables()[0]
    assert len(powers) == _P_MAX - _P_MIN + 1
    for p, (hi, lo, h_hi, h_lo) in zip(range(_P_MIN, _P_MAX + 1), powers.tolist()):
        exact = Fraction(10) ** p
        assert hi == float(exact), p
        assert lo == float(exact - Fraction(hi)), p
        assert (lo == 0.0) == (0 <= p <= 22), p
        # Veltkamp halves of 26 bits or fewer, summing to hi
        assert Fraction(h_hi) + Fraction(h_lo) == Fraction(hi), p
        for half in (h_hi, h_lo):
            mantissa = abs(Fraction(half).numerator)
            assert mantissa.bit_length() - (mantissa & -mantissa).bit_length() + 1 <= 26, p


def test_import_ivim_does_not_load_the_writer():
    # the benchmark's setup_s times exactly this import
    code = "import sys, ivim; print(sorted({'ivim.cli', 'ivim.csvtext'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
