from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mvjacobi.rational import (
    ONE,
    Rat,
    ZERO,
    falling_factorial,
    format_rational,
    parse_rational,
    rat,
)
from mvjacobi.ratmat import RatMatrix


def test_parse_basic_forms():
    assert parse_rational("3/4") == Rat(3, 4)
    assert parse_rational("-7") == Rat(-7)
    assert parse_rational("0") == ZERO
    assert parse_rational(" 2/6 ") == Rat(1, 3)
    assert parse_rational("+3/6") == Rat(1, 2)
    assert parse_rational(5) == Rat(5)
    with pytest.raises(ValueError, match="malformed rational"):
        parse_rational("-2/-4")  # the denominator takes no sign


MALFORMED = ["", "1/0", "0/0", "a/b", "1.5", "1/2/3", "1//2"]


@pytest.mark.parametrize("bad", MALFORMED + [None, 2.5, True, False])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_lowest_terms():
    assert format_rational(Rat(6, 4)) == "3/2"
    assert format_rational(Rat(-6, 4)) == "-3/2"
    assert format_rational(Rat(8, 4)) == "2"
    assert format_rational(Rat(0, 7)) == "0"


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_parse_format_roundtrip(p, q):
    r = Rat(p, q)
    assert parse_rational(format_rational(r)) == r


def test_rat_coercions():
    assert rat(3) == Rat(3)
    assert rat("5/10") == Rat(1, 2)
    assert rat(Fraction(2, 3)) == Rat(2, 3)
    with pytest.raises(TypeError):
        rat(0.5)


# Fraction(str) would take each of the last three: a decimal exponent, a
# digit separator and an Arabic-Indic digit
@pytest.mark.parametrize("bad", MALFORMED + ["1e3", "1_000", "\u0663"])
def test_rat_and_matrix_entries_refuse_what_parse_rational_refuses(bad):
    I = RatMatrix.identity(2)
    for build in (rat, lambda s: RatMatrix([[s]]), lambda s: RatMatrix([[1], [s]]),
                  lambda s: RatMatrix.diagonal([s, 1]), I.scale, I.plus_scalar):
        with pytest.raises(ValueError):
            build(bad)


def test_column_and_diagonal_read_mixed_entries():
    entries = [2, Fraction(-1, 3), "5/6", 0, "-4"]
    col, diag = RatMatrix([(e,) for e in entries]), RatMatrix.diagonal(entries)
    assert (col.num, col.den) == (((12,), (-2,), (5,), (0,), (-24,)), 6)
    assert diag.den == 6 and diag._dnum == (12, -2, 5, 0, -24)
    assert diag.diag == tuple(rat(e) for e in entries)
    for M in (RatMatrix([[1], [2]]), RatMatrix.diagonal([1, 2]), RatMatrix([[1, 2]])):
        assert all(type(e) is Fraction for row in M.rows for e in row)
    for build in (RatMatrix, RatMatrix.diagonal):
        with pytest.raises(ValueError):
            build([])


@given(st.lists(st.one_of(st.integers(-50, 50), st.fractions(max_denominator=30),
                          st.fractions(max_denominator=30).map(str)), min_size=1, max_size=6))
def test_column_and_diagonal_hold_their_entries(entries):
    want = tuple(map(Fraction, entries))
    col, diag = RatMatrix([(e,) for e in entries]), RatMatrix.diagonal(entries)
    assert tuple(row[0] for row in col.rows) == want and diag.diag == want
    assert col.den == diag.den == lcm(*(e.denominator for e in want))


def test_falling_factorial_values():
    assert falling_factorial(5, 0) == ONE
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(Rat(1, 2), 2) == Rat(1, 2) * Rat(-1, 2)
    # hits zero as soon as the argument passes through an integer
    assert falling_factorial(2, 4) == 0
    with pytest.raises(ValueError):
        falling_factorial(5, -1)


@given(st.integers(-20, 20), st.integers(0, 8), st.integers(0, 8))
def test_falling_factorial_splits(a, r, s):
    # ff(a, r+s) = ff(a, r) * ff(a-r, s)
    lhs = falling_factorial(a, r + s)
    rhs = falling_factorial(a, r) * falling_factorial(a - r, s)
    assert lhs == rhs
