import re
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import matvec

from mvjacobi.errors import ResonanceError
from mvjacobi.operators import ProblemSpec
from mvjacobi.rational import ONE, Rat, ZERO
from mvjacobi.ratmat import RatMatrix
from mvjacobi.structure import _certified_inverse

rationals = st.builds(Rat, st.integers(-6, 6), st.integers(1, 4))


def square(n):
    row = st.lists(rationals, min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n).map(RatMatrix)


def reference_matmul(X: RatMatrix, Y: RatMatrix) -> RatMatrix:
    # naive triple loop, no fast paths
    out = [
        [sum((X.rows[i][t] * Y.rows[t][j] for t in range(X.ncols)), ZERO)
         for j in range(Y.ncols)]
        for i in range(X.nrows)
    ]
    return RatMatrix(out)


def reference_rank(M: RatMatrix) -> int:
    # plain fraction Gaussian elimination
    rows = [list(r) for r in M.rows]
    rank = 0
    for c in range(M.ncols):
        piv = next((i for i in range(rank, M.nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        for i in range(rank + 1, M.nrows):
            if rows[i][c]:
                f = rows[i][c] / pr[c]
                rows[i] = [e - f * p for e, p in zip(rows[i], pr)]
        rank += 1
    return rank


# every operator the construction inverts is diagonal, so rank and kernel
# are read off the diagonal when the inverse is certified; SPEC4 only names
# the N = 4 basis the kernel is described in
SPEC4 = ProblemSpec(2, 1, RatMatrix.zeros(2), RatMatrix.zeros(2))


def rank_kernel(M: RatMatrix):
    try:
        inv = _certified_inverse(M, "M", SPEC4)
    except ResonanceError as err:
        return int(re.search(r"rank (\d+) of 4;", str(err))[1]), err.kernel
    assert M @ inv == RatMatrix.identity(4)
    return 4, None


# -- construction and shape ----------------------------------------------


def test_construction_and_shape():
    M = RatMatrix([[1, "1/2"], [Rat(3, 4), 0]])
    assert M.shape == (2, 2)
    assert M.rows[0][1] == Rat(1, 2)
    assert not M.is_zero
    assert RatMatrix.zeros(2, 3).shape == (2, 3)
    assert RatMatrix.zeros(3).is_zero


@pytest.mark.parametrize("rows", [[], [[]], [[1, 2], [3]]])
def test_construction_rejects_bad_rows(rows):
    with pytest.raises(ValueError):
        RatMatrix(rows)


def test_diag_detection():
    assert RatMatrix.identity(3).diag == (ONE, ONE, ONE)
    assert RatMatrix.diagonal([1, Rat(2, 3)]).diag == (ONE, Rat(2, 3))
    assert RatMatrix([[1, 1], [0, 1]]).diag is None
    assert RatMatrix.zeros(2, 3).diag is None  # not square
    # a dense-constructed diagonal matrix is still detected
    assert RatMatrix([[5, 0], [0, 7]]).diag == (Rat(5), Rat(7))


def test_repr_prints_the_entries_row_by_row():
    assert repr(RatMatrix([[1, "1/2"], [0, -1]])) == "RatMatrix[1 1/2; 0 -1]"


# -- ring operations ------------------------------------------------------


def test_add_sub_neg_scale():
    M = RatMatrix([[1, 2], [3, 4]])
    N = RatMatrix([["1/2", 0], [1, -1]])
    assert M + N == RatMatrix([["3/2", 2], [4, 3]])
    assert M - N == RatMatrix([["1/2", 2], [2, 5]])
    assert -M == M.scale(-1)
    assert M.scale(Rat(1, 2)) == RatMatrix([["1/2", 1], ["3/2", 2]])
    with pytest.raises(ValueError):
        M + RatMatrix.zeros(3)


def test_plus_scalar():
    M = RatMatrix([[1, 2], [3, 4]])
    assert M.plus_scalar(Rat(1, 2)) == RatMatrix([["3/2", 2], [3, "9/2"]])
    assert M.plus_scalar(0) == M
    with pytest.raises(ValueError):
        RatMatrix.zeros(2, 3).plus_scalar(1)


@settings(max_examples=40)
@given(square(3), square(3))
def test_matmul_matches_reference(X, Y):
    assert X @ Y == reference_matmul(X, Y)


@settings(max_examples=25)
@given(square(2), square(2), square(2))
def test_matmul_associative(X, Y, Z):
    assert (X @ Y) @ Z == X @ (Y @ Z)


@given(square(3))
def test_identity_is_neutral(M):
    I = RatMatrix.identity(3)
    assert I @ M == M
    assert M @ I == M


def test_diagonal_operand_products_match_sympy():
    # diagonal operands on either side, at N = 1 to 3, against dense
    # matrices, each other and a column
    for entries in ([Rat(-2, 3)], [Rat(1, 2), Rat(5, 4)], [Rat(1, 2), 0], [Rat(1, 2), 0, -3],
                    [Rat(3, 4), Rat(-1, 6), Rat(2, 5)]):
        n = len(entries)
        D = RatMatrix.diagonal(entries)
        M = RatMatrix([[Rat(3 * i - j + 1, j + 2) for j in range(n)] for i in range(n)])
        v = RatMatrix([(Rat(i - 1, i + 3),) for i in range(n)])
        for X, Y in [(D, M), (M, D), (D, D), (D, v)]:
            check_normal_and_equal(X @ Y, sym(X.rows) * sym(Y.rows))


def test_apply():
    # the tests' matrix-vector product (oracles.matvec); the library has none
    M = RatMatrix([[1, 2], [3, 4]])
    assert matvec(M, (Rat(1), Rat(-1))) == (Rat(-1), Rat(-1))
    assert matvec(RatMatrix.diagonal([2, 3]), (Rat(1, 2), Rat(1, 3))) == (ONE, ONE)
    with pytest.raises(ValueError):
        matvec(M, (ONE,))


def test_apply_zero_rows_stay_rational():
    # an all-zero row must not collapse to a plain int through sum()
    out = matvec(RatMatrix.zeros(2), (ONE, ONE))
    assert out == (ZERO, ZERO)
    assert all(not isinstance(e, int) for e in out)


def test_equality_and_hash():
    M = RatMatrix([[Rat(2, 4)]])
    N = RatMatrix([["1/2"]])
    assert M == N and hash(M) == hash(N)
    assert M != RatMatrix([[1]])
    assert {M: "x"}[N] == "x"


# -- inverse ---------------------------------------------------------------


def test_inverse_known():
    D = RatMatrix.diagonal([Rat(2), Rat(-1, 3)])
    assert D.inverse() == RatMatrix.diagonal([Rat(1, 2), -3])
    # only diagonal operators are ever inverted; anything else is refused
    with pytest.raises(ValueError, match="diagonal"):
        RatMatrix([[1, 2], [3, 4]]).inverse()


def test_inverse_errors():
    with pytest.raises(ValueError):
        RatMatrix([[1, 2], [2, 4]]).inverse()
    with pytest.raises(ValueError):
        RatMatrix.diagonal([1, 0]).inverse()
    with pytest.raises(ValueError):
        RatMatrix.zeros(2, 3).inverse()


@settings(max_examples=40)
@given(st.lists(rationals, min_size=3, max_size=3))
def test_inverse_roundtrip(entries):
    M = RatMatrix.diagonal(entries)
    try:
        inv = M.inverse()
    except ValueError:
        assert not all(entries)
        return
    assert M @ inv == RatMatrix.identity(3)
    assert inv @ M == RatMatrix.identity(3)


# -- rank and kernel ---------------------------------------------------------


def test_rank_kernel_known_cases():
    assert rank_kernel(RatMatrix.identity(4)) == (4, None)
    assert rank_kernel(RatMatrix.zeros(4)) == (0, (ONE, ZERO, ZERO, ZERO))

    M = RatMatrix.diagonal([1, 0, Rat(2, 3), 0])
    rank, kern = rank_kernel(M)
    assert rank == 2
    assert kern == (ZERO, ONE, ZERO, ZERO)  # the first zero entry's e_b
    assert not any(matvec(M, kern))

    # no rank is computed for an operator that is not square diagonal
    for M in (RatMatrix([[1, 2, 0, 0], [2, 4, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
              RatMatrix.zeros(2, 3)):
        with pytest.raises(ValueError, match="diagonal"):
            rank_kernel(M)


@settings(max_examples=40)
@given(st.lists(rationals, min_size=4, max_size=4))
def test_rank_matches_reference_and_kernel_annihilates(entries):
    M = RatMatrix.diagonal(entries)
    rank, kern = rank_kernel(M)
    assert rank == reference_rank(M)
    if kern is None:
        assert rank == 4
    else:
        assert any(kern)
        assert not any(matvec(M, kern))


# -- integer core against sympy ---------------------------------------------

# mixed denominators, with zeros common enough to give zero rows and zero
# diagonal entries
DENOMINATORS = st.sampled_from([1, 2, 3, 4, 6, 9, 35])
mixed = st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-40, 40), DENOMINATORS))
nonzero = st.builds(Fraction, st.integers(-40, -1) | st.integers(1, 40), DENOMINATORS)


@st.composite
def raw_matrix(draw, nrows, ncols, diagonal=False):
    """Rows of Fractions (the input both sides are built from)."""
    if diagonal:
        d = draw(st.lists(mixed, min_size=nrows, max_size=nrows))
        return [[d[i] if i == j else Fraction(0) for j in range(ncols)] for i in range(nrows)]
    rows = [draw(st.lists(mixed, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for i in draw(st.sets(st.integers(0, nrows - 1), max_size=nrows)):
        rows[i] = [Fraction(0)] * ncols
    return rows


def sym(rows) -> sympy.Matrix:
    return sympy.Matrix([[sympy.Rational(e.numerator, e.denominator) for e in row]
                         for row in rows])


def check_normal_and_equal(M: RatMatrix, expected: sympy.Matrix) -> None:
    """M is in normal form and has the value of the sympy matrix."""
    assert M.den > 0
    assert gcd(M.den, *chain.from_iterable(M.num)) == 1
    if not any(chain.from_iterable(M.num)):
        assert M.den == 1
    # the value, read from (num, den) and not from the Fraction view
    assert sympy.Matrix(M.num) / M.den == expected
    assert M.rows == tuple(tuple(Fraction(int(e.p), int(e.q)) for e in expected.row(i))
                           for i in range(expected.rows))
    # equal values built from scratch have the same form and hash
    same = RatMatrix([[Fraction(int(e.p), int(e.q)) for e in expected.row(i)]
                      for i in range(expected.rows)])
    assert (same.num, same.den) == (M.num, M.den)
    assert same == M and hash(same) == hash(M)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_products_match_sympy(data):
    n, m, p = (data.draw(st.integers(1, 5)) for _ in range(3))
    a, b = data.draw(raw_matrix(n, m)), data.draw(raw_matrix(m, p))
    dl, dr = data.draw(raw_matrix(n, n, True)), data.draw(raw_matrix(m, m, True))
    A, B, Dl, Dr = map(RatMatrix, (a, b, dl, dr))
    check_normal_and_equal(A @ B, sym(a) * sym(b))  # dense
    check_normal_and_equal(Dl @ A, sym(dl) * sym(a))  # diagonal left
    check_normal_and_equal(A @ Dr, sym(a) * sym(dr))  # diagonal right
    check_normal_and_equal(Dl @ Dl, sym(dl) * sym(dl))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_products_with_sparse_left_rows_match_sympy(data):
    # left rows and right rows with a drawn number of nonzeros each (at
    # widths up to 12): all-zero rows, rows with one nonzero, full rows,
    # and on the right also columns that are zero throughout
    n, width, p = data.draw(st.integers(1, 4)), data.draw(st.integers(3, 12)), data.draw(st.integers(1, 6))

    def rows_of_drawn_density(count, size, dead=()):
        rows = []
        for _ in range(count):
            nnz = data.draw(st.integers(0, size))
            where = set(data.draw(st.permutations(range(size)))[:nnz]) - set(dead)
            rows.append([data.draw(nonzero) if c in where else Fraction(0)
                         for c in range(size)])
        return rows

    a = rows_of_drawn_density(n, width)
    b = rows_of_drawn_density(width, p, data.draw(st.sets(st.integers(0, p - 1), max_size=p)))
    check_normal_and_equal(RatMatrix(a) @ RatMatrix(b), sym(a) * sym(b))
    # a square left operand whose rows are one unit each: x^i I inside a polynomial
    perm = data.draw(st.permutations(range(width)))
    unit = [[Fraction(int(c == perm[r])) for c in range(width)] for r in range(width)]
    unit[0][perm[0]] = Fraction(0)  # not a permutation matrix
    unit[0][(perm[0] + 1) % width] = Fraction(3, 2)
    check_normal_and_equal(RatMatrix(unit) @ RatMatrix(b), sym(unit) * sym(b))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ring_operations_and_apply_match_sympy(data):
    n, m = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    a, b = data.draw(raw_matrix(n, m)), data.draw(raw_matrix(n, m))
    sq = data.draw(raw_matrix(n, n))
    c = data.draw(mixed)
    cs = sympy.Rational(c.numerator, c.denominator)
    A, B, S = RatMatrix(a), RatMatrix(b), RatMatrix(sq)
    check_normal_and_equal(A, sym(a))
    check_normal_and_equal(A + B, sym(a) + sym(b))
    check_normal_and_equal(A - B, sym(a) - sym(b))
    check_normal_and_equal(A - A, sympy.zeros(n, m))
    check_normal_and_equal(-A, -sym(a))
    check_normal_and_equal(A.scale(c), sym(a) * cs)
    check_normal_and_equal(S.plus_scalar(c), sym(sq) + cs * sympy.eye(n))
    v = data.draw(st.lists(mixed, min_size=m, max_size=m))
    out = matvec(A, tuple(v))
    assert all(type(e) is Fraction for e in out)
    assert sym([out]).T == sym(a) * sym([v]).T


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_inverse_matches_sympy(data):
    n = data.draw(st.integers(1, 5))
    d = data.draw(st.lists(mixed.filter(bool), min_size=n, max_size=n))
    check_normal_and_equal(RatMatrix.diagonal(d).inverse(), sympy.diag(*sym([d])).inv())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sparse_rows_list_the_nonzeros_of_each_row(data):
    n, m = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    M = RatMatrix(data.draw(raw_matrix(n, m)))
    assert len(M.sparse_rows) == M.nrows
    for entries, row in zip(M.sparse_rows, M.num):
        assert [c for c, _ in entries] == sorted({c for c, e in enumerate(row) if e})
        dense = [0] * M.ncols
        for c, e in entries:
            assert e
            dense[c] = e
        assert tuple(dense) == row
    assert M.sparse_rows is M.sparse_rows  # cached


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_integer_diagonal_view_matches_the_entries(data):
    # non-square, zero, partly zero and full diagonals, and dense entries
    n, m = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    if data.draw(st.booleans()):
        m = n
    M = RatMatrix(data.draw(raw_matrix(n, m, diagonal=data.draw(st.booleans()))))
    off = [M.num[i][j] for i in range(n) for j in range(m) if i != j]
    want = tuple(M.num[i][i] for i in range(n)) if n == m and not any(off) else None
    assert M._dnum == want
    assert M.diag == (None if want is None else tuple(Fraction(e, M.den) for e in want))
    assert M._dnum is M._dnum  # cached
    # the diagonal constructors fill the diagonal view themselves, after reduction
    # (the inverse of diag(1/2, 1) is built over 2 and reduced to den 1)
    d = data.draw(st.lists(mixed, min_size=n, max_size=n))
    built = [RatMatrix.identity(n), RatMatrix.diagonal(d),
             RatMatrix.diagonal([Rat(1, 2), 1]).inverse()]
    if all(d):
        built.append(RatMatrix.diagonal(d).inverse())
    for D in built:
        fresh = RatMatrix(D.rows)  # the same matrix, views computed on demand
        assert (D.num, D.den) == (fresh.num, fresh.den)
        assert D._dnum == fresh._dnum and D.sparse_rows == fresh.sparse_rows


@pytest.mark.parametrize("build", [
    lambda: RatMatrix([[1, 0.1]]),
    lambda: RatMatrix.diagonal([1, 0.5]),
    lambda: RatMatrix.identity(2).scale(0.5),
    lambda: RatMatrix.identity(2).plus_scalar(0.5),
], ids=["constructor", "diagonal", "scale", "plus_scalar"])
def test_floats_are_refused_at_every_entry_point(build):
    with pytest.raises(TypeError, match="float"):
        build()
