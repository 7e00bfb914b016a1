"""Dense exact rational matrices.

A RatMatrix is an integer numerator matrix `num` (a tuple of int tuples)
over one denominator `den` > 0, the fmpq_mat layout of FLINT in plain
Python ints.  Every result is divided through by gcd(den, all of num),
so the zero matrix has den 1, the form is unique, and equality and
hashing compare (num, den).  All arithmetic runs on ints; Fraction
appears only at the boundary: the constructor's entries, the cached
`rows` and `diag` views, and the vector `apply` returns; `diagonal`
reads int and Fraction entries' numerators and builds no Fraction.
Coefficient vectors are N x 1 matrices, so a matrix-vector product is
`@` on a column.  A diagonal right operand (detected once) scales the
left one's columns in O(N^2); otherwise a left row with at most a third
of its entries nonzero (a row of D2, or of a diagonal matrix for
N >= 3) adds up the right operand's rows it selects.
`sparse_rows` is a cached view of each row's nonzero (column,
numerator) pairs, for products that should skip the zeros of a sparse
operator such as D2.

Inversion is diagonal-only: A + B is required to be diagonal, so the
derivation D1 and every shift or product of shifts of it is diagonal,
and those are the only operators the construction ever inverts.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from .rational import Rat, rat


class RatMatrix:
    """Immutable matrix of exact rationals: integer numerators over one denominator."""

    __slots__ = ("num", "den", "__dict__")

    def __init__(self, rows: Iterable[Iterable]):
        rows = tuple(tuple(rat(e) for e in row) for row in rows)
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        if width == 0 or any(len(r) != width for r in rows):
            raise ValueError("ragged or empty matrix rows")
        # the lcm of lowest-terms denominators is already normalized
        self.den = lcm(*(e.denominator for row in rows for e in row))
        self.num = tuple(
            tuple(e.numerator * (self.den // e.denominator) for e in row) for row in rows
        )
        self.rows = rows  # fills the cached Fraction view

    @staticmethod
    def _normal(num: tuple, den: int) -> "RatMatrix":
        """num / den (den > 0) divided through by gcd(den, every numerator)."""
        g = gcd(den, *chain.from_iterable(num))
        if g != 1:
            num = tuple(tuple(e // g for e in row) for row in num)
            den //= g
        out = object.__new__(RatMatrix)
        out.num = num
        out.den = den
        return out

    # -- constructors ------------------------------------------------

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix._normal(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1)

    @staticmethod
    def zeros(nrows: int, ncols: Optional[int] = None) -> "RatMatrix":
        ncols = nrows if ncols is None else ncols
        return RatMatrix._normal(((0,) * ncols,) * nrows, 1)

    @staticmethod
    def column(entries: Sequence) -> "RatMatrix":
        """The N x 1 matrix of a vector of rationals."""
        ents = [e if type(e) is Rat else rat(e) for e in entries]
        if not ents:
            raise ValueError("column needs at least one entry")
        den = lcm(*(e.denominator for e in ents))
        return RatMatrix._normal(tuple((e.numerator * (den // e.denominator),) for e in ents), den)

    @staticmethod
    def diagonal(entries: Sequence) -> "RatMatrix":
        """The square diagonal matrix of these rationals, over the lcm of their denominators."""
        ents = [e if type(e) in (int, Rat) else rat(e) for e in entries]
        if not ents:
            raise ValueError("matrix needs at least one row")
        den = lcm(*(e.denominator for e in ents))
        n = len(ents)
        return RatMatrix._normal(tuple(tuple(e.numerator * (den // e.denominator) if i == j else 0
                                             for j in range(n)) for i, e in enumerate(ents)), den)

    # -- shape / predicates / Fraction views ----------------------------

    @property
    def nrows(self) -> int:
        return len(self.num)

    @property
    def ncols(self) -> int:
        return len(self.num[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @cached_property
    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    @cached_property
    def rows(self) -> tuple:
        """Entries as a tuple of Fraction tuples."""
        return tuple(tuple(Rat(e, self.den) for e in row) for row in self.num)

    @cached_property
    def diag(self) -> Optional[tuple]:
        """Diagonal entries (Fractions) if the matrix is square diagonal, else None."""
        if not self.is_square:
            return None
        for i, row in enumerate(self.num):
            if any(row[:i]) or any(row[i + 1:]):
                return None
        return tuple(Rat(row[i], self.den) for i, row in enumerate(self.num))

    @cached_property
    def sparse_rows(self) -> tuple:
        """Per row, the (column, numerator) pairs of its nonzero entries."""
        return tuple(tuple((c, e) for c, e in enumerate(row) if e) for row in self.num)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        self._check_same_shape(other)
        den = lcm(self.den, other.den)  # both sides over the common denominator
        fa, fb = den // self.den, den // other.den
        return RatMatrix._normal(tuple(tuple(fa * a + fb * b for a, b in zip(ra, rb))
                                       for ra, rb in zip(self.num, other.num)), den)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self + -other

    def __neg__(self) -> "RatMatrix":
        return RatMatrix._normal(tuple(tuple(-e for e in row) for row in self.num), self.den)

    def scale(self, c) -> "RatMatrix":
        c = rat(c)
        return RatMatrix._normal(tuple(tuple(c.numerator * e for e in row) for row in self.num),
                                 self.den * c.denominator)

    def plus_scalar(self, c) -> "RatMatrix":
        """self + c * identity."""
        if not self.is_square:
            raise ValueError("scalar shift needs a square matrix")
        c = rat(c)
        q, shift = c.denominator, c.numerator * self.den
        out = []
        for i, row in enumerate(self.num):
            row = [q * e for e in row]
            row[i] += shift
            out.append(tuple(row))
        return RatMatrix._normal(tuple(out), self.den * q)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        den = self.den * other.den
        if other.diag is not None:
            d = [row[j] for j, row in enumerate(other.num)]
            return RatMatrix._normal(tuple(tuple(map(mul, row, d)) for row in self.num), den)
        onum = other.num
        cols = tuple(zip(*onum))
        zero = (0,) * len(cols)
        out = []
        for row in self.num:
            # a row of at most one third nonzeros sums the rows of other it
            # selects; a denser one takes a dot product per column
            if 3 * row.count(0) >= 2 * len(row):
                acc = zero
                for c, e in enumerate(row):
                    if e:
                        acc = [a + e * b for a, b in zip(acc, onum[c])]
                out.append(tuple(acc))
            else:
                out.append(tuple(sum(map(mul, row, col)) for col in cols))
        return RatMatrix._normal(tuple(out), den)

    def apply(self, vec: Sequence) -> tuple:
        """Matrix-vector product as a tuple of Rat: `@` on the column of vec."""
        return tuple(row[0] for row in (self @ RatMatrix.column(vec)).rows)

    # -- comparison ----------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, RatMatrix) and self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in row) for row in self.rows)
        return f"RatMatrix[{body}]"

    # -- exact linear algebra -------------------------------------------

    def inverse(self) -> "RatMatrix":
        """Exact inverse of a diagonal matrix.

        Every operator the construction inverts is a product of shifts of
        the diagonal D1, so only the diagonal case is supported; any other
        input, and a zero diagonal entry, raise ValueError.
        """
        if self.diag is None:
            raise ValueError("inverse needs a square diagonal matrix")
        d = [row[i] for i, row in enumerate(self.num)]
        if not all(d):
            raise ValueError("singular matrix (zero diagonal entry)")
        # 1 / (d_i / den) = den * (L / d_i) / L with L = lcm(d)
        L = lcm(*d)
        return RatMatrix._normal(tuple(tuple(self.den * (L // e) if i == j else 0
                                             for j in range(len(d))) for i, e in enumerate(d)), L)

    def _check_same_shape(self, other: "RatMatrix") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

