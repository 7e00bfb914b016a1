"""Dense exact rational matrices.

A RatMatrix is an integer numerator matrix `num` (a tuple of int tuples)
over one denominator `den` > 0, the fmpq_mat layout of FLINT in plain
Python ints.  Every result is divided through by gcd(den, all of num),
so the zero matrix has den 1, the form is unique, and equality and
hashing compare (num, den).  All arithmetic runs on ints; Fraction
appears only in the cached `rows` and `diag` views.  The constructor,
which `diagonal` builds through, takes int and Fraction entries as they
are and others through rat().
Diagonality is read once per matrix from the integers (`_dnum`, the
diagonal numerators or None); `inverse` and the callers that only need
the diagonal's numerators use it and build no Fraction.

Coefficient vectors are N x 1 matrices, so a matrix-vector product is
`@` on an N x 1 matrix.  Every product takes one rule: each nonzero of a left
row adds its multiple of the nonzeros of the right row it selects, so
the work is the number of nonzero pairs that meet, whatever the shape
or density of either side.  The right operand's nonzeros are listed once
per product and not kept on it.  `sparse_rows` is a cached view of each
row's nonzero (column, numerator) pairs, which `apply_A` reads for D2.

Inversion is diagonal-only: A + B is required to be diagonal, so the
derivation D1 and every shift or product of shifts of it is diagonal,
and those are the only operators the construction ever inverts.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, compress
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .rational import Rat, rat


def _nonzeros(row: Sequence[int]) -> tuple:
    """The (column, entry) pairs of an int row's nonzero entries."""
    return tuple(zip(compress(range(len(row)), row), filter(None, row)))


class RatMatrix:
    """Immutable matrix of exact rationals: integer numerators over one denominator."""

    __slots__ = ("num", "den", "__dict__")

    def __init__(self, rows: Iterable[Iterable]):
        rows = tuple(map(tuple, rows))
        # every entry in one pass, before the shape checks
        flat = [e if type(e) in (int, Rat) else rat(e) for e in chain.from_iterable(rows)]
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        if width == 0 or any(len(r) != width for r in rows):
            raise ValueError("ragged or empty matrix rows")
        # the lcm of lowest-terms denominators is already normalized
        self.den = den = lcm(*[e.denominator for e in flat])
        flat = [e.numerator * (den // e.denominator) for e in flat]
        self.num = tuple([tuple(flat[i:i + width]) for i in range(0, len(flat), width)])

    @staticmethod
    def _normal(num: tuple, den: int) -> "RatMatrix":
        """num / den (den > 0) divided through by gcd(den, every numerator)."""
        g = gcd(den, *chain.from_iterable(num))
        if g != 1:
            num = tuple([tuple([e // g for e in row]) for row in num])
            den //= g
        out = object.__new__(RatMatrix)
        out.num = num
        out.den = den
        return out

    # -- constructors ------------------------------------------------

    @staticmethod
    def _from_diagonal(d: Sequence[int], den: int) -> "RatMatrix":
        """The square diagonal matrix of the int numerators d over den > 0, reduced."""
        n = len(d)
        out = RatMatrix._normal(tuple([(0,) * i + (e,) + (0,) * (n - 1 - i)
                                       for i, e in enumerate(d)]), den)
        out._dnum = tuple([row[i] for i, row in enumerate(out.num)])  # known here in O(n)
        return out

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix._from_diagonal((1,) * n, 1)

    @staticmethod
    def zeros(nrows: int, ncols: Optional[int] = None) -> "RatMatrix":
        ncols = nrows if ncols is None else ncols
        return RatMatrix._normal(((0,) * ncols,) * nrows, 1)

    @staticmethod
    def diagonal(entries: Sequence) -> "RatMatrix":
        """The square diagonal matrix of these rationals, over the lcm of their denominators."""
        row = RatMatrix([entries])
        return RatMatrix._from_diagonal(row.num[0], row.den)

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
    def _dnum(self) -> Optional[tuple]:
        """Diagonal numerators (over den) if the matrix is square diagonal, else None."""
        if not self.is_square:
            return None
        for i, row in enumerate(self.num):
            if any(row[:i]) or any(row[i + 1:]):
                return None
        return tuple([row[i] for i, row in enumerate(self.num)])

    @cached_property
    def diag(self) -> Optional[tuple]:
        """Diagonal entries (Fractions) if the matrix is square diagonal, else None."""
        d = self._dnum
        return None if d is None else tuple([Rat(e, self.den) for e in d])

    @cached_property
    def sparse_rows(self) -> tuple:
        """Per row, the (column, numerator) pairs of its nonzero entries."""
        return tuple(map(_nonzeros, self.num))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        self._check_same_shape(other)
        den = lcm(self.den, other.den)  # both sides over the common denominator
        fa, fb = den // self.den, den // other.den
        return RatMatrix._normal(tuple([tuple([fa * a + fb * b for a, b in zip(ra, rb)])
                                        for ra, rb in zip(self.num, other.num)]), den)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self + -other

    def __neg__(self) -> "RatMatrix":
        return RatMatrix._normal(tuple([tuple([-e for e in row]) for row in self.num]), self.den)

    def scale(self, c) -> "RatMatrix":
        c = rat(c)
        f = c.numerator
        return RatMatrix._normal(tuple([tuple([f * e for e in row]) for row in self.num]),
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
        right = [_nonzeros(r) for r in other.num]
        zero = [0] * len(other.num[0])
        out = []
        for row in self.num:
            acc = zero[:]
            for c, e in _nonzeros(row):
                for c2, v in right[c]:
                    acc[c2] += e * v
            out.append(tuple(acc))
        return RatMatrix._normal(tuple(out), self.den * other.den)

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
        d = self._dnum
        if d is None:
            raise ValueError("inverse needs a square diagonal matrix")
        if not all(d):
            raise ValueError("singular matrix (zero diagonal entry)")
        # 1 / (d_i / den) = den * (L / d_i) / L with L = lcm(d)
        L = lcm(*d)
        return RatMatrix._from_diagonal([self.den * (L // e) for e in d], L)

    def _check_same_shape(self, other: "RatMatrix") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

