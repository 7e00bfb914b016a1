"""Dense exact rational matrices and vectors.

RatMatrix is immutable (rows stored as tuples), hashable, and exact:
sums and products never round.  Diagonal matrices are detected once and
get O(N^2) fast paths in the product; the operator algebra upstream
multiplies by diagonal shifts constantly, so this matters.

Inversion is diagonal-only: A + B is required to be diagonal, so the
derivation D1 and every shift or product of shifts of it is diagonal,
and those are the only operators the construction ever inverts.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Optional, Sequence

from .rational import ONE, Rat, ZERO

RatVector = tuple  # length-N tuple of Rat


class RatMatrix:
    """Immutable matrix of exact rationals."""

    __slots__ = ("rows", "__dict__")

    def __init__(self, rows: Iterable[Iterable]):
        self.rows = tuple(tuple(Rat(e) for e in row) for row in rows)
        if not self.rows:
            raise ValueError("matrix needs at least one row")
        width = len(self.rows[0])
        if width == 0 or any(len(r) != width for r in self.rows):
            raise ValueError("ragged or empty matrix rows")

    # -- constructors ------------------------------------------------

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(nrows: int, ncols: Optional[int] = None) -> "RatMatrix":
        ncols = nrows if ncols is None else ncols
        return RatMatrix([[ZERO] * ncols for _ in range(nrows)])

    @staticmethod
    def diagonal(entries: Sequence) -> "RatMatrix":
        ents = [Rat(e) for e in entries]
        n = len(ents)
        return RatMatrix([[ents[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    # -- shape / predicates -------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @cached_property
    def is_zero(self) -> bool:
        return all(not e for row in self.rows for e in row)

    @cached_property
    def diag(self) -> Optional[tuple]:
        """Diagonal entries if the matrix is square diagonal, else None."""
        if not self.is_square:
            return None
        for i, row in enumerate(self.rows):
            for j, e in enumerate(row):
                if i != j and e:
                    return None
        return tuple(row[i] for i, row in enumerate(self.rows))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        self._check_same_shape(other)
        return RatMatrix(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)
        )

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        self._check_same_shape(other)
        return RatMatrix(
            tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)
        )

    def __neg__(self) -> "RatMatrix":
        return RatMatrix(tuple(-e for e in row) for row in self.rows)

    def scale(self, c) -> "RatMatrix":
        c = Rat(c)
        return RatMatrix(tuple(c * e for e in row) for row in self.rows)

    def plus_scalar(self, c) -> "RatMatrix":
        """self + c * identity."""
        if not self.is_square:
            raise ValueError("scalar shift needs a square matrix")
        c = Rat(c)
        return RatMatrix(
            tuple(e + c if i == j else e for j, e in enumerate(row))
            for i, row in enumerate(self.rows)
        )

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        d = self.diag
        if d is not None:
            return RatMatrix(
                tuple(di * e for e in row) if di else (ZERO,) * other.ncols
                for di, row in zip(d, other.rows)
            )
        d = other.diag
        if d is not None:
            return RatMatrix(
                tuple(e * dj if dj else ZERO for e, dj in zip(row, d)) for row in self.rows
            )
        cols = tuple(zip(*other.rows))
        return RatMatrix(
            tuple(sum(a * b for a, b in zip(row, col) if a) for col in cols)
            for row in self.rows
        )

    def apply(self, vec: Sequence) -> RatVector:
        """Matrix-vector product (vector of Rat)."""
        if len(vec) != self.ncols:
            raise ValueError(f"vector length {len(vec)} != {self.ncols} columns")
        d = self.diag
        if d is not None:
            return tuple(di * v for di, v in zip(d, vec))
        return tuple(
            sum((a * v for a, v in zip(row, vec) if a), ZERO) for row in self.rows
        )

    # -- comparison ----------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, RatMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

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
        d = self.diag
        if d is None:
            raise ValueError("inverse needs a square diagonal matrix")
        if not all(d):
            raise ValueError("singular matrix (zero diagonal entry)")
        return RatMatrix.diagonal([ONE / e for e in d])

    def _check_same_shape(self, other: "RatMatrix") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")


# -- plain rational vectors ---------------------------------------------

def vec_zero(n: int) -> RatVector:
    return (ZERO,) * n


def vec_add(a: Sequence, b: Sequence) -> RatVector:
    if len(a) != len(b):
        raise ValueError("vector length mismatch")
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Sequence, b: Sequence) -> RatVector:
    if len(a) != len(b):
        raise ValueError("vector length mismatch")
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c, a: Sequence) -> RatVector:
    c = Rat(c)
    return tuple(c * x for x in a)


def vec_is_zero(a: Sequence) -> bool:
    return all(not x for x in a)
