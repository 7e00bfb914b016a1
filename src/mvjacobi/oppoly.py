"""Polynomials in x with operator or coefficient-vector values.

OpPoly holds an operator-valued polynomial over a fixed coefficient
space, VectorPoly one with coefficient-vector values.  Either stores
one RatMatrix `mat` of N x w(K+1) entries for degree K: coefficient i is
the block of w columns starting at column i w, lowest power first, with
w = N for OpPoly and w = 1 for VectorPoly.  Trailing zero blocks are
trimmed and the whole matrix is in RatMatrix's normal form (one
denominator, gcd 1), so equal polynomials hold equal matrices; the zero
polynomial is N x 0 (degree -1).  Each ring operation is one pass over
the rows of `mat`, except the products, which are one RatMatrix `@`
each: `lmul` multiplies `mat` itself, and `rmul` the blocks stacked as
N(K+1) rows of width N.  `mat_at` cuts one block out as a normalized
RatMatrix; `coeffs` and `coeff_at` give the blocks in public form (for
VectorPoly, length-N tuples of Fractions).

The degree-k family member is the nested product

    P_k = A_1 A_2 ... A_k,   A_j = x(2j + D_1) + D_2 + Q d/dx,

applied innermost-first (A_k acts first, on the constant identity),
where Q = x^2 - 1 and D_1, D_2 are the derivations induced by the sum
and difference of the residue matrices.  A_j acts the same way on
vector-valued polynomials, which is how seeded members P_k(x) q are
produced without building the full operator polynomial.

Collecting powers of x, coefficient i of A_j r is

    (D_1 + 2j + i - 1) r_{i-1} + D_2 r_i - (i + 1) r_{i+1}

(terms with an index outside 0..deg r left out).  D_1 is diagonal, so
apply_A fills row p of every output coefficient in one pass over the
integer numerators: row p of r shifted up one block and scaled per
block by d_p + 2j + i - 1, row p shifted down one block and scaled by
-(i + 1), and, for each nonzero of row p of D_2 (RatMatrix.sparse_rows),
the nonzeros of source row q scaled by it, the rule RatMatrix's product
applies.  The result is reduced once.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from math import lcm
from operator import mul
from typing import Iterable, Union

from .operators import ProblemSpec, build_D, dominant_coefficient
from .polyspace import PolySpace, PolyVector
from .ratmat import RatMatrix, _nonzeros
from .rational import rat


class _PolyBase:
    """Shared mechanics on one RatMatrix holding every coefficient.

    `mat` is N x w(K+1), coefficient i in columns i w .. i w + w - 1, w
    the subclass's `_width`; `_out` converts one coefficient block to its
    public form, here the matrix itself.
    """

    __slots__ = ("mat", "space")

    def __init__(self, coeffs: Iterable, space: PolySpace):
        self._assign(self.from_mats(coeffs, space).mat, space)

    def _assign(self, mat: RatMatrix, space: PolySpace) -> None:
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "space", space)

    @classmethod
    def _from(cls, num: tuple, den: int, space: PolySpace):
        """The polynomial of numerator rows num over den > 0, trimmed and reduced once."""
        w = cls._width(space)
        cut = len(num[0])
        while cut and not any(any(row[cut - w:cut]) for row in num):
            cut -= w
        if cut < len(num[0]):
            num = tuple(row[:cut] for row in num)
        out = object.__new__(cls)
        out._assign(RatMatrix._normal(num, den), space)
        return out

    @classmethod
    def from_mats(cls, mats: Iterable[RatMatrix], space: PolySpace):
        """The polynomial with these RatMatrix coefficients, lowest power first."""
        mats = tuple(mats)
        shape = (space.N, cls._width(space))
        if any(not isinstance(m, RatMatrix) or m.shape != shape for m in mats):
            raise ValueError(f"coefficient must be a {shape[0]} x {shape[1]} RatMatrix")
        den = lcm(*(m.den for m in mats))
        facs = [den // m.den for m in mats]
        return cls._from(tuple(tuple(f * e for f, m in zip(facs, mats) for e in m.num[p])
                               for p in range(space.N)), den, space)

    @staticmethod
    def _out(v: RatMatrix):
        return v

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, space: PolySpace):
        return cls._from(((),) * space.N, 1, space)

    @property
    def degree(self) -> int:
        return len(self.mat.num[0]) // self._width(self.space) - 1

    @property
    def is_zero(self) -> bool:
        return not self.mat.num[0]

    def _zero(self) -> RatMatrix:
        return RatMatrix.zeros(self.space.N, self._width(self.space))

    def mat_at(self, i: int) -> RatMatrix:
        """The RatMatrix coefficient of x^i (zero above the degree)."""
        if i < 0:
            raise ValueError("coefficient index must be >= 0")
        if i > self.degree:
            return self._zero()
        w = self._width(self.space)
        return RatMatrix._normal(tuple(row[i * w:i * w + w] for row in self.mat.num), self.mat.den)

    @property
    def coeffs(self) -> tuple:
        return tuple(map(self.coeff_at, range(self.degree + 1)))

    def coeff_at(self, i: int):
        return self._out(self.mat_at(i))

    # -- ring operations ------------------------------------------------

    def add(self, other):
        self._check_space(other)
        a, b = self.mat, other.mat
        if a.ncols < b.ncols:
            a, b = b, a
        den = lcm(a.den, b.den)
        fa, fb = den // a.den, den // b.den
        pad = (0,) * (a.ncols - b.ncols)
        return self._from(tuple([tuple([fa * x + fb * y for x, y in zip(ra, rb + pad)])
                                 for ra, rb in zip(a.num, b.num)]), den, self.space)

    def scale(self, c):
        c = rat(c)
        return self._from(tuple(tuple(c.numerator * e for e in row) for row in self.mat.num),
                          self.mat.den * c.denominator, self.space)

    def mul_by_x(self):
        z = (0,) * self._width(self.space)
        return self._from(tuple(z + row for row in self.mat.num), self.mat.den, self.space)

    def mul_by_Q(self):
        """Multiply by the fixed quadratic Q = x^2 - 1: block i is r_{i-2} - r_i."""
        z = (0,) * (2 * self._width(self.space))
        return self._from(tuple([tuple([b - a for a, b in zip(row + z, z + row)])
                                 for row in self.mat.num]), self.mat.den, self.space)

    def d_dx(self):
        w = self._width(self.space)
        facs = [i for i in range(1, self.degree + 1) for _ in range(w)]
        return self._from(tuple(tuple(map(mul, facs, row[w:])) for row in self.mat.num),
                          self.mat.den, self.space)

    def lmul(self, M: RatMatrix):
        """Apply a constant operator to every coefficient from the left."""
        P = M @ self.mat
        return self._from(P.num, P.den, self.space)

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(-other)

    def __neg__(self):
        return self._from(tuple([tuple([-e for e in row]) for row in self.mat.num]),
                          self.mat.den, self.space)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.space == other.space
            and self.mat == other.mat
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.space, self.mat))

    def _check_space(self, other) -> None:
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if other.space != self.space:
            raise ValueError("space mismatch between polynomial operands")


class OpPoly(_PolyBase):
    """Operator-valued polynomial in x over a fixed coefficient space."""

    @staticmethod
    def identity(space: PolySpace) -> "OpPoly":
        return OpPoly._from(RatMatrix.identity(space.N).num, 1, space)

    @staticmethod
    def _width(space: PolySpace) -> int:
        return space.N

    def rmul(self, M: RatMatrix) -> "OpPoly":
        """Multiply every coefficient by a constant operator on the right.

        The K + 1 blocks of `mat` are stacked as N(K + 1) rows of width N,
        block 0 on top, over mat.den (the same entries, so already in
        normal form); one product by M, cut back into N rows, is the result.
        """
        N = self.space.N
        if M.shape != (N, N):
            raise ValueError(f"cannot multiply coefficients by a {M.shape} matrix")
        if self.is_zero:
            return self  # no block to multiply
        num = self.mat.num
        stack = RatMatrix._normal(tuple([row[c:c + N] for c in range(0, len(num[0]), N)
                                         for row in num]), self.mat.den)
        P = stack @ M  # row i N + p is row p of block i
        return self._from(tuple([tuple(chain.from_iterable(P.num[p::N])) for p in range(N)]),
                          P.den, self.space)


class VectorPoly(_PolyBase):
    """Coefficient-vector-valued polynomial in x: one column per power.

    The constructor reads length-N tuples of rationals as the columns of
    one RatMatrix; `coeffs` and `coeff_at` return length-N tuples of
    Fractions, `coeffs` all at once from the matrix's one Fraction view.
    """

    def __init__(self, coeffs: Iterable, space: PolySpace):
        N = space.N
        cols = tuple(coeffs)
        for v in cols:
            if not isinstance(v, tuple) or len(v) != N:
                raise ValueError(f"coefficient must be a length-{N} tuple")
        mat = RatMatrix(zip(*cols)) if cols else RatMatrix.zeros(N, 1)
        self._assign(self._from(mat.num, mat.den, space).mat, space)

    @staticmethod
    def _width(space: PolySpace) -> int:
        return 1

    @staticmethod
    def _out(v: RatMatrix) -> PolyVector:
        return tuple(row[0] for row in v.rows)

    @property
    def coeffs(self) -> tuple:
        return tuple(zip(*self.mat.rows))


Poly = Union[OpPoly, VectorPoly]


def apply_A(j: int, D1: RatMatrix, D2: RatMatrix, r: Poly) -> Poly:
    """One factor of the product formula: x(2j + D1) r + D2 r + Q r'.

    Computed row by row as in the module docstring, all over one
    denominator and reduced once; D1 must be diagonal.
    """
    if j < 1:
        raise ValueError(f"factor index must be >= 1, got {j}")
    N = r.space.N
    if D1._dnum is None or D1.nrows != N or D2.shape != (N, N):
        raise ValueError(f"apply_A needs a diagonal D1 and a D2 of size {N}")
    K = r.degree
    if K < 0:
        return r  # A_j maps the zero polynomial to itself
    w = r._width(r.space)
    rnum = r.mat.num
    # blocks below the lowest nonzero one, lo, add nothing
    lo = next(i for i in range(K + 1) if any(any(row[i * w:i * w + w]) for row in rnum))
    srcs = [row[lo * w:] for row in rnum] if lo else rnum
    L = lcm(D1.den, D2.den)
    f1, f2 = L // D1.den, L // D2.den
    # per source column in block m: the factor 2j + m of the D1 term,
    # landing one block up, and -m of Q r', landing one block down
    up = [L * (2 * j + m) for m in range(lo, K + 1) for _ in range(w)]
    down = [-L * m for m in range(lo, K + 1) for _ in range(w)]
    zeros = [0] * w
    head = (0,) * (lo * w - w) if lo else ()
    # each source row adds only its nonzeros into the D2 term
    nonzeros = [_nonzeros(src) for src in srcs]
    out = []
    for src, entries, d in zip(srcs, D2.sparse_rows, D1._dnum):
        low = [f * x for f, x in zip(down, src)]  # blocks lo - 1 .. K - 1
        acc = low[w:] + zeros  # blocks lo .. K, a new list
        for q, v in entries:
            g = f2 * v
            for c, x in nonzeros[q]:
                acc[c] += g * x
        a = f1 * d
        row = acc[:w] + [y + (a + s) * x for y, s, x in zip(acc[w:] + zeros, up, src)]
        out.append(head + tuple(low[:w] + row if lo else row))
    return r._from(tuple(out), L * r.mat.den, r.space)


def _product_apply(D1: RatMatrix, D2: RatMatrix, k: int, seed: Poly) -> Poly:
    out = seed
    for j in range(k, 0, -1):
        out = apply_A(j, D1, D2, out)
    return out


@lru_cache(maxsize=None)
def build_Pk(spec: ProblemSpec, k: int) -> OpPoly:
    """Degree-k member of the family as an operator polynomial.

    The nested product forces degree k with leading coefficient
    (D1+k+1)...(D1+2k); both are re-checked here, so a successful return
    certifies the construction.  Degree may only drop below k when that
    leading product is exactly the zero matrix.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    D1 = build_D(spec, 1)
    D2 = build_D(spec, 2)
    P = _product_apply(D1, D2, k, OpPoly.identity(spec.space))
    expected = dominant_coefficient(D1, k)
    if P.degree > k or P.coeff_at(k) != expected:
        raise RuntimeError(
            f"member k={k} has degree {P.degree} or a leading coefficient differing "
            "from the dominant-coefficient product; this indicates an internal "
            "construction bug"
        )
    return P
