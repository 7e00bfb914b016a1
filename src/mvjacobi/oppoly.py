"""Polynomials in x with operator or coefficient-vector values.

OpPoly holds an operator-valued polynomial: one N x N exact matrix per
power of x, acting on a fixed coefficient space.  VectorPoly is the
same with one N x 1 column per power of x, so both run the same ring
operations on RatMatrix; VectorPoly converts to and from length-N
tuples of Fractions only at its constructor, `coeffs`, `coeff_at`,
`leading` and `eval`.  Both keep the invariant that the highest stored
coefficient is nonzero, with the zero polynomial stored as an empty
tuple (degree -1).

The degree-k family member is the nested product

    P_k = A_1 A_2 ... A_k,   A_j = x(2j + D_1) + D_2 + Q d/dx,

applied innermost-first (A_k acts first, on the constant identity),
where Q = x^2 - 1 and D_1, D_2 are the derivations induced by the sum
and difference of the residue matrices.  A_j acts the same way on
vector-valued polynomials, which is how seeded members P_k(x) q are
produced without building the full operator polynomial.

Collecting powers of x, coefficient i of A_j r is the stencil

    (D_1 + 2j + i - 1) r_{i-1} + D_2 r_i - (i + 1) r_{i+1}

(terms with an index outside 0..deg r, or a zero coefficient, left
out).  D_1 is diagonal, so apply_A forms each output coefficient in one
_stencil call on the integer numerators: a row scaling for D_1, a pass
over the nonzeros of D_2 (RatMatrix.sparse_rows), one lcm and one
reduction.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from operator import mul
from typing import Iterable, Optional, Sequence, Union

from .operators import ProblemSpec, build_D, dominant_coefficient
from .polyspace import PolySpace, PolyVector
from .ratmat import RatMatrix
from .rational import rat


class _PolyBase:
    """Shared coefficient-list mechanics on RatMatrix coefficients.

    `mats` holds one matrix per power of x, lowest first, each of the
    subclass's `_shape`.  `_coerce` and `_out` convert one coefficient
    from and to its public form; here that form is the matrix itself.
    """

    __slots__ = ("mats", "space")

    def __init__(self, coeffs: Iterable, space: PolySpace):
        self._set(tuple(self._coerce(c, space) for c in coeffs), space)

    @classmethod
    def from_mats(cls, mats: Iterable[RatMatrix], space: PolySpace):
        """The polynomial with these RatMatrix coefficients, lowest power first."""
        out = object.__new__(cls)
        out._set(tuple(mats), space)
        return out

    def _set(self, mats: tuple, space: PolySpace) -> None:
        shape = self._shape(space)
        if any(m.shape != shape for m in mats):
            raise ValueError(f"coefficient must be a {shape[0]} x {shape[1]} matrix")
        while mats and mats[-1].is_zero:
            mats = mats[:-1]
        object.__setattr__(self, "mats", mats)
        object.__setattr__(self, "space", space)

    @staticmethod
    def _coerce(v, space: PolySpace) -> RatMatrix:
        if not isinstance(v, RatMatrix):
            raise ValueError(f"coefficient must be a RatMatrix, got {type(v).__name__}")
        return v

    @staticmethod
    def _out(v: RatMatrix):
        return v

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, space: PolySpace):
        return cls((), space)

    @property
    def degree(self) -> int:
        return len(self.mats) - 1

    @property
    def is_zero(self) -> bool:
        return not self.mats

    def _zero(self) -> RatMatrix:
        return RatMatrix.zeros(*self._shape(self.space))

    def mat_at(self, i: int) -> RatMatrix:
        """The RatMatrix coefficient of x^i (zero above the degree)."""
        if i < 0:
            raise ValueError("coefficient index must be >= 0")
        return self.mats[i] if i <= self.degree else self._zero()

    @property
    def coeffs(self) -> tuple:
        return tuple(map(self._out, self.mats))

    def coeff_at(self, i: int):
        return self._out(self.mat_at(i))

    def leading(self):
        return self._out(self.mats[-1] if self.mats else self._zero())

    def eval(self, x):
        """Exact Horner evaluation at a rational point."""
        x = rat(x)
        acc = self._zero()
        for v in reversed(self.mats):
            acc = acc.scale(x) + v
        return self._out(acc)

    # -- ring operations ------------------------------------------------

    def add(self, other):
        self._check_space(other)
        a, b = self.mats, other.mats
        if len(a) < len(b):
            a, b = b, a
        return self.from_mats([x + y for x, y in zip(a, b)] + list(a[len(b):]), self.space)

    def scale(self, c):
        c = rat(c)
        return self.from_mats((v.scale(c) for v in self.mats), self.space)

    def mul_by_x(self):
        return self.from_mats((self._zero(),) + self.mats, self.space)

    def mul_by_Q(self):
        """Multiply by the fixed quadratic Q = x^2 - 1."""
        z = self._zero()
        out = [-v for v in self.mats] + [z, z]
        for i, v in enumerate(self.mats):
            out[i + 2] = out[i + 2] + v
        return self.from_mats(out, self.space)

    def d_dx(self):
        return self.from_mats((v.scale(i) for i, v in enumerate(self.mats) if i), self.space)

    def lmul(self, M: RatMatrix):
        """Apply a constant operator to every coefficient from the left."""
        return self.from_mats((M @ v for v in self.mats), self.space)

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(-other)

    def __neg__(self):
        return self.from_mats((-v for v in self.mats), self.space)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.space == other.space
            and self.mats == other.mats
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.space, self.mats))

    def _check_space(self, other) -> None:
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if other.space != self.space:
            raise ValueError("space mismatch between polynomial operands")


class OpPoly(_PolyBase):
    """Operator-valued polynomial in x over a fixed coefficient space."""

    @staticmethod
    def constant(M: RatMatrix, space: PolySpace) -> "OpPoly":
        return OpPoly((M,), space)

    @staticmethod
    def identity(space: PolySpace) -> "OpPoly":
        return OpPoly((RatMatrix.identity(space.N),), space)

    @staticmethod
    def _shape(space: PolySpace) -> tuple[int, int]:
        return (space.N, space.N)

    def rmul(self, M: RatMatrix) -> "OpPoly":
        """Multiply every coefficient by a constant operator on the right."""
        return OpPoly.from_mats((v @ M for v in self.mats), self.space)

    def apply_to(self, q: Sequence) -> "VectorPoly":
        """Coefficient-wise application to a constant vector."""
        if len(q) != self.space.N:
            raise ValueError(f"vector length {len(q)} != space dimension {self.space.N}")
        col = RatMatrix.column(q)
        return VectorPoly.from_mats((v @ col for v in self.mats), self.space)


class VectorPoly(_PolyBase):
    """Coefficient-vector-valued polynomial in x: one N x 1 column per power.

    The constructor takes length-N tuples of rationals; `coeffs`,
    `coeff_at`, `leading` and `eval` return length-N tuples of Fractions.
    """

    @staticmethod
    def constant(q: Sequence, space: PolySpace) -> "VectorPoly":
        return VectorPoly((tuple(q),), space)

    @staticmethod
    def _shape(space: PolySpace) -> tuple[int, int]:
        return (space.N, 1)

    @staticmethod
    def _coerce(v, space: PolySpace) -> RatMatrix:
        if not isinstance(v, tuple) or len(v) != space.N:
            raise ValueError(f"coefficient must be a length-{space.N} tuple")
        return RatMatrix.column(v)

    @staticmethod
    def _out(v: RatMatrix) -> PolyVector:
        return tuple(row[0] for row in v.rows)


Poly = Union[OpPoly, VectorPoly]


def _stencil(D1: RatMatrix, s: int, a: Optional[RatMatrix], D2: RatMatrix,
             b: Optional[RatMatrix], t: int, c: Optional[RatMatrix]) -> RatMatrix:
    """(D1 + s) a + D2 b + t c for the diagonal D1 and integers s, t.

    a, b and c are coefficients of one polynomial, so they share a shape;
    a term whose matrix is None or zero is left out, at least one matrix
    is given, and with no term left the sum is the zero matrix.  Row p of
    the sum combines row p of a and of c with the rows of b that D2's row
    p selects, all over one lcm denominator, and the result is reduced
    once: no intermediate matrix is built.
    """
    nrows, ncols = next(m for m in (a, b, c) if m is not None).shape
    a, b, c = (None if m is None or m.is_zero else m for m in (a, b, c))
    if a is b is c is None:
        return RatMatrix.zeros(nrows, ncols)
    den = lcm(*(f * m.den for f, m in ((D1.den, a), (D2.den, b), (1, c)) if m is not None))
    # per row: the weights and the source rows they scale
    weights = [[] for _ in range(nrows)]
    sources = [[] for _ in range(nrows)]
    if a is not None:
        fa, shift = den // (D1.den * a.den), s * D1.den
        for p, (d, row) in enumerate(zip(D1.num, a.num)):
            weights[p].append(fa * (d[p] + shift))
            sources[p].append(row)
    if c is not None:
        h = t * (den // c.den)
        for ws, srcs, row in zip(weights, sources, c.num):
            ws.append(h)
            srcs.append(row)
    if b is not None:
        fb, bnum = den // (D2.den * b.den), b.num
        for ws, srcs, entries in zip(weights, sources, D2.sparse_rows):
            for q, v in entries:
                ws.append(fb * v)
                srcs.append(bnum[q])
    zero = (0,) * ncols
    out = []
    for ws, srcs in zip(weights, sources):
        if not srcs:
            out.append(zero)
        # The cheaper pass depends on the row's shape (BENCH_10.json,
        # "stencil_branches"): a dot product per column when there are at
        # least as many source rows as columns (VectorPoly), a scaled pass
        # per source row when the rows are wider (OpPoly).
        elif len(srcs) >= ncols:
            out.append(tuple(sum(map(mul, ws, col)) for col in zip(*srcs)))
        else:
            acc = [ws[0] * x for x in srcs[0]]
            for w, src in zip(ws[1:], srcs[1:]):
                acc = [x + w * y for x, y in zip(acc, src)]
            out.append(tuple(acc))
    return RatMatrix._normal(tuple(out), den)


def apply_A(j: int, D1: RatMatrix, D2: RatMatrix, r: Poly) -> Poly:
    """One factor of the product formula: x(2j + D1) r + D2 r + Q r'.

    Computed as the three-term stencil of the module docstring, one
    reduced matrix per output coefficient; D1 must be diagonal.
    """
    if j < 1:
        raise ValueError(f"factor index must be >= 1, got {j}")
    N = r.space.N
    if D1.diag is None or D1.nrows != N or D2.shape != (N, N):
        raise ValueError(f"apply_A needs a diagonal D1 and a D2 of size {N}")
    m = r.mats
    K = len(m) - 1
    if K < 0:
        return r  # A_j maps the zero polynomial to itself
    return r.from_mats(
        (_stencil(D1, 2 * j + i - 1, m[i - 1] if i else None,
                  D2, m[i] if i <= K else None,
                  -(i + 1), m[i + 1] if i < K else None)
         for i in range(K + 2)),
        r.space,
    )


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
