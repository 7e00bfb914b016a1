"""Polynomials in x with operator or coefficient-vector values.

OpPoly holds an operator-valued polynomial: a list of N x N exact
matrices indexed by the power of x, acting on a fixed coefficient
space.  VectorPoly is the same with length-N coefficient vectors.  Both
keep the invariant that the highest stored coefficient is nonzero, with
the zero polynomial stored as an empty list (degree -1).

The degree-k family member is the nested product

    P_k = A_1 A_2 ... A_k,   A_j = x(2j + D_1) + D_2 + Q d/dx,

applied innermost-first (A_k acts first, on the constant identity),
where Q = x^2 - 1 and D_1, D_2 are the derivations induced by the sum
and difference of the residue matrices.  A_j acts the same way on
vector-valued polynomials, which is how seeded members P_k(x) q are
produced without building the full operator polynomial.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence, Union

from .operators import ProblemSpec, build_D, dominant_coefficient
from .polyspace import PolySpace, PolyVector
from .ratmat import RatMatrix, vec_add, vec_is_zero, vec_scale, vec_zero
from .rational import Rat


class _PolyBase:
    """Shared coefficient-list mechanics; subclasses fix the value type."""

    __slots__ = ("coeffs", "space")

    def __init__(self, coeffs: Iterable, space: PolySpace):
        cs = tuple(coeffs)
        while cs and self._value_is_zero(cs[-1]):
            cs = cs[:-1]
        for c in cs:
            self._check_value(c, space)
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "space", space)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff_at(self, i: int):
        if i < 0:
            raise ValueError("coefficient index must be >= 0")
        return self.coeffs[i] if i <= self.degree else self._zero_value()

    def leading(self):
        return self.coeffs[-1] if self.coeffs else self._zero_value()

    # -- ring operations ------------------------------------------------

    def add(self, other):
        self._check_space(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        merged = [self._value_add(x, y) for x, y in zip(a, b)]
        merged.extend(a[len(b):])
        return type(self)(merged, self.space)

    def scale(self, c):
        c = Rat(c)
        return type(self)((self._value_scale(c, v) for v in self.coeffs), self.space)

    def mul_by_x(self):
        if not self.coeffs:
            return self
        return type(self)((self._zero_value(),) + self.coeffs, self.space)

    def mul_by_Q(self):
        """Multiply by the fixed quadratic Q = x^2 - 1."""
        if not self.coeffs:
            return self
        out = [self._value_scale(Rat(-1), v) for v in self.coeffs]
        out.extend(self._zero_value() for _ in range(2))
        for i, v in enumerate(self.coeffs):
            out[i + 2] = self._value_add(out[i + 2], v)
        return type(self)(out, self.space)

    def d_dx(self):
        return type(self)(
            (self._value_scale(Rat(i), v) for i, v in enumerate(self.coeffs) if i),
            self.space,
        )

    def lmul(self, M: RatMatrix):
        """Apply a constant operator to every coefficient from the left."""
        return type(self)((self._value_lmul(M, v) for v in self.coeffs), self.space)

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(other.scale(Rat(-1)))

    def __neg__(self):
        return self.scale(Rat(-1))

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.space == other.space
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.space, self.coeffs))

    def _check_space(self, other) -> None:
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if other.space != self.space:
            raise ValueError("space mismatch between polynomial operands")


class OpPoly(_PolyBase):
    """Operator-valued polynomial in x over a fixed coefficient space."""

    @staticmethod
    def zero(space: PolySpace) -> "OpPoly":
        return OpPoly((), space)

    @staticmethod
    def constant(M: RatMatrix, space: PolySpace) -> "OpPoly":
        return OpPoly((M,), space)

    @staticmethod
    def identity(space: PolySpace) -> "OpPoly":
        return OpPoly((RatMatrix.identity(space.N),), space)

    def _check_value(self, v, space: PolySpace) -> None:
        if not isinstance(v, RatMatrix) or v.shape != (space.N, space.N):
            raise ValueError(f"coefficient must be a {space.N} x {space.N} matrix")

    def _zero_value(self) -> RatMatrix:
        return RatMatrix.zeros(self.space.N)

    @staticmethod
    def _value_is_zero(v: RatMatrix) -> bool:
        return v.is_zero

    @staticmethod
    def _value_add(a: RatMatrix, b: RatMatrix) -> RatMatrix:
        return a + b

    @staticmethod
    def _value_scale(c, v: RatMatrix) -> RatMatrix:
        return v.scale(c)

    @staticmethod
    def _value_lmul(M: RatMatrix, v: RatMatrix) -> RatMatrix:
        return M @ v

    def rmul(self, M: RatMatrix) -> "OpPoly":
        """Multiply every coefficient by a constant operator on the right."""
        return OpPoly((v @ M for v in self.coeffs), self.space)

    def eval(self, x) -> RatMatrix:
        """Exact Horner evaluation at a rational point."""
        x = Rat(x)
        if not self.coeffs:
            return self._zero_value()
        acc = self.coeffs[-1]
        for v in reversed(self.coeffs[:-1]):
            acc = acc.scale(x) + v
        return acc

    def apply_to(self, q: Sequence) -> "VectorPoly":
        """Coefficient-wise application to a constant vector."""
        if len(q) != self.space.N:
            raise ValueError(f"vector length {len(q)} != space dimension {self.space.N}")
        return VectorPoly((v.apply(q) for v in self.coeffs), self.space)


class VectorPoly(_PolyBase):
    """Coefficient-vector-valued polynomial in x."""

    @staticmethod
    def zero(space: PolySpace) -> "VectorPoly":
        return VectorPoly((), space)

    @staticmethod
    def constant(q: Sequence, space: PolySpace) -> "VectorPoly":
        return VectorPoly((tuple(Rat(c) for c in q),), space)

    def _check_value(self, v, space: PolySpace) -> None:
        if not isinstance(v, tuple) or len(v) != space.N:
            raise ValueError(f"coefficient must be a length-{space.N} tuple")

    def _zero_value(self) -> PolyVector:
        return vec_zero(self.space.N)

    @staticmethod
    def _value_is_zero(v: PolyVector) -> bool:
        return vec_is_zero(v)

    @staticmethod
    def _value_add(a: PolyVector, b: PolyVector) -> PolyVector:
        return vec_add(a, b)

    @staticmethod
    def _value_scale(c, v: PolyVector) -> PolyVector:
        return vec_scale(c, v)

    @staticmethod
    def _value_lmul(M: RatMatrix, v: PolyVector) -> PolyVector:
        return M.apply(v)

    def eval(self, x) -> PolyVector:
        x = Rat(x)
        if not self.coeffs:
            return self._zero_value()
        acc = self.coeffs[-1]
        for v in reversed(self.coeffs[:-1]):
            acc = vec_add(vec_scale(x, acc), v)
        return acc


Poly = Union[OpPoly, VectorPoly]


def apply_A(j: int, D1: RatMatrix, D2: RatMatrix, r: Poly) -> Poly:
    """One factor of the product formula: x(2j + D1) r + D2 r + Q r'."""
    if j < 1:
        raise ValueError(f"factor index must be >= 1, got {j}")
    term_x = r.lmul(D1.plus_scalar(2 * j)).mul_by_x()
    return term_x.add(r.lmul(D2)).add(r.d_dx().mul_by_Q())


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
            f"internal consistency failure: member k={k} has degree {P.degree} "
            "or a leading coefficient differing from the dominant-coefficient product"
        )
    return P
