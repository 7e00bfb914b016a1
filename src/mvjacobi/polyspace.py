"""Coefficient space for vector-valued homogeneous polynomials.

The ambient space is spanned by monomial basis elements w^m e_j: a
monomial in d variables with multi-index m of total degree n, placed in
vector slot j (1-based, matching the usual component numbering).  A
polynomial is stored as a flat coefficient tuple over this basis.

Basis order is descending lexicographic on m with j as the inner loop,
so (n,0,...,0) comes first and slot order within a monomial is 1..d.
This order is part of the serialization contract: coefficient vectors
written by the CLI are only meaningful against it.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import NamedTuple

MultiIndex = tuple[int, ...]
PolyVector = tuple  # flat coefficient tuple, one Rat per basis element


class BasisIndex(NamedTuple):
    """One basis element w^m e_j; j is 1-based."""

    m: MultiIndex
    j: int


class PolySpace:
    """The basis of one (d, n), with each element's position in it.

    Immutable; equality and hashing compare (d, n, basis).
    """

    __slots__ = ("d", "n", "basis", "position")

    def __init__(self, d: int, n: int, basis: tuple[BasisIndex, ...]):
        init = object.__setattr__
        init(self, "d", d)
        init(self, "n", n)
        init(self, "basis", basis)
        init(self, "position", {b: i for i, b in enumerate(basis)})

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if type(other) is not PolySpace:
            return NotImplemented
        return (self.d, self.n, self.basis) == (other.d, other.n, other.basis)

    def __hash__(self) -> int:
        return hash((self.d, self.n, self.basis))

    @property
    def N(self) -> int:
        return len(self.basis)

    def index_of(self, m: MultiIndex, j: int) -> int:
        # a BasisIndex is a tuple, so the plain (m, j) finds it
        pos = self.position.get((tuple(m), j))
        if pos is None:
            raise KeyError(f"no basis element w^{m} e_{j} in degree {self.n}, d={self.d}")
        return pos


def _multi_indices(d: int, n: int) -> list[MultiIndex]:
    """All d-part compositions of n, descending lexicographic: first exponent n down to 0."""
    if d == 1:
        return [(n,)]
    return [(a,) + rest for a in range(n, -1, -1) for rest in _multi_indices(d - 1, n - a)]


def basis_size(d: int, n: int) -> int:
    """N = d C(n + d - 1, d - 1), the size of enumerate_basis(d, n), by formula."""
    return d * comb(n + d - 1, d - 1)


@lru_cache(maxsize=None)
def enumerate_basis(d: int, n: int) -> PolySpace:
    """Basis of degree-n homogeneous polynomials in d variables, valued in C^d."""
    if d < 1 or n < 1:
        raise ValueError(f"need d >= 1 and n >= 1, got d={d}, n={n}")
    basis = tuple(
        BasisIndex(m, j) for m in _multi_indices(d, n) for j in range(1, d + 1)
    )
    space = PolySpace(d, n, basis)
    assert space.N == basis_size(d, n)
    return space
