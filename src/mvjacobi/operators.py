"""Problem data and the operators it induces on the coefficient space.

A problem instance is a pair of d x d rational residue matrices (A, B)
for a first-order system with singularities at +1 and -1, plus the
degree n of the polynomial space the system acts on.  The sum A + B
must be diagonal: the whole construction reads its eigenvalues off the
diagonal, and any input with diagonalizable sum can be conjugated into
this form beforehand.

Two derived operators drive everything downstream:

  build_D(spec, i)          the derivation q |-> dq(w) . (M_i w) - M_i q(w)
                            as an N x N matrix over the monomial basis,
                            where M_1 = A + B and M_2 = A - B;
  induced_action_float(Y, space)
                            the substitution q |-> Y^{-1} q(Y w) for a
                            numerically integrated group element Y (or a
                            stack of them), the finite-dimensional image
                            of the group action (note it reverses
                            products: the image of a product Y C is
                            image(C) @ image(Y)).

D_1 is diagonal whenever M_1 is, with entry m.lambda - lambda_j on the
basis element w^m e_j, so every shift D_1 + s is singular exactly when
one of those entries equals -s.  That is what makes the diagonality
requirement on A + B worth enforcing at construction time.
"""

from __future__ import annotations

from functools import lru_cache, cached_property
from operator import mul
from typing import Sequence

from .errors import ResonanceError
from .polyspace import PolySpace, enumerate_basis
from .ratmat import RatMatrix
from .rational import ONE, ZERO


class ProblemSpec:
    """Residue matrices (A at +1, B at -1) and the polynomial degree n.

    Immutable; equality and hashing compare (d, n, A, B), so a spec can
    key the caches of build_D and build_Pk.  M1 = A + B is formed once,
    by the diagonality check; M2 and the coefficient space on first use.
    """

    __slots__ = ("d", "n", "A", "B", "M1", "__dict__")

    def __init__(self, d: int, n: int, A: RatMatrix, B: RatMatrix):
        if d < 1 or n < 1:
            raise ValueError(f"need d >= 1 and n >= 1, got d={d}, n={n}")
        for name, m in (("A", A), ("B", B)):
            if m.shape != (d, d):
                raise ValueError(f"{name} has shape {m.shape}, expected ({d}, {d})")
        M1 = A + B
        if M1._dnum is None:
            raise ValueError(
                "A + B must be diagonal; conjugate A and B by an eigenbasis "
                "of A + B before constructing the problem"
            )
        init = object.__setattr__
        init(self, "d", d)
        init(self, "n", n)
        init(self, "A", A)
        init(self, "B", B)
        init(self, "M1", M1)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if type(other) is not ProblemSpec:
            return NotImplemented
        return (self.d, self.n, self.A, self.B) == (other.d, other.n, other.A, other.B)

    def __hash__(self) -> int:
        return hash((self.d, self.n, self.A, self.B))

    def __repr__(self) -> str:
        return f"ProblemSpec(d={self.d!r}, n={self.n!r}, A={self.A!r}, B={self.B!r})"

    @cached_property
    def M2(self) -> RatMatrix:
        return self.A - self.B

    @cached_property
    def space(self) -> PolySpace:
        return enumerate_basis(self.d, self.n)


def basis_exponents(lam: Sequence, space: PolySpace) -> list:
    """m.lam - lam_j for each basis element w^m e_j, given a diagonal lam.

    This is the diagonal of the derivation induced by diag(lam), and the
    endpoint exponent of the induced weight when lam holds the diagonal
    (or the eigenvalues) of a residue.
    """
    # the basis runs over monomials with the slot j = 1..d as the inner
    # index, so each dot product m.lam serves d consecutive elements
    dots = [sum(map(mul, b.m, lam)) for b in space.basis[::space.d]]
    return [dot - lam[j] for dot in dots for j in range(space.d)]


@lru_cache(maxsize=None)
def build_D(spec: ProblemSpec, which: int) -> RatMatrix:
    """Matrix of the derivation induced by M_which on the monomial basis.

    D_1 is the diagonal basis_exponents(diag(M_1)).  For D_2, on a basis
    element w^m e_j the derivation produces
        sum_{s,t} m_s (M)_{st} w^{m - e_s + e_t} e_j  -  sum_r (M)_{rj} w^m e_r,
    both sums staying inside the same homogeneous degree.
    """
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which}")
    space = spec.space
    if which == 1:
        # the exponents of M1's diagonal numerators, over M1's denominator
        M1 = spec.M1
        return RatMatrix._from_diagonal(basis_exponents(M1._dnum, space), M1.den)
    M = spec.M2
    N = space.N
    cols = [[0] * N for _ in range(N)]  # numerators over M.den
    for cpos, b in enumerate(space.basis):
        col = cols[cpos]
        for s, ms in enumerate(b.m):
            if not ms:
                continue
            for t, entry in enumerate(M.num[s]):
                if not entry:
                    continue
                # for t == s the shifted multi-index is m itself
                shifted = list(b.m)
                shifted[s] -= 1
                shifted[t] += 1
                col[space.index_of(tuple(shifted), b.j)] += ms * entry
        for r, row in enumerate(M.num, 1):
            col[space.index_of(b.m, r)] -= row[b.j - 1]
    return RatMatrix._normal(tuple(zip(*cols)), M.den)


def dominant_coefficient(D1: RatMatrix, k: int) -> RatMatrix:
    """Leading coefficient (D1 + k + 1)(D1 + k + 2) ... (D1 + 2k) of the
    degree-k member; identity for k = 0.

    D1 must be diagonal, so the product is taken entry by entry: with
    D1 = diag(e) / den, entry b is prod_i (e_b + i den) over den^k.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    d = D1._dnum
    if d is None:
        raise ValueError("the dominant coefficient needs a square diagonal D1")
    den = D1.den
    out = [1] * len(d)
    for i in range(k + 1, 2 * k + 1):
        out = [a * (e + i * den) for a, e in zip(out, d)]
    return RatMatrix._from_diagonal(out, den**k)


def describe_kernel(space: PolySpace, kernel: Sequence) -> str:
    """Render a coefficient vector as a readable combination of w^m e_j."""
    parts = []
    for coeff, b in zip(kernel, space.basis):
        if coeff:
            parts.append(f"({coeff})*w^{b.m}.e{b.j}")
    return " + ".join(parts) if parts else "0"


def _certified_inverse(op: RatMatrix, name: str, spec: ProblemSpec) -> RatMatrix:
    """Inverse of a diagonal operator, or ResonanceError naming a kernel e_b."""
    d = op._dnum or ()
    zero = next((b for b, e in enumerate(d) if not e), None)
    if zero is None:
        return op.inverse()
    kernel = tuple(ONE if b == zero else ZERO for b in range(len(d)))
    raise ResonanceError(
        name,
        kernel=kernel,
        detail=f"rank {sum(1 for e in d if e)} of {len(d)}; kernel "
        + describe_kernel(spec.space, kernel),
    )


# -- induced substitution action ------------------------------------------


@lru_cache(maxsize=None)
def _sym_power_plan(d: int, n: int) -> tuple:
    """Gather plan for the symmetric powers of a d x d matrix, degrees 1..n.

    Each degree lists its monomials in basis order.  Per degree the plan
    holds (peel, col, row) index arrays: the variable s peeled off each
    monomial m, the position of m - e_s one degree down, and for each
    monomial mm and variable t the position of mm - e_t one degree down,
    or one past the end (a zero row) when mm has no factor w_t.
    """
    import numpy as np

    def down(m, s):
        return m[:s] + (m[s] - 1,) + m[s + 1:]

    plan = []
    lower = {(0,) * d: 0}
    for k in range(1, n + 1):
        monomials = [b.m for b in enumerate_basis(d, k).basis[::d]]
        peel = [next(s for s, ms in enumerate(m) if ms) for m in monomials]
        col = [lower[down(m, s)] for m, s in zip(monomials, peel)]
        row = [[lower[down(m, t)] if m[t] else len(lower) for t in range(d)] for m in monomials]
        plan.append((np.array(peel), np.array(col), np.array(row)[:, :, None]))
        lower = {m: i for i, m in enumerate(monomials)}
    return tuple(plan)


def induced_action_float(Y, space: PolySpace) -> "numpy.ndarray":
    """Matrix of q |-> Y^{-1} q(Y w) on the monomial basis, for a float Y.

    Y may be a (..., d, d) stack; the result is the (..., N, N) stack of
    actions.  The basis runs over monomials with the slot as the inner
    index, so each matrix is S (x) Y^{-1}, where S = Sym^n(Y) substitutes
    Y w into the scalar monomials of degree n.  S is built one degree at
    a time: the image of w^m is (Y w)_s times the image of w^(m - e_s),
    so S_k[mm, m] = sum_t Y[s, t] S_{k-1}[mm - e_t, m - e_s].  Only the
    numeric layer calls this, so numpy is imported here and the exact
    commands never load it.
    """
    import numpy as np

    Y = np.asarray(Y, dtype=float)
    d = space.d
    if Y.ndim < 2 or Y.shape[-2:] != (d, d):
        raise ValueError(f"Y must be {d} x {d}, or a stack of such matrices")
    Y_inv = np.linalg.inv(Y)  # raises LinAlgError, a ValueError, when singular
    S = np.ones(Y.shape[:-2] + (1, 1))
    for peel, col, row in _sym_power_plan(d, space.n):
        padded = np.concatenate([S, np.zeros(S.shape[:-2] + (1, S.shape[-1]))], axis=-2)
        # gathered[..., mm, t, m] = S_{k-1}[mm - e_t, m - e_s]
        gathered = padded[..., row, col]
        S = np.einsum("...itm,...mt->...im", gathered, Y[..., peel, :])
    M = S.shape[-1]
    W = S[..., :, None, :, None] * Y_inv[..., None, :, None, :]
    return W.reshape(Y.shape[:-2] + (M * d, M * d))
