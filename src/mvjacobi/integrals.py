"""Quasi-orthogonality integrals and their integrability gate, without numpy.

The weight satisfies Q W' = W (x D1 + D2), Q = x^2 - 1.  Integrating
x^m Q W' by parts (the boundary terms vanish when every endpoint exponent
exceeds -1) gives int x^m W = mu_0 R_m with exact ratios R_m and
mu_0 = int W.  With E_{s,h} = sum_t R_{s+t} P_h[t], int P_j W P_k is
sum_s P_j[s] mu_0 E_{s,k} and int W P_j P_k is sum_t mu_0 E_{t,j} P_k[t],
so a one-sided claim passes exactly when the E it needs are zero.  mu_0
enters only a nonzero value: one Jacobi mass per channel when both
residues are diagonal, else a tanh-sinh integral in mvjacobi.numeric,
which only those values load, and numpy with it.

The gate decides exactly, once per problem and for every pair alike,
whether every endpoint exponent exceeds -1, which the lemma needs, and
-1/2, which bounds the float mu_0's endpoint bias: from the exponents
themselves for diagonal residues, else from a bracket of the least
exponent n a - b, with a and b the least and greatest real parts of A's
eigenvalues (B's at -1), bisected by Routh's test on det(z - den A).
Only a threshold inside the bracket runs
Routh's test on the characteristic polynomial of n A (x) I - I (x) A.
Both polynomials come from the traces of powers of den A.  The reported
minimum exponents are floats: the bracket's upper end for
noncommutative problems, within 2^-60 of the minimum.  A claim needs
only > -1; a noncommutative value needs > -1/2.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from operator import add
from typing import NamedTuple, Optional

from .operators import ProblemSpec, _certified_inverse, basis_exponents, build_D
from .oppoly import build_Pk
from .polyspace import PolySpace
from .ratmat import RatMatrix
from .rational import Rat


def _check_tolerance(value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"tolerance must be finite, got {value!r}")
    if value <= 0:
        raise ValueError("tolerance must be positive")


def _float(value, what: str) -> float:
    """float(value) of an exact rational; a ValueError naming `what` past the float range."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is past the float range") from None


class NumericReport(NamedTuple):
    quantity: str
    max_abs_entry: float
    estimated_quadrature_error: float
    tolerance: float
    passed: bool
    claimed: bool = True
    detail: str = ""
    de_level: Optional[int] = None  # tanh-sinh level reached, when one was used


def is_commutative(spec: ProblemSpec) -> bool:
    """Both residues diagonal; A + B is, so B is exactly when A is."""
    return spec.A._dnum is not None


def commutative_exponents(spec: ProblemSpec) -> tuple[tuple, tuple]:
    """Exact weight exponents (at +1, at -1) per basis element.

    The weight acts diagonally with entry (1-x)^{m.a - a_j} (1+x)^{m.b - b_j}
    on the basis element w^m e_j.
    """
    if not is_commutative(spec):
        raise ValueError("exact exponents need both residues diagonal")
    return tuple(tuple(basis_exponents(M.diag, spec.space)) for M in (spec.A, spec.B))


class IntegrabilityReport(NamedTuple):
    commutative: bool
    min_exponent_plus: float
    min_exponent_minus: float
    exists_ok: bool
    fast_ok: bool
    detail: str


def _elementary(p: list, D: int) -> list:
    """e_0 .. e_D from the power sums p_1 .. p_D of D algebraic integers (Newton's identities)."""
    e = [1]
    for k in range(1, D + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * p[i] for i in range(1, k + 1)) // k)
    return e


def _residue_traces(M: RatMatrix) -> tuple[list, list]:
    """(S, e) of the integer matrix X = den M: S_r = tr X^r for r <= d^2 and
    det(z - X) = sum_k (-1)^k e_k z^(d-k).

    Only X^1 .. X^d are formed; the later S_r follow from e by Newton's identities.
    """
    X, d = RatMatrix._normal(M.num, 1), M.nrows
    S, P = [d], X
    for r in range(1, d + 1):
        S.append(sum(P.num[i][i] for i in range(d)))
        if r < d:
            P = P @ X
    e = _elementary(S, d)
    for r in range(d + 1, d * d + 1):
        S.append(sum((-1) ** (i - 1) * e[i] * S[r - i] for i in range(1, d + 1)))
    return S, e


def _kron_charpoly(S: list, d: int, n: int) -> list:
    """det(z - L), highest power first, for L = 2 (n X (x) I - I (x) X) and S_r = tr X^r.

    X (x) I and I (x) X commute, and tr (X^a (x) X^b) = S_a S_b, so
    tr L^m = 2^m sum_r C(m, r) n^r (-1)^(m-r) S_r S_(m-r).
    """
    D = d * d
    p = [D] + [2 ** m * sum(math.comb(m, r) * n ** r * (-1) ** (m - r) * S[r] * S[m - r]
                            for r in range(m + 1)) for m in range(1, D + 1)]
    return [(-1) ** k * e for k, e in enumerate(_elementary(p, D))]


def _roots_exceed(poly: list, t: int) -> bool:
    """Whether every root of the monic integer polynomial poly (highest first) has real part > t.

    The roots of f(z) = poly(z + t) have positive real parts exactly when
    g(z) = (-1)^D f(-z) is Hurwitz, that is, when every first-column entry
    of g's Routh array is positive (Routh 1877; Gantmacher, The Theory of
    Matrices, vol. 2, ch. XV); a zero entry means a root on the line.
    Dividing each new row by the pivot two rows up keeps the rows
    integral, as the division is exact.
    """
    f = list(poly)
    for i in range(len(f) - 1):  # Taylor shift by t, one synthetic division at a time
        for j in range(1, len(f) - i):
            f[j] += t * f[j - 1]
    g = [c if k % 2 == 0 else -c for k, c in enumerate(f)]
    upper, lower, pivot = g[0::2], g[1::2], 1
    while lower:
        if lower[0] <= 0:
            return False
        padded = lower + [0]
        upper, lower, pivot = lower, [(lower[0] * upper[k + 1] - upper[0] * padded[k + 1]) // pivot
                                      for k in range(len(upper) - 1)], upper[0]
    return True


_BITS = 60  # a noncommutative minimum exponent is bracketed to within 2^-_BITS


def _bisect(poly: list, lo: int, hi: int, steps: int) -> tuple[int, int]:
    """(lo, hi) 2^steps times finer, with lo < min Re z <= hi kept over the roots z of poly.

    poly is monic and integral, highest power first; each step doubles its
    roots and halves the bracket, whose midpoint is an integer there.  A
    root on the line does not exceed it, so hi lands exactly on a minimum
    that is dyadic to that precision.
    """
    for _ in range(steps):
        poly = [c << k for k, c in enumerate(poly)]
        lo, hi = 2 * lo, 2 * hi
        mid = (lo + hi) // 2
        if _roots_exceed(poly, mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


@lru_cache(maxsize=None)
def integrability_check(spec: ProblemSpec, space: PolySpace) -> IntegrabilityReport:
    """Whether every endpoint exponent exceeds -1 (exists_ok) and -1/2 (fast_ok), decided exactly.

    Decided once per problem; space must be spec.space.  The moment lemma
    behind every claim needs exists_ok.  fast_ok bounds the endpoint
    truncation bias of the float mu_0 that a noncommutative value uses.

    The exponents at +1 are m.l - l_j over the eigenvalues l of A and the
    basis elements w^m e_j, so the least real part among them is n a - b,
    with a and b the least and greatest real parts of the l.  For diagonal
    residues the exponents themselves decide.  Otherwise Routh's test on
    det(z - X) and det(z + X), X = den A, bisects a and b until
    n a - b lies in a bracket (lo, hi] at most 2^-_BITS wide, and hi is the
    reported minimum.  A threshold c that the bracket contains is decided
    by Routh's test on the characteristic polynomial of
    K = n A (x) I - I (x) A, since every exponent exceeds c exactly when
    every eigenvalue n l_i - l_j of K does.  At -1, B takes A's place.
    """
    if space != spec.space:
        raise ValueError("the integrability check needs the problem's own coefficient space")
    if is_commutative(spec):
        plus, minus = commutative_exponents(spec)
        worst = min(min(plus), min(minus))
        # float rounding is monotone, so the float of the least exponent is the least float
        mp = _float(min(plus), "an endpoint exponent from A")
        mm = _float(min(minus), "an endpoint exponent from B")
        return IntegrabilityReport(True, mp, mm, worst > -1, worst > Rat(-1, 2),
                                   f"exact exponents: min at +1 is {mp:g}, min at -1 is {mm:g}")
    n, estimates, ok = spec.n, [], [True, True]
    for M, what in ((spec.A, "A"), (spec.B, "B")):
        # every |eigenvalue| of X is at most its row-sum norm, below bound
        norm = max(sum(abs(v) for v in row) for row in M.num)
        _float(Rat(norm, M.den), f"the row-sum norm of {what}")  # bounds the steps below
        bound = 1 << norm.bit_length()
        # the least steps taking the bracket of n a - b from (n + 1) 2 bound / den to 2^-_BITS wide
        steps = (-(-((n + 1) * 2 * bound << _BITS) // M.den) - 1).bit_length()
        S, e = _residue_traces(M)
        a_lo, a_hi = _bisect([(-1) ** k * c for k, c in enumerate(e)], -bound, bound, steps)
        nb_lo, nb_hi = _bisect(e, -bound, bound, steps)  # -b, from the roots of det(z + X)
        unit = M.den << steps
        lo, hi = Rat(n * a_lo + nb_lo, unit), Rat(n * a_hi + nb_hi, unit)
        estimates.append(_float(hi, f"an endpoint exponent from {what}"))
        for i, c in enumerate((Rat(-1), Rat(-1, 2))):  # K's eigenvalues scaled by 2 den
            ok[i] = ok[i] and (lo >= c or (hi >= c and _roots_exceed(
                _kron_charpoly(S, spec.d, n), int(2 * M.den * c))))
    (mp, mm), (exists_ok, fast_ok) = estimates, ok
    verdict = ("every exponent > -1/2" if fast_ok else
               "every exponent > -1, not every one > -1/2" if exists_ok else
               "an exponent <= -1")
    return IntegrabilityReport(False, mp, mm, exists_ok, fast_ok,
                               f"exact Routh-Hurwitz decision: {verdict}; "
                               f"estimated min at +1 about {mp:g}, min at -1 about {mm:g}")


def _jacobi_integral(R, a, b) -> float:
    """R M0 with M0 = int (1-x)^a (1+x)^b = 2^{a+b+1} G(a+1) G(b+1) / G(a+b+2).

    Taken through logarithms, as M0 alone can pass the float range; +-inf past it.
    """
    if R == 0:
        return 0.0
    try:  # float() of a huge exponent, or lgamma of it, overflows
        a, b = float(a), float(b)
        log_abs = (math.log(abs(R.numerator)) - math.log(R.denominator) + (a + b + 1.0) * math.log(2.0)
                   + math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0))
    except OverflowError:
        raise ValueError("the Jacobi mass of exponents from A and B is past the float range") from None
    try:
        value = math.exp(log_abs)
    except OverflowError:
        value = math.inf
    return value if R > 0 else -value


@lru_cache(maxsize=None)
def moment_ratios(spec: ProblemSpec, count: int) -> tuple:
    """R_0 .. R_{count-1}: int x^m W = (int W) R_m when every endpoint exponent exceeds -1.

    R_0 = I and R_{m+1} = (m R_{m-1} - R_m D2) (D1 + m + 2)^{-1}, exact; a
    zero entry of the diagonal D1 + m + 2 raises ResonanceError.
    """
    if count == 1:
        return (RatMatrix.identity(spec.space.N),)
    R = moment_ratios(spec, count - 1)
    m = count - 2
    step = R[m - 1].scale(m) - R[m] @ build_D(spec, 2)  # at m = 0, R[-1] is scaled by 0
    shift = build_D(spec, 1).plus_scalar(m + 2)
    return R + (step @ _certified_inverse(shift, f"D1 + m + 2 at m = {m}", spec),)


def quasi_orth_integral(spec: ProblemSpec, j: int, k: int, side: str,
                        tol: float = 1e-8) -> NumericReport:
    """Weighted integral over (-1, 1) whose one-sided vanishing is the claim.

    side "right" integrates P_j W P_k (vanishes for j < k); side "left"
    integrates W P_j P_k (vanishes for j > k).  Off-claim index orders are
    computed and reported without a pass/fail assertion.

    A claim passes when its E are exactly zero; only other pairs get a
    float value, with mu_0 integrated to tol/10 unless both residues are
    diagonal.  tol is checked in either case.  Every pair needs each
    endpoint exponent > -1, and a noncommutative value > -1/2.
    """
    _check_tolerance(tol)
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    if j < 0 or k < 0:
        raise ValueError("indices must be >= 0")
    gate = integrability_check(spec, spec.space)
    if not gate.exists_ok:
        raise ValueError(
            f"weighted integral does not exist: {gate.detail}; every "
            "endpoint exponent must exceed -1"
        )
    claimed = j < k if side == "right" else j > k
    name = f"{side} weighted integral j={j} k={k} d={spec.d} n={spec.n}"

    # E_{s,h} for s <= lo, h the member right of W
    lo, h = (j, k) if side == "right" else (k, j)
    P = build_Pk(spec, h).coeffs
    R = moment_ratios(spec, lo + len(P))
    E = [reduce(add, (R[s + t] @ c for t, c in enumerate(P))) for s in range(lo + 1)]
    vanishes = all(e.is_zero for e in E)
    worst, est, level = 0.0, 0.0, None
    if not vanishes:  # the value is sum_s L_s mu_0 M_s over these (L_s, M_s)
        low = build_Pk(spec, lo).coeffs
        terms = (list(zip(low, E)) if side == "right"
                 else [(R[0], e @ p) for e, p in zip(E, low)])  # R_0 = I
        if is_commutative(spec):
            plus, minus = commutative_exponents(spec)
            worst = max(abs(_jacobi_integral(sum(L.diag[i] * M.diag[i] for L, M in terms), a, b))
                        for i, (a, b) in enumerate(zip(plus, minus)))
        elif not gate.fast_ok:
            raise ValueError(
                "the value of a noncommutative weighted integral needs the float "
                f"mu_0, restricted to endpoint exponents > -1/2 ({gate.detail})"
            )
        else:
            from .numeric import _moment_value  # the float layer, with numpy

            worst, est, level = _moment_value(spec, terms, tol)
    detail = "vanishing claimed" if claimed else "no vanishing claim for this index order"
    detail += ("; exact Jacobi moments, tolerance 0" if gate.commutative
               else "; exact matrix moments, tolerance 0")
    return NumericReport(
        quantity=name,
        max_abs_entry=worst,
        estimated_quadrature_error=est,
        tolerance=0.0,
        passed=vanishes if claimed else True,
        claimed=claimed,
        detail=detail,
        de_level=level,
    )
