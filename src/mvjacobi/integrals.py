"""Quasi-orthogonality integrals and their integrability gate, without numpy.

The weight satisfies Q W' = W (x D1 + D2), Q = x^2 - 1.  Integrating
x^m Q W' by parts (the boundary terms vanish when every endpoint exponent
exceeds -1) gives int x^m W = mu_0 R_m with exact ratios R_m and
mu_0 = int W.  With E_{s,h} = sum_t R_{s+t} P_h[t], int P_j W P_k is
sum_s P_j[s] mu_0 E_{s,k} and int W P_j P_k is sum_t mu_0 E_{t,j} P_k[t],
so a one-sided claim passes exactly when the E it needs are zero.  mu_0
enters only a nonzero value: one Jacobi mass per channel when both
residues are diagonal, else a tanh-sinh integral in mvjacobi.numeric,
which only those problems load, and numpy with it.  Their endpoint
exponents are heuristic estimates, and the gate refuses any <= -1/2.
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


def _check_tolerance(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if value <= 0:
        raise ValueError(f"{name} must be positive")


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

    def to_dict(self) -> dict:
        return self._asdict()


def is_commutative(spec: ProblemSpec) -> bool:
    """Both residues diagonal, hence everything simultaneously diagonal."""
    return spec.A.diag is not None and spec.B.diag is not None


def commutative_exponents(spec: ProblemSpec, space: PolySpace) -> tuple[tuple, tuple]:
    """Exact weight exponents (at +1, at -1) per basis element.

    The weight acts diagonally with entry (1-x)^{m.a - a_j} (1+x)^{m.b - b_j}
    on the basis element w^m e_j.
    """
    if not is_commutative(spec):
        raise ValueError("exact exponents need both residues diagonal")
    return tuple(basis_exponents(spec.A.diag, space)), tuple(basis_exponents(spec.B.diag, space))


class IntegrabilityReport(NamedTuple):
    commutative: bool
    heuristic: bool
    min_exponent_plus: float
    min_exponent_minus: float
    exists_ok: bool
    fast_ok: bool
    detail: str

    def to_dict(self) -> dict:
        return self._asdict()


@lru_cache(maxsize=None)
def integrability_check(spec: ProblemSpec, space: PolySpace,
                        j: int = 0, k: int = 0) -> IntegrabilityReport:
    """Endpoint-exponent advisory for the weighted integrals.

    Commutative case: exact exponents; existence needs all > -1, and the
    exact quasi-orthogonality path needs nothing more.  Noncommutative
    case: the exponents are estimated from residue eigenvalues (real
    parts) and flagged as heuristic only; nothing is proved about
    existence, and > -1/2 keeps the tanh-sinh integral's endpoint
    truncation bias small.
    """
    if is_commutative(spec):
        plus, minus = commutative_exponents(spec, space)
        # float rounding is monotone, so the float of the least exponent is the least float
        mp = _float(min(plus), "an endpoint exponent from A")
        mm = _float(min(minus), "an endpoint exponent from B")
        heuristic = False
        detail = (
            f"exact exponents for indices j={j}, k={k}: "
            f"min at +1 is {mp:g}, min at -1 is {mm:g}"
        )
    else:
        from .numeric import _floats, np  # numeric compiles its modules before numpy: lower peak RSS

        eig_a = np.linalg.eigvals(_floats(spec.A, "A"))
        eig_b = np.linalg.eigvals(_floats(spec.B, "B"))
        mp = float(min(basis_exponents(eig_a.real.tolist(), space)))
        mm = float(min(basis_exponents(eig_b.real.tolist(), space)))
        heuristic = True
        detail = (
            f"heuristic only: eigenvalue-based exponents for j={j}, k={k}; "
            f"min at +1 about {mp:g}, min at -1 about {mm:g}"
        )
    worst = min(mp, mm)
    return IntegrabilityReport(
        commutative=not heuristic,
        heuristic=heuristic,
        min_exponent_plus=mp,
        min_exponent_minus=mm,
        exists_ok=worst > -1.0,
        fast_ok=worst > -0.5,
        detail=detail,
    )


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
    diagonal.  tol is checked in either case.
    """
    _check_tolerance("tolerance", tol)
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    if j < 0 or k < 0:
        raise ValueError("indices must be >= 0")
    gate = integrability_check(spec, spec.space, j, k)
    if not gate.heuristic and not gate.exists_ok:
        raise ValueError(
            f"weighted integral does not exist: {gate.detail}; every exact "
            "endpoint exponent must exceed -1"
        )
    if gate.heuristic and not gate.fast_ok:
        raise ValueError(
            "noncommutative weighted integrals are restricted to heuristic "
            f"endpoint exponents > -1/2 ({gate.detail})"
        )
    claimed = j < k if side == "right" else j > k
    name = f"{side} weighted integral j={j} k={k} d={spec.d} n={spec.n}"

    # E_{s,h} for s <= lo, h the member right of W
    lo, h = (j, k) if side == "right" else (k, j)
    P = build_Pk(spec, h).mats
    R = moment_ratios(spec, lo + len(P))
    E = [reduce(add, (R[s + t] @ c for t, c in enumerate(P))) for s in range(lo + 1)]
    vanishes = all(e.is_zero for e in E)
    worst, est, level = 0.0, 0.0, None
    if not vanishes:  # the value is sum_s L_s mu_0 M_s over these (L_s, M_s)
        low = build_Pk(spec, lo).mats
        terms = (list(zip(low, E)) if side == "right"
                 else [(R[0], e @ p) for e, p in zip(E, low)])  # R_0 = I
        if is_commutative(spec):
            plus, minus = commutative_exponents(spec, spec.space)
            worst = max(abs(_jacobi_integral(sum(L.diag[i] * M.diag[i] for L, M in terms), a, b))
                        for i, (a, b) in enumerate(zip(plus, minus)))
        else:
            from .numeric import _moment_value  # the float layer, with numpy

            worst, est, level = _moment_value(spec, terms, tol)
    detail = "vanishing claimed" if claimed else "no vanishing claim for this index order"
    detail += ("; exact matrix moments, tolerance 0, resting on the heuristic gate for "
               "the exponents > -1 they need" if gate.heuristic
               else "; exact Jacobi moments, tolerance 0")
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
