"""Quasi-orthogonality integrals and their integrability gate, without numpy.

When both residues are diagonal, every P_k is diagonal and each channel
of the integral is a polynomial against a Jacobi weight with exact
exponents: a rational multiple of the Jacobi mass, so vanishing is
decided exactly.  Other problems are integrated in floats by
mvjacobi.numeric, which only they load, and numpy with it; their gate
refuses heuristic endpoint exponents at or below -1/2, where the
endpoint cap of the fundamental matrix biases the integral.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Optional

from .operators import ProblemSpec, basis_exponents
from .oppoly import build_Pk
from .polyspace import PolySpace
from .rational import ONE


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


def _jacobi_moments(a, b, count: int) -> list:
    """mu_m = int x^m w / int w for w = (1-x)^a (1+x)^b, a, b > -1, m < count.

    Integrating d/dx [(1 - x^2) w x^m] over (-1, 1) gives mu_0 = 1 and
    (a + b + m + 2) mu_{m+1} = (b - a) mu_m + m mu_{m-1}.
    """
    mu = [ONE]
    for m in range(count - 1):
        lower = m * mu[m - 1] if m else 0
        mu.append(((b - a) * mu[m] + lower) / (a + b + m + 2))
    return mu


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


def _exact_channel_integrals(spec: ProblemSpec, j: int, k: int) -> list[tuple]:
    """(R_i, R_i M0_i) per channel of P_j W P_k = W P_j P_k, both residues diagonal.

    Channel i integrates the i-th diagonal entries of P_j and P_k against
    the Jacobi weight of basis element i; R_i = sum c_m mu_m is rational.
    """
    pj = [c.diag for c in build_Pk(spec, j).coeffs]
    pk = [c.diag for c in build_Pk(spec, k).coeffs]
    plus, minus = commutative_exponents(spec, spec.space)
    out = []
    for i, (a, b) in enumerate(zip(plus, minus)):
        mu = _jacobi_moments(a, b, len(pj) + len(pk) - 1)
        R = sum(cj[i] * ck[i] * mu[s + t] for s, cj in enumerate(pj) for t, ck in enumerate(pk))
        out.append((R, _jacobi_integral(R, a, b)))
    return out


def quasi_orth_integral(spec: ProblemSpec, j: int, k: int, side: str,
                        tol: float = 1e-8) -> NumericReport:
    """Weighted integral over (-1, 1) whose one-sided vanishing is the claim.

    side "right" integrates P_j W P_k (vanishes for j < k); side "left"
    integrates W P_j P_k (vanishes for j > k).  Off-claim index orders are
    computed and reported without a pass/fail assertion.

    Commutative problems are integrated exactly and pass a claim only at
    exactly 0; others use tanh-sinh over the ODE weight to tol/10 and
    pass within tol plus the estimated quadrature error.  tol is checked
    in either case.
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

    detail = "vanishing claimed" if claimed else "no vanishing claim for this index order"
    if is_commutative(spec):
        channels = _exact_channel_integrals(spec, j, k)
        worst = max(abs(value) for _, value in channels)
        vanishes = all(R == 0 for R, _ in channels)
        est, tol, level = 0.0, 0.0, None
        detail += "; exact Jacobi moments, tolerance 0"
    else:
        from .numeric import _de_quasi_orth  # the float layer, with numpy

        worst, est, level = _de_quasi_orth(spec, j, k, side, tol)
        vanishes = worst <= tol + est
    return NumericReport(
        quantity=name,
        max_abs_entry=worst,
        estimated_quadrature_error=est,
        tolerance=tol,
        passed=vanishes if claimed else True,
        claimed=claimed,
        detail=detail,
        de_level=level,
    )
