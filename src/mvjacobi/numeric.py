"""Floating-point layer: fundamental matrix, weight, and tanh-sinh quadrature.

The system y' = [A/(x-1) + B/(x+1)] y, i.e. (x^2 - 1) y' = (x M1 + M2) y
with M1 = A + B and M2 = A - B, has regular singular points at +-1.  Its
fundamental matrix Y(x), normalized to the identity at 0, is continued
toward each endpoint by Taylor series at centers that step half a
radius toward it, less for residues of large norm (the classical Taylor
method for holonomic systems), up to |x| <= 1 - 1e-12.  Each side is
swept once per problem and kept as dense output, which evaluates a
whole array of points at once; only numpy is needed.
For simultaneously diagonal residues the closed form
diag((1-x)^{a_i} (1+x)^{b_i}) is used instead; on (-1, 1) this real
branch differs from an analytic continuation only by a constant
diagonal right factor, which none of the checked statements feel.

Weighted integrals over (-1, 1) use tanh-sinh (double-exponential)
quadrature with dyadic step sizes, so the levels are nested: each level
reuses the previous level's sum and evaluates the integrand only at its
new odd-indexed nodes, in one call on the whole node array, and a
refinement that has not settled by level 10 fails.  The weight integrand
keeps the nodes as a leading axis throughout: dense output and weight
action are stacks.  Nodes are generated together with the exact
distances 1 -+ x to the endpoints, and integrands receive those
distances directly; this is what keeps endpoint powers like
(1-x)^(-1/2) accurate where float subtraction would have lost
everything.

Quasi-orthogonality and its gate live in mvjacobi.integrals
(re-exported here as the same objects), which decides claims by exact
matrix moments and loads this module only for a noncommutative value,
exact moment sums times the one tanh-sinh integral mu_0 = int W.

The one in-process setting is the float `tol`, the accuracy target of
mu_0 (and the relative tolerance of the integral inter-relation); it
must be finite and positive.  Each Taylor series is summed to the fixed
tail _TAIL = 1e-20.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

from .errors import OdeError, QuadratureError
from .integrals import (NumericReport, _check_tolerance, _float,  # noqa: F401
                        commutative_exponents, integrability_check, is_commutative,
                        quasi_orth_integral)
from .operators import ProblemSpec, induced_action_float
from .oppoly import OpPoly, build_Pk
from .polyspace import PolyVector
from .ratmat import RatMatrix
# keep at module level: perfbench/traced_cli.install finds mvjacobi.structure in sys.modules
from .structure import build_tilde_Pk

# numpy comes after the package's modules: when no bytecode is cached,
# compiling them (structure is first loaded here) before numpy's memory
# is in use lowers the peak RSS of a noncommutative `quadrature`
import numpy as np  # noqa: E402

X_CAP = 1.0 - 1e-12  # ODE solutions are only taken this close to +-1
_CAP_DIST = 1.0 - X_CAP
# a Taylor series is summed until its terms fall below this; the truncations
# of ~40 centers per side then add up to less than rounding
_TAIL = 1e-20
_MAX_TERMS = 1000  # a Taylor sweep whose terms are still above its tail by then fails
_MAX_CENTERS = 4000  # about 27.6 (1 + |A| + |B|) per side; 4000 allows norms up to ~140
_DE_TMAX = 6.0
_DE_FIRST_LEVEL = 4
_DE_LAST_LEVEL = 10  # refinement that has not settled by this level fails
_DELTA_FLOOR = 5e-300  # tanh-sinh nodes closer than this to an endpoint are dropped
_NODE_BLOCK = 32  # nodes per batched weight evaluation, bounding the (block, N, N) temporaries


# -- fundamental matrix ------------------------------------------------------


def _floats(M: RatMatrix, what: str) -> np.ndarray:
    """M as floats, e / den rounding as float(Fraction) does; `what` names M in errors."""
    try:
        return np.array([[e / M.den for e in row] for row in M.num])
    except OverflowError:
        raise ValueError(f"an entry of {what} is past the float range") from None


class _Sweep(NamedTuple):
    """Taylor data of one sweep from 0 toward an endpoint.

    Center k lies at distance dist[k] from that endpoint (decreasing in
    k) and has radius rho[k]; coeffs is a (terms, centers, d, d) array z
    with Y(c_k + rho[k] s) = sum_j z[j, k] s^j.
    """

    dist: np.ndarray
    rho: np.ndarray
    coeffs: np.ndarray
    nfev: int  # Taylor coefficient matrices in the sweep, over all centers


def _sum_series(z: np.ndarray, s, centers=slice(None)) -> np.ndarray:
    """sum_j z[j, centers] s^j by Horner; s broadcasts against z[j, centers].

    Gathering one term at a time keeps a fancy-indexed `centers` from
    copying the whole coefficient stack.
    """
    acc = z[-1, centers]
    for zj in z[-2::-1]:
        acc = acc * s + zj[centers]
    return acc


def solve_ivp(A: np.ndarray, B: np.ndarray, sign: int) -> _Sweep:
    """Continue Y(0) = I toward the endpoint sign * 1 in Taylor steps.

    Each center c has radius rho = min(1 - c, 1 + c), the distance to the
    nearer singular point, and the next center lies at s = sign * h,
    where s = (x - c)/rho.  The centers are carried as their distance e
    to the approached endpoint, with c^2 - 1 = -e (2 - e), so rho keeps
    its full relative precision near the endpoint, where x itself would
    have lost it.  The sweep ends at the first center whose reach h rho
    gets to the cap 1 - X_CAP.

    The scaled Taylor coefficients z_j = T_j Y(c) obey the three-term
    recursion (with M1 = A + B, M2 = A - B and q = c^2 - 1)

        T_{j+1} = rho [(c M1 + M2 - 2cj) T_j + rho (M1 - (j-1)) T_{j-1}] / (q (j+1)),

    which is run for all centers at once.  It stops once two consecutive
    terms at |s| = h have norm below _TAIL at every center: the bound
    holds for each column of Y(c), so small columns keep their relative
    accuracy.  The step is h = 1/2 while nu = |A| + |B| <= 1 and
    h = 1/(1 + nu) beyond: the terms of a series summed at |s| = h can
    exceed its value by (1 - h)^(-2 nu), which this keeps below e^2.
    """
    nu = np.max(np.sum(np.abs(A), axis=1)) + np.max(np.sum(np.abs(B), axis=1))
    h = 1.0 / (1.0 + max(1.0, nu))
    dist = [1.0]
    while (reach := dist[-1] - h * min(dist[-1], 2.0 - dist[-1])) > _CAP_DIST:
        if len(dist) == _MAX_CENTERS:
            raise OdeError(f"residue norm |A| + |B| = {nu:g} needs more than "
                           f"{_MAX_CENTERS} Taylor centers toward {sign:+d}")
        dist.append(reach)
    e = np.array(dist)[:, None, None]
    rho = np.minimum(e, 2.0 - e)
    c = sign * (1.0 - e)
    L = (c + 1.0) * A + (c - 1.0) * B  # c M1 + M2
    rM1 = rho * (A + B)
    rho_q = rho / (-e * (2.0 - e))  # rho / q
    T = [np.broadcast_to(np.eye(A.shape[0]), L.shape)]
    prev = np.zeros(L.shape)
    settled = 0
    while settled < 2:
        j = len(T) - 1
        if j == _MAX_TERMS:
            raise OdeError(f"Taylor series toward {sign:+d} did not settle "
                           f"within {_MAX_TERMS} terms")
        cur = T[-1]
        nxt = (rho_q / (j + 1)) * (L @ cur - (2.0 * j) * c * cur
                                  + rM1 @ prev - (j - 1) * rho * prev)
        T.append(nxt)
        norm = np.max(np.sum(np.abs(nxt), axis=2)) * h ** (j + 1)
        settled = settled + 1 if norm <= _TAIL else 0
        prev = cur
    T = np.stack(T)
    # Y at each center: the previous one carried across one step
    step_to_next = _sum_series(T, sign * h)
    Y = [np.eye(A.shape[0])]
    for P in step_to_next[:-1]:
        Y.append(P @ Y[-1])
        if not np.all(np.isfinite(Y[-1])):
            raise OdeError(f"non-finite fundamental matrix at distance "
                           f"{dist[len(Y) - 1]:.17g} from {sign:+d}")
    return _Sweep(e.ravel(), rho.ravel(), T @ np.stack(Y), T.shape[0] * T.shape[1])


@lru_cache(maxsize=None)
def _sweep(spec: ProblemSpec, sign: int) -> _Sweep:
    """The sweep of spec toward sign * 1, made once per problem and side on first use."""
    return solve_ivp(_floats(spec.A, "A"), _floats(spec.B, "B"), sign)


def _Y_at(spec: ProblemSpec, x: np.ndarray, dist_minus: Optional[np.ndarray] = None,
          dist_plus: Optional[np.ndarray] = None) -> np.ndarray:
    """Y at each node of the 1-D array x, stacked as (len(x), d, d).

    A point is evaluated from the last center of its side's sweep that is
    not beyond it, so |s| <= h there, and points closer to an endpoint
    than 1 - X_CAP are evaluated at the cap.  Optional exact endpoint
    distances 1 - x and 1 + x sharpen s near +-1.
    """
    x = np.asarray(x, dtype=float)
    dist_minus = 1.0 - x if dist_minus is None else np.asarray(dist_minus, dtype=float)
    dist_plus = 1.0 + x if dist_plus is None else np.asarray(dist_plus, dtype=float)
    plus = x > 0.0
    delta = np.where(plus, dist_minus, dist_plus)
    outside = ~(delta > 0.0)
    if outside.any():
        raise ValueError(f"x = {x[outside][0]} outside (-1, 1)")
    out = np.empty(x.shape + (spec.d, spec.d))
    for sign, side in ((1, plus), (-1, ~plus)):
        if side.any():
            sweep = _sweep(spec, sign)
            dist = np.maximum(delta[side], _CAP_DIST)
            # the last center not beyond dist; the first one, 0, for x = 0
            # (there s = 0 and the series gives Y(0) = I) or a node within rounding of it
            i = np.maximum(np.searchsorted(-sweep.dist, -dist, side="right") - 1, 0)
            s = sign * (sweep.dist[i] - dist) / sweep.rho[i]
            out[side] = _sum_series(sweep.coeffs, s[:, None, None], i)
    return out


def fundamental_matrix(spec: ProblemSpec, x: float) -> np.ndarray:
    """Y(x) with Y(0) = I, from the Taylor sweeps of Y' = MY."""
    return _Y_at(spec, np.array([_float(x, "x")]))[0]


def commutative_Y(spec: ProblemSpec, x: float) -> np.ndarray:
    """Closed-form diag((1-x)^{a_i} (1+x)^{b_i}); real branch on (-1, 1)."""
    if not is_commutative(spec):
        raise ValueError("closed-form Y needs both residues diagonal")
    x = _float(x, "x")
    if not -1.0 < x < 1.0:
        raise ValueError(f"x = {x} outside (-1, 1)")
    a = [_float(e, "a diagonal entry of A") for e in spec.A.diag]
    b = [_float(e, "a diagonal entry of B") for e in spec.B.diag]
    try:  # a power past the float range raises, where a product would give inf
        return np.diag([(1.0 - x) ** ai * (1.0 + x) ** bi for ai, bi in zip(a, b)])
    except OverflowError:
        raise ValueError(f"Y({x:g}) is past the float range") from None


def weight(spec: ProblemSpec, x: float) -> np.ndarray:
    """Induced action of Y(x) on the coefficient space, as floats.

    Commutative problems use the closed-form Y; otherwise Y comes from
    the ODE sweep.
    """
    if is_commutative(spec):
        Y = commutative_Y(spec, x)
    else:
        Y = fundamental_matrix(spec, x)
    return induced_action_float(Y, spec.space)


# -- double-exponential quadrature -------------------------------------------

# An integrand is called once per level with that level's new nodes as arrays
# (x, dist_minus, dist_plus), where dist_minus = 1 - x and dist_plus = 1 + x are
# computed without cancellation, so endpoint powers stay accurate far below
# float resolution of x itself.  It returns its values stacked along a leading
# node axis.
Integrand = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def _de_nodes(level: int) -> tuple[np.ndarray, ...]:
    """Nodes x, distances 1 - x and 1 + x, and weights / h of one level.

    The first level takes every node t = i h; later levels take only the
    odd i, the nodes the coarser levels do not already have.
    """
    h = 2.0 ** (-level)
    K = int(math.floor(_DE_TMAX / h))
    i = np.arange(-K, K + 1) if level == _DE_FIRST_LEVEL else np.arange(1 - K, K, 2)
    t = i * h
    u = 0.5 * math.pi * np.sinh(t)
    eu = np.exp(-2.0 * np.abs(u))
    delta = 2.0 * eu / (1.0 + eu)  # 1 - |tanh(u)|, exact to the last bit
    keep = delta > _DELTA_FLOOR
    t, u, delta = t[keep], u[keep], delta[keep]
    x = np.copysign(1.0 - delta, u)
    dist_minus = np.where(u >= 0, delta, 2.0 - delta)
    dist_plus = np.where(u >= 0, 2.0 - delta, delta)
    # delta(2-delta) = 1 - tanh^2(u) = sech^2(u); avoids cosh overflow for large u
    return x, dist_minus, dist_plus, 0.5 * math.pi * np.cosh(t) * (delta * (2.0 - delta))


def de_integrate(integrand: Integrand, target: float) -> tuple[np.ndarray, float, int]:
    """Tanh-sinh integral of a matrix/vector integrand over (-1, 1).

    Levels are refined (halving h) until two consecutive levels agree to
    the target; returns (value, estimated error, final level).  The
    integrand is called once per level, on that level's new nodes; each
    level's sum is h times the running sum over all nodes so far, so no
    node is evaluated twice.  Raises QuadratureError when level
    _DE_LAST_LEVEL has not settled.
    """
    total = 0.0
    prev = None
    est = math.inf
    for level in range(_DE_FIRST_LEVEL, _DE_LAST_LEVEL + 1):
        x, dist_minus, dist_plus, w = _de_nodes(level)
        values = np.asarray(integrand(x, dist_minus, dist_plus), dtype=float)
        total = total + np.tensordot(w, values, axes=1)
        cur = 2.0 ** (-level) * total
        if prev is not None:
            est = float(np.max(np.abs(cur - prev)))
            if est <= target:
                return cur, est, level
        prev = cur
    raise QuadratureError(
        f"double-exponential refinement did not reach {target:g} "
        f"within {_DE_LAST_LEVEL} levels (last change {est:g})",
        estimated_error=est,
    )


# -- quasi-orthogonality values ------------------------------------------------


def _moment_value(spec: ProblemSpec, terms: list, tol: float) -> tuple[float, float, int]:
    """(max |entry|, error bound, level) of sum_s L_s mu_0 M_s for exact pairs (L_s, M_s).

    mu_0 = int W is integrated by tanh-sinh to tol/10; an error est per entry
    of mu_0 moves entry (a, c) by at most est sum_s |L_s|_{a.} |M_s|_{.c}.
    """
    space = spec.space

    def integrand(x: np.ndarray, dist_minus: np.ndarray, dist_plus: np.ndarray) -> np.ndarray:
        out = np.empty((len(x), space.N, space.N))
        for lo in range(0, len(x), _NODE_BLOCK):
            b = slice(lo, lo + _NODE_BLOCK)
            out[b] = induced_action_float(_Y_at(spec, x[b], dist_minus[b], dist_plus[b]), space)
        return out

    mu0, est, level = de_integrate(integrand, tol / 10.0)
    L = np.stack([_floats(left, "a member coefficient") for left, _ in terms])
    M = np.stack([_floats(right, "a moment sum") for _, right in terms])
    value = np.sum(L @ mu0 @ M, axis=0)
    bound = np.abs(L).sum(axis=2).T @ np.abs(M).sum(axis=1)
    return float(np.max(np.abs(value))), est * float(np.max(bound)), level


# -- integral inter-relation ---------------------------------------------------


def _np_coeffs(P: OpPoly, what: str) -> np.ndarray:
    """The coefficients of P (named `what`) as floats, stacked lowest power first."""
    return np.stack([_floats(c, what) for c in P.coeffs])


def _np_members(coeffs: np.ndarray, x) -> np.ndarray:
    """sum_i coeffs[i] x^i at each node of x, stacked along x's axes."""
    return np.tensordot(np.power.outer(x, np.arange(len(coeffs))), coeffs, axes=1)


def integral_interrelation_check(spec: ProblemSpec, k: int, x0: float,
                                 q: PolyVector, tol: float = 1e-6) -> NumericReport:
    """Compare P_k(x0) q against the weighted integral of the shifted member.

    The shifted family integrates back to the base one:

        P_k(x0) q = W(x0)^{-1} * integral_{-1}^{x0} Q(t)^{-1} W(t) P~_{k+1}(t) q dt,

    which follows from d/dx [W P_k] = Q^{-1} W P~_{k+1} (the derivative
    inter-relation conjugated by the weight) plus W P_k q -> 0 at -1 for
    integrable parameters.  The check quantifies the relative error at a
    single interior x0 and passes within tol plus the estimated
    quadrature error.
    """
    _check_tolerance(tol)
    if spec.n < 2:
        raise ValueError("the shifted family needs n >= 2")
    if not -1.0 < x0 < 1.0:
        raise ValueError(f"x0 = {x0} outside (-1, 1)")
    if not is_commutative(spec):
        raise ValueError(
            "the integral inter-relation check is implemented for commutative "
            "problems, where endpoint integrability is decidable exactly"
        )
    plus, minus = commutative_exponents(spec)
    bad = [e for e in minus if e <= 0]
    if bad:
        raise ValueError(
            "integrand is not integrable at -1: the weight exponents there must "
            f"exceed 0 to absorb the 1/Q factor, found minimum "
            f"{_float(min(minus), 'an endpoint exponent from B'):g}"
        )

    qf = np.array([_float(e, "an entry of q") for e in q])
    lhs = _np_members(_np_coeffs(build_Pk(spec, k), f"P_{k}"), float(x0)) @ qf

    ct_q = _np_coeffs(build_tilde_Pk(spec, k + 1), f"P~_{k + 1}") @ qf  # P~_{k+1}(t) q
    pe = np.array([_float(e, "an endpoint exponent from A") for e in plus])
    me = np.array([_float(e, "an endpoint exponent from B") for e in minus])
    half_len = (float(x0) + 1.0) / 2.0

    def integrand(u: np.ndarray, du_minus: np.ndarray, du_plus: np.ndarray) -> np.ndarray:
        # t runs over (-1, x0); distances to the endpoints stay cancellation-free
        dist_plus = du_plus[:, None] * half_len   # t - (-1)
        t = dist_plus - 1.0
        dist_minus = 1.0 - t                      # not small: x0 < 1
        w_diag = dist_minus ** pe * dist_plus ** me
        vec = _np_members(ct_q, t[:, 0])
        q_inv = -1.0 / (dist_minus * dist_plus)   # 1 / (t^2 - 1)
        return (q_inv * half_len) * (w_diag * vec)

    integral, est, level = de_integrate(integrand, tol / 10.0)
    w0_diag = (1.0 - float(x0)) ** pe * (1.0 + float(x0)) ** me
    rhs = integral / w0_diag
    scale = float(np.max(np.abs(lhs)))
    diff = float(np.max(np.abs(lhs - rhs)))
    rel = diff / scale if scale > 0 else diff
    passed = rel <= tol + est / max(scale, 1e-300)
    return NumericReport(
        quantity=f"integral inter-relation k={k} at x0={float(x0):g}",
        max_abs_entry=rel,
        estimated_quadrature_error=est / max(scale, 1e-300),
        tolerance=tol,
        passed=passed,
        detail=f"relative error; |lhs| scale {scale:g}, absolute difference {diff:g}",
        de_level=level,
    )
