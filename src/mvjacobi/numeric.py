"""Floating-point layer: fundamental matrix, weight, and quadrature.

The system y' = [A/(x-1) + B/(x+1)] y, i.e. (x^2 - 1) y' = (x M1 + M2) y
with M1 = A + B and M2 = A - B, has regular singular points at +-1.  Its
fundamental matrix Y(x), normalized to the identity at an interior
basepoint, is continued toward each endpoint by Taylor series at
centers that step half a radius toward it, less for residues of large
norm (the classical Taylor method for holonomic systems), up to
|x| <= 1 - 1e-12.  Each side is swept once per problem and kept as
dense output, which evaluates a whole array of points at once; only
numpy is needed.
For simultaneously diagonal residues the closed form
diag((1-x)^{a_i} (1+x)^{b_i}) is used instead; on (-1, 1) this real
branch differs from an analytic continuation only by a constant
diagonal right factor, which none of the checked statements feel.

Weighted integrals over (-1, 1) use tanh-sinh (double-exponential)
quadrature with dyadic step sizes, so the levels are nested: each level
reuses the previous level's sum and evaluates the integrand only at its
new odd-indexed nodes, in one call on the whole node array.  The
noncommutative integrand keeps the nodes as a leading axis throughout:
dense output, weight action, members and their products are stacks.
Nodes are generated together with the exact distances 1 -+ x to the
endpoints, and integrands receive those distances directly; this is
what keeps endpoint powers like (1-x)^(-1/2) accurate where float
subtraction would have lost everything.  The one exception is
quasi-orthogonality for commutative problems, where every channel is a
polynomial against a Jacobi weight: its integrals are rational
multiples of the Jacobi mass, from the classical moment recurrence, so
vanishing is decided exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

from .errors import OdeError, QuadratureError
from .operators import ProblemSpec, basis_exponents, induced_action_float
from .oppoly import OpPoly, build_Pk
from .polyspace import PolySpace, PolyVector
from .ratmat import RatMatrix
from .rational import ONE
from .structure import build_tilde_Pk

# numpy comes after the package's modules: when no bytecode is cached,
# compiling them (structure is first loaded here) before numpy's memory
# is in use lowers the peak RSS of `quadrature`
import numpy as np  # noqa: E402

X_CAP = 1.0 - 1e-12  # ODE solutions are only taken this close to +-1
_CAP_DIST = 1.0 - X_CAP
_MAX_TERMS = 1000  # a Taylor sweep whose terms are still above its tail by then fails
_MAX_CENTERS = 4000  # about 27.6 (1 + |A| + |B|) per side; 4000 allows norms up to ~140
_DE_TMAX = 6.0
_DE_FIRST_LEVEL = 4
_DELTA_FLOOR = 5e-300  # tanh-sinh nodes closer than this to an endpoint are dropped
_NODE_BLOCK = 32  # nodes per batched weight evaluation, bounding the (block, N, N) temporaries


def _require_finite(cfg, fields: Sequence[str]) -> None:
    for name in fields:
        if not math.isfinite(getattr(cfg, name)):
            raise ValueError(f"{name} must be finite, got {getattr(cfg, name)!r}")


@dataclass(frozen=True)
class OdeConfig:
    rel_tol: float = 1e-10
    basepoint: float = 0.0

    def __post_init__(self):
        _require_finite(self, ("rel_tol", "basepoint"))
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        if not -1.0 < self.basepoint < 1.0:
            raise ValueError("basepoint must lie strictly inside (-1, 1)")


@dataclass(frozen=True)
class QuadConfig:
    levels: int = 10
    tolerance: float = 1e-8

    def __post_init__(self):
        _require_finite(self, ("tolerance",))
        if self.levels < _DE_FIRST_LEVEL + 1:
            raise ValueError(f"levels must be >= {_DE_FIRST_LEVEL + 1}")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class NumericReport:
    quantity: str
    max_abs_entry: float
    estimated_quadrature_error: float
    tolerance: float
    passed: bool
    claimed: bool = True
    detail: str = ""
    de_level: Optional[int] = None  # tanh-sinh level reached, when one was used

    def to_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "max_abs_entry": self.max_abs_entry,
            "estimated_quadrature_error": self.estimated_quadrature_error,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "claimed": self.claimed,
            "detail": self.detail,
            "de_level": self.de_level,
        }


def is_commutative(spec: ProblemSpec) -> bool:
    """Both residues diagonal, hence everything simultaneously diagonal."""
    return spec.A.diag is not None and spec.B.diag is not None


# -- fundamental matrix ------------------------------------------------------


def _floats(M: RatMatrix) -> np.ndarray:
    """M as a float array, entry e / den from the integer numerators.

    int / int true division is correctly rounded, and so is
    float(Fraction), so this equals the Fraction view entry by entry
    without building it.
    """
    return np.array([[e / M.den for e in row] for row in M.num])


@dataclass(frozen=True)
class _Sweep:
    """Taylor data of one sweep from the basepoint toward an endpoint.

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


def solve_ivp(A: np.ndarray, B: np.ndarray, basepoint: float, sign: int,
              tail: float) -> _Sweep:
    """Continue Y(basepoint) = I toward the endpoint sign * 1 in Taylor steps.

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
    terms at |s| = h have norm below tail at every center: the bound
    holds for each column of Y(c), so small columns keep their relative
    accuracy.  The step is h = 1/2 while nu = |A| + |B| <= 1 and
    h = 1/(1 + nu) beyond: the terms of a series summed at |s| = h can
    exceed its value by (1 - h)^(-2 nu), which this keeps below e^2.
    """
    nu = np.max(np.sum(np.abs(A), axis=1)) + np.max(np.sum(np.abs(B), axis=1))
    h = 1.0 / (1.0 + max(1.0, nu))
    dist = [1.0 - sign * basepoint]
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
        settled = settled + 1 if norm <= tail else 0
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


class _FundamentalSolver:
    """Y(x) from one Taylor sweep per side of the basepoint.

    A side is swept on first use.  A point is evaluated from the last
    center of its side that is not beyond it, so |s| <= h there, and
    points closer to an endpoint than 1 - X_CAP are evaluated at the cap.
    """

    def __init__(self, spec: ProblemSpec, cfg: OdeConfig):
        self.cfg = cfg
        self.d = spec.d
        self._a = _floats(spec.A)
        self._b = _floats(spec.B)
        self._sweeps: dict[int, _Sweep] = {}

    def _sweep(self, sign: int) -> _Sweep:
        if sign not in self._sweeps:
            # the truncations of ~40 centers per side add up; squaring the
            # tolerance keeps them below rounding at the default 1e-10
            self._sweeps[sign] = solve_ivp(self._a, self._b, self.cfg.basepoint,
                                           sign, self.cfg.rel_tol ** 2)
        return self._sweeps[sign]

    def at(self, x: np.ndarray, dist_minus: Optional[np.ndarray] = None,
           dist_plus: Optional[np.ndarray] = None) -> np.ndarray:
        """Y at each node of the 1-D array x, stacked as (len(x), d, d).

        Optional exact endpoint distances 1 - x and 1 + x sharpen s near +-1.
        """
        x = np.asarray(x, dtype=float)
        dist_minus = 1.0 - x if dist_minus is None else np.asarray(dist_minus, dtype=float)
        dist_plus = 1.0 + x if dist_plus is None else np.asarray(dist_plus, dtype=float)
        at_base = x == self.cfg.basepoint
        plus = x > self.cfg.basepoint
        delta = np.where(plus, dist_minus, dist_plus)
        outside = ~at_base & ~(delta > 0.0)
        if outside.any():
            raise ValueError(f"x = {x[outside][0]} outside (-1, 1)")
        out = np.empty(x.shape + (self.d, self.d))
        out[at_base] = np.eye(self.d)
        for sign, side in ((1, plus), (-1, ~plus & ~at_base)):
            if side.any():
                out[side] = self._side(sign, np.maximum(delta[side], _CAP_DIST))
        return out

    def _side(self, sign: int, delta: np.ndarray) -> np.ndarray:
        sweep = self._sweep(sign)
        # the last center not beyond delta; the first one for a node that
        # lies within rounding of the basepoint
        i = np.maximum(np.searchsorted(-sweep.dist, -delta, side="right") - 1, 0)
        s = sign * (sweep.dist[i] - delta) / sweep.rho[i]
        return _sum_series(sweep.coeffs, s[:, None, None], i)


@lru_cache(maxsize=None)
def _solver(spec: ProblemSpec, cfg: OdeConfig) -> _FundamentalSolver:
    return _FundamentalSolver(spec, cfg)


def fundamental_matrix(spec: ProblemSpec, x: float, cfg: Optional[OdeConfig] = None) -> np.ndarray:
    """Y(x) with Y(basepoint) = I, from the Taylor sweeps of Y' = MY."""
    return _solver(spec, cfg or OdeConfig()).at(np.array([float(x)]))[0]


def commutative_Y(spec: ProblemSpec, x: float) -> np.ndarray:
    """Closed-form diag((1-x)^{a_i} (1+x)^{b_i}); real branch on (-1, 1)."""
    a_diag = spec.A.diag
    b_diag = spec.B.diag
    if a_diag is None or b_diag is None:
        raise ValueError("closed-form Y needs both residues diagonal")
    x = float(x)
    if not -1.0 < x < 1.0:
        raise ValueError(f"x = {x} outside (-1, 1)")
    entries = [
        (1.0 - x) ** float(a) * (1.0 + x) ** float(b)
        for a, b in zip(a_diag, b_diag)
    ]
    return np.diag(entries)


def weight(spec: ProblemSpec, space: PolySpace, x: float,
           cfg: Optional[OdeConfig] = None) -> np.ndarray:
    """Induced action of Y(x) on the coefficient space, as floats.

    Commutative problems use the closed-form Y; otherwise Y comes from
    the ODE sweep under cfg.
    """
    if is_commutative(spec):
        Y = commutative_Y(spec, x)
    else:
        Y = fundamental_matrix(spec, x, cfg)
    return induced_action_float(Y, space)


def ode_vs_closed_form_report(spec: ProblemSpec, cfg: Optional[OdeConfig] = None,
                              points: int = 20) -> NumericReport:
    """Max deviation of the ODE fundamental matrix from the closed form.

    The two differ by a constant right factor fixed at the basepoint, so
    the ODE result is compared with C(x) C(basepoint)^{-1}.
    """
    cfg = cfg or OdeConfig()
    base = commutative_Y(spec, cfg.basepoint)
    xs = np.linspace(-0.95, 0.95, points)
    got = _solver(spec, cfg).at(xs)
    want = np.stack([commutative_Y(spec, x) for x in xs.tolist()]) @ np.linalg.inv(base)
    worst = float(np.max(np.abs(got - want)))
    tol = 10.0 * cfg.rel_tol
    return NumericReport(
        quantity=f"ODE vs closed-form fundamental matrix at {points} points",
        max_abs_entry=worst,
        estimated_quadrature_error=0.0,
        tolerance=tol,
        passed=worst <= tol,
    )


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


def de_integrate(integrand: Integrand, qcfg: QuadConfig,
                 target: Optional[float] = None) -> tuple[np.ndarray, float, int]:
    """Tanh-sinh integral of a matrix/vector integrand over (-1, 1).

    Levels are refined (halving h) until two consecutive levels agree to
    the target (default tolerance/10); returns (value, estimated error,
    final level).  The integrand is called once per level, on that
    level's new nodes; each level's sum is h times the running sum over
    all nodes so far, so no node is evaluated twice.  Raises
    QuadratureError when the level budget runs out.
    """
    if target is None:
        target = qcfg.tolerance / 10.0
    total = 0.0
    prev = None
    est = math.inf
    for level in range(_DE_FIRST_LEVEL, qcfg.levels + 1):
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
        f"within {qcfg.levels} levels (last change {est:g})",
        estimated_error=est,
    )


# -- endpoint exponents and integrability -------------------------------------


def commutative_exponents(spec: ProblemSpec, space: PolySpace) -> tuple[tuple, tuple]:
    """Exact weight exponents (at +1, at -1) per basis element.

    The weight acts diagonally with entry (1-x)^{m.a - a_j} (1+x)^{m.b - b_j}
    on the basis element w^m e_j.
    """
    a_diag = spec.A.diag
    b_diag = spec.B.diag
    if a_diag is None or b_diag is None:
        raise ValueError("exact exponents need both residues diagonal")
    return tuple(basis_exponents(a_diag, space)), tuple(basis_exponents(b_diag, space))


@dataclass(frozen=True)
class IntegrabilityReport:
    commutative: bool
    heuristic: bool
    min_exponent_plus: float
    min_exponent_minus: float
    exists_ok: bool
    fast_ok: bool
    detail: str

    def to_dict(self) -> dict:
        return {
            "commutative": self.commutative,
            "heuristic": self.heuristic,
            "min_exponent_plus": self.min_exponent_plus,
            "min_exponent_minus": self.min_exponent_minus,
            "exists_ok": self.exists_ok,
            "fast_ok": self.fast_ok,
            "detail": self.detail,
        }


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
        mp = min(float(e) for e in plus)
        mm = min(float(e) for e in minus)
        heuristic = False
        detail = (
            f"exact exponents for indices j={j}, k={k}: "
            f"min at +1 is {mp:g}, min at -1 is {mm:g}"
        )
    else:
        eig_a = np.linalg.eigvals(_floats(spec.A))
        eig_b = np.linalg.eigvals(_floats(spec.B))
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


# -- quasi-orthogonality -------------------------------------------------------


def _np_coeffs(P: OpPoly) -> np.ndarray:
    """The coefficients of P as floats, stacked lowest power first."""
    return np.stack([_floats(c) for c in P.coeffs])


def _np_members(coeffs: np.ndarray, x) -> np.ndarray:
    """sum_i coeffs[i] x^i at each node of x, stacked along x's axes."""
    return np.tensordot(np.power.outer(x, np.arange(len(coeffs))), coeffs, axes=1)


def _require_integrable(spec: ProblemSpec, space: PolySpace, j: int, k: int,
                        override: bool) -> IntegrabilityReport:
    rep = integrability_check(spec, space, j, k)
    if not rep.heuristic and not rep.exists_ok:
        raise ValueError(
            f"weighted integral does not exist: {rep.detail}; every exact "
            "endpoint exponent must exceed -1"
        )
    if rep.heuristic and not rep.fast_ok and not override:
        raise ValueError(
            "noncommutative weighted integrals are restricted to heuristic "
            f"endpoint exponents > -1/2 ({rep.detail}); pass the "
            "override-integrability flag to force the computation"
        )
    return rep


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
    a, b = float(a), float(b)
    log_abs = (math.log(abs(R.numerator)) - math.log(R.denominator) + (a + b + 1.0) * math.log(2.0)
               + math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0))
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


def _general_quasi_orth_integrand(spec: ProblemSpec, j: int, k: int, side: str,
                                  ocfg: OdeConfig) -> Integrand:
    space = spec.space
    cj = _np_coeffs(build_Pk(spec, j))
    ck = _np_coeffs(build_Pk(spec, k))
    N = space.N
    solver = _solver(spec, ocfg)

    def integrand(x: np.ndarray, dist_minus: np.ndarray, dist_plus: np.ndarray) -> np.ndarray:
        out = np.empty((len(x), N, N))
        for lo in range(0, len(x), _NODE_BLOCK):
            b = slice(lo, lo + _NODE_BLOCK)
            W = induced_action_float(solver.at(x[b], dist_minus[b], dist_plus[b]), space)
            Fj = _np_members(cj, x[b])
            np.matmul(Fj @ W if side == "right" else W @ Fj, _np_members(ck, x[b]), out=out[b])
        return out

    return integrand


def quasi_orth_integral(spec: ProblemSpec, j: int, k: int, side: str,
                        qcfg: Optional[QuadConfig] = None,
                        ocfg: Optional[OdeConfig] = None,
                        override_integrability: bool = False) -> NumericReport:
    """Weighted integral over (-1, 1) whose one-sided vanishing is the claim.

    side "right" integrates P_j W P_k (vanishes for j < k); side "left"
    integrates W P_j P_k (vanishes for j > k).  Off-claim index orders are
    computed and reported without a pass/fail assertion.

    Commutative problems are integrated exactly and pass a claim only at
    exactly 0; others use tanh-sinh over the ODE weight and pass within
    tolerance plus the estimated quadrature error.
    """
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    if j < 0 or k < 0:
        raise ValueError("indices must be >= 0")
    qcfg = qcfg or QuadConfig()
    ocfg = ocfg or OdeConfig()
    space = spec.space
    _require_integrable(spec, space, j, k, override_integrability)
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
        integrand = _general_quasi_orth_integrand(spec, j, k, side, ocfg)
        value, est, level = de_integrate(integrand, qcfg)
        worst = float(np.max(np.abs(value)))
        vanishes = worst <= qcfg.tolerance + est
        tol = qcfg.tolerance
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


# -- integral inter-relation ---------------------------------------------------


def integral_interrelation_check(spec: ProblemSpec, k: int, x0: float,
                                 q: PolyVector,
                                 qcfg: Optional[QuadConfig] = None,
                                 ocfg: Optional[OdeConfig] = None) -> NumericReport:
    """Compare P_k(x0) q against the weighted integral of the shifted member.

    The shifted family integrates back to the base one:

        P_k(x0) q = W(x0)^{-1} * integral_{-1}^{x0} Q(t)^{-1} W(t) P~_{k+1}(t) q dt,

    which follows from d/dx [W P_k] = Q^{-1} W P~_{k+1} (the derivative
    inter-relation conjugated by the weight) plus W P_k q -> 0 at -1 for
    integrable parameters.  The check quantifies the relative error at a
    single interior x0.
    """
    if spec.n < 2:
        raise ValueError("the shifted family needs n >= 2")
    if not -1.0 < x0 < 1.0:
        raise ValueError(f"x0 = {x0} outside (-1, 1)")
    if not is_commutative(spec):
        raise ValueError(
            "the integral inter-relation check is implemented for commutative "
            "problems, where endpoint integrability is decidable exactly"
        )
    qcfg = qcfg or QuadConfig(tolerance=1e-6)
    space = spec.space
    plus, minus = commutative_exponents(spec, space)
    bad = [e for e in minus if e <= 0]
    if bad:
        raise ValueError(
            "integrand is not integrable at -1: the weight exponents there must "
            f"exceed 0 to absorb the 1/Q factor, found minimum {min(float(e) for e in minus):g}"
        )

    qf = np.array([float(e) for e in q])
    lhs = _np_members(_np_coeffs(build_Pk(spec, k)), float(x0)) @ qf

    ct_q = _np_coeffs(build_tilde_Pk(spec, k + 1)) @ qf  # coefficients of P~_{k+1}(t) q
    pe = np.array([float(e) for e in plus])
    me = np.array([float(e) for e in minus])
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

    integral, est, level = de_integrate(integrand, qcfg)
    w0_diag = (1.0 - float(x0)) ** pe * (1.0 + float(x0)) ** me
    rhs = integral / w0_diag
    scale = float(np.max(np.abs(lhs)))
    diff = float(np.max(np.abs(lhs - rhs)))
    rel = diff / scale if scale > 0 else diff
    passed = rel <= qcfg.tolerance + est / max(scale, 1e-300)
    return NumericReport(
        quantity=f"integral inter-relation k={k} at x0={float(x0):g}",
        max_abs_entry=rel,
        estimated_quadrature_error=est / max(scale, 1e-300),
        tolerance=qcfg.tolerance,
        passed=passed,
        detail=f"relative error; |lhs| scale {scale:g}, absolute difference {diff:g}",
        de_level=level,
    )
