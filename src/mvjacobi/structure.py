"""Structural identities of the family as executable procedures.

The degree-k members satisfy a two-step recurrence

    x P_k(x) = P_{k+1}(x) alpha_k + P_k(x) beta_k + P_{k-1}(x) gamma_k

with operator coefficients multiplying from the right; alpha_k, beta_k,
gamma_k solve three matrix equations obtained by matching the x^2, x
and constant coefficients of a quadratic operator identity.  Solvability
needs the shifted operators D1 + s nonsingular for s = 2k, 2k+1, 2k+2.
D1 is diagonal, so a shift is singular exactly when some diagonal entry
equals -s; failures surface as ResonanceError with that basis element
as the kernel witness.

The same invertibility (of the dominant coefficients) makes the family
complete: any coefficient-vector polynomial expands uniquely as
sum_j P_j(x) q_j by leading-term elimination, using seeded members
P_j(x) q_j rather than whole operator polynomials.

Everything here is exact; reports collect per-claim booleans rather
than tolerances.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import factorial
from typing import NamedTuple, Sequence

from .errors import ResonanceError
from .operators import ProblemSpec, build_D, describe_kernel, dominant_coefficient
from .oppoly import OpPoly, VectorPoly, apply_A, build_Pk, _product_apply
from .polyspace import PolyVector
from .ratmat import RatMatrix
from .rational import ONE, Rat, ZERO, falling_factorial
from .reporting import CheckReport
from .sampling import random_op_poly, random_vector

ScalarPoly = tuple  # scalar polynomial, index = power of x, trimmed


# -- recurrence ------------------------------------------------------------


class RecurrenceCoeffs(NamedTuple):
    k: int
    alpha: RatMatrix
    beta: RatMatrix
    gamma: RatMatrix


def _certified_inverse(op: RatMatrix, name: str, spec: ProblemSpec) -> RatMatrix:
    """Inverse of a diagonal operator, or ResonanceError naming a kernel e_b."""
    d = op.diag or ()
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


def _solve_recurrence(spec: ProblemSpec, k: int) -> RecurrenceCoeffs:
    """alpha_k, beta_k, gamma_k from the three coefficient equations, unchecked."""
    if k < 0:
        raise ValueError("k must be >= 0")
    D1 = build_D(spec, 1)
    D2 = build_D(spec, 2)
    inv2 = _certified_inverse(D1.plus_scalar(2 * k + 2), f"D1 + 2k + 2 at k = {k}", spec)
    if k == 0:
        # (D1+1) cancels against its inverse in alpha_0 (D1 is diagonal), so
        # it must not be inverted here: the shift 1 is outside the
        # nonresonance condition and may legitimately be singular
        return RecurrenceCoeffs(0, inv2, -(D2 @ inv2), RatMatrix.zeros(spec.space.N))
    inv1 = _certified_inverse(D1.plus_scalar(2 * k + 1), f"D1 + 2k + 1 at k = {k}", spec)
    alpha = inv1 @ inv2 @ D1.plus_scalar(k + 1)
    inv0 = _certified_inverse(D1.plus_scalar(2 * k), f"D1 + 2k at k = {k}", spec)
    mid = D2.scale(4 * k + 2) + D1 @ D2 + D2 @ D1
    beta = inv0 @ (D2 - mid @ alpha)
    gamma = (
        RatMatrix.identity(spec.space.N).scale(k - 1)
        - (D2 @ D2 - D1.plus_scalar(2 * k + 2)) @ alpha
        - D2 @ beta
    )
    return RecurrenceCoeffs(k, alpha, beta, gamma)


def _recurrence_holds(spec: ProblemSpec, rc: RecurrenceCoeffs) -> bool:
    """x P_k == P_{k+1} alpha_k + P_k beta_k + P_{k-1} gamma_k, exactly."""
    k = rc.k
    rhs = build_Pk(spec, k + 1).rmul(rc.alpha)
    rhs = rhs.add(build_Pk(spec, k).rmul(rc.beta))
    if k >= 1:
        rhs = rhs.add(build_Pk(spec, k - 1).rmul(rc.gamma))
    return build_Pk(spec, k).mul_by_x() == rhs


def recurrence_coeffs(spec: ProblemSpec, k: int) -> RecurrenceCoeffs:
    """Right-multiplier coefficients of the two-step recurrence at step k.

    alpha_k = (D1+2k+1)^{-1} (D1+2k+2)^{-1} (D1+k+1); beta_k and gamma_k
    solve the x- and constant-coefficient equations.  At k = 0 the system
    degenerates: direct matching of x P_0 = P_1 alpha_0 + P_0 beta_0
    gives beta_0 = -D2 (2+D1)^{-1} and gamma_0 = 0 without inverting D1
    itself (which may well be singular, e.g. in the symmetric-weight
    case).  The returned triple is re-verified against the polynomial
    identity before being handed back.
    """
    coeffs = _solve_recurrence(spec, k)
    if not _recurrence_holds(spec, coeffs):
        raise RuntimeError(
            f"recurrence coefficients at k = {k} failed the polynomial identity; "
            "this indicates an internal construction bug"
        )
    return coeffs


def verify_recurrence(spec: ProblemSpec, k_max: int) -> CheckReport:
    """Check the recurrence and its three coefficient equations for k <= k_max."""
    report = CheckReport(f"recurrence d={spec.d} n={spec.n}")
    D1 = build_D(spec, 1)
    D2 = build_D(spec, 2)
    I = RatMatrix.identity(spec.space.N)
    for k in range(k_max + 1):
        rc = _solve_recurrence(spec, k)
        report.add(f"k={k} two-step recurrence", _recurrence_holds(spec, rc))
        e1 = D1.plus_scalar(2 * k + 1) @ D1.plus_scalar(2 * k + 2) @ rc.alpha
        report.add(f"k={k} x^2 coefficient equation", e1 == D1.plus_scalar(k + 1))
        mid = D2.scale(4 * k + 2) + D1 @ D2 + D2 @ D1
        e2 = mid @ rc.alpha + D1.plus_scalar(2 * k) @ rc.beta
        report.add(f"k={k} x coefficient equation", e2 == D2)
        e3 = (D2 @ D2 - D1.plus_scalar(2 * k + 2)) @ rc.alpha + D2 @ rc.beta + rc.gamma
        report.add(f"k={k} constant coefficient equation", e3 == I.scale(k - 1))
    return report


# -- completeness expansion -------------------------------------------------


class Expansion(NamedTuple):
    """Coefficients q_0..q_K with f(x) = sum_j P_j(x) q_j."""

    coefficients: tuple[PolyVector, ...]


@lru_cache(maxsize=None)
def _dominant_inverse(spec: ProblemSpec, j: int) -> RatMatrix:
    D1 = build_D(spec, 1)
    return _certified_inverse(
        dominant_coefficient(D1, j),
        f"dominant coefficient (D1+{j + 1})...(D1+{2 * j}) at degree {j}",
        spec,
    )


def expand(spec: ProblemSpec, f: VectorPoly) -> Expansion:
    """Unique expansion of f over the family, by leading-term elimination.

    The degree-j dominant coefficient is inverted at each step, so the
    triangular solve needs every Gamma_j with j <= deg f nonsingular.
    """
    if f.space != spec.space:
        raise ValueError("polynomial space does not match the problem space")
    D1, D2 = build_D(spec, 1), build_D(spec, 2)
    out: list[PolyVector] = []
    rest = f
    for j in range(f.degree, -1, -1):
        if j == 0:
            qj = rest.mat_at(0)  # degree-0 dominant coefficient is the identity
        else:
            qj = _dominant_inverse(spec, j) @ rest.mat_at(j)
        seed = VectorPoly.from_mats((qj,), f.space)
        out.append(seed.coeff_at(0))
        if not seed.is_zero:
            rest = rest - _product_apply(D1, D2, j, seed)  # P_j(x) q_j
        if rest.degree >= j:
            raise RuntimeError(
                f"expansion failed to reduce the degree at step {j}; "
                "this indicates an internal construction bug"
            )
    out.reverse()
    return Expansion(tuple(out))


def reconstruct(spec: ProblemSpec, expansion: Expansion) -> VectorPoly:
    """Re-assemble sum_j P_j(x) q_j from expansion coefficients."""
    D1, D2 = build_D(spec, 1), build_D(spec, 2)
    acc = VectorPoly.zero(spec.space)
    for j, qj in enumerate(expansion.coefficients):
        seed = VectorPoly.constant(qj, spec.space)
        if not seed.is_zero:
            acc = acc.add(_product_apply(D1, D2, j, seed))
    return acc


# -- shifted (tilde) family -------------------------------------------------


def tilde_spec(spec: ProblemSpec) -> ProblemSpec:
    """Residue pair of the shifted system: both residues drop I/(n-1).

    The shift subtracts 2x/((n-1)Q) times the identity from the system
    matrix, i.e. I/(n-1) from each residue, leaving the difference M2
    alone and lowering M1 by 2/(n-1) I.
    """
    if spec.n < 2:
        raise ValueError("the shifted system needs n >= 2 (the shift divides by n - 1)")
    shift = Rat(1, spec.n - 1)
    return ProblemSpec(
        spec.d,
        spec.n,
        spec.A.plus_scalar(-shift),
        spec.B.plus_scalar(-shift),
    )


def build_tilde_Pk(spec: ProblemSpec, k: int) -> OpPoly:
    """Degree-k member of the shifted family: the base family of tilde_spec.

    Lowering M1 by 2/(n-1) I lowers the induced derivation on
    homogeneous degree-n polynomials by exactly 2I (each basis monomial
    picks up n times the shift from the substitution side and loses one
    from the left multiplication), so this is the product with D1 - 2I.
    Unlike the base family the shifted dominant coefficient may vanish,
    in which case the degree drops below k.
    """
    return build_Pk(tilde_spec(spec), k)


def verify_derivative_relation(spec: ProblemSpec, k_max: int) -> CheckReport:
    """Check (x D1 + D2 + Q d/dx) P_k = shifted P_{k+1} for k <= k_max."""
    report = CheckReport(f"derivative relation d={spec.d} n={spec.n}")
    D1 = build_D(spec, 1)
    D2 = build_D(spec, 2)
    for k in range(k_max + 1):
        P = build_Pk(spec, k)
        lhs = P.lmul(D1).mul_by_x().add(P.lmul(D2)).add(P.d_dx().mul_by_Q())
        report.add(f"k={k} maps into shifted member k+1", lhs == build_tilde_Pk(spec, k + 1))
    return report


# -- classical scalar oracles -----------------------------------------------


def _trim(coeffs: Sequence) -> ScalarPoly:
    cs = list(coeffs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def classical_jacobi(k: int, alpha, beta) -> ScalarPoly:
    """Standard-normalization Jacobi polynomial, exact coefficients.

    Uses the classical three-term recurrence; raises if a recurrence
    denominator vanishes (possible only for degenerate negative
    alpha + beta, outside this library's use).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    alpha, beta = Rat(alpha), Rat(beta)
    p_prev: ScalarPoly = (ONE,)
    if k == 0:
        return p_prev
    p_cur = _trim(((alpha - beta) / 2, (alpha + beta + 2) / 2))
    for m in range(2, k + 1):
        c1 = 2 * m * (m + alpha + beta) * (2 * m + alpha + beta - 2)
        if not c1:
            raise ValueError(
                f"three-term recurrence degenerates at degree {m} "
                f"for alpha={alpha}, beta={beta}"
            )
        c2 = (2 * m + alpha + beta - 1) * (2 * m + alpha + beta) * (2 * m + alpha + beta - 2)
        c3 = (2 * m + alpha + beta - 1) * (alpha * alpha - beta * beta)
        c4 = 2 * (m + alpha - 1) * (m + beta - 1) * (2 * m + alpha + beta)
        nxt = [ZERO] * (m + 1)
        for i, c in enumerate(p_cur):
            nxt[i + 1] += c2 * c
            nxt[i] += c3 * c
        for i, c in enumerate(p_prev):
            nxt[i] -= c4 * c
        p_prev, p_cur = p_cur, _trim(x / c1 for x in nxt)
    return p_cur


def _scalar_spec(a, b, n: int) -> ProblemSpec:
    return ProblemSpec(1, n, RatMatrix([[Rat(a)]]), RatMatrix([[Rat(b)]]))


def _as_scalar_poly(P: OpPoly) -> ScalarPoly:
    if P.space.N != 1:
        raise ValueError("not a scalar operator polynomial")
    return _trim(c.rows[0][0] for c in P.coeffs)


def _scale_poly(c, p: Sequence) -> ScalarPoly:
    c = Rat(c)
    return _trim(c * x for x in p)


def verify_scalar_reduction(a, b, n: int, k_max: int) -> CheckReport:
    """d = 1: members equal 2^k k! times the classical polynomial.

    Parameters feed a rank-one problem; the classical parameters are
    alpha = (n-1)a, beta = (n-1)b.  The normalization constant 2^k k! is
    confirmed independently at each k by comparing leading coefficients:
    the member's dominant product of shifts against 2^k k! times the
    classical leading coefficient ff(2k+alpha+beta, k) / (2^k k!).
    """
    spec = _scalar_spec(a, b, n)
    alpha = (n - 1) * Rat(a)
    beta = (n - 1) * Rat(b)
    report = CheckReport(f"scalar reduction a={Rat(a)} b={Rat(b)} n={n}")
    D1 = build_D(spec, 1)
    for k in range(k_max + 1):
        ck = Rat(factorial(k)) * 2**k
        lead_expected = falling_factorial(alpha + beta + 2 * k, k)
        lead_built = dominant_coefficient(D1, k).rows[0][0]
        report.add(
            f"k={k} normalization 2^k k! from leading coefficients",
            lead_built == lead_expected,
            f"dominant product {lead_built}, classical gives {lead_expected}",
        )
        mine = _as_scalar_poly(build_Pk(spec, k))
        classical = _scale_poly(ck, classical_jacobi(k, alpha, beta))
        report.add(f"k={k} equals 2^k k! classical", mine == classical)
    return report


def verify_scalar_eigen_identity(a, b, n: int, k_max: int,
                                 trials: int = 8, seed: int = 0) -> CheckReport:
    """d = 1: the first product factor is an eigenoperator on derivatives.

    Checks the commutation rule d/dx A_j = (alpha+beta+2j) + A_{j+1} d/dx
    on random scalar polynomials and the eigenvalue identity
    A_1 d/dx P_k = k (alpha+beta+k+1) P_k for k <= k_max.
    """
    spec = _scalar_spec(a, b, n)
    space = spec.space
    alpha = (n - 1) * Rat(a)
    beta = (n - 1) * Rat(b)
    report = CheckReport(f"scalar eigen identity a={Rat(a)} b={Rat(b)} n={n}")
    D1 = build_D(spec, 1)
    D2 = build_D(spec, 2)
    rng = random.Random(seed)
    for t in range(trials):
        j = rng.randint(1, 5)
        deg = rng.randint(0, 5)
        r = random_op_poly(rng, space, deg)
        lhs = apply_A(j, D1, D2, r).d_dx()
        rhs = r.scale(alpha + beta + 2 * j).add(apply_A(j + 1, D1, D2, r.d_dx()))
        report.add(f"trial {t} commutation past factor j={j}, deg {deg}", lhs == rhs)
    for k in range(k_max + 1):
        P = build_Pk(spec, k)
        lhs = apply_A(1, D1, D2, P.d_dx())
        rhs = P.scale(k * (alpha + beta + k + 1))
        report.add(f"k={k} eigenvalue k(alpha+beta+k+1)", lhs == rhs)
    return report


def verify_trace_legendre(spec: ProblemSpec, k_max: int) -> CheckReport:
    """n = 1: traces of members reduce to scaled Legendre polynomials.

    For n = 1 the coefficient space is the d x d matrices acting as
    q(w) = q w, and Tr[P_k(x) q] = 2^k k! Leg_k(x) Tr q for every q; it
    is enough to check the d^2 unit matrices.
    """
    if spec.n != 1:
        raise ValueError("trace reduction requires n = 1")
    d = spec.d
    report = CheckReport(f"trace reduction d={d}")
    for k in range(k_max + 1):
        P = build_Pk(spec, k)
        ck = Rat(factorial(k)) * 2**k
        legendre = _scale_poly(ck, classical_jacobi(k, 0, 0))
        bad = []
        for r in range(1, d + 1):
            for c in range(1, d + 1):
                q = _matrix_unit_vector(spec, r, c)
                traced = _trace_poly(spec, P.apply_to(q))
                want = legendre if r == c else ()
                if traced != want:
                    bad.append(f"E_{r}{c}")
        report.add(
            f"k={k} trace equals 2^k k! Legendre times trace",
            not bad,
            "failing unit matrices: " + ", ".join(bad) if bad else "",
        )
    return report


def _matrix_unit_vector(spec: ProblemSpec, r: int, c: int) -> PolyVector:
    """Coefficient vector of q(w) = E_rc w: the w_c entry of row r."""
    space = spec.space
    vec = [ZERO] * space.N
    m = tuple(1 if i == c - 1 else 0 for i in range(spec.d))
    vec[space.index_of(m, r)] = ONE
    return tuple(vec)


def _trace_poly(spec: ProblemSpec, f: VectorPoly) -> ScalarPoly:
    """Trace of a matrix-valued (n = 1) polynomial, coefficient-wise."""
    space = spec.space
    out = []
    for coeff in f.coeffs:
        tr = ZERO
        for r in range(1, spec.d + 1):
            m = tuple(1 if i == r - 1 else 0 for i in range(spec.d))
            tr += coeff[space.index_of(m, r)]
        out.append(tr)
    return _trim(out)


# -- product-formula identities ----------------------------------------------


def verify_product_identities(spec: ProblemSpec, trials: int = 20,
                              seed: int = 0) -> CheckReport:
    """Exercise the three identities behind the recurrence proof.

    On random operator polynomials r: applying a factor to x r equals
    x times the applied factor plus Q r; Q commutes past a factor by
    lowering its index; and on constants the full product of k factors
    applied to x q picks up k times the (k-1)-product of Q q.
    """
    space = spec.space
    D1 = build_D(spec, 1)
    D2 = build_D(spec, 2)
    rng = random.Random(seed)
    report = CheckReport(f"product identities d={spec.d} n={spec.n}")
    for t in range(trials):
        j = rng.randint(2, 6)
        deg = rng.randint(0, 4)
        r = random_op_poly(rng, space, deg)
        Ar = apply_A(j, D1, D2, r)
        rQ = r.mul_by_Q()
        lhs = apply_A(j, D1, D2, r.mul_by_x())
        rhs = Ar.mul_by_x().add(rQ)
        report.add(f"trial {t} factor on x r (j={j}, deg {deg})", lhs == rhs)
        lhs = Ar.mul_by_Q()
        rhs = apply_A(j - 1, D1, D2, rQ)
        report.add(f"trial {t} Q lowers the factor index (j={j})", lhs == rhs)
    for t in range(trials):
        k = rng.randint(1, 5)
        q = random_vector(rng, space.N)
        const = VectorPoly.constant(q, space)
        lhs = _product_apply(D1, D2, k, const.mul_by_x())
        rhs = _product_apply(D1, D2, k, const).mul_by_x().add(
            _product_apply(D1, D2, k - 1, const.mul_by_Q()).scale(k)
        )
        report.add(f"trial {t} k-fold product on x q (k={k})", lhs == rhs)
    return report
