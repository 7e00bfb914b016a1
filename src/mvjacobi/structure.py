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

The classical reductions compare RatMatrix coefficients as well: a d = 1
member with 2^k k! times the Jacobi polynomial as a 1 x 1 OpPoly, and
at n = 1 the trace row t P_k with 2^k k! times the Legendre one.

Everything here is exact; reports collect per-claim booleans rather
than tolerances.
"""

from __future__ import annotations

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


def _trim(coeffs: Sequence) -> tuple:
    cs = list(coeffs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def classical_jacobi(k: int, alpha, beta) -> tuple:
    """Standard-normalization Jacobi polynomial: exact coefficients, lowest power first.

    Uses the classical three-term recurrence; raises if a recurrence
    denominator vanishes (possible only for degenerate negative
    alpha + beta, outside this library's use).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    alpha, beta = Rat(alpha), Rat(beta)
    p_prev = (ONE,)
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
        classical = OpPoly([RatMatrix([[ck * c]]) for c in classical_jacobi(k, alpha, beta)],
                           spec.space)
        report.add(f"k={k} equals 2^k k! classical", build_Pk(spec, k) == classical)
    return report


def verify_scalar_eigen_identity(a, b, n: int, k_max: int) -> CheckReport:
    """d = 1: the first product factor is an eigenoperator on derivatives.

    Checks the commutation rule d/dx A_j = (alpha+beta+2j) + A_{j+1} d/dx
    for j = 1..5 on the monomials x^i, i <= 5, and the eigenvalue
    identity A_1 d/dx P_k = k (alpha+beta+k+1) P_k for k <= k_max.  Both
    sides of the rule are linear in the polynomial they act on, so the
    monomial checks prove it for every polynomial of degree <= 5.
    """
    spec = _scalar_spec(a, b, n)
    alpha = (n - 1) * Rat(a)
    beta = (n - 1) * Rat(b)
    report = CheckReport(f"scalar eigen identity a={Rat(a)} b={Rat(b)} n={n}")
    D1 = build_D(spec, 1)
    D2 = build_D(spec, 2)
    r = OpPoly.identity(spec.space)  # x^i, i = 0..5
    for i in range(6):
        dr = r.d_dx()
        for j in range(1, 6):
            lhs = apply_A(j, D1, D2, r).d_dx()
            rhs = r.scale(alpha + beta + 2 * j).add(apply_A(j + 1, D1, D2, dr))
            report.add(f"x^{i}: commutation past factor j={j}", lhs == rhs)
        r = r.mul_by_x()
    for k in range(k_max + 1):
        P = build_Pk(spec, k)
        lhs = apply_A(1, D1, D2, P.d_dx())
        rhs = P.scale(k * (alpha + beta + k + 1))
        report.add(f"k={k} eigenvalue k(alpha+beta+k+1)", lhs == rhs)
    return report


def verify_trace_legendre(spec: ProblemSpec, k_max: int) -> CheckReport:
    """n = 1: traces of members reduce to scaled Legendre polynomials.

    For n = 1 the coefficient space is the d x d matrices acting as
    q(w) = q w, the basis element w_c e_r is the unit matrix E_rc, and
    Tr[P_k(x) q] = 2^k k! Leg_k(x) Tr q for every q.  With t the row of
    ones at the units E_rr, t P_k[i] holds Tr[P_k[i] E_rc] for every
    unit, so the claim is t P_k[i] = 2^k k! Leg_k[i] t at each power i,
    and a unit fails where the two rows differ.
    """
    if spec.n != 1:
        raise ValueError("trace reduction requires n = 1")
    d, space = spec.d, spec.space
    # position of E_rc, in (r, c) order
    units = [space.index_of(tuple(int(i == c) for i in range(d)), r + 1)
             for r in range(d) for c in range(d)]
    diagonal = set(units[::d + 1])
    t = RatMatrix._normal((tuple(int(p in diagonal) for p in range(space.N)),), 1)
    report = CheckReport(f"trace reduction d={d}")
    for k in range(k_max + 1):
        P = build_Pk(spec, k)
        legendre = classical_jacobi(k, 0, 0)
        ck = 2**k * factorial(k)
        bad = set()
        for i in range(max(len(P.mats), len(legendre))):
            coeff = legendre[i] if i < len(legendre) else 0
            diff = t @ P.mat_at(i) - t.scale(ck * coeff)
            bad.update(p for p, e in enumerate(diff.num[0]) if e)
        names = [f"E_{u // d + 1}{u % d + 1}" for u, p in enumerate(units) if p in bad]
        report.add(
            f"k={k} trace equals 2^k k! Legendre times trace",
            not names,
            "failing unit matrices: " + ", ".join(names) if names else "",
        )
    return report


# -- product-formula identities ----------------------------------------------


def verify_product_identities(spec: ProblemSpec) -> CheckReport:
    """Prove the three identities behind the recurrence proof, 55 checks.

    For j = 2..6 and operator polynomials r of degree <= 4: applying a
    factor to x r equals x times the applied factor plus Q r, and Q
    commutes past a factor by lowering its index,
    A_j(x r) = x A_j(r) + Q r and Q A_j(r) = A_{j-1}(Q r).  For k = 1..5
    and constant q: A_1...A_k(x q) = x P_k q + k A_1...A_{k-1}(Q q).

    Each identity is right-linear: A_j, x and Q act by left
    multiplications and d/dx, so A_j(r M) = A_j(r) M for a constant
    matrix M, square or a column.  Every r of degree <= 4 is
    sum_i (x^i I) M_i, so checking r = x^i I for i <= 4 proves the first
    two for every such r, operator- or vector-valued, and checking q = I
    proves the third for every constant q.  The checks are exact, so a
    PASS is a proof over these ranges, not a sample.
    """
    space = spec.space
    D1 = build_D(spec, 1)
    D2 = build_D(spec, 2)
    report = CheckReport(f"product identities d={spec.d} n={spec.n}")
    r = OpPoly.identity(space)  # x^i I, i = 0..4
    Ar = [apply_A(j, D1, D2, r) for j in range(2, 7)]
    for i in range(5):
        rx, rQ = r.mul_by_x(), r.mul_by_Q()
        Arx = [apply_A(j, D1, D2, rx) for j in range(2, 7)]  # A_j(r) of step i + 1
        for j, A, Ax in zip(range(2, 7), Ar, Arx):
            report.add(f"x^{i} I: factor j={j} on x r", Ax == A.mul_by_x().add(rQ))
            report.add(f"x^{i} I: Q lowers the factor index j={j}",
                       A.mul_by_Q() == apply_A(j - 1, D1, D2, rQ))
        r, Ar = rx, Arx
    I = OpPoly.identity(space)
    for k in range(1, 6):
        lhs = _product_apply(D1, D2, k, I.mul_by_x())
        rhs = build_Pk(spec, k).mul_by_x().add(
            _product_apply(D1, D2, k - 1, I.mul_by_Q()).scale(k)
        )
        report.add(f"k={k} k-fold product on x I", lhs == rhs)
    return report
