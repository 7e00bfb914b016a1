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
complete: expand finds the unique q_j with f = sum_j P_j(x) q_j by
leading-term elimination on seeded members P_j(x) q_j, and reconstruct
re-sums f as q_0 + A_1(q_1 + ...) with each factor composed from ring
operations (_ring_factor), not apply_A: a second construction of each.

The classical reductions compare RatMatrix coefficients as well: a d = 1
member with 2^k k! times the Jacobi polynomial as a 1 x 1 OpPoly, and
at n = 1 the trace row t P_k with 2^k k! times the Legendre one.

Everything here is exact; reports collect per-claim booleans rather
than tolerances.
"""

from __future__ import annotations

from math import comb, factorial
from typing import NamedTuple

from .operators import ProblemSpec, _certified_inverse, build_D, dominant_coefficient
from .oppoly import OpPoly, VectorPoly, apply_A, build_Pk, _product_apply
from .polyspace import PolyVector
from .ratmat import RatMatrix
from .rational import Rat, ZERO, falling_factorial
from .reporting import CheckReport

# -- recurrence ------------------------------------------------------------


class RecurrenceCoeffs(NamedTuple):
    k: int
    alpha: RatMatrix
    beta: RatMatrix
    gamma: RatMatrix


def _solve_recurrence(spec: ProblemSpec, k: int) -> RecurrenceCoeffs:
    """alpha_k, beta_k, gamma_k from the three coefficient equations, unchecked."""
    if k < 0:
        raise ValueError("k must be >= 0")
    D1 = build_D(spec, 1)
    D2 = build_D(spec, 2)
    shift2 = D1.plus_scalar(2 * k + 2)
    inv2 = _certified_inverse(shift2, f"D1 + 2k + 2 at k = {k}", spec)
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
        - (D2 @ D2 - shift2) @ alpha
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
    """Check the two-step recurrence for k <= k_max.

    Each check multiplies out P_{k+1} alpha_k + P_k beta_k + P_{k-1} gamma_k
    and compares it with x P_k, so it tests the members and the solved
    coefficients together.  The three coefficient equations are steps of
    the solve and are not re-checked: re-multiplying them could catch only
    a fault in the solve.  In the mutant table of tests/test_structure.py,
    no mutant failed the x^2 equation, and the one that failed the x and
    constant equations (beta_k with its sign flipped) failed this check
    at the same k.
    """
    report = CheckReport(f"recurrence d={spec.d} n={spec.n}")
    for k in range(k_max + 1):
        rc = _solve_recurrence(spec, k)
        report.add(f"k={k} two-step recurrence", _recurrence_holds(spec, rc))
    return report


# -- completeness expansion -------------------------------------------------


class Expansion(NamedTuple):
    """Coefficients q_0..q_K with f(x) = sum_j P_j(x) q_j."""

    coefficients: tuple[PolyVector, ...]


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
        name = f"dominant coefficient (D1+{j + 1})...(D1+{2 * j}) at degree {j}"
        inv = _certified_inverse(dominant_coefficient(D1, j), name, spec)
        seed = VectorPoly.from_mats((inv @ rest.mat_at(j),), f.space)
        out.append(seed.coeff_at(0))
        rest = rest - _product_apply(D1, D2, j, seed)  # P_j(x) q_j
        if rest.degree >= j:
            raise RuntimeError(
                f"expansion failed to reduce the degree at step {j}; "
                "this indicates an internal construction bug"
            )
    out.reverse()
    return Expansion(tuple(out))


def _ring_factor(j: int, D1: RatMatrix, D2: RatMatrix, r):
    """A_j r = x(2j + D1) r + D2 r + Q r', from the ring operations rather than apply_A."""
    return r.lmul(D1.plus_scalar(2 * j)).mul_by_x().add(r.lmul(D2)).add(r.d_dx().mul_by_Q())


def reconstruct(spec: ProblemSpec, expansion: Expansion) -> VectorPoly:
    """sum_j P_j(x) q_j = q_0 + A_1(q_1 + A_2(q_2 + ... + A_K q_K)), by _ring_factor."""
    qs = [VectorPoly((q,), spec.space) for q in expansion.coefficients]
    if not qs:
        return VectorPoly.zero(spec.space)
    D1, D2 = build_D(spec, 1), build_D(spec, 2)
    # start at q_K, not at zero: perfbench's traced run fails on a product with
    # no columns, and after expand succeeds no accumulator here is zero
    acc = qs[-1]
    for j in range(len(qs) - 1, 0, -1):
        acc = _ring_factor(j, D1, D2, acc).add(qs[j - 1])
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
    """Degree-k member of the shifted family: one shifted factor on the base member k - 1.

    Lowering M1 by 2/(n-1) I lowers the induced derivation on
    homogeneous degree-n polynomials by exactly 2I (each basis monomial
    picks up n times the shift from the substitution side and loses one
    from the left multiplication) and leaves D2 alone.  So the shifted
    factors are A~_j = A_{j-1}, and P~_k = A~_1 P_{k-1}: one apply_A with
    tilde_spec's D1 - 2I and D2 on the cached base member, instead of
    the shifted problem's whole product from I.  The shift and the
    leading coefficient (D1~+k+1)...(D1~+2k) are re-checked, so a
    successful return certifies the construction.  Unlike the base
    family the shifted dominant coefficient may vanish, in which case
    the degree drops below k.
    """
    shifted = tilde_spec(spec)
    if k < 0:
        raise ValueError("k must be >= 0")
    D1, D2 = build_D(shifted, 1), build_D(shifted, 2)
    if D1 != build_D(spec, 1).plus_scalar(-2) or D2 != build_D(spec, 2):
        raise RuntimeError("the shifted derivations differ from D1 - 2I and D2; "
                           "this indicates an internal construction bug")
    if k == 0:
        return OpPoly.identity(spec.space)
    P = apply_A(1, D1, D2, build_Pk(spec, k - 1))
    if P.degree > k or P.coeff_at(k) != dominant_coefficient(D1, k):
        raise RuntimeError(
            f"shifted member k={k} has degree {P.degree} or a leading coefficient differing "
            "from the dominant-coefficient product; this indicates an internal "
            "construction bug"
        )
    return P


def verify_derivative_relation(spec: ProblemSpec, k_max: int) -> CheckReport:
    """Check (x D1 + D2 + Q d/dx) P_k = shifted P_{k+1} for k <= k_max."""
    report = CheckReport(f"derivative relation d={spec.d} n={spec.n}")
    D1 = build_D(spec, 1)
    D2 = build_D(spec, 2)
    for k in range(k_max + 1):
        # A_0 from the ring operations against apply_A's shifted factor on the
        # same P_k: a factor that holds on every x^i I but not beyond (say, D2
        # from the right) fails here, while a fault in P_k reaches both sides
        lhs = _ring_factor(0, D1, D2, build_Pk(spec, k))
        report.add(f"k={k} maps into shifted member k+1", lhs == build_tilde_Pk(spec, k + 1))
    return report


# -- classical scalar oracles -----------------------------------------------


def classical_jacobi(k: int, alpha, beta) -> tuple:
    """Standard-normalization Jacobi polynomial: exact coefficients, lowest power first.

    Szego's finite sum (Orthogonal Polynomials, (4.3.2)), with C(z, r) = ff(z, r) / r!,
    P_k = 2^-k sum_s C(k+alpha, k-s) C(k+beta, s) (x-1)^s (x+1)^(k-s), is polynomial
    in alpha and beta, so it holds for every pair, those where the three-term
    recurrence divides by zero too; the degree drops where ff(2k+alpha+beta, k) = 0.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    coeffs = [ZERO] * (k + 1)
    for s in range(k + 1):
        c = (falling_factorial(k + alpha, k - s) * falling_factorial(k + beta, s)
             / (2**k * factorial(k - s) * factorial(s)))
        # x^(a+b) takes x from a of the s factors x - 1 and b of the k - s factors x + 1
        for a in range(s + 1):
            for b in range(k - s + 1):
                coeffs[a + b] += c * (-1) ** (s - a) * comb(s, a) * comb(k - s, b)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def verify_scalar_reduction(spec: ProblemSpec, k_max: int) -> CheckReport:
    """d = 1: members equal 2^k k! times the classical polynomial, with its eigenvalue.

    The classical parameters are alpha = (n-1)a, beta = (n-1)b for the
    residues a and b.  For k <= k_max the suite checks P_k against 2^k k!
    times the Jacobi polynomial, then the eigenvalue identity
    A_1 d/dx P_k = k (alpha+beta+k+1) P_k.  Equal polynomials have equal
    leading coefficients, so each classical line also confirms the
    normalization 2^k k! against the member's dominant product of shifts,
    which build_Pk re-checks.
    """
    if spec.d != 1:
        raise ValueError("scalar reductions need d = 1")
    a, b = spec.A.rows[0][0], spec.B.rows[0][0]
    alpha, beta = (spec.n - 1) * a, (spec.n - 1) * b
    report = CheckReport(f"scalar reduction a={a} b={b} n={spec.n}")
    for k in range(k_max + 1):
        ck = Rat(factorial(k)) * 2**k
        classical = OpPoly([RatMatrix([[ck * c]]) for c in classical_jacobi(k, alpha, beta)],
                           spec.space)
        report.add(f"k={k} equals 2^k k! classical", build_Pk(spec, k) == classical)
    D1 = build_D(spec, 1)
    D2 = build_D(spec, 2)
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
        for i in range(max(P.degree + 1, len(legendre))):
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


# -- product-formula factors -------------------------------------------------


def verify_product_identities(spec: ProblemSpec, k_max: int) -> CheckReport:
    """Prove apply_A(j, ., ., r) = A_j r on every r of degree <= i, for i + j <= k_max + 1.

    The range is what the members use: P_m = A_1...A_m I applies A_j to a
    polynomial of degree m - j, and verify reads members up to P_{k_max+1}.
    On r = x^i I the factor A_j = x(2j + D1) + D2 + Q d/dx is three
    fixed blocks,

        A_j(x^i I) = x^{i+1} (D1 + (2j+i) I) + x^i D2 - i x^{i-1} I,

    so each check compares apply_A's output, block by block, with this
    closed form: every other block zero and degree i + 1.
    Both sides commute with right multiplication by a constant matrix M,
    square or a column: A_j acts by left multiplications and d/dx, and
    apply_A's row pass transforms the columns of each coefficient block
    alike.  Every r of degree <= i is a sum of (x^i' I) M_i', i' <= i, so
    equality on the x^i' I proves apply_A = A_j on every operator or vector
    polynomial of that degree.  The checks are exact, so a PASS is a
    proof over these ranges, not a sample.  The identities behind the
    recurrence proof, A_j(x r) = x A_j(r) + Q r, Q A_j(r) = A_{j-1}(Q r)
    and A_1...A_k(x q) = x P_k q + k A_1...A_{k-1}(Q q), are then
    theorems of A_j's definition.  A fault that breaks the premise
    passes: D2 applied from the right agrees with A_j on every x^i I,
    and the recurrence and tilde suites fail it.
    """
    D1, D2, N = build_D(spec, 1), build_D(spec, 2), spec.space.N
    report = CheckReport(f"product identities d={spec.d} n={spec.n}")
    r = OpPoly.identity(spec.space)  # x^i I, i = 0..k_max
    for i in range(k_max + 1):
        # the closed form's blocks below x^i: zero, then -i I at x^(i-1)
        below = [RatMatrix.zeros(N)] * (i - 1) + [RatMatrix.identity(N).scale(-i)] if i else []
        for j in range(1, k_max + 2 - i):
            closed = OpPoly.from_mats(below + [D2, D1.plus_scalar(2 * j + i)], spec.space)
            report.add(f"x^{i} I: factor j={j} equals its closed form",
                       apply_A(j, D1, D2, r) == closed)
        r = r.mul_by_x()
    return report
