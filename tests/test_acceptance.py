"""Acceptance suite: one test per criterion, each printing a PASS line.

Every exact criterion compares library output against the independent
oracles in oracles.py (classical Jacobi binomial sums, the commutative
closed form, direct operator assembly) rather than against the library's
own verifiers alone.  Numeric criteria state their tolerances inline.
Criteria with a runtime budget assert it.
"""

import math
import random
from functools import lru_cache
from time import perf_counter

from oracles import (
    apply_to,
    jacobi_binomial_sum,
    leibniz_scalar_member,
    ode_vs_closed_form_report,
    poly_scale,
    trim,
)

from mvjacobi.numeric import integral_interrelation_check, quasi_orth_integral
from mvjacobi.operators import ProblemSpec, build_D
from mvjacobi.oppoly import OpPoly, apply_A, build_Pk, dominant_coefficient
from mvjacobi.rational import Rat
from mvjacobi.ratmat import RatMatrix
from mvjacobi.sampling import random_problem_spec, random_vector, random_vector_poly
from mvjacobi.structure import (
    build_tilde_Pk,
    expand,
    reconstruct,
    recurrence_coeffs,
    tilde_spec,
    verify_product_identities,
    verify_scalar_reduction,
    verify_trace_legendre,
)

JACOBI_PAIRS = ((Rat(0), Rat(0)), (Rat(1, 2), Rat(1, 3)), (Rat(-1, 4), Rat(2, 3)))


def diag_spec(a_entries, b_entries, n: int) -> ProblemSpec:
    d = len(a_entries)
    A = RatMatrix([[Rat(a_entries[i]) if i == j else Rat(0) for j in range(d)]
                   for i in range(d)])
    B = RatMatrix([[Rat(b_entries[i]) if i == j else Rat(0) for j in range(d)]
                   for i in range(d)])
    return ProblemSpec(d, n, A, B)


# positive / mildly negative endpoint exponents, all > -1/2
POSITIVE = diag_spec([Rat(1, 2), Rat(1, 3)], [Rat(1, 4), Rat(1, 5)], 2)
MILD_NEGATIVE = diag_spec([Rat(-1, 8), Rat(1, 6)], [Rat(1, 5), Rat(-1, 10)], 2)
# every (1-x)-side exponent strictly positive, so W P_k q -> 0 at -1
INTEGRABLE = diag_spec([Rat(1, 2), Rat(1, 3)], [Rat(1, 3), Rat(1, 4)], 2)


@lru_cache(maxsize=1)
def recurrence_specs() -> tuple:
    """Ten random specs covering the full (d, n) grid up to 3 x 3."""
    rng = random.Random(20260814)
    dims = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2),
            (2, 3), (3, 1), (3, 2), (3, 3), (2, 2))
    return tuple(random_problem_spec(rng, d, n, max_den=3) for d, n in dims)


def scalar_poly(P: OpPoly) -> tuple:
    return trim(tuple(c.rows[0][0] for c in P.coeffs))


def announce(num: int, label: str) -> None:
    print(f"[PASS] criterion {num}: {label}")


def test_criterion_01_scalar_family_matches_classical_jacobi():
    t0 = perf_counter()
    fact = 1
    for a, b in JACOBI_PAIRS:
        for n in (2, 3):
            spec = diag_spec([a], [b], n)
            alpha, beta = (n - 1) * a, (n - 1) * b
            for k in range(9):
                got = scalar_poly(build_Pk(spec, k))
                fact = math.factorial(k)
                want = poly_scale(Rat(2 ** k * fact),
                                  jacobi_binomial_sum(k, alpha, beta))
                assert got == want, (a, b, n, k)
    elapsed = perf_counter() - t0
    assert elapsed < 5.0
    announce(1, "build_Pk == 2^k k! * classical Jacobi, exact (tolerance 0), "
                f"{elapsed:.2f}s < 5s")


def test_criterion_02_commutative_diagonal_closed_form():
    t0 = perf_counter()
    families = (
        ([Rat(1, 2), Rat(-1, 3)], [Rat(1), Rat(-1)]),
        ([Rat(1), Rat(-1, 2), Rat(1, 3)], [Rat(-1), Rat(1, 4), Rat(2, 3)]),
        ([Rat(-1), Rat(1)], [Rat(3, 4), Rat(-2, 3)]),
    )
    for av, bv in families:
        for n in (1, 2, 3):
            spec = diag_spec(av, bv, n)
            space = spec.space
            for k in range(7):
                P = build_Pk(spec, k)
                for c in P.coeffs:
                    for r in range(space.N):
                        for s in range(space.N):
                            if r != s:
                                assert c.rows[r][s] == 0
                for i, be in enumerate(space.basis):
                    p = sum((be.m[l] * av[l] for l in range(len(av))), Rat(0))
                    q = sum((be.m[l] * bv[l] for l in range(len(bv))), Rat(0))
                    p -= av[be.j - 1]
                    q -= bv[be.j - 1]
                    got = trim(tuple(c.rows[i][i] for c in P.coeffs))
                    assert got == leibniz_scalar_member(p, q, k), (av, bv, n, k, i)
    elapsed = perf_counter() - t0
    assert elapsed < 30.0
    announce(2, "diagonal entries == falling-factorial closed form, exact, "
                f"{elapsed:.2f}s < 30s")


def test_criterion_03_recurrence_and_coefficient_identities():
    t0 = perf_counter()
    for spec in recurrence_specs():
        space = spec.space
        N = space.N
        D1 = build_D(spec, 1)
        D2 = build_D(spec, 2)
        I = RatMatrix.identity(N)
        Ps = [build_Pk(spec, k) for k in range(8)]
        for k in range(7):
            rc = recurrence_coeffs(spec, k)
            rhs = Ps[k + 1].rmul(rc.alpha).add(Ps[k].rmul(rc.beta))
            if k == 0:
                assert rc.gamma == RatMatrix.zeros(N)
            else:
                rhs = rhs.add(Ps[k - 1].rmul(rc.gamma))
            assert Ps[k].mul_by_x() == rhs, (spec.d, spec.n, k)

            # the three coefficient equations, standalone
            lhs1 = D1.plus_scalar(k + 1)
            rhs1 = D1.plus_scalar(2 * k + 1) @ D1.plus_scalar(2 * k + 2) @ rc.alpha
            assert lhs1 == rhs1
            mid = D2.scale(4 * k + 2) + D1 @ D2 + D2 @ D1
            assert D2 == mid @ rc.alpha + D1.plus_scalar(2 * k) @ rc.beta
            low = D2 @ D2 - D1.plus_scalar(2 * k + 2)
            assert I.scale(k - 1) == low @ rc.alpha + D2 @ rc.beta + rc.gamma
    elapsed = perf_counter() - t0
    assert elapsed < 120.0
    announce(3, "three-term recurrence + coefficient equations on 10 random "
                f"specs, exact, {elapsed:.2f}s < 120s")


def test_criterion_04_leading_coefficient_is_shift_product():
    for spec in recurrence_specs():
        D1 = build_D(spec, 1)
        for k in range(8):
            P = build_Pk(spec, k)
            assert P.degree == k
            assert P.coeff_at(P.degree) == dominant_coefficient(D1, k), (spec.d, spec.n, k)
    announce(4, "leading coefficient == (D1+k+1)...(D1+2k), exact")


def test_criterion_05_expansion_completeness_roundtrip():
    rng = random.Random(5050)
    for spec in recurrence_specs():
        space = spec.space
        for _ in range(20):
            f = random_vector_poly(rng, space, rng.randint(0, 5))
            assert reconstruct(spec, expand(spec, f)) == f
        j = rng.randint(0, 5)
        q = random_vector(rng, space.N)
        while not any(q):
            q = random_vector(rng, space.N)
        coeffs = expand(spec, apply_to(build_Pk(spec, j), q)).coefficients
        assert len(coeffs) == j + 1
        assert coeffs[j] == q
        assert all(not any(c) for c in coeffs[:j])
    announce(5, "expansion round-trip exact on 20 polynomials per spec; "
                "P_j q expands to the j-th unit coefficient")


def test_criterion_06_shifted_family_derivative_relation():
    for spec in recurrence_specs():
        if spec.n < 2:
            continue
        D1 = build_D(spec, 1)
        D2 = build_D(spec, 2)
        shifted = tilde_spec(spec)
        assert build_D(shifted, 1) == D1.plus_scalar(-2)
        assert build_D(shifted, 2) == D2
        for k in range(7):
            P = build_Pk(spec, k)
            lhs = P.lmul(D1).mul_by_x().add(P.lmul(D2)).add(P.d_dx().mul_by_Q())
            assert lhs == build_tilde_Pk(spec, k + 1), (spec.d, spec.n, k)
    announce(6, "(x D1 + D2 + Q d/dx) P_k == shifted-family P_{k+1}, exact, "
                "and shifted D1 == D1 - 2I")


def test_criterion_07_operator_product_identities():
    specs = recurrence_specs()
    for spec in (specs[1], specs[3], specs[4], specs[7], specs[5]):
        D1, D2 = build_D(spec, 1), build_D(spec, 2)

        def A(j, r):
            return apply_A(j, D1, D2, r)

        def product(k, r):  # A_1 ... A_k r, A_k applied first
            for j in range(k, 0, -1):
                r = A(j, r)
            return r

        I = OpPoly.identity(spec.space)
        r = I  # x^i I, i = 0..4
        for i in range(5):
            for j in range(2, 7):
                assert A(j, r.mul_by_x()) == A(j, r).mul_by_x().add(r.mul_by_Q()), (i, j)
                assert A(j, r).mul_by_Q() == A(j - 1, r.mul_by_Q()), (i, j)
            r = r.mul_by_x()
        for k in range(1, 6):
            rhs = build_Pk(spec, k).mul_by_x().add(product(k - 1, I.mul_by_Q()).scale(k))
            assert product(k, I.mul_by_x()) == rhs, k
        report = verify_product_identities(spec, 6)
        ok, total = report.counts
        assert total == 28 and ok == 28, report.title
        assert report.passed
    announce(7, "x-shift, Q-shift, and iterated product identities hold on x^i I, "
                "and apply_A == the closed form of A_j on x^i I, per spec, exact")


def test_criterion_08_scalar_eigenvalue_identity():
    for a, b in JACOBI_PAIRS:
        for n in (2, 3):
            spec = diag_spec([a], [b], n)
            D1 = build_D(spec, 1)
            D2 = build_D(spec, 2)
            alpha, beta = (n - 1) * a, (n - 1) * b
            for k in range(9):
                P = build_Pk(spec, k)
                lhs = apply_A(1, D1, D2, P.d_dx())
                assert lhs == P.scale(k * (alpha + beta + k + 1)), (a, b, n, k)
            report = verify_scalar_reduction(spec, 8)
            assert report.passed
    announce(8, "first factor acting on dP_k/dx has eigenvalue "
                "k(alpha+beta+k+1), exact for k <= 8")


def test_criterion_09_trace_reduces_to_legendre():
    rng = random.Random(99)
    for d in (2, 3):
        spec = random_problem_spec(rng, d, 1, max_den=3)
        space = spec.space
        diag_idx = [space.index_of(tuple(1 if l == i else 0 for l in range(d)),
                                   i + 1) for i in range(d)]
        for k in range(6):
            P = build_Pk(spec, k)
            legendre = poly_scale(Rat(2 ** k * math.factorial(k)),
                                  jacobi_binomial_sum(k, Rat(0), Rat(0)))
            for t in range(space.N):
                unit = tuple(Rat(1) if i == t else Rat(0) for i in range(space.N))
                r = apply_to(P, unit)
                got = trim(tuple(sum((c[i] for i in diag_idx), Rat(0))
                                 for c in r.coeffs))
                want = legendre if t in diag_idx else ()
                assert got == want, (d, k, t)
        assert verify_trace_legendre(spec, 5).passed
    announce(9, "trace of P_k q == 2^k k! Legendre_k(x) trace(q) over a full "
                "matrix basis, exact")


def test_criterion_10_quasi_orthogonality():
    t0 = perf_counter()
    tol, stability = 1e-8, 1e-9
    for spec in (POSITIVE, MILD_NEGATIVE):
        for hi in range(1, 5):
            for lo in range(hi):
                for side, (j, k) in (("right", (lo, hi)), ("left", (hi, lo))):
                    rep = quasi_orth_integral(spec, j, k, side, tol=tol)
                    assert rep.claimed and rep.passed, (side, j, k, rep.detail)
                    assert rep.max_abs_entry <= tol, (side, j, k, rep.max_abs_entry)
                    assert rep.estimated_quadrature_error <= stability
    # noncommutative, ||A||, ||B|| <= 1/4
    A = RatMatrix([[Rat(1, 16), Rat(1, 20)], [Rat(-1, 20), Rat(1, 16)]])
    lam = RatMatrix([[Rat(1, 8), Rat(0)], [Rat(0), Rat(1, 16)]])
    nc = ProblemSpec(2, 2, A, lam - A)
    for side, (j, k) in (("right", (0, 2)), ("left", (2, 0))):
        rep = quasi_orth_integral(nc, j, k, side, tol=1e-6)
        assert rep.claimed and rep.passed, (side, j, k, rep.detail)
        assert rep.max_abs_entry <= 1e-6
    elapsed = perf_counter() - t0
    assert elapsed < 300.0
    announce(10, "one-sided weighted integrals vanish: commutative <= 1e-8 "
                 "(stability <= 1e-9) for all j<k<=4 both sides, "
                 f"noncommutative <= 1e-6, {elapsed:.2f}s < 300s")


def test_criterion_11_integral_interrelation():
    q = (Rat(1), Rat(-1, 2), Rat(1, 3), Rat(0), Rat(2), Rat(-1))
    rep = integral_interrelation_check(INTEGRABLE, 1, 0.5, q)
    assert rep.passed
    assert rep.max_abs_entry <= 1e-6, rep.max_abs_entry
    announce(11, "P_1(1/2) q matches the weighted integral of the shifted "
                 f"member: relative error {rep.max_abs_entry:.2e} <= 1e-6")


def test_criterion_12_ode_matches_commutative_closed_form():
    for spec in (POSITIVE, MILD_NEGATIVE):
        rep = ode_vs_closed_form_report(spec, rel_tol=1e-10, points=20)
        assert rep.tolerance == 10.0 * 1e-10
        assert rep.passed, rep.max_abs_entry
    announce(12, "fundamental matrix from the ODE solver matches the "
                 "commutative closed form at 20 points within 10x rel_tol")
