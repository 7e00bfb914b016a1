import random
import re
from itertools import chain

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    binom_rat,
    derivation_sympy,
    jacobi_binomial_sum,
    poly_eval,
    recurrence_oracle,
    seeded_member_sympy,
    to_sympy,
)

from mvjacobi import oppoly, structure
from mvjacobi.errors import ResonanceError
from mvjacobi.operators import ProblemSpec, build_D
from mvjacobi.oppoly import OpPoly, VectorPoly, build_Pk
from mvjacobi.polyspace import enumerate_basis
from mvjacobi.rational import ONE, Rat, ZERO
from mvjacobi.ratmat import RatMatrix
from mvjacobi.reporting import CheckReport
from mvjacobi.sampling import random_problem_spec, random_vector, random_vector_poly
from mvjacobi.structure import (
    RecurrenceCoeffs,
    build_tilde_Pk,
    classical_jacobi,
    expand,
    recurrence_coeffs,
    reconstruct,
    tilde_spec,
    verify_derivative_relation,
    verify_product_identities,
    verify_recurrence,
    verify_scalar_eigen_identity,
    verify_scalar_reduction,
    verify_trace_legendre,
)


def scalar_spec(a, b, n):
    return ProblemSpec(1, n, RatMatrix([[a]]), RatMatrix([[b]]))


# -- recurrence ---------------------------------------------------------------


def test_recurrence_k0_closed_form():
    rng = random.Random(17)
    spec = random_problem_spec(rng, 2, 2, max_den=3)
    space = spec.space
    D1 = build_D(spec, 1)
    D2 = build_D(spec, 2)
    rc = recurrence_coeffs(spec, 0)
    assert rc.alpha == D1.plus_scalar(2).inverse()
    assert rc.beta == -(D2 @ D1.plus_scalar(2).inverse())
    assert rc.gamma == RatMatrix.zeros(space.N)
    with pytest.raises(ValueError):
        recurrence_coeffs(spec, -1)


def test_recurrence_legendre_values():
    # a = b = 0, n = 1: the members are scaled Legendre polynomials and the
    # multipliers must come out as the classical ratios
    spec = scalar_spec(0, 0, 1)
    for k in range(5):
        rc = recurrence_coeffs(spec, k)
        assert rc.alpha == RatMatrix([[Rat(1, 2 * (2 * k + 1))]])
        assert rc.beta == RatMatrix([[0]])
        want_gamma = ZERO if k == 0 else Rat(2 * k * k, 2 * k + 1)
        assert rc.gamma == RatMatrix([[want_gamma]])


@pytest.mark.parametrize("commutative", [False, True])
def test_verify_recurrence_random_spec(commutative):
    rng = random.Random(29 if commutative else 31)
    spec = random_problem_spec(rng, 2, 2, max_den=3, commutative=commutative)
    report = verify_recurrence(spec, 4)
    assert report.passed, report.summary_lines()
    assert report.counts == (20, 20)  # 4 checks per k


def test_recurrence_resonance_is_reported():
    # one first-kind eigenvalue hits -3, so D1 + 2k + 1 is singular at k = 1
    spec = ProblemSpec(2, 2, RatMatrix.diagonal([-3, 0]), RatMatrix.zeros(2))
    D1 = build_D(spec, 1)
    with pytest.raises(ResonanceError) as exc:
        recurrence_coeffs(spec, 1)
    err = exc.value
    assert err.operator_name == "D1 + 2k + 1 at k = 1"
    assert err.kernel is not None
    assert not any(D1.plus_scalar(3).apply(err.kernel))
    assert "singular operator" in str(err)


def test_verify_recurrence_reports_a_failing_identity(monkeypatch):
    # a wrong gamma must surface as FAIL items, not as an exception; the
    # self-checking recurrence_coeffs still refuses to hand it out
    spec = scalar_spec(0, 0, 1)
    solve = structure._solve_recurrence

    def broken(spec, k):
        rc = solve(spec, k)
        return RecurrenceCoeffs(k, rc.alpha, rc.beta, rc.gamma.plus_scalar(1))

    monkeypatch.setattr(structure, "_solve_recurrence", broken)
    report = verify_recurrence(spec, 2)
    assert not report.passed
    failed = {item.name for item in report.items if not item.passed}
    assert {"k=1 two-step recurrence", "k=1 constant coefficient equation"} <= failed
    assert "k=1 x coefficient equation" not in failed
    with pytest.raises(RuntimeError, match="polynomial identity"):
        recurrence_coeffs(spec, 1)


def test_empty_report_is_not_a_pass():
    assert not CheckReport("nothing ran").passed
    report = verify_recurrence(scalar_spec(0, 0, 1), -1)
    assert report.counts == (0, 0)
    assert not report.passed


small_rationals = st.builds(Rat, st.integers(-4, 4), st.integers(1, 3))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_resonance_rank_and_kernel_match_sympy(data):
    # force D1[b] = -s on one basis element b by solving for one eigenvalue of
    # A + B, then compare the reported rank and kernel of the singular
    # operator with sympy's rank() and nullspace()
    d = data.draw(st.integers(1, 2))
    n = data.draw(st.integers(2 if d == 1 else 1, 3))
    space = enumerate_basis(d, n)
    target = data.draw(st.sampled_from(space.basis))
    coef = [target.m[t] - (1 if t == target.j - 1 else 0) for t in range(d)]
    t = next((t for t in range(d) if coef[t]), None)
    assume(t is not None)
    lam = [data.draw(small_rationals) for _ in range(d)]
    via_expand = data.draw(st.booleans())
    if via_expand:
        degree = data.draw(st.integers(1, 3))
        s = data.draw(st.integers(degree + 1, 2 * degree))
    else:
        k = data.draw(st.integers(1, 3))
        s = data.draw(st.sampled_from((2 * k, 2 * k + 1, 2 * k + 2)))
    rest = sum((coef[u] * lam[u] for u in range(d) if u != t), ZERO)
    lam[t] = (-s - rest) / coef[t]
    A = RatMatrix([[data.draw(small_rationals) for _ in range(d)] for _ in range(d)])
    spec = ProblemSpec(d, n, A, RatMatrix.diagonal(lam) - A)

    # D1 is diagonal with entry m.lam - lam_j on w^m e_j
    D1 = sympy.diag(*to_sympy([[sum((mi * li for mi, li in zip(b.m, lam)), ZERO) - lam[b.j - 1]
                                for b in space.basis]]))
    I = sympy.eye(space.N)
    with pytest.raises(ResonanceError) as exc:
        if via_expand:
            expand(spec, VectorPoly([(ONE,) * space.N] * (degree + 1), space))
        else:
            for kk in range(k + 1):
                recurrence_coeffs(spec, kk)
    err = exc.value
    name = err.operator_name
    m = re.fullmatch(r"D1 \+ 2k(?: \+ (\d))? at k = (\d+)", name)
    if m:
        op = D1 + (2 * int(m[2]) + int(m[1] or 0)) * I
    else:
        m = re.fullmatch(r"dominant coefficient \(D1\+\d+\)\.\.\.\(D1\+\d+\) "
                         r"at degree (\d+)", name)
        assert m, name
        j = int(m[1])
        op = I
        for i in range(j + 1, 2 * j + 1):
            op = op * (D1 + i * I)
    rank, size = map(int, re.search(r"rank (\d+) of (\d+); kernel", str(err)).groups())
    assert size == space.N
    assert rank == op.rank()
    null = op.nullspace()
    assert len(null) == space.N - rank >= 1
    kernel = to_sympy([err.kernel]).T
    assert any(kernel) and op * kernel == sympy.zeros(space.N, 1)
    assert sympy.Matrix.hstack(*null, kernel).rank() == len(null)


# sympy differential tests: d, n in {1, 2, 3} and k <= 3 on problems with no
# resonance at the shifts 2..14, so every operator inverted below is regular
exact_problems = dict(d=st.integers(1, 3), n=st.integers(1, 3), k=st.integers(0, 3),
                      seed=st.integers(0, 10**6), commutative=st.booleans())


@settings(max_examples=25, deadline=None)
@given(**exact_problems)
def test_recurrence_coeffs_match_sympy(d, n, k, seed, commutative):
    spec = random_problem_spec(random.Random(seed), d, n, commutative=commutative)
    rc = recurrence_coeffs(spec, k)
    expected = recurrence_oracle(spec.space, spec.M1, spec.M2, k)
    assert tuple(map(to_sympy, (rc.alpha, rc.beta, rc.gamma))) == expected


@settings(max_examples=25, deadline=None)
@given(**exact_problems)
def test_expand_matches_sympy_reconstruction(d, n, k, seed, commutative):
    rng = random.Random(seed)
    spec = random_problem_spec(rng, d, n, commutative=commutative)
    f = random_vector_poly(rng, spec.space, k)
    coefficients = expand(spec, f).coefficients
    assert len(coefficients) == k + 1
    D1, D2 = derivation_sympy(spec.space, spec.M1), derivation_sympy(spec.space, spec.M2)
    x = sympy.Symbol("x")
    total = sympy.zeros(spec.space.N, 1)
    for j, q in enumerate(coefficients):
        total += seeded_member_sympy(D1, D2, j, q, x)
    target = sum((to_sympy([c]).T * x ** i for i, c in enumerate(f.coeffs)),
                 sympy.zeros(spec.space.N, 1))
    assert (total - target).expand() == sympy.zeros(spec.space.N, 1)


# -- completeness --------------------------------------------------------------


def test_expand_unit_property():
    rng = random.Random(41)
    spec = random_problem_spec(rng, 2, 2, max_den=3)
    space = spec.space
    q = random_vector(rng, space.N)
    for j in (0, 2, 4):
        f = build_Pk(spec, j).apply_to(q)
        coeffs = expand(spec, f).coefficients
        assert len(coeffs) == j + 1
        assert coeffs[j] == q
        assert not any(chain.from_iterable(coeffs[:j]))


def test_expand_recovers_synthesized_coefficients():
    # uniqueness: expanding a hand-built combination returns its inputs
    rng = random.Random(43)
    spec = random_problem_spec(rng, 2, 2, max_den=3)
    space = spec.space
    coeffs = [random_vector(rng, space.N) for _ in range(5)]
    coeffs[2] = (ZERO,) * space.N  # a gap must round-trip too
    f = VectorPoly.zero(space)
    for j, qj in enumerate(coeffs):
        f = f + build_Pk(spec, j).apply_to(qj)
    got = expand(spec, f).coefficients
    assert list(got) == coeffs


def test_expand_roundtrip_random():
    rng = random.Random(47)
    for d, n in [(1, 2), (2, 2), (3, 1)]:
        spec = random_problem_spec(rng, d, n, max_den=3)
        for _ in range(3):
            f = random_vector_poly(rng, spec.space, rng.randint(0, 5), max_den=3)
            exp = expand(spec, f)
            assert reconstruct(spec, exp) == f


def test_expand_and_reconstruct_build_no_operator_members():
    # both work on seeded members P_j q_j; a cold run on a fresh problem must
    # not build (and cache) a single operator polynomial
    rng = random.Random(83)
    spec = random_problem_spec(rng, 2, 3, max_den=5)
    f = random_vector_poly(rng, spec.space, 4, max_den=3)
    before = build_Pk.cache_info().misses
    assert reconstruct(spec, expand(spec, f)) == f
    assert build_Pk.cache_info().misses == before


def test_expand_degenerate_cases():
    rng = random.Random(53)
    spec = random_problem_spec(rng, 2, 1, max_den=3)
    space = spec.space
    assert expand(spec, VectorPoly.zero(space)).coefficients == ()
    q = random_vector(rng, space.N)
    got = expand(spec, VectorPoly.constant(q, space)).coefficients
    assert got == (q,)
    with pytest.raises(ValueError, match="space"):
        expand(spec, VectorPoly.zero(random_problem_spec(rng, 2, 2).space))


def test_expand_reports_singular_dominant_coefficient():
    # a + b = -2 makes the degree-1 dominant product vanish for d = 1, n = 2
    spec = scalar_spec(Rat(-3, 2), Rat(-1, 2), 2)
    space = spec.space
    f = VectorPoly(((ZERO,), (ONE,)), space)  # plain x
    with pytest.raises(ResonanceError, match="dominant coefficient"):
        expand(spec, f)


# -- shifted family -------------------------------------------------------------


def test_tilde_spec_shifts_residues():
    rng = random.Random(59)
    spec = random_problem_spec(rng, 2, 3, max_den=3)
    shifted = tilde_spec(spec)
    half = Rat(1, 2)  # 1/(n-1) with n = 3
    assert shifted.A == spec.A.plus_scalar(-half)
    assert shifted.B == spec.B.plus_scalar(-half)
    assert shifted.M2 == spec.M2
    with pytest.raises(ValueError):
        tilde_spec(random_problem_spec(rng, 2, 1, max_den=3))


@pytest.mark.parametrize("d,n", [(1, 2), (2, 2), (2, 3), (3, 2)])
def test_tilde_derivation_drops_by_two(d, n):
    # building the first-kind derivation from the shifted residues must give
    # exactly D1 - 2I; the second-kind derivation is untouched
    rng = random.Random(100 * d + n)
    spec = random_problem_spec(rng, d, n, max_den=3)
    space = spec.space
    shifted = tilde_spec(spec)
    I = RatMatrix.identity(space.N)
    assert build_D(shifted, 1) == build_D(spec, 1) - I.scale(2)
    assert build_D(shifted, 2) == build_D(spec, 2)


def test_build_tilde_Pk_first_member():
    rng = random.Random(61)
    spec = random_problem_spec(rng, 2, 2, max_den=3)
    space = spec.space
    D1 = build_D(spec, 1)
    D2 = build_D(spec, 2)
    assert build_tilde_Pk(spec, 0) == OpPoly.identity(space)
    assert build_tilde_Pk(spec, 1) == OpPoly((D2, D1), space)
    with pytest.raises(ValueError):
        build_tilde_Pk(spec, -1)
    with pytest.raises(ValueError):
        build_tilde_Pk(random_problem_spec(rng, 2, 1, max_den=3), 1)


def test_tilde_degree_may_drop():
    # a + b = 0 zeroes the shifted dominant coefficient at k = 1; the member
    # degenerates to a constant and the derivative relation must still hold
    spec = scalar_spec(Rat(1, 2), Rat(-1, 2), 2)
    P1t = build_tilde_Pk(spec, 1)
    assert P1t.degree == 0
    assert P1t.coeff_at(0) == RatMatrix([[1]])  # D2 = a - b = 1
    report = verify_derivative_relation(spec, 2)
    assert report.passed, report.summary_lines()


@pytest.mark.parametrize("commutative", [False, True])
@pytest.mark.parametrize("n", [2, 3])
def test_verify_derivative_relation_random(commutative, n):
    rng = random.Random(67 + n + (1 if commutative else 0))
    spec = random_problem_spec(rng, 2, n, max_den=3, commutative=commutative)
    report = verify_derivative_relation(spec, 4)
    assert report.passed, report.summary_lines()
    assert report.counts == (5, 5)


# -- classical scalar reductions ---------------------------------------------


@pytest.mark.parametrize("alpha,beta", [(0, 0), (Rat(1, 2), Rat(1, 3)),
                                        (Rat(-1, 4), Rat(2, 3)), (3, 2)])
def test_classical_jacobi_matches_binomial_sum(alpha, beta):
    for k in range(7):
        assert tuple(classical_jacobi(k, alpha, beta)) == jacobi_binomial_sum(k, alpha, beta)


def test_classical_jacobi_value_at_one():
    # P_k(1) = C(k + alpha, k)
    for k in range(6):
        for alpha, beta in [(0, 0), (Rat(1, 2), Rat(1, 3)), (2, 5)]:
            got = poly_eval(classical_jacobi(k, alpha, beta), 1)
            assert got == binom_rat(Rat(k) + Rat(alpha), k)


def test_classical_jacobi_errors():
    with pytest.raises(ValueError):
        classical_jacobi(-1, 0, 0)
    # alpha + beta = -2 kills the three-term denominator at degree 2
    with pytest.raises(ValueError, match="degenerates"):
        classical_jacobi(2, Rat(-3, 2), Rat(-1, 2))


def test_verify_scalar_reduction():
    report = verify_scalar_reduction(Rat(1, 2), Rat(1, 3), 2, 5)
    assert report.passed, report.summary_lines()
    assert report.counts == (12, 12)  # normalization + equality per k
    assert verify_scalar_reduction(0, 0, 3, 4).passed


def test_verify_scalar_eigen_identity():
    report = verify_scalar_eigen_identity(Rat(-1, 4), Rat(2, 3), 2, 5)
    assert report.passed, report.summary_lines()
    # the rule on x^i for i <= 5 and j = 1..5, then one eigenvalue check per k
    assert report.counts == (36, 36)


# -- trace reduction -----------------------------------------------------------


def test_verify_trace_legendre():
    rng = random.Random(71)
    spec = random_problem_spec(rng, 2, 1, max_den=3)
    report = verify_trace_legendre(spec, 4)
    assert report.passed, report.summary_lines()
    assert report.counts == (5, 5)
    with pytest.raises(ValueError):
        verify_trace_legendre(random_problem_spec(rng, 2, 2, max_den=3), 2)


def _member_mutant(monkeypatch, bumps):
    """Patch structure.build_Pk: member k gets +1 at (row, column) of coefficient i.

    `bumps` maps k to a list of (i, row, column); a coefficient above the
    member's degree is added as zero first.
    """
    real = structure.build_Pk

    def mutant(spec, k):
        P = real(spec, k)
        if k not in bumps:
            return P
        N = spec.space.N
        mats = list(P.mats)
        for i, p, q in bumps[k]:
            mats += [RatMatrix.zeros(N)] * (i + 1 - len(mats))
            rows = [list(row) for row in mats[i].rows]
            rows[p][q] += 1
            mats[i] = RatMatrix(rows)
        return OpPoly.from_mats(mats, spec.space)

    monkeypatch.setattr(structure, "build_Pk", mutant)


def test_verify_trace_legendre_reports_the_failing_unit_matrices(monkeypatch):
    # d = 2, n = 1: positions 0..3 hold E_11, E_21, E_12, E_22 (the unit
    # E_rc sits at w_c e_r), and only rows 0 and 3 (E_11, E_22) enter a trace
    spec = random_problem_spec(random.Random(71), 2, 1, max_den=3)
    _member_mutant(monkeypatch, {
        1: [(2, 3, 3)],             # a coefficient above the degree
        2: [(1, 1, 0), (0, 2, 3)],  # rows outside the trace: invisible
        3: [(1, 0, 1), (1, 0, 2)],  # listed in (r, c) order, not by position
        4: [(0, 3, 0), (4, 0, 0)],  # the same unit at two powers
    })
    report = verify_trace_legendre(spec, 5)
    assert [(item.passed, item.detail) for item in report.items] == [
        (True, ""),
        (False, "failing unit matrices: E_22"),
        (True, ""),
        (False, "failing unit matrices: E_12, E_21"),
        (False, "failing unit matrices: E_11"),
        (True, ""),
    ]
    assert report.counts == (3, 6)


def test_verify_scalar_reduction_reports_a_mutated_member(monkeypatch):
    _member_mutant(monkeypatch, {2: [(1, 0, 0)], 4: [(5, 0, 0)]})
    report = verify_scalar_reduction(Rat(1, 2), Rat(1, 3), 2, 4)
    failed = [item.name for item in report.items if not item.passed]
    assert failed == ["k=2 equals 2^k k! classical", "k=4 equals 2^k k! classical"]
    assert report.counts == (8, 10)


# -- product identities ---------------------------------------------------------


def test_verify_product_identities():
    rng = random.Random(73)
    spec = random_problem_spec(rng, 2, 2, max_den=3)
    report = verify_product_identities(spec)
    assert report.passed, report.summary_lines()
    # two checks per (i, j) with i <= 4 and j = 2..6, plus the k-fold one for k <= 5
    assert report.counts == (55, 55)


def test_verify_product_identities_applies_each_factor_once(monkeypatch):
    # A_j r serves both the x r identity and the Q identity of a pair
    # (i, j), and A_j(x r) is the next step's A_j r, so the five A_j(I)
    # are applied once up front and each pair then applies two factors
    real = structure.apply_A
    calls = []

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(structure, "apply_A", counting)
    spec = random_problem_spec(random.Random(73), 2, 2, max_den=3)
    report = verify_product_identities(spec)
    assert report.passed, report.summary_lines()
    assert len(calls) == 5 + 2 * 5 * 5
    assert sorted(set(calls)) == [1, 2, 3, 4, 5, 6]


def _d1_shift_mutant(real, j, i):
    """_stencil with its D1 shift off by one at factor j, output coefficient i only."""
    def stencil(D1, s, a, D2, b, t, c):
        if (s, t) == (2 * j + i - 1, -(i + 1)):
            s += 1
        return real(D1, s, a, D2, b, t, c)
    return stencil


# Output coefficient 0 has no D1 term (it would scale r_{-1}), so a shift
# there changes nothing and is not a mutant.
@pytest.mark.parametrize("i", range(1, 6))
@pytest.mark.parametrize("j", range(2, 7))
def test_verify_product_identities_catches_every_d1_shift_mutant(monkeypatch, j, i):
    spec = random_problem_spec(random.Random(73), 2, 2, max_den=3)
    for k in range(6):
        # cache the true members: a mutant build_Pk would stop at its own
        # leading-coefficient check, and the test is about the basis checks
        build_Pk(spec, k)
    monkeypatch.setattr(oppoly, "_stencil", _d1_shift_mutant(oppoly._stencil, j, i))
    report = verify_product_identities(spec)
    failed = [item.name for item in report.items if not item.passed]
    assert f"x^{i - 1} I: factor j={j} on x r" in failed, failed
