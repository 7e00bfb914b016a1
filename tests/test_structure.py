import contextlib
import io
import random
import re
import sys
from itertools import chain, product
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    action_derivative,
    apply_to,
    binom_rat,
    derivation_matrix,
    derivation_sympy,
    jacobi_rodrigues,
    matvec,
    poly_eval,
    recurrence_oracle,
    seeded_member_sympy,
    shifted_member_from_identity,
    to_sympy,
)

from mvjacobi import oppoly, structure
from mvjacobi.cli import SUITES, _suite_reports, load_problem, load_vector_poly, main
from mvjacobi.errors import ResonanceError
from mvjacobi.integrals import moment_ratios, quasi_orth_integral
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
    assert report.counts == (5, 5)  # the two-step check at each k


def test_recurrence_resonance_is_reported():
    # one first-kind eigenvalue hits -3, so D1 + 2k + 1 is singular at k = 1
    spec = ProblemSpec(2, 2, RatMatrix.diagonal([-3, 0]), RatMatrix.zeros(2))
    D1 = build_D(spec, 1)
    with pytest.raises(ResonanceError) as exc:
        recurrence_coeffs(spec, 1)
    err = exc.value
    assert err.operator_name == "D1 + 2k + 1 at k = 1"
    assert err.kernel is not None
    assert not any(matvec(D1.plus_scalar(3), err.kernel))
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
    assert "k=1 two-step recurrence" in failed
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
        f = apply_to(build_Pk(spec, j), q)
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
    for gap in (2, 0):  # an interior gap, then a zero constant term as well
        coeffs[gap] = (ZERO,) * space.N
        f = VectorPoly.zero(space)
        for j, qj in enumerate(coeffs):
            f = f + apply_to(build_Pk(spec, j), qj)
        got = expand(spec, f)
        assert list(got.coefficients) == coeffs
        assert reconstruct(spec, got) == f


def test_expand_roundtrip_random():
    rng = random.Random(47)
    for d, n in [(1, 2), (2, 2), (3, 1)]:
        spec = random_problem_spec(rng, d, n, max_den=3)
        for _ in range(3):
            f = random_vector_poly(rng, spec.space, rng.randint(0, 5), max_den=3)
            exp = expand(spec, f)
            assert reconstruct(spec, exp) == f


def test_expand_builds_no_operator_members(monkeypatch):
    # expand works on seeded members P_j q_j and reconstruct on vector-valued
    # factors; a cold round trip on a fresh problem must not build (and
    # cache) a single operator polynomial
    rng = random.Random(83)
    spec = random_problem_spec(rng, 2, 3, max_den=5)
    f = random_vector_poly(rng, spec.space, 4, max_den=3)
    before = build_Pk.cache_info().misses
    e = expand(spec, f)
    assert reconstruct(spec, e) == f
    assert build_Pk.cache_info().misses == before

    # reconstruct composes its factors from the ring operations alone
    def no_apply_A(*args):
        raise AssertionError("reconstruct called apply_A")

    patch_apply_A(monkeypatch, no_apply_A)
    assert reconstruct(spec, e) == f


@pytest.mark.parametrize("seed", range(3))
def test_reconstruct_equals_the_sum_over_the_members(seed):
    # the oracle is sum_j P_j q_j over the cached operator members; expansions
    # of length 1 and with a zero q_j in the middle included
    rng = random.Random(400 + seed)
    for d, n in product(range(1, 4), repeat=2):
        spec = random_problem_spec(rng, d, n, max_den=3)
        space = spec.space
        for length in (1, 2, 4):
            qs = [random_vector(rng, space.N) for _ in range(length)]
            if length > 2:
                qs[rng.randrange(1, length - 1)] = (ZERO,) * space.N
            want = VectorPoly.zero(space)
            for j, q in enumerate(qs):
                want = want + apply_to(build_Pk(spec, j), q)
            assert reconstruct(spec, structure.Expansion(tuple(qs))) == want, (d, n, qs)


def test_expand_degenerate_cases():
    rng = random.Random(53)
    spec = random_problem_spec(rng, 2, 1, max_den=3)
    space = spec.space
    assert expand(spec, VectorPoly.zero(space)).coefficients == ()
    q = random_vector(rng, space.N)
    got = expand(spec, VectorPoly((q,), space)).coefficients
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


def _counting_apply_A(monkeypatch):
    """Plant an apply_A that records each factor index it is called with."""
    real, calls = oppoly.apply_A, []

    def counting(j, D1, D2, r):
        calls.append(j)
        return real(j, D1, D2, r)

    plant(monkeypatch, real, counting)
    return calls


# every non-resonant golden problem with n >= 2, and (None) random_problem_spec(Random(7), 3, 3)
@pytest.mark.parametrize("problem, k_max", [("d1n2", 5), ("d2n2_nc", 5), ("d2n3_c", 5),
                                            ("d3n2_nc", 5), ("d3n3", 5), (None, 6)])
def test_build_tilde_Pk_equals_the_shifted_product_from_identity(problem, k_max):
    spec = (load_problem(str(GOLDEN / f"{problem}.json"))[0] if problem
            else random_problem_spec(random.Random(7), 3, 3))
    for k in range(k_max + 1):
        assert build_tilde_Pk(spec, k) == shifted_member_from_identity(spec, k), k


def test_build_tilde_Pk_applies_one_factor_to_the_cached_member(monkeypatch):
    spec = random_problem_spec(random.Random(7), 2, 3, max_den=3)
    for k in range(5):
        build_Pk(spec, k)
    calls = _counting_apply_A(monkeypatch)
    for k in range(1, 6):
        calls.clear()
        build_tilde_Pk(spec, k)
        assert calls == [1], k


# -- classical scalar reductions ---------------------------------------------


# (-1, -1) and (-3/2, -1/2) have alpha + beta = -2, where the three-term
# recurrence divides by zero at degree 2; at (-1, -1) P_1 is zero
@pytest.mark.parametrize("alpha,beta", [(0, 0), (Rat(1, 2), Rat(1, 3)), (Rat(-1, 4), Rat(2, 3)),
                                        (3, 2), (-1, -1), (Rat(-3, 2), Rat(-1, 2))])
def test_classical_jacobi_matches_rodrigues(alpha, beta):
    for k in range(7):
        assert classical_jacobi(k, alpha, beta) == jacobi_rodrigues(k, alpha, beta)


def test_classical_jacobi_value_at_one():
    # P_k(1) = C(k + alpha, k)
    for k in range(6):
        for alpha, beta in [(0, 0), (Rat(1, 2), Rat(1, 3)), (2, 5)]:
            got = poly_eval(classical_jacobi(k, alpha, beta), 1)
            assert got == binom_rat(Rat(k) + Rat(alpha), k)


def test_classical_jacobi_errors():
    with pytest.raises(ValueError, match="k must be >= 0"):
        classical_jacobi(-1, 0, 0)


def test_verify_scalar_reduction():
    report = verify_scalar_reduction(scalar_spec(Rat(1, 2), Rat(1, 3), 2), 5)
    assert report.passed, report.summary_lines()
    assert report.counts == (12, 12)  # one classical and one eigenvalue line per k
    assert verify_scalar_reduction(scalar_spec(0, 0, 3), 4).passed
    with pytest.raises(ValueError, match="scalar reductions need d = 1"):
        verify_scalar_reduction(load_problem(str(GOLDEN / "d2n1.json"))[0], 2)


def test_verify_scalar_eigen_identity():
    # the eigenvalue lines follow the classical ones in the same report
    report = verify_scalar_reduction(scalar_spec(Rat(-1, 4), Rat(2, 3), 2), 5)
    assert report.passed, report.summary_lines()
    assert [item.name for item in report.items[6:]] == [
        f"k={k} eigenvalue k(alpha+beta+k+1)" for k in range(6)]


def test_scalar_suite_is_one_report_of_classical_and_eigenvalue_lines(monkeypatch, cold_caches,
                                                                       capsys):
    # with the members cached, the suite calls apply_A once per eigenvalue line
    spec = _golden_specs()["d1n2"]
    for k in range(7):
        build_Pk(spec, k)
    real, calls = oppoly.apply_A, []

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    patch_apply_A(monkeypatch, counted)
    assert main(["verify", "--input", str(GOLDEN / "d1n2.json"), "--suite", "scalar",
                 "--kmax", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if not line.startswith("[")] == [
        "scalar reduction a=1/2 b=1/3 n=2: 14/14 checks passed", "overall: PASS"]
    assert [_line_kind(line.split(": ", 1)[1]) for line in lines[:14]] == (
        ["equals 2^k k! classical"] * 7 + ["eigenvalue k(alpha+beta+k+1)"] * 7)
    assert calls == [1] * 7


# -- trace reduction -----------------------------------------------------------


def test_verify_trace_legendre():
    rng = random.Random(71)
    spec = random_problem_spec(rng, 2, 1, max_den=3)
    report = verify_trace_legendre(spec, 4)
    assert report.passed, report.summary_lines()
    assert report.counts == (5, 5)
    with pytest.raises(ValueError):
        verify_trace_legendre(random_problem_spec(rng, 2, 2, max_den=3), 2)


def plant(monkeypatch, orig, fault):
    """Rebind every global of a loaded mvjacobi module that is orig to fault.

    A fault then acts wherever the library binds the name, as in
    perfbench's tracer: integrals, say, binds build_D and build_Pk itself.
    """
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "mvjacobi" and mod is not None:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, fault)


def _member_mutant(monkeypatch, bumps):
    """Plant a build_Pk whose member k gets +1 at (row, column) of coefficient i.

    `bumps` maps k to a list of (i, row, column); a coefficient above the
    member's degree is added as zero first.
    """
    real = structure.build_Pk

    def mutant(spec, k):
        P = real(spec, k)
        if k not in bumps:
            return P
        N = spec.space.N
        mats = list(P.coeffs)
        for i, p, q in bumps[k]:
            mats += [RatMatrix.zeros(N)] * (i + 1 - len(mats))
            rows = [list(row) for row in mats[i].rows]
            rows[p][q] += 1
            mats[i] = RatMatrix(rows)
        return OpPoly.from_mats(mats, spec.space)

    plant(monkeypatch, real, mutant)


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
    report = verify_scalar_reduction(scalar_spec(Rat(1, 2), Rat(1, 3), 2), 4)
    failed = [item.name for item in report.items if not item.passed]
    # a bumped member fails its classical line and its eigenvalue line
    assert failed == ["k=2 equals 2^k k! classical", "k=4 equals 2^k k! classical",
                      "k=2 eigenvalue k(alpha+beta+k+1)", "k=4 eigenvalue k(alpha+beta+k+1)"]
    assert report.counts == (6, 10)


# -- product identities ---------------------------------------------------------


IDENTITY_LINE = "x^{i} I: factor j={j} equals its closed form"


def test_verify_product_identities():
    rng = random.Random(73)
    spec = random_problem_spec(rng, 2, 2, max_den=3)
    report = verify_product_identities(spec)
    assert report.passed, report.summary_lines()
    # one check per (i, j) with i <= 5 and j = 1..6
    assert report.counts == (36, 36)
    assert [item.name for item in report.items] == [
        IDENTITY_LINE.format(i=i, j=j) for i in range(6) for j in range(1, 7)]


def test_verify_product_identities_applies_each_factor_once(monkeypatch):
    # each pair (i, j) applies the factor j once, to x^i I, and compares it
    # with the closed form's three blocks read off D1 and D2: no factor is
    # composed from the ring operations, so no product is made
    def refuse(*args):
        raise AssertionError("the identities suite composed a factor")

    monkeypatch.setattr(structure, "_ring_factor", refuse)
    monkeypatch.setattr(OpPoly, "lmul", refuse)
    calls = _counting_apply_A(monkeypatch)
    spec = random_problem_spec(random.Random(73), 2, 2, max_den=3)
    report = verify_product_identities(spec)
    assert report.passed, report.summary_lines()
    assert calls == [1, 2, 3, 4, 5, 6] * 6


@pytest.mark.parametrize("problem", ["d1n2", "d2n1", "d2n2_nc", "d2n3_c", "d3n2_nc", "d3n3"])
def test_identities_closed_form_equals_the_ring_factor(monkeypatch, problem):
    # with the ring-operation factor in apply_A's place, every line compares
    # the closed form with A_j composed from lmul, mul_by_x, d_dx and mul_by_Q
    monkeypatch.setattr(structure, "apply_A", structure._ring_factor)
    report = verify_product_identities(load_problem(str(GOLDEN / f"{problem}.json"))[0])
    assert report.passed and report.counts == (36, 36), report.summary_lines()


def _sympy_factor(j, D1, D2, r):
    """A_j(x^i I) at d = 1, N = 1: x(2j + D1)x^i + D2 x^i + Q (x^i)' expanded by sympy."""
    x = sympy.Symbol("x")
    d1, d2 = (to_sympy(D)[0, 0] for D in (D1, D2))
    xi = x ** r.degree
    poly = sympy.Poly(sympy.expand(x * (2 * j + d1) * xi + d2 * xi + (x**2 - 1) * xi.diff(x)), x)
    coeffs = poly.all_coeffs()[::-1]
    return OpPoly([RatMatrix([[Rat(int(c.p), int(c.q))]]) for c in coeffs], r.space)


@pytest.mark.parametrize("a,b,n", [(Rat(1, 2), Rat(1, 3), 2), (Rat(-1, 4), Rat(2, 3), 3), (0, 0, 2)])
def test_identities_closed_form_equals_sympy_at_d1(monkeypatch, a, b, n):
    monkeypatch.setattr(structure, "apply_A", _sympy_factor)
    report = verify_product_identities(scalar_spec(a, b, n))
    assert report.passed and report.counts == (36, 36), report.summary_lines()


def test_verify_product_identities_builds_no_member():
    build_Pk.cache_clear()
    verify_product_identities(random_problem_spec(random.Random(73), 2, 2, max_den=3))
    assert build_Pk.cache_info().currsize == 0


def _d1_shift_mutant(real, j, i):
    """apply_A with its D1 shift off by one at factor j, output coefficient i only.

    The shift adds r_{i-1} to coefficient i of A_j r, so the mutant adds
    x^i r_{i-1} to the true factor.
    """
    def mutant(jj, D1, D2, r):
        out = real(jj, D1, D2, r)
        if jj != j:
            return out
        extra = r.from_mats([r.mat_at(i - 1)], r.space)
        for _ in range(i):
            extra = extra.mul_by_x()
        return out.add(extra)
    return mutant


def _constant_block_mutant(real, vector_only):
    """apply_A adding r's constant block at x^0 at factor j = 2.

    With vector_only the fault reaches VectorPoly input alone: expand's
    seeded chains, but not the operator members that build_Pk makes.
    """
    def mutant(j, D1, D2, r):
        out = real(j, D1, D2, r)
        if j != 2 or (vector_only and type(r) is not VectorPoly):
            return out
        return out.add(r.from_mats([r.mat_at(0)], r.space))
    return mutant


def _head_one_block_short(real):
    """apply_A with its lowest-block skip one block short.

    apply_A pads the blocks below lo - 1, lo the lowest nonzero block of r,
    with `head`; one block fewer there moves every output block one power
    of x down.  At lo <= 1 the pad is empty either way, so only an r with
    lo >= 2 (such as x^i I for i >= 2) sees the fault.
    """
    def mutant(j, D1, D2, r):
        out = real(j, D1, D2, r)
        lo = next((i for i in range(r.degree + 1) if not r.mat_at(i).is_zero), 0)
        if lo < 2:
            return out
        w = r._width(r.space)
        return out._from(tuple(row[w:] for row in out.mat.num), out.mat.den, out.space)
    return mutant


def patch_apply_A(monkeypatch, fn):
    """Plant fn as apply_A: in oppoly (members, seeded chains) and in structure."""
    plant(monkeypatch, oppoly.apply_A, fn)


# Output coefficient 0 has no D1 term (it would scale r_{-1}), so a shift
# there changes nothing and is not a mutant.  The shift at coefficient i
# reads r_{i-1} alone, so of the inputs x^m I only x^{i-1} I sees it.
@pytest.mark.parametrize("i", range(1, 7))
@pytest.mark.parametrize("j", range(1, 7))
def test_verify_product_identities_catches_every_d1_shift_mutant(monkeypatch, j, i):
    spec = random_problem_spec(random.Random(73), 2, 2, max_den=3)
    patch_apply_A(monkeypatch, _d1_shift_mutant(oppoly.apply_A, j, i))
    report = verify_product_identities(spec)
    failed = [item.name for item in report.items if not item.passed]
    assert failed == [IDENTITY_LINE.format(i=i - 1, j=j)]


def _right_d2(j, D1, D2, r):
    """The factor with D2 applied from the right: x(2j + D1) r + r D2 + Q r'."""
    return r.lmul(D1.plus_scalar(2 * j)).mul_by_x().add(r.rmul(D2)).add(r.d_dx().mul_by_Q())


def test_derivative_relation_catches_a_right_d2_factor(monkeypatch):
    # (x^i I) D2 = D2 (x^i I), so all 36 product-identity lines hold for a
    # factor that applies D2 from the wrong side; the derivative relation
    # builds its left side from ring operations, not from apply_A, and
    # must catch it
    spec = random_problem_spec(random.Random(73), 2, 2, max_den=3)
    build_Pk.cache_clear()
    try:
        patch_apply_A(monkeypatch, _right_d2)
        identities = verify_product_identities(spec)
        assert identities.passed and identities.counts == (36, 36)
        report = verify_derivative_relation(spec, 4)
        # P_0 = I and the shifted P_1 = x D1 + D2 do not see the side of D2
        assert [item.passed for item in report.items] == [True, False, False, False, False]
    finally:
        build_Pk.cache_clear()  # drop the mutant members


# -- mutant table ---------------------------------------------------------------
#
# Mutation analysis (DeMillo, Lipton & Sayward, "Hints on test data selection",
# IEEE Computer 1978) over the verify suites, expand --roundtrip and the
# quadrature claims: each mutant is one fault in the code a verdict checks,
# planted wherever the library binds the faulted name, and the table records,
# on the five non-resonant golden problems, the kinds of verify line that fail
# under it, the round trip of each golden .poly.json input, the verdict of
# each claimed quadrature pair with a golden digest, and how verify ends when
# the fault also builds the members, as in a fresh process.  Every kind of
# line verify prints, roundtrip_exact and a claim's passed must each fail
# under at least one mutant; a verdict that no mutant can fail proves nothing.

GOLDEN = Path(__file__).parent / "golden"
VERIFY_PROBLEMS = ("d1n2", "d2n1", "d2n2_nc", "d2n3_c", "d3n2_nc")
TABLE_KMAX = 3


def _line_kind(name):
    """An item name without its k, power and factor index.

    "k=2 two-step recurrence" is of the kind "two-step recurrence", and
    "x^3 I: factor j=4 equals its closed form" of the kind
    "factor j equals its closed form".
    """
    return re.sub(r"=\d+", "", re.sub(r"^(k=\d+|x\^\d+( I)?:) ", "", name))


# a suite that a self-check stopped fails "stopped: " and the check's message
STOPPED = "stopped: "


def _printed(kinds):
    """The kinds of line among kinds: every kind but a stopped self-check."""
    return {kind for kind in kinds if not kind.startswith(STOPPED)}


def _suite_kinds(spec):
    """{suite: (kinds of its lines, kinds of its failing lines)}, each suite run alone.

    A suite that a self-check stops prints no line, and its failing kinds
    are the stop, as the fresh-process cell records the stderr line.
    """
    out = {}
    for suite in SUITES[1:]:
        try:
            reports = _suite_reports(spec, suite, TABLE_KMAX)
        except ValueError as exc:
            assert "not applicable" in str(exc)
            continue
        except RuntimeError as exc:
            out[suite] = (set(), {f"{STOPPED}{exc}"})
            continue
        items = [item for report in reports for item in report.items]
        out[suite] = ({_line_kind(i.name) for i in items},
                      {_line_kind(i.name) for i in items if not i.passed})
    return out


def _build_D_mutant(monkeypatch, which, change):
    """Plant a build_D whose D_which is change(spec, D_which)."""
    real = structure.build_D

    def mutant(spec, i):
        D = real(spec, i)
        return change(spec, D) if i == which else D

    plant(monkeypatch, real, mutant)


def _second_sum(spec):
    """Matrix of q |-> M2 q: the sum that build_D subtracts in D2."""
    space = spec.space
    rows = [[ZERO] * space.N for _ in range(space.N)]
    for c, b in enumerate(space.basis):
        for r in range(spec.d):
            rows[space.index_of(b.m, r + 1)][c] = spec.M2.rows[r][b.j - 1]
    return RatMatrix(rows)


def _first_entry_plus_half(spec, D1):
    return D1 + RatMatrix.diagonal([Rat(1, 2)] + [ZERO] * (spec.space.N - 1))


def _tilde_spec_over_n(spec):
    shift = Rat(1, spec.n)
    return ProblemSpec(spec.d, spec.n, spec.A.plus_scalar(-shift), spec.B.plus_scalar(-shift))


def _beta_sign_flipped(monkeypatch):
    solve = structure._solve_recurrence

    def mutant(spec, k):
        rc = solve(spec, k)
        return RecurrenceCoeffs(k, rc.alpha, -rc.beta, rc.gamma)

    monkeypatch.setattr(structure, "_solve_recurrence", mutant)


def _next_factor(monkeypatch):
    real = oppoly.apply_A
    patch_apply_A(monkeypatch, lambda j, D1, D2, r: real(j + 1, D1, D2, r))


def _on_all(outcome):
    """A round-trip cell with the same outcome on every golden problem."""
    return dict.fromkeys(VERIFY_PROBLEMS, outcome)


# the claimed quadrature pairs whose golden digests exist: (problem, j, k, side)
CLAIMED_PAIRS = (("d2n2_nc", 0, 2, "right"), ("d2n2_nc", 2, 0, "left"),
                 ("d2n3_c", 1, 3, "right"), ("d2n3_c", 3, 1, "left"))


def _claims_failing_on(*problems):
    """A quadrature cell: the claims on these problems fail, every other one passes."""
    return {pair: pair[0] not in problems for pair in CLAIMED_PAIRS}


def _exits_1_on(*problems):
    """A fresh-process cell: verify exits 1 on these problems and 0 on every other one."""
    return {p: int(p in problems) for p in VERIFY_PROBLEMS}


def _member_check(k):
    """The message of build_Pk's leading-coefficient check at member k; build_tilde_Pk's
    reads "shifted " before it."""
    return (f"member k={k} has degree {k} or a leading coefficient differing from the "
            "dominant-coefficient product; this indicates an internal construction bug")


# the message of build_tilde_Pk's check of the shifted derivations
SHIFT_CHECK = ("the shifted derivations differ from D1 - 2I and D2; this indicates an internal "
               "construction bug")


def _stopped_on(message, *problems):
    """A fresh-process cell: a self-check stops verify with this message on these
    problems, and verify exits 0 on every other one."""
    return {p: (1, f"internal consistency failure: {message}") if p in problems else 0
            for p in VERIFY_PROBLEMS}


def _stops_at_member(k):
    """A fresh-process cell: build_Pk's self-check stops verify at member k everywhere."""
    return _stopped_on(_member_check(k), *VERIFY_PROBLEMS)


# name: (install on a monkeypatch, cache the true members first, kinds of line it
# fails on some golden problem at k_max = 3, round-trip cell, quadrature cell,
# fresh-process cell).
# A mutant that breaks build_Pk's own leading-coefficient check would stop every
# member-based suite before its first line, so it runs on the true members and
# reaches only the checks that apply factors themselves, build_tilde_Pk's shifted
# factor included; every other mutant builds the members it is checked on.  A
# suite that a self-check stops adds the stop (STOPPED and its message) to the
# kinds.  The round-trip cell maps each golden problem to
# roundtrip_exact, or to "step s" where expand's degree check raised at step s;
# it is None where the fault cannot act on the vector polynomials expand runs on.
# The quadrature cell maps each claimed pair to quasi_orth_integral's passed.
# The fresh-process cell maps each golden problem to the exit code of
# `verify --suite all --kmax 3` run through cli.main with no member cached, and
# to (exit code, stderr line) where a self-check stopped it; the kinds of line
# that run fails are the row's printed kinds, or none where the row caches the
# members.
# A claim compares the members with moments built from D1 and D2 alone, so a
# fault in build_D reaches both sides alike and no claim sees it; a fault that
# reaches the members alone fails the claims whose members it changes.
MUTANT_TABLE = {
    "D1 shift at j=2, i=1": (
        lambda mp: patch_apply_A(mp, _d1_shift_mutant(oppoly.apply_A, 2, 1)), True,
        {"factor j equals its closed form"},
        _on_all("step 2"), _claims_failing_on(), _stops_at_member(2)),
    # r D2 needs a right factor of width N, and a vector coefficient has one
    # column, so a VectorPoly has no rmul and this fault no vector form
    "D2 from the right": (
        lambda mp: patch_apply_A(mp, _right_d2), False,
        {"two-step recurrence", "maps into shifted member k+1"},
        None, _claims_failing_on("d2n2_nc"), _exits_1_on("d2n1", "d2n2_nc", "d3n2_nc")),
    # the shifted member k+1 is one factor on the same bumped P_k, so both
    # sides of the tilde line read the bump
    "member k=2 bumped at x^1 (0, 0)": (
        lambda mp: _member_mutant(mp, {2: [(1, 0, 0)]}), False,
        {"two-step recurrence", "equals 2^k k! classical", "eigenvalue k(alpha+beta+k+1)",
         "trace equals 2^k k! Legendre times trace"},
        _on_all(True), _claims_failing_on("d2n2_nc"), _exits_1_on(*VERIFY_PROBLEMS)),
    # no verify line fails: the structural suites hold for any D2, and neither
    # classical reduction sees this one (D2_MUTANTS_SEEN_BY_ORACLE below does)
    "D2 transposed": (
        lambda mp: _build_D_mutant(mp, 2, lambda spec, D: RatMatrix(list(zip(*D.rows)))), False,
        set(),
        _on_all(True), _claims_failing_on(), _exits_1_on()),
    "D2 second sum sign flipped": (
        lambda mp: _build_D_mutant(mp, 2, lambda spec, D: D + _second_sum(spec).scale(2)), False,
        {"equals 2^k k! classical", "trace equals 2^k k! Legendre times trace"},
        _on_all(True), _claims_failing_on(), _exits_1_on("d1n2", "d2n1")),
    "D1 first entry + 1/2": (
        lambda mp: _build_D_mutant(mp, 1, _first_entry_plus_half), False,
        {"equals 2^k k! classical", "eigenvalue k(alpha+beta+k+1)",
         "trace equals 2^k k! Legendre times trace"},
        _on_all(True), _claims_failing_on(), _exits_1_on("d1n2", "d2n1")),
    "factor index j + 1": (
        _next_factor, True,
        {"factor j equals its closed form", "eigenvalue k(alpha+beta+k+1)",
         STOPPED + "shifted " + _member_check(1)},
        {**_on_all("step 3"), "d3n2_nc": "step 4"}, _claims_failing_on(), _stops_at_member(1)),
    "tilde_spec shift 1/n": (
        lambda mp: mp.setattr(structure, "tilde_spec", _tilde_spec_over_n), False,
        {STOPPED + SHIFT_CHECK},
        _on_all(True), _claims_failing_on(),
        _stopped_on(SHIFT_CHECK, "d1n2", "d2n2_nc", "d2n3_c", "d3n2_nc")),
    "beta_k sign flipped": (_beta_sign_flipped, False, {"two-step recurrence"}, _on_all(True),
                            _claims_failing_on(), _exits_1_on(*VERIFY_PROBLEMS)),
    # only inputs whose lowest nonzero block is x^2 or higher see it: the
    # members never are, so no member-based line fails, and verify in a
    # fresh process prints these same lines and exits 1, no self-check first;
    # expand's seeded chains start at a constant q_j, so it never sees it
    "apply_A head one block short": (
        lambda mp: patch_apply_A(mp, _head_one_block_short(oppoly.apply_A)), False,
        {"factor j equals its closed form"},
        _on_all(True), _claims_failing_on(), _exits_1_on(*VERIFY_PROBLEMS)),
    # the fault reaches expand's seeded chains and not the members, so every
    # verify line passes while the round trip fails
    "constant block at j=2, vector input": (
        lambda mp: patch_apply_A(mp, _constant_block_mutant(oppoly.apply_A, True)), False,
        set(),
        _on_all(False), _claims_failing_on(), _exits_1_on()),
    "constant block at j=2, both input types": (
        lambda mp: patch_apply_A(mp, _constant_block_mutant(oppoly.apply_A, False)), False,
        {"two-step recurrence", "factor j equals its closed form", "equals 2^k k! classical", "eigenvalue k(alpha+beta+k+1)",
         "trace equals 2^k k! Legendre times trace"},
        _on_all(False), _claims_failing_on("d2n3_c"), _exits_1_on(*VERIFY_PROBLEMS)),
}

# The golden problems on which a D2 mutant differs from the sympy derivation
# matrix: test_operators.py's build_D oracle catches both, as verify cannot.
# At d2n3_c, A - B is diagonal and D2 is symmetric, so its transpose is no fault.
D2_MUTANTS_SEEN_BY_ORACLE = {
    "D2 transposed": {"d2n1", "d2n2_nc", "d3n2_nc"},
    "D2 second sum sign flipped": set(VERIFY_PROBLEMS),
}


def _golden_specs():
    return {p: load_problem(str(GOLDEN / f"{p}.json"))[0] for p in VERIFY_PROBLEMS}


DEGREE_CHECK = (r"expansion failed to reduce the degree at step (\d+); this indicates an "
                r"internal construction bug")


def _claims(specs):
    """{claimed pair: quasi_orth_integral's passed} over CLAIMED_PAIRS."""
    return {pair: quasi_orth_integral(specs[pair[0]], *pair[1:]).passed for pair in CLAIMED_PAIRS}


# a failing verify line in text: [FAIL] title: name, then " (detail)" if any
FAIL_LINE = re.compile(r"^\[FAIL\] [^:]+: (.+?)(?: \(.*\))?$", re.M)


def _fresh_verify():
    """(fresh-process cell, kinds of the failing lines over the golden problems).

    Each problem runs `verify --suite all` through cli.main with the member
    cache cleared first, so the members are built under the planted fault.
    """
    cells, failed = {}, set()
    for p in VERIFY_PROBLEMS:
        build_Pk.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "--input", str(GOLDEN / f"{p}.json"), "--suite", "all",
                         "--kmax", str(TABLE_KMAX)])
        cells[p] = (code, err.getvalue().strip()) if err.getvalue() else code
        failed |= {_line_kind(name) for name in FAIL_LINE.findall(out.getvalue())}
    return cells, failed


def _roundtrips(specs):
    """{problem: expand --roundtrip's roundtrip_exact, or "step s" where expand raised}."""
    out = {}
    for p, spec in specs.items():
        f = load_vector_poly(str(GOLDEN / f"{p}.poly.json"), spec)
        try:
            expansion = expand(spec, f)
        except RuntimeError as exc:
            step = re.fullmatch(DEGREE_CHECK, str(exc))
            assert step, str(exc)
            out[p] = f"step {step.group(1)}"
        else:
            out[p] = reconstruct(spec, expansion) == f
    return out


@pytest.fixture
def cold_caches():
    """Clear the member and moment caches before and after: no member or
    moment built under a mutant may outlive its test."""
    build_Pk.cache_clear()
    moment_ratios.cache_clear()
    yield
    build_Pk.cache_clear()
    moment_ratios.cache_clear()


@pytest.mark.parametrize("mutant", list(MUTANT_TABLE))
def test_mutant_table_row(monkeypatch, cold_caches, mutant):
    install, cache_members, kinds, roundtrips, claims, fresh = MUTANT_TABLE[mutant]
    specs = _golden_specs()
    if cache_members:
        for spec in specs.values():
            for k in range(TABLE_KMAX + 2):  # the recurrence suite reaches k_max + 1
                build_Pk(spec, k)
    install(monkeypatch)
    failed = set()
    for spec in specs.values():
        for _, fails in _suite_kinds(spec).values():
            failed |= fails
    assert failed == kinds
    if roundtrips is None:
        with pytest.raises(AttributeError, match="'VectorPoly' object has no attribute 'rmul'"):
            _roundtrips(specs)
    else:
        assert _roundtrips(specs) == roundtrips
    assert _claims(specs) == claims
    assert _fresh_verify() == (fresh, set() if cache_members else _printed(kinds))
    if mutant in D2_MUTANTS_SEEN_BY_ORACLE:
        seen = {p for p, spec in specs.items()
                if structure.build_D(spec, 2) != derivation_matrix(spec.space, spec.M2)}
        assert seen == D2_MUTANTS_SEEN_BY_ORACLE[mutant]


def test_transposed_d2_fails_the_action_derivative(monkeypatch):
    # the derivative of the induced action pins D2 down where no verify line
    # does: D2 transposed differs from it wherever it is a fault at all
    MUTANT_TABLE["D2 transposed"][0](monkeypatch)
    seen = {p for p, spec in _golden_specs().items()
            if to_sympy(structure.build_D(spec, 2)) != action_derivative(spec, 2)}
    assert seen == D2_MUTANTS_SEEN_BY_ORACLE["D2 transposed"] == {"d2n1", "d2n2_nc", "d3n2_nc"}


def test_every_verify_line_kind_fails_under_some_mutant():
    printed = set()
    for spec in _golden_specs().values():
        for kinds, fails in _suite_kinds(spec).values():
            assert not fails
            printed |= kinds
    assert printed == _printed(set().union(*(kinds for _, _, kinds, *_ in MUTANT_TABLE.values())))


def test_roundtrip_fails_under_some_mutant():
    assert _roundtrips(_golden_specs()) == _on_all(True)
    assert any(False in cells.values() for _, _, _, cells, *_ in MUTANT_TABLE.values() if cells)


def test_claim_fails_under_some_mutant():
    assert _claims(_golden_specs()) == _claims_failing_on()
    assert any(False in cells.values() for *_, cells, _ in MUTANT_TABLE.values())


# -- what the round trip proves -------------------------------------------------
#
# expand subtracts seeded chains A_1...A_j q_j built by apply_A, and
# reconstruct adds the same factors composed from the ring operations
# (_ring_factor), so the round trip compares apply_A with the ring
# operations: MUTANT_TABLE's round-trip cells show which apply_A faults fail
# it or stop expand first.  The recurrence suite, which runs apply_A on
# operator input only, sees only the fault that reaches the members, on
# every golden problem.


# fault on VectorPoly input alone -> (round trip exact, recurrence suite passed)
@pytest.mark.parametrize("vector_only, outcome", [(True, (False, True)), (False, (False, False))],
                         ids=["vector-only", "both-input-types"])
def test_roundtrip_and_recurrence_under_a_factor_fault(monkeypatch, cold_caches,
                                                       vector_only, outcome):
    specs = _golden_specs()
    patch_apply_A(monkeypatch, _constant_block_mutant(oppoly.apply_A, vector_only))
    roundtrips = _roundtrips(specs)
    got = {p: (roundtrips[p], verify_recurrence(spec, TABLE_KMAX).passed)
           for p, spec in specs.items()}
    assert got == _on_all(outcome)


def test_expand_self_check_catches_a_d1_shift_fault(monkeypatch):
    # a fault in the degree-2 factor leaves P_j q_j with a wrong leading
    # term, so subtracting it no longer lowers the degree, and expand
    # refuses at step 2 instead of returning coefficients
    specs = _golden_specs()
    polys = {p: load_vector_poly(str(GOLDEN / f"{p}.poly.json"), spec)
             for p, spec in specs.items()}
    patch_apply_A(monkeypatch, _d1_shift_mutant(oppoly.apply_A, 2, 1))
    for p, spec in specs.items():
        with pytest.raises(RuntimeError, match=r"^expansion failed to reduce the degree at "
                                               r"step 2; this indicates an internal "
                                               r"construction bug$"):
            expand(spec, polys[p])
