import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    commutative_weight_entry,
    jacobi_integral_beta,
    jacobi_integral_sympy,
    leibniz_scalar_member,
    ode_vs_closed_form_report,
    poly_mul,
)

from mvjacobi import integrals, numeric
from mvjacobi.errors import OdeError, QuadratureError
from mvjacobi.integrals import _jacobi_integral, moment_ratios
from mvjacobi.numeric import (
    X_CAP,
    _de_nodes,
    _floats,
    _Y_at,
    commutative_Y,
    commutative_exponents,
    de_integrate,
    fundamental_matrix,
    integrability_check,
    integral_interrelation_check,
    is_commutative,
    quasi_orth_integral,
    solve_ivp,
    weight,
)
from mvjacobi.operators import ProblemSpec, build_D, induced_action_float
from mvjacobi.oppoly import build_Pk
from mvjacobi.polyspace import enumerate_basis
from mvjacobi.rational import Rat
from mvjacobi.ratmat import RatMatrix
from mvjacobi.sampling import random_diagonal, random_matrix


def diag_spec(a_entries, b_entries, n):
    return ProblemSpec(
        len(a_entries), n,
        RatMatrix.diagonal(a_entries), RatMatrix.diagonal(b_entries),
    )


def small_noncommutative_spec():
    # a complex-conjugate eigenvalue pair with real part 1/16 on each side
    A = RatMatrix([[Rat(1, 16), Rat(1, 20)], [Rat(-1, 20), Rat(1, 16)]])
    lam = RatMatrix.diagonal([Rat(1, 8), Rat(1, 16)])
    return ProblemSpec(2, 2, A, lam - A)


POSITIVE = diag_spec([Rat(1, 2), Rat(1, 3)], [Rat(1, 4), Rat(1, 5)], 2)
MILD_NEGATIVE = diag_spec([Rat(-1, 8), Rat(1, 6)], [Rat(1, 5), Rat(-1, 10)], 2)


# -- tolerance validation --------------------------------------------------------


@pytest.mark.parametrize("kwarg, value, message", [
    pytest.param("tol", math.nan, "tolerance must be finite, got nan", id="tol-nan"),
    pytest.param("tol", math.inf, "tolerance must be finite, got inf", id="tol-inf"),
    pytest.param("tol", 0.0, "tolerance must be positive", id="tol-zero"),
])
def test_quasi_orth_rejects_bad_tolerance(kwarg, value, message):
    # checked before anything runs, even where the integral is exact and
    # does not use it
    with pytest.raises(ValueError) as exc:
        quasi_orth_integral(POSITIVE, 0, 1, "right", **{kwarg: value})
    assert str(exc.value) == message


def test_is_commutative():
    assert is_commutative(POSITIVE)
    assert not is_commutative(small_noncommutative_spec())


# -- closed-form and ODE fundamental matrices -----------------------------------


def test_commutative_Y_values():
    spec = diag_spec([0, 0], [0, 0], 1)
    assert np.allclose(commutative_Y(spec, 0.7), np.eye(2))
    half = diag_spec([Rat(1, 2)], [Rat(1, 2)], 1)
    got = commutative_Y(half, 0.5)[0, 0]
    assert abs(got - math.sqrt(3.0) / 2.0) < 1e-15
    with pytest.raises(ValueError):
        commutative_Y(half, 1.0)
    with pytest.raises(ValueError):
        commutative_Y(small_noncommutative_spec(), 0.0)


def test_fundamental_matrix_identity_cases():
    zero = diag_spec([0, 0], [0, 0], 1)
    for x in (-0.9, -0.2, 0.0, 0.4, 0.99):
        assert np.allclose(fundamental_matrix(zero, x), np.eye(2), atol=1e-9)
    nc = small_noncommutative_spec()
    assert np.allclose(fundamental_matrix(nc, 0.0), np.eye(2), atol=1e-12)
    with pytest.raises(ValueError):
        fundamental_matrix(nc, 1.0)


def test_ode_matches_closed_form():
    for spec in (POSITIVE, MILD_NEGATIVE):
        report = ode_vs_closed_form_report(spec, rel_tol=1e-10)
        assert report.tolerance == 10.0 * 1e-10
        assert report.passed, report._asdict()


ENDPOINT_DISTANCES = (1e-6, 1e-9, 1e-12)


def test_fundamental_matrix_matches_closed_form_near_endpoints():
    # the Taylor sweep carries its centers as endpoint distances, so Y keeps
    # full relative accuracy down to the cap 1e-12 from either endpoint
    for spec in (POSITIVE, MILD_NEGATIVE):
        for delta in ENDPOINT_DISTANCES:
            for x in (1.0 - delta, -1.0 + delta):
                got = fundamental_matrix(spec, x)
                want = commutative_Y(spec, x)
                assert np.all(got[~np.eye(2, dtype=bool)] == 0.0)
                rel = np.abs(np.diag(got) / np.diag(want) - 1.0)
                assert np.max(rel) <= 1e-13, (spec.A.diag, x, rel)


def test_fundamental_matrix_large_residues_and_limits(monkeypatch):
    # a residue norm above 1 shortens the step, so the alternating series of
    # (1-x)^20 is not summed where its terms exceed its value by 3^20
    spec = diag_spec([Rat(20)], [Rat(-20, 3)], 1)
    for x in (0.5, 1.0 - 1e-6, -1.0 + 1e-9):
        rel = fundamental_matrix(spec, x)[0, 0] / commutative_Y(spec, x)[0, 0] - 1.0
        assert abs(rel) <= 1e-12, (x, rel)
    # norms whose sweep would need thousands of centers are refused
    huge = diag_spec([Rat(400)], [Rat(-400, 3)], 1)
    with pytest.raises(OdeError, match="Taylor centers"):
        fundamental_matrix(huge, 0.5)
    # a norm under that limit whose solution leaves the float range is
    # refused where the sweep first meets a non-finite entry
    past = ProblemSpec(1, 1, RatMatrix([[-120]]), RatMatrix([[0]]))
    with np.errstate(over="ignore"), pytest.raises(
            OdeError, match=r"^non-finite fundamental matrix at distance 0\.0026\d* from \+1$"):
        fundamental_matrix(past, 0.5)
    # a tail of zero is never met by terms that do not vanish
    monkeypatch.setattr(numeric, "_TAIL", 0.0)
    a, b = (np.diag([float(e) for e in M.diag]) for M in (POSITIVE.A, POSITIVE.B))
    with pytest.raises(OdeError, match="did not settle within 1000 terms"):
        solve_ivp(a, b, 1)


def test_fundamental_matrix_liouville_noncommutative():
    # det Y = (1-x)^{tr A} (1+x)^{tr B} with Y(0) = I, for small-norm
    # noncommutative residues drawn as in the quadrature benchmark
    rng = random.Random(7)
    for d in (2, 2, 3, 3):
        lam = random_diagonal(rng, d).scale(Rat(1, 8))
        A = random_matrix(rng, d).scale(Rat(1, 8))
        spec = ProblemSpec(d, 2, A, lam - A)
        assert not is_commutative(spec)
        tr_a = float(sum(A.rows[i][i] for i in range(d)))
        tr_b = float(sum(spec.B.rows[i][i] for i in range(d)))
        for delta in ENDPOINT_DISTANCES:
            for x in (1.0 - delta, -1.0 + delta):
                Y = fundamental_matrix(spec, x)
                want = (1.0 - x) ** tr_a * (1.0 + x) ** tr_b
                scale = np.prod(np.linalg.norm(Y, axis=0))
                assert abs(np.linalg.det(Y) - want) / scale <= 1e-13, (d, x)


def test_float_views_match_fraction_floats():
    # e / den over the integer numerators rounds exactly as float(Fraction)
    # does, including operands past the float range: where float(Fraction)
    # overflows, the view refuses the matrix by name
    rng = random.Random(31)

    def entry():
        num = rng.randint(-10**20, 10**20) * 2 ** rng.choice([0, 0, 1100])
        den = rng.randint(1, 10**20) * 2 ** rng.choice([0, 0, 1090, 1200])
        return Rat(num, den)

    def view(M):
        try:
            return _floats(M, "M").tolist()
        except ValueError as exc:
            assert str(exc) == "an entry of M is past the float range"
            return "overflow"

    def fraction_floats(M):
        try:
            return [[float(e) for e in row] for row in M.rows]
        except OverflowError:
            return "overflow"

    seen = set()
    for _ in range(200):
        M = RatMatrix([[entry() for _ in range(3)] for _ in range(3)])
        got = view(M)
        want = fraction_floats(M)
        assert got == want, M.rows
        seen.add(got == "overflow")
    assert seen == {True, False}


def test_dense_output_batched_equals_pointwise():
    # one batched call over a node array against one call per node, on both
    # sides of 0, at it, and past the cap 1e-12 from the ends
    deltas = np.array([1e-6, 1e-9, 1e-12, 1e-13])
    interior = np.array([0.5, 0.0, -0.5])
    x = np.concatenate([1.0 - deltas, interior, deltas - 1.0])
    dist_minus = np.concatenate([deltas, 1.0 - interior, 2.0 - deltas])
    dist_plus = np.concatenate([2.0 - deltas, 1.0 + interior, deltas])
    order = np.random.default_rng(3).permutation(len(x))  # sides interleaved
    rng = random.Random(11)
    lam = random_diagonal(rng, 3).scale(Rat(1, 8))
    A = random_matrix(rng, 3).scale(Rat(1, 8))
    for spec in (small_noncommutative_spec(), ProblemSpec(3, 2, A, lam - A)):
        batched = _Y_at(spec, x[order], dist_minus[order], dist_plus[order])[np.argsort(order)]
        assert batched.shape == (len(x), spec.d, spec.d)
        for i in range(len(x)):
            one = _Y_at(spec, x[i:i + 1], dist_minus[i:i + 1], dist_plus[i:i + 1])[0]
            assert np.max(np.abs(batched[i] - one)) <= 1e-15 * np.max(np.abs(one)), x[i]
        assert np.array_equal(batched[5], np.eye(spec.d))  # Y(0) = I
        # nodes past the cap 1 - X_CAP (just below 1e-12) are evaluated at it
        cap = 1.0 - X_CAP
        at_cap = _Y_at(spec, np.array([X_CAP, -X_CAP]), np.array([cap, 2.0 - cap]),
                       np.array([2.0 - cap, cap]))
        assert np.array_equal(batched[3], at_cap[0])
        assert np.array_equal(batched[10], at_cap[1])
        with pytest.raises(ValueError, match="outside"):
            _Y_at(spec, np.array([0.5, 1.0]))


# -- induced weight -------------------------------------------------------------


def test_weight_trivial_spec_is_identity():
    spec = diag_spec([0, 0], [0, 0], 2)
    W = weight(spec, 0.3)
    assert np.allclose(W, np.eye(spec.space.N))


def test_weight_commutative_entries_match_oracle():
    spec = MILD_NEGATIVE
    space = spec.space
    for x in (-0.4, 0.0, 0.62):
        W = weight(spec, x)
        for i, b in enumerate(space.basis):
            want = commutative_weight_entry(spec.A.diag, spec.B.diag, b.m, b.j, x)
            assert abs(W[i, i] - want) < 1e-13 * max(1.0, abs(want))
        off = W - np.diag(np.diag(W))
        assert np.max(np.abs(off)) == 0.0


def test_weight_noncommutative_at_basepoint():
    # Y is normalized to I at 0
    spec = small_noncommutative_spec()
    W = weight(spec, 0.0)
    assert np.allclose(W, np.eye(spec.space.N), atol=1e-12)


# -- double-exponential quadrature ------------------------------------------------


def test_de_integrate_polynomial():
    value, est, level = de_integrate(lambda x, dm, dp: (x * x)[:, None], 1e-9)
    assert abs(value[0] - 2.0 / 3.0) < 1e-14
    assert est <= 1e-9
    assert level <= 10


def test_de_integrate_reuses_nested_levels():
    # one call per level: level 4 has 193 nodes and level 5 adds only its
    # 192 odd-indexed ones
    calls = []

    def square(x, dm, dp):
        calls.append(list(zip(dm.tolist(), dp.tolist())))  # x itself rounds to +-1 near the ends
        return (x * x)[:, None]

    value, _, level = de_integrate(square, 1e-9)
    assert abs(value[0] - 2.0 / 3.0) < 1e-14
    assert level == 5
    assert [len(nodes) for nodes in calls] == [193, 192]
    distinct = set(calls[0] + calls[1])
    assert len(distinct) == 193 + 192


def test_de_integrate_endpoint_singularity():
    # integral of (1-x)^(-1/2) over (-1, 1) is 2 sqrt(2); the integrand is
    # evaluated through the cancellation-free endpoint distance
    value, est, _ = de_integrate(lambda x, dm, dp: (dm ** -0.5)[:, None], 1e-12)
    assert abs(value[0] - 2.0 * math.sqrt(2.0)) < 1e-11


def test_de_integrate_budget_exhaustion():
    # level changes stay at rounding, far above a target of 1e-31, so
    # refinement runs out at level 10 (cos(50 x) settles to 1e-11 at level 6)
    target = 1e-31
    with pytest.raises(QuadratureError, match="within 10 levels") as exc:
        de_integrate(lambda x, dm, dp: np.cos(50.0 * x)[:, None], target)
    assert exc.value.estimated_error is not None
    assert exc.value.estimated_error > target


# -- integrability advisories ------------------------------------------------------


def test_commutative_exponents_values():
    spec = POSITIVE
    space = spec.space
    plus, minus = commutative_exponents(spec)
    a = spec.A.diag
    b = spec.B.diag
    for i, bi in enumerate(space.basis):
        assert plus[i] == sum(mi * ai for mi, ai in zip(bi.m, a)) - a[bi.j - 1]
        assert minus[i] == sum(mi * bbi for mi, bbi in zip(bi.m, b)) - b[bi.j - 1]
    with pytest.raises(ValueError, match="exact exponents need both residues diagonal"):
        commutative_exponents(small_noncommutative_spec())


def test_integrability_check_commutative_branches():
    rep = integrability_check(POSITIVE, POSITIVE.space)
    assert rep.commutative
    assert rep.exists_ok and rep.fast_ok

    slow = diag_spec([Rat(-3, 4)], [0], 2)
    rep = integrability_check(slow, slow.space)
    assert rep.min_exponent_plus == -0.75
    assert rep.exists_ok and not rep.fast_ok

    divergent = diag_spec([Rat(-5, 4)], [0], 2)
    rep = integrability_check(divergent, divergent.space)
    assert not rep.exists_ok


def test_integrability_check_noncommutative_is_exact():
    spec = small_noncommutative_spec()
    rep = integrability_check(spec, spec.space)
    assert not rep.commutative
    # A's eigenvalue pair has real part 1/16; the minimum is an estimate
    assert abs(rep.min_exponent_plus - 0.0625) < 1e-12
    assert rep.exists_ok and rep.fast_ok
    assert rep.detail.startswith(
        "exact Routh-Hurwitz decision: every exponent > -1/2;")


def test_quasi_orth_rejects_divergent_weight():
    # an exact exponent <= -1 means the integral does not exist
    for a in (Rat(-5, 4), Rat(-1)):
        divergent = diag_spec([a], [0], 2)
        with pytest.raises(ValueError, match="does not exist"):
            quasi_orth_integral(divergent, 0, 1, "right")


def test_quasi_orth_noncommutative_gate_refuses_slow_decay():
    # exponents -0.6 in (-1, -1/2): the integral exists, so a claim is decided
    # exactly; an off-claim value needs the float mu_0, biased by roughly
    # (1e-12)^(1+exponent) at the sweep's endpoint cap, so it is refused at
    # every tolerance
    A = RatMatrix([[Rat(-3, 5), Rat(1, 4)], [Rat(-1, 4), Rat(-3, 5)]])
    lam = RatMatrix.diagonal([Rat(-6, 5), Rat(-6, 5)])
    spec = ProblemSpec(2, 2, A, lam - A)
    rep = integrability_check(spec, spec.space)
    assert rep.exists_ok and not rep.fast_ok
    for tol in (1e-8, 1e-4):
        claim = quasi_orth_integral(spec, 0, 1, "right", tol=tol)
        assert claim.claimed and claim.passed and claim.max_abs_entry == 0.0
        with pytest.raises(ValueError, match=r"restricted to endpoint exponents > -1/2 \("):
            quasi_orth_integral(spec, 1, 1, "right", tol=tol)


# -- quasi-orthogonality -------------------------------------------------------------


def test_quasi_orth_commutative_right_and_left():
    right = quasi_orth_integral(POSITIVE, 1, 3, "right", tol=1e-10)
    assert right.claimed and right.passed
    assert right.max_abs_entry == 0.0
    assert right.estimated_quadrature_error == 0.0 and right.tolerance == 0.0
    assert right.de_level is None
    assert right.detail == "vanishing claimed; exact Jacobi moments, tolerance 0"

    left = quasi_orth_integral(POSITIVE, 3, 1, "left", tol=1e-10)
    assert left.claimed and left.passed

    off_claim = quasi_orth_integral(POSITIVE, 2, 2, "right", tol=1e-10)
    assert not off_claim.claimed
    assert off_claim.passed  # informational, never asserted
    assert off_claim.max_abs_entry > 0.1
    assert "no vanishing claim" in off_claim.detail

    # the Jacobi mass of exponent 1100 is past the float range; the claim is
    # still decided exactly, and the off-claim magnitude reads inf
    huge = diag_spec([Rat(1100)], [0], 2)
    vanish = quasi_orth_integral(huge, 0, 1, "right")
    assert vanish.passed and vanish.max_abs_entry == 0.0
    assert quasi_orth_integral(huge, 1, 1, "right").max_abs_entry == math.inf


def test_quasi_orth_validates_arguments():
    with pytest.raises(ValueError):
        quasi_orth_integral(POSITIVE, 0, 1, "middle")
    with pytest.raises(ValueError):
        quasi_orth_integral(POSITIVE, -1, 1, "right")


def test_quasi_orth_mild_negative_exponents():
    report = quasi_orth_integral(MILD_NEGATIVE, 0, 2, "right", tol=1e-8)
    assert report.passed, report._asdict()


def test_quasi_orth_noncommutative_small_norm():
    # the claim is decided by exact moments: no float value, no tanh-sinh level
    spec = small_noncommutative_spec()
    report = quasi_orth_integral(spec, 0, 2, "right", tol=1e-6)
    assert report.claimed and report.passed, report._asdict()
    assert report.max_abs_entry == 0.0 and report.tolerance == 0.0
    assert report.de_level is None
    assert report.detail == "vanishing claimed; exact matrix moments, tolerance 0"


def small_norm_spec(rng: random.Random, d: int, n: int) -> ProblemSpec:
    """A noncommutative pair with residues scaled by 1/8 that passes the gate."""
    while True:
        lam = random_diagonal(rng, d).scale(Rat(1, 8))
        A = random_matrix(rng, d).scale(Rat(1, 8))
        spec = ProblemSpec(d, n, A, lam - A)
        if not is_commutative(spec) and integrability_check(spec, spec.space).fast_ok:
            return spec


def pointwise_quasi_orth(spec: ProblemSpec, j: int, k: int, side: str, level: int):
    """Tanh-sinh sums up to `level` of the integrand and of its absolute value,
    one node at a time: the single-point weight at the node's exact endpoint
    distances, and the members summed term by term."""
    cj, ck = ([np.array([[float(e) for e in row] for row in c.rows]) for c in build_Pk(spec, i).coeffs]
              for i in (j, k))

    def member(coeffs, x):
        return sum(c * x ** i for i, c in enumerate(coeffs))

    total = magnitude = 0.0
    for lev in range(4, level + 1):
        for x, dm, dp, w in zip(*(a.tolist() for a in _de_nodes(lev))):
            Y = _Y_at(spec, np.array([x]), np.array([dm]), np.array([dp]))[0]
            W = induced_action_float(Y, spec.space)
            F = member(cj, x) @ W @ member(ck, x) if side == "right" else W @ member(cj, x) @ member(ck, x)
            total = total + w * F
            magnitude = magnitude + w * np.abs(F)
    h = 2.0 ** -level
    return h * total, h * magnitude


def test_off_claim_values_match_pointwise_reference():
    # exact moment sums times the one float mu_0 = int W, against the whole
    # integrand summed node by node at a fixed level
    rng = random.Random(5)
    specs = [small_noncommutative_spec(), small_norm_spec(rng, 3, 2), small_norm_spec(rng, 3, 2)]
    for spec in specs:
        for j, k, side in ((2, 2, "right"), (1, 2, "left"), (3, 1, "right")):
            report = quasi_orth_integral(spec, j, k, side, tol=1e-8)
            assert not report.claimed and report.de_level is not None
            want, magnitude = pointwise_quasi_orth(spec, j, k, side, 6)
            scale = np.max(magnitude)
            # both carry the endpoint cap's bias, about (1e-12)^(1 + e) for the
            # least exponent e; the second draw has e = -0.44 and differs by 5e-9
            diff = abs(report.max_abs_entry - np.max(np.abs(want)))
            assert diff <= 1e-8 * scale, (spec, j, k, side)
            assert report.estimated_quadrature_error <= 1e-8 * scale


# -- exact commutative integrals against tanh-sinh and sympy ------------------------


def commutative_de_integrand(spec: ProblemSpec, j: int, k: int):
    """Tanh-sinh integrand of P_j W P_k for diagonal residues, one entry per channel."""
    pj = [np.array([float(e) for e in c.diag]) for c in build_Pk(spec, j).coeffs]
    pk = [np.array([float(e) for e in c.diag]) for c in build_Pk(spec, k).coeffs]
    plus, minus = commutative_exponents(spec)
    pe = np.array([float(e) for e in plus])
    me = np.array([float(e) for e in minus])

    def horner(coeffs, x):
        acc = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            acc = x * acc + c
        return acc

    def integrand(x, dist_minus, dist_plus):
        # nodes down the first axis, channels along the second
        x, dist_minus, dist_plus = x[:, None], dist_minus[:, None], dist_plus[:, None]
        return horner(pj, x) * (dist_minus ** pe * dist_plus ** me) * horner(pk, x)

    return integrand


def exact_channels(spec: ProblemSpec, j: int, k: int) -> list[tuple]:
    """(R_i, R_i M0_i) per channel of P_j W P_k for diagonal residues, from moment_ratios:
    R_i = sum_{s,t} P_j[s]_i P_k[t]_i (R_{s+t})_i and M0_i the channel's Jacobi mass."""
    pj = [c.diag for c in build_Pk(spec, j).coeffs]
    pk = [c.diag for c in build_Pk(spec, k).coeffs]
    R = [r.diag for r in moment_ratios(spec, len(pj) + len(pk) - 1)]
    plus, minus = commutative_exponents(spec)
    out = []
    for i, (a, b) in enumerate(zip(plus, minus)):
        Ri = sum(cj[i] * ck[i] * R[s + t][i] for s, cj in enumerate(pj) for t, ck in enumerate(pk))
        out.append((Ri, _jacobi_integral(Ri, a, b)))
    return out


def exact_channel_values(spec: ProblemSpec, j: int, k: int) -> np.ndarray:
    return np.array([value for _, value in exact_channels(spec, j, k)])


def test_de_integrate_meets_its_target_against_exact_values():
    # the true error is checked against the refinement target, not against
    # DE's own estimate: the difference of two levels can understate it
    target = 1e-8 / 10.0
    for spec in (POSITIVE, MILD_NEGATIVE):
        for k in range(5):
            for j in range(k + 1):
                value, _, _ = de_integrate(commutative_de_integrand(spec, j, k), target)
                err = np.max(np.abs(value - exact_channel_values(spec, j, k)))
                assert err <= target, (spec.A.diag, j, k, err)


def channel_exponents_and_members(spec: ProblemSpec, j: int, k: int):
    """(a, b, p_i) per channel, p_i from the closed-form members, not from build_Pk."""
    plus, minus = commutative_exponents(spec)
    return [(a, b, poly_mul(leibniz_scalar_member(a, b, j), leibniz_scalar_member(a, b, k)))
            for a, b in zip(plus, minus)]


def assert_relative(got: np.ndarray, want: list, bound: float):
    want = np.array([float(w) for w in want])
    assert np.max(np.abs(got - want) / np.abs(want)) <= bound, (got, want)


def test_exact_integrals_match_sympy_integrate_integer_exponents():
    spec = diag_spec([1, 2], [1, 1], 2)
    for k in range(4):
        want = [jacobi_integral_sympy(p, int(a), int(b))
                for a, b, p in channel_exponents_and_members(spec, k, k)]
        assert_relative(exact_channel_values(spec, k, k), want, 1e-13)
        report = quasi_orth_integral(spec, k, k, "right")
        assert_relative(np.array([report.max_abs_entry]), [max(want)], 1e-13)


def test_exact_integrals_match_beta_sums_fractional_exponents():
    spec = diag_spec([Rat(1, 2), Rat(1, 4)], [Rat(1, 2), Rat(5, 4)], 2)
    for k in range(4):
        for j in range(k + 1):
            want = [jacobi_integral_beta(p, a, b)
                    for a, b, p in channel_exponents_and_members(spec, j, k)]
            if j == k:
                assert_relative(exact_channel_values(spec, k, k),
                                [sympy.N(w, 30) for w in want], 1e-13)
            else:
                assert all(sympy.gammasimp(w) == 0 for w in want), (j, k)
                assert all(R == 0 for R, _ in exact_channels(spec, j, k))


residue_entry = st.builds(Rat, st.integers(-2, 6), st.sampled_from([2, 3, 4, 6, 12]))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_exact_quasi_orth_vanishes_on_integrable_draws(data):
    d = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 3))
    a = data.draw(st.lists(residue_entry, min_size=d, max_size=d))
    b = data.draw(st.lists(residue_entry, min_size=d, max_size=d))
    spec = diag_spec(a, b, n)
    assume(integrability_check(spec, spec.space).exists_ok)
    for k in range(1, 5):
        for j in range(k):
            for side, (jj, kk) in (("right", (j, k)), ("left", (k, j))):
                report = quasi_orth_integral(spec, jj, kk, side)
                assert report.claimed and report.passed
                assert report.max_abs_entry == 0.0, (a, b, n, side, jj, kk)


# -- exact matrix moments ------------------------------------------------------------


@pytest.mark.parametrize("a, b", [(1, 2), (Rat(1, 2), Rat(-1, 3)), (Rat(-1, 2), Rat(3, 4)),
                                  (Rat(2, 3), 0)])
def test_moment_ratios_match_jacobi_moments_at_d1(a, b):
    # d = 1, n = 2: the one basis element has the exponents (n - 1) a = a
    # and b, and R_m = int x^m w / int w for w = (1-x)^a (1+x)^b
    spec = diag_spec([a], [b], 2)
    mass = jacobi_integral_beta((1,), a, b)
    for m, R in enumerate(moment_ratios(spec, 7)):
        want = sympy.gammasimp(jacobi_integral_beta((0,) * m + (1,), a, b) / mass)
        assert want.is_Rational and R.diag[0] == Rat(int(want.p), int(want.q)), (a, b, m)


def left_factor_ratios(spec: ProblemSpec, count: int) -> tuple:
    """The mutant R_{m+1} = (D1 + m + 2)^{-1} (m R_{m-1} - D2 R_m): the factor on the wrong side."""
    D1, D2 = build_D(spec, 1), build_D(spec, 2)
    R = [RatMatrix.identity(spec.space.N)]
    for m in range(count - 1):
        step = R[m - 1].scale(m) - D2 @ R[m]
        R.append(D1.plus_scalar(m + 2).inverse() @ step)
    return tuple(R)


def noncommutative_draws(count: int = 12) -> list:
    """d = n = 2 draws from Random(5), residues scaled by 1/2, that pass the gate."""
    rng = random.Random(5)
    out = []
    while len(out) < count:
        lam = random_diagonal(rng, 2).scale(Rat(1, 2))
        A = random_matrix(rng, 2).scale(Rat(1, 2))
        spec = ProblemSpec(2, 2, A, lam - A)
        if not is_commutative(spec) and integrability_check(spec, spec.space).fast_ok:
            out.append(spec)
    return out


CLAIMS = [(side, (j, k) if side == "right" else (k, j))
          for j, k in ((0, 1), (0, 2), (1, 2)) for side in ("right", "left")]


def test_noncommutative_claims_hold_exactly(monkeypatch):
    # 12 of these 72 true claims failed at 1e-6 on the tanh-sinh integral of
    # P_j W P_k (max |entry| up to 1.1e-5); a claim that passes runs no float
    def no_floats(*args, **kwargs):
        raise AssertionError("a passing claim integrated in floats")

    monkeypatch.setattr(numeric, "de_integrate", no_floats)
    monkeypatch.setattr(numeric, "solve_ivp", no_floats)
    for i, spec in enumerate(noncommutative_draws()):
        for side, (j, k) in CLAIMS:
            report = quasi_orth_integral(spec, j, k, side, tol=1e-6)
            assert report.claimed and report.passed, (i, side, j, k)
            assert report.max_abs_entry == 0.0 and report.tolerance == 0.0, (i, side, j, k)


def test_left_factor_mutant_fails_the_claims(monkeypatch):
    # where D1 and D2 commute (D1 is scalar on 3 of the 12 draws) the mutant
    # is the true recurrence; on the other 9 it fails every claim
    true_ratios = {spec: moment_ratios(spec, 6) for spec in noncommutative_draws()}
    monkeypatch.setattr(integrals, "moment_ratios", left_factor_ratios)
    commuting = 0
    for spec, ratios in true_ratios.items():
        D1, D2 = build_D(spec, 1), build_D(spec, 2)
        if D1 @ D2 == D2 @ D1:
            commuting += 1
            assert left_factor_ratios(spec, 6) == ratios
        else:
            assert not any(quasi_orth_integral(spec, j, k, side).passed for side, (j, k) in CLAIMS)
    assert commuting == 3


def test_weight_satisfies_the_pearson_equation():
    # Q W' = W (x D1 + D2), which every moment verdict rests on; W' by
    # central differences, and the factor on the left as a control
    rng = random.Random(5)
    specs = [small_noncommutative_spec(), small_norm_spec(rng, 3, 2), noncommutative_draws(3)[2]]
    for spec in specs:
        D1, D2 = (_floats(build_D(spec, i), f"D{i}") for i in (1, 2))
        h = 1e-5
        for x in (-0.8, -0.3, 0.2, 0.7):
            W = weight(spec, x)
            dW = (weight(spec, x + h) - weight(spec, x - h)) / (2 * h)
            lhs = (x * x - 1.0) * dW
            scale = np.max(np.abs(lhs)) + np.max(np.abs(W))
            assert np.max(np.abs(lhs - W @ (x * D1 + D2))) <= 1e-7 * scale, (spec, x)
            assert np.max(np.abs(lhs - (x * D1 + D2) @ W)) > 1e-4 * scale, (spec, x)


# -- integral inter-relation -----------------------------------------------------


INTEGRABLE = diag_spec([Rat(1, 2), Rat(1, 3)], [Rat(1, 3), Rat(1, 4)], 2)


def test_interrelation_matches_exact_member():
    q = (Rat(1), Rat(-1, 2), Rat(1, 3), Rat(0), Rat(2), Rat(-1))
    for k, x0 in ((0, 0.5), (1, 0.5), (1, -0.3)):
        report = integral_interrelation_check(INTEGRABLE, k, x0, q)
        assert report.passed, report._asdict()
        assert report.max_abs_entry < 1e-8
        assert report.de_level == 5


def test_interrelation_preconditions():
    q = (Rat(1),) * INTEGRABLE.space.N
    with pytest.raises(ValueError, match="n >= 2"):
        integral_interrelation_check(diag_spec([0, 0], [Rat(1, 3), Rat(1, 4)], 1), 1, 0.5,
                                     (Rat(1),) * 4)
    with pytest.raises(ValueError, match="outside"):
        integral_interrelation_check(INTEGRABLE, 1, 1.5, q)
    with pytest.raises(ValueError, match="commutative"):
        integral_interrelation_check(small_noncommutative_spec(), 1, 0.5,
                                     (Rat(1),) * 6)
    # a zero exponent at -1 cannot absorb the interior 1/Q factor
    flat = diag_spec([Rat(1, 2), Rat(1, 3)], [0, 0], 2)
    with pytest.raises(ValueError, match="-1"):
        integral_interrelation_check(flat, 1, 0.5, q)
    for value in (math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match="tolerance must be"):
            integral_interrelation_check(INTEGRABLE, 1, 0.5, q, tol=value)


def test_public_numerics_refuse_values_past_the_float_range():
    # each conversion names the value instead of an OverflowError escaping
    huge = 10**400
    with pytest.raises(ValueError, match="a diagonal entry of A is past the float range"):
        commutative_Y(diag_spec([huge], [0], 2), 0.5)
    with pytest.raises(ValueError, match="a diagonal entry of B is past the float range"):
        weight(diag_spec([0], [-huge], 2), 0.5)
    for f in (commutative_Y, fundamental_matrix):
        with pytest.raises(ValueError, match="x is past the float range"):
            f(diag_spec([1], [0], 2), huge)
    # a float exponent whose power is not a float: 1.5 ** 1e300
    with pytest.raises(ValueError, match=r"Y\(-0.5\) is past the float range"):
        weight(diag_spec([10**300], [0], 2), -0.5)
    q = (Rat(1),) * INTEGRABLE.space.N
    with pytest.raises(ValueError, match="an entry of q is past the float range"):
        integral_interrelation_check(INTEGRABLE, 1, 0.5, (Rat(huge),) + q[1:])
    # the refusal at -1 names the exponent it cannot print
    with pytest.raises(ValueError, match="an endpoint exponent from B is past the float range"):
        integral_interrelation_check(diag_spec([0], [-huge], 2), 1, 0.5, (Rat(1),))
