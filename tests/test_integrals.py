"""The exact endpoint-exponent gate of mvjacobi.integrals."""

import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from mvjacobi import integrals
from mvjacobi.integrals import integrability_check, is_commutative, quasi_orth_integral
from mvjacobi.operators import ProblemSpec, basis_exponents
from mvjacobi.rational import Rat
from mvjacobi.ratmat import RatMatrix
from mvjacobi.sampling import random_diagonal, random_matrix, random_rational


def exceeds(M: RatMatrix, n: int, c: Rat) -> bool:
    """The gate's decision for one residue: every n l_i - l_j has real part > c.

    c must make 2 den c an integer, as -1 and -1/2 do.
    """
    S, _ = integrals._residue_traces(M)
    t = 2 * M.den * c
    assert t.denominator == 1
    return integrals._roots_exceed(integrals._kron_charpoly(S, M.nrows, n), int(t))


def sympy_K(M: RatMatrix, n: int) -> sympy.Matrix:
    d = M.nrows
    A = sympy.Matrix(d, d, lambda i, j: sympy.Rational(M.rows[i][j].numerator,
                                                       M.rows[i][j].denominator))
    eye = sympy.eye(d)
    return n * sympy.kronecker_product(A, eye) - sympy.kronecker_product(eye, A)


def sympy_exceeds(M: RatMatrix, n: int, c: Rat) -> bool:
    """The same question from K's eigenvalues, exact for d <= 2.

    At d = 3 sympy's closed forms take seconds to evaluate, so the roots
    of the square-free factors of K's characteristic polynomial are taken
    to 30 digits; no draw here comes within 1e-20 of c without equalling it.
    """
    K, c = sympy_K(M, n), sympy.Rational(c.numerator, c.denominator)
    if M.nrows <= 2:
        return all(bool(sympy.re(v) > c) for v in K.eigenvals())
    _, factors = K.charpoly().sqf_list()
    roots = [r for f, _ in factors for r in f.nroots(n=30)]
    return all(sympy.re(r) - c > sympy.Rational(1, 10**20) for r in roots)


def numpy_eigenvalues(M: RatMatrix) -> np.ndarray:
    return np.linalg.eigvals(np.array([[float(e) for e in row] for row in M.rows]))


# -- the Routh array -----------------------------------------------------------------


def routh_fractions(g: list) -> bool:
    """Routh's array on Fractions, row by row as in the textbook: every first-column entry > 0."""
    upper = [Fraction(c) for c in g[0::2]]
    lower = [Fraction(c) for c in g[1::2]]
    if upper[0] <= 0:
        return False
    while lower:
        if lower[0] <= 0:
            return False
        padded = lower + [0]
        ratio = upper[0] / lower[0]
        upper, lower = lower, [upper[k + 1] - ratio * padded[k + 1] for k in range(len(upper) - 1)]
    return True


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-40, 40), min_size=1, max_size=10), st.integers(-3, 3))
def test_integral_routh_rows_match_the_fraction_array(tail, t):
    # the integral rows divide by the pivot two rows up; the division must be
    # exact for the signs to be the textbook array's
    z = sympy.Symbol("z")
    poly = [1] + tail
    f = sympy.Poly(poly, z).compose(sympy.Poly(z + t, z)).all_coeffs()  # poly(z + t)
    g = [int(c) if k % 2 == 0 else -int(c) for k, c in enumerate(f)]
    assert integrals._roots_exceed(poly, t) is routh_fractions(g)


def test_routh_decides_roots_on_and_beside_the_line():
    # (z - 2)(z^2 + 1): real parts 2, 0, 0; a root on the line Re z = t is not > t
    assert integrals._roots_exceed([1, -2, 1, -2], -1)
    assert not integrals._roots_exceed([1, -2, 1, -2], 0)
    assert not integrals._roots_exceed([1, -2, 1, -2], 1)
    # z^2 - 1: real parts 1 and -1
    assert integrals._roots_exceed([1, 0, -1], -2) and not integrals._roots_exceed([1, 0, -1], -1)


# -- the decisions against sympy -----------------------------------------------------


def oracle_draws():
    rng = random.Random(2026)
    draws = []
    for d, n, count in ((1, 2, 4), (1, 3, 4), (2, 1, 12), (2, 2, 12), (2, 3, 12),
                        (3, 1, 4), (3, 2, 6), (3, 3, 4)):
        for _ in range(count):
            scale = Rat(1, rng.choice([1, 2, 4]))
            draws.append((random_matrix(rng, d).scale(scale), n))
    return draws


@pytest.mark.parametrize("c", [Rat(-1), Rat(-1, 2)], ids=["exists", "fast"])
def test_exact_gate_matches_sympy_eigenvalues_of_K(c):
    # K = n A (x) I - I (x) A; small denominators put some draws exactly on
    # the line, which sympy decides exactly at d <= 2
    seen = set()
    for M, n in oracle_draws():
        want = sympy_exceeds(M, n, c)
        assert exceeds(M, n, c) is want, (M, n, c)
        seen.add(want)
    assert seen == {True, False}


def test_gate_decides_diagonal_residues_on_the_exponents_themselves():
    # exponents a hair above -1 and -1/2 are exact decisions, not float ones
    # (float(-1 + 1e-30) is -1.0)
    hair = Rat(1, 10**30)
    for a, exists_ok, fast_ok in ((Rat(-1), False, False), (-1 + hair, True, False),
                                  (Rat(-1, 2), True, False), (Rat(-1, 2) + hair, True, True)):
        spec = ProblemSpec(1, 2, RatMatrix([[a]]), RatMatrix([[0]]))  # exponent (n - 1) a = a
        rep = integrability_check(spec, spec.space)
        assert (rep.exists_ok, rep.fast_ok) == (exists_ok, fast_ok), a
        assert exceeds(spec.A, 2, Rat(-1)) is exists_ok
        assert exceeds(spec.A, 2, Rat(-1, 2)) is fast_ok


# -- constructed boundary draws ------------------------------------------------------


def conjugated(J: list, t: Rat, s: Rat) -> RatMatrix:
    """T J T^{-1} for T = [[1, t], [s, 1]]."""
    det = 1 - t * s
    T = RatMatrix([[1, t], [s, 1]])
    T_inv = RatMatrix([[1 / det, -t / det], [-s / det, 1 / det]])
    return T @ RatMatrix(J) @ T_inv


def boundary_residue(rng: random.Random, n: int, c: Rat, complex_pair: bool) -> RatMatrix:
    """A noncommutative 2 x 2 residue whose least exponent min n l_i - l_j is exactly c."""
    while True:
        t, s = random_rational(rng), random_rational(rng)
        if t * s == 1 or t == s == 0:
            continue
        if complex_pair:  # a +- ib: the least exponent is (n - 1) a
            a, b = c / (n - 1), random_rational(rng) or Rat(1)
            M = conjugated([[a, b], [-b, a]], t, s)
        else:  # real l_1 <= l_2: the least exponent is n l_1 - l_2
            high = random_rational(rng, lo=0)
            M = conjugated([[(c + high) / n, 0], [0, high]], t, s)
        if M.diag is None:
            return M


@pytest.mark.parametrize("side", ["+1", "-1"])
@pytest.mark.parametrize("c", [Rat(-1), Rat(-1, 2)], ids=["exists", "fast"])
def test_constructed_boundary_draws_are_refused(side, c):
    # an exponent exactly at -1 (or -1/2) fails exists_ok (or fast_ok); the
    # same draw moved 1/1000 up passes, so the decision is not vacuous
    rng = random.Random(7 if side == "+1" else 8)
    for draw in range(12):
        n, seed = 2 + draw % 2, rng.random()
        for c_used, on_line in ((c, True), (c + Rat(1, 1000), False)):
            M = boundary_residue(random.Random(seed), n, c_used, complex_pair=draw % 4 < 2)
            # the other residue, 8 I - M, has every exponent >= 8 (n - 1) - 4 > 0
            other = RatMatrix.diagonal([8, 8]) - M
            A, B = (M, other) if side == "+1" else (other, M)
            spec = ProblemSpec(2, n, A, B)
            rep = integrability_check(spec, spec.space)
            least = rep.min_exponent_plus if side == "+1" else rep.min_exponent_minus
            assert abs(least - float(c_used)) < 1e-9, (draw, least)
            decision = rep.exists_ok if c == -1 else rep.fast_ok
            assert decision is not on_line, (draw, M, n, c_used)
            if c == Rat(-1, 2):
                assert rep.exists_ok


# residues whose exact least exponent is -1/2 where the float eigenvalues of
# the earlier gate read -0.4999999999999998, so its fast_ok passed them:
# Random(14) and Random(27) draws of random_diagonal then random_matrix, scaled
FLOAT_BOUNDARY_DRAWS = [
    # B = lam - A of a (d, n) = (3, 2) draw with residues halved
    (2, RatMatrix.diagonal([0, Rat(1, 4), 0])
     - RatMatrix([[Rat(1, 4), Rat(-1, 2), Rat(-1, 4)], [Rat(1, 2), Rat(1, 2), 0],
                  [Rat(-1, 2), Rat(-1, 4), 0]])),
    # A of a (d, n) = (4, 3) draw with residues scaled by 1/8
    (3, RatMatrix([[Rat(1, 8), Rat(-1, 8), Rat(1, 16), Rat(1, 8)], [0, 0, Rat(-1, 16), Rat(1, 16)],
                   [Rat(-1, 8), 0, Rat(-1, 8), 0], [Rat(1, 8), 0, 0, 0]])),
]


@pytest.mark.parametrize("n, M", FLOAT_BOUNDARY_DRAWS, ids=["d3-B", "d4-A"])
def test_seeded_float_boundary_draws_fail_fast_ok(n, M):
    space = ProblemSpec(M.nrows, n, M, RatMatrix.diagonal([0] * M.nrows) - M).space
    floats = min(basis_exponents(numpy_eigenvalues(M).real.tolist(), space))
    assert -0.5 < floats < -0.4999999999999  # the float gate's fast_ok read true
    assert exceeds(M, n, Rat(-1)) and not exceeds(M, n, Rat(-1, 2))


# -- the bracket and its fallback to K -----------------------------------------------


def gate_draw(rng: random.Random, d: int, n: int, scale: Rat) -> ProblemSpec:
    """The first noncommutative draw of a random pair with A + B diagonal, residues scaled."""
    while True:
        lam = random_diagonal(rng, d).scale(scale)
        A = random_matrix(rng, d).scale(scale)
        spec = ProblemSpec(d, n, A, lam - A)
        if not is_commutative(spec):
            return spec


def test_bracket_decides_as_the_K_array():
    # the gate decides from the bracket of n a - b and runs K's array only
    # when the bracket holds the threshold; both must give K's decisions
    rng = random.Random(27)
    seen = set()
    for _ in range(120):
        spec = gate_draw(rng, rng.randint(2, 5), rng.randint(1, 3),
                         Rat(1, rng.choice([1, 2, 4, 8])))
        rep = integrability_check.__wrapped__(spec, spec.space)
        want = tuple(exceeds(spec.A, spec.n, c) and exceeds(spec.B, spec.n, c)
                     for c in (Rat(-1), Rat(-1, 2)))
        assert (rep.exists_ok, rep.fast_ok) == want, spec
        seen.add(want)
    assert seen == {(True, True), (True, False), (False, False)}


@pytest.fixture
def gate_spy(monkeypatch):
    """Records the degree of every polynomial Routh's test sees and counts K's polynomials."""
    calls = {"kron": 0, "degrees": []}
    kron, routh = integrals._kron_charpoly, integrals._roots_exceed

    def spy_kron(*args):
        calls["kron"] += 1
        return kron(*args)

    def spy_routh(poly, t):
        calls["degrees"].append(len(poly) - 1)
        return routh(poly, t)

    monkeypatch.setattr(integrals, "_kron_charpoly", spy_kron)
    monkeypatch.setattr(integrals, "_roots_exceed", spy_routh)
    return calls


def boundary_specs():
    for n, M in FLOAT_BOUNDARY_DRAWS:
        yield ProblemSpec(M.nrows, n, M, RatMatrix.diagonal([0] * M.nrows) - M)
    for complex_pair in (True, False):  # an exponent exactly at -1/2, then at -1
        M = boundary_residue(random.Random(5), 2, Rat(-1, 2 if complex_pair else 1), complex_pair)
        yield ProblemSpec(2, 2, M, RatMatrix.diagonal([8, 8]) - M)


@pytest.mark.parametrize("spec", list(boundary_specs()),
                         ids=["float-d3-B", "float-d4-A", "complex-pair", "real-pair"])
def test_exact_boundary_draws_fall_back_to_K(gate_spy, spec):
    # the bracket's upper end is the least exponent itself, so it holds the
    # threshold; K's array decides
    fast_ok = integrability_check.__wrapped__(spec, spec.space).fast_ok
    assert gate_spy["kron"] > 0
    assert not fast_ok


def test_bracket_alone_decides_away_from_the_boundary(gate_spy):
    # a quadrature-nc-style draw (d = 3, n = 2, residues scaled by 1/8), then a
    # d = 12 draw, whose K would have degree 144: Routh's test sees only
    # degree-d polynomials
    for d, n in ((3, 2), (12, 1)):
        spec = gate_draw(random.Random(d), d, n, Rat(1, 8))
        gate_spy["degrees"].clear()
        integrability_check.__wrapped__(spec, spec.space)
        assert gate_spy["kron"] == 0, d
        assert set(gate_spy["degrees"]) == {d}


# -- the reported minima -------------------------------------------------------------


def test_float_estimates_match_numpy_eigenvalues():
    # seeded d <= 6 draws whose eigenvalues lie at least 0.05 apart in A and B
    rng = random.Random(11)
    checked = 0
    while checked < 40:
        d, n = rng.randint(2, 6), rng.randint(1, 3)
        spec = gate_draw(rng, d, n, Rat(1, rng.choice([1, 2, 4, 8])))
        want = [numpy_eigenvalues(M) for M in (spec.A, spec.B)]
        if min(abs(a - b) for w in want for i, a in enumerate(w) for b in w[i + 1:]) < 0.05:
            continue
        rep = integrability_check(spec, spec.space)
        for got, w in zip((rep.min_exponent_plus, rep.min_exponent_minus), want):
            assert abs(got - min(basis_exponents(w.real.tolist(), spec.space))) < 1e-9, (spec, got)
        checked += 1


def test_float_estimates_of_a_nilpotent_residue():
    # a repeated eigenvalue 0: the bracket's upper end lands on it exactly
    A = RatMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    spec = ProblemSpec(3, 3, A, -A)
    rep = integrability_check(spec, spec.space)
    assert (rep.min_exponent_plus, rep.min_exponent_minus) == (0.0, 0.0)


def test_float_estimates_of_a_jordan_block_are_exact():
    # A is one Jordan block of 1/8, with least exponent 2/8 - 1/8 at n = 2,
    # and B nilpotent; both minima are dyadic, so they are reported exactly
    A = RatMatrix([[Rat(1, 8), 1, 0], [0, Rat(1, 8), 1], [0, 0, Rat(1, 8)]])
    spec = ProblemSpec(3, 2, A, RatMatrix([[0, -1, 0], [0, 0, -1], [0, 0, 0]]))
    rep = integrability_check(spec, spec.space)
    assert (rep.min_exponent_plus, rep.min_exponent_minus) == (0.125, 0.0)


# -- one exact computation per problem -----------------------------------------------


def test_second_pair_reuses_the_exact_gate():
    rng = random.Random(3)
    while True:
        lam = random_diagonal(rng, 3).scale(Rat(1, 8))
        A = random_matrix(rng, 3).scale(Rat(1, 8))
        spec = ProblemSpec(3, 2, A, lam - A)
        if not is_commutative(spec) and integrability_check(spec, spec.space).fast_ok:
            break
    misses = integrability_check.cache_info().misses
    for j, k in ((0, 1), (1, 2), (2, 1)):
        quasi_orth_integral(spec, j, k, "right" if j < k else "left")
    assert integrability_check.cache_info().misses == misses
    assert integrability_check(spec, spec.space).detail.startswith(
        "exact Routh-Hurwitz decision: every exponent > -1/2;")


def test_gate_needs_the_problem_space():
    spec = ProblemSpec(2, 2, RatMatrix([[0, 1], [0, 0]]), RatMatrix([[0, -1], [0, 0]]))
    other = ProblemSpec(2, 3, spec.A, spec.B).space
    with pytest.raises(ValueError, match="own coefficient space"):
        integrability_check(spec, other)


def test_jacobi_mass_refuses_an_exponent_past_the_float_range():
    with pytest.raises(ValueError, match="^the Jacobi mass of exponents from A and B is past "
                                         "the float range$"):
        integrals._jacobi_integral(Fraction(1), Fraction(10**400), 0)
