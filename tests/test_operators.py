import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import derivation_matrix, derivation_oracle, evaluate, induced_action, to_sympy

from mvjacobi.errors import ResonanceError
from mvjacobi.operators import (
    ProblemSpec,
    basis_exponents,
    build_D,
    describe_kernel,
    dominant_coefficient,
    induced_action_float,
)
from mvjacobi.polyspace import enumerate_basis
from mvjacobi.rational import ONE, Rat, ZERO
from mvjacobi.ratmat import RatMatrix
from mvjacobi.sampling import (_hits_shift, random_matrix, random_problem_spec, random_rational,
                               random_vector)
from mvjacobi.structure import _certified_inverse


def scalar_spec(a, b, n):
    return ProblemSpec(1, n, RatMatrix([[a]]), RatMatrix([[b]]))


def rand_point(rng, d):
    return [Rat(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)]


# -- problem validation -------------------------------------------------------


def test_spec_validation():
    good = ProblemSpec(2, 1, RatMatrix([[1, 2], [0, 1]]), RatMatrix([[0, -2], [0, 0]]))
    assert good.M1 == RatMatrix.diagonal([1, 1])
    assert good.M2 == RatMatrix([[1, 4], [0, 1]])
    with pytest.raises(ValueError, match="d >= 1"):
        ProblemSpec(0, 1, RatMatrix([[1]]), RatMatrix([[1]]))
    with pytest.raises(ValueError, match="shape"):
        ProblemSpec(2, 1, RatMatrix([[1]]), RatMatrix.zeros(2))
    with pytest.raises(ValueError, match="conjugate"):
        ProblemSpec(2, 1, RatMatrix([[0, 1], [0, 0]]), RatMatrix.zeros(2))


def test_spec_is_hashable_and_space_cached():
    s = scalar_spec(Rat(1, 2), Rat(1, 3), 2)
    assert s == scalar_spec(Rat(1, 2), Rat(1, 3), 2)
    assert s.space is enumerate_basis(1, 2)


def test_spec_is_immutable():
    s = scalar_spec(Rat(1, 2), Rat(1, 3), 2)
    for name in ("d", "n", "A", "B", "M1", "M2", "space", "other"):
        with pytest.raises(AttributeError):
            setattr(s, name, 1)
    with pytest.raises(AttributeError):
        del s.A
    assert s.d == 1 and s.A == RatMatrix([[Rat(1, 2)]])


def test_spec_equality_and_hash_follow_the_fields():
    A = RatMatrix([[1, 2], [0, 1]])
    B = RatMatrix([[0, -2], [0, 0]])
    s = ProblemSpec(2, 1, A, B)
    same = ProblemSpec(2, 1, RatMatrix([[1, 2], [0, 1]]), RatMatrix([[0, -2], [0, 0]]))
    assert s == same and hash(s) == hash(same) == hash((2, 1, A, B))
    assert s != ProblemSpec(2, 2, A, B)
    assert s != ProblemSpec(2, 1, B.scale(-1), A.scale(-1))
    assert s != (2, 1, A, B)
    assert len({s, same, ProblemSpec(2, 2, A, B)}) == 2
    assert s.M1 is s.M1 and s.M2 is s.M2  # formed once


def test_spec_sums_the_residues_once(monkeypatch):
    # the diagonality check's A + B is kept as M1
    calls = []
    add = RatMatrix.__add__

    def counting(self, other):
        calls.append(1)
        return add(self, other)

    monkeypatch.setattr(RatMatrix, "__add__", counting)
    s = scalar_spec(Rat(1, 2), Rat(1, 3), 2)
    assert s.M1 == RatMatrix([[Rat(5, 6)]])
    assert len(calls) == 1


exact_lams = st.lists(st.builds(Rat, st.integers(-30, 30), st.integers(1, 12)),
                      min_size=1, max_size=4)
float_lams = st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=4)


@settings(max_examples=120, deadline=None)
@given(st.one_of(exact_lams, float_lams), st.integers(1, 4))
def test_basis_exponents_match_the_per_element_formula(lam, n):
    # one dot product per multi-index gives bit for bit what m.lam - lam_j
    # per basis element gives, for Fractions and floats alike
    space = enumerate_basis(len(lam), n)
    want = [sum(mi * li for mi, li in zip(b.m, lam)) - lam[b.j - 1] for b in space.basis]
    got = basis_exponents(lam, space)
    assert [type(e) for e in got] == [type(e) for e in want]
    if isinstance(lam[0], float):
        assert [e.hex() for e in got] == [e.hex() for e in want]
    else:
        assert got == want


# -- sampling -----------------------------------------------------------------


@pytest.mark.parametrize("d,max_den,lo,hi", [(1, 3, -1, 1), (3, 3, -1, 1), (4, 6, -2, 3)])
def test_random_matrix_keeps_the_fraction_draw_stream(d, max_den, lo, hi):
    # the integer core is built from the same (q, p) draws as one
    # random_rational per entry, row by row, and leaves the generator alike
    for seed in range(25):
        fast, slow = random.Random(seed), random.Random(seed)
        M = random_matrix(fast, d, max_den, lo, hi)
        ref = RatMatrix([[random_rational(slow, max_den, lo, hi) for _ in range(d)]
                         for _ in range(d)])
        assert (M.num, M.den) == (ref.num, ref.den)
        assert fast.getstate() == slow.getstate()


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 3), n=st.integers(1, 4), data=st.data())
def test_hits_shift_decides_as_basis_exponents(d, n, data):
    # integer numerators over lam's denominator, against the Fraction
    # exponents of basis_exponents; small denominators make hits common
    lam = [Rat(data.draw(st.integers(-24, 24)), data.draw(st.sampled_from([1, 2, 3])))
           for _ in range(d)]
    shifts = data.draw(st.sampled_from([range(2, 15), range(0, 3), (5,), (-1, 7)]))
    resonant = {-s for s in shifts}
    want = any(e in resonant for e in basis_exponents(lam, enumerate_basis(d, n)))
    assert _hits_shift(RatMatrix.diagonal(lam), d, n, shifts) is want


def test_hits_shift_accepts_and_rejects():
    # d = 1, n = 2: the one exponent is 2 lam - lam = lam
    assert _hits_shift(RatMatrix([[-3]]), 1, 2, range(2, 15))
    assert not _hits_shift(RatMatrix([[Rat(-7, 2)]]), 1, 2, range(2, 15))
    assert not _hits_shift(RatMatrix([[-15]]), 1, 2, range(2, 15))
    # d = 2, n = 1: exponents lam_2 - lam_1 and lam_1 - lam_2 (and 0)
    lam = RatMatrix.diagonal([Rat(1, 3), Rat(7, 3)])
    assert _hits_shift(lam, 2, 1, (2,)) and not _hits_shift(lam, 2, 1, (3,))


# -- the two derivations ------------------------------------------------------


def test_build_D_scalar_case():
    # d = 1: only one basis element, both derivations are 1 x 1 scalars
    for n in (1, 2, 3):
        s = scalar_spec(Rat(1, 2), Rat(-1, 3), n)
        D1 = build_D(s, 1)
        D2 = build_D(s, 2)
        assert D1 == RatMatrix([[(n - 1) * (Rat(1, 2) + Rat(-1, 3))]])
        assert D2 == RatMatrix([[(n - 1) * (Rat(1, 2) - Rat(-1, 3))]])


def test_build_D_first_kind_is_diagonal():
    rng = random.Random(5)
    spec = random_problem_spec(rng, 3, 2, max_den=3)
    space = spec.space
    D1 = build_D(spec, 1)
    lam = spec.M1.diag
    assert lam is not None
    want = [sum((mi * li for mi, li in zip(b.m, lam)), ZERO) - lam[b.j - 1]
            for b in space.basis]
    assert D1 == RatMatrix.diagonal(want)


def test_build_D_and_diagonal_build_no_fraction(monkeypatch):
    # both derivations and a diagonal of rationals are built on the integer
    # numerators; Fractions are only read
    spec = random_problem_spec(random.Random(5), 3, 2, max_den=3)
    entries = [Rat(1, 2), 3, Rat(-2, 3)]
    real = Fraction.__new__
    made = []

    def counting(cls, *args, **kwargs):
        made.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    got = (build_D.__wrapped__(spec, 1), build_D.__wrapped__(spec, 2))
    D = RatMatrix.diagonal(entries)
    assert made == []
    monkeypatch.undo()
    assert got == (derivation_matrix(spec.space, spec.M1), derivation_matrix(spec.space, spec.M2))
    assert (D.num, D.den) == (((3, 0, 0), (0, 18, 0), (0, 0, -4)), 6)


def test_build_D_matches_pointwise_derivation_oracle():
    rng = random.Random(11)
    for d, n in [(2, 2), (3, 2), (2, 3)]:
        spec = random_problem_spec(rng, d, n, max_den=3)
        space = spec.space
        for which, M in ((1, spec.M1), (2, spec.M2)):
            D = build_D(spec, which)
            for _ in range(4):
                coords = random_vector(rng, space.N)
                w = rand_point(rng, d)
                got = evaluate(space, D.apply(coords), w)
                assert got == derivation_oracle(space, M.rows, coords, w)


@settings(max_examples=30, deadline=None)
@given(d=st.integers(1, 3), n=st.integers(1, 3), seed=st.integers(0, 10**6),
       commutative=st.booleans())
def test_build_D_matches_sympy_derivation(d, n, seed, commutative):
    spec = random_problem_spec(random.Random(seed), d, n, commutative=commutative,
                               avoid_shifts=None)
    assert build_D(spec, 1) == derivation_matrix(spec.space, spec.M1)
    assert build_D(spec, 2) == derivation_matrix(spec.space, spec.M2)


def test_build_D_rejects_bad_kind():
    s = scalar_spec(0, 0, 1)
    with pytest.raises(ValueError):
        build_D(s, 3)


# -- dominant coefficient ------------------------------------------------------


def test_dominant_coefficient_values():
    D1 = RatMatrix([[0]])
    assert dominant_coefficient(D1, 0) == RatMatrix.identity(1)
    # (0+2) = 2, (0+3)(0+4) = 12, (0+4)(0+5)(0+6) = 120
    assert dominant_coefficient(D1, 1) == RatMatrix([[2]])
    assert dominant_coefficient(D1, 2) == RatMatrix([[12]])
    assert dominant_coefficient(D1, 3) == RatMatrix([[120]])
    with pytest.raises(ValueError):
        dominant_coefficient(D1, -1)


def test_dominant_coefficient_noncommutative_order():
    rng = random.Random(2)
    spec = random_problem_spec(rng, 2, 2, max_den=3)
    D1 = build_D(spec, 1)
    expected = D1.plus_scalar(3) @ D1.plus_scalar(4)
    assert dominant_coefficient(D1, 2) == expected


# -- invertibility certificates ---------------------------------------------


def test_check_invertibility():
    # a diagonal operator is inverted, or refused with its rank and the
    # kernel witness e_b of its first zero entry b rendered on the basis
    spec = ProblemSpec(2, 1, RatMatrix.zeros(2), RatMatrix.zeros(2))
    space = spec.space
    assert _certified_inverse(RatMatrix.identity(space.N), "I", spec) == RatMatrix.identity(space.N)
    M = RatMatrix.diagonal([1, 0, 2, 0])
    with pytest.raises(ResonanceError) as exc:
        _certified_inverse(M, "M", spec)
    err = exc.value
    assert err.operator_name == "M"
    assert err.kernel == (ZERO, ONE, ZERO, ZERO)
    assert str(err) == ("singular operator: M (rank 2 of 4; kernel "
                        f"{describe_kernel(space, err.kernel)})")
    assert M.apply(err.kernel) == (ZERO,) * space.N
    with pytest.raises(ValueError):
        _certified_inverse(RatMatrix.zeros(2, 3), "Z", spec)


# -- kernel rendering -------------------------------------------------------


def test_describe_kernel():
    space = enumerate_basis(2, 2)
    vec = [ZERO] * space.N
    vec[space.index_of((1, 1), 2)] = Rat(-1, 2)
    text = describe_kernel(space, vec)
    assert text == "(-1/2)*w^(1, 1).e2"
    assert describe_kernel(space, [ZERO] * space.N) == "0"


# -- induced substitution action ----------------------------------------------
# The exact action is the sympy oracle; these tests pin the oracle down,
# and the float action the numeric layer uses is compared against it.


def test_induced_action_diagonal():
    space = enumerate_basis(2, 2)
    Y = RatMatrix.diagonal([Rat(2), Rat(1, 3)])
    W = induced_action(Y, space)
    y = Y.diag
    want = []
    for b in space.basis:
        v = ONE
        for yi, mi in zip(y, b.m):
            v *= yi**mi
        want.append(v / y[b.j - 1])
    assert W == RatMatrix.diagonal(want)


def test_induced_action_pointwise():
    # the matrix must realize q |-> Y^{-1} q(Y w) at every point
    rng = random.Random(23)
    space = enumerate_basis(2, 2)
    for _ in range(5):
        Y = random_matrix(rng, 2, max_den=3)
        if to_sympy(Y).det() == 0:
            continue
        W = induced_action(Y, space)
        q = random_vector(rng, space.N)
        w = rand_point(rng, 2)
        got = evaluate(space, W.apply(q), w)
        want = to_sympy(Y).inv() * to_sympy([evaluate(space, q, Y.apply(w))]).T
        assert got == tuple(Rat(int(e.p), int(e.q)) for e in want)


def test_induced_action_reverses_products():
    space = enumerate_basis(2, 2)
    Y = RatMatrix([[1, 1], [0, 1]])
    C = RatMatrix([[2, 0], [1, 1]])
    assert induced_action(Y @ C, space) == induced_action(C, space) @ induced_action(Y, space)


def test_induced_action_identity_and_errors():
    space = enumerate_basis(2, 2)
    assert induced_action(RatMatrix.identity(2), space) == RatMatrix.identity(space.N)
    assert (induced_action_float([[1.0, 0.0], [0.0, 1.0]], space) == np.eye(space.N)).all()
    with pytest.raises(ValueError):
        induced_action_float(np.zeros((3, 3)), space)
    with pytest.raises(ValueError):
        induced_action_float(np.zeros((2, 2)), space)  # singular


def test_induced_action_float_matches_exact():
    rng = random.Random(29)
    fixed = {1: RatMatrix([["-3/2"]]), 2: RatMatrix([[1, "1/2"], ["-1/3", "3/4"]])}

    def assert_close(exact, approx):
        for erow, arow in zip(exact.rows, approx):
            for e, a in zip(erow, arow):
                assert abs(float(e) - a) < 1e-12

    for d, n in [(1, 3), (2, 1), (2, 3), (3, 2), (3, 3)]:
        space = enumerate_basis(d, n)
        first = fixed[d] if d in fixed else random_matrix(rng, d)
        Ys = [Y for Y in [first] + [random_matrix(rng, d) for _ in range(3)]
              if to_sympy(Y).det() != 0]
        assert Ys[0] is first, (d, n)
        floats = [[[float(e) for e in row] for row in Y.rows] for Y in Ys]
        approx = induced_action_float(floats[0], space)
        assert approx.shape == (space.N, space.N)
        assert_close(induced_action(first, space), approx)
        # a (B, d, d) stack gives the (B, N, N) stack of actions
        stacked = induced_action_float(np.array(floats), space)
        assert stacked.shape == (len(Ys), space.N, space.N)
        for Y, approx in zip(Ys, stacked):
            assert_close(induced_action(Y, space), approx)
    with pytest.raises(ValueError):
        induced_action_float([[1.0, 0.0]], enumerate_basis(2, 3))
    with pytest.raises(ValueError):
        induced_action_float(np.zeros((4, 3, 2)), enumerate_basis(3, 2))
    with pytest.raises(ValueError):  # one singular matrix in the stack
        induced_action_float(np.array([np.eye(2), np.zeros((2, 2))]), enumerate_basis(2, 2))
