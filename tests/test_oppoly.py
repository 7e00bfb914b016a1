import random
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (apply_to, leading, leibniz_scalar_member, matvec, op_constant, poly_value,
                     random_op_poly, to_sympy, trim)
from test_ratmat import mixed, raw_matrix, sym

from mvjacobi import oppoly
from mvjacobi.operators import ProblemSpec, build_D, dominant_coefficient
from mvjacobi.oppoly import OpPoly, VectorPoly, apply_A, build_Pk
from mvjacobi.polyspace import enumerate_basis
from mvjacobi.rational import Rat
from mvjacobi.ratmat import RatMatrix, _nonzeros
from mvjacobi.sampling import random_matrix, random_problem_spec, random_vector, random_vector_poly
from mvjacobi.structure import _ring_factor


@pytest.fixture
def space():
    return enumerate_basis(2, 2)


def scalar_spec(a, b, n=1):
    return ProblemSpec(1, n, RatMatrix([[a]]), RatMatrix([[b]]))


def mat_blocks(p) -> list:
    """The RatMatrix coefficients of p, lowest power first (N x 1 for a VectorPoly)."""
    return [p.mat_at(i) for i in range(p.degree + 1)]


# -- coefficient-list mechanics ----------------------------------------------


def test_trim_invariant(space):
    Z = RatMatrix.zeros(space.N)
    M = RatMatrix.identity(space.N)
    p = OpPoly((M, Z, Z), space)
    assert p.degree == 0 and p.coeffs == (M,)
    assert OpPoly((Z,), space).is_zero
    assert OpPoly.zero(space).degree == -1
    assert OpPoly.zero(space).coeff_at(0) == Z


def test_coeff_at(space):
    p = OpPoly.identity(space).mul_by_x()
    assert p.degree == 1
    assert p.coeff_at(0) == RatMatrix.zeros(space.N)
    assert p.coeff_at(1) == RatMatrix.identity(space.N)
    assert p.coeff_at(5) == RatMatrix.zeros(space.N)
    with pytest.raises(ValueError):
        p.coeff_at(-1)


def test_add_sub_scale_cancellation(space):
    rng = random.Random(1)
    p = random_op_poly(rng, space, 3)
    q = random_op_poly(rng, space, 2)
    assert (p + q) - q == p
    assert p - p == OpPoly.zero(space)
    assert p.scale(Rat(1, 2)).scale(2) == p
    assert -(-p) == p


def test_mul_by_Q_is_x_squared_minus_one(space):
    rng = random.Random(2)
    p = random_op_poly(rng, space, 3)
    assert p.mul_by_Q() == p.mul_by_x().mul_by_x() - p
    assert OpPoly.zero(space).mul_by_Q().is_zero


def test_d_dx_product_rule_with_x(space):
    # (x p)' = p + x p'
    rng = random.Random(3)
    p = random_op_poly(rng, space, 4)
    assert p.mul_by_x().d_dx() == p + p.d_dx().mul_by_x()
    assert OpPoly.identity(space).d_dx().is_zero


def test_lmul_rmul_pointwise(space):
    rng = random.Random(4)
    p = random_op_poly(rng, space, 3)
    M = RatMatrix.diagonal(random_vector(rng, space.N))
    x = Rat(2, 3)
    assert poly_value(p.lmul(M), x) == M @ poly_value(p, x)
    assert poly_value(p.rmul(M), x) == poly_value(p, x) @ M


def test_rmul_and_apply_to_on_zero_and_constant(space):
    # rmul (src) and the oracle apply_to: the zero polynomial has no block,
    # a constant one, and a product that vanishes trims to the zero polynomial
    rng = random.Random(9)
    C, M = random_matrix(rng, space.N), random_matrix(rng, space.N)
    q = random_vector(rng, space.N)
    zero, c = OpPoly.zero(space), op_constant(C, space)
    assert zero.rmul(M) == zero
    assert apply_to(zero, q) == VectorPoly.zero(space)
    assert c.rmul(M).degree == 0
    assert to_sympy(leading(c.rmul(M))) == to_sympy(C) * to_sympy(M)
    assert apply_to(c, q).degree == 0
    assert to_sympy([leading(apply_to(c, q))]).T == to_sympy(C) * to_sympy([q]).T
    assert c.rmul(RatMatrix.zeros(space.N)).is_zero
    assert apply_to(c, (0,) * space.N) == VectorPoly.zero(space)


def test_space_and_type_mismatch(space):
    other = enumerate_basis(2, 3)
    with pytest.raises(ValueError):
        OpPoly.identity(space).add(OpPoly.identity(other))
    with pytest.raises(TypeError):
        OpPoly.identity(space).add(VectorPoly.zero(space))
    with pytest.raises(ValueError):
        OpPoly((RatMatrix.identity(3),), space)  # wrong coefficient shape


def test_op_poly_checks_each_coefficient_once(space):
    # one check, one message: a RatMatrix of the space's N x N shape
    I = RatMatrix.identity(space.N)
    for bad in ([[1] * space.N] * space.N, "I", RatMatrix.identity(3), RatMatrix.zeros(space.N, 1)):
        with pytest.raises(ValueError, match=f"{space.N} x {space.N} RatMatrix"):
            OpPoly((I, bad), space)


@pytest.mark.parametrize("d, n", [(1, 3), (2, 2), (3, 2)])  # N = 1, 6, 18
def test_identity_is_the_constant_identity_matrix(d, n):
    space = enumerate_basis(d, n)
    I = OpPoly.identity(space)
    assert I == OpPoly((RatMatrix.identity(space.N),), space)
    assert (I.degree, I.mat.den, I.coeff_at(0)) == (0, 1, RatMatrix.identity(space.N))


def test_immutability(space):
    p = OpPoly.identity(space)
    with pytest.raises(AttributeError):
        p.coeffs = ()


# -- evaluation and application (the tests' oracles) ---------------------------


def test_eval_horner_matches_power_sum(space):
    # oracles.poly_value against sympy's substitution, for both kinds, the
    # zero polynomial included
    rng = random.Random(5)
    X = sympy.Symbol("x")
    for p in (random_op_poly(rng, space, 4), random_vector_poly(rng, space, 3),
              OpPoly.zero(space), VectorPoly.zero(space)):
        for x in (Rat(-3, 5), Rat(0), Rat(7, 2)):
            value = poly_value(p, x)
            got = to_sympy(value) if isinstance(p, OpPoly) else to_sympy([value]).T
            F = sum((to_sympy(m) * X**i for i, m in enumerate(mat_blocks(p))),
                    sympy.zeros(*p.mat_at(0).shape))
            assert got == F.subs(X, sympy.Rational(x.numerator, x.denominator))
    with pytest.raises(TypeError, match="float"):
        poly_value(OpPoly.identity(space), 0.5)


def test_apply_to_commutes_with_eval(space):
    # oracles.apply_to against sympy's product, and at a point against
    # oracles.matvec of the value
    rng = random.Random(7)
    p = random_op_poly(rng, space, 3)
    q = random_vector(rng, space.N)
    x = Rat(1, 7)
    X = sympy.Symbol("x")
    F = sum((to_sympy(m) * X**i for i, m in enumerate(p.coeffs)), sympy.zeros(space.N))
    got = sum((to_sympy([c]).T * X**i for i, c in enumerate(apply_to(p, q).coeffs)),
              sympy.zeros(space.N, 1))
    assert (got - F * to_sympy([q]).T).expand() == sympy.zeros(space.N, 1)
    assert poly_value(apply_to(p, q), x) == matvec(poly_value(p, x), q)
    with pytest.raises(ValueError):
        apply_to(p, q[:-1])


def test_vector_poly_basics(space):
    q = random_vector(random.Random(8), space.N)
    v = VectorPoly((q,), space)
    assert v.degree == 0
    assert v.coeffs == (q,) and v.coeff_at(0) == q
    assert v.mul_by_x().coeffs == (tuple(0 for _ in q), q)


# -- column-backed VectorPoly against sympy column arithmetic -----------------

X = sympy.Symbol("x")
small = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 6]))


@st.composite
def vector_coeffs(draw, N):
    """Length-N Fraction tuples, lowest power first; the top one may be zero."""
    return [tuple(draw(st.lists(small, min_size=N, max_size=N)))
            for _ in range(draw(st.integers(0, 4)))]


def sym_rat(c) -> sympy.Rational:
    return sympy.Rational(c.numerator, c.denominator)


def sym_column(coeffs, N: int) -> sympy.Matrix:
    """sum_i coeffs[i] x^i as a sympy column."""
    return sum((to_sympy([c]).T * X**i for i, c in enumerate(coeffs)), sympy.zeros(N, 1))


def assert_fraction_vector(vec, N: int) -> None:
    assert isinstance(vec, tuple) and len(vec) == N
    assert all(type(e) is Fraction and e.denominator > 0
               and gcd(e.numerator, e.denominator) == 1 for e in vec)


def assert_matches(f: VectorPoly, expected: sympy.Matrix) -> None:
    """f holds trimmed N x 1 columns, has the value of expected and its degree."""
    N = f.space.N
    mats = mat_blocks(f)
    assert all(isinstance(m, RatMatrix) and m.shape == (N, 1) for m in mats)
    assert not mats or not mats[-1].is_zero
    expected = expected.expand()
    for c in f.coeffs:
        assert_fraction_vector(c, N)
    assert (sym_column(f.coeffs, N) - expected).expand() == sympy.zeros(N, 1)
    assert f.degree == max((sympy.degree(e, X) for e in expected if e != 0), default=-1)
    for i in range(f.degree + 2):
        assert to_sympy([f.coeff_at(i)]).T == expected.applyfunc(lambda e: e.coeff(X, i))
        assert_fraction_vector(f.coeff_at(i), N)


def assert_layout(p, expected: sympy.Matrix) -> None:
    """p has the value of expected and the unique one-matrix layout.

    p.mat is N x w(K+1) with coefficient i in columns i w .. i w + w - 1,
    its top block nonzero, in normal form (den 1 for zero); the same value
    built from its coefficients has the same (num, den) and hash.
    """
    N = p.space.N
    w = N if isinstance(p, OpPoly) else 1
    expected = expected.expand()
    K = max((sympy.degree(e, X) for e in expected if e != 0), default=-1)
    blocks = [expected.applyfunc(lambda e: e.coeff(X, i)) for i in range(K + 1)]
    M = p.mat
    assert p.degree == K and M.shape == (N, w * (K + 1))
    assert M.den > 0 and gcd(M.den, *chain.from_iterable(M.num)) == 1
    if K < 0:
        assert M.den == 1
    else:
        assert any(any(row[-w:]) for row in M.num)
        assert sympy.Matrix(M.num) / M.den == sympy.Matrix.hstack(*blocks)
    rebuilt = type(p).from_mats([RatMatrix([[Fraction(int(e.p), int(e.q)) for e in b.row(r)]
                                            for r in range(N)]) for b in blocks], p.space)
    assert (rebuilt.mat.num, rebuilt.mat.den) == (M.num, M.den)
    assert rebuilt == p and hash(rebuilt) == hash(p)
    assert tuple(to_sympy(m) for m in mat_blocks(p)) == tuple(blocks)


def sym_poly(p) -> sympy.Matrix:
    """sum_i p_i x^i as a sympy matrix, from the coefficient views."""
    return sum((to_sympy(m) * X**i for i, m in enumerate(mat_blocks(p))),
               sympy.zeros(*p.mat_at(0).shape))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_ring_operations_match_sympy(data):
    # d, n in {1, 2, 3} (N up to 30), both kinds, zero coefficients, and a
    # D2 with whole zero rows
    d, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    space = enumerate_basis(d, n)
    N = space.N
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    kind = data.draw(st.sampled_from(["op", "vector"]))
    top = 3 if N <= 9 else 1
    make = random_op_poly if kind == "op" else random_vector_poly

    def poly():
        deg = data.draw(st.integers(-1, top))
        if deg < 0:
            return (OpPoly if kind == "op" else VectorPoly).zero(space)
        r = make(rng, space, deg)
        zeroed = data.draw(st.lists(st.booleans(), min_size=deg + 1, max_size=deg + 1))
        z = r.mat_at(deg + 1)
        return r.from_mats([z if zero else m for zero, m in zip(zeroed, mat_blocks(r))], space)

    f, g = poly(), poly()
    F, G = sym_poly(f), sym_poly(g)
    c = data.draw(small)
    M = random_matrix(rng, N)
    assert_layout(f, F)
    assert_layout(f.add(g), F + G)
    assert_layout(f - g, F - G)
    assert_layout(f - f, F - F)
    assert_layout(-f, -F)
    assert_layout(f.scale(c), F * sym_rat(c))
    assert_layout(f.scale(0), F * 0)
    assert_layout(f.mul_by_x(), F * X)
    assert_layout(f.mul_by_Q(), F * (X**2 - 1))
    assert_layout(f.d_dx(), F.diff(X))
    assert_layout(f.lmul(M), to_sympy(M) * F)
    singular = RatMatrix([row if i else (0,) * N for i, row in enumerate(M.rows)])
    assert_layout(f.lmul(singular), to_sympy(singular) * F)
    if kind == "op":
        assert_layout(f.rmul(M), F * to_sympy(M))
        assert_layout(f.rmul(singular.scale(0)), F * 0)
    spec = random_problem_spec(rng, d, n, commutative=data.draw(st.booleans()))
    D1, D2 = build_D(spec, 1), build_D(spec, 2)
    if data.draw(st.booleans()):
        D2 = RatMatrix([row if rng.random() < 0.5 else (0,) * N for row in D2.rows])
    j = data.draw(st.integers(1, 6))
    A = apply_A(j, D1, D2, f)
    assert type(A) is type(f)
    assert_layout(A, X * (to_sympy(D1) + 2 * j * sympy.eye(N)) * F + to_sympy(D2) * F
                  + (X**2 - 1) * F.diff(X))


@pytest.mark.parametrize("kind", [OpPoly, VectorPoly])
def test_equal_values_share_one_normal_form(space, kind):
    N = space.N
    w = N if kind is OpPoly else 1
    rng = random.Random(14)
    a = RatMatrix([[Rat(rng.randint(-9, 9), 6) for _ in range(w)] for _ in range(N)])
    b = RatMatrix([[Rat(rng.randint(-9, 9), 4) for _ in range(w)] for _ in range(N)])
    z = RatMatrix.zeros(N, w)
    p = kind.from_mats([a, z, b], space)
    routes = [
        kind.from_mats([a, z, b, z, z], space),              # trailing zero blocks
        kind.from_mats([a], space).add(kind.from_mats([z, z, b], space)),
        kind.from_mats([a.scale(3), z, b.scale(3)], space).scale(Rat(1, 3)),
        kind.from_mats([b], space).mul_by_x().mul_by_x().add(kind.from_mats([a], space)),
        -(-p),
    ]
    if kind is VectorPoly:
        routes.append(VectorPoly([tuple(r[0] for r in m.rows) for m in (a, z, b, z)], space))
    else:
        routes.append(OpPoly((a, z, b, z), space))
    for q in routes:
        assert (q.mat.num, q.mat.den) == (p.mat.num, p.mat.den)
        assert q == p and hash(q) == hash(p)
    zero = kind.zero(space)
    for q in (p - p, p.add(-p), p.scale(0), kind.from_mats([z, z], space), p.d_dx().d_dx().d_dx()):
        assert q.is_zero and q.degree == -1
        assert (q.mat.num, q.mat.den) == (zero.mat.num, zero.mat.den) == (((),) * N, 1)
        assert q == zero and hash(q) == hash(zero)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_vector_poly_matches_sympy_columns(data):
    space = enumerate_basis(data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2)))
    N = space.N
    a, b = data.draw(vector_coeffs(N)), data.draw(vector_coeffs(N))
    f, g = VectorPoly(a, space), VectorPoly(b, space)
    F, G = sym_column(a, N), sym_column(b, N)
    c = data.draw(small)
    M = [[data.draw(small) for _ in range(N)] for _ in range(N)]
    assert_matches(f, F)
    assert_matches(f.add(g), F + G)
    assert_matches(f - g, F - G)
    assert_matches(f - f, sympy.zeros(N, 1))
    assert_matches(-f, -F)
    assert_matches(f.scale(c), F * sym_rat(c))
    assert_matches(f.mul_by_x(), F * X)
    assert_matches(f.mul_by_Q(), F * (X**2 - 1))
    assert_matches(f.d_dx(), F.diff(X))
    assert_matches(f.lmul(RatMatrix(M)), to_sympy(M) * F)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_vector_poly_int_and_fraction_entries_agree(data):
    space = enumerate_basis(data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2)))
    N = space.N
    ints = [tuple(data.draw(st.lists(st.integers(-5, 5), min_size=N, max_size=N)))
            for _ in range(data.draw(st.integers(0, 3)))]
    from_ints = VectorPoly(ints, space)
    from_fractions = VectorPoly([tuple(map(Fraction, c)) for c in ints], space)
    assert from_ints == from_fractions and hash(from_ints) == hash(from_fractions)
    assert from_ints.coeffs == from_fractions.coeffs
    for c in from_ints.coeffs:
        assert_fraction_vector(c, N)
    q = (Fraction(1),) * N
    for bad in (list(q), q + (Fraction(1),), q[:-1], RatMatrix([[e] for e in q])):
        with pytest.raises(ValueError):
            VectorPoly([bad], space)


# -- the product factors -------------------------------------------------------


def test_apply_A_on_identity_is_affine():
    spec = scalar_spec(Rat(1, 2), Rat(1, 3), 2)
    space1 = spec.space
    D1 = build_D(spec, 1)
    D2 = build_D(spec, 2)
    got = apply_A(3, D1, D2, OpPoly.identity(space1))
    assert got == OpPoly((D2, D1.plus_scalar(6)), space1)
    with pytest.raises(ValueError):
        apply_A(0, D1, D2, OpPoly.identity(space1))


# The composite formula is structure._ring_factor: the factor composed from
# lmul, mul_by_x, add, d_dx and mul_by_Q, each checked against sympy above,
# the same second construction that reconstruct runs.
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_apply_A_stencil_matches_composite_formula(data):
    d, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    spec = random_problem_spec(rng, d, n, commutative=data.draw(st.booleans()))
    space = spec.space
    D1, D2 = build_D(spec, 1), build_D(spec, 2)
    if data.draw(st.booleans()):
        # a D2 with whole zero rows, and more zeros than a derivation has
        keep = [rng.random() < 0.5 for _ in range(space.N)]
        D2 = RatMatrix([[e if keep[i] and rng.random() < 0.5 else 0 for e in row]
                        for i, row in enumerate(random_matrix(rng, space.N).rows)])
    j = data.draw(st.integers(1, 6))
    deg = data.draw(st.integers(-1, 3 if space.N <= 9 else 1))
    if data.draw(st.booleans()):
        r = VectorPoly.zero(space) if deg < 0 else random_vector_poly(rng, space, deg)
    else:
        r = OpPoly.zero(space) if deg < 0 else random_op_poly(rng, space, deg)
    got = apply_A(j, D1, D2, r)
    assert type(got) is type(r)
    assert got == _ring_factor(j, D1, D2, r)
    assert got.degree <= r.degree + 1 if deg >= 0 else got.is_zero


@pytest.mark.parametrize("deg", [0, 1, 4])
@pytest.mark.parametrize("kind", ["op", "vector"])
def test_apply_A_normalises_once_per_application(monkeypatch, deg, kind):
    rng = random.Random(12)
    spec = random_problem_spec(rng, 2, 2)
    D1, D2 = build_D(spec, 1), build_D(spec, 2)
    make = random_op_poly if kind == "op" else random_vector_poly
    r = make(rng, spec.space, deg)
    want = _ring_factor(3, D1, D2, r)
    calls = {"_normal": 0, "__matmul__": 0, "__add__": 0}
    normal = RatMatrix._normal

    def counting_normal(num, den):
        calls["_normal"] += 1
        return normal(num, den)

    def forbidden(name):
        def op(self, other):
            calls[name] += 1
            raise AssertionError(f"apply_A called RatMatrix.{name}")
        return op

    monkeypatch.setattr(RatMatrix, "_normal", staticmethod(counting_normal))
    monkeypatch.setattr(RatMatrix, "__matmul__", forbidden("__matmul__"))
    monkeypatch.setattr(RatMatrix, "__add__", forbidden("__add__"))
    got = apply_A(3, D1, D2, r)
    monkeypatch.undo()
    assert calls == {"_normal": 1, "__matmul__": 0, "__add__": 0}
    assert got == want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_apply_A_matches_sympy(data):
    # raw D1 (diagonal) and D2 with whole zero rows, coefficients with
    # zero rows and zero blocks, against x(2j + D1) r + D2 r + Q r'
    space = enumerate_basis(data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2)))
    N = space.N
    kind = data.draw(st.sampled_from([OpPoly, VectorPoly]))
    w = N if kind is OpPoly else 1
    d1, d2 = data.draw(raw_matrix(N, N, True)), data.draw(raw_matrix(N, N))
    terms = [data.draw(raw_matrix(N, w)) for _ in range(data.draw(st.integers(0, 3)))]
    r = kind.from_mats([RatMatrix(t) for t in terms], space)
    j = data.draw(st.integers(1, 6))
    R = sympy.zeros(N, w)
    for i, t in enumerate(terms):
        R += sym(t) * X**i
    want = X * (sym(d1) + 2 * j * sympy.eye(N)) * R + sym(d2) * R + (X**2 - 1) * R.diff(X)
    assert_layout(apply_A(j, RatMatrix(d1), RatMatrix(d2), r), want)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_apply_A_with_zero_coefficients_matches_composite_formula(data):
    # zero coefficients below the top (x^i I, Q r) are skipped by the
    # stencil, and an output coefficient with no term left is zero
    d, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    spec = random_problem_spec(rng, d, n, commutative=data.draw(st.booleans()))
    space = spec.space
    D1, D2 = build_D(spec, 1), build_D(spec, 2)
    deg = data.draw(st.integers(0, 4 if space.N <= 6 else 2))
    make = random_vector_poly if data.draw(st.booleans()) else random_op_poly
    r = make(rng, space, deg)
    zeroed = data.draw(st.lists(st.booleans(), min_size=deg + 1, max_size=deg + 1))
    z = RatMatrix.zeros(*r.mat_at(0).shape)
    r = r.from_mats([z if zero else m for zero, m in zip(zeroed, mat_blocks(r))], space)
    j = data.draw(st.integers(1, 6))
    assert apply_A(j, D1, D2, r) == _ring_factor(j, D1, D2, r)


@pytest.mark.parametrize("pattern", ["below", "at", "above", "mixed"])
@pytest.mark.parametrize("kind", [OpPoly, VectorPoly])
def test_apply_A_sparse_and_dense_source_rows_match_sympy(monkeypatch, kind, pattern):
    # source rows with fewer, exactly, or more than a third nonzeros (12
    # entries for OpPoly, 6 for VectorPoly), or all three; every source
    # row adds only its nonzeros into the D2 term, listed once per row
    space = enumerate_basis(2, 2)  # N = 6
    N = space.N
    w, K = (N, 1) if kind is OpPoly else (1, 5)
    n = w * (K + 1)
    counts = {"below": n // 3 - 1, "at": n // 3, "above": n // 3 + 1}
    rng = random.Random(f"{kind.__name__} {pattern}")

    def entry():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))

    rows = []
    for p in range(N):
        nnz = counts[pattern] if pattern != "mixed" else list(counts.values())[p % 3]
        # row 0 starts with a nonzero, so no zero block is cut off below
        where = {0, *rng.sample(range(1, n), nnz - 1)} if p == 0 else set(rng.sample(range(n), nnz))
        rows.append([entry() if c in where else Fraction(0) for c in range(n)])
    r = kind.from_mats([RatMatrix([row[i * w:i * w + w] for row in rows]) for i in range(K + 1)],
                       space)
    assert r.degree == K
    d1 = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) if i == j else 0 for j in range(N)]
          for i in range(N)]
    d2 = [[entry() for _ in range(N)] for _ in range(N)]
    calls = []

    def recording(row):
        calls.append(row)
        return _nonzeros(row)

    monkeypatch.setattr(oppoly, "_nonzeros", recording)
    j = 3
    got = apply_A(j, RatMatrix(d1), RatMatrix(d2), r)
    monkeypatch.undo()
    assert len(calls) == N
    R = sympy.zeros(N, w)
    for i in range(K + 1):
        R += sym([row[i * w:i * w + w] for row in rows]) * X**i
    assert_layout(got, X * (sym(d1) + 2 * j * sympy.eye(N)) * R + sym(d2) * R
                  + (X**2 - 1) * R.diff(X))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rmul_and_apply_to_match_per_coefficient_products(data):
    # rmul and the oracle apply_to, coefficient by coefficient against
    # sympy: zero polynomial, degree 0, zero and sparse rows, zero blocks,
    # and dense, diagonal or singular right factors
    space = enumerate_basis(data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2)))
    N = space.N
    blocks = [data.draw(raw_matrix(N, N)) for _ in range(data.draw(st.integers(0, 3)))]
    p = OpPoly.from_mats([RatMatrix(b) for b in blocks], space)
    m = data.draw(raw_matrix(N, N, diagonal=data.draw(st.booleans())))
    q = data.draw(st.lists(mixed, min_size=N, max_size=N))
    got_r, got_q = p.rmul(RatMatrix(m)), apply_to(p, tuple(q))
    want_r = [sym(b) * sym(m) for b in blocks]
    want_q = [sym(b) * sym([q]).T for b in blocks]
    assert_layout(got_r, sum((c * X**i for i, c in enumerate(want_r)), sympy.zeros(N, N)))
    assert_layout(got_q, sum((c * X**i for i, c in enumerate(want_q)), sympy.zeros(N, 1)))
    for i in range(len(blocks) + 1):
        zero_r, zero_q = sympy.zeros(N, N), sympy.zeros(N, 1)
        assert to_sympy(got_r.mat_at(i)) == (want_r[i] if i < len(blocks) else zero_r)
        assert to_sympy(got_q.mat_at(i)) == (want_q[i] if i < len(blocks) else zero_q)
    with pytest.raises(ValueError):
        p.rmul(RatMatrix.zeros(N, N + 1))


def _right_operand(kind: str, N: int, rng: random.Random) -> RatMatrix:
    """A diagonal, sparse (about one entry in five) or dense N x N matrix.

    Every nonzero entry has a multiple of 7 for its denominator, so the
    operand's denominator differs from that of a random_op_poly with
    max_den <= 6.
    """
    def entry():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.choice([7, 14, 21]))

    if kind == "diagonal":
        return RatMatrix.diagonal([entry() for _ in range(N)])
    keep = {"sparse": 0.2, "dense": 1.0}[kind]
    return RatMatrix([[entry() if rng.random() < keep else 0 for _ in range(N)]
                      for _ in range(N)])


@pytest.mark.parametrize("operand", ["diagonal", "sparse", "dense"])
@pytest.mark.parametrize("deg", [-1, 0, 7])
def test_rmul_matches_sympy(deg, operand):
    # p(x) M against sympy: the zero polynomial, a constant and degree 7 at
    # N = 6 and 8, with M over a denominator unequal to p's
    for d, n in ((2, 2), (2, 3)):
        space = enumerate_basis(d, n)
        N = space.N
        rng = random.Random(f"rmul {deg} {operand} {N}")
        p = OpPoly.zero(space) if deg < 0 else random_op_poly(rng, space, deg, max_den=5)
        M = _right_operand(operand, N, rng)
        assert deg < 0 or M.den != p.mat.den
        assert_layout(p.rmul(M), sym_poly(p) * to_sympy(M))


@pytest.mark.parametrize("deg", [-1, 0, 3, 7])
def test_rmul_makes_one_product(monkeypatch, space, deg):
    # one RatMatrix @ of the stacked blocks per call, and none at all for
    # the zero polynomial, which comes back as it is
    rng = random.Random(deg)
    p = OpPoly.zero(space) if deg < 0 else random_op_poly(rng, space, deg)
    M = random_matrix(rng, space.N)
    want = OpPoly.from_mats([c @ M for c in p.coeffs], space)
    calls = []
    matmul = RatMatrix.__matmul__

    def counting(a, b):
        calls.append((a.shape, b.shape))
        return matmul(a, b)

    monkeypatch.setattr(RatMatrix, "__matmul__", counting)
    got = p.rmul(M)
    monkeypatch.undo()
    assert got == want
    N = space.N
    assert calls == ([] if deg < 0 else [((N * (deg + 1), N), (N, N))])
    if deg < 0:
        assert got is p


def test_apply_A_treats_a_zero_term_as_absent():
    space = enumerate_basis(2, 1)  # N = 4
    D1 = RatMatrix.diagonal([Rat(1, 2), Rat(-1, 3), 2, 0])
    D2 = RatMatrix([[0, Rat(1, 5), 0, 1], [0] * 4, [Rat(2, 7), 1, 0, 0], [0, 0, 3, 0]])
    M = RatMatrix([[Rat(1, 3), 2, 0, 0], [0] * 4, [0, Rat(-1, 2), 1, 0], [1, 0, 0, 1]])
    Z = RatMatrix.zeros(4)
    for kind, m in ((OpPoly, M), (VectorPoly, RatMatrix([[Rat(1, 3)], [0], [0], [2]]))):
        zero = kind.zero(space)
        out = apply_A(3, D1, D2, zero)
        assert out.is_zero and (out.mat.num, out.mat.den) == (((),) * 4, 1)
        z = RatMatrix.zeros(*m.shape)
        for blocks in ([z, z, m], [m, z, z], [z, m], [m]):
            r = kind.from_mats(blocks, space)
            assert apply_A(3, D1, D2, r) == _ring_factor(3, D1, D2, r)
            assert apply_A(3, D1, Z, r) == _ring_factor(3, D1, Z, r)
    # with D1 + 2j + K zero, the top output block vanishes and is trimmed
    r = OpPoly.from_mats([M, Z, M], space)
    minus = RatMatrix.diagonal([-4] * 4)
    out = apply_A(1, minus, D2, r)
    assert out.degree == 2 and out == _ring_factor(1, minus, D2, r)
    assert apply_A(2, minus, D2, op_constant(M, space)) == op_constant(D2 @ M, space)
    out = apply_A(2, minus, Z, op_constant(M, space))
    assert out.is_zero and (out.mat.num, out.mat.den) == (((),) * 4, 1)


def test_apply_A_needs_a_diagonal_D1_and_matching_sizes():
    space = enumerate_basis(2, 1)  # N = 4
    I = RatMatrix.identity(4)
    upper = RatMatrix([[1 if c in (r, r + 1) else 0 for c in range(4)] for r in range(4)])
    with pytest.raises(ValueError, match="diagonal D1"):
        apply_A(1, upper, I, OpPoly.identity(space))
    with pytest.raises(ValueError, match="D2 of size 4"):
        apply_A(1, I, RatMatrix.identity(3), OpPoly.identity(space))


def test_build_Pk_low_degrees():
    rng = random.Random(9)
    spec = random_problem_spec(rng, 2, 2, max_den=3)
    sp = spec.space
    D1 = build_D(spec, 1)
    D2 = build_D(spec, 2)
    assert build_Pk(spec, 0) == OpPoly.identity(sp)
    assert build_Pk(spec, 1) == OpPoly((D2, D1.plus_scalar(2)), sp)
    with pytest.raises(ValueError):
        build_Pk(spec, -1)


def test_build_Pk_legendre_values():
    # a = b = 0, n = 1: members are 2^k k! Legendre, so P_2 = 12x^2 - 4
    spec = scalar_spec(0, 0, 1)
    P2 = build_Pk(spec, 2)
    assert P2.coeffs == (
        RatMatrix([[-4]]),
        RatMatrix([[0]]),
        RatMatrix([[12]]),
    )
    P3 = build_Pk(spec, 3)
    # 2^3 3! Leg_3 = 48 (5x^3 - 3x)/2 = 120x^3 - 72x
    assert P3.coeffs == (
        RatMatrix([[0]]),
        RatMatrix([[-72]]),
        RatMatrix([[0]]),
        RatMatrix([[120]]),
    )


def test_build_Pk_leading_is_dominant_product():
    rng = random.Random(10)
    for d, n in [(2, 2), (3, 1), (1, 3)]:
        spec = random_problem_spec(rng, d, n, max_den=3)
        D1 = build_D(spec, 1)
        for k in range(5):
            P = build_Pk(spec, k)
            assert P.degree == k
            assert P.coeff_at(k) == dominant_coefficient(D1, k)


def test_build_Pk_diagonal_channels_match_leibniz_closed_form():
    rng = random.Random(11)
    spec = random_problem_spec(rng, 2, 2, max_den=3, commutative=True)
    sp = spec.space
    a = spec.A.diag
    b = spec.B.diag
    for k in range(5):
        P = build_Pk(spec, k)
        for pos, bi in enumerate(sp.basis):
            p_exp = sum(mi * ai for mi, ai in zip(bi.m, a)) - a[bi.j - 1]
            q_exp = sum(mi * bbi for mi, bbi in zip(bi.m, b)) - b[bi.j - 1]
            channel = trim([P.coeff_at(i).rows[pos][pos] for i in range(k + 1)])
            assert channel == leibniz_scalar_member(p_exp, q_exp, k)
            for i in range(k + 1):
                row = P.coeff_at(i).rows[pos]
                assert all(not e for c, e in enumerate(row) if c != pos)


def test_build_Pk_is_cached():
    spec = scalar_spec(0, 0, 1)
    assert build_Pk(spec, 4) is build_Pk(spec, 4)


@pytest.mark.parametrize("method", ["scale"])
@pytest.mark.parametrize("kind", ["op", "vector"])
def test_polynomials_refuse_floats(space, method, kind):
    p = OpPoly.identity(space) if kind == "op" else VectorPoly(((1,) * space.N,), space)
    with pytest.raises(TypeError, match="float"):
        getattr(p, method)(0.5)
    assert getattr(p, method)(Fraction(1, 2)) == getattr(p, method)("1/2")


def test_vector_poly_refuses_float_entries(space):
    with pytest.raises(TypeError, match="float"):
        VectorPoly([(0.5,) + (0,) * (space.N - 1)], space)
