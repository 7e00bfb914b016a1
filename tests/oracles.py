"""Reference computations used as independent oracles by the test suite.

Everything here is built from first principles (binomial sums, direct
monomial differentiation, explicit convolution) or on sympy, deliberately
sharing no code path with the library, so tests never compare the
library against itself.  The two exceptions say so:
`ode_vs_closed_form_report` compares the library's two independent
routes to the fundamental matrix, and `shifted_member_from_identity`
builds a shifted member by the route `build_tilde_Pk` no longer takes.  The polynomial helpers at the end,
which the library itself has no use for, read its matrices through
their Fraction `rows` and build their results with the public
constructors, never through RatMatrix's `@`.
"""

from __future__ import annotations

from math import comb, factorial
from typing import Sequence

import numpy as np
import sympy

from mvjacobi.numeric import NumericReport, _Y_at, commutative_Y
from mvjacobi.operators import ProblemSpec
from mvjacobi.oppoly import OpPoly, VectorPoly, build_Pk
from mvjacobi.polyspace import PolySpace
from mvjacobi.ratmat import RatMatrix
from mvjacobi.rational import ONE, Rat, ZERO, falling_factorial, rat
from mvjacobi.sampling import random_matrix
from mvjacobi.structure import tilde_spec

# Scalar polynomials are tuples of Rat coefficients, constant term first,
# with no trailing zeros; the zero polynomial is the empty tuple.  This is
# the same convention classical_jacobi uses, so == comparisons are direct.


def trim(coeffs) -> tuple:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_add(p, q) -> tuple:
    out = [ZERO] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return trim(out)


def poly_scale(c, p) -> tuple:
    c = Rat(c)
    return trim(c * e for e in p)


def poly_mul(p, q) -> tuple:
    if not p or not q:
        return ()
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def poly_pow(p, e: int) -> tuple:
    out = (ONE,)
    for _ in range(e):
        out = poly_mul(out, p)
    return out


def poly_eval(p, x):
    x = Rat(x)
    acc = ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def binom_rat(z, i: int) -> Rat:
    """Generalized binomial coefficient for rational (or integer) top."""
    return falling_factorial(z, i) / factorial(i)


def leibniz_scalar_member(p, q, k: int) -> tuple:
    """Closed form for one diagonal channel of a degree-k family member.

    With both residues diagonal, the channel with exponent p at the right
    endpoint and q at the left one carries the scalar polynomial

        sum_{i=0}^{k} C(k,i) ff(p+k, i) ff(q+k, k-i) (x-1)^{k-i} (x+1)^{i},

    obtained by expanding the k-fold derivative of (x-1)^{p+k} (x+1)^{q+k}
    with the product rule and dividing by (x-1)^p (x+1)^q.
    """
    p = Rat(p)
    q = Rat(q)
    xm1 = (Rat(-1), ONE)
    xp1 = (ONE, ONE)
    acc: tuple = ()
    for i in range(k + 1):
        c = comb(k, i) * falling_factorial(p + k, i) * falling_factorial(q + k, k - i)
        term = poly_mul(poly_pow(xm1, k - i), poly_pow(xp1, i))
        acc = poly_add(acc, poly_scale(c, term))
    return acc


def jacobi_binomial_sum(k: int, alpha, beta) -> tuple:
    """Classical Jacobi polynomial from the finite binomial double sum.

    P_k(x) = sum_s C(k+alpha, k-s) C(k+beta, s) ((x-1)/2)^s ((x+1)/2)^{k-s};
    independent of any recurrence.
    """
    half_m = (Rat(-1, 2), Rat(1, 2))
    half_p = (Rat(1, 2), Rat(1, 2))
    acc: tuple = ()
    for s in range(k + 1):
        c = binom_rat(Rat(k) + Rat(alpha), k - s) * binom_rat(Rat(k) + Rat(beta), s)
        term = poly_mul(poly_pow(half_m, s), poly_pow(half_p, k - s))
        acc = poly_add(acc, poly_scale(c, term))
    return acc


def jacobi_rodrigues(k: int, alpha, beta) -> tuple:
    """Classical Jacobi polynomial from the Rodrigues formula, differentiated by sympy.

    P_k = (-1)^k / (2^k k!) (1-x)^-alpha (1+x)^-beta d^k/dx^k [(1-x)^(alpha+k) (1+x)^(beta+k)];
    it shares no sum with the library and no recurrence, so it also serves the
    alpha + beta where the three-term recurrence divides by zero (sympy's
    jacobi_poly raises ZeroDivisionError there).
    """
    x = sympy.symbols("x")
    a, b = _sympy_rat(alpha), _sympy_rat(beta)
    rodrigues = sympy.diff((1 - x) ** (a + k) * (1 + x) ** (b + k), x, k)
    # expand merges fractional powers of one base; cancel clears integer ones
    p = sympy.cancel(sympy.expand((-1) ** k * rodrigues * (1 - x) ** -a * (1 + x) ** -b
                                  / (2 ** k * factorial(k))))
    return trim(Rat(int(c.p), int(c.q)) for c in reversed(sympy.Poly(p, x).all_coeffs()))


def monomial_eval(m, w) -> Rat:
    acc = ONE
    for e, wi in zip(m, w):
        acc *= Rat(wi) ** e
    return acc


def evaluate(space: PolySpace, q: Sequence, w: Sequence) -> tuple:
    """Evaluate the polynomial with coefficients q at the point w, exactly.

    Returns a length-d tuple of rationals.
    """
    if len(q) != space.N:
        raise ValueError(f"coefficient vector has length {len(q)}, expected {space.N}")
    if len(w) != space.d:
        raise ValueError(f"point has length {len(w)}, expected {space.d}")
    out = [ZERO] * space.d
    for coeff, b in zip(q, space.basis):
        if not coeff:
            continue
        mono = coeff
        for wi, mi in zip(w, b.m):
            if mi:
                mono = mono * wi**mi
        out[b.j - 1] += mono
    return tuple(out)


def derivation_oracle(space: PolySpace, M_rows, coords, w) -> tuple:
    """Evaluate (grad q . (M w) - M q(w)) at a rational point w.

    This is the pointwise form of the coefficient-space operator induced
    by the residue matrix M, computed by direct monomial differentiation.
    """
    d = space.d
    Mw = [sum((Rat(M_rows[s][t]) * Rat(w[t]) for t in range(d)), ZERO) for s in range(d)]
    out = [ZERO] * d
    for b, c in zip(space.basis, coords):
        if not c:
            continue
        for s in range(d):
            if b.m[s]:
                mono = Rat(b.m[s])
                for t in range(d):
                    e = b.m[t] - (1 if t == s else 0)
                    mono *= Rat(w[t]) ** e
                out[b.j - 1] += c * mono * Mw[s]
        full = monomial_eval(b.m, w)
        for r in range(d):
            out[r] -= c * full * Rat(M_rows[r][b.j - 1])
    return tuple(out)


def derivation_sympy(space: PolySpace, M) -> sympy.Matrix:
    """Exact sympy matrix of q |-> (grad q)(M w) - M q on the monomial basis.

    Each basis element w^m e_j is written as a sympy vector of
    polynomials, the derivation is applied symbolically, and the
    coefficients of the image are read off against the basis.
    """
    d = space.d
    Ms = to_sympy(M)
    w = sympy.Matrix(sympy.symbols(f"w1:{d + 1}"))
    out = sympy.zeros(space.N, space.N)
    for c, b in enumerate(space.basis):
        mono = sympy.Mul(*[wi ** mi for wi, mi in zip(w, b.m)])
        q = sympy.Matrix([mono if r == b.j - 1 else 0 for r in range(d)])
        image = q.jacobian(w) * (Ms * w) - Ms * q
        for r in range(d):
            for mm, coeff in sympy.Poly(sympy.expand(image[r]), *w).as_dict().items():
                out[space.index_of(mm, r + 1), c] = coeff
    return out


def derivation_matrix(space: PolySpace, M) -> RatMatrix:
    """derivation_sympy as a RatMatrix."""
    Ds = derivation_sympy(space, M)
    return RatMatrix([[Rat(int(e.p), int(e.q)) for e in Ds.row(r)] for r in range(space.N)])


def recurrence_oracle(space: PolySpace, M1, M2, k: int) -> tuple:
    """alpha_k, beta_k, gamma_k as sympy matrices, solved by sympy.

    For k >= 1 the x^2, x and constant coefficients of the quadratic
    operator identity give, solved in this order,
        (D1 + 2k + 1)(D1 + 2k + 2) alpha = D1 + k + 1,
        ((4k + 2) D2 + D1 D2 + D2 D1) alpha + (D1 + 2k) beta = D2,
        (D2^2 - D1 - 2k - 2) alpha + D2 beta + gamma = (k - 1) I.
    At k = 0, matching x P_0 = P_1 alpha_0 + P_0 beta_0 with
    P_1 = x (D1 + 2) + D2 gives (D1 + 2) alpha_0 = I,
    D2 alpha_0 + beta_0 = 0, and gamma_0 = 0.
    """
    D1, D2 = derivation_sympy(space, M1), derivation_sympy(space, M2)
    I = sympy.eye(space.N)
    if k == 0:
        alpha = (D1 + 2 * I).solve(I)
        return alpha, -D2 * alpha, sympy.zeros(space.N, space.N)
    alpha = ((D1 + (2 * k + 1) * I) * (D1 + (2 * k + 2) * I)).solve(D1 + (k + 1) * I)
    mid = (4 * k + 2) * D2 + D1 * D2 + D2 * D1
    beta = (D1 + 2 * k * I).solve(D2 - mid * alpha)
    gamma = (k - 1) * I - (D2 * D2 - D1 - (2 * k + 2) * I) * alpha - D2 * beta
    return alpha, beta, gamma


def seeded_member_sympy(D1: sympy.Matrix, D2: sympy.Matrix, j: int, q, x) -> sympy.Matrix:
    """P_j(x) q as a column of polynomials in the sympy symbol x.

    The factors A_i r = x (2i + D1) r + D2 r + (x^2 - 1) dr/dx are
    applied to the constant column q for i = j, j - 1, ..., 1.
    """
    r = to_sympy([q]).T
    I = sympy.eye(D1.rows)
    for i in range(j, 0, -1):
        r = (x * (D1 + 2 * i * I) * r + D2 * r + (x ** 2 - 1) * r.diff(x)).expand()
    return r


def commutative_weight_entry(a_diag, b_diag, m, j: int, x: float) -> float:
    """One diagonal entry of the induced weight for diagonal residues."""
    p = sum(mi * float(ai) for mi, ai in zip(m, a_diag)) - float(a_diag[j - 1])
    q = sum(mi * float(bi) for mi, bi in zip(m, b_diag)) - float(b_diag[j - 1])
    return (1.0 - x) ** p * (1.0 + x) ** q


def ode_vs_closed_form_report(spec: ProblemSpec, rel_tol: float = 1e-10,
                              points: int = 20) -> NumericReport:
    """Max deviation of the ODE fundamental matrix from the closed form.

    Both are the identity at 0, so they are compared directly.  The sweep
    has no tolerance of its own: rel_tol only sets the bound 10 * rel_tol.
    """
    xs = np.linspace(-0.95, 0.95, points)
    got = _Y_at(spec, xs)
    want = np.stack([commutative_Y(spec, x) for x in xs.tolist()])
    worst = float(np.max(np.abs(got - want)))
    tol = 10.0 * rel_tol
    return NumericReport(
        quantity=f"ODE vs closed-form fundamental matrix at {points} points",
        max_abs_entry=worst,
        estimated_quadrature_error=0.0,
        tolerance=tol,
        passed=worst <= tol,
    )


def shifted_member_from_identity(spec: ProblemSpec, k: int) -> OpPoly:
    """Degree-k shifted member as the shifted problem's whole product A~_1...A~_k I.

    build_tilde_Pk applies one shifted factor to the base member P_{k-1}
    instead; this is its former construction, the library's build_Pk on
    tilde_spec, so it checks that shortcut and not the factors.
    """
    return build_Pk(tilde_spec(spec), k)


def to_sympy(M) -> sympy.Matrix:
    """Exact sympy copy of a RatMatrix (or any rows of rationals)."""
    rows = M.rows if isinstance(M, RatMatrix) else M
    return sympy.Matrix([[sympy.Rational(int(Rat(e).numerator), int(Rat(e).denominator))
                          for e in row] for row in rows])


def induced_action(Y: RatMatrix, space: PolySpace) -> RatMatrix:
    """Exact matrix of q |-> Y^{-1} q(Y w) on the monomial basis.

    Raises ValueError for a wrongly shaped or singular Y.
    """
    if Y.shape != (space.d, space.d):
        raise ValueError(f"Y has shape {Y.shape}, expected ({space.d}, {space.d})")
    W = induced_action_sympy(to_sympy(Y), space)
    return RatMatrix([[Rat(int(e.p), int(e.q)) for e in W.row(r)] for r in range(space.N)])


def induced_action_sympy(Y: sympy.Matrix, space: PolySpace) -> sympy.Matrix:
    """induced_action for a sympy Y, whose entries may hold symbols.

    The basis element w^m e_j maps to prod_s (Y w)_s^{m_s} times column j
    of Y^{-1}; sympy expands the product and inverts Y.
    """
    Yinv = Y.inv()  # sympy raises a ValueError subclass when Y is singular
    w = sympy.symbols(f"w1:{space.d + 1}")
    Yw = Y * sympy.Matrix(w)
    W = sympy.zeros(space.N, space.N)
    for c, b in enumerate(space.basis):
        image = sympy.Integer(1)
        for s, ms in enumerate(b.m):
            image *= Yw[s] ** ms
        for mm, coeff in sympy.Poly(sympy.expand(image), *w).as_dict().items():
            for r in range(space.d):
                W[space.index_of(mm, r + 1), c] += coeff * Yinv[r, b.j - 1]
    return W


def action_derivative(spec: ProblemSpec, i: int) -> sympy.Matrix:
    """The derivative of the induced action at I in the direction M_i.

    The epsilon-coefficient of induced_action(I + epsilon M_i), with
    epsilon a sympy symbol and M_1 = A + B, M_2 = A - B: the matrix that
    build_D(spec, i) must equal.
    """
    eps = sympy.Symbol("epsilon")
    M = to_sympy(spec.A) + (1 if i == 1 else -1) * to_sympy(spec.B)
    rho = induced_action_sympy(sympy.eye(spec.d) + eps * M, spec.space)
    return rho.diff(eps).subs(eps, 0)


def _sympy_rat(c) -> sympy.Rational:
    c = Rat(c)
    return sympy.Rational(int(c.numerator), int(c.denominator))


def jacobi_integral_sympy(p, a: int, b: int) -> sympy.Rational:
    """int_{-1}^{1} p(x) (1-x)^a (1+x)^b dx by sympy.integrate, integer a, b >= 0.

    Only for integer exponents: sympy needs minutes on fractional ones.
    """
    x = sympy.symbols("x")
    poly = sum((_sympy_rat(c) * x ** i for i, c in enumerate(p)), sympy.Integer(0))
    return sympy.integrate(poly * (1 - x) ** a * (1 + x) ** b, (x, -1, 1))


def jacobi_integral_beta(p, a, b) -> sympy.Expr:
    """int_{-1}^{1} p(x) (1-x)^a (1+x)^b dx in closed form, rational a, b > -1.

    With x = 2t - 1 the weight becomes 2^{a+b+1} t^b (1-t)^a dt, and
    x^m = sum_l C(m, l) (2t)^l (-1)^{m-l}, so each monomial is a sum of
    Beta functions B(b+l+1, a+1) = Gamma(b+l+1) Gamma(a+1) / Gamma(a+b+l+2).
    """
    a, b = _sympy_rat(a), _sympy_rat(b)
    total = sympy.Integer(0)
    for m, c in enumerate(p):
        for l in range(m + 1):
            beta = sympy.gamma(b + l + 1) * sympy.gamma(a + 1) / sympy.gamma(a + b + l + 2)
            total += _sympy_rat(c) * comb(m, l) * 2 ** l * (-1) ** (m - l) * beta
    return 2 ** (a + b + 1) * total


# -- polynomial helpers the library does not need ------------------------------


def matvec(M: RatMatrix, vec: Sequence) -> tuple:
    """M times the vector vec as a tuple of Rat, from M's Fraction rows."""
    if len(vec) != M.ncols:
        raise ValueError(f"vector length {len(vec)} != {M.ncols} columns")
    vec = [rat(e) for e in vec]
    return tuple(sum((a * b for a, b in zip(row, vec)), ZERO) for row in M.rows)


def op_constant(M: RatMatrix, space: PolySpace) -> OpPoly:
    """The constant operator polynomial M."""
    return OpPoly((M,), space)


def leading(p):
    """The coefficient of x^deg p (of x^0 for the zero polynomial), in p's public form."""
    return p.coeff_at(max(p.degree, 0))


def poly_value(p, x):
    """p(x) by Horner's rule on each Fraction row of p.mat.

    An N x N RatMatrix for an OpPoly, a length-N tuple of Fractions for a
    VectorPoly; floats are refused, as everywhere in the library.
    """
    x = rat(x)
    op = isinstance(p, OpPoly)
    w = p.space.N if op else 1
    rows = []
    for row in p.mat.rows:
        acc = [ZERO] * w
        for i in range(p.degree, -1, -1):
            acc = [a * x + e for a, e in zip(acc, row[i * w:i * w + w])]
        rows.append(acc)
    return RatMatrix(rows) if op else tuple(acc[0] for acc in rows)


def apply_to(p: OpPoly, q: Sequence) -> VectorPoly:
    """p(x) q for a constant vector q: each coefficient times q, from the Fraction rows."""
    N = p.space.N
    if len(q) != N:
        raise ValueError(f"vector length {len(q)} != space dimension {N}")
    q = [rat(e) for e in q]
    rows = p.mat.rows
    return VectorPoly([tuple(sum((a * b for a, b in zip(row[i * N:i * N + N], q)), ZERO)
                             for row in rows) for i in range(p.degree + 1)], p.space)


def random_op_poly(rng, space: PolySpace, degree: int, max_den: int = 3) -> OpPoly:
    """Random operator polynomial of exactly the given degree."""
    coeffs = [random_matrix(rng, space.N, max_den) for _ in range(degree + 1)]
    if coeffs[-1].is_zero:
        coeffs[-1] = coeffs[-1].plus_scalar(1)
    return OpPoly(coeffs, space)
