"""Seeded random instances for property tests and benchmark inputs.

Everything takes an explicit random.Random so suites are reproducible
from a single seed.  Residue pairs are sampled so that A + B is exactly
diagonal (B = Lambda - A with Lambda diagonal), and callers can demand
that the diagonal derivation D1 avoid a range of integer shifts, which
is what the recurrence and expansion paths need to stay resonance-free.
"""

from __future__ import annotations

import random
from math import lcm
from typing import Iterable, Optional

from .operators import ProblemSpec, basis_exponents
from .oppoly import VectorPoly
from .polyspace import PolySpace, enumerate_basis
from .ratmat import RatMatrix
from .rational import Rat

# draws random_problem_spec makes before it gives up
_MAX_TRIES = 200


def _draw_pq(rng: random.Random, max_den: int, lo: int, hi: int) -> tuple:
    """One (p, q) draw: q <= max_den, then p with p/q in [lo, hi]."""
    q = rng.randint(1, max_den)
    return rng.randint(lo * q, hi * q), q


def random_rational(rng: random.Random, max_den: int = 3, lo: int = -1, hi: int = 1) -> Rat:
    """Uniform-ish rational p/q with q <= max_den and value in [lo, hi]."""
    return Rat(*_draw_pq(rng, max_den, lo, hi))


def random_matrix(rng: random.Random, d: int, max_den: int = 3,
                  lo: int = -1, hi: int = 1) -> RatMatrix:
    """d x d matrix of random_rational draws, in the same order, row by row.

    The (p, q) draws go straight into the integer core: over the lcm of
    the q, reduced once, which is the normal form the Fractions p/q
    would give.
    """
    draws = [_draw_pq(rng, max_den, lo, hi) for _ in range(d * d)]
    den = lcm(*(q for _, q in draws))
    flat = [p * (den // q) for p, q in draws]
    return RatMatrix._normal(tuple(tuple(flat[i:i + d]) for i in range(0, d * d, d)), den)


def random_diagonal(rng: random.Random, d: int, max_den: int = 3) -> RatMatrix:
    """Diagonal of d random_rational draws in [-1, 1], in random_matrix's order."""
    draws = [_draw_pq(rng, max_den, -1, 1) for _ in range(d)]
    den = lcm(*(q for _, q in draws))
    return RatMatrix._from_diagonal([p * (den // q) for p, q in draws], den)


def _hits_shift(lam: RatMatrix, d: int, n: int, shifts: Iterable[int]) -> bool:
    """Whether some basis exponent m.lam - lam_j equals -s for an s in shifts.

    basis_exponents runs on the diagonal lam's numerators, over lam.den.
    """
    bad = {-s * lam.den for s in shifts}
    return not bad.isdisjoint(basis_exponents(lam._dnum, enumerate_basis(d, n)))


def random_problem_spec(
    rng: random.Random,
    d: int,
    n: int,
    max_den: int = 3,
    commutative: bool = False,
    avoid_shifts: Optional[Iterable[int]] = range(2, 15),
) -> ProblemSpec:
    """Random residue pair with diagonal sum.

    avoid_shifts resamples until no diagonal entry of D1 equals -s for s
    in the given range, keeping D1 + s invertible there (D1 is diagonal
    because M1 is, so this is a complete test).  The default range keeps
    every operator the recurrence and expansion invert for k <= 6
    nonsingular.
    """
    shifts = tuple(avoid_shifts) if avoid_shifts is not None else ()
    for _ in range(_MAX_TRIES):
        lam = random_diagonal(rng, d, max_den)
        if commutative:
            A = random_diagonal(rng, d, max_den)
        else:
            A = random_matrix(rng, d, max_den)
        if _hits_shift(lam, d, n, shifts):
            continue
        return ProblemSpec(d, n, A, lam - A)
    raise RuntimeError(f"no resonance-free sample found in {_MAX_TRIES} tries")


def random_vector(rng: random.Random, N: int, max_den: int = 3) -> tuple:
    return tuple(random_rational(rng, max_den) for _ in range(N))


def random_vector_poly(rng: random.Random, space: PolySpace, degree: int,
                       max_den: int = 3) -> VectorPoly:
    """Random coefficient-vector polynomial of exactly the given degree."""
    coeffs = [random_vector(rng, space.N, max_den) for _ in range(degree + 1)]
    if not any(coeffs[-1]):
        coeffs[-1] = coeffs[-1][:-1] + (Rat(1),)
    return VectorPoly(coeffs, space)
