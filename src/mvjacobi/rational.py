"""Exact rational scalar at the boundary of the algebraic core.

Rat is fractions.Fraction: always in lowest terms with positive
denominator, interoperable with ints, and read and written as an ASCII
"p/q" (or bare "p") string, with one grammar, parse_rational, for problem
files and rat() alike.  RatMatrix and VectorPoly take and hand it back.
Matrix and coefficient-vector arithmetic runs on integer numerators
over one common denominator (see ratmat.py); scalars stay Fractions.

Floats never enter here; the numeric layer converts explicitly.
"""

from __future__ import annotations

import re
from fractions import Fraction as Rat

ZERO = Rat(0)
ONE = Rat(1)


def rat(value) -> Rat:
    """Coerce an int, Fraction, Rat or parse_rational string to Rat."""
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        raise TypeError(f"refusing to coerce float {value!r} to an exact rational")
    return Rat(value)


# ASCII digits only: int() alone would also take "1_000", " 1 " around the
# slash, other scripts' digits and a signed denominator
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Rat:
    """Parse a "p/q" or "p" string, rejecting malformed or zero-denominator input."""
    if not isinstance(text, str):
        # bool is an int subclass, but JSON true/false is no number
        if isinstance(text, int) and not isinstance(text, bool):
            return Rat(text)
        raise ValueError(f"expected a rational string, got {type(text).__name__}")
    m = _RATIONAL.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"malformed rational {text!r}")
    p, q = int(m[1]), int(m[2] or 1)
    if q == 0:
        raise ValueError(f"zero denominator in rational {text!r}")
    return Rat(p, q)


def format_rational(value) -> str:
    """Lowest-terms string form, "p/q" with q > 0, or bare "p" when q == 1."""
    return str(Rat(value))


def falling_factorial(a, r: int) -> Rat:
    """a(a-1)...(a-r+1) over the rationals; 1 for r == 0."""
    if r < 0:
        raise ValueError("falling factorial needs r >= 0")
    out = ONE
    a = Rat(a)
    for i in range(r):
        out *= a - i
    return out
