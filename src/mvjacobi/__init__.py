"""Exact matrix-valued Jacobi-type polynomial families.

Members P_k(x) are operator-valued polynomials on a space of
vector-valued homogeneous polynomials, built from the residue pair of a
two-singularity first-order system by a nested product of first-order
factors.  The package constructs them over exact rationals, provides
their recurrence, expansion, shifted-family and scalar-reduction
structure, and checks the weighted-integral statements numerically.

The numeric layer (ODE solver, weight, quadrature) lives in
mvjacobi.numeric and is imported from there; it is the only part that
needs numpy, so importing the package or running the exact commands
never loads it.
"""

from .errors import OdeError, QuadratureError, ResonanceError
from .operators import (
    ProblemSpec,
    build_D,
    describe_kernel,
    dominant_coefficient,
    induced_action_float,
)
from .oppoly import OpPoly, VectorPoly, apply_A, build_Pk
from .polyspace import BasisIndex, PolySpace, PolyVector, enumerate_basis, evaluate
from .ratmat import RatMatrix
from .rational import Rat, falling_factorial, format_rational, parse_rational, rat
from .reporting import CheckItem, CheckReport
from .structure import (
    Expansion,
    RecurrenceCoeffs,
    build_tilde_Pk,
    classical_jacobi,
    expand,
    reconstruct,
    recurrence_coeffs,
    tilde_spec,
    verify_derivative_relation,
    verify_product_identities,
    verify_recurrence,
    verify_scalar_eigen_identity,
    verify_scalar_reduction,
    verify_trace_legendre,
)

__version__ = "0.1.0"

__all__ = [
    "BasisIndex",
    "CheckItem",
    "CheckReport",
    "Expansion",
    "OdeError",
    "OpPoly",
    "PolySpace",
    "PolyVector",
    "ProblemSpec",
    "QuadratureError",
    "Rat",
    "RatMatrix",
    "RecurrenceCoeffs",
    "ResonanceError",
    "VectorPoly",
    "apply_A",
    "build_D",
    "build_Pk",
    "build_tilde_Pk",
    "classical_jacobi",
    "describe_kernel",
    "dominant_coefficient",
    "enumerate_basis",
    "evaluate",
    "expand",
    "falling_factorial",
    "format_rational",
    "induced_action_float",
    "parse_rational",
    "rat",
    "reconstruct",
    "recurrence_coeffs",
    "tilde_spec",
    "verify_derivative_relation",
    "verify_product_identities",
    "verify_recurrence",
    "verify_scalar_eigen_identity",
    "verify_scalar_reduction",
    "verify_trace_legendre",
]
