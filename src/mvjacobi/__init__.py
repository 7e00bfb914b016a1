"""Exact matrix-valued Jacobi-type polynomial families.

Members P_k(x) are operator-valued polynomials on a space of
vector-valued homogeneous polynomials, built from the residue pair of a
two-singularity first-order system by a nested product of first-order
factors.  The package constructs them over exact rationals, provides
their recurrence, expansion, shifted-family and scalar-reduction
structure, and checks the weighted-integral statements numerically.
"""

from .errors import OdeError, QuadratureError, ResonanceError
from .numeric import (
    IntegrabilityReport,
    NumericReport,
    OdeConfig,
    QuadConfig,
    commutative_Y,
    commutative_exponents,
    de_integrate,
    fundamental_matrix,
    integrability_check,
    integral_interrelation_check,
    is_commutative,
    ode_vs_closed_form_report,
    quasi_orth_integral,
    weight,
)
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
    "IntegrabilityReport",
    "NumericReport",
    "OdeConfig",
    "OdeError",
    "OpPoly",
    "PolySpace",
    "PolyVector",
    "ProblemSpec",
    "QuadConfig",
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
    "commutative_Y",
    "commutative_exponents",
    "de_integrate",
    "describe_kernel",
    "dominant_coefficient",
    "enumerate_basis",
    "evaluate",
    "expand",
    "falling_factorial",
    "format_rational",
    "fundamental_matrix",
    "induced_action_float",
    "integrability_check",
    "integral_interrelation_check",
    "is_commutative",
    "ode_vs_closed_form_report",
    "parse_rational",
    "quasi_orth_integral",
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
    "weight",
]
