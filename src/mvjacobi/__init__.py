"""Exact matrix-valued Jacobi-type polynomial families.

Members P_k(x) are operator-valued polynomials on a space of
vector-valued homogeneous polynomials, built from the residue pair of a
two-singularity first-order system by a nested product of first-order
factors.  The package constructs them over exact rationals, provides
their recurrence, expansion, shifted-family and scalar-reduction
structure, and checks its weighted-integral statements.

The package exports only the names the README documents, each listed
in _SOURCES with the submodule it is loaded from on first use, so
`import mvjacobi` loads no submodule.  Every other name is imported
from its own submodule: the verifiers and recurrence_coeffs from
mvjacobi.structure, random instances from mvjacobi.sampling, and so on.

The numeric layer (ODE solver, weight, quadrature) lives in
mvjacobi.numeric, the only part that needs numpy; mvjacobi.integrals
(quasi-orthogonality) loads it only for a noncommutative integral whose
exact moments E do not vanish, so the package import, the exact
commands, a passing claim and commutative quadrature never do.
"""

from importlib import import_module

__version__ = "0.1.0"

_SOURCES = {
    "ProblemSpec": "operators",
    "RatMatrix": "ratmat",
    "Rat": "rational",
    "OpPoly": "oppoly",
    "VectorPoly": "oppoly",
    "apply_A": "oppoly",
    "build_Pk": "oppoly",
    "build_tilde_Pk": "structure",
    "expand": "structure",
    "reconstruct": "structure",
    "ResonanceError": "errors",
}

__all__ = sorted(_SOURCES)


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SOURCES))
