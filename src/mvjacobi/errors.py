"""Exceptions shared across the exact and numeric layers."""

from __future__ import annotations

from typing import Sequence


class ResonanceError(ValueError):
    """An operator that the construction must invert is singular.

    Carries the name of the offending operator (e.g. "D1 + 2k + 1 at
    k = 3") and an exact kernel vector, so the caller can report which
    basis combination is annihilated.
    """

    def __init__(self, operator_name: str, kernel: Sequence, detail: str):
        self.operator_name = operator_name
        self.kernel = tuple(kernel)
        super().__init__(f"singular operator: {operator_name} ({detail})")


class QuadratureError(RuntimeError):
    """Numerical integration failed to converge to the requested tolerance."""

    def __init__(self, message: str, estimated_error: float):
        self.estimated_error = estimated_error
        super().__init__(message)


class OdeError(RuntimeError):
    """The fundamental-matrix integrator failed or left its validity domain."""
