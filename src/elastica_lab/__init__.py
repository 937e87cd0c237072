"""Elastic curves in R^3 under the curvature-squared functional, as a
dynamical system in three interchangeable formulations: direct fourth-order
Euler-Lagrange integration, Frenet scalar reduction with conservation-law
reconstruction, and a constrained Hamiltonian flow."""

from .geometry import (
    ConservedSet,
    CurveTrace,
    FrenetFrame,
    JetState,
    PhaseState,
    vec3,
)

__all__ = [
    "ConservedSet",
    "CurveTrace",
    "FrenetFrame",
    "JetState",
    "PhaseState",
    "vec3",
]

__version__ = "0.1.0"
