"""Elastic curves in R^3 under the curvature-squared functional, as a
dynamical system in three interchangeable formulations: direct fourth-order
Euler-Lagrange integration, Frenet scalar reduction with conservation-law
reconstruction, and a constrained Hamiltonian flow."""

__version__ = "0.1.0"
