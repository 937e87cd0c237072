"""Length-constrained elastica: the curvature dynamics with multiplier lambda
and the quadrature relation tying its integration constants to the
free-elastica momenta.

Integrating the second-order equations once (the density has no explicit x
dependence) leaves a first-order problem in q = xdot with Lagrangian

    l(q, qdot) = |q x qdot|^2/|q|^5 + lambda |q| - <c, q>,

whose Euler-Lagrange equation in the Frenet frame (arclength, v = 1) reads

    (lambda - kappa^2) T - 2 kappa_dot N - 2 kappa tau B = c.

Its squared norm, with the conserved j = -4 kappa^2 tau, is the quadrature
relation

    4 kappa'^2 + (lambda - kappa^2)^2 + j^2/(4 kappa^2) = |c|^2,

which at lambda = 0 identifies |c| with |p| and j with <l, p>.  The free
elastica is therefore the lambda = 0, j = -4 kappa^2 tau case of
constrained_scalar_rhs and foltinek_invariant.  `require_regular` is the one
guard of the curvature floor kappa <= KAPPA_MIN with j != 0.
"""

import numpy as np

from .frenet import KAPPA_MIN


def require_regular(kappa, j):
    """Raise ValueError where |kappa| <= KAPPA_MIN with j != 0, over a
    scalar or an array kappa: there the twist j^2/(4 kappa^2) of the
    quadrature relation, the torsion -j/(4 kappa^2) and the curvature
    equation are singular.  The one guard of the curvature floor."""
    if j != 0.0 and np.any(np.abs(kappa) <= KAPPA_MIN):
        raise ValueError(f"kappa <= {KAPPA_MIN} with j = {j}: singular at the curvature floor")


def quadrature_residual(kappa, kappa_dot, lam, c_sq, j):
    """4 kappa'^2 + (lambda - kappa^2)^2 + j^2/(4 max(|kappa|, KAPPA_MIN)^2) - |c|^2
    from c_sq = |c|^2, over arrays of kappa and kappa'; the floor lets an audit
    report a large value at kappa = 0 with j != 0 instead of raising."""
    twist = j**2 / (4.0 * np.maximum(np.abs(kappa), KAPPA_MIN) ** 2)
    return 4.0 * kappa_dot**2 + (lam - kappa**2) ** 2 + twist - c_sq


def foltinek_invariant(kappa, kappa_prime, tau, lam, c_norm, j):
    """Residual of 4 kappa'^2 + (lambda - kappa^2)^2 + j^2/(4 kappa^2) = c^2.

    Broadcasts over arrays of kappa and kappa'.  The j^2/(4 kappa^2) term is
    absent when j = 0, so only j != 0 makes kappa = 0 singular; there it
    raises instead of flooring kappa.

    `tau` is accepted and not read: along a solution tau = -j/(4 kappa^2)
    is fixed by kappa and j.  The argument stays because callers pass the
    six values positionally.
    """
    kappa = np.asarray(kappa, dtype=float)
    require_regular(kappa, j)
    return quadrature_residual(kappa, kappa_prime, lam, c_norm**2, j)


def angular_momentum_j(kappa, tau):
    """Conserved angular momentum of the reduced problem: j = -4 kappa^2 tau."""
    return -4.0 * kappa**2 * tau


def constrained_scalar_rhs(kappa, kappa_dot, lam, j):
    """Curvature dynamics under the length constraint:

    2 kappa_ddot + kappa^3 - 2 kappa tau^2 = lambda kappa,  tau = -j/(4 kappa^2),

    returned in first-order form (kappa_dot, kappa_ddot).
    """
    if j == 0.0:
        return kappa_dot, 0.5 * lam * kappa - 0.5 * kappa**3
    require_regular(kappa, j)
    return (
        kappa_dot,
        0.5 * lam * kappa - 0.5 * kappa**3 + j**2 / (16.0 * kappa**3),
    )
