"""Reduced scalar dynamics of curvature: the integration of the curvature
equation, free or length-constrained.

With c = kappa^2 tau (constant along solutions), the free elastica is the
lambda = 0, j = -4c case of closed.constrained_scalar_rhs,

    kappa_ddot = -kappa^3/2 + c^2/kappa^3,

and of closed.foltinek_invariant, whose free form states that
kappa_dot^2 + kappa^4/4 + c^2/kappa^2 = |p|^2/4.  For c = 0 the planar
branch integrates the signed-curvature equation straight through kappa = 0;
for c != 0 the first integral forbids kappa -> 0, so reaching the curvature
floor signals integrator failure.
"""

import numpy as np

from . import ode
from .closed import SingularTorsionError, constrained_scalar_rhs
from .frenet import KAPPA_MIN


def torsion_from_c(kappa, c):
    """tau = c / kappa^2, broadcast over kappa (0 when c = 0, even at kappa = 0)."""
    kappa = np.asarray(kappa, dtype=float)
    if c == 0.0:
        return np.zeros_like(kappa)
    if np.any(np.abs(kappa) <= KAPPA_MIN):
        raise SingularTorsionError(f"kappa <= {KAPPA_MIN} with c = {c}: torsion singular")
    return c / kappa**2


def constants_from_momenta(cs):
    """(c, energy_level) from the momenta: c = -<l,p>/4, level = |p|^2/4."""
    return -0.25 * float(np.dot(cs.l, cs.p)), 0.25 * float(np.dot(cs.p, cs.p))


def integrate_scalar(kappa0, kappa_dot0, c, step, count, lam=0.0):
    """RK4 on (kappa, kappa_dot) under the curvature equation with torsion
    constant c and multiplier lam (0 for the free elastica); returns
    (s, kappa, kappa_dot) arrays."""
    j = -4.0 * c

    def rhs(t, y):
        return np.array(constrained_scalar_rhs(y[0], y[1], lam, j))

    ts, ys = ode.integrate(rhs, np.array([kappa0, kappa_dot0]), step, count)
    return ts, ys[:, 0], ys[:, 1]
