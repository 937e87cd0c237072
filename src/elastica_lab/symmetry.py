"""Noether charges of configuration vector fields, and the off-shell Noether
identity.

The elastica is a second-order variational problem, so the charge of a field
X = tau(t) d/dt + xi(x) d/dx is the contraction of its first prolongation
with the Cartan form

    Theta = L dt + p_x (dx - xdot dt) + p_xdot (dxdot - xddot dt),

which reads only tau, tau_dot, xi and xi_dot: a generator supplies tau with
its first derivative.  The spatial part is stored as its affine coefficients,
xi = shift + jac x (translations, rotations, and combinations — everything
used here), so xi_dot = jac xdot exactly.

`charge` evaluates the Noether charge over stacked (..., 3) jets; the
single-point `noether_charge` and the trace identity both call it.
"""

import numpy as np

from .geometry import dot, vec3
from .lagrangian import central_el_residual, density, lagrangian_density, momenta, ostrogradski_momenta, speed

_SPOT_POINTS = 5
_SPOT_RTOL = 1e-6
_FD_H = 1e-6


def _no_tau(t):
    return 0.0, 0.0


class SymmetryField:
    """Infinitesimal transformation X = tau(t) d/dt + (shift + jac x) d/dx.

    tau:   callable t -> (tau, tau_dot)
    shift: 3-vector,  jac: 3x3 array.

    tau_dot is spot checked against a central difference of tau at
    construction; the affine spatial part is exact as stored.
    """

    def __init__(self, tau, shift, jac):
        self.tau = tau
        self.shift = vec3(shift)
        self.jac = np.array(jac, dtype=float)
        if self.jac.shape != (3, 3) or not np.all(np.isfinite(self.jac)):
            raise ValueError("jac must be a finite 3x3 array")
        self._validate()

    def _validate(self):
        rng = np.random.default_rng(20240331)
        for t in rng.uniform(-2.0, 2.0, size=_SPOT_POINTS):
            values = self.tau(t)
            try:
                tau, tau_dot = map(float, values)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"tau must return the pair (tau, tau_dot), got {values!r}") from exc
            fd = (self.tau(t + _FD_H)[0] - self.tau(t - _FD_H)[0]) / (2 * _FD_H)
            if not abs(tau_dot - fd) <= _SPOT_RTOL * max(1.0, abs(tau), abs(tau_dot), abs(fd)):
                raise ValueError(f"tau_dot disagrees with a finite difference of tau at t={t}")

    # Convenience constructors for the fields the theory actually uses.
    @staticmethod
    def translation(direction):
        return SymmetryField(_no_tau, direction, np.zeros((3, 3)))

    @staticmethod
    def rotation(axis):
        a = vec3(axis)
        jac = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
        return SymmetryField(_no_tau, np.zeros(3), jac)

    @staticmethod
    def time_translation():
        return SymmetryField.reparametrization(lambda t: (1.0, 0.0))

    @staticmethod
    def reparametrization(tau):
        """X = tau(t) d/dt for a caller-supplied t -> (tau, tau_dot)."""
        return SymmetryField(tau, np.zeros(3), np.zeros((3, 3)))


def charge(X, t, x, xdot, xddot, xdddot):
    """Noether charge of X at stacked jets, shape (...), from parameters t of
    shape (...) and (..., 3) arrays:

    J = L tau + <p_x, xi - tau xdot> + <p_xdot, d/dt(xi - tau xdot)>.
    """
    tau, tau_dot = (np.asarray(v, dtype=float)[..., None] for v in X.tau(t))
    p_x, p_xdot = momenta(xdot, xddot, xdddot)
    slot = X.shift + x @ X.jac.T - tau * xdot
    slot_dot = xdot @ X.jac.T - tau_dot * xdot - tau * xddot
    return density(xdot, xddot) * tau[..., 0] + dot(p_x, slot) + dot(p_xdot, slot_dot)


def noether_charge(X, j):
    """The charge of X at one jet; raises ValueError at xdot = 0."""
    speed(j)
    return float(charge(X, j.t, j.x, j.xdot, j.xddot, j.xdddot))


def cartan_contraction(X, j):
    """Contraction of the first prolongation of X with the Cartan one-form,

    Theta = L dt + p_x (dx - xdot dt) + p_xdot (dxdot - xddot dt),

    evaluated slot by slot at one jet: the dx slot of the prolongation is
    xi, the dxdot slot xi_dot - tau_dot xdot.  Must agree with
    noether_charge to rounding.
    """
    tau, tau_dot = X.tau(j.t)
    p_x, p_xdot = ostrogradski_momenta(j)
    theta1 = X.shift + X.jac @ j.x - j.xdot * tau
    theta2 = X.jac @ j.xdot - j.xdot * tau_dot - j.xddot * tau
    return lagrangian_density(j) * tau + dot(p_x, theta1) + dot(p_xdot, theta2)


def noether_identity_residual(X, trace, index):
    """Off-shell Noether identity residual at an interior sample:

    d/dt J_X + <EL residual, xi - tau xdot>,

    which vanishes (to differencing error) on any smooth trace, solution or
    not.  Both derivatives are second-order central differences.
    """
    if index < 1 or index > len(trace) - 2:
        raise IndexError(f"index {index} leaves no room for a centered stencil")
    rows = slice(index - 1, index + 2)
    p_x, _ = momenta(trace.xdot[rows], trace.xddot[rows], trace.xdddot[rows])
    el = central_el_residual(p_x, trace.step)[0]
    t = trace.t0 + trace.step * np.arange(index - 1, index + 2)
    J = charge(X, t, trace.x[rows], trace.xdot[rows], trace.xddot[rows], trace.xdddot[rows])
    slot = X.shift + X.jac @ trace.x[index] - X.tau(t[1])[0] * trace.xdot[index]
    return (J[2] - J[0]) / (2.0 * trace.step) + dot(el, slot)
