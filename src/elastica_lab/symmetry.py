"""Prolongation of configuration vector fields, Noether charges, and the
off-shell Noether identity.

A field  X = tau(t) d/dt + xi(x) d/dx  prolongs to the third jet bundle with
coefficients built from total derivatives of tau and xi along the jet.  The
spatial part is stored as its affine coefficients, xi = shift + jac x
(translations, rotations, and combinations — everything used here), so those
total derivatives are exact:

    xi_dot   = jac xdot
    xi_ddot  = jac xddot
    xi_dddot = jac xdddot

`charge` evaluates the Noether charge over stacked (..., 3) jets; the
single-point `noether_charge` and the trace identity both call it.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import dot, vec3
from .lagrangian import density, el_residual, lagrangian_density, momenta, ostrogradski_momenta

_SPOT_POINTS = 5
_SPOT_RTOL = 1e-6
_FD_H = 1e-6


def _no_tau(t):
    return 0.0, 0.0, 0.0, 0.0


class SymmetryField:
    """Infinitesimal transformation X = tau(t) d/dt + (shift + jac x) d/dx.

    tau:   callable t -> (tau, tau_dot, tau_ddot, tau_dddot)
    shift: 3-vector,  jac: 3x3 array.

    The tau derivatives are finite-difference spot checked at construction;
    the affine spatial part is exact as stored.
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
            ahead, behind = self.tau(t + _FD_H), self.tau(t - _FD_H)
            scale = max(1.0, *(abs(float(v)) for v in values))
            for k in range(3):
                fd = (ahead[k] - behind[k]) / (2 * _FD_H)
                if abs(values[k + 1] - fd) > _SPOT_RTOL * max(scale, abs(fd)):
                    raise ValueError(f"tau derivatives disagree with finite differences at t={t}")

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
        return SymmetryField.reparametrization(lambda t: (1.0, 0.0, 0.0, 0.0))

    @staticmethod
    def reparametrization(tau):
        """X = tau(t) d/dt for caller-supplied (tau, tau', tau'', tau''')."""
        return SymmetryField(tau, np.zeros(3), np.zeros((3, 3)))


@dataclass
class Prolongation:
    """Coefficients of the prolonged field at a jet, through third order."""

    tau: float
    xi0: np.ndarray  # d/dx slot
    xi1: np.ndarray  # d/dxdot slot
    xi2: np.ndarray  # d/dxddot slot
    xi3: np.ndarray  # d/dxdddot slot


def prolong(X, j):
    """Evaluate the third prolongation of X at the jet j.

    Slots are (tau, xi, xi_dot - xdot tau_dot, xi_ddot - 2 xddot tau_dot
    - xdot tau_ddot, xi_dddot - 3 xdddot tau_dot - 3 xddot tau_ddot
    - xdot tau_dddot), with total derivatives of xi taken along the jet.
    """
    tau, td, tdd, tddd = X.tau(j.t)
    return Prolongation(
        tau=tau,
        xi0=X.shift + X.jac @ j.x,
        xi1=X.jac @ j.xdot - j.xdot * td,
        xi2=X.jac @ j.xddot - 2.0 * j.xddot * td - j.xdot * tdd,
        xi3=X.jac @ j.xdddot - 3.0 * j.xdddot * td - 3.0 * j.xddot * tdd - j.xdot * tddd,
    )


def charge(X, t, x, xdot, xddot, xdddot):
    """Noether charge of X at stacked jets, shape (...), from parameters t of
    shape (...) and (..., 3) arrays:

    J = L tau + <p_x, xi - tau xdot> + <p_xdot, d/dt(xi - tau xdot)>.
    """
    tau, tau_dot = (np.asarray(v, dtype=float)[..., None] for v in X.tau(t)[:2])
    p_x, p_xdot = momenta(xdot, xddot, xdddot)
    slot = X.shift + x @ X.jac.T - tau * xdot
    slot_dot = xdot @ X.jac.T - tau_dot * xdot - tau * xddot
    return density(xdot, xddot) * tau[..., 0] + dot(p_x, slot) + dot(p_xdot, slot_dot)


def noether_charge(X, j):
    """The charge of X at one jet; raises ValueError at xdot = 0."""
    if not np.any(j.xdot):
        raise ValueError("xdot = 0: off the domain of the Lagrangian")
    return float(charge(X, j.t, j.x, j.xdot, j.xddot, j.xdddot))


def cartan_contraction(X, j):
    """Contraction of the prolonged field with the Cartan one-form,

    Theta = L dt + p_x (dx - xdot dt) + p_xdot (dxdot - xddot dt),

    evaluated slot by slot from the prolongation coefficients.  Must agree
    with noether_charge to rounding.
    """
    pr = prolong(X, j)
    p_x, p_xdot = ostrogradski_momenta(j)
    L = lagrangian_density(j)
    theta1 = pr.xi0 - j.xdot * pr.tau
    theta2 = pr.xi1 - j.xddot * pr.tau
    return L * pr.tau + dot(p_x, theta1) + dot(p_xdot, theta2)


def noether_identity_residual(X, trace, index):
    """Off-shell Noether identity residual at an interior sample:

    d/dt J_X + <EL residual, xi - tau xdot>,

    which vanishes (to differencing error) on any smooth trace, solution or
    not.  Both derivatives are second-order central differences.
    """
    el = el_residual(trace, index)
    rows = slice(index - 1, index + 2)
    t = trace.t0 + trace.step * np.arange(index - 1, index + 2)
    J = charge(X, t, trace.x[rows], trace.xdot[rows], trace.xddot[rows], trace.xdddot[rows])
    slot = X.shift + X.jac @ trace.x[index] - X.tau(t[1])[0] * trace.xdot[index]
    return (J[2] - J[0]) / (2.0 * trace.step) + dot(el, slot)
