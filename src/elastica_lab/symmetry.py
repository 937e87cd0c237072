"""Prolongation of configuration vector fields, Noether charges, and the
off-shell Noether identity.

A field  X = tau(t) d/dt + xi(t,x) d/dx  prolongs to the third jet bundle with
coefficients built from total derivatives of tau and xi along the jet.  The
spatial part xi is restricted to fields affine in x with coefficients constant
in t (translations, rotations, and combinations — everything used here), so
those total derivatives are exact:

    xi_dot   = dxi/dt + (dxi/dx) xdot
    xi_ddot  = (dxi/dx) xddot
    xi_dddot = (dxi/dx) xdddot
"""

from dataclasses import dataclass

import numpy as np

from .geometry import dot, vec3
from .lagrangian import el_residual, lagrangian_density, ostrogradski_momenta

_SPOT_POINTS = 5
_SPOT_RTOL = 1e-6
_FD_H = 1e-6


class FieldValidationError(ValueError):
    """Supplied derivatives failed the construction spot check."""


def _spot_scale(*values):
    return max(1.0, *(float(np.max(np.abs(v))) for v in values))


class SymmetryField:
    """Infinitesimal transformation of (t, x) space.

    tau: callable t -> (tau, tau_dot, tau_ddot, tau_dddot)
    xi:  callable (t, x) -> (xi, dxi_dt, dxi_dx)  with xi a 3-vector and
         dxi_dx a 3x3 array; must be affine in x, coefficients constant in t.

    Both callables are finite-difference spot checked at construction.
    """

    def __init__(self, tau, xi):
        self.tau = tau
        self.xi = xi
        self._validate()

    def _validate(self):
        rng = np.random.default_rng(20240331)
        jac_ref = None
        dt_ref = None
        for _ in range(_SPOT_POINTS):
            t = float(rng.uniform(-2.0, 2.0))
            x = rng.uniform(-2.0, 2.0, size=3)

            tv, td, tdd, tddd = self.tau(t)
            fd_td = (self.tau(t + _FD_H)[0] - self.tau(t - _FD_H)[0]) / (2 * _FD_H)
            fd_tdd = (self.tau(t + _FD_H)[1] - self.tau(t - _FD_H)[1]) / (2 * _FD_H)
            fd_tddd = (self.tau(t + _FD_H)[2] - self.tau(t - _FD_H)[2]) / (2 * _FD_H)
            scale = _spot_scale(tv, td, tdd, tddd)
            for got, fd in ((td, fd_td), (tdd, fd_tdd), (tddd, fd_tddd)):
                if abs(got - fd) > _SPOT_RTOL * max(scale, abs(fd)):
                    raise FieldValidationError(
                        f"tau derivatives disagree with finite differences at t={t})"
                    )

            xv, xt, jac = self.xi(t, x)
            xv = vec3(xv)
            xt = vec3(xt)
            jac = np.asarray(jac, dtype=float)
            if jac.shape != (3, 3):
                raise FieldValidationError("dxi_dx must be a 3x3 array")
            fd_t = (
                np.asarray(self.xi(t + _FD_H, x)[0])
                - np.asarray(self.xi(t - _FD_H, x)[0])
            ) / (2 * _FD_H)
            fd_jac = np.empty((3, 3))
            for k in range(3):
                e = np.zeros(3)
                e[k] = _FD_H
                fd_jac[:, k] = (
                    np.asarray(self.xi(t, x + e)[0]) - np.asarray(self.xi(t, x - e)[0])
                ) / (2 * _FD_H)
            scale = _spot_scale(xv, xt, jac)
            if np.max(np.abs(xt - fd_t)) > _SPOT_RTOL * scale:
                raise FieldValidationError("dxi_dt disagrees with finite differences")
            if np.max(np.abs(jac - fd_jac)) > _SPOT_RTOL * scale:
                raise FieldValidationError("dxi_dx disagrees with finite differences")

            if jac_ref is None:
                jac_ref, dt_ref = jac, xt
            else:
                if np.max(np.abs(jac - jac_ref)) > _SPOT_RTOL * _spot_scale(jac_ref):
                    raise FieldValidationError(
                        "xi is not affine in x with t-independent coefficients"
                    )
                if np.max(np.abs(xt - dt_ref)) > _SPOT_RTOL * _spot_scale(dt_ref, 1.0):
                    raise FieldValidationError("dxi_dt is not constant")

    # Convenience constructors for the fields the theory actually uses.
    @staticmethod
    def translation(direction):
        d = vec3(direction)
        zero = np.zeros(3)
        return SymmetryField(
            tau=lambda t: (0.0, 0.0, 0.0, 0.0),
            xi=lambda t, x: (d, zero, np.zeros((3, 3))),
        )

    @staticmethod
    def rotation(axis):
        a = vec3(axis)
        jac = np.array(
            [[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]]
        )
        zero = np.zeros(3)
        return SymmetryField(
            tau=lambda t: (0.0, 0.0, 0.0, 0.0),
            xi=lambda t, x: (np.cross(a, x), zero, jac),
        )

    @staticmethod
    def time_translation():
        zero = np.zeros(3)
        return SymmetryField(
            tau=lambda t: (1.0, 0.0, 0.0, 0.0),
            xi=lambda t, x: (zero, zero, np.zeros((3, 3))),
        )

    @staticmethod
    def reparametrization(tau):
        """X = tau(t) d/dt for caller-supplied (tau, tau', tau'', tau''')."""
        zero = np.zeros(3)
        return SymmetryField(
            tau=tau,
            xi=lambda t, x: (zero, zero, np.zeros((3, 3))),
        )


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
    xi, xi_t, jac = X.xi(j.t, j.x)
    xi = np.asarray(xi, dtype=float)
    jac = np.asarray(jac, dtype=float)
    xi_d = np.asarray(xi_t, dtype=float) + jac @ j.xdot
    xi_dd = jac @ j.xddot
    xi_ddd = jac @ j.xdddot
    return Prolongation(
        tau=tau,
        xi0=xi,
        xi1=xi_d - j.xdot * td,
        xi2=xi_dd - 2.0 * j.xddot * td - j.xdot * tdd,
        xi3=xi_ddd - 3.0 * j.xdddot * td - 3.0 * j.xddot * tdd - j.xdot * tddd,
    )


def noether_charge(X, j):
    """Conserved quantity of X at the jet j:

    J = L tau + <p_x, xi - tau xdot> + <p_xdot, d/dt(xi - tau xdot)>.
    """
    tau, td, _, _ = X.tau(j.t)
    xi, xi_t, jac = X.xi(j.t, j.x)
    xi = np.asarray(xi, dtype=float)
    xi_d = np.asarray(xi_t, dtype=float) + np.asarray(jac, dtype=float) @ j.xdot
    p_x, p_xdot = ostrogradski_momenta(j)
    L = lagrangian_density(j)
    slot = xi - tau * j.xdot
    slot_dot = xi_d - td * j.xdot - tau * j.xddot
    return L * tau + dot(p_x, slot) + dot(p_xdot, slot_dot)


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
    n = len(trace)
    if index < 1 or index > n - 2:
        raise IndexError(f"index {index} leaves no room for a centered stencil")
    h = trace.step
    j_prev = noether_charge(X, trace.samples[index - 1])
    j_next = noether_charge(X, trace.samples[index + 1])
    dJ = (j_next - j_prev) / (2.0 * h)
    j = trace.samples[index]
    tau = X.tau(j.t)[0]
    xi = np.asarray(X.xi(j.t, j.x)[0], dtype=float)
    return dJ + dot(el_residual(trace, index), xi - tau * j.xdot)
