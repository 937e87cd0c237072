"""Curvature and Frenet frames from jets, and jet synthesis from frame data."""

import numpy as np

from .geometry import FrenetFrame, JetState, cross, dot, norm, require_near

# Below this curvature the normal N = xddot/kappa amplifies noise past usable
# precision at the default step size; frame extraction refuses to proceed.
KAPPA_MIN = 1e-8


def curvature(xdot, xddot, xdddot):
    """(kappa, kappa_dot, tau) of arclength jets, over (..., 3) arrays:

    kappa = |xddot|, kappa_dot = <xddot, xdddot>/kappa and
    tau = <xdot cross xddot, xdddot>/kappa^2.  At or below KAPPA_MIN tau is 0
    and kappa_dot is its limit |xdddot - <xdddot, xdot> xdot|, on those rows alone.
    """
    kappa = np.sqrt(dot(xddot, xddot))
    safe = np.maximum(kappa, KAPPA_MIN)
    kappa_dot = np.where(kappa > KAPPA_MIN, dot(xddot, xdddot) / safe, 0.0)
    tau = np.where(kappa > KAPPA_MIN, dot(cross(xdot, xddot), xdddot) / safe**2, 0.0)
    floor = kappa <= KAPPA_MIN
    if floor.any():
        t, x3 = xdot[floor], xdddot[floor]
        kappa_dot[floor] = np.linalg.norm(x3 - dot(x3, t)[..., None] * t, axis=-1)
    return kappa, kappa_dot, tau


def require_frame(kappa):
    """The one guard of a frame: raise ValueError where kappa <= KAPPA_MIN."""
    if np.any(kappa <= KAPPA_MIN):
        raise ValueError(f"kappa = {kappa} <= {KAPPA_MIN}: no Frenet frame at the curvature floor")


def frenet_frame(j):
    """Extract (T, N, B, kappa, tau) from an arclength jet by curvature:
    T = xdot, N = xddot/kappa and B = T x N.
    """
    require_near(j.arclength_defects(), "off the arclength submanifold")
    kappa, _, tau = curvature(j.xdot, j.xddot, j.xdddot)
    require_frame(kappa)
    T = j.xdot / norm(j.xdot)
    N = j.xddot / kappa
    B = cross(T, N)
    return FrenetFrame(T=T, N=N, B=B, kappa=kappa, tau=tau)


def jet_from_frame(x, f, kappa_dot):
    """Arclength jet with the given position, frame and curvature rate.

    xdot = T, xddot = kappa N, xdddot = kappa_dot N - kappa^2 T + kappa tau B.
    The + 0.0 turns the -0.0 of zero times a negative entry into 0.0, nothing else.
    """
    xddd = kappa_dot * f.N - f.kappa**2 * f.T + f.kappa * f.tau * f.B + 0.0
    return JetState(0.0, x, f.T, f.kappa * f.N + 0.0, xddd)


def fourth_derivative_frame(f, kappa_dot, kappa_ddot, tau_dot):
    """Fourth derivative of a curve expressed in its frame:

    -3 kappa kappa_dot T + (kappa_ddot - kappa^3 - kappa tau^2) N
    + (2 kappa_dot tau + kappa tau_dot) B.
    """
    k, tau = f.kappa, f.tau
    return (
        -3.0 * k * kappa_dot * f.T
        + (kappa_ddot - k**3 - k * tau**2) * f.N
        + (2.0 * kappa_dot * tau + k * tau_dot) * f.B
    )
