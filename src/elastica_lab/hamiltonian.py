"""Legendre transform to the cotangent bundle of the first jets, the
constraint manifold, and the constrained Hamiltonian flow.

The image of the transform is the common zero set of three functions:

    p_t,   <p_xdot, xdot>,   h = |xdot|^2 <p_xdot,p_xdot>/4 + <p_x,xdot>/|xdot|,

all with pairwise-vanishing Poisson brackets (the constraint set is
coisotropic).  On it, the arclength-normalized flow is linear-quadratic:

    dx/ds = xdot,  dxdot/ds = p_xdot/2,
    dp_xdot/ds = -p_x + 3 <p_x, xdot> xdot,  dp_x/ds = 0,  dt/ds = 1.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import ode
from .geometry import CurveTrace, JetState, PhaseState, dot, norm
from .lagrangian import DomainError, ostrogradski_momenta

# Residual size beyond which a phase point is treated as genuinely off the
# constraint manifold (out of the range of the Legendre transform) rather
# than merely drifted.
OFF_MANIFOLD_TOL = 1e-6


class NotInRangeError(ValueError):
    """Phase point violates the range constraints of the Legendre transform."""


def legendre(j):
    """Map a third-jet point to (t, x, xdot, p_t=0, p_x, p_xdot)."""
    p_x, p_xdot = ostrogradski_momenta(j)
    return PhaseState(t=j.t, x=j.x, xdot=j.xdot, p_x=p_x, p_xdot=p_xdot, p_t=0.0)


def constraints(xdot, p_x, p_xdot):
    """(<p_xdot, xdot>, h) over (..., 3) arrays: with p_t, the functions
    whose common zero set is the constraint manifold."""
    v = np.sqrt(dot(xdot, xdot))
    return dot(p_xdot, xdot), 0.25 * v * v * dot(p_xdot, p_xdot) + dot(p_x, xdot) / v


def constraint_residuals(ps):
    """(p_t, <p_xdot, xdot>, h); all three vanish on the constraint manifold."""
    if norm(ps.xdot) == 0.0:
        raise DomainError("xdot = 0: constraints undefined")
    return (ps.p_t, *map(float, constraints(ps.xdot, ps.p_x, ps.p_xdot)))


def _require_in_range(residuals):
    """Raise NotInRangeError at the first row of constraint residuals past OFF_MANIFOLD_TOL."""
    residuals = np.atleast_2d(residuals)
    bad = np.flatnonzero(np.max(np.abs(residuals), axis=1) > OFF_MANIFOLD_TOL)
    if bad.size:
        raise NotInRangeError(
            f"not in the range of the Legendre transform at row {bad[0]}: {residuals[bad[0]]}"
        )


def arclength_fiber(xdot, p_x, p_xdot):
    """(xddot, xdddot) in the fiber of the Legendre transform over constraint
    points, in the arclength gauge, over (..., 3) arrays:

        xddot  = |xdot|^3 p_xdot / 2,
        xdddot = -|xdot|^3 p_x_perp / 2 - |xddot|^2 xdot / |xdot|^2.

    Adding 0.0 turns each -0.0 into 0.0, so a written trace has no -0 cell.
    """
    v = np.sqrt(dot(xdot, xdot))[..., None]
    p_x_perp = p_x - (dot(p_x, xdot)[..., None] / v**2) * xdot
    xddot = 0.5 * v**3 * p_xdot + 0.0
    xdddot_perp = 0.5 * (-(v**3) * p_x_perp) + 0.0
    return xddot, xdddot_perp - (dot(xddot, xddot) / dot(xdot, xdot))[..., None] * xdot


def arclength_jet_from_phase(ps):
    """The arclength-gauge fiber point over one constraint point."""
    _require_in_range(constraint_residuals(ps))
    return JetState(ps.t, ps.x, ps.xdot, *arclength_fiber(ps.xdot, ps.p_x, ps.p_xdot))


def jet_trace(phase):
    """The arclength-gauge jet trace over a phase trace, every row of which
    must be in the range of the Legendre transform."""
    _require_in_range(np.stack(constraints(phase.xdot, phase.p_x, phase.p_xdot), axis=-1))
    jets = np.hstack([phase.x, phase.xdot, *arclength_fiber(phase.xdot, phase.p_x, phase.p_xdot)])
    return CurveTrace(phase.step, jets, t0=phase.t0, metadata=phase.metadata)


@dataclass
class PhaseDerivative:
    dt: float
    dx: np.ndarray
    dxdot: np.ndarray
    dp_x: np.ndarray
    dp_xdot: np.ndarray


def _require_flow_point(ps):
    """Raise NotInRangeError unless ps is on the constraint manifold with
    |xdot| = 1, where the arclength-normalized flow is defined."""
    _require_in_range(constraint_residuals(ps))
    if abs(norm(ps.xdot) - 1.0) > OFF_MANIFOLD_TOL:
        raise NotInRangeError(f"flow needs arclength normalization, |xdot| = {norm(ps.xdot)}")


def ham_rhs(ps):
    """Arclength-normalized constrained flow at an on-manifold phase point.

    The flow assumes |xdot| = 1 (preserved exactly, since dxdot is
    proportional to p_xdot, which is transverse to xdot on the manifold).
    """
    _require_flow_point(ps)
    d = np.array(_flat_rhs(ps.t, ps.to_array()))
    return PhaseDerivative(dt=1.0, dx=d[0:3], dxdot=d[3:6], dp_x=d[6:9], dp_xdot=d[9:12])


def diff_momentum(ps, tau, tau_dot):
    """Reparametrization momentum tau p_t - tau_dot <p_xdot, xdot>.

    Identically zero on the constraint manifold, for every generator.
    """
    return tau * ps.p_t - tau_dot * dot(ps.p_xdot, ps.xdot)


def project_constraints(y):
    """Pull a 12-sequence (x, xdot, p_x, p_xdot) back onto the constraint
    manifold, as a list.

    Renormalizes xdot, removes the tangential part of p_xdot, and shifts the
    tangential part of p_x so that h = 0.
    """
    x1, x2, x3, a, b, c, px, py, pz, qx, qy, qz = y
    v = math.sqrt(a * a + b * b + c * c)
    a, b, c = a / v, b / v, c / v
    w = qx * a + qy * b + qz * c
    qx, qy, qz = qx - w * a, qy - w * b, qz - w * c
    u = px * a + py * b + pz * c
    r = 0.25 * (qx * qx + qy * qy + qz * qz)
    p_x = [px - u * a - r * a, py - u * b - r * b, pz - u * c - r * c]
    return [x1, x2, x3, a, b, c, *p_x, qx, qy, qz]


# The arclength-normalized flow on a 12-vector (x, xdot, p_x, p_xdot), with
# u = 3 <p_x, xdot>.  dx/ds is a bare copy of xdot, which the generated march
# aliases, and dp_x/ds is exactly 0.0, whose terms it drops.
_flat_rhs = ode.Field(
    "hamiltonian", 12,
    ("u = 3.0 * (y6 * y3 + y7 * y4 + y8 * y5)",),
    ("y3", "y4", "y5", "0.5 * y9", "0.5 * y10", "0.5 * y11", "0.0", "0.0", "0.0",
     "u * y3 - y6", "u * y4 - y7", "u * y5 - y8"),
)


def integrate_flow(ps0, step, count, method="rk4", project=False):
    """Integrate the constrained flow from an on-manifold phase point.

    With project=True the constraints are re-imposed after every step;
    the default measures true drift.  Returns a phase CurveTrace, whose
    p_t is 0 (the flow keeps p_t constant and the manifold has p_t = 0).
    """
    _require_flow_point(ps0)
    integrator = ode.integrator(method)
    hook = project_constraints if project else None
    _, ys = integrator(_flat_rhs, ps0.to_array(), step, count, t0=ps0.t, project=hook)
    metadata = {"gauge": "arclength", "integrator": method, "projected": bool(project)}
    return CurveTrace(step, ys, t0=ps0.t, kind="phase", metadata=metadata)
