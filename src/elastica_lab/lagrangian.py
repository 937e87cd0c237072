"""The curvature-squared Lagrangian: density, momenta, invariants, dynamics.

All formulas are for curves in R^3.  The density in an arbitrary
parametrization is

    L = |xddot|^2 / |xdot|^3 - <xdot, xddot>^2 / |xdot|^5,

which equals kappa^2 |xdot|.  Dynamics are integrated in the arclength gauge
only; the undetermined parallel part of the fourth derivative is fixed there
by differentiating the arclength conditions.

`density`, `momenta` and `conserved` broadcast over arrays; the single-jet
functions and the trace audits in `diagnostics` both call them.  `conserved`'s
c is the one torsion constant of the lab.  `speed` is the one xdot = 0 guard
of a jet; jets and traces off the arclength submanifold are refused by
geometry.require_near at DRIFT_TOL.
"""

import numpy as np

from . import ode
from .geometry import ConservedSet, CurveTrace, JetState, arclength_conditions, cross, dot, norm, require_near


def speed(j):
    """|xdot| of one jet; raises ValueError at xdot = 0."""
    v = norm(j.xdot)
    if not v > 0.0:
        raise ValueError("xdot = 0: off the domain of the Lagrangian")
    return v


def density(xdot, xddot):
    """L = |xddot|^2/|xdot|^3 - <xdot,xddot>^2/|xdot|^5, over (..., 3) arrays."""
    v = np.sqrt(dot(xdot, xdot))
    return dot(xddot, xddot) / v**3 - dot(xdot, xddot) ** 2 / v**5


def momenta(xdot, xddot, xdddot):
    """Canonical momenta (p_x, p_xdot) of the second-order problem, over
    (..., 3) arrays and in any parametrization:

    p_xdot = 2 xddot_perp / |xdot|^3  (perp taken against xdot), and
    p_x    = -2 xdddot_perp / |xdot|^3 + 6 <xdot,xddot> xddot_perp / |xdot|^5
             - |xddot_perp|^2 xdot / |xdot|^5.
    """
    v2 = dot(xdot, xdot)[..., None]
    v = np.sqrt(v2)
    xdd_perp = xddot - (dot(xdot, xddot)[..., None] / v2) * xdot
    # Second projection pass: kills the O(eps) parallel remainder so the
    # constraint <p_xdot, xdot> = 0 holds to ~eps^2, not just ~eps.
    xdd_perp = xdd_perp - (dot(xdot, xdd_perp)[..., None] / v2) * xdot
    xddd_perp = xdddot - (dot(xdot, xdddot)[..., None] / v2) * xdot
    p_xdot = 2.0 * xdd_perp / v**3
    p_x = (
        -2.0 * xddd_perp / v**3
        + (6.0 * dot(xdot, xddot)[..., None] / v**5) * xdd_perp
        - (dot(xdd_perp, xdd_perp)[..., None] / v**5) * xdot
    )
    return p_x, p_xdot


def conserved(x, xdot, xddot, xdddot, p_x, p_xdot):
    """Conserved quantities (p, l, H, c) of arclength jets with momenta
    (p_x, p_xdot) = momenta(xdot, xddot, xdddot), over (..., 3) arrays.

    p = -2 xdddot - 3 |xddot|^2 xdot,  l = x cross p + 2 xdot cross xddot,
    H = <p_x, xdot> + <p_xdot, xddot> - L (zero on every solution, in any
    parametrization), and c = kappa^2 tau = <xdot cross xddot, xdddot> (the
    kappa^-2 in tau cancels, so c needs no curvature floor).
    """
    H = dot(p_x, xdot) + dot(p_xdot, xddot) - density(xdot, xddot)
    p = -2.0 * xdddot - 3.0 * dot(xddot, xddot)[..., None] * xdot
    l = cross(x, p) + 2.0 * cross(xdot, xddot)
    c = dot(cross(xdot, xddot), xdddot)
    return p, l, H, c


def reparametrization_charge(tau, tau_dot, H, pv):
    """Noether charge of the reparametrization tau(t) d/dt, from H of
    `conserved` and pv = <p_xdot, xdot>; broadcasts."""
    return -(tau * H + tau_dot * pv)


def lagrangian_density(j):
    """The density L at one jet."""
    speed(j)
    return float(density(j.xdot, j.xddot))


def ostrogradski_momenta(j):
    """Canonical momenta (p_x, p_xdot) at one jet."""
    speed(j)
    return momenta(j.xdot, j.xddot, j.xdddot)


def central_el_residual(p_x, step):
    """Euler-Lagrange residual at rows 1..N-2 of momenta p_x sampled every
    `step`, (N-2, 3).

    The density has no explicit x dependence, so the residual collapses to
    -(d/dt) p_x, evaluated with a second-order central difference.
    """
    return -(p_x[2:] - p_x[:-2]) / (2.0 * step)


def conserved_momenta(j):
    """All conserved quantities of one arclength jet, as a ConservedSet."""
    require_near(j.arclength_defects(), "off the arclength submanifold")
    p, l, H, c = conserved(j.x, j.xdot, j.xddot, j.xdddot, *momenta(j.xdot, j.xddot, j.xdddot))
    return ConservedSet(p=p, l=l, H=H, c=c)


def project_arclength(j):
    """Nearest jet satisfying the arclength conditions exactly.

    xdot is normalized, xddot loses its tangential part, and the tangential
    part of xdddot is set to -|xddot|^2 xdot.  Idempotent.
    """
    v = speed(j)
    t_hat = j.xdot / v
    xdd = j.xddot - dot(j.xddot, t_hat) * t_hat
    xdd = xdd - dot(xdd, t_hat) * t_hat
    xddd_perp = j.xdddot - dot(j.xdddot, t_hat) * t_hat
    xddd = xddd_perp - dot(xdd, xdd) * t_hat
    return JetState(j.t, j.x, t_hat, xdd, xddd)


# The arclength dynamics on a 12-vector (x, xdot, xddot, xdddot): the fourth
# derivative is bb xddot - bc xdot with bb = -(3/2)|xddot|^2 and
# bc = 3 <xddot, xdddot>.  The first nine derivatives are bare copies, which
# the generated march turns into name aliases with no code.
_flat_rhs = ode.Field(
    "lagrangian", 12,
    ("bb = -1.5 * (y6 * y6 + y7 * y7 + y8 * y8)", "bc = 3.0 * (y6 * y9 + y7 * y10 + y8 * y11)"),
    ("y3", "y4", "y5", "y6", "y7", "y8", "y9", "y10", "y11",
     "bb * y6 - bc * y3", "bb * y7 - bc * y4", "bb * y8 - bc * y5"),
)


def integrate_elastica(j0, step, count, method="rk4"):
    """Integrate the arclength dynamics from an arclength jet.

    Returns a jet CurveTrace spaced by `step`.  Direct integration drifts off
    the arclength submanifold over long arcs, so a trace with an arclength
    defect above DRIFT_TOL raises ValueError at its first bad s.  The field
    reads no position, so x is marched from 0 and x0 added after: the
    rk45 step control then does not depend on |x0|.
    """
    require_near(j0.arclength_defects(), "off the arclength submanifold")
    y0 = j0.to_array()
    y0[:3] *= 0.0  # x from 0, signed like x0: row 0 is x0 bit for bit
    _, ys = ode.integrator(method)(_flat_rhs, y0, step, count, t0=j0.t)
    ys[:, :3] += j0.x
    trace = CurveTrace(step, ys, t0=j0.t, metadata={"gauge": "arclength", "integrator": method})
    conditions = arclength_conditions(trace.xdot, trace.xddot, trace.xdddot)
    require_near(conditions, "off the arclength submanifold", trace.params())
    return trace
