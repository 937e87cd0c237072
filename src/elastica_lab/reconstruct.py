"""Rebuild the space curve from curvature samples and the conserved momenta.

Along a solution the momentum is the first integral
p = -kappa^2 T - 2 kappa_dot N - 2 kappa tau B (Langer & Singer's constant
field at lambda = 0), so xdddot = T'' = -(p + 3 kappa^2 T)/2.  With
u = kappa^2 the curvature equation reads u'' = (|p|^2 - 3u^2)/2, and
zeta = T + u p/|p|^2 then solves the linear Hill equation

    zeta'' = -(3/2) u zeta,

whose coefficient divides by nothing, so it holds through any small kappa
or torsion.  reconstruct_curve solves it on the grid by an order-6 Magnus
rule and reads xdot = zeta - u p/|p|^2 and xddot = zeta' - u' p/|p|^2
(zeta = T on the line, p = 0).  Where the reduction sets c = 0 and p != 0
it writes zeta = zeta_P + r, with zeta_P the exact planar solution that
reconstruct_planar reads off j0, and steps only the remainder r: at c = 0
the Hill equation is at parametric resonance, where a step error in zeta_P
would grow secularly.
"""

import enum
import math

import numpy as np

from .frenet import KAPPA_MIN, curvature
from .geometry import CurveTrace, dot, norm
from .lagrangian import conserved_momenta
from .ode import cumulative_hermite
from .scalar import integrate_scalar


class Branch(enum.Enum):
    GENERIC = "generic"
    PLANAR = "planar"
    DEGENERATE_LINE = "degenerate_line"


def classify_case(cs, tau0):
    """Pick the reconstruction branch for the given invariants: the line is
    p = 0, GENERIC has tau != 0 and PLANAR tau = 0, which frenet.curvature
    reports at the curvature floor.
    """
    if norm(cs.p) == 0.0:
        return Branch.DEGENERATE_LINE
    if abs(tau0) > 1e-12:
        return Branch.GENERIC
    return Branch.PLANAR


def _magnus_steps(u, du, ddu, h):
    """exp(Omega) of each grid interval for zeta'' = -(3/2) u zeta, as a
    (2, 2, n) array.

    Omega is the order-6 Magnus step of Blanes, Casas & Ros (BIT 40, 2000)
    for A = [[0, 1], [-(3/2) u, 0]], with alpha1 = h A(h/2),
    alpha2 = (12/h) int (t - h/2) A and alpha3 = 12 (int A - alpha1) taken
    from the quintic Hermite interpolant of u on the interval.  alpha1 is
    [[0, h], [f1, 0]] and alpha2, alpha3 have only a lower-left entry (f2, f3),
    so Omega = [[g, e], [f, -g]] has the closed entries below (its O(h^7)
    terms dropped).  Omega^2 = (g^2 + e f) I, so exp(Omega) = C I + S Omega
    with C, S = cos, sin/theta (or cosh, sinh/theta) of theta = sqrt|g^2 + e f|.
    """
    u0, u1, d0, d1, dd0, dd1 = u[:-1], u[1:], du[:-1], du[1:], ddu[:-1], ddu[1:]
    mid = 0.5 * (u0 + u1) + 5.0 * h / 32.0 * (d0 - d1) + h * h / 64.0 * (dd0 + dd1)
    f1 = -1.5 * h * mid
    f2 = -18.0 * (3.0 / 28.0 * h * (u1 - u0) - h * h / 84.0 * (d0 + d1) + h**3 / 1680.0 * (dd1 - dd0))
    f3 = 81.0 / 80.0 * h * h * (d0 - d1) + 21.0 / 160.0 * h**3 * (dd0 + dd1)
    e = h - h * h * f3 / 180.0
    f = f1 + f3 / 12.0 + h * f1 * f3 / 180.0 - h * f2 * f2 / 120.0
    g = h * f2 * (h * f1 / 180.0 - 1.0 / 12.0)
    square = g * g + e * f
    theta = np.sqrt(np.abs(square))
    rotation = square < 0.0
    C = np.where(rotation, np.cos(theta), np.cosh(theta))
    S = np.ones_like(theta)
    np.divide(np.where(rotation, np.sin(theta), np.sinh(theta)), theta, out=S, where=theta > 0.0)
    return np.array([[C + S * g, S * e], [S * f, C - S * g]])


def _cumulative_product(steps):
    """Products M_k ... M_1 for k = 0..n (the identity first) of the (2, 2, n)
    matrices M, by a doubling scan of log2(n) passes."""
    out = np.empty(steps.shape[:2] + (steps.shape[2] + 1,))
    out[..., 0] = np.eye(2)
    out[..., 1:] = steps
    shift = 1
    while shift < out.shape[2]:
        later, earlier = out[..., shift:], out[..., :-shift]
        out[..., shift:] = later[:, 0, None] * earlier[0] + later[:, 1, None] * earlier[1]
        shift *= 2
    return out


def reconstruct_planar(kappa, kappa_dot, p2, j0):
    """The exact planar solution (zeta_P, zeta_P') of the Hill equation on
    the samples: at tau = 0 the first integral gives zeta = -2 kappa_dot e
    for the constant e = (p x B)/|p|^2.  As p x B = kappa^2 N - 2 kappa_dot T
    on any arclength jet, e is read with no binormal off the start jet j0 as
    (kappa xddot - 2 kappa_dot xdot)/|p|^2, and zeta' = kappa^3 e
    (kappa_ddot = -kappa^3/2).  kappa may be signed (it changes sign at
    inflections)."""
    e = (kappa[0] * j0.xddot - 2.0 * kappa_dot[0] * j0.xdot) / p2
    return np.outer(-2.0 * kappa_dot, e), np.outer(kappa**2 * kappa, e)


def reconstruct_curve(kappa_samples, kappa_dot_samples, cs, c, j0, step):
    """The jet CurveTrace rebuilt from kappa(s), the conserved set cs, the
    reduced torsion constant c and the initial arclength jet j0 by the
    Magnus steps of the Hill equation from j0's (zeta, zeta').  Where c = 0
    and p != 0 they step only the remainder off the exact planar solution:
    rounding on a planar start, the dropped twist below the curvature floor.
    xdddot = -(p + 3u xdot)/2, and positions are by quintic Hermite quadrature.
    """
    kappa = np.asarray(kappa_samples, dtype=float)
    kappa_dot = np.asarray(kappa_dot_samples, dtype=float)
    p = cs.p
    p2 = dot(p, p)
    q = p / p2 if p2 > 0.0 else p
    u, du = kappa**2, 2.0 * kappa * kappa_dot
    # The curvature equation in u at lambda = 0: finite as kappa -> 0.
    ddu = 0.5 * (p2 - 3.0 * u**2)
    r0, dr0 = j0.xdot + u[0] * q, j0.xddot + du[0] * q
    planar = c == 0.0 and p2 > 0.0
    if planar:
        zeta_p, dzeta_p = reconstruct_planar(kappa, kappa_dot, p2, j0)
        r0, dr0 = r0 - zeta_p[0], dr0 - dzeta_p[0]
    (m00, m01), (m10, m11) = _cumulative_product(_magnus_steps(u, du, ddu, step))
    zeta = np.outer(m00, r0) + np.outer(m01, dr0)
    dzeta = np.outer(m10, r0) + np.outer(m11, dr0)
    if planar:
        zeta += zeta_p
        dzeta += dzeta_p
    zeta -= np.outer(u, q)
    dzeta -= np.outer(du, q)
    xdddot = -0.5 * (p + 3.0 * u[:, None] * zeta)
    x = j0.x + cumulative_hermite(step, zeta, dzeta, xdddot)
    meta = {"gauge": "arclength", "integrator": "reconstruct"}
    return CurveTrace(step, np.hstack([x, zeta, dzeta, xdddot]), t0=j0.t, metadata=meta)


def reduce_jet(j0, cs):
    """Reduce an arclength jet with conserved set cs to the curvature problem.

    Returns (branch, kappa0, kappa_dot0, c).  The torsion constant c is
    cs.c on the generic branch and exactly 0 on the others, where the jet
    gives it only to roundoff; a line reduces to kappa = kappa_dot = 0.  At
    the floor kappa_dot0 >= 0, so kappa0 takes the sign of <xddot, xdddot>.
    """
    kappa0, kappa_dot0, tau0 = (float(v) for v in curvature(j0.xdot, j0.xddot, j0.xdddot))
    kappa0 = math.copysign(kappa0, dot(j0.xddot, j0.xdddot)) if kappa0 <= KAPPA_MIN else kappa0
    branch = classify_case(cs, tau0)
    c = cs.c if branch is Branch.GENERIC else 0.0
    return branch, kappa0, kappa_dot0, c


def reduce_and_reconstruct(j0, step, count):
    """Full scalar-reduction pipeline from an arclength initial jet.

    Reduces the jet (reduce_jet), evaluates the exact curvature with the
    matching torsion constant, and rebuilds x(s) by reconstruct_curve on
    every branch.  The result is grid-compatible with direct integration of
    the fourth-order dynamics from the same jet.
    """
    cs = conserved_momenta(j0)
    branch, kappa0, kappa_dot0, c = reduce_jet(j0, cs)
    _, kappa, kappa_dot = integrate_scalar(kappa0, kappa_dot0, c, step, count)
    return reconstruct_curve(kappa, kappa_dot, cs, c, j0, step), branch
