"""Rebuild the space curve from curvature samples and the conserved momenta.

The motion splits along the constant momentum p and the plane perpendicular
to it.  Along p the velocity is <xdot, p> = -kappa^2; perpendicular to p the
unit vectors D = (xdot x p)/|xdot x p| and E = ((xdot x p) x p)/|...| rotate
rigidly at the rate

    Omega = -4c |p| / (2 (|p|^2 - kappa^4)),

with c = kappa^2 tau of `lagrangian.conserved`, so with phi = integral of Omega,

    E(s) = sin(phi) D0 + cos(phi) E0,

and  xdot(s) = -kappa^2 p / |p|^2 - (sqrt(|p|^2 - kappa^4)/|p|) E(s).
The rest of the jet is read off the first integral
p = -kappa^2 T - 2 kappa_dot N - 2 kappa tau B (Langer & Singer's constant
field at lambda = 0): xdddot = -(p + 3 kappa^2 xdot)/2, and with
V = p + kappa^2 xdot, |V| = w = sqrt(|p|^2 - kappa^4),
xddot = (2 kappa/w^2)(kappa tau xdot x V - kappa_dot V).

(The rotation rate carries a factor 1/2 and the orientation above; both are
fixed against direct integration of the fourth-order dynamics, which the
test suite enforces.)  Planar motion (tau = 0) has a constant binormal and a
closed form; the motion is a straight line exactly where p = 0.
"""

import enum

import numpy as np

from .frenet import curvature, require_frame
from .geometry import CurveTrace, cross, dot, norm, vec3
from .lagrangian import conserved_momenta
from .ode import cumulative_hermite
from .scalar import integrate_scalar, torsion_from_c

# Relative floor for |p|^2 - kappa^4; below it xdot is numerically parallel
# to p and the generic branch is invalid.
DENOMINATOR_FLOOR = 1e-10


class Branch(enum.Enum):
    GENERIC = "generic"
    PLANAR = "planar"
    DEGENERATE_LINE = "degenerate_line"


def classify_case(cs, kappa0, tau0):
    """Pick the reconstruction branch for the given invariants.

    The line is p = 0; any other jet needs a frame (frenet.require_frame).
    GENERIC has tau != 0, PLANAR tau = 0 (p != 0 is then not parallel to B).
    """
    if norm(cs.p) == 0.0:
        return Branch.DEGENERATE_LINE
    require_frame(abs(kappa0))
    if abs(tau0) > 1e-12:
        return Branch.GENERIC
    return Branch.PLANAR


def frame_DE(j, p):
    """Unit vectors along xdot x p and (xdot x p) x p.

    Both are orthogonal to p; they fail to exist when xdot is parallel to p
    (equivalently |p|^2 = kappa^4 on solutions), which raises ValueError.
    """
    p = vec3(p)
    p2 = dot(p, p)
    u = cross(j.xdot, p)
    u2 = dot(u, u)
    if u2 <= DENOMINATOR_FLOOR * p2:
        raise ValueError("xdot parallel to p: no rotating frame, use the planar/line branch")
    D = u / np.sqrt(u2)
    v = cross(u, p)
    E = v / norm(v)
    return D, E


def phase_phi(kappa, kappa_dot, cs, step):
    """Accumulated rotation angle phi(s) of the (D, E) frame on the grid, by
    the cubic Hermite rule with Omega' = -8c |p| kappa^3 kappa_dot/(|p|^2 - kappa^4)^2."""
    kappa = np.asarray(kappa, dtype=float)
    p2 = dot(cs.p, cs.p)
    scale = -4.0 * cs.c * np.sqrt(p2)
    denom = p2 - kappa**4
    if np.any(denom <= DENOMINATOR_FLOOR * p2):
        raise ValueError("|p|^2 - kappa^4 hit the floor: generic branch invalid")
    rate = scale / (2.0 * denom)
    rate_dot = 2.0 * scale * kappa**3 * np.asarray(kappa_dot, dtype=float) / denom**2
    return cumulative_hermite(step, rate, rate_dot)


def reconstruct_curve(kappa_samples, kappa_dot_samples, cs, x0, D0, E0, step, t0=0.0):
    """Generic-branch reconstruction from kappa(s) and the conserved set.

    The jet comes from
        xdot(s) = -kappa^2 p/|p|^2 - (sqrt(|p|^2-kappa^4)/|p|) E(s)
    and, for xddot and xdddot, the first integral p (module docstring);
    positions are its quintic Hermite quadrature with xddot and xdddot.
    Returns a jet CurveTrace.
    """
    kappa = np.asarray(kappa_samples, dtype=float)
    kappa_dot = np.asarray(kappa_dot_samples, dtype=float)
    x0 = vec3(x0)
    D0 = vec3(D0)
    E0 = vec3(E0)
    p = cs.p
    p2 = dot(p, p)
    if p2 == 0.0:
        raise ValueError("p = 0: degenerate branch")

    phi = phase_phi(kappa, kappa_dot, cs, step)
    E = np.outer(np.sin(phi), D0) + np.outer(np.cos(phi), E0)

    w = np.sqrt(p2 - kappa**4)
    tau = torsion_from_c(kappa, cs.c)
    xdot = -np.outer(kappa**2 / p2, p) - (w / np.sqrt(p2))[:, None] * E

    # V = -2(kappa_dot N + kappa tau B) and xdot x V = 2(kappa tau N - kappa_dot B).
    V = p + (kappa**2)[:, None] * xdot
    twist = (kappa * tau)[:, None] * cross(xdot, V)
    xddot = (2.0 * kappa / w**2)[:, None] * (twist - kappa_dot[:, None] * V)
    xdddot = -0.5 * (p + 3.0 * (kappa**2)[:, None] * xdot)
    x = x0 + cumulative_hermite(step, xdot, xddot, xdddot)

    meta = {"gauge": "arclength", "integrator": "reconstruct"}
    return CurveTrace(step, np.hstack([x, xdot, xddot, xdddot]), t0=t0, metadata=meta)


def reconstruct_planar(kappa_samples, kappa_dot_samples, cs, x0, B, step, t0=0.0):
    """Planar-branch reconstruction with constant binormal B.

    Uses <x, p> = <x0, p> - integral(kappa^2), by the cubic Hermite rule
    with (kappa^2)' = 2 kappa kappa_dot, and
    <x, p x B> = <x0, p x B> + 2 kappa(s0) - 2 kappa(s); kappa may be signed
    (planar curvature changes sign at inflections).
    """
    kappa = np.asarray(kappa_samples, dtype=float)
    kappa_dot = np.asarray(kappa_dot_samples, dtype=float)
    x0 = vec3(x0)
    B = vec3(B)
    p = cs.p
    pxB = cross(p, B)
    q2 = dot(pxB, pxB)
    if q2 == 0.0:
        raise ValueError("p x B = 0: the motion is a straight line")
    p2 = dot(p, p)

    ksq_int = cumulative_hermite(step, kappa**2, 2.0 * kappa * kappa_dot)
    x = (
        x0
        - np.outer(ksq_int / p2, p)
        + np.outer((2.0 * kappa[0] - 2.0 * kappa) / q2, pxB)
    )
    # T and N in the constant basis (p, p x B):  p = -kappa^2 T - 2 kappa_dot N
    # and p x B = -2 kappa_dot T + kappa^2 N.
    T = np.outer(-(kappa**2) / p2, p) + np.outer(-2.0 * kappa_dot / q2, pxB)
    N = np.outer(-2.0 * kappa_dot / p2, p) + np.outer(kappa**2 / q2, pxB)
    xddot = kappa[:, None] * N
    xdddot = -0.5 * (p + 3.0 * (kappa**2)[:, None] * T)

    data = np.hstack([x, T, xddot, xdddot])
    return CurveTrace(
        step, data, t0=t0, metadata={"gauge": "arclength", "integrator": "reconstruct_planar"}
    )


def reconstruct_line(x0, tangent, step, count, t0=0.0):
    """Degenerate branch: straight line along the tangent of an arclength jet."""
    x0 = vec3(x0)
    t_hat = vec3(tangent) / norm(tangent)
    arc = (step * np.arange(count + 1))[:, None]
    data = np.hstack([x0 + arc * t_hat, np.tile(t_hat, (count + 1, 1)), np.zeros((count + 1, 6))])
    return CurveTrace(
        step, data, t0=t0, metadata={"gauge": "arclength", "integrator": "reconstruct_line"}
    )


def reduce_jet(j0, cs):
    """Reduce an arclength jet with conserved set cs to the curvature problem.

    Returns (branch, kappa0, kappa_dot0, c).  The torsion constant c is
    cs.c on the generic branch and exactly 0 on the others, where the jet
    gives it only to roundoff; a line reduces to kappa = kappa_dot = 0.
    """
    kappa0, kappa_dot0, tau0 = (float(v) for v in curvature(j0.xdot, j0.xddot, j0.xdddot))
    branch = classify_case(cs, kappa0, tau0)
    c = cs.c if branch is Branch.GENERIC else 0.0
    return branch, kappa0, kappa_dot0, c


def reduce_and_reconstruct(j0, step, count):
    """Full scalar-reduction pipeline from an arclength initial jet.

    Reduces the jet (reduce_jet), evaluates the exact curvature with the
    matching torsion constant, and rebuilds x(s) on the branch the invariants
    select.  The result is grid-compatible with direct integration of the
    fourth-order dynamics from the same jet.
    """
    cs = conserved_momenta(j0)
    branch, kappa0, kappa_dot0, c = reduce_jet(j0, cs)
    if branch is Branch.DEGENERATE_LINE:
        return reconstruct_line(j0.x, j0.xdot, step, count, t0=j0.t), branch

    _, kappa, kappa_dot = integrate_scalar(kappa0, kappa_dot0, c, step, count)

    if branch is Branch.GENERIC:
        D0, E0 = frame_DE(j0, cs.p)
        trace = reconstruct_curve(
            kappa, kappa_dot, cs, j0.x, D0, E0, step, t0=j0.t
        )
    else:
        B = cross(j0.xdot, j0.xddot) / kappa0
        trace = reconstruct_planar(kappa, kappa_dot, cs, j0.x, B, step, t0=j0.t)
    return trace, branch
