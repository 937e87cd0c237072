"""Reduced scalar dynamics of curvature: the curvature equation, free or
length-constrained, solved in closed form.

With c = kappa^2 tau (constant along solutions; from a jet it is
lagrangian.conserved's <xdot x xddot, xdddot>), the free elastica is the
lambda = 0, j = -4c case of closed.constrained_scalar_rhs,

    kappa_ddot = -kappa^3/2 + c^2/kappa^3,

and of closed.foltinek_invariant.  With u = kappa^2 the quadrature relation
becomes the cubic first integral

    u'^2 = -u^3 + 2 lambda u^2 + (C^2 - lambda^2) u - j^2/4
         = (u3 - u)(u - u2)(u - u1),

whose roots u1 <= u2 <= u3 give (Langer & Singer, J. London Math. Soc. 1984)

    u(s) = u3 - (u3 - u2) sn^2(w s + z0 | m),  w = sqrt(u3 - u1)/2,
    m = (u3 - u2)/(u3 - u1).

For c = 0 and u1 < 0 = u2 the curvature is signed and passes through zero:
kappa = sqrt(u3) cn(w s + z0 | m).  For c != 0 the first integral forbids
kappa -> 0, so a start at the curvature floor is a numeric failure.
"""

import math

import numpy as np

from . import ode
from .closed import constrained_scalar_rhs
from .frenet import KAPPA_MIN


def torsion_from_c(kappa, c):
    """tau = c / kappa^2, broadcast over kappa (0 when c = 0, even at kappa = 0)."""
    kappa = np.asarray(kappa, dtype=float)
    if c == 0.0:
        return np.zeros_like(kappa)
    if np.any(np.abs(kappa) <= KAPPA_MIN):
        raise ValueError(f"kappa <= {KAPPA_MIN} with c = {c}: torsion singular")
    return c / kappa**2


def _carlson_rf(x, y, z):
    """Carlson's R_F(x, y, z) by duplication (Carlson, Numer. Algorithms 1995)."""
    for _ in range(100):
        mean = (x + y + z) / 3.0
        if max(abs(mean - x), abs(mean - y), abs(mean - z)) <= 1e-3 * mean:
            break
        lam = math.sqrt(x * y) + math.sqrt(y * z) + math.sqrt(z * x)
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
    dx, dy = 1.0 - x / mean, 1.0 - y / mean
    dz = -dx - dy
    e2, e3 = dx * dy - dz * dz, dx * dy * dz
    return (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / math.sqrt(mean)


def _elliptic_f(phi, m, m1):
    """Incomplete elliptic integral F(phi | m) for 0 <= phi <= pi; m1 = 1 - m."""
    if phi > 0.5 * math.pi:  # F(phi) = 2K - F(pi - phi)
        return 2.0 * _carlson_rf(0.0, m1, 1.0) - _elliptic_f(math.pi - phi, m, m1)
    sin, cos = math.sin(phi), math.cos(phi)
    return sin * _carlson_rf(cos * cos, m1 + m * cos * cos, 1.0)


def _jacobi_sn_cn(z, m, m1):
    """sn(z | m) and cn(z | m) over an array z by the descending AGM
    (Abramowitz & Stegun 16.4); m1 = 1 - m."""
    if m1 == 0.0:
        return np.tanh(z), 1.0 / np.cosh(z)
    a, b, c = [1.0], math.sqrt(m1), [math.sqrt(m)]
    while c[-1] > 2.0**-53 * a[-1]:
        c.append(0.5 * (a[-1] - b))
        a.append(0.5 * (a[-1] + b))
        b = math.sqrt(a[-2] * b)
    phi = 2.0 ** (len(a) - 1) * a[-1] * np.asarray(z, dtype=float)
    for n in range(len(a) - 1, 0, -1):
        phi = 0.5 * (phi + np.arcsin(c[n] / a[n] * np.sin(phi)))
    return np.sin(phi), np.cos(phi)


def _roots(kappa0, kappa_dot0, c, lam):
    """Roots u1 <= u2 <= u3 of the cubic first integral for these initial data.

    Its linear coefficient C^2 - lam^2 is summed from the data without
    cancelling lam^2.  For c = 0 the cubic factors as u (u^2 - 2 lam u -
    (C^2 - lam^2)): the quadratic's smaller root is the product over the
    larger.  Otherwise u1 < 0 is a simple root, found in trigonometric form
    and polished by Newton; u3 follows from (u3 - u)(u - u2) = u'^2/(u - u1)
    at u = kappa0^2, which stays accurate when u2 and u3 nearly coincide.  u2
    is their midpoint less their half-gap unless that cancels (to a negative
    number when u2 is tiny); then it is the root product d / (u1 u3), whose
    tiny u1 and d are both accurate in relative terms.  Where c * c
    underflows (d = 0) the cubic factors as for c = 0.
    """
    u0 = kappa0 * kappa0
    twist = 4.0 * c * c / u0 if c else 0.0  # j^2 / (4 kappa0^2)
    b = 4.0 * kappa_dot0**2 + u0 * (u0 - 2.0 * lam) + twist
    a, d = 2.0 * lam, -4.0 * c * c
    if d == 0.0:
        big = lam + math.copysign(math.sqrt(4.0 * kappa_dot0**2 + (lam - u0) ** 2), lam)
        return tuple(sorted((0.0, -b / big, big)))
    # u^3 - a u^2 - b u - d with u = t + a/3 is t^3 + p t + q.
    p = -b - a * a / 3.0
    q = -d - a * b / 3.0 - 2.0 * a**3 / 27.0
    radius = 2.0 * math.sqrt(-p / 3.0)
    angle = math.acos(max(-1.0, min(1.0, -4.0 * q / radius**3)))
    u1 = a / 3.0 + radius * math.cos((angle + 2.0 * math.pi) / 3.0)
    for _ in range(3):
        slope = (3.0 * u1 - 2.0 * a) * u1 - b
        if slope != 0.0:
            u1 -= (((u1 - a) * u1 - b) * u1 - d) / slope
    mid = 0.5 * (a - u1)
    half = math.sqrt((u0 - mid) ** 2 + 4.0 * u0 * kappa_dot0**2 / (u0 - u1))
    u3 = mid + half
    u2 = mid - half if mid - half >= 0.5 * mid else d / (u1 * u3)
    return u1, u2, u3


def integrate_scalar(kappa0, kappa_dot0, c, step, count, lam=0.0):
    """Exact curvature on the grid s = step * i, i = 0..count, under the
    curvature equation with torsion constant c and multiplier lam (0 for the
    free elastica); returns (s, kappa, kappa_dot) arrays.

    Raises ode.IntegrationError when c != 0 and kappa0 is at the curvature
    floor, where the torsion is singular.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    if count < 1:
        raise ValueError("count must be >= 1")
    if c != 0.0 and abs(kappa0) <= KAPPA_MIN:
        raise ode.IntegrationError(f"kappa0 = {kappa0} at the floor {KAPPA_MIN} with c = {c}")
    s = step * np.arange(count + 1)
    kappa = np.full(count + 1, float(kappa0))
    kappa_dot = np.zeros(count + 1)
    if kappa_dot0 == 0.0 and constrained_scalar_rhs(kappa0, 0.0, lam, -4.0 * c)[1] == 0.0:
        return s, kappa, kappa_dot  # an equilibrium: the roots are degenerate
    u1, u2, u3 = _roots(kappa0, kappa_dot0, c, lam)
    signed = c == 0.0 and u1 < 0.0
    # m1 = 1 - m from the roots keeps its digits near the separatrix (m -> 1).
    m, m1 = (u3 - u2) / (u3 - u1), (u2 - u1) / (u3 - u1)
    w = 0.5 * math.sqrt(u3 - u1)
    # Amplitude of the start: sn^2 = (u3 - u0)/(u3 - u2), cn^2 = (u0 - u2)/(u3 - u2).
    # Near a turning point the smaller difference is taken from
    # u'(0)^2 = 4 u0 kappa_dot0^2 = (u3 - u0)(u0 - u2)(u0 - u1), not by cancellation.
    u0 = kappa0 * kappa0
    q = 4.0 * u0 * kappa_dot0**2
    top, bottom = max(u3 - u0, 0.0), max(u0 - u2, 0.0)
    if top < bottom:
        top = q / (bottom * (u0 - u1)) if q else 0.0
    else:
        bottom = q / (top * (u0 - u1)) if q else 0.0
    amp = math.atan2(math.sqrt(top), kappa0 if signed else math.sqrt(bottom))
    # |kappa| falls on [0, K] (kappa itself on [0, 2K] when signed).
    rising = kappa_dot0 > 0.0 if signed else kappa0 * kappa_dot0 > 0.0
    z0 = _elliptic_f(amp, m, m1)
    sn, cn = _jacobi_sn_cn(w * s + (-z0 if rising else z0), m, m1)
    dn = np.sqrt(m1 + m * cn * cn)
    if signed:
        root = math.sqrt(u3)
        kappa[1:] = root * cn[1:]
        kappa_dot[1:] = -root * w * (sn * dn)[1:]
    else:
        kappa[1:] = math.copysign(1.0, kappa0) * np.sqrt(u2 + (u3 - u2) * cn[1:] ** 2)
        kappa_dot[1:] = -(u3 - u2) * w * (sn * cn * dn)[1:] / kappa[1:]
    kappa_dot[0] = kappa_dot0
    return s, kappa, kappa_dot
