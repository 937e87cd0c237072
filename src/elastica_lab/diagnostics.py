"""Vectorized invariant evaluation along stored traces.

Everything here re-derives per-sample quantities from the trace alone, so a
trace written to disk and read back can be audited without its generator.
Used by the CLI `invariants` report and by the test suite.

No report row reads H, <p_xdot, xdot> or c + <l, p>/4: they vanish on every
jet by the lab's own formulas.  c is `conserved`'s, and l, whose x cross p
part rounds with |x|, is read for l_drift alone.
"""

import numpy as np

from .closed import quadrature_residual
from .frenet import KAPPA_MIN, curvature
from .geometry import arclength_conditions, dot
from .hamiltonian import constraints
from .lagrangian import central_el_residual, conserved, momenta

# The acceptance values for a standard run, per invariant_report residual.
TOLERANCES = {
    "arclength": 1e-8,
    "el_residual": 1e-5,
    "p_drift": 1e-8,
    "l_drift": 1e-8,
    "c_drift": 1e-8,
    "scalar5": 1e-8,
    "xdot_p": 1e-8,
    "first_integral": 1e-8,
}

# Two parameter values closer than this lie on one grid: the steps or start
# points of two traces, or, scaled by max(1, |s|), the spacing of a stored
# trace's s column against its step.
GRID_TOL = 1e-12


def arclength_defects(trace):
    """Per-sample residuals of the three arclength conditions, (N, 3)."""
    return arclength_conditions(trace.xdot, trace.xddot, trace.xdddot)


def _momenta(trace):
    return momenta(trace.xdot, trace.xddot, trace.xdddot)


def _conserved(trace, p_x, p_xdot):
    return conserved(trace.x, trace.xdot, trace.xddot, trace.xdddot, p_x, p_xdot)


def momentum_arrays(trace):
    """Per-sample conserved quantities of an arclength trace.

    Returns (p, l, H, c) with shapes (N,3), (N,3), (N,), (N,).
    """
    return _conserved(trace, *_momenta(trace))


def curvature_arrays(trace):
    """Per-sample (kappa, kappa_dot, tau) by frenet.curvature; at or below the
    curvature floor tau is 0 and kappa_dot the rate away from an inflection."""
    return curvature(trace.xdot, trace.xddot, trace.xdddot)


def el_residual_array(trace):
    """Central-difference Euler-Lagrange residual at indices 1..N-2, (N-2, 3)."""
    return central_el_residual(_momenta(trace)[0], trace.step)


def relative_drift(values):
    """max |v(s) - v(0)| / max(1, |v(0)|), rows of a (N,) or (N, k) array."""
    values = np.asarray(values, dtype=float)
    dev = np.abs(values - values[0])
    if dev.ndim > 1:
        dev = np.linalg.norm(dev, axis=1)
        scale = max(1.0, float(np.linalg.norm(values[0])))
    else:
        scale = max(1.0, abs(float(values[0])))
    return float(np.max(dev)) / scale


def _curvature_identities(xdot, p, c, kappa, kappa_dot):
    """Per-sample (scalar5, xdot_p, first_integral): the lambda = 0 quadrature
    relation with |c| = |p| and j = -4c, <xdot, p> + kappa^2, and 4x the
    deviation of kappa_dot^2 + kappa^4/4 + c0^2/kappa^2 from |p0|^2/4.

    At or below KAPPA_MIN j is 0: there frenet.curvature's kappa_dot is
    |xdddot| normal to xdot, which already holds the twist kappa tau."""
    above = kappa > KAPPA_MIN
    j, j0 = np.where(above, -4.0 * c, 0.0), np.where(above, -4.0 * c[0], 0.0)
    scalar5 = quadrature_residual(kappa, kappa_dot, 0.0, dot(p, p), j)
    first_integral = quadrature_residual(kappa, kappa_dot, 0.0, dot(p[0], p[0]), j0)
    return scalar5, dot(xdot, p) + kappa**2, first_integral


def scalar_identity_residuals(trace):
    """Pointwise residuals of the reduced-scalar identities, per sample:

    scalar4: kappa^2 tau + <l,p>/4
    scalar5: the quadrature relation at lambda = 0, |c| = |p| and j = -4c
    xdot_p:  <xdot, p> + kappa^2
    """
    p, l, _, c = momentum_arrays(trace)
    kappa, kappa_dot, _ = curvature_arrays(trace)
    scalar5, xdot_p, _ = _curvature_identities(trace.xdot, p, c, kappa, kappa_dot)
    return c + 0.25 * dot(l, p), scalar5, xdot_p


def position_discrepancy(trace_a, trace_b):
    """Sup over samples of |x_a - x_b| for traces on one grid: the same
    length, step and start point within GRID_TOL."""
    if len(trace_a) != len(trace_b):
        raise ValueError("traces have different lengths")
    if abs(trace_a.step - trace_b.step) > GRID_TOL:
        raise ValueError("traces have different steps")
    if abs(trace_a.t0 - trace_b.t0) > GRID_TOL:
        raise ValueError("traces have different start points")
    xa = trace_a.positions()
    xb = trace_b.positions()
    return float(np.max(np.linalg.norm(xa - xb, axis=1)))


def phase_constraint_arrays(trace):
    """(p_t, <p_xdot, xdot>, h) per sample of a phase trace, (N, 3); a phase
    trace stores p_t = 0."""
    transversality, h = constraints(trace.xdot, trace.p_x, trace.p_xdot)
    return np.stack([np.zeros(len(trace)), transversality, h], axis=1)


def invariant_report(trace):
    """Summary residuals of a jet trace, against TOLERANCES.

    Evaluates the momenta, the conserved set and the curvature arrays once
    each.  Returns (report dict, ok flag).
    """
    p_x, p_xdot = _momenta(trace)
    p, l, _, c = _conserved(trace, p_x, p_xdot)
    kappa, kappa_dot, _ = curvature_arrays(trace)
    defects = arclength_defects(trace)
    scalar5, xdot_p, fi = _curvature_identities(trace.xdot, p, c, kappa, kappa_dot)

    measured = {
        "arclength": float(np.max(np.abs(defects))),
        "p_drift": relative_drift(p),
        "l_drift": relative_drift(l),
        "c_drift": relative_drift(c),
        "scalar5": float(np.max(np.abs(scalar5))),
        "xdot_p": float(np.max(np.abs(xdot_p))),
        "first_integral": 0.25 * float(np.max(np.abs(fi))),
    }
    if len(trace) >= 5:
        el = central_el_residual(p_x, trace.step)
        measured["el_residual"] = float(np.max(np.linalg.norm(el, axis=1)))
    report = {
        "samples": len(trace),
        "step": trace.step,
        # tau has kappa^-2 amplification; samples at or below the curvature
        # floor carry a placeholder torsion and are counted, not judged.
        "torsion_low_confidence_samples": int(np.sum(kappa <= KAPPA_MIN)),
        "residuals": measured,
        "tolerances": {k: TOLERANCES[k] for k in measured},
        "violations": [k for k, v in measured.items() if v > TOLERANCES[k]],
    }
    return report, not report["violations"]
