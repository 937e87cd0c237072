"""Vectorized invariant evaluation along stored traces.

Everything here re-derives per-sample quantities from the trace alone, so a
trace written to disk and read back can be audited without its generator.
Used by the CLI `invariants` report and by the test suite.
"""

import numpy as np

from .closed import quadrature_residual
from .frenet import KAPPA_MIN, curvature
from .geometry import arclength_conditions, dot
from .hamiltonian import constraints
from .lagrangian import central_el_residual, conserved, momenta, reparametrization_charge

# The acceptance values for a standard run, per invariant_report residual.
TOLERANCES = {
    "arclength": 1e-8,
    "el_residual": 1e-5,
    "p_drift": 1e-8,
    "l_drift": 1e-8,
    "H_abs": 1e-10,
    "c_drift": 1e-8,
    "scalar4": 1e-8,
    "scalar5": 1e-8,
    "xdot_p": 1e-8,
    "first_integral": 1e-8,
    "repar_charge": 1e-6,
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
    """Per-sample (kappa, kappa_dot, tau) by frenet.curvature; kappa_dot and
    tau are reported as 0 below the curvature floor."""
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


def _scalar_identities(xdot, p, l, c, kappa, kappa_dot):
    lp = dot(l, p)
    scalar4 = c + 0.25 * lp
    scalar5 = quadrature_residual(kappa, kappa_dot, 0.0, dot(p, p), lp)
    xdot_p = dot(xdot, p) + kappa**2
    return scalar4, scalar5, xdot_p


def scalar_identity_residuals(trace):
    """Pointwise residuals of the reduced-scalar identities, per sample:

    scalar4: kappa^2 tau + <l,p>/4
    scalar5: the quadrature relation at lambda = 0, |c| = |p| and j = <l,p>
    xdot_p:  <xdot, p> + kappa^2
    """
    p, l, _, c = momentum_arrays(trace)
    kappa, kappa_dot, _ = curvature_arrays(trace)
    return _scalar_identities(trace.xdot, p, l, c, kappa, kappa_dot)


def reparametrization_charges(t, H, p_xdot, xdot):
    """lagrangian.reparametrization_charge for tau(t) in {1, t, e^t}, from
    per-sample parameters, Hamiltonian and momenta; (N, 3) array, one column
    per generator.

    Each column is divided by |tau| + |tau_dot|, so that the size of the
    generator does not scale up roundoff in H; for e^t that is the charge of
    (1/2, 1/2) at every t, so e^t, which overflows past t = 709.78, is never formed.
    """
    pv = dot(p_xdot, xdot)

    def k(tau, tau_dot):
        return reparametrization_charge(tau, tau_dot, H, pv)

    return np.stack([k(1.0, 0.0), k(t, 1.0) / (np.abs(t) + 1.0), k(0.5, 0.5)], axis=1)


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
    p, l, H, c = _conserved(trace, p_x, p_xdot)
    kappa, kappa_dot, _ = curvature_arrays(trace)
    defects = arclength_defects(trace)
    scalar4, scalar5, xdot_p = _scalar_identities(trace.xdot, p, l, c, kappa, kappa_dot)
    # The quadrature relation with the initial momenta: 4x the deviation of
    # kappa_dot^2 + kappa^4/4 + <l0,p0>^2/(16 kappa^2) from |p0|^2/4.
    fi = quadrature_residual(kappa, kappa_dot, 0.0, dot(p[0], p[0]), dot(l[0], p[0]))
    charges = reparametrization_charges(trace.params(), H, p_xdot, trace.xdot)

    measured = {
        "arclength": float(np.max(np.abs(defects))),
        "p_drift": relative_drift(p),
        "l_drift": relative_drift(l),
        "H_abs": float(np.max(np.abs(H))),
        "c_drift": relative_drift(c),
        "scalar4": float(np.max(np.abs(scalar4))),
        "scalar5": float(np.max(np.abs(scalar5))),
        "xdot_p": float(np.max(np.abs(xdot_p))),
        "first_integral": 0.25 * float(np.max(np.abs(fi))),
        "repar_charge": float(np.max(np.abs(charges))),
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
