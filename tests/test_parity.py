"""Single-point API against the trace-level arrays.

Each identity has one broadcasting definition; the per-jet functions and the
trace audits both call it, so they must agree to rounding on any arclength
jets, however the trace is assembled.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from elastica_lab import diagnostics, frenet, hamiltonian, lagrangian
from elastica_lab.geometry import CurveTrace, FrenetFrame

from conftest import rotation

RTOL = 1e-14

angles = st.floats(min_value=-np.pi, max_value=np.pi)
jet_data = st.tuples(
    st.floats(min_value=0.05, max_value=3.0),  # kappa
    st.floats(min_value=-2.0, max_value=2.0),  # kappa_dot
    st.floats(min_value=-2.0, max_value=2.0),  # tau
    st.tuples(angles, angles, angles),  # frame orientation
    st.tuples(*[st.floats(min_value=-5.0, max_value=5.0)] * 3),  # x0
)


def _jet(kappa, kappa_dot, tau, angles, x0):
    T, N, B = rotation(*angles)
    f = FrenetFrame(T=T, N=N, B=B, kappa=kappa, tau=tau)
    return frenet.jet_from_frame(np.array(x0), f, kappa_dot)


def _close(single, arrays):
    single = np.asarray(single, dtype=float)
    arrays = np.asarray(arrays, dtype=float)
    scale = max(1.0, float(np.max(np.abs(arrays))))
    np.testing.assert_allclose(single, arrays, rtol=RTOL, atol=RTOL * scale)


@settings(max_examples=50, deadline=None)
@given(st.lists(jet_data, min_size=1, max_size=8))
def test_single_point_api_matches_trace_arrays(draws):
    jets = [_jet(*d) for d in draws]
    trace = CurveTrace(1.0, [j.to_array() for j in jets])

    p_x, p_xdot = lagrangian.momenta(trace.xdot, trace.xddot, trace.xdddot)
    single = [lagrangian.ostrogradski_momenta(j) for j in jets]
    _close([s[0] for s in single], p_x)
    _close([s[1] for s in single], p_xdot)

    p, l, H, c = diagnostics.momentum_arrays(trace)
    sets = [lagrangian.conserved_momenta(j) for j in jets]
    _close([cs.p for cs in sets], p)
    _close([cs.l for cs in sets], l)
    # H = <p_x,xdot> + <p_xdot,xddot> - L cancels terms much larger than
    # itself, so its rounding scales with their sizes, not with |H|; a dot
    # product rounds on the scale of |a| |b|.
    terms = (
        np.linalg.norm(p_x, axis=1) * np.linalg.norm(trace.xdot, axis=1)
        + np.linalg.norm(p_xdot, axis=1) * np.linalg.norm(trace.xddot, axis=1)
        + np.abs(lagrangian.density(trace.xdot, trace.xddot))
    )
    assert np.all(np.abs(np.array([cs.H for cs in sets]) - H) <= RTOL * terms)
    _close([cs.c for cs in sets], c)

    phases = [hamiltonian.legendre(j) for j in jets]
    phase_trace = CurveTrace(1.0, [ps.to_array() for ps in phases], kind="phase")
    _close(
        [hamiltonian.constraint_residuals(ps) for ps in phases],
        diagnostics.phase_constraint_arrays(phase_trace),
    )

    back = hamiltonian.jet_trace(phase_trace)
    singles = [hamiltonian.arclength_jet_from_phase(ps) for ps in phases]
    for name in ("x", "xdot", "xddot", "xdddot"):
        _close([getattr(j, name) for j in singles], back.stacked(name))
