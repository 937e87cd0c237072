"""The integrators against the exact curvature of the reference jet, and the
projection onto the constraint manifold of the Hamiltonian flow.

The bounds sit about 5x above the errors measured on the reference jet
(kappa = 1, kappa_dot = 0.3, tau = 0.2): 8.7e-12 for direct RK4, 9e-13 for
the RK4 flow and under 1e-13 for the projected Dormand-Prince flow.
"""

import numpy as np
import pytest

from elastica_lab import frenet, hamiltonian, lagrangian, reconstruct, scalar
from elastica_lab.geometry import dot


def kappa_error(trace, jet):
    """max |kappa - closed form| over a jet or phase trace started at `jet`."""
    jets = hamiltonian.jet_trace(trace) if trace.kind == "phase" else trace
    kappa, _, _ = frenet.curvature(jets.xdot, jets.xddot, jets.xdddot)
    _, kappa0, kappa_dot0, c = reconstruct.reduce_jet(jet, lagrangian.conserved_momenta(jet))
    _, exact, _ = scalar.integrate_scalar(kappa0, kappa_dot0, c, jets.step, len(jets) - 1)
    return float(np.max(np.abs(kappa - exact)))


def test_direct_rk4_against_the_closed_form(standard_jet, standard_trace):
    assert kappa_error(standard_trace, standard_jet) <= 5e-11


def test_rk4_flow_against_the_closed_form(standard_jet, ham_trace):
    assert kappa_error(ham_trace, standard_jet) <= 5e-12


def test_projected_rk45_flow_against_the_closed_form(standard_jet):
    trace = hamiltonian.integrate_flow(
        hamiltonian.legendre(standard_jet), 5e-3, 8000, method="rk45", project=True
    )
    assert kappa_error(trace, standard_jet) <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_project_constraints_lands_on_the_manifold(seed):
    y = np.random.default_rng(seed).uniform(-1.0, 1.0, 12)
    z = np.array(hamiltonian.project_constraints(y))
    xdot, p_x, p_xdot = z[3:6], z[6:9], z[9:12]
    assert np.max(np.abs(hamiltonian.constraints(xdot, p_x, p_xdot))) <= 1e-15
    assert abs(np.sqrt(dot(xdot, xdot)) - 1.0) <= 1e-15
    np.testing.assert_array_equal(z[0:3], y[0:3])
    np.testing.assert_allclose(hamiltonian.project_constraints(z), z, rtol=0.0, atol=1e-15)
