"""The integrators against the exact curvature of the reference jet, and the
projection onto the constraint manifold of the Hamiltonian flow.

The bounds sit about 5x above the errors measured on the reference jet
(kappa = 1, kappa_dot = 0.3, tau = 0.2): 8.7e-12 for direct RK4, 9e-13 for
the RK4 flow and under 1e-13 for the projected Dormand-Prince flow.  From
the inflection point (kappa = 0, kappa_dot = 0.3) both RK4 runs stay under
2e-13.
"""

import numpy as np
import pytest

from elastica_lab import cli, frenet, hamiltonian, lagrangian, reconstruct, scalar
from elastica_lab.geometry import dot


def kappa_error(trace, jet, scalars=None):
    """max |kappa - |closed form|| over a jet or phase trace started at `jet`,
    whose (kappa0, kappa_dot0, c) are `scalars`, or else reduce_jet's."""
    jets = hamiltonian.jet_trace(trace) if trace.kind == "phase" else trace
    kappa, _, _ = frenet.curvature(jets.xdot, jets.xddot, jets.xdddot)
    if scalars is None:
        scalars = reconstruct.reduce_jet(jet, lagrangian.conserved_momenta(jet))[1:]
    _, exact, _ = scalar.integrate_scalar(*scalars, jets.step, len(jets) - 1)
    return float(np.max(np.abs(kappa - np.abs(exact))))


def test_direct_rk4_against_the_closed_form(standard_jet, standard_trace):
    assert kappa_error(standard_trace, standard_jet) <= 5e-11


def test_rk4_flow_against_the_closed_form(standard_jet, ham_trace):
    assert kappa_error(ham_trace, standard_jet) <= 5e-12


def test_projected_rk45_flow_against_the_closed_form(standard_jet):
    trace = hamiltonian.integrate_flow(
        hamiltonian.legendre(standard_jet), 5e-3, 8000, method="rk45", project=True
    )
    assert kappa_error(trace, standard_jet) <= 1e-12


# The inflection point kappa0 = 0, kappa_dot0 = 0.3 as frame data and as a
# raw jet.  kappa = |xddot| of a trace is the modulus of the signed closed form.
INFLECTION = {
    "frame": {"kappa0": 0.0, "kappa_dot0": 0.3, "tau0": 0.0},
    "raw": {"x0": [0.0, 0.0, 0.0], "xdot0": [1.0, 0.0, 0.0], "xddot0": [0.0, 0.0, 0.0], "xdddot0": [0.0, 0.3, 0.0]},
}


@pytest.mark.parametrize("form", INFLECTION)
def test_rk4_runs_from_an_inflection_point_against_the_closed_form(form):
    jet, _ = cli.initial_jet(INFLECTION[form])
    direct = lagrangian.integrate_elastica(jet, 1e-3, 10000)
    flow = hamiltonian.integrate_flow(hamiltonian.legendre(jet), 1e-3, 10000)
    assert kappa_error(direct, jet, (0.0, 0.3, 0.0)) <= 1e-12
    assert kappa_error(flow, jet, (0.0, 0.3, 0.0)) <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_project_constraints_lands_on_the_manifold(seed):
    y = np.random.default_rng(seed).uniform(-1.0, 1.0, 12)
    z = np.array(hamiltonian.project_constraints(y))
    xdot, p_x, p_xdot = z[3:6], z[6:9], z[9:12]
    assert np.max(np.abs(hamiltonian.constraints(xdot, p_x, p_xdot))) <= 1e-15
    assert abs(np.sqrt(dot(xdot, xdot)) - 1.0) <= 1e-15
    np.testing.assert_array_equal(z[0:3], y[0:3])
    np.testing.assert_allclose(hamiltonian.project_constraints(z), z, rtol=0.0, atol=1e-15)
