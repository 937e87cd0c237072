import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elastica_lab import closed, diagnostics, lagrangian, ode, reconstruct, scalar
from elastica_lab.reconstruct import Branch
from elastica_lab.scalar import SingularTorsionError

from conftest import frame_jet, rotation


def test_torsion_from_c():
    assert scalar.torsion_from_c(1.0, 0.0) == 0.0
    assert scalar.torsion_from_c(0.5, 0.125) == pytest.approx(0.5)
    assert scalar.torsion_from_c(0.0, 0.0) == 0.0
    with pytest.raises(SingularTorsionError):
        scalar.torsion_from_c(1e-9, 1.0)


def test_scalar_rhs_values():
    # The free curvature equation is the lambda = 0, j = -4c constrained one.
    assert closed.constrained_scalar_rhs(1.0, 0.0, 0.0, 0.0) == (0.0, pytest.approx(-0.5))
    # Constant-curvature helix balance: kappa^3/2 = c^2/kappa^3.
    _, kdd = closed.constrained_scalar_rhs(1.0, 0.0, 0.0, -4.0 / np.sqrt(2.0))
    assert kdd == pytest.approx(0.0, abs=1e-15)
    assert closed.constrained_scalar_rhs(2.0, 1.0, 0.0, 0.0) == (1.0, pytest.approx(-4.0))
    with pytest.raises(SingularTorsionError):
        closed.constrained_scalar_rhs(1e-9, 0.0, 0.0, -4.0 * 0.5)


def test_first_integral_values():
    # kappa_dot^2 + kappa^4/4 + c^2/kappa^2 is a quarter of the lambda = 0,
    # j = -4c quadrature relation's left side.
    assert 0.25 * closed.foltinek_invariant(1.0, 0.0, 0.0, 0.0, 0.0, 0.0) == pytest.approx(0.25)
    assert 0.25 * closed.foltinek_invariant(0.5, 0.0, 0.0, 0.0, 0.0, -4.0 * 0.125) == pytest.approx(0.078125)
    with pytest.raises(SingularTorsionError):
        closed.foltinek_invariant(1e-9, 0.0, 0.0, 0.0, 0.0, -4.0 * 0.5)


def test_first_integral_drift():
    c = 0.2
    _, kappa, kappa_dot = scalar.integrate_scalar(1.0, 0.3, c, 1e-3, 10000)
    fi = kappa_dot**2 + 0.25 * kappa**4 + c**2 / kappa**2
    assert np.max(np.abs(fi - fi[0])) / abs(fi[0]) <= 1e-8


def test_constants_from_momenta():
    cs = lagrangian.conserved_momenta(frame_jet(1.0, 0.0, 0.0))
    c, level = scalar.constants_from_momenta(cs)
    assert c == pytest.approx(0.0, abs=1e-15)
    assert level == pytest.approx(0.25, abs=1e-14)


def test_zero_momentum_forces_flat_level(line_jet):
    cs = lagrangian.conserved_momenta(line_jet)
    c, level = scalar.constants_from_momenta(cs)
    assert c == 0.0
    assert level == 0.0


def test_first_integral_equals_momentum_level(standard_trace_5):
    p, l, _, _ = diagnostics.momentum_arrays(standard_trace_5)
    kappa, kappa_dot, _ = diagnostics.curvature_arrays(standard_trace_5)
    c = -0.25 * float(np.dot(l[0], p[0]))
    level = 0.25 * float(np.dot(p[0], p[0]))
    fi = kappa_dot**2 + 0.25 * kappa**4 + c**2 / kappa**2
    assert np.max(np.abs(fi - level)) <= 1e-8


def test_scalar_curvature_matches_full_integration(standard_trace_5):
    kappa3d, _, _ = diagnostics.curvature_arrays(standard_trace_5)
    _, kappa, _ = scalar.integrate_scalar(1.0, 0.3, 0.2, 1e-3, 5000)
    assert np.max(np.abs(kappa - kappa3d)) <= 1e-6


def test_planar_branch_crosses_zero():
    # c = 0 runs the signed-curvature equation straight through kappa = 0.
    _, kappa, _ = scalar.integrate_scalar(1.0, 0.3, 0.0, 1e-3, 5000)
    assert kappa.min() < -0.1
    assert np.sum(np.abs(np.diff(np.sign(kappa))) > 0) >= 1


def test_nonzero_c_keeps_kappa_bounded_away_from_zero():
    _, kappa, _ = scalar.integrate_scalar(1.0, 0.3, 0.2, 1e-3, 10000)
    assert kappa.min() > 0.3


def test_integrate_scalar_failure_at_floor():
    with pytest.raises(ode.IntegrationError):
        scalar.integrate_scalar(1e-9, 0.0, 0.5, 1e-3, 10)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.5, max_value=2.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.one_of(
        st.just(0.0),
        st.floats(min_value=0.2, max_value=1.0),
        st.floats(min_value=-1.0, max_value=-0.2),
    ),
    st.tuples(*[st.floats(min_value=-np.pi, max_value=np.pi)] * 3),
)
def test_reduced_arc_keeps_the_free_quadrature_relation(kappa0, kappa_dot0, tau0, angles):
    # On either branch, in any frame, the reduced curvature satisfies the
    # lambda = 0 quadrature relation with |c| = |p| and j = -4c.
    jet = frame_jet(kappa0, kappa_dot0, tau0, frame=rotation(*angles))
    cs = lagrangian.conserved_momenta(jet)
    branch, k0, kd0, c = reconstruct.reduce_jet(jet, cs)
    assert branch is (Branch.PLANAR if tau0 == 0.0 else Branch.GENERIC)
    _, kappa, kappa_dot = scalar.integrate_scalar(k0, kd0, c, 1e-3, 200)
    p_norm = np.linalg.norm(cs.p)
    residual = closed.foltinek_invariant(kappa, kappa_dot, 0.0, 0.0, p_norm, -4.0 * c)
    assert np.max(np.abs(residual)) <= 1e-8 * max(1.0, p_norm**2)
