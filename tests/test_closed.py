import numpy as np
import pytest

from elastica_lab import closed, diagnostics, ode

from conftest import frame_jet


def test_foltinek_planar_unit_case():
    assert closed.foltinek_invariant(1.0, 0.0, 0.0, 0.0, 1.0, 0.0) == pytest.approx(0.0)


def test_foltinek_singular_floor():
    with pytest.raises(ValueError, match="invariant singular"):
        closed.foltinek_invariant(1e-9, 0.0, 0.0, 0.0, 1.0, 0.1)


def test_foltinek_vanishes_with_free_momenta(standard_trace_5):
    # The lambda = 0 identification: c = |p|, j = <l, p>.
    p, l, _, _ = diagnostics.momentum_arrays(standard_trace_5)
    kappa, kappa_dot, tau = diagnostics.curvature_arrays(standard_trace_5)
    c_norm = float(np.linalg.norm(p[0]))
    j = float(np.dot(l[0], p[0]))
    residuals = [
        closed.foltinek_invariant(k, kd, t, 0.0, c_norm, j)
        for k, kd, t in zip(kappa[::100], kappa_dot[::100], tau[::100])
    ]
    assert np.max(np.abs(residuals)) <= 1e-8


def test_angular_momentum_j():
    assert closed.angular_momentum_j(1.0, 0.0) == 0.0
    assert closed.angular_momentum_j(0.5, 0.5) == pytest.approx(-0.5)


def test_angular_momentum_matches_free_invariant(standard_trace_5):
    p, l, _, _ = diagnostics.momentum_arrays(standard_trace_5)
    kappa, _, tau = diagnostics.curvature_arrays(standard_trace_5)
    lp = float(np.dot(l[0], p[0]))
    values = closed.angular_momentum_j(kappa, tau)
    assert np.max(np.abs(values - lp)) <= 1e-8


def test_constrained_rhs_matches_shifted_curvature_equation():
    rng = np.random.default_rng(59)
    for _ in range(20):
        kappa = rng.uniform(0.3, 1.5)
        kappa_dot = rng.uniform(-1, 1)
        lam = rng.uniform(-1, 2)
        j = rng.uniform(-1, 1)
        _, kdd = closed.constrained_scalar_rhs(kappa, kappa_dot, lam, j)
        tau = -j / (4.0 * kappa**2)
        assert 2.0 * kdd + kappa**3 - 2.0 * kappa * tau**2 == pytest.approx(
            lam * kappa, abs=1e-12
        )


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_foltinek_drift_along_constrained_runs(lam):
    kappa0, kappa_dot0, tau0 = 1.0, 0.3, 0.2
    j = closed.angular_momentum_j(kappa0, tau0)
    c2 = 4.0 * kappa_dot0**2 + (lam - kappa0**2) ** 2 + j**2 / (4.0 * kappa0**2)
    c_norm = np.sqrt(c2)

    def rhs(t, y):
        return np.array(closed.constrained_scalar_rhs(y[0], y[1], lam, j))

    _, ys = ode.integrate(rhs, np.array([kappa0, kappa_dot0]), 1e-3, 5000)
    residuals = [
        closed.foltinek_invariant(k, kd, -j / (4.0 * k**2), lam, c_norm, j)
        for k, kd in ys[::50]
    ]
    assert np.max(np.abs(residuals)) <= 1e-8


def test_constrained_norm_constancy():
    # |(lambda - kappa^2)|^2 + 4 kappa'^2 + 4 kappa^2 tau^2 stays at |c|^2,
    # the norm form of the conservation statement.
    lam, j = 1.0, closed.angular_momentum_j(1.0, 0.2)

    def rhs(t, y):
        return np.array(closed.constrained_scalar_rhs(y[0], y[1], lam, j))

    _, ys = ode.integrate(rhs, np.array([1.0, 0.3]), 1e-3, 3000)
    kappa, kappa_dot = ys[:, 0], ys[:, 1]
    tau = -j / (4.0 * kappa**2)
    norms = (lam - kappa**2) ** 2 + 4.0 * kappa_dot**2 + 4.0 * kappa**2 * tau**2
    assert np.max(np.abs(norms - norms[0])) <= 1e-10


def test_foltinek_regular_at_zero_curvature_without_twist():
    assert closed.foltinek_invariant(0.0, 0.5, 0.0, 1.0, np.sqrt(2.0), 0.0) == pytest.approx(0.0, abs=1e-15)
    kappa = np.array([0.0, 0.5, 1.0])
    values = closed.foltinek_invariant(kappa, np.zeros(3), 0.0, 0.0, 0.0, 0.0)
    np.testing.assert_allclose(values, kappa**4, atol=1e-15)
