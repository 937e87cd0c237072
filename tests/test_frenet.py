import numpy as np
import pytest

from elastica_lab import closed, frenet, lagrangian
from elastica_lab.geometry import STANDARD_FRAME, FrenetFrame, JetState

from conftest import frame_jet

SQ2 = np.sqrt(2.0)

HELIX_JET = JetState(
    0.0,
    [1.0, 0.0, 0.0],
    [0.0, 1.0 / SQ2, 1.0 / SQ2],
    [-0.5, 0.0, 0.0],
    [0.0, -1.0 / (2.0 * SQ2), 0.0],
)

PLANAR_JET = JetState(0.0, [0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 0, 0])


def test_helix_frame():
    f = frenet.frenet_frame(HELIX_JET)
    assert f.kappa == pytest.approx(0.5, abs=1e-12)
    assert f.tau == pytest.approx(0.5, abs=1e-12)


def test_planar_frame():
    f = frenet.frenet_frame(PLANAR_JET)
    assert f.kappa == pytest.approx(1.0, abs=1e-15)
    assert f.tau == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(f.B, [0, 0, 1], atol=1e-15)


def test_frame_needs_curvature():
    line = JetState(0.0, [0, 0, 0], [1, 0, 0], [0, 0, 0], [0, 0, 0])
    with pytest.raises(ValueError, match="no Frenet frame at the curvature floor"):
        frenet.frenet_frame(line)


def test_frame_needs_arclength():
    with pytest.raises(ValueError, match="off the arclength submanifold"):
        frenet.frenet_frame(JetState(0.0, [0, 0, 0], [2, 0, 0], [0, 1, 0], [0, 0, 0]))


def test_frame_orthonormal_on_random_jets():
    rng = np.random.default_rng(5)
    for _ in range(20):
        j = frame_jet(rng.uniform(0.2, 2.0), rng.uniform(-1, 1), rng.uniform(-1, 1))
        f = frenet.frenet_frame(j)
        gram = np.array([f.T, f.N, f.B]) @ np.array([f.T, f.N, f.B]).T
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-10)


def test_jet_from_frame_planar():
    T, N, B = STANDARD_FRAME
    f = FrenetFrame(T=T, N=N, B=B, kappa=1.0, tau=0.0)
    j = frenet.jet_from_frame(np.zeros(3), f, 0.0)
    np.testing.assert_allclose(j.xdot, PLANAR_JET.xdot, atol=1e-15)
    np.testing.assert_allclose(j.xddot, PLANAR_JET.xddot, atol=1e-15)
    np.testing.assert_allclose(j.xdddot, PLANAR_JET.xdddot, atol=1e-15)


def test_jet_from_frame_satisfies_arclength_exactly():
    j = frame_jet(1.0, 0.3, 0.2)
    assert all(abs(d) <= 1e-15 for d in j.arclength_defects())
    assert np.dot(j.xdot, j.xdddot) == pytest.approx(-1.0, abs=1e-15)


def test_frame_jet_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(20):
        kappa = rng.uniform(0.2, 2.0)
        kappa_dot = rng.uniform(-1, 1)
        tau = rng.uniform(-1, 1)
        j = frame_jet(kappa, kappa_dot, tau)
        f = frenet.frenet_frame(j)
        assert f.kappa == pytest.approx(kappa, abs=1e-12)
        assert f.tau == pytest.approx(tau, abs=1e-12)
        back = frenet.jet_from_frame(j.x, f, kappa_dot)
        np.testing.assert_allclose(back.xdddot, j.xdddot, atol=1e-12)


def test_binormal_identity():
    # xdot cross xddot = kappa B on arclength jets.
    rng = np.random.default_rng(13)
    for _ in range(20):
        j = frame_jet(rng.uniform(0.2, 2.0), rng.uniform(-1, 1), rng.uniform(-1, 1))
        f = frenet.frenet_frame(j)
        np.testing.assert_allclose(
            np.cross(j.xdot, j.xddot), f.kappa * f.B, atol=1e-12
        )


def test_fourth_derivative_static_circle():
    T, N, B = STANDARD_FRAME
    f = FrenetFrame(T=T, N=N, B=B, kappa=1.0, tau=0.0)
    np.testing.assert_allclose(
        frenet.fourth_derivative_frame(f, 0.0, 0.0, 0.0), [0, -1, 0], atol=1e-15
    )


def test_fourth_derivative_zero_rates_tau_equals_kappa():
    T, N, B = STANDARD_FRAME
    kappa = 0.8
    f = FrenetFrame(T=T, N=N, B=B, kappa=kappa, tau=kappa)
    expected = (0.0 - kappa**3 - kappa * kappa**2) * f.N
    np.testing.assert_allclose(
        frenet.fourth_derivative_frame(f, 0.0, 0.0, 0.0), expected, atol=1e-14
    )


def test_fourth_derivative_matches_dynamics_on_shell():
    # With kappa_ddot from the curvature equation and tau_dot from the
    # torsion transport law, the frame expression reproduces the
    # Euler-Lagrange fourth derivative.
    rng = np.random.default_rng(17)
    for _ in range(20):
        kappa = rng.uniform(0.3, 1.8)
        kappa_dot = rng.uniform(-1, 1)
        tau = rng.uniform(-1, 1)
        j = frame_jet(kappa, kappa_dot, tau)
        f = frenet.frenet_frame(j)
        c = kappa**2 * tau
        _, kappa_ddot = closed.constrained_scalar_rhs(kappa, kappa_dot, 0.0, -4.0 * c)
        tau_dot = -2.0 * kappa_dot * tau / kappa
        frame_x4 = frenet.fourth_derivative_frame(f, kappa_dot, kappa_ddot, tau_dot)
        np.testing.assert_allclose(frame_x4, lagrangian._flat_rhs(0.0, j.to_array())[9:12], atol=1e-12)


def test_curvature_kernel_matches_frame_rows(standard_trace_5):
    tr = standard_trace_5
    kappa, kappa_dot, tau = frenet.curvature(tr.xdot, tr.xddot, tr.xdddot)
    for i, j in enumerate(tr.samples):
        f = frenet.frenet_frame(j)
        assert kappa[i] == pytest.approx(f.kappa, abs=1e-15)
        assert tau[i] == pytest.approx(f.tau, abs=1e-15)
    # Below the floor the torsion is an exact zero and the rate is the norm of
    # xdddot's part normal to xdot, the limit of the rate away from an inflection.
    low = frenet.curvature(tr.xdot, 1e-9 * tr.xddot, tr.xdddot)
    np.testing.assert_allclose(low[0], 1e-9 * kappa, rtol=1e-15)
    normal = tr.xdddot - np.sum(tr.xdddot * tr.xdot, axis=1)[:, None] * tr.xdot
    np.testing.assert_allclose(low[1], np.linalg.norm(normal, axis=1), rtol=1e-15)
    np.testing.assert_array_equal(low[2], 0.0)
