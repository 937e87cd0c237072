import numpy as np
import pytest

from elastica_lab import diagnostics, lagrangian, reconstruct, scalar
from elastica_lab.geometry import ConservedSet
from elastica_lab.reconstruct import Branch

from conftest import frame_jet


def test_classify_generic():
    cs = ConservedSet(p=[-1, -2, 0], l=[0, 1, 1], H=0.0, c=0.3)
    assert reconstruct.classify_case(cs, 1.0, 0.3) is Branch.GENERIC


def test_classify_planar():
    cs = ConservedSet(p=[-1, 0, 0], l=[0, 0, 2], H=0.0, c=0.0)
    assert reconstruct.classify_case(cs, 1.0, 0.0) is Branch.PLANAR


def test_classify_line():
    cs = ConservedSet(p=[0, 0, 0], l=[0, 0, 0], H=0.0, c=0.0)
    assert reconstruct.classify_case(cs, 0.0, 0.0) is Branch.DEGENERATE_LINE
    assert reconstruct.classify_case(cs, 1.0, 0.0) is Branch.DEGENERATE_LINE


def test_classify_refuses_a_floor_jet_with_momentum():
    # kappa0 = 0 with p != 0 is an inflection point, which has no frame.
    cs = ConservedSet(p=[0, -0.6, 0], l=[0, 0, 0], H=0.0, c=0.0)
    with pytest.raises(ValueError, match="no Frenet frame at the curvature floor"):
        reconstruct.classify_case(cs, 0.0, 0.0)


def test_frame_de_planar_with_curvature_rate():
    # kappa=1, kappa_dot=1, tau=0 gives p=(-1,-2,0) and D = -B.
    j = frame_jet(1.0, 1.0, 0.0)
    cs = lagrangian.conserved_momenta(j)
    np.testing.assert_allclose(cs.p, [-1, -2, 0], atol=1e-14)
    D, E = reconstruct.frame_DE(j, cs.p)
    np.testing.assert_allclose(D, [0, 0, -1], atol=1e-14)


def test_frame_de_orthonormal_and_perpendicular_to_p():
    rng = np.random.default_rng(31)
    for _ in range(20):
        j = frame_jet(rng.uniform(0.3, 1.5), rng.uniform(-1, 1), rng.uniform(0.1, 1))
        cs = lagrangian.conserved_momenta(j)
        D, E = reconstruct.frame_DE(j, cs.p)
        assert np.linalg.norm(D) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(E) == pytest.approx(1.0, abs=1e-10)
        assert np.dot(D, E) == pytest.approx(0.0, abs=1e-10)
        assert np.dot(D, cs.p) == pytest.approx(0.0, abs=1e-10)
        assert np.dot(E, cs.p) == pytest.approx(0.0, abs=1e-10)


def test_frame_de_length_identity():
    # |xdot cross p| = sqrt(|p|^2 - kappa^4) on solution jets.
    rng = np.random.default_rng(37)
    for _ in range(20):
        kappa = rng.uniform(0.3, 1.5)
        j = frame_jet(kappa, rng.uniform(-1, 1), rng.uniform(0.1, 1))
        cs = lagrangian.conserved_momenta(j)
        u = np.cross(j.xdot, cs.p)
        p2 = np.dot(cs.p, cs.p)
        assert np.linalg.norm(u) == pytest.approx(np.sqrt(p2 - kappa**4), abs=1e-10)


def test_frame_de_degenerate():
    # kappa_dot = 0, tau = 0 puts p parallel to xdot.
    j = frame_jet(1.0, 0.0, 0.0)
    cs = lagrangian.conserved_momenta(j)
    with pytest.raises(ValueError, match="xdot parallel to p"):
        reconstruct.frame_DE(j, cs.p)


def test_phase_phi_zero_for_planar_momenta():
    cs = ConservedSet(p=[-1, 0, 0], l=[0, 0, 2], H=0.0, c=0.0)
    phi = reconstruct.phase_phi(np.full(11, 0.5), np.zeros(11), cs, 0.1)
    np.testing.assert_array_equal(phi, np.zeros(11))


def test_phase_phi_starts_at_zero(standard_jet):
    cs = lagrangian.conserved_momenta(standard_jet)
    _, kappa, kappa_dot = scalar.integrate_scalar(1.0, 0.3, 0.2, 1e-3, 100)
    phi = reconstruct.phase_phi(kappa, kappa_dot, cs, 1e-3)
    assert phi[0] == 0.0


def test_phase_phi_denominator_floor():
    cs = ConservedSet(p=[1, 0, 0], l=[0, 0, 0], H=0.0, c=0.0)
    with pytest.raises(ValueError, match="hit the floor"):
        reconstruct.phase_phi(np.array([0.9, 1.0, 1.0]), np.zeros(3), cs, 0.1)


def test_rotating_frame_matches_direct_integration(standard_jet, standard_trace_5):
    # The oracle that pins the rotation rate's factor and sign: frames from
    # the independently integrated fourth-order solution.
    cs = lagrangian.conserved_momenta(standard_jet)
    _, kappa, kappa_dot = scalar.integrate_scalar(1.0, 0.3, 0.2, 1e-3, 5000)
    phi = reconstruct.phase_phi(kappa, kappa_dot, cs, 1e-3)
    D0, E0 = reconstruct.frame_DE(standard_jet, cs.p)
    D = np.outer(np.cos(phi), D0) - np.outer(np.sin(phi), E0)
    worst = 0.0
    for i in range(0, 5001, 200):
        Di, _ = reconstruct.frame_DE(standard_trace_5.samples[i], cs.p)
        worst = max(worst, float(np.linalg.norm(Di - D[i])))
    assert worst <= 1e-4


def test_rotating_frame_satisfies_ode():
    # Finite differences of D(s) reproduce -Omega E(s) at second order in h.
    cs = ConservedSet(p=[-1, -0.6, -0.4], l=[0, 0, 2], H=0.0, c=0.2)
    D0 = np.array([0.0, 0.0, 1.0])
    E0 = np.array([0.0, 1.0, 0.0])
    p2 = np.dot(cs.p, cs.p)

    def fd_error(step, count):
        _, kappa, kappa_dot = scalar.integrate_scalar(1.0, 0.3, 0.2, step, count)
        phi = reconstruct.phase_phi(kappa, kappa_dot, cs, step)
        D = np.outer(np.cos(phi), D0) - np.outer(np.sin(phi), E0)
        E = np.outer(np.sin(phi), D0) + np.outer(np.cos(phi), E0)
        rate = np.dot(cs.l, cs.p) * np.sqrt(p2) / (2.0 * (p2 - kappa**4))
        fd = (D[2:] - D[:-2]) / (2 * step)
        return float(np.max(np.abs(fd + rate[1:-1, None] * E[1:-1])))

    coarse = fd_error(2e-3, 1000)
    fine = fd_error(1e-3, 2000)
    assert fine <= 1e-4
    assert 3.5 <= coarse / fine <= 4.5


def test_reconstruct_curve_matches_direct(standard_jet, standard_trace_5):
    rec, branch = reconstruct.reduce_and_reconstruct(standard_jet, 1e-3, 5000)
    assert branch is Branch.GENERIC
    assert diagnostics.position_discrepancy(standard_trace_5, rec) <= 1e-4


def test_reconstructed_velocity_unit_norm(standard_jet):
    rec, _ = reconstruct.reduce_and_reconstruct(standard_jet, 1e-3, 1000)
    xd = rec.stacked("xdot")
    assert np.max(np.abs(np.linalg.norm(xd, axis=1) - 1.0)) <= 1e-9


def test_reconstructed_velocity_momentum_component(standard_jet):
    # <xdot, p> = -kappa^2 is built in; check it pointwise.
    cs = lagrangian.conserved_momenta(standard_jet)
    rec, _ = reconstruct.reduce_and_reconstruct(standard_jet, 1e-3, 1000)
    _, kappa, _ = scalar.integrate_scalar(1.0, 0.3, 0.2, 1e-3, 1000)
    xd = rec.stacked("xdot")
    np.testing.assert_allclose(xd @ cs.p, -(kappa**2), atol=1e-10)


def test_reconstruct_zero_length():
    cs = ConservedSet(p=[-1, -0.6, -0.4], l=[0, 0, 2], H=0.0, c=0.2)
    rec = reconstruct.reconstruct_curve(
        np.array([1.0]),
        np.array([0.3]),
        cs,
        np.array([1.0, 2.0, 3.0]),
        np.array([0.0, 0.0, 1.0]),
        np.array([0.0, 1.0, 0.0]),
        1e-3,
    )
    assert len(rec) == 1
    np.testing.assert_array_equal(rec.samples[0].x, [1.0, 2.0, 3.0])


def test_reconstruct_planar_matches_direct(planar_jet, planar_trace):
    rec, branch = reconstruct.reduce_and_reconstruct(planar_jet, 1e-3, 5000)
    assert branch is Branch.PLANAR
    assert diagnostics.position_discrepancy(planar_trace, rec) <= 1e-6


def test_planar_binormal_constant(planar_jet, planar_trace):
    # Signed curvature keeps xdot cross xddot / kappa constant through
    # inflections; assert it wherever the division is well conditioned.
    B0 = np.cross(planar_jet.xdot, planar_jet.xddot)
    xd = planar_trace.stacked("xdot")
    xdd = planar_trace.stacked("xddot")
    w = np.cross(xd, xdd)
    kappa_signed = w @ B0
    mask = np.abs(kappa_signed) >= 0.05
    B = w[mask] / kappa_signed[mask, None]
    assert np.max(np.linalg.norm(B - B0, axis=1)) <= 1e-8


def test_reconstruct_planar_degenerate():
    cs = ConservedSet(p=[0, 0, 1], l=[0, 0, 0], H=0.0, c=0.0)
    with pytest.raises(ValueError, match="p x B = 0"):
        reconstruct.reconstruct_planar(
            np.ones(5), np.zeros(5), cs, np.zeros(3), np.array([0.0, 0.0, 1.0]), 0.1
        )


def test_reconstruct_line(line_jet):
    rec, branch = reconstruct.reduce_and_reconstruct(line_jet, 0.1, 10)
    assert branch is Branch.DEGENERATE_LINE
    np.testing.assert_allclose(
        rec.positions(), np.outer(0.1 * np.arange(11), [1, 0, 0]), atol=1e-15
    )
