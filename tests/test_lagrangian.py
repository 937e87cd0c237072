import numpy as np
import pytest

from elastica_lab import diagnostics, frenet, lagrangian, symmetry
from elastica_lab.geometry import CurveTrace, JetState

from conftest import frame_jet


def jet(xdot, xddot, xdddot=(0, 0, 0), x=(0, 0, 0)):
    return JetState(0.0, x, xdot, xddot, xdddot)


PLANAR = jet([1, 0, 0], [0, 1, 0], [-1, 0, 0])


def random_arclength_jets(n, seed=7, kappa_min=0.2):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        kappa = rng.uniform(kappa_min, 2.0)
        kappa_dot = rng.uniform(-1.0, 1.0)
        tau = rng.uniform(-1.0, 1.0)
        out.append(frame_jet(kappa, kappa_dot, tau, x0=rng.uniform(-1, 1, 3)))
    return out


def test_density_straight_line():
    assert lagrangian.lagrangian_density(jet([1, 0, 0], [0, 0, 0])) == 0.0


def test_density_unit_arclength():
    assert lagrangian.lagrangian_density(jet([1, 0, 0], [0, 1, 0])) == pytest.approx(1.0)


def test_density_general_speed():
    assert lagrangian.lagrangian_density(jet([2, 0, 0], [0, 1, 0])) == pytest.approx(0.125)


def test_density_domain_error():
    with pytest.raises(ValueError, match="xdot = 0: off the domain of the Lagrangian"):
        lagrangian.lagrangian_density(jet([0, 0, 0], [0, 1, 0]))


def test_density_equals_curvature_squared_in_arclength():
    for j in random_arclength_jets(20):
        f = frenet.frenet_frame(j)
        assert lagrangian.lagrangian_density(j) == pytest.approx(
            f.kappa**2, abs=1e-12
        )


def test_momenta_on_planar_jet():
    p_x, p_xdot = lagrangian.ostrogradski_momenta(PLANAR)
    np.testing.assert_allclose(p_xdot, [0, 2, 0], atol=1e-15)
    np.testing.assert_allclose(p_x, [-1, 0, 0], atol=1e-15)


def test_momenta_straight_line():
    p_x, p_xdot = lagrangian.ostrogradski_momenta(jet([1, 0, 0], [0, 0, 0]))
    np.testing.assert_array_equal(p_x, np.zeros(3))
    np.testing.assert_array_equal(p_xdot, np.zeros(3))


def test_momenta_constraint_on_random_jets():
    rng = np.random.default_rng(3)
    for _ in range(30):
        j = jet(rng.normal(size=3) + [2, 0, 0], rng.normal(size=3), rng.normal(size=3))
        _, p_xdot = lagrangian.ostrogradski_momenta(j)
        assert abs(np.dot(p_xdot, j.xdot)) <= 1e-12


def energy(j):
    """H = <p_x, xdot> + <p_xdot, xddot> - L at one jet, from the conserved kernel."""
    return lagrangian.conserved(j.x, j.xdot, j.xddot, j.xdddot, *lagrangian.ostrogradski_momenta(j))[2]


def fourth_derivative(j):
    """x'''' = -(3/2)|xddot|^2 xddot - 3 <xddot, xdddot> xdot at one arclength jet, from the
    Lagrangian field."""
    return lagrangian._flat_rhs(0.0, j.to_array())[9:12]


def test_energy_vanishes():
    # H = <p_x,xdot> + <p_xdot,xddot> - L: -1 + 2 - 1 on the planar jet.
    assert energy(PLANAR) == pytest.approx(0.0, abs=1e-14)
    assert energy(jet([1, 0, 0], [0, 0, 0])) == 0.0


def test_energy_vanishes_off_arclength():
    # Reparametrization invariance makes H identically zero, so it also
    # vanishes on reparametrized jets of a solution.
    j = frame_jet(1.0, 0.3, 0.2)
    a, b, c = 1.7, 0.3, -0.2  # phi', phi'', phi''' of the reparametrization
    rep = JetState(
        0.0,
        j.x,
        a * j.xdot,
        a**2 * j.xddot + b * j.xdot,
        a**3 * j.xdddot + 3 * a * b * j.xddot + c * j.xdot,
    )
    assert energy(rep) == pytest.approx(0.0, abs=1e-13)


def test_el_rhs_planar_jet():
    np.testing.assert_allclose(fourth_derivative(PLANAR), [0, -1.5, 0], atol=1e-15)


def test_el_rhs_straight_line():
    np.testing.assert_array_equal(fourth_derivative(jet([1, 0, 0], [0, 0, 0])), np.zeros(3))


def test_el_rhs_parallel_component():
    # <xddot, xdddot> = kappa kappa_dot != 0 forces the -3 kappa kappa_dot
    # tangential part.
    j = frame_jet(1.2, 0.4, 0.1)
    rhs = fourth_derivative(j)
    kk = np.dot(j.xddot, j.xdddot)
    assert np.dot(rhs, j.xdot) == pytest.approx(-3.0 * kk, abs=1e-12)


def test_el_residual_small_on_solutions(standard_trace_5):
    res = diagnostics.el_residual_array(standard_trace_5)
    assert np.max(np.linalg.norm(res, axis=1)) <= 1e-5


def test_el_residual_zero_on_line(line_jet):
    trace = lagrangian.integrate_elastica(line_jet, 1e-3, 100)
    np.testing.assert_array_equal(diagnostics.el_residual_array(trace), np.zeros((99, 3)))


def test_el_residual_large_on_circle(circle_trace):
    # The circle violates the curvature equation (kappa^3 != 0).
    res = diagnostics.el_residual_array(circle_trace)
    assert np.min(np.linalg.norm(res, axis=1)) >= 0.5


def test_el_residual_stencil_bounds(standard_trace_5):
    # The Noether identity's EL stencil reads rows index-1..index+1: indexes
    # 1..N-2 are valid; the end rows have no neighbour.
    n = len(standard_trace_5)
    rotation = symmetry.SymmetryField.rotation([0.0, 0.0, 1.0])
    for i in (1, n - 2):
        assert abs(symmetry.noether_identity_residual(rotation, standard_trace_5, i)) <= 1e-6
    for i in (0, n - 1):
        with pytest.raises(IndexError, match="no room for a centered stencil"):
            symmetry.noether_identity_residual(rotation, standard_trace_5, i)


def test_every_audit_row_can_fail():
    # Random jets satisfy no law of the elastica, so every residual of the
    # report must flag them; a row that reads ~1e-14 here is an identity of
    # the lab's own formulas and can never fail.
    rng = np.random.default_rng(31)
    x, xddot, xdddot = rng.normal(size=(3, 50, 3))
    xdot = rng.normal(size=(50, 3)) + [2.0, 0.0, 0.0]
    report, ok = diagnostics.invariant_report(CurveTrace(0.5, np.hstack([x, xdot, xddot, xdddot])))
    assert not ok
    assert sorted(report["violations"]) == sorted(report["residuals"]) == sorted(diagnostics.TOLERANCES)


def test_conserved_momenta_planar_jet():
    cs = lagrangian.conserved_momenta(PLANAR)
    np.testing.assert_allclose(cs.p, [-1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(cs.l, [0, 0, 2], atol=1e-15)
    assert cs.H == pytest.approx(0.0, abs=1e-14)
    assert cs.c == pytest.approx(0.0, abs=1e-15)


def test_conserved_momenta_straight_line(line_jet):
    cs = lagrangian.conserved_momenta(line_jet)
    np.testing.assert_array_equal(cs.p, np.zeros(3))
    np.testing.assert_array_equal(cs.l, np.zeros(3))
    assert cs.c == 0.0


def test_conserved_momenta_frame_form():
    # Cartesian p against the moving-frame form -kappa^2 T - 2 kappa_dot N
    # - 2 kappa tau B.
    for j in random_arclength_jets(20, seed=11):
        cs = lagrangian.conserved_momenta(j)
        f = frenet.frenet_frame(j)
        kappa_dot = np.dot(j.xddot, j.xdddot) / f.kappa
        frame_p = (
            -f.kappa**2 * f.T - 2.0 * kappa_dot * f.N - 2.0 * f.kappa * f.tau * f.B
        )
        np.testing.assert_allclose(cs.p, frame_p, atol=1e-10)


def test_conserved_momenta_gauge_error():
    with pytest.raises(ValueError, match="off the arclength submanifold"):
        lagrangian.conserved_momenta(jet([2, 0, 0], [0, 1, 0]))


def test_project_arclength_fixes_m3():
    j = lagrangian.project_arclength(
        jet([2, 0, 0], [1, 1, 0], [0.3, -0.2, 0.7])
    )
    assert all(abs(d) <= 1e-14 for d in j.arclength_defects())


def test_project_arclength_idempotent():
    raw = jet([2, 0, 0], [1, 1, 0], [0.3, -0.2, 0.7])
    once = lagrangian.project_arclength(raw)
    twice = lagrangian.project_arclength(once)
    np.testing.assert_allclose(once.xdot, twice.xdot, atol=1e-15)
    np.testing.assert_allclose(once.xddot, twice.xddot, atol=1e-15)
    np.testing.assert_allclose(once.xdddot, twice.xdddot, atol=1e-15)


def test_project_arclength_keeps_arclength_jets():
    j = lagrangian.project_arclength(PLANAR)
    np.testing.assert_allclose(j.xdot, PLANAR.xdot, atol=1e-15)
    np.testing.assert_allclose(j.xddot, PLANAR.xddot, atol=1e-15)
    np.testing.assert_allclose(j.xdddot, PLANAR.xdddot, atol=1e-15)


def test_arclength_conditions_preserved_by_flow(standard_trace):
    defects = diagnostics.arclength_defects(standard_trace)
    assert np.max(np.abs(defects)) <= 1e-8


def test_momentum_drift_short_run(standard_jet):
    trace = lagrangian.integrate_elastica(standard_jet, 1e-3, 1000)
    p, l, H, c = diagnostics.momentum_arrays(trace)
    assert diagnostics.relative_drift(p) <= 1e-10
    assert diagnostics.relative_drift(l) <= 1e-10
    assert np.max(np.abs(H)) <= 1e-12
    assert diagnostics.relative_drift(c) <= 1e-10


def test_integrate_rejects_non_arclength():
    with pytest.raises(ValueError, match="off the arclength submanifold"):
        lagrangian.integrate_elastica(jet([2, 0, 0], [0, 1, 0]), 1e-3, 10)
