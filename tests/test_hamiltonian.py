import numpy as np
import pytest

from elastica_lab import diagnostics, hamiltonian
from elastica_lab.geometry import JetState, PhaseState
from elastica_lab.hamiltonian import NotInRangeError

from conftest import frame_jet

PLANAR = JetState(0.0, [0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 0, 0])


def random_jets(n, seed=41):
    rng = np.random.default_rng(seed)
    return [
        JetState(
            rng.uniform(-1, 1),
            rng.normal(size=3),
            rng.normal(size=3) + [2.0, 0, 0],
            rng.normal(size=3),
            rng.normal(size=3),
        )
        for _ in range(n)
    ]


def test_legendre_planar_jet():
    ps = hamiltonian.legendre(PLANAR)
    np.testing.assert_allclose(ps.p_xdot, [0, 2, 0], atol=1e-15)
    np.testing.assert_allclose(ps.p_x, [-1, 0, 0], atol=1e-15)
    assert ps.p_t == 0.0


def test_legendre_straight_line():
    ps = hamiltonian.legendre(JetState(0.0, [0, 0, 0], [1, 0, 0], [0, 0, 0], [0, 0, 0]))
    np.testing.assert_array_equal(ps.p_x, np.zeros(3))
    np.testing.assert_array_equal(ps.p_xdot, np.zeros(3))


def test_legendre_image_satisfies_constraints():
    for j in random_jets(30):
        res = hamiltonian.constraint_residuals(hamiltonian.legendre(j))
        assert all(abs(r) <= 1e-12 for r in res)


def test_constraint_residuals_hand_value():
    ps = PhaseState(0.0, [0, 0, 0], [1, 0, 0], [-1, 0, 0], [0, 2, 0])
    assert hamiltonian.constraint_residuals(ps) == (0.0, 0.0, pytest.approx(0.0, abs=1e-15))


def test_constraint_residuals_linear_in_p_x():
    ps = PhaseState(0.0, [0, 0, 0], [1, 0, 0], [-0.9, 0, 0], [0, 2, 0])
    _, _, h = hamiltonian.constraint_residuals(ps)
    assert h == pytest.approx(0.1, abs=1e-15)


def test_fiber_arclength_gauge():
    j = frame_jet(1.0, 0.3, 0.2)
    ps = hamiltonian.legendre(j)
    back = hamiltonian.arclength_jet_from_phase(ps)
    assert back.is_arclength(tol=1e-12)
    np.testing.assert_allclose(back.xddot, j.xddot, atol=1e-12)
    np.testing.assert_allclose(back.xdddot, j.xdddot, atol=1e-12)


def test_ham_rhs_planar_point():
    d = hamiltonian.ham_rhs(hamiltonian.legendre(PLANAR))
    np.testing.assert_allclose(d.dp_xdot, [-2, 0, 0], atol=1e-15)
    np.testing.assert_allclose(d.dxdot, [0, 1, 0], atol=1e-15)
    np.testing.assert_array_equal(d.dp_x, np.zeros(3))
    assert d.dt == 1.0


def test_ham_rhs_matches_lagrangian_third_derivative():
    # dp_xdot = 2 xdddot on arclength solution data.
    j = frame_jet(1.0, 0.3, 0.2)
    d = hamiltonian.ham_rhs(hamiltonian.legendre(j))
    np.testing.assert_allclose(d.dp_xdot, 2.0 * j.xdddot, atol=1e-12)


def test_ham_rhs_straight_line():
    ps = hamiltonian.legendre(JetState(0.0, [0, 0, 0], [1, 0, 0], [0, 0, 0], [0, 0, 0]))
    d = hamiltonian.ham_rhs(ps)
    np.testing.assert_array_equal(d.dp_x, np.zeros(3))
    np.testing.assert_array_equal(d.dp_xdot, np.zeros(3))
    np.testing.assert_array_equal(d.dxdot, np.zeros(3))
    np.testing.assert_array_equal(d.dx, [1, 0, 0])


def test_ham_rhs_preserves_transversality():
    # d/ds <p_xdot, xdot> = 2h = 0 on the constraint manifold (unit speed).
    rng = np.random.default_rng(47)
    for _ in range(20):
        j = frame_jet(rng.uniform(0.3, 1.5), rng.uniform(-1, 1), rng.uniform(-1, 1))
        ps = hamiltonian.legendre(j)
        d = hamiltonian.ham_rhs(ps)
        value = np.dot(d.dp_xdot, ps.xdot) + np.dot(ps.p_xdot, d.dxdot)
        _, _, h = hamiltonian.constraint_residuals(ps)
        assert value == pytest.approx(2.0 * h, abs=1e-12)


def test_ham_rhs_rejects_general_speed():
    j = JetState(0.0, [0, 0, 0], [2, 0, 0], [0, 1, 0], [0, 0, 0])
    with pytest.raises(NotInRangeError):
        hamiltonian.ham_rhs(hamiltonian.legendre(j))


def test_ham_rhs_rejects_off_manifold():
    ps = PhaseState(0.0, [0, 0, 0], [1, 0, 0], [-1, 0, 0], [0.5, 2, 0])
    with pytest.raises(NotInRangeError):
        hamiltonian.ham_rhs(ps)


def test_flow_preserves_constraints(ham_trace):
    res = diagnostics.phase_constraint_arrays(ham_trace)
    assert np.max(np.abs(res)) <= 1e-8


def test_flow_conserves_momenta(ham_trace):
    p_x = ham_trace.stacked("p_x")
    assert diagnostics.relative_drift(p_x) == 0.0
    l = np.cross(ham_trace.stacked("x"), p_x) + np.cross(
        ham_trace.stacked("xdot"), ham_trace.stacked("p_xdot")
    )
    assert diagnostics.relative_drift(l) <= 1e-8


def test_flow_matches_lagrangian(standard_trace_5, ham_trace):
    xs = np.stack([ps.x for ps in ham_trace.samples[:5001]])
    err = np.max(np.linalg.norm(xs - standard_trace_5.positions(), axis=1))
    assert err <= 1e-6


def test_projected_flow_stays_on_manifold(standard_jet):
    ps0 = hamiltonian.legendre(standard_jet)
    trace = hamiltonian.integrate_flow(ps0, 1e-3, 500, project=True)
    res = diagnostics.phase_constraint_arrays(trace)
    assert np.max(np.abs(res)) <= 1e-12


def test_flow_rejects_off_manifold_start():
    ps = PhaseState(0.0, [0, 0, 0], [1, 0, 0], [-1, 0, 0], [0.5, 2, 0])
    with pytest.raises(NotInRangeError):
        hamiltonian.integrate_flow(ps, 1e-3, 10)


def test_diff_momentum_on_constraint(standard_trace_5):
    taus = (
        lambda t: (1.0, 0.0),
        lambda t: (t, 1.0),
        lambda t: (np.exp(t), np.exp(t)),
    )
    for j in standard_trace_5.samples[::250]:
        ps = hamiltonian.legendre(j)
        for tau in taus:
            v, vd = tau(j.t)
            assert abs(hamiltonian.diff_momentum(ps, v, vd)) <= 1e-12


def test_diff_momentum_off_shell_linearity():
    ps = PhaseState(0.0, [0, 0, 0], [1, 0, 0], [0, 0, 0], [0, 1, 0], p_t=1.0)
    assert hamiltonian.diff_momentum(ps, 2.0, 0.0) == 2.0
    ps2 = PhaseState(0.0, [0, 0, 0], [1, 0, 0], [0, 0, 0], [3, 0, 0])
    assert hamiltonian.diff_momentum(ps2, 0.0, 1.0) == -3.0


def _scaled_orbit_point(ps, alpha):
    # The reparametrization-group orbit through a constraint point, at
    # constant rate alpha: xdot -> xdot/alpha, p_xdot -> alpha p_xdot.
    return PhaseState(ps.t, ps.x, ps.xdot / alpha, ps.p_x, alpha * ps.p_xdot, ps.p_t)


def test_constraint_function_is_reparametrization_invariant():
    ps = hamiltonian.legendre(frame_jet(1.2, -0.4, 0.3))
    for alpha in (0.5, 2.0, 3.7):
        scaled = _scaled_orbit_point(ps, alpha)
        res = hamiltonian.constraint_residuals(scaled)
        assert all(abs(r) <= 1e-12 for r in res)


def test_jet_trace_has_no_negative_zero():
    # The planar flow in the standard frame has exact zero components; the
    # fiber keeps them +0.0, so a written trace never shows a "-0" cell.
    ps0 = hamiltonian.legendre(frame_jet(1.0, -0.3, 0.0))
    jets = hamiltonian.jet_trace(hamiltonian.integrate_flow(ps0, 1e-2, 100)).data
    assert np.any(jets == 0.0)
    assert not np.any((jets == 0.0) & np.signbit(jets))
