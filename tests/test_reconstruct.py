import numpy as np
import pytest

from elastica_lab import diagnostics, lagrangian, ode, reconstruct, scalar
from elastica_lab.geometry import ConservedSet, JetState
from elastica_lab.reconstruct import Branch

from conftest import frame_jet


def test_classify_generic():
    cs = ConservedSet(p=[-1, -2, 0], l=[0, 1, 1], H=0.0, c=0.3)
    assert reconstruct.classify_case(cs, 0.3) is Branch.GENERIC


def test_classify_planar():
    cs = ConservedSet(p=[-1, 0, 0], l=[0, 0, 2], H=0.0, c=0.0)
    assert reconstruct.classify_case(cs, 0.0) is Branch.PLANAR


def test_classify_line():
    cs = ConservedSet(p=[0, 0, 0], l=[0, 0, 0], H=0.0, c=0.0)
    assert reconstruct.classify_case(cs, 0.0) is Branch.DEGENERATE_LINE
    assert reconstruct.classify_case(cs, 0.3) is Branch.DEGENERATE_LINE


def test_classify_takes_a_floor_jet_with_momentum_as_planar():
    # kappa0 = 0 with p != 0 is an inflection point, where frenet.curvature
    # reports tau = 0 and kappa_dot = |xdddot| normal to xdot, whatever tau0.
    jet = frame_jet(0.0, -0.3, 0.2)
    cs = lagrangian.conserved_momenta(jet)
    np.testing.assert_allclose(cs.p, [0, 0.6, 0], atol=1e-15)
    assert reconstruct.reduce_jet(jet, cs) == (Branch.PLANAR, 0.0, 0.3, 0.0)


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


def test_cumulative_product_matches_a_float_loop():
    rng = np.random.default_rng(5)
    theta = rng.uniform(0.0, 0.1, 1000)
    scale = rng.uniform(0.5, 2.0, 1000)
    steps = np.array([[np.cos(theta), scale * np.sin(theta)], [-np.sin(theta) / scale, np.cos(theta)]])
    product = reconstruct._cumulative_product(steps)
    m = np.eye(2)
    np.testing.assert_array_equal(product[..., 0], m)
    for k in range(1000):
        m = steps[..., k] @ m
        np.testing.assert_allclose(product[..., k + 1], m, rtol=0, atol=1e-13)


# Small torsion constants c = kappa0^2 tau0, tau0 -> 0 at kappa0 = 1 and
# kappa0 -> 0 at tau0 = 0.2, where a rule that divides by c or by
# |p|^2 - kappa^4 loses its accuracy.
HILL_GRID = [(1.0, 10.0**-k) for k in (11, 9, 7, 5, 4, 3, 2)] + [(1.0, 0.2)] + [
    (k, 0.2) for k in (1e-6, 1e-3, 1e-2, 0.05, 0.1)
]


@pytest.mark.parametrize("kappa0, tau0", HILL_GRID)
def test_generic_reconstruction_meets_direct_integration(kappa0, tau0):
    jet = frame_jet(kappa0, 0.3, tau0)
    rec, branch = reconstruct.reduce_and_reconstruct(jet, 1e-3, 10000)
    assert branch is Branch.GENERIC
    assert diagnostics.position_discrepancy(lagrangian.integrate_elastica(jet, 1e-3, 10000), rec) <= 1e-10
    assert diagnostics.invariant_report(rec)[0]["violations"] == []


@pytest.mark.parametrize("tau0", [0.2, 1e-7, 0.0])
def test_generic_reconstruction_is_sixth_order(tau0):
    jet = frame_jet(1.0, 0.3, tau0)
    fine, _ = reconstruct.reduce_and_reconstruct(jet, 0.0025, 3200)
    steps = [0.08, 0.04, 0.02]
    errors = []
    for h in steps:
        rec, _ = reconstruct.reduce_and_reconstruct(jet, h, round(8.0 / h))
        errors.append(np.max(np.abs(rec.positions() - fine.positions()[:: round(h / 0.0025)])))
    assert ode.convergence_slope(steps, errors) >= 5.5


@pytest.mark.parametrize(
    "tau0, step, length", [(0.2, 5e-3, 200.0), (1e-4, 5e-3, 200.0), (1e-11, 5e-3, 200.0), (0.2, 0.05, 10.0)]
)
def test_generic_reconstruction_audits_clean(tau0, step, length):
    rec, _ = reconstruct.reduce_and_reconstruct(frame_jet(1.0, 0.3, tau0), step, round(length / step))
    report, ok = diagnostics.invariant_report(rec)
    assert ok, report["violations"]


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
    j0 = JetState(0.0, [1.0, 2.0, 3.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0])
    rec = reconstruct.reconstruct_curve(np.array([1.0]), np.array([0.3]), cs, j0, 1e-3)
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
    j0 = JetState(0.0, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="p x B = 0"):
        reconstruct.reconstruct_planar(np.ones(5), np.zeros(5), cs, j0, 0.1)


def test_reconstruct_line(line_jet):
    rec, branch = reconstruct.reduce_and_reconstruct(line_jet, 0.1, 10)
    assert branch is Branch.DEGENERATE_LINE
    np.testing.assert_allclose(
        rec.positions(), np.outer(0.1 * np.arange(11), [1, 0, 0]), atol=1e-15
    )
