import numpy as np
import pytest

from elastica_lab import lagrangian, symmetry
from elastica_lab.geometry import CurveTrace, JetState, dot
from elastica_lab.symmetry import SymmetryField

from conftest import circle_rows

PLANAR = JetState(0.0, [0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 0, 0])

E1 = SymmetryField.translation([1.0, 0.0, 0.0])
R3 = SymmetryField.rotation([0.0, 0.0, 1.0])
TIME = SymmetryField.time_translation()


def test_construction_rejects_bad_tau_derivatives():
    with pytest.raises(ValueError, match="tau_dot disagrees with a finite difference of tau"):
        SymmetryField.reparametrization(lambda t: (np.sin(t), np.sin(t)))
    with pytest.raises(ValueError, match="tau_dot disagrees with a finite difference of tau"):
        SymmetryField.reparametrization(lambda t: (np.nan, np.nan))


@pytest.mark.parametrize(
    "tau",
    [lambda t: (np.exp(t),) * 4, lambda t: (np.exp(t),), lambda t: np.exp(t), lambda t: (t, None)],
    ids=["four values", "one value", "a scalar", "None for tau_dot"],
)
def test_construction_rejects_anything_but_a_pair(tau):
    with pytest.raises(ValueError, match=r"tau must return the pair \(tau, tau_dot\)"):
        SymmetryField.reparametrization(tau)


def test_exponential_reparametrization_passes_validation():
    X = SymmetryField.reparametrization(lambda t: (np.exp(t), np.exp(t)))
    # PLANAR is an arclength jet with H = 0 and <p_xdot, xdot> = 0.
    assert symmetry.noether_charge(X, PLANAR) == pytest.approx(0.0, abs=1e-14)


def test_charge_translation():
    assert symmetry.noether_charge(E1, PLANAR) == pytest.approx(-1.0, abs=1e-14)


def test_charge_rotation_is_angular_momentum():
    assert symmetry.noether_charge(R3, PLANAR) == pytest.approx(2.0, abs=1e-14)


def test_charge_time_translation_is_minus_energy():
    assert symmetry.noether_charge(TIME, PLANAR) == pytest.approx(0.0, abs=1e-14)


def test_charge_equals_cartan_contraction():
    rng = np.random.default_rng(23)
    fields = [
        E1,
        R3,
        TIME,
        SymmetryField.rotation([0.3, -1.0, 0.7]),
        SymmetryField.reparametrization(lambda t: (np.exp(t), np.exp(t))),
    ]
    jets = [
        JetState(
            rng.uniform(-1, 1),
            rng.normal(size=3),
            rng.normal(size=3) + [2, 0, 0],
            rng.normal(size=3),
            rng.normal(size=3),
        )
        for _ in range(10)
    ]
    t = np.array([j.t for j in jets])
    x, xdot, xddot, xdddot = (
        np.stack([getattr(j, slot) for j in jets]) for slot in ("x", "xdot", "xddot", "xdddot")
    )
    for X in fields:
        stacked = symmetry.charge(X, t, x, xdot, xddot, xdddot)
        assert stacked.shape == (10,)
        for j, value in zip(jets, stacked):
            b = symmetry.cartan_contraction(X, j)
            assert symmetry.noether_charge(X, j) == pytest.approx(b, abs=1e-12)
            assert value == pytest.approx(b, abs=1e-12)


@pytest.mark.parametrize(
    "tau", [lambda t: (1.0, 0.0), lambda t: (t, 1.0), lambda t: (np.exp(t), np.exp(t))], ids=["1", "t", "e^t"]
)
def test_reparametrization_charge_is_the_kernel(tau):
    # Stacked random jets off the arclength submanifold.  The density is
    # parametrization-invariant, so H and <p_xdot, xdot> vanish on every jet
    # and both sides are roundoff of the terms that cancel: they must agree
    # to 1e-12 of the size of those terms.
    rng = np.random.default_rng(29)
    t = rng.uniform(-2.0, 2.0, 20)
    x, xddot, xdddot = rng.normal(size=(3, 20, 3))
    xdot = rng.normal(size=(20, 3)) + [2.0, 0.0, 0.0]
    assert np.max(np.abs(np.linalg.norm(xdot, axis=1) - 1.0)) > 0.1
    value = symmetry.charge(SymmetryField.reparametrization(tau), t, x, xdot, xddot, xdddot)
    p_x, p_xdot = lagrangian.momenta(xdot, xddot, xdddot)
    H = lagrangian.conserved(x, xdot, xddot, xdddot, p_x, p_xdot)[2]
    v, vd = tau(t)
    kernel = lagrangian.reparametrization_charge(v, vd, H, dot(p_xdot, xdot))
    terms = lagrangian.density(xdot, xddot) + np.abs(dot(p_x, xdot)) + np.abs(dot(p_xdot, xddot))
    assert np.all(np.abs(value - kernel) <= 1e-12 * (np.abs(v) + np.abs(vd)) * terms)


def test_charges_constant_along_solutions(standard_trace_5):
    for X in (E1, R3, TIME):
        values = np.array(
            [symmetry.noether_charge(X, j) for j in standard_trace_5.samples[::100]]
        )
        assert np.max(np.abs(values - values[0])) <= 1e-9


def test_charge_derivative_small_on_solutions(standard_trace_5):
    for X in (E1, R3):
        worst = 0.0
        for i in range(10, len(standard_trace_5) - 10, 250):
            jm = symmetry.noether_charge(X, standard_trace_5.samples[i - 1])
            jp = symmetry.noether_charge(X, standard_trace_5.samples[i + 1])
            worst = max(worst, abs(jp - jm) / (2 * standard_trace_5.step))
        assert worst <= 1e-6


def test_offshell_identity_on_circle(circle_trace):
    # Lemma-level identity: holds on any smooth trace, not just solutions.
    for X in (E1, R3, TIME):
        for i in range(5, len(circle_trace) - 5, 200):
            assert abs(symmetry.noether_identity_residual(X, circle_trace, i)) <= 1e-6


def test_offshell_identity_terms_on_solutions(standard_trace_5):
    for i in (10, 2500, 4990):
        res = symmetry.noether_identity_residual(R3, standard_trace_5, i)
        assert abs(res) <= 1e-6


def test_offshell_identity_general_parametrization():
    # The identity is parametrization-agnostic: a circle traversed at speed 2.
    h = 1e-3
    trace = CurveTrace(h, circle_rows(np.arange(801) * h, 2.0))
    for X in (E1, R3, TIME):
        for i in (5, 400, 795):
            assert abs(symmetry.noether_identity_residual(X, trace, i)) <= 1e-6


def test_identity_zero_on_line_with_constant_field(line_jet):
    from elastica_lab import lagrangian

    trace = lagrangian.integrate_elastica(line_jet, 1e-3, 100)
    assert symmetry.noether_identity_residual(E1, trace, 50) == 0.0


def test_identity_stencil_bounds(circle_trace):
    with pytest.raises(IndexError):
        symmetry.noether_identity_residual(E1, circle_trace, 0)


def test_reparametrization_charge_vanishes_on_solutions(standard_trace_5):
    # J for tau(t) d/dt reduces to -tau H - tau_dot <p_xdot, xdot>, zero on
    # arclength solutions.
    X = SymmetryField.reparametrization(lambda t: (np.exp(t), np.exp(t)))
    for j in standard_trace_5.samples[::500]:
        assert abs(symmetry.noether_charge(X, j)) <= 1e-10
