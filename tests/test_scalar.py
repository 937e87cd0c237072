import json
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from elastica_lab import cli, closed, diagnostics, hamiltonian, lagrangian, ode, reconstruct, scalar
from elastica_lab.reconstruct import Branch

from conftest import frame_jet, rotation


def test_torsion_from_c():
    assert scalar.torsion_from_c(1.0, 0.0) == 0.0
    assert scalar.torsion_from_c(0.5, 0.125) == pytest.approx(0.5)
    assert scalar.torsion_from_c(0.0, 0.0) == 0.0
    with pytest.raises(ValueError, match="singular at the curvature floor"):
        scalar.torsion_from_c(1e-9, 1.0)


def test_scalar_rhs_values():
    # The free curvature equation is the lambda = 0, j = -4c constrained one.
    assert closed.constrained_scalar_rhs(1.0, 0.0, 0.0, 0.0) == (0.0, pytest.approx(-0.5))
    # Constant-curvature helix balance: kappa^3/2 = c^2/kappa^3.
    _, kdd = closed.constrained_scalar_rhs(1.0, 0.0, 0.0, -4.0 / np.sqrt(2.0))
    assert kdd == pytest.approx(0.0, abs=1e-15)
    assert closed.constrained_scalar_rhs(2.0, 1.0, 0.0, 0.0) == (1.0, pytest.approx(-4.0))
    with pytest.raises(ValueError, match="singular at the curvature floor"):
        closed.constrained_scalar_rhs(1e-9, 0.0, 0.0, -4.0 * 0.5)


def test_first_integral_values():
    # kappa_dot^2 + kappa^4/4 + c^2/kappa^2 is a quarter of the lambda = 0,
    # j = -4c quadrature relation's left side.
    assert 0.25 * closed.foltinek_invariant(1.0, 0.0, 0.0, 0.0, 0.0, 0.0) == pytest.approx(0.25)
    assert 0.25 * closed.foltinek_invariant(0.5, 0.0, 0.0, 0.0, 0.0, -4.0 * 0.125) == pytest.approx(0.078125)
    with pytest.raises(ValueError, match="singular at the curvature floor"):
        closed.foltinek_invariant(1e-9, 0.0, 0.0, 0.0, 0.0, -4.0 * 0.5)


def test_first_integral_drift():
    c = 0.2
    _, kappa, kappa_dot = scalar.integrate_scalar(1.0, 0.3, c, 1e-3, 10000)
    fi = kappa_dot**2 + 0.25 * kappa**4 + c**2 / kappa**2
    assert np.max(np.abs(fi - fi[0])) / abs(fi[0]) <= 1e-8


def test_zero_momentum_forces_flat_level(line_jet):
    # A straight line carries no momentum: its torsion constant and the first
    # integral's level |p|^2/4 are both exactly zero.
    cs = lagrangian.conserved_momenta(line_jet)
    assert cs.c == 0.0
    assert 0.25 * float(np.dot(cs.p, cs.p)) == 0.0


def test_first_integral_equals_momentum_level(standard_trace_5, ham_trace):
    # Along the direct trace and the unprojected Hamiltonian flow.
    for trace in (standard_trace_5, hamiltonian.jet_trace(ham_trace)):
        p, l, _, _ = diagnostics.momentum_arrays(trace)
        kappa, kappa_dot, _ = diagnostics.curvature_arrays(trace)
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
    with pytest.raises(ValueError, match="singular at the curvature floor"):
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


def _scipy_curvature(kappa0, kappa_dot0, c, lam, s):
    """(kappa, kappa') at s from scipy's Jacobi functions.

    The roots of u^3 - 2 lam u^2 - (C^2 - lam^2) u + j^2/4, the distances of
    kappa0^2 from them and m1 = 1 - m are found at 60 digits, by Newton on
    the cubic whose coefficients are exact in the float data; so a nearly
    double root or a start next to a turning point is correctly rounded.
    scipy takes m, which cannot carry a small m1 near the separatrix (m -> 1),
    so while m > 0.9 sn, cn and dn come from the Gauss transformation
    (Abramowitz & Stegun 16.12), which maps modulus m to r^2 < m:
    sn(u|m) = (1 + r) sn(v|r^2)/(1 + r sn^2(v|r^2)), v = u/(1 + r),
    r = (1 - sqrt(m1))/(1 + sqrt(m1)).
    """
    special = pytest.importorskip("scipy.special")
    with localcontext() as ctx:
        ctx.prec = 60
        k0, kd0, cc, lm = (Decimal(float(v)) for v in (kappa0, kappa_dot0, c, lam))
        c2 = 4 * kd0**2 + (lm - k0**2) ** 2 + (4 * cc**2 / k0**2 if c else 0)
        a, b, d = 2 * lm, c2 - lm**2, -4 * cc**2
        roots = []
        for r in np.sort(np.roots([1.0, -float(a), -float(b), -float(d)]).real):
            r = Decimal(float(r))
            for _ in range(200):
                slope = (3 * r - 2 * a) * r - b
                if slope == 0:
                    break
                r -= (((r - a) * r - b) * r - d) / slope
            roots.append(r)
        u1, u2, u3 = sorted(roots)
        signed = c == 0.0 and u1 < 0
        if signed:
            u2 = Decimal(0)
        top, bottom = float(u3 - k0**2), float(k0**2 - u2)
        m, m1 = (u3 - u2) / (u3 - u1), (u2 - u1) / (u3 - u1)
        gauss, mu1 = [], m1
        while mu1 < Decimal("0.1"):
            gauss.append((1 - mu1.sqrt()) / (1 + mu1.sqrt()))
            mu1 = 1 - gauss[-1] ** 2
        mu, m, m1 = float(1 - mu1), float(m), float(m1)
        gauss = [float(r) for r in gauss]
        u1, u2, u3 = float(u1), float(u2), float(u3)
    w = 0.5 * math.sqrt(u3 - u1)
    amp = math.atan2(math.sqrt(max(top, 0.0)), kappa0 if signed else math.sqrt(max(bottom, 0.0)))
    if amp <= 0.5 * math.pi:
        z0 = special.ellipkinc(amp, m)
    else:
        z0 = 2.0 * special.ellipkm1(m1) - special.ellipkinc(math.pi - amp, m)
    rising = kappa_dot0 > 0.0 if signed else kappa0 * kappa_dot0 > 0.0
    z = w * s + (-z0 if rising else z0)
    sn, cn, dn, _ = special.ellipj(z / np.prod(1.0 + np.array(gauss)), mu)
    for r in reversed(gauss):
        denom = 1.0 + r * sn * sn
        sn, cn, dn = (1.0 + r) * sn / denom, cn * dn / denom, (1.0 - r * sn * sn) / denom
    if signed:
        return math.sqrt(u3) * cn, -math.sqrt(u3) * w * sn * dn
    kappa = np.sqrt(u2 + (u3 - u2) * cn**2)
    return kappa, -(u3 - u2) * w * sn * cn * dn / kappa


# (kappa0, kappa_dot0, c, lam).  The separatrix cases have C = 2 kappa_dot0 =
# lam +- 2^-20 (m1 about 2.4e-7).
CLOSED_FORM_CASES = {
    "generic": (1.0, 0.3, 0.2, 0.0),
    "planar through zero": (1.0, 0.3, 0.0, 0.0),
    "closed j=0, lam > C": (1.0, 0.3, 0.0, 2.0),
    "closed generic": (1.0, -0.3, 0.2, -0.5),
    "separatrix, C > lam": (1.0, 0.5 + 2.0**-21, 0.0, 1.0),
    "separatrix, C < lam": (1.0, 0.5 - 2.0**-21, 0.0, 1.0),
    "near the helix": (1.0, 1e-6, 1.0 / math.sqrt(2.0), 0.0),
    "next to a turning point": (1.0, 1e-9, 0.0, 0.0),
    "next to a turning point, c != 0": (1.0, -1e-9, 0.3, 0.5),
}


@pytest.mark.parametrize("case", sorted(CLOSED_FORM_CASES))
def test_closed_form_matches_scipy(case):
    kappa0, kappa_dot0, c, lam = CLOSED_FORM_CASES[case]
    s, kappa, kappa_dot = scalar.integrate_scalar(kappa0, kappa_dot0, c, 1e-2, 20000, lam)
    ref_kappa, ref_kappa_dot = _scipy_curvature(kappa0, kappa_dot0, c, lam, s)
    assert np.max(np.abs(kappa - ref_kappa)) <= 1e-13
    assert np.max(np.abs(kappa_dot - ref_kappa_dot)) <= 1e-12


def test_separatrix_is_a_sech_pulse():
    # C = lam = 1 with j = 0: u = 2 sech^2(s/sqrt(2) - atanh(sin(pi/4))), kappa' > 0.
    s, kappa, kappa_dot = scalar.integrate_scalar(1.0, 0.5, 0.0, 1e-2, 2000, 1.0)
    z = s / math.sqrt(2.0) - math.atanh(math.sqrt(0.5))
    np.testing.assert_allclose(kappa, math.sqrt(2.0) / np.cosh(z), rtol=0, atol=1e-14)
    np.testing.assert_allclose(kappa_dot, -np.tanh(z) / np.cosh(z), rtol=0, atol=1e-14)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.5, max_value=1.25),
    st.floats(min_value=-0.5, max_value=0.5),
    st.one_of(
        st.just(0.0),
        st.floats(min_value=0.2, max_value=0.5),
        st.floats(min_value=-0.5, max_value=-0.2),
    ),
    st.floats(min_value=-1.0, max_value=1.0),
)
# u2 = u3 = u0 to rounding: the equilibrium kappa^2 = lam, pushed by 1e-20.
@example(1.0, 1e-20, 0.0, 1.0)
def test_closed_form_matches_rk4(kappa0, kappa_dot0, c, lam):
    # The box keeps RK4's own error at h = 1e-3 over s = 1 below 4e-12 (its
    # corners); a small |c| with a fast fall of kappa makes the c^2/kappa^3
    # term stiff and RK4 the less accurate side.
    def rhs(t, y):
        return np.array(closed.constrained_scalar_rhs(y[0], y[1], lam, -4.0 * c))

    _, ys = ode.integrate(rhs, np.array([kappa0, kappa_dot0]), 1e-3, 1000)
    _, kappa, kappa_dot = scalar.integrate_scalar(kappa0, kappa_dot0, c, 1e-3, 1000, lam)
    assert np.max(np.abs(kappa - ys[:, 0])) <= 1e-11
    assert np.max(np.abs(kappa_dot - ys[:, 1])) <= 1e-11


@pytest.mark.parametrize("kappa0, kappa_dot0", [(-0.8, 0.3), (-0.8, -0.3), (-1.2, 0.0)])
def test_signed_closed_form_from_negative_curvature(kappa0, kappa_dot0):
    # kappa0 < 0 puts the start amplitude past pi/2, where _elliptic_f
    # reflects, F(phi) = 2K - F(pi - phi).  The free equation is odd in
    # kappa, so the run is the mirror of the one from (-kappa0, -kappa_dot0).
    def rhs(t, y):
        return np.array(closed.constrained_scalar_rhs(y[0], y[1], 0.0, 0.0))

    _, ys = ode.integrate(rhs, np.array([kappa0, kappa_dot0]), 1e-3, 10000)
    _, kappa, kappa_dot = scalar.integrate_scalar(kappa0, kappa_dot0, 0.0, 1e-3, 10000)
    _, mirror, mirror_dot = scalar.integrate_scalar(-kappa0, -kappa_dot0, 0.0, 1e-3, 10000)
    assert kappa.max() > 0.5  # through kappa = 0
    assert np.max(np.abs(kappa - ys[:, 0])) <= 1e-12
    assert np.max(np.abs(kappa_dot - ys[:, 1])) <= 1e-12
    assert np.max(np.abs(kappa + mirror)) <= 1e-14
    assert np.max(np.abs(kappa_dot + mirror_dot)) <= 1e-14


@pytest.mark.parametrize(
    "kappa0, kappa_dot0, c, lam", [(0.3, -0.7, 0.0, 0.0), (1.1, 0.4, -0.3, 0.5), (1e-3, -1.0, 0.0, 0.0)]
)
def test_closed_form_row_zero_is_exact(kappa0, kappa_dot0, c, lam):
    _, kappa, kappa_dot = scalar.integrate_scalar(kappa0, kappa_dot0, c, 1e-2, 10, lam)
    assert kappa[0] == kappa0 and kappa_dot[0] == kappa_dot0


@pytest.mark.parametrize(
    "kappa0, c, lam", [(1.0, 0.0, 1.0), (0.0, 0.0, 2.0), (0.0, 0.0, -1.0), (1.0, 1.0 / math.sqrt(2.0), 0.0)]
)
def test_equilibria_are_constant(kappa0, c, lam):
    # The balanced circle, kappa = 0 on either side of lam = 0 and the helix
    # (c = kappa^3/sqrt(2) to roundoff): double or triple roots, m = 0 or w = 0.
    _, kappa, kappa_dot = scalar.integrate_scalar(kappa0, 0.0, c, 1e-2, 100, lam)
    np.testing.assert_allclose(kappa, np.full(101, kappa0), rtol=0, atol=1e-15)
    np.testing.assert_allclose(kappa_dot, np.zeros(101), rtol=0, atol=1e-15)


def test_triple_root_gives_zero_curvature(tmp_path):
    # kappa0 = kappa_dot0 = lambda = 0: every root of the cubic is 0.
    cfg = tmp_path / "flat.json"
    cfg.write_text(json.dumps({"kappa0": 0.0, "kappa_dot0": 0.0, "tau0": 0.3, "lambda": 0.0}))
    out = tmp_path / "closed.csv"
    argv = ["closed", "--config", str(cfg), "--out", str(out), "--step", "0.1", "--length", "1.0"]
    assert cli.main(argv) == 0
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(table[:, 1:], np.zeros((11, 3)))
