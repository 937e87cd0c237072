"""Properties the benchmark's oracle must have, checked without the program.

    python3 -m pytest perfbench/test_oracle.py -q
"""

import numpy as np
import pytest

import oracle
import spans

# (kappa0, kappa'0, tau0): generic, rising, near a turning point, small c,
# and planar starts on either side of an inflection.
STARTS = [(1.0, 0.3, 0.2), (0.7, -0.25, 0.4), (1.0, 1e-4, 0.2), (2.0, 0.3, 0.07),
          (1.0, 0.3, 0.0), (1.2, -0.4, 0.0)]
H = 2.5e-4
S = np.arange(0.0, 20.0 + H / 2, H)


# Central differences carry an O(h^2) truncation error, largest where small c
# makes the curvature dip sharply; relative to the right-hand side it stays
# below 1e-5 at this step.
_FD_TOL = 1e-5


def _second_derivative(k):
    return (k[2:] - 2.0 * k[1:-1] + k[:-2]) / H**2


@pytest.mark.parametrize("k0, kd0, tau0", STARTS)
def test_free_curvature_starts_at_initial_data(k0, kd0, tau0):
    kappa, kappa_dot = oracle.free_curvature(k0, kd0, k0 * k0 * tau0)(np.array([0.0]))
    assert kappa[0] == pytest.approx(k0, abs=1e-13)
    assert kappa_dot[0] == pytest.approx(kd0, abs=1e-12)


@pytest.mark.parametrize("k0, kd0, tau0", STARTS)
def test_free_curvature_solves_the_curvature_equation(k0, kd0, tau0):
    c = k0 * k0 * tau0
    kappa, kappa_dot = oracle.free_curvature(k0, kd0, c)(S)
    k = kappa[1:-1]
    rhs = -0.5 * k**3 + (c * c / k**3 if c else 0.0)
    assert np.max(np.abs(_second_derivative(kappa) - rhs)) < _FD_TOL * max(1.0, np.max(np.abs(rhs)))
    assert np.max(np.abs(np.gradient(kappa, H)[1:-1] - kappa_dot[1:-1])) < 1e-5


@pytest.mark.parametrize("k0, kd0, tau0", STARTS)
def test_free_curvature_keeps_the_first_integral(k0, kd0, tau0):
    c = k0 * k0 * tau0
    kappa, kappa_dot = oracle.free_curvature(k0, kd0, c)(S)
    level = kappa_dot**2 + 0.25 * kappa**4 + (c * c / kappa**2 if c else 0.0)
    assert np.max(np.abs(level - level[0])) < 1e-12 * max(1.0, level[0])


def test_planar_curvature_changes_sign():
    kappa, _ = oracle.free_curvature(1.0, 0.3, 0.0)(S)
    assert kappa.min() < -0.5 and kappa.max() > 0.5


@pytest.mark.parametrize("lam", [1.0, -0.5, 3.0])
@pytest.mark.parametrize("k0, kd0, tau0", STARTS[:2] + STARTS[4:5])
def test_closed_curvature_solves_the_constrained_equation(k0, kd0, tau0, lam):
    j, c2 = oracle.closed_constants(k0, kd0, tau0, lam)
    kappa, kappa_dot = oracle.closed_curvature(k0, kd0, tau0, lam)(S)
    assert kappa[0] == pytest.approx(k0, abs=1e-13)
    assert kappa_dot[0] == pytest.approx(kd0, abs=1e-12)
    k = kappa[1:-1]
    rhs = 0.5 * lam * k - 0.5 * k**3 + (j * j / (16.0 * k**3) if j else 0.0)
    assert np.max(np.abs(_second_derivative(kappa) - rhs)) < _FD_TOL * max(1.0, np.max(np.abs(rhs)))
    relation = 4.0 * kappa_dot**2 + (lam - kappa**2) ** 2 + (j * j / (4.0 * kappa**2) if j else 0.0)
    assert np.max(np.abs(relation - c2)) < 1e-11 * max(1.0, c2)


def test_raw_jet_is_moved_onto_the_arclength_submanifold():
    cfg = {"x0": [0.1, 0.2, 0.3], "xdot0": [1.001, 0.002, 0.0],
           "xddot0": [0.003, 1.0, 0.1], "xdddot0": [-1.0, 0.2, 0.3]}
    _, xd, xdd, xddd = (v[None, :] for v in oracle.initial_jet(cfg))
    assert np.max(np.abs(oracle.arclength_defects(xd, xdd, xddd))) < 1e-15


def test_frame_jet_has_its_curvature_and_torsion():
    cfg = {"kappa0": 1.5, "kappa_dot0": -0.2, "tau0": 0.3, "x0": [0, 0, 0], "frame": "standard"}
    kappa, kappa_dot, c = oracle.jet_scalars(oracle.initial_jet(cfg))
    assert (kappa, kappa_dot) == pytest.approx((1.5, -0.2), abs=1e-15)
    assert c == pytest.approx(1.5**2 * 0.3, abs=1e-15)


def test_self_times_sum_to_root_durations():
    tracer = spans.Tracer()
    tracer.spans[:] = [["cli.main", 0.0, 10.0, -1], ["cli.read_trace", 1.0, 4.0, 0],
                       ["cli.write_trace", 5.0, 9.0, 0], ["diagnostics.curvature_arrays", 6.0, 7.0, 2]]
    times = tracer.layer_times()
    assert times["cli.main"] == [10.0, 3.0, 1]
    assert times["cli.write_trace"] == [4.0, 3.0, 1]
    assert sum(row[1] for row in times.values()) == 10.0
