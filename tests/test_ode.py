import numpy as np
import pytest

from elastica_lab import ode


def test_constant_flow():
    ts, ys = ode.integrate(lambda t, y: np.zeros_like(y), np.array([2.0, -1.0]), 0.1, 20)
    assert ys.shape == (21, 2)
    np.testing.assert_array_equal(ys, np.tile([2.0, -1.0], (21, 1)))
    np.testing.assert_allclose(np.diff(ts), 0.1)


def test_exponential():
    # y' = y from 1: relative error at t=1 stays under 1e-6 already at h=0.1.
    ts, ys = ode.integrate(lambda t, y: y, np.array([1.0]), 0.1, 10)
    assert abs(ys[-1, 0] - np.e) / np.e <= 1e-6


def test_harmonic_oscillator_energy_drift():
    def rhs(t, y):
        return np.array([y[1], -y[0]])

    _, ys = ode.integrate(rhs, np.array([1.0, 0.0]), 1e-3, 1000)
    energy = 0.5 * (ys[:, 0] ** 2 + ys[:, 1] ** 2)
    assert np.max(np.abs(energy - energy[0])) / energy[0] <= 1e-8


def test_rhs_failure_reports_step_index():
    def rhs(t, y):
        if t > 0.25:
            raise FloatingPointError("boom")
        return y

    with pytest.raises(ode.IntegrationError) as err:
        ode.integrate(rhs, np.array([1.0]), 0.1, 10)
    assert err.value.step_index == 2


def test_nonfinite_state_detected():
    def rhs(t, y):
        return [v * 1e200 for v in y]

    with pytest.raises(ode.IntegrationError, match="non-finite"):
        ode.integrate(rhs, np.array([1.0]), 1.0, 5)


def test_bad_grid_arguments():
    with pytest.raises(ValueError):
        ode.integrate(lambda t, y: y, np.array([1.0]), -0.1, 5)
    with pytest.raises(ValueError):
        ode.integrate(lambda t, y: y, np.array([1.0]), 0.1, 0)


def test_rk4_order():
    hs = [1e-1, 1e-2, 1e-3]
    errs = []
    for h in hs:
        _, ys = ode.integrate(lambda t, y: y, np.array([1.0]), h, int(round(1.0 / h)))
        errs.append(abs(ys[-1, 0] - np.e))
    slope = ode.convergence_slope(hs, errs)
    assert 3.8 <= slope <= 4.2


def test_rk45_matches_exponential_tightly():
    ts, ys = ode.integrate_rk45(lambda t, y: y, np.array([1.0]), 0.1, 10)
    assert ts.shape == (11,)
    assert abs(ys[-1, 0] - np.e) <= 1e-9


def test_dp_step_orders():
    # On y' = y from 1 the local error of y5 falls as h^6 and the embedded
    # estimate h max|y5 - y4| as h^5; a mistyped stage combination breaks both.
    hs = [0.2, 0.1, 0.05, 0.025]
    local, estimate = [], []
    for h in hs:
        y5, err = ode._dp_step(lambda t, y: y, 0.0, [1.0], h)
        local.append(abs(y5[0] - np.exp(h)))
        estimate.append(err)
    assert abs(ode.convergence_slope(hs, local) - 6.0) <= 0.2
    assert abs(ode.convergence_slope(hs, estimate) - 5.0) <= 0.2


def test_rk45_rhs_failure():
    def rhs(t, y):
        raise ValueError("no")

    with pytest.raises(ode.IntegrationError):
        ode.integrate_rk45(rhs, np.array([1.0]), 0.1, 2)


def _jump(height):
    """y' = height for t > 0.05, else 0; gives up after 10^5 evaluations
    instead of hanging."""
    calls = [0]

    def rhs(t, y):
        calls[0] += 1
        if calls[0] > 100_000:
            raise RuntimeError("step controller does not finish")
        return np.array([height if t > 0.05 else 0.0])

    return rhs


def test_rk45_step_recovers_after_a_jump():
    # Past the jump the error estimate is zero, so h must grow back.
    _, ys = ode.integrate_rk45(_jump(1.0), np.array([0.0]), 0.1, 1)
    assert abs(ys[-1, 0] - 0.05) <= 1e-9


def test_rk45_gives_up_loudly():
    with pytest.raises(ode.IntegrationError, match="substep") as err:
        ode.integrate_rk45(_jump(1e6), np.array([0.0]), 0.1, 1)
    assert err.value.step_index == 0


@pytest.mark.parametrize("integrator", [ode.integrate, ode.integrate_rk45])
def test_project_hook_applies_to_every_grid_state(integrator):
    # y' = 1 with y halved after each step: y1 = 0.05, y2 = (0.05 + 0.1) / 2.
    _, ys = integrator(lambda t, y: np.ones_like(y), np.zeros(1), 0.1, 2, project=lambda y: [v / 2 for v in y])
    np.testing.assert_allclose(ys[:, 0], [0.0, 0.05, 0.075], rtol=1e-14)


def test_simpson_constant():
    assert ode.simpson(np.ones(11), 0.1) == pytest.approx(1.0, abs=1e-15)


def test_simpson_sine():
    h = np.pi / 100
    y = np.sin(np.arange(101) * h)
    assert abs(ode.simpson(y, h) - 2.0) / 2.0 <= 1e-8


def test_simpson_trailing_even_interval():
    assert ode.simpson(np.ones(4), 1.0) == pytest.approx(3.0, abs=1e-15)


def test_simpson_size_error():
    with pytest.raises(ValueError):
        ode.simpson(np.ones(2), 0.1)


def test_simpson_order():
    hs, errs = [], []
    for n in (10, 100, 1000):
        h = np.pi / n
        y = np.sin(np.arange(n + 1) * h)
        hs.append(h)
        errs.append(abs(ode.simpson(y, h) - 2.0))
    slope = ode.convergence_slope(hs, errs)
    assert 3.8 <= slope <= 4.2


def test_cumulative_simpson_against_analytic():
    h = 2.0 / 200
    x = np.arange(201) * h
    cum = ode.cumulative_simpson(np.cos(x), h)
    np.testing.assert_allclose(cum, np.sin(x), atol=1e-9)


def test_cumulative_simpson_order():
    hs, errs = [], []
    for n in (20, 40, 80, 160):
        h = 2.0 / n
        x = np.arange(n + 1) * h
        cum = ode.cumulative_simpson(np.cos(x), h)
        hs.append(h)
        errs.append(np.max(np.abs(cum - np.sin(x))))
    slope = ode.convergence_slope(hs, errs)
    assert 3.8 <= slope <= 4.2


def test_cumulative_simpson_vector_valued():
    h = 0.01
    x = np.arange(101) * h
    f = np.stack([np.cos(x), 2 * x], axis=1)
    cum = ode.cumulative_simpson(f, h)
    np.testing.assert_allclose(cum[:, 0], np.sin(x), atol=1e-10)
    np.testing.assert_allclose(cum[:, 1], x**2, atol=1e-12)


def test_cumulative_simpson_tiny_inputs():
    np.testing.assert_array_equal(ode.cumulative_simpson(np.array([3.0]), 0.1), [0.0])
    np.testing.assert_allclose(
        ode.cumulative_simpson(np.array([1.0, 3.0]), 0.5), [0.0, 1.0]
    )


def test_cumulative_hermite_exact_on_polynomials():
    # The cubic rule integrates cubics exactly, the quintic rule quintics.
    h = 0.25
    x = np.arange(9) * h
    cubic = ode.cumulative_hermite(h, 4 * x**3 - 1, 12 * x**2)
    np.testing.assert_allclose(cubic, x**4 - x, atol=1e-12)
    quintic = ode.cumulative_hermite(h, 6 * x**5, 30 * x**4, 120 * x**3)
    np.testing.assert_allclose(quintic, x**6, atol=1e-11)


@pytest.mark.parametrize("quintic, order", [(False, 4.0), (True, 6.0)])
def test_cumulative_hermite_order(quintic, order):
    hs, errs = [], []
    for n in (10, 20, 40, 80):
        h = 2.0 / n
        x = np.arange(n + 1) * h
        second = -np.cos(x) if quintic else None
        cum = ode.cumulative_hermite(h, np.cos(x), -np.sin(x), second)
        hs.append(h)
        errs.append(np.max(np.abs(cum - np.sin(x))))
    assert abs(ode.convergence_slope(hs, errs) - order) <= 0.2


def test_cumulative_hermite_vector_valued_and_tiny():
    h = 0.01
    x = np.arange(101) * h
    f = np.stack([np.cos(x), 2 * x], axis=1)
    df = np.stack([-np.sin(x), np.full_like(x, 2.0)], axis=1)
    cum = ode.cumulative_hermite(h, f, df)
    np.testing.assert_allclose(cum[:, 0], np.sin(x), atol=1e-12)
    np.testing.assert_allclose(cum[:, 1], x**2, atol=1e-13)
    np.testing.assert_array_equal(ode.cumulative_hermite(0.1, [3.0], [1.0]), [0.0])
