import linecache
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from elastica_lab import cli, hamiltonian, lagrangian, ode
from elastica_lab.ode import ATOL, MIN_SUBSTEP, RTOL, IntegrationError

SRC = Path(__file__).resolve().parents[1] / "src"


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
    # The loop stepper below holds the tableau the marches are pinned to bit
    # for bit, so this checks the orders of ode._DP5.
    hs = [0.2, 0.1, 0.05, 0.025]
    local, estimate = [], []
    for h in hs:
        y5, err = _dp_step(lambda t, y: y, 0.0, [1.0], h)
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


# The list-comprehension steppers the generated marches replaced, kept as
# references: the marches must reproduce them bit for bit.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
_DP_E = tuple(b5 - b4 for b5, b4 in zip(_DP_B5, _DP_B4))


def _rk4_step(rhs, t, y, h):
    hh = 0.5 * h
    k1 = rhs(t, y)
    k2 = rhs(t + hh, [v + hh * a for v, a in zip(y, k1)])
    k3 = rhs(t + hh, [v + hh * b for v, b in zip(y, k2)])
    k4 = rhs(t + h, [v + h * c for v, c in zip(y, k3)])
    return [v + h / 6.0 * (a + 2.0 * b + 2.0 * c + d) for v, a, b, c, d in zip(y, k1, k2, k3, k4)]


def _dp_step(rhs, t, y, h):
    """One Dormand-Prince substep: (y5, h max|sum_i (b5_i - b4_i) k_i|).  The
    last stage state is y5, and the zero weights a72 = b5_2 = b4_2 are left out."""
    _, c2, c3, c4, c5, c6, c7 = _DP_C
    ((a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (a61, a62, a63, a64, a65),
     (a71, _, a73, a74, a75, a76)) = ([h * a for a in row] for row in _DP_A[1:])
    e1, _, e3, e4, e5, e6, e7 = _DP_E
    k1 = rhs(t, y)
    k2 = rhs(t + c2 * h, [v + a21 * p for v, p in zip(y, k1)])
    k3 = rhs(t + c3 * h, [v + a31 * p + a32 * q for v, p, q in zip(y, k1, k2)])
    k4 = rhs(t + c4 * h, [v + a41 * p + a42 * q + a43 * r for v, p, q, r in zip(y, k1, k2, k3)])
    k5 = rhs(t + c5 * h, [v + a51 * p + a52 * q + a53 * r + a54 * u
                          for v, p, q, r, u in zip(y, k1, k2, k3, k4)])
    k6 = rhs(t + c6 * h, [v + a61 * p + a62 * q + a63 * r + a64 * u + a65 * w
                          for v, p, q, r, u, w in zip(y, k1, k2, k3, k4, k5)])
    y5 = [v + a71 * p + a73 * r + a74 * u + a75 * w + a76 * z
          for v, p, r, u, w, z in zip(y, k1, k3, k4, k5, k6)]
    k7 = rhs(t + c7 * h, y5)
    err = max(abs(e1 * p + e3 * r + e4 * u + e5 * w + e6 * z + e7 * g)
              for p, r, u, w, z, g in zip(k1, k3, k4, k5, k6, k7))
    return y5, h * err


_JET0 = cli.initial_jet({"kappa0": 1.0, "kappa_dot0": 0.3, "tau0": 0.2})[0]
FLOWS = {
    "lagrangian": (lagrangian._flat_rhs, _JET0.to_array(), None),
    "hamiltonian": (hamiltonian._flat_rhs, hamiltonian.legendre(_JET0).to_array(), None),
    "hamiltonian projected": (hamiltonian._flat_rhs, hamiltonian.legendre(_JET0).to_array(),
                              hamiltonian.project_constraints),
}


@pytest.mark.parametrize("flow", FLOWS)
def test_rk4_grid_matches_the_loop_stepper(flow):
    rhs, y0, project = FLOWS[flow]
    ts, ys = ode.integrate(rhs, y0, 1e-2, 200, t0=0.5, project=project)
    y = y0.tolist()
    for i in range(200):
        y = _rk4_step(rhs, ts[i], y, 1e-2)
        if project is not None:
            y = project(y)
        assert ys[i + 1].tolist() == y


def test_kernels_on_a_scalar_state_with_array_rhs():
    def rhs(t, y):
        return np.array([np.sin(t) - 0.5 * y[0]])

    rng = np.random.default_rng(1)
    # One output interval of each march against the loop steppers.
    for h in rng.uniform(1e-3, 0.5, 50):
        y = [float(rng.normal())]
        assert ode.integrate(rhs, y, h, 1, t0=1.0)[1][1].tolist() == _rk4_step(rhs, 1.0, y, h)
        expected = _advance_adaptive(_dp_step, rhs, 1.0, y, h)
        assert ode.integrate_rk45(rhs, y, h, 1, t0=1.0)[1][1].tolist() == expected


def test_kernel_is_built_once_per_tableau_and_dimension():
    ode._kernel.cache_clear()
    for _ in range(2):
        ode.integrate_rk45(lambda t, y: [-v for v in y], np.ones(3), 0.1, 4)
    info = ode._kernel.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert ode._kernel(ode._DP5, ode._opaque(3)).__code__.co_filename == "<ode march dp5 n=3>"


@pytest.mark.parametrize("method, name", [("rk4", "<ode march rk4 hamiltonian>"),
                                          ("rk45", "<ode march dp5 hamiltonian>")])
def test_each_field_march_is_built_once_under_its_name(method, name):
    ode._kernel.cache_clear()
    ps0 = hamiltonian.legendre(_JET0)
    for project in (False, True):
        hamiltonian.integrate_flow(ps0, 1e-2, 5, method=method, project=project)
    info = ode._kernel.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    tableau = ode._RK4 if method == "rk4" else ode._DP5
    assert ode._kernel(tableau, hamiltonian._flat_rhs).__code__.co_filename == name


def test_importing_the_cli_compiles_nothing():
    # A fresh interpreter: building a march or a field function is left to
    # the first integration, so a command that integrates nothing pays none.
    probe = (
        "import linecache\n"
        "from elastica_lab import cli, hamiltonian, lagrangian, ode\n"
        "print(ode._kernel.cache_info().currsize, ode._opaque.cache_info().currsize,\n"
        "      sorted(k for k in linecache.cache if k.startswith('<ode')),\n"
        "      [sorted(vars(f)) for f in (lagrangian._flat_rhs, hamiltonian._flat_rhs)])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    fields = [["body", "n", "name", "out"]] * 2
    assert done.stdout.split("\n")[0] == f"0 0 [] {fields}"


@pytest.mark.parametrize("integrator", [ode.integrate, ode.integrate_rk45])
@pytest.mark.parametrize("step", [float("nan"), float("inf"), 0.0, -1.0])
def test_step_must_be_finite_and_positive(integrator, step):
    # A NaN step used to skip every substep of rk45 and return the initial
    # state on a grid of NaN times.
    with pytest.raises(ValueError, match="step must be finite and positive"):
        integrator(lambda t, y: y, [1.0], step, 3)


# The two flows' right-hand sides as they were written by hand, and the
# adaptive stepper loop, before the fields were declared as ode.Field and
# the march generated: the generated code must reproduce them bit for bit.
def _lagrangian_rhs(t, y):
    """The arclength dynamics on a 12-sequence (x, xdot, xddot, xdddot)."""
    _, _, _, a, b, c, d, e, f, g, h, i = y
    bb = -1.5 * (d * d + e * e + f * f)
    bc = 3.0 * (d * g + e * h + f * i)
    return [a, b, c, d, e, f, g, h, i, bb * d - bc * a, bb * e - bc * b, bb * f - bc * c]


def _hamiltonian_rhs(t, y):
    """The arclength-normalized flow on a 12-sequence (x, xdot, p_x, p_xdot)."""
    _, _, _, a, b, c, px, py, pz, qx, qy, qz = y
    u = 3.0 * (px * a + py * b + pz * c)
    return [a, b, c, 0.5 * qx, 0.5 * qy, 0.5 * qz, 0.0, 0.0, 0.0, u * a - px, u * b - py, u * c - pz]


def _advance_adaptive(dp_step, rhs, t, y, span):
    """Advance exactly `span` with embedded-error-controlled substeps."""
    remaining = span
    h = span
    while remaining > 0.0:
        h = min(h, remaining)
        while True:
            y_new, err = dp_step(rhs, t, y, h)
            scale = ATOL + RTOL * max(max(map(abs, y)), max(map(abs, y_new)))
            if err <= scale:
                break
            h *= max(0.1, 0.9 * (scale / err) ** 0.2)
            if h <= MIN_SUBSTEP * span:
                raise IntegrationError(
                    f"substep fell to {h:.3g} with error {err:.3g} > {scale:.3g}"
                )
        t += h
        remaining -= h
        y = y_new
        h *= 5.0 if err == 0.0 else min(5.0, 0.9 * (scale / err) ** 0.2)
    return y


def _reference_grid(method, rhs, y0, step, count, project):
    """The grid of the loop steppers: one loop-form RK4 step, or the loop
    form of the Dormand-Prince controller, per output interval."""
    ts = step * np.arange(count + 1)
    ys = [y0.tolist()]
    for t in ts[:-1].tolist():
        if method == "rk4":
            y = _rk4_step(rhs, t, ys[-1], step)
        else:
            y = _advance_adaptive(_dp_step, rhs, t, ys[-1], step)
        assert all(map(np.isfinite, y))
        ys.append(y if project is None else project(y))
    return np.array(ys)


FIELDS = [(lagrangian._flat_rhs, _lagrangian_rhs), (hamiltonian._flat_rhs, _hamiltonian_rhs)]


@pytest.mark.parametrize("field, reference", FIELDS, ids=["lagrangian", "hamiltonian"])
def test_field_returns_the_hand_written_floats(field, reference):
    rng = np.random.default_rng(5)
    samples = [rng.normal(size=12), rng.normal(scale=1e150, size=12), np.zeros(12), -np.zeros(12),
               rng.choice([0.0, -0.0, 1e300, -1e300, 2.5], size=12)]
    samples += [rng.normal(size=12) * rng.choice([0.0, -0.0, 1.0, 1e100], size=12) for _ in range(200)]
    for y in samples:
        y = y.tolist()
        assert list(map(float.hex, field(0.7, y))) == list(map(float.hex, reference(0.7, y)))


MARCHES = {
    "rk4 lagrangian": ("rk4", lagrangian._flat_rhs, _lagrangian_rhs, _JET0.to_array(), None),
    "rk45 lagrangian": ("rk45", lagrangian._flat_rhs, _lagrangian_rhs, _JET0.to_array(), None),
    "rk4 hamiltonian": ("rk4", hamiltonian._flat_rhs, _hamiltonian_rhs,
                        hamiltonian.legendre(_JET0).to_array(), None),
    "rk45 hamiltonian": ("rk45", hamiltonian._flat_rhs, _hamiltonian_rhs,
                         hamiltonian.legendre(_JET0).to_array(), None),
    "rk45 hamiltonian projected": ("rk45", hamiltonian._flat_rhs, _hamiltonian_rhs,
                                   hamiltonian.legendre(_JET0).to_array(), hamiltonian.project_constraints),
}


@pytest.mark.parametrize("march", MARCHES)
def test_generated_march_matches_the_reference_loop(march):
    # 2 000 output steps each: the field written into the march, the same
    # field as an opaque callable, and the loop steppers on the hand-written
    # right-hand side give the same grid.
    method, field, reference, y0, project = MARCHES[march]
    integrator = ode.integrate if method == "rk4" else ode.integrate_rk45
    step, count = 1e-2, 2000
    _, fused = integrator(field, y0, step, count, project=project)
    _, opaque = integrator(lambda t, y: field(t, y), y0, step, count, project=project)
    expected = _reference_grid(method, reference, y0, step, count, project)
    assert np.array_equal(fused, expected)
    assert np.array_equal(opaque, expected)


@pytest.mark.parametrize("jump, y0", [(1.0, [0.0, 3.0]), (-1.0, [5.0, 3.0])])
def test_rk45_substeps_match_the_reference_controller(jump, y0):
    # A jump in y0' makes the controller reject, shrink and grow back (after
    # error estimates of exactly 0 in the first case), and a shrinking |y|
    # makes the old state set the error scale in the second; every rhs call
    # of the generated march must come at the time, and with the state, of
    # the loop-form controller's.
    def recorder(calls):
        def rhs(t, y):
            calls.append((t, *y))
            return [jump if t > 0.123 else 0.0, -y[0]]
        return rhs

    got, expected = [], []
    _, ys = ode.integrate_rk45(recorder(got), y0, 0.1, 4, t0=0.05)
    y = y0
    for t in (0.05 + 0.1 * np.arange(4)).tolist():
        y = _advance_adaptive(_dp_step, recorder(expected), t, y, 0.1)
    assert len(got) > 4 * 7
    assert got == expected
    assert ys[-1].tolist() == y


# A field with a bare temporary as a derivative, whose stage-7 name the march
# hands to stage 1, and a projection that halves y0, after which stage 1
# must be evaluated afresh.
_CUBIC = ode.Field("cubic", 3, ("r = y0 * y0",), ("y1", "0.1 * y2 - y0 * r", "r"))

COARSE = {
    "lagrangian": (lagrangian._flat_rhs, _lagrangian_rhs, _JET0.to_array(), None),
    "hamiltonian projected": (hamiltonian._flat_rhs, _hamiltonian_rhs, hamiltonian.legendre(_JET0).to_array(),
                              hamiltonian.project_constraints),
    "cubic halved": (_CUBIC, _CUBIC, np.array([1.0, 0.0, 0.0]), lambda y: [0.5 * y[0], y[1], y[2]]),
}


@pytest.mark.parametrize("case", COARSE)
def test_rk45_march_over_rejected_and_multiple_substeps(case):
    # At step 0.5 each output interval takes several substeps and some are
    # rejected: the stage 1, max|y| and h * a_ij that the march carries from
    # one substep to the next must leave the loop-form controller's grid.
    field, reference, y0, project = COARSE[case]
    step, count = 0.5, 10
    calls = []

    def recorded(t, y):
        calls.append((t, *y))
        return field(t, y)

    _, opaque = ode.integrate_rk45(recorded, y0, step, count, project=project)
    firsts = calls[::7]  # a rejected attempt's stage 1 is repeated by the next
    rejected = sum(a == b for a, b in zip(firsts, firsts[1:]))
    assert rejected >= 5
    assert len(firsts) - rejected >= 5 * count
    _, fused = ode.integrate_rk45(field, y0, step, count, project=project)
    expected = _reference_grid("rk45", reference, y0, step, count, project)
    assert np.array_equal(fused, expected)
    assert np.array_equal(opaque, expected)


# y'' = 0.3 t - y (1 + 0.1 y^2), a declared field that reads t: each output
# interval starts at its grid time, not at the previous one's t + h, so its
# stage 1 is never taken from the previous stage 7.
_FORCED = ode.Field("forced", 2, ("w = 0.3 * t",), ("y1", "w - y0 * (1.0 + 0.1 * y0 * y0)"))


@pytest.mark.parametrize("method", ["rk4", "rk45"])
@pytest.mark.parametrize("step, count", [(1e-2, 2000), (0.5, 40)])
def test_field_that_reads_t_matches_the_reference_loop(method, step, count):
    y0 = np.array([1.0, 0.0])
    _, ys = ode.integrator(method)(_FORCED, y0, step, count)
    assert np.array_equal(ys, _reference_grid(method, _FORCED, y0, step, count, None))


def test_dp_march_carries_stage_1_and_the_state_norm():
    # Stage 1 of a field that does not read t is evaluated once, before the
    # substeps, and an accepted substep hands its stage 7 and max|y| on.
    source = "".join(linecache.getlines(ode._kernel(ode._DP5, lagrangian._flat_rhs).__code__.co_filename))
    assert source.count("_bb_1 =") == 1
    assert source.index("_bb_1 =") < source.index("while True:")
    assert "y_11, k1_9, k1_10, k1_11, big, = z7_0, " in source
    assert ", z7_11, k7_9, k7_10, k7_11, big_new,\n" in source


@pytest.mark.parametrize("method", ["RK4", "euler"])
def test_unknown_method_is_refused(method):
    # An unknown name used to run rk45 and tag the trace with that name.
    assert (ode.integrator("rk4"), ode.integrator("rk45")) == (ode.integrate, ode.integrate_rk45)
    with pytest.raises(ValueError, match=r"unknown method .*: expected one of 'rk4', 'rk45'$"):
        lagrangian.integrate_elastica(_JET0, 1e-2, 3, method=method)
    with pytest.raises(ValueError, match=r"unknown method .*: expected one of 'rk4', 'rk45'$"):
        hamiltonian.integrate_flow(hamiltonian.legendre(_JET0), 1e-2, 3, method=method)


def test_generated_march_aliases_copies_and_drops_zeros():
    # No code for a bare-copy derivative, none for the terms of a 0.0 one,
    # and a stage state only where the field reads it or it is returned.
    def source(tableau, field):
        return "".join(linecache.getlines(ode._kernel(tableau, field).__code__.co_filename))

    lagrangian_rk4 = source(ode._RK4, lagrangian._flat_rhs)
    hamiltonian_dp5 = source(ode._DP5, hamiltonian._flat_rhs)
    for s in range(1, 8):
        for i in range(9):
            assert f"k{s}_{i} =" not in lagrangian_rk4
        for i in range(3):
            assert f"k{s}_{i} =" not in hamiltonian_dp5
            assert f"k{s}_{i + 6} =" not in hamiltonian_dp5
            assert f"z{s}_{i} =" not in lagrangian_rk4
            assert f"z{s}_{i + 6} =" not in hamiltonian_dp5
        assert f"_bb_{s} =" in lagrangian_rk4 if s <= 4 else f"_u_{s} =" in hamiltonian_dp5
    assert "z7_0 = " in hamiltonian_dp5  # the returned state
    assert "rhs(" not in lagrangian_rk4 + hamiltonian_dp5


def test_fused_field_that_overflows_is_non_finite_at_its_step():
    # y' = 1e30 y leaves the float range within a few steps of size 1; the
    # loop stepper finds the step, and both marches must report it.
    field = ode.Field("growth", 1, (), ("1e30 * y0",))
    y = [1.0]
    for i in range(50):
        y = _rk4_step(field, 0.0, y, 1.0)
        if not np.isfinite(y[0]):
            break
    assert i > 0
    for rhs in (field, lambda t, y: field(t, y)):
        with pytest.raises(ode.IntegrationError, match=f"^state became non-finite at step {i}$") as err:
            ode.integrate(rhs, [1.0], 1.0, 50)
        assert err.value.step_index == i


def test_rk45_stops_at_once_on_a_non_finite_derivative():
    # y' = y * 1e308 * 10 is infinite at the start state, so no smaller
    # substep helps: the first attempt (7 stages) must be the last, where the
    # controller used to shrink h ~15 times and blame the substep size.
    field = ode.Field("nanf", 1, (), ("y0 * 1e308 * 10",))
    calls = []

    def recorded(t, y):
        calls.append(t)
        return field(t, y)

    for rhs in (field, recorded):
        with pytest.raises(ode.IntegrationError, match="^derivative became non-finite at step 0$") as err:
            ode.integrate_rk45(rhs, [1.0], 0.5, 2)
        assert err.value.step_index == 0
    assert len(calls) == 7
    # A finite stage 1 with a later stage that overflows still shrinks h.
    with pytest.raises(ode.IntegrationError, match="^substep fell to .* with error nan > .* at step 0$"):
        ode.integrate_rk45(ode.Field("steep", 1, (), ("1e300 * y0 * y0",)), [1.0], 0.5, 2)


def test_rk45_bounds_the_substeps_of_one_output_step():
    # y' = -1e9 y is stable only for substeps below ~3e-9: an output step of
    # 0.5 used to accept substeps near that limit for hours.  A fresh
    # interpreter, so that a march without the bound fails on the timeout
    # instead of hanging the suite.
    probe = (
        "from elastica_lab import ode\n"
        "field = ode.Field('stiff', 1, (), ('-1e9 * y0',))\n"
        "for rhs in (field, lambda t, y: field(t, y)):\n"
        "    try:\n"
        "        ode.integrate_rk45(rhs, [1.0], 0.5, 2)\n"
        "    except ode.IntegrationError as exc:\n"
        "        print(exc.step_index, exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True,
                          timeout=60)
    message = f"0 {ode.MAX_SUBSTEPS} substeps, the last of 3.29e-09, did not cover the output step at step 0"
    assert done.stdout.splitlines() == [message] * 2


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
    h = 0.25
    x = np.arange(9) * h
    quintic = ode.cumulative_hermite(h, 6 * x**5, 30 * x**4, 120 * x**3)
    np.testing.assert_allclose(quintic, x**6, atol=1e-11)


def test_cumulative_hermite_order():
    hs, errs = [], []
    for n in (10, 20, 40, 80):
        h = 2.0 / n
        x = np.arange(n + 1) * h
        cum = ode.cumulative_hermite(h, np.cos(x), -np.sin(x), -np.cos(x))
        hs.append(h)
        errs.append(np.max(np.abs(cum - np.sin(x))))
    assert abs(ode.convergence_slope(hs, errs) - 6.0) <= 0.2


def test_cumulative_hermite_vector_valued_and_tiny():
    h = 0.01
    x = np.arange(101) * h
    f = np.stack([np.cos(x), 2 * x], axis=1)
    df = np.stack([-np.sin(x), np.full_like(x, 2.0)], axis=1)
    ddf = np.stack([-np.cos(x), np.zeros_like(x)], axis=1)
    cum = ode.cumulative_hermite(h, f, df, ddf)
    np.testing.assert_allclose(cum[:, 0], np.sin(x), atol=1e-12)
    np.testing.assert_allclose(cum[:, 1], x**2, atol=1e-13)
    np.testing.assert_array_equal(ode.cumulative_hermite(0.1, [3.0], [1.0], [0.0]), [0.0])
