"""Fixed-step RK4 / adaptive RK45 over flat real-vector states, and Simpson and
Hermite quadrature.

Both integrators march the state as a list of Python floats: `rhs(t, y)` and
`project(y)` get that list and may return any sequence of numbers.  The
states are 12-vectors, on which numpy's per-call overhead cost more than the
arithmetic of a step; the grid of states is still returned as an array.
"""

from math import isfinite

import numpy as np


class IntegrationError(RuntimeError):
    """The right-hand side failed or the step controller gave up."""

    def __init__(self, message, step_index=None):
        super().__init__(message)
        self.step_index = step_index


def _rk4_step(rhs, t, y, h):
    hh = 0.5 * h
    k1 = rhs(t, y)
    k2 = rhs(t + hh, [v + hh * a for v, a in zip(y, k1)])
    k3 = rhs(t + hh, [v + hh * b for v, b in zip(y, k2)])
    k4 = rhs(t + h, [v + h * c for v, c in zip(y, k3)])
    return [v + h / 6.0 * (a + 2.0 * b + 2.0 * c + d) for v, a, b, c, d in zip(y, k1, k2, k3, k4)]


def _march(advance, rhs, initial, step, count, t0, project):
    """The output-grid loop shared by both integrators.

    advance(rhs, t, y, step) -> y one output interval later.  `project`, if
    given, maps each new finite state to the state stored and marched on.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    if count < 1:
        raise ValueError("count must be >= 1")
    y = np.asarray(initial, dtype=float).tolist()
    ts = t0 + step * np.arange(count + 1)
    ys = np.empty((count + 1, len(y)))
    ys[0] = y
    t = ts.tolist()
    for i in range(count):
        try:
            y = advance(rhs, t[i], y, step)
        except IntegrationError as exc:
            raise IntegrationError(f"{exc} at step {i}", i) from exc
        except Exception as exc:
            raise IntegrationError(f"rhs failed at step {i}: {exc}", i) from exc
        if not all(map(isfinite, y)):
            raise IntegrationError(f"state became non-finite at step {i}", i)
        if project is not None:
            y = project(y)
        ys[i + 1] = y
    return ts, ys


def integrate(rhs, initial, step, count, t0=0.0, project=None):
    """Classical RK4 with fixed step.

    rhs(t, y) -> dy/dt on a list of floats.  Returns (ts, ys) with
    ys.shape == (count + 1, len(initial)) at uniform spacing `step`.
    `project(y)`, if given, is applied to every new grid state.
    """
    return _march(_rk4_step, rhs, initial, step, count, t0, project)


# Dormand-Prince 5(4) tableau.
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
# Weights of the embedded error estimate y5 - y4 = h sum_i (b5_i - b4_i) k_i.
_DP_E = tuple(b5 - b4 for b5, b4 in zip(_DP_B5, _DP_B4))


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


# Error tolerances of the adaptive integrator, and the fraction of an output
# step below which a rejected substep makes it give up.
RTOL = 1e-10
ATOL = 1e-12
MIN_SUBSTEP = 1e-14


def _advance_adaptive(rhs, t, y, span):
    """Advance exactly `span` with embedded-error-controlled substeps."""
    remaining = span
    h = span
    while remaining > 0.0:
        h = min(h, remaining)
        while True:
            y_new, err = _dp_step(rhs, t, y, h)
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


def integrate_rk45(rhs, initial, step, count, t0=0.0, project=None):
    """Adaptive Dormand-Prince 5(4) emitting the same uniform grid as `integrate`.

    Raises IntegrationError when a rejected substep falls to MIN_SUBSTEP of
    `step` or below.
    """
    return _march(_advance_adaptive, rhs, initial, step, count, t0, project)


def simpson(samples, step):
    """Composite Simpson over uniform samples, trapezoid on a trailing even interval."""
    y = np.asarray(samples, dtype=float)
    if y.ndim != 1 or y.size < 3:
        raise ValueError("simpson needs at least 3 samples")
    if step <= 0.0:
        raise ValueError("step must be positive")
    n = y.size - 1  # number of intervals
    m = n if n % 2 == 0 else n - 1
    total = step / 3.0 * (y[0] + 4.0 * np.sum(y[1:m:2]) + 2.0 * np.sum(y[2:m:2]) + y[m])
    if m < n:
        total += 0.5 * step * (y[m] + y[m + 1])
    return float(total)


def cumulative_simpson(samples, step):
    """Cumulative integral on the sample grid, Simpson-order accurate.

    Even endpoints use composite Simpson; odd ones add the integral over the
    last single interval from the quadratic through the three nearest samples.
    Accepts (N,) or (N, k) samples; integrates along axis 0.
    """
    y = np.asarray(samples, dtype=float)
    if step <= 0.0:
        raise ValueError("step must be positive")
    n = y.shape[0]
    out = np.zeros_like(y)
    if n == 1:
        return out
    if n == 2:
        out[1] = 0.5 * step * (y[0] + y[1])
        return out
    # Simpson pair contributions: integral over [2i, 2i+2].
    pair = step / 3.0 * (y[0 : n - 2 : 2] + 4.0 * y[1 : n - 1 : 2] + y[2:n:2])
    even = np.cumsum(pair, axis=0)
    out[2::2] = even
    # Odd endpoints: quadratic fit through three nearest samples, integrated
    # over the one remaining interval.
    out[1] = step / 12.0 * (5.0 * y[0] + 8.0 * y[1] - y[2])
    if n > 3:
        # out[2k+1] = out[2k] + integral over [2k, 2k+1] via the quadratic on
        # samples (2k-1, 2k, 2k+1):  h/12 * (-y[2k-1] + 8 y[2k] + 5 y[2k+1]).
        trail = step / 12.0 * (
            -y[1 : n - 2 : 2] + 8.0 * y[2 : n - 1 : 2] + 5.0 * y[3:n:2]
        )
        out[3::2] = out[2:-1:2] + trail
    return out


def cumulative_hermite(step, f, df, ddf=None):
    """Cumulative integral on the sample grid from values and derivatives.

    Each interval takes the two-point Hermite rule: the cubic one
    h/2 (f0 + f1) + h^2/12 (f0' - f1') from f and f', or with f'' as well the
    quintic one h/2 (f0 + f1) + h^2/10 (f0' - f1') + h^3/120 (f0'' + f1'').
    Accepts (N,) or (N, k) samples; integrates along axis 0.
    """
    f, df = np.asarray(f, dtype=float), np.asarray(df, dtype=float)
    if step <= 0.0:
        raise ValueError("step must be positive")
    if ddf is None:
        parts = 0.5 * step * (f[:-1] + f[1:]) + step**2 / 12.0 * (df[:-1] - df[1:])
    else:
        ddf = np.asarray(ddf, dtype=float)
        parts = (
            0.5 * step * (f[:-1] + f[1:])
            + 0.1 * step**2 * (df[:-1] - df[1:])
            + step**3 / 120.0 * (ddf[:-1] + ddf[1:])
        )
    out = np.zeros_like(f)
    np.cumsum(parts, axis=0, out=out[1:])
    return out


def convergence_slope(hs, errors):
    """Least-squares slope of log(error) vs log(h)."""
    lh = np.log(np.asarray(hs, dtype=float))
    le = np.log(np.asarray(errors, dtype=float))
    return float(np.polyfit(lh, le, 1)[0])
