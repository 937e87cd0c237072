"""Fixed-step RK4 / adaptive RK45 over flat real-vector states, and Simpson and
Hermite quadrature.

Both integrators march the state as a list of Python floats: `rhs(t, y)` and
`project(y)` get that list and may return any sequence of numbers.  The
states are 12-vectors, on which numpy's per-call overhead cost more than the
arithmetic of a step; the grid of states is still returned as an array.

A step is generated from its Butcher tableau (Hairer, Norsett & Wanner,
Solving ODEs I, II.1 and II.5) as straight-line code on the n unpacked
floats: no loops, no zip, no per-step coefficient lists.  Each (tableau, n)
kernel is compiled on first use, under a name such as `<ode kernel dp5 n=12>`,
and cached for the life of the process.  It keeps the operation order of the
loop form it replaced, so the grids are bit-identical: RK4 ends with
y + h / 6 * (k1 + 2 k2 + 2 k3 + k4), and Dormand-Prince scales its
coefficients by h once per substep and sums its error terms in stage order.
"""

import linecache
from functools import cache, partial
from math import isfinite
from typing import NamedTuple

import numpy as np


class IntegrationError(RuntimeError):
    """The right-hand side failed or the step controller gave up."""

    def __init__(self, message, step_index=None):
        super().__init__(message)
        self.step_index = step_index


class _Tableau(NamedTuple):
    """An explicit Runge-Kutta method: nodes c, the rows of A, and the output
    y + h / divisor * sum_i b_i k_i, or with b None the last stage's state.
    Error weights e, if given, add the estimate h max|sum_i e_i k_i|."""

    name: str
    c: tuple
    a: tuple
    b: tuple | None
    divisor: float
    e: tuple | None


_RK4 = _Tableau("rk4", (0.0, 0.5, 0.5, 1.0), ((), (0.5,), (0.0, 0.5), (0.0, 0.0, 1.0)),
                (1.0, 2.0, 2.0, 1.0), 6.0, None)

# Dormand-Prince 5(4): the last row of A is the fifth-order weights, so y5 is
# the stage-7 state; the error weights are b5 - b4.
_DP_A7 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
_DP5 = _Tableau(
    "dp5",
    (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0),
    (
        (),
        (1 / 5,),
        (3 / 40, 9 / 40),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
        _DP_A7,
    ),
    None,
    1.0,
    tuple(b5 - b4 for b5, b4 in zip(_DP_A7 + (0.0,), _DP_B4)),
)


def _weighted(weights, stages, i):
    """sum_j w_j k_j[i] as source: zero weights left out, unit ones bare."""
    return " + ".join(f"{k}_{i}" if w == 1.0 else f"{w!r} * {k}_{i}" for w, k in zip(weights, stages) if w)


def _kernel_source(tableau, n):
    """Source of `step(rhs, t, y, h)` for `tableau` on n-vectors, written out
    as straight-line code on n unpacked floats."""
    scaled = {1.0: "h"}  # coefficient -> local holding h * coefficient
    prologue = []

    def times_h(v):
        if v not in scaled:
            scaled[v] = f"h{len(scaled)}"
            prologue.append(f"    {scaled[v]} = h * {v!r}")
        return scaled[v]

    def names(prefix):
        return ", ".join(f"{prefix}_{i}" for i in range(n)) + ","

    body = [f"    {names('y')} = y"]
    stages = [f"k{s}" for s in range(1, len(tableau.c) + 1)]
    for s, (node, row) in enumerate(zip(tableau.c, tableau.a)):
        if s == 0:
            state = "y"
        else:
            state = "[" + ", ".join(
                f"y_{i}" + "".join(f" + {times_h(w)} * {k}_{i}" for w, k in zip(row, stages) if w)
                for i in range(n)) + "]"
        if tableau.b is None and s == len(tableau.c) - 1:
            body.append(f"    z = {state}")
            state = "z"
        time = f"t + {times_h(node)}" if node else "t"
        body.append(f"    {names(stages[s])} = rhs({time}, {state})")
    if tableau.b is None:
        out = "z"
    else:
        prologue.append(f"    hb = h / {tableau.divisor!r}")
        out = "[" + ", ".join(f"y_{i} + hb * ({_weighted(tableau.b, stages, i)})"
                              for i in range(n)) + "]"
    if tableau.e is not None:
        terms = [f"abs({_weighted(tableau.e, stages, i)})" for i in range(n)]
        out += f", h * {terms[0] if n == 1 else 'max(' + ', '.join(terms) + ')'}"
    return "\n".join(["def step(rhs, t, y, h):", *prologue, *body, f"    return {out}", ""])


@cache
def _kernel(tableau, n):
    """The step of `tableau` on n-vectors, compiled on first use and cached
    for the life of the process."""
    filename = f"<ode kernel {tableau.name} n={n}>"
    source = _kernel_source(tableau, n)
    # Registered so that a traceback through the kernel shows its source line.
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["step"]


def _rk4_step(rhs, t, y, h):
    """One classical RK4 step."""
    return _kernel(_RK4, len(y))(rhs, t, y, h)


def _dp_step(rhs, t, y, h):
    """One Dormand-Prince substep: (y5, h max|sum_i (b5_i - b4_i) k_i|)."""
    return _kernel(_DP5, len(y))(rhs, t, y, h)


def _march(tableau, adaptive, rhs, initial, step, count, t0, project):
    """The output-grid loop shared by both integrators.

    Each output interval is one step of `tableau`, or with `adaptive` as many
    error-controlled substeps as it takes.  `project`, if given, maps each new
    finite state to the state stored and marched on.
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
    advance = _kernel(tableau, len(y))
    if adaptive:
        advance = partial(_advance_adaptive, advance)
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
    return _march(_RK4, False, rhs, initial, step, count, t0, project)


# Error tolerances of the adaptive integrator, and the fraction of an output
# step below which a rejected substep makes it give up.
RTOL = 1e-10
ATOL = 1e-12
MIN_SUBSTEP = 1e-14


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


def integrate_rk45(rhs, initial, step, count, t0=0.0, project=None):
    """Adaptive Dormand-Prince 5(4) emitting the same uniform grid as `integrate`.

    Raises IntegrationError when a rejected substep falls to MIN_SUBSTEP of
    `step` or below.
    """
    return _march(_DP5, True, rhs, initial, step, count, t0, project)


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
