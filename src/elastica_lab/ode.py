"""Fixed-step RK4 / adaptive RK45 over flat real-vector states, and Simpson and
Hermite quadrature.

Both integrators march the state as n Python floats: `rhs(t, y)` and
`project(y)` get it as a list and may return any sequence of numbers.  The
states are 12-vectors, on which numpy's per-call overhead cost more than the
arithmetic of a step; the grid of states is still returned as an array.

A vector field can be declared as a `Field(name, n, body, out)`: `body`
assigns temporaries and `out` holds the n derivative expressions, all over
y0 ... y{n-1} (and t) as straight-line source.  A Field is callable as
field(t, y), through a function compiled from that source on first call.

Each integrator runs one generated march per (Butcher tableau, field)
(Hairer, Norsett & Wanner, Solving ODEs I, II.1, II.4 and II.5): one Python
function that holds the state in n locals across the whole output grid and
writes every stage of every step out in full, with the field inlined.  Its
temporaries are renamed per stage; a derivative that is a bare yj is an
alias of that stage-state name, with no code; a 0.0 derivative drops its
terms from every sum; and a stage-state component is computed only if the
field reads it or it is the returned state.  The fixed step hoists its
h * a_ij products out of the loop, and the Dormand-Prince controller is
written out inline.  Any other callable is the field that reads every
component and takes its derivatives from one rhs(t + c h, [...]) call; its
times are those of the output grid and, within an output interval, t += h.
A march is compiled on first use, under a name such as
`<ode march dp5 hamiltonian>`, and cached for the life of the process.

The Dormand-Prince march carries from one substep to the next what the
accepted one already computed.  Its stage 7 is f at the new state, so for a
field that does not read t it becomes the next substep's stage 1 (first
same as last); stage 1 is evaluated afresh only at the start and after a
projection.  max|y| is carried from the error scale, the h * a_ij products
are recomputed only when h changes, and the step-growth factor only when the
output interval goes on.  A carried value is the same float the loop form
recomputes from the same operands.

The generated code keeps the operation order of the loop form it replaced,
so the grids are bit-identical: RK4 ends with y + h / 6 * (k1 + 2 k2 + 2 k3
+ k4), and Dormand-Prince scales each coefficient by the substep's h and
sums its error terms in stage order.  A dropped 0.0 term can change only the
sign of a component that is exactly zero.
"""

import linecache
import re
from functools import cache, cached_property
from math import inf, isfinite
from typing import NamedTuple

import numpy as np


class IntegrationError(RuntimeError):
    """The right-hand side failed or the step controller gave up."""

    def __init__(self, message, step_index=None):
        super().__init__(message)
        self.step_index = step_index


def _compile(source, filename):
    """The namespace that defining `source` leaves, with this module's
    globals.  The source is registered with linecache, so a traceback
    through it shows its line."""
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {}
    exec(compile(source, filename, "exec"), globals(), namespace)
    return namespace


def _names(prefix, n):
    """'p0, p1, ..., p{n-1}'."""
    return ", ".join(f"{prefix}{i}" for i in range(n))


# An identifier in a Field's source.  A pattern string, not a compiled one:
# nothing is compiled at import.
_IDENTIFIER = r"\b[A-Za-z_]\w*"


def _rename(source, names):
    """`source` with each identifier in `names` replaced by its value."""
    return re.sub(_IDENTIFIER, lambda m: names.get(m[0], m[0]), source)


class Field:
    """A vector field y' = f(t, y) on n-vectors, declared as straight-line
    source: `body` assigns temporaries, one statement each, and `out` holds
    the n derivative expressions, all over y0 ... y{n-1} and t.

    The integrators write a Field into their generated march; field(t, y)
    runs a function compiled from the same declaration on first call and
    returns the derivatives as a list.
    """

    def __init__(self, name, n, body, out):
        if len(out) != n:
            raise ValueError(f"field {name} has {len(out)} derivatives for {n} components")
        self.name, self.n, self.body, self.out = name, n, tuple(body), tuple(out)

    @cached_property
    def _parts(self):
        """(the temporaries, the state components read, whether t is read)."""
        temps = [name.strip() for line in self.body for name in line.split("=", 1)[0].split(",")]
        used = set(re.findall(_IDENTIFIER, " ".join(self.body + self.out)))
        reads = {i for i in range(self.n) if f"y{i}" in used}
        return [name for name in temps if name], reads, "t" in used

    @cached_property
    def _function(self):
        source = "\n".join(["def field(t, y):", f"    {_names('y', self.n)}, = y",
                            *(f"    {line}" for line in self.body),
                            f"    return [{', '.join(self.out)}]", ""])
        return _compile(source, f"<ode field {self.name}>")["field"]

    def __call__(self, t, y):
        return self._function(t, y)


@cache
def _opaque(n):
    """Any callable rhs(t, y) on n-vectors, as the Field that reads every
    component and takes its derivatives from one call."""
    return Field(f"n={n}", n, [f"{_names('k', n)}, = rhs(t, [{_names('y', n)}])"],
                 [f"k{i}" for i in range(n)])


class _Tableau(NamedTuple):
    """An explicit Runge-Kutta method: nodes c, the rows of A, and the output
    y + h / divisor * sum_i b_i k_i, or with b None the last stage's state.
    Error weights e, if given, add the estimate h max|sum_i e_i k_i| and make
    the march adaptive."""

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

# Error tolerances of the adaptive integrator, the fraction of an output
# step below which a rejected substep makes it give up, and the most
# accepted substeps one output step may take (more means the field is stiff
# at this step).
RTOL = 1e-10
ATOL = 1e-12
MIN_SUBSTEP = 1e-14
MAX_SUBSTEPS = 100_000


def _weighted(weights, stages, i):
    """sum_j w_j k_j[i] as source: zero weights and zero derivatives left
    out, unit weights bare; '' if no term is left."""
    return " + ".join(k[i] if w == 1.0 else f"{w!r} * {k[i]}"
                      for w, k in zip(weights, stages) if w and k[i])


def _max(terms):
    return terms[0] if len(terms) == 1 else f"max({', '.join(terms)})"


def _step_source(tableau, field):
    """One step of `tableau` on `field` from the state y_0 ... y_{n-1}:
    (the h * coefficient lines, the stage lines, how many of those are
    stage 1's, the new state's n expressions, the error estimate's
    expression or None, and each stage's n derivative names, None for a
    0.0 derivative)."""
    n = field.n
    temps, reads, reads_time = field._parts
    scaled = {1.0: "h"}  # coefficient -> local holding h * coefficient
    products = []

    def times_h(v):
        if v not in scaled:
            scaled[v] = f"h{len(scaled)}"
            products.append(f"{scaled[v]} = h * {v!r}")
        return scaled[v]

    lines, stages = [], []  # stages[s][i]: name of k_{s+1}[i], None if 0.0
    state = [f"y_{i}" for i in range(n)]
    for s, (node, row) in enumerate(zip(tableau.c, tableau.a)):
        if s:
            returned = tableau.b is None and s == len(tableau.c) - 1
            state = []
            for i in range(n):
                terms = "".join(f" + {times_h(w)} * {k[i]}" for w, k in zip(row, stages) if w and k[i])
                if not terms:
                    state.append(f"y_{i}")
                elif returned or i in reads:
                    state.append(f"z{s + 1}_{i}")
                    lines.append(f"z{s + 1}_{i} = y_{i}{terms}")
                else:
                    state.append(None)
        names = {f"y{i}": state[i] for i in reads}
        names.update((name, f"_{name}_{s + 1}") for name in temps)
        if reads_time:
            names["t"] = f"(t + {times_h(node)})" if node else "t"
        lines += [_rename(line, names) for line in field.body]
        derivatives = []
        for j, expr in enumerate(field.out):
            if expr == "0.0":
                derivatives.append(None)
            elif expr.isidentifier():
                derivatives.append(_rename(expr, names))
            else:
                lines.append(f"k{s + 1}_{j} = {_rename(expr, names)}")
                derivatives.append(f"k{s + 1}_{j}")
        stages.append(derivatives)
        if not s:
            first = len(lines)
    if tableau.b is None:
        new = state
    else:
        products.append(f"hb = h / {tableau.divisor!r}")
        new = []
        for i in range(n):
            terms = _weighted(tableau.b, stages, i)
            new.append(f"y_{i} + hb * ({terms})" if terms else f"y_{i}")
    err = None
    if tableau.e is not None:
        terms = [f"abs({terms})" for terms in (_weighted(tableau.e, stages, i) for i in range(n)) if terms]
        err = f"h * {_max(terms)}" if terms else "0.0"
    return products, lines, first, new, err, stages


def _assign(pairs):
    """The statement that gives each (name, value) pair's name its value,
    [] if each already has it."""
    pairs = [(name, v) for name, v in pairs if v != name]
    if not pairs:
        return []
    return [", ".join(name for name, _ in pairs) + ", = " + ", ".join(v for _, v in pairs) + ","]


def _indent(depth, lines):
    return [" " * (4 * depth) + line for line in lines]


def _source(tableau, field):
    """Source of `march(rhs, project, ts, y, step, count, ys)`, the whole
    grid of `tableau` on `field`."""
    n = field.n
    products, lines, first, new, err, stages = _step_source(tableau, field)
    y_names = _names("y_", n)
    reads_time = field._parts[2]
    head = ["def march(rhs, project, ts, y, step, count, ys):", f"    {y_names}, = y"]
    if reads_time:
        head.append("    t_grid = ts.tolist()")
    state = [(f"y_{i}", v) for i, v in enumerate(new)]
    if err is None:
        head += ["    h = step", *_indent(1, products)]
        advance = lines + _assign(state)
    else:
        # With b None the last stage is f at the new state, which is the next
        # substep's stage 1 unless the field reads t: t steps by h within an
        # output interval but restarts from the grid's time at the next.
        carried = tableau.b is None and not reads_time
        fresh, substep = (lines[:first], lines[first:]) if carried else ([], lines)
        k1 = [k for k in stages[0] if k]
        state_names = {f"y_{i}" for i in range(n)}
        carry = [(k, k7) for k, k7 in zip(stages[0], stages[-1]) if k not in state_names and k != k7] if carried else []
        head += ["    give_up = MIN_SUBSTEP * step", "    fresh = True", "    h_scaled = None"]
        advance = [
            "if fresh:",
            f"    big = {_max([f'abs(y_{i})' for i in range(n)])}",
            *_indent(1, fresh),
            "    fresh = project is not None",
            "remaining = h = step",
            "substeps = 1",
            "while True:",
            "    while True:",
            "        if h != h_scaled:",
            "            h_scaled = h",
            *_indent(3, products),
            *_indent(2, substep),
            f"        big_new = {_max([f'abs({v})' for v in new])}",
            "        scale = ATOL + RTOL * max(big, big_new)",
            f"        err = {err}",
            "        if err <= scale:",
            "            break",
            # Stage 1 is f at the interval's start state: no smaller h
            # makes a non-finite one finite.
            f"        if not isfinite(err) and not ({' and '.join(f'isfinite({k})' for k in k1) or 'True'}):",
            '            raise IntegrationError("derivative became non-finite")',
            "        h *= max(0.1, 0.9 * (scale / err) ** 0.2)",
            "        if h <= give_up:",
            '            raise IntegrationError(f"substep fell to {h:.3g} with error {err:.3g} > {scale:.3g}")',
            *(["    t += h"] if reads_time else []),
            "    remaining -= h",
            *_indent(1, _assign(state + carry + [("big", "big_new")])),
            "    if remaining <= 0.0:",
            "        break",
            "    if substeps >= MAX_SUBSTEPS:",
            '        raise IntegrationError(f"{substeps} substeps, the last of {h:.3g}, did not cover the output step")',
            "    substeps += 1",
            "    h *= 5.0 if err == 0.0 else min(5.0, 0.9 * (scale / err) ** 0.2)",
            "    if remaining < h:",
            "        h = remaining",
        ]
    finite = " and ".join(f"isfinite(y_{i})" for i in range(n))
    loop = [
        "for i in range(count):",
        *(["    t = t_grid[i]"] if reads_time else []),
        "    try:",
        *_indent(2, advance),
        "    except IntegrationError as exc:",
        '        raise IntegrationError(f"{exc} at step {i}", i) from exc',
        "    except Exception as exc:",
        '        raise IntegrationError(f"rhs failed at step {i}: {exc}", i) from exc',
        f"    if not ({finite}):",
        '        raise IntegrationError(f"state became non-finite at step {i}", i)',
        "    if project is not None:",
        f"        {y_names}, = project([{y_names}])",
        f"    ys[i + 1] = ({y_names},)",
    ]
    return "\n".join([*head, *_indent(1, loop), ""])


@cache
def _kernel(tableau, field):
    """The generated march of `tableau` on `field`, compiled on first use
    and cached for the life of the process."""
    return _compile(_source(tableau, field), f"<ode march {tableau.name} {field.name}>")["march"]


def _march(tableau, rhs, initial, step, count, t0, project):
    """The output grid of both integrators, marched by the generated march
    of `tableau` on `rhs`: a Field, or any callable.

    Each output interval is one step of `tableau`, or with error weights as
    many controlled substeps as it takes.  `project`, if given, maps each new
    finite state to the state stored and marched on.
    """
    if not 0.0 < step < inf:
        raise ValueError("step must be finite and positive")
    if count < 1:
        raise ValueError("count must be >= 1")
    y = np.asarray(initial, dtype=float).tolist()
    ts = t0 + step * np.arange(count + 1)
    ys = np.empty((count + 1, len(y)))
    ys[0] = y
    field = rhs if isinstance(rhs, Field) else _opaque(len(y))
    _kernel(tableau, field)(rhs, project, ts, y, step, count, ys)
    return ts, ys


def integrate(rhs, initial, step, count, t0=0.0, project=None):
    """Classical RK4 with fixed step.

    rhs(t, y) -> dy/dt on a list of floats, or a Field.  Returns (ts, ys)
    with ys.shape == (count + 1, len(initial)) at uniform spacing `step`.
    `project(y)`, if given, is applied to every new grid state.
    """
    return _march(_RK4, rhs, initial, step, count, t0, project)


def integrate_rk45(rhs, initial, step, count, t0=0.0, project=None):
    """Adaptive Dormand-Prince 5(4) emitting the same uniform grid as `integrate`.

    Raises IntegrationError when a rejected substep falls to MIN_SUBSTEP of
    `step` or below, when a rejected substep's stage 1 (f at the output
    interval's start state) is non-finite, and when one output interval
    would take more than MAX_SUBSTEPS accepted substeps.
    """
    return _march(_DP5, rhs, initial, step, count, t0, project)


# The integrators by method name.  The table holds their names, not the
# functions, so that a wrapper set on this module under such a name (as a
# tracer does) is the one a caller gets.
METHODS = {"rk4": "integrate", "rk45": "integrate_rk45"}


def integrator(method):
    """`integrate` for "rk4", `integrate_rk45` for "rk45"."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}: expected one of {', '.join(map(repr, METHODS))}")
    return globals()[METHODS[method]]


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


def cumulative_hermite(step, f, df, ddf):
    """Cumulative integral on the sample grid from values and two derivatives.

    Each interval takes the two-point quintic Hermite rule
    h/2 (f0 + f1) + h^2/10 (f0' - f1') + h^3/120 (f0'' + f1'').
    Accepts (N,) or (N, k) samples; integrates along axis 0.
    """
    f, df, ddf = (np.asarray(v, dtype=float) for v in (f, df, ddf))
    if step <= 0.0:
        raise ValueError("step must be positive")
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
