"""Span tracing of elastica-lab from outside the program.

`Tracer.install()` replaces each traced public function at every module
attribute of the package that holds it, which is the name its callers
resolve (`cli` calls `foltinek_invariant` through its own `from .closed
import`, so both `closed.foltinek_invariant` and `cli.foltinek_invariant`
are replaced).  Each call records a span (name, start, end, parent) in
memory; `uninstall()` restores the originals.  Counters ride along at the
same boundaries.
"""

import os
import sys
import time
from collections import Counter

# The traced public functions, as "<module>.<function>".
TRACED = (
    "cli.main", "cli.build_parser", "cli.load_config", "cli.initial_jet",
    "cli.write_trace", "cli.read_trace",
    "ode.integrate", "ode.integrate_rk45", "ode.cumulative_simpson",
    "lagrangian.integrate_elastica", "lagrangian.conserved_momenta",
    "hamiltonian.arclength_jet_from_phase", "hamiltonian.legendre", "hamiltonian.integrate_flow",
    "scalar.integrate_scalar",
    "reconstruct.reduce_and_reconstruct", "reconstruct.reconstruct_curve",
    "reconstruct.reconstruct_planar",
    "diagnostics.invariant_report", "diagnostics.curvature_arrays",
    "diagnostics.position_discrepancy",
    "closed.foltinek_invariant",
)
COUNTERS = ("cli.write_trace.bytes", "cli.read_trace.rows", "ode.steps", "ode.rhs_evals",
            "geometry.samples_built")
PACKAGE = "elastica_lab"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._restore = []

    def _span(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count_rhs(self, args):
        counts = self.counts
        rhs = args[0]

        def counted(t, y):
            counts["ode.rhs_evals"] += 1
            return rhs(t, y)

        counts["ode.steps"] += args[3]
        return (counted,) + tuple(args[1:])

    def _add_bytes(self, args, _):
        self.counts["cli.write_trace.bytes"] += os.path.getsize(args[1])

    def _add_rows(self, _, trace):
        self.counts["cli.read_trace.rows"] += len(trace)

    def install(self):
        hooks = {
            "ode.integrate": (self._count_rhs, None),
            "ode.integrate_rk45": (self._count_rhs, None),
            "cli.write_trace": (None, self._add_bytes),
            "cli.read_trace": (None, self._add_rows),
        }
        modules = [m for n, m in sys.modules.items() if n.startswith(PACKAGE + ".")]
        for qualified in TRACED:
            module, _, attr = qualified.partition(".")
            original = getattr(sys.modules[f"{PACKAGE}.{module}"], attr)
            wrapper = self._span(qualified, original, *hooks.get(qualified, (None, None)))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)
        geometry = sys.modules[f"{PACKAGE}.geometry"]
        for cls in (geometry.JetState, geometry.PhaseState):
            self._restore.append((cls, "__post_init__", cls.__post_init__))
            cls.__post_init__ = self._counted_init(cls.__post_init__)

    def _counted_init(self, init):
        counts = self.counts

        def counted(obj):
            counts["geometry.samples_built"] += 1
            init(obj)

        return counted

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def layer_times(self):
        """{name: [inclusive s, self s, calls]}; self time excludes child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: [0.0, 0.0, 0] for name in TRACED}
        for (name, start, end, _), inner in zip(self.spans, child):
            row = out[name]
            row[0] += end - start
            row[1] += end - start - inner
            row[2] += 1
        return out
