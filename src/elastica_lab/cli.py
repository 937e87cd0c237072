"""Command-line front end.

Subcommands:
    simulate     integrate the fourth-order arclength dynamics, write a CSV trace
    hamiltonian  integrate the constrained Hamiltonian flow, write a CSV trace
    reconstruct  scalar reduction + conservation-law reconstruction, CSV trace
    reduce       curvature/torsion scalar reduction only, CSV scalar trace
    closed       length-constrained scalar run with its quadrature residual
    invariants   audit a stored trace, write a JSON residual report
    compare      sup-norm position discrepancy between two traces

Exit codes: 0 success, 1 invariant violation, 2 input error (an unwritable
--out or --report included), 3 numeric failure.
Commands raise; `main` alone turns a failure into exit 2 or 3 and prints it
as "<command> failed: <reason>".

The `_COMMANDS` table is the single declaration of the subcommands and their
options.  `main` builds only the invoked command's parser and falls back to
the full parser of `build_parser` for top-level help, an unknown command and
a leftover argument, so every usage, help and error text is the full
parser's: building all eight parsers was half the time of a short run.

Config is JSON, either a raw jet
    {"x0": [..], "xdot0": [..], "xddot0": [..], "xdddot0": [..]}
(auto-projected onto the arclength submanifold, with a warning if it was off)
or frame data
    {"kappa0": r, "kappa_dot0": r, "tau0": r, "x0": [..],
     "frame": "standard" | [[T],[N],[B]]}
with finite kappa0 >= 0, kappa_dot0 and tau0 (`closed` also reads "lambda").

Curve traces are CSV with header
    s,x1,x2,x3,xd1,xd2,xd3,xdd1,xdd2,xdd3,xddd1,xddd2,xddd3,kappa,tau
and floats at 17 significant digits (lossless round trip); a non-finite
cell in any written CSV is a numeric failure, and nothing is written.
"""

import argparse
import json
import sys

import numpy as np

from . import diagnostics, hamiltonian, lagrangian, ode, reconstruct, scalar
from .closed import angular_momentum_j, quadrature_residual, require_regular
from .frenet import KAPPA_MIN, jet_from_frame
from .geometry import STANDARD_FRAME, CurveTrace, FrenetFrame, JetState

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3

TRACE_HEADER = (
    "s,x1,x2,x3,xd1,xd2,xd3,xdd1,xdd2,xdd3,xddd1,xddd2,xddd3,kappa,tau"
)
_CSV_CHUNK = 512  # rows per format call in _write_csv


class InputError(Exception):
    pass


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InputError("config must be a JSON object")
    return cfg


def _frame_scalars(cfg, *extra):
    """(kappa0, kappa_dot0, tau0, *extra) of a frame-data config as finite
    floats; every key but kappa0 defaults to 0, and kappa0 must be >= 0."""
    try:
        values = [float(cfg["kappa0"])]
        values += [float(cfg.get(key, 0.0)) for key in ("kappa_dot0", "tau0", *extra)]
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad config: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise InputError(f"bad config: non-finite frame data {values}")
    if values[0] < 0.0:
        raise InputError("bad config: kappa0 must be >= 0 (flip N and B for the mirror frame)")
    return values


def initial_jet(cfg):
    """Build the initial arclength jet from a config dict; returns (jet, projected)."""
    try:
        if "kappa0" in cfg:
            kappa0, kappa_dot0, tau0 = _frame_scalars(cfg)
            x0 = cfg.get("x0", [0.0, 0.0, 0.0])
            frame = cfg.get("frame", "standard")
            T, N, B = STANDARD_FRAME if frame == "standard" else frame
            f = FrenetFrame(T=T, N=N, B=B, kappa=kappa0, tau=tau0)
            if kappa0 <= KAPPA_MIN:
                return JetState(0.0, x0, f.T, np.zeros(3), np.zeros(3)), False
            return jet_from_frame(x0, f, kappa_dot0), False
        jet = JetState(0.0, cfg["x0"], cfg["xdot0"], cfg["xddot0"], cfg["xdddot0"])
        if jet.is_arclength():
            return jet, False
        return lagrangian.project_arclength(jet), True
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad config: {exc}") from exc


def _grid(step, length):
    if not (0.0 < step < np.inf and 0.0 < length < np.inf):
        raise InputError("step and length must be finite and positive")
    count = int(round(length / step))
    if count < 1 or abs(count * step - length) > 1e-9 * max(1.0, length):
        raise InputError("length must be an integer multiple of step")
    return count


def _write_csv(path, header, columns):
    """Write columns side by side at 17 significant digits; returns the row
    count.  A non-finite cell raises ode.IntegrationError before the file is
    opened."""
    table = np.column_stack(columns)
    bad = np.argwhere(~np.isfinite(table))
    if len(bad):
        row, col = bad[0]
        raise ode.IntegrationError(f"non-finite {header.split(',')[col]} in row {row} of {path}")
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        # One format call per chunk: faster than a call per row, and the
        # chunk's strings stay small next to the table.
        for start in range(0, len(table), _CSV_CHUNK):
            part = table[start:start + _CSV_CHUNK]
            fh.write((line * len(part)) % tuple(part.ravel().tolist()))
    return len(table)


def write_trace(trace, path):
    """Write a curve trace CSV (TRACE_HEADER); returns the row count."""
    kappa, _, tau = diagnostics.curvature_arrays(trace)
    return _write_csv(path, TRACE_HEADER, (trace.params(), trace.data, kappa, tau))


def read_trace(path):
    """Parse a curve trace file; the state columns are validated by
    CurveTrace, the s, kappa and tau columns here."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if fh.readline().strip() != TRACE_HEADER:
                raise InputError(f"unexpected trace header in {path}")
            rows = [line for line in fh if line.strip()]
        if not rows:
            raise InputError(f"empty trace {path}")
        data = np.loadtxt(rows, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read trace {path}: {exc}") from exc
    if data.shape[1] != 15:
        raise InputError(f"malformed row in {path}")
    if not np.all(np.isfinite(data[:, [0, 13, 14]])):
        raise InputError(f"non-finite value in trace {path}")
    step = 1.0 if len(data) == 1 else data[1, 0] - data[0, 0]
    if np.any(np.abs(np.diff(data[:, 0]) - step) > diagnostics.GRID_TOL):
        raise InputError(f"bad trace {path}: samples are not uniformly spaced by step")
    try:
        return CurveTrace(step, data[:, 1:13], t0=data[0, 0], metadata={"source": path})
    except ValueError as exc:
        raise InputError(f"bad trace {path}: {exc}") from exc


def _wrote(path, rows, note=""):
    """Report a run's written CSV."""
    print(f"wrote {rows} samples to {path}{note}")
    return EXIT_OK


def _start(args):
    """Initial jet and step count of a run; warns when the jet was projected."""
    jet, projected = initial_jet(load_config(args.config))
    if projected:
        print("warning: initial jet was off the arclength submanifold; projected", file=sys.stderr)
    return jet, _grid(args.step, args.length)


def cmd_simulate(args):
    jet, count = _start(args)
    trace = lagrangian.integrate_elastica(jet, args.step, count, method=args.method)
    return _wrote(args.out, write_trace(trace, args.out))


def cmd_hamiltonian(args):
    jet, count = _start(args)
    ps0 = hamiltonian.legendre(jet)
    phase_trace = hamiltonian.integrate_flow(
        ps0, args.step, count, method=args.method, project=args.project == "on"
    )
    return _wrote(args.out, write_trace(hamiltonian.jet_trace(phase_trace), args.out))


def cmd_reconstruct(args):
    jet, count = _start(args)
    trace, branch = reconstruct.reduce_and_reconstruct(jet, args.step, count)
    return _wrote(args.out, write_trace(trace, args.out), f" (branch: {branch.value})")


def cmd_reduce(args):
    jet, count = _start(args)
    branch, kappa0, kappa_dot0, c = reconstruct.reduce_jet(jet, lagrangian.conserved_momenta(jet))
    if branch is reconstruct.Branch.DEGENERATE_LINE:
        raise InputError("straight line: nothing to reduce")
    s, kappa, kappa_dot = scalar.integrate_scalar(kappa0, kappa_dot0, c, args.step, count)
    tau = scalar.torsion_from_c(kappa, c)
    return _wrote(args.out, _write_csv(args.out, "s,kappa,kappa_dot,tau", (s, kappa, kappa_dot, tau)))


def cmd_closed(args):
    kappa0, kappa_dot0, tau0, lam = _frame_scalars(load_config(args.config), "lambda")
    count = _grid(args.step, args.length)
    j = angular_momentum_j(kappa0, tau0)
    require_regular(kappa0, j)
    # |c|^2 is the left side of the quadrature relation at s = 0, so the
    # residual of row 0 is exactly 0.
    c_sq = quadrature_residual(kappa0, kappa_dot0, lam, 0.0, j)
    s, kappa, kappa_dot = scalar.integrate_scalar(
        kappa0, kappa_dot0, -0.25 * j, args.step, count, lam
    )
    require_regular(kappa, j)
    residual = quadrature_residual(kappa, kappa_dot, lam, c_sq, j)
    rows = _write_csv(args.out, "s,kappa,kappa_dot,foltinek_residual", (s, kappa, kappa_dot, residual))
    return _wrote(args.out, rows, f"; max |foltinek residual| = {np.max(np.abs(residual)):.3e}")


def cmd_invariants(args):
    report, ok = diagnostics.invariant_report(read_trace(args.trace))
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote report to {args.report}: {'ok' if ok else 'VIOLATIONS ' + str(report['violations'])}")
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_compare(args):
    trace_a, trace_b = read_trace(args.trace_a), read_trace(args.trace_b)
    try:
        sup = diagnostics.position_discrepancy(trace_a, trace_b)
    except ValueError as exc:  # the two traces are on different grids
        raise InputError(str(exc)) from exc
    print(f"sup position discrepancy: {sup:.17g}")
    return EXIT_OK if sup <= args.tol else EXIT_VIOLATION


def _run_options(parser):
    parser.add_argument("--config", required=True, help="JSON initial-data file")
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--step", type=float, default=1e-3)
    parser.add_argument("--length", type=float, default=10.0)
    parser.add_argument("--method", choices=("rk4", "rk45"), default="rk4")
    parser.add_argument("--project", choices=("on", "off"), default="off")


def _invariants_options(parser):
    parser.add_argument("--trace", required=True)
    parser.add_argument("--report", required=True, help="output JSON path")


def _compare_options(parser):
    parser.add_argument("trace_a")
    parser.add_argument("trace_b")
    parser.add_argument("--tol", type=float, default=1e-6)


# The one declaration of the subcommands: name -> (handler, help text,
# function that adds the command's options).
_COMMANDS = {
    "simulate": (cmd_simulate, "integrate the fourth-order arclength dynamics", _run_options),
    "hamiltonian": (cmd_hamiltonian, "integrate the constrained Hamiltonian flow", _run_options),
    "reconstruct": (cmd_reconstruct, "scalar reduction + reconstruction", _run_options),
    "reduce": (cmd_reduce, "curvature/torsion scalar reduction only", _run_options),
    "closed": (cmd_closed, "length-constrained scalar run + quadrature residual", _run_options),
    "invariants": (cmd_invariants, "audit a stored trace", _invariants_options),
    "compare": (cmd_compare, "sup-norm position discrepancy of two traces", _compare_options),
}


def _declare(parser, name):
    """Give parser the options and handler of command `name`."""
    func, _, add_options = _COMMANDS[name]
    add_options(parser)
    parser.set_defaults(func=func)
    return parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="elastica-lab",
        description="Curvature-squared elastic curves as a dynamical system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
        _declare(sub.add_parser(name, help=help_text), name)
    return parser


def _parse(argv):
    """The arguments of one invocation.  Only the invoked command's parser is
    built; it has the prog and options of the full parser's subparser, so its
    help and error text is the same.  No command, an unknown one, top-level
    help and a leftover argument go through the full parser."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        parser = _declare(argparse.ArgumentParser(prog=f"elastica-lab {argv[0]}"), argv[0])
        args, rest = parser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv=None):
    """Run one subcommand; the only place a failure becomes an exit code."""
    args = _parse(argv)
    try:
        return args.func(args)
    except (InputError, OSError, ode.IntegrationError, ValueError) as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return EXIT_INPUT if isinstance(exc, (InputError, OSError)) else EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
