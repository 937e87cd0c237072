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
--out or --report included), 3 numeric failure (a grid too large included:
a --length / --step that overflows a float, or one whose grid cannot be
allocated).
Commands raise; `main` alone turns a failure into exit 2 or 3 and prints it
as "<command> failed: <reason>".

The `_COMMANDS` table is the single declaration of the subcommands and their
options.  `main` parses with the invoked command's parser alone and falls
back to the full parser of `build_parser` for top-level help, an unknown
command and a leftover argument, so every usage, help and error text is the
full parser's.  A command's parser is built on its first invocation and kept
for the life of the process: building all eight parsers was half the time of
a short run, and building even the one was the largest fixed cost of an
in-process call.

Config is JSON, either a raw jet
    {"x0": [..], "xdot0": [..], "xddot0": [..], "xdddot0": [..]}
(auto-projected onto the arclength submanifold, with a warning if it was off)
or frame data
    {"kappa0": r, "kappa_dot0": r, "tau0": r, "x0": [..],
     "frame": "standard" | [[T],[N],[B]]}
with finite kappa0 >= 0, kappa_dot0 and tau0 (`closed` also reads "lambda").
Either form may give "lambda".  A key outside the config's form, and a bool or
a string for kappa0, kappa_dot0, tau0 or lambda, is refused.
A run prints one "warning:" line on stderr that names each given input its
command does not read (see `_config`).

Curve traces are CSV with header
    s,x1,x2,x3,xd1,xd2,xd3,xdd1,xdd2,xdd3,xddd1,xddd2,xddd3,kappa,tau
and floats at 17 significant digits (lossless round trip); every CSV ends its
lines with "\n" on every platform.  A non-finite cell in any written CSV is
a numeric failure, and nothing is written.  A read needs uniformly spaced s:
every spacing within GRID_TOL * max(1, |s|) of the first, since the rounding
of s grows with |s|.

`write_trace` keeps the last three traces it wrote, each with the size and
CRC-32 of the bytes it wrote, and only when the trace passes the checks a
read makes.  `read_trace` returns a kept trace without parsing when the file
at that path still has that size and CRC-32; otherwise, and in a fresh
process, it parses the file.  Because %.17g round-trips every finite double,
the kept trace is bitwise the trace a parse would give.  A stale hit needs
the file rewritten, by another writer, to different bytes of the same size
and CRC-32: CRC-32 catches every burst of up to 32 bits and misses any other
change with probability 2**-32.  zlib is loaded by numpy already and takes
about 1.4 ms per 3 MB; hashlib would load OpenSSL, several MB of resident
memory.  Any write to a path drops what was kept for it.
"""

import argparse
import collections
import functools
import json
import os
import sys
import zlib

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
# The keys of the frame and the raw-jet config forms.
_FRAME_KEYS = {"kappa0", "kappa_dot0", "tau0", "lambda", "x0", "frame"}
_RAW_KEYS = {"x0", "xdot0", "xddot0", "xdddot0", "lambda"}
_CSV_CHUNK = 512  # rows per format call in _write_csv
# Bytes per read when a kept trace's file is checked; a 1 MB chunk could fault
# in fresh heap pages after each heap trim, making `compare` up to 1.5x slower.
_READ_CHUNK = 1 << 16
# One pass of the lab writes three curve traces, then audits and compares
# them, so three kept traces serve every read of a pass.
_KEPT_TRACES = 3
# abspath -> ((size, CRC-32) of the written file, step, t0, (N, 12) data) of
# the last _KEPT_TRACES traces write_trace wrote, least recently used first.
_kept = collections.OrderedDict()


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
    unknown = sorted(set(cfg) - (_FRAME_KEYS if "kappa0" in cfg else _RAW_KEYS))
    if unknown:
        raise InputError(f"bad config: unknown key {', '.join(map(repr, unknown))}")
    for key in ("kappa0", "kappa_dot0", "tau0", "lambda"):
        if isinstance(cfg.get(key), (bool, str)):
            raise InputError(f"bad config: {key} must be a number, not {cfg[key]!r}")
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
            if frame == "standard":
                frame = STANDARD_FRAME
            elif not (isinstance(frame, (list, tuple)) and len(frame) == 3):
                raise InputError(f'bad config: frame must be "standard" or three rows [T, N, B], not {frame!r}')
            T, N, B = frame
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
    if length / step == np.inf:  # a numeric failure, like a grid too large to allocate
        raise ValueError(f"too many steps: length / step = {length!r} / {step!r} overflows")
    count = int(round(length / step))
    if count < 1 or abs(count * step - length) > 1e-9 * max(1.0, length):
        raise InputError("length must be an integer multiple of step")
    return count


class _Signature:
    """Byte count and CRC-32 of the bytes passed to `add`, in order."""

    def __init__(self):
        self.size = self.crc = 0

    def add(self, data):
        self.size += len(data)
        self.crc = zlib.crc32(data, self.crc)

    def key(self):
        return self.size, self.crc


def _file_signature(path):
    """(size, CRC-32) of a file's bytes."""
    signature = _Signature()
    with open(path, "rb") as fh:
        for data in iter(lambda: fh.read(_READ_CHUNK), b""):
            signature.add(data)
    return signature.key()


def _csv_text(header, table):
    """The CSV text of a table, in pieces: the header line, then one piece
    per _CSV_CHUNK rows.  One format call per piece is faster than a call
    per row, and each piece stays small next to the table."""
    yield header + "\n"
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    for start in range(0, len(table), _CSV_CHUNK):
        part = table[start:start + _CSV_CHUNK]
        yield (line * len(part)) % tuple(part.ravel().tolist())


def _write_csv(path, header, columns, signature=None):
    """Write columns side by side at 17 significant digits, with "\\n" line
    ends on every platform; returns the row count.  A non-finite cell raises
    ode.IntegrationError before the file is opened.  Every byte written is
    also fed to `signature`, a _Signature, when one is given."""
    table = np.column_stack(columns)
    bad = np.argwhere(~np.isfinite(table))
    if len(bad):
        row, col = bad[0]
        raise ode.IntegrationError(f"non-finite {header.split(',')[col]} in row {row} of {path}")
    _kept.pop(os.path.abspath(path), None)
    with open(path, "wb") as fh:
        for text in _csv_text(header, table):
            data = text.encode()
            fh.write(data)
            if signature is not None:
                signature.add(data)
    return len(table)


def _validated(s, state, kappa, tau, path):
    """The curve trace of a trace file's columns: s, kappa and tau must be
    finite, s uniformly spaced within GRID_TOL * max(1, |s|), and the (N, 12)
    state columns are validated by CurveTrace."""
    if not all(np.isfinite(column).all() for column in (s, kappa, tau)):
        raise InputError(f"non-finite value in trace {path}")
    step = 1.0 if len(s) == 1 else s[1] - s[0]
    # The largest |s| of a uniform grid is at one of its ends.
    tol = diagnostics.GRID_TOL * max(1.0, abs(s[0]), abs(s[-1]))
    if (np.abs(s[1:] - s[:-1] - step) > tol).any():
        raise InputError(f"bad trace {path}: samples are not uniformly spaced by step")
    try:
        return CurveTrace(step, state, t0=s[0], metadata={"source": path})
    except ValueError as exc:
        raise InputError(f"bad trace {path}: {exc}") from exc


def write_trace(trace, path):
    """Write a curve trace CSV (TRACE_HEADER); returns the row count.  The
    written trace is kept, with the size and CRC-32 of the file's bytes,
    when it passes the checks a read makes."""
    kappa, _, tau = diagnostics.curvature_arrays(trace)
    s = trace.params()
    signature = _Signature()
    rows = _write_csv(path, TRACE_HEADER, (s, trace.data, kappa, tau), signature)
    try:
        kept = _validated(s, trace.data, kappa, tau, path)
    except InputError:
        return rows
    _kept[os.path.abspath(path)] = (signature.key(), kept.step, kept.t0, kept.data)
    if len(_kept) > _KEPT_TRACES:
        _kept.popitem(last=False)
    return rows


def _parse_trace(path):
    """The (N, 15) table of a trace file, parsed."""
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
    return data


def read_trace(path):
    """The curve trace of a trace file.  A trace this process wrote is
    returned without parsing while the file holds exactly the written
    bytes; any other file is parsed and validated as `write_trace` does."""
    key = os.path.abspath(path)
    entry = _kept.pop(key, None)
    if entry is not None:
        signature, step, t0, data = entry
        try:
            unchanged = _file_signature(path) == signature
        except OSError:
            unchanged = False
        if unchanged:
            _kept[key] = entry
            return CurveTrace(step, data, t0=t0, metadata={"source": path})
    data = _parse_trace(path)
    return _validated(data[:, 0], data[:, 1:13], data[:, 13], data[:, 14], path)


def _wrote(path, rows, note=""):
    """Report a run's written CSV."""
    print(f"wrote {rows} samples to {path}{note}")
    return EXIT_OK


def _config(args):
    """The config of a run.  Warns on stderr of each given input that the
    command does not read: only `closed` reads a nonzero "lambda", only
    `hamiltonian` --project and only `simulate` and `hamiltonian` --method."""
    cfg = load_config(args.config)
    ignored = []
    if args.command != "closed" and cfg.get("lambda", 0.0) != 0.0:
        ignored.append(f'config "lambda" = {cfg["lambda"]!r}')
    if args.command != "hamiltonian" and args.project == "on":
        ignored.append("--project on")
    if args.command not in ("simulate", "hamiltonian") and args.method != "rk4":
        ignored.append(f"--method {args.method}")
    if ignored:
        print(f"warning: {args.command} ignores {', '.join(ignored)}", file=sys.stderr)
    return cfg


def _start(args):
    """Initial jet and step count of a run; warns when the jet was projected."""
    jet, projected = initial_jet(_config(args))
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
    kappa0, kappa_dot0, tau0, lam = _frame_scalars(_config(args), "lambda")
    count = _grid(args.step, args.length)
    j = angular_momentum_j(kappa0, tau0)
    s, kappa, kappa_dot = scalar.integrate_scalar(
        kappa0, kappa_dot0, -0.25 * j, args.step, count, lam
    )
    require_regular(kappa, j)
    # |c|^2 is the left side of the quadrature relation at s = 0, so the
    # residual of row 0 is exactly 0.
    c_sq = quadrature_residual(kappa0, kappa_dot0, lam, 0.0, j)
    residual = quadrature_residual(kappa, kappa_dot, lam, c_sq, j)
    rows = _write_csv(args.out, "s,kappa,kappa_dot,foltinek_residual", (s, kappa, kappa_dot, residual))
    return _wrote(args.out, rows, f"; max |foltinek residual| = {np.max(np.abs(residual)):.3e}")


def cmd_invariants(args):
    report, ok = diagnostics.invariant_report(read_trace(args.trace))
    with open(args.report, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote report to {args.report}: {'ok' if ok else 'VIOLATIONS ' + str(report['violations'])}")
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_compare(args):
    if not args.tol >= 0.0:
        raise InputError(f"tol must be >= 0, not {args.tol}")
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
    parser.add_argument("--method", choices=tuple(ode.METHODS), default="rk4")
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


class _NegativeNumbers:
    """Stands in for argparse's negative-number pattern, which knows only -12
    and -.5: any argument that float() reads, such as -1e-3 or -inf, is a
    value, so `--step -1e-3` reaches the command's own check instead of
    "expected one argument".  No option string of the lab reads as a float."""

    @staticmethod
    def match(arg):
        try:
            float(arg)
        except ValueError:
            return False
        return True


def _declare(parser, name):
    """Give parser the options and handler of command `name`."""
    func, _, add_options = _COMMANDS[name]
    parser._negative_number_matcher = _NegativeNumbers
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


@functools.cache
def _command_parser(name):
    """The parser of command `name` alone, built on first use and kept for
    the life of the process: it has the prog and options of the full
    parser's subparser, so its help and error text is the same.  Parsing
    does not change a parser, and every default is an immutable str or
    float, so one parser serves every invocation."""
    return _declare(argparse.ArgumentParser(prog=f"elastica-lab {name}"), name)


def _parse(argv):
    """The arguments of one invocation, parsed by the invoked command's
    parser.  No command, an unknown one, top-level help and a leftover
    argument go through the full parser."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        args, rest = _command_parser(argv[0]).parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv=None):
    """Run one subcommand; the only place a failure becomes an exit code."""
    args = _parse(argv)
    try:
        return args.func(args)
    except (InputError, OSError, ode.IntegrationError, ValueError, ArithmeticError, MemoryError) as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return EXIT_INPUT if isinstance(exc, (InputError, OSError)) else EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
