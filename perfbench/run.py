"""Layered benchmark of the elastica-lab CLI.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  One process drives the CLI in
process through `elastica_lab.cli.main(argv)`, one command after another
(a closed loop with a single caller).  It repeats whole passes of the
workload's operations until `--seconds` have gone by, then checks every
output against the oracle in oracle.py and prints one line per operation
kind, then, as its last line, a JSON object with the operations attempted
and failed and the metrics: the end-to-end metrics with `--trace 0` (times
in calibrated seconds, see speed.py), the per-layer metrics of the traced
run with `--trace 1`.  README.md describes the workloads, metrics and
expected failures.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads, so the numbers measure the
# program and not the thread scheduler.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
COMMANDS = ("simulate", "hamiltonian", "reconstruct", "reduce", "closed", "invariants", "compare")
SETUP_REPEATS = 9
SETUP_CODE = "import elastica_lab.cli as cli; cli.build_parser()"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("reference", "long-adaptive", "sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_program():
    """Import the CLI from this checkout's src/, or exit 1 if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "elastica_lab", "cli.py")):
        sys.exit(f"error: no elastica_lab sources under {SRC}")
    sys.path.insert(0, SRC)
    from elastica_lab import cli

    if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != SRC:
        sys.exit(f"error: elastica_lab was imported from {cli.__file__}, not {SRC}")
    return cli


def measure_setup():
    """Median calibrated time of a fresh interpreter importing the CLI and
    building its parser, scaled by probes run just before and after it."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", SETUP_CODE]
    # No timeout: with one, subprocess polls the child with sleeps of up to
    # 50 ms and the measured times come out in 50 ms steps.
    subprocess.run(cmd, env=env, check=True)  # compiles the .pyc files once
    times = []
    for _ in range(SETUP_REPEATS):
        before = speed.probe_time(25)
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        elapsed = time.perf_counter() - start
        times.append(elapsed * speed.PROBE_REF_S / (0.5 * (before + speed.probe_time(25))))
    return statistics.median(times)


def run_op(cli, op, probe):
    """[exit code or error text, stdout, start, end, seconds spent in probes]."""
    out, err = io.StringIO(), io.StringIO()
    probed = probe.spent
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an uncaught error is a failed operation, not a crash
        code = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    return [code, out.getvalue(), start, end, probe.spent - probed]


def run_pass(cli, ops, probe):
    """(wall seconds less probe time, per-operation results) of one pass."""
    start = probe.now()
    results = [run_op(cli, op, probe) for op in ops]
    return probe.now() - start, results


def judge(oracle, op, code, stdout):
    """None when the operation succeeded, else why it failed."""
    if code != 0:
        last = stdout.strip().splitlines()[-1:] or [""]
        return f"exit {code} {last[0][:160]}".rstrip()
    try:
        return getattr(oracle, op.check)(stdout, *op.args)
    except (OSError, ValueError, KeyError) as exc:
        return f"unreadable output: {exc}"


def pass_metrics(ops, results, probe):
    """Calibrated seconds of one pass, in total and per command."""
    seconds = dict.fromkeys(COMMANDS, 0.0)
    for op, (_, _, start, end, probed) in zip(ops, results):
        seconds[op.argv[0]] += (end - start - probed) * probe.scale(start, end)
    return {"wall_s": sum(seconds.values()), **{f"{c}_s": seconds[c] for c in COMMANDS}}


def median_metrics(per_pass, units):
    return {k: {"value": statistics.median(p[k] for p in per_pass), "unit": units[k]}
            for k in per_pass[0]}


def layer_metrics(tracer, wall):
    """Per-layer numbers of one traced pass; wall is on the tracer's clock."""
    out = {}
    for name, (incl, self_s, calls) in tracer.layer_times().items():
        out[f"{name}.s"], out[f"{name}.self_s"], out[f"{name}.calls"] = incl, self_s, calls
    out.update({k: tracer.counts[k] for k in spans.COUNTERS})
    out["ode.rhs_evals_per_step"] = tracer.counts["ode.rhs_evals"] / max(1, tracer.counts["ode.steps"])
    out["trace.unattributed_s"] = wall - sum(out[f"{n}.self_s"] for n in spans.TRACED)
    return out


def layer_unit(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    return "ratio" if name.endswith("_per_step") else "count"


def main(argv=None):
    args = parse_args(argv)
    cli = load_program()
    setup_s = None if args.trace else measure_setup()
    arcs = workloads.arcs(args.workload, args.seed)
    workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    try:
        config_paths = workloads.write_configs(arcs, workdir)
        # Warm-up on short arcs, neither timed nor counted.
        warm = [a._replace(length=20 * a.step) for a in arcs[:3]]
        probe = speed.SpeedProbe()
        run_pass(cli, workloads.pass_ops(warm, config_paths, workdir), probe)

        passes, untraced, traced = [], [], []
        tracer = spans.Tracer(clock=probe.now) if args.trace else None
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds or (tracer and len(passes) < 2):
            out_dir = os.path.join(workdir, f"pass{len(passes)}")
            os.mkdir(out_dir)
            ops = workloads.pass_ops(arcs, config_paths, out_dir)
            trace_this = tracer is not None and len(passes) % 2 == 1
            if trace_this:
                tracer.spans.clear()
                tracer.counts.clear()
                tracer.install()
            try:
                with probe:
                    wall, results = run_pass(cli, ops, probe)
            finally:
                if trace_this:
                    tracer.uninstall()
            if trace_this:
                traced.append({**layer_metrics(tracer, wall),
                               "trace.wall_s": pass_metrics(ops, results, probe)["wall_s"]})
                last_spans = list(tracer.spans)
            else:
                untraced.append(pass_metrics(ops, results, probe))
            # Keep no per-operation state in memory between passes: it would
            # grow with the pass count and show in peak_rss_mb and GC time.
            with open(os.path.join(out_dir, "results.json"), "w", encoding="utf-8") as fh:
                json.dump([r[:2] for r in results], fh)
            passes.append(out_dir)
            del ops, results
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        import oracle  # after the peak-RSS reading: scipy is the benchmark's, not the program's

        tally, unexpected = {}, []
        expected = workloads.EXPECTED_FAILURES.get(args.workload, {})
        for out_dir in passes:
            with open(os.path.join(out_dir, "results.json"), encoding="utf-8") as fh:
                results = json.load(fh)
            for op, (code, stdout) in zip(workloads.pass_ops(arcs, config_paths, out_dir), results):
                reason = judge(oracle, op, code, stdout)
                row = tally.setdefault(op.label, [0, 0, reason])
                row[0] += 1
                if reason is not None:
                    row[1] += 1
                    row[2] = reason
                    if op.label not in expected:
                        unexpected.append(f"{op.label} {' '.join(op.argv)}: {reason}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(row[0] for row in tally.values())
    failed = sum(row[1] for row in tally.values())
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} operations attempted, {failed} failed")
    for label, (n, bad, reason) in tally.items():
        note = f"  [{expected[label]}] {reason}" if bad and label in expected else ""
        print(f"  {label:30s} attempted {n:5d}  failed {bad:5d}{note}")
    for line in unexpected[:20]:
        print(f"unexpected failure: {line}", file=sys.stderr)

    if tracer:
        metrics = median_metrics(traced, {k: layer_unit(k) for k in traced[0]})
        # Passes alternate untraced/traced; the overhead is the median
        # difference of calibrated walls within neighbouring pairs.
        metrics["trace.untraced_wall_s"] = {
            "value": statistics.median(p["wall_s"] for p in untraced), "unit": "s"}
        metrics["trace.overhead_s"] = {"value": statistics.median(
            t["trace.wall_s"] - u["wall_s"] for u, t in zip(untraced, traced)), "unit": "s"}
        spans_path = os.path.join(ROOT, f".perfbench-spans-{args.workload}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": last_spans}, fh)
    else:
        units = {"wall_s": "s", **{f"{c}_s": "s" for c in COMMANDS}}
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
        metrics.update(median_metrics(untraced, units))
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
