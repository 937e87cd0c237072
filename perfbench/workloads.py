"""The benchmark's workloads: initial data, grids, flags and the operations of one pass.

A pass runs, for each arc of a workload, `simulate`, `hamiltonian`,
`reconstruct`, `reduce` and (frame data only) `closed`, then `invariants` on
the three curve traces and `compare` on simulate/hamiltonian and
hamiltonian/reconstruct.  Every operation carries the oracle check that
judges its output.  README.md says why each workload exists.
"""

import json
import os
from collections import namedtuple

import numpy as np

# One trajectory: config dict, output step, arc length and extra CLI flags.
Arc = namedtuple("Arc", "name cfg step length flags")
# One CLI invocation and the oracle function that judges it, by name: the
# oracle (and scipy) is imported only after the peak-RSS reading.
Op = namedtuple("Op", "label argv check args")

REFERENCE_JET = {"kappa0": 1.0, "kappa_dot0": 0.3, "tau0": 0.2, "lambda": 1.0,
                 "x0": [0.0, 0.0, 0.0], "frame": "standard"}

# Operations that fail on every pass of a workload because of a known fault
# in the program, with the faults (README.md, "Expected failures") behind them.
EXPECTED_FAILURES = {
    "long-adaptive": {
        "simulate": "fault 1",
        "invariants:simulate": "faults 1, 2",
        "invariants:hamiltonian": "fault 2",
        "invariants:reconstruct": "faults 2, 3",
        "compare:simulate/hamiltonian": "fault 1",
    },
}

# Sweep draws, per pass: SWEEP_EACH arcs of each kind, over short arcs.
SWEEP_EACH = 10
SWEEP_STEP = 1e-3
SWEEP_LENGTH = 0.02
SWEEP_KAPPA = (0.5, 1.25)
SWEEP_KAPPA_DOT = (0.1, 0.5)  # magnitude; the sign is drawn too
SWEEP_TAU = (0.1, 0.5)  # magnitude, generic configs
SWEEP_LAMBDA = (-1.0, 1.0)
SWEEP_RAW_OFFSET = 1e-3  # size of the random push off the arclength submanifold


def _rotation(rng):
    """A random proper rotation as rows (T, N, B)."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    T, N = q[:, 0], q[:, 1]
    return [T.tolist(), N.tolist(), np.cross(T, N).tolist()]


def _frame_cfg(rng, planar):
    sign = rng.choice([-1.0, 1.0], size=2)
    return {
        "kappa0": float(rng.uniform(*SWEEP_KAPPA)),
        "kappa_dot0": float(sign[0] * rng.uniform(*SWEEP_KAPPA_DOT)),
        "tau0": 0.0 if planar else float(sign[1] * rng.uniform(*SWEEP_TAU)),
        "lambda": float(rng.uniform(*SWEEP_LAMBDA)),
        "x0": rng.uniform(-1.0, 1.0, 3).tolist(),
        "frame": _rotation(rng),
    }


def _raw_cfg(rng):
    """A generic frame jet, each slot pushed slightly off the submanifold."""
    f = _frame_cfg(rng, planar=False)
    T, N, B = (np.array(r) for r in f["frame"])
    k, kd, tau = f["kappa0"], f["kappa_dot0"], f["tau0"]
    slots = (T, k * N, kd * N - k * k * T + k * tau * B)
    off = [v + SWEEP_RAW_OFFSET * rng.uniform(-1.0, 1.0, 3) for v in slots]
    return {"x0": f["x0"], "xdot0": off[0].tolist(), "xddot0": off[1].tolist(),
            "xdddot0": off[2].tolist()}


def arcs(workload, seed):
    """The arcs one pass of `workload` runs; only `sweep` depends on the seed."""
    if workload == "reference":
        return [Arc("ref", REFERENCE_JET, 1e-3, 10.0, [])]
    if workload == "long-adaptive":
        return [Arc("long", REFERENCE_JET, 5e-3, 40.0,
                    ["--method", "rk45", "--project", "on"])]
    if workload == "sweep":
        rng = np.random.default_rng(seed)
        out = []
        for i in range(SWEEP_EACH):
            for kind, cfg in (("generic", _frame_cfg(rng, planar=False)),
                              ("planar", _frame_cfg(rng, planar=True)),
                              ("raw", _raw_cfg(rng))):
                out.append(Arc(f"{kind}{i}", cfg, SWEEP_STEP, SWEEP_LENGTH, []))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def write_configs(arc_list, directory):
    """Write each arc's config as JSON; returns {arc name: path}."""
    paths = {}
    for arc in arc_list:
        paths[arc.name] = os.path.join(directory, f"{arc.name}.json")
        with open(paths[arc.name], "w", encoding="utf-8") as fh:
            json.dump(arc.cfg, fh)
    return paths


def pass_ops(arc_list, config_paths, out_dir):
    """The operations of one pass, writing their outputs under out_dir."""
    ops = []
    for arc in arc_list:
        count = int(round(arc.length / arc.step))
        grid = ["--step", repr(arc.step), "--length", repr(arc.length)] + arc.flags

        def out(suffix):
            return os.path.join(out_dir, f"{arc.name}.{suffix}")

        traces = {c: out(f"{c}.csv") for c in ("simulate", "hamiltonian", "reconstruct")}
        for command, path in traces.items():
            ops.append(Op(command, [command, "--config", config_paths[arc.name], "--out", path] + grid,
                          "check_curve", (path, arc.cfg, arc.step, count)))
        ops.append(Op("reduce", ["reduce", "--config", config_paths[arc.name], "--out", out("reduce.csv")] + grid,
                      "check_reduce", (out("reduce.csv"), arc.cfg, arc.step, count)))
        if "kappa0" in arc.cfg:  # closed takes frame data only
            ops.append(Op("closed", ["closed", "--config", config_paths[arc.name], "--out", out("closed.csv")] + grid,
                          "check_closed", (out("closed.csv"), arc.cfg, arc.step, count)))
        for command, path in traces.items():
            report = out(f"{command}.report.json")
            ops.append(Op(f"invariants:{command}", ["invariants", "--trace", path, "--report", report],
                          "check_report", (report, path)))
        for a, b in (("simulate", "hamiltonian"), ("hamiltonian", "reconstruct")):
            ops.append(Op(f"compare:{a}/{b}", ["compare", traces[a], traces[b]],
                          "check_compare", (traces[a], traces[b])))
    return ops
