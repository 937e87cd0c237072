import ast
import importlib
import importlib.util
import io
import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from elastica_lab import cli, diagnostics, lagrangian, scalar
from elastica_lab.geometry import CurveTrace

from conftest import rotation

FRAME_CFG = {"kappa0": 1.0, "kappa_dot0": 0.3, "tau0": 0.2, "x0": [0.0, 0.0, 0.0], "frame": "standard"}
LINE_CFG = {
    "x0": [0.0, 0.0, 0.0],
    "xdot0": [1.0, 0.0, 0.0],
    "xddot0": [0.0, 0.0, 0.0],
    "xdddot0": [0.0, 0.0, 0.0],
}


def write_cfg(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(argv):
    return cli.main(argv)


def _simulate(tmp_path, name="trace.csv", length="0.5"):
    out = str(tmp_path / name)
    cfg = write_cfg(tmp_path, FRAME_CFG)
    assert run(["simulate", "--config", cfg, "--out", out, "--step", "1e-2", "--length", length]) == 0
    return out


def test_simulate_straight_line(tmp_path):
    cfg = write_cfg(tmp_path, LINE_CFG)
    out = str(tmp_path / "line.csv")
    assert run(["simulate", "--config", cfg, "--out", out, "--step", "0.01", "--length", "1.0"]) == 0
    trace = cli.read_trace(out)
    xd = trace.stacked("xdot")
    np.testing.assert_allclose(xd, np.tile([1.0, 0, 0], (len(trace), 1)), atol=1e-15)


def test_trace_round_trip_exact(tmp_path):
    cfg = write_cfg(tmp_path, FRAME_CFG)
    out = str(tmp_path / "trace.csv")
    assert run(["simulate", "--config", cfg, "--out", out, "--step", "1e-3", "--length", "0.5"]) == 0
    trace = cli.read_trace(out)
    out2 = str(tmp_path / "copy.csv")
    cli.write_trace(trace, out2)
    assert (tmp_path / "trace.csv").read_text() == (tmp_path / "copy.csv").read_text()


def test_simulate_then_invariants_pass(tmp_path):
    cfg = write_cfg(tmp_path, FRAME_CFG)
    out = str(tmp_path / "trace.csv")
    report = str(tmp_path / "report.json")
    assert run(["simulate", "--config", cfg, "--out", out, "--step", "1e-3", "--length", "2.0"]) == 0
    assert run(["invariants", "--trace", out, "--report", report]) == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["violations"] == []


def test_invariants_report_is_the_json_dump_bytes(tmp_path):
    # The report is written in one call; its bytes must be those of
    # json.dump with the same arguments and a final newline.
    cfg = write_cfg(tmp_path, FRAME_CFG)
    trace = str(tmp_path / "trace.csv")
    report = tmp_path / "report.json"
    assert run(["simulate", "--config", cfg, "--out", trace, "--step", "1e-2", "--length", "1.0"]) == 0
    assert run(["invariants", "--trace", trace, "--report", str(report)]) == 0
    expected = io.StringIO()
    json.dump(diagnostics.invariant_report(cli.read_trace(trace))[0], expected, indent=2, sort_keys=True)
    expected.write("\n")
    assert report.read_bytes() == expected.getvalue().encode()


def test_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = str(tmp_path / "x.csv")
    assert run(["simulate", "--config", str(bad), "--out", out]) == 2


def test_missing_config_exits_2(tmp_path):
    out = str(tmp_path / "x.csv")
    assert run(["simulate", "--config", str(tmp_path / "nope.json"), "--out", out]) == 2


def test_bad_grid_exits_2(tmp_path):
    # 1.5e-10 is 1.5 steps of 1e-10: off the grid by 5e-11, far more than
    # roundoff relative to the length, though under 1e-9 in absolute terms.
    cfg = write_cfg(tmp_path, FRAME_CFG)
    out = tmp_path / "x.csv"
    for step, length in [("0.3", "1.0"), ("1e-10", "1.5e-10")]:
        assert run(["simulate", "--config", cfg, "--out", str(out), "--step", step, "--length", length]) == 2
        assert not out.exists()


def test_invariants_flag_non_solution(tmp_path):
    # A unit circle is a valid arclength trace but not a solution: the
    # Euler-Lagrange residual must trip the report.
    s = np.arange(0, 301) * 1e-2
    rows = []
    for si in s:
        c, sn = np.cos(si), np.sin(si)
        rows.append(
            [si, c, sn, 0.0, -sn, c, 0.0, -c, -sn, 0.0, sn, -c, 0.0, 1.0, 0.0]
        )
    path = tmp_path / "circle.csv"
    with open(path, "w") as fh:
        fh.write(cli.TRACE_HEADER + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    report = str(tmp_path / "report.json")
    assert run(["invariants", "--trace", str(path), "--report", report]) == 1
    payload = json.loads((tmp_path / "report.json").read_text())
    assert "el_residual" in payload["violations"]


def test_invariants_empty_trace_exits_2(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(cli.TRACE_HEADER + "\n")
    assert run(["invariants", "--trace", str(path), "--report", str(tmp_path / "r.json")]) == 2


def test_invariants_malformed_trace_exits_2(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("nope\n1,2,3\n")
    assert run(["invariants", "--trace", str(path), "--report", str(tmp_path / "r.json")]) == 2


def test_compare_self_is_zero(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FRAME_CFG)
    out = str(tmp_path / "trace.csv")
    run(["simulate", "--config", cfg, "--out", out, "--step", "1e-3", "--length", "0.5"])
    assert run(["compare", out, out, "--tol", "1e-12"]) == 0
    assert "discrepancy: 0" in capsys.readouterr().out


def test_compare_formulations(tmp_path):
    cfg = write_cfg(tmp_path, FRAME_CFG)
    lag_out = str(tmp_path / "lag.csv")
    ham_out = str(tmp_path / "ham.csv")
    rec_out = str(tmp_path / "rec.csv")
    assert run(["simulate", "--config", cfg, "--out", lag_out, "--step", "1e-3", "--length", "2.0"]) == 0
    assert run(["hamiltonian", "--config", cfg, "--out", ham_out, "--step", "1e-3", "--length", "2.0"]) == 0
    assert run(["reconstruct", "--config", cfg, "--out", rec_out, "--step", "1e-3", "--length", "2.0"]) == 0
    assert run(["compare", lag_out, ham_out, "--tol", "1e-6"]) == 0
    assert run(["compare", lag_out, rec_out, "--tol", "1e-4"]) == 0


def test_compare_mismatched_grids_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, FRAME_CFG)
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    run(["simulate", "--config", cfg, "--out", a, "--step", "1e-3", "--length", "0.5"])
    run(["simulate", "--config", cfg, "--out", b, "--step", "1e-3", "--length", "0.4"])
    assert run(["compare", a, b, "--tol", "1.0"]) == 2


def test_compare_different_start_points_exits_2(tmp_path, capsys):
    a = _simulate(tmp_path, "a.csv", length="1")
    header, *rows = Path(a).read_text().splitlines()
    shifted = [f"{float(s) + 5.0!r},{rest}" for s, rest in (row.split(",", 1) for row in rows)]
    b = tmp_path / "b.csv"
    b.write_text("\n".join([header, *shifted]) + "\n")
    capsys.readouterr()
    assert run(["compare", a, str(b)]) == 2
    assert capsys.readouterr().err == "compare failed: traces have different start points\n"


def test_compare_over_tolerance_exits_1(tmp_path):
    cfg = write_cfg(tmp_path, FRAME_CFG)
    planar = dict(FRAME_CFG, tau0=0.0)
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    run(["simulate", "--config", cfg, "--out", a, "--step", "1e-3", "--length", "0.5"])
    run(["simulate", "--config", write_cfg(tmp_path, planar, "p.json"), "--out", b, "--step", "1e-3", "--length", "0.5"])
    assert run(["compare", a, b, "--tol", "1e-6"]) == 1


@pytest.mark.parametrize("tol, code", [("nan", 2), ("-1", 2), ("inf", 0)])
def test_compare_tolerance_must_be_non_negative(tmp_path, capsys, tol, code):
    # Two different traces: a nonsense tolerance must not read as a violation.
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    run(["simulate", "--config", write_cfg(tmp_path, FRAME_CFG), "--out", a, "--step", "1e-2", "--length", "0.5"])
    run(["simulate", "--config", write_cfg(tmp_path, dict(FRAME_CFG, tau0=0.0), "p.json"), "--out", b,
         "--step", "1e-2", "--length", "0.5"])
    capsys.readouterr()
    assert run(["compare", a, b, "--tol", tol]) == code
    if code == 2:
        assert capsys.readouterr().err.startswith("compare failed: tol must be >= 0")


NEGATIVE_FLOAT_ARGV = [
    (["simulate", "--step", "-1e-3"], "simulate failed: step and length must be finite and positive"),
    (["hamiltonian", "--length", "-inf"], "hamiltonian failed: step and length must be finite and positive"),
    (["reduce", "--len", "-1.5e1"], "reduce failed: step and length must be finite and positive"),
    (["compare", "a.csv", "b.csv", "--tol", "-1e-9"], "compare failed: tol must be >= 0, not -1e-09"),
    (["compare", "a.csv", "b.csv", "--tol", "-inf"], "compare failed: tol must be >= 0, not -inf"),
]


@pytest.mark.parametrize("argv, message", [pytest.param(a, m, id=" ".join(a)) for a, m in NEGATIVE_FLOAT_ARGV])
def test_negative_float_options_reach_their_checks(tmp_path, capsys, argv, message):
    # argparse reads only -12 and -.5 as negative numbers; -1e-3, -inf and
    # the like must reach the command's check, not fail as a missing value.
    if argv[0] != "compare":
        argv = argv + ["--config", write_cfg(tmp_path, FRAME_CFG), "--out", str(tmp_path / "o.csv")]
    assert vars(cli._parse(argv)) == vars(cli.build_parser().parse_args(argv))
    assert run(argv) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not (tmp_path / "o.csv").exists()


def test_raw_jet_config_is_projected(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        {
            "x0": [0.0, 0.0, 0.0],
            "xdot0": [2.0, 0.0, 0.0],
            "xddot0": [0.5, 1.0, 0.0],
            "xdddot0": [0.0, 0.0, 0.3],
        },
    )
    out = str(tmp_path / "trace.csv")
    assert run(["simulate", "--config", cfg, "--out", out, "--step", "1e-3", "--length", "0.1"]) == 0
    assert "projected" in capsys.readouterr().err
    trace = cli.read_trace(out)
    assert trace.samples[0].is_arclength(tol=1e-10)


def test_explicit_frame_rows(tmp_path):
    # Frame supplied as [[T],[N],[B]] instead of "standard": same physics in
    # rotated coordinates, so kappa(s) must agree with the standard run.
    rotated = dict(FRAME_CFG, frame=[[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    a = str(tmp_path / "std.csv")
    b = str(tmp_path / "rot.csv")
    assert run(["simulate", "--config", write_cfg(tmp_path, FRAME_CFG, "s.json"), "--out", a, "--step", "1e-3", "--length", "0.5"]) == 0
    assert run(["simulate", "--config", write_cfg(tmp_path, rotated, "r.json"), "--out", b, "--step", "1e-3", "--length", "0.5"]) == 0
    ka = np.loadtxt(a, delimiter=",", skiprows=1)[:, 13]
    kb = np.loadtxt(b, delimiter=",", skiprows=1)[:, 13]
    np.testing.assert_allclose(ka, kb, atol=1e-12)


def test_bad_frame_rows_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, dict(FRAME_CFG, frame=[[1, 0, 0], [1, 0, 0], [0, 0, 1]]))
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("frame", ["Standard", "", 3, None, [[1, 0, 0], [0, 1, 0]]])
def test_frame_neither_standard_nor_three_rows_exits_2(tmp_path, capsys, frame):
    cfg = write_cfg(tmp_path, dict(FRAME_CFG, frame=frame))
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith('simulate failed: bad config: frame must be "standard" or three rows')
    assert repr(frame) in err


@pytest.mark.filterwarnings("ignore:overflow")
def test_numeric_failure_exits_3(tmp_path):
    cfg = write_cfg(tmp_path, dict(FRAME_CFG, kappa0=1e120))
    out = str(tmp_path / "x.csv")
    assert run(["simulate", "--config", cfg, "--out", out, "--step", "1e-3", "--length", "0.01"]) == 3


def test_rk45_method(tmp_path):
    cfg = write_cfg(tmp_path, FRAME_CFG)
    a = str(tmp_path / "rk4.csv")
    b = str(tmp_path / "rk45.csv")
    run(["simulate", "--config", cfg, "--out", a, "--step", "1e-2", "--length", "0.5"])
    assert run(["simulate", "--config", cfg, "--out", b, "--step", "1e-2", "--length", "0.5", "--method", "rk45"]) == 0
    assert run(["compare", a, b, "--tol", "1e-8"]) == 0


def test_hamiltonian_projection_flag(tmp_path):
    cfg = write_cfg(tmp_path, FRAME_CFG)
    out = str(tmp_path / "ham.csv")
    assert run(["hamiltonian", "--config", cfg, "--out", out, "--step", "1e-3", "--length", "0.5", "--project", "on"]) == 0


def test_reduce_subcommand(tmp_path):
    cfg = write_cfg(tmp_path, FRAME_CFG)
    out = tmp_path / "scalar.csv"
    assert run(["reduce", "--config", cfg, "--out", str(out), "--step", "1e-3", "--length", "1.0"]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "s,kappa,kappa_dot,tau"
    assert len(lines) == 1002
    first = [float(v) for v in lines[1].split(",")]
    assert first[1] == pytest.approx(1.0)
    assert first[3] == pytest.approx(0.2)


def test_closed_subcommand(tmp_path):
    cfg = write_cfg(tmp_path, dict(FRAME_CFG, **{"lambda": 1.0}))
    out = tmp_path / "closed.csv"
    assert run(["closed", "--config", cfg, "--out", str(out), "--step", "1e-3", "--length", "1.0"]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "s,kappa,kappa_dot,foltinek_residual"
    residuals = [abs(float(line.split(",")[3])) for line in lines[1:]]
    assert max(residuals) <= 1e-8


@pytest.mark.parametrize(
    "frame_data",
    [{"lambda": 1.0}, {"kappa0": 1.2, "kappa_dot0": -0.4, "tau0": 0.5, "lambda": -0.5}],
)
def test_closed_residual_is_exactly_zero_at_the_start(tmp_path, frame_data):
    # |c|^2 is the left side of the quadrature relation at s = 0; taking its
    # square root and squaring it back left a roundoff residual in row 0.
    cfg = write_cfg(tmp_path, dict(FRAME_CFG, **frame_data))
    out = tmp_path / "closed.csv"
    assert run(["closed", "--config", cfg, "--out", str(out), "--step", "1e-3", "--length", "0.1"]) == 0
    assert np.loadtxt(out, delimiter=",", skiprows=1)[0, 3] == 0.0


def test_closed_fails_where_kappa_reaches_the_floor_with_twist(tmp_path, capsys):
    # j = -4 kappa0^2 tau0 != 0 and kappa falls through KAPPA_MIN within the run.
    cfg = write_cfg(tmp_path, {"kappa0": 2e-8, "kappa_dot0": -1.0, "tau0": 1.0, "lambda": 1.0})
    out = tmp_path / "closed.csv"
    assert run(["closed", "--config", cfg, "--out", str(out), "--step", "1e-9", "--length", "1e-7"]) == 3
    assert "singular" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_long_drift_exits_3(tmp_path, capsys):
    # Direct integration leaves the arclength submanifold near s = 17.6 at
    # this step; the watchdog must fail the run and write nothing.
    cfg = write_cfg(tmp_path, FRAME_CFG)
    out = tmp_path / "drift.csv"
    assert run(["simulate", "--config", cfg, "--out", str(out), "--step", "5e-3", "--length", "60"]) == 3
    assert "arclength" in capsys.readouterr().err
    assert not out.exists()


def test_long_hamiltonian_trace_has_no_false_violation(tmp_path):
    cfg = write_cfg(tmp_path, FRAME_CFG)
    out = str(tmp_path / "ham.csv")
    report = tmp_path / "report.json"
    assert run(["hamiltonian", "--config", cfg, "--out", out, "--step", "2e-3", "--length", "60"]) == 0
    assert run(["invariants", "--trace", out, "--report", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["violations"] == []


def test_coarse_hamiltonian_run_passes_the_range_check(tmp_path):
    # At h = 5e-3 one row drifts 1.003e-10 off the constraint manifold, well
    # inside the flow's DRIFT_TOL; the audit still flags l_drift.
    cfg = write_cfg(tmp_path, FRAME_CFG)
    out = str(tmp_path / "ham.csv")
    report = tmp_path / "report.json"
    assert run(["hamiltonian", "--config", cfg, "--out", out, "--step", "5e-3", "--length", "60"]) == 0
    assert run(["invariants", "--trace", out, "--report", str(report)]) == 1
    assert json.loads(report.read_text())["violations"] == ["l_drift"]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_invariants_non_finite_trace_exits_2(tmp_path, bad):
    cfg = write_cfg(tmp_path, FRAME_CFG)
    out = tmp_path / "trace.csv"
    assert run(["simulate", "--config", cfg, "--out", str(out), "--step", "1e-2", "--length", "0.1"]) == 0
    lines = out.read_text().splitlines()
    cells = lines[3].split(",")
    cells[5] = bad
    lines[3] = ",".join(cells)
    out.write_text("\n".join(lines) + "\n")
    assert run(["invariants", "--trace", str(out), "--report", str(tmp_path / "r.json")]) == 2


def test_closed_at_zero_curvature(tmp_path):
    # kappa0 = 0 gives j = 0, where the quadrature relation has no
    # j^2/(4 kappa^2) term and stays regular through kappa = 0.
    cfg = write_cfg(tmp_path, dict(FRAME_CFG, kappa0=0.0, **{"lambda": 1.0}))
    out = tmp_path / "closed.csv"
    assert run(["closed", "--config", cfg, "--out", str(out), "--step", "1e-3", "--length", "1.0"]) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data[0, 1] == 0.0
    assert np.max(np.abs(data[:, 3])) <= 1e-12


def test_closed_just_above_the_floor_with_twist(tmp_path):
    # c != 0 is tiny here, and the middle root of the curvature cubic taken
    # as midpoint less half-gap cancelled to a negative number: every row
    # after the first was nan, and the run exited 0.
    cfg = write_cfg(tmp_path, {"kappa0": 1.01e-8, "kappa_dot0": -1e-3, "tau0": 1.0, "lambda": 1.0})
    out = tmp_path / "closed.csv"
    assert run(["closed", "--config", cfg, "--out", str(out), "--step", "1e-9", "--length", "1e-7"]) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.all(np.isfinite(data))
    assert data[1, 1] == pytest.approx(1.01e-8 - 1e-3 * 1e-9, rel=1e-9)
    assert np.max(np.abs(data[:, 3])) <= 1e-15


@pytest.mark.parametrize("tau0", [1e-170, 1e-40])
def test_closed_with_a_tiny_twist_keeps_the_middle_root(tmp_path, tau0):
    # Here the two larger roots of the curvature cubic are 0.8 and 1.2 and
    # the smallest is about -c^2 (0 once c * c underflows), so the middle
    # root must not come from the root product over the tiny one.
    cfg = write_cfg(tmp_path, {"kappa0": 1.0, "kappa_dot0": 0.1, "tau0": tau0, "lambda": 1.0})
    out = tmp_path / "closed.csv"
    assert run(["closed", "--config", cfg, "--out", str(out), "--step", "1e-2", "--length", "10.0"]) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.sqrt(0.8) - 1e-12 <= data[:, 1].min() <= np.sqrt(0.8) + 1e-6
    assert np.sqrt(1.2) - 1e-6 <= data[:, 1].max() <= np.sqrt(1.2) + 1e-12
    assert np.max(np.abs(data[:, 3])) <= 1e-14


@pytest.mark.parametrize(
    "kappa0, kappa_dot0, length",
    [(1e-3, -1.0, 0.01), (1.0, 0.3, 2.0)],
)
def test_reduce_planar_curve_in_rotated_frame(tmp_path, kappa0, kappa_dot0, length):
    # reduce takes the planar branch's c = 0, as reconstruct does, rather
    # than the roundoff c of the momenta: it crosses kappa = 0 and its
    # torsion is exactly 0.  reconstruct and closed run on it too.
    frame = rotation(0.3, -1.1, 2.0).tolist()
    cfg = write_cfg(tmp_path, {"kappa0": kappa0, "kappa_dot0": kappa_dot0, "tau0": 0.0,
                               "x0": [0.0, 0.0, 0.0], "frame": frame})
    grid = ["--step", "1e-3", "--length", str(length)]
    out = tmp_path / "reduce.csv"
    assert run(["reduce", "--config", cfg, "--out", str(out)] + grid) == 0
    for command in ("reconstruct", "closed"):
        assert run([command, "--config", cfg, "--out", str(tmp_path / f"{command}.csv")] + grid) == 0
    tau = np.loadtxt(out, delimiter=",", skiprows=1)[:, 3]
    assert np.all(tau == 0.0)


RUN_COMMANDS = ("simulate", "hamiltonian", "reconstruct", "reduce", "closed")
JET_COMMANDS = RUN_COMMANDS[:4]
NAN, INF = float("nan"), float("inf")
# Initial data that must exit 2, with the commands that read it: frame data
# gets one parse (kappa0 >= 0, every scalar finite, the frame checked even on
# a straight line), and a raw jet with xdot0 = 0 has no arclength projection.
BAD_INITIAL_DATA = {
    "xdot0 = 0": (
        {"x0": [0, 0, 0], "xdot0": [0, 0, 0], "xddot0": [0, 1, 0], "xdddot0": [0, 0, 0]},
        RUN_COMMANDS,
    ),
    "kappa0 < 0": (dict(FRAME_CFG, kappa0=-1.0), RUN_COMMANDS),
    "kappa0 nan": (dict(FRAME_CFG, kappa0=NAN), RUN_COMMANDS),
    "kappa_dot0 nan": (dict(FRAME_CFG, kappa_dot0=NAN), RUN_COMMANDS),
    "kappa_dot0 inf on a line": (dict(FRAME_CFG, kappa0=0.0, kappa_dot0=INF), RUN_COMMANDS),
    "tau0 -inf": (dict(FRAME_CFG, tau0=-INF), RUN_COMMANDS),
    "lambda nan": (dict(FRAME_CFG, **{"lambda": NAN}), ("closed",)),
    "long T on a line": (dict(FRAME_CFG, kappa0=0.0, frame=[[2, 0, 0], [0, 1, 0], [0, 0, 1]]), JET_COMMANDS),
}


@pytest.mark.parametrize(
    "case, command", [(case, c) for case, (_, commands) in BAD_INITIAL_DATA.items() for c in commands]
)
def test_bad_initial_data_exits_2(tmp_path, capsys, case, command):
    out = tmp_path / "out.csv"
    cfg = write_cfg(tmp_path, BAD_INITIAL_DATA[case][0])
    assert run([command, "--config", cfg, "--out", str(out), "--step", "1e-2", "--length", "0.1"]) == 2
    assert capsys.readouterr().err.startswith(f"{command} failed: bad config: ")
    assert not out.exists()


# Starts at the curvature floor, as frame data; each also runs as the raw jet
# it builds.  An inflection point (kappa0 = 0, kappa_dot0 != 0) and a start
# below the floor have p != 0, and every command follows them: reduce
# reports the planar branch, and reconstruct rebuilds them by the Hill
# equation, since xddot has no direction there.  A line is p = 0.
FLOOR_STARTS = {
    "inflection": {"kappa0": 0.0, "kappa_dot0": 0.3, "tau0": 0.0},
    "inflection, falling": {"kappa0": 0.0, "kappa_dot0": -0.3, "tau0": 0.0},
    "inflection, tau0 = 0.2": {"kappa0": 0.0, "kappa_dot0": 0.3, "tau0": 0.2},
    "inflection, falling, tau0 = 0.2": {"kappa0": 0.0, "kappa_dot0": -0.3, "tau0": 0.2},
    "sub-floor": {"kappa0": 5e-9, "kappa_dot0": 0.0, "tau0": 0.2},
    "sub-floor, planar": {"kappa0": 5e-9, "kappa_dot0": 0.0, "tau0": 0.0},
    "sub-floor, falling": {"kappa0": 5e-9, "kappa_dot0": -0.3, "tau0": 0.0},
    "line": {"kappa0": 0.0},
    "rotated line": {"kappa0": 0.0, "kappa_dot0": 0.0, "tau0": 0.2, "x0": [1.0, 2.0, 3.0],
                     "frame": rotation(0.3, -1.1, 2.0).tolist()},
}


def _raw_form(cfg):
    jet, _ = cli.initial_jet(cfg)
    return {"x0": jet.x.tolist(), "xdot0": jet.xdot.tolist(), "xddot0": jet.xddot.tolist(),
            "xdddot0": jet.xdddot.tolist()}


def test_raw_forms_of_the_floor_starts():
    # An inflection point has xddot = 0 and xdddot = kappa_dot0 N, whatever
    # tau0; the standard-frame line is LINE_CFG.
    inflection = dict(LINE_CFG, xdddot0=[0.0, 0.3, 0.0])
    assert _raw_form(FLOOR_STARTS["inflection"]) == inflection
    assert _raw_form(FLOOR_STARTS["inflection, tau0 = 0.2"]) == inflection
    assert _raw_form(FLOOR_STARTS["line"]) == LINE_CFG


@pytest.mark.parametrize("command", JET_COMMANDS)
@pytest.mark.parametrize("form", ["frame", "raw"])
@pytest.mark.parametrize("case", FLOOR_STARTS)
def test_floor_starts(tmp_path, capsys, case, form, command):
    cfg = FLOOR_STARTS[case] if form == "frame" else _raw_form(FLOOR_STARTS[case])
    out = tmp_path / "out.csv"
    argv = [command, "--config", write_cfg(tmp_path, cfg), "--out", str(out), "--step", "1e-2", "--length", "2"]
    assert run(argv) == 0
    line = case.endswith("line")
    jet, _ = cli.initial_jet(cfg)
    direct = lagrangian.integrate_elastica(jet, 1e-2, 200)
    # The floor reports tau = 0, so the sub-floor start loses its twist kappa0 tau0 = 1e-9.
    bound = 2e-8 if case == "sub-floor" else 1e-10
    if command == "reduce":
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        np.testing.assert_allclose(np.abs(data[:, 1]), np.linalg.norm(direct.xddot, axis=1), rtol=0, atol=bound)
        np.testing.assert_array_equal(data[:, 2 if line else 3:], 0.0)
        return
    assert run(["invariants", "--trace", str(out), "--report", str(tmp_path / "report.json")]) == 0
    if command == "reconstruct":
        assert f"(branch: {'degenerate_line' if line else 'planar'})" in capsys.readouterr().out
        assert diagnostics.position_discrepancy(direct, cli.read_trace(str(out))) <= bound
        if line:
            np.testing.assert_allclose(
                cli.read_trace(str(out)).positions(), jet.x + np.outer(np.arange(201) * 1e-2, jet.xdot), atol=1e-14
            )


# Starts at the curvature floor, which the reduction gives c = 0, over a long
# arc at coarse steps: there the Hill equation is at parametric resonance,
# and Magnus steps of all of zeta left l_drift 1e-5 at step 0.1.
COARSE_FLOOR_STARTS = {
    "inflection": FLOOR_STARTS["inflection"],
    "sub-floor, falling": FLOOR_STARTS["sub-floor, falling"],
    "sub-floor, tau0 = 0.2": {"kappa0": 5e-9, "kappa_dot0": 0.3, "tau0": 0.2},
    "sub-floor, tau0 = 1": {"kappa0": 1e-9, "kappa_dot0": 0.3, "tau0": 1.0},
}


@pytest.mark.parametrize("step", ["0.1", "0.05"])
@pytest.mark.parametrize("case", COARSE_FLOOR_STARTS)
def test_floor_starts_audit_clean_over_a_long_coarse_arc(tmp_path, case, step):
    out, report = str(tmp_path / "trace.csv"), tmp_path / "report.json"
    cfg = write_cfg(tmp_path, COARSE_FLOOR_STARTS[case])
    assert run(["reconstruct", "--config", cfg, "--out", out, "--step", step, "--length", "200"]) == 0
    assert run(["invariants", "--trace", out, "--report", str(report)]) == 0
    assert json.loads(report.read_text())["violations"] == []


# Runs of one start, each of which must audit clean and compare with the
# first within tol (None: compare's default): both flows under each method
# and projection, rk45 at a step of many substeps, and reconstruct, from the
# reference jet and from an inflection point.
AGREEING_RUNS = {
    "rk4 simulate, projected rk45 hamiltonian, reconstruct": (
        FRAME_CFG, "1e-2", "2", None,
        [["simulate"], ["hamiltonian", "--method", "rk45", "--project", "on"], ["reconstruct"]],
    ),
    "rk45 simulate, rk4 hamiltonian": (FRAME_CFG, "1e-2", "2", None, [["simulate", "--method", "rk45"], ["hamiltonian"]]),
    "rk45 at step 0.5": (
        FRAME_CFG, "0.5", "5", None,
        [["simulate", "--method", "rk45"], ["hamiltonian", "--method", "rk45", "--project", "on"]],
    ),
    "inflection": (FLOOR_STARTS["inflection"], "1e-3", "10", "1e-9", [["simulate"], ["hamiltonian"], ["reconstruct"]]),
}


@pytest.mark.parametrize("case", AGREEING_RUNS)
def test_runs_of_one_start_agree(tmp_path, case):
    cfg, step, length, tol, runs = AGREEING_RUNS[case]
    config = write_cfg(tmp_path, cfg)
    outs = [str(tmp_path / f"{i}.csv") for i in range(len(runs))]
    for out, (command, *flags) in zip(outs, runs):
        assert run([command, "--config", config, "--out", out, "--step", step, "--length", length] + flags) == 0
        assert run(["invariants", "--trace", out, "--report", str(tmp_path / "report.json")]) == 0
    for out in outs[1:]:
        assert run(["compare", outs[0], out] + ([] if tol is None else ["--tol", tol])) == 0


@pytest.mark.parametrize("tau0", [3e4, 1e4])
def test_sub_floor_start_with_a_large_torsion_audits_clean(tmp_path, tau0):
    # At or below KAPPA_MIN the audit's kappa_dot is |xdddot| normal to xdot,
    # which already holds the twist kappa tau; adding j^2/(4 kappa^2) with
    # kappa raised to the floor counted it twice on row 0.
    cfg = write_cfg(tmp_path, {"kappa0": 5e-9, "kappa_dot0": 0.0, "tau0": tau0})
    out = str(tmp_path / "trace.csv")
    report = tmp_path / "report.json"
    assert run(["simulate", "--config", cfg, "--out", out, "--step", "1e-4", "--length", "0.1"]) == 0
    assert run(["invariants", "--trace", out, "--report", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["torsion_low_confidence_samples"] >= 1
    assert payload["residuals"]["scalar5"] <= 1e-15
    assert payload["residuals"]["first_integral"] <= 1e-15


# Configs refused with the message that names their key: a key outside the
# config's form (a misspelling would otherwise run with its default), and a
# bool or a string for a number (True would run as 1).
REFUSED_CONFIGS = {
    "kappa_dot": ({"kappa0": 1.0, "kappa_dot": 5.0, "tau0": 0.2}, "unknown key 'kappa_dot'"),
    "xdot": ({**{k: v for k, v in LINE_CFG.items() if k != "xdot0"}, "xdot": [1.0, 0.0, 0.0]}, "unknown key 'xdot'"),
    "kappa0": (dict(FRAME_CFG, kappa0=True), "kappa0 must be a number, not True"),
    "tau0": (dict(FRAME_CFG, tau0="0.2"), "tau0 must be a number, not '0.2'"),
    "lambda": (dict(FRAME_CFG, **{"lambda": "1"}), "lambda must be a number, not '1'"),
}


@pytest.mark.parametrize("key", REFUSED_CONFIGS)
@pytest.mark.parametrize("command", RUN_COMMANDS)
def test_a_config_key_outside_its_form_or_a_non_number_exits_2(tmp_path, capsys, key, command):
    out = tmp_path / "out.csv"
    cfg, message = REFUSED_CONFIGS[key]
    assert run([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out), "--step", "1e-2", "--length", "0.1"]) == 2
    assert capsys.readouterr().err == f"{command} failed: bad config: {message}\n"
    assert not out.exists()


FAR = [1e9, 1e9, 0.0]


def _columns(out):
    with open(out, encoding="utf-8") as fh:
        return list(zip(*(line.rstrip("\n").split(",") for line in fh)))


def _assert_only_x_moves(near, far):
    """Trace columns at the origin and at x0 = FAR: x - FAR is the origin
    run's x rounded once near 1e9, and every other column is the same bit
    for bit."""
    x_near, x_far = (np.array([column[1:] for column in c[1:4]], dtype=float).T for c in (near, far))
    np.testing.assert_allclose(x_far - FAR, x_near, rtol=0.0, atol=np.spacing(1e9) / 2)
    assert near[:1] + near[4:] == far[:1] + far[4:]


@pytest.mark.parametrize("command", JET_COMMANDS)
def test_runs_and_audits_do_not_depend_on_the_start_point(tmp_path, command):
    # The torsion constant is the triple product <xdot x xddot, xdddot>, which
    # reads no position, and the marches start x at 0: every column but x, and
    # every audit residual but l_drift, is the same bit for bit at the origin
    # and at x0 = FAR.
    columns, residuals = [], []
    for i, x0 in enumerate(([0.0, 0.0, 0.0], FAR)):
        cfg = write_cfg(tmp_path, dict(FRAME_CFG, x0=x0), f"cfg{i}.json")
        out = str(tmp_path / f"out{i}.csv")
        assert run([command, "--config", cfg, "--out", out, "--step", "1e-3", "--length", "2"]) == 0
        columns.append(_columns(out))
        if command != "reduce":
            report = tmp_path / f"report{i}.json"
            assert run(["invariants", "--trace", out, "--report", str(report)]) == 0
            residuals.append(json.loads(report.read_text())["residuals"])
            residuals[-1].pop("l_drift")
    if command == "reduce":
        assert columns[0] == columns[1]
    else:
        _assert_only_x_moves(*columns)
        assert residuals[0] == residuals[1]


@pytest.mark.parametrize("command", ["simulate", "hamiltonian"])
def test_far_start_does_not_loosen_rk45(tmp_path, command):
    # The rk45 error scale grows with max |y|; were x marched at its size
    # near 1e9, it would accept substep errors up to 0.1 and leave the
    # manifold at once.
    columns = []
    for i, x0 in enumerate(([0.0, 0.0, 0.0], FAR)):
        cfg = write_cfg(tmp_path, dict(FRAME_CFG, x0=x0), f"cfg{i}.json")
        out = str(tmp_path / f"out{i}.csv")
        argv = [command, "--config", cfg, "--out", out, "--step", "0.5", "--length", "20", "--method", "rk45"]
        assert run(argv) == 0
        columns.append(_columns(out))
    _assert_only_x_moves(*columns)


# Finite initial data that overflow a Python float power, with the commands
# whose scalar setup raises OverflowError on them.
OVERFLOWING = {
    "kappa_dot0 = 1e160": (dict(FRAME_CFG, kappa_dot0=1e160), ("reduce", "reconstruct", "closed")),
    "lambda = 1e103": (dict(FRAME_CFG, **{"lambda": 1e103}), ("closed",)),
}


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("case, command", [(case, c) for case, (_, commands) in OVERFLOWING.items() for c in commands])
def test_overflowing_initial_data_is_a_numeric_failure(tmp_path, capsys, case, command):
    out = tmp_path / "out.csv"
    cfg = write_cfg(tmp_path, OVERFLOWING[case][0])
    argv = [command, "--config", cfg, "--out", str(out), "--step", "1e-2", "--length", "0.1"]
    assert run(argv) == 3
    assert capsys.readouterr().err.count(f"{command} failed: ") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", RUN_COMMANDS)
def test_overflow_prints_only_the_failure_line(tmp_path, capsys, command):
    # numpy warns of the overflow of kappa_dot0^2 before a check refuses it;
    # main turns those warnings off, so stderr is the one "failed:" line.
    out = tmp_path / "out.csv"
    cfg = write_cfg(tmp_path, OVERFLOWING["kappa_dot0 = 1e160"][0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([command, "--config", cfg, "--out", str(out), "--step", "1e-2", "--length", "0.1"]) == 3
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith(f"{command} failed: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", RUN_COMMANDS)
@pytest.mark.parametrize("flag, value", [("--length", "inf"), ("--step", "nan"), ("--length", "nan")])
def test_non_finite_grid_exits_2(tmp_path, capsys, command, flag, value):
    out = tmp_path / "x.csv"
    grid = {"--step": "1e-2", "--length": "0.1", flag: value}
    argv = [command, "--config", write_cfg(tmp_path, FRAME_CFG), "--out", str(out)]
    assert run(argv + [arg for item in grid.items() for arg in item]) == 2
    assert capsys.readouterr().err.startswith(f"{command} failed: step and length must be finite")
    assert not out.exists()


@pytest.mark.parametrize("row, col, value", [(3, 0, "nan"), (4, 13, "inf"), (5, 14, "nan"), (2, 0, "0.0")])
def test_corrupt_trace_columns_exit_2(tmp_path, capsys, row, col, value):
    # s and the derived kappa, tau columns are checked by read_trace, the
    # state columns by CurveTrace itself; a non-uniform s column is a bad grid.
    cfg = write_cfg(tmp_path, FRAME_CFG)
    out = tmp_path / "trace.csv"
    assert run(["simulate", "--config", cfg, "--out", str(out), "--step", "1e-2", "--length", "0.1"]) == 0
    lines = out.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    out.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["invariants", "--trace", str(out), "--report", str(tmp_path / "r.json")]) == 2
    if value == "0.0":
        reason = f"bad trace {out}: samples are not uniformly spaced by step"
    else:
        reason = f"non-finite value in trace {out}"
    assert capsys.readouterr().err == f"invariants failed: {reason}\n"


def _array_config(tmp_path):
    cfg = tmp_path / "array.json"
    cfg.write_text(json.dumps([FRAME_CFG]))
    return ["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]


def _fourteen_column_trace(tmp_path):
    out = Path(_simulate(tmp_path))
    header, *rows = out.read_text().splitlines()
    out.write_text("\n".join([header] + [row.rsplit(",", 1)[0] for row in rows]) + "\n")
    return ["invariants", "--trace", str(out), "--report", str(tmp_path / "r.json")]


def _traces_at_two_steps(tmp_path):
    cfg = write_cfg(tmp_path, FRAME_CFG)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert run(["simulate", "--config", cfg, "--out", a, "--step", "1e-2", "--length", "0.1"]) == 0
    assert run(["simulate", "--config", cfg, "--out", b, "--step", "2e-2", "--length", "0.2"]) == 0
    return ["compare", a, b]


def _deleted_kept_trace(tmp_path):
    out = _simulate(tmp_path)
    assert os.path.abspath(out) in cli._kept
    os.remove(out)
    return ["invariants", "--trace", out, "--report", str(tmp_path / "r.json")]


REFUSED_INPUTS = {
    "config is a JSON array": (_array_config, "config must be a JSON object"),
    "14-column trace": (_fourteen_column_trace, "malformed row"),
    "traces at two steps": (_traces_at_two_steps, "traces have different steps"),
    "kept trace deleted": (_deleted_kept_trace, "cannot read trace"),
}


@pytest.mark.parametrize("case", REFUSED_INPUTS)
def test_refused_input_exits_2_with_one_line(tmp_path, capsys, case):
    setup, message = REFUSED_INPUTS[case]
    argv = setup(tmp_path)
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{argv[0]} failed: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["simulate", "invariants"])
def test_unwritable_output_exits_2(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, FRAME_CFG)
    trace = str(tmp_path / "trace.csv")
    assert run(["simulate", "--config", cfg, "--out", trace, "--step", "1e-2", "--length", "0.1"]) == 0
    capsys.readouterr()
    missing = str(tmp_path / "missing" / "out")
    argv = {
        "simulate": ["simulate", "--config", cfg, "--out", missing, "--step", "1e-2", "--length", "0.1"],
        "invariants": ["invariants", "--trace", trace, "--report", missing],
    }[command]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith(f"{command} failed: ")


@pytest.mark.parametrize("rows", [1, 512, 513])
def test_csv_writer_matches_savetxt(tmp_path, rows):
    rng = np.random.default_rng(rows)
    table = rng.standard_normal((rows, 4)) * 10.0 ** rng.integers(-300, 300, (rows, 4))
    table[0, :] = [-0.0, 5e-324, 1.7976931348623157e308, -2.2250738585072014e-308]
    expected, written = tmp_path / "savetxt.csv", tmp_path / "written.csv"
    np.savetxt(expected, table, fmt="%.17g", delimiter=",", header="s,a,b,c", comments="")
    assert cli._write_csv(str(written), "s,a,b,c", table.T) == rows
    assert written.read_bytes() == expected.read_bytes()


# Doubles that a lossy text format would get wrong: signed zero, the smallest
# subnormal and normal, the largest subnormal and the largest finite value.
EDGE_DOUBLES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
                2.225073858507201e-308, 1.7976931348623157e308, -1.7976931348623157e308,
                1.0000000000000002, 0.1, 1.0 / 3.0, np.pi, -1e-300, 1e300]


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(0, 20), st.just(15)),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_csv_round_trip_is_bitwise(tmp_path_factory, drawn):
    # A kept trace stands in for the parse of its file, so writing a table
    # and parsing it back must give the same bits.
    table = np.vstack([EDGE_DOUBLES, drawn])
    path = str(tmp_path_factory.mktemp("csv") / "t.csv")
    cli._write_csv(path, cli.TRACE_HEADER, table.T)
    assert np.array_equal(cli._parse_trace(path).view(np.int64), table.view(np.int64))


def test_kept_trace_is_the_parsed_trace(tmp_path, monkeypatch):
    out = _simulate(tmp_path)
    with monkeypatch.context() as m:
        m.setattr(np, "loadtxt", None)  # a parse would fail
        kept = cli.read_trace(out)
    cli._kept.clear()
    parsed = cli.read_trace(out)
    assert (kept.t0, kept.step, len(kept)) == (parsed.t0, parsed.step, len(parsed))
    assert np.array_equal(kept.data.view(np.int64), parsed.data.view(np.int64))
    assert kept.metadata == parsed.metadata == {"source": out}
    assert not kept.data.flags.writeable


def _edit_one_state_cell(path):
    """Change the last digit of one state cell, keeping the file's size, so
    that the cell parses to another double; returns (row, column, value)."""
    lines = Path(path).read_text().splitlines()
    for row, line in enumerate(lines[1:]):
        cells = line.split(",")
        for col in range(1, 13):
            cell = cells[col]
            for digit in "0123456789":
                edited = cell[:-1] + digit
                if "e" not in cell and float(edited) != float(cell):
                    cells[col] = edited
                    lines[row + 1] = ",".join(cells)
                    Path(path).write_text("\n".join(lines) + "\n")
                    return row, col - 1, float(edited)
    raise AssertionError("no editable cell")


def test_kept_trace_is_not_served_after_an_edit(tmp_path):
    out = _simulate(tmp_path)
    size = os.path.getsize(out)
    row, col, value = _edit_one_state_cell(out)
    assert os.path.getsize(out) == size
    assert cli.read_trace(out).data[row, col] == value


def test_overwritten_trace_is_read_from_the_file(tmp_path, capsys):
    out = _simulate(tmp_path)
    cfg = write_cfg(tmp_path, FRAME_CFG)
    assert run(["reduce", "--config", cfg, "--out", out, "--step", "1e-2", "--length", "0.5"]) == 0
    assert os.path.abspath(out) not in cli._kept
    capsys.readouterr()
    assert run(["invariants", "--trace", out, "--report", str(tmp_path / "r.json")]) == 2
    assert "unexpected trace header" in capsys.readouterr().err


def test_trace_far_from_zero_is_kept_and_parsed(tmp_path):
    # At s ~ 1e6 the spacing of s rounds by ~1e-10, past GRID_TOL but well
    # within GRID_TOL * |s|: the write keeps the trace, and the kept read and
    # the parsed read both return it.
    data = np.zeros((11, 12))
    data[:, 3] = 1.0
    out = str(tmp_path / "far.csv")
    assert cli.write_trace(CurveTrace(1e-3, data, t0=1e6), out) == 11
    kept = cli.read_trace(out)
    assert cli._kept.pop(os.path.abspath(out))
    parsed = cli.read_trace(out)
    for trace in (kept, parsed):
        assert trace.t0 == 1e6 and trace.step == pytest.approx(1e-3, abs=1e-9)
        assert trace.data.tobytes() == data.tobytes()
    assert kept.step == parsed.step


def test_a_fourth_trace_drops_the_oldest(tmp_path):
    trace = CurveTrace(1e-2, np.tile([0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0.0], (3, 1)))
    paths = [str(tmp_path / f"{i}.csv") for i in range(4)]
    for path in paths:
        cli.write_trace(trace, path)
    assert list(cli._kept) == [os.path.abspath(path) for path in paths[1:]]


def test_non_finite_cell_is_a_numeric_failure(tmp_path, capsys, monkeypatch):
    def nan_curvature(kappa0, kappa_dot0, c, step, count, lam=0.0):
        kappa = np.full(count + 1, kappa0)
        kappa[6:] = np.nan
        return step * np.arange(count + 1), kappa, np.zeros(count + 1)

    monkeypatch.setattr(scalar, "integrate_scalar", nan_curvature)
    cfg = write_cfg(tmp_path, FRAME_CFG)
    out = tmp_path / "scalar.csv"
    assert run(["reduce", "--config", cfg, "--out", str(out), "--step", "1e-2", "--length", "0.1"]) == 3
    assert capsys.readouterr().err.startswith("reduce failed: non-finite kappa in row 6 ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "hamiltonian", "reconstruct", "reduce", "closed"])
def test_unallocatable_grid_is_a_numeric_failure(tmp_path, capsys, command):
    # 1e18 + 1 samples: numpy refuses the first grid array at once, so
    # nothing is allocated, and the MemoryError exits 3 like any numeric
    # failure instead of escaping main.
    cfg = write_cfg(tmp_path, FRAME_CFG)
    out = tmp_path / "huge.csv"
    assert run([command, "--config", cfg, "--out", str(out), "--step", "1e-3", "--length", "1e15"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"{command} failed: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", RUN_COMMANDS)
@pytest.mark.parametrize("step, length", [("1e-300", "1e300"), ("1e-320", "1")])
def test_overflowing_grid_is_a_numeric_failure(tmp_path, capsys, command, step, length):
    # length / step overflows to inf, which has no step count.
    cfg = write_cfg(tmp_path, FRAME_CFG)
    out = tmp_path / "huge.csv"
    assert run([command, "--config", cfg, "--out", str(out), "--step", step, "--length", length]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"{command} failed: too many steps") and err.count("\n") == 1
    assert not out.exists()


# Each run input with the commands that read it; every other run command
# names the input in one warning line and runs as if it were not given.
RUN_INPUTS = {
    'config "lambda" = 0.5': (({"lambda": 0.5}, []), ("closed",)),
    "--project on": (({}, ["--project", "on"]), ("hamiltonian",)),
    "--method rk45": (({}, ["--method", "rk45"]), ("simulate", "hamiltonian")),
}


@pytest.mark.parametrize("named", RUN_INPUTS)
@pytest.mark.parametrize("command", RUN_COMMANDS)
def test_an_ignored_input_is_named_on_stderr(tmp_path, capsys, command, named):
    (extra, flags), readers = RUN_INPUTS[named]
    out = tmp_path / "out.csv"
    argv = [command, "--out", str(out), "--step", "1e-2", "--length", "0.1"]
    assert run(argv + ["--config", write_cfg(tmp_path, FRAME_CFG, "plain.json")]) == 0
    plain, printed = out.read_bytes(), capsys.readouterr()
    assert printed.err == ""
    assert run(argv + ["--config", write_cfg(tmp_path, dict(FRAME_CFG, **extra), "given.json")] + flags) == 0
    given = capsys.readouterr()
    if command in readers:
        assert given.err == ""
    else:
        assert given.err == f"warning: {command} ignores {named}\n"
        assert given.out == printed.out and out.read_bytes() == plain


def test_ignored_inputs_share_one_warning_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, dict(FRAME_CFG, **{"lambda": 0.5}))
    argv = ["reduce", "--config", cfg, "--out", str(tmp_path / "out.csv"), "--step", "1e-2", "--length", "0.1"]
    assert run(argv + ["--project", "on", "--method", "rk45"]) == 0
    assert capsys.readouterr().err == 'warning: reduce ignores config "lambda" = 0.5, --project on, --method rk45\n'


def _parse_outcome(parse, argv, capsys):
    """(exit code, stdout, stderr, namespace) of parsing argv."""
    try:
        code, namespace = None, vars(parse(argv))
    except SystemExit as exc:
        code, namespace = exc.code, None
    return (code, *capsys.readouterr(), namespace)


VALID_ARGV = [
    *([command, "--config", "c.json", "--out", "o.csv", "--step", "1e-2", "--length", "0.1",
       "--method", "rk45", "--project", "on"] for command in RUN_COMMANDS),
    ["invariants", "--trace", "t.csv", "--report", "r.json"],
    ["compare", "a.csv", "b.csv", "--tol", "1e-8"],
]
PARSE_ERRORS = [
    [], ["-h"], ["--help"], ["bogus"], ["-h", "simulate"],
    *([command, "--help"] for command in (*RUN_COMMANDS, "invariants", "compare")),
    ["simulate", "--out", "o.csv"],
    ["simulate", "--config", "c.json", "--out", "o.csv", "--method", "euler"],
    ["hamiltonian", "--config", "c.json", "--out", "o.csv", "--step", "fine"],
    ["reduce", "--conf", "c.json", "--out", "o.csv"],
    ["compare", "a.csv"],
    ["compare", "a.csv", "b.csv", "c.csv"],
    ["invariants", "-h", "--bogus"],
]


@pytest.mark.parametrize("argv", VALID_ARGV + PARSE_ERRORS, ids=" ".join)
def test_command_parser_matches_the_full_parser(capsys, argv):
    # main builds only the invoked command's parser; every namespace, usage,
    # help and error text and exit code must be the full parser's.
    full = _parse_outcome(lambda a: cli.build_parser().parse_args(a), argv, capsys)
    assert _parse_outcome(cli._parse, argv, capsys) == full


def test_commands_run_without_the_full_parser(tmp_path, monkeypatch):
    def unused():
        raise AssertionError("the full parser was built")

    monkeypatch.setattr(cli, "build_parser", unused)
    cfg = write_cfg(tmp_path, FRAME_CFG)
    trace = str(tmp_path / "trace.csv")
    grid = ["--step", "1e-2", "--length", "0.1"]
    assert run(["simulate", "--config", cfg, "--out", trace] + grid) == 0
    assert run(["compare", trace, trace]) == 0
    assert run(["reduce", "--config", cfg, "--out", str(tmp_path / "scalar.csv")] + grid) == 0


def test_cached_command_parser_leaks_no_state(capsys):
    # Each command's parser is built once per process and reused: any order
    # of parses, errors and helps included, must give the same outcomes.
    for name in cli._COMMANDS:
        assert cli._command_parser(name) is cli._command_parser(name)
    cases = VALID_ARGV + PARSE_ERRORS
    forward = [_parse_outcome(cli._parse, argv, capsys) for argv in cases]
    backward = [_parse_outcome(cli._parse, argv, capsys) for argv in reversed(cases)]
    assert backward[::-1] == forward


USAGE_ERROR_THEN_DEFAULTS = [
    (["simulate", "--config", "c.json", "--out", "o.csv", "--step", "1e-2", "--method", "euler"],
     ["simulate", "--config", "c.json", "--out", "o.csv"]),
    (["hamiltonian", "--config", "c.json", "--out", "o.csv", "--project", "on", "--step", "fine"],
     ["hamiltonian", "--config", "c.json", "--out", "o.csv"]),
    (["closed", "--config", "c.json", "--length", "2"], ["closed", "--config", "c.json", "--out", "o.csv"]),
    (["invariants", "--trace", "t.csv", "--report"], ["invariants", "--trace", "t.csv", "--report", "r.json"]),
    (["compare", "a.csv", "--tol", "1e-8"], ["compare", "a.csv", "b.csv"]),
]


@pytest.mark.parametrize("error, argv", USAGE_ERROR_THEN_DEFAULTS, ids=lambda argv: " ".join(argv))
def test_command_parser_after_a_usage_error(capsys, error, argv):
    # Neither a parse that set every option nor a usage error that got part
    # way through the arguments may leave a value behind for the next parse
    # of the same command, which takes the defaults.
    cli._parse(next(valid for valid in VALID_ARGV if valid[0] == argv[0]))
    assert _parse_outcome(cli._parse, error, capsys)[0] == 2
    assert vars(cli._parse(argv)) == vars(cli.build_parser().parse_args(argv))


ROOT = Path(__file__).resolve().parents[1]

# Public names that nothing in the program, the acceptance gate or the
# benchmark's tracer reaches, kept on purpose.
UNREACHED_BY_DESIGN = {
    "cartan_contraction": "reference that tests compare noether_charge against",
    "fourth_derivative_frame": "reference that tests compare the dynamics against",
}


def _spans():
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_traced_names_resolve():
    # perfbench/spans.py wraps these functions by name; a deleted or renamed
    # one would make every traced benchmark run fail.
    spans = _spans()
    for name in spans.TRACED:
        module, _, attr = name.partition(".")
        assert callable(getattr(importlib.import_module(f"{spans.PACKAGE}.{module}"), attr, None)), name


def _referenced(trees):
    """The names that the syntax trees read, as names, attributes or imports."""
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def test_public_names_are_reached():
    # Every public top-level def or class is referenced by the program, the
    # acceptance gate or the benchmark's tracer, or is listed above; a listed
    # name that gains a reference leaves the list.  Every private top-level
    # def is referenced by the program itself, with no exemption.
    sources = sorted((ROOT / "src" / "elastica_lab").glob("*.py"))
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sources]
    in_src = _referenced(trees)
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    used = in_src | _referenced([acceptance]) | {name.partition(".")[2] for name in _spans().TRACED}
    top = [node for tree in trees for node in tree.body]
    public = {
        node.name
        for node in top
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    private = {node.name for node in top if isinstance(node, ast.FunctionDef) and node.name.startswith("_")}
    assert sorted(public - used) == sorted(UNREACHED_BY_DESIGN)
    assert sorted(private - in_src) == []
