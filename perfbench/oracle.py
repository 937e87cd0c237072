"""Checks of elastica-lab outputs against results computed outside the program.

Nothing here imports elastica_lab.  The reference values are:

* the exact curvature of the scalar reduction.  With u = kappa^2 the first
  integral of the curvature equation reads u'^2 = -u^3 + a u^2 + b u + d,
  whose bounded solutions are (Langer & Singer, "Knotted elastic curves in
  R^3", 1984)

      u(s) = u3 - (u3 - u2) sn^2(w s + phi | m),
      w = sqrt(u3 - u1)/2,  m = (u3 - u2)/(u3 - u1),

  with u1 <= u2 <= u3 the roots of the cubic; when u2 = 0 (planar motion,
  d = 0) the curvature is signed and kappa = sqrt(u3) cn(w s + phi | m);
* the conserved momenta p and l and the arclength conditions, evaluated in
  plain numpy from the jets a trace stores;
* the quadrature relation 4 kappa'^2 + (lambda - kappa^2)^2 + j^2/(4 kappa^2)
  = C^2 of the length-constrained problem;
* the sup position discrepancy between two traces.
"""

import json
import math

import numpy as np
from scipy.special import ellipj, ellipkinc

# Largest accepted error of a computed solution against the exact curvature,
# the conserved momenta, the arclength conditions and the quadrature relation.
# It sits 60x below the arclength drift of direct integration at s = 40 and
# well above the error of fixed-step RK4 at the output steps the workloads use
# (README.md lists both).
SOLUTION_TOL = 1e-7
# The trace header the CLI writes; the first column is s.
TRACE_HEADER = "s,x1,x2,x3,xd1,xd2,xd3,xdd1,xdd2,xdd3,xddd1,xddd2,xddd3,kappa,tau"


class Elliptic:
    """Exact solution of u'^2 = -u^3 + a u^2 + b u + d from kappa(0), kappa'(0)."""

    def __init__(self, a, b, d, kappa0, kappa_dot0):
        roots = np.roots([1.0, -a, -b, -d])
        roots = np.sort(roots.real)
        for _ in range(2):  # Newton polish of each root of u^3 - a u^2 - b u - d
            f = ((roots - a) * roots - b) * roots - d
            df = (3.0 * roots - 2.0 * a) * roots - b
            safe = np.abs(df) > 1e-300
            roots = np.where(safe, roots - f / np.where(safe, df, 1.0), roots)
        u1, u2, u3 = roots
        u0 = kappa0 * kappa0
        self.signed = d == 0.0 and u1 < 0.0 and abs(u2) <= 1e-14 * max(1.0, u3)
        if self.signed:
            u1, u2 = min(u1, u2), 0.0
        u3 = max(u3, u0)
        self.u2, self.u3 = u2, u3
        self.w = 0.5 * math.sqrt(u3 - u1)
        self.m = (u3 - u2) / (u3 - u1) if u3 > u2 else 0.0
        if self.signed:
            # kappa = sqrt(u3) cn: the amplitude comes from cos(am) = kappa0/sqrt(u3).
            cos_am = min(1.0, max(-1.0, kappa0 / math.sqrt(u3)))
            amp = math.acos(cos_am)
        else:
            sn2 = (u3 - u0) / (u3 - u2) if u3 > u2 else 0.0
            sn2 = min(1.0, max(0.0, sn2))
            amp = math.atan2(math.sqrt(sn2), math.sqrt(1.0 - sn2))
        phi = float(ellipkinc(amp, self.m))
        # On [0, 2K] (signed) or [0, K] the curvature decreases; a rising start
        # lies at the mirror point.
        self.phi = -phi if kappa_dot0 > 0.0 else phi

    def __call__(self, s):
        """(kappa, kappa') at the arclengths s."""
        sn, cn, dn, _ = ellipj(self.w * np.asarray(s, dtype=float) + self.phi, self.m)
        if self.signed:
            root = math.sqrt(self.u3)
            return root * cn, -root * self.w * sn * dn
        kappa = np.sqrt(self.u3 - (self.u3 - self.u2) * sn * sn)
        du = -2.0 * (self.u3 - self.u2) * self.w * sn * cn * dn
        return kappa, du / (2.0 * kappa)


def free_curvature(kappa0, kappa_dot0, c):
    """Exact kappa(s) of the free elastica with torsion constant c = kappa^2 tau."""
    level = kappa_dot0**2 + 0.25 * kappa0**4 + (c * c / kappa0**2 if c else 0.0)
    return Elliptic(0.0, 4.0 * level, -4.0 * c * c, kappa0, kappa_dot0)


def closed_constants(kappa0, kappa_dot0, tau0, lam):
    """(j, C^2) of the length-constrained problem from its initial data."""
    j = -4.0 * kappa0**2 * tau0
    c2 = 4.0 * kappa_dot0**2 + (lam - kappa0**2) ** 2 + j * j / (4.0 * kappa0**2)
    return j, c2


def closed_curvature(kappa0, kappa_dot0, tau0, lam):
    """Exact kappa(s) under the length constraint with multiplier lam."""
    j, c2 = closed_constants(kappa0, kappa_dot0, tau0, lam)
    return Elliptic(2.0 * lam, c2 - lam * lam, -0.25 * j * j, kappa0, kappa_dot0)


def _dots(a, b):
    return np.einsum("ij,ij->i", a, b)


def initial_jet(cfg):
    """(x, xdot, xddot, xdddot) the config describes, on the arclength submanifold.

    Frame data give xdot = T, xddot = kappa N, xdddot = kappa' N - kappa^2 T +
    kappa tau B.  A raw jet is moved to the nearest arclength jet: unit xdot,
    xddot without its tangential part, and tangential part of xdddot equal to
    -|xddot|^2 xdot.
    """
    if "kappa0" in cfg:
        k, kd, tau = cfg["kappa0"], cfg.get("kappa_dot0", 0.0), cfg.get("tau0", 0.0)
        frame = cfg.get("frame", "standard")
        T, N, B = np.eye(3) if frame == "standard" else (np.array(r, dtype=float) for r in frame)
        return (np.array(cfg["x0"], dtype=float), T, k * N, kd * N - k * k * T + k * tau * B)
    xd = np.array(cfg["xdot0"], dtype=float)
    t = xd / np.linalg.norm(xd)
    xdd = np.array(cfg["xddot0"], dtype=float)
    xdd = xdd - np.dot(xdd, t) * t
    xddd = np.array(cfg["xdddot0"], dtype=float)
    xddd = xddd - np.dot(xddd, t) * t - np.dot(xdd, xdd) * t
    return np.array(cfg["x0"], dtype=float), t, xdd, xddd


def jet_scalars(jet):
    """(kappa, kappa', c = kappa^2 tau) of an arclength jet."""
    _, xd, xdd, xddd = jet
    kappa = float(np.linalg.norm(xdd))
    c = float(np.dot(np.cross(xd, xdd), xddd))
    if abs(c) <= 1e-12 * kappa * kappa:
        c = 0.0  # a plane curve; the program takes its c as exactly 0 too
    return kappa, float(np.dot(xdd, xddd)) / kappa, c


def momenta(x, xd, xdd, xddd):
    """Per-row p = -2 xddd - 3 |xdd|^2 xd and l = x cross p + 2 xd cross xdd."""
    p = -2.0 * xddd - 3.0 * _dots(xdd, xdd)[:, None] * xd
    return p, np.cross(x, p) + 2.0 * np.cross(xd, xdd)


def arclength_defects(xd, xdd, xddd):
    """Per-row (|xd|^2 - 1, <xd, xdd>, <xd, xddd> + |xdd|^2)."""
    return np.stack(
        [_dots(xd, xd) - 1.0, _dots(xd, xdd), _dots(xd, xddd) + _dots(xdd, xdd)], axis=1
    )


def drift(values, ref):
    """max |v - ref| / max(1, |ref|) over rows."""
    dev = np.linalg.norm(values - ref, axis=1)
    return float(np.max(dev)) / max(1.0, float(np.linalg.norm(ref)))


def read_csv(path, header, width):
    with open(path, "r", encoding="utf-8") as fh:
        if fh.readline().strip() != header:
            raise ValueError(f"unexpected header in {path}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != width:
        raise ValueError(f"{path}: {data.shape[1]} columns, expected {width}")
    return data


def _samples_error(stdout, s, step, count):
    """The 'wrote N samples' line and the parameter column against the grid."""
    if f"wrote {count + 1} samples" not in stdout:
        return f"did not report {count + 1} samples written"
    if len(s) != count + 1:
        return f"{len(s)} samples, expected {count + 1}"
    if np.max(np.abs(s - step * np.arange(count + 1))) > 1e-9:
        return "parameter column is not the uniform grid"
    return None


def _worst(errors):
    """First failed check as a message, or None."""
    for name, value in errors.items():
        if not value <= SOLUTION_TOL:
            return f"{name} = {value:.3e} > {SOLUTION_TOL:.0e}"
    return None


def check_curve(stdout, path, cfg, step, count):
    """A simulate/hamiltonian/reconstruct trace against the exact solution.

    Returns None when the trace passes, else the reason it fails.
    """
    data = read_csv(path, TRACE_HEADER, 15)
    x, xd, xdd, xddd = data[:, 1:4], data[:, 4:7], data[:, 7:10], data[:, 10:13]
    jet0 = initial_jet(cfg)
    kappa0, kappa_dot0, c = jet_scalars(jet0)
    branch = "planar" if c == 0.0 else "generic"
    if "(branch:" in stdout and f"(branch: {branch})" not in stdout:
        return f"expected the {branch} branch: {stdout.strip()}"
    bad = _samples_error(stdout, data[:, 0], step, count)
    if bad:
        return bad
    exact, _ = free_curvature(kappa0, kappa_dot0, c)(data[:, 0])
    kappa = np.linalg.norm(xdd, axis=1)
    p, l = momenta(x, xd, xdd, xddd)
    p0, l0 = momenta(*(v[None, :] for v in jet0))
    return _worst(
        {
            "initial jet": float(np.max(np.abs(data[0, 1:13] - np.concatenate(jet0)))),
            "arclength defect": float(np.max(np.abs(arclength_defects(xd, xdd, xddd)))),
            "|kappa - exact|": float(np.max(np.abs(kappa - np.abs(exact)))),
            "kappa column": float(np.max(np.abs(data[:, 13] - kappa))),
            "p drift": drift(p, p0[0]),
            "l drift": drift(l, l0[0]),
        }
    )


def check_reduce(stdout, path, cfg, step, count):
    """The reduce output (s, kappa, kappa', tau) against the exact solution."""
    data = read_csv(path, "s,kappa,kappa_dot,tau", 4)
    bad = _samples_error(stdout, data[:, 0], step, count)
    if bad:
        return bad
    kappa0, kappa_dot0, c = jet_scalars(initial_jet(cfg))
    kappa, kappa_dot = free_curvature(kappa0, kappa_dot0, c)(data[:, 0])
    return _worst(
        {
            "|kappa - exact|": float(np.max(np.abs(data[:, 1] - kappa))),
            "|kappa' - exact|": float(np.max(np.abs(data[:, 2] - kappa_dot))),
            "|tau - c/kappa^2|": float(np.max(np.abs(data[:, 3] - c / kappa**2))),
        }
    )


def check_closed(stdout, path, cfg, step, count):
    """The closed output against the exact constrained curvature and the
    quadrature relation recomputed from its kappa and kappa' columns."""
    data = read_csv(path, "s,kappa,kappa_dot,foltinek_residual", 4)
    bad = _samples_error(stdout, data[:, 0], step, count)
    if bad:
        return bad
    k0, kd0, tau0, lam = cfg["kappa0"], cfg["kappa_dot0"], cfg["tau0"], cfg["lambda"]
    j, c2 = closed_constants(k0, kd0, tau0, lam)
    kappa, kappa_dot = closed_curvature(k0, kd0, tau0, lam)(data[:, 0])
    k, kd = data[:, 1], data[:, 2]
    relation = 4.0 * kd**2 + (lam - k**2) ** 2 + j * j / (4.0 * k**2) - c2
    return _worst(
        {
            "|kappa - exact|": float(np.max(np.abs(k - kappa))),
            "|kappa' - exact|": float(np.max(np.abs(kd - kappa_dot))),
            "quadrature relation": float(np.max(np.abs(relation))) / max(1.0, c2),
            "residual column": float(np.max(np.abs(data[:, 3] - relation))),
        }
    )


def check_report(stdout, report_path, trace_path):
    """An invariants report against residuals recomputed from its trace."""
    with open(report_path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    data = read_csv(trace_path, TRACE_HEADER, 15)
    if report.get("samples") != len(data) or report.get("violations") or not stdout.rstrip().endswith(": ok"):
        return f"report disagrees with its trace: {report.get('violations')}"
    x, xd, xdd, xddd = data[:, 1:4], data[:, 4:7], data[:, 7:10], data[:, 10:13]
    p, l = momenta(x, xd, xdd, xddd)
    ours = {
        "arclength": float(np.max(np.abs(arclength_defects(xd, xdd, xddd)))),
        "p_drift": drift(p, p[0]),
        "l_drift": drift(l, l[0]),
    }
    for name, value in ours.items():
        reported = report["residuals"][name]
        if abs(reported - value) > 1e-6 * value + 1e-15:
            return f"reported {name} = {reported!r}, recomputed {value!r}"
    return None


def check_compare(stdout, path_a, path_b):
    """The printed sup discrepancy against the one recomputed from the traces."""
    xa = read_csv(path_a, TRACE_HEADER, 15)[:, 1:4]
    xb = read_csv(path_b, TRACE_HEADER, 15)[:, 1:4]
    ours = float(np.max(np.linalg.norm(xa - xb, axis=1)))
    prefix = "sup position discrepancy:"
    lines = [ln for ln in stdout.splitlines() if ln.startswith(prefix)]
    if not lines:
        return "no discrepancy printed"
    theirs = float(lines[-1][len(prefix):])
    if abs(theirs - ours) > 1e-12 * ours:
        return f"printed {theirs!r}, recomputed {ours!r}"
    return None
