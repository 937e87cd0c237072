"""Value types for jets, phase points, moving frames, conserved quantities
and sampled traces.

Single points are plain values over numpy length-3 float arrays; a trace is
one (N, 12) array.  Nothing here mutates shared state.  Constructors reject
NaN/Inf outright because every downstream formula divides by a norm.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Absolute tolerance for representation-level invariants (orthonormality,
# arclength conditions at construction).  Trajectory drift uses DRIFT_TOL.
INVARIANT_TOL = 1e-10

# How far a point may sit off its manifold, the arclength submanifold of jets
# or the constraint set of phase points, and still be accepted: looser than
# INVARIANT_TOL, so that integrated traces with accumulated drift stay usable.
DRIFT_TOL = 1e-6


def vec3(v):
    """Validate and return a finite length-3 float64 vector."""
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"non-finite 3-vector: {a}")
    return a.copy()


def dot(u, v):
    """Inner product over the last axis, broadcast over leading axes."""
    return np.einsum("...i,...i->...", u, v)


def cross(u, v):
    """u x v over the last axis: np.cross's arithmetic, bit for bit, without
    its per-call overhead, which dominated single-point kernels."""
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    return np.stack([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0], axis=-1)


def norm(v):
    return float(np.linalg.norm(v))


def arclength_conditions(xdot, xddot, xdddot):
    """Residuals of the three arclength submanifold conditions, stacked on a
    last axis of length 3; broadcasts over (..., 3) inputs:

    (|xdot|^2 - 1, <xdot, xddot>, <xdot, xdddot> + |xddot|^2)
    """
    conditions = (dot(xdot, xdot) - 1.0, dot(xdot, xddot), dot(xdot, xdddot) + dot(xddot, xddot))
    return np.stack(conditions, axis=-1)


def require_near(residuals, condition, s=None):
    """Raise ValueError unless every residual of a (..., k) array is within
    DRIFT_TOL of 0 (a NaN is not).  The message reads "<condition> at <row>"
    with the first bad row, or its parameter when `s` gives the rows'."""
    bad = np.flatnonzero(~(np.max(np.abs(residuals), axis=-1) <= DRIFT_TOL))
    if bad.size:
        i = bad[0]
        where = f"row {i}" if s is None else f"s = {s[i]:.6g}"
        rows = np.reshape(residuals, (-1, np.shape(residuals)[-1]))
        raise ValueError(f"{condition} at {where}: residuals {rows[i]} exceed DRIFT_TOL = {DRIFT_TOL}")


@dataclass
class JetState:
    """A third-jet point: parameter t with x and its first three derivatives."""

    t: float
    x: np.ndarray
    xdot: np.ndarray
    xddot: np.ndarray
    xdddot: np.ndarray

    def __post_init__(self):
        self.t = float(self.t)
        if not np.isfinite(self.t):
            raise ValueError("non-finite jet parameter")
        self.x = vec3(self.x)
        self.xdot = vec3(self.xdot)
        self.xddot = vec3(self.xddot)
        self.xdddot = vec3(self.xdddot)

    def arclength_defects(self):
        """The three arclength residuals as a tuple (see arclength_conditions)."""
        return tuple(arclength_conditions(self.xdot, self.xddot, self.xdddot).tolist())

    def is_arclength(self, tol=INVARIANT_TOL):
        return all(abs(d) <= tol for d in self.arclength_defects())

    def to_array(self):
        """Flat 12-vector (x, xdot, xddot, xdddot), for integrators."""
        return np.concatenate([self.x, self.xdot, self.xddot, self.xdddot])

    @staticmethod
    def from_array(t, y):
        y = np.asarray(y, dtype=float)
        return JetState(t, y[0:3], y[3:6], y[6:9], y[9:12])


@dataclass
class PhaseState:
    """A cotangent point over the first jet: (t, x, xdot, p_t, p_x, p_xdot)."""

    t: float
    x: np.ndarray
    xdot: np.ndarray
    p_x: np.ndarray
    p_xdot: np.ndarray
    p_t: float = 0.0

    def __post_init__(self):
        self.t = float(self.t)
        self.p_t = float(self.p_t)
        if not (np.isfinite(self.t) and np.isfinite(self.p_t)):
            raise ValueError("non-finite phase scalar")
        self.x = vec3(self.x)
        self.xdot = vec3(self.xdot)
        self.p_x = vec3(self.p_x)
        self.p_xdot = vec3(self.p_xdot)
        if norm(self.xdot) == 0.0:
            raise ValueError("phase state requires xdot != 0")

    def to_array(self):
        """Flat 12-vector (x, xdot, p_x, p_xdot); p_t rides along as exactly 0."""
        return np.concatenate([self.x, self.xdot, self.p_x, self.p_xdot])

    @staticmethod
    def from_array(t, y):
        y = np.asarray(y, dtype=float)
        return PhaseState(t, y[0:3], y[3:6], y[6:9], y[9:12])


@dataclass
class FrenetFrame:
    """Orthonormal (T, N, B) with curvature kappa >= 0 and torsion tau."""

    T: np.ndarray
    N: np.ndarray
    B: np.ndarray
    kappa: float
    tau: float

    def __post_init__(self):
        self.T = vec3(self.T)
        self.N = vec3(self.N)
        self.B = vec3(self.B)
        self.kappa = float(self.kappa)
        self.tau = float(self.tau)
        if not (np.isfinite(self.kappa) and np.isfinite(self.tau)):
            raise ValueError("non-finite curvature or torsion")
        if self.kappa < 0.0:
            raise ValueError("curvature must be >= 0")
        for name, v in (("T", self.T), ("N", self.N), ("B", self.B)):
            if abs(norm(v) - 1.0) > INVARIANT_TOL:
                raise ValueError(f"{name} is not a unit vector")
        if (
            abs(dot(self.T, self.N)) > INVARIANT_TOL
            or abs(dot(self.N, self.B)) > INVARIANT_TOL
            or abs(dot(self.T, self.B)) > INVARIANT_TOL
        ):
            raise ValueError("frame vectors are not pairwise orthogonal")
        if norm(self.B - cross(self.T, self.N)) > INVARIANT_TOL:
            raise ValueError("B != T x N")


STANDARD_FRAME = (
    np.array([1.0, 0.0, 0.0]),
    np.array([0.0, 1.0, 0.0]),
    np.array([0.0, 0.0, 1.0]),
)


@dataclass
class ConservedSet:
    """Linear momentum p, angular momentum l, energy H, torsion constant c."""

    p: np.ndarray
    l: np.ndarray
    H: float
    c: float

    def __post_init__(self):
        self.p = vec3(self.p)
        self.l = vec3(self.l)
        self.H = float(self.H)
        self.c = float(self.c)
        if not (np.isfinite(self.H) and np.isfinite(self.c)):
            raise ValueError("non-finite conserved scalar")


# Per trace kind: the sample type and the names of its four column blocks.
_KINDS = {
    "jet": (JetState, ("x", "xdot", "xddot", "xdddot")),
    "phase": (PhaseState, ("x", "xdot", "p_x", "p_xdot")),
}


class CurveTrace:
    """Uniformly sampled trajectory stored as one read-only (N, 12) array.

    Row i is the sample at t0 + i*step: (x, xdot, xddot, xdddot) for a jet
    trace, (x, xdot, p_x, p_xdot) for a phase trace, whose p_t is 0.
    `metadata` carries gauge/integrator tags.
    """

    x = property(lambda self: self.stacked("x"))
    xdot = property(lambda self: self.stacked("xdot"))
    xddot = property(lambda self: self.stacked("xddot"))
    xdddot = property(lambda self: self.stacked("xdddot"))
    p_x = property(lambda self: self.stacked("p_x"))
    p_xdot = property(lambda self: self.stacked("p_xdot"))

    def __init__(self, step, data, t0=0.0, kind="jet", metadata=None):
        """Trace over an (N, 12) array, which it takes over read-only."""
        data = np.asarray(data, dtype=float)
        self.step, self.t0, self.kind = float(step), float(t0), kind
        if not self.step > 0.0:
            raise ValueError("step must be positive")
        if kind not in _KINDS:
            raise ValueError(f"trace kind must be one of {sorted(_KINDS)}, got {kind!r}")
        if data.ndim != 2 or data.shape[0] == 0 or data.shape[1] != 12:
            raise ValueError(f"trace needs an (N >= 1, 12) array, got shape {data.shape}")
        if not (np.isfinite(self.t0) and np.all(np.isfinite(data))):
            raise ValueError("non-finite trace values")
        data.flags.writeable = False
        self.data = data
        self.metadata = {} if metadata is None else metadata

    def __len__(self):
        return self.data.shape[0]

    def params(self):
        return self.t0 + self.step * np.arange(len(self))

    def stacked(self, attr):
        """(N, 3) read-only view of one vector field across all samples."""
        names = _KINDS[self.kind][1]
        if attr not in names:
            raise AttributeError(f"a {self.kind} trace has no field {attr!r}")
        i = 3 * names.index(attr)
        return self.data[:, i : i + 3]

    def positions(self):
        return self.stacked("x")

    @cached_property
    def samples(self):
        """The rows as JetState or PhaseState values, built on first use."""
        make = _KINDS[self.kind][0].from_array
        return tuple(make(t, row) for t, row in zip(self.params(), self.data))
