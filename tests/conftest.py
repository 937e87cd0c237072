import numpy as np
import pytest

from elastica_lab import frenet, hamiltonian, lagrangian
from elastica_lab.geometry import STANDARD_FRAME, CurveTrace, FrenetFrame, JetState

STEP = 1e-3


def rotation(a, b, c):
    """Rows (T, N, B) of the proper rotation Rz(a) Ry(b) Rx(c)."""
    ca, sa, cb, sb, cc, sc = np.cos(a), np.sin(a), np.cos(b), np.sin(b), np.cos(c), np.sin(c)
    rz = np.array([[ca, -sa, 0], [sa, ca, 0], [0, 0, 1]])
    ry = np.array([[cb, 0, sb], [0, 1, 0], [-sb, 0, cb]])
    rx = np.array([[1, 0, 0], [0, cc, -sc], [0, sc, cc]])
    return (rz @ ry @ rx).T


def frame_jet(kappa, kappa_dot, tau, x0=(0.0, 0.0, 0.0), frame=STANDARD_FRAME):
    T, N, B = frame
    f = FrenetFrame(T=T, N=N, B=B, kappa=kappa, tau=tau)
    return frenet.jet_from_frame(np.asarray(x0, dtype=float), f, kappa_dot)


@pytest.fixture(scope="session")
def standard_jet():
    """The reference initial data: kappa=1, kappa_dot=0.3, tau=0.2 at the origin."""
    return frame_jet(1.0, 0.3, 0.2)


@pytest.fixture(scope="session")
def standard_trace(standard_jet):
    """Direct arclength integration of the reference data over s in [0, 10]."""
    return lagrangian.integrate_elastica(standard_jet, STEP, 10000)


@pytest.fixture(scope="session")
def standard_trace_5(standard_trace):
    """The s in [0, 5] head of the reference run."""
    return CurveTrace(
        STEP, standard_trace.data[:5001], t0=standard_trace.t0, metadata=standard_trace.metadata
    )


@pytest.fixture(scope="session")
def ham_trace(standard_jet):
    """Constrained Hamiltonian flow from the Legendre image, s in [0, 10]."""
    ps0 = hamiltonian.legendre(standard_jet)
    return hamiltonian.integrate_flow(ps0, STEP, 10000)


@pytest.fixture(scope="session")
def planar_jet():
    return frame_jet(1.0, 0.3, 0.0)


@pytest.fixture(scope="session")
def planar_trace(planar_jet):
    return lagrangian.integrate_elastica(planar_jet, STEP, 5000)


@pytest.fixture(scope="session")
def line_jet():
    T, _, _ = STANDARD_FRAME
    return JetState(0.0, np.zeros(3), T, np.zeros(3), np.zeros(3))


def circle_rows(u, speed):
    """Jet rows (x, xdot, xddot, xdddot) of the unit circle traversed at
    `speed`, sampled at the parameters u; arclength at speed 1."""
    c, s, z = np.cos(speed * u), np.sin(speed * u), np.zeros_like(u)
    return np.column_stack(
        [c, s, z, -speed * s, speed * c, z, -speed**2 * c, -speed**2 * s, z, speed**3 * s, -speed**3 * c, z]
    )


@pytest.fixture(scope="session")
def circle_trace():
    """Unit circle jets: arclength but not a solution of the dynamics."""
    return CurveTrace(STEP, circle_rows(np.arange(2001) * STEP, 1.0), metadata={"gauge": "arclength"})
