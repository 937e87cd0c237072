import numpy as np
import pytest
from hypothesis import given, strategies as st

from elastica_lab.geometry import (
    CurveTrace,
    FrenetFrame,
    JetState,
    PhaseState,
    cross,
    dot,
    vec3,
)

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
vectors = st.tuples(finite, finite, finite).map(np.array)


@given(vectors, vectors)
def test_cross_product_identities(u, v):
    w = cross(u, v)
    scale = max(1.0, np.linalg.norm(u) ** 2 * np.linalg.norm(v) ** 2)
    assert abs(dot(w, u)) <= 1e-12 * scale
    lagrange = dot(w, w) - (dot(u, u) * dot(v, v) - dot(u, v) ** 2)
    assert abs(lagrange) <= 1e-12 * scale


@pytest.mark.parametrize("bad", [[np.nan, 0, 0], [np.inf, 0, 0], [0, -np.inf, 0]])
def test_vec3_rejects_nonfinite(bad):
    with pytest.raises(ValueError):
        vec3(bad)


def test_vec3_rejects_wrong_shape():
    with pytest.raises(ValueError):
        vec3([1.0, 2.0])


def test_jet_state_arclength_flags():
    j = JetState(0.0, [0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 0, 0])
    assert j.is_arclength()
    assert j.arclength_defects() == (0.0, 0.0, 0.0)
    off = JetState(0.0, [0, 0, 0], [2, 0, 0], [0, 1, 0], [-1, 0, 0])
    assert not off.is_arclength()


def test_jet_state_rejects_nan():
    with pytest.raises(ValueError):
        JetState(0.0, [0, 0, np.nan], [1, 0, 0], [0, 1, 0], [0, 0, 0])


def test_jet_state_array_round_trip():
    j = JetState(0.5, [1, 2, 3], [0, 1, 0], [0.1, 0, 0], [0, 0, 0.2])
    back = JetState.from_array(j.t, j.to_array())
    np.testing.assert_array_equal(back.x, j.x)
    np.testing.assert_array_equal(back.xdddot, j.xdddot)


def test_phase_state_requires_moving_point():
    with pytest.raises(ValueError, match="phase state requires xdot != 0"):
        PhaseState(0.0, [0, 0, 0], [0, 0, 0], [1, 0, 0], [0, 1, 0])


def test_frenet_frame_validates_orthonormality():
    with pytest.raises(ValueError):
        FrenetFrame(
            T=[1, 0, 0], N=[0.5, 0.5, 0], B=[0, 0, 1], kappa=1.0, tau=0.0
        )
    with pytest.raises(ValueError):
        FrenetFrame(T=[1, 0, 0], N=[0, 1, 0], B=[0, 0, -1], kappa=1.0, tau=0.0)
    with pytest.raises(ValueError):
        FrenetFrame(T=[1, 0, 0], N=[0, 1, 0], B=[0, 0, 1], kappa=-0.5, tau=0.0)


def test_curve_trace_stacking():
    mk = lambda t: JetState(t, [t, 2 * t, 0], [1, 2, 0], [0, 0, 0], [0, 0, 0]).to_array()
    tr = CurveTrace(1.0, [mk(0.0), mk(1.0)])
    assert tr.positions().shape == (2, 3)
    np.testing.assert_array_equal(tr.params(), [0.0, 1.0])


def test_curve_trace_from_array_views():
    data = np.arange(24, dtype=float).reshape(2, 12)
    tr = CurveTrace(0.5, data, t0=1.0, metadata={"gauge": "arclength"})
    assert len(tr) == 2 and tr.kind == "jet"
    np.testing.assert_array_equal(tr.params(), [1.0, 1.5])
    np.testing.assert_array_equal(tr.xddot, data[:, 6:9])
    np.testing.assert_array_equal(tr.samples[1].xdddot, data[1, 9:12])
    assert tr.samples[1].t == 1.5
    with pytest.raises(ValueError):
        tr.x[0, 0] = 1.0
    with pytest.raises(AttributeError):
        tr.p_x


def test_curve_trace_from_array_rejects_bad_arrays():
    with pytest.raises(ValueError):
        CurveTrace(0.5, np.zeros((0, 12)))
    with pytest.raises(ValueError):
        CurveTrace(0.5, np.zeros((3, 9)))
    with pytest.raises(ValueError):
        CurveTrace(0.5, np.full((2, 12), np.nan))


@pytest.mark.parametrize("kind", ["Jet", "frame", ""])
def test_curve_trace_rejects_unknown_kind(kind):
    with pytest.raises(ValueError, match="kind"):
        CurveTrace(1.0, np.zeros((2, 12)), kind=kind)


def test_phase_trace_layout_and_p_t():
    mk = lambda t: PhaseState(t, [t, 0, 0], [1, 0, 0], [0, 0, 1], [0, 2, 0]).to_array()
    tr = CurveTrace(0.5, [mk(0.0), mk(0.5)], kind="phase")
    assert tr.kind == "phase"
    np.testing.assert_array_equal(tr.p_xdot, [[0, 2, 0], [0, 2, 0]])
    assert tr.samples[1].p_t == 0.0
    with pytest.raises(AttributeError):
        tr.xddot
