"""Charts, atlases and pointwise tensor component transforms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from flowtensor.geometry import (
    Chart,
    ChartAtlas,
    NoCoveringChart,
    OutsideOverlap,
    ShapeMismatch,
    TensorValue,
    euclidean_atlas,
    locate_chart,
    locate_chart_batch,
    sphere_atlas,
    torus_atlas,
    transform_tensor,
    transition,
    _contract,
)

from references import jacobian_consistency


def transform_by_loops(comps, valence, jac, inv_jac):
    """Index-by-index reference transform, no einsum."""
    r, s = valence
    n = jac.shape[0]
    out = np.zeros_like(comps)
    for out_idx in np.ndindex(out.shape):
        acc = 0.0
        for in_idx in np.ndindex(comps.shape):
            w = 1.0
            for k in range(r):
                w *= jac[out_idx[k], in_idx[k]]
            for k in range(r, r + s):
                w *= inv_jac[in_idx[k], out_idx[k]]
            acc += w * comps[in_idx]
        out[out_idx] = acc
    return out


# ---------------------------------------------------------------------------
# TensorValue
# ---------------------------------------------------------------------------


def test_tensor_value_validates_rank():
    with pytest.raises(ShapeMismatch):
        TensorValue((1, 1), np.zeros(2))
    with pytest.raises(ShapeMismatch):
        TensorValue((0, 1), np.zeros((2, 2)))
    with pytest.raises(ShapeMismatch):
        TensorValue((-1, 0), np.zeros(()))


def test_tensor_value_rejects_ragged_axes():
    with pytest.raises(ShapeMismatch):
        TensorValue((1, 1), np.zeros((2, 3)))


def test_transform_identity_is_noop():
    k = TensorValue((1, 1), np.arange(4.0).reshape(2, 2))
    eye = np.eye(2)
    out = transform_tensor(k, eye, eye)
    assert np.array_equal(out.components, k.components)


def test_transform_mixed_tensor_diagonal_jacobian():
    # K^0_1 = 1 under y = (2 x0, 3 x1) picks up a factor 2 * (1/3)
    comps = np.zeros((2, 2))
    comps[0, 1] = 1.0
    k = TensorValue((1, 1), comps)
    jac = np.diag([2.0, 3.0])
    inv = np.diag([0.5, 1.0 / 3.0])
    out = transform_tensor(k, jac, inv)
    assert_allclose(out.components[0, 1], 2.0 / 3.0, rtol=1e-15)
    assert np.count_nonzero(out.components) == 1


def test_transform_vector_and_one_form_on_line():
    # doubling the coordinate doubles vector components, halves covectors
    jac = np.array([[2.0]])
    inv = np.array([[0.5]])
    v = transform_tensor(TensorValue((1, 0), np.array([1.0])), jac, inv)
    w = transform_tensor(TensorValue((0, 1), np.array([1.0])), jac, inv)
    assert_allclose(v.components, [2.0])
    assert_allclose(w.components, [0.5])


@pytest.mark.parametrize("valence", [(0, 1), (1, 0), (1, 1), (0, 2), (2, 0), (2, 1)])
def test_transform_matches_loop_reference(valence):
    rng = np.random.default_rng(61)
    comps = rng.standard_normal((2,) * sum(valence))
    a = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
    k = transform_tensor(TensorValue(valence, comps), a, np.linalg.inv(a))
    ref = transform_by_loops(comps, valence, a, np.linalg.inv(a))
    assert_allclose(k.components, ref, rtol=1e-12, atol=1e-12)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_transform_composes(seed):
    """Transforming by A then B equals transforming by B @ A."""
    rng = np.random.default_rng(seed)
    comps = rng.standard_normal((2, 2))
    a = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
    b = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
    k = TensorValue((1, 1), comps)
    two_steps = transform_tensor(
        transform_tensor(k, a, np.linalg.inv(a)), b, np.linalg.inv(b)
    )
    one_step = transform_tensor(k, b @ a, np.linalg.inv(b @ a))
    assert_allclose(two_steps.components, one_step.components, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("valence", [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (2, 0), (2, 1)])
def test_transform_at_one_point_is_the_kernel_on_a_singleton_batch(valence):
    """One point runs the batch-last kernel with no batch axis, to the bits of
    the same point as a batch of one."""
    rng = np.random.default_rng(41 + 10 * valence[0] + valence[1])
    for dim in (1, 2, 3):
        comps = rng.standard_normal((dim,) * sum(valence))
        jac = rng.standard_normal((dim, dim)) + 2.0 * np.eye(dim)
        inv = np.linalg.inv(jac)
        got = transform_tensor(TensorValue(valence, comps), jac, inv).components
        want = _contract(comps[..., None], valence, jac[..., None], inv[..., None])[..., 0]
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_jacobian_consistency_measure():
    assert jacobian_consistency(np.diag([2.0, 4.0]), np.diag([0.5, 0.25])) == 0.0
    assert_allclose(jacobian_consistency(np.diag([2.0, 4.0]), np.diag([0.5, 0.5])), 1.0)


# ---------------------------------------------------------------------------
# atlases
# ---------------------------------------------------------------------------


def test_euclidean_atlas_single_global_chart():
    atlas = euclidean_atlas(3)
    assert len(atlas.charts) == 1
    p = np.array([0.3, -4.0, 12.0])
    ch = atlas.chart(0)
    assert np.array_equal(ch.to_coords(p), p)
    assert np.array_equal(ch.from_coords(p), p)
    assert locate_chart(atlas, p, 0) == 0


def test_torus_atlas_chart_count_and_radii():
    atlas = torus_atlas(2)
    assert len(atlas.charts) == 4
    for ch in atlas.charts:
        assert ch.hop_radius == pytest.approx(2 * ch.radius)
        assert ch.trust_radius == pytest.approx(3 * ch.radius)


@given(
    x=st.floats(-3.0, 3.0, allow_nan=False),
    y=st.floats(-3.0, 3.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_torus_every_point_is_covered(x, y):
    atlas = torus_atlas(2)
    p = np.array([x, y]) - np.floor(np.array([x, y]))
    cid = locate_chart(atlas, atlas.chart(0).to_coords(p), 0)
    assert 0 <= cid < 4
    # the abstract point survives the chart roundtrip modulo 1
    coords = atlas.chart(cid).to_coords(p)
    back = atlas.chart(cid).from_coords(coords)
    assert_allclose((back - p + 0.5) % 1.0, 0.5, atol=1e-12)


def test_torus_transition_preserves_abstract_point():
    atlas = torus_atlas(2)
    coords = np.array([0.3, 0.1])  # inside the overlap of charts 0 and 1
    out = transition(atlas, 0, 1, coords)
    p0 = atlas.chart(0).from_coords(coords)
    p1 = atlas.chart(1).from_coords(out)
    assert_allclose((p0 - p1 + 0.5) % 1.0, 0.5, atol=1e-12)
    jac = atlas.transition_between(0, 1).jacobian(coords)
    assert np.array_equal(jac, np.eye(2))


def test_locate_chart_prefers_lowest_id():
    atlas = torus_atlas(2)
    # the abstract point (0.25, 0) lies in the inner balls of charts 0
    # and 1; the lowest id wins no matter which chart asks
    assert locate_chart(atlas, np.array([0.25, 0.0]), 0) == 0
    assert locate_chart(atlas, np.array([-0.25, 0.0]), 1) == 0


def test_locate_chart_batch_marks_uncovered_points():
    ident = lambda q: np.asarray(q, dtype=float)
    tiny = ChartAtlas(
        "patch",
        (Chart(0, 1, np.zeros(1), 0.5, ident, ident),),
        {},
    )
    cids = locate_chart_batch(tiny, np.array([[0.1], [3.0]]), 0)
    assert cids.tolist() == [0, -1]
    with pytest.raises(NoCoveringChart):
        locate_chart(tiny, np.array([3.0]), 0)


def test_sphere_atlas_roundtrip_and_overlap():
    atlas = sphere_atlas()
    rng = np.random.default_rng(5)
    u = rng.uniform(-1.2, 1.2, size=(32, 2))
    p = atlas.chart(0).from_coords(u)
    assert_allclose(np.linalg.norm(p, axis=-1), 1.0, atol=1e-12)
    assert_allclose(atlas.chart(0).to_coords(p), u, atol=1e-10)
    # overlap points map to the same abstract point through either chart
    ring = u[np.linalg.norm(u, axis=-1) > 0.7]
    out = transition(atlas, 0, 1, ring)
    assert_allclose(
        atlas.chart(1).from_coords(out), atlas.chart(0).from_coords(ring), atol=1e-10
    )


def test_sphere_transition_is_inversion_with_matching_jacobian():
    atlas = sphere_atlas()
    u = np.array([0.8, -0.5])
    out = transition(atlas, 0, 1, u)
    assert_allclose(out, u / np.dot(u, u), rtol=1e-14)
    jac = atlas.transition_between(0, 1).jacobian(u)
    eps = 1e-6
    fd = np.empty((2, 2))
    for j in range(2):
        dv = np.zeros(2)
        dv[j] = eps
        fd[:, j] = (transition(atlas, 0, 1, u + dv) - transition(atlas, 0, 1, u - dv)) / (2 * eps)
    assert_allclose(jac, fd, atol=1e-8)


def test_transition_rejects_points_outside_trust_ball():
    atlas = sphere_atlas()
    with pytest.raises(OutsideOverlap):
        transition(atlas, 0, 1, np.array([6.0, 0.0]))
    with pytest.raises(OutsideOverlap):
        # near the chart-0 origin the image under inversion blows up
        transition(atlas, 0, 1, np.array([1e-3, 0.0]))


def test_transition_same_chart_returns_copy():
    atlas = sphere_atlas()
    u = np.array([0.4, 0.2])
    out = transition(atlas, 0, 0, u)
    assert np.array_equal(out, u)
    assert out is not u
