"""Driving paths: counter-based sampling, refinement, discrete calculus."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from flowtensor.stochastics import (
    DrivingPaths,
    FvSpec,
    GridMismatch,
    MartSpec,
    RngStream,
    TimeGrid,
    build_driving_paths,
    covariation,
    fv_integral,
    ito_integral,
    refine_dyadic,
    sample_brownian,
    stratonovich_integral,
)


def test_time_grid_basics():
    g = TimeGrid(2.0, 8)
    assert g.h == pytest.approx(0.25)
    assert g.npoints == 9
    assert_allclose(g.times(), np.linspace(0.0, 2.0, 9))
    fine = g.refine()
    assert fine.steps == 16
    assert fine.horizon == g.horizon


@pytest.mark.parametrize("horizon,steps", [
    (1.0, 0), (0.0, 4), (-1.0, 4), (float("nan"), 4), (float("inf"), 4),
])
def test_time_grid_rejects_bad_grids(horizon, steps):
    with pytest.raises(ValueError, match="bad grid"):
        TimeGrid(horizon, steps)


def test_rng_stream_is_reproducible_and_keyed():
    a = RngStream(7, 3).normals("bm", 0, 0, 16)
    b = RngStream(7, 3).normals("bm", 0, 0, 16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, RngStream(7, 4).normals("bm", 0, 0, 16))
    assert not np.array_equal(a, RngStream(8, 3).normals("bm", 0, 0, 16))
    assert not np.array_equal(a, RngStream(7, 3).normals("bm", 1, 0, 16))
    assert not np.array_equal(a, RngStream(7, 3).normals("bm", 0, 1, 16))
    assert not np.array_equal(a, RngStream(7, 3).normals("bm_mid", 0, 0, 16))


@pytest.mark.parametrize(
    "seed, path_index, kind, component, level",
    [(0, 0, "bm", 0, 0), (7, 3, "bm", 2, 0), (2024, 99, "bm_mid", 1, 3),
     (2**64 - 1, 2**64 - 1, "aux", 2**20 - 1, 2**20 - 1), (5, 11, "bm_mid", 0, 1)],
)
def test_rng_stream_is_bitwise_a_fresh_philox(seed, path_index, kind, component, level):
    """A reused generator, reset per stream, draws what a new Philox would."""
    tag = {"bm": 1, "bm_mid": 2, "aux": 3}[kind]
    fresh = np.random.Generator(np.random.Philox(
        counter=np.array([0, (tag << 40) | (component << 20) | level, 0, 0], dtype=np.uint64),
        key=np.array([seed, path_index], dtype=np.uint64),
    )).standard_normal(37)
    stream = RngStream(seed, path_index)
    assert np.array_equal(stream.normals(kind, component, level, 37), fresh)
    # one generator shared across streams, left mid-buffer by an odd-sized draw
    gen = np.random.Generator(np.random.Philox(key=0))
    RngStream(1, 2).normals("bm", 0, 0, 3, gen)
    gen.random(1)
    assert np.array_equal(stream.normals(kind, component, level, 37, gen), fresh)


@pytest.mark.parametrize("seed, path_index", [(-1, 0), (2**64, 0), (0, -3), (1, 2**64)])
def test_rng_stream_rejects_out_of_range_words(seed, path_index):
    with pytest.raises(ValueError, match="2\\*\\*64"):
        RngStream(seed, path_index)


def test_brownian_path_starts_at_zero_with_h_scaling():
    g = TimeGrid(1.0, 4096)
    b = sample_brownian(g, 2, RngStream(1, 0))
    assert np.array_equal(b[0], np.zeros(2))
    inc = np.diff(b, axis=0)
    assert_allclose(np.var(inc, axis=0), g.h, rtol=0.1)


def test_build_driving_paths_is_deterministic():
    g = TimeGrid(1.0, 32)
    a = build_driving_paths(g, 2, 99, 8)
    b = build_driving_paths(g, 2, 99, 8)
    assert np.array_equal(a.bm, b.bm)


def test_slicing_matches_direct_path_id_build():
    """Path p gets the same draws however the ensemble around it is split."""
    g = TimeGrid(1.0, 16)
    full = build_driving_paths(g, 1, 5, 8)
    part = build_driving_paths(g, 1, 5, 3, path_ids=np.array([2, 3, 4]))
    assert np.array_equal(full.bm[2:5], part.bm)
    assert np.array_equal(full.slice_paths(2, 5).bm, part.bm)


def test_refine_keeps_coarse_brownian_values_bitwise():
    g = TimeGrid(1.0, 16)
    coarse = build_driving_paths(g, 2, 31, 6)
    fine = refine_dyadic(coarse)
    assert fine.grid.steps == 32
    assert fine.level == coarse.level + 1
    assert np.array_equal(fine.bm[:, ::2, :], coarse.bm)
    twice = refine_dyadic(fine)
    assert np.array_equal(twice.bm[:, ::4, :], coarse.bm)


def test_refine_midpoints_are_bridge_draws():
    g = TimeGrid(1.0, 64)
    coarse = build_driving_paths(g, 1, 12, 400)
    fine = refine_dyadic(coarse)
    mids = fine.bm[:, 1::2, 0]
    brackets = 0.5 * (coarse.bm[:, :-1, 0] + coarse.bm[:, 1:, 0])
    dev = mids - brackets
    sd = np.sqrt(g.h / 4.0)
    assert abs(np.mean(dev)) < 4 * sd / np.sqrt(dev.size)
    assert_allclose(np.std(dev), sd, rtol=0.05)


def test_refine_commutes_with_slicing():
    g = TimeGrid(1.0, 8)
    paths = build_driving_paths(g, 1, 3, 6)
    a = refine_dyadic(paths).slice_paths(1, 4)
    b = refine_dyadic(paths.slice_paths(1, 4))
    assert np.array_equal(a.bm, b.bm)
    assert np.array_equal(a.path_ids, b.path_ids)


def test_refine_rebuilds_fv_and_bm_alias_martingales():
    g = TimeGrid(1.0, 8)
    fv = (FvSpec("ramp", lambda t: t**2),)
    mart = (MartSpec("noise", "bm", component=0),)
    coarse = build_driving_paths(g, 1, 17, 4, fv_specs=fv, mart_specs=mart)
    fine = refine_dyadic(coarse)
    assert_allclose(fine.fv[:, 0], fine.grid.times() ** 2, atol=1e-15)
    assert np.array_equal(fine.mart[:, ::2, 0], coarse.mart[:, :, 0])
    assert np.array_equal(fine.mart[:, :, 0], fine.bm[:, :, 0])


# ---------------------------------------------------------------------------
# discrete stochastic calculus
# ---------------------------------------------------------------------------


@given(seed=st.integers(0, 2**31 - 1), steps=st.sampled_from([4, 16, 64]))
@settings(max_examples=50, deadline=None)
def test_strat_minus_ito_is_half_covariation(seed, steps):
    """The conversion identity holds pathwise at machine precision."""
    rng = np.random.default_rng(seed)
    f = np.cumsum(rng.standard_normal((3, steps + 1)), axis=-1)
    x = np.cumsum(rng.standard_normal((3, steps + 1)), axis=-1)
    gap = stratonovich_integral(f, x) - ito_integral(f, x) - 0.5 * covariation(f, x)
    assert np.max(np.abs(gap)) < 1e-12 * max(1.0, np.max(np.abs(f)) * np.max(np.abs(x)))


def test_ito_b_db_closed_form():
    # left sums telescope: int B dB = (B^2 - [B, B]) / 2 exactly
    g = TimeGrid(1.0, 128)
    b = build_driving_paths(g, 1, 23, 32).bm[:, :, 0]
    got = ito_integral(b, b)
    want = 0.5 * (b**2 - b[:, :1] ** 2 - covariation(b, b))
    assert_allclose(got, want, atol=1e-14)


def test_strat_b_db_closed_form():
    # trapezoid sums telescope: int B o dB = B^2 / 2 exactly
    g = TimeGrid(1.0, 128)
    b = build_driving_paths(g, 1, 24, 32).bm[:, :, 0]
    got = stratonovich_integral(b, b)
    assert_allclose(got, 0.5 * b**2, atol=1e-14)


def test_fv_integral_left_sums():
    t = np.linspace(0.0, 1.0, 5)
    got = fv_integral(t, t)
    # left Riemann sums of s ds on a uniform grid
    want = np.array([0.0, 0.0, 0.25 * 0.25, (0.25 + 0.5) * 0.25, (0.25 + 0.5 + 0.75) * 0.25])
    assert_allclose(got, want, atol=1e-15)


def test_quadratic_variation_concentrates():
    g = TimeGrid(1.0, 64)
    b = build_driving_paths(g, 1, 40, 4000).bm[:, :, 0]
    qv = covariation(b, b)[:, -1]
    rms_err = np.sqrt(np.mean((qv - g.horizon) ** 2))
    assert rms_err < 3.0 * np.sqrt(2.0 * g.h * g.horizon)


INTEGRALS = [ito_integral, stratonovich_integral, fv_integral, covariation]


@pytest.mark.parametrize("integrand,integrator,axis", [
    ((2, 5), (2, 6), -1),  # path-major, another grid
    ((3, 5, 4), (6, 4), -2),  # batch-last, another grid
    ((3, 5, 4), (5,), -2),  # batch-last, no path axis to align with
], ids=["path-major length", "batch-last length", "batch-last axes"])
def test_integrals_reject_mismatched_grids(integrand, integrator, axis):
    for integral in INTEGRALS:
        with pytest.raises(GridMismatch):
            integral(np.zeros(integrand), np.zeros(integrator), axis=axis)


@pytest.mark.parametrize("integral", INTEGRALS)
@pytest.mark.parametrize("width", ["P", "1"])
def test_batch_last_integrals_are_the_path_major_ones(integral, width):
    """Each component of a ``comps + (npoints, P)`` integrand, integrated at
    axis -2 against an ``(npoints, P)`` or ``(npoints, 1)`` integrator, is
    bitwise the transposed path-major ``(P, npoints)`` result."""
    rng = np.random.default_rng(11)
    comps, npoints, P = (2, 3), 9, 4
    f = rng.standard_normal(comps + (npoints, P))
    X = np.cumsum(rng.standard_normal((npoints, P if width == "P" else 1)), axis=0)
    got = integral(f, X, axis=-2)
    assert got.shape == f.shape
    for c in np.ndindex(*comps):
        assert np.array_equal(got[c], integral(f[c].T, X.T, axis=-1).T), c


# ---------------------------------------------------------------------------
# martingale brackets
# ---------------------------------------------------------------------------


def test_bm_alias_bracket_closed_form_is_time():
    g = TimeGrid(2.0, 16)
    mart = (MartSpec("m", "bm", component=1),)
    d = build_driving_paths(g, 2, 6, 4, mart_specs=mart)
    br = d.bracket_with_bm(0, 1, "closed_form")
    assert_allclose(br, np.broadcast_to(g.times(), br.shape), atol=1e-15)
    # against an independent component the bracket vanishes
    assert np.array_equal(d.bracket_with_bm(0, 0, "closed_form"), np.zeros_like(br))


def test_sigma_int_bracket_uses_antiderivative():
    g = TimeGrid(1.0, 32)
    mart = (
        MartSpec(
            "ramped",
            "sigma_int",
            component=0,
            sigma=lambda t: t,
            sigma_antideriv=lambda t: t**2 / 2.0,
        ),
    )
    d = build_driving_paths(g, 1, 9, 64, mart_specs=mart)
    closed = d.bracket_with_bm(0, 0, "closed_form")
    assert_allclose(closed, np.broadcast_to(g.times() ** 2 / 2.0, closed.shape), atol=1e-15)
    realized = d.bracket_with_bm(0, 0, "realized")
    # realised brackets fluctuate around the closed form at O(sqrt(h))
    assert np.sqrt(np.mean((realized[:, -1] - closed[:, -1]) ** 2)) < 0.2


def test_zero_martingale_contributes_nothing():
    g = TimeGrid(1.0, 8)
    d = build_driving_paths(g, 1, 2, 3, mart_specs=(MartSpec("off", "zero"),))
    assert np.array_equal(d.mart[:, :, 0], np.zeros((3, 9)))
    assert np.array_equal(d.bracket_with_bm(0, 0, "closed_form"), np.zeros((3, 9)))
