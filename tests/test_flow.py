"""Stochastic flows with variational Jacobians: schemes, hops, inverses."""

import numpy as np
import pytest
import sympy as sp
from numpy.testing import assert_allclose

from flowtensor import tensor_calculus
from flowtensor.fields import (
    gbm_vector_field,
    linear_vector_field,
    rotation_field_2d,
    sphere_rotation_fields,
    vector_field,
)
from flowtensor.flow import (
    FlowEnsemble,
    FlowSDE,
    SchemeSmoothnessMismatch,
    _backward_step,
    integrate_flow,
    integrate_flow_levels,
    inverse_flow_residual_ensemble,
    jacobian_fd_check,
    scheme_step,
    strat_to_ito_correction,
)
from flowtensor.geometry import (R_MAX, Chart, ChartAtlas, NoCoveringChart, Transition,
                                 _slot_replace, euclidean_atlas, locate_chart, sphere_atlas,
                                 torus_atlas)
from flowtensor.scenarios import get_scenario
from flowtensor.stochastics import DrivingPaths, TimeGrid, build_driving_paths, refine_dyadic
from flowtensor.tensor_calculus import (
    InsufficientSmoothness,
    TensorFieldSpec,
    VectorFieldSpec,
    coord_symbols,
)

X1D = coord_symbols(1)
X2D = coord_symbols(2)


def zero_drift(dim):
    return vector_field(dim, [sp.Integer(0)] * dim, name="rest")


def make_swirl_sde():
    b = vector_field(
        2, [sp.sin(X2D[0]) + X2D[1] / 2, sp.cos(X2D[1]) - X2D[0] / 3], name="swirl"
    )
    x1 = vector_field(2, [X2D[1] ** 2 / 8 + sp.Rational(1, 2), X2D[0] / 4], name="q1")
    x2 = vector_field(2, [sp.cos(X2D[0]) / 3, sp.sin(X2D[1]) / 2 + sp.Rational(1, 4)], name="q2")
    return FlowSDE(b, [x1, x2], euclidean_atlas(2))


def make_sphere_sde():
    gens = sphere_rotation_fields((0.9, 1.1, 0.7))
    rest = VectorFieldSpec(2, {0: [sp.Integer(0)] * 2, 1: [sp.Integer(0)] * 2}, 8, None, "rest2")
    return FlowSDE(rest, list(gens), sphere_atlas())


# ---------------------------------------------------------------------------
# construction and corrections
# ---------------------------------------------------------------------------


def test_sde_requires_coefficients_on_every_chart():
    b = vector_field(2, [sp.Integer(1), sp.Integer(0)], name="slide")
    with pytest.raises(ValueError, match="missing on chart"):
        FlowSDE(b, [], torus_atlas(2))


def test_available_k_tracks_coefficient_smoothness():
    b = vector_field(1, [X1D[0]], name="lin", smoothness_order=5)
    xi = vector_field(1, [X1D[0]], name="noise", smoothness_order=4)
    sde = FlowSDE(b, [xi], euclidean_atlas(1))
    assert sde.available_k() == 3
    assert sde.n_noise == 1


def test_correction_terms_linear_noise():
    # xi = x d/dx gives c_plus = c_minus = 1/2
    sde = FlowSDE(zero_drift(1), [gbm_vector_field(1.0)], euclidean_atlas(1))
    c = strat_to_ito_correction(sde, 0.0, np.array([1.7]))
    assert_allclose(c.c_plus, [[0.5]], atol=1e-14)
    assert_allclose(c.c_minus, [[0.5]], atol=1e-14)


def test_correction_terms_quadratic_noise():
    # xi = x^2/2 d/dx at x = 1: first and second derivative parts split
    xi = vector_field(1, [X1D[0] ** 2 / 2], name="quad")
    sde = FlowSDE(zero_drift(1), [xi], euclidean_atlas(1))
    c = strat_to_ito_correction(sde, 0.0, np.array([1.0]))
    assert_allclose(c.c_plus, [[0.75]], atol=1e-14)
    assert_allclose(c.c_minus, [[0.25]], atol=1e-14)


def _full_jets(q, batch):
    """The stacks of :meth:`FlowSDE.jets` broadcast to ``batch``: a constant
    stack comes with singleton batch axes."""
    return {k: np.broadcast_to(v, v.shape[:v.ndim - len(batch)] + batch) for k, v in q.items()}


def _ito_coefficients(q):
    """The Ito drift ``a`` and the correction matrices ``cp`` / ``cm`` from
    batch-last order-2 jets, by einsum over the noises."""
    xi, Dxi, D2xi = q["xi"], q["Dxi"], q["D2xi"]
    sq = np.einsum("jil...,jlk...->ik...", Dxi, Dxi)
    second = np.einsum("jl...,jilk...->ik...", xi, D2xi)
    return {"a": q["b"] + 0.5 * np.einsum("jil...,jl...->i...", Dxi, xi),
            "cp": 0.5 * (sq + second), "cm": 0.5 * (sq - second)}


@pytest.mark.parametrize("noise_order", [1, 2])
@pytest.mark.parametrize(
    "name, chart",
    [("kunita_sphere_rotation", 0), ("kunita_sphere_rotation", 1), ("kiw_ito_pullback_r2", 0)],
)
def test_fused_coefficients_match_field_jets_and_matmul_formulas(name, chart, noise_order):
    """One compiled call gives the per-field jets (each stack broadcast to the
    batch); from the order-2 jets the correction matrices and the Euler
    backward step's Ito drift are the matmul formulas'."""
    sde = get_scenario(name).sde
    rng = np.random.default_rng(5)
    pts = rng.uniform(-0.8, 0.8, (40, 2))
    t, h = 0.3, 0.01
    got = _full_jets(sde.jets(t, pts.T, chart, noise_order), (40,))
    b, Db = sde.drift.jet_batch(t, pts, chart, 1)
    jets = [xi.jet_batch(t, pts, chart, noise_order) for xi in sde.diffusions]
    want = {"b": b, "Db": Db}
    for m, nm in enumerate(("xi", "Dxi", "D2xi")[: noise_order + 1]):
        want[nm] = np.array([j[m] for j in jets])
    assert set(got) == set(want)
    for key, val in want.items():
        batch_axis = 1 if key in ("xi", "Dxi", "D2xi") else 0  # after the noise axis
        assert_allclose(np.moveaxis(got[key], -1, batch_axis), val, rtol=1e-13, err_msg=key)
    if noise_order == 2:
        ito = _ito_coefficients(got)
        c = strat_to_ito_correction(sde, t, pts, chart)
        assert_allclose(c.c_plus, np.moveaxis(ito["cp"], -1, 0), rtol=1e-13)
        assert_allclose(c.c_minus, np.moveaxis(ito["cm"], -1, 0), rtol=1e-13)
        db = rng.normal(0.0, np.sqrt(h), (sde.n_noise, 40))
        back = pts.T - ito["a"] * h
        for j in range(sde.n_noise):
            back -= got["xi"][j] * db[j]
            for l in range(sde.n_noise):
                back += np.einsum("il...,l...->i...", got["Dxi"][j], got["xi"][l]) * db[j] * db[l]
        assert_allclose(_backward_step(sde, "euler_maruyama", chart, t, t + h, h, pts.T, db),
                        back, rtol=1e-13)


@pytest.mark.parametrize("chart", [0, 1])
def test_constant_coefficient_stacks_are_held_once(chart):
    """The sphere's zero drift and the rotations' second partials are
    constant: ``b``, ``Db`` and ``D2xi`` come back with singleton batch axes
    and equal the fields' jets, while ``xi`` and ``Dxi`` take the batch."""
    sde = get_scenario("kunita_sphere_rotation").sde
    pts = np.random.default_rng(7).uniform(-0.8, 0.8, (2, 3, 5))
    t = 0.3
    q = sde.jets(t, pts, chart, 2)
    assert list(q) == ["b", "Db", "xi", "Dxi", "D2xi"]
    n, N = sde.dim, sde.n_noise
    assert q["b"].shape == (n, 1, 1) and q["Db"].shape == (n, n, 1, 1)
    assert q["D2xi"].shape == (N, n, n, n, 1, 1)
    assert q["xi"].shape == (N, n, 3, 5) and q["Dxi"].shape == (N, n, n, 3, 5)
    # the fields' jets, batch-first, at the 15 points
    flat = pts.reshape(n, -1).T
    b, Db = sde.drift.jet_batch(t, flat, chart, 1)
    D2xi = np.array([xi.jet_batch(t, flat, chart, 2)[2] for xi in sde.diffusions])
    for got, want in ((q["b"], b), (q["Db"], Db), (q["D2xi"], np.moveaxis(D2xi, 1, 0))):
        assert np.array_equal(np.broadcast_to(got[..., 0], got.shape[:-2] + (15,)),
                              np.moveaxis(want, 0, -1))


def test_fused_coefficients_bind_each_fields_own_parameters():
    """Two noise fields binding one parameter name to different values."""
    w = sp.Symbol("w", real=True)
    slow = vector_field(1, [w * X1D[0]], params={w: 0.5}, name="slow")
    fast = vector_field(1, [w * X1D[0]], params={w: 2.0}, name="fast")
    sde = FlowSDE(zero_drift(1), [slow, fast], euclidean_atlas(1))
    q = sde.jets(0.0, np.array([[1.5]]), 0, 2)
    assert_allclose(q["xi"][:, 0, 0], [0.75, 3.0], rtol=1e-15)
    assert_allclose(q["Dxi"][:, 0, 0, 0], [0.5, 2.0], rtol=1e-15)
    # c_plus = 1/2 sum_j w_j^2 for linear noise
    c = strat_to_ito_correction(sde, 0.0, np.array([1.5]))
    assert_allclose(c.c_plus[0, 0], 0.5 * (0.25 + 4.0), rtol=1e-15)


@pytest.mark.parametrize("scheme", ["euler_maruyama", "heun"])
def test_flow_makes_one_coefficient_call_per_chart_group_and_stage(
        monkeypatch, empty_program_cache, scheme):
    """No per-field jets: one generated step call per chart group, for either scheme.

    Heun's corrector is part of the same step program as its predictor,
    so it makes no call of its own; each chart has one program.  Calls
    are counted on the functions the program loader returns, so no
    counting wrapper reaches the program cache.
    """
    sde = make_sphere_sde()
    d = build_driving_paths(TimeGrid(1.0, 32), 3, 35, 16)
    load, calls = tensor_calculus._load, []

    def counting_load(*args):
        fn = load(*args)

        def counted(*a):
            calls.append(fn)
            return fn(*a)

        return counted

    def no_field_jets(*args, **kwargs):
        raise AssertionError("the flow read a per-field jet")

    monkeypatch.setattr(tensor_calculus, "_load", counting_load)
    monkeypatch.setattr(TensorFieldSpec, "jet_batch", no_field_jets)
    ens = integrate_flow(sde, d, np.array([0.9, 0.5]), scheme)
    assert np.all(ens.completed) and len(ens.hops) > 0
    groups = sum(np.unique(row).size for row in ens.charts[:-1])
    assert len(calls) == groups
    assert len(set(calls)) == np.unique(ens.charts[:-1]).size


def _numpy_step(sde, scheme, cid, t0, t1, h, u, J, Ji, db):
    """Reference step: the Euler and Heun updates in numpy, from the coefficient
    jets, the einsum Ito coefficients and the slot kernel."""

    def sweep(q, drift):
        du = q[drift] * h
        W = np.zeros_like(q["Db"])
        for xi_db, Dxi_db in zip(q["xi"] * db[:, None], q["Dxi"] * db[:, None, None]):
            du += xi_db
            W += Dxi_db
        return du, W

    if scheme == "euler_maruyama":
        q = _full_jets(sde.jets(t0, u, cid, 2), u.shape[1:])
        q.update(_ito_coefficients(q))
        du, W = sweep(q, "a")
        Jn = J + _slot_replace(J, (q["Db"] + q["cp"]) * h + W, 0, 2)
        Jin = None if Ji is None else Ji - _slot_replace(Ji, (q["Db"] - q["cm"]) * h + W, 1, 2,
                                                         transpose=True)
        return u + du, Jn, Jin
    q0 = _full_jets(sde.jets(t0, u, cid, 1), u.shape[1:])
    du0, W0 = sweep(q0, "b")
    M0 = q0["Db"] * h + W0
    q1 = _full_jets(sde.jets(t1, u + du0, cid, 1), u.shape[1:])
    du1, W1 = sweep(q1, "b")
    M1 = q1["Db"] * h + W1
    A0 = _slot_replace(J, M0, 0, 2)
    Jn = J + 0.5 * (A0 + _slot_replace(J + A0, M1, 0, 2))
    Jin = None
    if Ji is not None:
        B0 = _slot_replace(Ji, M0, 1, 2, transpose=True)
        Jin = Ji - 0.5 * (B0 + _slot_replace(Ji - B0, M1, 1, 2, transpose=True))
    return u + 0.5 * (du0 + du1), Jn, Jin


@pytest.mark.parametrize("seed", ["random", "identity"])
@pytest.mark.parametrize("with_inv", [True, False])
@pytest.mark.parametrize("scheme", ["euler_maruyama", "heun"])
@pytest.mark.parametrize(
    "name, chart",
    [("kunita_sphere_rotation", 0), ("kunita_sphere_rotation", 1), ("kiw_ito_pullback_r2", 0)],
)
def test_step_program_matches_the_numpy_reference(name, chart, scheme, with_inv, seed):
    """One compiled call gives the numpy updates' points, J and Jinv.

    The ``identity`` seed is the Newton loop's: a singleton batch axis on
    ``J = I`` that broadcasts against the points.
    """
    sde = get_scenario(name).sde
    rng = np.random.default_rng(11)
    m, n, h = 40, sde.dim, 0.01
    u = rng.uniform(-0.8, 0.8, (n, m))
    db = rng.normal(0.0, np.sqrt(h), (sde.n_noise, m))
    if seed == "identity":
        J = np.eye(n)[..., None]
        Ji = J if with_inv else None
    else:
        J = np.eye(n)[..., None] + rng.normal(0.0, 0.2, (n, n, m))
        Ji = np.eye(n)[..., None] + rng.normal(0.0, 0.2, (n, n, m)) if with_inv else None
    got = scheme_step(sde, scheme, chart, 0.3, 0.31, h, u, J, Ji, db)
    want = _numpy_step(sde, scheme, chart, 0.3, 0.31, h, u, J, Ji, db)
    for g, w, what in zip(got, want, ("u", "J", "Ji")):
        if w is None:
            assert g is None
        else:
            assert g.shape == w.shape == ((n, m) if what == "u" else (n, n, m))
            assert_allclose(g, w, rtol=1e-13, atol=0, err_msg=what)


@pytest.mark.parametrize("scheme", ["euler_maruyama", "heun"])
@pytest.mark.parametrize("order", [2, 3])
def test_step_map_jets_are_the_derivatives_of_the_step_points(scheme, order):
    """An order-r step gives the point and ``J`` rows of order 1 bitwise, and
    its stacks ``D^m f`` are the central differences of the stepped points
    (``D^1 f``, ``D^2 f``) and of the stacks one order lower."""
    sde = make_swirl_sde()
    rng = np.random.default_rng(3)
    n, m, eps = 2, 30, 1e-4
    u = rng.uniform(-0.8, 0.8, (n, m))
    db = rng.normal(0.0, 0.1, (sde.n_noise, m))
    J = np.eye(n)[..., None] + rng.normal(0.0, 0.2, (n, n, m))
    u1, J1, Ji1, *jets = scheme_step(sde, scheme, 0, 0.3, 0.31, 0.01, u, J, None, db, order)
    assert Ji1 is None and len(jets) == order
    base = scheme_step(sde, scheme, 0, 0.3, 0.31, 0.01, u, J, None, db)
    assert np.array_equal(u1, base[0]) and np.array_equal(J1, base[1])
    e = np.eye(n)[:, [0]], np.eye(n)[:, [1]]

    def diff(f):
        """Central differences of ``f`` at ``u``, direction last before the batch."""
        return np.stack([(f(u + eps * d) - f(u - eps * d)) / (2 * eps) for d in e], axis=-2)

    assert_allclose(jets[0], diff(lambda x: scheme_step(sde, scheme, 0, 0.3, 0.31, 0.01, x, J,
                                                        None, db)[0]), atol=1e-9)
    assert_allclose(jets[1], diff(lambda x: scheme_step(sde, scheme, 0, 0.3, 0.31, 0.01, x, J,
                                                        None, db, 2)[3]), atol=1e-9)
    if order == 3:
        assert_allclose(jets[2], diff(lambda x: scheme_step(sde, scheme, 0, 0.3, 0.31, 0.01, x,
                                                            J, None, db, 3)[4]), atol=1e-9)


@pytest.mark.parametrize("scheme", ["euler_maruyama", "heun"])
def test_affine_coefficients_give_vanishing_higher_step_jets(scheme):
    """With affine drift and noise the step map is affine: its higher jets are exactly 0."""
    X, Y = X2D
    noise = vector_field(2, [Y / 4 + sp.Rational(1, 2), -X / 3], name="affine_noise")
    sde = FlowSDE(linear_vector_field([[0.1, -0.4], [0.3, 0.2]]), [noise], euclidean_atlas(2))
    u = np.random.default_rng(0).uniform(-1.0, 1.0, (2, 5))
    _, _, _, _, D2f, D3f = scheme_step(sde, scheme, 0, 0.0, 0.1, 0.1, u, np.eye(2)[..., None],
                                       None, np.full((1, 5), 0.3), 3)
    assert not D2f.any() and not D3f.any()


def test_step_jets_need_the_derivatives_they_read():
    """Euler's order-3 step differentiates the noise four times, so a ``C^3``
    noise field is refused before anything is differentiated; Heun's takes
    it."""
    noise = vector_field(2, [X2D[1], X2D[0]], name="n").with_order(3)
    sde = FlowSDE(rotation_field_2d(), (noise,), euclidean_atlas(2))
    with pytest.raises(InsufficientSmoothness):
        sde._step_program(0, "euler_maruyama", False, 3)
    sde._step_program(0, "euler_maruyama", False, 2)
    sde._step_program(0, "heun", False, 3)
    with pytest.raises(InsufficientSmoothness):
        sde._step_program(0, "heun", False, 4)


def test_correction_terms_sum_over_noises():
    sde = FlowSDE(
        zero_drift(1), [gbm_vector_field(1.0), gbm_vector_field(1.0)], euclidean_atlas(1)
    )
    c = strat_to_ito_correction(sde, 0.0, np.array([0.4]))
    assert_allclose(c.c_plus, [[1.0]], atol=1e-14)


# ---------------------------------------------------------------------------
# exact and closed-form flows
# ---------------------------------------------------------------------------


def test_frozen_flow_is_bitwise_identity():
    sde = FlowSDE(zero_drift(2), [], euclidean_atlas(2))
    d = build_driving_paths(TimeGrid(1.0, 16), 0, 3, 4)
    x0 = np.array([0.7, -0.2])
    ens = integrate_flow(sde, d, x0, "euler_maruyama")
    assert np.all(ens.coords == x0)
    assert np.all(ens.jac == np.eye(2))
    assert np.all(ens.inv_jac == np.eye(2))
    assert ens.blowup_fraction() == 0.0


def test_gbm_flow_matches_lognormal_closed_form():
    """Driftless unit linear noise integrates to x * exp(B_t)."""
    sde = FlowSDE(zero_drift(1), [gbm_vector_field(1.0)], euclidean_atlas(1))
    g = TimeGrid(1.0, 4096)
    d = build_driving_paths(g, 1, 11, 16)
    ens = integrate_flow(sde, d, np.array([1.0]), "euler_maruyama")
    bT = d.bm[:, -1, 0]
    assert np.max(np.abs(ens.coords[-1][:, 0] - np.exp(bT))) < 0.1
    assert np.max(np.abs(ens.jac[-1][:, 0, 0] - np.exp(bT))) < 0.1
    assert np.max(np.abs(ens.inv_jac[-1][:, 0, 0] - np.exp(-bT))) < 0.12
    # the Jacobian pair drifts apart no faster than sqrt(h)
    assert ens.jac_consistency_max() < 10.0 * np.sqrt(g.h)


def test_gbm_with_ito_drift_shifts_exponent():
    # Stratonovich drift x/2 plus unit linear noise gives x exp(t/2 + B_t)
    b = linear_vector_field(np.array([[0.5]]), name="half")
    sde = FlowSDE(b, [gbm_vector_field(1.0)], euclidean_atlas(1))
    g = TimeGrid(1.0, 4096)
    d = build_driving_paths(g, 1, 13, 8)
    ens = integrate_flow(sde, d, np.array([1.0]), "euler_maruyama")
    want = np.exp(0.5 + d.bm[:, -1, 0])
    assert np.max(np.abs(ens.coords[-1][:, 0] - want)) < 0.15


def test_deterministic_rotation_first_order_euler_second_order_heun():
    sde = FlowSDE(rotation_field_2d(1.0), [], euclidean_atlas(2))
    x0 = np.array([1.0, 0.0])
    exact = np.array([np.cos(1.0), np.sin(1.0)])
    errs = {}
    for scheme in ("euler_maruyama", "heun"):
        e = []
        for steps in (32, 64):
            d = build_driving_paths(TimeGrid(1.0, steps), 0, 1, 1)
            ens = integrate_flow(sde, d, x0, scheme)
            e.append(np.linalg.norm(ens.coords[-1][0] - exact))
        errs[scheme] = e
    assert errs["euler_maruyama"][0] / errs["euler_maruyama"][1] == pytest.approx(2.0, rel=0.2)
    assert errs["heun"][0] / errs["heun"][1] == pytest.approx(4.0, rel=0.3)


def test_schemes_agree_on_additive_noise_in_law_free_way():
    # additive noise: both schemes use the same increments, Heun's
    # corrector changes nothing because the diffusion is constant
    xi = vector_field(1, [sp.Rational(1, 2)], name="flat")
    sde = FlowSDE(zero_drift(1), [xi], euclidean_atlas(1))
    d = build_driving_paths(TimeGrid(1.0, 32), 1, 8, 4)
    a = integrate_flow(sde, d, np.array([0.0]), "euler_maruyama")
    b = integrate_flow(sde, d, np.array([0.0]), "heun")
    assert_allclose(a.coords, b.coords, atol=1e-15)


# ---------------------------------------------------------------------------
# variational Jacobian checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["euler_maruyama", "heun"])
def test_jacobian_is_exact_tangent_of_discrete_map(scheme):
    sde = make_swirl_sde()
    g = TimeGrid(1.0, 16)
    d = build_driving_paths(g, 2, 21, 6)
    dev = jacobian_fd_check(sde, d, np.array([0.2, -0.1]), scheme)
    assert dev < 1e-8


def test_split_run_restart_is_bitwise():
    """Restarting from the midpoint state reproduces the tail exactly."""
    sde = make_swirl_sde()
    g = TimeGrid(1.0, 32)
    d = build_driving_paths(g, 2, 5, 8)
    full = integrate_flow(sde, d, np.array([0.2, -0.4]), "euler_maruyama")
    half = g.steps // 2
    tail = DrivingPaths(
        grid=TimeGrid(g.horizon / 2, half),
        seed=d.seed,
        level=d.level,
        path_ids=d.path_ids,
        bm=d.bm[:, half:, :],
        fv=d.fv[half:, :],
        mart=d.mart[:, half:, :],
        fv_specs=d.fv_specs,
        mart_specs=d.mart_specs,
    )
    x_mid = full.coords[half]
    for p in range(x_mid.shape[0]):
        restart = integrate_flow(sde, tail.slice_paths(p, p + 1), x_mid[p], "euler_maruyama")
        assert np.array_equal(restart.coords[:, 0, :], full.coords[half:, p, :])


def test_inverse_reconstruction_residual_decays():
    x = X1D[0]
    b = vector_field(1, [sp.sin(x)], name="sin_drift")
    xi = vector_field(1, [sp.Integer(1) + x**2 / 10], name="soft_quad")
    sde = FlowSDE(b, [xi], euclidean_atlas(1))
    rms = []
    for steps in (16, 64):
        d = build_driving_paths(TimeGrid(1.0, steps), 1, 77, 64)
        ens = integrate_flow(sde, d, np.array([0.3]), "euler_maruyama")
        res = inverse_flow_residual_ensemble(ens, sde, d)
        assert res.shape == (64, steps + 1)
        assert np.all(res[:, 0] == 0.0)
        rms.append(float(np.sqrt(np.mean(res[:, -1] ** 2))))
    # an O(sqrt(h)) bound allows a factor 2 per two dyadic levels; the
    # mirrored backward step does better than that in practice
    assert rms[1] < rms[0] / 2.0


def test_inverse_residual_per_path_matches_ensemble():
    """One path's residual is its one-path slice's, bitwise its row of the whole."""
    sde = make_swirl_sde()
    d = build_driving_paths(TimeGrid(1.0, 8), 2, 14, 3)
    ens = integrate_flow(sde, d, np.array([0.1, 0.2]), "euler_maruyama")
    whole = inverse_flow_residual_ensemble(ens, sde, d)
    for p in range(3):
        single = inverse_flow_residual_ensemble(ens.slice_paths(p, p + 1), sde,
                                                d.slice_paths(p, p + 1))
        assert single.shape == (1, 9)
        assert np.array_equal(single[0], whole[p])


def test_inverse_residual_leaves_the_flow_unchanged():
    """The wavefront works on a copy, for a whole flow and for a one-path
    slice, whose rows would reshape to a view of the flow."""
    sde = make_swirl_sde()
    d = build_driving_paths(TimeGrid(1.0, 8), 2, 14, 3)
    ens = integrate_flow(sde, d, np.array([0.1, 0.2]), "euler_maruyama")
    kept = ens.states.copy()
    inverse_flow_residual_ensemble(ens, sde, d)
    assert np.array_equal(ens.states, kept)
    inverse_flow_residual_ensemble(ens.slice_paths(1, 2), sde, d.slice_paths(1, 2))
    assert np.array_equal(ens.states, kept)


def test_inverse_reconstruction_rejects_multi_chart_atlases():
    sde = FlowSDE(
        sphere_rotation_fields((1.0, 0.0, 0.0))[0],
        [],
        sphere_atlas(),
    )
    d = build_driving_paths(TimeGrid(1.0, 8), 0, 1, 2)
    ens = integrate_flow(sde, d, np.array([0.1, 0.1]), "euler_maruyama")
    with pytest.raises(NotImplementedError):
        inverse_flow_residual_ensemble(ens, sde, d)


# ---------------------------------------------------------------------------
# chart hops
# ---------------------------------------------------------------------------


def test_torus_hop_bookkeeping_keeps_abstract_point():
    atlas = torus_atlas(2)
    comps = {ch.id: [sp.Rational(7, 10), sp.Rational(3, 10)] for ch in atlas.charts}
    b = VectorFieldSpec(2, comps, 8, None, "drift_const")
    sde = FlowSDE(b, [], atlas)
    d = build_driving_paths(TimeGrid(1.0, 32), 0, 9, 2)
    ens = integrate_flow(sde, d, np.array([0.0, 0.0]), "euler_maruyama")
    assert len(ens.hops) > 0
    step, pos, frm, to = ens.hops[0]
    assert frm != to
    assert ens.charts[step][pos] == to
    # the recorded state lives where the pre-hop motion put it, modulo 1
    p_abs = atlas.chart(to).from_coords(ens.coords[step][pos])
    drift_point = (step / 32.0) * np.array([0.7, 0.3]) % 1.0
    assert_allclose(p_abs, drift_point, atol=1e-12)
    # identity transitions leave the Jacobian of a constant drift alone
    assert np.all(ens.jac[-1] == np.eye(2))


def test_sphere_flow_hops_without_blowing_up():
    sde = make_sphere_sde()
    d = build_driving_paths(TimeGrid(1.0, 64), 3, 35, 32)
    ens = integrate_flow(sde, d, np.array([0.9, 0.5]), "euler_maruyama")
    assert ens.blowup_fraction() == 0.0
    assert len(ens.hops) > 0
    assert np.isfinite(ens.jac_consistency_max())
    # rotations preserve the sphere: unit vectors stay unit
    for k in (16, 48):
        cid = ens.charts[k][0]
        p = sde.atlas.chart(cid).from_coords(ens.coords[k][0])
        assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-9)


def test_each_start_row_begins_in_its_own_chart():
    """A batched row starts and runs as it does alone, bitwise."""
    sde = make_sphere_sde()
    d = build_driving_paths(TimeGrid(1.0, 16), 3, 35, 2)
    # row 1 lies outside chart 0's inner ball and is covered only by chart 1
    x0 = np.array([[0.9, 0.5], [2.5, 0.0]])
    both = integrate_flow(sde, d, x0)
    assert both.charts[0].tolist() == [0, 1]
    for p in range(2):
        alone = integrate_flow(sde, d.slice_paths(p, p + 1), x0[p])
        for field in ("charts", "coords", "jac", "inv_jac"):
            assert np.array_equal(getattr(both, field)[:, p], getattr(alone, field)[:, 0]), field
    with pytest.raises(NoCoveringChart):
        integrate_flow(sde, d, np.array([[0.9, 0.5], [np.nan, 0.0]]))


def test_zero_drift_needs_zero_component_on_south_chart():
    # a single-chart coefficient cannot drive a two-chart atlas
    with pytest.raises(ValueError, match="missing on chart"):
        FlowSDE(zero_drift(2), [], sphere_atlas())


# ---------------------------------------------------------------------------
# stopping and blow-up
# ---------------------------------------------------------------------------


def test_cubic_drift_blows_up_and_freezes_state():
    x = X1D[0]
    b = vector_field(1, [x**3], name="cubic")
    sde = FlowSDE(b, [gbm_vector_field(0.05)], euclidean_atlas(1))
    d = build_driving_paths(TimeGrid(1.0, 64), 1, 50, 8)
    ens = integrate_flow(sde, d, np.array([1.6]), "euler_maruyama")
    assert ens.blowup_fraction() == 1.0
    assert np.all(np.isfinite(ens.coords))
    one = ens.slice_paths(0, 1)
    assert not one.completed[0]
    stop = int(one.stop_step[0])
    assert 0 < stop < ens.grid.npoints
    # frozen at the last valid state from the stop on
    assert np.all(one.coords[stop:, 0] == one.coords[stop - 1, 0])


def test_tame_flow_reports_completed_status():
    sde = make_swirl_sde()
    d = build_driving_paths(TimeGrid(1.0, 8), 2, 1, 2)
    ens = integrate_flow(sde, d, np.array([0.0, 0.0]), "euler_maruyama")
    one = ens.slice_paths(0, 1)
    assert one.completed[0] and one.stop_step[0] == ens.grid.npoints
    assert np.all(ens.completed)


# ---------------------------------------------------------------------------
# scheme preconditions
# ---------------------------------------------------------------------------


def test_euler_needs_twice_differentiable_noise():
    rough = vector_field(1, [X1D[0]], name="rough", smoothness_order=1)
    sde = FlowSDE(zero_drift(1), [rough], euclidean_atlas(1))
    d = build_driving_paths(TimeGrid(1.0, 4), 1, 1, 1)
    with pytest.raises(SchemeSmoothnessMismatch):
        integrate_flow(sde, d, np.array([1.0]), "euler_maruyama")


def test_heun_reads_only_first_order_noise_jets():
    c1 = vector_field(1, [sp.sin(X1D[0]) / 2 + 1], name="c1_noise", smoothness_order=1)
    sde = FlowSDE(zero_drift(1), [c1], euclidean_atlas(1))
    d = build_driving_paths(TimeGrid(1.0, 8), 1, 3, 4)
    ens = integrate_flow(sde, d, np.array([0.2]), "heun")
    assert np.all(ens.completed)
    # c_plus needs the second derivative of the noise field
    with pytest.raises(InsufficientSmoothness):
        strat_to_ito_correction(sde, 0.0, np.array([0.2]))


def test_heun_requires_c1_time_dependence_of_noise():
    kinked = VectorFieldSpec(1, {0: [X1D[0]]}, 3, None, "kinked", time_c1=False)
    sde = FlowSDE(zero_drift(1), [kinked], euclidean_atlas(1))
    d = build_driving_paths(TimeGrid(1.0, 4), 1, 1, 1)
    with pytest.raises(SchemeSmoothnessMismatch):
        integrate_flow(sde, d, np.array([1.0]), "heun")
    # the Euler route has no such requirement
    integrate_flow(sde, d, np.array([1.0]), "euler_maruyama")


def test_noise_count_must_match_drivers():
    sde = FlowSDE(zero_drift(1), [gbm_vector_field(0.3)], euclidean_atlas(1))
    d = build_driving_paths(TimeGrid(1.0, 4), 2, 1, 1)
    with pytest.raises(ValueError, match="noise"):
        integrate_flow(sde, d, np.array([1.0]), "euler_maruyama")


def test_unknown_scheme_rejected():
    sde = FlowSDE(zero_drift(1), [], euclidean_atlas(1))
    d = build_driving_paths(TimeGrid(1.0, 4), 0, 1, 1)
    with pytest.raises(ValueError, match="scheme"):
        integrate_flow(sde, d, np.array([1.0]), "milstein")


# ---------------------------------------------------------------------------
# all refinement levels in one sweep
# ---------------------------------------------------------------------------


def _nested_drivers(grid, n_noise, seed, n_paths, levels=4):
    ds = [build_driving_paths(grid, n_noise, seed, n_paths)]
    while len(ds) < levels:
        ds.append(refine_dyadic(ds[-1]))
    return ds


def _time_dependent_sde():
    """Drift and noise that depend on time, so each level's own times enter."""
    t = tensor_calculus.TIME
    x, y = X2D
    b = vector_field(2, [sp.sin(3 * t) * y - x / 4, sp.cos(2 * t) * x + sp.exp(-t) / 5], name="bt")
    q1 = vector_field(2, [sp.cos(t) / 2 + y**2 / 8, sp.sin(t) * x / 3], name="q1t")
    q2 = vector_field(2, [sp.exp(t / 2) * x / 6, sp.Rational(1, 3) + t * sp.sin(y) / 4],
                      name="q2t")
    return FlowSDE(b, [q1, q2], euclidean_atlas(2))


def _assert_same_ensemble(got, want):
    assert got.grid == want.grid and got.scheme == want.scheme and got.atlas is want.atlas
    for field in ("path_ids", "charts", "states", "stop_step"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert np.array_equal(a, b), field


@pytest.mark.parametrize("case", ["kunita_sphere_rotation", "kiw_strat_pullback_r2",
                                  "blowup_cubic", "time_dependent_heun", "time_dependent_euler"])
def test_level_sweep_is_bitwise_each_level_alone(case):
    """Every level of the sweep equals its own integration, field by field."""
    if case.startswith("time_dependent"):
        sde, x0 = _time_dependent_sde(), np.array([0.3, -0.2])
        scheme = "heun" if case.endswith("heun") else "euler_maruyama"
        ds = _nested_drivers(TimeGrid(1.0, 8), sde.n_noise, 5, 7)
    else:
        sc = get_scenario(case)
        sde, x0, scheme = sc.sde, sc.x0, sc.scheme
        ds = _nested_drivers(sc.base_grid, sde.n_noise, sc.seed, 16)
    # the caller's order is kept, whatever it is
    shuffled = [ds[2], ds[0], ds[3], ds[1]]
    swept = integrate_flow_levels(sde, shuffled, x0, scheme)
    for d, got in zip(shuffled, swept):
        _assert_same_ensemble(got, integrate_flow(sde, d, x0, scheme))
    if case == "kunita_sphere_rotation":
        assert all(len(f.hops) > 0 for f in swept)
    if case == "blowup_cubic":
        assert all(not f.completed.all() for f in swept)


def _matmul_in_order(A, B):
    """``A @ B`` for ``(n, n)`` matrices, the sum over the inner index in index order."""
    out = A[:, :1] * B[:1]
    for l in range(1, A.shape[1]):
        out = out + A[:, l:l + 1] * B[l:l + 1]
    return out


def _reference_flow(sde, drivers, x0, scheme):
    """The flow of each path on its own, one step at a time.

    One :func:`scheme_step` call per path and step, with the blow-up test,
    the hop test against the chart's centre and hop radius, the chart
    change and the freeze after a stop written out per path.  Returns the
    flow and the hops it recorded as it made them, listed by step, then by
    the chart left, the chart entered and the path.
    """
    atlas, n, grid = sde.atlas, sde.dim, drivers.grid
    L, P, times = grid.steps, drivers.n_paths, grid.times()
    charts = np.empty((L + 1, P), dtype=np.uint8)
    states = np.empty((L + 1, n + 2 * n * n, P))
    stop_step = np.full(P, L + 1)
    hops = []
    x0 = np.broadcast_to(np.asarray(x0, dtype=float), (P, n))
    for p in range(P):
        cid = locate_chart(atlas, x0[p], 0)
        u = x0[p] if cid == 0 else atlas.transition_between(0, cid).apply(x0[p][None])[0]
        J = Ji = np.eye(n)
        for k in range(L + 1):
            charts[k, p], states[k, :, p] = cid, np.concatenate([u, J.ravel(), Ji.ravel()])
            if k == L or stop_step[p] <= L:
                continue
            db = drivers.bm[p, k + 1] - drivers.bm[p, k]
            un, Jn, Jin = (a[..., 0] for a in scheme_step(
                sde, scheme, cid, times[k], times[k + 1], grid.h, u[:, None], J[..., None],
                Ji[..., None], db[:, None]))
            stopped = not np.all(np.abs(un) <= R_MAX)
            ch = atlas.chart(cid)
            if not stopped and ch.dist(un[None])[0] > ch.hop_radius:
                try:
                    nid = locate_chart(atlas, un, cid)
                except NoCoveringChart:
                    stopped = True
                else:
                    if nid != cid:
                        fwd, rev = atlas.transition_between(cid, nid), atlas.transition_between(nid, cid)
                        new_u = fwd.apply(un[None])[0]
                        Jn = _matmul_in_order(fwd.jacobian(un[None])[0], Jn)
                        Jin = _matmul_in_order(Jin, rev.jacobian(new_u[None])[0])
                        hops.append((k + 1, p, cid, nid))
                        un, cid = new_u, nid
            if stopped:
                stop_step[p] = k + 1  # the state stays at step k from here on
            else:
                u, J, Ji = un, Jn, Jin
    flow = FlowEnsemble(grid=grid, atlas=atlas, scheme=scheme, path_ids=drivers.path_ids.copy(),
                        charts=charts, states=states, stop_step=stop_step)
    return flow, tuple(sorted(hops, key=lambda hop: (hop[0], hop[2], hop[3], hop[1])))


def _offset_discs_sde():
    """Two discs of the plane in its own coordinates, centred at (-1, 0) and
    (1, 0): charts whose centres differ in chart coordinates.  A fast drift
    hands paths from the left disc to the right one, and then out of both."""
    def ident(p):
        return np.asarray(p, dtype=float)

    def eye(u):
        return np.broadcast_to(np.eye(2), np.shape(u)[:-1] + (2, 2)).copy()

    same = Transition(apply=ident, jacobian=eye)
    atlas = ChartAtlas("offset_discs", tuple(
        Chart(i, 2, np.array([c, 0.0]), 0.8, ident, ident) for i, c in enumerate((-1.0, 1.0))),
        {(0, 1): same, (1, 0): same})
    x, y = X2D
    b = VectorFieldSpec(2, {i: [3 + y**2 / 4, -x / 5] for i in (0, 1)}, 8, None, "b")
    q = VectorFieldSpec(2, {i: [sp.Rational(1, 2) + x / 8, y / 4] for i in (0, 1)}, 8, None, "q")
    return FlowSDE(b, [q], atlas)


def _torus_sde():
    atlas = torus_atlas(2)
    x, y = X2D
    b = VectorFieldSpec(2, {ch.id: [sp.Rational(7, 10) + y**2 / 5, sp.Rational(3, 10) - x / 4]
                            for ch in atlas.charts}, 8, None, "b")
    q = VectorFieldSpec(2, {ch.id: [sp.Rational(1, 3) + x * y / 6, sp.Rational(3, 4)]
                            for ch in atlas.charts}, 8, None, "q")
    return FlowSDE(b, [q], atlas)


@pytest.mark.parametrize("case", ["kunita_sphere_rotation", "torus", "offset_discs",
                                  "blowup_cubic"])
def test_level_sweep_matches_a_plain_per_path_loop(case):
    """Every level of the sweep equals a per-path, per-step loop that does its
    own chart hops and stops: every field (chart ids one byte each), and the
    hops read off the chart ids are those the loop recorded, order included."""
    if case in ("torus", "offset_discs"):
        sde = _torus_sde() if case == "torus" else _offset_discs_sde()
        # torus paths start spread out, so that paths leave different charts at one step
        x0 = (np.stack([np.linspace(-0.3, 0.3, 10), np.linspace(0.3, -0.3, 10)], axis=1)
              if case == "torus" else np.array([-1.0, 0.1]))
        scheme, grid, seed = ("heun" if case == "torus" else "euler_maruyama"), TimeGrid(1.0, 16), 11
    else:
        sc = get_scenario(case)
        sde, x0, scheme, grid, seed = sc.sde, sc.x0, sc.scheme, sc.base_grid, sc.seed
    ds = _nested_drivers(grid, sde.n_noise, seed, 10, levels=3)
    swept = integrate_flow_levels(sde, ds, x0, scheme)
    for d, got in zip(ds, swept):
        assert got.charts.dtype == np.uint8
        want, hops = _reference_flow(sde, d, x0, scheme)
        _assert_same_ensemble(got, want)
        assert got.hops == hops
    if case != "blowup_cubic":
        assert all(len(f.hops) > 0 for f in swept)
    if case in ("offset_discs", "blowup_cubic"):
        assert all(not f.completed.all() for f in swept)


def test_level_sweep_rejects_levels_that_do_not_nest():
    sde = make_swirl_sde()
    x0 = np.array([0.1, 0.2])
    d4, d6 = (build_driving_paths(TimeGrid(1.0, L), 2, 3, 4) for L in (4, 6))
    with pytest.raises(ValueError, match="nested"):
        integrate_flow_levels(sde, [d4, d6], x0)
    with pytest.raises(ValueError, match="horizon"):
        integrate_flow_levels(sde, [d4, build_driving_paths(TimeGrid(2.0, 8), 2, 3, 4)], x0)
    with pytest.raises(ValueError, match="path ids"):
        integrate_flow_levels(sde, [d4, refine_dyadic(d4).slice_paths(1, 4)], x0)
    with pytest.raises(ValueError, match="noise"):
        integrate_flow_levels(sde, [d4, build_driving_paths(TimeGrid(1.0, 8), 1, 3, 4)], x0)
    with pytest.raises(ValueError, match="no levels"):
        integrate_flow_levels(sde, [], x0)
