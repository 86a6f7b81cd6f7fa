"""Symbolic tensor fields, Lie derivatives and transport contractions."""

import os
import string
import subprocess
import sys
from itertools import product

import numpy as np
import pytest
import sympy as sp
from numpy.testing import assert_allclose

from flowtensor.fields import (
    coordinate_one_form,
    euclidean_metric,
    gbm_vector_field,
    linear_vector_field,
    random_tensor_field,
    random_vector_field,
    rotation_field_2d,
    scalar_field,
    sphere_rotation_fields,
    sphere_round_metric,
    tensor_field,
    vector_field,
)
from flowtensor.geometry import JacobianData, TensorValue
from flowtensor.tensor_calculus import (
    InsufficientSmoothness,
    TensorFieldSpec,
    ValenceMismatch,
    coord_symbols,
    fd_jets_from_stencil,
    lie_derivative,
    lie_derivative_fd_oracle,
    lie_jet,
    pair,
    pair_batch,
    pullback,
    pullback_batch,
    pushforward,
    pushforward_batch,
    stencil_offsets,
)
from flowtensor import scenarios, tensor_calculus
from flowtensor.kiw_verifier import convergence_study
from flowtensor.scenarios import get_scenario
from flowtensor.tensor_calculus import TIME, _contract, _jet_layout, _lie_jet, _slot_replace

X0, X1 = coord_symbols(2)


# ---------------------------------------------------------------------------
# field evaluation and jets
# ---------------------------------------------------------------------------


def test_eval_batch_polynomial_values():
    f = scalar_field(2, X0**2 + 3 * X1, name="quad")
    pts = np.array([[1.0, 2.0], [0.5, -1.0]])
    assert_allclose(f.eval_batch(0.0, pts, 0), [7.0, -2.75])


def test_jet_batch_matches_hand_derivatives():
    f = scalar_field(2, X0**2 * X1, name="cubic")
    pts = np.array([[1.5, -2.0]])
    val, d1, d2 = f.jet_batch(0.0, pts, 0, 2)
    assert_allclose(val, [1.5**2 * -2.0])
    assert_allclose(d1[0], [2 * 1.5 * -2.0, 1.5**2])
    assert_allclose(d2[0], [[2 * -2.0, 2 * 1.5], [2 * 1.5, 0.0]])


def test_jet_batch_evaluates_each_distinct_partial_once(monkeypatch):
    f = random_tensor_field((1, 1), 2, np.random.default_rng(5), kind="trig", scale=0.6)
    calls = []
    original = TensorFieldSpec._eval_flat

    def counting(self, t, coords, chart, alphas):
        calls.append(alphas)
        return original(self, t, coords, chart, alphas)

    monkeypatch.setattr(TensorFieldSpec, "_eval_flat", counting)
    pts = np.random.default_rng(6).uniform(-0.7, 0.7, size=(5, 2))
    _, d1, d2 = f.jet_batch(0.0, pts, 0, 2)
    # one compiled call: the value, two first partials and the three
    # distinct second partials
    assert len(calls) == 1
    assert len(calls[0]) == 6
    assert len(set(calls[0])) == 6
    assert np.array_equal(d2, np.swapaxes(d2, -1, -2))
    assert_allclose(d2[..., 0, 1], f.partial_batch(0.0, pts, 0, (1, 1)), rtol=0, atol=0)


def test_jet_order_capped_by_smoothness():
    f = scalar_field(2, X0 * X1, name="low", smoothness_order=1)
    with pytest.raises(InsufficientSmoothness):
        f.jet_batch(0.0, np.zeros((1, 2)), 0, 2)


def test_with_order_only_lowers():
    f = scalar_field(2, X0, name="s")
    g = f.with_order(3)
    assert g.smoothness_order == 3
    with pytest.raises(InsufficientSmoothness):
        g.with_order(5)


def test_unbound_symbols_rejected():
    rogue = sp.Symbol("amp", real=True)
    with pytest.raises(ValueError, match="unbound symbols"):
        scalar_field(2, rogue * X0, name="bad")
    # binding the symbol as a parameter makes the same expression legal
    ok = scalar_field(2, rogue * X0, params={rogue: 2.0}, name="good")
    assert_allclose(ok.eval_batch(0.0, np.array([[3.0, 0.0]]), 0), [6.0])


def test_missing_chart_components_raise():
    f = scalar_field(2, X0, name="s")
    with pytest.raises(KeyError):
        f.eval_batch(0.0, np.zeros((1, 2)), 7)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize(
    "name, field, chart",
    [("kunita_sphere_rotation", "K0", 0), ("kunita_sphere_rotation", "K0", 1),
     ("kiw_ito_pullback_r2", "K0", 0), ("kiw_ito_pullback_r2", "G0", 0)],
)
def test_jet_values_are_bitwise_eval_batch_and_derivatives_match_a_plain_compile(
        name, field, chart, order):
    """A jet shares subexpressions across its derivative rows only.

    Its value rows print as eval_batch's do, so they agree bitwise; the
    derivative rows agree to round-off with a compile that shares nothing,
    to 1e-13 of the jet's magnitude (an entry that cancels to 1e-3 of it
    keeps fewer relative digits).
    """
    sc = get_scenario(name)
    f = sc.K0 if field == "K0" else sc.G[0]
    pts = np.random.default_rng(7).uniform(-0.8, 0.8, (50, f.dim))
    t = 0.4
    jets = f.jet_batch(t, pts, chart, order)
    assert np.array_equal(jets[0], f.eval_batch(t, pts, chart))
    alphas, _ = _jet_layout(f.dim, order, int(np.prod(f.shape)))
    plain = tensor_calculus._compiled(
        f._exprs(chart, alphas), (TIME,) + coord_symbols(f.dim) + tuple(s for s, _ in f.params)
    )
    want = np.array(np.broadcast_arrays(*plain(t, *pts.T, *(v for _, v in f.params)))).T
    got = f._eval_flat(t, pts.T, chart, alphas).T  # batch-last in and out
    assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


def _plain_partial(e, alpha):
    """``d^alpha e`` by ``sp.diff`` of the component as given."""
    for k, m in enumerate(alpha):
        if m:
            e = sp.diff(e, coord_symbols(len(alpha))[k], m)
    return e


@pytest.mark.parametrize("chart", [0, 1])
def test_factored_sphere_metric_partials_match_the_unfactored_component(chart):
    """Both sphere-metric charts differentiate in factored form, to the same values."""
    f = get_scenario("kunita_sphere_rotation").K0
    e = f.comps[chart][0, 0]
    assert tensor_calculus._diff_form(e, 2) != e
    rng = np.random.default_rng(3)
    radius = 1.5 * np.sqrt(rng.uniform(0.0, 1.0, 64))  # the charts' inner ball
    angle = rng.uniform(0.0, 2.0 * np.pi, 64)
    pts = (radius * np.cos(angle), radius * np.sin(angle))
    alphas, _ = _jet_layout(2, 2, 1)
    for alpha in alphas:
        got = sp.lambdify((X0, X1), tensor_calculus._partial(e, alpha), modules=np)(*pts)
        want = sp.lambdify((X0, X1), _plain_partial(e, alpha), modules=np)(*pts)
        assert_allclose(np.broadcast_to(got, (64,)), np.broadcast_to(want, (64,)), rtol=1e-12,
                        err_msg=str(alpha))


def test_quotient_whose_factored_form_is_larger_is_differentiated_as_given():
    """``sin(x0) + 1/(x0**2+1)`` factors to 9 ops from 5, so it is kept as given."""
    (x,) = coord_symbols(1)
    e = sp.sin(x) + 1 / (x**2 + 1)
    assert tensor_calculus._diff_form(e, 1) is e
    assert tensor_calculus._partial(e, (0,)) is e
    for m in (1, 2):
        assert sp.srepr(tensor_calculus._partial(e, (m,))) == sp.srepr(sp.diff(e, x, m))


def test_pullback_field_partials_are_plain_diffs():
    """No component of ``kiw_ito_pullback_r2`` divides by the coordinates."""
    sc = get_scenario("kiw_ito_pullback_r2")
    alphas, _ = _jet_layout(sc.K0.dim, 2, 1)
    for f in (sc.K0, *sc.G, sc.sde.drift, *sc.sde.diffusions):
        arr = f.comps[0]
        for idx in np.ndindex(arr.shape):
            for alpha in alphas:
                assert sp.srepr(tensor_calculus._partial(arr[idx], alpha)) == sp.srepr(
                    _plain_partial(arr[idx], alpha)), (f.name, idx, alpha)


def test_sphere_setup_study_factors_each_quotient_component_once(monkeypatch):
    """The north and south metric components are the only quotients: 2 factorisations."""
    calls = []
    factor = sp.factor
    monkeypatch.setattr(sp, "factor", lambda e, *a, **k: calls.append(e) or factor(e, *a, **k))
    monkeypatch.setattr(scenarios, "_CACHE", {})  # fields that hold no evaluators yet
    tensor_calculus._partial.cache_clear()
    tensor_calculus._diff_form.cache_clear()
    convergence_study(get_scenario("kunita_sphere_rotation"), levels=1, n_paths=4)
    assert len(calls) == 2
    assert len(set(calls)) == 2


def test_building_an_evaluator_does_not_import_numpy_f2py():
    """Evaluators compile against the numpy module, not numpy's star-import namespace."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from flowtensor.fields import scalar_field\n"
        "from flowtensor.tensor_calculus import coord_symbols\n"
        "x, y = coord_symbols(2)\n"
        "f = scalar_field(2, x**2 * y + x, name='f')\n"
        "f.jet_batch(0.0, np.zeros((3, 2)), 0, 2)\n"
        "assert 'numpy.f2py' not in sys.modules, 'numpy.f2py was imported'\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(tensor_calculus.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


# ---------------------------------------------------------------------------
# Lie derivative, symbolic route
# ---------------------------------------------------------------------------


def test_lie_derivative_one_form_on_line():
    # L_{x d/dx} dx = dx and L_{x d/dx} (x dx) = 2 x dx
    x = coord_symbols(1)[0]
    X = vector_field(1, [x], name="euler")
    dx = coordinate_one_form(1, 0)
    xdx = tensor_field((0, 1), 1, [x], name="x_dx")
    pt = np.array([1.7])
    assert_allclose(lie_derivative(dx, X).eval(0.0, pt).components, [1.0])
    assert_allclose(lie_derivative(xdx, X).eval(0.0, pt).components, [2 * 1.7])


def test_lie_derivative_vector_picks_up_commutator_sign():
    x = coord_symbols(1)[0]
    X = vector_field(1, [x], name="euler")
    ddx = tensor_field((1, 0), 1, [sp.Integer(1)], name="ddx")
    assert_allclose(lie_derivative(ddx, X).eval(0.0, np.array([0.3])).components, [-1.0])


def test_lie_derivative_rotation_preserves_euclidean_metric():
    g = euclidean_metric(2)
    rot = rotation_field_2d(1.3)
    lg = lie_derivative(g, rot)
    pts = np.random.default_rng(3).uniform(-2, 2, size=(16, 2))
    assert_allclose(lg.eval_batch(0.0, pts, 0), 0.0, atol=1e-14)


def test_lie_derivative_rotations_preserve_round_metric():
    """All three rotation generators are Killing fields of the round metric."""
    g = sphere_round_metric()
    for gen in sphere_rotation_fields((1.0, 1.0, 1.0)):
        lg = lie_derivative(g, gen)
        for chart in (0, 1):
            pts = np.random.default_rng(11).uniform(-1.2, 1.2, size=(8, 2))
            assert_allclose(lg.eval_batch(0.0, pts, chart), 0.0, atol=1e-12)


def test_lie_derivative_scaling_of_metric():
    # L_{x0 d0 + x1 d1} g = 2 g for the flat metric
    g = euclidean_metric(2)
    dil = linear_vector_field(np.eye(2), name="dilation")
    lg = lie_derivative(g, dil)
    out = lg.eval(0.0, np.array([0.4, -0.9]))
    assert_allclose(out.components, 2 * np.eye(2), atol=1e-14)


def test_lie_derivative_shape_and_smoothness_bookkeeping():
    K = random_tensor_field((1, 1), 2, np.random.default_rng(0), smoothness_order=4)
    X = random_vector_field(2, np.random.default_rng(1), smoothness_order=6)
    L = lie_derivative(K, X)
    assert L.valence == (1, 1)
    assert L.smoothness_order == 3
    with pytest.raises(ValenceMismatch):
        lie_derivative(K, K)


def test_lie_derivative_requires_c1():
    K = scalar_field(2, X0, name="s", smoothness_order=0)
    X = vector_field(2, [X1, -X0], name="r")
    with pytest.raises(InsufficientSmoothness):
        lie_derivative(K, X)


def test_lie_derivative_against_fd_oracle_smoke():
    rng = np.random.default_rng(8)
    K = random_tensor_field((0, 2), 2, rng, kind="trig", scale=0.5)
    X = random_vector_field(2, rng, kind="poly", scale=0.5)
    L = lie_derivative(K, X)
    for pt in rng.uniform(-0.5, 0.5, size=(4, 2)):
        sym = L.eval(0.0, pt).components
        fd = lie_derivative_fd_oracle(K, X, 0.0, pt).components
        assert_allclose(sym, fd, atol=1e-7, rtol=1e-7)


# ---------------------------------------------------------------------------
# jets-only Lie derivative (no symbolic differentiation)
# ---------------------------------------------------------------------------


def test_lie_jet_matches_symbolic_route():
    rng = np.random.default_rng(21)
    K = random_tensor_field((1, 1), 2, rng, scale=0.7)
    X = random_vector_field(2, rng, scale=0.7)
    pts = rng.uniform(-0.8, 0.8, size=(32, 2))
    t_jets = K.jet_batch(0.0, pts, 0, 1)
    x_jets = X.jet_batch(0.0, pts, 0, 1)
    got = lie_jet(t_jets, x_jets, (1, 1))[0]
    want = lie_derivative(K, X).eval_batch(0.0, pts, 0)
    assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_lie_jet_first_derivative_consistency():
    """Jet output order 1 equals the derivative of the symbolic Lie field."""
    rng = np.random.default_rng(22)
    K = random_tensor_field((0, 1), 2, rng, scale=0.5)
    X = random_vector_field(2, rng, scale=0.5)
    pts = rng.uniform(-0.5, 0.5, size=(8, 2))
    got = lie_jet(K.jet_batch(0.0, pts, 0, 2), X.jet_batch(0.0, pts, 0, 2), (0, 1), 1)[1]
    want = lie_derivative(K, X).jet_batch(0.0, pts, 0, 1)[1]
    assert_allclose(got, want, rtol=1e-11, atol=1e-11)


def test_lie_jet_from_fd_stencil():
    rng = np.random.default_rng(23)
    K = random_tensor_field((0, 1), 2, rng, kind="trig", scale=0.5)
    X = random_vector_field(2, rng, kind="trig", scale=0.5)
    pts = rng.uniform(-0.4, 0.4, size=(6, 2))
    eps = 1e-4
    lattice = pts[:, None, :] + eps * stencil_offsets(2)[None, :, :]
    flat = lattice.reshape(-1, 2)
    # batch-last stencil values: components, points, stencil
    kv = np.moveaxis(K.eval_batch(0.0, flat, 0).reshape(6, 9, 2), -1, 0)
    xv = np.moveaxis(X.eval_batch(0.0, flat, 0).reshape(6, 9, 2), -1, 0)
    t_jets = fd_jets_from_stencil(kv, 2, eps, order=1, ncomp_axes=1)
    x_jets = fd_jets_from_stencil(xv, 2, eps, order=1, ncomp_axes=1)
    got = _lie_jet(t_jets, x_jets, (0, 1))[0]
    want = lie_derivative(K, X).eval_batch(0.0, pts, 0).T
    assert_allclose(got, want, atol=1e-7)


def test_fd_jets_are_batch_last_and_pointwise():
    """Two batch axes and a (1, 1) field give per-point calls' jets bitwise."""
    vals = np.random.default_rng(31).standard_normal((2, 2, 3, 4, 9))
    jets = fd_jets_from_stencil(vals, 2, 1e-3, order=2, ncomp_axes=2)
    assert [a.shape for a in jets] == [(2, 2, 3, 4), (2, 2, 2, 3, 4), (2, 2, 2, 2, 3, 4)]
    for i, j in product(range(3), range(4)):
        one = fd_jets_from_stencil(vals[:, :, i, j], 2, 1e-3, order=2, ncomp_axes=2)
        for a, b in zip(jets, one):
            assert np.array_equal(a[..., i, j], b)


def test_fd_jets_reproduce_polynomial_derivatives():
    # quadratic data: order-2 central differences are exact up to roundoff
    eps = 1e-3
    offs = stencil_offsets(2) * eps
    vals = 2.0 + offs[:, 0] + 3.0 * offs[:, 1] + offs[:, 0] * offs[:, 1]
    v, d1, d2 = fd_jets_from_stencil(vals, 2, eps, order=2)
    assert_allclose(v, 2.0, rtol=1e-12)
    assert_allclose(d1, [1.0, 3.0], rtol=1e-9)
    assert_allclose(d2, [[0.0, 1.0], [1.0, 0.0]], atol=1e-9)


def test_fd_jets_reproduce_polynomial_derivatives_in_three_dimensions():
    eps = 1e-3
    offs = stencil_offsets(3).T * eps  # (3, 27)
    grad = np.array([1.0, -2.0, 0.5])
    hess = np.array([[2.0, 0.3, -1.0], [0.3, -4.0, 0.7], [-1.0, 0.7, 6.0]])
    vals = 1.5 + grad @ offs + 0.5 * np.einsum("is,ij,js->s", offs, hess, offs)
    v, d1, d2 = fd_jets_from_stencil(vals, 3, eps, order=2)
    assert_allclose(v, 1.5, rtol=1e-12)
    assert_allclose(d1, grad, rtol=1e-9)
    assert_allclose(d2, hess, rtol=1e-6, atol=1e-6)


def test_lie_jet_needs_one_extra_jet_order():
    rng = np.random.default_rng(4)
    K = random_tensor_field((0, 1), 2, rng)
    X = random_vector_field(2, rng)
    pts = np.zeros((1, 2))
    with pytest.raises(InsufficientSmoothness):
        lie_jet(K.jet_batch(0.0, pts, 0, 0), X.jet_batch(0.0, pts, 0, 0), (0, 1))


# ---------------------------------------------------------------------------
# transport contractions and pairing
# ---------------------------------------------------------------------------


def test_pullback_one_form_on_line_scales_with_jacobian():
    data = JacobianData(np.array([[2.0]]), np.array([[0.5]]), np.zeros(1), np.zeros(1))
    w = TensorValue((0, 1), np.array([1.0]))
    v = TensorValue((1, 0), np.array([1.0]))
    assert_allclose(pullback(w, data).components, [2.0])
    assert_allclose(pullback(v, data).components, [0.5])
    assert_allclose(pushforward(w, data).components, [0.5])
    assert_allclose(pushforward(v, data).components, [2.0])


@pytest.mark.parametrize("valence", [(0, 1), (1, 0), (1, 1), (0, 2), (2, 0)])
def test_pullback_then_pushforward_is_identity(valence):
    rng = np.random.default_rng(17)
    comps = rng.standard_normal((3,) * sum(valence))
    jac = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    inv = np.linalg.inv(jac)
    back = pullback_batch(comps, valence, jac, inv)
    forth = pushforward_batch(back, valence, jac, inv)
    assert_allclose(forth, comps, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("valence", [(0, 1), (1, 1), (2, 0), (1, 2)])
def test_transport_duality_under_pairing(valence):
    """Pairing is invariant: <pullback K, S> = <K, pushforward S>."""
    rng = np.random.default_rng(29)
    r, s = valence
    K = rng.standard_normal((2,) * (r + s))
    S = rng.standard_normal((2,) * (r + s))
    jac = rng.standard_normal((2, 2)) + 2.5 * np.eye(2)
    inv = np.linalg.inv(jac)
    lhs = pair_batch(pullback_batch(K, valence, jac, inv), valence, S, (s, r))
    rhs = pair_batch(K, valence, pushforward_batch(S, (s, r), jac, inv), (s, r))
    assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


def _einsum_slot(T, M, slot, nslots, n_extra, n_m_extra, transpose):
    """Reference for ``_slot_replace`` written as one explicit einsum, batch-last."""
    letters = string.ascii_lowercase[:nslots]
    extra = "pqr"[:n_extra]
    m_extra = "uvw"[:n_m_extra]
    t_in = letters[:slot] + "z" + letters[slot + 1 :] + extra
    out = letters[:slot] + "y" + letters[slot + 1 :] + extra + m_extra
    m_idx = ("zy" if transpose else "yz") + m_extra
    return np.einsum(f"{t_in}...,{m_idx}...->{out}...", T, M)


# two trailing batch axes, with a broadcasting singleton on either operand;
# (5, 1) is the broadcast the pushforward uses for its coefficient jets
_BATCHES = [((5, 3), (5, 1)), ((1, 3), (4, 3))]


@pytest.mark.parametrize("valence", [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (2, 0), (2, 1)])
@pytest.mark.parametrize("n_extra,n_m_extra", [(0, 0), (1, 0), (0, 1), (2, 1)])
def test_slot_replace_matches_einsum(valence, n_extra, n_m_extra):
    rng = np.random.default_rng(sum(valence) + 10 * n_extra + 100 * n_m_extra)
    k = sum(valence)
    for dim, (t_batch, m_batch) in product((2, 3), _BATCHES):
        T = rng.standard_normal((dim,) * (k + n_extra) + t_batch)
        for slot, transpose in product(range(k), (False, True)):
            # square matrices, and the single column lie_jet contracts with
            for n_new in (dim, 1):
                rows, cols = (dim, n_new) if transpose else (n_new, dim)
                M = rng.standard_normal((rows, cols) + (dim,) * n_m_extra + m_batch)
                got = _slot_replace(T, M, slot, k, n_extra, n_m_extra, transpose)
                want = _einsum_slot(T, M, slot, k, n_extra, n_m_extra, transpose)
                assert got.shape == want.shape
                assert_allclose(got, want, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("valence", [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (2, 0), (2, 1)])
def test_contract_matches_einsum(valence):
    rng = np.random.default_rng(7 + sum(valence))
    r, s = valence
    k = r + s
    letters = string.ascii_lowercase
    ins, outs = letters[:k], letters[k : 2 * k]

    def first(a):
        return np.moveaxis(a, (-2, -1), (0, 1))

    for dim in (2, 3):
        T = rng.standard_normal((dim,) * k + (4, 3))
        A = rng.standard_normal((dim, dim, 4, 1))
        B = rng.standard_normal((dim, dim, 4, 3))
        override = rng.standard_normal((dim, dim, 4, 3))
        for mods in ({}, {k - 1: override} if k else {}):
            factors = [f"{outs[a]}{ins[a]}..." for a in range(r)]
            factors += [f"{ins[b]}{outs[b]}..." for b in range(r, k)]
            mats = [mods.get(a, B if a < r else A) for a in range(k)]
            want = np.einsum(",".join(factors + [f"{ins}..."]) + f"->{outs}...", *mats, T)
            got = _contract(T, valence, B, A, mods)
            assert_allclose(got, np.broadcast_to(want, got.shape), rtol=1e-13, atol=1e-13)
        # the batch-first public contractions run the same kernel: same bits
        assert np.array_equal(pullback_batch(first(T), valence, first(A), first(B)),
                              first(_contract(T, valence, B, A)))
        assert np.array_equal(pushforward_batch(first(T), valence, first(A), first(B)),
                              first(_contract(T, valence, A, B)))
        # a matrix without batch axes broadcasts over all of the tensor's
        single = A[..., 0, 0]
        assert np.array_equal(pullback_batch(first(T), valence, single, first(B)),
                              first(_contract(T, valence, B, single[..., None, None])))


def test_pair_single_entry():
    K = np.zeros((2, 2))
    K[0, 1] = 3.0
    S = np.zeros((2, 2))
    S[1, 0] = 5.0
    got = pair(TensorValue((1, 1), K), TensorValue((1, 1), S))
    assert got == pytest.approx(15.0)


def test_pair_matches_loop_reference():
    rng = np.random.default_rng(31)
    K = rng.standard_normal((2, 2, 2))
    S = rng.standard_normal((2, 2, 2))
    got = pair_batch(K, (1, 2), S, (2, 1))
    want = 0.0
    for i, j, k in np.ndindex(2, 2, 2):
        want += K[i, j, k] * S[j, k, i]
    assert_allclose(got, want, rtol=1e-13)


def test_pair_valence_mismatch():
    K = TensorValue((0, 2), np.eye(2))
    with pytest.raises(ValenceMismatch):
        pair(K, K)  # the test slot needs valence (2, 0)


def test_scalar_pair_is_product():
    assert pair_batch(np.array(3.0), (0, 0), np.array(4.0), (0, 0)) == pytest.approx(12.0)


# ---------------------------------------------------------------------------
# parameterised fields
# ---------------------------------------------------------------------------


def test_with_params_rebinds_without_recompiling():
    rng = np.random.default_rng(2)
    K = random_tensor_field((0, 1), 2, rng)
    syms = [s for s, _ in K.params]
    K2 = K.with_params({syms[0]: 0.0})
    assert K2.params != K.params
    # zeroing one coefficient changes the value
    pt = np.array([[0.7, 0.3]])
    assert not np.allclose(K.eval_batch(0.0, pt, 0), K2.eval_batch(0.0, pt, 0))


def test_with_params_rejects_an_undeclared_symbol():
    """The copy shares compiled evaluators, which have no slot for a new symbol."""
    K = random_tensor_field((0, 1), 2, np.random.default_rng(2))
    with pytest.raises(ValueError, match="stray"):
        K.with_params({"stray": 1.0})


def test_gbm_field_scales_linearly():
    f = gbm_vector_field(0.4)
    assert_allclose(f.eval_batch(0.0, np.array([[2.0]]), 0), [[0.8]])


def test_lie_derivative_param_name_collision():
    a = sp.Symbol("amp", real=True)
    K = scalar_field(1, a * coord_symbols(1)[0], params={a: 1.0}, name="k")
    Xc = vector_field(1, [a * coord_symbols(1)[0]], params={a: 2.0}, name="x")
    with pytest.raises(ValueError, match="conflict"):
        lie_derivative(K, Xc)
