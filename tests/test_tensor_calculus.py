"""Symbolic tensor fields, Lie derivatives and transport contractions."""

import os
import string
import subprocess
import sys
from itertools import permutations, product

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
    sphere_rotation_fields,
    sphere_round_metric,
    tensor_field,
    vector_field,
)
from flowtensor.geometry import ShapeMismatch, TensorValue, _contract, transform_tensor
from flowtensor.tensor_calculus import (
    InsufficientSmoothness,
    ValenceMismatch,
    coord_symbols,
    lie_derivative,
    lie_derivative_fd_oracle,
)
from flowtensor import scenarios, tensor_calculus
from flowtensor.kiw_verifier import convergence_study
from flowtensor.scenarios import get_scenario
from flowtensor.tensor_calculus import TIME, _jet_layout, _slot_replace
from references import contract_batch_first, lie_jet, pair_batch, pushforward_batch, with_params

X0, X1 = coord_symbols(2)


# ---------------------------------------------------------------------------
# field evaluation and jets
# ---------------------------------------------------------------------------


def test_jet_values_of_a_polynomial():
    f = tensor_field((0, 0), 2, X0**2 + 3 * X1, name="quad")
    pts = np.array([[1.0, 2.0], [0.5, -1.0]])
    assert_allclose(f._jet_last(0.0, pts.T, 0, 0)[0], [7.0, -2.75])


def test_jet_matches_hand_derivatives():
    f = tensor_field((0, 0), 2, X0**2 * X1, name="cubic")
    pts = np.array([[1.5, -2.0]])
    val, d1, d2 = f._jet_last(0.0, pts.T, 0, 2)
    assert_allclose(val, [1.5**2 * -2.0])
    assert_allclose(d1[..., 0], [2 * 1.5 * -2.0, 1.5**2])
    assert_allclose(d2[..., 0], [[2 * -2.0, 2 * 1.5], [2 * 1.5, 0.0]])


def _recording_load(monkeypatch):
    """Wrap ``tensor_calculus._load``; returns the list of loaded names and
    the list that each call of a loaded program appends its name to."""
    load, loaded, called = tensor_calculus._load, [], []

    def recording(name, entry):
        fn = load(name, entry)
        loaded.append(name)
        return lambda *a: called.append(name) or fn(*a)

    monkeypatch.setattr(tensor_calculus, "_load", recording)
    return loaded, called


def _directions(alpha):
    """The sorted derivative directions of the multi-index ``alpha``."""
    return tuple(k for k, m in enumerate(alpha) for _ in range(m))


def test_jet_evaluates_each_distinct_partial_once(monkeypatch):
    f = random_tensor_field((1, 1), 2, np.random.default_rng(5), kind="trig", scale=0.6)
    loaded, called = _recording_load(monkeypatch)
    pts = np.random.default_rng(6).uniform(-0.7, 0.7, size=(5, 2))
    _, d1, d2 = f._jet_last(0.0, pts.T, 0, 2)
    # one compiled call: the value, two first partials and the three
    # distinct second partials
    assert len(loaded) == 1
    assert len(called) == 1
    assert len(_jet_layout(2, 2, 4)[0]) == 6
    assert np.array_equal(d2, np.swapaxes(d2, -3, -2))
    # the mixed entry is the plain compile of the partial d^(1,1)
    mixed = sp.lambdify((X0, X1) + tuple(s for s, _ in f.params), list(f._exprs(0, ((1, 1),))),
                        modules=np)(*pts.T, *(v for _, v in f.params))
    assert_allclose(d2[:, :, 0, 1], np.reshape(mixed, (2, 2, 5)), rtol=1e-13, atol=1e-13)


def test_one_program_per_chart_and_order_writes_its_stacks_into_one_buffer(monkeypatch):
    """eval and the order-0 jet of one chart load one program between them,
    and each partial is read at every ordering of its directions."""
    f = random_tensor_field((1, 1), 2, np.random.default_rng(8), kind="trig", scale=0.6)
    loaded, _ = _recording_load(monkeypatch)
    pts = np.random.default_rng(9).uniform(-0.7, 0.7, size=(5, 2))
    value = f._jet_last(0.0, pts.T, 0, 0)[0]
    for i, pt in enumerate(pts):
        assert np.array_equal(f.eval(0.0, pt, 0).components, value[..., i])
    assert len(loaded) == 1
    for alpha in _jet_layout(2, 2, 4)[0]:
        m = sum(alpha)
        stack = f._jet_last(0.0, pts.T, 0, m)[m]
        want = stack[(slice(None),) * 2 + _directions(alpha)]
        for dirs in set(permutations(_directions(alpha))):
            assert np.array_equal(stack[(slice(None),) * 2 + dirs], want), alpha
    assert len(loaded) == 3  # orders 0, 1 and 2
    stacks = f._jet_last(0.0, pts.T, 0, 2)
    buf = stacks[0].base
    assert buf.size == sum(a.size for a in stacks)
    for a in stacks:
        assert a.base is buf and a.flags.c_contiguous


def test_a_point_of_the_wrong_dimension_is_a_shape_mismatch():
    """``kiw_ito_pullback_r2``'s ``K0`` takes points of shape (2,): three or one
    coordinates, or a batch, are refused before its program runs, by ``eval``
    and by the finite-difference oracle, as is a direction field of another
    dimension."""
    sc = get_scenario("kiw_ito_pullback_r2")
    for bad in (np.zeros(3), np.zeros(1), np.zeros((4, 2))):
        with pytest.raises(ShapeMismatch, match=r"shape \(2,\)"):
            sc.K0.eval(0.0, bad)
        with pytest.raises(ShapeMismatch, match=r"shape \(2,\)"):
            lie_derivative_fd_oracle(sc.K0, sc.sde.diffusions[0], 0.0, bad)
    with pytest.raises(ShapeMismatch, match=r"shape \(1,\)"):
        lie_derivative_fd_oracle(sc.K0, gbm_vector_field(0.4), 0.0, np.zeros(2))


def _registered_fields(sc):
    """The tensor, driver and flow coefficient fields of the scenario ``sc``, by label."""
    return {"K0": sc.K0, **{f"G{i}": g for i, g in enumerate(sc.G)}, "b": sc.sde.drift,
            **{f"xi{j}": xi for j, xi in enumerate(sc.sde.diffusions)}}


@pytest.mark.parametrize("name", scenarios.list_scenarios())
def test_one_point_is_its_column_of_a_batch_bitwise(name):
    """A point of shape ``(dim,)``, with no batch axis, gets from ``_jet_last``
    the bits of its column of a batched call, at every order up to 2 that
    the field grants, in every chart; so does ``eval``."""
    sc = get_scenario(name)
    rng = np.random.default_rng(len(name))
    for label, f in _registered_fields(sc).items():
        for chart in f.chart_ids:
            pts = rng.uniform(-0.5, 0.5, (f.dim, 4))
            for order in range(min(2, f.smoothness_order) + 1):
                batch = f._jet_last(0.4, pts, chart, order)
                for i in range(pts.shape[1]):
                    one = f._jet_last(0.4, pts[:, i], chart, order)
                    for m, (a, b) in enumerate(zip(one, batch)):
                        assert a.shape == b.shape[:-1]
                        assert np.array_equal(a, b[..., i]), (label, chart, order, m, i)
            for i in range(pts.shape[1]):
                value = f.eval(0.4, pts[:, i], chart)
                assert value.valence == f.valence
                assert np.array_equal(value.components, batch[0][..., i]), (label, chart, i)


def test_jet_order_capped_by_smoothness():
    f = tensor_field((0, 0), 2, X0 * X1, name="low", smoothness_order=1)
    with pytest.raises(InsufficientSmoothness):
        f._jet_last(0.0, np.zeros((2, 1)), 0, 2)


def test_with_order_only_lowers():
    f = tensor_field((0, 0), 2, X0, name="s")
    g = f.with_order(3)
    assert g.smoothness_order == 3
    with pytest.raises(InsufficientSmoothness):
        g.with_order(5)


def test_unbound_symbols_rejected():
    rogue = sp.Symbol("amp", real=True)
    with pytest.raises(ValueError, match="unbound symbols"):
        tensor_field((0, 0), 2, rogue * X0, name="bad")
    # binding the symbol as a parameter makes the same expression legal
    ok = tensor_field((0, 0), 2, rogue * X0, params={rogue: 2.0}, name="good")
    assert_allclose(ok._jet_last(0.0, np.array([[3.0], [0.0]]), 0, 0)[0], [6.0])


def test_missing_chart_components_raise():
    f = tensor_field((0, 0), 2, X0, name="s")
    with pytest.raises(KeyError):
        f._jet_last(0.0, np.zeros((2, 1)), 7, 0)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize(
    "name, field, chart",
    [("kunita_sphere_rotation", "K0", 0), ("kunita_sphere_rotation", "K0", 1),
     ("kiw_ito_pullback_r2", "K0", 0), ("kiw_ito_pullback_r2", "G0", 0)],
)
def test_jet_values_are_bitwise_order_0_and_derivatives_match_a_plain_compile(
        name, field, chart, order):
    """A jet shares subexpressions across its derivative rows only.

    Its value rows print as the order-0 jet's do, so they agree bitwise; the
    derivative rows agree to round-off with a compile that shares nothing,
    to 1e-13 of the jet's magnitude (an entry that cancels to 1e-3 of it
    keeps fewer relative digits).
    """
    sc = get_scenario(name)
    f = sc.K0 if field == "K0" else sc.G[0]
    pts = np.random.default_rng(7).uniform(-0.8, 0.8, (50, f.dim))
    t = 0.4
    jets = f._jet_last(t, pts.T, chart, order)
    assert np.array_equal(jets[0], f._jet_last(t, pts.T, chart, 0)[0])
    alphas, columns = _jet_layout(f.dim, order, int(np.prod(f.shape)))
    plain = sp.lambdify((TIME,) + coord_symbols(f.dim) + tuple(s for s, _ in f.params),
                        list(f._exprs(chart, alphas)), modules=np)
    want = np.array(np.broadcast_arrays(*plain(t, *pts.T, *(v for _, v in f.params)))).T
    # each distinct partial's rows, read from the stacks at the layout's positions
    got = np.empty((len(pts), len(alphas) * int(np.prod(f.shape))))
    for cols, stack in zip(columns, jets):
        got[:, cols] = stack.reshape(len(cols), len(pts)).T
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


def test_sphere_setup_study_factors_each_quotient_component_once(monkeypatch,
                                                               empty_program_cache):
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
        "from flowtensor.fields import tensor_field\n"
        "from flowtensor.tensor_calculus import coord_symbols\n"
        "x, y = coord_symbols(2)\n"
        "f = tensor_field((0, 0), 2, x**2 * y + x, name='f')\n"
        "f._jet_last(0.0, np.zeros((2, 3)), 0, 2)\n"
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
    assert_allclose(lg._jet_last(0.0, pts.T, 0, 0)[0], 0.0, atol=1e-14)


def test_lie_derivative_rotations_preserve_round_metric():
    """All three rotation generators are Killing fields of the round metric."""
    g = sphere_round_metric()
    for gen in sphere_rotation_fields((1.0, 1.0, 1.0)):
        lg = lie_derivative(g, gen)
        for chart in (0, 1):
            pts = np.random.default_rng(11).uniform(-1.2, 1.2, size=(8, 2))
            assert_allclose(lg._jet_last(0.0, pts.T, chart, 0)[0], 0.0, atol=1e-12)


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
    K = tensor_field((0, 0), 2, X0, name="s", smoothness_order=0)
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
    t_jets = K._jet_last(0.0, pts.T, 0, 1)
    x_jets = X._jet_last(0.0, pts.T, 0, 1)
    got = lie_jet(t_jets, x_jets, (1, 1))[0]
    want = lie_derivative(K, X)._jet_last(0.0, pts.T, 0, 0)[0]
    assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_lie_jet_first_derivative_consistency():
    """Jet output order 1 equals the derivative of the symbolic Lie field."""
    rng = np.random.default_rng(22)
    K = random_tensor_field((0, 1), 2, rng, scale=0.5)
    X = random_vector_field(2, rng, scale=0.5)
    pts = rng.uniform(-0.5, 0.5, size=(8, 2))
    got = lie_jet(K._jet_last(0.0, pts.T, 0, 2), X._jet_last(0.0, pts.T, 0, 2), (0, 1), 1)[1]
    want = lie_derivative(K, X)._jet_last(0.0, pts.T, 0, 1)[1]
    assert_allclose(got, want, rtol=1e-11, atol=1e-11)


def test_lie_jet_needs_one_extra_jet_order():
    rng = np.random.default_rng(4)
    K = random_tensor_field((0, 1), 2, rng)
    X = random_vector_field(2, rng)
    pts = np.zeros((2, 1))
    with pytest.raises(InsufficientSmoothness):
        lie_jet(K._jet_last(0.0, pts, 0, 0), X._jet_last(0.0, pts, 0, 0), (0, 1))


# ---------------------------------------------------------------------------
# transport contractions and pairing
# ---------------------------------------------------------------------------


def test_pullback_one_form_on_line_scales_with_jacobian():
    jac, inv = np.array([[2.0]]), np.array([[0.5]])
    w = TensorValue((0, 1), np.array([1.0]))
    v = TensorValue((1, 0), np.array([1.0]))
    # the pull-back is the chart change with the inverse Jacobian as ``jac``
    assert_allclose(transform_tensor(w, inv, jac).components, [2.0])
    assert_allclose(transform_tensor(v, inv, jac).components, [0.5])
    assert_allclose(pushforward_batch(w.components, w.valence, jac, inv), [0.5])
    assert_allclose(pushforward_batch(v.components, v.valence, jac, inv), [2.0])


@pytest.mark.parametrize("valence", [(0, 1), (1, 0), (1, 1), (0, 2), (2, 0)])
def test_pullback_then_pushforward_is_identity(valence):
    rng = np.random.default_rng(17)
    comps = rng.standard_normal((3,) * sum(valence))
    jac = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    inv = np.linalg.inv(jac)
    back = transform_tensor(TensorValue(valence, comps), inv, jac).components
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
    lhs = pair_batch(transform_tensor(TensorValue(valence, K), inv, jac).components, valence, S,
                     (s, r))
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
        # the batch-first reference contractions run the same kernel: same bits
        assert np.array_equal(contract_batch_first(first(T), valence, first(B), first(A)),
                              first(_contract(T, valence, B, A)))
        assert np.array_equal(pushforward_batch(first(T), valence, first(A), first(B)),
                              first(_contract(T, valence, A, B)))
        # a matrix without batch axes broadcasts over all of the tensor's
        single = A[..., 0, 0]
        assert np.array_equal(contract_batch_first(first(T), valence, first(B), single),
                              first(_contract(T, valence, B, single[..., None, None])))


def test_pair_single_entry():
    K = np.zeros((2, 2))
    K[0, 1] = 3.0
    S = np.zeros((2, 2))
    S[1, 0] = 5.0
    got = pair_batch(K, (1, 1), S, (1, 1))
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
    K = np.eye(2)
    with pytest.raises(ValenceMismatch):
        pair_batch(K, (0, 2), K, (0, 2))  # the test slot needs valence (2, 0)


def test_scalar_pair_is_product():
    assert pair_batch(np.array(3.0), (0, 0), np.array(4.0), (0, 0)) == pytest.approx(12.0)


# ---------------------------------------------------------------------------
# parameterised fields
# ---------------------------------------------------------------------------


def test_with_params_rebinds_without_recompiling():
    rng = np.random.default_rng(2)
    K = random_tensor_field((0, 1), 2, rng)
    syms = [s for s, _ in K.params]
    K2 = with_params(K, {syms[0]: 0.0})
    assert K2.params != K.params
    # zeroing one coefficient changes the value
    pt = np.array([0.7, 0.3])
    assert not np.allclose(K.eval(0.0, pt, 0).components, K2.eval(0.0, pt, 0).components)


def test_with_params_rejects_an_undeclared_symbol():
    """The copy shares compiled evaluators, which have no slot for a new symbol."""
    K = random_tensor_field((0, 1), 2, np.random.default_rng(2))
    with pytest.raises(ValueError, match="stray"):
        with_params(K, {"stray": 1.0})


def test_gbm_field_scales_linearly():
    f = gbm_vector_field(0.4)
    assert_allclose(f._jet_last(0.0, np.array([[2.0]]), 0, 0)[0], [[0.8]])


def test_lie_derivative_param_name_collision():
    a = sp.Symbol("amp", real=True)
    K = tensor_field((0, 0), 1, a * coord_symbols(1)[0], params={a: 1.0}, name="k")
    Xc = vector_field(1, [a * coord_symbols(1)[0]], params={a: 2.0}, name="x")
    with pytest.raises(ValueError, match="conflict"):
        lie_derivative(K, Xc)
