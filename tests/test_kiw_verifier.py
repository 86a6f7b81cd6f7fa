"""Transport identities: scenario wiring, dual-route checks, assemblies."""

import os
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from dataclasses import replace
from numpy.testing import assert_allclose

from flowtensor.fields import (
    coordinate_one_form,
    gbm_vector_field,
    random_tensor_field,
    random_vector_field,
    tensor_field,
    vector_field,
)
from flowtensor.flow import FlowEnsemble, FlowSDE, integrate_flow, integrate_flow_levels
from flowtensor.geometry import euclidean_atlas
from flowtensor.kiw_verifier import (
    THEOREMS,
    HypothesisViolation,
    Scenario,
    WiringMismatch,
    convergence_study,
    eval_lhs,
    eval_rhs,
    validate_scenario,
)
from flowtensor import kiw_verifier, tensor_calculus
from flowtensor.kiw_verifier import (
    _pullback_integrand_paths,
    _pushforward_integrand_paths,
    _coeff_jets,
    _compose,
    _driver_weights,
    _path_major,
    _integrands,
    _inverse_jets,
    _lie_terms,
    _push_transport,
    _transported_integrands,
)
from flowtensor.scenarios import get_scenario, list_scenarios, scenario_table
from flowtensor.stochastics import FvSpec, MartSpec, TimeGrid, build_driving_paths, refine_dyadic
from flowtensor.tensor_calculus import TensorFieldSpec, coord_symbols, lie_derivative
from references import (_random_jet_states, _route_a_integrands, batch_last, contract_batch_first,
                        expanded_integrand_check, lie_jet, strat_ito_bridge_gap, with_params)


def drivers_for(sc, n_paths=None, grid=None):
    return build_driving_paths(
        grid or sc.base_grid,
        sc.sde.n_noise,
        sc.seed,
        n_paths or sc.n_paths,
        fv_specs=sc.fv_specs,
        mart_specs=sc.mart_specs,
    )


def drivers_and_flow(sc, n_paths=None):
    d = drivers_for(sc, n_paths)
    return d, integrate_flow(sc.sde, d, sc.x0, sc.scheme)


# ---------------------------------------------------------------------------
# registry and validation
# ---------------------------------------------------------------------------


def test_registry_covers_every_selector():
    used = {get_scenario(name).theorem for name in list_scenarios()}
    assert used == set(THEOREMS)
    assert len(list_scenarios()) >= 7


def test_registry_table_lines_up():
    table = scenario_table()
    assert {row[0] for row in table} == set(list_scenarios())
    assert all(row[1] in THEOREMS for row in table)
    assert all(row[2] for row in table)


def test_unknown_scenario_lists_known_names():
    with pytest.raises(KeyError, match="identity"):
        get_scenario("nope")


def test_builtin_scenarios_validate_except_rough_demo():
    for name in list_scenarios():
        sc = get_scenario(name)
        if name == "kiw_push_lowreg":
            with pytest.raises(HypothesisViolation, match="k = 3"):
                validate_scenario(sc)
        else:
            validate_scenario(sc)


def test_validation_names_the_smoothness_gap():
    sc = get_scenario("kiw_push_lowreg")
    with pytest.raises(HypothesisViolation, match="KiwItoPushforward"):
        validate_scenario(sc)


# each selector's registered scenario and the flow regularity k its row asks
SELECTOR_ROWS = {
    "KiwItoPullback": ("kiw_ito_pullback_r2", 1),
    "KiwItoPushforward": ("kiw_ito_pushforward_r2", 3),
    "KiwStratPullback": ("kiw_strat_pullback_r2", 4),
    "KiwStratPushforward": ("kiw_strat_pushforward_r2", 4),
    "KunitaSecond": ("kunita_sphere_rotation", 1),
    "KunitaFirst": ("kunita_first_gbm", 3),
    "ScalarItoWentzell": ("scalar_itowentzell_r2", 1),
}


def with_flow_orders(sc, drift, noise):
    """``sc`` with its drift declared ``C^drift`` and every noise field ``C^noise``."""
    sde = sc.sde
    return replace(sc, sde=replace(sde, drift=sde.drift.with_order(drift),
                                   diffusions=[xi.with_order(noise) for xi in sde.diffusions]))


@pytest.mark.parametrize("theorem", THEOREMS)
def test_flow_regularity_is_drift_ck_and_noise_ck1(theorem):
    """Drift ``C^k`` with noise ``C^(k+1)`` passes; one order less on either is refused."""
    name, k = SELECTOR_ROWS[theorem]
    sc = get_scenario(name)
    assert sc.theorem == theorem and sc.sde.n_noise > 0
    validate_scenario(with_flow_orders(sc, k, k + 1))
    for drift, noise in ((k - 1, k + 1), (k, k)):
        with pytest.raises(HypothesisViolation, match=f"{theorem} requires flow regularity k = {k}"):
            validate_scenario(with_flow_orders(sc, drift, noise))


@pytest.mark.parametrize("name", ["kiw_ito_pullback_bracket", "scalar_itowentzell_r2"])
def test_ito_pullback_selectors_need_c2_driver_fields(name):
    # the Ito assembly reads L_xi L_xi G_i, two derivatives of each driver field
    sc = get_scenario(name)
    rough = replace(sc, G=(sc.G[0].with_order(1),) + sc.G[1:])
    with pytest.raises(HypothesisViolation, match=sc.theorem):
        validate_scenario(rough)


def test_ito_pushforward_needs_c2_driver_fields():
    """``L_xi L_xi`` of the pushed-forward ``K_t`` differentiates each driver
    field twice at the Newton preimages, so a ``C^1`` field is refused."""
    sc = get_scenario("kiw_ito_pushforward_r2")
    validate_scenario(replace(sc, G=(sc.G[0].with_order(2),)))
    with pytest.raises(HypothesisViolation, match="driver fields C\\^2"):
        validate_scenario(replace(sc, G=(sc.G[0].with_order(1),)))


def scalar_scenario(**overrides):
    x = coord_symbols(1)[0]
    base = dict(
        name="tmp",
        description="",
        theorem="KunitaSecond",
        sde=FlowSDE(
            vector_field(1, [sp.Integer(0)], name="rest"),
            [gbm_vector_field(0.3)],
            euclidean_atlas(1),
        ),
        K0=tensor_field((0, 1), 1, [x], name="xdx"),
        x0=np.array([1.0]),
        base_grid=TimeGrid(1.0, 8),
        n_paths=4,
        seed=1,
    )
    base.update(overrides)
    return Scenario(**base)


def test_wiring_rejects_driver_count_mismatch():
    sc = scalar_scenario(
        theorem="KiwItoPullback",
        G=(coordinate_one_form(1, 0),),
    )
    with pytest.raises(WiringMismatch):
        validate_scenario(sc)


def test_wiring_rejects_static_selector_with_drivers():
    sc = scalar_scenario(
        G=(coordinate_one_form(1, 0),),
        fv_specs=(FvSpec("a", lambda t: t),),
        mart_specs=(MartSpec("m", "zero"),),
    )
    with pytest.raises(WiringMismatch):
        validate_scenario(sc)


def test_wiring_rejects_valence_mismatch_in_drivers():
    wrong = tensor_field((1, 0), 1, [coord_symbols(1)[0]], name="updown")
    sc = scalar_scenario(
        theorem="KiwItoPullback",
        G=(wrong,),
        fv_specs=(FvSpec("a", lambda t: t),),
        mart_specs=(MartSpec("m", "zero"),),
    )
    with pytest.raises(WiringMismatch):
        validate_scenario(sc)


def test_scalar_selector_needs_scalar_data():
    sc = scalar_scenario(theorem="ScalarItoWentzell")
    with pytest.raises(WiringMismatch):
        validate_scenario(sc)


@pytest.mark.parametrize("theorem", ["KiwItoPushforward", "KiwStratPushforward", "KunitaFirst"])
def test_pushforward_needs_single_chart(theorem):
    """Every route but the pullback refuses the two-chart sphere atlas."""
    sphere = get_scenario("kunita_sphere_rotation")
    sc = replace(sphere, theorem=theorem)
    with pytest.raises(WiringMismatch, match=f"{theorem} evaluation is implemented on single-chart"):
        validate_scenario(sc)


@pytest.mark.parametrize("registered", [False, True])
def test_restart_selector_is_euler_only(registered):
    sc = (get_scenario("kunita_first_gbm") if registered
          else scalar_scenario(theorem="KunitaFirst"))
    with pytest.raises(WiringMismatch, match="use euler_maruyama for KunitaFirst"):
        validate_scenario(replace(sc, scheme="heun"))


@pytest.mark.parametrize("name", ["kunita_sphere_rotation", "kiw_ito_pullback_bracket"])
@pytest.mark.parametrize("setting", ["scheme", "bracket_mode"])
def test_unknown_settings_are_refused_before_any_flow(monkeypatch, name, setting):
    """A scheme or bracket mode outside its choice list is a wiring error,
    raised before a flow is integrated (also where no bracket is taken)."""
    sc = replace(get_scenario(name), **{setting: "bogus"})
    with pytest.raises(WiringMismatch, match="'bogus'"):
        validate_scenario(sc)

    def no_flow(*args, **kwargs):
        raise AssertionError("a flow was integrated")

    monkeypatch.setattr(kiw_verifier, "integrate_flow_levels", no_flow)
    with pytest.raises(WiringMismatch, match="'bogus'"):
        convergence_study(sc, levels=1, n_paths=2)


def test_closed_form_bracket_needs_an_antiderivative(monkeypatch):
    """A ``sigma_int`` martingale driver without ``sigma_antideriv`` has no
    closed-form bracket: where the selector reads that bracket, it is a
    wiring error raised before any driver is drawn."""
    sc = get_scenario("kiw_ito_pullback_bracket")
    bare = replace(sc, mart_specs=(replace(sc.mart_specs[0], sigma_antideriv=None),))
    with pytest.raises(WiringMismatch, match="'sigma_int' has no closed-form bracket"):
        validate_scenario(bare)

    def no_drivers(*args, **kwargs):
        raise AssertionError("a driver was drawn")

    monkeypatch.setattr(kiw_verifier, "build_driving_paths", no_drivers)
    with pytest.raises(WiringMismatch, match="closed-form bracket"):
        convergence_study(bare, levels=2, n_paths=2)
    # the realized bracket needs no closed form, and a zero noise field takes
    # no bracket with the driver
    validate_scenario(replace(bare, bracket_mode="realized"))
    zero_noise = replace(sc.sde, diffusions=(vector_field(1, [sp.Integer(0)], name="zero"),))
    validate_scenario(replace(bare, sde=zero_noise))


def refused_before_drivers(monkeypatch, sc, error, match):
    """``validate_scenario`` raises, and so does a study, before any driver is drawn."""
    with pytest.raises(error, match=match):
        validate_scenario(sc)

    def no_drivers(*args, **kwargs):
        raise AssertionError("a driver was drawn")

    monkeypatch.setattr(kiw_verifier, "build_driving_paths", no_drivers)
    with pytest.raises(error, match=match):
        convergence_study(sc, levels=2, n_paths=2)


def test_time_dependent_tensor_field_is_refused_before_any_driver(monkeypatch):
    timed = tensor_field((0, 1), 1, [sp.Symbol("t", real=True) * coord_symbols(1)[0]],
                         name="tdx")
    refused_before_drivers(monkeypatch, scalar_scenario(K0=timed), WiringMismatch,
                           "time dependence")


def test_heun_refuses_noise_rough_in_time_before_any_driver(monkeypatch):
    rough = vector_field(1, [0.3 * coord_symbols(1)[0]], name="rough", time_c1=False)
    sde = FlowSDE(vector_field(1, [sp.Integer(0)], name="rest"), [rough], euclidean_atlas(1))
    sc = scalar_scenario(sde=sde, scheme="heun")
    refused_before_drivers(monkeypatch, sc, HypothesisViolation, "'rough'")
    validate_scenario(replace(sc, scheme="euler_maruyama"))


def test_start_point_of_the_wrong_length_is_refused_before_any_driver(monkeypatch):
    refused_before_drivers(monkeypatch, scalar_scenario(x0=np.array([1.0, 2.0])),
                           WiringMismatch, r"x0 has shape \(2,\)")


@pytest.mark.parametrize("where", ["K0", "G"])
def test_rhs_needs_time_independent_fields(where):
    """The flag is found once per field and kept by its copies, and the
    right-hand side refuses a time-dependent field."""
    from flowtensor.tensor_calculus import TIME

    x = coord_symbols(1)[0]
    a = sp.Symbol("a")
    timed = tensor_field((0, 1), 1, [a * TIME * x], params={a: 1.0}, name="tdx")
    for field in (timed, timed.with_order(2), with_params(timed, {a: 2.0})):
        assert not field.is_time_independent()
        if where == "K0":
            sc = scalar_scenario(K0=field)
        else:
            sc = scalar_scenario(theorem="KiwItoPullback", G=(field,),
                                 fv_specs=(FvSpec("t", lambda t: t),),
                                 mart_specs=(MartSpec("zero", "zero"),))
        d, flow = drivers_and_flow(sc, n_paths=2)
        with pytest.raises(WiringMismatch, match="time"):
            eval_rhs(sc, flow, d)
    still = tensor_field((0, 1), 1, [a * x], params={a: 1.0}, name="xdx")
    assert all(f.is_time_independent() for f in (still, still.with_order(1),
                                                  with_params(still, {a: 3.0})))


def test_driver_weights_are_driver_sums():
    sc = get_scenario("kiw_ito_pullback_r2")
    d = drivers_for(sc, n_paths=6)
    want = np.moveaxis(d.fv[None, :, :] + d.mart, (0, 1), (-1, -2))  # (n_drivers, npoints, P)
    assert np.array_equal(_driver_weights(sc, d), want)


def test_rhs_refuses_drivers_of_another_driver_count():
    """The weights of ``K_t`` come from the drivers, so drivers of another
    scenario's wiring are refused, not read."""
    sc = get_scenario("kiw_ito_pullback_r2")
    d, flow = drivers_and_flow(sc, n_paths=2)
    other = replace(d, fv=d.fv[:, :0], mart=d.mart[:, :, :0])
    with pytest.raises(WiringMismatch, match="1 driver fields"):
        eval_rhs(sc, flow, other)


# ---------------------------------------------------------------------------
# dual-route and reduction invariants
# ---------------------------------------------------------------------------


def test_static_reduction_is_bitwise():
    """With no driver fields the moving-tensor selector collapses exactly."""
    sc = get_scenario("kunita_sphere_rotation")
    d, flow = drivers_and_flow(sc, n_paths=16)
    a = eval_rhs(sc, flow, d)
    b = eval_rhs(replace(sc, theorem="KiwItoPullback"), flow, d)
    assert np.array_equal(a.values, b.values)


TWO_DRIVERS = "kiw_ito_pullback_r2_two_drivers"


def pullback_scenario(name):
    """A registered scenario, or ``kiw_ito_pullback_r2`` with a second driver field.

    The variant adds a field with its own finite-variation driver and a
    martingale driver on the moving noise, so two weights are gathered
    per state and the bracket of the second field carries weight; no
    registered scenario has two driver fields.
    """
    if name != TWO_DRIVERS:
        return get_scenario(name)
    sc = get_scenario("kiw_ito_pullback_r2")
    G1 = random_tensor_field((1, 1), 2, np.random.default_rng(707), degree=2, scale=0.3,
                             prefix="hc", name="polyH")
    return replace(sc, name=TWO_DRIVERS, G=sc.G + (G1,),
                   fv_specs=sc.fv_specs + (FvSpec("sin", np.sin),),
                   mart_specs=sc.mart_specs + (MartSpec("mart_bm0", "bm", component=0),))


def _eval_along_flow(f: TensorFieldSpec, flow: FlowEnsemble, cols=slice(None)) -> np.ndarray:
    """Field values along the trajectory states at the grid times ``cols``
    (all by default), shape (times, P) + comps."""
    charts = flow.charts[cols]
    tgrid = np.broadcast_to(flow.grid.times()[cols, None], charts.shape)
    coords = flow.coords[cols]
    out = np.empty(charts.shape + f.shape)
    for cid in np.unique(charts).tolist():
        mask = charts == cid
        out[mask] = np.moveaxis(f._jet_last(tgrid[mask], coords[mask].T, cid, 0)[0], -1, 0)
    return out


def _pull_path(f: TensorFieldSpec, flow: FlowEnsemble, cols=slice(None)) -> np.ndarray:
    """Pullback of a field along the flow at the grid times ``cols`` (all by
    default), shape (P, times) + comps."""
    vals = _eval_along_flow(f, flow, cols)
    pulled = contract_batch_first(vals, f.valence, flow.inv_jac[cols], flow.jac[cols])
    return np.swapaxes(pulled, 0, 1)


def _symbolic_integrand_paths(sc, flow, d, strat):
    """Reference integrands, path-major: symbolic Lie fields evaluated and
    pulled back.

    Every term of every coefficient field is built, zero fields too; the
    Ito correction is one ``LLK``, summed over the noises in order, and
    the ``LxG`` terms are built for the Ito bracket only.
    """
    fields = [sc.K0, *sc.G]

    def weighted(vals):
        """The values of ``K_t`` from those of ``K0`` and the ``G_i``."""
        out = vals[0]
        for i, v in enumerate(vals[1:]):
            w = d.fv[None, :, i] + d.mart[:, :, i]
            out = out + w.reshape(w.shape + (1,) * (v.ndim - 2)) * v
        return out

    val = [_pull_path(f, flow) for f in fields]
    paths = {"K": weighted(val)}
    paths.update({f"G{i}": v for i, v in enumerate(val[1:])})
    lb = [_pull_path(lie_derivative(f, sc.sde.drift), flow) for f in fields]
    paths["LbK"] = weighted(lb)
    for j, xi in enumerate(sc.sde.diffusions):
        lx_fields = [lie_derivative(f, xi) for f in fields]
        lx = [_pull_path(f, flow) for f in lx_fields]
        paths[f"LxK{j}"] = weighted(lx)
        if not strat:
            paths.update({f"LxG{i}_{j}": v for i, v in enumerate(lx[1:])})
            ll = [_pull_path(lie_derivative(f, xi), flow) for f in lx_fields]
            llk = weighted(ll)
            paths["LLK"] = llk if j == 0 else paths["LLK"] + llk
    return paths


@pytest.mark.parametrize(
    "name,n_paths",
    [
        ("kiw_ito_pullback_r2", 6),
        (TWO_DRIVERS, 6),
        ("kiw_strat_pullback_r2", 6),
        ("scalar_itowentzell_r2", 6),
        ("kiw_ito_pullback_bracket", 6),
        ("kunita_sphere_rotation", 12),
    ],
)
def test_jet_integrands_match_symbolic_lie_fields(name, n_paths):
    """The jet route reproduces the symbolic Lie fields, pulled back.

    It leaves out the terms along a zero coefficient field (the sphere's
    drift, the second noise of ``kiw_ito_pullback_r2``), whose symbolic
    references are exact zeros.
    """
    sc = pullback_scenario(name)
    d, flow = drivers_and_flow(sc, n_paths=n_paths)
    if len(sc.atlas.charts) > 1:
        assert len(flow.hops) > 0  # both charts' components are exercised
    strat = sc.theorem == "KiwStratPullback"
    got = {key: _path_major(v) for key, v in _pullback_integrand_paths(sc, flow, d, strat).items()}
    want = _symbolic_integrand_paths(sc, flow, d, strat)
    assert set(got) <= set(want)
    for key in set(want) - set(got):
        assert not np.any(want[key]), key
    # terms that vanish identically (rotations about the sphere's axis
    # leave the weighted metric invariant) are exact zeros symbolically
    # and round-off from the jets, hence the absolute floor at the
    # scale of the integrands
    scale = max(float(np.max(np.abs(v))) for v in want.values())
    for key, val in got.items():
        assert_allclose(val, want[key], rtol=1e-11, atol=1e-11 * scale, err_msg=key)


# path slices of a 12-path flow: a short one, a one-path one and the rest
PATH_SLICES = ((0, 5), (5, 6), (6, 12))


@pytest.mark.parametrize("name", ["kunita_sphere_rotation", "kiw_ito_pullback_r2",
                                  "kiw_strat_pushforward_r2", "kunita_first_gbm"])
def test_jet_integrands_do_not_depend_on_the_block_size(name):
    """The integrands of a whole flow are, bitwise, those of its path slices
    side by side, the property :func:`_run_level`'s path blocks rely on.

    The pull-back route is read off :func:`_pullback_integrand_paths` (the
    sphere with chart hops, the Ito pull-back with driver weights), the
    push-forward and restart routes off :func:`eval_rhs`, path-major.
    """
    sc = get_scenario(name)
    d, flow = drivers_and_flow(sc, n_paths=12)
    if len(sc.atlas.charts) > 1:
        assert len(flow.hops) > 0

    def arrays(f, dr):
        """The route's arrays for the flow ``f``, and their path axis."""
        if kiw_verifier._row(sc).route == "pullback":
            return _pullback_integrand_paths(sc, f, dr, strat=False), -1
        rhs = eval_rhs(sc, f, dr)
        return {"values": rhs.values, "transported": rhs.transported, **rhs.terms}, 0

    whole, axis = arrays(flow, d)
    parts = [arrays(flow.slice_paths(a, b), d.slice_paths(a, b))[0] for a, b in PATH_SLICES]
    assert all(set(part) == set(whole) for part in parts)
    for key in whole:
        assert np.array_equal(whole[key], np.concatenate([p[key] for p in parts], axis=axis)), key


@pytest.mark.parametrize("name,keys,lie_terms,contractions", [
    # _lie_terms of K_t (L_b, L_xi0 and L_xi0 L_xi0, none along the zero
    # second noise) and of G0 (L_xi0 for the bracket); pulled back: K, G0
    # and the four Lie terms
    ("kiw_ito_pullback_r2", {"K", "G0", "LbK", "LxK0", "LLK", "LxG0_0"}, 2, 6),
    # no drift term and no driver fields; pulled back: K and the four Lie terms
    ("kunita_sphere_rotation", {"K", "LxK0", "LxK1", "LxK2", "LLK"}, 1, 5),
])
def test_one_block_builds_each_integrand_once(monkeypatch, name, keys, lie_terms, contractions):
    """The integrands and kernel calls of one block, counted per chart group.

    The pull-back route runs :func:`_route_integrands` once per chart the
    states fall in, and the counts below are per chart.  A zero
    coefficient field gets no integrand, and the Ito correction is pulled
    back once, summed over the noises.
    """
    sc = get_scenario(name)
    cases = [(sc, 4, 1)]  # (scenario, paths, chart groups)
    if len(sc.atlas.charts) > 1:
        # near the chart centre over a short horizon the paths stay in chart 0;
        # from the registered start point they visit both charts
        cases = [(replace(sc, x0=np.array([0.1, 0.2]), base_grid=TimeGrid(0.25, 8)), 4, 1),
                 (sc, 12, 2)]
    calls = {"_route_integrands": 0, "_lie_terms": 0, "_contract": 0}

    def counted(name):
        fn = getattr(kiw_verifier, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for fn_name in calls:
        monkeypatch.setattr(kiw_verifier, fn_name, counted(fn_name))
    for case, n_paths, groups in cases:
        d, flow = drivers_and_flow(case, n_paths=n_paths)
        assert np.unique(flow.charts).size == groups
        calls.update(dict.fromkeys(calls, 0))
        assert set(_pullback_integrand_paths(case, flow, d, strat=False)) == keys
        assert calls == {"_route_integrands": groups, "_lie_terms": lie_terms * groups,
                         "_contract": contractions * groups}


def test_integrands_hand_on_each_driver_field_before_the_tensor_terms(monkeypatch):
    """``_integrands`` hands its terms on one at a time, driver fields first:
    each field's Lie terms, those of ``G_1`` and then those of ``K_t``, are
    built once every term before them has been taken, and ``K_t``'s jets
    are read only after the last driver field's."""
    rng = np.random.default_rng(17)
    valence, dim, batch = (1, 1), 2, (3, 5)
    k_jets = [batch_last(a, 2) for a in _symmetric_jets(rng, batch, (dim, dim), dim)]
    g_jets = [[batch_last(a, 2) for a in _symmetric_jets(rng, batch, (dim, dim), dim)[:2]]
              for _ in range(2)]
    b_jets = [batch_last(a, 2) for a in _symmetric_jets(rng, batch, (dim,), dim)[:2]]
    xi_jets = [[batch_last(a, 2) for a in _symmetric_jets(rng, batch, (dim,), dim)]
               for _ in range(2)]
    lie_terms, taken, taken_at_calls, handed = kiw_verifier._lie_terms, [], [], []

    def recording(jets, *args):
        taken_at_calls.append(("K" if jets is k_jets else "G", list(taken)))
        return lie_terms(jets, *args)

    def fields():
        for gj in g_jets:
            handed.append(list(taken))
            yield gj

    monkeypatch.setattr(kiw_verifier, "_lie_terms", recording)
    for key, _ in _integrands(k_jets, fields(), b_jets, xi_jets, valence, False):
        taken.append(key)
    k_labels = {"K", "LbK", "LLK", "LxK0", "LxK1"}
    g_labels = [{f"G{i}", f"LxG{i}_0", f"LxG{i}_1"} for i in range(2)]
    assert sorted(taken) == sorted(k_labels | g_labels[0] | g_labels[1])
    # each field's terms are built once every term before them has been taken
    assert [(f, set(seen)) for f, seen in taken_at_calls] == [
        ("G", set()), ("G", g_labels[0]), ("K", g_labels[0] | g_labels[1])]
    # the next field's jets are asked for only once the previous field's terms are taken
    assert [set(seen) for seen in handed] == [set(), g_labels[0]]


@pytest.mark.parametrize("name", ["kiw_ito_pullback_r2", "kiw_strat_pullback_r2",
                                  "scalar_itowentzell_r2", "kiw_ito_pushforward_r2"])
def test_driver_field_jets_are_released_after_their_value_term(monkeypatch, name):
    """A driver field's jet buffer lives only until its value term, a view
    of it, has been contracted: no other integrand, ``G_i``'s own Lie terms
    among them, is contracted while it is alive, and when ``K_t``'s Lie
    terms are built no driver field's buffer is alive any more."""
    import weakref

    sc = get_scenario(name)
    d, flow = drivers_and_flow(sc, n_paths=3)
    jet_last, lie_terms, contract = (TensorFieldSpec._jet_last, kiw_verifier._lie_terms,
                                     kiw_verifier._contract)
    buffers, checked, contracted = [], [], []

    def g_buffers():
        return [b for is_k0, ref in buffers if not is_k0 for b in [ref()] if b is not None]

    def recording_jets(field, *args):
        jets = jet_last(field, *args)
        buffers.append((field is sc.K0, weakref.ref(jets[0].base)))
        return jets

    def recording_terms(jets, *args):
        if any(is_k0 and ref() is jets[0].base for is_k0, ref in buffers):
            checked.append([ref() is None for is_k0, ref in buffers if not is_k0])
        return lie_terms(jets, *args)

    def recording_contract(v, *args):
        contracted.append(all(np.may_share_memory(v, b) for b in g_buffers()))
        return contract(v, *args)

    monkeypatch.setattr(TensorFieldSpec, "_jet_last", recording_jets)
    monkeypatch.setattr(kiw_verifier, "_lie_terms", recording_terms)
    monkeypatch.setattr(kiw_verifier, "_contract", recording_contract)
    assert eval_rhs(sc, flow, d).terms
    assert checked and all(seen == [True] * len(sc.G) for seen in checked)
    assert contracted and all(contracted)


def _symmetric_jets(rng, batch, head, dim, order=2):
    """Random batch-first jets ``batch + head + (dim,) * m``, m <= ``order``,
    with symmetric second derivatives."""
    jets = [rng.standard_normal(batch + head + (dim,) * m) for m in range(order + 1)]
    jets[2] = (jets[2] + np.swapaxes(jets[2], -1, -2)) / 2
    return jets


VALENCES_UP_TO_THREE_SLOTS = [(r, k - r) for k in range(4) for r in range(k + 1)]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("valence", VALENCES_UP_TO_THREE_SLOTS)
def test_ito_correction_is_the_nested_lie_jet_summed_over_noises(valence, dim):
    """``LL`` from the noise sums equals ``sum_j L_xi_j (L_xi_j K)`` taken with
    the two-pass reference ``lie_jet`` (its first-order jet, then once more),
    and every ``L_xi_j K`` is the one-pass ``lie_jet`` bitwise; a ``None``
    noise adds nothing."""
    rng = np.random.default_rng(100 * dim + 10 * valence[0] + valence[1])
    batch = (3, 5)
    for n_noise in (1, 2, 3):
        K = [batch_last(a, 2) for a in _symmetric_jets(rng, batch, (dim,) * sum(valence), dim)]
        xis = [[batch_last(a, 2) for a in _symmetric_jets(rng, batch, (dim,), dim)]
               for _ in range(n_noise)]
        xis.insert(n_noise // 2, None)
        got = _lie_terms(K, None, xis, valence, strat=False)
        want = sum(lie_jet(lie_jet(K, xj, valence, 1), xj[:2], valence, 0)[0]
                   for xj in xis if xj is not None)
        # entries that cancel to near zero carry the round-off of their
        # summands, so the scale of the whole array bounds the difference
        assert_allclose(got["LL"], want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        assert set(got) == {"val", "LL"} | {f"Lx{j}" for j, xj in enumerate(xis) if xj is not None}
        for j, xj in enumerate(xis):
            if xj is not None:
                assert np.array_equal(got[f"Lx{j}"], lie_jet(K[:2], xj[:2], valence, 0)[0])


@pytest.mark.parametrize("valence, dim", [((0, 0), 2), ((1, 1), 2), ((0, 2), 2), ((2, 1), 1)])
def test_ito_correction_matches_the_symbolic_second_lie_derivative(valence, dim):
    """On polynomial fields ``LL`` equals ``lie_derivative`` applied twice,
    summed over the noises, at random points."""
    rng = np.random.default_rng(7 + dim + 3 * sum(valence))
    K = random_tensor_field(valence, dim, rng, degree=3, name="polyK")
    xis = [random_vector_field(dim, rng, degree=2, prefix=f"q{j}", name=f"xi{j}")
           for j in range(2)]
    pts = rng.uniform(-1.0, 1.0, (dim, 9))
    got = _lie_terms(K._jet_last(0.0, pts, 0, 2), None,
                     [xi._jet_last(0.0, pts, 0, 2) for xi in xis], valence, strat=False)["LL"]
    want = sum(lie_derivative(lie_derivative(K, xi), xi)._jet_last(0.0, pts, 0, 0)[0] for xi in xis)
    assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


KUNITA_FIRST_R2 = "kunita_first_r2"


@pytest.mark.parametrize("name", [
    "kiw_ito_pullback_r2", "kunita_sphere_rotation", "kiw_ito_pushforward_r2",
    "kunita_first_gbm", KUNITA_FIRST_R2, "kiw_strat_pullback_r2", "kiw_strat_pushforward_r2",
    "scalar_itowentzell_r2",
])
def test_rhs_transported_tensor_is_eval_lhs_bitwise(name):
    """A study level takes its left-hand side from the integrands' K path
    (``KunitaFirst`` at its checkpoint times, where its restart from time 0
    reproduces the flow, in 1-D and, on the flow of ``kiw_ito_pushforward_r2``
    without its driver field, in 2-D)."""
    if name == KUNITA_FIRST_R2:
        sc = replace(get_scenario("kiw_ito_pushforward_r2"), name=name, theorem="KunitaFirst",
                     G=(), fv_specs=(), mart_specs=())
        validate_scenario(sc)
    else:
        sc = get_scenario(name)
    d, flow = drivers_and_flow(sc, n_paths=12)
    rhs = eval_rhs(sc, flow, d)
    lhs = eval_lhs(sc, flow, d)
    if rhs.checkpoint_indices is not None:
        lhs = lhs[:, rhs.checkpoint_indices]
    assert np.array_equal(rhs.transported, lhs)


@pytest.mark.parametrize("name,pullback", [("kiw_ito_pushforward_r2", "KiwItoPullback"),
                                           ("kiw_strat_pushforward_r2", "KiwStratPullback")])
def test_pullback_and_pushforward_builders_make_the_same_integrands(name, pullback):
    """Both builders hand the assembly the same labels, of the same shapes."""
    sc = get_scenario(name)
    d, flow = drivers_and_flow(sc, n_paths=3)
    strat = pullback == "KiwStratPullback"
    push = _pushforward_integrand_paths(sc, flow, d, strat)
    pull = _pullback_integrand_paths(replace(sc, theorem=pullback), flow, d, strat)
    assert set(push) == set(pull)
    for key, val in push.items():
        assert val.shape == pull[key].shape, key


def test_study_compiles_only_the_evaluators_it_reads(monkeypatch, empty_program_cache):
    """On the two-chart sphere (Euler, Ito pullback) a study loads 6 programs.

    Per chart: the flow coefficients at noise order 2, the step program
    and the tensor's order-2 jet.  The study calls each of them, and a
    second study loads nothing more.  Programs are counted at the loader,
    so no counting wrapper reaches the program cache.
    """
    sc = get_scenario("kunita_sphere_rotation")
    # a fresh FlowSDE and a fresh K0, so no step program and no field
    # evaluator is held from an earlier study
    sc = replace(sc, sde=FlowSDE(sc.sde.drift, sc.sde.diffusions, sc.sde.atlas),
                 K0=sc.K0.with_order(sc.K0.smoothness_order))
    load, called = tensor_calculus._load, set()
    compiled = []

    def recording_load(*args):
        fn, k = load(*args), len(compiled)
        compiled.append(k)

        def recorded(*a):
            called.add(k)
            return fn(*a)

        return recorded

    monkeypatch.setattr(tensor_calculus, "_load", recording_load)
    convergence_study(sc, levels=1, n_paths=12)
    assert len(compiled) == 6
    assert called == set(compiled)
    convergence_study(sc, levels=1, n_paths=12)
    assert len(compiled) == 6


@pytest.mark.parametrize(
    "name", ["kiw_ito_pullback_r2", "kiw_ito_pushforward_r2", "kunita_first_gbm", "blowup_cubic"]
)
def test_chunk_count_does_not_change_the_report(name):
    """Serial path chunks of any size give the same report, one-path chunks too."""
    sc, P = get_scenario(name), 5
    want = repr(convergence_study(sc, levels=2, n_paths=P, n_workers=1))
    for n_workers in (3, P, P + 5):
        assert repr(convergence_study(sc, levels=2, n_paths=P, n_workers=n_workers)) == want
    with pytest.raises(ValueError, match="n_workers=0"):
        convergence_study(sc, levels=2, n_paths=P, n_workers=0)


def test_restart_sums_do_not_depend_on_the_batch_size():
    """KunitaFirst: a one-path slice gives path 0 of a 4-path run, bitwise."""
    sc = get_scenario("kunita_first_gbm")
    d, flow = drivers_and_flow(sc, n_paths=4)
    full = eval_rhs(sc, flow, d)
    d1 = d.slice_paths(0, 1)
    flow1 = integrate_flow(sc.sde, d1, sc.x0, sc.scheme)
    one = eval_rhs(sc, flow1, d1)
    assert np.array_equal(one.values[0], full.values[0])
    for key in full.terms:
        assert np.array_equal(one.terms[key][0], full.terms[key][0]), key


@pytest.mark.parametrize("name", ["kiw_ito_pushforward_r2", "kiw_strat_pushforward_r2"])
def test_push_transport_inverts_the_discrete_flow(name):
    """Forward runs from the preimages land on the observation point with the
    Jacobians of ``jets[0]``; ``jets[1]`` (and ``jets[2]`` in the Ito form)
    are the central differences of forward runs from the preimages moved by
    ``+-eps e_i``."""
    sc = get_scenario(name)
    d, flow = drivers_and_flow(sc, n_paths=6)
    assert np.all(flow.completed)
    tp = _push_transport(sc, flow, d)
    n = sc.sde.dim
    assert len(tp.jets) == (3 if sc.theorem == "KiwItoPushforward" else 2)
    e = np.eye(n)

    def jac(k, *moves):
        """The forward Jacobians at time t_k from the preimages moved by ``moves``."""
        x = tp.preimages[:, k, :].T + sum(moves, np.zeros(n))
        return np.moveaxis(integrate_flow(sc.sde, d, x, sc.scheme).jac[k], 0, -1)

    for k in range(flow.grid.npoints):
        fwd = integrate_flow(sc.sde, d, tp.preimages[:, k, :].T, sc.scheme)
        assert_allclose(fwd.coords[k], np.broadcast_to(sc.x0, (6, n)), rtol=0, atol=1e-12)
        assert_allclose(np.moveaxis(fwd.jac[k], 0, -1), tp.jets[0][:, :, k], rtol=0, atol=1e-12)
        eps = 1e-4
        for i in range(n):
            d2 = (jac(k, eps * e[i]) - jac(k, -eps * e[i])) / (2 * eps)
            assert_allclose(d2, tp.jets[1][:, :, i, k], rtol=0, atol=1e-7)
        if len(tp.jets) > 2:
            eps = 1e-3
            for i, l in np.ndindex(n, n):
                d3 = (jac(k, eps * e[i], eps * e[l]) - jac(k, eps * e[i], -eps * e[l])
                      - jac(k, -eps * e[i], eps * e[l]) + jac(k, -eps * e[i], -eps * e[l]))
                assert_allclose(d3 / (4 * eps**2), tp.jets[2][:, :, i, l, k], rtol=0, atol=1e-6)


@pytest.mark.parametrize("name,field,strat", [
    ("kiw_ito_pushforward_r2", "K0", False),
    ("kiw_ito_pushforward_r2", "G0", False),
    ("kiw_strat_pushforward_r2", "K0", True),
    ("kiw_strat_pushforward_r2", "G0", True),
    ("kunita_first_gbm", "K0", False),
])
def test_identity_map_jets_give_the_analytic_integrands(name, field, strat):
    """Pushed forward by the identity map, a field's transported integrands
    are the :func:`_integrands` of its analytic jets, bitwise."""
    sc = get_scenario(name)
    f = sc.K0 if field == "K0" else sc.G[0]
    n, order = sc.sde.dim, 1 if strat else 2
    pts = sc.x0[:, None, None] + np.random.default_rng(5).uniform(-0.1, 0.1, (n, 2, 3))
    jets = [np.broadcast_to(np.eye(n)[:, :, None, None], (n, n, 2, 3))]
    jets += [np.zeros((n,) * (r + 2) + (2, 3)) for r in range(1, order + 1)]
    t = 0.3
    coef = _coeff_jets(sc.sde, sc.sde.jets(t, pts, 0, order), order)
    # the field alone, with no driver fields to weight in
    got = dict(_transported_integrands(replace(sc, K0=f, G=()), t, pts, jets, jets[0], (), coef,
                                       strat))
    want = dict(_integrands(f._jet_last(t, pts, 0, order), (), *coef, f.valence, strat))
    assert got.keys() == want.keys()
    for nm in want:
        assert np.array_equal(got[nm], want[nm]), nm


def random_map_jets(n, rng, batch=(7,)):
    """Jets ``[Dm, D^2 m, D^3 m]`` of a random map, batch-last, each stack
    symmetric in its derivative directions and ``Dm`` near the identity."""
    def symmetric(a, m):
        """The mean of ``a`` over the orders of its ``m`` derivative axes."""
        perms = list(permutations(range(1, m + 1)))
        return sum(np.transpose(a, (0, *p, *range(m + 1, a.ndim))) for p in perms) / len(perms)

    eye = np.eye(n).reshape((n, n) + (1,) * len(batch))
    jets = [eye + 0.2 * rng.standard_normal((n, n) + batch)]
    jets += [symmetric(rng.standard_normal((n,) * (m + 1) + batch), m) for m in (2, 3)]
    return jets


@pytest.mark.parametrize("n", [1, 2, 3])
def test_inverse_jets_compose_to_the_identity(n):
    """The inverse map's jets composed with the map's are the identity jets."""
    m = random_map_jets(n, np.random.default_rng(n))
    ident = _compose(_inverse_jets(m), m)
    assert_allclose(ident[0], np.broadcast_to(np.eye(n)[..., None], ident[0].shape), atol=1e-12)
    for r in (1, 2):
        assert_allclose(ident[r], 0.0, atol=1e-11)
    # and the other way round, at the image point
    back = _compose(m, _inverse_jets(m))
    for r in (1, 2):
        assert_allclose(back[r], 0.0, atol=1e-11)


def test_kunita_first_transports_a_mixed_tensor_with_the_exact_inverse():
    """On a (1, 1) field the restart from time 0 carries ``K0`` back with the
    flow's ``J`` on the covariant slot and its exact inverse on the
    contravariant one, not with the scheme's ``Jinv``."""
    sc = replace(get_scenario("kiw_ito_pushforward_r2"), name=KUNITA_FIRST_R2,
                 theorem="KunitaFirst", G=(), fv_specs=(), mart_specs=())
    d, flow = drivers_and_flow(sc, n_paths=5)
    rhs = eval_rhs(sc, flow, d)
    cps = rhs.checkpoint_indices
    vals = _eval_along_flow(sc.K0, flow, cps)
    want = contract_batch_first(vals, sc.K0.valence, np.linalg.inv(flow.jac[cps]), flow.jac[cps])
    assert_allclose(rhs.transported, np.swapaxes(want, 0, 1), rtol=1e-13, atol=1e-15)
    assert flow.jac_consistency_max() > 1e-6  # the scheme's Jinv is not the inverse of J


@pytest.mark.parametrize("name", ["kiw_ito_pushforward_r2", "kiw_strat_pushforward_r2"])
def test_push_transport_reports_its_newton_residual(name):
    """The worst |f(u) - v| after the Newton iterations is kept, and it is tiny."""
    sc = get_scenario(name)
    d, flow = drivers_and_flow(sc, n_paths=6)
    tp = _push_transport(sc, flow, d)
    assert 0.0 <= tp.newton_residual_max <= 1e-12


def test_scalar_selector_shares_the_tensor_code_path():
    sc = get_scenario("scalar_itowentzell_r2")
    d, flow = drivers_and_flow(sc, n_paths=16)
    a = eval_rhs(sc, flow, d)
    b = eval_rhs(replace(sc, theorem="KiwItoPullback"), flow, d)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(eval_lhs(sc, flow, d), eval_lhs(replace(sc, theorem="KiwItoPullback"), flow, d))


def test_scalar_lhs_is_direct_composition():
    sc = get_scenario("scalar_itowentzell_r2")
    d, flow = drivers_and_flow(sc, n_paths=8)
    lhs = eval_lhs(sc, flow, d)
    times = d.grid.times()
    for k in (0, 3, d.grid.steps):
        base = sc.K0._jet_last(times[k], flow.coords[k].T, 0, 0)[0]
        for i, g in enumerate(sc.G):
            base = base + (d.fv[k, i] + d.mart[:, k, i]) * g._jet_last(times[k], flow.coords[k].T,
                                                                       0, 0)[0]
        assert np.array_equal(lhs[:, k], base)


def test_pullback_of_coordinate_form_is_the_jacobian_row():
    sc = get_scenario("gbm_oneform")
    d, flow = drivers_and_flow(sc, n_paths=8)
    lhs = eval_lhs(sc, flow, d)
    # in one dimension the pullback of dx scales by the flow Jacobian
    assert_allclose(lhs[:, :, 0], flow.jac[:, :, 0, 0].T, atol=1e-15)


def test_linear_coefficients_telescope_to_zero_residual():
    sc = get_scenario("gbm_oneform")
    d, flow = drivers_and_flow(sc)
    lhs = eval_lhs(sc, flow, d)
    rhs = eval_rhs(sc, flow, d)
    assert np.max(np.abs(lhs - rhs.values)) < 1e-12


@pytest.mark.parametrize("name", ["kiw_strat_pullback_r2", "kiw_ito_pullback_r2", TWO_DRIVERS,
                                  "kunita_sphere_rotation", "scalar_itowentzell_r2"])
def test_bridge_identity_between_assemblies(name):
    """Holds on every pullback selector, whatever its own calculus, chart
    hops included (``kunita_sphere_rotation``), and with absent terms too:
    ``kiw_ito_pullback_r2`` has no ``LxK1``."""
    sc = pullback_scenario(name)
    d, flow = drivers_and_flow(sc)
    assert strat_ito_bridge_gap(sc, flow, d) < 1e-10


def test_bridge_gap_without_noise_is_zero():
    """A noiseless pullback flow has no ``L2`` term, read as zero."""
    sc = replace(get_scenario("deterministic_drift"), theorem="KiwItoPullback")
    d, flow = drivers_and_flow(sc)
    assert strat_ito_bridge_gap(sc, flow, d) == 0.0


def noiseless(name, theorem):
    """A registered scenario's flow and tensor, with no noise field and no drivers."""
    sc = get_scenario(name)
    return replace(sc, name=f"{name}_noiseless", theorem=theorem,
                   sde=FlowSDE(sc.sde.drift, (), sc.sde.atlas), G=(), fv_specs=(), mart_specs=())


@pytest.mark.parametrize("name,theorem", [
    ("kiw_ito_pushforward_r2", "KiwItoPushforward"),
    ("kiw_strat_pushforward_r2", "KiwStratPushforward"),
    ("kiw_ito_pushforward_r2", "KunitaFirst"),
])
def test_transport_selectors_study_a_noiseless_flow(name, theorem):
    """With no noise field the push-forward and restart routes converge at
    first order, the floor acceptance criterion 8 sets for a noiseless flow."""
    rep = convergence_study(noiseless(name, theorem), levels=3, n_paths=4)
    assert all(np.isfinite(lvl.rms_sup_residual) for lvl in rep.levels)
    assert rep.fitted_order >= 0.9


def test_assembly_leaves_its_integrands_in_place():
    """The assembly only reads its dict: the same keys hold the same arrays
    afterwards, and a second assembly from it gives the same bits."""
    for name, strat in (("kiw_ito_pullback_r2", False), ("kiw_strat_pullback_r2", True)):
        sc = get_scenario(name)
        d, flow = drivers_and_flow(sc, n_paths=5)
        paths = kiw_verifier._pullback_integrand_paths(sc, flow, d, strat)
        assert len(paths) > 1
        kept = dict(paths)
        first = kiw_verifier._assemble_forward_rhs(sc, d, paths, strat)
        assert list(paths) == list(kept)
        assert all(paths[key] is kept[key] for key in kept)
        again = kiw_verifier._assemble_forward_rhs(sc, d, paths, strat)
        assert np.array_equal(first.values, again.values)
        assert first.terms.keys() == again.terms.keys()
        for key in first.terms:
            assert np.array_equal(first.terms[key], again.terms[key]), key



def _whole_array_reductions(rhs, stop_step):
    """A level's residual and term sups, reduced from the whole arrays of
    ``rhs`` over the rows before each path's stop."""
    lhs = rhs.transported
    P, rows = lhs.shape[:2]
    kidx = rhs.checkpoint_indices if rhs.checkpoint_indices is not None else np.arange(rows)
    live = stop_step[:, None] > kidx[None, :]

    def sup(a):
        return np.max(np.where(live, np.max(np.abs(a).reshape(P, rows, -1), axis=2), 0.0), axis=1)

    return sup(lhs - rhs.values), {k: sup(v) for k, v in rhs.terms.items()}


@pytest.mark.parametrize("block", ["default", "one state", "four paths"])
@pytest.mark.parametrize("name", [n for n in list_scenarios() if n != "kiw_push_lowreg"])
def test_path_block_reduction_is_the_whole_array_reduction(monkeypatch, name, block):
    """A study level's sups are bitwise those of one whole-level :func:`eval_rhs`.

    At the default block size (one block of all six paths), at one state
    (one path per block) and
    at four paths per block (so the last block is short): stopped
    paths (``blowup_cubic``), the trapezoid sums (``kiw_strat_pullback_r2``),
    driver weights and the bracket (``kiw_ito_pullback_r2``), chart hops
    renumbered in a path slice, checkpoints (``KunitaFirst``) and the
    pushforward wavefronts.
    """
    sc = get_scenario(name)
    d, flow = drivers_and_flow(sc, n_paths=6)
    want_residual, want_sups = _whole_array_reductions(eval_rhs(sc, flow, d), flow.stop_step)
    states = {"default": kiw_verifier._JET_BLOCK_STATES, "one state": 1,
              "four paths": 4 * flow.grid.npoints}[block]
    monkeypatch.setattr(kiw_verifier, "_JET_BLOCK_STATES", states)
    got = kiw_verifier._run_level(sc, d, flow)
    assert np.array_equal(got["residual"], want_residual, equal_nan=True)
    assert got["term_sups"].keys() == want_sups.keys()
    for key, sup in want_sups.items():
        assert np.array_equal(got["term_sups"][key], sup, equal_nan=True), key
    if name == "blowup_cubic":
        assert not np.all(flow.completed)


def test_stopped_path_sups_are_those_of_its_live_rows():
    """A stopped path's residual and term sups (``blowup_cubic``) equal,
    bitwise, those of the same path on a grid that ends before its stop."""
    sc = get_scenario("blowup_cubic")
    d, flow = drivers_and_flow(sc, n_paths=6)
    got = kiw_verifier._run_level(sc, d, flow)
    h = flow.grid.h
    assert not np.any(flow.completed)
    for p, stop in enumerate(flow.stop_step.tolist()):
        grid = TimeGrid(h * (stop - 1), stop - 1)
        short = build_driving_paths(grid, sc.sde.n_noise, sc.seed, 1, path_ids=d.path_ids[p:p + 1])
        assert np.array_equal(short.bm[0], d.bm[p, :stop])  # the same Brownian prefix
        alone = integrate_flow(sc.sde, short, sc.x0, sc.scheme)
        assert alone.completed[0]
        want = kiw_verifier._run_level(sc, short, alone)
        assert got["residual"][p] == want["residual"][0]
        assert got["term_sups"].keys() == want["term_sups"].keys()
        for key, sup in want["term_sups"].items():
            assert got["term_sups"][key][p] == sup[0], key


def _cubic_drift_variant(name):
    """The push-forward scenario ``name`` with a cubic drift, whose paths stop."""
    sc = get_scenario(name)
    x = coord_symbols(2)[0]
    sde = FlowSDE(vector_field(2, [x**3, 0.15 * x], name="cubic_drift"), sc.sde.diffusions,
                  sc.atlas)
    return replace(sc, sde=sde, x0=np.array([1.6, -0.2]), base_grid=TimeGrid(1.0, 16))


@pytest.mark.parametrize("name,stops", [("kiw_ito_pushforward_r2", {8}),
                                        ("kiw_strat_pushforward_r2", {5, 6})])
def test_pushforward_peels_every_live_row_of_a_stopped_path(name, stops):
    """On the live rows of stopped paths the push-forward's transported tensor
    and right-hand side equal, bitwise, those of a run on a grid that ends
    before the earliest stop, with the same drivers' Brownian prefix."""
    sc = _cubic_drift_variant(name)
    d, flow = drivers_and_flow(sc, n_paths=6)
    stopped = np.flatnonzero(~flow.completed)
    assert set(flow.stop_step[stopped].tolist()) == stops
    k = int(flow.stop_step.min())
    grid = TimeGrid(flow.grid.h * (k - 1), k - 1)
    short = drivers_for(sc, n_paths=6, grid=grid)
    assert np.array_equal(short.bm, d.bm[:, :k])
    alone = integrate_flow(sc.sde, short, sc.x0, sc.scheme)
    assert np.all(alone.completed)
    got, want = eval_rhs(sc, flow, d), eval_rhs(sc, alone, short)
    for attr in ("transported", "values"):
        assert np.array_equal(getattr(got, attr)[stopped, :k], getattr(want, attr)[stopped]), attr


def test_flow_path_slice_keeps_each_path():
    """A path slice of a flow is the flow of those paths, its hops renumbered."""
    sc = get_scenario("kunita_sphere_rotation")
    _, flow = drivers_and_flow(sc, n_paths=12)
    assert len({p for _, p, _, _ in flow.hops}) > 1
    part = flow.slice_paths(3, 9)
    assert part.n_paths == 6 and np.array_equal(part.path_ids, flow.path_ids[3:9])
    for pos in range(6):
        # one path is a one-path slice, of the whole flow or of the part
        want, got = flow.slice_paths(pos + 3, pos + 4), part.slice_paths(pos, pos + 1)
        assert got.hops == want.hops
        assert got.hops == tuple((k, 0, a, b) for k, p, a, b in flow.hops if p == pos + 3)
        for attr in ("path_ids", "stop_step", "charts", "states"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr


# bytes a study may use per state of its path block, on top of its flows and
# drivers: the jets, Lie terms and pullbacks of one block and the integrands,
# term series and sums of the block's right-hand side
BLOCK_STATE_BYTES = 256 * 8


def test_study_holds_its_flows_drivers_and_one_block(monkeypatch):
    """The memory guards, on one traced study.

    A 64-path ``kunita_sphere_rotation`` study of four levels, after a set-up
    study, in 1024-state blocks (one path of the 513-point finest level per
    block).  The loose bound holds no level's integrands or term series for
    all its paths at once: whole-level arrays take far more than the block
    allowance.  The tight bound counts the finest Brownian path once (the
    coarse levels are views of it) and half the block allowance (the
    sphere's constant coefficient stacks, its zero drift and the rotations'
    second partials, take no rows of a block): a study that stores every
    level's Brownian path apart, or fills constant stacks into per-state
    rows, exceeds it.  The reduction bound holds from the first level's
    reduction on, once the sweep and the monitors are done: the sphere's
    (0,2) metric reads no ``Jinv``, so each state holds ``n + n^2`` flow
    rows, not the sweep's ``n + 2n^2``; a study that keeps the released
    ``Jinv`` history exceeds it.
    """
    import tracemalloc

    monkeypatch.setattr(kiw_verifier, "_JET_BLOCK_STATES", 1024)
    sc = replace(get_scenario("kunita_sphere_rotation"), n_paths=64)
    convergence_study(sc, levels=1)  # compiles every evaluator the study reads
    n, N = sc.sde.dim, sc.sde.n_noise
    states = kiw_verifier.study_states(sc.n_paths, sc.base_grid.steps, 4)
    finest = kiw_verifier.study_states(sc.n_paths, sc.base_grid.steps * 8, 1)
    # per state: coordinates, chart id, Jacobian and inverse, the martingale
    # drivers (the sphere has no driver fields)
    per_state = n + 1 + 2 * n * n + len(sc.mart_specs)
    allowance = kiw_verifier._JET_BLOCK_STATES * BLOCK_STATE_BYTES
    # the Brownian path: per state of every level, or per state of the finest
    loose = states * (per_state + N) * 8 + allowance
    tight = (states * per_state + finest * N) * 8 + allowance // 2
    reduction = (states * (per_state - n * n) + finest * N) * 8 + allowance // 2
    run_level, swept = kiw_verifier._run_level, []

    def first_level_resets_the_peak(*args):
        if not swept:
            swept.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
        return run_level(*args)

    monkeypatch.setattr(kiw_verifier, "_run_level", first_level_resets_the_peak)
    tracemalloc.start()
    try:
        convergence_study(sc, levels=4)
        reduced = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    peak = max(swept[0], reduced)
    assert peak < loose, f"more than one block held: peak {peak} B, bound {loose} B"
    assert peak < tight, (f"a Brownian path per level or constant stacks in per-state rows: "
                          f"peak {peak} B, bound {tight} B")
    assert reduced < reduction, (f"the Jinv history held through the reduction: peak {reduced} "
                                 f"B, bound {reduction} B")


def test_a_driven_tensor_study_holds_one_driver_field_and_the_varying_coefficients():
    """The memory guard of a driven tensor, ``K_t = K0 + (A + M) G0``.

    The pinned ``kiw_ito_pullback_r2`` study of four levels, after a set-up
    study, in blocks of ``_JET_BLOCK_STATES``.  Beside the flows and
    drivers of every level, a block may hold the order-2 jets of ``K0``
    and of one driver field at a time, the latter twice while its
    program's rows are copied into its buffer, and the coefficient stacks
    that vary from state to state: the drift's and the first noise
    field's, none of the zero second noise field's.  A block that keeps
    ``G0``'s jets alive through ``K_t``'s Lie terms, or fills the zero
    field's stacks into per-state rows, exceeds it.
    """
    import tracemalloc

    sc = get_scenario("kiw_ito_pullback_r2")
    assert [xi.is_zero() for xi in sc.sde.diffusions] == [False, True]
    convergence_study(sc, levels=1)  # compiles every evaluator the study reads
    n, N = sc.sde.dim, sc.sde.n_noise
    states = kiw_verifier.study_states(sc.n_paths, sc.base_grid.steps, 4)
    finest = kiw_verifier.study_states(sc.n_paths, sc.base_grid.steps * 8, 1)
    # per state: coordinates, chart id, Jacobian and inverse, the driver weights
    per_state = n + 1 + 2 * n * n + len(sc.fv_specs) + len(sc.mart_specs)
    jet_rows = n ** sum(sc.K0.valence) * (1 + n + n * n)
    # the drift's value and partials, the first noise field's to second order
    coef_rows = n + n * n + n + n * n + n**3
    allowance = kiw_verifier._JET_BLOCK_STATES * 8 * (3 * jet_rows + coef_rows)
    bound = (states * per_state + finest * N) * 8 + allowance
    tracemalloc.start()
    try:
        convergence_study(sc, levels=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, (f"a driver field's jets held through K_t's terms, or per-state rows "
                          f"for a constant coefficient stack: peak {peak} B, bound {bound} B")


@pytest.mark.parametrize("n_workers", [1, 2])
def test_coarse_brownian_levels_are_views_of_the_finest(monkeypatch, n_workers):
    """Each chunk of a study hands the sweep coarse Brownian paths that share
    memory with the finest and equal, bitwise, those :func:`refine_dyadic`
    draws; each level keeps its own martingale drivers."""
    sc = replace(get_scenario("kiw_ito_pullback_r2"), n_paths=8)
    seen, sweep = [], kiw_verifier.integrate_flow_levels

    def recording(sde, levels, *args):
        seen.append(list(levels))
        return sweep(sde, levels, *args)

    monkeypatch.setattr(kiw_verifier, "integrate_flow_levels", recording)
    convergence_study(sc, levels=3, n_workers=n_workers)
    want = [drivers_for(sc)]
    want += [refine_dyadic(want[0])]
    want += [refine_dyadic(want[1])]
    assert len(seen) == n_workers
    start = 0
    for ds in seen:
        stop = start + ds[0].n_paths
        for lvl, d in enumerate(ds):
            assert np.array_equal(d.bm, want[lvl].bm[start:stop])
            assert np.array_equal(d.mart, want[lvl].mart[start:stop])
            if lvl < 2:
                assert np.shares_memory(d.bm, ds[2].bm)
                assert not np.shares_memory(d.mart, ds[2].mart)
        start = stop
    assert start == sc.n_paths


@pytest.mark.parametrize("name", [n for n in list_scenarios() if n != "kiw_push_lowreg"])
def test_jacobian_monitor_per_block_is_the_whole_level_monitor(monkeypatch, name):
    """A study takes the Jacobian monitor per path block and keeps the max;
    at one path per block each level's value is bitwise the whole level's,
    stopped paths (``blowup_cubic``) included."""
    sc = replace(get_scenario(name), n_paths=6)
    flows = integrate_flow_levels(sc.sde, [drivers_for(sc), refine_dyadic(drivers_for(sc))],
                                  sc.x0, sc.scheme)
    monkeypatch.setattr(kiw_verifier, "_JET_BLOCK_STATES", 1)
    report = convergence_study(sc, levels=2)
    for st, flow in zip(report.levels, flows):
        assert st.jac_consistency_max == flow.jac_consistency_max()
    if name == "blowup_cubic":
        assert not np.all(flows[0].completed)


@pytest.mark.parametrize("name", ["kunita_sphere_rotation", "kiw_ito_pullback_r2"])
def test_the_monitor_is_the_sweeps_whether_jinv_is_released_or_kept(monkeypatch, name):
    """Each level's ``jac_consistency_max`` is, bitwise, that of the sweep's
    record on the study's drivers: the study takes it before it releases
    the ``Jinv`` history (the sphere's (0,2) metric) or keeps it
    (``kiw_ito_pullback_r2``'s (1,1) field), in two chunks of several path
    blocks at the finest level."""
    monkeypatch.setattr(kiw_verifier, "_JET_BLOCK_STATES", 4096)
    sc = get_scenario(name)
    drivers = [drivers_for(sc)]
    while len(drivers) < 4:
        drivers.append(refine_dyadic(drivers[-1]))
    flows = integrate_flow_levels(sc.sde, drivers, sc.x0, sc.scheme)
    assert flows[-1].grid.npoints * sc.n_paths > 2 * kiw_verifier._JET_BLOCK_STATES
    report = convergence_study(sc, levels=4, n_workers=2)
    assert [st.jac_consistency_max for st in report.levels] == \
        [f.jac_consistency_max() for f in flows]


# the registered scenarios whose study pulls a contravariant slot back, the
# only ones that read the flow's Jinv: the (1,1) fields on the pull-back route
_READ_JINV = {"deterministic_drift", "kiw_ito_pullback_r2", "kiw_strat_pullback_r2"}


@pytest.mark.parametrize("name", [n for n in list_scenarios() if n != "kiw_push_lowreg"])
def test_a_study_releases_jinv_exactly_where_nothing_reads_it(monkeypatch, name):
    """Every block's right-hand side gets the flow's ``Jinv`` history on the
    (1,1) pull-back scenarios and on no other: not on the (0,k) pull-backs
    (the sphere among them), the push-forward (1,1) fields, which take the
    exact inverse, or the restart route."""
    sc = replace(get_scenario(name), n_paths=4)
    seen, rhs = [], kiw_verifier._rhs

    def recording(scenario, flow, drivers):
        seen.append(flow.inv_states is not None)
        return rhs(scenario, flow, drivers)

    monkeypatch.setattr(kiw_verifier, "_rhs", recording)
    convergence_study(sc, levels=2)
    assert len(seen) >= 2 and set(seen) == {name in _READ_JINV}


def test_a_study_does_not_import_numpy_ma():
    """No study step needs ``numpy.ma`` (``np.unique`` imports it)."""
    code = ("import sys\n"
            "from dataclasses import replace\n"
            "from flowtensor.kiw_verifier import convergence_study\n"
            "from flowtensor.scenarios import get_scenario\n"
            "sc = replace(get_scenario('kunita_sphere_rotation'), n_paths=8)\n"
            "convergence_study(sc, levels=1)\n"
            "print('numpy.ma' in sys.modules)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["False"]


def test_study_rejects_an_out_of_range_seed():
    with pytest.raises(ValueError, match="seed"):
        convergence_study(get_scenario("kiw_ito_pullback_r2"), levels=1, n_paths=2, seed=-3)


def test_study_needs_a_level_and_a_path():
    sc = get_scenario("identity")
    with pytest.raises(ValueError, match="level"):
        convergence_study(sc, levels=0)
    with pytest.raises(ValueError, match="n_paths=0"):
        convergence_study(sc, levels=1, n_paths=0)


@pytest.mark.parametrize("name", ["kiw_ito_pushforward_r2", "kunita_first_gbm"])
def test_bridge_rejects_pushforward_selectors(name):
    """The bridge identity is one of the pullback route's assemblies."""
    sc = get_scenario(name)
    d, flow = drivers_and_flow(sc, n_paths=4)
    with pytest.raises(WiringMismatch, match=sc.theorem):
        strat_ito_bridge_gap(sc, flow, d)


def test_rhs_reports_every_term_series():
    sc = get_scenario("kiw_ito_pullback_r2")
    d, flow = drivers_and_flow(sc, n_paths=8)
    out = eval_rhs(sc, flow, d)
    assert {"G_dA", "G_dM", "L_b", "L_xi", "bracket", "L2"} <= set(out.terms)
    for name, series in out.terms.items():
        assert series.shape[:2] == (8, d.grid.npoints)
        assert np.all(np.isfinite(series))


def test_realized_and_closed_form_brackets_converge_together():
    """The two bracket modes are distinct estimators of one identity."""
    sc = get_scenario("kiw_ito_pullback_bracket")
    a = convergence_study(sc, levels=3, n_paths=64)
    b = convergence_study(replace(sc, bracket_mode="realized"), levels=3, n_paths=64)
    ra = [lvl.rms_sup_residual for lvl in a.levels]
    rb = [lvl.rms_sup_residual for lvl in b.levels]
    assert ra[2] < ra[0] and rb[2] < rb[0]
    # the estimators approach each other as the grid refines
    assert abs(ra[2] - rb[2]) < abs(ra[0] - rb[0])


# ---------------------------------------------------------------------------
# expanded integrand check
# ---------------------------------------------------------------------------


def test_expanded_integrands_agree_on_random_jets():
    out = expanded_integrand_check(count=500, seed=3)
    assert out["passed"]
    assert out["max_rel_dev"] < 1e-9
    assert {"ds", "dB0", "dB1", "bracket00", "bracket01", "dA0"} <= set(out["deviations"])


def test_expanded_integrands_scalar_case_by_hand():
    """Third route for scalars: assemble b-dot-grad terms with loops."""
    rng = np.random.default_rng(12)
    state = _random_jet_states((0, 0), 2, 1, 1, 40, rng)
    got = _route_a_integrands(state, (0, 0))
    K, dK, _ = state["K"]
    b, _ = state["b"]
    xi, dxi, _ = state["xi"][0]
    S = state["S"]
    hand = np.zeros(40)
    for c in range(40):
        adv = sum(b[c, m] * dK[c, m] for m in range(2))
        sq = 0.0
        for m in range(2):
            for l in range(2):
                sq += xi[c, m] * dxi[c, l, m] * dK[c, l]
                sq += xi[c, m] * xi[c, l] * state["K"][2][c, m, l]
        hand[c] = S[c] * (adv + 0.5 * sq)
    assert_allclose(got["g1"], hand, rtol=1e-12, atol=1e-12)
    assert_allclose(got["g3"][0], S * state["G"][0][0], rtol=1e-12)


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------


def test_identity_scenario_residual_is_exactly_zero():
    rep = convergence_study(get_scenario("identity"), levels=2)
    for lvl in rep.levels:
        assert lvl.rms_sup_residual == 0.0
        assert lvl.max_sup_residual == 0.0
        assert lvl.blowup_fraction == 0.0
    assert np.isnan(rep.fitted_order)


def test_level_stats_shapes_and_grid_halving():
    rep = convergence_study(get_scenario("kiw_ito_pullback_r2"), levels=3, n_paths=16)
    hs = [lvl.h for lvl in rep.levels]
    assert hs[1] == pytest.approx(hs[0] / 2)
    assert hs[2] == pytest.approx(hs[0] / 4)
    assert all(lvl.n_paths == 16 for lvl in rep.levels)
    assert all(np.isfinite(lvl.jac_consistency_max) for lvl in rep.levels)
    assert rep.theorem == "KiwItoPullback"
    assert any("fitted" in line for line in rep.summary_lines())


def test_study_rejects_invalid_scenarios():
    sc = get_scenario("kiw_push_lowreg")
    with pytest.raises(HypothesisViolation):
        convergence_study(sc, levels=1, n_paths=2)


def test_blowup_scenario_reports_nan_rms():
    rep = convergence_study(get_scenario("blowup_cubic"), levels=1, n_paths=8)
    assert rep.levels[0].blowup_fraction == 1.0
    assert np.isnan(rep.levels[0].rms_sup_residual)


def test_restart_selector_checkpoints():
    sc = get_scenario("kunita_first_gbm")
    d, flow = drivers_and_flow(sc, n_paths=8)
    out = eval_rhs(sc, flow, d)
    idx = out.checkpoint_indices
    assert idx is not None
    assert np.all(np.diff(idx) > 0)
    assert idx[0] > 0 and idx[-1] <= d.grid.steps
    assert out.values.shape[:2] == (8, len(idx))
    lhs = eval_lhs(sc, flow, d)
    residual = np.abs(lhs[:, idx] - out.values)
    assert np.max(residual) < 1.0
    # the study's left-hand side: the transported tensor at the checkpoints only
    assert np.array_equal(out.transported, lhs[:, idx])


@pytest.mark.parametrize("kw", [dict(levels=64), dict(n_paths=10**23)])
def test_oversized_study_is_refused_before_drawing_drivers(monkeypatch, kw):
    def no_draws(*args, **kwargs):
        raise AssertionError("drivers drawn for an oversized study")

    monkeypatch.setattr(kiw_verifier, "build_driving_paths", no_draws)
    with pytest.raises(ValueError, match="MAX_STUDY_STATES"):
        convergence_study(get_scenario("identity"), **kw)


def test_study_states_bound():
    cap = kiw_verifier.MAX_STUDY_STATES
    pinned = get_scenario("kunita_sphere_rotation")
    assert kiw_verifier.study_states(pinned.n_paths, pinned.base_grid.steps, 4) == 192_800
    assert 50 * 192_800 <= cap
    assert kiw_verifier.study_states(1, cap - 1, 1) == cap
    with pytest.raises(ValueError):
        kiw_verifier.study_states(1, cap, 1)
    # 26 levels of one step already exceed 2**24 states; a huge count is
    # refused by its bit length, without forming 2**levels
    with pytest.raises(ValueError):
        kiw_verifier.study_states(1, 1, cap.bit_length() + 1)
    with pytest.raises(ValueError):
        kiw_verifier.study_states(1, 1, 10**30)


def test_study_seed_override_changes_draws():
    sc = get_scenario("kiw_ito_pullback_r2")
    a = convergence_study(sc, levels=1, n_paths=8, seed=1)
    b = convergence_study(sc, levels=1, n_paths=8, seed=2)
    assert a.levels[0].rms_sup_residual != b.levels[0].rms_sup_residual
    assert a.seed == 1 and b.seed == 2
