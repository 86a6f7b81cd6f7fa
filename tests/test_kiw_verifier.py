"""Transport identities: scenario wiring, dual-route checks, assemblies."""

import numpy as np
import pytest
import sympy as sp
from dataclasses import replace
from numpy.testing import assert_allclose

from flowtensor.fields import (
    coordinate_one_form,
    gbm_vector_field,
    scalar_field,
    tensor_field,
    vector_field,
)
from flowtensor.flow import FlowSDE, integrate_flow
from flowtensor.geometry import euclidean_atlas
from flowtensor.kiw_verifier import (
    THEOREMS,
    HypothesisViolation,
    Scenario,
    WiringMismatch,
    convergence_study,
    eval_lhs,
    eval_rhs,
    expanded_integrand_check,
    strat_ito_bridge_gap,
    synthesize_K_path,
    validate_scenario,
)
from flowtensor import kiw_verifier
from flowtensor.kiw_verifier import (
    _pull_path,
    _pullback_integrand_paths,
    _random_jet_states,
    _route_a_integrands,
)
from flowtensor.scenarios import get_scenario, list_scenarios, scenario_table
from flowtensor.stochastics import TimeGrid, build_driving_paths
from flowtensor.tensor_calculus import coord_symbols, lie_derivative


def drivers_for(sc, n_paths=None, grid=None):
    return build_driving_paths(
        grid or sc.base_grid,
        sc.sde.n_noise,
        sc.seed,
        n_paths or sc.n_paths,
        fv_specs=sc.fv_specs,
        mart_specs=sc.mart_specs,
    )


def flow_and_kpath(sc, n_paths=None):
    d = drivers_for(sc, n_paths)
    flow = integrate_flow(sc.sde, d, sc.x0, sc.scheme, sc.start_chart)
    return d, flow, synthesize_K_path(sc, d)


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
    from flowtensor.stochastics import FvSpec, MartSpec

    sc = scalar_scenario(
        G=(coordinate_one_form(1, 0),),
        fv_specs=(FvSpec("a", lambda t: t),),
        mart_specs=(MartSpec("m", "zero"),),
    )
    with pytest.raises(WiringMismatch):
        validate_scenario(sc)


def test_wiring_rejects_valence_mismatch_in_drivers():
    from flowtensor.stochastics import FvSpec, MartSpec

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


def test_pushforward_needs_single_chart():
    sphere = get_scenario("kunita_sphere_rotation")
    sc = replace(sphere, theorem="KiwItoPushforward")
    with pytest.raises(WiringMismatch):
        validate_scenario(sc)


def test_restart_selector_is_euler_only():
    sc = scalar_scenario(theorem="KunitaFirst", scheme="heun")
    with pytest.raises(WiringMismatch):
        validate_scenario(sc)


def test_kpath_needs_time_independent_fields():
    from flowtensor.tensor_calculus import TIME

    sc = scalar_scenario(K0=tensor_field((0, 1), 1, [TIME], name="tdx"))
    d = drivers_for(sc)
    with pytest.raises(WiringMismatch):
        synthesize_K_path(sc, d)


def test_kpath_weights_are_driver_sums():
    sc = get_scenario("kiw_ito_pullback_r2")
    d = drivers_for(sc, n_paths=6)
    kp = synthesize_K_path(sc, d)
    assert np.array_equal(kp.weights, d.fv[None, :, :] + d.mart)


# ---------------------------------------------------------------------------
# dual-route and reduction invariants
# ---------------------------------------------------------------------------


def test_static_reduction_is_bitwise():
    """With no driver fields the moving-tensor selector collapses exactly."""
    sc = get_scenario("kunita_sphere_rotation")
    d, flow, kp = flow_and_kpath(sc, n_paths=16)
    a = eval_rhs(sc, flow, kp, d)
    b = eval_rhs(replace(sc, theorem="KiwItoPullback"), flow, kp, d)
    assert np.array_equal(a.values, b.values)


def _symbolic_integrand_paths(sc, flow, kp, strat):
    """Reference integrands: symbolic Lie fields evaluated and pulled back."""
    fields = [sc.K0, *sc.G]
    val = [_pull_path(f, flow) for f in fields]
    paths = {"K": kp.combine(val[0], val[1:])}
    paths.update({f"G{i}": v for i, v in enumerate(val[1:])})
    lb = [_pull_path(lie_derivative(f, sc.sde.drift), flow) for f in fields]
    paths["LbK"] = kp.combine(lb[0], lb[1:])
    for j, xi in enumerate(sc.sde.diffusions):
        lx_fields = [lie_derivative(f, xi) for f in fields]
        lx = [_pull_path(f, flow) for f in lx_fields]
        paths[f"LxK{j}"] = kp.combine(lx[0], lx[1:])
        paths.update({f"LxG{i}_{j}": v for i, v in enumerate(lx[1:])})
        if not strat:
            ll = [_pull_path(lie_derivative(f, xi), flow) for f in lx_fields]
            paths[f"LLK{j}"] = kp.combine(ll[0], ll[1:])
    return paths


@pytest.mark.parametrize(
    "name,n_paths",
    [
        ("kiw_ito_pullback_r2", 6),
        ("kiw_strat_pullback_r2", 6),
        ("scalar_itowentzell_r2", 6),
        ("kiw_ito_pullback_bracket", 6),
        ("kunita_sphere_rotation", 12),
    ],
)
def test_jet_integrands_match_symbolic_lie_fields(name, n_paths):
    """The jet route reproduces the symbolic Lie fields, pulled back."""
    sc = get_scenario(name)
    d, flow, kp = flow_and_kpath(sc, n_paths=n_paths)
    if len(sc.atlas.charts) > 1:
        assert len(flow.hops) > 0  # both charts' components are exercised
    strat = sc.theorem == "KiwStratPullback"
    got = _pullback_integrand_paths(sc, flow, kp, strat)
    want = _symbolic_integrand_paths(sc, flow, kp, strat)
    assert set(got) == set(want)
    # terms that vanish identically (rotations about the sphere's axis
    # leave the weighted metric invariant) are exact zeros symbolically
    # and round-off from the jets, hence the absolute floor at the
    # scale of the integrands
    scale = max(float(np.max(np.abs(v))) for v in want.values())
    for key, val in want.items():
        assert_allclose(got[key], val, rtol=1e-11, atol=1e-11 * scale, err_msg=key)


def test_jet_integrands_do_not_depend_on_the_block_size(monkeypatch):
    sc = get_scenario("kunita_sphere_rotation")
    d, flow, kp = flow_and_kpath(sc, n_paths=12)
    assert len(flow.hops) > 0
    default = _pullback_integrand_paths(sc, flow, kp, strat=False)
    monkeypatch.setattr(kiw_verifier, "_JET_BLOCK_STATES", 1)  # one grid row per block
    rowwise = _pullback_integrand_paths(sc, flow, kp, strat=False)
    assert set(default) == set(rowwise)
    for key in default:
        assert np.array_equal(default[key], rowwise[key]), key


def test_scalar_selector_shares_the_tensor_code_path():
    sc = get_scenario("scalar_itowentzell_r2")
    d, flow, kp = flow_and_kpath(sc, n_paths=16)
    a = eval_rhs(sc, flow, kp, d)
    b = eval_rhs(replace(sc, theorem="KiwItoPullback"), flow, kp, d)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(eval_lhs(sc, flow, kp), eval_lhs(replace(sc, theorem="KiwItoPullback"), flow, kp))


def test_scalar_lhs_is_direct_composition():
    sc = get_scenario("scalar_itowentzell_r2")
    d, flow, kp = flow_and_kpath(sc, n_paths=8)
    lhs = eval_lhs(sc, flow, kp)
    times = d.grid.times()
    for k in (0, 3, d.grid.steps):
        base = sc.K0.eval_batch(times[k], flow.coords[k], 0)
        for i, g in enumerate(sc.G):
            base = base + kp.weights[:, k, i] * g.eval_batch(times[k], flow.coords[k], 0)
        assert np.array_equal(lhs[:, k], base)


def test_pullback_of_coordinate_form_is_the_jacobian_row():
    sc = get_scenario("gbm_oneform")
    d, flow, kp = flow_and_kpath(sc, n_paths=8)
    lhs = eval_lhs(sc, flow, kp)
    # in one dimension the pullback of dx scales by the flow Jacobian
    assert_allclose(lhs[:, :, 0], flow.jac[:, :, 0, 0].T, atol=1e-15)


def test_linear_coefficients_telescope_to_zero_residual():
    sc = get_scenario("gbm_oneform")
    d, flow, kp = flow_and_kpath(sc)
    lhs = eval_lhs(sc, flow, kp)
    rhs = eval_rhs(sc, flow, kp, d)
    assert np.max(np.abs(lhs - rhs.values)) < 1e-12


def test_bridge_identity_between_assemblies():
    sc = get_scenario("kiw_strat_pullback_r2")
    d, flow, kp = flow_and_kpath(sc)
    assert strat_ito_bridge_gap(sc, flow, kp, d) < 1e-10


def test_bridge_rejects_pushforward_selectors():
    sc = get_scenario("kiw_ito_pushforward_r2")
    d, flow, kp = flow_and_kpath(sc, n_paths=4)
    with pytest.raises(WiringMismatch):
        strat_ito_bridge_gap(sc, flow, kp, d)


def test_rhs_reports_every_term_series():
    sc = get_scenario("kiw_ito_pullback_r2")
    d, flow, kp = flow_and_kpath(sc, n_paths=8)
    out = eval_rhs(sc, flow, kp, d)
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
    d, flow, kp = flow_and_kpath(sc, n_paths=8)
    out = eval_rhs(sc, flow, kp, d)
    idx = out.checkpoint_indices
    assert idx is not None
    assert np.all(np.diff(idx) > 0)
    assert idx[0] > 0 and idx[-1] <= d.grid.steps
    assert out.values.shape[:2] == (8, len(idx))
    lhs = eval_lhs(sc, flow, kp)
    residual = np.abs(lhs[:, idx] - out.values)
    assert np.max(residual) < 1.0


def test_study_seed_override_changes_draws():
    sc = get_scenario("kiw_ito_pullback_r2")
    a = convergence_study(sc, levels=1, n_paths=8, seed=1)
    b = convergence_study(sc, levels=1, n_paths=8, seed=2)
    assert a.levels[0].rms_sup_residual != b.levels[0].rms_sup_residual
    assert a.seed == 1 and b.seed == 2
