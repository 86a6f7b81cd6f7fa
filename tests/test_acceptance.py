"""Acceptance suite: every numbered check of the library's contract.

Each test records one pass/fail line with the measured quantities; the
lines are printed together after the run (see conftest).  The numbered
checks pin tolerances and, where stated, wall-clock budgets.
"""

import json
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import sympy as sp

from flowtensor.fields import (
    gbm_vector_field,
    random_tensor_field,
    random_vector_field,
    vector_field,
)
from flowtensor.flow import (
    FlowSDE,
    integrate_flow,
    inverse_flow_residual_ensemble,
    jacobian_fd_check,
)
from flowtensor.geometry import euclidean_atlas
from flowtensor.kiw_verifier import (
    convergence_study,
    expanded_integrand_check,
    eval_lhs,
    eval_rhs,
    strat_ito_bridge_gap,
    validate_scenario,
)
from flowtensor.scenarios import get_scenario
from flowtensor.stochastics import (
    DrivingPaths,
    TimeGrid,
    build_driving_paths,
    covariation,
    ito_integral,
    stratonovich_integral,
)
from flowtensor.tensor_calculus import (
    coord_symbols,
    lie_derivative,
    lie_derivative_fd_oracle,
)


def drivers_for(sc, n_paths=None):
    return build_driving_paths(
        sc.base_grid,
        sc.sde.n_noise,
        sc.seed,
        n_paths or sc.n_paths,
        fv_specs=sc.fv_specs,
        mart_specs=sc.mart_specs,
    )


def test_criterion_01_lie_derivative_against_flow_oracle(criterion):
    """Analytic Lie derivatives match the flow-based finite-difference oracle."""
    t0 = time.perf_counter()
    families = [
        ((0, 1), "poly"),
        ((1, 0), "trig"),
        ((1, 1), "poly"),
        ((0, 2), "trig"),
        ((2, 0), "poly"),
    ]
    rng = np.random.default_rng(1234)
    worst = 0.0
    draws = 0
    for valence, kind in families:
        K0 = random_tensor_field(valence, 2, rng, kind=kind, scale=0.8)
        X0 = random_vector_field(2, rng, kind=kind, scale=0.8)
        D0 = lie_derivative(K0, X0)
        ksyms = [s for s, _ in K0.params]
        xsyms = [s for s, _ in X0.params]
        for _ in range(20):
            kv = dict(zip(ksyms, 0.8 * rng.standard_normal(len(ksyms))))
            xv = dict(zip(xsyms, 0.8 * rng.standard_normal(len(xsyms))))
            K = K0.with_params(kv)
            X = X0.with_params(xv)
            D = D0.with_params({**kv, **xv})
            pt = rng.uniform(-0.7, 0.7, size=2)
            sym = D.eval(0.0, pt).components
            fd = lie_derivative_fd_oracle(K, X, 0.0, pt, eps=1e-4).components
            worst = max(worst, np.max(np.abs(sym - fd)) / max(1.0, np.max(np.abs(sym))))
            draws += 1
    elapsed = time.perf_counter() - t0
    criterion(
        1,
        draws == 100 and worst <= 1e-6 and elapsed < 5.0,
        f"{draws} field/point draws, worst relative deviation {worst:.2e} "
        f"(tol 1e-6), {elapsed:.1f}s (budget 5s)",
    )


def test_criterion_02_expanded_integrands_on_random_states(criterion):
    """Both assemblies of every integrand family agree on random jet data."""
    t0 = time.perf_counter()
    out = expanded_integrand_check(valence=(1, 1), dim=2, count=10_000, seed=7)
    elapsed = time.perf_counter() - t0
    families = {"ds", "dB0", "dB1", "bracket00", "bracket01", "dA0"}
    criterion(
        2,
        out["passed"]
        and out["max_rel_dev"] <= 1e-9
        and families <= set(out["deviations"])
        and elapsed < 10.0,
        f"10^4 states, worst family deviation {out['max_rel_dev']:.2e} "
        f"(tol 1e-9), {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_03_discrete_calculus_identities(criterion):
    rng = np.random.default_rng(77)
    worst_gap = 0.0
    for _ in range(10):
        f = np.cumsum(rng.standard_normal((100, 65)), axis=-1)
        x = np.cumsum(rng.standard_normal((100, 65)), axis=-1)
        gap = stratonovich_integral(f, x) - ito_integral(f, x) - 0.5 * covariation(f, x)
        worst_gap = max(worst_gap, float(np.max(np.abs(gap))))
    grid = TimeGrid(1.0, 64)
    b = build_driving_paths(grid, 1, 404, 10_000).bm[:, :, 0]
    qv_rms = float(np.sqrt(np.mean((covariation(b, b)[:, -1] - grid.horizon) ** 2)))
    qv_bound = 3.0 * np.sqrt(2.0 * grid.h * grid.horizon)
    criterion(
        3,
        worst_gap <= 1e-12 and qv_rms <= qv_bound,
        f"conversion identity gap {worst_gap:.2e} on 10^3 path pairs (tol 1e-12); "
        f"quadratic variation rms error {qv_rms:.3f} (bound {qv_bound:.3f})",
    )


def test_criterion_04_static_reduction_and_sphere_order(criterion):
    t0 = time.perf_counter()
    sc = get_scenario("kunita_sphere_rotation")
    d = drivers_for(sc, n_paths=16)
    flow = integrate_flow(sc.sde, d, sc.x0, sc.scheme)
    moving = eval_rhs(replace(sc, theorem="KiwItoPullback"), flow, d)
    static = eval_rhs(sc, flow, d)
    bitwise = np.array_equal(moving.values, static.values)
    rep = convergence_study(sc, levels=4)
    elapsed = time.perf_counter() - t0
    criterion(
        4,
        bitwise and 0.35 <= rep.fitted_order <= 0.75 and elapsed < 60.0,
        f"no-driver reduction bitwise: {bitwise}; sphere scenario fitted order "
        f"{rep.fitted_order:.3f} (band [0.35, 0.75]), {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_05_ito_pullback_order_and_lognormal_closed_form(criterion):
    t0 = time.perf_counter()
    sc = get_scenario("kiw_ito_pullback_r2")
    # the tensor path is driven by a time ramp and a Brownian component
    # the flow never sees (its diffusion there is the zero field)
    assert len(sc.fv_specs) == 1 and len(sc.mart_specs) == 1
    assert sc.mart_specs[0].kind == "bm" and sc.mart_specs[0].component == 1
    rep = convergence_study(sc, levels=4)

    gbm = get_scenario("gbm_oneform")
    d = drivers_for(gbm)
    hs, rmss = [], []
    for lvl in range(4):
        flow = integrate_flow(gbm.sde, d, gbm.x0, gbm.scheme)
        lhs = eval_lhs(gbm, flow, d)
        dev = np.max(np.abs(lhs[:, :, 0] - np.exp(d.bm[:, :, 0])), axis=1)
        hs.append(d.grid.h)
        rmss.append(float(np.sqrt(np.mean(dev**2))))
        if lvl < 3:
            from flowtensor.stochastics import refine_dyadic

            d = refine_dyadic(d)
    closed_order = float(np.polyfit(np.log2(hs), np.log2(rmss), 1)[0])
    elapsed = time.perf_counter() - t0
    criterion(
        5,
        0.35 <= rep.fitted_order <= 0.75
        and 0.35 <= closed_order <= 0.75
        and elapsed < 60.0,
        f"moving-tensor scenario fitted order {rep.fitted_order:.3f}; log-normal "
        f"pullback vs exp(B_t) dx order {closed_order:.3f} (band [0.35, 0.75]), "
        f"{elapsed:.1f}s (budget 60s)",
    )


def test_criterion_06_ito_pushforward_order(criterion):
    t0 = time.perf_counter()
    sc = get_scenario("kiw_ito_pushforward_r2")
    validate_scenario(sc)  # the registered fields satisfy the k = 3 demand
    rep = convergence_study(sc, levels=4)
    elapsed = time.perf_counter() - t0
    criterion(
        6,
        rep.fitted_order >= 0.3 and elapsed < 120.0,
        f"pushforward scenario fitted order {rep.fitted_order:.3f} (floor 0.3), "
        f"{elapsed:.1f}s (budget 120s)",
    )


def test_criterion_07_midpoint_scheme_band_and_bridge(criterion):
    """Midpoint-calculus identity on the midpoint scheme.

    The trapezoid assembly tracks the Heun flow at first order, so the
    half-order content of the identity is read off the left-point
    assembly of the same paths; the two assemblies are tied by the
    discrete conversion identity, checked here at the coarsest level.
    """
    t0 = time.perf_counter()
    base = get_scenario("kiw_strat_pullback_r2")
    canon = replace(base, base_grid=TimeGrid(1.0, 64), n_paths=200, seed=35)
    rep = convergence_study(replace(canon, theorem="KiwItoPullback"), levels=4)
    d = drivers_for(canon)
    flow = integrate_flow(canon.sde, d, canon.x0, canon.scheme)
    gap = strat_ito_bridge_gap(canon, flow, d)
    elapsed = time.perf_counter() - t0
    criterion(
        7,
        0.35 <= rep.fitted_order <= 0.75 and gap <= 1e-10,
        f"left-point assembly on the midpoint flow fitted order {rep.fitted_order:.3f} "
        f"(band [0.35, 0.75]); assembly bridge gap {gap:.2e} (tol 1e-10), {elapsed:.1f}s",
    )


def test_criterion_08_degenerate_reductions(criterion):
    idn = convergence_study(get_scenario("identity"), levels=4)
    max_resid = max(lvl.max_sup_residual for lvl in idn.levels)
    det = convergence_study(get_scenario("deterministic_drift"), levels=4)
    criterion(
        8,
        max_resid <= 1e-12 and det.fitted_order >= 0.9,
        f"frozen-flow residual {max_resid:.1e} (tol 1e-12); noiseless scenario "
        f"fitted order {det.fitted_order:.3f} (floor 0.9)",
    )


def test_criterion_09_flow_machinery(criterion):
    X = coord_symbols(2)
    drift = vector_field(
        2, [sp.sin(X[0]) + X[1] / 2, sp.cos(X[1]) - X[0] / 3], name="swirl"
    )
    n1 = vector_field(2, [X[1] ** 2 / 8 + sp.Rational(1, 2), X[0] / 4], name="q1")
    n2 = vector_field(2, [sp.cos(X[0]) / 3, sp.sin(X[1]) / 2 + sp.Rational(1, 4)], name="q2")
    sde = FlowSDE(drift, [n1, n2], euclidean_atlas(2))
    grid = TimeGrid(1.0, 16)
    d = build_driving_paths(grid, 2, 21, 6)
    fd_dev = jacobian_fd_check(sde, d, np.array([0.2, -0.1]), "euler_maruyama")
    fd_bound = max(1e-4, 10.0 * np.sqrt(grid.h))

    x1 = coord_symbols(1)[0]
    line = FlowSDE(
        vector_field(1, [sp.sin(x1)], name="sin_drift"),
        [vector_field(1, [sp.Integer(1) + x1**2 / 10], name="soft_quad")],
        euclidean_atlas(1),
    )
    rms = []
    for steps in (16, 64):
        dl = build_driving_paths(TimeGrid(1.0, steps), 1, 77, 64)
        ens = integrate_flow(line, dl, np.array([0.3]), "euler_maruyama")
        res = inverse_flow_residual_ensemble(ens, line, dl)
        rms.append(float(np.sqrt(np.mean(res[:, -1] ** 2))))
    inv_order = float(np.log(rms[0] / rms[1]) / np.log(4.0))

    full = integrate_flow(sde, d, np.array([0.2, -0.4]), "euler_maruyama")
    half = grid.steps // 2
    tail = DrivingPaths(
        grid=TimeGrid(grid.horizon / 2, half),
        seed=d.seed,
        level=d.level,
        path_ids=d.path_ids,
        bm=d.bm[:, half:, :],
        fv=d.fv[half:, :],
        mart=d.mart[:, half:, :],
        fv_specs=d.fv_specs,
        mart_specs=d.mart_specs,
    )
    split_bitwise = True
    for p in range(d.bm.shape[0]):
        restart = integrate_flow(
            sde, tail.slice_paths(p, p + 1), full.coords[half][p], "euler_maruyama"
        )
        split_bitwise &= bool(
            np.array_equal(restart.coords[:, 0, :], full.coords[half:, p, :])
        )

    sph = get_scenario("kunita_sphere_rotation")
    ds = drivers_for(sph)
    ens = integrate_flow(sph.sde, ds, sph.x0, sph.scheme)
    hops = len(ens.hops)
    blowup = ens.blowup_fraction()

    criterion(
        9,
        fd_dev <= fd_bound
        and inv_order >= 0.45
        and split_bitwise
        and hops >= 1
        and blowup == 0.0,
        f"tangent-map deviation {fd_dev:.1e} (bound {fd_bound:.2g}); inverse "
        f"reconstruction order {inv_order:.2f} (floor 0.45 for a sqrt(h) bound); "
        f"split-run bitwise: {split_bitwise}; sphere run hops={hops}, blowup={blowup:.2f}",
    )


def test_criterion_10_byte_identical_reports_across_worker_counts(criterion, tmp_path):
    cmd = [sys.executable, "-m", "flowtensor.cli", "kiw_ito_pullback_bracket",
           "--paths", "32", "--levels", "2"]
    outputs = {}
    for workers in ("1", "8"):
        out_dir = tmp_path / f"w{workers}"
        env = dict(os.environ, FLOWTENSOR_WORKERS=workers)
        r = subprocess.run(
            cmd + ["--out", str(out_dir)], capture_output=True, text=True, env=env
        )
        assert r.returncode == 0, r.stderr
        outputs[workers] = (
            (out_dir / "kiw_ito_pullback_bracket.csv").read_bytes(),
            (out_dir / "kiw_ito_pullback_bracket.manifest.json").read_bytes(),
        )
    same_csv = outputs["1"][0] == outputs["8"][0]
    same_manifest = outputs["1"][1] == outputs["8"][1]
    criterion(
        10,
        same_csv and same_manifest,
        f"workers 1 vs 8: csv identical {same_csv}, manifest identical {same_manifest}",
    )
