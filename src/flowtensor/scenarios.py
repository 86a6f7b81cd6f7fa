"""Ready-made verification scenarios.

Each entry wires a flow, a tensor field path and an identity selector
into a :class:`~flowtensor.kiw_verifier.Scenario` with a fixed seed,
grid and path count, so a run is reproducible from the name alone.
``expected_order`` is the band the fitted residual-decay order is
expected to land in for the default refinement depth; entries without a
band either converge to round-off immediately (deterministic identity
cases) or are deliberately broken (low-regularity and blow-up entries).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np
import sympy as sp

from .fields import (
    DEFAULT_SMOOTHNESS,
    coordinate_one_form,
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
from .flow import FlowSDE
from .geometry import euclidean_atlas, sphere_atlas
from .kiw_verifier import Scenario
from .stochastics import FvSpec, MartSpec, TimeGrid
from .tensor_calculus import TensorFieldSpec, VectorFieldSpec, coord_symbols

__all__ = ["list_scenarios", "get_scenario", "scenario_table"]

_BUILDERS: Dict[str, callable] = {}
_CACHE: Dict[str, Scenario] = {}


def _register(name):
    def deco(fn):
        _BUILDERS[name] = fn
        return fn

    return deco


def list_scenarios() -> Tuple[str, ...]:
    return tuple(_BUILDERS)


def get_scenario(name: str) -> Scenario:
    if name not in _BUILDERS:
        known = ", ".join(_BUILDERS)
        raise KeyError(f"unknown scenario {name!r}; known scenarios: {known}")
    if name not in _CACHE:
        _CACHE[name] = _BUILDERS[name]()
    return _CACHE[name]


def scenario_table() -> Tuple[Tuple[str, str, str], ...]:
    """(name, selector, description) rows for every registered scenario."""
    return tuple(
        (name, get_scenario(name).theorem, get_scenario(name).description)
        for name in _BUILDERS
    )


# ---------------------------------------------------------------------------
# pullback family
# ---------------------------------------------------------------------------


@_register("identity")
def _identity() -> Scenario:
    X = coord_symbols(1)[0]
    sde = FlowSDE(
        drift=vector_field(1, [sp.Integer(0)], name="zero"),
        diffusions=(),
        atlas=euclidean_atlas(1),
    )
    return Scenario(
        name="identity",
        description="frozen flow on the line; both sides stay at the initial tensor",
        theorem="KunitaSecond",
        sde=sde,
        K0=tensor_field((0, 1), 1, [X], name="x_dx"),
        x0=np.array([0.5]),
        base_grid=TimeGrid(1.0, 8),
        n_paths=4,
        seed=11,
    )


@_register("deterministic_drift")
def _deterministic_drift() -> Scenario:
    X, Y = coord_symbols(2)
    K0 = tensor_field(
        (1, 1), 2, [[X, Y], [X * Y, sp.Integer(1)]], name="poly_mixed"
    )
    sde = FlowSDE(
        drift=rotation_field_2d(1.0),
        diffusions=(),
        atlas=euclidean_atlas(2),
    )
    return Scenario(
        name="deterministic_drift",
        description="rigid rotation of the plane, no noise; first-order residual decay",
        theorem="KunitaSecond",
        sde=sde,
        K0=K0,
        x0=np.array([0.8, 0.1]),
        base_grid=TimeGrid(1.0, 16),
        n_paths=4,
        seed=12,
        expected_order=(0.7, 1.3),
    )


@_register("kunita_sphere_rotation")
def _kunita_sphere_rotation() -> Scenario:
    X, Y = coord_symbols(2)
    rho = X**2 + Y**2
    lam = 4 / (1 + rho) ** 2
    # conformal factor 1 + z/2 written per chart so the rotation noises
    # about the x and y axes see a non-invariant tensor
    f_north = 1 + (1 - rho) / (2 * (1 + rho))
    f_south = 1 + (rho - 1) / (2 * (1 + rho))
    K0 = TensorFieldSpec(
        (0, 2),
        2,
        {
            0: [[lam * f_north, sp.Integer(0)], [sp.Integer(0), lam * f_north]],
            1: [[lam * f_south, sp.Integer(0)], [sp.Integer(0), lam * f_south]],
        },
        DEFAULT_SMOOTHNESS,
        name="weighted_round_metric",
    )
    zero = VectorFieldSpec(
        2,
        {0: [sp.Integer(0), sp.Integer(0)], 1: [sp.Integer(0), sp.Integer(0)]},
        DEFAULT_SMOOTHNESS,
        name="zero",
    )
    sde = FlowSDE(
        drift=zero,
        diffusions=sphere_rotation_fields((0.8, 0.9, 1.1)),
        atlas=sphere_atlas(),
    )
    return Scenario(
        name="kunita_sphere_rotation",
        description="random rotations of the sphere acting on a weighted round metric; "
        "paths hop between the stereographic charts",
        theorem="KunitaSecond",
        sde=sde,
        K0=K0,
        x0=np.array([0.9, 0.5]),
        base_grid=TimeGrid(1.0, 64),
        n_paths=200,
        seed=21,
        expected_order=(0.35, 0.75),
    )


@_register("gbm_oneform")
def _gbm_oneform() -> Scenario:
    # with zero drift the unit log-normal noise integrates to the
    # Stratonovich exponential x * exp(B_t), so the pulled-back one-form
    # has the closed form exp(B_t) dx used by the oracle tests
    sde = FlowSDE(
        drift=vector_field(1, [sp.Integer(0)], name="zero_drift"),
        diffusions=(gbm_vector_field(1.0),),
        atlas=euclidean_atlas(1),
    )
    return Scenario(
        name="gbm_oneform",
        description="log-normal flow on the line pulling back the constant one-form; "
        "with linear coefficients the discrete identity telescopes "
        "exactly, and the transported values have a closed form",
        theorem="KiwItoPullback",
        sde=sde,
        K0=coordinate_one_form(1, 0),
        x0=np.array([1.0]),
        base_grid=TimeGrid(1.0, 16),
        n_paths=96,
        seed=31,
    )


@_register("kiw_ito_pullback_r2")
def _kiw_ito_pullback_r2() -> Scenario:
    rng = np.random.default_rng(404)
    drift = random_vector_field(2, rng, degree=2, kind="trig", scale=0.3, prefix="xd",
                                name="trig_drift")
    xi1 = random_vector_field(2, rng, degree=2, kind="trig", scale=0.5, prefix="xa",
                              name="trig_noise")
    # second Brownian component drives only the tensor path: the flow sees
    # a zero field there, so the martingale weight is independent of the
    # noise actually moving the points
    xi2 = vector_field(2, [sp.Integer(0), sp.Integer(0)], name="zero_noise")
    K0 = random_tensor_field((1, 1), 2, rng, degree=2, scale=0.5, prefix="kc", name="polyK")
    G0 = random_tensor_field((1, 1), 2, rng, degree=2, scale=0.4, prefix="gc", name="polyG")
    sde = FlowSDE(drift=drift, diffusions=(xi1, xi2), atlas=euclidean_atlas(2))
    return Scenario(
        name="kiw_ito_pullback_r2",
        description="planar flow driven by one bounded noise transporting a mixed "
        "tensor whose weights follow a time ramp and an independent "
        "Brownian component",
        theorem="KiwItoPullback",
        sde=sde,
        K0=K0,
        G=(G0,),
        fv_specs=(FvSpec("t", lambda t: t),),
        mart_specs=(MartSpec("mart_bm", "bm", component=1),),
        x0=np.array([0.3, -0.2]),
        base_grid=TimeGrid(1.0, 16),
        n_paths=96,
        seed=32,
        expected_order=(0.35, 0.75),
    )


@_register("kiw_ito_pullback_bracket")
def _kiw_ito_pullback_bracket() -> Scenario:
    X = coord_symbols(1)[0]
    sde = FlowSDE(
        drift=linear_vector_field([[0.05]], name="lin_drift"),
        diffusions=(gbm_vector_field(0.35),),
        atlas=euclidean_atlas(1),
    )
    two_pi = 2.0 * np.pi
    return Scenario(
        name="kiw_ito_pullback_bracket",
        description="line flow whose martingale driver integrates a periodic volatility "
        "against the flow noise, so the bracket term carries weight",
        theorem="KiwItoPullback",
        sde=sde,
        K0=tensor_field((0, 1), 1, [X], name="x_dx"),
        G=(coordinate_one_form(1, 0),),
        fv_specs=(FvSpec("ramp", lambda t: 0.3 * t),),
        mart_specs=(
            MartSpec(
                "sigma_int",
                "sigma_int",
                component=0,
                sigma=lambda t: 1.0 + 0.5 * np.cos(two_pi * t),
                sigma_antideriv=lambda t: t + 0.5 * np.sin(two_pi * t) / two_pi,
            ),
        ),
        x0=np.array([1.0]),
        base_grid=TimeGrid(1.0, 16),
        n_paths=96,
        seed=33,
        expected_order=(0.35, 0.75),
    )


@_register("scalar_itowentzell_r2")
def _scalar_itowentzell_r2() -> Scenario:
    X, Y = coord_symbols(2)
    rng = np.random.default_rng(505)
    drift = random_vector_field(2, rng, degree=2, kind="trig", scale=0.3, prefix="sd",
                                name="trig_drift")
    xi = random_vector_field(2, rng, degree=2, kind="trig", scale=0.5, prefix="sn",
                             name="trig_noise")
    K0 = tensor_field((0, 0), 2, 1 + X + sp.Rational(1, 2) * X * Y - Y**2, name="poly_f")
    G0 = tensor_field((0, 0), 2, sp.Rational(1, 2) * X - sp.Rational(1, 4) * Y, name="poly_g")
    sde = FlowSDE(drift=drift, diffusions=(xi,), atlas=euclidean_atlas(2))
    return Scenario(
        name="scalar_itowentzell_r2",
        description="scalar field composed with a planar flow, one Brownian and one "
        "smooth ramp driver",
        theorem="ScalarItoWentzell",
        sde=sde,
        K0=K0,
        G=(G0,),
        fv_specs=(FvSpec("slope", lambda t: np.sin(t)),),
        mart_specs=(MartSpec("mart_bm", "bm", component=0),),
        x0=np.array([0.4, 0.1]),
        base_grid=TimeGrid(1.0, 16),
        n_paths=96,
        seed=34,
        expected_order=(0.35, 0.75),
    )


@_register("kiw_strat_pullback_r2")
def _kiw_strat_pullback_r2() -> Scenario:
    rng = np.random.default_rng(606)
    drift = random_vector_field(2, rng, degree=2, kind="trig", scale=0.3, prefix="td",
                                name="trig_drift")
    xi1 = random_vector_field(2, rng, degree=2, kind="trig", scale=0.45, prefix="ta",
                              name="trig_noise_a")
    xi2 = random_vector_field(2, rng, degree=2, kind="trig", scale=0.45, prefix="tb",
                              name="trig_noise_b")
    K0 = random_tensor_field((1, 1), 2, rng, degree=2, scale=0.4, prefix="tk", name="polyK")
    G0 = random_tensor_field((1, 1), 2, rng, degree=2, scale=0.3, prefix="tg", name="polyG")
    sde = FlowSDE(drift=drift, diffusions=(xi1, xi2), atlas=euclidean_atlas(2))
    return Scenario(
        name="kiw_strat_pullback_r2",
        description="midpoint-calculus transport identity under the midpoint scheme with "
        "two non-commuting noises",
        theorem="KiwStratPullback",
        sde=sde,
        K0=K0,
        G=(G0,),
        fv_specs=(FvSpec("t", lambda t: t),),
        mart_specs=(MartSpec("mart_bm1", "bm", component=1),),
        x0=np.array([0.2, 0.3]),
        # the trapezoid sums track the midpoint scheme to first order in h,
        # so this residual decays faster than the half-order noise terms;
        # the half-order content lives in the left-point assembly on the
        # same flow, tied to this one by the exact discrete bridge
        base_grid=TimeGrid(1.0, 16),
        n_paths=96,
        seed=35,
        scheme="heun",
    )


# ---------------------------------------------------------------------------
# pushforward family
# ---------------------------------------------------------------------------


def _push_fields():
    X, Y = coord_symbols(2)
    b = vector_field(2, [sp.Float(0.2) - sp.Float(0.25) * Y, sp.Float(0.15) * X],
                     name="lin_drift")
    xi1 = vector_field(
        2, [sp.Float(0.3) + sp.Float(0.1) * sp.sin(Y), sp.Float(0.2)], name="noise_a"
    )
    xi2 = vector_field(
        2, [sp.Float(0.15), sp.Float(0.25) + sp.Float(0.1) * sp.sin(X)], name="noise_b"
    )
    K0 = tensor_field(
        (1, 1),
        2,
        [
            [1 + sp.Rational(3, 10) * X, sp.Rational(1, 5) * Y],
            [sp.Rational(1, 10) * X * Y, 1 - sp.Rational(1, 5) * Y],
        ],
        name="polyK",
    )
    G0 = tensor_field(
        (1, 1),
        2,
        [
            [sp.Rational(3, 10) * Y, sp.Rational(1, 10)],
            [sp.Rational(1, 5) * X, sp.Rational(2, 5)],
        ],
        name="polyG",
    )
    return b, xi1, xi2, K0, G0


@_register("kiw_ito_pushforward_r2")
def _kiw_ito_pushforward_r2() -> Scenario:
    b, xi1, xi2, K0, G0 = _push_fields()
    sde = FlowSDE(drift=b, diffusions=(xi1, xi2), atlas=euclidean_atlas(2))
    return Scenario(
        name="kiw_ito_pushforward_r2",
        description="forward transport observed at a fixed point: the discrete flow maps "
        "are inverted exactly there and the Lie terms act on the "
        "transported tensor",
        theorem="KiwItoPushforward",
        sde=sde,
        K0=K0,
        G=(G0,),
        fv_specs=(FvSpec("t", lambda t: t),),
        mart_specs=(MartSpec("mart_bm", "bm", component=0),),
        x0=np.array([0.3, -0.2]),
        base_grid=TimeGrid(0.5, 8),
        n_paths=64,
        seed=41,
        expected_order=(0.3, 1.2),
    )


@_register("kiw_strat_pushforward_r2")
def _kiw_strat_pushforward_r2() -> Scenario:
    b, xi1, xi2, K0, G0 = _push_fields()
    sde = FlowSDE(drift=b, diffusions=(xi1, xi2), atlas=euclidean_atlas(2))
    return Scenario(
        name="kiw_strat_pushforward_r2",
        description="midpoint-calculus form of the forward-transport identity under the "
        "midpoint scheme",
        theorem="KiwStratPushforward",
        sde=sde,
        K0=K0,
        G=(G0,),
        fv_specs=(FvSpec("t", lambda t: t),),
        mart_specs=(MartSpec("mart_bm1", "bm", component=1),),
        x0=np.array([0.3, -0.2]),
        base_grid=TimeGrid(0.5, 8),
        n_paths=48,
        seed=42,
        scheme="heun",
        expected_order=(0.3, 1.2),
    )


@_register("kiw_push_lowreg")
def _kiw_push_lowreg() -> Scenario:
    b, xi1, xi2, K0, G0 = _push_fields()
    sde = FlowSDE(
        drift=b.with_order(1),
        diffusions=(xi1.with_order(2), xi2.with_order(2)),
        atlas=euclidean_atlas(2),
    )
    return Scenario(
        name="kiw_push_lowreg",
        description="forward-transport setup whose coefficients are only regular "
        "enough for a once-differentiable flow; validation must refuse "
        "to run it",
        theorem="KiwItoPushforward",
        sde=sde,
        K0=K0,
        G=(G0,),
        fv_specs=(FvSpec("t", lambda t: t),),
        mart_specs=(MartSpec("mart_bm", "bm", component=0),),
        x0=np.array([0.3, -0.2]),
        base_grid=TimeGrid(0.5, 8),
        n_paths=32,
        seed=43,
    )


# ---------------------------------------------------------------------------
# intermediate-time transport and failure modes
# ---------------------------------------------------------------------------


@_register("kunita_first_gbm")
def _kunita_first_gbm() -> Scenario:
    X = coord_symbols(1)[0]
    sde = FlowSDE(
        drift=linear_vector_field([[0.1]], name="lin_drift"),
        diffusions=(gbm_vector_field(0.4),),
        atlas=euclidean_atlas(1),
    )
    return Scenario(
        name="kunita_first_gbm",
        description="exponential flow on the line, transport started from every grid "
        "time and integrated backward against the noise",
        theorem="KunitaFirst",
        sde=sde,
        K0=tensor_field((0, 1), 1, [X], name="x_dx"),
        x0=np.array([1.0]),
        base_grid=TimeGrid(1.0, 16),
        n_paths=128,
        seed=54,
        expected_order=(0.35, 0.75),
    )


@_register("blowup_cubic")
def _blowup_cubic() -> Scenario:
    X = coord_symbols(1)[0]
    sde = FlowSDE(
        drift=vector_field(1, [X**3], name="cubic_drift"),
        diffusions=(gbm_vector_field(0.05),),
        atlas=euclidean_atlas(1),
    )
    return Scenario(
        name="blowup_cubic",
        description="superlinear drift that leaves every compact set before the horizon; "
        "paths are stopped and the blow-up fraction reported",
        theorem="KunitaSecond",
        sde=sde,
        K0=tensor_field((0, 1), 1, [X], name="x_dx"),
        x0=np.array([1.6]),
        base_grid=TimeGrid(1.0, 32),
        n_paths=32,
        seed=61,
    )
