"""Pathwise verification of tensor transport identities along flows.

A :class:`Scenario` packages a flow equation, a tensor field path

    K(t, x) = K(0, x) + sum_i (A^i_t + M^i_t) G_i(x)

driven by finite-variation and martingale drivers, and a transport
identity selector.  For each realised driver path the left-hand side
(the transported tensor at the start point, or the pushed-forward
tensor at the observation point) and the right-hand side (the sum of
the identity's integral terms, discretised with left-point or trapezoid
sums as the identity's calculus dictates) are evaluated on the whole
grid, and the residual is their sup-norm difference.  Halving the step
with bridge refinement and refitting the residual exposes the strong
order of the integration scheme; the identities themselves hold
pathwise, so the residual must shrink at that order.

Selectors
---------
``KiwItoPullback``      transported tensor, Ito form (bracket and
                        second-order Lie terms present).
``KunitaSecond``        the same assembly with a static tensor field
                        (no drivers).
``ScalarItoWentzell``   scalar case of the pullback identity.
``KiwStratPullback``    Stratonovich form: trapezoid sums against the
                        martingale drivers and the noise, no bracket or
                        second-order terms.
``KiwItoPushforward``   pushed-forward tensor, Ito form; the Lie
                        derivatives act outside the transport, so the
                        integrands come from finite-difference jets of
                        the transported field.
``KiwStratPushforward`` Stratonovich form of the pushforward identity.
``KunitaFirst``         transport from intermediate times: the flow is
                        restarted on a stencil at every grid time and
                        the noise integrals use right-point (backward)
                        sums.
"""

from __future__ import annotations

import string
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .flow import FlowEnsemble, FlowSDE, _backward_step, integrate_flow
from .stochastics import (
    DrivingPaths,
    TimeGrid,
    build_driving_paths,
    covariation,
    fv_integral,
    ito_integral,
    refine_dyadic,
    stratonovich_integral,
)
from .tensor_calculus import (
    TensorFieldSpec,
    _contract,
    fd_jets_from_stencil,
    lie_jet,
    pair_batch,
    pullback_batch,
    pushforward_batch,
    stencil_offsets,
)

__all__ = [
    "HypothesisViolation",
    "WiringMismatch",
    "THEOREMS",
    "Scenario",
    "KPath",
    "PushTransport",
    "RhsResult",
    "LevelStats",
    "ResidualReport",
    "validate_scenario",
    "synthesize_K_path",
    "eval_lhs",
    "eval_rhs",
    "strat_ito_bridge_gap",
    "expanded_integrand_check",
    "convergence_study",
]


class HypothesisViolation(Exception):
    """Scenario fields do not meet the identity's regularity hypotheses."""


class WiringMismatch(Exception):
    """Scenario wiring (drivers, valences, charts) is inconsistent."""


THEOREMS = (
    "KiwItoPullback",
    "KiwItoPushforward",
    "KiwStratPullback",
    "KiwStratPushforward",
    "KunitaSecond",
    "KunitaFirst",
    "ScalarItoWentzell",
)

_PUSH_THEOREMS = ("KiwItoPushforward", "KiwStratPushforward")

# required smoothness per selector: flow regularity k, then the orders
# demanded of the drift, the noise fields, the tensor and the driver
# fields.  G is None where the identity takes a static tensor field.
_REQUIREMENTS = {
    "KiwItoPullback": dict(k=1, b=1, xi=2, K=2, G=1),
    "ScalarItoWentzell": dict(k=1, b=1, xi=2, K=2, G=1),
    "KunitaSecond": dict(k=1, b=1, xi=2, K=2, G=None),
    "KiwItoPushforward": dict(k=3, b=3, xi=4, K=2, G=1),
    "KiwStratPullback": dict(k=4, b=4, xi=5, K=3, G=2),
    "KiwStratPushforward": dict(k=4, b=4, xi=5, K=3, G=2),
    "KunitaFirst": dict(k=3, b=3, xi=4, K=2, G=None),
}


@dataclass(frozen=True)
class Scenario:
    """A complete, reproducible verification setup."""

    name: str
    description: str
    theorem: str
    sde: FlowSDE
    K0: TensorFieldSpec
    G: Tuple[TensorFieldSpec, ...] = ()
    fv_specs: Tuple = ()
    mart_specs: Tuple = ()
    x0: Optional[np.ndarray] = None
    start_chart: int = 0
    base_grid: TimeGrid = TimeGrid(1.0, 64)
    n_paths: int = 100
    seed: int = 2024
    scheme: str = "euler_maruyama"
    bracket_mode: str = "closed_form"
    expected_order: Optional[Tuple[float, float]] = None
    stencil_eps: float = 1.0e-4
    n_checkpoints: int = 8

    def __post_init__(self):
        object.__setattr__(self, "G", tuple(self.G))
        object.__setattr__(self, "fv_specs", tuple(self.fv_specs))
        object.__setattr__(self, "mart_specs", tuple(self.mart_specs))
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))

    @property
    def atlas(self):
        return self.sde.atlas


def validate_scenario(scenario: Scenario):
    """Check the selector's hypotheses and the driver wiring."""
    if scenario.theorem not in THEOREMS:
        raise WiringMismatch(
            f"unknown selector {scenario.theorem!r}; choose from {THEOREMS}"
        )
    req = _REQUIREMENTS[scenario.theorem]
    sde = scenario.sde
    K0 = scenario.K0

    if req["G"] is None and scenario.G:
        raise WiringMismatch(
            f"{scenario.theorem} applies to a static tensor field; remove the driver fields"
        )
    if len(scenario.G) != len(scenario.fv_specs) or len(scenario.G) != len(scenario.mart_specs):
        raise WiringMismatch(
            f"{len(scenario.G)} driver fields need matching finite-variation and "
            f"martingale drivers, got {len(scenario.fv_specs)} / {len(scenario.mart_specs)}"
        )
    for g in scenario.G:
        if g.valence != K0.valence or g.dim != K0.dim:
            raise WiringMismatch(
                f"driver field {g.name!r} has valence {g.valence}, tensor has {K0.valence}"
            )
    if scenario.theorem == "ScalarItoWentzell" and K0.valence != (0, 0):
        raise WiringMismatch(f"scalar selector needs a (0, 0) field, got valence {K0.valence}")

    if sde.drift.smoothness_order < req["b"] or any(
        xi.smoothness_order < req["xi"] for xi in sde.diffusions
    ):
        worst_xi = min((xi.smoothness_order for xi in sde.diffusions), default=req["xi"])
        raise HypothesisViolation(
            f"{scenario.theorem} requires flow regularity k = {req['k']} "
            f"(drift C^{req['b']}, noise C^{req['xi']}); "
            f"got drift C^{sde.drift.smoothness_order}, noise C^{worst_xi}"
        )
    if K0.smoothness_order < req["K"]:
        raise HypothesisViolation(
            f"{scenario.theorem} requires the tensor field C^{req['K']}, "
            f"got C^{K0.smoothness_order}"
        )
    if req["G"] is not None:
        for g in scenario.G:
            if g.smoothness_order < req["G"]:
                raise HypothesisViolation(
                    f"{scenario.theorem} requires driver fields C^{req['G']}, "
                    f"{g.name!r} is C^{g.smoothness_order}"
                )
    if scenario.theorem in _PUSH_THEOREMS or scenario.theorem == "KunitaFirst":
        if len(scenario.atlas.charts) != 1:
            raise WiringMismatch(
                f"{scenario.theorem} evaluation is implemented on single-chart atlases"
            )
    if scenario.theorem == "KunitaFirst" and scenario.scheme != "euler_maruyama":
        raise WiringMismatch(
            "the intermediate-time restart engine advances with the Euler scheme; "
            "use euler_maruyama for KunitaFirst"
        )


# ---------------------------------------------------------------------------
# tensor field path synthesis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KPath:
    """Realised tensor field path: driver weights for K0 and the G_i.

    The driver fields are time-independent, so the discrete integrals
    defining the path collapse exactly: left-point (and trapezoid) sums
    of a constant integrand against a driver equal the driver increment,
    hence ``K(t_k) = K0 + sum_i (A^i_k + M^i_k) G_i`` holds bitwise for
    the discretised path under both calculi.
    """

    scenario: Scenario
    weights: np.ndarray  # (P, npoints, n_drivers)

    def combine(self, base_vals: np.ndarray, g_vals: Sequence[np.ndarray]) -> np.ndarray:
        """Weight per-field value paths (P, npoints, comps...) into K values.

        The weighted sum accumulates into ``base_vals``, which is returned.
        """
        for i, gv in enumerate(g_vals):
            w = self.weights[:, :, i]
            base_vals += w.reshape(w.shape + (1,) * (gv.ndim - 2)) * gv
        return base_vals


def synthesize_K_path(scenario: Scenario, drivers: DrivingPaths) -> KPath:
    """Accumulate the driver weights of the tensor field path."""
    m = len(scenario.G)
    if drivers.fv.shape[1] != m or drivers.mart.shape[2] != m:
        raise WiringMismatch(
            f"scenario has {m} driver fields, drivers carry {drivers.fv.shape[1]} "
            f"finite-variation and {drivers.mart.shape[2]} martingale components"
        )
    if not scenario.K0.is_time_independent():
        raise WiringMismatch("the tensor field's time dependence must come from the drivers")
    for g in scenario.G:
        if not g.is_time_independent():
            raise WiringMismatch(f"driver field {g.name!r} must be time-independent")
    weights = drivers.fv[None, :, :] + drivers.mart
    return KPath(scenario=scenario, weights=weights)


# ---------------------------------------------------------------------------
# trajectory evaluation helpers
# ---------------------------------------------------------------------------


def _eval_along_flow(f: TensorFieldSpec, flow: FlowEnsemble) -> np.ndarray:
    """Field values along all trajectory states, shape (npoints, P) + comps."""
    times = flow.grid.times()
    tgrid = np.broadcast_to(times[:, None], flow.charts.shape)
    out = np.empty(flow.charts.shape + f.shape)
    for cid in np.unique(flow.charts).tolist():
        mask = flow.charts == cid
        out[mask] = f.eval_batch(tgrid[mask], flow.coords[mask], cid)
    return out


def _pull_path(f: TensorFieldSpec, flow: FlowEnsemble) -> np.ndarray:
    """Pullback of a field along the flow, shape (P, npoints) + comps."""
    vals = _eval_along_flow(f, flow)
    pulled = pullback_batch(vals, f.valence, flow.jac, flow.inv_jac)
    return np.swapaxes(pulled, 0, 1)


def _sup_per_path(term: np.ndarray) -> np.ndarray:
    """Sup over grid and components, one value per path."""
    return np.max(np.abs(term).reshape(term.shape[0], -1), axis=1)


@dataclass(frozen=True)
class RhsResult:
    """Right-hand side values plus the individual cumulative terms."""

    values: np.ndarray  # (P, npoints or n_checkpoints) + comps
    terms: Dict[str, np.ndarray]
    bracket_mode: str
    checkpoint_indices: Optional[np.ndarray] = None  # set by KunitaFirst


def _assemble_forward_rhs(
    scenario: Scenario,
    drivers: DrivingPaths,
    lhs0: np.ndarray,
    paths: Dict[str, np.ndarray],
    strat: bool,
    bracket_mode: str,
) -> RhsResult:
    """Sum the identity's terms from precomputed integrand paths.

    ``paths`` maps integrand labels (``G<i>``, ``LbK``, ``LxK<j>``,
    ``LxG<i>_<j>``, ``LLK<j>``) to (P, npoints, comps...) arrays.  The
    pullback and pushforward variants share this assembly; the transport
    direction only changes how the integrand paths were produced and the
    sign of the Lie terms.  Pure time integrals always use left sums;
    trapezoid sums apply only to the martingale and noise integrators of
    the Stratonovich form.
    """
    sign = -1.0 if scenario.theorem in _PUSH_THEOREMS else 1.0
    t = drivers.times()
    nG = len(scenario.G)
    nB = drivers.n_noise
    mint = stratonovich_integral if strat else ito_integral
    terms: Dict[str, np.ndarray] = {}

    if nG:
        terms["G_dA"] = sum(
            fv_integral(paths[f"G{i}"], drivers.fv[:, i], axis=1) for i in range(nG)
        )
        terms["G_dM"] = sum(
            mint(paths[f"G{i}"], drivers.mart[:, :, i], axis=1) for i in range(nG)
        )

    terms["L_b"] = sign * fv_integral(paths["LbK"], t, axis=1)

    if nB:
        terms["L_xi"] = sign * sum(
            mint(paths[f"LxK{j}"], drivers.bm[:, :, j], axis=1) for j in range(nB)
        )
        if not strat:
            if nG:
                terms["bracket"] = sign * sum(
                    fv_integral(
                        paths[f"LxG{i}_{j}"], drivers.bracket_with_bm(i, j, bracket_mode), axis=1
                    )
                    for i in range(nG)
                    for j in range(nB)
                )
            terms["L2"] = 0.5 * sum(fv_integral(paths[f"LLK{j}"], t, axis=1) for j in range(nB))

    order = ("G_dA", "G_dM", "L_b", "L_xi", "bracket", "L2")
    values = lhs0[:, None, ...] + sum(terms[k] for k in order if k in terms)
    return RhsResult(values=values, terms=terms, bracket_mode=bracket_mode)


def _lie_terms(jets: Sequence[np.ndarray], b_jets: Sequence[np.ndarray],
               xi_jets: Sequence[Sequence[np.ndarray]], valence: Tuple[int, int],
               strat: bool) -> Dict[str, np.ndarray]:
    """One field's value and Lie terms from its jets and the coefficient jets.

    Returns ``val``, ``Lb`` (along the drift), ``Lx<j>`` (along noise j)
    and, unless ``strat``, ``LL<j>`` (twice along noise j).  The field
    jets must reach order 1 for ``strat`` and order 2 otherwise, as must
    the noise jets; the drift jets reach order 1.  Coefficient jets may
    carry singleton batch axes that broadcast against the field's.
    """
    out = {"val": jets[0], "Lb": lie_jet(jets[:2], b_jets, valence, 0)[0]}
    for j, xj in enumerate(xi_jets):
        if strat:
            out[f"Lx{j}"] = lie_jet(jets[:2], xj[:2], valence, 0)[0]
        else:
            inner = lie_jet(jets, xj, valence, 1)
            out[f"Lx{j}"] = inner[0]
            out[f"LL{j}"] = lie_jet(inner, xj[:2], valence, 0)[0]
    return out


def _integrand_paths(terms: Dict[str, Dict[str, np.ndarray]], kpath: KPath, n_noise: int,
                     strat: bool) -> Dict[str, np.ndarray]:
    """Weight per-field terms, each (P, npoints) + comps, into integrand paths.

    ``terms`` maps ``K0`` and ``G<i>`` to the :func:`_lie_terms` of that
    field after transport; the ``K0`` arrays are weighted in place.
    Besides the integrands read by :func:`_assemble_forward_rhs` the
    result holds ``K``, the transported tensor path.
    """
    gs = [terms[f"G{i}"] for i in range(len(terms) - 1)]

    def weighted(name):
        return kpath.combine(terms["K0"][name], [g[name] for g in gs])

    paths = {"K": weighted("val"), "LbK": weighted("Lb")}
    for i, g in enumerate(gs):
        paths[f"G{i}"] = g["val"]
    for j in range(n_noise):
        paths[f"LxK{j}"] = weighted(f"Lx{j}")
        for i, g in enumerate(gs):
            paths[f"LxG{i}_{j}"] = g[f"Lx{j}"]
        if not strat:
            paths[f"LLK{j}"] = weighted(f"LL{j}")
    return paths


# largest number of flow states whose jets are held at once; the pullback
# integrands are built in blocks of whole grid rows below this bound
_JET_BLOCK_STATES = 8192


def _pullback_integrand_paths(
    scenario: Scenario, flow: FlowEnsemble, kpath: KPath, strat: bool
) -> Dict[str, np.ndarray]:
    """Integrand paths for the pullback-family selectors.

    The Lie terms of ``K0`` and every ``G_i`` come from :func:`lie_jet` on
    the analytic jets of the fields, the drift and the noise fields at the
    flow states, chart by chart, and are then pulled back along the flow.
    The states are processed in blocks of whole grid rows, at most
    ``_JET_BLOCK_STATES`` of them per block, so the jets of the whole
    ensemble never exist at once.
    """
    sde = scenario.sde
    order = 1 if strat else 2
    valence = scenario.K0.valence
    fields = {"K0": scenario.K0, **{f"G{i}": g for i, g in enumerate(scenario.G)}}
    names = ["val", "Lb"] + [f"Lx{j}" for j in range(sde.n_noise)]
    if not strat:
        names += [f"LL{j}" for j in range(sde.n_noise)]
    L1, P = flow.charts.shape
    # path-major views of the flow states, so pulled terms land in place
    charts = flow.charts.T
    tgrid = np.broadcast_to(flow.grid.times(), (P, L1))
    coords, jac, inv_jac = (np.swapaxes(a, 0, 1) for a in (flow.coords, flow.jac, flow.inv_jac))
    terms = {lbl: {nm: np.empty((P, L1) + scenario.K0.shape) for nm in names} for lbl in fields}
    rows = max(1, _JET_BLOCK_STATES // P)
    for k0 in range(0, L1, rows):
        blk = (slice(None), slice(k0, k0 + rows))
        for cid in np.unique(charts[blk]).tolist():
            mask = charts[blk] == cid
            t, x = tgrid[blk][mask], coords[blk][mask]
            A, Ai = jac[blk][mask], inv_jac[blk][mask]
            b_jets = sde.drift.jet_batch(t, x, cid, 1)
            xi_jets = [xi.jet_batch(t, x, cid, order) for xi in sde.diffusions]
            for lbl, f in fields.items():
                lie = _lie_terms(f.jet_batch(t, x, cid, order), b_jets, xi_jets, valence, strat)
                for nm, v in lie.items():
                    terms[lbl][nm][blk][mask] = pullback_batch(v, valence, A, Ai)
    return _integrand_paths(terms, kpath, sde.n_noise, strat)


# ---------------------------------------------------------------------------
# pushforward transport: wavefront of exact one-step inversions
# ---------------------------------------------------------------------------


def _step_map(sde: FlowSDE, scheme: str, cid: int, t0: float, t1: float, h: float,
              u: np.ndarray, db: np.ndarray):
    """One forward scheme step and its exact tangent at ``u``.

    The tangent is the derivative of the discrete step map itself; for
    both schemes it coincides with the variational update applied to an
    identity seed.
    """
    kern = sde._kernel(cid)
    eye = np.eye(u.shape[1])
    if scheme == "euler_maruyama":
        q = kern(t0, u)
        out = u + q["a"] * h
        D = eye + (q["Db"] + q["cp"]) * h
        for j in range(sde.n_noise):
            w = db[:, j : j + 1]
            out = out + q["xi"][j] * w
            D = D + q["Dxi"][j] * w[..., None]
        return out, D
    q0 = kern(t0, u)
    pred = u + q0["b"] * h
    Dpred = eye + q0["Db"] * h
    for j in range(sde.n_noise):
        w = db[:, j : j + 1]
        pred = pred + q0["xi"][j] * w
        Dpred = Dpred + q0["Dxi"][j] * w[..., None]
    q1 = kern(t1, pred)
    out = u + 0.5 * (q0["b"] + q1["b"]) * h
    D = eye + 0.5 * (q0["Db"] + q1["Db"] @ Dpred) * h
    for j in range(sde.n_noise):
        w = db[:, j : j + 1]
        out = out + 0.5 * (q0["xi"][j] + q1["xi"][j]) * w
        D = D + 0.5 * (q0["Dxi"][j] + q1["Dxi"][j] @ Dpred) * w[..., None]
    return out, D


_NEWTON_ITERS = 6


@dataclass(frozen=True)
class PushTransport:
    """Preimages and transport Jacobians for pushforward evaluation.

    ``preimages[k, p, s]`` is the inverse of the discrete flow map up to
    time t_k applied to stencil point s around the observation point;
    ``jac`` is the forward Jacobian accumulated along that preimage
    trajectory and ``inv_jac`` its matrix inverse.
    """

    eps: float
    offsets: np.ndarray  # (S, dim)
    preimages: np.ndarray  # (npoints, P, S, n)
    jac: np.ndarray  # (npoints, P, S, n, n)
    inv_jac: np.ndarray


def _push_transport(scenario: Scenario, flow: FlowEnsemble, drivers: DrivingPaths) -> PushTransport:
    """Invert the discrete flow on a stencil, one scheme step at a time.

    All target times are inverted together in a wavefront: stage j peels
    the step over [t_{j-1}, t_j] off every row that still contains it.
    Each step map is inverted by Newton iteration with a fixed iteration
    count (no data-dependent stopping, so results do not depend on how
    paths are batched), seeded by the mirrored backward step.
    """
    sde = scenario.sde
    grid = flow.grid
    L, h = grid.steps, grid.h
    times = grid.times()
    n = sde.dim
    P = flow.n_paths
    eps = scenario.stencil_eps
    offsets = stencil_offsets(n)
    S = offsets.shape[0]
    live = flow.completed

    stencil = scenario.x0[None, :] + eps * offsets  # (S, n)
    q = np.broadcast_to(stencil, (L, P, S, n)).reshape(-1, n).copy()
    A = np.broadcast_to(np.eye(n), (L * P * S, n, n)).copy()
    rows_k = np.repeat(np.arange(1, L + 1), P * S)
    live_rows = np.tile(np.repeat(live, S), L)

    for j in range(L, 0, -1):
        sel = (rows_k >= j) & live_rows
        if not np.any(sel):
            continue
        db_j = drivers.bm[:, j, :] - drivers.bm[:, j - 1, :]  # (P, N)
        db = np.broadcast_to(db_j[None, :, None, :], (L, P, S, drivers.n_noise)).reshape(
            -1, drivers.n_noise
        )[sel]
        v = q[sel]
        u = _backward_step(sde, flow.scheme, 0, times[j - 1], times[j], h, v, db)
        for _ in range(_NEWTON_ITERS):
            fu, Du = _step_map(sde, flow.scheme, 0, times[j - 1], times[j], h, u, db)
            u = u - np.linalg.solve(Du, (fu - v)[..., None])[..., 0]
        _, Dfinal = _step_map(sde, flow.scheme, 0, times[j - 1], times[j], h, u, db)
        q[sel] = u
        A[sel] = A[sel] @ Dfinal

    preimages = np.empty((L + 1, P, S, n))
    preimages[0] = np.broadcast_to(stencil, (P, S, n))
    preimages[1:] = q.reshape(L, P, S, n)
    jac = np.empty((L + 1, P, S, n, n))
    jac[0] = np.eye(n)
    jac[1:] = A.reshape(L, P, S, n, n)
    inv_jac = np.linalg.inv(jac)
    return PushTransport(eps=eps, offsets=offsets, preimages=preimages, jac=jac, inv_jac=inv_jac)


def _push_field_jets(f: TensorFieldSpec, scenario: Scenario, flow: FlowEnsemble,
                     tp: PushTransport, order: int) -> List[np.ndarray]:
    """Jets of the pushed-forward field at the observation point.

    Evaluates the field at the preimages, applies the pushforward
    contraction with the accumulated Jacobians and differentiates across
    the stencil; entries have shape (npoints, P) + comps + (dim,) * m.
    """
    times = flow.grid.times()
    shape = tp.preimages.shape[:3]
    tgrid = np.broadcast_to(times[:, None, None], shape)
    vals = f.eval_batch(tgrid.reshape(-1), tp.preimages.reshape(-1, scenario.sde.dim), 0)
    vals = vals.reshape(shape + f.shape)
    pushed = pushforward_batch(vals, f.valence, tp.jac, tp.inv_jac)
    return fd_jets_from_stencil(pushed, scenario.sde.dim, tp.eps, order=order,
                                ncomp_axes=f.order)


def _pushforward_integrand_paths(
    scenario: Scenario, flow: FlowEnsemble, kpath: KPath, tp: PushTransport, strat: bool
) -> Dict[str, np.ndarray]:
    """Integrand paths for the pushforward-family selectors.

    The Lie derivatives act on the transported field, so they are taken
    numerically from stencil jets via :func:`lie_jet`; the flow
    coefficients enter through their analytic jets at the observation
    point.
    """
    sde = scenario.sde
    L1 = flow.grid.npoints
    times = flow.grid.times()
    jet_order = 1 if strat else 2
    fields = {"K0": scenario.K0, **{f"G{i}": g for i, g in enumerate(scenario.G)}}

    # analytic jets of the flow coefficients at the observation point,
    # with a singleton path axis for broadcasting
    pts = np.broadcast_to(scenario.x0, (L1, sde.dim))
    b_jets = [a[:, None] for a in sde.drift.jet_batch(times, pts, 0, 1)]
    xi_jets = [
        [a[:, None] for a in xi.jet_batch(times, pts, 0, jet_order)] for xi in sde.diffusions
    ]
    terms = {}
    for lbl, f in fields.items():
        jets = _push_field_jets(f, scenario, flow, tp, jet_order)
        lie = _lie_terms(jets, b_jets, xi_jets, f.valence, strat)
        terms[lbl] = {nm: np.swapaxes(v, 0, 1) for nm, v in lie.items()}
    return _integrand_paths(terms, kpath, sde.n_noise, strat)


def _push_lhs(scenario: Scenario, kpath: KPath, tp: PushTransport, flow: FlowEnsemble) -> np.ndarray:
    """Pushed-forward tensor values at the observation point, (P, npoints) + comps."""
    center = (tp.offsets.shape[0] - 1) // 2
    times = flow.grid.times()
    shape = tp.preimages.shape[:2]
    tgrid = np.broadcast_to(times[:, None], shape)

    def pushed_center(f: TensorFieldSpec) -> np.ndarray:
        vals = f.eval_batch(
            tgrid.reshape(-1), tp.preimages[:, :, center].reshape(-1, scenario.sde.dim), 0
        ).reshape(shape + f.shape)
        out = pushforward_batch(vals, f.valence, tp.jac[:, :, center], tp.inv_jac[:, :, center])
        return np.swapaxes(out, 0, 1)

    base = pushed_center(scenario.K0)
    return kpath.combine(base, [pushed_center(g) for g in scenario.G])


# ---------------------------------------------------------------------------
# public evaluation entry points
# ---------------------------------------------------------------------------


def eval_lhs(
    scenario: Scenario,
    flow: FlowEnsemble,
    kpath: KPath,
    transport: Optional[PushTransport] = None,
    drivers: Optional[DrivingPaths] = None,
) -> np.ndarray:
    """Transported tensor values on the grid, shape (P, npoints) + comps.

    Pushforward selectors need either a precomputed ``transport`` or the
    ``drivers`` to build one; pullback selectors touch neither.
    """
    if scenario.theorem in _PUSH_THEOREMS:
        if transport is None:
            if drivers is None:
                raise WiringMismatch(
                    "pushforward evaluation needs the driver paths or a precomputed transport"
                )
            transport = _push_transport(scenario, flow, drivers)
        return _push_lhs(scenario, kpath, transport, flow)
    base = _pull_path(scenario.K0, flow)
    return kpath.combine(base, [_pull_path(g, flow) for g in scenario.G])


def eval_rhs(
    scenario: Scenario,
    flow: FlowEnsemble,
    kpath: KPath,
    drivers: DrivingPaths,
    bracket_mode: Optional[str] = None,
    transport: Optional[PushTransport] = None,
) -> RhsResult:
    """Assemble the identity's right-hand side for every path and grid time."""
    mode = bracket_mode or scenario.bracket_mode
    theorem = scenario.theorem
    if theorem == "KunitaFirst":
        return _kunita_first_rhs(scenario, flow, drivers)
    if theorem in _PUSH_THEOREMS:
        if transport is None:
            transport = _push_transport(scenario, flow, drivers)
        strat = theorem == "KiwStratPushforward"
        paths = _pushforward_integrand_paths(scenario, flow, kpath, transport, strat)
    else:
        strat = theorem == "KiwStratPullback"
        paths = _pullback_integrand_paths(scenario, flow, kpath, strat)
    return _assemble_forward_rhs(scenario, drivers, paths["K"][:, 0], paths, strat, mode)


def strat_ito_bridge_gap(scenario: Scenario, flow: FlowEnsemble, kpath: KPath,
                         drivers: DrivingPaths) -> float:
    """Worst pathwise gap in the discrete calculus-conversion identity.

    The trapezoid-sum assembly minus the left-sum assembly must equal
    half the discrete covariations of the martingale-integrated paths
    minus the realized-bracket and second-order terms, exactly up to
    floating-point accumulation.  This is an identity of the discrete
    sums, not a convergence statement, so it is checked with the
    realized bracket.
    """
    if scenario.theorem not in ("KiwStratPullback", "KiwItoPullback"):
        raise WiringMismatch("the bridge identity applies to the transported-tensor selectors")
    paths = _pullback_integrand_paths(scenario, flow, kpath, strat=False)
    lhs0 = paths["K"][:, 0]
    ito = _assemble_forward_rhs(scenario, drivers, lhs0, paths, False, "realized")
    strat = _assemble_forward_rhs(scenario, drivers, lhs0, paths, True, "realized")

    correction = np.zeros_like(ito.values)
    for i in range(len(scenario.G)):
        correction += 0.5 * covariation(paths[f"G{i}"], drivers.mart[:, :, i], axis=1)
    for j in range(drivers.n_noise):
        correction += 0.5 * covariation(paths[f"LxK{j}"], drivers.bm[:, :, j], axis=1)
    gap = strat.values - ito.values - (
        correction - ito.terms.get("bracket", 0.0) - ito.terms["L2"]
    )
    return float(np.max(np.abs(gap)))


# ---------------------------------------------------------------------------
# transport from intermediate times (restart wavefront)
# ---------------------------------------------------------------------------


def _checkpoint_indices(L: int, count: int) -> np.ndarray:
    return np.unique(np.round(np.linspace(0, L, count + 1)).astype(int)[1:])


def _kunita_first_rhs(scenario: Scenario, flow: FlowEnsemble, drivers: DrivingPaths) -> RhsResult:
    """Right-hand side of the intermediate-time transport identity.

    For each checkpoint time t the flow maps from every grid time s to t
    are realised by restarting a stencil at s and advancing all restarts
    together with the Euler update; at the checkpoint the transported
    tensor is differentiated across the stencil and the Lie integrands
    are summed in s, left-point in time and right-point (backward)
    against the noise.
    """
    sde = scenario.sde
    grid = flow.grid
    L, h = grid.steps, grid.h
    times = grid.times()
    n = sde.dim
    P = flow.n_paths
    eps = scenario.stencil_eps
    offsets = stencil_offsets(n)
    S = offsets.shape[0]
    cps = _checkpoint_indices(L, scenario.n_checkpoints)
    K0 = scenario.K0
    comp1 = (1,) * len(K0.shape)
    stencil = scenario.x0[None, :] + eps * offsets

    # Q[s] is the restart-s stencil advanced to the current time; A and
    # Ai carry the accumulated variational and inverse-variational state
    Q = np.broadcast_to(stencil, (L + 1, P, S, n)).reshape(L + 1, P * S, n).copy()
    A = np.broadcast_to(np.eye(n), (L + 1, P * S, n, n)).copy()
    Ai = A.copy()

    # coefficient jets at the observation point for every restart time
    pts = np.broadcast_to(scenario.x0, (L + 1, n))
    b_grid = [a[:, None] for a in sde.drift.jet_batch(times, pts, 0, 1)]
    xi_grid = [[a[:, None] for a in xi.jet_batch(times, pts, 0, 2)] for xi in sde.diffusions]

    out_vals = np.zeros((P, cps.size) + K0.shape)
    terms = {
        "L_b": np.zeros((P, cps.size) + K0.shape),
        "L_xi": np.zeros((P, cps.size) + K0.shape),
        "L2": np.zeros((P, cps.size) + K0.shape),
    }
    kern = sde._kernel(0)
    K_at_x0 = K0.eval_batch(0.0, scenario.x0[None, :], 0)[0]
    cp_pos = 0

    for m in range(L + 1):
        if m > 0:
            db = drivers.bm[:, m, :] - drivers.bm[:, m - 1, :]
            dbr = np.broadcast_to(db[None, :, None, :], (m, P, S, drivers.n_noise)).reshape(
                -1, drivers.n_noise
            )
            rows = Q[:m].reshape(-1, n)
            q = kern(times[m - 1], rows)
            Arows = A[:m].reshape(-1, n, n)
            Airows = Ai[:m].reshape(-1, n, n)
            newrows = rows + q["a"] * h
            newA = Arows + (q["Db"] + q["cp"]) @ Arows * h
            newAi = Airows - Airows @ (q["Db"] - q["cm"]) * h
            for j in range(sde.n_noise):
                wj = dbr[:, j : j + 1]
                newrows = newrows + q["xi"][j] * wj
                newA = newA + (q["Dxi"][j] @ Arows) * wj[..., None]
                newAi = newAi - (Airows @ q["Dxi"][j]) * wj[..., None]
            Q[:m] = newrows.reshape(m, P * S, n)
            A[:m] = newA.reshape(m, P * S, n, n)
            Ai[:m] = newAi.reshape(m, P * S, n, n)
        if cp_pos < cps.size and m == cps[cp_pos]:
            nrows = m + 1
            vals = K0.eval_batch(times[m], Q[:nrows].reshape(-1, n), 0).reshape(
                (nrows, P, S) + K0.shape
            )
            pulled = pullback_batch(
                vals,
                K0.valence,
                A[:nrows].reshape(nrows, P, S, n, n),
                Ai[:nrows].reshape(nrows, P, S, n, n),
            )
            jets = fd_jets_from_stencil(pulled, n, eps, order=2, ncomp_axes=K0.order)
            lie = _lie_terms(jets, [a[:nrows] for a in b_grid],
                             [[a[:nrows] for a in xj] for xj in xi_grid], K0.valence, False)
            dt_w = np.full((nrows, 1) + comp1, h)
            dt_w[m] = 0.0  # left sum in s: the s = t endpoint never enters
            terms["L_b"][:, cp_pos] = np.sum(lie["Lb"] * dt_w, axis=0)
            lx_sum = np.zeros((P,) + K0.shape)
            ll_sum = np.zeros((P,) + K0.shape)
            for j in range(sde.n_noise):
                ll_sum += np.sum(lie[f"LL{j}"] * dt_w, axis=0)
                dbj = np.moveaxis(drivers.bm[:, 1 : m + 1, j] - drivers.bm[:, :m, j], 1, 0)
                lx_sum += np.sum(lie[f"Lx{j}"][1 : m + 1] * dbj.reshape(dbj.shape + comp1), axis=0)
            terms["L_xi"][:, cp_pos] = lx_sum
            terms["L2"][:, cp_pos] = 0.5 * ll_sum
            out_vals[:, cp_pos] = (
                K_at_x0
                + terms["L_b"][:, cp_pos]
                + terms["L_xi"][:, cp_pos]
                + terms["L2"][:, cp_pos]
            )
            cp_pos += 1
    return RhsResult(values=out_vals, terms=terms, bracket_mode="closed_form",
                     checkpoint_indices=cps)


# ---------------------------------------------------------------------------
# expanded integrand check: two independent assembly routes
# ---------------------------------------------------------------------------


def _route_a_integrands(state: Dict, valence: Tuple[int, int]) -> Dict:
    """Lie-derivative route: build the Lie values from jets, transport, pair."""
    r, s = valence
    A, Binv, S = state["A"], state["Binv"], state["S"]
    n_noise = len(state["xi"])

    def paired(T):
        return pair_batch(pullback_batch(T, valence, A, Binv), valence, S, (s, r))

    lie = _lie_terms(state["K"], state["b"], state["xi"], valence, strat=False)
    g1 = paired(lie["Lb"])
    for j in range(n_noise):
        g1 = g1 + 0.5 * paired(lie[f"LL{j}"])
    h2 = [paired(lie[f"Lx{j}"]) for j in range(n_noise)]
    g2 = {}
    for i, g_jets in enumerate(state["G"]):
        lie_g = _lie_terms(g_jets, state["b"], state["xi"], valence, strat=True)
        for j in range(n_noise):
            g2[(i, j)] = paired(lie_g[f"Lx{j}"])
    g3 = [paired(g_jets[0]) for g_jets in state["G"]]
    return {"g1": g1, "h2": h2, "g2": g2, "g3": g3}


def _route_b_integrands(state: Dict, valence: Tuple[int, int]) -> Dict:
    """Product-rule route: differentiate every factor of the pairing.

    The coordinate expression of the paired, transported tensor is a
    product of the tensor components along the flow and one Jacobian (or
    inverse-Jacobian) factor per slot.  Its differential collects a ds
    drift, one dB coefficient per noise, and bracket coefficients
    against the martingale drivers; each is assembled here directly from
    the drift and noise matrices of the Jacobian evolution.
    """
    r, s = valence
    k = r + s
    K, dK, d2K = state["K"]
    b, db = state["b"]
    A, Binv, S = state["A"], state["Binv"], state["S"]
    idx = string.ascii_lowercase[:k]
    n_noise = len(state["xi"])

    cp = np.zeros_like(A)
    cm = np.zeros_like(A)
    for xi, dxi, d2xi in state["xi"]:
        sq = np.einsum("...il,...lm->...im", dxi, dxi)
        sec = np.einsum("...l,...ilm->...im", xi, d2xi)
        cp += 0.5 * (sq + sec)
        cm += 0.5 * (sq - sec)

    drift_A = np.einsum("...ql,...lj->...qj", db + cp, A)
    drift_psi = -np.einsum("...ip,...pq->...iq", Binv, db - cm)
    noise_A = [np.einsum("...ql,...lj->...qj", dxi, A) for (_, dxi, _) in state["xi"]]
    noise_psi = [-np.einsum("...ip,...pl->...il", Binv, dxi) for (_, dxi, _) in state["xi"]]

    def paired(T, mods=None):
        # the slot matrices and their overrides transform like the pullback's
        return pair_batch(_contract(T, valence, Binv, A, mods), valence, S, (s, r))

    def mod_for(slot, j):
        return noise_psi[j] if slot < r else noise_A[j]

    def grad_along(T_d1, X):
        return np.einsum(f"...l,...{idx}l->...{idx}", X, T_d1)

    # ds coefficient of the tensor components along the flow
    drift_V = grad_along(dK, b)
    for xi, dxi, _ in state["xi"]:
        xi_dxi = np.einsum("...m,...lm->...l", xi, dxi)
        drift_V = drift_V + 0.5 * (
            grad_along(dK, xi_dxi)
            + np.einsum(f"...l,...m,...{idx}lm->...{idx}", xi, xi, d2K)
        )

    g1 = paired(drift_V)
    for slot in range(k):
        g1 = g1 + paired(K, {slot: drift_psi if slot < r else drift_A})
    for j in range(n_noise):
        xi_dK = grad_along(dK, state["xi"][j][0])
        for s1 in range(k):
            # covariation of the components with each Jacobian factor
            g1 = g1 + paired(xi_dK, {s1: mod_for(s1, j)})
            # covariation among the factors, each unordered pair once
            for s2 in range(s1 + 1, k):
                g1 = g1 + paired(K, {s1: mod_for(s1, j), s2: mod_for(s2, j)})

    h2 = []
    for j in range(n_noise):
        term = paired(grad_along(dK, state["xi"][j][0]))
        for slot in range(k):
            term = term + paired(K, {slot: mod_for(slot, j)})
        h2.append(term)

    g2 = {}
    for i, (G, dG) in enumerate(state["G"]):
        for j in range(n_noise):
            term = paired(grad_along(dG, state["xi"][j][0]))
            for slot in range(k):
                term = term + paired(G, {slot: mod_for(slot, j)})
            g2[(i, j)] = term

    g3 = [paired(G) for (G, _) in state["G"]]
    return {"g1": g1, "h2": h2, "g2": g2, "g3": g3}


def _random_jet_states(valence, dim, n_noise, n_fv, count, rng):
    r, s = valence
    k = r + s
    shape = (count,) + (dim,) * k

    def sym_last_two(a):
        return 0.5 * (a + np.swapaxes(a, -1, -2))

    K = [
        rng.standard_normal(shape),
        rng.standard_normal(shape + (dim,)),
        sym_last_two(rng.standard_normal(shape + (dim, dim))),
    ]
    G = [(rng.standard_normal(shape), rng.standard_normal(shape + (dim,))) for _ in range(n_fv)]
    b = (rng.standard_normal((count, dim)), rng.standard_normal((count, dim, dim)))
    xi = [
        (
            rng.standard_normal((count, dim)),
            rng.standard_normal((count, dim, dim)),
            sym_last_two(rng.standard_normal((count, dim, dim, dim))),
        )
        for _ in range(n_noise)
    ]
    A = np.eye(dim) + 0.3 * rng.standard_normal((count, dim, dim))
    return {
        "K": K,
        "G": G,
        "b": b,
        "xi": xi,
        "A": A,
        "Binv": np.linalg.inv(A),
        "S": rng.standard_normal((count,) + (dim,) * k),
    }


def expanded_integrand_check(
    valence: Tuple[int, int] = (1, 1),
    dim: int = 2,
    n_noise: int = 2,
    n_fv: int = 1,
    count: int = 10000,
    seed: int = 7,
    tol: float = 1.0e-9,
) -> Dict:
    """Compare two independent assemblies of the paired integrands.

    Route A computes Lie derivatives from jets, transports them and
    pairs with a test tensor; route B expands the product rule over the
    coordinate factors of the paired, transported tensor and assembles
    each integrand from the Jacobian drift and noise matrices.  Their
    agreement on random jet data validates the expanded coordinate form
    of every integrand family of the Ito-form identity (ds, per-noise
    dB, per-pair brackets, driver terms).  Returns a report dict with
    the worst relative deviation per family.
    """
    rng = np.random.default_rng(seed)
    state = _random_jet_states(valence, dim, n_noise, n_fv, count, rng)
    ra = _route_a_integrands(state, valence)
    rb = _route_b_integrands(state, valence)

    def rel(x, y):
        return float(np.max(np.abs(x - y) / (1.0 + np.abs(x) + np.abs(y))))

    devs = {"ds": rel(ra["g1"], rb["g1"])}
    for j in range(n_noise):
        devs[f"dB{j}"] = rel(ra["h2"][j], rb["h2"][j])
    for (i, j), val in ra["g2"].items():
        devs[f"bracket{i}{j}"] = rel(val, rb["g2"][(i, j)])
    for i in range(n_fv):
        devs[f"dA{i}"] = rel(ra["g3"][i], rb["g3"][i])
    worst = max(devs.values())
    return {
        "valence": valence,
        "dim": dim,
        "count": count,
        "deviations": devs,
        "max_rel_dev": worst,
        "tol": tol,
        "passed": bool(worst <= tol),
    }


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelStats:
    level: int
    h: float
    steps: int
    n_paths: int
    rms_sup_residual: float
    max_sup_residual: float
    term_means: Dict[str, float]
    jac_consistency_max: float
    blowup_fraction: float


@dataclass(frozen=True)
class ResidualReport:
    scenario: str
    theorem: str
    scheme: str
    seed: int
    levels: Tuple[LevelStats, ...]
    fitted_order: float

    def summary_lines(self) -> List[str]:
        out = [f"{self.scenario} [{self.theorem}, {self.scheme}, seed {self.seed}]"]
        for st in self.levels:
            out.append(
                f"  level {st.level}: h={st.h:.6g} rms={st.rms_sup_residual:.6e} "
                f"max={st.max_sup_residual:.6e} blowup={st.blowup_fraction:.2f}"
            )
        out.append(f"  fitted order: {self.fitted_order:.3f}")
        return out


def _sup_residual_per_path(lhs: np.ndarray, rhs: RhsResult, flow: FlowEnsemble) -> np.ndarray:
    """Sup over live grid times of the worst component deviation, per path."""
    if rhs.checkpoint_indices is not None:
        lhs = lhs[:, rhs.checkpoint_indices]
        kidx = rhs.checkpoint_indices
    else:
        kidx = np.arange(lhs.shape[1])
    diff = np.abs(lhs - rhs.values).reshape(lhs.shape[0], lhs.shape[1], -1)
    dev = np.max(diff, axis=2)
    live = flow.stop_step[:, None] > kidx[None, :]
    return np.max(np.where(live, dev, 0.0), axis=1)


def _warmup(scenario: Scenario):
    """Materialise symbolic caches serially before any threaded run.

    Builds the step kernels and the compiled evaluators of every jet the
    integrands read (fields to order 2, drift to 1, noise fields to 2),
    so worker threads only ever hit caches.
    """
    sde = scenario.sde
    jet_orders = [(sde.drift, 1)] + [(xi, 2) for xi in sde.diffusions]
    jet_orders += [(f, 2) for f in (scenario.K0, *scenario.G)]
    for ch in scenario.atlas.charts:
        pt = ch.center[None, :]
        sde._kernel(ch.id)(0.0, pt)
        for f, order in jet_orders:
            if ch.id in f.comps:
                f.jet_batch(0.0, pt, ch.id, order)


def _run_level(scenario: Scenario, drivers: DrivingPaths, bracket_mode: Optional[str]) -> Dict:
    flow = integrate_flow(scenario.sde, drivers, scenario.x0, scenario.scheme,
                          scenario.start_chart)
    kpath = synthesize_K_path(scenario, drivers)
    transport = None
    if scenario.theorem in _PUSH_THEOREMS:
        transport = _push_transport(scenario, flow, drivers)
    lhs = eval_lhs(scenario, flow, kpath, transport)
    rhs = eval_rhs(scenario, flow, kpath, drivers, bracket_mode, transport)
    return {
        "residual": _sup_residual_per_path(lhs, rhs, flow),
        "term_sups": {k: _sup_per_path(v) for k, v in rhs.terms.items()},
        "jac_max": flow.jac_consistency_max(),
        "completed": flow.completed,
    }


def convergence_study(
    scenario: Scenario,
    levels: int = 4,
    n_paths: Optional[int] = None,
    seed: Optional[int] = None,
    scheme: Optional[str] = None,
    bracket_mode: Optional[str] = None,
    n_workers: int = 1,
) -> ResidualReport:
    """Run the scenario across dyadic refinements and fit the decay order.

    Paths are sampled from counter-based streams and all reductions act
    on per-path arrays reassembled in path order, so the report is
    byte-identical for any ``n_workers``.
    """
    kw = {}
    if n_paths is not None:
        kw["n_paths"] = n_paths
    if seed is not None:
        kw["seed"] = seed
    if scheme is not None:
        kw["scheme"] = scheme
    if kw:
        scenario = replace(scenario, **kw)
    validate_scenario(scenario)
    _warmup(scenario)
    P = scenario.n_paths
    drivers = build_driving_paths(
        scenario.base_grid,
        scenario.sde.n_noise,
        scenario.seed,
        P,
        scenario.fv_specs,
        scenario.mart_specs,
    )
    stats: List[LevelStats] = []
    for lvl in range(levels):
        if n_workers > 1 and P >= 2 * n_workers:
            bounds = np.linspace(0, P, n_workers + 1).astype(int)
            chunks = [drivers.slice_paths(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
            with ThreadPoolExecutor(max_workers=n_workers) as pool:
                parts = list(pool.map(lambda d: _run_level(scenario, d, bracket_mode), chunks))
            residual = np.concatenate([p["residual"] for p in parts])
            completed = np.concatenate([p["completed"] for p in parts])
            term_sups = {
                k: np.concatenate([p["term_sups"][k] for p in parts])
                for k in parts[0]["term_sups"]
            }
            jac_max = max(p["jac_max"] for p in parts)
        else:
            part = _run_level(scenario, drivers, bracket_mode)
            residual = part["residual"]
            completed = part["completed"]
            term_sups = part["term_sups"]
            jac_max = part["jac_max"]
        any_live = bool(np.any(completed))
        stats.append(
            LevelStats(
                level=lvl,
                h=drivers.grid.h,
                steps=drivers.grid.steps,
                n_paths=P,
                rms_sup_residual=float(np.sqrt(np.mean(residual[completed] ** 2)))
                if any_live
                else float("nan"),
                max_sup_residual=float(np.max(residual[completed])) if any_live else float("nan"),
                term_means={k: float(np.mean(v)) for k, v in term_sups.items()},
                jac_consistency_max=jac_max,
                blowup_fraction=float(1.0 - np.mean(completed)),
            )
        )
        if lvl + 1 < levels:
            drivers = refine_dyadic(drivers)

    hs = np.array([s.h for s in stats])
    rms = np.array([s.rms_sup_residual for s in stats])
    ok = np.isfinite(rms) & (rms > 0)
    fitted = (
        float(np.polyfit(np.log2(hs[ok]), np.log2(rms[ok]), 1)[0])
        if int(ok.sum()) >= 2
        else float("nan")
    )
    return ResidualReport(
        scenario=scenario.name,
        theorem=scenario.theorem,
        scheme=scenario.scheme,
        seed=scenario.seed,
        levels=tuple(stats),
        fitted_order=fitted,
    )
