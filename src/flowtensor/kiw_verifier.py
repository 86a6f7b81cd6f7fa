"""Pathwise verification of tensor transport identities along flows.

A :class:`Scenario` packages a flow equation, a tensor field path

    K(t, x) = K(0, x) + sum_i (A^i_t + M^i_t) G_i(x)

driven by finite-variation and martingale drivers, and a transport
identity selector.  Both sides of the identity are functions of the
scenario, a flow and the drivers it was integrated with; the weights
``A^i + M^i`` of ``K`` are read off those drivers.  For each realised
driver path the left-hand side (the transported tensor at the start
point, or the pushed-forward tensor at the observation point) and the
right-hand side (the sum of the identity's integral terms, discretised
with left-point or trapezoid sums as the identity's calculus dictates)
are evaluated on the whole grid, and the residual is their sup-norm
difference.  Every integrand, term series and sum is batch-last,
``comps + (npoints, P)``, from the integrand builders to the per-path
sups; only :func:`eval_lhs` and :func:`eval_rhs` return path-major
views.  Halving the step with bridge refinement and refitting the
residual exposes the strong order of the integration scheme; the
identities themselves hold pathwise, so the residual must shrink at
that order.  A study refines the drivers of every level first,
integrates all levels' flows in one sweep of the finest grid
(:func:`flowtensor.flow.integrate_flow_levels`) and then reduces the
levels coarse to fine, dropping each level's drivers and flow once it
is reduced.  A level is reduced in blocks of whole paths
(:func:`_run_level`), so a level's integrands and term series exist
for one block of paths at a time; that block is the one memory bound,
and every integrand builder takes the flow it is given in one piece.
A study reads every setting from its :class:`Scenario`; a variant, such
as another scheme, is studied as ``dataclasses.replace(scenario, ...)``.

Selectors
---------
Every selector is one row of the table ``_SELECTORS``, and every
per-selector decision reads that row.  ``THEOREMS`` lists its names.  The
columns are:

``route``     how the tensor is carried: ``pullback`` (the transported
              tensor, from analytic jets at the flow states),
              ``pushforward`` (the pushed-forward tensor at the observation
              point, from analytic jets at the Newton preimages of the
              inverted flow; the Lie terms change sign) or ``restart``
              (``KunitaFirst``: the flow restarted from the observation
              point at every grid time, right-point sums against the
              noise).  Every route reads the same analytic jets: the two
              transport routes pull the flow coefficients back through the
              exact jets of the discrete flow map and push every integrand
              forward by naturality (:func:`_transported_integrands`), and
              their contravariant slots take the exact inverse of ``J``.
              Every route builds its integrands in one pipeline,
              :func:`_route_integrands`, and differs only in its
              coefficient jets and the matrix pair that carries them.
              Every route but ``pullback`` needs a single-chart atlas, and
              ``restart`` the Euler scheme.
``strat``     whether the form is Stratonovich (trapezoid sums against the
              martingale drivers and the noise, no bracket or second-order
              terms).  The closed-form bracket is read by the Ito rows with
              driver fields.
``k``         the flow regularity: drift ``C^k``, noise ``C^(k+1)``
              (:meth:`FlowSDE.available_k`).
``K``, ``G``  the smoothness of the tensor field and of the driver fields;
              ``G`` is None where the identity takes a static tensor field.
``valence``   the one valence the selector takes (``ScalarItoWentzell``,
              the scalar case of the pullback identity), else None.

``KiwItoPullback``, ``KiwStratPullback``, ``KiwItoPushforward`` and
``KiwStratPushforward`` are the two transports in both calculi;
``KunitaSecond`` is the pullback with a static tensor field and
``KunitaFirst`` the transport from intermediate times.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .flow import (SCHEMES, FlowEnsemble, FlowSDE, SchemeSmoothnessMismatch, _backward_step,
                   _require_scheme_smoothness, integrate_flow_levels, scheme_step)
from .geometry import _batch_first, _batch_last, _contract, _slot_replace
from .stochastics import (
    BRACKET_MODES,
    DrivingPaths,
    TimeGrid,
    build_driving_paths,
    covariation,
    fv_integral,
    ito_integral,
    refine_dyadic,
    stratonovich_integral,
)
from .tensor_calculus import TensorFieldSpec, _add_slot_terms, _along, pair_batch

__all__ = [
    "HypothesisViolation",
    "WiringMismatch",
    "THEOREMS",
    "Scenario",
    "PushTransport",
    "RhsResult",
    "LevelStats",
    "ResidualReport",
    "validate_scenario",
    "eval_lhs",
    "eval_rhs",
    "strat_ito_bridge_gap",
    "expanded_integrand_check",
    "MAX_STUDY_STATES",
    "study_states",
    "convergence_study",
]


class HypothesisViolation(Exception):
    """Scenario fields do not meet the identity's regularity hypotheses."""


class WiringMismatch(Exception):
    """Scenario wiring (drivers, valences, charts) is inconsistent."""


class _Selector(NamedTuple):
    """One row of the selector table (see the module docstring)."""

    route: str  # "pullback", "pushforward" or "restart"
    strat: bool
    k: int
    K: int
    G: Optional[int]
    valence: Optional[Tuple[int, int]] = None


_SELECTORS = {
    "KiwItoPullback": _Selector("pullback", False, k=1, K=2, G=2),
    "KiwItoPushforward": _Selector("pushforward", False, k=3, K=2, G=2),
    "KiwStratPullback": _Selector("pullback", True, k=4, K=3, G=2),
    "KiwStratPushforward": _Selector("pushforward", True, k=4, K=3, G=2),
    "KunitaSecond": _Selector("pullback", False, k=1, K=2, G=None),
    "KunitaFirst": _Selector("restart", False, k=3, K=2, G=None),
    "ScalarItoWentzell": _Selector("pullback", False, k=1, K=2, G=2, valence=(0, 0)),
}
THEOREMS = tuple(_SELECTORS)


@dataclass(frozen=True)
class Scenario:
    """A complete, reproducible verification setup, the only source of a
    study's settings.  The flow starts at ``x0`` in chart 0; ``scheme`` is
    one of ``flow.SCHEMES`` and ``bracket_mode`` one of ``BRACKET_MODES``."""

    name: str
    description: str
    theorem: str
    sde: FlowSDE
    K0: TensorFieldSpec
    G: Tuple[TensorFieldSpec, ...] = ()
    fv_specs: Tuple = ()
    mart_specs: Tuple = ()
    x0: Optional[np.ndarray] = None
    base_grid: TimeGrid = TimeGrid(1.0, 64)
    n_paths: int = 100
    seed: int = 2024
    scheme: str = "euler_maruyama"
    bracket_mode: str = "closed_form"
    expected_order: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        object.__setattr__(self, "G", tuple(self.G))
        object.__setattr__(self, "fv_specs", tuple(self.fv_specs))
        object.__setattr__(self, "mart_specs", tuple(self.mart_specs))
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))

    @property
    def atlas(self):
        return self.sde.atlas


def _row(scenario: Scenario) -> _Selector:
    """The row of ``scenario``'s selector in the selector table."""
    if scenario.theorem not in _SELECTORS:
        raise WiringMismatch(f"unknown selector {scenario.theorem!r}; choose from {THEOREMS}")
    return _SELECTORS[scenario.theorem]


def validate_scenario(scenario: Scenario):
    """Check the selector's hypotheses, the driver wiring and the settings.

    Everything a study would refuse later is refused here, before any
    driver is drawn: the start point's shape, a time-dependent tensor or
    driver field, and noise coefficients too rough in time for the scheme.
    The hypotheses are those of the selector's row of ``_SELECTORS``.
    """
    sel = _row(scenario)
    if scenario.scheme not in SCHEMES:
        raise WiringMismatch(f"unknown scheme {scenario.scheme!r}; choose from {SCHEMES}")
    if scenario.bracket_mode not in BRACKET_MODES:
        raise WiringMismatch(f"unknown bracket mode {scenario.bracket_mode!r}; "
                             f"choose from {BRACKET_MODES}")
    sde = scenario.sde
    K0 = scenario.K0
    if scenario.x0.shape != (sde.dim,):
        raise WiringMismatch(f"start point x0 has shape {scenario.x0.shape}, "
                             f"the flow needs ({sde.dim},)")
    _require_time_independent(scenario)

    if sel.G is None and scenario.G:
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
    if sel.valence is not None and K0.valence != sel.valence:
        raise WiringMismatch(f"{scenario.theorem} needs a {sel.valence} field, "
                             f"got valence {K0.valence}")

    if sde.available_k() < sel.k:
        worst_xi = min((xi.smoothness_order for xi in sde.diffusions), default=sel.k + 1)
        raise HypothesisViolation(
            f"{scenario.theorem} requires flow regularity k = {sel.k} "
            f"(drift C^{sel.k}, noise C^{sel.k + 1}); "
            f"got drift C^{sde.drift.smoothness_order}, noise C^{worst_xi}"
        )
    try:
        _require_scheme_smoothness(sde, scenario.scheme)
    except SchemeSmoothnessMismatch as e:
        raise HypothesisViolation(str(e)) from None
    if K0.smoothness_order < sel.K:
        raise HypothesisViolation(
            f"{scenario.theorem} requires the tensor field C^{sel.K}, "
            f"got C^{K0.smoothness_order}"
        )
    for g in scenario.G:
        if g.smoothness_order < sel.G:
            raise HypothesisViolation(
                f"{scenario.theorem} requires driver fields C^{sel.G}, "
                f"{g.name!r} is C^{g.smoothness_order}"
            )
    if sel.route != "pullback" and len(scenario.atlas.charts) != 1:
        raise WiringMismatch(
            f"{scenario.theorem} evaluation is implemented on single-chart atlases"
        )
    if sel.route == "restart" and scenario.scheme != "euler_maruyama":
        raise WiringMismatch(
            "the intermediate-time restart engine advances with the Euler scheme; "
            f"use euler_maruyama for {scenario.theorem}"
        )
    if scenario.bracket_mode == "closed_form" and not sel.strat and sel.G is not None:
        # [M^i, B^j] is read where noise j is not the zero field; a sigma_int
        # driver's closed form needs its antiderivative
        for spec in scenario.mart_specs:
            if (spec.kind == "sigma_int" and spec.sigma_antideriv is None
                    and spec.component < sde.n_noise
                    and not sde.diffusions[spec.component].is_zero()):
                raise WiringMismatch(
                    f"martingale driver {spec.name!r} has no closed-form bracket "
                    f"(no sigma_antideriv); use bracket_mode 'realized'"
                )


# ---------------------------------------------------------------------------
# integrands and their assembly
# ---------------------------------------------------------------------------


def _require_time_independent(scenario: Scenario):
    """The tensor path's time dependence must come from its drivers alone."""
    if not scenario.K0.is_time_independent():
        raise WiringMismatch("the tensor field's time dependence must come from the drivers")
    for g in scenario.G:
        if not g.is_time_independent():
            raise WiringMismatch(f"driver field {g.name!r} must be time-independent")


def _driver_weights(scenario: Scenario, drivers: DrivingPaths) -> np.ndarray:
    """The weights ``A^i + M^i`` of the driver fields in ``K_t``, batch-last
    ``(n_drivers, npoints, P)``, from the drivers they are read with.

    The driver fields are time-independent, so the discrete integrals
    defining the path collapse exactly: left-point (and trapezoid) sums
    of a constant integrand against a driver equal the driver increment,
    hence ``K(t_k) = K0 + sum_i (A^i_k + M^i_k) G_i`` holds bitwise for
    the discretised path under both calculi.  Each integrand builder
    weights the jets of ``K0`` and the ``G_i`` with these weights, in i
    order, into those of ``K_t``.
    """
    m = len(scenario.G)
    if drivers.fv.shape[1] != m or drivers.mart.shape[2] != m:
        raise WiringMismatch(
            f"scenario has {m} driver fields, drivers carry {drivers.fv.shape[1]} "
            f"finite-variation and {drivers.mart.shape[2]} martingale components"
        )
    _require_time_independent(scenario)
    return drivers.fv.T[:, :, None] + drivers.mart.T


@dataclass(frozen=True)
class RhsResult:
    """Right-hand side values plus the individual cumulative terms.

    A study reads every array batch-last, ``comps + (npoints or
    checkpoints, P)``; :func:`eval_rhs` returns them path-major, ``(P,
    npoints or checkpoints) + comps``.
    """

    values: np.ndarray
    terms: Dict[str, np.ndarray]
    # the transported tensor path K, the identity's left-hand side, at the
    # grid times of ``values``, from the builder that made the Lie terms
    transported: np.ndarray
    checkpoint_indices: Optional[np.ndarray] = None  # set by KunitaFirst


def _assemble_forward_rhs(
    scenario: Scenario,
    drivers: DrivingPaths,
    paths: Dict[str, np.ndarray],
    strat: bool,
) -> RhsResult:
    """Sum the identity's terms from precomputed integrand paths.

    ``paths`` maps integrand labels and the transported tensor ``K`` to
    batch-last ``comps + (npoints, P)`` arrays, as :func:`_integrands`
    labels them, and every term series and sum keeps that layout, time on
    axis -2; the integrators go in as ``(npoints, P)`` or ``(npoints, 1)``
    views.  The sums start from ``K`` at time 0.
    The labels are ``G<i>`` (driver field i), ``LbK`` (``L_b K_t``),
    ``LxK<j>`` (``L_xi_j K_t``), ``LxG<i>_<j>`` (``L_xi_j G_i``, read by the
    Ito bracket only) and ``LLK``, the Ito correction summed over the
    noises, ``sum_j L_xi_j L_xi_j K_t``.  An absent Lie label is a term
    that vanishes identically (its coefficient field is zero, see
    :func:`_coeff_jets`), and its series is reported as zeros.  Which
    series are reported depends on the flow and the drivers alone:
    ``L_b`` always, ``G_dA`` and ``G_dM`` with driver fields, ``L_xi``
    with a noise field and, in the Ito form, ``L2`` with a noise field and
    ``bracket`` with a noise field and driver fields; the restart route of
    ``KunitaFirst`` follows the same rule.  The pullback and pushforward
    variants share this assembly; the transport direction only changes
    how the integrand paths were produced and the sign of the Lie terms
    (the route of the selector's row in ``_SELECTORS``).  Pure time
    integrals always use left sums; trapezoid sums apply only to the martingale and noise integrators of the
    Stratonovich form, which never reads the ``LxG`` entries.  ``paths``
    is only read.
    """
    sign = -1.0 if _row(scenario).route == "pushforward" else 1.0
    t = drivers.times()[:, None]
    nG = len(scenario.G)
    nB = drivers.n_noise
    mint = stratonovich_integral if strat else ito_integral
    terms: Dict[str, np.ndarray] = {}
    K = paths["K"]

    def summed(integrate, parts):
        """The sum, in order, of ``integrate`` over the ``(label, integrator)``
        pairs of ``parts`` whose label is present; zeros when no label is
        present."""
        acc = None
        for key, integrator in parts:
            if key in paths:
                part = integrate(paths[key], integrator, axis=-2)
                acc = part if acc is None else acc + part
        return np.zeros_like(K) if acc is None else acc

    if nG:
        terms["G_dA"] = sum(fv_integral(paths[f"G{i}"], drivers.fv[:, i, None], axis=-2)
                            for i in range(nG))
        terms["G_dM"] = sum(mint(paths[f"G{i}"], drivers.mart[:, :, i].T, axis=-2)
                            for i in range(nG))

    terms["L_b"] = sign * summed(fv_integral, [("LbK", t)])

    if nB:
        terms["L_xi"] = sign * summed(mint, ((f"LxK{j}", drivers.bm[:, :, j].T)
                                             for j in range(nB)))
        if not strat:
            if nG:
                terms["bracket"] = sign * summed(fv_integral, (
                    (f"LxG{i}_{j}", drivers.bracket_with_bm(i, j, scenario.bracket_mode).T)
                    for i in range(nG)
                    for j in range(nB) if f"LxG{i}_{j}" in paths
                ))
            terms["L2"] = 0.5 * summed(fv_integral, [("LLK", t)])

    order = ("G_dA", "G_dM", "L_b", "L_xi", "bracket", "L2")
    values = K[..., :1, :] + sum(terms[k] for k in order if k in terms)
    return RhsResult(values=values, terms=terms, transported=K)


def _jets_last(jets: Sequence[np.ndarray], nb: int) -> List[np.ndarray]:
    """Batch-last copies of a jet's stacks, whose ``nb`` leading axes are batch."""
    return [_batch_last(a, nb) for a in jets]


def _coeff_jets(sde: FlowSDE, q: Dict[str, np.ndarray], order: int):
    """Drift and per-noise jets, as :func:`_lie_terms` reads them, from
    :meth:`FlowSDE.jets` views (batch-last already, so nothing is copied).

    A coefficient field whose components are all 0 (:meth:`TensorFieldSpec.is_zero`)
    gets ``None`` in place of its jets: its Lie terms vanish identically
    and are not built.
    """
    names = ("xi", "Dxi", "D2xi")[: order + 1]
    b_jets = None if sde.drift.is_zero() else [q["b"], q["Db"]]
    xi_jets = [None if xi.is_zero() else [q[nm][j] for nm in names]
               for j, xi in enumerate(sde.diffusions)]
    return b_jets, xi_jets


def _lie_terms(jets: Sequence[np.ndarray], b_jets: Optional[Sequence[np.ndarray]],
               xi_jets: Sequence[Optional[Sequence[np.ndarray]]], valence: Tuple[int, int],
               strat: bool) -> Dict[str, np.ndarray]:
    """One field's value and Lie terms from its jets and the coefficient jets.

    Returns ``val``, ``Lb`` (along the drift), ``Lx<j>`` (along noise j)
    and, unless ``strat``, ``LL``: the second-order terms summed over the
    noises, ``sum_j L_xi_j L_xi_j K``, the only way the Ito correction
    reads them.  A first-order term along ``X`` is ``L_X K = X . grad K +
    S(K, DX)`` (``S``, the slot terms of the Lie formula, linear in both
    arguments, see :func:`_add_slot_terms`).  ``LL`` is taken at value
    order from sums over the noises, so no derivative of any ``L_xi_j K``
    is formed.  With ``E_j = xi_j . grad K``, the noise sums ``Q = sum_j
    xi_j (x) xi_j`` (the diffusion tensor of the flow), ``v = sum_j Dxi_j
    xi_j`` and ``F = sum_j D2xi_j[xi_j]``::

        LL = Q : D2K + v . grad K + S(K, F) + sum_j S(E_j + L_xi_j K, Dxi_j)

    A coefficient whose jets are ``None`` (a zero field, see
    :func:`_coeff_jets`) contributes no term, and no key.  The field jets
    are read only as far as a term needs them: a field with no term
    passes its values alone, and otherwise they reach order 1 for
    ``strat`` and order 2 for ``LL``, as must the noise jets; the drift
    jets reach order 1.  Every jet and every result is batch-last (see
    :mod:`flowtensor.tensor_calculus`); coefficient jets may carry
    singleton batch axes that broadcast against the field's.
    """
    k = sum(valence)
    K = jets[0]
    out = {"val": K}
    if b_jets is not None:
        out["Lb"] = _add_slot_terms(_along(jets[1], b_jets[0], k), K, b_jets[1], valence)
    noises = [(j, xj) for j, xj in enumerate(xi_jets) if xj is not None]
    if not strat and noises:
        Q = v = F = 0.0
        for _, xj in noises:
            xi, Dxi, D2xi = xj[:3]
            Q = Q + xi[:, None] * xi[None, :]
            v = v + _along(Dxi, xi, 1)
            F = F + _along(D2xi, xi, 2)
        # Q : D2K as a plain multiply-add over the derivative pair
        head = (slice(None),) * k
        pairs = list(np.ndindex(*Q.shape[:2]))
        LL = jets[2][head + pairs[0]] * Q[pairs[0]]
        for lm in pairs[1:]:
            LL += jets[2][head + lm] * Q[lm]
        LL += _along(jets[1], v, k)
        _add_slot_terms(LL, K, F, valence)
        out["LL"] = LL
    for j, xj in noises:
        E = _along(jets[1], xj[0], k)
        if strat:
            out[f"Lx{j}"] = _add_slot_terms(E, K, xj[1], valence)
        else:
            out[f"Lx{j}"] = _add_slot_terms(E.copy(), K, xj[1], valence)
            E += out[f"Lx{j}"]
            _add_slot_terms(out["LL"], E, xj[1], valence)
    return out


def _integrands(k_jets: Sequence[np.ndarray], g_jets: Sequence[Sequence[np.ndarray]],
                b_jets: Optional[Sequence[np.ndarray]],
                xi_jets: Sequence[Optional[Sequence[np.ndarray]]], valence: Tuple[int, int],
                strat: bool) -> Iterator[Tuple[str, np.ndarray]]:
    """Yield every integrand of the identity, as ``(label, array)`` pairs
    under the labels of :func:`_assemble_forward_rhs`.

    ``k_jets`` are the jets of the driven tensor ``K_t``, weighted by the
    caller, and ``g_jets`` those of each driver field ``G_i``.  ``K``,
    ``LbK``, ``LxK<j>`` and ``LLK`` are the :func:`_lie_terms` of ``K_t``;
    ``G<i>`` and, in the Ito form only, ``LxG<i>_<j>`` are those of
    ``G_i`` along the noises, with no drift.  The ``G_i`` jets are read
    to order 1 in the Ito form and at value order otherwise.  Every
    selector's builder calls this on its own jets, so the transported
    tensor and its Lie terms always come from the same values.  Each term
    is popped as it is handed on, and a field's terms are built only once
    those before them have been taken.
    """
    lie = _lie_terms(k_jets, b_jets, xi_jets, valence, strat)
    for nm in list(lie):
        # val -> K, Lb -> LbK, Lx<j> -> LxK<j>, LL -> LLK
        yield "K" if nm == "val" else nm[:2] + "K" + nm[2:], lie.pop(nm)
    for i, gj in enumerate(g_jets):
        lie = _lie_terms(gj, None, () if strat else xi_jets, valence, True)
        yield f"G{i}", lie.pop("val")
        for nm in list(lie):
            yield f"LxG{i}_{nm[2:]}", lie.pop(nm)


def _route_integrands(scenario: Scenario, t, x: np.ndarray, cid: int, coef, w,
                      contra: np.ndarray, cov: np.ndarray,
                      strat: bool) -> Iterator[Tuple[str, np.ndarray]]:
    """The :func:`_integrands` pairs of one route, carried by ``(contra, cov)``.

    The one integrand pipeline of every route: the analytic jets of
    ``K0`` and every ``G_i`` are evaluated at the points ``x`` (chart
    ``cid``, ``(n,) + batch``), ``K0``'s are weighted with the driver
    weights ``w`` (:func:`_driver_weights`) into those of ``K_t`` (``jK0 +
    sum_i w_i jG_i``, in i order), :func:`_integrands` takes them with the
    coefficient jets ``coef`` (``(b_jets, xi_jets)``, as
    :func:`_coeff_jets` gives them), and every integrand is contracted as
    it arrives, ``contra`` on the contravariant slots and ``cov`` on the
    covariant ones.  The routes differ only in where ``coef`` comes from
    and in the matrix pair.
    """
    valence = scenario.K0.valence
    order = 1 if strat else 2
    k_jets, *g_jets = (f._jet_last(t, x, cid, order) for f in (scenario.K0, *scenario.G))
    # the jets of K_t, accumulated in place into K0's
    for i, gj in enumerate(g_jets):
        for kj, gjm in zip(k_jets, gj):
            kj += w[i] * gjm
    for key, v in _integrands(k_jets, g_jets, *coef, valence, strat):
        yield key, _contract(v, valence, contra, cov)


# largest number of flow states whose jets are held at once: a study level
# is reduced in blocks of whole paths below this bound (:func:`_run_level`),
# and every integrand builder takes the flow it is given in one piece
_JET_BLOCK_STATES = 8192


def _pullback_integrand_paths(
    scenario: Scenario, flow: FlowEnsemble, drivers: DrivingPaths, strat: bool
) -> Dict[str, np.ndarray]:
    """Integrand paths for the pullback-family selectors.

    Chart by chart, :func:`_route_integrands` takes the flow states, the
    flow coefficients' jets there (:meth:`FlowSDE.jets`) and the states'
    driver weights, and pulls every integrand, ``K`` among them, back
    along the flow: covariant slots with ``J``, contravariant ones with
    the flow's ``Jinv`` or, on the restart route (``KunitaFirst``'s
    left-hand side), with the exact inverse of ``J``.  The keys are those
    :func:`_assemble_forward_rhs` reads, without the terms of a zero
    coefficient field.

    The flow is taken in one piece; a study bounds what it holds by
    passing one block of whole paths at a time (:func:`_run_level`).
    Everything is batch-last and flat: column ``k * P + p`` is path p's
    row k, a chart's states are one flat column index into the flow's
    history (points, ``J`` and ``Jinv``), gathered with ``take`` (all
    columns, when the chart holds every state), and each integrand is
    held as ``comps + (npoints, P)`` and written through its flat view.
    """
    sde = scenario.sde
    order = 1 if strat else 2
    n = sde.dim
    cols = flow.charts.size
    # the flow's history (its rows), the times and the weights, flat
    hist = np.moveaxis(flow.states, 1, 0).reshape(-1, cols)
    times = np.repeat(flow.grid.times(), flow.n_paths)
    weights = _driver_weights(scenario, drivers).reshape(-1, cols)
    shape = scenario.K0.shape
    held: Dict[str, np.ndarray] = {}
    for cid in np.flatnonzero(np.bincount(flow.charts.ravel())).tolist():
        idx = np.flatnonzero(flow.charts == cid)
        whole = idx.size == cols
        at = slice(None) if whole else idx
        t, X, w = (a if whole else a.take(idx, axis=-1) for a in (times, hist, weights))
        x, A, Ai = X[:n], X[n:n + n * n].reshape(n, n, -1), X[n + n * n:].reshape(n, n, -1)
        if _row(scenario).route == "restart":  # the exact inverse of J
            Ai = _inverse(A)
        coef = _coeff_jets(sde, sde.jets(t, x, cid, order), order)
        for key, v in _route_integrands(scenario, t, x, cid, coef, w, Ai, A, strat):
            if key not in held:
                held[key] = np.empty(shape + flow.charts.shape)
            held[key].reshape(shape + (cols,))[..., at] = v
    return held


# ---------------------------------------------------------------------------
# pushforward transport: wavefront of exact one-step inversions
# ---------------------------------------------------------------------------


_NEWTON_ITERS = 6
# grid times at which KunitaFirst checks its identity, spread over the grid
_N_CHECKPOINTS = 8


def _inverse(A: np.ndarray) -> np.ndarray:
    """The matrix inverse of every matrix of the batch-last stack ``A``."""
    # np.linalg.inv reads the matrices from the trailing axes of a view
    return np.moveaxis(np.linalg.inv(np.moveaxis(A, (0, 1), (-2, -1))), (-2, -1), (0, 1))


def _compose(outer: Sequence[np.ndarray], inner: Sequence[np.ndarray]) -> List[np.ndarray]:
    """The jets of ``o ∘ i`` by the chain rule, to the order of ``outer``.

    A map's jets are its derivative stacks ``[Dm, D^2 m, ...]``, batch-last,
    ``D^r m`` of shape ``(n,) * (r + 1) + batch`` with the derivative
    directions after the component; ``outer`` holds those of ``o`` at
    ``i(p)``, ``inner`` those of ``i`` at ``p`` (at least as many), up to
    order 3.  Every product is an elementwise multiply-add
    (:func:`_slot_replace`), so each column is independent of the batch.
    """
    Do, Di = outer[0], inner[0]

    def along(T, slots):
        """``T`` with its direction slots ``slots`` contracted with ``Di``."""
        for slot in slots:
            T = _slot_replace(T, Di, slot, T.ndim - Di.ndim + 2, transpose=True)
        return T

    out = [along(Do, (1,))]
    if len(outer) > 1:
        out.append(along(outer[1], (1, 2)) + _slot_replace(inner[1], Do, 0, 3))
    if len(outer) > 2:
        # W[i, a, b, c] = D^2 o[D^2 i[., a, b], Di[., c]], once per pairing of (a, b, c)
        W = _slot_replace(inner[1], along(outer[1], (2,)), 0, 3, n_m_extra=1)
        out.append(along(outer[2], (1, 2, 3)) + W + W.swapaxes(2, 3) + np.moveaxis(W, 3, 1)
                   + _slot_replace(inner[2], Do, 0, 4))
    return out


def _inverse_jets(jets: Sequence[np.ndarray]) -> List[np.ndarray]:
    """The jets of ``g = m^-1`` at ``m(p)`` from those of ``m`` at ``p``.

    ``Dg`` is the exact inverse of ``Dm``; each higher order follows from
    ``D^r (g ∘ m) = 0``: with ``D^r g`` left out, :func:`_compose` gives the
    rest of that derivative, ``c``, and ``D^r g = -c[Dg, ..., Dg]``
    (``D^2 g = -Dg D^2 m[Dg, Dg]`` at order 2).
    """
    out = [_inverse(jets[0])]
    for r in range(1, len(jets)):
        c = _compose(out + [np.zeros_like(jets[r])], jets)[r]
        for slot in range(1, r + 2):
            c = _slot_replace(c, out[0], slot, r + 2, transpose=True)
        out.append(-c)
    return out


def _pulled_vector_jets(X: Sequence[np.ndarray], jets: Sequence[np.ndarray],
                        Dinv: np.ndarray) -> List[np.ndarray]:
    """The jets of ``Y = m^* X = Dm^-1 X∘m`` at ``p``, to the order of ``X``'s.

    ``X`` holds the vector field's jets at ``m(p)`` (value, then first and
    possibly second order), ``jets`` those of ``m`` at ``p`` (one order
    more) and
    ``Dinv`` the inverse of ``Dm``.  ``Dm Y = X∘m`` is differentiated
    once and twice, each time solved with ``Dinv``:

        Dm DY = D(X∘m) - D^2 m[Y]
        Dm D^2 Y = D^2(X∘m) - D^3 m[Y] - D^2 m[DY] - (D^2 m[DY])^T
    """
    def solve(R):
        return _slot_replace(R, Dinv, 0, R.ndim - Dinv.ndim + 2)

    out = [solve(X[0])]
    XM = _compose(X[1:], jets)  # the jets of X∘m
    out.append(solve(XM[0] - _along(jets[1], out[0], 2)))
    if len(X) > 2:
        S = _slot_replace(jets[1], out[1], 1, 3, transpose=True)
        out.append(solve(XM[1] - _along(jets[2], out[0], 3) - S - S.swapaxes(1, 2)))
    return out


@dataclass(frozen=True)
class PushTransport:
    """Preimages and flow-map jets for pushforward evaluation.

    Batch-last, as the wavefront computes them: ``preimages[:, k, p]`` is
    the inverse of path p's discrete flow map up to time t_k applied to the
    observation point, and ``jets[r - 1]``, of shape ``(n,) * (r + 1) +
    (npoints, P)``, is the r-th derivative stack of that flow map at the
    preimage (see :func:`_compose`).  ``newton_residual_max`` is the worst
    ``|f(u) - v|`` left by the Newton inversions of the step maps ``f``,
    over every stage, live point and coordinate.
    """

    preimages: np.ndarray  # (n, npoints, P)
    jets: Tuple[np.ndarray, ...]
    newton_residual_max: float


def _push_transport(scenario: Scenario, flow: FlowEnsemble, drivers: DrivingPaths) -> PushTransport:
    """Invert the discrete flow at the observation point, one scheme step at a time.

    All target times are inverted together in a wavefront laid over the
    flow's rows: stage j peels the step over [t_{j-1}, t_j] off every live
    row (``flow.live``) that still contains it, so row 0 is never peeled
    and a row past a path's stop keeps the observation point and the
    identity jets.  Each step map is inverted by Newton iteration with a
    fixed iteration count (no data-dependent stopping, so results do not
    depend on how paths are batched), seeded by the mirrored backward
    step.  One step call at the converged preimage gives the step map's
    jets, and the row's jets become those of the accumulated map composed
    with the step map, to one order above the fields' jets (2 in the
    Stratonovich form, 3 in the Ito form), since the pulled-back
    coefficients' jets of order r read the map's of order r + 1
    (:func:`_pulled_vector_jets`).
    """
    sde = scenario.sde
    grid = flow.grid
    L, h = grid.steps, grid.h
    times = grid.times()
    n, P = sde.dim, flow.n_paths
    cols = (L + 1) * P
    order = 2 if _row(scenario).strat else 3

    # batch-last wavefront: column k * P + p holds path p's row k
    q = np.broadcast_to(scenario.x0[:, None], (n, cols)).copy()
    jets = [np.broadcast_to(np.eye(n)[..., None], (n, n, cols)).copy()]
    jets += [np.zeros((n,) * (r + 2) + (cols,)) for r in range(1, order)]
    live = flow.live.reshape(-1)
    # the tangent of the step map is the Jacobian update of an identity seed
    eye = np.eye(n)[..., None]
    worst = 0.0

    for j in range(L, 0, -1):
        sel = live & (np.arange(cols) >= j * P)  # the live rows from j on
        if not np.any(sel):
            continue
        # compress keeps the columns C-contiguous, a trailing fancy index would not
        db = np.tile((drivers.bm[:, j] - drivers.bm[:, j - 1]).T, L + 1).compress(sel, axis=-1)
        v = q.compress(sel, axis=-1)
        u = _backward_step(sde, flow.scheme, 0, times[j - 1], times[j], h, v, db)
        for _ in range(_NEWTON_ITERS):
            fu, Du, _ = scheme_step(sde, flow.scheme, 0, times[j - 1], times[j], h, u, eye,
                                    None, db)
            u = u - np.linalg.solve(np.moveaxis(Du, -1, 0), (fu - v).T[..., None])[..., 0].T
        fu, _, _, *step = scheme_step(sde, flow.scheme, 0, times[j - 1], times[j], h, u, eye,
                                      None, db, order)
        worst = max(worst, float(np.max(np.abs(fu - v))))
        q[:, sel] = u
        for a, c in zip(jets, _compose([a.compress(sel, axis=-1) for a in jets], step)):
            a[..., sel] = c

    return PushTransport(q.reshape(n, L + 1, P),
                         tuple(a.reshape(a.shape[:-1] + (L + 1, P)) for a in jets), worst)


def _transported_integrands(scenario: Scenario, t, p: np.ndarray, jets: Sequence[np.ndarray],
                            Dinv: np.ndarray, weights, coef,
                            strat: bool) -> Iterator[Tuple[str, np.ndarray]]:
    """The :func:`_integrands` pairs of the field pushed forward by a map ``m``.

    By naturality, ``L_X (m_* T) = m_* (L_{m^* X} T)``.  So the
    coefficient jets ``coef`` (:func:`_coeff_jets`, at ``m(p)``) are
    pulled back through the jets of ``m`` at ``p``
    (:func:`_pulled_vector_jets`), and :func:`_route_integrands` takes them
    at the points ``p`` (chart 0, ``(n,) + batch``) with the driver
    weights ``weights`` and pushes every integrand forward with ``Dm =
    jets[0]`` on the contravariant slots and ``Dinv``, its inverse, on the
    covariant ones.
    """
    b_jets, *xi_jets = (None if X is None else _pulled_vector_jets(X, jets, Dinv)
                        for X in (coef[0], *coef[1]))
    return _route_integrands(scenario, t, p, 0, (b_jets, xi_jets), weights, jets[0], Dinv, strat)


def _pushforward_integrand_paths(
    scenario: Scenario, flow: FlowEnsemble, drivers: DrivingPaths, strat: bool
) -> Dict[str, np.ndarray]:
    """Integrand paths for the pushforward-family selectors, batch-last
    ``comps + (npoints, P)``.

    The Lie derivatives act on the pushed-forward field, so they are
    those of :func:`_transported_integrands` at the Newton preimages of
    the observation point, with the jets of the flow map there
    (:func:`_push_transport`) and the flow coefficients' analytic jets at
    the observation point.
    """
    sde = scenario.sde
    times = flow.grid.times()
    order = 1 if strat else 2
    weights = _driver_weights(scenario, drivers)
    tp = _push_transport(scenario, flow, drivers)
    # analytic jets of the flow coefficients at the observation point,
    # with a singleton path axis for broadcasting
    q = sde.jets(times, np.broadcast_to(scenario.x0[:, None], (sde.dim, times.size)), 0, order)
    coef = _coeff_jets(sde, {k: v[..., None] for k, v in q.items()}, order)
    return dict(_transported_integrands(scenario, times[:, None], tp.preimages, tp.jets,
                                        _inverse(tp.jets[0]), weights, coef, strat))


# ---------------------------------------------------------------------------
# public evaluation entry points
# ---------------------------------------------------------------------------


def _integrand_paths(scenario: Scenario, flow: FlowEnsemble,
                     drivers: DrivingPaths) -> Tuple[Dict[str, np.ndarray], bool]:
    """The batch-last integrand paths of the selector's route (the restart
    route takes the pullback builder), and whether its form is Stratonovich."""
    sel = _row(scenario)
    build = _pushforward_integrand_paths if sel.route == "pushforward" else _pullback_integrand_paths
    return build(scenario, flow, drivers, sel.strat), sel.strat


def _rhs(scenario: Scenario, flow: FlowEnsemble, drivers: DrivingPaths) -> RhsResult:
    """The right-hand side of :func:`eval_rhs`, every array batch-last."""
    if _row(scenario).route == "restart":
        return _kunita_first_rhs(scenario, flow, drivers)
    paths, strat = _integrand_paths(scenario, flow, drivers)
    return _assemble_forward_rhs(scenario, drivers, paths, strat)


def _path_major(a: np.ndarray) -> np.ndarray:
    """A batch-last ``comps + (npoints, P)`` array as a ``(P, npoints) + comps`` view."""
    return np.moveaxis(a, (-1, -2), (0, 1))


def eval_lhs(scenario: Scenario, flow: FlowEnsemble, drivers: DrivingPaths) -> np.ndarray:
    """Transported tensor values on the grid, shape (P, npoints) + comps.

    This is the ``K`` integrand of the selector's builder (the pullback
    builder for ``KunitaFirst``, whose restart from time 0 is the flow,
    with the exact inverse of ``J`` on the contravariant slots), so it is
    :attr:`RhsResult.transported` bitwise (for ``KunitaFirst`` at the live
    checkpoint times), which a study reads instead.  The driver
    weights of ``K_t`` come from ``drivers``, as does the pushforward
    transport.  The flow is evaluated in one piece, so what this holds
    grows with its path count; a study passes one path block at a time
    (:func:`_run_level`).
    """
    return _path_major(_integrand_paths(scenario, flow, drivers)[0]["K"])


def eval_rhs(scenario: Scenario, flow: FlowEnsemble, drivers: DrivingPaths) -> RhsResult:
    """Assemble the identity's right-hand side for every path and grid time,
    the bracket as ``scenario.bracket_mode`` says, from the flow and the
    drivers it was integrated with; the arrays are path-major, ``(P,
    npoints or checkpoints) + comps``.  Like :func:`eval_lhs`, it takes
    the flow in one piece."""
    rhs = _rhs(scenario, flow, drivers)
    return replace(rhs, values=_path_major(rhs.values), transported=_path_major(rhs.transported),
                   terms={k: _path_major(v) for k, v in rhs.terms.items()})


def strat_ito_bridge_gap(scenario: Scenario, flow: FlowEnsemble, drivers: DrivingPaths) -> float:
    """Worst pathwise gap in the discrete calculus-conversion identity.

    The trapezoid-sum assembly minus the left-sum assembly must equal
    half the discrete covariations of the martingale-integrated paths
    minus the realized-bracket and second-order terms, exactly up to
    floating-point accumulation.  This is an identity of the discrete
    sums, not a convergence statement, so it is checked with the
    realized bracket.  Without noise the bracket and second-order terms
    are absent and read as zero.  It applies to every selector of the
    ``pullback`` route, whatever its own calculus, and takes the flow in
    one piece, as :func:`eval_lhs` does.
    """
    if _row(scenario).route != "pullback":
        raise WiringMismatch(f"the bridge identity applies to the pullback selectors, "
                             f"not to {scenario.theorem}")
    paths = _pullback_integrand_paths(scenario, flow, drivers, strat=False)
    realized = replace(scenario, bracket_mode="realized")
    ito = _assemble_forward_rhs(realized, drivers, paths, False)
    strat = _assemble_forward_rhs(realized, drivers, paths, True)

    correction = np.zeros_like(ito.values)
    for i in range(len(scenario.G)):
        correction += 0.5 * covariation(paths[f"G{i}"], drivers.mart[:, :, i].T, axis=-2)
    for j in range(drivers.n_noise):
        if f"LxK{j}" in paths:  # absent along a zero noise field
            correction += 0.5 * covariation(paths[f"LxK{j}"], drivers.bm[:, :, j].T, axis=-2)
    gap = strat.values - ito.values - (
        correction - ito.terms.get("bracket", 0.0) - ito.terms.get("L2", 0.0)
    )
    return float(np.max(np.abs(gap)))


# ---------------------------------------------------------------------------
# transport from intermediate times (restart wavefront)
# ---------------------------------------------------------------------------


def _checkpoint_indices(L: int, count: int) -> np.ndarray:
    idx = np.round(np.linspace(0, L, count + 1)).astype(int)[1:]
    return idx[np.diff(idx, prepend=-1) > 0]  # sorted, so a repeat follows its first


def _fold_rows(x: np.ndarray) -> np.ndarray:
    """Sum over axis -2, one row after another from zero.

    ``np.sum`` sums pairwise when the rest of ``x`` holds one element, so a
    one-path batch would round differently from a larger one.
    """
    acc = np.zeros(x.shape[:-2] + x.shape[-1:])
    for k in range(x.shape[-2]):
        acc += x[..., k, :]
    return acc


def _kunita_first_rhs(scenario: Scenario, flow: FlowEnsemble, drivers: DrivingPaths) -> RhsResult:
    """Right-hand side of the intermediate-time transport identity, batch-last.

    For each checkpoint time t the flow maps from every grid time s to t
    are realised by restarting at the observation point at s and advancing
    all restarts together with the flow's scheme step (Euler, see
    validate_scenario), their jets composed with the step map's
    (:func:`_compose`, one order above the fields' jets, which the
    selector's calculus sets, as on the push-forward route).  At the checkpoint the pulled-back tensor is the tensor pushed
    forward by the inverse map, whose jets follow from the
    implicit-function rules (:func:`_inverse_jets`), so
    :func:`_transported_integrands` gives the Lie integrands, ``comps +
    (restarts, P)``; they are summed in s, left-point in time and
    right-point (backward) against the noise.  The restart's first-order
    jet is the step program's own ``J`` update, so the restart from time
    0 is the flow itself (same step, same increments) up to a path's stop,
    and the left-hand side, its ``K``, is :func:`eval_lhs`'s; a study masks
    the checkpoints past the stop (:func:`_run_level`).  Every array of
    the result is ``comps + (checkpoints, P)``.
    """
    sde = scenario.sde
    grid = flow.grid
    L, h = grid.steps, grid.h
    times = grid.times()
    n = sde.dim
    P = flow.n_paths
    cps = _checkpoint_indices(L, _N_CHECKPOINTS)
    K0 = scenario.K0
    strat = _row(scenario).strat
    order = 1 if strat else 2  # the fields' jets; the map's reach one order more

    # batch-last: column s * P + p of Q holds path p's restart at time s
    # advanced to the current time, that of jets[r - 1] the r-th derivative
    # stack of its map; the restarts before m are the first m * P columns
    Q = np.broadcast_to(scenario.x0[:, None], (n, (L + 1) * P)).copy()
    jets = [np.broadcast_to(np.eye(n)[..., None], (n, n, (L + 1) * P)).copy()]
    jets += [np.zeros((n,) * (r + 2) + ((L + 1) * P,)) for r in range(1, order + 1)]

    # coefficient jets at the observation point for every restart time
    q = sde.jets(times, np.broadcast_to(scenario.x0[:, None], (n, L + 1)), 0, order)

    shape = K0.shape + (cps.size, P)
    out_vals, lhs = np.empty(shape), np.empty(shape)
    terms = {"L_b": np.zeros(shape)}
    if drivers.n_noise:  # as _assemble_forward_rhs reports them: L_xi, L2 only with noise
        terms.update(L_xi=np.zeros(shape), L2=np.zeros(shape))
    K_at_x0 = K0.eval_batch(0.0, scenario.x0[None, :], 0)[0][..., None]

    for m in range(L + 1):
        if m > 0:
            db = np.tile((drivers.bm[:, m] - drivers.bm[:, m - 1]).T, m)
            u, J, _, *step = scheme_step(sde, flow.scheme, 0, times[m - 1], times[m], h,
                                         Q[:, :m * P], jets[0][..., :m * P], None, db, order + 1)
            new = [J, *_compose(step, [a[..., :m * P] for a in jets])[1:]]
            for a, b in zip([Q, *jets], [u, *new]):
                a[..., :m * P] = b
        if m not in cps:
            continue
        c = np.searchsorted(cps, m)
        nrows = m + 1
        coef = _coeff_jets(sde, {k: v[..., :nrows, None] for k, v in q.items()}, order)
        x, *fwd = (a[..., :nrows * P].reshape(a.shape[:-1] + (nrows, P)) for a in (Q, *jets))
        lie = dict(_transported_integrands(scenario, times[m], x, _inverse_jets(fwd), fwd[0], (),
                                           coef, strat))
        lhs[..., c, :] = lie["K"][..., 0, :]  # the restart from time 0
        dt_w = np.full((nrows, 1), h)
        dt_w[m] = 0.0  # left sum in s: the s = t endpoint never enters
        # an absent term (a zero coefficient field) keeps its zeros
        if "LbK" in lie:
            terms["L_b"][..., c, :] = _fold_rows(lie["LbK"] * dt_w)
        if "LLK" in lie:
            terms["L2"][..., c, :] = 0.5 * _fold_rows(lie["LLK"] * dt_w)
        for j in range(sde.n_noise):
            if f"LxK{j}" in lie:
                dbj = (drivers.bm[:, 1 : m + 1, j] - drivers.bm[:, :m, j]).T
                terms["L_xi"][..., c, :] += _fold_rows(lie[f"LxK{j}"][..., 1:, :] * dbj)
        out_vals[..., c, :] = K_at_x0
        for series in terms.values():  # added in the order L_b, L_xi, L2
            out_vals[..., c, :] += series[..., c, :]
    return RhsResult(values=out_vals, terms=terms, checkpoint_indices=cps, transported=lhs)


# ---------------------------------------------------------------------------
# expanded integrand check: two independent assembly routes
# ---------------------------------------------------------------------------


def _route_a_integrands(state: Dict, valence: Tuple[int, int]) -> Dict:
    """Lie-derivative route: the :func:`_integrands` of the jets, transported and paired."""
    r, s = valence
    A, Binv = _batch_last(state["A"], 1), _batch_last(state["Binv"], 1)
    n_noise, n_fv = len(state["xi"]), len(state["G"])

    def paired(T):
        pulled = _batch_first(_contract(T, valence, Binv, A), 1)
        return pair_batch(pulled, valence, state["S"], (s, r))

    lie = dict(_integrands(_jets_last(state["K"], 1), [_jets_last(g, 1) for g in state["G"]],
                           _jets_last(state["b"], 1), [_jets_last(x, 1) for x in state["xi"]],
                           valence, strat=False))
    g1 = paired(lie["LbK"])
    if n_noise:
        g1 = g1 + 0.5 * paired(lie["LLK"])
    h2 = [paired(lie[f"LxK{j}"]) for j in range(n_noise)]
    g2 = {(i, j): paired(lie[f"LxG{i}_{j}"]) for i in range(n_fv) for j in range(n_noise)}
    g3 = [paired(lie[f"G{i}"]) for i in range(n_fv)]
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

    A_last, Binv_last = _batch_last(A, 1), _batch_last(Binv, 1)

    def paired(T, mods=None):
        # the slot matrices and their overrides transform like the pullback's
        mods = {slot: _batch_last(m, 1) for slot, m in (mods or {}).items()}
        pulled = _batch_first(_contract(_batch_last(T, 1), valence, Binv_last, A_last, mods), 1)
        return pair_batch(pulled, valence, S, (s, r))

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


def _live_sup(a: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Sup over components and live rows of a batch-last ``comps + (rows,
    P)`` array, one value per path; ``live`` is the ``(rows, P)`` mask of
    :attr:`FlowEnsemble.live` at those rows."""
    dev = np.max(np.abs(a), axis=tuple(range(a.ndim - 2)))
    return np.max(np.where(live, dev, 0.0), axis=0)


def _run_level(scenario: Scenario, drivers: DrivingPaths, flow: FlowEnsemble) -> Dict:
    """Residual and monitors of one level from its drivers and its flow.

    The level is reduced in blocks of whole paths, each of at most
    ``_JET_BLOCK_STATES`` flow states (at least one path): the block's
    right-hand side is assembled batch-last from path slices of the flow
    and the drivers (:func:`_rhs`, the arrays of :func:`eval_rhs` before
    they are made path-major) and reduced to per-path sups over the live
    rows (:func:`_live_sup`) before the next block is built, so a study
    never holds a level's integrands or term series for all its paths.
    The Jacobian monitor is taken per block too, and its max kept, so no
    temporary spans the level's Jacobians.  Every per-path result is
    independent of the other paths in its block (see
    :func:`convergence_study`), so the sups and the monitor do not depend
    on the block size.
    """
    size = max(1, _JET_BLOCK_STATES // flow.grid.npoints)
    residual, term_sups, jac_max = [], [], 0.0
    for start in range(0, flow.n_paths, size):
        f = flow.slice_paths(start, start + size)
        jac_max = max(jac_max, f.jac_consistency_max())
        rhs = _rhs(scenario, f, drivers.slice_paths(start, start + size))
        live = f.live if rhs.checkpoint_indices is None else f.live[rhs.checkpoint_indices]
        residual.append(_live_sup(rhs.transported - rhs.values, live))
        term_sups.append({k: _live_sup(v, live) for k, v in rhs.terms.items()})
        del rhs  # before the next block is built
    return {
        "residual": np.concatenate(residual),
        "term_sups": {k: np.concatenate([s[k] for s in term_sups]) for k in term_sups[0]},
        "jac_max": jac_max,
        "completed": flow.completed,
    }


# Largest number of flow states one study may hold: its path count times
# the grid points of all its levels.  87 times the largest pinned study
# (kunita_sphere_rotation: 200 paths over 65 + 129 + 257 + 513 grid
# points, 192,800 states), so a larger request is refused before the
# drivers are drawn instead of failing in numpy or exhausting memory.
MAX_STUDY_STATES = 2**24


def study_states(n_paths: int, steps: int, levels: int) -> int:
    """Flow states of a study, ``n_paths * sum_l (steps * 2**l + 1)`` over
    its ``levels`` dyadic levels of a ``steps``-step base grid.

    Raises ``ValueError`` when that exceeds :data:`MAX_STUDY_STATES`.  A
    finest level of ``2**(levels - 1)`` steps or more already does so
    once ``levels`` exceeds the bound's bit length, so ``2**levels`` is
    only formed below it.
    """
    if levels > MAX_STUDY_STATES.bit_length():
        raise ValueError(f"a study of {levels} levels holds more than "
                         f"MAX_STUDY_STATES = {MAX_STUDY_STATES} flow states")
    states = n_paths * (steps * (2**levels - 1) + levels)
    if states > MAX_STUDY_STATES:
        raise ValueError(f"a study of {n_paths} paths over {levels} levels from {steps} steps "
                         f"holds {states} flow states, more than "
                         f"MAX_STUDY_STATES = {MAX_STUDY_STATES}")
    return states


def convergence_study(
    scenario: Scenario,
    levels: int = 4,
    n_paths: Optional[int] = None,
    seed: Optional[int] = None,
    n_workers: int = 1,
) -> ResidualReport:
    """Run the scenario across dyadic refinements and fit the decay order.

    ``n_paths`` and ``seed`` stand in for the scenario's fields when
    given; every other setting, the scheme and the bracket estimator
    among them, is the scenario's own.  The drivers of every level are
    refined first.  Refinement keeps the coarse Brownian samples bitwise,
    so the study holds one Brownian record, the finest level's, and every
    coarser level's ``bm`` is a strided view of it (each level keeps its
    own ``mart``: a ``sigma_int`` driver is re-accumulated on each grid).
    Then the paths are split into ``min(n_workers, n_paths)`` chunks, run
    one after another.  For each chunk one sweep
    (:func:`integrate_flow_levels`) integrates all levels' flows and the
    levels are reduced coarse to fine.  Paths are sampled from
    counter-based streams and every per-path result is independent of
    the other paths in its chunk, so the report is byte-identical for
    any ``n_workers``.  Each evaluator and step program is generated, or
    loaded from the program cache, on its first call.  A
    study larger than :data:`MAX_STUDY_STATES` (see
    :func:`study_states`) raises ``ValueError`` before anything is
    allocated.
    """
    kw = {}
    if n_paths is not None:
        kw["n_paths"] = n_paths
    if seed is not None:
        kw["seed"] = seed
    if kw:
        scenario = replace(scenario, **kw)
    if levels < 1:
        raise ValueError(f"a study needs at least one level, got {levels}")
    if scenario.n_paths < 1:
        raise ValueError(f"a study needs at least one path, got n_paths={scenario.n_paths}")
    if n_workers < 1:
        raise ValueError(f"a study needs at least one path chunk, got n_workers={n_workers}")
    study_states(scenario.n_paths, scenario.base_grid.steps, levels)
    validate_scenario(scenario)
    P = scenario.n_paths
    drivers = [build_driving_paths(
        scenario.base_grid,
        scenario.sde.n_noise,
        scenario.seed,
        P,
        scenario.fv_specs,
        scenario.mart_specs,
    )]
    while len(drivers) < levels:
        drivers.append(refine_dyadic(drivers[-1]))
    # one Brownian record: the coarse levels' paths as views of the finest
    bm = drivers[-1].bm
    drivers = [replace(d, bm=bm[:, ::2**(levels - 1 - lvl)]) for lvl, d in enumerate(drivers)]
    grids = [d.grid for d in drivers]
    bounds = np.linspace(0, P, min(n_workers, P) + 1).astype(int)
    chunks = [[d.slice_paths(a, b) for d in drivers] for a, b in zip(bounds[:-1], bounds[1:])]
    del drivers
    per_level = [[] for _ in range(levels)]
    for ds in chunks:  # one sweep, then the levels coarse to fine, each dropped once reduced
        flows = list(integrate_flow_levels(scenario.sde, ds, scenario.x0, scenario.scheme))
        for lvl in range(levels):
            per_level[lvl].append(_run_level(scenario, ds[lvl], flows[lvl]))
            ds[lvl] = flows[lvl] = None

    stats: List[LevelStats] = []
    for lvl, parts in enumerate(per_level):
        residual = np.concatenate([p["residual"] for p in parts])
        completed = np.concatenate([p["completed"] for p in parts])
        term_sups = {
            k: np.concatenate([p["term_sups"][k] for p in parts]) for k in parts[0]["term_sups"]
        }
        any_live = bool(np.any(completed))
        stats.append(
            LevelStats(
                level=lvl,
                h=grids[lvl].h,
                steps=grids[lvl].steps,
                n_paths=P,
                rms_sup_residual=float(np.sqrt(np.mean(residual[completed] ** 2)))
                if any_live
                else float("nan"),
                max_sup_residual=float(np.max(residual[completed])) if any_live else float("nan"),
                term_means={k: float(np.mean(v)) for k, v in term_sups.items()},
                jac_consistency_max=max(p["jac_max"] for p in parts),
                blowup_fraction=float(1.0 - np.mean(completed)),
            )
        )

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
