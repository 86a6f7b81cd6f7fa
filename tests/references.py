"""References the tests compare the package against.

No study, CLI run or demo reads these.  Each is a second route to a
result the package computes another way, kept here so that the tests
can check the package against it:

- :func:`lie_jet`, the two-pass Lie derivative from pointwise jets, which
  the tests of ``kiw_verifier._lie_terms`` compare against;
- :func:`pair_batch`, the full contraction of a tensor with a test
  tensor, and :func:`pushforward_batch`, the transport that the
  pull-back (``transform_tensor(v, inv_jac, jac)``) inverts;
- :func:`expanded_integrand_check`, which compares two assemblies of the
  paired integrands of the Ito-form identity on random jet data
  (criterion 2): route A takes the package's ``_integrands``, route B
  expands the product rule over the coordinate factors;
- :func:`strat_ito_bridge_gap`, the discrete calculus-conversion identity
  between the trapezoid and left-point assemblies of the pull-back route
  (criterion 7);
- :func:`with_params`, a copy of a field with other parameter values,
  which criterion 1 draws its random fields with, and
  :func:`jacobian_consistency`, the pointwise form of the flow's
  Jacobian monitor;
- the batch-first layer the package no longer has: :func:`batch_last`,
  :func:`batch_first` and :func:`contract_batch_first`, for the tests
  whose data put the batch axes first.
"""

import string
from dataclasses import replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from flowtensor.flow import FlowEnsemble
from flowtensor.geometry import _contract, _slot_replace
from flowtensor.kiw_verifier import (Scenario, WiringMismatch, _assemble_forward_rhs, _integrands,
                                     _pullback_integrand_paths, _row)
from flowtensor.stochastics import DrivingPaths, covariation
from flowtensor.tensor_calculus import (InsufficientSmoothness, TensorFieldSpec, ValenceMismatch,
                                        _add_slot_terms, _along, _canonical_params)

# ---------------------------------------------------------------------------
# fields and Jacobians
# ---------------------------------------------------------------------------


def with_params(field: TensorFieldSpec, params: Mapping) -> TensorFieldSpec:
    """A copy of ``field`` with parameter values replaced (same expressions).

    Only declared parameters can be rebound: the copy shares the
    compiled evaluators, whose signatures are fixed.
    """
    new, given = dict(field.params), _canonical_params(params)
    unknown = sorted(k.name for k, _ in given if k not in new)
    if unknown:
        raise ValueError(f"field {field.name!r} declares no parameter(s) {unknown}")
    new.update(given)
    out = object.__new__(type(field))
    out.__dict__.update(field.__dict__)
    out.params = tuple(sorted(new.items(), key=lambda kv: kv[0].name))
    return out


def jacobian_consistency(jac: np.ndarray, inv_jac: np.ndarray) -> float:
    """Max-norm distance of ``jac @ inv_jac`` from the identity."""
    return float(np.max(np.abs(jac @ inv_jac - np.eye(jac.shape[0]))))

# ---------------------------------------------------------------------------
# contractions
# ---------------------------------------------------------------------------


def batch_last(a, nb: int, core: Optional[int] = None) -> np.ndarray:
    """C-contiguous copy of ``a`` with its ``nb`` leading batch axes moved to the end.

    With ``core`` (the number of trailing non-batch axes) given, ``a`` may
    carry fewer batch axes; it is padded with leading singletons first, as
    numpy broadcasting aligns leading batch axes.
    """
    a = np.asarray(a, dtype=float)
    if core is not None:
        a = a.reshape((1,) * (nb + core - a.ndim) + a.shape)
    return np.asarray(np.moveaxis(a, range(nb), range(a.ndim - nb, a.ndim)), order="C")


def batch_first(a: np.ndarray, nb: int) -> np.ndarray:
    """View of ``a`` with its ``nb`` trailing batch axes moved to the front."""
    return np.moveaxis(a, range(a.ndim - nb, a.ndim), range(nb))


def contract_batch_first(comps, valence, contra_mat, cov_mat) -> np.ndarray:
    """``_contract`` on batch-first arrays, whose batch axes broadcast as numpy's do;
    ``contract_batch_first(comps, valence, inv_jac, jac)`` is the pull-back."""
    k = sum(valence)
    nb = max(np.ndim(comps) - k, np.ndim(contra_mat) - 2, np.ndim(cov_mat) - 2)
    out = _contract(batch_last(comps, nb, k), valence, batch_last(contra_mat, nb, 2),
                    batch_last(cov_mat, nb, 2))
    return batch_first(out, nb)


def pushforward_batch(
    comps: np.ndarray, valence: Tuple[int, int], jac: np.ndarray, inv_jac: np.ndarray
) -> np.ndarray:
    """Pushforward contraction (inverse transport): the slots of the
    pull-back with the matrices swapped."""
    return contract_batch_first(comps, valence, jac, inv_jac)


def pair_batch(
    K: np.ndarray, valK: Tuple[int, int], S: np.ndarray, valS: Tuple[int, int]
) -> np.ndarray:
    """Full contraction ``K^I_J S^J_I`` of a (r, s) tensor with an (s, r) test tensor."""
    r, s = valK
    if valS != (s, r):
        raise ValenceMismatch(f"test tensor valence {valS}, expected {(s, r)}")
    if r + s == 0:
        return np.asarray(K, dtype=float) * np.asarray(S, dtype=float)
    kl = string.ascii_lowercase[: r + s]
    sl = kl[r:] + kl[:r]
    return np.einsum(f"...{kl},...{sl}->...", K, S)


# ---------------------------------------------------------------------------
# pointwise Lie derivative from numeric jets
# ---------------------------------------------------------------------------


def lie_jet(
    t_jets: Sequence[np.ndarray],
    x_jets: Sequence[np.ndarray],
    valence: Tuple[int, int],
    out_order: int = 0,
) -> List[np.ndarray]:
    """Lie derivative from pointwise jets, no symbolic input.

    ``t_jets[m]`` has shape ``shape + (n,) * m + batch``, batch-last as
    :meth:`TensorFieldSpec._jet_last` returns it (the axes after the
    components are derivative directions), ``x_jets[m]`` likewise with
    ``shape = (n,)``; both carry the same number of batch axes.  Needs
    jets of order ``out_order + 1`` on both inputs and returns ``[value,
    first derivative, ...]`` up to ``out_order``, batch-last.
    """
    k = sum(valence)
    if len(t_jets) < out_order + 2 or len(x_jets) < out_order + 2:
        raise InsufficientSmoothness(
            f"jet order {out_order + 1} required on both inputs for a C^{out_order} result"
        )
    if out_order >= 2:
        raise NotImplementedError("jets beyond first order are not needed here")
    T, dT, *t_rest = t_jets
    X, dX, *x_rest = x_jets
    # value: X^l d_l T  - sum_a T(l@a) d_l X^{i_a} + sum_b T(l@b) d_{j_b} X^l
    out = [_add_slot_terms(_along(dT, X, k), T, dX, valence)]
    if out_order >= 1:
        # d_m (X^l d_l T) = d_m X^l d_l T + X^l d^2_{lm} T
        term = _slot_replace(dT, dX, k, k + 1, transpose=True)
        term += _slot_replace(t_rest[0], X[:, None], k, k + 2, transpose=True)[
            (slice(None),) * k + (0,)]
        # slot terms differentiated with Leibniz
        _add_slot_terms(term, dT, dX, valence, n_extra=1)
        out.append(_add_slot_terms(term, T, x_rest[0], valence, n_m_extra=1))
    return out


# ---------------------------------------------------------------------------
# the bridge between the two assemblies of the pull-back route
# ---------------------------------------------------------------------------


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
    one piece, as ``eval_lhs`` does.
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
# expanded integrand check: two independent assembly routes
# ---------------------------------------------------------------------------


def _jets_last(jets: Sequence[np.ndarray], nb: int) -> List[np.ndarray]:
    """Batch-last copies of a jet's stacks, whose ``nb`` leading axes are batch."""
    return [batch_last(a, nb) for a in jets]


def _route_a_integrands(state: Dict, valence: Tuple[int, int]) -> Dict:
    """Lie-derivative route: the ``_integrands`` of the jets, transported and paired."""
    r, s = valence
    A, Binv = batch_last(state["A"], 1), batch_last(state["Binv"], 1)
    n_noise, n_fv = len(state["xi"]), len(state["G"])

    def paired(T):
        pulled = batch_first(_contract(T, valence, Binv, A), 1)
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

    A_last, Binv_last = batch_last(A, 1), batch_last(Binv, 1)

    def paired(T, mods=None):
        # the slot matrices and their overrides transform like the pullback's
        mods = {slot: batch_last(m, 1) for slot, m in (mods or {}).items()}
        pulled = batch_first(_contract(batch_last(T, 1), valence, Binv_last, A_last, mods), 1)
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
