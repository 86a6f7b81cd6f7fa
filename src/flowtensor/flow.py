"""Stochastic flows of diffeomorphisms with variational Jacobians.

The flow map solves (in Stratonovich form)

    dphi = b(t, phi) dt + sum_j xi_j(t, phi) o dB^j,  phi_0 = id.

``euler_maruyama`` integrates the equivalent Ito equation whose drift
carries the conversion term ``b + 1/2 sum_j (Dxi_j) xi_j``;  ``heun``
integrates the Stratonovich form directly with a predictor-corrector
step.  Both schemes advance the forward Jacobian J = Dphi and the
inverse Jacobian Jinv = Dpsi(phi) alongside the point.  The drift of the
Jacobian equations in Ito form picks up the correction matrices

    c_plus  = 1/2 sum_j (Dxi_j Dxi_j + (D2xi_j) xi_j)
    c_minus = 1/2 sum_j (Dxi_j Dxi_j - (D2xi_j) xi_j)

with dJ = (Db + c_plus) J dt + ...  and  dJinv = -Jinv (Db - c_minus) dt - ...;
the signs are fixed by the requirement that d(Jinv J) has vanishing
drift, and are exercised against closed-form linear flows in the tests.

The Jacobian update of either scheme is the exact tangent map of its
point update, so a finite-difference derivative of the discrete flow
must agree with the variational Jacobian to truncation error; that is
one of the acceptance checks.

:func:`scheme_step` is the one place both updates are written; forward
integration, the Newton inversion of the pushforward transport and the
restart wavefront all call it.  Its coefficients come from the fields'
compiled jets (:meth:`FlowSDE.coeffs`): the drift to first order, and the
noise fields to second order for Euler (``a``, ``c_plus``, ``c_minus``)
but only to first order for Heun.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .geometry import R_MAX, ChartAtlas, locate_chart, locate_chart_batch
from .stochastics import DrivingPaths, TimeGrid
from .tensor_calculus import VectorFieldSpec

__all__ = [
    "SchemeSmoothnessMismatch",
    "FlowStopped",
    "CorrectionTerms",
    "FlowSDE",
    "FlowPath",
    "FlowEnsemble",
    "integrate_flow",
    "scheme_step",
    "strat_to_ito_correction",
    "inverse_flow_residual",
    "inverse_flow_residual_ensemble",
    "jacobian_fd_check",
    "SCHEMES",
]

SCHEMES = ("euler_maruyama", "heun")

COMPLETED = "completed"
STOPPED = "stopped"


class SchemeSmoothnessMismatch(Exception):
    """Scheme requires more coefficient regularity than the fields declare."""


class FlowStopped(Exception):
    """Path data past the blow-up step was requested."""


@dataclass(frozen=True)
class CorrectionTerms:
    """Ito correction matrices for the Jacobian equations."""

    c_plus: np.ndarray
    c_minus: np.ndarray


@dataclass(frozen=True)
class FlowSDE:
    """Coefficients of the flow equation on an atlas."""

    drift: VectorFieldSpec
    diffusions: Tuple[VectorFieldSpec, ...]
    atlas: ChartAtlas

    def __post_init__(self):
        object.__setattr__(self, "diffusions", tuple(self.diffusions))
        n = self.atlas.dim
        for f in (self.drift, *self.diffusions):
            if f.valence != (1, 0) or f.dim != n:
                raise ValueError(f"flow coefficient {f.name!r} has wrong shape for dim {n}")
            for ch in self.atlas.charts:
                if ch.id not in f.comps:
                    raise ValueError(f"coefficient {f.name!r} missing on chart {ch.id}")

    @property
    def dim(self) -> int:
        return self.atlas.dim

    @property
    def n_noise(self) -> int:
        return len(self.diffusions)

    def available_k(self) -> int:
        """Flow regularity k granted by the coefficients (b C^k, xi C^{k+1})."""
        k = self.drift.smoothness_order
        for xi in self.diffusions:
            k = min(k, xi.smoothness_order - 1)
        return k

    def coeffs(self, t, pts: np.ndarray, chart: int, noise_order: int) -> Dict[str, np.ndarray]:
        """Scheme coefficients at a batch of points, from the fields' compiled jets.

        Returns ``b`` and ``Db`` (drift and its Jacobian), ``xi`` and
        ``Dxi`` (stacked over the noise fields, leading axis of length
        ``n_noise``).  With ``noise_order`` 2 it adds the Ito drift ``a``
        and the correction matrices ``cp`` / ``cm``, which need the second
        derivatives of the noise fields.
        """
        b, Db = self.drift.jet_batch(t, pts, chart, 1)
        jets = [xi.jet_batch(t, pts, chart, noise_order) for xi in self.diffusions]
        N = self.n_noise
        xi = np.array([j[0] for j in jets]).reshape((N,) + b.shape)
        Dxi = np.array([j[1] for j in jets]).reshape((N,) + Db.shape)
        out = {"b": b, "Db": Db, "xi": xi, "Dxi": Dxi}
        if noise_order >= 2:
            D2xi = np.array([j[2] for j in jets]).reshape((N,) + Db.shape + (self.dim,))
            # 1/2 sum_j xi_j^l d_l xi_j^i, and sum_j xi_j^l d_l d_m xi_j^i
            conv = 0.5 * np.sum(Dxi @ xi[..., None], axis=0)[..., 0]
            second = np.sum(xi[..., None, None, :] @ D2xi, axis=0)[..., 0, :]
            sq = np.sum(Dxi @ Dxi, axis=0)
            out.update(a=b + conv, cp=0.5 * (sq + second), cm=0.5 * (sq - second))
        return out


def scheme_step(sde: FlowSDE, scheme: str, cid: int, t0: float, t1: float, h: float,
                u: np.ndarray, J: np.ndarray, Ji: Optional[np.ndarray], db: np.ndarray):
    """One step of ``scheme`` over ``[t0, t1]`` for points ``u`` in chart ``cid``.

    Advances the points, the forward Jacobians ``J`` by the exact tangent
    of the point update, and the inverse Jacobians ``Ji`` (skipped when
    ``Ji`` is None).  ``db`` holds the Brownian increments, shape
    ``(m, n_noise)``.  Returns ``(u, J, Ji)`` after the step.
    """

    def sweep(q, drift):
        # point increment and tangent of the noise part, one Euler sweep
        du = q[drift] * h
        W = np.zeros_like(q["Db"])
        for j in range(sde.n_noise):
            w = db[:, j : j + 1]
            du = du + q["xi"][j] * w
            W = W + q["Dxi"][j] * w[..., None]
        return du, W

    if scheme == "euler_maruyama":
        q = sde.coeffs(t0, u, cid, 2)
        du, W = sweep(q, "a")
        Jn = J + ((q["Db"] + q["cp"]) * h + W) @ J
        Jin = None if Ji is None else Ji - Ji @ ((q["Db"] - q["cm"]) * h + W)
        return u + du, Jn, Jin
    if scheme != "heun":
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    q0 = sde.coeffs(t0, u, cid, 1)
    du0, W0 = sweep(q0, "b")
    M0 = q0["Db"] * h + W0
    q1 = sde.coeffs(t1, u + du0, cid, 1)
    du1, W1 = sweep(q1, "b")
    M1 = q1["Db"] * h + W1
    A0 = M0 @ J
    Jn = J + 0.5 * (A0 + M1 @ (J + A0))
    Jin = None
    if Ji is not None:
        B0 = Ji @ M0
        Jin = Ji - 0.5 * (B0 + (Ji - B0) @ M1)
    return u + 0.5 * (du0 + du1), Jn, Jin


def strat_to_ito_correction(sde: FlowSDE, t: float, coords: np.ndarray, chart: int = 0) -> CorrectionTerms:
    """Correction matrices ``c_plus`` / ``c_minus`` at a batch of points."""
    pts = np.atleast_2d(np.asarray(coords, dtype=float))
    out = sde.coeffs(t, pts, chart, 2)
    squeeze = np.asarray(coords).ndim == 1
    cp, cm = out["cp"], out["cm"]
    if squeeze:
        cp, cm = cp[0], cm[0]
    return CorrectionTerms(c_plus=cp, c_minus=cm)


@dataclass(frozen=True)
class FlowPath:
    """One realised flow trajectory with its transport data."""

    grid: TimeGrid
    atlas: ChartAtlas
    scheme: str
    path_id: int
    charts: np.ndarray  # (L+1,)
    coords: np.ndarray  # (L+1, n)
    jac: np.ndarray  # (L+1, n, n)
    inv_jac: np.ndarray  # (L+1, n, n)
    status: str
    stop_step: int  # first invalid step for stopped paths, npoints otherwise
    hops: Tuple[Tuple[int, int, int], ...]  # (step, from chart, to chart)

    def state(self, k: int):
        if k >= self.stop_step:
            raise FlowStopped(
                f"path {self.path_id} stopped at step {self.stop_step}, state {k} requested"
            )
        return self.charts[k], self.coords[k], self.jac[k], self.inv_jac[k]


@dataclass(frozen=True)
class FlowEnsemble:
    """Realised flow trajectories for a whole driver ensemble."""

    grid: TimeGrid
    atlas: ChartAtlas
    scheme: str
    path_ids: np.ndarray  # (P,)
    charts: np.ndarray  # (L+1, P)
    coords: np.ndarray  # (L+1, P, n)
    jac: np.ndarray  # (L+1, P, n, n)
    inv_jac: np.ndarray  # (L+1, P, n, n)
    stop_step: np.ndarray  # (P,), npoints where the path completed
    hops: Tuple[Tuple[int, int, int, int], ...]  # (step, path pos, from, to)

    @property
    def n_paths(self) -> int:
        return self.coords.shape[1]

    @property
    def completed(self) -> np.ndarray:
        return self.stop_step >= self.grid.npoints

    def blowup_fraction(self) -> float:
        return float(1.0 - np.mean(self.completed))

    def path(self, pos: int) -> FlowPath:
        hops = tuple((k, a, b) for (k, p, a, b) in self.hops if p == pos)
        return FlowPath(
            grid=self.grid,
            atlas=self.atlas,
            scheme=self.scheme,
            path_id=int(self.path_ids[pos]),
            charts=self.charts[:, pos],
            coords=self.coords[:, pos],
            jac=self.jac[:, pos],
            inv_jac=self.inv_jac[:, pos],
            status=COMPLETED if self.stop_step[pos] >= self.grid.npoints else STOPPED,
            stop_step=int(self.stop_step[pos]),
            hops=hops,
        )

    def jac_consistency_max(self) -> float:
        """Worst ``|J Jinv - I|`` over all live states."""
        n = self.coords.shape[2]
        eye = np.eye(n)
        worst = 0.0
        live = self._live_mask()
        prod = np.matmul(self.jac, self.inv_jac) - eye
        dev = np.max(np.abs(prod), axis=(2, 3))
        if np.any(live):
            worst = float(np.max(dev[live]))
        return worst

    def _live_mask(self) -> np.ndarray:
        ks = np.arange(self.grid.npoints)[:, None]
        return ks < self.stop_step[None, :]


def _require_scheme_smoothness(sde: FlowSDE, scheme: str):
    if scheme == "euler_maruyama":
        need_b, need_xi = 1, 2
    elif scheme == "heun":
        need_b, need_xi = 1, 1
        for xi in sde.diffusions:
            if not xi.time_c1:
                raise SchemeSmoothnessMismatch(
                    f"predictor-corrector stepping needs time-C1 noise coefficients; "
                    f"{xi.name!r} is declared rougher"
                )
    else:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    if sde.drift.smoothness_order < need_b:
        raise SchemeSmoothnessMismatch(
            f"scheme {scheme!r} needs drift C^{need_b}, got C^{sde.drift.smoothness_order}"
        )
    for xi in sde.diffusions:
        if xi.smoothness_order < need_xi:
            raise SchemeSmoothnessMismatch(
                f"scheme {scheme!r} needs noise C^{need_xi}, got C^{xi.smoothness_order}"
            )


def integrate_flow(
    sde: FlowSDE,
    drivers: DrivingPaths,
    x0: np.ndarray,
    scheme: str = "euler_maruyama",
    start_chart: int = 0,
) -> FlowEnsemble:
    """Integrate the flow and its variational equations for all driver paths."""
    _require_scheme_smoothness(sde, scheme)
    if drivers.n_noise != sde.n_noise:
        raise ValueError(
            f"drivers carry {drivers.n_noise} noise components, sde has {sde.n_noise}"
        )
    atlas = sde.atlas
    n = sde.dim
    grid = drivers.grid
    L = grid.steps
    h = grid.h
    P = drivers.n_paths
    times = grid.times()

    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 1:
        x0 = np.broadcast_to(x0, (P, n)).copy()
    cid0 = locate_chart(atlas, x0[0], start_chart)
    if cid0 != start_chart:
        x0 = atlas.transition_between(start_chart, cid0).apply(x0)
    coords = np.empty((L + 1, P, n))
    charts = np.empty((L + 1, P), dtype=int)
    jac = np.empty((L + 1, P, n, n))
    inv_jac = np.empty((L + 1, P, n, n))
    coords[0] = x0
    charts[0] = cid0
    jac[0] = np.eye(n)
    inv_jac[0] = np.eye(n)
    stop_step = np.full(P, L + 1, dtype=int)
    active = np.ones(P, dtype=bool)
    hops: List[Tuple[int, int, int, int]] = []

    for k in range(L):
        coords[k + 1] = coords[k]
        charts[k + 1] = charts[k]
        jac[k + 1] = jac[k]
        inv_jac[k + 1] = inv_jac[k]
        if not np.any(active):
            continue
        dB = drivers.bm[:, k + 1, :] - drivers.bm[:, k, :]
        for cid in sorted(set(charts[k, active].tolist())):
            sel = active & (charts[k] == cid)
            idx = np.flatnonzero(sel)
            coords[k + 1, idx], jac[k + 1, idx], inv_jac[k + 1, idx] = scheme_step(
                sde, scheme, cid, times[k], times[k + 1], h, coords[k, idx], jac[k, idx],
                inv_jac[k, idx], dB[idx]
            )

        # blow-up: non-finite or runaway coordinates stop the path at k+1
        bad = active & (
            ~np.isfinite(coords[k + 1]).all(axis=1) | (np.abs(coords[k + 1]).max(axis=1) > R_MAX)
        )
        if np.any(bad):
            stop_step[bad] = k + 1
            active &= ~bad

        # chart hops: leaving the 2r ball hands the path to a covering chart
        for cid in sorted(set(charts[k + 1, active].tolist())):
            ch = atlas.chart(cid)
            sel = active & (charts[k + 1] == cid)
            idx = np.flatnonzero(sel)
            if idx.size == 0:
                continue
            out_ball = ch.dist(coords[k + 1, idx]) > ch.hop_radius
            movers = idx[out_ball]
            if movers.size == 0:
                continue
            new_ids = locate_chart_batch(atlas, coords[k + 1, movers], cid)
            lost = movers[new_ids < 0]
            if lost.size:
                stop_step[lost] = k + 1
                active[lost] = False
            for nid in sorted(set(new_ids[new_ids >= 0].tolist())):
                grp = movers[new_ids == nid]
                if nid == cid or grp.size == 0:
                    continue
                fwd = atlas.transition_between(cid, nid)
                rev = atlas.transition_between(nid, cid)
                old_u = coords[k + 1, grp]
                new_u = fwd.apply(old_u)
                T = fwd.jacobian(old_u)
                Tinv = rev.jacobian(new_u)
                coords[k + 1, grp] = new_u
                jac[k + 1, grp] = T @ jac[k + 1, grp]
                inv_jac[k + 1, grp] = inv_jac[k + 1, grp] @ Tinv
                charts[k + 1, grp] = nid
                for p in grp:
                    hops.append((k + 1, int(p), cid, nid))

    # freeze stopped paths at their last valid state
    for p in np.flatnonzero(stop_step <= L):
        s = stop_step[p]
        coords[s:, p] = coords[s - 1, p] if s > 0 else coords[0, p]
        charts[s:, p] = charts[s - 1, p] if s > 0 else charts[0, p]
        jac[s:, p] = jac[s - 1, p] if s > 0 else jac[0, p]
        inv_jac[s:, p] = inv_jac[s - 1, p] if s > 0 else inv_jac[0, p]

    return FlowEnsemble(
        grid=grid,
        atlas=atlas,
        scheme=scheme,
        path_ids=drivers.path_ids.copy(),
        charts=charts,
        coords=coords,
        jac=jac,
        inv_jac=inv_jac,
        stop_step=np.minimum(stop_step, L + 1),
        hops=tuple(hops),
    )


# ---------------------------------------------------------------------------
# inverse flow
# ---------------------------------------------------------------------------


def _backward_step(sde: FlowSDE, scheme: str, cid: int, t_left: float, t_right: float,
                   h: float, q: np.ndarray, db: np.ndarray) -> np.ndarray:
    """Approximate inverse of one forward step, applied to points ``q``.

    This mirrors the forward scheme on the transport equation of the
    inverse flow; it is deliberately not an exact (Newton) inversion of
    the forward step map, so the returned points carry the scheme's own
    one-step inversion error.
    """
    if scheme == "euler_maruyama":
        k = sde.coeffs(t_left, q, cid, 2)
        out = q - k["a"] * h
        for j in range(sde.n_noise):
            w = db[:, j : j + 1]
            out = out - k["xi"][j] * w
            # second-order noise term of the inverse expansion
            for l in range(sde.n_noise):
                wl = db[:, l : l + 1]
                out = out + (k["Dxi"][j] @ k["xi"][l][..., None])[..., 0] * w * wl
        return out
    # heun: predictor-corrector on the inverse transport equation, run
    # from the right endpoint of the step towards the left
    k1 = sde.coeffs(t_right, q, cid, 1)
    pred = q - k1["b"] * h
    for j in range(sde.n_noise):
        pred = pred - k1["xi"][j] * db[:, j : j + 1]
    k0 = sde.coeffs(t_left, pred, cid, 1)
    out = q - 0.5 * (k1["b"] + k0["b"]) * h
    for j in range(sde.n_noise):
        out = out - 0.5 * (k1["xi"][j] + k0["xi"][j]) * db[:, j : j + 1]
    return out


def inverse_flow_residual_ensemble(flow: FlowEnsemble, sde: FlowSDE, drivers: DrivingPaths) -> np.ndarray:
    """Distance of the reconstructed inverse flow from the start points.

    For every grid time t_k the endpoint phi_{t_k}(x) is pushed back to
    time zero through per-step mirrors of the forward scheme, and the
    Euclidean distance to x is reported; shape (P, L+1), zero column at
    k = 0 and for stopped paths entries past the stop are zero.
    """
    if len(flow.atlas.charts) != 1:
        raise NotImplementedError("inverse reconstruction is supported on single-chart atlases")
    grid = flow.grid
    L = grid.steps
    P = flow.n_paths
    n = flow.coords.shape[2]
    h = grid.h
    times = grid.times()
    live = flow.stop_step[None, :] > np.arange(L + 1)[:, None]  # (L+1, P)

    # wavefront: row k-1 holds the current preimage of phi_{t_k}(x)
    q = flow.coords[1:].reshape(L * P, n).copy()
    residual = np.zeros((P, L + 1))
    for j in range(L, 0, -1):
        sel = np.repeat(np.arange(1, L + 1) >= j, P) & live[1:].reshape(-1)
        if not np.any(sel):
            continue
        db = np.broadcast_to(
            drivers.bm[:, j, :] - drivers.bm[:, j - 1, :], (L, P, drivers.n_noise)
        ).reshape(L * P, -1)
        q[sel] = _backward_step(
            sde, flow.scheme, 0, times[j - 1], times[j], h, q[sel], db[sel]
        )
    x0 = flow.coords[0]  # (P, n)
    recon = q.reshape(L, P, n)
    dist = np.linalg.norm(recon - x0[None, :, :], axis=2)
    residual[:, 1:] = np.where(live[1:], dist, 0.0).T
    return residual


def inverse_flow_residual(fp: FlowPath, sde: FlowSDE, drivers: DrivingPaths) -> np.ndarray:
    """Per-path inverse reconstruction residual on the grid (length L+1)."""
    if fp.status != COMPLETED:
        raise FlowStopped(f"path {fp.path_id} stopped at step {fp.stop_step}")
    pos = int(np.flatnonzero(drivers.path_ids == fp.path_id)[0])
    single = drivers.slice_paths(pos, pos + 1)
    ens = FlowEnsemble(
        grid=fp.grid,
        atlas=fp.atlas,
        scheme=fp.scheme,
        path_ids=np.array([fp.path_id]),
        charts=fp.charts[:, None],
        coords=fp.coords[:, None, :],
        jac=fp.jac[:, None, :, :],
        inv_jac=fp.inv_jac[:, None, :, :],
        stop_step=np.array([fp.stop_step]),
        hops=tuple((k, 0, a, b) for (k, a, b) in fp.hops),
    )
    return inverse_flow_residual_ensemble(ens, sde, single)[0]


def jacobian_fd_check(
    sde: FlowSDE,
    drivers: DrivingPaths,
    x0: np.ndarray,
    scheme: str,
    start_chart: int = 0,
    eps: float = 1.0e-5,
) -> float:
    """Worst relative deviation of the variational Jacobian from a
    finite-difference derivative of the discrete flow map.

    Runs the flow from ``x0 +- eps e_i`` with the same drivers and
    central-differences the endpoint coordinates.  Grid states where the
    bumped runs land in different charts than the base run are skipped
    (the coordinate difference is meaningless across charts), as are
    states past any stop.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    base = integrate_flow(sde, drivers, x0, scheme, start_chart)
    worst = 0.0
    valid = base.stop_step[None, :] > np.arange(base.grid.npoints)[:, None]
    fd = np.empty(base.coords.shape + (n,))  # (L+1, P, n_out, n_in)
    for i in range(n):
        e = np.zeros(n)
        e[i] = eps
        plus = integrate_flow(sde, drivers, x0 + e, scheme, start_chart)
        minus = integrate_flow(sde, drivers, x0 - e, scheme, start_chart)
        fd[..., i] = (plus.coords - minus.coords) / (2.0 * eps)
        valid &= plus.stop_step[None, :] > np.arange(base.grid.npoints)[:, None]
        valid &= minus.stop_step[None, :] > np.arange(base.grid.npoints)[:, None]
        valid &= (plus.charts == base.charts) & (minus.charts == base.charts)
    dev = np.abs(fd - base.jac)
    scale = np.maximum(1.0, np.abs(base.jac))
    rel = np.max(dev / scale, axis=(2, 3))
    if np.any(valid):
        worst = float(np.max(rel[valid]))
    return worst
