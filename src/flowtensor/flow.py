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
restart wavefront all call it.  It works on batch-last arrays (component
axes first, points last) and makes one compiled call per step
(:meth:`FlowSDE._step_program`, one program per chart, scheme and
whether ``Jinv`` is advanced).  The program takes the drift jet to first
order and every noise jet to second order for Euler (``a``, ``c_plus``,
``c_minus``) but only to first order for Heun; one common-subexpression
pass covers the point update and the tangent matrices ``M`` of the
Jacobian updates, whose products with ``J`` and ``Jinv`` are plain sums
over the entries of ``M``.  :meth:`FlowSDE.coeffs` evaluates the same
coefficients as arrays for the backward step and the correction terms.

:func:`integrate_flow_levels` is the only forward integration loop.  It
advances the refinement levels of one driver ensemble together over the
finest grid: every level's columns sit side by side in one state buffer
laid out as the step program's rows, and a step call covers each chart
group of the levels that step at that fine step, each column with its
own level's times, step size and increments.  :func:`integrate_flow` is
its one-level case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import sympy as sp

from . import tensor_calculus
from .geometry import (R_MAX, ChartAtlas, NoCoveringChart, _batch_first,
                       _slot_replace, locate_chart_batch)
from .stochastics import DrivingPaths, TimeGrid
from .tensor_calculus import TIME, VectorFieldSpec, _jet_layout, coord_symbols

__all__ = [
    "SchemeSmoothnessMismatch",
    "FlowStopped",
    "CorrectionTerms",
    "FlowSDE",
    "FlowPath",
    "FlowEnsemble",
    "integrate_flow",
    "integrate_flow_levels",
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

# the step program's end time and step size
_T1, _H = sp.Symbol("_t1"), sp.Symbol("_h")


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
        object.__setattr__(self, "_programs", {})
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

    def _program(self, chart: int, noise_order: int):
        """Flat coefficient expressions of one chart, their parameters and layout.

        The drift's value and first partials come first, then the noise
        fields' values, first partials and (to ``noise_order``) second
        partials, each stack over all noise fields in turn, components in
        C order; the layout lists each stack's name, rows and shape.
        Every field's parameters are renamed to symbols prefixed with its
        position, so two fields may bind one name to different values.
        Requesting partials beyond a field's declared smoothness raises
        ``InsufficientSmoothness``.
        """
        key = (chart, noise_order)
        if key not in self._programs:
            n, N = self.dim, self.n_noise
            stacks, psyms, pvals = [], [], []
            for k, f in enumerate((self.drift, *self.diffusions)):
                alphas, columns = _jet_layout(n, 1 if k == 0 else noise_order, n)
                rename = {s: sp.Symbol(f"c{k}_{s.name}", real=True) for s, _ in f.params}
                flat = [e.xreplace(rename) for e in f._exprs(chart, alphas)]
                stacks.append([[flat[c] for c in cols] for cols in columns])
                psyms += rename.values()
                pvals += [v for _, v in f.params]
            groups = [("b", (n,), stacks[0][0]), ("Db", (n, n), stacks[0][1])]
            groups += [(("xi", "Dxi", "D2xi")[m], (N,) + (n,) * (m + 1),
                        [e for st in stacks[1:] for e in st[m]]) for m in range(noise_order + 1)]
            exprs, layout = [], []
            for nm, shape, rows in groups:
                layout.append((nm, len(exprs), len(exprs) + len(rows), shape))
                exprs += rows
            self._programs[key] = (tuple(exprs), tuple(psyms), tuple(pvals), layout)
        return self._programs[key]

    def jets(self, t, pts: np.ndarray, chart: int, noise_order: int) -> Dict[str, np.ndarray]:
        """Drift and noise jets at batch-last points ``pts`` (shape ``(n,) + batch``).

        One compiled call (common subexpressions shared, the function held
        per chart and noise order) writes every value into one
        ``(C,) + batch`` buffer, and the results are views of it, batch-last: ``b`` and ``Db`` (drift and its Jacobian,
        ``Db[i, l] = d_l b^i``), ``xi``, ``Dxi`` and, with ``noise_order``
        2, ``D2xi`` (leading axis over the noise fields, derivative
        directions last).
        """
        key = ("jets", chart, noise_order)
        if key not in self._programs:
            exprs, psyms, pvals, layout = self._program(chart, noise_order)
            rows = sp.symbols(f"_q0:{len(exprs)}")
            fn = tensor_calculus._compiled(rows, (TIME,) + coord_symbols(self.dim) + psyms,
                                           (tuple(zip(rows, exprs)),))
            self._programs[key] = (fn, pvals, layout, len(exprs))
        fn, pvals, layout, rows = self._programs[key]
        pts = np.asarray(pts, dtype=float)
        batch = np.broadcast(t, pts[0]).shape
        buf = np.empty((rows,) + batch)
        for i, v in enumerate(fn(t, *pts, *pvals)):
            buf[i] = v
        return {nm: buf[a:b].reshape(shape + batch) for nm, a, b, shape in layout}

    def _step_program(self, chart: int, scheme: str, with_inv: bool):
        """The compiled step of ``scheme`` in ``chart`` and its parameter values.

        The function takes ``(t0, t1, h, x, db, J, Ji, params)``, each
        array entry an argument of its own in C order (``Ji`` only
        ``with_inv``), and returns the rows of the new points, then of the
        new ``J`` and ``Ji``.  Euler writes ``u + a h + sum_j xi_j db_j``,
        ``J + M+ J`` and ``Ji - Ji M-`` with ``M+- = (Db +- c+-) h + W`` and
        ``W = sum_j Dxi_j db_j``; Heun writes the same sweep (``Db h + W``)
        at ``(t0, x)`` and, through the bound predictor ``x + du0``, at
        ``t1``.  The coefficients are the expressions of :meth:`_program`;
        the point and ``M`` rows share one common-subexpression pass, and
        the Jacobian products are plain sums over entry symbols of ``M``.
        """
        key = (chart, scheme, with_inv)
        if key not in self._programs:
            if scheme not in SCHEMES:
                raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
            n, N = self.dim, self.n_noise
            euler = scheme == "euler_maruyama"
            exprs, psyms, pvals, layout = self._program(chart, 2 if euler else 1)
            q = {nm: _objects(exprs[a:b], shape) for nm, a, b, shape in layout}
            xs = _objects(coord_symbols(n), (n,))
            db = sp.symbols(f"_db0:{N}")
            J = _objects(sp.symbols(f"_J0:{n}_0:{n}"), (n, n))
            Ji = _objects(sp.symbols(f"_Ji0:{n}_0:{n}"), (n, n))
            xi, Dxi = q["xi"], q["Dxi"]

            def noise_sum(f, shape):
                return sum((f(j) for j in range(N)), np.zeros(shape, dtype=object))

            W = noise_sum(lambda j: Dxi[j] * db[j], (n, n))
            noise = noise_sum(lambda j: xi[j] * db[j], (n,))
            if euler:
                D2xi = q["D2xi"]
                a = q["b"] + noise_sum(lambda j: Dxi[j] @ xi[j], (n,)) / 2
                sq = noise_sum(lambda j: Dxi[j] @ Dxi[j], (n, n))
                second = noise_sum(lambda j: D2xi[j] @ xi[j], (n, n))
                blocks = [[]]
                u1 = _bind(blocks[0], "u", xs + a * _H + noise)
                Mp = _bind(blocks[0], "Mp", (q["Db"] + (sq + second) / 2) * _H + W)
                Jn = J + Mp @ J
                if with_inv:
                    Mm = _bind(blocks[0], "Mm", (q["Db"] - (sq - second) / 2) * _H + W)
                    Jin = Ji - Ji @ Mm
            else:
                # the sweep at (t0, x), then at (t1, x + du0) with du0 bound
                du, M = q["b"] * _H + noise, q["Db"] * _H + W
                blocks = [[], [], [], []]
                du0, M0 = _bind(blocks[0], "du0_", du), _bind(blocks[0], "M0_", M)
                sub = {TIME: _T1, **dict(zip(xs, _bind(blocks[1], "y", xs + du0)))}

                def at_y(arr):
                    return _objects([e.xreplace(sub) for e in arr.flat], arr.shape)

                du1, M1 = _bind(blocks[2], "du1_", at_y(du)), _bind(blocks[2], "M1_", at_y(M))
                A0 = _bind(blocks[3], "A0_", M0 @ J)
                u1 = xs + (du0 + du1) / 2
                Jn = J + (A0 + M1 @ (J + A0)) / 2
                if with_inv:
                    B0 = _bind(blocks[3], "B0_", Ji @ M0)
                    Jin = Ji - (B0 + (Ji - B0) @ M1) / 2
            outs = (*u1.flat, *Jn.flat, *(Jin.flat if with_inv else ()))
            args = (TIME, _T1, _H, *xs, *db, *J.flat, *(Ji.flat if with_inv else ()), *psyms)
            blocks = tuple(tuple(blk) for blk in blocks if blk)
            self._programs[key] = (tensor_calculus._compiled(outs, args, blocks), pvals)
        return self._programs[key]

    def coeffs(self, t, pts: np.ndarray, chart: int, noise_order: int) -> Dict[str, np.ndarray]:
        """Scheme coefficients at batch-last points: the :meth:`jets` and,
        with ``noise_order`` 2, the Ito drift ``a`` and the correction
        matrices ``cp`` / ``cm``."""
        out = self.jets(t, pts, chart, noise_order)
        if noise_order < 2:
            return out
        n, N, batch = self.dim, self.n_noise, out["b"].shape[1:]
        # the (noise j, direction l) terms of sq, second and conv, multiplied at
        # once, then added in order of (j, l), so no sum depends on the batch size
        xi, Dxi, D2xi = out["xi"], out["Dxi"], out["D2xi"]
        dxi = Dxi.swapaxes(1, 2)  # [j, l, i]
        terms = np.empty((N, n, n, 2 * n + 1) + batch)
        np.multiply(dxi[:, :, :, None], Dxi[:, :, None], out=terms[:, :, :, :n])
        np.multiply(D2xi.swapaxes(1, 2), xi[:, :, None, None], out=terms[:, :, :, n:-1])
        np.multiply(dxi, xi[:, :, None], out=terms[:, :, :, -1])
        S = np.zeros((n, 2 * n + 1) + batch)
        for term in terms.reshape((N * n, n, 2 * n + 1) + batch):
            S += term
        sq, second, conv = S[:, :n], S[:, n:-1], S[:, -1]
        out.update(a=out["b"] + 0.5 * conv, cp=0.5 * (sq + second), cm=0.5 * (sq - second))
        return out


def scheme_step(sde: FlowSDE, scheme: str, cid: int, t0: float, t1: float, h: float,
                u: np.ndarray, J: np.ndarray, Ji: Optional[np.ndarray], db: np.ndarray):
    """One step of ``scheme`` over ``[t0, t1]`` for points ``u`` in chart ``cid``.

    Advances the points, the forward Jacobians ``J`` by the exact tangent
    of the point update, and the inverse Jacobians ``Ji`` (skipped when
    ``Ji`` is None).  Every array is batch-last: ``u`` has shape ``(n, m)``,
    ``J`` and ``Ji`` ``(n, n, m)`` (a singleton batch axis broadcasts) and
    the Brownian increments ``db`` ``(n_noise, m)``; ``t0``, ``t1`` and ``h``
    are floats or ``(m,)`` arrays, one entry per column.  One call of the
    chart's compiled step program (:meth:`FlowSDE._step_program`) writes
    every new entry into one buffer, rows in C order: the points, then
    ``J`` and ``Ji``; returns ``(u, J, Ji)`` after the step as views of
    it, so the buffer itself is ``u.base``.
    """
    fn, pvals = sde._step_program(cid, scheme, Ji is not None)
    n, batch = sde.dim, u.shape[1:]
    inv = () if Ji is None else Ji.reshape((n * n,) + Ji.shape[2:])
    rows = fn(t0, t1, h, *u, *db, *J.reshape((n * n,) + J.shape[2:]), *inv, *pvals)
    out = np.empty((len(rows),) + batch)
    for i, v in enumerate(rows):
        out[i] = v
    shape = (n, n) + batch
    return (out[:n], out[n:n + n * n].reshape(shape),
            None if Ji is None else out[n + n * n:].reshape(shape))


def _objects(seq, shape) -> np.ndarray:
    """The sympy objects of ``seq`` as an object array of ``shape``, C order."""
    out = np.empty(len(seq), dtype=object)
    out[:] = list(seq)
    return out.reshape(shape)


def _bind(block: list, name: str, exprs: np.ndarray) -> np.ndarray:
    """Entry symbols ``_<name><i>`` for ``exprs`` (C order), bound in ``block``.

    Constant entries are returned as they are, so products with them
    simplify when the step program is built.
    """
    out = _objects(sp.symbols(f"_{name}0:{exprs.size}"), exprs.shape)
    for k, e in enumerate(exprs.flat):
        e = sp.sympify(e)
        if e.is_Number:
            out.flat[k] = e
        else:
            block.append((out.flat[k], e))
    return out


def strat_to_ito_correction(sde: FlowSDE, t: float, coords: np.ndarray, chart: int = 0) -> CorrectionTerms:
    """Correction matrices ``c_plus`` / ``c_minus`` at a batch of points."""
    out = sde.coeffs(t, np.moveaxis(np.asarray(coords, dtype=float), -1, 0), chart, 2)
    nb = out["cp"].ndim - 2
    return CorrectionTerms(c_plus=_batch_first(out["cp"], nb), c_minus=_batch_first(out["cm"], nb))


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
    charts: np.ndarray  # (L+1, P), the smallest unsigned type holding the chart count
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

    def slice_paths(self, start: int, stop: int) -> "FlowEnsemble":
        """The paths at positions ``start:stop``, as views; hops renumbered."""
        return replace(
            self,
            path_ids=self.path_ids[start:stop],
            charts=self.charts[:, start:stop],
            coords=self.coords[:, start:stop],
            jac=self.jac[:, start:stop],
            inv_jac=self.inv_jac[:, start:stop],
            stop_step=self.stop_step[start:stop],
            hops=tuple((k, p - start, a, b) for (k, p, a, b) in self.hops if start <= p < stop),
        )

    def jac_consistency_max(self) -> float:
        """Worst ``|J Jinv - I|`` over all live states."""
        # batch-last views: integrate_flow stores the Jacobians that way
        J, Ji = (np.moveaxis(a, (2, 3), (0, 1)) for a in (self.jac, self.inv_jac))
        dev = np.abs(_slot_replace(Ji, J, 0, 2) - np.eye(J.shape[0])[..., None, None])
        live = self._live_mask()
        return float(np.max(dev.max(axis=(0, 1))[live])) if np.any(live) else 0.0

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
    """Integrate the flow and its variational equations for all driver paths.

    The one-level case of :func:`integrate_flow_levels`.
    """
    return integrate_flow_levels(sde, (drivers,), x0, scheme, start_chart)[0]


def integrate_flow_levels(
    sde: FlowSDE,
    levels: Sequence[DrivingPaths],
    x0: np.ndarray,
    scheme: str = "euler_maruyama",
    start_chart: int = 0,
) -> Tuple[FlowEnsemble, ...]:
    """Integrate the flow on nested grids of the same paths in one time loop.

    ``levels`` are driver ensembles of the same paths (``path_ids``),
    noise count and horizon on nested grids: every step count divides
    the next finer one.  All levels' columns sit side by side in one
    state buffer, finest level first, in the step program's row layout:
    ``n`` point rows, then the ``n*n`` rows of ``J`` and of ``Jinv``, one
    column per path and level.  The loop runs over the finest grid.  A
    level of ``L_f / r`` steps advances at every ``r``-th fine step, so
    the levels stepping at a fine step are a leading slice of the
    columns; their increments are written into one buffer, and each
    chart group of that slice (one group on a single-chart atlas) is one
    :func:`scheme_step` call on row views of the buffer with per-column
    ``t0``, ``t1``, ``h`` and increments, whose result is copied back
    once.  The step program is elementwise, so each level's ensemble is
    bitwise the one it would get on its own.  After the step calls, the
    blow-up test and the hop test run once over the stepped live
    columns, each column against the centre and hop radius of the chart
    it was stepped in; a chart whose hop radius exceeds ``R_MAX * sqrt(n)``
    plus the norm of its centre needs no distance test, since a column
    that far out has already stopped.  Hops are applied chart by chart
    in ascending order; stops and the final freeze act per column.

    Each level's history is one ``(L+1, n + 2n^2, P)`` array, of which the
    ensemble's ``coords``, ``jac`` and ``inv_jac`` are views, and its chart
    ids are held in the smallest unsigned type that holds the atlas's
    chart count.  Returns one :class:`FlowEnsemble` per level, in the
    order given.
    """
    _require_scheme_smoothness(sde, scheme)
    levels = tuple(levels)
    if not levels:
        raise ValueError("no levels to integrate")
    for d in levels:
        if d.n_noise != sde.n_noise:
            raise ValueError(
                f"drivers carry {d.n_noise} noise components, sde has {sde.n_noise}"
            )
        if d.grid.horizon != levels[0].grid.horizon or not np.array_equal(
            d.path_ids, levels[0].path_ids
        ):
            raise ValueError("levels must share the horizon and the path ids")
    order = sorted(range(len(levels)), key=lambda i: -levels[i].grid.steps)  # finest first
    grids = [levels[i].grid for i in order]
    steps = [g.steps for g in grids]
    if any(fine % coarse for fine, coarse in zip(steps, steps[1:])):
        raise ValueError(f"levels of {sorted(steps)} steps are not nested grids")
    atlas = sde.atlas
    n, nn = sde.dim, sde.dim**2
    P = levels[0].n_paths
    nlev, C = len(levels), len(levels) * P
    ratio = [steps[0] // L for L in steps]
    ratio_col = np.repeat(ratio, P)
    h_col = np.repeat([g.h for g in grids], P)
    chart_dtype = np.min_scalar_type(len(atlas.charts))
    one_chart = len(atlas.charts) == 1
    centres = np.array([ch.center for ch in atlas.charts]).T  # (n, charts)
    hop_radius = np.array([ch.hop_radius for ch in atlas.charts])
    tested = hop_radius <= R_MAX * np.sqrt(n) + np.linalg.norm(centres, axis=0)

    # every row of x0 starts in the lowest-numbered chart covering it
    x0 = np.broadcast_to(np.asarray(x0, dtype=float), (P, n))
    cid0 = locate_chart_batch(atlas, x0, start_chart)
    if np.any(cid0 < 0):
        raise NoCoveringChart(f"start point {x0[np.argmin(cid0)]} (chart {start_chart}) "
                              f"not in any inner ball of {atlas.name!r}")
    u0 = x0.T.copy()
    for cid in set(cid0.tolist()) - {start_chart}:
        grp = cid0 == cid
        u0[:, grp] = atlas.transition_between(start_chart, cid).apply(x0[grp]).T

    # the current state of every column, level after level: points, J, Jinv
    state = np.empty((n + 2 * nn, C))
    state[:n] = np.tile(u0, nlev)
    state[n:] = np.tile(np.eye(n).reshape(nn, 1), (2, C))
    charts = np.tile(cid0, nlev)
    active = np.ones(C, dtype=bool)
    stop_step = np.repeat([L + 1 for L in steps], P)
    # the stepping levels' step times and increments
    t01, db = np.empty((2, C)), np.empty((sde.n_noise, C))
    # per level: the state and chart histories, the Brownian paths and the hops
    hist = [(np.empty((L + 1, n + 2 * nn, P)), np.empty((L + 1, P), dtype=chart_dtype))
            for L in steps]
    bms = [levels[i].bm for i in order]
    hops: List[List[Tuple[int, int, int, int]]] = [[] for _ in steps]

    def store(i: int, row: int):
        cols = slice(i * P, (i + 1) * P)
        hist[i][0][row] = state[:, cols]
        hist[i][1][row] = charts[cols]

    for i in range(nlev):
        store(i, 0)
    for k in range(steps[0]):
        m = sum(k % r == 0 for r in ratio)  # the levels stepping now lead
        mP = m * P
        live = np.flatnonzero(active[:mP])
        if live.size:
            for i in range(m):
                j, cols = k // ratio[i], slice(i * P, (i + 1) * P)
                # each level's own times, as TimeGrid.times computes them
                t01[0, cols], t01[1, cols] = j * grids[i].h, (j + 1) * grids[i].h
                # each level's increment over its current step, as np.diff takes it
                np.subtract(bms[i][:, j + 1], bms[i][:, j], out=db[:, cols].T)
            was = charts[live]  # the chart each live column steps in
            groups = [(0, live)] if one_chart else [
                (cid, live[was == cid]) for cid in np.flatnonzero(np.bincount(was)).tolist()]
            for cid, idx in groups:
                whole = idx.size == mP
                sel = slice(0, mP) if whole else idx
                # take keeps the columns C-contiguous, a trailing fancy index would not
                x = state[:, sel] if whole else state.take(idx, axis=1)
                un, _, _ = scheme_step(
                    sde, scheme, cid,
                    *(a[..., sel] if whole else a.take(idx, axis=-1) for a in (*t01, h_col)),
                    x[:n], x[n:n + nn].reshape(n, n, -1), x[n + nn:].reshape(n, n, -1),
                    db[:, sel] if whole else db.take(idx, axis=1))
                state[:, sel] = un.base  # the one buffer the step's results are views of
            # blow-up: non-finite or runaway coordinates stop the path
            pts = state[:n, :mP] if live.size == mP else state[:n].take(live, axis=1)
            stop = ~(np.abs(pts).max(axis=0) <= R_MAX)
            # chart hops: leaving the 2r ball hands the path to a covering chart
            check = np.flatnonzero(~stop & tested[was])
            if check.size:
                at = was[check]
                d = pts.take(check, axis=1) - centres.take(at, axis=1)
                movers = check[np.sqrt(np.add.reduce(d * d, axis=0)) > hop_radius[at]]
                for cid in sorted(set(was[movers].tolist())):
                    grp_m = movers[was[movers] == cid]
                    new_ids = locate_chart_batch(atlas, pts[:, grp_m].T, cid)
                    stop[grp_m[new_ids < 0]] = True
                    for nid in sorted(set(new_ids[new_ids >= 0].tolist()) - {cid}):
                        grp = live[grp_m[new_ids == nid]]
                        fwd = atlas.transition_between(cid, nid)
                        rev = atlas.transition_between(nid, cid)
                        old_u = state[:n, grp].T
                        new_u = fwd.apply(old_u)
                        # batch-last views: the slot kernel reads any strides
                        T = fwd.jacobian(old_u).transpose(1, 2, 0)
                        Tinv = rev.jacobian(new_u).transpose(1, 2, 0)
                        J, Ji = (state[r:r + nn, grp].reshape(n, n, -1) for r in (n, n + nn))
                        state[:n, grp] = new_u.T
                        state[n:n + nn, grp] = _slot_replace(J, T, 0, 2).reshape(nn, -1)
                        state[n + nn:, grp] = _slot_replace(Ji, Tinv, 1, 2,
                                                            transpose=True).reshape(nn, -1)
                        charts[grp] = nid
                        for c in grp.tolist():
                            hops[c // P].append((k // ratio[c // P] + 1, c % P, cid, nid))
            if stop.any():
                stopped = live[stop]
                stop_step[stopped] = k // ratio_col[stopped] + 1
                active[stopped] = False
        for i in range(m):
            store(i, k // ratio[i] + 1)

    out = []
    for i, (grid, (states, chs)) in enumerate(zip(grids, hist)):
        L, st = grid.steps, stop_step[i * P:(i + 1) * P]
        # freeze stopped paths at their last valid state
        for p in np.flatnonzero(st <= L):
            for a in (states, chs):
                a[st[p]:, ..., p] = a[st[p] - 1, ..., p]
        # path-major views of the history's rows (paths last); nothing is copied
        jac, inv_jac = (np.moveaxis(states[:, r:r + nn].reshape(L + 1, n, n, P), 3, 1)
                        for r in (n, n + nn))
        out.append(FlowEnsemble(
            grid=grid,
            atlas=atlas,
            scheme=scheme,
            path_ids=levels[order[i]].path_ids.copy(),
            charts=chs,
            coords=np.moveaxis(states[:, :n], 2, 1),
            jac=jac,
            inv_jac=inv_jac,
            stop_step=np.minimum(st, L + 1),
            hops=tuple(hops[i]),
        ))
    return tuple(out[order.index(i)] for i in range(nlev))


# ---------------------------------------------------------------------------
# inverse flow
# ---------------------------------------------------------------------------


def _backward_step(sde: FlowSDE, scheme: str, cid: int, t_left: float, t_right: float,
                   h: float, q: np.ndarray, db: np.ndarray) -> np.ndarray:
    """Approximate inverse of one forward step, applied to points ``q``.

    This mirrors the forward scheme on the transport equation of the
    inverse flow; it is deliberately not an exact (Newton) inversion of
    the forward step map, so the returned points carry the scheme's own
    one-step inversion error.  Batch-last like :func:`scheme_step`: ``q``
    has shape ``(n, m)`` and ``db`` ``(n_noise, m)``.
    """
    if scheme == "euler_maruyama":
        k = sde.coeffs(t_left, q, cid, 2)
        out = q - k["a"] * h
        for j in range(sde.n_noise):
            out = out - k["xi"][j] * db[j]
            # second-order noise term of the inverse expansion
            for l in range(sde.n_noise):
                out = out + _slot_replace(k["xi"][l], k["Dxi"][j], 0, 1) * db[j] * db[l]
        return out
    # heun: predictor-corrector on the inverse transport equation, run
    # from the right endpoint of the step towards the left
    k1 = sde.coeffs(t_right, q, cid, 1)
    pred = q - k1["b"] * h
    for j in range(sde.n_noise):
        pred = pred - k1["xi"][j] * db[j]
    k0 = sde.coeffs(t_left, pred, cid, 1)
    out = q - 0.5 * (k1["b"] + k0["b"]) * h
    for j in range(sde.n_noise):
        out = out - 0.5 * (k1["xi"][j] + k0["xi"][j]) * db[j]
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

    # wavefront, batch-last: column (k-1) * P + p holds the current
    # preimage of phi_{t_k}(x_p)
    q = np.moveaxis(flow.coords[1:], 2, 0).copy().reshape(n, L * P)
    residual = np.zeros((P, L + 1))
    for j in range(L, 0, -1):
        sel = np.repeat(np.arange(1, L + 1) >= j, P) & live[1:].reshape(-1)
        if not np.any(sel):
            continue
        db = np.tile((drivers.bm[:, j, :] - drivers.bm[:, j - 1, :]).T, L)
        q[:, sel] = _backward_step(
            sde, flow.scheme, 0, times[j - 1], times[j], h, q.compress(sel, axis=-1),
            db.compress(sel, axis=-1)
        )
    x0 = flow.coords[0]  # (P, n)
    recon = q.reshape(n, L, P)
    dist = np.linalg.norm(recon - x0.T[:, None, :], axis=0)
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
