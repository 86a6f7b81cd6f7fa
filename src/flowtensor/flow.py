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
drift.  With zero drift and zero increments, an Euler step of size h
gives (J' - J)/h = c_plus J and (Jinv' - Jinv)/h = c_minus Jinv, which is
how the tests read both matrices off :func:`scheme_step`.

The Jacobian update of either scheme is the exact tangent map of its
point update, so a finite-difference derivative of the discrete flow
must agree with the variational Jacobian to truncation error; that is
one of the acceptance checks.

:func:`scheme_step` is the one place both updates are written; forward
integration, the Newton inversion of the pushforward transport and the
restart wavefront all call it.  It works on batch-last arrays (component
axes first, points last) and makes one compiled call per step
(:meth:`FlowSDE._step_program`, one program per chart, scheme, whether
``Jinv`` is advanced and ``order``).  The program takes the drift jet to
first order and every noise jet to second order for Euler (``a``,
``c_plus``, ``c_minus``) but only to first order for Heun; one
common-subexpression pass covers the point update and the tangent
matrices ``M`` of the Jacobian updates, whose products with ``J`` and
``Jinv`` are plain sums over the entries of ``M``.  A program of
``order`` r above 1 also emits the step map's derivative stacks ``D^m f``,
m = 1..r, from ``sp.diff`` of the unbound point update in one extra
bound block, so its point and ``J`` rows are bitwise those of order 1:
the sweep and the Newton iterations run order 1, and the transport
wavefronts compose the stacks into the jets of the discrete flow map.
:meth:`FlowSDE.jets` evaluates the coefficient jets as arrays for the
backward step and the verifier's integrands.

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
from math import prod
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import sympy as sp

from . import tensor_calculus
from .geometry import R_MAX, ChartAtlas, NoCoveringChart, _slot_replace, locate_chart_batch
from .stochastics import DrivingPaths, TimeGrid
from .tensor_calculus import TIME, VectorFieldSpec, _jet_layout, coord_symbols

__all__ = [
    "SchemeSmoothnessMismatch",
    "FlowSDE",
    "FlowEnsemble",
    "integrate_flow",
    "integrate_flow_levels",
    "scheme_step",
    "inverse_flow_residual_ensemble",
    "jacobian_fd_check",
    "SCHEMES",
]

SCHEMES = ("euler_maruyama", "heun")

# the step program's end time and step size
_T1, _H = sp.Symbol("_t1"), sp.Symbol("_h")
# the names of the coefficient stacks, the drift's and the noise fields' by order
_DRIFT_STACKS, _NOISE_STACKS = ("b", "Db"), ("xi", "Dxi", "D2xi")


class SchemeSmoothnessMismatch(Exception):
    """Scheme requires more coefficient regularity than the fields declare."""


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

    def _layout(self, chart: int, noise_order: int):
        """Parameters, parameter values and row layout of :meth:`_exprs`, and its row count.

        Found without differentiating.  The layout lists each stack's
        name, noise field (None for the drift's), rows and shape: the
        drift's value and first partials, then each noise field's values,
        then each one's first partials and (to ``noise_order``) second
        partials, components in C order.  Every field's parameters are
        renamed to symbols prefixed with its position, so two fields may
        bind one name to different values.  A chart without components raises
        ``KeyError`` and partials beyond a field's declared smoothness
        ``InsufficientSmoothness``, as :meth:`_exprs` would.
        """
        key = ("layout", chart, noise_order)
        if key not in self._programs:
            n, N = self.dim, self.n_noise
            psyms, pvals = [], []
            for k, f in enumerate((self.drift, *self.diffusions)):
                f._require(chart, 1 if k == 0 else noise_order)
                psyms += [sp.Symbol(f"c{k}_{s.name}", real=True) for s, _ in f.params]
                pvals += [v for _, v in f.params]
            groups = [("b", None, (n,)), ("Db", None, (n, n))]
            groups += [(_NOISE_STACKS[m], j, (n,) * (m + 1))
                       for m in range(noise_order + 1) for j in range(N)]
            layout, rows = [], 0
            for nm, j, shape in groups:
                layout.append((nm, j, rows, rows + prod(shape), shape))
                rows += prod(shape)
            self._programs[key] = (tuple(psyms), tuple(pvals), layout, rows)
        return self._programs[key]

    def _exprs(self, chart: int, noise_order: int) -> Tuple[sp.Expr, ...]:
        """The flat coefficient expressions of one chart, rows as :meth:`_layout` lays them out.

        Differentiates the fields; only a program-cache miss of
        :meth:`jets` or :meth:`_step_program` calls it.
        """
        key = ("exprs", chart, noise_order)
        if key not in self._programs:
            n, psyms = self.dim, iter(self._layout(chart, noise_order)[0])
            stacks = []
            for k, f in enumerate((self.drift, *self.diffusions)):
                alphas, columns = _jet_layout(n, 1 if k == 0 else noise_order, n)
                rename = {s: next(psyms) for s, _ in f.params}
                flat = [e.xreplace(rename) for e in f._exprs(chart, alphas)]
                stacks.append([[flat[c] for c in cols] for cols in columns])
            exprs = stacks[0][0] + stacks[0][1]
            for m in range(noise_order + 1):
                exprs += [e for st in stacks[1:] for e in st[m]]
            self._programs[key] = tuple(exprs)
        return self._programs[key]

    def _key(self, chart: int, psyms: tuple, *kind) -> tuple:
        """The program-cache key of a program of ``kind`` in ``chart``
        (see :func:`flowtensor.tensor_calculus._program`): ``kind``, the
        chart, every coefficient's components there and the names of the
        renamed parameters ``psyms``."""
        return (*kind, chart, tuple(tensor_calculus._srepr(f.comps[chart])
                                    for f in (self.drift, *self.diffusions)),
                tuple(s.name for s in psyms))

    def jets(self, t, pts: np.ndarray, chart: int, noise_order: int) -> Dict[str, object]:
        """Drift and noise jets at batch-last points ``pts`` (shape ``(n,) + batch``).

        One call of a generated program (common subexpressions shared)
        gives every value, batch-last: ``b`` and ``Db`` (drift and its
        Jacobian, ``Db[i, l] = d_l b^i``), then ``xi``, ``Dxi`` and, with
        ``noise_order`` 2, ``D2xi``, each a tuple with one stack per noise
        field (``xi[j]`` of shape ``(n,) + batch``, ``Dxi[j]`` ``(n, n) +
        batch``, derivative directions last).  Each stack, the drift's and
        every noise field's of every order, is laid out on its own.  A
        stack whose every entry is constant (a zero drift, a zero noise
        field, the second partials of a linear field) is held once, with
        singleton batch axes that broadcast; the other stacks are views of
        one ``(C,) + batch`` buffer holding their rows alone
        (:func:`flowtensor.tensor_calculus._fill`; one buffer, not one array
        per stack, which raised the peak RSS of a ``kiw_ito_pullback_r2``
        study).  Which stacks are constant is decided once per program and
        per kind of arguments (whether ``t`` and the points are arrays: a
        stack that reads only ``t`` is constant for a scalar time), from
        the rows of the first such call: the program returns a constant
        entry as a 0-d value.  The program is held per chart and noise
        order; it comes from the program cache, so where an earlier
        process stored it, nothing is differentiated.
        """
        key = ("jets", chart, noise_order)
        if key not in self._programs:
            psyms, pvals, layout, rows = self._layout(chart, noise_order)

            def source():
                q = sp.symbols(f"_q0:{rows}")
                return tensor_calculus._compiled(q, (TIME,) + coord_symbols(self.dim) + psyms,
                                                 (tuple(zip(q, self._exprs(chart, noise_order))),))

            fn = tensor_calculus._program(self._key(chart, psyms, "jets", noise_order), source)
            self._programs[key] = (fn, pvals, layout)
        fn, pvals, layout = self._programs[key]
        pts = np.asarray(pts, dtype=float)
        batch = np.broadcast(t, pts[0]).shape
        vals = fn(t, *pts, *pvals)
        kind = ("jets layout", chart, noise_order, np.ndim(t) > 0, pts.ndim > 1)
        if kind not in self._programs:
            varying = [any(np.ndim(v) for v in vals[a:b]) for _, _, a, b, _ in layout]
            rows = [i for (_, _, a, b, _), var in zip(layout, varying) if var for i in range(a, b)]
            self._programs[kind] = (varying, rows)
        varying, rows = self._programs[kind]
        buf = tensor_calculus._fill([vals[i] for i in rows], batch)
        out, r = dict.fromkeys(_DRIFT_STACKS + _NOISE_STACKS[:noise_order + 1], ()), 0
        for (nm, j, a, b, shape), var in zip(layout, varying):
            if var:
                v = buf[r:r + b - a].reshape(shape + batch)
                r += b - a
            else:
                v = np.array(vals[a:b], dtype=float).reshape(shape + (1,) * len(batch))
            out[nm] = v if j is None else out[nm] + (v,)
        return out

    def _step_program(self, chart: int, scheme: str, with_inv: bool, order: int = 1):
        """The generated step of ``scheme`` in ``chart`` and its parameter values.

        The function takes ``(t0, t1, h, x, db, J, Ji, params)``, each
        array entry an argument of its own in C order (``Ji`` only
        ``with_inv``), and returns the rows of the new points, then of the
        new ``J`` and ``Ji``, then, for ``order`` r above 1, of the step
        map's derivative stacks ``D^m f``, m = 1..r.  Euler writes ``u + a h
        + sum_j xi_j db_j``, ``J + M+ J`` and ``Ji - Ji M-`` with ``M+- =
        (Db +- c+-) h + W`` and ``W = sum_j Dxi_j db_j``; Heun writes the
        same sweep (``Db h + W``) at ``(t0, x)`` and, through the bound
        predictor ``x + du0``, at ``t1``.  The coefficients are the
        expressions of :meth:`_exprs`; the point and ``M`` rows share one
        common-subexpression pass, and the Jacobian products are plain sums
        over entry symbols of ``M``.  An unknown scheme and coefficients too
        rough for it raise before the program is looked up in the program
        cache: Euler differentiates the drift ``order`` times and the noise
        once more, Heun each field ``order`` times.  A hit differentiates
        and prints nothing.
        """
        key = (chart, scheme, with_inv, order)
        if key not in self._programs:
            if scheme not in SCHEMES:
                raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
            noise_order = 2 if scheme == "euler_maruyama" else 1
            # Euler's drift a reads Dxi, so its noise fields take one order more
            for k, f in enumerate((self.drift, *self.diffusions)):
                f._require(chart, order + (noise_order - 1 if k else 0))
            psyms, pvals, layout, _ = self._layout(chart, noise_order)

            def source():
                exprs = self._exprs(chart, noise_order)
                q = dict.fromkeys(_DRIFT_STACKS + _NOISE_STACKS[:noise_order + 1], ())
                for nm, j, a, b, shape in layout:  # a noise stack: one per field
                    v = _objects(exprs[a:b], shape)
                    q[nm] = v if j is None else q[nm] + (v,)
                outs, args, blocks = _step_exprs(q, scheme, with_inv, self.dim, self.n_noise, order)
                return tensor_calculus._compiled(outs, args + psyms, blocks)

            fn = tensor_calculus._program(
                self._key(chart, psyms, "step", scheme, with_inv, order), source)
            self._programs[key] = (fn, pvals)
        return self._programs[key]


def scheme_step(sde: FlowSDE, scheme: str, cid: int, t0: float, t1: float, h: float,
                u: np.ndarray, J: np.ndarray, Ji: Optional[np.ndarray], db: np.ndarray,
                order: int = 1, out: Optional[np.ndarray] = None):
    """One step of ``scheme`` over ``[t0, t1]`` for points ``u`` in chart ``cid``.

    Advances the points, the forward Jacobians ``J`` by the exact tangent
    of the point update, and the inverse Jacobians ``Ji`` (skipped when
    ``Ji`` is None).  Every array is batch-last: ``u`` has shape ``(n, m)``,
    ``J`` and ``Ji`` ``(n, n, m)`` (a singleton batch axis broadcasts) and
    the Brownian increments ``db`` ``(n_noise, m)``; ``t0``, ``t1`` and ``h``
    are floats or ``(m,)`` arrays, one entry per column.  One call of the
    chart's compiled step program (:meth:`FlowSDE._step_program`) writes
    every new entry into one buffer, rows in C order: the points, then
    ``J`` and ``Ji``, then for ``order`` r above 1 the derivative stacks
    ``D^k f`` of the step map ``f`` at ``u``, k = 1..r, each of shape ``(n,)
    * (k + 1)`` followed by the batch; returns ``(u, J, Ji, *stacks)`` after
    the step as views of it, so the buffer itself is ``u.base``.  Given
    ``out``, of shape ``(rows,) + batch``, the rows are written there
    instead.  It may be the rows ``u``, ``J`` and ``Ji`` are views of, as in
    the sweep: every new row is computed before the first is written, and
    each new row adds to its own old row, so none is another's argument
    unchanged (:func:`flowtensor.tensor_calculus._fill`).
    """
    fn, pvals = sde._step_program(cid, scheme, Ji is not None, order)
    n, batch = sde.dim, u.shape[1:]
    inv = () if Ji is None else Ji.reshape((n * n,) + Ji.shape[2:])
    rows = fn(t0, t1, h, *u, *db, *J.reshape((n * n,) + J.shape[2:]), *inv, *pvals)
    out = tensor_calculus._fill(rows, batch, out)
    shape, r = (n, n) + batch, n + n * n * (1 + (Ji is not None))
    views = [out[:n], out[n:n + n * n].reshape(shape),
             None if Ji is None else out[n + n * n:r].reshape(shape)]
    for m in range(2, order + 2) if order > 1 else ():
        views.append(out[r:r + n**m].reshape((n,) * m + batch))
        r += n**m
    return tuple(views)


def _step_exprs(q: Dict[str, np.ndarray], scheme: str, with_inv: bool, n: int, N: int,
                order: int):
    """Outputs, arguments (without the parameters) and bound blocks of a step program.

    ``q`` holds the coefficient stacks of :meth:`FlowSDE._layout` as
    object arrays, each noise stack as a tuple of one per field; see
    :meth:`FlowSDE._step_program` for the update.
    """
    xs = _objects(coord_symbols(n), (n,))
    db = sp.symbols(f"_db0:{N}")
    J = _objects(sp.symbols(f"_J0:{n}_0:{n}"), (n, n))
    Ji = _objects(sp.symbols(f"_Ji0:{n}_0:{n}"), (n, n))
    xi, Dxi = q["xi"], q["Dxi"]

    def noise_sum(f, shape):
        return sum((f(j) for j in range(N)), np.zeros(shape, dtype=object))

    W = noise_sum(lambda j: Dxi[j] * db[j], (n, n))
    noise = noise_sum(lambda j: xi[j] * db[j], (n,))
    if scheme == "euler_maruyama":
        D2xi = q["D2xi"]
        a = q["b"] + noise_sum(lambda j: Dxi[j] @ xi[j], (n,)) / 2
        sq = noise_sum(lambda j: Dxi[j] @ Dxi[j], (n, n))
        second = noise_sum(lambda j: D2xi[j] @ xi[j], (n, n))
        blocks = [[]]
        f = xs + a * _H + noise
        u1 = _bind(blocks[0], "u", f)
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
        y = _bind(blocks[1], "y", xs + du0)

        def at(arr, ys):
            """``arr`` at ``(t1, ys)``."""
            sub = {TIME: _T1, **dict(zip(xs, ys))}
            return _objects([e.xreplace(sub) for e in arr.flat], arr.shape)

        du1, M1 = _bind(blocks[2], "du1_", at(du, y)), _bind(blocks[2], "M1_", at(M, y))
        A0 = _bind(blocks[3], "A0_", M0 @ J)
        u1 = xs + (du0 + du1) / 2
        Jn = J + (A0 + M1 @ (J + A0)) / 2
        if with_inv:
            B0 = _bind(blocks[3], "B0_", Ji @ M0)
            Jin = Ji - (B0 + (Ji - B0) @ M1) / 2
        # the predictor-corrector composite, its predictor not bound
        f = xs + (du + at(du, xs + du)) / 2
    outs = (*u1.flat, *Jn.flat, *(Jin.flat if with_inv else ()))
    if order > 1:
        blocks.append([])
        outs += tuple(e for D in _derivative_stacks(f, order, blocks[-1]) for e in D.flat)
    args = (TIME, _T1, _H, *xs, *db, *J.flat, *(Ji.flat if with_inv else ()))
    return outs, args, tuple(tuple(blk) for blk in blocks if blk)


def _derivative_stacks(f: np.ndarray, order: int, block: list) -> List[np.ndarray]:
    """``D^m f``, m = 1..``order``, of the vector of expressions ``f``.

    Each distinct partial (:func:`flowtensor.tensor_calculus._partial`) is
    bound once in ``block`` (:func:`_bind`), in the order of a field jet's
    rows (:func:`_jet_layout`); the stacks are object arrays of shape
    ``(n,) * (m + 1)`` whose symmetric entries share it.
    """
    n = len(f)
    alphas, columns = _jet_layout(n, order, n)
    parts = [tensor_calculus._partial(e, alpha) for alpha in alphas[1:] for e in f]
    flat = _bind(block, "Df", _objects(parts, (len(parts),)))
    return [flat[cols - n].reshape((n,) * (m + 1)) for m, cols in enumerate(columns) if m]


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


@dataclass(frozen=True)
class FlowEnsemble:
    """Realised flow trajectories for a whole driver ensemble: the record
    of one sweep of :func:`integrate_flow_levels`.

    The history is two arrays in the step program's row layout:
    ``states``, ``(L+1, n + n^2, P)``, the points and the rows of ``J``,
    and ``inv_states``, ``(L+1, n^2, P)``, the rows of ``Jinv``.  Only a
    contravariant slot on the pull-back route and the Jacobian monitor
    read ``Jinv``, so where its route reads none a study releases it once
    the monitor is taken, as ``replace(flow, inv_states=None)``;
    ``inv_jac`` and :meth:`jac_consistency_max` of such a record raise
    ``ValueError``.  Everything else is read off the record:
    ``coords`` and ``jac`` are path-major views of ``states``, ``inv_jac``
    of ``inv_states``, ``hops`` comes from ``charts`` and ``live`` from
    ``stop_step``.  Row ``k`` of path ``p`` is live iff ``k <
    stop_step[p]``; rows from the stop on repeat the last live row.  The
    one flow type: one path is the one-path slice ``slice_paths(p, p +
    1)``.
    """

    grid: TimeGrid
    atlas: ChartAtlas
    scheme: str
    path_ids: np.ndarray  # (P,)
    charts: np.ndarray  # (L+1, P), the smallest unsigned type holding the chart count
    states: np.ndarray  # (L+1, n + n^2, P): points, then the rows of J
    inv_states: Optional[np.ndarray]  # (L+1, n^2, P): the rows of Jinv, None once released
    stop_step: np.ndarray  # (P,), npoints where the path completed

    @property
    def n_paths(self) -> int:
        return self.stop_step.shape[0]

    @property
    def coords(self) -> np.ndarray:
        """The points, a path-major ``(L+1, P, n)`` view of ``states``."""
        return np.moveaxis(self.states[:, :self.atlas.dim], 2, 1)

    @property
    def jac(self) -> np.ndarray:
        """The forward Jacobians, a path-major ``(L+1, P, n, n)`` view of ``states``."""
        return self._matrices(self.states[:, self.atlas.dim:])

    @property
    def inv_jac(self) -> np.ndarray:
        """The inverse Jacobians, a path-major ``(L+1, P, n, n)`` view of ``inv_states``."""
        return self._matrices(self._inv_rows())

    def _inv_rows(self) -> np.ndarray:
        """``inv_states``; ``ValueError`` where the record's ``Jinv`` was released."""
        if self.inv_states is None:
            raise ValueError("this flow record's inverse Jacobians were released; a study "
                             "keeps them only where a contravariant slot is pulled back")
        return self.inv_states

    def _matrices(self, rows: np.ndarray) -> np.ndarray:
        """The ``(L+1, n^2, P)`` rows of a matrix history, path-major ``(L+1, P, n, n)``."""
        L1, _, P = rows.shape
        n = self.atlas.dim
        return np.moveaxis(rows.reshape(L1, n, n, P), 3, 1)

    @property
    def live(self) -> np.ndarray:
        """``(L+1, P)``: whether row ``k`` of path ``p`` lies before its stop."""
        return np.arange(self.grid.npoints)[:, None] < self.stop_step

    @property
    def hops(self) -> Tuple[Tuple[int, int, int, int], ...]:
        """Every chart change as ``(step, path pos, from, to)``, by step, then
        chart left, chart entered and path.  Rows from a stop on repeat the
        last live row, so they change no chart."""
        k, p = np.nonzero(self.charts[1:] != self.charts[:-1])
        frm, to = self.charts[k, p], self.charts[k + 1, p]
        order = np.lexsort((p, to, frm, k))
        return tuple(zip((k[order] + 1).tolist(), p[order].tolist(),
                         frm[order].tolist(), to[order].tolist()))

    @property
    def completed(self) -> np.ndarray:
        return self.stop_step >= self.grid.npoints

    def blowup_fraction(self) -> float:
        return float(1.0 - np.mean(self.completed))

    def slice_paths(self, start: int, stop: int) -> "FlowEnsemble":
        """The paths at positions ``start:stop``, as views."""
        inv = None if self.inv_states is None else self.inv_states[..., start:stop]
        return replace(self, path_ids=self.path_ids[start:stop],
                       charts=self.charts[:, start:stop], states=self.states[..., start:stop],
                       inv_states=inv, stop_step=self.stop_step[start:stop])

    def jac_consistency_max(self) -> float:
        """Worst ``|J Jinv - I|`` over all live states (``ValueError`` where
        ``Jinv`` was released)."""
        # batch-last views: integrate_flow stores the Jacobians that way
        J, Ji = (np.moveaxis(a, (2, 3), (0, 1)) for a in (self.jac, self.inv_jac))
        dev = np.abs(_slot_replace(Ji, J, 0, 2) - np.eye(J.shape[0])[..., None, None])
        live = self.live
        return float(np.max(dev.max(axis=(0, 1))[live])) if np.any(live) else 0.0


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
) -> FlowEnsemble:
    """Integrate the flow and its variational equations for all driver paths.

    The one-level case of :func:`integrate_flow_levels`; ``x0`` is given in
    chart 0.
    """
    return integrate_flow_levels(sde, (drivers,), x0, scheme)[0]


def integrate_flow_levels(
    sde: FlowSDE,
    levels: Sequence[DrivingPaths],
    x0: np.ndarray,
    scheme: str = "euler_maruyama",
) -> Tuple[FlowEnsemble, ...]:
    """Integrate the flow on nested grids of the same paths in one time loop.

    ``levels`` are driver ensembles of the same paths (``path_ids``),
    noise count and horizon on nested grids: every step count divides
    the next finer one.  ``x0``, one point or one per path, is given in
    chart 0, and each path starts in the lowest-numbered chart covering
    it (:class:`NoCoveringChart` where none does).  All levels' columns sit side by side in one
    state buffer, finest level first, in the step program's row layout:
    ``n`` point rows, then the ``n*n`` rows of ``J`` and of ``Jinv``, one
    column per path and level.  The loop runs over the finest grid.  A
    level of ``L_f / r`` steps advances at every ``r``-th fine step, so
    the levels stepping at a fine step are a leading slice of the
    columns; their increments are written into one buffer, and each
    chart group of that slice (one group on a single-chart atlas) is one
    :func:`scheme_step` call on row views of the buffer with per-column
    ``t0``, ``t1``, ``h`` and increments.  A group that covers the whole
    slice writes its result into the slice's rows; any other group's is
    copied back once.  The step program is elementwise, so each level's
    ensemble is bitwise the one it would get on its own.  After the step calls, the
    blow-up test and the hop test run once over the stepped live
    columns.  A column blows up, and its path stops, where a coordinate
    is not finite or exceeds ``R_MAX``, or an entry of ``J`` or ``Jinv`` is
    not finite.  The hop test takes each column against the centre and
    hop radius of the chart it was stepped in; a chart whose hop radius
    exceeds ``R_MAX * sqrt(n)`` plus the norm of its centre needs no
    distance test, since a column that far out has already stopped.
    Hops are applied chart by chart in ascending order; stops and the
    final freeze act per column.

    Each level's history is two arrays, stored from the state buffer at
    each of its steps: ``states``, ``(L+1, n + n^2, P)``, the point and
    ``J`` rows, and ``inv_states``, ``(L+1, n^2, P)``, the ``Jinv`` rows,
    so that a caller whose readers take no ``Jinv`` can drop it alone.
    Its chart ids are held in the smallest unsigned type that holds the
    atlas's chart count; its hops are read off those.  Returns one
    :class:`FlowEnsemble` per level, in the order given.
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

    # every row of x0, given in chart 0, starts in the lowest-numbered chart covering it
    x0 = np.broadcast_to(np.asarray(x0, dtype=float), (P, n))
    cid0 = locate_chart_batch(atlas, x0, 0)
    if np.any(cid0 < 0):
        raise NoCoveringChart(f"start point {x0[np.argmin(cid0)]} (chart 0) "
                              f"not in any inner ball of {atlas.name!r}")
    u0 = x0.T.copy()
    for cid in set(cid0.tolist()) - {0}:
        grp = cid0 == cid
        u0[:, grp] = atlas.transition_between(0, cid).apply(x0[grp]).T

    # the current state of every column, level after level: points, J, Jinv
    state = np.empty((n + 2 * nn, C))
    state[:n] = np.tile(u0, nlev)
    state[n:] = np.tile(np.eye(n).reshape(nn, 1), (2, C))
    charts = np.tile(cid0, nlev)
    active = np.ones(C, dtype=bool)
    stop_step = np.repeat([L + 1 for L in steps], P)
    # the stepping levels' step times and increments
    t01, db = np.empty((2, C)), np.empty((sde.n_noise, C))
    # per level: the point and J, the Jinv and the chart histories, and the
    # Brownian paths
    hist = [(np.empty((L + 1, n + nn, P)), np.empty((L + 1, nn, P)),
             np.empty((L + 1, P), dtype=chart_dtype)) for L in steps]
    bms = [levels[i].bm for i in order]

    def store(i: int, row: int):
        cols = slice(i * P, (i + 1) * P)
        states, inv, chs = hist[i]
        states[row] = state[:n + nn, cols]
        inv[row] = state[n + nn:, cols]
        chs[row] = charts[cols]

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
                    db[:, sel] if whole else db.take(idx, axis=1), out=x if whole else None)
                if not whole:
                    state[:, idx] = un.base  # the one buffer the step's results are views of
            # blow-up: non-finite or runaway coordinates, or a non-finite J or
            # Jinv, stop the path
            rows = state[:, :mP] if live.size == mP else state.take(live, axis=1)
            pts = rows[:n]
            stop = ~(np.abs(pts).max(axis=0) <= R_MAX) | ~np.isfinite(rows[n:]).all(axis=0)
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
            if stop.any():
                stopped = live[stop]
                stop_step[stopped] = k // ratio_col[stopped] + 1
                active[stopped] = False
        for i in range(m):
            store(i, k // ratio[i] + 1)

    out = []
    for i, (grid, (states, inv, chs)) in enumerate(zip(grids, hist)):
        L, st = grid.steps, stop_step[i * P:(i + 1) * P]
        # freeze stopped paths at their last valid state
        for p in np.flatnonzero(st <= L):
            for a in (states, inv, chs):
                a[st[p]:, ..., p] = a[st[p] - 1, ..., p]
        out.append(FlowEnsemble(grid=grid, atlas=atlas, scheme=scheme,
                                path_ids=levels[order[i]].path_ids.copy(), charts=chs,
                                states=states, inv_states=inv, stop_step=np.minimum(st, L + 1)))
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
        # the order-2 program, although D2xi is not read: the order-1 program's
        # common subexpressions round xi and Dxi differently in the last bits
        k = sde.jets(t_left, q, cid, 2)
        # the Ito drift a = b + 1/2 sum_j Dxi_j xi_j, added in order of (j, l)
        conv = np.zeros(q.shape)  # a stack of k may be constant, with a singleton batch axis
        for j in range(sde.n_noise):
            for l in range(sde.dim):
                conv += k["Dxi"][j][:, l] * k["xi"][j][l]
        out = q - (k["b"] + 0.5 * conv) * h
        for j in range(sde.n_noise):
            out = out - k["xi"][j] * db[j]
            # second-order noise term of the inverse expansion
            for l in range(sde.n_noise):
                out = out + _slot_replace(k["xi"][l], k["Dxi"][j], 0, 1) * db[j] * db[l]
        return out
    # heun: predictor-corrector on the inverse transport equation, run
    # from the right endpoint of the step towards the left
    k1 = sde.jets(t_right, q, cid, 1)
    pred = q - k1["b"] * h
    for j in range(sde.n_noise):
        pred = pred - k1["xi"][j] * db[j]
    k0 = sde.jets(t_left, pred, cid, 1)
    out = q - 0.5 * (k1["b"] + k0["b"]) * h
    for j in range(sde.n_noise):
        out = out - 0.5 * (k1["xi"][j] + k0["xi"][j]) * db[j]
    return out


def inverse_flow_residual_ensemble(flow: FlowEnsemble, sde: FlowSDE, drivers: DrivingPaths) -> np.ndarray:
    """Distance of the reconstructed inverse flow from the start points.

    For every grid time t_k the endpoint phi_{t_k}(x) is pushed back to
    time zero through per-step mirrors of the forward scheme, and the
    Euclidean distance to x is reported; shape (P, L+1), zero at k = 0 and
    on the rows that are not ``flow.live``.  One path's residual is that of
    its one-path slice, ``flow.slice_paths(p, p + 1)`` with
    ``drivers.slice_paths(p, p + 1)``.  ``flow`` is only read.
    """
    if len(flow.atlas.charts) != 1:
        raise NotImplementedError("inverse reconstruction is supported on single-chart atlases")
    grid = flow.grid
    L, P, n = grid.steps, flow.n_paths, flow.atlas.dim
    times = grid.times()
    live = flow.live

    # wavefront over the flow's rows, batch-last: column k * P + p holds the
    # current preimage of phi_{t_k}(x_p); row 0 is never peeled
    q = np.moveaxis(flow.states[:, :n], 1, 0).copy().reshape(n, -1)
    rows = np.repeat(np.arange(L + 1), P)
    for j in range(L, 0, -1):
        sel = (rows >= j) & live.ravel()
        if not np.any(sel):
            continue
        db = np.tile((drivers.bm[:, j, :] - drivers.bm[:, j - 1, :]).T, L + 1)
        q[:, sel] = _backward_step(
            sde, flow.scheme, 0, times[j - 1], times[j], grid.h, q.compress(sel, axis=-1),
            db.compress(sel, axis=-1)
        )
    dist = np.linalg.norm(q.reshape(n, L + 1, P) - flow.states[0, :n, None], axis=0)
    return np.where(live, dist, 0.0).T


def jacobian_fd_check(
    sde: FlowSDE,
    drivers: DrivingPaths,
    x0: np.ndarray,
    scheme: str,
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
    base = integrate_flow(sde, drivers, x0, scheme)
    worst = 0.0
    valid = base.live
    fd = np.empty(base.coords.shape + (n,))  # (L+1, P, n_out, n_in)
    for i in range(n):
        e = np.zeros(n)
        e[i] = eps
        plus = integrate_flow(sde, drivers, x0 + e, scheme)
        minus = integrate_flow(sde, drivers, x0 - e, scheme)
        fd[..., i] = (plus.coords - minus.coords) / (2.0 * eps)
        valid &= plus.live & minus.live
        valid &= (plus.charts == base.charts) & (minus.charts == base.charts)
    dev = np.abs(fd - base.jac)
    scale = np.maximum(1.0, np.abs(base.jac))
    rel = np.max(dev / scale, axis=(2, 3))
    if np.any(valid):
        worst = float(np.max(rel[valid]))
    return worst
