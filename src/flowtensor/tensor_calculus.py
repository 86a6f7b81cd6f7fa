"""Tensor fields on charts, Lie derivatives and flow transport contractions.

Fields are stored as sympy expressions per chart in the time symbol
``t`` and coordinate symbols ``x0, x1, ...``; evaluation lambdifies the
expressions once (held per field, chart and multi-index) and then works
on numpy batches.
Free symbols other than time and coordinates are field parameters and
must be bound to floats in ``params``; because parameter values enter
only at call time, re-drawing random coefficients for a fixed template
reuses the compiled evaluator.

Every field declares a ``smoothness_order``: the largest total spatial
derivative order callers may request.  Asking beyond it raises
:class:`InsufficientSmoothness`, which is how verification scenarios
with deliberately capped regularity fail fast instead of silently using
derivatives the hypotheses do not grant.

Every slot contraction (pullback, pushforward, the slot terms of
:func:`lie_jet`) runs one kernel, ``_slot_replace`` and ``_contract``
from :mod:`flowtensor.geometry`, on batch-last arrays: the component and
derivative axes come first, the batch axes trail (any number of them,
equal in number on every operand, singletons broadcast).  A contraction
is then an n-term elementwise multiply-add over the contracted index,
with the batch axis as the inner loop.  The public batch-first
functions (``lie_jet``, ``pullback_batch``, ``pushforward_batch``) move
the batch axes to the end at entry and back at exit.  The verifier's
integrand chains stay batch-last from end to end: the pull-back route
from the analytic jets to the pulled-back terms, and the stencil route
(push-forward and restart selectors) from the stencil values through
:func:`fd_jets_from_stencil`, which takes the stencil axis last and
returns batch-last jets.
"""

from __future__ import annotations

import string
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import prod
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np
import sympy as sp

from .geometry import (
    JacobianData,
    ShapeMismatch,
    TensorValue,
    _batch_first,
    _batch_last,
    _contract,
    _slot_replace,
)

__all__ = [
    "InsufficientSmoothness",
    "ValenceMismatch",
    "TIME",
    "coord_symbols",
    "TensorFieldSpec",
    "VectorFieldSpec",
    "lie_derivative",
    "lie_derivative_fd_oracle",
    "pullback",
    "pushforward",
    "pair",
    "pullback_batch",
    "pushforward_batch",
    "pair_batch",
    "lie_jet",
    "fd_jets_from_stencil",
    "stencil_offsets",
]


class InsufficientSmoothness(Exception):
    """A derivative beyond the declared smoothness order was requested."""


class ValenceMismatch(Exception):
    """Tensor valences are incompatible for the requested operation."""


TIME = sp.Symbol("t", real=True)


@lru_cache(maxsize=None)
def coord_symbols(dim: int) -> Tuple[sp.Symbol, ...]:
    return sp.symbols(f"x0:{dim}", real=True)


def _compiled(exprs: Tuple[sp.Expr, ...], args: Tuple[sp.Symbol, ...], blocks: tuple = ()):
    """``exprs`` lambdified over ``args``; every call compiles anew.

    Callers hold what they compile (:meth:`TensorFieldSpec._evaluator`,
    :meth:`flowtensor.flow.FlowSDE.jets` and ``_step_program``).
    ``blocks`` bind symbols before the outputs are computed.  Each block
    is a tuple of ``(symbol, expr)`` pairs, and one ``sp.cse`` over its
    right-hand sides shares their common subexpressions.  A block may
    read the symbols of earlier blocks, and the outputs may read any of
    them; the outputs themselves are printed as given.  The numpy module
    object (not the name ``"numpy"``, which star-imports all of numpy
    into the namespace) resolves the printed function names.
    """
    taken = {s.name for s in args} | {s.name for blk in blocks for s, _ in blk}
    names = (s for s in sp.numbered_symbols("_s") if s.name not in taken)
    prelude = []
    for blk in blocks:
        syms, rhs = zip(*blk)
        repl, reduced = sp.cse(list(rhs), symbols=names)
        prelude += repl + list(zip(syms, reduced))
    return sp.lambdify(args, list(exprs), modules=np,
                       cse=(lambda e: (prelude, e)) if blocks else False)


@lru_cache(maxsize=None)
def _partial(e: sp.Expr, alpha: Tuple[int, ...]) -> sp.Expr:
    """``d^alpha e``: one ``sp.diff`` per coordinate, in coordinate order.

    Memoised, so equal components and repeated multi-indices are
    differentiated once.  Each partial is taken from the bare expression:
    ``diff(diff(e, x), x)`` comes out larger than ``diff(e, x, 2)``.
    ``alpha == 0`` returns ``e`` as given, so a jet's value rows are
    bitwise those of :meth:`TensorFieldSpec.eval_batch`.  Every other
    partial differentiates :func:`_diff_form` of ``e``: a component that
    divides by an expression of the coordinates is differentiated in
    factored form when that form counts no more operations
    (``sp.count_ops``) than ``e``.  A nested quotient such as the
    stereographic sphere metric's ``4*((1-r)/(2r+2)+1)/(1+r)**2`` factors
    to ``2*(r+3)/(r+1)**3``, whose partials differentiate faster and
    compile to fewer operations; a form that factoring makes larger, such
    as that of ``sin(x0) + 1/(x0**2+1)``, is not used.
    """
    if not any(alpha):
        return e
    xs = coord_symbols(len(alpha))
    e = _diff_form(e, len(alpha))
    for k, m in enumerate(alpha):
        if m:
            e = sp.diff(e, xs[k], m)
    return e


@lru_cache(maxsize=None)
def _diff_form(e: sp.Expr, dim: int) -> sp.Expr:
    """The form of ``e`` that :func:`_partial` differentiates.

    ``sp.factor(e)`` if ``e`` divides by an expression of the coordinates
    and the factored form counts no more operations; otherwise ``e``.
    Memoised, so each component is factored once.
    """
    if not _has_coordinate_denominator(e, coord_symbols(dim)):
        return e
    factored = sp.factor(e)
    return factored if sp.count_ops(factored) <= sp.count_ops(e) else e


def _as_expr_array(comps, valence: Tuple[int, int], dim: int) -> np.ndarray:
    r, s = valence
    shape = (dim,) * (r + s)
    arr = np.empty(shape, dtype=object)
    src = np.asarray(comps, dtype=object)
    if src.shape != shape:
        raise ShapeMismatch(f"components shape {src.shape}, expected {shape}")
    for idx in np.ndindex(shape) if shape else [()]:
        arr[idx] = sp.sympify(src[idx])
    return arr


def _canonical_params(params: Optional[Mapping]) -> Tuple[Tuple[sp.Symbol, float], ...]:
    if not params:
        return ()
    items = []
    for k, v in params.items():
        sym = sp.Symbol(k, real=True) if isinstance(k, str) else k
        items.append((sym, float(v)))
    items.sort(key=lambda kv: kv[0].name)
    return tuple(items)


@lru_cache(maxsize=None)
def _jet_layout(dim: int, order: int, ncomp: int):
    """Distinct partials up to ``order`` and where a jet reads each from.

    Returns ``(alphas, columns)``: ``alphas`` lists every distinct
    multi-index of total order at most ``order``, and ``columns[m]`` maps
    each (component, direction tuple) of the order-``m`` stack, in C
    order, to its column in the flat output of ``_eval_flat(alphas)``.
    """
    dirs = [d for m in range(order + 1) for d in combinations_with_replacement(range(dim), m)]
    row = {d: i for i, d in enumerate(dirs)}
    alphas = tuple(tuple(d.count(k) for k in range(dim)) for d in dirs)
    columns = tuple(
        np.array([row[tuple(sorted(d))] * ncomp + c
                  for c in range(ncomp) for d in product(range(dim), repeat=m)])
        for m in range(order + 1)
    )
    return alphas, columns


class TensorFieldSpec:
    """A time-dependent tensor field given by sympy components per chart.

    Parameters
    ----------
    valence : (r, s)
        Number of contravariant and covariant slots.
    dim : int
        Chart dimension.
    comps : mapping chart id -> nested sequence of sympy expressions
        Shape ``(dim,) * (r + s)`` per chart; a scalar field passes the
        bare expression (or a 0-d array of it).
    smoothness_order : int
        Largest admissible total spatial derivative order.
    params : mapping, optional
        Values for free symbols other than ``t`` and the coordinates.
    """

    def __init__(
        self,
        valence: Tuple[int, int],
        dim: int,
        comps: Mapping[int, object],
        smoothness_order: int,
        params: Optional[Mapping] = None,
        name: str = "",
    ):
        self.valence = (int(valence[0]), int(valence[1]))
        self.dim = int(dim)
        self.smoothness_order = int(smoothness_order)
        self.name = name
        self.params = _canonical_params(params)
        self.comps = {
            int(cid): _as_expr_array(c, self.valence, self.dim) for cid, c in comps.items()
        }
        self._evaluators: Dict[tuple, tuple] = {}
        syms = set()
        for arr in self.comps.values():
            for idx in np.ndindex(arr.shape) if arr.shape else [()]:
                syms |= arr[idx].free_symbols
        allowed = {TIME, *coord_symbols(self.dim), *(s for s, _ in self.params)}
        missing = syms - allowed
        if missing:
            raise ValueError(f"unbound symbols {sorted(map(str, missing))} in field {name!r}")
        # copies (with_order, with_params) keep the expressions, hence the flag
        self._time_independent = TIME not in syms

    # -- structure ---------------------------------------------------------

    @property
    def order(self) -> int:
        return self.valence[0] + self.valence[1]

    @property
    def chart_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(self.comps))

    @property
    def shape(self) -> Tuple[int, ...]:
        return (self.dim,) * self.order

    def with_order(self, smoothness_order: int) -> "TensorFieldSpec":
        """Copy with the declared smoothness capped at ``smoothness_order``."""
        if smoothness_order > self.smoothness_order:
            raise InsufficientSmoothness(
                f"cannot raise smoothness of {self.name!r} from "
                f"{self.smoothness_order} to {smoothness_order}"
            )
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__)
        out.smoothness_order = int(smoothness_order)
        out._evaluators = {}
        return out

    def with_params(self, params: Mapping) -> "TensorFieldSpec":
        """Copy with parameter values replaced (same expressions).

        Only declared parameters can be rebound: the copy shares the
        compiled evaluators, whose signatures are fixed.
        """
        new, given = dict(self.params), _canonical_params(params)
        unknown = sorted(k.name for k, _ in given if k not in new)
        if unknown:
            raise ValueError(f"field {self.name!r} declares no parameter(s) {unknown}")
        new.update(given)
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__)
        out.params = tuple(sorted(new.items(), key=lambda kv: kv[0].name))
        return out

    def is_zero(self) -> bool:
        """Whether every component in every chart is the number 0."""
        return all(e.is_Number and e.is_zero for arr in self.comps.values() for e in arr.flat)

    def is_time_independent(self) -> bool:
        """Whether no component in any chart reads ``t`` (found once, at construction)."""
        return self._time_independent

    # -- evaluation --------------------------------------------------------

    def _exprs(self, chart: int, alphas: Tuple[Tuple[int, ...], ...]) -> Tuple[sp.Expr, ...]:
        """Flattened components of every partial ``d^alpha`` in ``alphas``, in order.

        Built anew on each call: :meth:`_evaluator` holds what it compiles
        from them, and :func:`_partial` memoises each partial.
        """
        if chart not in self.comps:
            raise KeyError(f"field {self.name!r} has no components in chart {chart}")
        top = max(sum(alpha) for alpha in alphas)
        if top > self.smoothness_order:
            raise InsufficientSmoothness(
                f"field {self.name!r} is C^{self.smoothness_order}; "
                f"derivative of order {top} requested"
            )
        arr = self.comps[chart]
        return tuple(_partial(arr[idx], alpha) for alpha in alphas
                     for idx in (np.ndindex(arr.shape) if arr.shape else [()]))

    def _evaluator(self, chart: int, alphas: Tuple[Tuple[int, ...], ...]):
        """The compiled evaluator of every partial in ``alphas`` and its row count.

        Held per ``(chart, alphas)``, so a call builds no symbols and
        hashes no expressions.
        """
        key = (chart, alphas)
        held = self._evaluators.get(key)
        if held is None:
            exprs = self._exprs(chart, alphas)
            ncomp = prod(self.shape)
            # the first partial's rows print as given, so a jet's values are
            # bitwise those of eval_batch; the later rows share subexpressions
            rest = sp.symbols(f"_d0:{len(exprs) - ncomp}")
            psyms = tuple(s for s, _ in self.params)
            fn = _compiled(exprs[:ncomp] + rest, (TIME,) + coord_symbols(self.dim) + psyms,
                           (tuple(zip(rest, exprs[ncomp:])),) if rest else ())
            held = self._evaluators[key] = (fn, len(exprs))
        return held

    def _eval_flat(self, t, pts: np.ndarray, chart: int,
                   alphas: Tuple[Tuple[int, ...], ...]) -> np.ndarray:
        """Evaluate every partial in ``alphas`` with one compiled call.

        Batch-last: ``pts`` has shape ``(dim,) + batch`` and the result
        ``(len(alphas) * ncomp,) + batch``, the flattened components of each
        partial, one partial after the other, each row written whole.
        """
        fn, rows = self._evaluator(chart, alphas)
        batch = np.broadcast_shapes(np.shape(t), np.shape(pts)[1:])
        out = np.empty((rows,) + batch)
        for i, v in enumerate(fn(t, *pts, *(v for _, v in self.params))):
            out[i] = v
        return out

    def _batch_first_flat(self, t, coords, chart: int, alpha: Tuple[int, ...]) -> np.ndarray:
        """One partial at batch-first ``coords``, batch-first (a view)."""
        coords = np.asarray(coords, dtype=float)
        flat = self._eval_flat(t, np.moveaxis(coords, -1, 0), chart, (alpha,))
        batch = flat.shape[1:]
        return _batch_first(flat.reshape(self.shape + batch), len(batch))

    def eval_batch(self, t, coords: np.ndarray, chart: int = 0) -> np.ndarray:
        """Component values on a batch of points; shape ``batch + self.shape``."""
        return self._batch_first_flat(t, coords, chart, (0,) * self.dim)

    def eval(self, t: float, coords: np.ndarray, chart: int = 0) -> TensorValue:
        return TensorValue(self.valence, self.eval_batch(t, np.asarray(coords, float), chart))

    def partial_batch(
        self, t, coords: np.ndarray, chart: int, alpha: Sequence[int]
    ) -> np.ndarray:
        """Spatial partial ``d^alpha`` of every component on a batch."""
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.dim:
            raise ShapeMismatch(f"alpha {alpha} has wrong length for dim {self.dim}")
        return self._batch_first_flat(t, coords, chart, alpha)

    def _jet_last(self, t, pts: np.ndarray, chart: int, order: int) -> List[np.ndarray]:
        """:meth:`jet_batch` batch-last: ``pts`` has shape ``(dim,) + batch``
        and the m-th stack ``self.shape + (dim,) * m + batch``."""
        if order > self.smoothness_order:
            raise InsufficientSmoothness(
                f"field {self.name!r} is C^{self.smoothness_order}; jet order {order} requested"
            )
        alphas, columns = _jet_layout(self.dim, order, prod(self.shape))
        flat = self._eval_flat(t, pts, chart, alphas)
        batch = flat.shape[1:]
        # whole rows, so each stack is C-contiguous
        return [np.take(flat, cols, axis=0).reshape(self.shape + (self.dim,) * m + batch)
                for m, cols in enumerate(columns)]

    def jet_batch(self, t, coords: np.ndarray, chart: int, order: int) -> List[np.ndarray]:
        """Value and derivative stacks up to ``order``.

        Returns ``[T, dT, d2T, ...]`` where the m-th entry has shape
        ``batch + self.shape + (dim,) * m`` and the trailing axes are the
        differentiation directions (symmetric by construction).  Every
        distinct partial is evaluated once, all of them in one compiled
        call.  The stacks are C-contiguous copies of :meth:`_jet_last`'s.
        """
        coords = np.asarray(coords, dtype=float)
        jets = self._jet_last(t, np.moveaxis(coords, -1, 0), chart, order)
        nb = jets[0].ndim - self.order
        return [np.ascontiguousarray(_batch_first(a, nb)) for a in jets]

    def __repr__(self):
        return (
            f"TensorFieldSpec({self.name or 'unnamed'}, valence={self.valence}, "
            f"dim={self.dim}, C^{self.smoothness_order}, charts={self.chart_ids})"
        )


class VectorFieldSpec(TensorFieldSpec):
    """Vector field, valence ``(1, 0)``.

    ``time_c1`` declares continuous differentiability in time, which the
    predictor-corrector flow scheme requires of its coefficients.
    """

    def __init__(
        self,
        dim: int,
        comps: Mapping[int, object],
        smoothness_order: int,
        params: Optional[Mapping] = None,
        name: str = "",
        time_c1: bool = True,
    ):
        super().__init__((1, 0), dim, comps, smoothness_order, params, name)
        self.time_c1 = bool(time_c1)


# ---------------------------------------------------------------------------
# Lie derivatives
# ---------------------------------------------------------------------------


def lie_derivative(
    K: TensorFieldSpec, X: TensorFieldSpec, out_order: Optional[int] = None
) -> TensorFieldSpec:
    """Symbolic Lie derivative of ``K`` along the vector field ``X``.

    The result is declared ``C^min(K - 1, X - 1)`` smooth (one order is
    consumed from each).  ``out_order`` may cap it further but cannot
    exceed that bound.
    """
    if X.valence != (1, 0):
        raise ValenceMismatch(f"direction field has valence {X.valence}, expected (1, 0)")
    if K.dim != X.dim:
        raise ShapeMismatch(f"dims differ: {K.dim} vs {X.dim}")
    if K.smoothness_order < 1 or X.smoothness_order < 1:
        raise InsufficientSmoothness(
            f"Lie derivative needs one order from each: K is C^{K.smoothness_order}, "
            f"X is C^{X.smoothness_order}"
        )
    if set(K.chart_ids) != set(X.chart_ids):
        raise ShapeMismatch(f"chart sets differ: {K.chart_ids} vs {X.chart_ids}")
    avail = min(K.smoothness_order - 1, X.smoothness_order - 1)
    if out_order is None:
        out_order = avail
    elif out_order > avail:
        raise InsufficientSmoothness(
            f"requested C^{out_order} result but only C^{avail} is available"
        )

    r, s = K.valence
    xs = coord_symbols(K.dim)
    new_comps: Dict[int, np.ndarray] = {}
    for cid in K.chart_ids:
        Karr = K.comps[cid]
        Xarr = X.comps[cid]
        out = np.empty(Karr.shape, dtype=object)
        for idx in np.ndindex(Karr.shape) if Karr.shape else [()]:
            e = sum(Xarr[(l,)] * sp.diff(Karr[idx], xs[l]) for l in range(K.dim))
            for a in range(r):
                for l in range(K.dim):
                    swapped = idx[:a] + (l,) + idx[a + 1 :]
                    e -= Karr[swapped] * sp.diff(Xarr[(idx[a],)], xs[l])
            for b in range(r, r + s):
                for l in range(K.dim):
                    swapped = idx[:b] + (l,) + idx[b + 1 :]
                    e += Karr[swapped] * sp.diff(Xarr[(l,)], xs[idx[b]])
            # rational normal form where a denominator depends on the
            # coordinates: repeated derivatives of quotient components
            # otherwise grow multiplicatively; other components stay as built
            out[idx] = sp.cancel(e) if _has_coordinate_denominator(e, xs) else e
        new_comps[cid] = out

    merged = dict(K.params)
    for sym, val in X.params:
        if sym in merged and merged[sym] != val:
            raise ValueError(f"parameter {sym} bound to conflicting values")
        merged[sym] = val
    result = TensorFieldSpec(
        K.valence,
        K.dim,
        {cid: arr for cid, arr in new_comps.items()},
        out_order,
        merged,
        name=f"L_{X.name or 'X'}({K.name or 'K'})",
    )
    return result


def _has_coordinate_denominator(e: sp.Expr, xs: Tuple[sp.Symbol, ...]) -> bool:
    """Whether ``e`` divides by an expression of the coordinates ``xs``."""
    return any(p.exp.is_negative and not p.base.free_symbols.isdisjoint(xs)
               for p in e.atoms(sp.Pow))


def _freeze_time_rhs(X: TensorFieldSpec, t: float, chart: int):
    """Right-hand sides y' = X(t, y) and J' = DX(t, y) J at frozen time."""

    def rhs(y: np.ndarray, J: np.ndarray):
        jets = X.jet_batch(t, y[None, :], chart, 1)
        v = jets[0][0]
        dv = jets[1][0]  # dv[i, l] = d_l X^i
        return v, dv @ J

    return rhs


def _rk4_flow_step(rhs, y, J, h):
    k1, K1 = rhs(y, J)
    k2, K2 = rhs(y + 0.5 * h * k1, J + 0.5 * h * K1)
    k3, K3 = rhs(y + 0.5 * h * k2, J + 0.5 * h * K2)
    k4, K4 = rhs(y + h * k3, J + h * K3)
    return (
        y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4),
        J + h / 6.0 * (K1 + 2 * K2 + 2 * K3 + K4),
    )


def lie_derivative_fd_oracle(
    K: TensorFieldSpec,
    X: TensorFieldSpec,
    t: float,
    coords: np.ndarray,
    chart: int = 0,
    eps: float = 1.0e-4,
    nsteps: int = 4,
) -> TensorValue:
    """Finite-difference Lie derivative oracle.

    Flows the point a parameter distance ``±eps`` along ``X`` (frozen at
    time ``t``) with classical Runge-Kutta, transports ``K`` back through
    the flow and central-differences the two pullbacks.  Independent of
    the symbolic route: no symbolic differentiation of ``K`` occurs.
    """
    if X.valence != (1, 0):
        raise ValenceMismatch(f"direction field has valence {X.valence}, expected (1, 0)")
    coords = np.asarray(coords, dtype=float)
    rhs = _freeze_time_rhs(X, t, chart)
    pulled = []
    for sign in (+1.0, -1.0):
        y = coords.copy()
        J = np.eye(K.dim)
        h = sign * eps / nsteps
        for _ in range(nsteps):
            y, J = _rk4_flow_step(rhs, y, J, h)
        value = K.eval(t, y, chart)
        data = JacobianData(jac=J, inv_jac=np.linalg.inv(J), base=coords, image=y)
        pulled.append(pullback(value, data))
    return TensorValue(K.valence, (pulled[0].components - pulled[1].components) / (2.0 * eps))


# ---------------------------------------------------------------------------
# transport contractions
# ---------------------------------------------------------------------------

_LETTERS = string.ascii_lowercase


def _contract_batch_first(comps, valence, contra_mat, cov_mat) -> np.ndarray:
    """:func:`_contract` on batch-first arrays, whose batch axes broadcast as numpy's do."""
    k = sum(valence)
    nb = max(np.ndim(comps) - k, np.ndim(contra_mat) - 2, np.ndim(cov_mat) - 2)
    out = _contract(_batch_last(comps, nb, k), valence, _batch_last(contra_mat, nb, 2),
                    _batch_last(cov_mat, nb, 2))
    return _batch_first(out, nb)


def pullback_batch(
    comps: np.ndarray, valence: Tuple[int, int], jac: np.ndarray, inv_jac: np.ndarray
) -> np.ndarray:
    """Pullback contraction on batched components.

    ``comps`` are tensor components at the image point, ``jac`` the flow
    Jacobian at the base point and ``inv_jac`` its inverse; contravariant
    slots contract with ``inv_jac``, covariant slots with ``jac``.
    """
    return _contract_batch_first(comps, valence, inv_jac, jac)


def pushforward_batch(
    comps: np.ndarray, valence: Tuple[int, int], jac: np.ndarray, inv_jac: np.ndarray
) -> np.ndarray:
    """Pushforward contraction (inverse transport): slots swap matrices."""
    return _contract_batch_first(comps, valence, jac, inv_jac)


def pullback(value: TensorValue, data: JacobianData) -> TensorValue:
    """Pull a tensor at the image point back to the base point of ``data``."""
    return TensorValue(
        value.valence, pullback_batch(value.components, value.valence, data.jac, data.inv_jac)
    )


def pushforward(value: TensorValue, data: JacobianData) -> TensorValue:
    """Push a tensor at the base point forward to the image point of ``data``."""
    return TensorValue(
        value.valence, pushforward_batch(value.components, value.valence, data.jac, data.inv_jac)
    )


def pair_batch(
    K: np.ndarray, valK: Tuple[int, int], S: np.ndarray, valS: Tuple[int, int]
) -> np.ndarray:
    """Full contraction of a (r, s) tensor with an (s, r) test tensor."""
    r, s = valK
    if valS != (s, r):
        raise ValenceMismatch(f"test tensor valence {valS}, expected {(s, r)}")
    if r + s == 0:
        return np.asarray(K, dtype=float) * np.asarray(S, dtype=float)
    kl = _LETTERS[: r + s]
    sl = kl[r:] + kl[:r]
    return np.einsum(f"...{kl},...{sl}->...", K, S)


def pair(K: TensorValue, S: TensorValue) -> float:
    """Scalar pairing ``K^I_J S^J_I``."""
    return float(pair_batch(K.components, K.valence, S.components, S.valence))


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

    ``t_jets[m]`` has shape ``batch + shape + (n,) * m`` (trailing axes
    are derivative directions), ``x_jets[m]`` likewise with
    ``shape = (n,)``.  Needs jets of order ``out_order + 1`` on both
    inputs and returns ``[value, first derivative, ...]`` up to
    ``out_order``.
    """
    k = sum(valence)
    nb = max(np.ndim(t_jets[0]) - k, np.ndim(x_jets[0]) - 1)
    out = _lie_jet([_batch_last(a, nb, k + m) for m, a in enumerate(t_jets)],
                   [_batch_last(a, nb, 1 + m) for m, a in enumerate(x_jets)], valence, out_order)
    return [_batch_first(a, nb) for a in out]


def _lie_jet(
    t_jets: Sequence[np.ndarray],
    x_jets: Sequence[np.ndarray],
    valence: Tuple[int, int],
    out_order: int = 0,
) -> List[np.ndarray]:
    """:func:`lie_jet` on batch-last jets: ``t_jets[m]`` has shape
    ``shape + (n,) * m + batch``, and the results are batch-last too."""
    k = sum(valence)
    if len(t_jets) < out_order + 2 or len(x_jets) < out_order + 2:
        raise InsufficientSmoothness(
            f"jet order {out_order + 1} required on both inputs for a C^{out_order} result"
        )
    X, dX = x_jets[0], x_jets[1]
    T, dT = t_jets[0], t_jets[1]
    # value: X^l d_l T  - sum_a T(l@a) d_l X^{i_a} + sum_b T(l@b) d_{j_b} X^l
    out = [_add_slot_terms(_along(dT, X, k), T, dX, valence)]
    if out_order >= 1:
        # d_m (X^l d_l T) = d_m X^l d_l T + X^l d^2_{lm} T
        term = _slot_replace(dT, dX, k, k + 1, transpose=True)
        term += _slot_replace(t_jets[2], X[:, None], k, k + 2, transpose=True)[
            (slice(None),) * k + (0,)]
        # slot terms differentiated with Leibniz
        _add_slot_terms(term, dT, dX, valence, n_extra=1)
        out.append(_add_slot_terms(term, T, x_jets[2], valence, n_m_extra=1))
    if out_order >= 2:
        raise NotImplementedError("jets beyond first order are not needed here")
    return out


def _along(dT: np.ndarray, X: np.ndarray, nslots: int) -> np.ndarray:
    """The derivative ``X^l d_l T`` of a batch-last ``T`` along the vector stack ``X``.

    ``dT`` has ``nslots`` leading axes of size n (the ones kept), then the
    derivative direction ``l`` contracted with ``X`` (shape ``(n,) + batch``),
    then the batch axes.  Returns a new array.
    """
    head = (slice(None),) * nslots
    out = dT[head + (0,)] * X[0]
    for l in range(1, X.shape[0]):
        out += dT[head + (l,)] * X[l]
    return out


def _add_slot_terms(acc: np.ndarray, T: np.ndarray, M: np.ndarray, valence: Tuple[int, int],
                    n_extra: int = 0, n_m_extra: int = 0) -> np.ndarray:
    """Add the slot terms of the Lie formula, ``S(T, M)``, to ``acc`` in place.

    ``S(T, M) = - sum_a T(l@a) M[i_a, l] + sum_b T(l@b) M[l, j_b]`` over the
    contravariant slots ``a`` and the covariant slots ``b``; with ``M = DX``
    it is what ``L_X T`` adds to ``X^l d_l T``.  ``S`` is linear in both
    arguments.  The extra axes are those of :func:`_slot_replace`.  Returns
    ``acc``.
    """
    r, s = valence
    k = r + s
    for a in range(r):
        acc -= _slot_replace(T, M, a, k, n_extra, n_m_extra)
    for b in range(r, k):
        acc += _slot_replace(T, M, b, k, n_extra, n_m_extra, transpose=True)
    return acc


def stencil_offsets(dim: int) -> np.ndarray:
    """Lexicographic (-1, 0, +1)^dim offsets, shape (3^dim, dim)."""
    return np.array(list(product((-1.0, 0.0, 1.0), repeat=dim)))


def fd_jets_from_stencil(
    values: np.ndarray, dim: int, eps: float, order: int = 2, ncomp_axes: int = 0
) -> List[np.ndarray]:
    """Central-difference jets from values on a (-eps, 0, +eps)^dim stencil.

    Batch-last: ``values`` has shape ``shape + batch + (3^dim,)``, where
    ``shape`` spans the leading ``ncomp_axes`` component axes and the
    trailing stencil axis is enumerated as in :func:`stencil_offsets`.
    Returns the value and derivative stacks at the centre as new arrays,
    the m-th of shape ``shape + (dim,) * m + batch`` as :func:`_lie_jet`
    reads them; the mixed second derivatives use the four corner points
    of each coordinate plane.
    """
    values = np.asarray(values, dtype=float)
    npoints = 3**dim
    if values.ndim < ncomp_axes + 1 or values.shape[-1] != npoints:
        raise ShapeMismatch(
            f"expected a trailing stencil axis of length {npoints} after {ncomp_axes} "
            f"component axes in {values.shape}"
        )
    comp = (slice(None),) * ncomp_axes  # index prefix of the component axes

    def at(*steps: Tuple[int, int]) -> np.ndarray:
        """Values at the centre moved by ``sign`` along each ``(direction, sign)``."""
        idx = (npoints - 1) // 2 + sum(sign * 3 ** (dim - 1 - k) for k, sign in steps)
        return values[..., idx]

    out = [at().copy()]  # not a view, so the stencil values can be freed
    shape, batch = out[0].shape[:ncomp_axes], out[0].shape[ncomp_axes:]
    if order >= 1:
        d1 = np.empty(shape + (dim,) + batch)
        for k in range(dim):
            d1[comp + (k,)] = (at((k, 1)) - at((k, -1))) / (2.0 * eps)
        out.append(d1)
    if order >= 2:
        d2 = np.empty(shape + (dim, dim) + batch)
        for k in range(dim):
            d2[comp + (k, k)] = (at((k, 1)) - 2.0 * at() + at((k, -1))) / eps**2
            for l in range(k + 1, dim):
                mixed = (at((k, 1), (l, 1)) - at((k, 1), (l, -1)) - at((k, -1), (l, 1))
                         + at((k, -1), (l, -1))) / (4.0 * eps**2)
                d2[comp + (k, l)] = d2[comp + (l, k)] = mixed
        out.append(d2)
    if order >= 3:
        raise NotImplementedError("stencil jets beyond second order are not needed here")
    return out
