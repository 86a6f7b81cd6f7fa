"""Tensor fields on charts, Lie derivatives and flow transport contractions.

Fields are stored as sympy expressions per chart in the time symbol
``t`` and coordinate symbols ``x0, x1, ...``; evaluation lambdifies the
expressions once (cached module-wide) and then works on numpy batches.
Free symbols other than time and coordinates are field parameters and
must be bound to floats in ``params``; because parameter values enter
only at call time, re-drawing random coefficients for a fixed template
reuses the compiled evaluator.

Every field declares a ``smoothness_order``: the largest total spatial
derivative order callers may request.  Asking beyond it raises
:class:`InsufficientSmoothness`, which is how verification scenarios
with deliberately capped regularity fail fast instead of silently using
derivatives the hypotheses do not grant.
"""

from __future__ import annotations

import string
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product
from math import prod
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np
import sympy as sp

from .geometry import JacobianData, ShapeMismatch, TensorValue

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


_LAMBDIFY_CACHE: Dict[tuple, object] = {}


def _compiled(exprs: Tuple[sp.Expr, ...], dim: int, param_syms: Tuple[sp.Symbol, ...]):
    key = (exprs, dim, param_syms)
    fn = _LAMBDIFY_CACHE.get(key)
    if fn is None:
        args = (TIME,) + coord_symbols(dim) + param_syms
        fn = sp.lambdify(args, list(exprs), modules="numpy")
        _LAMBDIFY_CACHE[key] = fn
    return fn


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
        self._partial_exprs: Dict[tuple, Tuple[sp.Expr, ...]] = {}
        syms = set()
        for arr in self.comps.values():
            for idx in np.ndindex(arr.shape) if arr.shape else [()]:
                syms |= arr[idx].free_symbols
        allowed = {TIME, *coord_symbols(self.dim), *(s for s, _ in self.params)}
        missing = syms - allowed
        if missing:
            raise ValueError(f"unbound symbols {sorted(map(str, missing))} in field {name!r}")

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
        out._partial_exprs = {}
        return out

    def with_params(self, params: Mapping) -> "TensorFieldSpec":
        """Copy with parameter values replaced (same expressions)."""
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__)
        new = dict(self.params)
        for k, v in _canonical_params(params):
            new[k] = v
        out.params = tuple(sorted(new.items(), key=lambda kv: kv[0].name))
        return out

    def is_time_independent(self) -> bool:
        return all(
            TIME not in arr[idx].free_symbols
            for arr in self.comps.values()
            for idx in (np.ndindex(arr.shape) if arr.shape else [()])
        )

    # -- evaluation --------------------------------------------------------

    def _exprs(self, chart: int, alpha: Tuple[int, ...]) -> Tuple[sp.Expr, ...]:
        key = (chart, alpha)
        cached = self._partial_exprs.get(key)
        if cached is not None:
            return cached
        if chart not in self.comps:
            raise KeyError(f"field {self.name!r} has no components in chart {chart}")
        if sum(alpha) > self.smoothness_order:
            raise InsufficientSmoothness(
                f"field {self.name!r} is C^{self.smoothness_order}; "
                f"derivative of order {sum(alpha)} requested"
            )
        xs = coord_symbols(self.dim)
        flat = []
        arr = self.comps[chart]
        for idx in np.ndindex(arr.shape) if arr.shape else [()]:
            e = arr[idx]
            for k, m in enumerate(alpha):
                if m:
                    e = sp.diff(e, xs[k], m)
            flat.append(e)
        out = tuple(flat)
        self._partial_exprs[key] = out
        return out

    def _eval_flat(self, t, coords: np.ndarray, chart: int, alpha: Tuple[int, ...]) -> np.ndarray:
        """Evaluate all components (flattened) on a batch; shape (ncomp,) + batch."""
        coords = np.asarray(coords, dtype=float)
        exprs = self._exprs(chart, alpha)
        psyms = tuple(s for s, _ in self.params)
        fn = _compiled(exprs, self.dim, psyms)
        args = (t,) + tuple(coords[..., i] for i in range(self.dim))
        args += tuple(v for _, v in self.params)
        vals = fn(*args)
        batch = np.broadcast_shapes(np.shape(t), coords.shape[:-1])
        return np.stack(
            [np.broadcast_to(np.asarray(v, dtype=float), batch) for v in vals], axis=0
        )

    def eval_batch(self, t, coords: np.ndarray, chart: int = 0) -> np.ndarray:
        """Component values on a batch of points; shape ``batch + self.shape``."""
        flat = self._eval_flat(t, coords, chart, (0,) * self.dim)
        batch = flat.shape[1:]
        return np.moveaxis(flat, 0, -1).reshape(batch + self.shape)

    def eval(self, t: float, coords: np.ndarray, chart: int = 0) -> TensorValue:
        return TensorValue(self.valence, self.eval_batch(t, np.asarray(coords, float), chart))

    def partial_batch(
        self, t, coords: np.ndarray, chart: int, alpha: Sequence[int]
    ) -> np.ndarray:
        """Spatial partial ``d^alpha`` of every component on a batch."""
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.dim:
            raise ShapeMismatch(f"alpha {alpha} has wrong length for dim {self.dim}")
        flat = self._eval_flat(t, coords, chart, alpha)
        batch = flat.shape[1:]
        return np.moveaxis(flat, 0, -1).reshape(batch + self.shape)

    def jet_batch(self, t, coords: np.ndarray, chart: int, order: int) -> List[np.ndarray]:
        """Value and derivative stacks up to ``order``.

        Returns ``[T, dT, d2T, ...]`` where the m-th entry has shape
        ``batch + self.shape + (dim,) * m`` and the trailing axes are the
        differentiation directions (symmetric by construction).
        """
        if order > self.smoothness_order:
            raise InsufficientSmoothness(
                f"field {self.name!r} is C^{self.smoothness_order}; jet order {order} requested"
            )
        coords = np.asarray(coords, dtype=float)
        out = [self.eval_batch(t, coords, chart)]
        base = out[0].shape
        for m in range(1, order + 1):
            arr = np.empty(base + (self.dim,) * m)
            # each distinct partial once, copied into its symmetric slots
            for directions in combinations_with_replacement(range(self.dim), m):
                alpha = [directions.count(d) for d in range(self.dim)]
                vals = self.partial_batch(t, coords, chart, alpha)
                for slots in set(permutations(directions)):
                    arr[(Ellipsis,) + slots] = vals
            out.append(arr)
        return out

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
            # rational normal form: repeated derivatives of quotient
            # components otherwise grow multiplicatively
            out[idx] = sp.cancel(e)
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


def _slot_replace(T: np.ndarray, M: np.ndarray, slot: int, nslots: int, n_extra: int = 0,
                  n_m_extra: int = 0, transpose: bool = False) -> np.ndarray:
    """Contract slot ``slot`` of ``T`` with the matrix stack ``M`` by matmul.

    ``T`` has shape ``batch + (n,) * nslots`` followed by ``n_extra``
    trailing axes kept as they are; ``M`` has shape ``batch + (rows, cols)``
    followed by ``n_m_extra`` trailing axes, which are appended to the
    result.  The batch axes broadcast.  With ``transpose`` False the new
    index is the first matrix index (``out_i = M[i, l] T[l]``), with True
    it is the second (``out_j = T[l] M[l, j]``).
    """
    nb = T.ndim - nslots - n_extra
    kept = T.shape[nb : nb + slot] + T.shape[nb + slot + 1 :]
    m_tail = M.shape[M.ndim - n_m_extra :]
    Mm = M if transpose else np.swapaxes(M, -2 - n_m_extra, -1 - n_m_extra)
    n_in, n_new = Mm.shape[M.ndim - n_m_extra - 2 : M.ndim - n_m_extra]
    Tm = np.moveaxis(T, nb + slot, -1).reshape(T.shape[:nb] + (prod(kept), n_in))
    Mm = Mm.reshape(M.shape[: M.ndim - n_m_extra - 2] + (n_in, n_new * prod(m_tail)))
    res = np.matmul(Tm, Mm)  # batch + (kept, new * m_tail)
    res = res.reshape(res.shape[:-2] + kept + (n_new,) + m_tail)
    return np.moveaxis(res, -1 - n_m_extra, res.ndim - nslots - n_extra - n_m_extra + slot)


def _contract(comp, valence, contra_mat, cov_mat, mods=None):
    """Contract every slot of ``comp``, one slot at a time.

    Contravariant slots contract with ``contra_mat`` (``out_i = M[i, l]
    T[l]``), covariant ones with ``cov_mat`` (``out_j = T[l] M[l, j]``);
    ``mods`` maps a slot index to a matrix stack used there instead.
    """
    r, s = valence
    out = np.asarray(comp, dtype=float)
    for slot in range(r + s):
        default = contra_mat if slot < r else cov_mat
        mat = mods.get(slot, default) if mods else default
        out = _slot_replace(out, mat, slot, r + s, transpose=slot >= r)
    return out


def pullback_batch(
    comps: np.ndarray, valence: Tuple[int, int], jac: np.ndarray, inv_jac: np.ndarray
) -> np.ndarray:
    """Pullback contraction on batched components.

    ``comps`` are tensor components at the image point, ``jac`` the flow
    Jacobian at the base point and ``inv_jac`` its inverse; contravariant
    slots contract with ``inv_jac``, covariant slots with ``jac``.
    """
    return _contract(comps, valence, inv_jac, jac)


def pushforward_batch(
    comps: np.ndarray, valence: Tuple[int, int], jac: np.ndarray, inv_jac: np.ndarray
) -> np.ndarray:
    """Pushforward contraction (inverse transport): slots swap matrices."""
    return _contract(comps, valence, jac, inv_jac)


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
    r, s = valence
    k = r + s
    if len(t_jets) < out_order + 2 or len(x_jets) < out_order + 2:
        raise InsufficientSmoothness(
            f"jet order {out_order + 1} required on both inputs for a C^{out_order} result"
        )
    X, dX = x_jets[0], x_jets[1]
    T, dT = t_jets[0], t_jets[1]
    Xcol = X[..., None]  # X as an (n, 1) matrix stack

    def transport(T_m, dX_loc, n_extra):
        """Slot terms of the Lie formula applied to a derivative stack."""
        acc = np.zeros_like(T_m)
        for a in range(r):
            acc -= _slot_replace(T_m, dX_loc, a, k, n_extra, transpose=False)
        for b in range(r, k):
            acc += _slot_replace(T_m, dX_loc, b, k, n_extra, transpose=True)
        return acc

    # value: X^l d_l T  - sum_a T(l@a) d_l X^{i_a} + sum_b T(l@b) d_{j_b} X^l
    val = _slot_replace(dT, Xcol, k, k + 1, transpose=True)[..., 0]
    val = val + transport(T, dX, 0)
    out = [val]
    if out_order >= 1:
        d2T = t_jets[2]
        d2X = x_jets[2]
        # d_m (X^l d_l T) = d_m X^l d_l T + X^l d^2_{lm} T
        term = _slot_replace(dT, dX, k, k + 1, transpose=True)
        term = term + _slot_replace(d2T, Xcol, k, k + 2, transpose=True)[..., 0, :]
        # slot terms differentiated with Leibniz
        term = term + transport(dT, dX, 1)
        for a in range(r):
            term -= _slot_replace(T, d2X, a, k, n_m_extra=1, transpose=False)
        for b in range(r, k):
            term += _slot_replace(T, d2X, b, k, n_m_extra=1, transpose=True)
        out.append(term)
    if out_order >= 2:
        raise NotImplementedError("jets beyond first order are not needed here")
    return out


def stencil_offsets(dim: int) -> np.ndarray:
    """Lexicographic (-1, 0, +1)^dim offsets, shape (3^dim, dim)."""
    return np.array(list(product((-1.0, 0.0, 1.0), repeat=dim)))


def fd_jets_from_stencil(
    values: np.ndarray, dim: int, eps: float, order: int = 2, ncomp_axes: int = 0
) -> List[np.ndarray]:
    """Central-difference jets from values on a (-eps, 0, +eps)^dim stencil.

    ``values`` has shape ``batch + (3^dim,) + shape`` where ``shape``
    spans the trailing ``ncomp_axes`` component axes and the stencil axis
    is enumerated as in :func:`stencil_offsets`.  Returns value and
    derivative stacks at the centre; the mixed second derivatives use the
    four corner points of each coordinate plane.
    """
    values = np.asarray(values, dtype=float)
    npoints = 3**dim
    axis = values.ndim - 1 - ncomp_axes
    if axis < 0 or values.shape[axis] != npoints:
        raise ShapeMismatch(
            f"expected stencil axis of length {npoints} at position {axis} in {values.shape}"
        )
    values = np.moveaxis(values, axis, 0)  # (3^dim, batch..., shape...)

    def at(offs: Tuple[int, ...]) -> np.ndarray:
        idx = 0
        for o in offs:
            idx = idx * 3 + (o + 1)
        return values[idx]

    center = (0,) * dim
    out = [at(center)]
    if order >= 1:
        d1 = np.empty(out[0].shape + (dim,))
        for kdir in range(dim):
            plus = list(center)
            minus = list(center)
            plus[kdir] = 1
            minus[kdir] = -1
            d1[..., kdir] = (at(tuple(plus)) - at(tuple(minus))) / (2.0 * eps)
        out.append(d1)
    if order >= 2:
        d2 = np.empty(out[0].shape + (dim, dim))
        for kdir in range(dim):
            plus = list(center)
            minus = list(center)
            plus[kdir] = 1
            minus[kdir] = -1
            d2[..., kdir, kdir] = (
                at(tuple(plus)) - 2.0 * at(center) + at(tuple(minus))
            ) / eps**2
            for ldir in range(kdir + 1, dim):
                pp = list(center)
                pm = list(center)
                mp = list(center)
                mm = list(center)
                pp[kdir] = pp[ldir] = 1
                mm[kdir] = mm[ldir] = -1
                pm[kdir], pm[ldir] = 1, -1
                mp[kdir], mp[ldir] = -1, 1
                mixed = (at(tuple(pp)) - at(tuple(pm)) - at(tuple(mp)) + at(tuple(mm))) / (
                    4.0 * eps**2
                )
                d2[..., kdir, ldir] = mixed
                d2[..., ldir, kdir] = mixed
        out.append(d2)
    if order >= 3:
        raise NotImplementedError("stencil jets beyond second order are not needed here")
    return out
